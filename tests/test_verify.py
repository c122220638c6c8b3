"""The verification layer: suites pass on theorems, mutations must fail."""

import pytest

from heckemod.characters import character_by_name
from heckemod.root_system import build_root_system
from heckemod.verify import (
    MUTATION_SUITES,
    SUITES,
    monomial_box,
    run_suite,
    run_verification,
    verify_operator_identity,
    verify_quadratic,
)

SMALL_TYPES = ("A1", "A2", "B2", "G2")


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_passes_on_small_types(suite):
    for type_name in SMALL_TYPES:
        results = run_suite(suite, type_name, radius=1, cap=30)
        for r in results:
            assert r.passed, (suite, type_name, r.witness)


def test_family_guarded_suites_skip_other_types():
    assert run_suite("bessel-value", "A2") == []
    assert run_suite("shalika", "G2") == []
    assert run_suite("braid", "A1") == []  # no A1 element has two reduced words


def test_zero_checks_is_not_a_pass():
    results = run_suite("quadratic", "A1", radius=-1)
    assert results
    for r in results:
        assert r.checked == 0
        assert not r.passed
        assert r.witness == {"error": "nothing was checked"}


def test_bessel_value_suite_holds_beyond_b3():
    # The q^{n-1}(1+q) cofactor is derived for every B_n, not frozen per type.
    (result,) = run_suite("bessel-value", "B4")
    assert result.passed, result.witness
    (mutated,) = run_suite("bessel-value", "B4", mutate="drop-cofactor")
    assert not mutated.passed
    assert mutated.witness["cofactor"] == "(q^4 + q^3)"
    assert mutated.witness["expected"] == "1"


@pytest.mark.parametrize("mutation", sorted(MUTATION_SUITES))
def test_mutations_fail(mutation):
    results = run_verification(types=("A1", "B2"), radius=1, cap=30, mutate=mutation)
    assert results, mutation
    assert any(not r.passed for r in results), mutation


@pytest.mark.parametrize(
    "suite,mutation", [(suite, m) for suite in sorted(SUITES) for m in SUITES[suite].mutations]
)
def test_every_registered_control_fails(suite, mutation):
    # Each owner of a mutation must fail on its own, not just one of them.
    results = [r for t in ("A1", "B2") for r in run_suite(suite, t, radius=1, cap=30, mutate=mutation)]
    assert any(not r.passed for r in results), (suite, mutation)


def test_every_suite_registers_a_control():
    assert all(entry.mutations for entry in SUITES.values())


def test_shared_mutation_runs_every_owner():
    assert MUTATION_SUITES["swap-cases"] == ("deformed-demazure", "intertwiner", "bessel-intertwiner")
    results = run_verification(types=("B2",), radius=0, cap=1, mutate="swap-cases")
    assert {r.identity for r in results} == set(MUTATION_SUITES["swap-cases"])


def test_quadratic_mutation_witness():
    rs = build_root_system("A1")
    trv = character_by_name(rs, "triv")
    r = verify_quadratic(trv, [(0,)], mutate="q-squared")
    assert not r.passed
    assert r.witness["mu"] == [0]
    assert "residual" in r.witness


def test_drop_sign_correction_witness_is_poincare_pair():
    rs = build_root_system("A1")
    trv = character_by_name(rs, "triv")
    r = verify_operator_identity(trv, [(0,)], mutate="drop-sign-correction")
    assert not r.passed
    assert r.witness["lhs"] == "(q + 1)"
    assert r.witness["rhs"] == "(-q - 1)"


def test_result_json_shape():
    results = run_suite("rho-pairing", "B2")
    for r in results:
        obj = r.to_json_obj()
        assert set(obj) >= {"identity", "type", "character", "status", "checked"}
        assert obj["status"] == "pass"
        assert "witness" not in obj
    fail = verify_operator_identity(
        character_by_name(build_root_system("A1"), "triv"), [(0,)], mutate="drop-sign-correction"
    )
    assert "witness" in fail.to_json_obj()


def test_monomial_box_deterministic_subsampling():
    full = monomial_box(2, 2, cap=200)
    assert len(full) == 25
    assert full == sorted(full)
    capped = monomial_box(4, 2, cap=200)
    assert len(capped) <= 200
    assert capped == monomial_box(4, 2, cap=200)
    assert all(all(-2 <= c <= 2 for c in mu) for mu in capped)


def test_run_verification_max_rank_filter():
    results = run_verification(types=("A1", "A3"), suites=["rho-pairing"], max_rank=2)
    assert {r.cartan for r in results} == {"A1"}


def test_results_sorted_deterministically():
    a = run_verification(types=("B2", "A1"), suites=["rho-pairing", "quadratic"], radius=1, cap=10)
    b = run_verification(types=("A1", "B2"), suites=["quadratic", "rho-pairing"], radius=1, cap=10)
    assert [(r.identity, r.cartan, r.character) for r in a] == [
        (r.identity, r.cartan, r.character) for r in b
    ]
