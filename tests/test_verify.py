"""The verification layer: suites pass on theorems, mutations must fail."""

import hashlib
import json
import sys
import tracemalloc
from functools import cache
from itertools import product

import pytest

from heckemod import algebra, cli, operators, root_system, verify
from heckemod.algebra import GroupRingElem, exact_div, s_image
from heckemod.characters import character_by_name, characters
from heckemod.errors import HeckemodError, UnknownName
from heckemod.operators import sum_fraktur, t_act, t_word
from heckemod.root_system import build_root_system, negate_coweight, orbit, reflect, rho
from heckemod.formulas import alternator_gathers, bessel_value
from heckemod.verify import (
    DEFAULT_TYPES,
    MUTATION_SUITES,
    SUITES,
    monomial_box,
    run_suite,
    suite_tasks,
    verify_omega_symmetry,
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


def test_no_generic_ring_product_on_any_path(monkeypatch, capsys):
    # Every product by binomials 1 - q^k pi^v goes through multiply_binomials
    # and every quotient through divide_by_binomials; the generic product and
    # exact_div are the tests' reference routes only.
    def forbidden(*args, **kwargs):
        raise AssertionError("generic product or division called")

    binding = sorted(name for name, module in sys.modules.items() if name.split(".")[0] == "heckemod"
                     and getattr(module, "exact_div", None) is algebra.exact_div)
    assert binding == ["heckemod.algebra"]
    for name in binding:
        monkeypatch.setattr(sys.modules[name], "exact_div", forbidden)
    monkeypatch.setattr(GroupRingElem, "__mul__", forbidden)
    with pytest.raises(AssertionError):
        GroupRingElem.one(1) * GroupRingElem.one(1)  # the patches do bite
    with pytest.raises(AssertionError):
        algebra.RationalElem(GroupRingElem.one(1), GroupRingElem.one(1)).clear()
    for suite in SUITES:
        for type_name in ("A1", "B2"):
            for r in run_suite(suite, type_name, radius=1, cap=30):
                assert r.passed, (suite, type_name, r.witness)
    for formula, entry in cli.FORMULAS.items():
        argv = ["eval", "--type", "B2", "--formula", formula, "--lambda", "2,1", "--word", "1,2"]
        if entry.needs_character:
            argv += ["--character", "sign"]
        assert cli.main(argv) == 0, (formula, capsys.readouterr().err)


def test_no_enumeration_of_w_on_any_path(monkeypatch, capsys):
    # Every Weyl-group fact a computing path needs is read off the orbit of
    # rho; weyl_group is the reference enumeration of alternator and the tests.
    def forbidden(*args, **kwargs):
        raise AssertionError("weyl_group called")

    def run_all():
        suites = [(suite, type_name, mutation, [r.to_json_obj() for r in run_suite(
                      suite, type_name, radius=1, cap=30, mutate=mutation)])
                  for suite, entry in SUITES.items() for type_name in ("A1", "B2")
                  for mutation in (None, entry.mutations[0])]
        evals = []
        for formula, entry in cli.FORMULAS.items():
            argv = ["eval", "--type", "B2", "--formula", formula, "--lambda", "2,1", "--word", "1,2"]
            if entry.needs_character:
                argv += ["--character", "sign"]
            evals.append((cli.main(argv), capsys.readouterr()))
        return suites, evals

    binding = sorted(name for name, module in sys.modules.items() if name.split(".")[0] == "heckemod"
                     and getattr(module, "weyl_group", None) is root_system.weyl_group)
    assert binding == ["heckemod.operators", "heckemod.root_system"]
    for name in binding:
        monkeypatch.setattr(sys.modules[name], "weyl_group", forbidden)
    with pytest.raises(AssertionError):
        operators.alternator(build_root_system("A1"), GroupRingElem.one(1))  # the patch does bite
    suites, evals = run_all()
    for suite, type_name, mutation, results in suites:
        if mutation is None:
            assert all(r["status"] == "pass" for r in results), (suite, type_name)
    assert [code for code, _ in evals] == [0] * len(cli.FORMULAS)
    monkeypatch.undo()
    assert (suites, evals) == run_all()  # as with the enumeration in reach


@pytest.mark.parametrize("type_name", ["B2", "G2"])
def test_q_zero_degeneration_walks_without_t_act(monkeypatch, type_name):
    # The suite walks at q = 0 (and its control at q = 1) from the start, on
    # the walk's integer kernel, so no q-polynomial generator runs: neither
    # t_act nor a generator (flip) call of rank_one. The suite's right side,
    # d_{w0}, keeps rank_one's Demazure form.
    def forbidden(*args, **kwargs):
        raise AssertionError("t_act called")

    real_rank_one, real_t_act = algebra.rank_one, operators.t_act

    def generator_forbidden(rs, i, f, flip, scalar, along):
        if flip:
            raise AssertionError("rank_one called for a generator")
        return real_rank_one(rs, i, f, flip, scalar, along)

    binding = sorted(name for name, module in sys.modules.items() if name.split(".")[0] == "heckemod"
                     and getattr(module, "t_act", None) is operators.t_act)
    assert binding == ["heckemod", "heckemod.operators", "heckemod.verify"]
    for name in binding:
        monkeypatch.setattr(sys.modules[name], "t_act", forbidden)
    for name in sorted(name for name, module in sys.modules.items() if name.split(".")[0] == "heckemod"
                       and getattr(module, "rank_one", None) is real_rank_one):
        monkeypatch.setattr(sys.modules[name], "rank_one", generator_forbidden)
    triv = character_by_name(build_root_system("A1"), "triv")
    with pytest.raises(AssertionError, match="t_act"):
        operators.fraktur_t(triv, 0, GroupRingElem.one(1))  # the patches do bite
    with pytest.raises(AssertionError, match="rank_one"):
        real_t_act(triv, 0, GroupRingElem.one(1))
    passing = run_suite("q-zero-degeneration", type_name)
    assert passing and all(r.passed for r in passing)
    controls = run_suite("q-zero-degeneration", type_name, mutate="wrong-specialization")
    assert controls and not any(r.passed for r in controls)


def test_braid_walks_elements_in_shortlex_order():
    # ShortLex order reaches s_1 s_3 = s_3 s_1 before s_1 s_2 s_1 = s_2 s_1 s_2,
    # so the mismatched-character control fails there first.
    results = run_suite("braid", "A3", radius=1, cap=30, mutate="mismatched-character")
    assert [(r.checked, r.witness) for r in results] == [(1, {"w": [1, 3], "word": [3, 1], "mu": [-1, -1, -1]})] * 2


def _first_failure(cases):
    """(checked, witness) of a run of (holds, witness) checks, stopping at the first failure."""
    checked = 0
    for holds, explain in cases:
        checked += 1
        if not holds:
            return checked, explain()
    return checked, None


def _braid_by_words(eps, monomials, mutate):
    """Braid applying all of t_word to every reduced word of every element."""
    rs = eps.root_system
    acting = eps
    if mutate == "mismatched-character":
        acting = next(c for c in characters(rs) if c.name != eps.name)

    @cache
    def reduced_words(x):
        if min(x) > 0:
            return [()]
        return [(i,) + rest for i, c in enumerate(x) if c < 0 for rest in reduced_words(reflect(rs, i, x))]

    points = sorted(orbit(rs, rho(rs)), key=lambda x: (len(reduced_words(x)[0]), reduced_words(x)[0]))
    for mu in monomials:
        f = GroupRingElem.monomial(mu)
        for x in points:
            words = reduced_words(x)
            if len(words) < 2:
                continue
            reference = t_word(eps, words[0], f)
            for word in words[1:]:
                yield t_word(acting, word, f) == reference, lambda: {
                    "w": [i + 1 for i in words[0]], "word": [i + 1 for i in word], "mu": list(mu)}


def _bernstein_per_pair(eps, mus, nus, mutate):
    """Bernstein computing both sides' T_{s_i} afresh for every (mu, nu), and
    its correction by the generic exact_div rather than the binomial kernel."""
    rs = eps.root_system
    correction_scale = {0: -1, 1: 1} if mutate == "flip-correction-sign" else {0: 1, 1: -1}
    for i in range(rs.rank):
        denom = GroupRingElem.one(rs.rank) - GroupRingElem.monomial(negate_coweight(rs.simple_coroots[i]))
        for mu in mus:
            smu = reflect(rs, i, mu)
            correction = exact_div(GroupRingElem.monomial(smu) - GroupRingElem.monomial(mu), denom)
            correction = correction.scale_q(correction_scale)
            for nu in nus:
                lhs = t_act(eps, i, GroupRingElem.monomial(tuple(a + b for a, b in zip(mu, nu))))
                rhs = t_act(eps, i, GroupRingElem.monomial(nu)).translated(smu) + correction.translated(nu)
                yield lhs == rhs, lambda: {
                    "i": i + 1, "mu": list(mu), "nu": list(nu), "lhs": lhs.to_str(), "rhs": rhs.to_str()}


@pytest.mark.parametrize("type_name,mutate", [
    *((t, None) for t in ("A2", "A3", "B2", "G2", "B3", "C3")),
    *((t, "mismatched-character") for t in ("A3", "B2", "G2", "B3", "C3")),
])
def test_braid_walk_matches_the_per_word_loop(type_name, mutate):
    rs = build_root_system(type_name)
    small = monomial_box(rs.rank, 1, 30)[:2]  # run_suite's braid box
    expected = [_first_failure(_braid_by_words(eps, small, mutate)) for eps in characters(rs)]
    assert [(r.checked, r.witness) for r in run_suite("braid", type_name, mutate=mutate)] == expected
    assert all((witness is None) == (mutate is None) for _, witness in expected)


@pytest.mark.parametrize("type_name,mutate", [
    *((t, None) for t in ("A2", "A3", "B2", "G2", "B3")),
    *((t, "flip-correction-sign") for t in ("A3", "B2", "G2", "B3")),
])
def test_bernstein_memo_matches_the_per_pair_loop(type_name, mutate):
    rs = build_root_system(type_name)
    mus, nus = monomial_box(rs.rank)[:40], monomial_box(rs.rank, 1, 30)[:9]  # run_suite's bernstein boxes
    expected = [_first_failure(_bernstein_per_pair(eps, mus, nus, mutate)) for eps in characters(rs)]
    assert [(r.checked, r.witness) for r in run_suite("bernstein", type_name, mutate=mutate)] == expected
    assert all((witness is None) == (mutate is None) for _, witness in expected)


def _count_t_act(monkeypatch) -> list[int]:
    """The list to which every t_act call of the verifiers appends its i."""
    counted = []

    def counting(eps, i, f):
        counted.append(i)
        return t_act(eps, i, f)

    monkeypatch.setattr(verify, "t_act", counting)
    return counted


@pytest.mark.parametrize("suite,calls", [("braid", 576), ("bernstein", 1116)])
def test_t_act_calls_on_b3(monkeypatch, suite, calls):
    # Braid computes T_i R_{s_i x} once for each element x and left descent
    # i, 48 * 3 / 2 = 72 per monomial and character on B3, and bernstein
    # each T_{s_i} pi^x once: the per-word and per-pair loops made 10688 and
    # 8640 calls.
    counted = _count_t_act(monkeypatch)
    assert all(r.passed for r in run_suite(suite, "B3"))
    assert len(counted) == calls


def test_braid_control_stops_at_its_first_check_on_d4(monkeypatch):
    # The control computes only what its first check reads, s_1 s_3 = s_3 s_1
    # along one word under each character: 2 t_act calls per side, for each
    # of the 2 characters.
    counted = _count_t_act(monkeypatch)
    results = run_suite("braid", "D4", mutate="mismatched-character")
    assert [(r.checked, r.witness) for r in results] == [
        (1, {"w": [1, 3], "word": [3, 1], "mu": [-1, -1, -1, -1]})] * 2
    assert len(counted) == 8


@pytest.mark.slow
def test_braid_passes_on_d4(capsys):
    assert cli.main(["verify", "--type", "D4", "--suite", "braid"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS braid                  D4  sign       checks=19054",
        "PASS braid                  D4  triv       checks=19054",
        "OK: 2/2 identities passed",
    ]


def test_family_guarded_suites_skip_other_types():
    assert run_suite("shalika", "G2") == []
    assert run_suite("braid", "A1") == []  # no A1 element has two reduced words


def test_zero_checks_is_not_a_pass():
    # An empty box; run_suite no longer builds one (radius -1 is a ValueError).
    results = [verify_quadratic(eps, []) for eps in characters(build_root_system("A1"))]
    assert results
    for r in results:
        assert r.checked == 0
        assert not r.passed
        assert r.witness == {"error": "nothing was checked"}


def test_bessel_value_suite_holds_beyond_b3():
    # The q^{n-1}(1+q) cofactor is derived for every B_n, not frozen per type:
    # value-at-zero's neg-long row checks the closed form it comes from on B4.
    results = run_suite("value-at-zero", "B4")
    assert all(r.passed for r in results), [r.witness for r in results]
    report = bessel_value(build_root_system("B4"))
    assert report.q_form_cofactor.to_str() == "(q^4 + q^3)"
    mutated = {r.character: r for r in run_suite("value-at-zero", "B4", mutate="shift-poincare")}
    assert not mutated["neg-long"].passed
    assert mutated["neg-long"].witness["theorem"] == report.theorem_value.to_str()


@pytest.mark.parametrize("type_name", DEFAULT_TYPES)
def test_shift_poincare_fails_on_every_default_row(type_name):
    # triv and sign make the q exponent of the closed form 0, so a control
    # that only dropped that power would pass there; multiplying by q does not.
    results = run_suite("value-at-zero", type_name, mutate="shift-poincare")
    assert [r.character for r in results] == [eps.name for eps in characters(build_root_system(type_name))]
    assert not any(r.passed for r in results)


@pytest.mark.slow
@pytest.mark.parametrize("type_name", ["C3", "B4", "C4", "D4"])
def test_value_at_zero_passes_beyond_the_default_types(type_name):
    results = run_suite("value-at-zero", type_name)
    assert len(results) == len(characters(build_root_system(type_name)))
    assert all(r.passed for r in results), [r.witness for r in results]


@pytest.mark.slow
@pytest.mark.parametrize("type_name", ["C3", "D4"])
@pytest.mark.parametrize("suite", ["operator-identity", "q-zero-degeneration", "omega-symmetry"])
def test_hecke_walk_suites_pass_beyond_the_default_types(suite, type_name):
    results = run_suite(suite, type_name)
    assert len(results) == len(characters(build_root_system(type_name)))
    assert all(r.passed for r in results), [r.witness for r in results]


@pytest.mark.parametrize("mutation", sorted(MUTATION_SUITES))
def test_mutations_fail(mutation, capsys):
    # Exit 1 is a failed run; a mutation that no selected suite owns exits 2.
    code = cli.main(["verify", "--type", "A1", "--type", "B2", "--box", "1", "--cap", "30", "--mutate", mutation])
    out = capsys.readouterr().out
    assert code == 1, mutation
    assert any(line.startswith("FAIL ") for line in out.splitlines()), mutation


@pytest.mark.parametrize(
    "suite,mutation", [(suite, m) for suite in sorted(SUITES) for m in SUITES[suite].mutations]
)
def test_every_registered_control_fails(suite, mutation):
    # Each owner of a mutation must fail on its own, not just one of them.
    results = [r for t in ("A1", "B2") for r in run_suite(suite, t, radius=1, cap=30, mutate=mutation)]
    assert any(not r.passed for r in results), (suite, mutation)


def test_run_suite_refuses_an_unregistered_mutation():
    # A misspelled control used to run unmutated and pass.
    with pytest.raises(ValueError, match="'q-squared'"):
        run_suite("quadratic", "A1", mutate="no-such-thing")
    with pytest.raises(ValueError, match="'mismatched-character'"):
        run_suite("braid", "A1", mutate="q-squared")  # refused even where the suite does not apply


def test_run_suite_refuses_an_unknown_suite():
    # A misspelled suite used to die with a bare KeyError.
    with pytest.raises(ValueError, match="unknown suite 'quadratc'; known: .*'quadratic'"):
        run_suite("quadratc", "A1")


@pytest.mark.parametrize("call", [
    lambda: run_suite("quadratc", "A1"),
    lambda: run_suite("quadratic", "A1", mutate="no-such-thing"),
    lambda: suite_tasks(("A1",), mutate="no-such-thing"),
    lambda: suite_tasks(("A1",), suites=("quadratc",)),
])
def test_unknown_names_raise_unknown_name(call):
    # One error type for every unknown suite, mutation or unregistered
    # mutation; still a ValueError for callers that catch that.
    with pytest.raises(UnknownName) as info:
        call()
    assert isinstance(info.value, ValueError) and isinstance(info.value, HeckemodError)


def test_suite_tasks_refuses_unknown_names():
    # A misspelled mutation used to die with a bare KeyError; a misspelled
    # suite beside a mutation was dropped silently.
    with pytest.raises(ValueError, match="unknown mutation 'no-such-thing'; known: .*'q-squared'"):
        suite_tasks(("A1",), mutate="no-such-thing")
    with pytest.raises(ValueError, match="unknown suite 'quadratc'"):
        suite_tasks(("A1",), suites=("quadratc",))
    with pytest.raises(ValueError, match="unknown suite 'quadratc'"):
        suite_tasks(("A1",), suites=("quadratc",), mutate="q-squared")


WITNESS_KEYS = {
    ("bernstein", "flip-correction-sign"): {"i", "mu", "nu", "lhs", "rhs"},
    ("braid", "mismatched-character"): {"mu", "w", "word"},
    ("casselman-shalika", "drop-q-power"): {"closed", "lambda", "theorem"},
    ("character-formulas", "drop-rho-shift"): {"lambda", "lhs", "rhs"},
    ("deformed-demazure", "swap-cases"): {"i", "mu", "lhs", "rhs"},
    ("intertwiner", "swap-cases"): {"i", "mu", "lhs", "rhs"},
    ("macdonald", "drop-first-letter"): {"lambda", "lhs", "rhs"},
    ("omega-symmetry", "drop-right-sign"): {"i", "mu", "side"},
    ("omega-symmetry", "unreflected-left"): {"i", "mu", "side"},
    ("operator-identity", "drop-sign-correction"): {"lambda", "lhs", "rhs"},
    ("q-zero-degeneration", "wrong-specialization"): {"lhs", "mu", "rhs"},
    ("quadratic", "q-squared"): {"i", "mu", "residual"},
    ("rho-pairing", "shift-rho"): {"expected", "rho_eps"},
    ("shalika", "drop-long-q-power"): {"lambda", "rewritten", "theorem"},
    ("value-at-zero", "shift-poincare"): {"closed", "theorem"},
}


def test_witness_keys_cover_every_control():
    assert set(WITNESS_KEYS) == {(s, m) for s, entry in SUITES.items() for m in entry.mutations}


@pytest.mark.parametrize("suite,mutation", sorted(WITNESS_KEYS))
def test_failing_witness_keys(suite, mutation):
    failures = [r for t in ("A1", "B2") for r in run_suite(suite, t, radius=1, cap=30, mutate=mutation)
                if not r.passed]
    assert failures
    for r in failures:
        assert set(r.witness) == WITNESS_KEYS[suite, mutation], r.witness


def test_every_suite_registers_a_control():
    assert all(entry.mutations for entry in SUITES.values())


def test_shared_mutation_runs_every_owner():
    assert MUTATION_SUITES["swap-cases"] == ("deformed-demazure", "intertwiner")
    results = [r for suite, t in suite_tasks(("B2",), mutate="swap-cases")
               for r in run_suite(suite, t, radius=0, cap=1, mutate="swap-cases")]
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


def test_one_bit_below_the_combined_bound_two_elements_collide():
    # verify_operator_identity compares at q = 2^B for the least B with
    # 2^(B-1) > L + R, L the Hecke walk's bound and R the alternator side's.
    # One bit lower, 2^(B-1) <= L + R, and two unequal elements whose
    # coefficients are at most L + R in size, c and q - c for c = 2^(B-1),
    # take the same value at 2^B; at the chosen B they do not.
    rs = build_root_system("B3")
    eps = character_by_name(rs, "triv")
    lam = (1, 0, 1)
    start = GroupRingElem.monomial(lam)  # rho_eps = 0 for triv
    (_, rhs_bound), = alternator_gathers(eps, [lam])
    combined = operators.walk_bound(eps, start) + rhs_bound
    bits = combined.bit_length() + 1
    low = bits - 1
    c = 1 << (low - 1)
    assert c <= combined < 1 << (bits - 1)
    g = GroupRingElem.monomial(lam, {0: c})
    h = GroupRingElem.monomial(lam, {0: -c, 1: 1})
    assert g != h
    assert algebra.encode_q(g, 1 << low) == algebra.encode_q(h, 1 << low)
    assert algebra.encode_q(g, 1 << bits) != algebra.encode_q(h, 1 << bits)


def test_b3_drop_sign_correction_witness_golden(capsys):
    # B3 has l(w0) = 9, odd, so the control fails on every character. The
    # bytes were pinned from the q-polynomial comparison, which decoded both
    # sides of every check; the integer comparison decodes only the witness
    # and must write the same report. neg-short fails at a nonzero box point.
    code = cli.main(["verify", "--type", "B3", "--suite", "operator-identity", "--mutate", "drop-sign-correction",
                     "--box", "1", "--output", "json"])
    out = capsys.readouterr().out
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "307362e02de5dcbe3345bfff786bf9882f776aa1828d65d13fe7311ad0a87517")
    results = json.loads(out)["results"]
    assert [(r["character"], r["checked"], r["witness"]["lambda"]) for r in results] == [
        ("neg-long", 14, [0, 0, 0]), ("neg-short", 3, [-1, -1, 1]), ("sign", 14, [0, 0, 0]),
        ("triv", 1, [-1, -1, -1])]
    assert results[1]["witness"] == {
        "lambda": [-1, -1, 1],
        "lhs": "(q^7 + q^6 - q^4 - q^3)*pi^[-2,0,1] + (-q^6 - q^5 + q^3 + q^2)*pi^[-2,2,-1]"
               " + (-q^6 - q^5 + q^3 + q^2)*pi^[0,-2,1] + (q^5 + q^4 - q^2 - q)*pi^[0,0,-1]"
               " + (-q^8 - q^7 + q^5 + q^4)*pi^[0,0,1] + (q^7 + q^6 - q^4 - q^3)*pi^[0,2,-1]"
               " + (q^7 + q^6 - q^4 - q^3)*pi^[2,-2,1] + (-q^6 - q^5 + q^3 + q^2)*pi^[2,0,-1]",
        "rhs": "(-q^7 - q^6 + q^4 + q^3)*pi^[-2,0,1] + (q^6 + q^5 - q^3 - q^2)*pi^[-2,2,-1]"
               " + (q^6 + q^5 - q^3 - q^2)*pi^[0,-2,1] + (-q^5 - q^4 + q^2 + q)*pi^[0,0,-1]"
               " + (q^8 + q^7 - q^5 - q^4)*pi^[0,0,1] + (-q^7 - q^6 + q^4 + q^3)*pi^[0,2,-1]"
               " + (-q^7 - q^6 + q^4 + q^3)*pi^[2,-2,1] + (q^6 + q^5 - q^3 - q^2)*pi^[2,0,-1]",
    }


def test_drop_sign_correction_fails_exactly_when_l_w0_is_odd():
    # The control negates the right side when l(w0) = |Phi+| is odd, which is
    # what dropping Omega's global (-1)^{l(w0)} does; for even l(w0) it is a no-op.
    for type_name, odd in (("A1", True), ("A2", True), ("B3", True), ("B2", False), ("G2", False), ("A3", False)):
        rs = build_root_system(type_name)
        assert len(rs.positive_roots) % 2 == odd, type_name
        zero = [(0,) * rs.rank]
        for eps in characters(rs):
            r = verify_operator_identity(eps, zero, mutate="drop-sign-correction")
            assert r.passed != odd, (type_name, eps.name, r.witness)


def _full_left_check(rs, eps, monomials, unreflected):
    """(checked, witness) of the first failure of D_{-1} s_i(Theta) = s_i(D_{-1}) Theta,
    with every factor of D_{-1} on both sides, or None when every check holds."""

    def product(coroots):
        out = GroupRingElem.one(rs.rank)
        for v in coroots:
            out = out * (GroupRingElem.one(rs.rank) - GroupRingElem.monomial(v, {1: 1}))
        return out

    checked = 0
    for mu in monomials:
        theta = sum_fraktur(eps, GroupRingElem.monomial(mu))
        for i in range(rs.rank):
            reflected = eps.minus_coroots if unreflected else [reflect(rs, i, v) for v in eps.minus_coroots]
            checked += 1
            if product(eps.minus_coroots) * s_image(rs, i, theta) != product(reflected) * theta:
                return checked, {"side": "left", "i": i + 1, "mu": list(mu)}
    return None


def test_omega_symmetry_left_check_matches_the_full_cleared_form():
    # The verifier cancels the factors of D_{-1} that s_i permutes; its verdicts
    # must be those of the full cleared form, unmutated and under unreflected-left.
    failures = 0
    for type_name in ("A1", "B2", "G2"):
        rs = build_root_system(type_name)
        small = monomial_box(rs.rank, 1, 30)
        for eps in characters(rs):
            for mutate in (None, "unreflected-left"):
                r = verify_omega_symmetry(eps, small, mutate=mutate)
                expected = _full_left_check(rs, eps, small, mutate is not None)
                if expected is None:
                    # Every left check held, and then every right check ran and held.
                    assert r.passed and r.checked == 2 * rs.rank * len(small), (type_name, eps.name, mutate)
                else:
                    failures += 1
                    assert (r.checked, r.witness) == expected, (type_name, eps.name, mutate)
    assert failures  # the control does reach the left check


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


@pytest.mark.parametrize("rank, radius, cap", [
    (1, 0, 1), (1, 3, 7), (1, 3, 2), (2, 2, 200), (2, 2, 7), (2, 3, 10), (3, 1, 30), (3, 2, 13), (4, 2, 200),
])
def test_monomial_box_is_the_strided_product(rank, radius, cap):
    box = list(product(range(-radius, radius + 1), repeat=rank))
    assert monomial_box(rank, radius, cap) == box[::-(-len(box) // cap)]


def test_monomial_box_builds_only_the_points_it_keeps():
    # The whole box of 121^3 points took 139 MB before it was thinned to 200.
    tracemalloc.start()
    try:
        box = monomial_box(3, 60, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(box) <= 200 and box[0] == (-60, -60, -60)
    assert peak < 5_000_000


@pytest.mark.parametrize("radius, cap", [(2, 0), (2, -3), (-1, 200)])
def test_monomial_box_rejects_bad_sizes(radius, cap):
    # cap 0 used to divide by zero, cap -3 to return a reversed, thinned box,
    # radius -1 to return an empty one.
    with pytest.raises(ValueError):
        monomial_box(2, radius, cap)
    with pytest.raises(ValueError):
        run_suite("quadratic", "A1", radius=radius, cap=cap)


def test_verify_max_rank_filter(capsys):
    code = cli.main(["verify", "--type", "A1", "--type", "A3", "--suite", "rho-pairing",
                     "--max-rank", "2", "--output", "json"])
    assert code == 0
    assert {r["type"] for r in json.loads(capsys.readouterr().out)["results"]} == {"A1"}


def test_results_sorted_deterministically(capsys):
    outputs = []
    for types, suites in ((("B2", "A1"), ("rho-pairing", "quadratic")), (("A1", "B2"), ("quadratic", "rho-pairing"))):
        argv = ["verify", "--box", "1", "--cap", "10"]
        argv += [a for t in types for a in ("--type", t)] + [a for s in suites for a in ("--suite", s)]
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert " B2 " in outputs[0] and "rho-pairing" in outputs[0] and "quadratic" in outputs[0]
