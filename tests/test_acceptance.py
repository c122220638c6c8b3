"""Acceptance criteria, one test per criterion.

Every equality below is an exact symbolic identity: the tolerance is zero
everywhere. Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS/FAIL line per criterion.

Criterion 7 checks the Bessel value at lambda = 0 against the long-root
product. The relation is not a unit monomial, as once asserted: the alternator
side of the identity (criterion 1) gives an inherent non-unit factor
q^{n-1} (1 + q) on B_n. The derivation is in the criterion-7 docstring and in
``heckemod.formulas.BesselValue``.
"""

from heckemod.algebra import GroupRingElem
from heckemod.characters import character_by_name, characters
from heckemod.formulas import (
    bessel_value,
    casselman_shalika,
    dominant_coweights_up_to_height,
    macdonald,
    poincare_polynomial,
    shalika,
    theorem_lhs,
    theorem_rhs,
    weyl_character,
)
from heckemod.operators import demazure_word, sum_fraktur
from heckemod.root_system import build_root_system, weyl_group
from heckemod.verify import (
    monomial_box,
    run_suite,
    verify_operator_identity,
)

ACCEPTANCE_TYPES = ("A1", "A2", "A3", "B2", "C2", "B3", "G2")


def _report(criterion: str, detail: str = "") -> None:
    print(f"PASS {criterion}" + (f" ({detail})" if detail else ""))


def test_criterion_01_operator_identity_all_types():
    """lhs = rhs for every character and every lambda in [-2,2]^rank (<=200)."""
    total = 0
    for name in ACCEPTANCE_TYPES:
        rs = build_root_system(name)
        box = monomial_box(rs.rank, 2, 200)
        assert len(box) <= 200
        for eps in characters(rs):
            for lam in box:
                assert theorem_lhs(eps, lam) == theorem_rhs(eps, lam), (name, eps.name, lam)
                total += 1
    _report("criterion 1: operator identity", f"{total} exact equalities over {ACCEPTANCE_TYPES}")


def test_criterion_02_sign_correction_negative_control():
    """Uncorrected alternator side flips sign: A1/triv/0 gives 1+q vs -(1+q)."""
    rs = build_root_system("A1")
    trv = character_by_name(rs, "triv")
    poincare = GroupRingElem.monomial((0,), {0: 1, 1: 1})
    assert theorem_lhs(trv, (0,)) == poincare
    assert theorem_rhs(trv, (0,)) == poincare
    result = verify_operator_identity(trv, [(0,)], mutate="drop-sign-correction")
    assert not result.passed
    assert result.witness == {"lambda": [0], "lhs": "(q + 1)", "rhs": "(-q - 1)"}
    _report("criterion 2: negative control", "suite fails with the 1+q vs -(1+q) witness")


def _at_q_zero(f):
    """f with q set to 0: each coefficient's constant term. f must hold no
    negative power of q, which q = 0 would not define."""
    assert all(e >= 0 for qd in f.coeffs.values() for e in qd)
    return GroupRingElem(f.rank, {mu: {0: qd[0]} for mu, qd in f.coeffs.items() if 0 in qd})


def test_criterion_03_q_zero_degeneration():
    """q = 0 collapses the generator sum to the full divided difference, and
    the divided difference on pi^{w0 lambda} is the highest-weight character.
    This test sets q = 0 after the full q-polynomial walk, independently of
    the suite, whose walk runs at q = 0 from the start."""
    checked = 0
    for name in ACCEPTANCE_TYPES:
        rs = build_root_system(name)
        w0 = weyl_group(rs).longest
        box = monomial_box(rs.rank, 2, 200)
        for eps in characters(rs):
            for mu in box:
                f = GroupRingElem.monomial(mu)
                assert _at_q_zero(sum_fraktur(eps, f)) == demazure_word(rs, w0.word, f)
                checked += 1
    for name in ACCEPTANCE_TYPES:
        rs = build_root_system(name)
        w0 = weyl_group(rs).longest
        for lam in dominant_coweights_up_to_height(rs, 4):
            got = demazure_word(rs, w0.word, GroupRingElem.monomial(w0.apply(lam)))
            assert got == weyl_character(rs, lam)
            checked += 1
    _report("criterion 3: q=0 degeneration", f"{checked} checks")


def test_criterion_04_casselman_shalika():
    """Closed Whittaker form equals the sign-character value; A1 golden frozen."""
    rs = build_root_system("A1")
    golden = theorem_lhs(character_by_name(rs, "sign"), (1,))
    assert golden.to_str() == "-pi^[-2] + (q - 1) + q*pi^[2]"
    checked = 0
    for name in ("A1", "A2", "B2"):
        rs = build_root_system(name)
        sgn = character_by_name(rs, "sign")
        for lam in dominant_coweights_up_to_height(rs, 3):
            assert casselman_shalika(rs, lam) == theorem_lhs(sgn, lam), (name, lam)
            checked += 1
    _report("criterion 4: casselman-shalika", f"{checked} dominant coweights, ratio +1 throughout")


def test_criterion_05_macdonald():
    """Symmetrized sum equals the trivial-character value; Poincare at 0."""
    checked = 0
    for name in ("A1", "A2", "B2"):
        rs = build_root_system(name)
        trv = character_by_name(rs, "triv")
        for lam in dominant_coweights_up_to_height(rs, 3):
            assert macdonald(rs, lam) == theorem_lhs(trv, lam), (name, lam)
            checked += 1
    a2 = build_root_system("A2")
    assert macdonald(a2, (0, 0)) == GroupRingElem.monomial((0, 0), {0: 1, 1: 2, 2: 2, 3: 1})
    b2 = build_root_system("B2")
    frozen_b2 = GroupRingElem.monomial((0, 0), {0: 1, 1: 2, 2: 2, 3: 2, 4: 1})
    assert poincare_polynomial(b2, range(2)) == frozen_b2  # oracle sum of q^{l(w)}
    assert macdonald(b2, (0, 0)) == frozen_b2
    _report("criterion 5: macdonald", f"{checked} coweights; Poincare values frozen")


def test_criterion_06_bessel_intertwiner():
    """Under neg-long: spherical branch at short simple roots, Whittaker branch
    at long ones, on the full monomial box."""
    from heckemod.algebra import s_image
    from heckemod.operators import intertwiner_op

    checked = 0
    for name in ("B2", "B3"):
        rs = build_root_system(name)
        eps = character_by_name(rs, "neg-long")
        box = monomial_box(rs.rank, 2, 200)
        for i in range(rs.rank):
            av = rs.simple_coroots[i]
            short = rs.length_class_of[rs.simple_root(i)] == "short"
            if short:
                c = GroupRingElem.one(rs.rank) - GroupRingElem.monomial(av, {-1: 1})
            else:
                c = GroupRingElem.monomial(av) - GroupRingElem.monomial((0,) * rs.rank, {-1: 1})
            for mu in box:
                f = GroupRingElem.monomial(mu)
                assert intertwiner_op(eps, i, f) == c * s_image(rs, i, f), (name, i, mu)
                checked += 1
    _report("criterion 6: bessel intertwiner cases", f"{checked} checks on B2, B3")


def _long_root_product(rs, eps, q_exp):
    """pi^{-rho_eps} prod_{long a>0} (1 - q^{q_exp} pi^{a^vee}), factor by factor."""
    out = GroupRingElem.one(rs.rank)
    for r in eps.phi_minus:
        out = out * (GroupRingElem.one(rs.rank) - GroupRingElem.monomial(rs.coroot_of[r], {q_exp: 1}))
    return out.translated(tuple(-c for c in eps.rho_eps))


def _invert(f):
    """The ring involution pi^mu -> pi^{-mu}."""
    return GroupRingElem(f.rank, {tuple(-c for c in mu): qd for mu, qd in f.coeffs.items()})


def test_criterion_07_bessel_value_unit_monomial():
    """theorem_lhs(neg-long, 0) against pi^{-rho_eps} prod_long (1 - q^-1 pi^{a^vee})
    on B2 and B3: the exact relation, and no unit monomial.

    At lambda = 0 the alternator side is
        (-1)^{l(w0)} pi^{-rho_eps} prod_long (1 - q pi^{a^vee})
            * A(pi^{2rho_eps - rho} prod_short (1 - q pi^{a^vee})) / A(pi^rho).
    In epsilon coordinates 2rho_eps - rho = (n-2, ..., 0, -1) and the short
    coroots are 2e_i. Only S = {1..n-1} and S = {1..n} make (n-2, ..., -1) + 2e_S
    W-conjugate to rho (every other exponent has a zero or a repeated entry);
    they contribute (-1)^n q^{n-1} and (-1)^n q^n, and (-1)^{l(w0)} = (-1)^n, so
        value = q^{n-1} (1 + q) * pi^{-rho_eps} prod_long (1 - q pi^{a^vee}).
    The n(n-1) long coroots sum to 2 rho_eps, so equivalently
        value = (q^{n^2-1} + q^{n^2}) * iota(quoted),  iota: pi^mu -> pi^{-mu}.
    Since 1 + q is not a unit, the quoted unit-monomial form does not hold.
    """
    for name in ("B2", "B3"):
        rs = build_root_system(name)
        n = rs.rank
        eps = character_by_name(rs, "neg-long")
        zero = (0,) * n
        value = theorem_lhs(eps, zero)
        q_side = _long_root_product(rs, eps, 1)
        quoted = _long_root_product(rs, eps, -1)
        assert value == GroupRingElem.monomial(zero, {n - 1: 1, n: 1}) * q_side, name
        report = bessel_value(rs)
        assert report.theorem_value == value, name
        assert report.quoted_product == quoted, name
        assert value == GroupRingElem.monomial(zero, {n * n - 1: 1, n * n: 1}) * _invert(
            report.quoted_product
        ), name
        assert report.unit_ratio is None, (name, report.unit_ratio)
        print(
            f"criterion 7 [{name}]: value = {report.q_form_cofactor.to_str()} * "
            "pi^-rho_eps prod_long(1 - q pi^av); no unit monomial to the quoted product"
        )
    _report("criterion 7: bessel value unit monomial", "q^{n-1}(1+q), not a unit, on B2, B3")


def test_criterion_08_shalika_internal_identity():
    """The two displayed Shalika evaluations agree exactly on B2 and B3."""
    checked = 0
    for name in ("B2", "B3"):
        rs = build_root_system(name)
        for lam in dominant_coweights_up_to_height(rs, 2):
            forms = shalika(rs, lam)
            assert forms.theorem_form == forms.rewritten_form, (name, lam)
            checked += 1
    _report("criterion 8: shalika forms", f"{checked} dominant coweights")


STRUCTURAL = ("quadratic", "braid", "bernstein", "deformed-demazure", "rho-pairing")
STRUCTURAL_MUTATIONS = {
    "quadratic": "q-squared",
    "braid": "mismatched-character",
    "bernstein": "flip-correction-sign",
    "deformed-demazure": "swap-cases",
    "rho-pairing": "shift-rho",
}


def test_criterion_09_structural_suites():
    """Quadratic, braid, Bernstein, deformed-Demazure, and pairing identities
    pass on the full grid; each has a failing mutation control."""
    checked = 0
    for name in ACCEPTANCE_TYPES:
        for suite in STRUCTURAL:
            for result in run_suite(suite, name):
                assert result.passed, (suite, name, result.witness)
                checked += result.checked
    for suite, mutation in STRUCTURAL_MUTATIONS.items():
        mutated = []
        for name in ("A1", "B2"):
            mutated.extend(run_suite(suite, name, radius=1, cap=30, mutate=mutation))
        assert any(not r.passed for r in mutated), (suite, mutation)
    _report("criterion 9: structural suites", f"{checked} checks + 5 failing mutation controls")


def test_criterion_10_table_determinism(tmp_path):
    """run_table twice on B2 produces byte-identical CSV and JSON files."""
    from heckemod.cli import main

    for sub in ("one", "two"):
        code = main(["table", "--type", "B2", "--height", "2", "--out", str(tmp_path / sub)])
        assert code == 0
    for filename in ("table_B2.csv", "table_B2.json"):
        first = (tmp_path / "one" / filename).read_bytes()
        second = (tmp_path / "two" / filename).read_bytes()
        assert first == second, filename
    _report("criterion 10: table determinism", "CSV and JSON byte-identical")
