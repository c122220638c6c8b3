import pytest

from heckemod import formulas, operators
from heckemod.algebra import GroupRingElem, divide_by_binomials, grsum, multiply_binomials, weyl_act
from heckemod.characters import character_by_name, characters
from heckemod.errors import NonDominant, NonReducedWord, WrongFamily
from heckemod.formulas import (
    bessel_value,
    casselman_shalika,
    coset_measure,
    demazure_character,
    dominant_coweights_up_to_height,
    iwahori_image,
    macdonald,
    poincare_polynomial,
    shalika,
    theorem_lhs,
    theorem_rhs,
    weyl_character,
)
from heckemod.operators import sum_fraktur
from heckemod.root_system import WeylElement, build_root_system, negate_coweight, rho, weyl_group
from heckemod.verify import verify_operator_identity


def pi(*coords, q=0, c=1):
    return GroupRingElem.monomial(tuple(coords), {q: c})


def test_theorem_lhs_frozen_a1():
    rs = build_root_system("A1")
    sgn = character_by_name(rs, "sign")
    assert theorem_lhs(sgn, (1,)).to_str() == "-pi^[-2] + (q - 1) + q*pi^[2]"
    trv = character_by_name(rs, "triv")
    assert theorem_lhs(trv, (0,)) == GroupRingElem.monomial((0,), {0: 1, 1: 1})


def test_theorem_rhs_frozen_a1():
    rs = build_root_system("A1")
    sgn = character_by_name(rs, "sign")
    assert theorem_rhs(sgn, (1,)).to_str() == "-pi^[-2] + (q - 1) + q*pi^[2]"
    trv = character_by_name(rs, "triv")
    assert theorem_rhs(trv, (0,)) == GroupRingElem.monomial((0,), {0: 1, 1: 1})


def test_negative_control_uncorrected_sign_at_zero():
    # The right side with Omega's global (-1)^{l(w0)} dropped, built from the
    # alternator quotient A(pi^{-rho} f) / A(pi^rho) directly: on A1 it is -lhs,
    # and the verifier's drop-sign-correction control reports exactly that pair.
    rs = build_root_system("A1")
    trv = character_by_name(rs, "triv")
    lhs = theorem_lhs(trv, (0,))
    assert trv.rho_eps == (0,) and not trv.minus_coroots
    f = multiply_binomials(GroupRingElem.one(1), trv.q_coroots, 1).translated(negate_coweight(rho(rs)))
    rhs = operators.divide_by_weyl_denominator(rs, operators.alternator(rs, f))
    assert lhs == GroupRingElem.monomial((0,), {0: 1, 1: 1})
    assert rhs == -lhs
    r = verify_operator_identity(trv, [(0,)], mutate="drop-sign-correction")
    assert not r.passed
    assert (r.witness["lhs"], r.witness["rhs"]) == (lhs.to_str(), rhs.to_str())


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2"])
def test_lhs_equals_rhs_including_non_dominant(name):
    rs = build_root_system(name)
    from heckemod.verify import monomial_box

    for eps in characters(rs):
        for lam in monomial_box(rs.rank, 1, 30):
            assert theorem_lhs(eps, lam) == theorem_rhs(eps, lam)


def test_identity_summand_appears():
    # the w = e summand contributes pi^{lambda}; the full sum minus the other
    # terms recovers it, checked here by direct expansion for A1 sign
    rs = build_root_system("A1")
    sgn = character_by_name(rs, "sign")
    lam = (1,)
    # per-element images of pi^{lambda + rho_eps}:
    from heckemod.operators import t_word

    g = weyl_group(rs)
    pieces = [t_word(sgn, w.word, pi(2)) for w in g.elements]
    assert pieces[0] == pi(2)
    assert grsum(1, pieces) == theorem_lhs(sgn, lam)


def test_weyl_character_values():
    rs = build_root_system("A1")
    assert weyl_character(rs, (0,)) == GroupRingElem.one(1)
    assert weyl_character(rs, (1,)) == pi(1) + pi(-1)
    a2 = build_root_system("A2")
    chi = weyl_character(a2, (1, 0))
    assert len(chi.coeffs) == 3
    assert chi == pi(1, 0) + pi(-1, 1) + pi(0, -1)


def test_demazure_character_agrees():
    for name in ("A1", "A2", "B2", "G2"):
        rs = build_root_system(name)
        for lam in dominant_coweights_up_to_height(rs, 3):
            assert demazure_character(rs, lam) == weyl_character(rs, lam)


def test_characters_require_dominance():
    rs = build_root_system("A1")
    with pytest.raises(NonDominant):
        weyl_character(rs, (-1,))
    with pytest.raises(NonDominant):
        demazure_character(rs, (-1,))


def test_casselman_shalika_golden_a1():
    rs = build_root_system("A1")
    cs = casselman_shalika(rs, (1,))
    assert cs.closed_form == cs.theorem_form
    assert cs.closed_form.to_str() == "-pi^[-2] + (q - 1) + q*pi^[2]"


def test_casselman_shalika_at_zero_is_deformed_denominator():
    # q^{l(w0)} pi^{rho} prod (1 - q^-1 pi^{-a^vee}) with chi_0 = 1
    rs = build_root_system("A1")
    cs = casselman_shalika(rs, (0,))
    expected = pi(1, q=1) - pi(-1)
    assert cs.closed_form == expected


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_casselman_shalika_matches_theorem(name):
    rs = build_root_system(name)
    for lam in dominant_coweights_up_to_height(rs, 3):
        cs = casselman_shalika(rs, lam)
        assert cs.closed_form == cs.theorem_form


def test_macdonald_poincare_values():
    a1 = build_root_system("A1")
    assert macdonald(a1, (0,)) == GroupRingElem.monomial((0,), {0: 1, 1: 1})
    a2 = build_root_system("A2")
    assert macdonald(a2, (0, 0)) == GroupRingElem.monomial((0, 0), {0: 1, 1: 2, 2: 2, 3: 1})
    b2 = build_root_system("B2")
    assert macdonald(b2, (0, 0)) == poincare_polynomial(b2)
    assert poincare_polynomial(b2) == GroupRingElem.monomial((0, 0), {0: 1, 1: 2, 2: 2, 3: 2, 4: 1})


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_macdonald_matches_theorem(name):
    rs = build_root_system(name)
    trv = character_by_name(rs, "triv")
    for lam in dominant_coweights_up_to_height(rs, 3):
        assert macdonald(rs, lam) == theorem_lhs(trv, lam)


def test_macdonald_sums_over_orbits_not_elements(monkeypatch):
    # The W-sum is d_{w0} of the numerator, Demazure operators along w0's
    # word: no WeylElement.apply, and neither Omega nor the alternator, which
    # would tie the macdonald suite to the operator-identity side it is
    # checked against.
    rs = build_root_system("B3")
    g = weyl_group(rs)
    calls = []
    apply = WeylElement.apply

    def counted(self, mu):
        calls.append(mu)
        return apply(self, mu)

    def forbidden(*args, **kwargs):
        raise AssertionError("macdonald must not use Omega or the alternator")

    monkeypatch.setattr(WeylElement, "apply", counted)
    monkeypatch.setattr(formulas, "omega_apply", forbidden)
    monkeypatch.setattr(operators, "alternator", forbidden)
    for lam in [(0, 0, 0), (1, 0, 1), (0, 2, 0)]:
        macdonald(rs, lam)
    assert calls == []
    weyl_act(g.longest, pi(1, 0, 0) + pi(0, 1, 0))  # the patch does count
    assert len(calls) == 2


def common_denominator_macdonald(rs, lam):
    """Macdonald's sum over W by the literal route: num * den_bar, with
    num = pi^lambda prod_{a>0} (1 - q pi^{a^vee}) and den_bar =
    prod_{a>0} (1 - pi^{-a^vee}), summed element by element over W, then
    divided by the 2 |Phi+| binomials of the W-invariant denominator
    prod_{a in Phi} (1 - pi^{a^vee})."""
    coroots = [rs.coroot_of[r] for r in rs.positive_roots]
    num = multiply_binomials(GroupRingElem.monomial(lam), coroots, 1)
    num_bar = multiply_binomials(num, [negate_coweight(av) for av in coroots], 0)
    out = grsum(rs.rank, (weyl_act(w, num_bar) for w in weyl_group(rs).elements))
    return divide_by_binomials(out, [v for av in coroots for v in (av, negate_coweight(av))], 0)


@pytest.mark.parametrize("name", ["B2", "G2", "B3"])
def test_macdonald_matches_the_common_denominator_route(name):
    rs = build_root_system(name)
    for lam in dominant_coweights_up_to_height(rs, 2):
        assert macdonald(rs, lam) == common_denominator_macdonald(rs, lam), lam


def test_shalika_forms_agree():
    for name in ("B2", "B3"):
        rs = build_root_system(name)
        for lam in dominant_coweights_up_to_height(rs, 2):
            forms = shalika(rs, lam)
            assert forms.theorem_form == forms.rewritten_form


def test_shalika_exponent_audit():
    # lambda + 2 rho_eps - rho + sum_long a^vee = lambda + rho
    for name in ("B2", "B3"):
        rs = build_root_system(name)
        eps = character_by_name(rs, "neg-short")
        total = [0] * rs.rank
        for r in eps.phi_q:  # long roots
            for k, c in enumerate(rs.coroot_of[r]):
                total[k] += c
        lhs = tuple(2 * a - b + t for a, b, t in zip(eps.rho_eps, rho(rs), total))
        assert lhs == rho(rs)


def test_shalika_wrong_family():
    with pytest.raises(WrongFamily):
        shalika(build_root_system("A2"), (0, 0))
    with pytest.raises(WrongFamily):
        bessel_value(build_root_system("C2"))


def test_dominance_preconditions_on_closed_forms():
    b2 = build_root_system("B2")
    for fn in (macdonald, casselman_shalika, shalika):
        with pytest.raises(NonDominant):
            fn(b2, (-1, 0))


def test_bessel_value_frozen_cofactors():
    # Frozen goldens of the relation derived from the alternator side (see
    # heckemod.formulas.BesselValue): the lambda = 0 value equals
    # q^{n-1}(1+q) * pi^{-rho_eps} * prod_{long a>0} (1 - q pi^{a^vee}) in B_n,
    # so the ratio against the q^{-1}-side product is NOT a unit monomial.
    b2 = bessel_value(build_root_system("B2"))
    assert b2.q_form_cofactor == GroupRingElem.monomial((0, 0), {1: 1, 2: 1})
    assert b2.unit_ratio is None
    b3 = bessel_value(build_root_system("B3"))
    assert b3.q_form_cofactor == GroupRingElem.monomial((0, 0, 0), {2: 1, 3: 1})
    assert b3.unit_ratio is None


def test_bessel_value_binomial_expansion_sanity():
    # collapsing pi -> 1 in the quoted product leaves (1 - q^-1)^{#long}:
    # 2^{#long} expansion terms in total, with the leading monomial
    # (-q^-1)^{#long} pi^{-rho_eps + sum_long a^vee}
    import math

    for name in ("B2", "B3"):
        rs = build_root_system(name)
        eps = character_by_name(rs, "neg-long")
        report = bessel_value(rs)
        nlong = len(eps.phi_minus)
        collapsed = {}
        for qd in report.quoted_product.coeffs.values():
            for e, c in qd.items():
                collapsed[e] = collapsed.get(e, 0) + c
        assert collapsed == {-k: (-1) ** k * math.comb(nlong, k) for k in range(nlong + 1)}
        assert sum(abs(c) for c in collapsed.values()) == 2**nlong
        # -rho_eps + sum of long coroots = rho_eps, reached only by the full subset
        assert report.quoted_product.coeffs[eps.rho_eps] == {-nlong: (-1) ** nlong}


def test_coset_measure():
    a1 = build_root_system("A1")
    assert coset_measure(a1, (0,)) == {0: 1}
    assert coset_measure(a1, (1,)) == {1: 1}
    b2 = build_root_system("B2")
    for lam in [(1, 0), (0, 1), (2, 1)]:
        expected = sum(b2.pairing(r, lam) for r in b2.positive_roots)
        assert coset_measure(b2, lam) == {expected: 1}
    with pytest.raises(NonDominant):
        coset_measure(a1, (-1,))


def test_iwahori_image_identity_and_reflection():
    a1 = build_root_system("A1")
    for eps in characters(a1):
        image = iwahori_image(eps, (), (2,))
        assert image.value == pi(*(2 + eps.rho_eps[0],))
        assert image.measure == {2: 1}
    trv = character_by_name(a1, "triv")
    assert iwahori_image(trv, (0,), (0,)).value == pi(0, q=1)
    with pytest.raises(NonReducedWord):
        iwahori_image(trv, (0, 0), (0,))


@pytest.mark.parametrize("name", ["A1", "B2"])
def test_iwahori_images_sum_to_theorem_value(name):
    rs = build_root_system(name)
    g = weyl_group(rs)
    lam = (1,) * rs.rank
    for eps in characters(rs):
        total = grsum(rs.rank, (iwahori_image(eps, w.word, lam).value for w in g.elements))
        assert total == theorem_lhs(eps, lam)
        # the conjugated-sum convention differs by the rho_eps shift
        start = GroupRingElem.monomial(tuple(l + 2 * r for l, r in zip(lam, eps.rho_eps)))
        assert sum_fraktur(eps, start) == total.translated(eps.rho_eps)


def test_iwahori_image_requires_dominant():
    rs = build_root_system("A1")
    trv = character_by_name(rs, "triv")
    with pytest.raises(NonDominant):
        iwahori_image(trv, (), (-1,))


def test_dominant_coweight_enumeration():
    a1 = build_root_system("A1")
    assert dominant_coweights_up_to_height(a1, 3) == [(0,), (1,), (2,), (3,)]
    b2 = build_root_system("B2")
    lams = dominant_coweights_up_to_height(b2, 2)
    assert lams == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
