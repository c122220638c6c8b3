"""Operator-level tests: frozen small values, independent oracles for the
conjugated-generator case formula, and the operator-algebra laws."""

import pytest

from heckemod.algebra import GroupRingElem, exact_div, grsum
from heckemod.characters import character_by_name, characters
from heckemod.errors import NonReducedWord
from heckemod.operators import (
    alternator,
    demazure,
    fraktur_t,
    fraktur_word,
    intertwiner_op,
    omega_apply,
    s_image,
    sum_fraktur,
    t_act,
    t_word,
    weyl_denominator,
)
from heckemod.root_system import build_root_system, negate_coweight, rho, weyl_group
from heckemod.verify import monomial_box


def pi(*coords, q=0, c=1):
    return GroupRingElem.monomial(tuple(coords), {q: c})


ONE1 = GroupRingElem.one(1)


def test_t_act_on_constants():
    rs = build_root_system("A1")
    assert t_act(character_by_name(rs, "triv"), 0, ONE1) == pi(0, q=1)
    assert t_act(character_by_name(rs, "sign"), 0, ONE1) == ONE1.scale(-1)


def test_t_act_frozen_a1_sign():
    rs = build_root_system("A1")
    sgn = character_by_name(rs, "sign")
    got = t_act(sgn, 0, pi(2))
    expected = pi(0, q=1) - ONE1 + pi(2, q=1) - pi(2) - pi(-2)
    assert got == expected
    assert got.to_str() == "-pi^[-2] + (q - 1) + (q - 1)*pi^[2]"


def test_t_word_identity_and_braid_agreement():
    a2 = build_root_system("A2")
    for eps in characters(a2):
        f = GroupRingElem.monomial((1, 0))
        assert t_word(eps, (), f) == f
        assert t_word(eps, (0, 1, 0), f) == t_word(eps, (1, 0, 1), f)

    b2 = build_root_system("B2")
    f = GroupRingElem.monomial((1, 1))
    for eps in characters(b2):
        assert t_word(eps, (0, 1, 0, 1), f) == t_word(eps, (1, 0, 1, 0), f)


def test_t_word_rejects_non_reduced():
    rs = build_root_system("A2")
    eps = character_by_name(rs, "triv")
    with pytest.raises(NonReducedWord):
        t_word(eps, (0, 0), GroupRingElem.one(2))
    with pytest.raises(NonReducedWord):
        t_word(eps, (0, 1, 0, 1), GroupRingElem.one(2))


def test_demazure_small_values():
    rs = build_root_system("A1")
    assert demazure(rs, 0, ONE1) == ONE1
    assert demazure(rs, 0, pi(-3)) == pi(-3) + pi(-1) + pi(1) + pi(3)
    assert demazure(rs, 0, pi(1)).is_zero()


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_demazure_operator_laws(name):
    rs = build_root_system(name)
    for i in range(rs.rank):
        av = rs.simple_coroots[i]
        for mu in monomial_box(rs.rank, 2, 20):
            f = GroupRingElem.monomial(mu)
            d = demazure(rs, i, f)
            assert demazure(rs, i, d) == d  # idempotent
            assert s_image(rs, i, d) == d  # s_i d_i = d_i
            # d_i s_i = -d_i pi^{alpha_i^vee}
            assert demazure(rs, i, s_image(rs, i, f)) == -demazure(rs, i, f.translated(av))


def test_fraktur_triv_is_plain_action():
    rs = build_root_system("B2")
    trv = character_by_name(rs, "triv")
    f = GroupRingElem.monomial((1, -1))
    for i in range(2):
        assert fraktur_t(trv, i, f) == t_act(trv, i, f)


def test_fraktur_frozen_a1_sign():
    rs = build_root_system("A1")
    sgn = character_by_name(rs, "sign")
    assert fraktur_t(sgn, 0, ONE1) == pi(2, q=1, c=-1)
    f3 = pi(3)
    got = f3 + fraktur_t(sgn, 0, f3)
    assert got == pi(3, q=1) + pi(1, q=1) - pi(1) - pi(-1)
    # equals (1 - q pi^{a}) d(pi^{3w})
    d = demazure(rs, 0, f3)
    assert got == d - d.translated((2,)).scale_q({1: 1})


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_fraktur_matches_displayed_case_formula(name):
    # oracle: frak_t_i f = [(1-q) f + (q pi^{b} - 1) f^s] / (pi^{-a^vee} - 1),
    # with b = +a^vee on the -1 classes and b = -a^vee on the q classes
    rs = build_root_system(name)
    for eps in characters(rs):
        for i in range(rs.rank):
            av = rs.simple_coroots[i]
            b = av if eps.is_neg_at(i) else negate_coweight(av)
            den = GroupRingElem.monomial(negate_coweight(av)) - GroupRingElem.one(rs.rank)
            for mu in monomial_box(rs.rank, 1, 9):
                f = GroupRingElem.monomial(mu)
                fs = s_image(rs, i, f)
                num = f.scale_q({0: 1, 1: -1}) + fs.translated(b).scale_q({1: 1}) - fs
                assert fraktur_t(eps, i, f) == exact_div(num, den)


def test_sum_fraktur_poincare_values():
    a1 = build_root_system("A1")
    assert sum_fraktur(character_by_name(a1, "triv"), ONE1) == GroupRingElem.monomial((0,), {0: 1, 1: 1})
    a2 = build_root_system("A2")
    got = sum_fraktur(character_by_name(a2, "triv"), GroupRingElem.one(2))
    assert got == GroupRingElem.monomial((0, 0), {0: 1, 1: 2, 2: 2, 3: 1})


def test_sum_fraktur_frozen_a1_sign():
    rs = build_root_system("A1")
    sgn = character_by_name(rs, "sign")
    assert sum_fraktur(sgn, pi(3)) == pi(3, q=1) + pi(1, q=1) - pi(1) - pi(-1)


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_sum_fraktur_matches_per_element_composition(name):
    # oracle: compose frak_t along each stored reduced word separately
    rs = build_root_system(name)
    g = weyl_group(rs)
    for eps in characters(rs):
        f = GroupRingElem.monomial((1, -1))
        naive = grsum(rs.rank, (fraktur_word(eps, w.word, f) for w in g.elements))
        assert sum_fraktur(eps, f) == naive


def test_omega_small_values():
    rs = build_root_system("A1")
    assert omega_apply(rs, pi(-1)) == pi(1) + pi(-1)
    assert omega_apply(rs, ONE1) == ONE1
    assert omega_apply(rs, pi(-3)) == demazure(rs, 0, pi(-3))


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_omega_reproduces_characters(name):
    # weyl_character is omega_apply(pi^{w0 lambda}); the Demazure composition is
    # the independent side.
    from heckemod.formulas import demazure_character, dominant_coweights_up_to_height, weyl_character

    rs = build_root_system(name)
    w0 = weyl_group(rs).longest
    for lam in dominant_coweights_up_to_height(rs, 3):
        chi = omega_apply(rs, GroupRingElem.monomial(w0.apply(lam)))
        assert chi == weyl_character(rs, lam) == demazure_character(rs, lam)


def test_omega_uncorrected_flips_sign_in_odd_rank():
    rs = build_root_system("A1")
    assert omega_apply(rs, ONE1, sign_corrected=False) == -ONE1


def test_weyl_denominator_product_form():
    for name in ("A1", "A2", "B2", "G2"):
        rs = build_root_system(name)
        delta = weyl_denominator(rs)
        alt = alternator(rs, GroupRingElem.monomial(rho(rs)))
        assert delta == alt


def test_intertwiner_spec_cases():
    b2 = build_root_system("B2")
    bessel = character_by_name(b2, "neg-long")
    one2 = GroupRingElem.one(2)
    for i in range(2):
        av = b2.simple_coroots[i]
        f = GroupRingElem.monomial((1, 1))
        fs = s_image(b2, i, f)
        got = intertwiner_op(bessel, i, f)
        if b2.length_class_of[b2.simple_root(i)] == "short":
            c = one2 - GroupRingElem.monomial(av, {-1: 1})
        else:
            c = GroupRingElem.monomial(av) - GroupRingElem.monomial((0, 0), {-1: 1})
        assert got == c * fs
