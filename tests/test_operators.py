"""Operator-level tests: frozen small values, independent oracles for the
conjugated-generator case formula, and the operator-algebra laws."""

import copy
import operator
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckemod import algebra, operators, root_system
from heckemod.algebra import (GroupRingElem, decode_q, divide_by_binomials, encode_q, exact_div, grsum, multiply_binomials,
                              rank_one_int, s_image)
from heckemod.characters import character_by_name, characters
from heckemod.errors import NonReducedWord
from heckemod.formulas import (
    demazure_character,
    dominant_coweights_up_to_height,
    theorem_lhs,
    theorem_rhs,
    weyl_character,
)
from heckemod.operators import (
    alternator,
    demazure,
    demazure_word,
    fraktur_t,
    intertwiner_op,
    omega_apply,
    sum_fraktur,
    t_act,
    t_word,
)
from heckemod.root_system import add_coweights, build_root_system, negate_coweight, orbit, reflect, rho, weyl_group
from heckemod.verify import BOX_CAP_DEFAULT, BOX_RADIUS_DEFAULT, DEFAULT_TYPES, monomial_box
from test_algebra import coeff, one_minus_pi, qexp, ring_elems


def pi(*coords, q=0, c=1):
    return GroupRingElem.monomial(tuple(coords), {q: c})


ONE1 = GroupRingElem.one(1)


def test_t_act_on_constants():
    rs = build_root_system("A1")
    assert t_act(character_by_name(rs, "triv"), 0, ONE1) == pi(0, q=1)
    assert t_act(character_by_name(rs, "sign"), 0, ONE1) == -ONE1


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
    assert not demazure(rs, 0, pi(1))


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
            b = av if eps.neg_at[i] else negate_coweight(av)
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


def random_poly(rng, rank, terms=3):
    f = GroupRingElem.zero(rank)
    for _ in range(terms):
        mu = tuple(rng.randint(-2, 2) for _ in range(rank))
        f = f + GroupRingElem.monomial(mu, {rng.randint(-1, 1): rng.choice([-2, -1, 1, 3])})
    return f


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3"])
def test_sum_fraktur_matches_per_element_composition(name):
    # oracle: pi^{rho_eps} T_w pi^{-rho_eps} along each stored reduced word
    # separately, with no parabolic factorization
    rs = build_root_system(name)
    rng = random.Random(f"sum-fraktur-{name}")
    for eps in characters(rs):
        for f in (GroupRingElem.monomial((1, -1) + (0,) * (rs.rank - 2)), random_poly(rng, rs.rank)):
            assert _sum_fraktur_of_laurent(eps, f) == _sum_of_t_words(eps, f)


@pytest.mark.parametrize("name, applications", [("B3", 9), ("A3", 6), ("G2", 6), ("A1", 1)])
def test_sum_fraktur_applies_one_generator_per_level_element(name, applications, monkeypatch):
    # sum over the levels of (level size - 1): B3 levels 6, 4, 2; A3 4, 3, 2; G2 6, 2;
    # each application is one call of the walk's integer kernel
    rs = build_root_system(name)
    calls = []

    def counted(rs, i, coeffs, scalar, along):
        calls.append(i)
        return rank_one_int(rs, i, coeffs, scalar, along)

    monkeypatch.setattr(operators, "rank_one_int", counted)
    for eps in characters(rs):
        calls.clear()
        sum_fraktur(eps, GroupRingElem.one(rs.rank))
        assert len(calls) == applications


def test_omega_small_values():
    rs = build_root_system("A1")
    assert omega_apply(rs, pi(-1)) == pi(1) + pi(-1)
    assert omega_apply(rs, ONE1) == ONE1
    assert omega_apply(rs, pi(-3)) == demazure(rs, 0, pi(-3))


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_omega_reproduces_characters(name):
    # weyl_character is omega_apply(pi^{w0 lambda}); the Demazure composition is
    # the independent side.
    rs = build_root_system(name)
    w0 = weyl_group(rs).longest
    for lam in dominant_coweights_up_to_height(rs, 3):
        chi = omega_apply(rs, GroupRingElem.monomial(w0.apply(lam)))
        assert chi == weyl_character(rs, lam) == demazure_character(rs, lam)


@pytest.mark.parametrize("name", ["B2", "G2"])
def test_omega_memo_cold_and_warm_agree(name):
    # No output may depend on whether the dominant-character memo is cold or
    # warm, nor on what a caller did with an earlier result.
    rs = build_root_system(name)
    lams = [(0, 0), (1, 0), (0, 2)]

    def values():
        return ([theorem_rhs(eps, lam).to_str() for eps in characters(rs) for lam in lams]
                + [weyl_character(rs, lam).to_str() for lam in lams])

    operators._dominant_character.cache_clear()
    cold = values()
    operators._dominant_character.cache_clear()
    for lam in [(2, 1), (1, 1), (0, 3), (3, 0)]:
        weyl_character(rs, lam)
        for eps in characters(rs):
            theorem_rhs(eps, lam)
    assert values() == cold

    chi = weyl_character(rs, lams[-1])
    assert grsum(rs.rank, [chi, chi, -chi]) == chi == -(-chi)
    assert values() == cold
    # Even a caller that writes into a result cannot reach the memo.
    for qd in chi.coeffs.values():
        qd[0] = 99
    assert values() == cold


def test_omega_uncorrected_flips_sign_in_odd_rank():
    # Omega(f) = (-1)^{l(w0)} A(pi^{-rho} f) / A(pi^rho); without the global sign
    # the quotient at f = 1 is A(pi^{-rho}) / A(pi^rho) = (-1)^{l(w0)}, not chi_0 = 1.
    for name, odd in (("A1", True), ("A2", True), ("B2", False), ("G2", False)):
        rs = build_root_system(name)
        assert len(rs.positive_roots) % 2 == odd, name
        one = GroupRingElem.one(rs.rank)
        uncorrected = operators.divide_by_weyl_denominator(rs, alternator(rs, one.translated(negate_coweight(rho(rs)))))
        assert omega_apply(rs, one) == one
        assert uncorrected == (-one if odd else one), name
    rs = build_root_system("A1")
    f = pi(3) - pi(-1, q=1) + pi(0, q=2)
    uncorrected = operators.divide_by_weyl_denominator(rs, alternator(rs, f.translated(negate_coweight(rho(rs)))))
    assert uncorrected == -omega_apply(rs, f)


# --- the dominant-character memo, filled by Freudenthal's formula ------------

def _alternator_route(rs, lam):
    """The dominant part of the single-monomial quotient A(pi^{lambda+rho}) / A(pi^rho),
    with the signed sum over all of W."""
    top = GroupRingElem.monomial(add_coweights(lam, rho(rs)))
    chi = operators.divide_by_weyl_denominator(rs, alternator(rs, top))
    return tuple(sorted((nu, qd[0]) for nu, qd in chi.coeffs.items() if min(nu) >= 0))


@pytest.mark.parametrize("name, height", [("A2", 3), ("B2", 3), ("G2", 3), ("A3", 3), ("B3", 3), ("C3", 3), ("D4", 2)])
def test_dominant_character_matches_the_alternator_quotient(name, height):
    rs = build_root_system(name)
    operators._dominant_character.cache_clear()
    for lam in dominant_coweights_up_to_height(rs, height):
        assert operators._dominant_character(rs, lam) == _alternator_route(rs, lam), lam


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A6", "B2", "B3", "B4", "B5", "C2", "C3", "C4", "C5",
                                  "D3", "D4", "D5", "G2", "F4"])
def test_dominant_character_has_the_weyl_dimension(name):
    # sum_nu m(nu) |W nu| = prod_{a>0} <a, lambda+rho> / <a, rho>. Neither side
    # enumerates W, so a dominant weight that the fill misses fails here.
    rs = build_root_system(name)
    operators._dominant_character.cache_clear()
    for lam in dominant_coweights_up_to_height(rs, 2):
        size = sum(m * len(orbit(rs, nu)) for nu, m in operators._dominant_character(rs, lam))
        top = bottom = 1
        for r in rs.positive_roots:
            top *= rs.pairing(r, add_coweights(lam, rho(rs)))
            bottom *= rs.pairing(r, rho(rs))
        assert size * bottom == top, lam


@pytest.mark.parametrize("name", ["B3", "F4"])
def test_dominant_character_fill_walks_no_weyl_group(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the dominant-character fill walked W or divided")

    for module, attr in [(operators, "alternator"), (operators, "divide_by_weyl_denominator"),
                         (operators, "divide_by_binomials"), (algebra, "divide_by_binomials"),
                         (operators, "demazure"), (operators, "demazure_word"),
                         (operators, "weyl_group"), (root_system, "weyl_group")]:
        monkeypatch.setattr(module, attr, refuse)
    rs = build_root_system(name)
    operators._dominant_character.cache_clear()
    for lam in dominant_coweights_up_to_height(rs, 2):
        assert (lam, 1) in operators._dominant_character(rs, lam)


def test_alternator_side_on_f4_needs_no_weyl_group(monkeypatch):
    # w0 = -1 on F4, so Omega(pi^{-lambda}) = chi_lambda, whose coefficients sum
    # to the Weyl dimension; the Hecke sum over W(F4) stays behind the size guard.
    rs = build_root_system("F4")
    for lam, dimension in [((0, 0, 0, 0), 1), ((1, 0, 0, 0), 26), ((0, 0, 0, 1), 52)]:
        chi = omega_apply(rs, GroupRingElem.monomial(negate_coweight(lam)))
        assert sum(sum(qd.values()) for qd in chi.coeffs.values()) == dimension, lam
    # With the cap raised for this test only, the Hecke side agrees.
    eps = character_by_name(rs, "neg-long")
    rhs = theorem_rhs(eps, (0, 0, 0, 0))
    monkeypatch.setattr(root_system, "MAX_WEYL_DEFAULT", 1152)
    assert theorem_lhs(eps, (0, 0, 0, 0)) == rhs


def test_weyl_denominator_product_form():
    # divide_by_weyl_denominator undoes the product form
    # pi^rho prod_{a>0} (1 - pi^{-a^vee}) that test_weyl_denominator_alternates
    # (test_algebra.py) equates with alternator(pi^rho).
    for name in ("A1", "A2", "B2", "G2"):
        rs = build_root_system(name)
        delta = multiply_binomials(GroupRingElem.monomial(rho(rs)),
                                   [negate_coweight(v) for v in rs.positive_coroots], 0)
        one = GroupRingElem.one(rs.rank)
        assert operators.divide_by_weyl_denominator(rs, delta) == one
        f = one + GroupRingElem.monomial(rs.simple_coroots[0], {1: 2})
        assert operators.divide_by_weyl_denominator(rs, delta * f) == f


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


RANK_TWO = ["A2", "B2", "G2"]


@pytest.mark.parametrize("name", RANK_TWO)
@given(f=ring_elems())
@settings(max_examples=25, deadline=None)
def test_quadratic_relation_on_polynomials(name, f):
    rs = build_root_system(name)
    for eps in characters(rs):
        for i in range(rs.rank):
            tf = t_act(eps, i, f)
            # (T_i - q)(T_i + 1) f = T_i T_i f + (1 - q) T_i f - q f
            assert t_act(eps, i, tf) + tf.scale_q({0: 1, 1: -1}) - f.scale_q({1: 1}) == GroupRingElem.zero(2)


@pytest.mark.parametrize("name", RANK_TWO)
@given(f=ring_elems())
@settings(max_examples=25, deadline=None)
def test_braid_agreement_on_polynomials(name, f):
    # In rank two the longest element is the only one with two reduced words,
    # the alternating words of length m_12.
    rs = build_root_system(name)
    m = rs.braid_order[(0, 1)]
    first, second = tuple((0, 1) * m)[:m], tuple((1, 0) * m)[:m]
    for eps in characters(rs):
        assert t_word(eps, first, f) == t_word(eps, second, f)


@pytest.mark.parametrize("name", RANK_TWO)
@given(h=ring_elems(min_terms=1), g=ring_elems())
@settings(max_examples=25, deadline=None)
def test_bernstein_relation_on_polynomials(name, h, g):
    # T_i (h g) = h^{s_i} T_i g + (1 - q) (h^{s_i} - h) / (1 - pi^{-a_i^vee}) g,
    # with the division by the generic exact_div.
    rs = build_root_system(name)
    for eps in characters(rs):
        for i in range(rs.rank):
            hs = s_image(rs, i, h)
            denom = one_minus_pi(negate_coweight(rs.simple_coroots[i]))
            correction = exact_div(hs - h, denom).scale_q({0: 1, 1: -1})
            assert t_act(eps, i, h * g) == hs * t_act(eps, i, g) + correction * g


# --- the string kernel against the defining quotients ------------------------

KERNEL_TYPES = ["A2", "B2", "G2", "B3"]
q_coeffs = st.dictionaries(qexp, coeff, min_size=1, max_size=3)


@st.composite
def kernel_inputs(draw, rs):
    """A random polynomial with multi-term q-coefficients, plus a monomial on
    a wall (mu[j] = 0) and a pair c (pi^mu +- pi^{s_j mu}) whose images cancel
    in part."""
    coords = st.tuples(*(st.integers(-3, 3),) * rs.rank)
    wall = list(draw(coords))
    j = draw(st.integers(0, rs.rank - 1))
    wall[j] = 0
    mu, c = draw(coords), draw(q_coeffs)
    sign = draw(st.sampled_from([1, -1]))
    terms = draw(st.lists(st.tuples(coords, q_coeffs), max_size=4))
    terms.append((tuple(wall), draw(q_coeffs)))
    terms += [(mu, c), (reflect(rs, j, mu), {e: sign * v for e, v in c.items()})]
    total = GroupRingElem.zero(rs.rank)
    for nu, qd in terms:
        total = total + GroupRingElem(rs.rank, {nu: dict(qd)})
    return total


def _with_q_eigenvalue(eps, value):
    """eps with its q eigenvalue replaced by ``value``; not a character
    unless ``value`` is q."""
    return replace(eps, eigenvalues=tuple(dict(value) if v == {1: 1} else v for v in eps.eigenvalues))


def _acting_characters(rs):
    # Every character, the negative control whose q eigenvalue is q^2, and a
    # two-term eigenvalue 2q - 1, so the defining formula runs with a
    # q-scalar of more than one term.
    return [acting for eps in characters(rs)
            for acting in (eps, _with_q_eigenvalue(eps, {2: 1}), _with_q_eigenvalue(eps, {0: -1, 1: 2}))]


def _assert_untouched(f, before, result):
    assert f.coeffs == before
    inputs = {id(qd) for qd in f.coeffs.values()}
    assert not any(id(qd) in inputs for qd in result.coeffs.values())


@pytest.mark.parametrize("name", KERNEL_TYPES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_t_act_and_demazure_match_their_quotients(name, data):
    # T_i f = eps f^{s_i} + (1 - q) (f^{s_i} - f) / (1 - pi^{-a^vee}) and
    # d_i f = (f^{s_i} - pi^{-a^vee} f) / (1 - pi^{-a^vee}), each division
    # by divide_by_binomials.
    rs = build_root_system(name)
    f = data.draw(kernel_inputs(rs))
    before = {k: dict(v) for k, v in f.coeffs.items()}
    for i in range(rs.rank):
        neg_av = negate_coweight(rs.simple_coroots[i])
        fs = s_image(rs, i, f)
        quot = divide_by_binomials(fs - f, [neg_av], 0)
        for eps in _acting_characters(rs):
            got = t_act(eps, i, f)
            assert got == fs.scale_q(eps.eigenvalues[i]) + quot.scale_q({0: 1, 1: -1})
            _assert_untouched(f, before, got)
        got = demazure(rs, i, f)
        assert got == divide_by_binomials(fs - f.translated(neg_av), [neg_av], 0)
        _assert_untouched(f, before, got)


# --- the integer-coded walk against the q-polynomial generators --------------


def _sum_of_t_words(eps, f):
    """sum_w pi^{rho_eps} T_w pi^{-rho_eps} f, one t_word per element of W: no
    parabolic factorization and no integer coding."""
    rs = eps.root_system
    inner = f.translated(negate_coweight(eps.rho_eps))
    return grsum(rs.rank, (t_word(eps, w.word, inner) for w in weyl_group(rs).elements)).translated(eps.rho_eps)


def _sum_fraktur_of_laurent(eps, f):
    """sum_fraktur on f in Z[q^+-][P^vee]: the walk takes Z[q] input and is
    Z[q]-linear, so walk q^k f, k minus f's lowest q-exponent, and divide by q^k."""
    k = -min((e for qd in f.coeffs.values() for e in qd), default=0)
    return sum_fraktur(eps, f.scale_q({k: 1})).scale_q({-k: 1})


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_sum_fraktur_matches_the_sum_of_t_words(name, data):
    # Random Z[q^+-] inputs, scaled into Z[q] (the bound's ||f||), under every
    # character and the controls with eigenvalue q^2 and 2q - 1 (the bound's
    # max ||eps(T_i)||).
    rs = build_root_system(name)
    f = data.draw(kernel_inputs(rs))
    for eps in _acting_characters(rs):
        assert _sum_fraktur_of_laurent(eps, f) == _sum_of_t_words(eps, f)


def test_sum_fraktur_refuses_a_negative_power_of_q():
    # The walk's input lies in Z[q]: q^-1 has no value at q = 2^B.
    rs = build_root_system("A2")
    f = GroupRingElem(2, {(1, 0): {-1: 1, 0: 2}})
    for eps in characters(rs):
        with pytest.raises(ValueError, match=r"q\^-1"):
            sum_fraktur(eps, f)


def test_the_walk_decodes_wrongly_below_its_bound():
    # The decode is exact because B bounds the coefficients: one bit fewer than
    # the largest coefficient needs gives a wrong element, where the walk
    # itself is exact at every q.
    rs = build_root_system("B3")
    eps = character_by_name(rs, "sign")
    f = GroupRingElem.monomial((3, 2, 4))
    value = sum_fraktur(eps, f)
    top = max(abs(c) for qd in value.coeffs.values() for c in qd.values())
    narrow = top.bit_length()
    assert narrow + 1 <= operators.walk_bits(eps, f)
    for bits in (narrow, narrow + 1):
        q = 1 << bits
        decoded = decode_q(rs.rank, operators.level_walk(eps, q, f), bits)
        assert (decoded == value) == (bits > narrow), bits


@pytest.mark.parametrize("type_name", DEFAULT_TYPES)
def test_walk_bits_exceed_every_true_coefficient(type_name):
    # On the operator-identity inputs pi^{lambda + 2 rho_eps}, lambda in the
    # default box: every coefficient c of the value has |c| < 2^(B-1).
    rs = build_root_system(type_name)
    for eps in characters(rs):
        for lam in monomial_box(rs.rank, BOX_RADIUS_DEFAULT, BOX_CAP_DEFAULT):
            f = GroupRingElem.monomial(add_coweights(lam, add_coweights(eps.rho_eps, eps.rho_eps)))
            value = sum_fraktur(eps, f)
            top = max((abs(c) for qd in value.coeffs.values() for c in qd.values()), default=0)
            assert operators.walk_bits(eps, f) > top.bit_length(), (eps, lam)


def test_encode_and_decode_are_inverse_on_polynomial_coefficients():
    # Balanced digits lie in [-2^(bits-1), 2^(bits-1)): -8 is one at 4 bits, 8 is not.
    f = GroupRingElem(2, {(1, -2): {0: 5, 3: -1, 5: 8}, (0, 0): {2: -8}})
    for bits in (5, 64):
        assert decode_q(2, encode_q(f, 1 << bits), bits) == f
    assert decode_q(2, encode_q(f, 1 << 4), 4) != f


# --- the fused kernel against the per-monomial string form -------------------
#
# The rank-one operators in their per-monomial string form, on tuple keys
# with one accumulate per string point: a reference independent of src/ that
# the packed, fused kernel must reproduce.


def _ref_add_term(acc, mu, qd):
    tgt = acc.get(mu)
    if tgt is None:
        acc[mu] = dict(qd)
        return
    for e, c in qd.items():
        s = tgt.get(e, 0) + c
        if s:
            tgt[e] = s
        else:
            del tgt[e]


def _ref_qd_mul(a, b):
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def _ref_add_string(out, a, mu, p, c):
    """out += c * G_i(pi^mu) for a = alpha_i^vee and p = mu[i]."""
    if p > 0:
        c, step, point = {e: -v for e, v in c.items()}, negate_coweight(a), mu
    elif p < 0:
        step, point = a, add_coweights(mu, a)
    else:
        return
    for _ in range(abs(p)):
        _ref_add_term(out, point, c)
        point = add_coweights(point, step)


def reference_t_act(eps, i, f):
    rs = eps.root_system
    out = {}
    for mu, qd in f.coeffs.items():
        _ref_add_term(out, reflect(rs, i, mu), _ref_qd_mul(qd, eps.eigenvalues[i]))
        _ref_add_string(out, rs.simple_coroots[i], mu, mu[i], _ref_qd_mul(qd, {0: 1, 1: -1}))
    return GroupRingElem(f.rank, {k: v for k, v in out.items() if v})


def reference_demazure(rs, i, f):
    out = {}
    for mu, qd in f.coeffs.items():
        _ref_add_term(out, mu, qd)
        _ref_add_string(out, rs.simple_coroots[i], mu, mu[i], qd)
    return GroupRingElem(f.rank, {k: v for k, v in out.items() if v})


DEFAULT_TYPES = ["A1", "A2", "A3", "B2", "C2", "B3", "G2"]


@pytest.mark.parametrize("name", DEFAULT_TYPES)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_kernel_matches_the_per_monomial_string_form(name, data):
    # Every character and its q-squared control, on multi-term
    # q-coefficients, one generator and then a short word of them.
    rs = build_root_system(name)
    f = data.draw(kernel_inputs(rs))
    word = data.draw(st.lists(st.integers(0, rs.rank - 1), min_size=1, max_size=3))
    for eps in characters(rs):
        for acting in (eps, _with_q_eigenvalue(eps, {2: 1})):
            got = expected = f
            for i in word:
                got, expected = t_act(acting, i, got), reference_t_act(acting, i, expected)
                assert got == expected
                assert got.to_str() == expected.to_str()
    got = expected = f
    for i in word:
        got, expected = demazure(rs, i, got), reference_demazure(rs, i, expected)
        assert got == expected
        assert got.to_str() == expected.to_str()


@pytest.mark.parametrize("name", KERNEL_TYPES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_multiply_binomials_matches_the_product(name, data):
    rs = build_root_system(name)
    f = data.draw(kernel_inputs(rs))
    before = {k: dict(v) for k, v in f.coeffs.items()}
    # Coweights +-a^vee and s_j(a^vee), so -alpha_j^vee = s_j(alpha_j^vee) is among them.
    coroots = [rs.coroot_of[r] for r in rs.positive_roots]
    pool = sorted({v for av in coroots
                   for v in [av, negate_coweight(av)] + [reflect(rs, j, av) for j in range(rs.rank)]})
    vs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    q_exp = data.draw(st.integers(-1, 1))
    product = f
    for v in vs:
        product = product * (GroupRingElem.one(rs.rank) - GroupRingElem.monomial(v, {q_exp: 1}))
    got = multiply_binomials(f, vs, q_exp)
    assert got == product
    _assert_untouched(f, before, got)


def test_no_operation_writes_into_its_operands():
    # Results may share q-coefficient maps with each other and with their
    # operands (GroupRingElem docstring), so no operation may write into an
    # operand's maps. Fixed multi-term inputs on B2.
    rs = build_root_system("B2")
    f = GroupRingElem(2, {(1, 0): {0: 1, 1: -2}, (-1, 2): {-1: 1, 2: 3}, (0, 1): {0: -1, 1: 1}, (2, -1): {0: 2}})
    g = GroupRingElem(2, {(0, 0): {0: 1, 1: 1}, (1, -1): {0: -3, 2: 1}})
    v = rs.simple_coroots[0]
    divisible = f * (GroupRingElem.one(2) - GroupRingElem.monomial(v))
    operands = (f, g, divisible)
    before = copy.deepcopy([x.coeffs for x in operands])
    cases = [(t_act, eps, i, f) for eps in characters(rs) for i in range(rs.rank)] + [
        (demazure, rs, 1, f),
        (demazure_word, rs, weyl_group(rs).longest.word, f),
        (multiply_binomials, f, [rs.coroot_of[r] for r in rs.positive_roots], 1),
        (omega_apply, rs, f),
        (divide_by_binomials, divisible, [v], 0),
        (grsum, rs.rank, [f, g, f]),
        (GroupRingElem.translated, f, (1, -1)),
        (s_image, rs, 0, f),
        (operator.add, f, g),
        (operator.sub, f, g),
        (operator.mul, f, g),
    ]
    for fn, *args in cases:
        fn(*args)
        assert [x.coeffs for x in operands] == before, fn.__name__


def test_operators_leave_the_packed_key_to_the_ring_layer():
    # The key layout, its bound check and the rank-one kernel's q-map merging
    # live in heckemod.algebra alone; the operators call its kernels.
    layout = {"COORD_BOUND", "VALUE_MASK", "pack", "unpack", "pack_step", "packing", "check_key", "from_packed",
              "add_term", "qd_mul"}
    assert layout.isdisjoint(vars(operators)), sorted(layout & set(vars(operators)))
