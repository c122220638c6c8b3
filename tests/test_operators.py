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
from heckemod.algebra import GroupRingElem, divide_by_binomials, exact_div, grsum, multiply_binomials
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
    s_image,
    sum_fraktur,
    t_act,
    t_word,
    weyl_denominator,
)
from heckemod.root_system import add_coweights, build_root_system, negate_coweight, orbit, reflect, rho, weyl_group
from heckemod.verify import monomial_box
from test_algebra import coeff, one_minus_pi, qexp, ring_elems


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
    g = weyl_group(rs)
    rng = random.Random(f"sum-fraktur-{name}")
    for eps in characters(rs):
        shift = eps.rho_eps
        for f in (GroupRingElem.monomial((1, -1) + (0,) * (rs.rank - 2)), random_poly(rng, rs.rank)):
            inner = f.translated(negate_coweight(shift))
            naive = grsum(rs.rank, (t_word(eps, w.word, inner).translated(shift) for w in g.elements))
            assert sum_fraktur(eps, f) == naive


@pytest.mark.parametrize("name, applications", [("B3", 9), ("A3", 6), ("G2", 6), ("A1", 1)])
def test_sum_fraktur_applies_one_generator_per_level_element(name, applications, monkeypatch):
    # sum over the levels of (level size - 1): B3 levels 6, 4, 2; A3 4, 3, 2; G2 6, 2
    rs = build_root_system(name)
    calls = []

    def counted(eps, i, f):
        calls.append(i)
        return t_act(eps, i, f)

    monkeypatch.setattr(operators, "t_act", counted)
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
