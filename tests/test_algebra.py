import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heckemod.algebra import (
    COORD_BOUND,
    GroupRingElem,
    RationalElem,
    divide_by_binomials,
    exact_div,
    grsum,
    multiply_binomials,
    pack,
    qd_str,
    specialize_q,
    unpack,
    weyl_act,
)
from heckemod.characters import character_by_name
from heckemod.errors import CoweightOutOfRange, NegativeQExponentAtZero, NotDivisible
from heckemod.operators import alternator, demazure, s_image, t_act, weyl_denominator
from heckemod.root_system import build_root_system, negate_coweight, rho, weyl_group


def mono(*coords, q=0, c=1):
    return GroupRingElem.monomial(tuple(coords), {q: c})


def test_monomial_multiplication():
    assert mono(1, 2) * mono(3, -1) == mono(4, 1)
    x = mono(-2)  # pi^{-alpha^vee} on A1 in coweight coordinates
    assert (GroupRingElem.one(1) - x) * (GroupRingElem.one(1) + x) == GroupRingElem.one(1) - mono(-4)


def test_q_laurent_expansion():
    # (1 - q pi^{a}) (1 - q^-1 pi^{-a}) = 2 - q pi^{a} - q^-1 pi^{-a}
    a = (2,)
    lhs = (GroupRingElem.one(1) - GroupRingElem.monomial(a, {1: 1})) * (
        GroupRingElem.one(1) - GroupRingElem.monomial(negate_coweight(a), {-1: 1})
    )
    expected = (
        GroupRingElem.monomial((0,), {0: 2})
        - GroupRingElem.monomial(a, {1: 1})
        - GroupRingElem.monomial(negate_coweight(a), {-1: 1})
    )
    assert lhs == expected


def test_monomial_drops_zero_coefficients():
    zero = GroupRingElem.zero(1)
    for coeff in (0, {0: 0}, {0: 0, 2: 0}):
        got = GroupRingElem.monomial((0,), coeff)
        assert got == zero and not got and got.coeffs == {}
    assert GroupRingElem.monomial((1,), {0: 0, 2: 3}).coeffs == {(1,): {2: 3}}


def test_exact_div_geometric():
    one = GroupRingElem.one(1)
    quotient = exact_div(one - mono(-4), one - mono(-2))
    assert quotient == one + mono(-2)


def test_exact_div_not_divisible():
    one = GroupRingElem.one(1)
    with pytest.raises(NotDivisible):
        exact_div(one + mono(2), one - mono(-2))


def test_exact_div_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        exact_div(GroupRingElem.one(1), GroupRingElem.zero(1))


def test_reflection_difference_always_divisible():
    rs = build_root_system("B2")
    one = GroupRingElem.one(2)
    for mu in [(1, 0), (-2, 3), (4, 4), (0, -1)]:
        f = GroupRingElem.monomial(mu)
        for i in range(2):
            diff = s_image(rs, i, f) - f
            denom = one - GroupRingElem.monomial(negate_coweight(rs.simple_coroots[i]))
            exact_div(diff, denom)  # must not raise


coeff = st.integers(min_value=-5, max_value=5).filter(bool)
qexp = st.integers(min_value=-3, max_value=3)
coords2 = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def ring_elems(draw, min_terms=0, rank=2):
    """Sums of up to 4 terms; with ``min_terms >= 1`` the sum is nonzero, since
    callers divide by it (drawn terms can cancel, and such draws are rejected)."""
    coords = coords2 if rank == 2 else st.tuples(*(st.integers(-3, 3),) * rank)
    terms = draw(st.lists(st.tuples(coords, qexp, coeff), min_size=min_terms, max_size=4))
    total = GroupRingElem.zero(rank)
    for mu, e, c in terms:
        total = total + GroupRingElem.monomial(mu, {e: c})
    assume(total or not min_terms)
    return total


@given(ring_elems(), ring_elems(), ring_elems())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == GroupRingElem.zero(2)


@given(ring_elems(), ring_elems(min_terms=1))
@settings(max_examples=60, deadline=None)
def test_exact_div_roundtrip(f, g):
    assert exact_div(f * g, g) == f


nonzero_coords2 = coords2.filter(any)
binomial_exponents = st.lists(nonzero_coords2, min_size=1, max_size=3)
binomial_q_exp = st.integers(-2, 2)


def one_minus_pi(v, q_exp=0):
    return GroupRingElem.one(len(v)) - GroupRingElem.monomial(v, {q_exp: 1})


def binomial_product(vs, q_exp):
    """prod_{v in vs} (1 - q^{q_exp} pi^v) by the generic product."""
    out = GroupRingElem.one(len(vs[0]))
    for v in vs:
        out = out * one_minus_pi(v, q_exp)
    return out


@given(ring_elems(), binomial_exponents, binomial_q_exp)
@settings(max_examples=60, deadline=None)
def test_divide_by_binomial_roundtrip(g, vs, q_exp):
    assert divide_by_binomials(g * binomial_product(vs, q_exp), vs, q_exp) == g


@given(ring_elems(), binomial_exponents, binomial_q_exp)
@settings(max_examples=100, deadline=None)
def test_divide_by_binomial_agrees_with_exact_div(f, vs, q_exp):
    try:
        expected = exact_div(f, binomial_product(vs, q_exp))
    except NotDivisible:
        with pytest.raises(NotDivisible):
            divide_by_binomials(f, vs, q_exp)
    else:
        assert divide_by_binomials(f, vs, q_exp) == expected


def test_divide_by_binomial_rejects_zero_exponent():
    with pytest.raises(ZeroDivisionError):
        divide_by_binomials(GroupRingElem.one(2), [(0, 0)], 0)


@given(ring_elems())
@settings(max_examples=30, deadline=None)
def test_weyl_action_is_homomorphism_on_the_group(f):
    rs = build_root_system("B2")
    elements = weyl_group(rs).elements
    for w in elements[:4]:
        for v in elements[:4]:
            from heckemod.root_system import _matmul

            wv = [e for e in elements if e.action == _matmul(w.action, v.action)][0]
            assert weyl_act(w, weyl_act(v, f)) == weyl_act(wv, f)


@given(ring_elems(), ring_elems())
@settings(max_examples=40, deadline=None)
def test_weyl_action_is_ring_automorphism(f, g):
    rs = build_root_system("B2")
    for w in weyl_group(rs).elements[:5]:
        assert weyl_act(w, f * g) == weyl_act(w, f) * weyl_act(w, g)
        assert weyl_act(w, f + g) == weyl_act(w, f) + weyl_act(w, g)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_weyl_denominator_alternates(name):
    rs = build_root_system(name)
    delta = weyl_denominator(rs)
    assert delta == alternator(rs, GroupRingElem.monomial(rho(rs)))
    for w in weyl_group(rs).elements:
        expected = delta if w.length % 2 == 0 else -delta
        assert weyl_act(w, delta) == expected


def test_rational_clear_and_zero_den():
    f = mono(2) - mono(-2)
    g = GroupRingElem.one(1) - mono(-2)
    assert RationalElem(f, g).clear() == mono(2) + GroupRingElem.one(1)
    with pytest.raises(ZeroDivisionError):
        RationalElem(f, GroupRingElem.zero(1))


def test_specialize_q():
    one = GroupRingElem.one(1)
    f = one - GroupRingElem.monomial((2,), {1: 1})  # 1 - q pi^a
    assert specialize_q(f, 0) == one
    poincare = GroupRingElem.monomial((0,), {0: 1, 1: 2, 2: 2, 3: 1})  # A2 Poincare
    assert specialize_q(poincare, 1) == GroupRingElem.monomial((0,), {0: 6})
    with pytest.raises(NegativeQExponentAtZero):
        specialize_q(GroupRingElem.monomial((-2,), {-1: 1}), 0)
    half = specialize_q(GroupRingElem.monomial((0,), {1: 2}), Fraction(1, 2))
    assert half == GroupRingElem.monomial((0,), {0: 1})
    third = specialize_q(GroupRingElem.monomial((0,), {1: 1}), Fraction(1, 3))
    assert third.coeffs[(0,)][0] == Fraction(1, 3)


def test_specialize_q_at_zero_keeps_constant_term():
    f = GroupRingElem.monomial((1,), {0: 3, 2: 5})
    assert specialize_q(f, 0) == GroupRingElem.monomial((1,), {0: 3})


def test_grsum_matches_folded_addition():
    parts = [mono(1), mono(1, q=2, c=-1), mono(-1), mono(1).scale(-1)]
    folded = GroupRingElem.zero(1)
    for p in parts:
        folded = folded + p
    assert grsum(1, parts) == folded


def test_canonical_strings():
    assert GroupRingElem.zero(2).to_str() == "0"
    assert qd_str({}) == "0"
    assert qd_str({2: 1, 0: -3, -1: 2}) == "q^2 - 3 + 2*q^-1"
    f = GroupRingElem.monomial((2,), {1: 1}) + GroupRingElem.monomial((0,), {0: -1, 1: 1}) - mono(-2)
    assert f.to_str() == "-pi^[-2] + (q - 1) + q*pi^[2]"


def test_json_round_trip():
    f = GroupRingElem.monomial((1, -2), {3: 12345678901234567890, -1: -7}) + GroupRingElem.one(2)
    records = json.loads(json.dumps(f.to_json_obj()))
    assert records == [
        {"coweight": [0, 0], "coeff": [[0, "1"]]},
        {"coweight": [1, -2], "coeff": [[-1, "-7"], [3, "12345678901234567890"]]},
    ]
    assert records == sorted(records, key=lambda r: r["coweight"])
    assert all(isinstance(c, str) for rec in records for _, c in rec["coeff"])


def test_rank_mismatch_raises():
    with pytest.raises(ValueError):
        GroupRingElem.one(1) + GroupRingElem.one(2)


# --- packed keys ----------------------------------------------------------------

packable = st.integers(-COORD_BOUND, COORD_BOUND - 1)
edge = st.sampled_from([-COORD_BOUND, -COORD_BOUND + 1, -1, 0, 1, COORD_BOUND - 2, COORD_BOUND - 1])
coordinate = st.one_of(packable, edge)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(*(coordinate,) * n)))
@settings(max_examples=200, deadline=None)
def test_unpack_round_trips(mu):
    assert unpack(pack(mu), len(mu)) == mu
    f = GroupRingElem(len(mu), {mu: {0: 1}})
    assert f.coeffs == {mu: {0: 1}} and f.single_term() == (mu, {0: 1})


@given(st.integers(1, 4).flatmap(lambda n: st.lists(st.tuples(*(coordinate,) * n), min_size=2, max_size=12)))
@settings(max_examples=200, deadline=None)
def test_integer_order_is_lexicographic_order(mus):
    # to_str and to_json_obj sort the packed integers; that must be the
    # order of the coweight tuples.
    assert sorted(mus, key=pack) == sorted(mus)
    f = grsum(len(mus[0]), [GroupRingElem.monomial(mu) for mu in mus])
    assert [tuple(r["coweight"]) for r in f.to_json_obj()] == sorted(set(mus))


def test_out_of_range_coordinates_raise_rather_than_wrap():
    low, high = -COORD_BOUND, COORD_BOUND - 1
    for mu in [(high + 1,), (low - 1,), (0, high + 1), (low - 1, 0, 0), (0, 0, 0, 10**30)]:
        with pytest.raises(CoweightOutOfRange):
            pack(mu)
        with pytest.raises(CoweightOutOfRange):
            GroupRingElem.monomial(mu)
        with pytest.raises(CoweightOutOfRange):
            GroupRingElem(len(mu), {mu: {0: 1}})
    edge_elem = GroupRingElem.monomial((high, low))
    with pytest.raises(CoweightOutOfRange):
        edge_elem.translated((1, 0))
    with pytest.raises(CoweightOutOfRange):
        edge_elem.translated((0, -1))
    with pytest.raises(CoweightOutOfRange):
        edge_elem * GroupRingElem.monomial((0, -1))
    with pytest.raises(CoweightOutOfRange):
        multiply_binomials(edge_elem, [(1, 0)], 1)
    # A shift in range on both ends is exact.
    assert edge_elem.translated((-1, 1)).coeffs == {(high - 1, low + 1): {0: 1}}
    # s_1 (2, high - 1) = (-2, high + 1) on A2: the reflection, the rank-one
    # kernel (a string of two points) and the Demazure operator all raise.
    rs = build_root_system("A2")
    f = GroupRingElem.monomial((2, high - 1), {0: 1, 1: -1})
    for apply in (lambda: s_image(rs, 0, f), lambda: t_act(character_by_name(rs, "triv"), 0, f),
                  lambda: demazure(rs, 0, f)):
        with pytest.raises(CoweightOutOfRange):
            apply()
    # One step inside the bound, the same operators return exact values.
    g = GroupRingElem.monomial((2, high - 2))
    assert s_image(rs, 0, g).coeffs == {(-2, high): {0: 1}}
    assert demazure(rs, 0, g).coeffs == {(0, high - 1): {0: -1}}  # pi^mu + G_1(pi^mu), p = 2
