import math
import random
from functools import reduce
from itertools import product

import pytest

from heckemod import root_system
from heckemod.algebra import GroupRingElem
from heckemod.errors import InvalidCartanType, NonReducedWord, WeylGroupTooLarge
from heckemod.formulas import poincare_polynomial
from heckemod.root_system import (
    CartanType,
    _matmul,
    build_root_system,
    dominant_conjugate,
    longest_word,
    negate_coweight,
    orbit,
    parabolic_levels,
    reduced_word,
    reflect,
    require_reduced,
    require_walkable,
    rho,
    simple_reflection_matrix,
    weyl_group,
    weyl_order,
)

COUNTS = [
    # type, |Phi+|, |W|
    ("A1", 1, 2),
    ("A2", 3, 6),
    ("A3", 6, 24),
    ("A4", 10, 120),
    ("B2", 4, 8),
    ("B3", 9, 48),
    ("B4", 16, 384),
    ("C2", 4, 8),
    ("C3", 9, 48),
    ("D3", 6, 24),
    ("D4", 12, 192),
    ("G2", 6, 12),
]


@pytest.mark.parametrize("name,npos,nw", COUNTS)
def test_counts(name, npos, nw):
    rs = build_root_system(name)
    assert len(rs.positive_roots) == npos
    assert weyl_order(rs.cartan_type) == nw
    group = weyl_group(rs)
    assert len(group.elements) == nw
    assert group.longest.length == npos


@pytest.mark.parametrize("bad", ["A0", "B1", "C1", "D2", "G3", "F5", "Z9", "A", "11"])
def test_inadmissible_types(bad):
    with pytest.raises(InvalidCartanType):
        build_root_system(bad)


def test_parse_case_insensitive():
    assert CartanType.parse("b3") == CartanType("B", 3)
    assert str(CartanType.parse("g2")) == "G2"


def test_a1_coroot():
    rs = build_root_system("A1")
    assert rs.simple_coroots == ((2,),)
    assert rs.coroot_of[(1,)] == (2,)


def test_coroot_columns_match_cartan_matrix():
    # j-th coordinate of alpha_i^vee equals A[j][i]
    for name in ("A2", "B2", "C2", "G2", "B3", "D4"):
        rs = build_root_system(name)
        for i in range(rs.rank):
            col = rs.simple_coroots[i]
            assert col == tuple(rs.cartan_matrix[j][i] for j in range(rs.rank))


def test_length_class_counts():
    b2 = build_root_system("B2")
    classes = [b2.length_class_of[r] for r in b2.positive_roots]
    assert classes.count("short") == 2 and classes.count("long") == 2
    g2 = build_root_system("G2")
    classes = [g2.length_class_of[r] for r in g2.positive_roots]
    assert classes.count("short") == 3 and classes.count("long") == 3
    a3 = build_root_system("A3")
    assert {a3.length_class_of[r] for r in a3.positive_roots} == {"long"}
    b3 = build_root_system("B3")
    classes = [b3.length_class_of[r] for r in b3.positive_roots]
    assert classes.count("short") == 3 and classes.count("long") == 6


def test_reflect_involution_and_fixed_points():
    rs = build_root_system("B2")
    for mu in [(0, 0), (1, 0), (-2, 3), (5, -1)]:
        for i in range(2):
            image = reflect(rs, i, mu)
            assert reflect(rs, i, image) == mu
            assert (image == mu) == (mu[i] == 0)


def test_reflect_rho():
    # s_i(rho) = rho - alpha_i^vee in every type
    for name in ("A1", "A2", "B2", "C2", "G2", "B3"):
        rs = build_root_system(name)
        for i in range(rs.rank):
            expected = tuple(r - c for r, c in zip(rho(rs), rs.simple_coroots[i]))
            assert reflect(rs, i, rho(rs)) == expected


def test_b2_short_reflection_of_rho():
    rs = build_root_system("B2")
    short = [i for i in range(2) if rs.length_class_of[rs.simple_root(i)] == "short"]
    (i,) = short
    assert reflect(rs, i, rho(rs)) == tuple(
        r - c for r, c in zip(rho(rs), rs.simple_coroots[i])
    )


def test_simple_reflection_permutes_other_positive_roots():
    for name in ("A2", "B2", "G2", "B3"):
        rs = build_root_system(name)
        for i in range(rs.rank):
            others = [r for r in rs.positive_roots if r != rs.simple_root(i)]
            images = {rs.reflect_root(i, r) for r in others}
            assert images == set(others)
            assert rs.reflect_root(i, rs.simple_root(i)) == tuple(
                -c for c in rs.simple_root(i)
            )


def test_enumeration_basics():
    a1 = build_root_system("A1")
    words = sorted(w.word for w in weyl_group(a1).elements)
    assert words == [(), (0,)]

    a2 = build_root_system("A2")
    lengths = sorted(w.length for w in weyl_group(a2).elements)
    assert lengths == [0, 1, 1, 2, 2, 3]

    b2 = build_root_system("B2")
    lengths = sorted(w.length for w in weyl_group(b2).elements)
    assert lengths == [0, 1, 1, 2, 2, 3, 3, 4]
    assert weyl_group(b2).longest.length == 4


def test_identity_and_longest():
    for name in ("A2", "B2", "G2"):
        rs = build_root_system(name)
        group = weyl_group(rs)
        assert group.elements[0].word == ()
        assert group.elements[0].apply((1, 2)) == (1, 2)
        w0 = group.longest
        assert w0.apply(rho(rs)) == negate_coweight(rho(rs))
        top = [w for w in group.elements if w.length == w0.length]
        assert top == [w0]


def test_longest_acts_as_minus_one_in_b2_but_not_a2():
    b2 = build_root_system("B2")
    w0 = weyl_group(b2).longest
    assert all(w0.apply(mu) == negate_coweight(mu) for mu in [(1, 0), (0, 1), (2, -3)])
    a2 = build_root_system("A2")
    w0 = weyl_group(a2).longest
    assert w0.apply((1, 0)) == (0, -1)  # -w0 is the diagram flip, not the identity


def _all_reduced_words(rs, w):
    group = weyl_group(rs)
    if w.length == 0:
        return [()]
    out = []
    for i in range(rs.rank):
        v = group.element_of_matrix(_matmul(simple_reflection_matrix(rs, i), w.action))
        if v.length == w.length - 1:
            out.extend([(i,) + rest for rest in _all_reduced_words(rs, v)])
    return out


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_stored_words_are_shortlex_minimal(name):
    rs = build_root_system(name)
    for w in weyl_group(rs).elements:
        words = _all_reduced_words(rs, w)
        assert w.word == min(words)
        assert all(len(word) == w.length for word in words)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_length_is_inversion_count(name):
    # l(w) = #{beta > 0 : w^{-1} beta < 0}, computed through root reflections
    rs = build_root_system(name)
    for w in weyl_group(rs).elements:
        inversions = 0
        for beta in rs.positive_roots:
            image = beta
            for i in w.word:  # w^{-1} = s_{i_k} ... s_{i_1}, rightmost acts first
                image = rs.reflect_root(i, image)
            if all(c <= 0 for c in image):
                inversions += 1
        assert inversions == w.length


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_action_matrix_matches_reflect_composition(name):
    rs = build_root_system(name)
    probes = [(1, 0), (0, 1), (2, -3), (-1, 4)]
    for w in weyl_group(rs).elements:
        for word in _all_reduced_words(rs, w):
            for mu in probes:
                out = mu
                for i in reversed(word):
                    out = reflect(rs, i, out)
                assert out == w.apply(mu)


def test_braid_orders():
    assert build_root_system("A2").braid_order[(0, 1)] == 3
    assert build_root_system("B2").braid_order[(0, 1)] == 4
    assert build_root_system("G2").braid_order[(0, 1)] == 6
    a3 = build_root_system("A3")
    assert a3.braid_order[(0, 2)] == 2


# The coweight layer against the matrix enumeration, on every type up to F4.
LAYER_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "D4", "G2", "F4"]


def _element_of(rs, word):
    """The enumerated element spelled by any word, by multiplying matrices."""
    n = rs.rank
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    m = reduce(_matmul, (simple_reflection_matrix(rs, i) for i in word), ident)
    return weyl_group(rs).element_of_matrix(m)


@pytest.mark.parametrize("name", LAYER_TYPES)
def test_greedy_word_is_the_stored_word(name):
    rs = build_root_system(name)
    g = weyl_group(rs)
    for w in g.elements:
        assert reduced_word(rs, w.apply(rho(rs))) == w.word
    assert reduced_word(rs, negate_coweight(rho(rs))) == g.longest.word
    assert longest_word(rs) == g.longest.word
    assert g.longest.length == len(rs.positive_roots)


@pytest.mark.parametrize("name", LAYER_TYPES)
def test_reducedness_walk_matches_the_matrix_length(name):
    rs = build_root_system(name)
    rng = random.Random(f"reduced-{name}")
    verdicts = set()
    for _ in range(300):
        word = [rng.randrange(rs.rank) for _ in range(rng.randint(0, len(rs.positive_roots) + 2))]
        try:
            verdict = require_reduced(rs, word) == tuple(word)
        except NonReducedWord as exc:
            assert str(exc) == f"word {[i + 1 for i in word]} is not reduced"
            verdict = False
        assert verdict == (_element_of(rs, word).length == len(word)), word
        verdicts.add(verdict)
    assert verdicts == {True, False}


LEVEL_SIZES = {"A2": [3, 2], "B2": [4, 2], "G2": [6, 2], "A3": [4, 3, 2], "B3": [6, 4, 2], "F4": [24, 8, 3, 2]}


@pytest.mark.parametrize("name", LAYER_TYPES)
def test_levels_factor_the_group(name):
    # Every w is u_0 u_1 ... u_{n-1}, one u_k per level, lengths adding.
    rs = build_root_system(name)
    levels = []
    for plan in parabolic_levels(rs):
        words = [()]
        for i, parent in plan:
            words.append((i,) + words[parent])
        levels.append(words)
    sizes = [len(words) for words in levels]
    assert math.prod(sizes) == weyl_order(rs.cartan_type)
    assert sizes == LEVEL_SIZES.get(name, sizes)
    seen = set()
    for parts in product(*levels):
        w = _element_of(rs, sum(parts, ()))
        assert w.length == sum(map(len, parts))
        seen.add(w.word)
    assert len(seen) == len(weyl_group(rs))


@pytest.mark.parametrize("name", LAYER_TYPES)
def test_poincare_polynomial_counts_the_orbit(name):
    rs = build_root_system(name)
    counts = {}
    for w in weyl_group(rs).elements:
        counts[w.length] = counts.get(w.length, 0) + 1
    assert poincare_polynomial(rs, range(rs.rank)) == GroupRingElem.monomial((0,) * rs.rank, counts)


def test_f4_behind_size_guard():
    rs = build_root_system("F4")
    assert len(rs.positive_roots) == 24
    require_walkable(build_root_system("B4"))
    with pytest.raises(WeylGroupTooLarge, match=r"^\|W\(F4\)\| = 1152 exceeds the cap 500"):
        require_walkable(rs)
    # The reference enumeration itself is unguarded.
    group = weyl_group(rs)
    assert len(group.elements) == 1152
    assert group.longest.length == 24


def test_f4_guard_holds_after_a_raised_cap_call(monkeypatch):
    rs = build_root_system("F4")
    monkeypatch.setattr(root_system, "MAX_WEYL_DEFAULT", 1152)
    require_walkable(rs)
    monkeypatch.undo()
    # The cap is read at each call: whether a call succeeds never depends on
    # what ran before it.
    with pytest.raises(WeylGroupTooLarge):
        require_walkable(rs)


def test_rho_is_all_ones():
    for name in ("A1", "B2", "A3"):
        rs = build_root_system(name)
        assert rho(rs) == (1,) * rs.rank


@pytest.mark.parametrize("name", ["A1", "A3", "B2", "G2", "B3"])
def test_dominant_conjugate_and_orbit(name):
    # Oracle: the images of mu under every enumerated element.
    rs = build_root_system(name)
    g = weyl_group(rs)
    for mu in [(0,) * rs.rank, (1,) + (-2,) * (rs.rank - 1), (-3,) + (0,) * (rs.rank - 1),
               tuple(range(-rs.rank, 0)), tuple((-1) ** k * (k + 1) for k in range(rs.rank))]:
        nu, steps = dominant_conjugate(rs, mu)
        images = [w.apply(mu) for w in g.elements]
        assert min(nu) >= 0 and nu in images
        points = orbit(rs, nu)
        assert points[0] == nu and len(points) == len(set(points))
        assert sorted(points) == sorted(set(images))
        if 0 not in nu:  # regular: one element sends mu to nu, of length = parity of steps
            (w,) = [w for w, image in zip(g.elements, images) if image == nu]
            assert w.length % 2 == steps % 2
