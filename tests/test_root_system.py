import pytest

from heckemod.errors import InvalidCartanType, WeylGroupTooLarge
from heckemod.root_system import (
    CartanType,
    build_root_system,
    element_of_word,
    enumerate_weyl,
    longest_element,
    negate_coweight,
    reflect,
    reflect_root,
    rho,
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
            images = {reflect_root(rs, i, r) for r in others}
            assert images == set(others)
            assert reflect_root(rs, i, rs.simple_root(i)) == tuple(
                -c for c in rs.simple_root(i)
            )


def test_enumeration_basics():
    a1 = build_root_system("A1")
    words = sorted(w.word for w in enumerate_weyl(a1))
    assert words == [(), (0,)]

    a2 = build_root_system("A2")
    lengths = sorted(w.length for w in enumerate_weyl(a2))
    assert lengths == [0, 1, 1, 2, 2, 3]

    b2 = build_root_system("B2")
    lengths = sorted(w.length for w in enumerate_weyl(b2))
    assert lengths == [0, 1, 1, 2, 2, 3, 3, 4]
    assert longest_element(b2).length == 4


def test_identity_and_longest():
    for name in ("A2", "B2", "G2"):
        rs = build_root_system(name)
        group = weyl_group(rs)
        assert group.identity.word == ()
        assert group.identity.apply((1, 2)) == (1, 2)
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
    from heckemod.root_system import _matmul, simple_reflection_matrix

    for i in range(rs.rank):
        v = group.element_of_matrix(_matmul(simple_reflection_matrix(rs, i), w.action))
        if v.length == w.length - 1:
            out.extend([(i,) + rest for rest in _all_reduced_words(rs, v)])
    return out


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_stored_words_are_shortlex_minimal(name):
    rs = build_root_system(name)
    for w in enumerate_weyl(rs):
        words = _all_reduced_words(rs, w)
        assert w.word == min(words)
        assert all(len(word) == w.length for word in words)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_length_is_inversion_count(name):
    # l(w) = #{beta > 0 : w^{-1} beta < 0}, computed through root reflections
    rs = build_root_system(name)
    for w in enumerate_weyl(rs):
        inversions = 0
        for beta in rs.positive_roots:
            image = beta
            for i in w.word:  # w^{-1} = s_{i_k} ... s_{i_1}, rightmost acts first
                image = reflect_root(rs, i, image)
            if all(c <= 0 for c in image):
                inversions += 1
        assert inversions == w.length


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_action_matrix_matches_reflect_composition(name):
    rs = build_root_system(name)
    probes = [(1, 0), (0, 1), (2, -3), (-1, 4)]
    for w in enumerate_weyl(rs):
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


def test_f4_behind_size_guard():
    rs = build_root_system("F4")
    assert len(rs.positive_roots) == 24
    with pytest.raises(WeylGroupTooLarge):
        enumerate_weyl(rs)
    elements = enumerate_weyl(rs, max_size=1152)
    assert len(elements) == 1152
    assert longest_element(rs, max_size=1152).length == 24


def test_f4_guard_holds_after_a_raised_cap_call():
    rs = build_root_system("F4")
    assert len(weyl_group(rs, max_size=1152)) == 1152
    with pytest.raises(WeylGroupTooLarge):
        weyl_group(rs)
    with pytest.raises(WeylGroupTooLarge):
        longest_element(rs)


def test_element_of_word_handles_unreduced_spellings():
    rs = build_root_system("A2")
    assert element_of_word(rs, (0, 0)).length == 0
    assert element_of_word(rs, (0, 1, 0)).word == element_of_word(rs, (1, 0, 1)).word


def test_rho_is_all_ones():
    for name in ("A1", "B2", "A3"):
        rs = build_root_system(name)
        assert rho(rs) == (1,) * rs.rank
