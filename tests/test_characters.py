from dataclasses import FrozenInstanceError, replace

import pytest

from heckemod.algebra import Q_GEN, Q_MINUS_ONE
from heckemod.characters import character_by_name, characters
from heckemod.errors import InvalidCharacter
from heckemod.root_system import build_root_system, rho


def test_simply_laced_has_two_characters():
    for name in ("A1", "A2", "A3", "D4"):
        rs = build_root_system(name)
        assert [eps.name for eps in characters(rs)] == ["triv", "sign"]


def test_two_length_types_have_four_characters():
    for name in ("B2", "C3", "G2", "B3", "F4"):
        rs = build_root_system(name)
        assert [eps.name for eps in characters(rs)] == ["triv", "sign", "neg-long", "neg-short"]


def test_unknown_or_inapplicable_character():
    a2 = build_root_system("A2")
    with pytest.raises(InvalidCharacter):
        character_by_name(a2, "neg-long")
    with pytest.raises(InvalidCharacter):
        character_by_name(a2, "nonsense")


def test_eigenvalues():
    b2 = build_root_system("B2")
    neg_long = character_by_name(b2, "neg-long")
    long_i = [i for i in range(2) if b2.length_class_of[b2.simple_root(i)] == "long"][0]
    short_i = 1 - long_i
    assert neg_long.eigenvalues[long_i] == {0: -1}
    assert neg_long.eigenvalues[short_i] == {1: 1}
    assert neg_long.neg_at == tuple(i == long_i for i in range(2))
    assert character_by_name(b2, "triv").eigenvalues[0] == {1: 1}
    assert character_by_name(b2, "sign").eigenvalues[0] == {0: -1}


def test_characters_are_frozen_values_built_once():
    # One object per type and name, with every field fixed; each eigenvalue
    # map is the character's own copy, and a control with other eigenvalues
    # is a replaced copy that leaves the original as it was.
    b2 = build_root_system("B2")
    neg_long = character_by_name(b2, "neg-long")
    assert character_by_name(b2, "neg-long") is neg_long
    assert characters(b2) is characters(b2)
    with pytest.raises(FrozenInstanceError):
        neg_long.rho_eps = (0, 0)
    assert not any(v is Q_GEN or v is Q_MINUS_ONE for eps in characters(b2) for v in eps.eigenvalues)
    squared = replace(neg_long, eigenvalues=tuple({2: 1} if v == {1: 1} else v for v in neg_long.eigenvalues))
    long_i = neg_long.neg_at.index(True)
    assert squared.eigenvalues[long_i] == {0: -1}
    assert squared.eigenvalues[1 - long_i] == {2: 1}
    assert neg_long.eigenvalues[1 - long_i] == {1: 1}
    assert squared.rho_eps == neg_long.rho_eps and squared != neg_long


def test_coroot_fields_follow_the_roots():
    for name in ("A2", "B2", "B3", "C2", "G2"):
        rs = build_root_system(name)
        assert rs.positive_coroots == tuple(rs.coroot_of[r] for r in rs.positive_roots)
        for eps in characters(rs):
            assert eps.minus_coroots == tuple(rs.coroot_of[r] for r in eps.phi_minus)
            assert eps.q_coroots == tuple(rs.coroot_of[r] for r in eps.phi_q)


def test_partition_of_positive_roots():
    b2 = build_root_system("B2")
    for eps in characters(b2):
        assert sorted(eps.phi_minus + eps.phi_q) == sorted(b2.positive_roots)
    bessel = character_by_name(b2, "neg-long")
    assert all(b2.length_class_of[r] == "long" for r in bessel.phi_minus)
    assert len(bessel.phi_minus) == 2


def test_rho_eps_extremes():
    for name in ("A2", "B2", "G2"):
        rs = build_root_system(name)
        assert character_by_name(rs, "sign").rho_eps == rho(rs)
        assert character_by_name(rs, "triv").rho_eps == (0,) * rs.rank


@pytest.mark.parametrize("name", ["B2", "B3", "C2", "G2"])
def test_rho_eps_by_direct_summation(name):
    # independent oracle: sum the coroots of the -1 classes and halve
    rs = build_root_system(name)
    for eps in characters(rs):
        total = [0] * rs.rank
        for root in rs.positive_roots:
            if rs.length_class_of[root] in eps.neg_classes:
                for k, c in enumerate(rs.coroot_of[root]):
                    total[k] += c
        assert all(c % 2 == 0 for c in total)
        assert eps.rho_eps == tuple(c // 2 for c in total)


def test_b2_bessel_rho_eps_value():
    rs = build_root_system("B2")
    assert character_by_name(rs, "neg-long").rho_eps == (1, 0)


def test_rho_eps_integral_for_every_supported_type():
    # the half-sum lands in the coweight lattice for every character of every
    # supported type; RhoEpsNotIntegral must never fire
    for name in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "G2", "F4"):
        rs = build_root_system(name)
        for eps in characters(rs):
            assert len(eps.rho_eps) == rs.rank


def test_pairing_pattern():
    # <alpha_i, rho_eps> = 1 exactly on the -1-class simple roots
    for name in ("A2", "B2", "B3", "G2", "C3"):
        rs = build_root_system(name)
        for eps in characters(rs):
            for i in range(rs.rank):
                expected = 1 if eps.neg_at[i] else 0
                assert eps.rho_eps[i] == expected
