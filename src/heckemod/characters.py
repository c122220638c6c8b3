"""Linear characters of the finite Hecke algebra.

A linear character sends each generator T_{s_i} to -1 or q. The assignment
must be constant on simple roots joined by an odd braid bond (m_ij = 3), which
for the irreducible types here means constant on length classes: simply-laced
types carry exactly two characters (trivial and sign), two-length types carry
four. The extra pair is named by which class receives -1:

* ``neg-long``  : -1 on long simple roots, q on short ones;
* ``neg-short`` : -1 on short simple roots, q on long ones.

Each character determines a partition of the positive roots into the classes
Phi+_{-1} and Phi+_q and the half-sum-of-coroots shift rho_eps over Phi+_{-1},
which is always an integral coweight with <alpha_i, rho_eps> in {0, 1}.

A :class:`HeckeCharacter` is an immutable value. All its fields are computed
once, when :func:`characters` builds it, and :func:`characters` builds each
type's characters once, so every lookup returns the same object. The
eigenvalue maps are fresh dicts of the character, never the module constants
``Q_GEN``/``Q_MINUS_ONE``, and are shared by every reader: no caller may write
into one. A negative control with other eigenvalues is
``dataclasses.replace(eps, eigenvalues=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .algebra import QDict, Q_GEN, Q_MINUS_ONE
from .errors import InvalidCharacter, RhoEpsNotIntegral
from .root_system import LONG, SHORT, Coweight, Root, RootSystem


@dataclass(frozen=True, eq=False)
class HeckeCharacter:
    """A linear character, tied to its root system.

    ``neg_classes`` lists the length classes on which the generators act by
    -1; generators of the remaining classes act by q. ``eigenvalues[i]`` is
    the value on T_{s_i} and ``neg_at[i]`` says whether it is -1.
    ``phi_minus`` and ``phi_q`` are the positive roots of Phi+_{-1} and Phi+_q
    in the order of ``positive_roots``, ``minus_coroots`` and ``q_coroots``
    their coroots in the same order, and ``rho_eps`` half the sum of
    ``minus_coroots``.
    """

    root_system: RootSystem
    name: str
    neg_classes: frozenset[str]
    eigenvalues: tuple[QDict, ...]
    neg_at: tuple[bool, ...]
    phi_minus: tuple[Root, ...]
    phi_q: tuple[Root, ...]
    minus_coroots: tuple[Coweight, ...]
    q_coroots: tuple[Coweight, ...]
    rho_eps: Coweight

    def __repr__(self) -> str:
        return f"HeckeCharacter({self.name} on {self.root_system.cartan_type})"


def _character(rs: RootSystem, name: str, neg_classes: frozenset[str]) -> HeckeCharacter:
    """Every field of one character, with rho_eps checked integral.

    rho_eps is integral by the reflection argument (s_i permutes the positive
    roots other than alpha_i); a non-integral half-sum would mean the
    partition by length class is broken and raises :class:`RhoEpsNotIntegral`.
    """
    unknown = neg_classes - rs.length_classes
    if unknown:
        raise InvalidCharacter(f"no {sorted(unknown)} roots in {rs.cartan_type}")
    neg_at = tuple(rs.length_class_of[rs.simple_root(i)] in neg_classes for i in range(rs.rank))
    phi_minus = tuple(r for r in rs.positive_roots if rs.length_class_of[r] in neg_classes)
    phi_q = tuple(r for r in rs.positive_roots if rs.length_class_of[r] not in neg_classes)
    minus_coroots = tuple(rs.coroot_of[r] for r in phi_minus)
    total = [sum(column) for column in zip(*minus_coroots)] or [0] * rs.rank
    if any(c % 2 for c in total):
        raise RhoEpsNotIntegral(f"half-sum not integral for {name} on {rs.cartan_type}")
    return HeckeCharacter(
        root_system=rs,
        name=name,
        neg_classes=neg_classes,
        eigenvalues=tuple(dict(Q_MINUS_ONE if neg else Q_GEN) for neg in neg_at),
        neg_at=neg_at,
        phi_minus=phi_minus,
        phi_q=phi_q,
        minus_coroots=minus_coroots,
        q_coroots=tuple(rs.coroot_of[r] for r in phi_q),
        rho_eps=tuple(c // 2 for c in total),
    )


def _assert_odd_bonds_within_classes(rs: RootSystem) -> None:
    # Well-definedness: an odd bond forces equal values, so it must join
    # simple roots of one length class. Holds structurally for all supported
    # types; checked anyway so a broken Cartan table fails loudly.
    for (i, j), m in rs.braid_order.items():
        if m == 3:
            ci = rs.length_class_of[rs.simple_root(i)]
            cj = rs.length_class_of[rs.simple_root(j)]
            if ci != cj:
                raise InvalidCharacter(
                    f"odd bond joins distinct length classes in {rs.cartan_type}"
                )


@cache
def characters(rs: RootSystem) -> tuple[HeckeCharacter, ...]:
    """All linear characters of the finite Hecke algebra of ``rs``, built once.

    Two for simply-laced types, four when there are two root lengths.
    """
    _assert_odd_bonds_within_classes(rs)
    out = [
        _character(rs, "triv", frozenset()),
        _character(rs, "sign", frozenset(rs.length_classes)),
    ]
    if len(rs.length_classes) == 2:
        out.append(_character(rs, "neg-long", frozenset({LONG})))
        out.append(_character(rs, "neg-short", frozenset({SHORT})))
    return tuple(out)


def character_by_name(rs: RootSystem, name: str) -> HeckeCharacter:
    for eps in characters(rs):
        if eps.name == name:
            return eps
    raise InvalidCharacter(f"character {name!r} not defined for {rs.cartan_type}")
