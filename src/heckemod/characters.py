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
"""

from __future__ import annotations

from .algebra import QDict, Q_GEN, Q_MINUS_ONE
from .errors import InvalidCharacter, RhoEpsNotIntegral
from .root_system import LONG, SHORT, Coweight, Root, RootSystem

CHARACTER_NAMES = ("triv", "sign", "neg-long", "neg-short")


class HeckeCharacter:
    """A linear character, tied to its root system.

    ``neg_classes`` lists the length classes on which the generators act by
    -1; generators of the remaining classes act by q.
    """

    __slots__ = ("root_system", "name", "neg_classes", "_rho_eps", "_eigenvalues")

    def __init__(self, rs: RootSystem, name: str, neg_classes: frozenset[str]):
        unknown = neg_classes - rs.length_classes
        if unknown:
            raise InvalidCharacter(f"no {sorted(unknown)} roots in {rs.cartan_type}")
        self.root_system = rs
        self.name = name
        self.neg_classes = neg_classes
        self._rho_eps: Coweight | None = None
        self._eigenvalues: tuple[QDict, ...] | None = None

    def eigenvalue(self, length_class: str) -> QDict:
        """The value of the character on generators of one length class."""
        return dict(Q_MINUS_ONE if length_class in self.neg_classes else Q_GEN)

    def eigenvalue_at(self, i: int) -> QDict:
        """The value of the character on T_{s_i}.

        The values of all generators are filled once per instance, on the
        first call, through :meth:`eigenvalue`, so a subclass that overrides
        it is honoured. The returned map is shared by every call: read it,
        never write into it.
        """
        if self._eigenvalues is None:
            rs = self.root_system
            self._eigenvalues = tuple(
                self.eigenvalue(rs.length_class_of[rs.simple_root(j)]) for j in range(rs.rank)
            )
        return self._eigenvalues[i]

    def is_neg_at(self, i: int) -> bool:
        rs = self.root_system
        return rs.length_class_of[rs.simple_root(i)] in self.neg_classes

    @property
    def phi_minus(self) -> tuple[Root, ...]:
        """Positive roots whose length class receives -1."""
        rs = self.root_system
        return tuple(r for r in rs.positive_roots if rs.length_class_of[r] in self.neg_classes)

    @property
    def phi_q(self) -> tuple[Root, ...]:
        rs = self.root_system
        return tuple(r for r in rs.positive_roots if rs.length_class_of[r] not in self.neg_classes)

    @property
    def rho_eps(self) -> Coweight:
        if self._rho_eps is None:
            self._rho_eps = rho_eps(self.root_system, self)
        return self._rho_eps

    def __repr__(self) -> str:
        return f"HeckeCharacter({self.name} on {self.root_system.cartan_type})"


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


def characters(rs: RootSystem) -> tuple[HeckeCharacter, ...]:
    """All linear characters of the finite Hecke algebra of ``rs``.

    Two for simply-laced types, four when there are two root lengths.
    """
    _assert_odd_bonds_within_classes(rs)
    out = [
        HeckeCharacter(rs, "triv", frozenset()),
        HeckeCharacter(rs, "sign", frozenset(rs.length_classes)),
    ]
    if len(rs.length_classes) == 2:
        out.append(HeckeCharacter(rs, "neg-long", frozenset({LONG})))
        out.append(HeckeCharacter(rs, "neg-short", frozenset({SHORT})))
    return tuple(out)


def character_by_name(rs: RootSystem, name: str) -> HeckeCharacter:
    for eps in characters(rs):
        if eps.name == name:
            return eps
    raise InvalidCharacter(f"character {name!r} not defined for {rs.cartan_type}")


def rho_eps(rs: RootSystem, eps: HeckeCharacter) -> Coweight:
    """Half sum of the coroots of the character's Phi+_{-1} roots.

    Integral by the reflection argument (s_i permutes the positive roots other
    than alpha_i); a non-integral half-sum would mean the partition by length
    class is broken and raises :class:`RhoEpsNotIntegral`.
    """
    total = [0] * rs.rank
    for root in rs.positive_roots:
        if rs.length_class_of[root] in eps.neg_classes:
            for k, c in enumerate(rs.coroot_of[root]):
                total[k] += c
    if any(c % 2 for c in total):
        raise RhoEpsNotIntegral(f"half-sum not integral for {eps.name} on {rs.cartan_type}")
    return tuple(c // 2 for c in total)
