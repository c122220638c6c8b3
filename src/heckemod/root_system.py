"""Irreducible root systems and their Weyl groups, in exact integer arithmetic.

Conventions, fixed once and asserted by the test suite:

* The Cartan matrix is ``A[i][j] = <alpha_i, alpha_j^vee>``, so the columns of
  ``A`` are the simple coroots written in fundamental-coweight coordinates.
* Coweights are integer tuples in the fundamental-coweight basis, which makes
  ``<alpha_i, mu> = mu[i]`` a coordinate read and dominance a sign check.
* Roots are integer tuples in the simple-root basis; positive roots have
  non-negative coordinates.
* Weyl elements carry the first-found (ShortLex-minimal) reduced word from a
  breadth-first closure over right multiplication by simple reflections, so
  reduced words are deterministic across runs.

Supported families: A (rank >= 1), B, C (rank >= 2), D (rank >= 3), G2, and F4.
F4 sits behind the Weyl-group size guard (|W| = 1152) and must be enumerated
with an explicit ``max_size``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidCartanType, WeylGroupTooLarge

Coweight = tuple[int, ...]
Root = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

SHORT = "short"
LONG = "long"

# Rank constraints: (minimum rank, exact rank or None).
_ADMISSIBLE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "G": (2, 2),
    "F": (4, 4),
}

#: Default cap for Weyl enumeration; F4 (|W| = 1152) requires raising it.
MAX_WEYL_DEFAULT = 500


@dataclass(frozen=True)
class CartanType:
    """An irreducible Cartan type such as A2 or B3."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        lo_hi = _ADMISSIBLE.get(self.family)
        if lo_hi is None:
            raise InvalidCartanType(f"unknown family {self.family!r}")
        lo, exact = lo_hi
        if self.rank < lo or (exact is not None and self.rank != exact):
            raise InvalidCartanType(f"inadmissible rank {self.rank} for family {self.family}")

    @classmethod
    def parse(cls, text: str) -> "CartanType":
        """Parse strings like ``"B3"`` or ``"g2"`` (case-insensitive)."""
        s = text.strip().upper()
        if len(s) < 2 or not s[1:].isdigit():
            raise InvalidCartanType(f"cannot parse Cartan type {text!r}")
        return cls(s[0], int(s[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _cartan_matrix(t: CartanType) -> Matrix:
    n = t.rank
    a = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]
    if t.family == "B":
        a[n - 2][n - 1] = -2
    elif t.family == "C":
        a[n - 1][n - 2] = -2
    elif t.family == "D":
        a[n - 2][n - 1] = a[n - 1][n - 2] = 0
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
    elif t.family == "G":
        a[1][0] = -3
    elif t.family == "F":
        a[1][2] = -2
    return tuple(tuple(row) for row in a)


def _simple_classes(t: CartanType) -> tuple[str, ...]:
    n = t.rank
    if t.family == "B":
        return (LONG,) * (n - 1) + (SHORT,)
    if t.family == "C":
        return (SHORT,) * (n - 1) + (LONG,)
    if t.family == "G":
        return (SHORT, LONG)
    if t.family == "F":
        return (LONG, LONG, SHORT, SHORT)
    # Simply laced: a single class, conventionally "long".
    return (LONG,) * n


def _positive_root_count(t: CartanType) -> int:
    n = t.rank
    return {
        "A": n * (n + 1) // 2,
        "B": n * n,
        "C": n * n,
        "D": n * (n - 1),
        "G": 6,
        "F": 24,
    }[t.family]


def weyl_order(t: CartanType) -> int:
    """Order of the Weyl group, from the classical formulas."""
    n = t.rank
    if t.family == "A":
        return math.factorial(n + 1)
    if t.family in ("B", "C"):
        return (1 << n) * math.factorial(n)
    if t.family == "D":
        return (1 << (n - 1)) * math.factorial(n)
    if t.family == "G":
        return 12
    return 1152  # F4


class RootSystem:
    """Immutable container for the Cartan datum of one irreducible type.

    Attributes
    ----------
    cartan_type : CartanType
    rank : int
    cartan_matrix : Matrix
        ``cartan_matrix[i][j] = <alpha_i, alpha_j^vee>``.
    positive_roots : tuple[Root, ...]
        Sorted by (height, coordinates) for deterministic iteration.
    coroot_of : dict[Root, Coweight]
        Coroot of each positive root, in fundamental-coweight coordinates.
    length_class_of : dict[Root, str]
        ``"short"`` or ``"long"``; a single class for simply-laced types.
    braid_order : dict[tuple[int, int], int]
        Coxeter exponent m_ij in {2, 3, 4, 6} for i != j.
    """

    def __init__(self, cartan_type: CartanType):
        self.cartan_type = cartan_type
        self.rank = cartan_type.rank
        self.cartan_matrix = _cartan_matrix(cartan_type)
        self.simple_coroots: tuple[Coweight, ...] = tuple(
            tuple(self.cartan_matrix[k][i] for k in range(self.rank)) for i in range(self.rank)
        )
        classes = _simple_classes(cartan_type)
        self.length_classes: frozenset[str] = frozenset(classes)

        self.positive_roots, self.coroot_of, self.length_class_of = self._close_roots(classes)
        if len(self.positive_roots) != _positive_root_count(cartan_type):
            raise AssertionError(
                f"root closure for {cartan_type} produced {len(self.positive_roots)} roots"
            )

        self.braid_order: dict[tuple[int, int], int] = {}
        for i in range(self.rank):
            for j in range(self.rank):
                if i != j:
                    prod = self.cartan_matrix[i][j] * self.cartan_matrix[j][i]
                    self.braid_order[(i, j)] = {0: 2, 1: 3, 2: 4, 3: 6}[prod]

    def _close_roots(self, classes):
        n = self.rank
        simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
        coroot: dict[Root, Coweight] = {simple[i]: self.simple_coroots[i] for i in range(n)}
        cls: dict[Root, str] = {simple[i]: classes[i] for i in range(n)}
        frontier = list(simple)
        while frontier:
            beta = frontier.pop()
            for i in range(n):
                image = self._reflect_root(i, beta)
                if min(image) < 0:  # only beta = alpha_i reflects out of the positive cone
                    continue
                if image not in coroot:
                    coroot[image] = reflect(self, i, coroot[beta])
                    cls[image] = cls[beta]
                    frontier.append(image)
        roots = tuple(sorted(coroot, key=lambda r: (sum(r), r)))
        return roots, coroot, cls

    def _reflect_root(self, i: int, beta: Root) -> Root:
        pairing = sum(self.cartan_matrix[j][i] * beta[j] for j in range(self.rank))
        out = list(beta)
        out[i] -= pairing
        return tuple(out)

    def simple_root(self, i: int) -> Root:
        return tuple(1 if k == i else 0 for k in range(self.rank))

    def pairing(self, root: Root, mu: Coweight) -> int:
        """Evaluate <root, mu> with root in simple-root and mu in coweight coordinates."""
        return sum(c * m for c, m in zip(root, mu))

    def __repr__(self) -> str:
        return f"RootSystem({self.cartan_type})"


@lru_cache(maxsize=None)
def _root_system(family: str, rank: int) -> RootSystem:
    return RootSystem(CartanType(family, rank))


def build_root_system(t: CartanType | str) -> RootSystem:
    """Construct (and cache) the root system of the given type."""
    if isinstance(t, str):
        t = CartanType.parse(t)
    return _root_system(t.family, t.rank)


def reflect(rs: RootSystem, i: int, mu: Coweight) -> Coweight:
    """Simple reflection s_i(mu) = mu - <alpha_i, mu> alpha_i^vee on coweights."""
    p = mu[i]
    if p == 0:
        return mu
    col = rs.simple_coroots[i]
    return tuple(m - p * c for m, c in zip(mu, col))


def reflect_root(rs: RootSystem, i: int, beta: Root) -> Root:
    """Simple reflection acting on a root in simple-root coordinates."""
    return rs._reflect_root(i, beta)


def rho(rs: RootSystem) -> Coweight:
    """Half sum of positive coroots; all fundamental-coweight coordinates are 1."""
    return (1,) * rs.rank


def is_dominant(mu: Coweight) -> bool:
    return all(c >= 0 for c in mu)


def add_coweights(a: Coweight, b: Coweight) -> Coweight:
    return tuple(x + y for x, y in zip(a, b))


def negate_coweight(a: Coweight) -> Coweight:
    return tuple(-x for x in a)


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element with its ShortLex-minimal reduced word.

    ``action`` is the integer matrix of the element acting on coweight
    coordinates (mu maps to action @ mu); ``length`` equals ``len(word)``.
    """

    word: tuple[int, ...]
    action: Matrix
    length: int

    def apply(self, mu: Coweight) -> Coweight:
        return tuple(sum(row[j] * mu[j] for j in range(len(mu))) for row in self.action)

    def __repr__(self) -> str:
        letters = "".join(str(i + 1) for i in self.word) or "e"
        return f"WeylElement(s{letters})" if self.word else "WeylElement(e)"


def simple_reflection_matrix(rs: RootSystem, i: int) -> Matrix:
    n = rs.rank
    rows = []
    for k in range(n):
        row = [1 if k == j else 0 for j in range(n)]
        row[i] -= rs.cartan_matrix[k][i]
        rows.append(tuple(row))
    return tuple(rows)


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


@dataclass(frozen=True)
class WeylGroup:
    """Fully enumerated Weyl group with matrix lookup tables."""

    elements: tuple[WeylElement, ...]
    index_by_matrix: dict[Matrix, int]
    longest: WeylElement

    @property
    def identity(self) -> WeylElement:
        return self.elements[0]

    def element_of_matrix(self, m: Matrix) -> WeylElement:
        return self.elements[self.index_by_matrix[m]]

    def __len__(self) -> int:
        return len(self.elements)


_WEYL_CACHE: dict[tuple[str, int], WeylGroup] = {}


def weyl_group(rs: RootSystem, max_size: int | None = None) -> WeylGroup:
    """Enumerate the Weyl group by BFS over right multiplication by the s_i.

    BFS discovery order with generators tried in increasing index yields the
    ShortLex-minimal reduced word for every element, so the enumeration is
    reproducible. Raises :class:`WeylGroupTooLarge` when the group order
    exceeds ``max_size`` (default :data:`MAX_WEYL_DEFAULT`).
    """
    # The cap is checked on every call, cached or not, so whether a call
    # succeeds never depends on what ran before it.
    expected = weyl_order(rs.cartan_type)
    cap = MAX_WEYL_DEFAULT if max_size is None else max_size
    if expected > cap:
        raise WeylGroupTooLarge(
            f"|W({rs.cartan_type})| = {expected} exceeds the cap {cap}; pass max_size to allow"
        )
    key = (rs.cartan_type.family, rs.rank)
    cached = _WEYL_CACHE.get(key)
    if cached is not None:
        return cached

    n = rs.rank
    gens = [simple_reflection_matrix(rs, i) for i in range(n)]
    ident: Matrix = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    elements: list[WeylElement] = [WeylElement((), ident, 0)]
    index: dict[Matrix, int] = {ident: 0}
    head = 0
    while head < len(elements):
        w = elements[head]
        head += 1
        for i in range(n):
            m = _matmul(w.action, gens[i])
            if m not in index:
                index[m] = len(elements)
                elements.append(WeylElement(w.word + (i,), m, w.length + 1))
    if len(elements) != expected:
        raise AssertionError(f"enumerated {len(elements)} elements, expected {expected}")

    top = [w for w in elements if w.length == elements[-1].length]
    if len(top) != 1:
        raise AssertionError("longest element is not unique")
    group = WeylGroup(tuple(elements), index, top[0])
    _WEYL_CACHE[key] = group
    return group


def enumerate_weyl(rs: RootSystem, max_size: int | None = None) -> tuple[WeylElement, ...]:
    """All Weyl elements in BFS (length-increasing, ShortLex) order."""
    return weyl_group(rs, max_size=max_size).elements


def longest_element(rs: RootSystem, max_size: int | None = None) -> WeylElement:
    return weyl_group(rs, max_size=max_size).longest


def element_of_word(rs: RootSystem, word: tuple[int, ...] | list[int]) -> WeylElement:
    """The enumerated element spelled by an arbitrary word of simple reflections."""
    g = weyl_group(rs)
    m = g.identity.action
    for i in word:
        m = _matmul(m, simple_reflection_matrix(rs, i))
    return g.element_of_matrix(m)
