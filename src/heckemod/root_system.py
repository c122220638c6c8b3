"""Irreducible root systems and their Weyl groups, in exact integer arithmetic.

Conventions, fixed once and asserted by the test suite:

* The Cartan matrix is ``A[i][j] = <alpha_i, alpha_j^vee>``, so the columns of
  ``A`` are the simple coroots written in fundamental-coweight coordinates.
* Coweights are integer tuples in the fundamental-coweight basis, which makes
  ``<alpha_i, mu> = mu[i]`` a coordinate read and dominance a sign check.
* Roots are integer tuples in the simple-root basis; positive roots have
  non-negative coordinates.
* An element w is the point x = w(rho) of the regular orbit of rho. Its left
  descents are the negative coordinates of x, l(w) = #{a > 0 : <a, x> < 0}
  (Bjorner-Brenti, Combinatorics of Coxeter Groups, section 2.4), and its
  ShortLex-minimal reduced word is the greedy walk on x: the least i with
  x[i] < 0, reflect, repeat. Reducedness, w0's word (from -rho) and the
  parabolic levels of the Hecke sum are read off coweights, with no matrices.

Supported families: A (rank >= 1), B, C (rank >= 2), D (rank >= 3), G2, and F4.
:func:`weyl_group` enumerates W as integer matrices; it is the reference
enumeration for ``alternator`` and the tests. The walks over all of W, the
Hecke sum and braid's reduced words, stop at :func:`require_walkable`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from operator import add

from .errors import InvalidCartanType, NonReducedWord, WeylGroupTooLarge

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

#: Largest |W| for which the walks over all of W run: braid's reduced words
#: (9,593,133 on F4, |W| = 1152) and the Hecke sum, which makes 33 generator
#: applications on F4 but whose support grows with the input (F4 sign at
#: (1, 1, 1, 1): 219,529 terms); for it the cap stands in for a support budget.
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
    positive_coroots : tuple[Coweight, ...]
        The coroots of ``positive_roots``, in the same order.
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
        self.positive_coroots: tuple[Coweight, ...] = tuple(self.coroot_of[r] for r in self.positive_roots)
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
                image = self.reflect_root(i, beta)
                if min(image) < 0:  # only beta = alpha_i reflects out of the positive cone
                    continue
                if image not in coroot:
                    coroot[image] = reflect(self, i, coroot[beta])
                    cls[image] = cls[beta]
                    frontier.append(image)
        roots = tuple(sorted(coroot, key=lambda r: (sum(r), r)))
        return roots, coroot, cls

    def reflect_root(self, i: int, beta: Root) -> Root:
        """Simple reflection acting on a root in simple-root coordinates."""
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


def rho(rs: RootSystem) -> Coweight:
    """Half sum of positive coroots; all fundamental-coweight coordinates are 1."""
    return (1,) * rs.rank


def is_dominant(mu: Coweight) -> bool:
    return all(c >= 0 for c in mu)


def dominant_conjugate(rs: RootSystem, mu: Coweight) -> tuple[Coweight, int]:
    """(nu, steps): the dominant W-conjugate nu of mu, reached by reflecting on
    the first negative coordinate ``steps`` times, so nu = w mu with
    det w = (-1)^steps. Each step lowers the length of the element still to
    undo by one, so the walk ends."""
    steps = 0
    while min(mu) < 0:
        for i, p in enumerate(mu):
            if p < 0:
                break
        # reflect(rs, i, mu), inlined: this walk runs once per monomial.
        mu = tuple(m - p * c for m, c in zip(mu, rs.simple_coroots[i]))
        steps += 1
    return mu, steps


def orbit(rs: RootSystem, nu: Coweight) -> list[Coweight]:
    """The W-orbit of a dominant coweight, nu first: breadth first, reflecting
    only on positive coordinates, which reaches every point once."""
    seen = {nu}
    out = [nu]
    for mu in out:
        for i, c in enumerate(mu):
            if c > 0:
                image = reflect(rs, i, mu)
                if image not in seen:
                    seen.add(image)
                    out.append(image)
    return out


def add_coweights(a: Coweight, b: Coweight) -> Coweight:
    return tuple(map(add, a, b))


def negate_coweight(a: Coweight) -> Coweight:
    return tuple(-x for x in a)


def reduced_word(rs: RootSystem, x: Coweight) -> tuple[int, ...]:
    """The ShortLex-minimal reduced word of the w with w(rho) = x: its least
    left descent i, the least negative coordinate of x, then the word of s_i w
    at s_i x (module docstring)."""
    word = []
    while min(x) < 0:
        i = next(i for i, c in enumerate(x) if c < 0)
        word.append(i)
        x = reflect(rs, i, x)
    return tuple(word)


def longest_word(rs: RootSystem) -> tuple[int, ...]:
    """The ShortLex-minimal reduced word of w0, which maps rho to -rho."""
    return reduced_word(rs, negate_coweight(rho(rs)))


def require_reduced(rs: RootSystem, word) -> tuple[int, ...]:
    """The word as a tuple; :class:`NonReducedWord` unless it is reduced.

    Read right to left from x = rho, each letter i must meet x[i] > 0, which
    says s_i lengthens the element spelled so far; x then moves to s_i x. The
    message numbers the letters from 1, as the CLI and the witnesses do.
    """
    word = tuple(word)
    x = rho(rs)
    for i in reversed(word):
        if x[i] < 0:
            raise NonReducedWord(f"word {[j + 1 for j in word]} is not reduced")
        x = reflect(rs, i, x)
    return word


def require_walkable(rs: RootSystem) -> None:
    """Raise :class:`WeylGroupTooLarge` when |W| exceeds :data:`MAX_WEYL_DEFAULT`,
    read at each call. The walks over all of W, the Hecke sum and braid's
    reduced words, call this first."""
    order = weyl_order(rs.cartan_type)
    if order > MAX_WEYL_DEFAULT:
        raise WeylGroupTooLarge(
            f"|W({rs.cartan_type})| = {order} exceeds the cap {MAX_WEYL_DEFAULT} on walks over the whole Weyl group")


@cache
def parabolic_levels(rs: RootSystem) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The Hecke sum's plan. Level k is the W_{J_k}-orbit of the k-th
    fundamental coweight e_k, J_k = {k, ..., n-1}, found breadth first by
    reflecting on positive coordinates i >= k; each point after e_k is listed
    as (i, index of its parent x), the point being s_i x.

    The orbit is in bijection with the minimal coset representatives u of
    W_{J_{k+1}} in W_{J_k}, by u to u(e_k); x[i] > 0 says s_i u is longer
    than u and again minimal. Every w factors uniquely as u_0 u_1 ... u_{n-1},
    one u_k per level with lengths adding, so a sum over W is the product of
    the level sums (Bjorner-Brenti, section 2.4).
    """
    levels = []
    for k in range(rs.rank):
        points = [tuple(int(j == k) for j in range(rs.rank))]
        seen = set(points)
        plan = []
        for parent, x in enumerate(points):
            for i in range(k, rs.rank):
                if x[i] > 0:
                    y = reflect(rs, i, x)
                    if y not in seen:
                        seen.add(y)
                        points.append(y)
                        plan.append((i, parent))
        levels.append(tuple(plan))
    return tuple(levels)


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
    """The Weyl group enumerated as integer matrices, each element with its
    ShortLex-minimal reduced word: the reference enumeration for
    ``alternator`` and the tests. No computing path reads it; they read the
    orbit of rho instead (module docstring)."""

    elements: tuple[WeylElement, ...]
    index_by_matrix: dict[Matrix, int]
    longest: WeylElement

    def element_of_matrix(self, m: Matrix) -> WeylElement:
        return self.elements[self.index_by_matrix[m]]

    def __len__(self) -> int:
        return len(self.elements)


_WEYL_CACHE: dict[tuple[str, int], WeylGroup] = {}


def weyl_group(rs: RootSystem) -> WeylGroup:
    """Enumerate the Weyl group by BFS over right multiplication by the s_i.

    BFS discovery order with generators tried in increasing index yields the
    ShortLex-minimal reduced word for every element, the word
    :func:`reduced_word` reads off w(rho), so the enumeration is reproducible.
    """
    key = (rs.cartan_type.family, rs.rank)
    cached = _WEYL_CACHE.get(key)
    if cached is not None:
        return cached

    n = rs.rank
    gens = [simple_reflection_matrix(rs, i) for i in range(n)]
    ident: Matrix = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    elements: list[WeylElement] = [WeylElement((), ident, 0)]
    index: dict[Matrix, int] = {ident: 0}
    for w in elements:
        for i in range(n):
            m = _matmul(w.action, gens[i])
            if m not in index:
                index[m] = len(elements)
                elements.append(WeylElement(w.word + (i,), m, w.length + 1))
    expected = weyl_order(rs.cartan_type)
    if len(elements) != expected:
        raise AssertionError(f"enumerated {len(elements)} elements, expected {expected}")

    # BFS finds w0, the unique element of greatest length, last.
    group = WeylGroup(tuple(elements), index, elements[-1])
    _WEYL_CACHE[key] = group
    return group
