"""Root-system facts computed without heckemod, for checking its outputs.

Everything here is derived from a Cartan matrix written out below in the
convention heckemod documents (``A[i][j] = <alpha_i, alpha_j^vee>``, coweights
in the fundamental-coweight basis, roots in the simple-root basis). Nothing
imports heckemod, so a fault in its root systems, Weyl enumeration or ring
arithmetic cannot cancel out of a check made with these functions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def cartan(type_name: str) -> tuple[tuple[int, ...], ...]:
    family, n = type_name[0].upper(), int(type_name[1:])
    a = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]
    if family == "B":
        a[n - 2][n - 1] = -2  # alpha_n short
    elif family == "C":
        a[n - 1][n - 2] = -2  # alpha_n long
    elif family == "G":
        a[1][0] = -3  # alpha_1 short, alpha_2 long
    elif family != "A":
        raise ValueError(f"no oracle data for {type_name}")
    return tuple(tuple(row) for row in a)


def short_simple(type_name: str) -> tuple[bool, ...]:
    """Which simple roots are short; simply-laced types have none."""
    family, n = type_name[0].upper(), int(type_name[1:])
    if family == "B":
        return (False,) * (n - 1) + (True,)
    if family == "C":
        return (True,) * (n - 1) + (False,)
    if family == "G":
        return (True, False)
    return (False,) * n


def characters(type_name: str) -> dict[str, tuple[bool, ...]]:
    """Each linear character as the simple roots on which T_i acts by -1."""
    short = short_simple(type_name)
    out = {"triv": (False,) * len(short), "sign": (True,) * len(short)}
    if any(short):
        out["neg-long"] = tuple(not s for s in short)
        out["neg-short"] = short
    return out


def degrees(type_name: str) -> tuple[int, ...]:
    family, n = type_name[0].upper(), int(type_name[1:])
    if family == "A":
        return tuple(range(2, n + 2))
    if family in "BC":
        return tuple(range(2, 2 * n + 1, 2))
    if family == "G":
        return (2, 6)
    raise ValueError(f"no degrees for {type_name}")


def reflect(a, i: int, mu: tuple[int, ...]) -> tuple[int, ...]:
    """s_i(mu) = mu - <alpha_i, mu> alpha_i^vee; alpha_i^vee is column i of A."""
    p = mu[i]
    return tuple(m - p * a[k][i] for k, m in enumerate(mu))


def group_walk(type_name: str, mu: tuple[int, ...], neg_at: tuple[bool, ...] | None = None):
    """(w(mu), eps(w), length, left descents) for every Weyl element w.

    Elements are told apart by their image of the regular coweight (1,...,1)
    and reached by left multiplication, so w(mu) is a chain of simple
    reflections. ``eps(w)`` multiplies -1 for each letter in ``neg_at``.
    """
    a = cartan(type_name)
    n = len(a)
    neg_at = neg_at or (False,) * n
    start = (1,) * n
    seen = {start: (tuple(mu), 1, 0)}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            image, sign, length = seen[x]
            for i in range(n):
                y = reflect(a, i, x)
                if y not in seen:
                    seen[y] = (reflect(a, i, image), -sign if neg_at[i] else sign, length + 1)
                    nxt.append(y)
        frontier = nxt
    return [
        (image, sign, length, tuple(i for i in range(n) if x[i] < 0))
        for x, (image, sign, length) in seen.items()
    ]


def positive_roots(type_name: str):
    """Positive roots (simple-root coordinates) with their coroots and shortness."""
    a = cartan(type_name)
    n = len(a)
    short = short_simple(type_name)
    simple = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    found = {simple[i]: (tuple(a[k][i] for k in range(n)), short[i]) for i in range(n)}
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        coroot, is_short = found[beta]
        for i in range(n):
            pairing = sum(beta[j] * a[j][i] for j in range(n))
            image = tuple(b - (pairing if k == i else 0) for k, b in enumerate(beta))
            if min(image) >= 0 and image not in found:
                found[image] = (reflect(a, i, coroot), is_short)
                frontier.append(image)
    return found


def rho_eps(type_name: str, neg_at: tuple[bool, ...]) -> tuple[int, ...]:
    """Half the sum of the positive coroots whose class acts by -1."""
    short = short_simple(type_name)
    neg_short = {s for s, neg in zip(short, neg_at) if neg}
    total = [0] * len(short)
    for coroot, is_short in positive_roots(type_name).values():
        if is_short in neg_short:
            total = [t + c for t, c in zip(total, coroot)]
    if any(t % 2 for t in total):
        raise ValueError(f"rho_eps not integral on {type_name}")
    return tuple(t // 2 for t in total)


def signed_orbit_sum(type_name: str, lam, neg_at) -> dict[tuple[int, ...], int]:
    """sum_w eps(w) pi^{w(lam + rho_eps)}: the operator-sum side at q = 1."""
    shift = rho_eps(type_name, neg_at)
    start = tuple(x + y for x, y in zip(lam, shift))
    return _collect((image, sign) for image, sign, _, _ in group_walk(type_name, start, neg_at))


def orbit_sum(type_name: str, lam) -> dict[tuple[int, ...], int]:
    """sum_w pi^{w lam} over all of W, stabilizer multiplicity included."""
    return _collect((image, 1) for image, _, _, _ in group_walk(type_name, tuple(lam)))


def _collect(terms) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = {}
    for mu, c in terms:
        out[mu] = out.get(mu, 0) + c
    return {mu: c for mu, c in out.items() if c}


def weyl_dimension(type_name: str, lam) -> int:
    """prod_{a > 0} <a, lam + rho> / <a, rho>, with rho = (1, ..., 1)."""
    out = Fraction(1)
    for beta in positive_roots(type_name):
        out *= Fraction(sum(b * (x + 1) for b, x in zip(beta, lam)), sum(beta))
    if out.denominator != 1:
        raise ValueError(f"non-integral Weyl dimension for {lam} on {type_name}")
    return int(out)


def poincare(type_name: str) -> dict[int, int]:
    """prod_i (1 - q^{d_i}) / (1 - q) as {exponent: coefficient}."""
    out = {0: 1}
    for d in degrees(type_name):
        nxt: dict[int, int] = {}
        for e, c in out.items():
            for k in range(d):
                nxt[e + k] = nxt.get(e + k, 0) + c
        out = nxt
    return out


def reduced_word_excess(type_name: str) -> int:
    """sum_w (number of reduced words of w - 1)."""
    n = len(cartan(type_name))
    walk = sorted(group_walk(type_name, (1,) * n), key=lambda t: t[2])
    a = cartan(type_name)
    count: dict[tuple[int, ...], int] = {}
    for image, _, length, descents in walk:
        count[image] = 1 if length == 0 else sum(count[reflect(a, i, image)] for i in descents)
    return sum(c - 1 for c in count.values())


def box_size(rank: int, radius: int, cap: int) -> int:
    """Points left in [-radius, radius]^rank after a fixed-stride thinning to at most cap."""
    full = (2 * radius + 1) ** rank
    if full <= cap:
        return full
    stride = -(-full // cap)
    return -(-full // stride)


def box_points(rank: int, radius: int, cap: int) -> list[tuple[int, ...]]:
    """The thinned box itself, lexicographic, for drawing seeded samples."""
    box = list(product(range(-radius, radius + 1), repeat=rank))
    return box if len(box) <= cap else box[:: -(-len(box) // cap)]


def dominant_up_to_height(rank: int, height: int) -> list[tuple[int, ...]]:
    return sorted(p for p in product(range(height + 1), repeat=rank) if sum(p) <= height)
