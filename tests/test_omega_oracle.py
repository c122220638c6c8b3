"""Independent oracle for Omega: the alternator quotient as a sympy rational function.

Nothing here uses heckemod's Weyl groups, root data, ring arithmetic or exact
division. The Weyl action, the positive coroots and the sign of each element
come from the literal Cartan matrix; sympy forms

    (-1)^{l(w0)} sum_w (-1)^{l(w)} w(x^{-rho} f) / (x^{rho} prod_{a>0} (1 - x^{-a^vee}))

and cancels it, and the result must equal ``omega_apply`` on fixed random
Laurent polynomials in q and pi.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from heckemod.algebra import GroupRingElem  # noqa: E402
from heckemod.operators import omega_apply  # noqa: E402
from heckemod.root_system import build_root_system  # noqa: E402

# A[i][j] = <alpha_i, alpha_j^vee>: column j is the simple coroot alpha_j^vee
# in fundamental-coweight coordinates.
CARTAN = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -2], [-1, 2]],
}


def weyl_matrices(cartan):
    """All Weyl elements as integer matrices on coweights, by closure under the s_i."""
    n = len(cartan)
    gens = []
    for i in range(n):
        # s_i(mu) = mu - <alpha_i, mu> alpha_i^vee, and <alpha_i, mu> = mu[i].
        m = sympy.eye(n)
        for k in range(n):
            m[k, i] -= cartan[k][i]
        gens.append(sympy.ImmutableMatrix(m))
    seen = {sympy.ImmutableMatrix(sympy.eye(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                ws = sympy.ImmutableMatrix(w * s)
                if ws not in seen:
                    seen.add(ws)
                    nxt.append(ws)
        frontier = nxt
    return list(seen)


def positive_coroots(cartan, group):
    """Coroots are the W-orbit of the simple coroots; the positive ones have
    non-negative coordinates in the simple-coroot basis."""
    a = sympy.Matrix(cartan)
    n = len(cartan)
    out = set()
    for w in group:
        for j in range(n):
            v = w * a[:, j]
            if all(c >= 0 for c in a.LUsolve(v)):
                out.add(tuple(v))
    return sorted(out)


def monomial(xs, mu):
    return sympy.Mul(*(x**c for x, c in zip(xs, mu)))


def to_sympy(f, xs, q):
    return sympy.Add(*(c * q**e * monomial(xs, mu) for mu, qd in f.coeffs.items() for e, c in qd.items()))


def oracle_omega(cartan, terms, xs, q):
    """terms: {(coweight, q_exp): coefficient}."""
    group = weyl_matrices(cartan)
    pos = positive_coroots(cartan, group)
    rho = tuple(sympy.Rational(sum(col), 2) for col in zip(*pos))
    assert rho == (1,) * len(cartan)
    total = 0
    for w in group:
        for (mu, e), c in terms.items():
            shifted = sympy.Matrix([m - r for m, r in zip(mu, rho)])
            total += w.det() * c * q**e * monomial(xs, w * shifted)
    den = monomial(xs, rho) * sympy.Mul(*(1 - monomial(xs, [-c for c in a]) for a in pos))
    return (-1) ** len(pos) * total / den


def random_terms(rng, rank):
    terms = {}
    for _ in range(3):
        key = (tuple(rng.randint(-2, 2) for _ in range(rank)), rng.randint(-1, 1))
        terms[key] = rng.choice([-3, -2, -1, 1, 2, 3])
    return terms


@pytest.mark.parametrize("name", sorted(CARTAN))
def test_omega_matches_sympy_alternator_quotient(name):
    cartan = CARTAN[name]
    rs = build_root_system(name)
    assert [list(row) for row in rs.cartan_matrix] == cartan
    xs = sympy.symbols(f"x1:{rs.rank + 1}")
    q = sympy.Symbol("q")
    rng = random.Random(f"omega-{name}")
    for _ in range(4):
        terms = random_terms(rng, rs.rank)
        f = GroupRingElem.zero(rs.rank)
        for (mu, e), c in terms.items():
            f = f + GroupRingElem.monomial(mu, {e: c})
        got = omega_apply(rs, f)
        expected = sympy.cancel(oracle_omega(cartan, terms, xs, q))
        assert sympy.expand(expected - to_sympy(got, xs, q)) == 0, (name, terms)
