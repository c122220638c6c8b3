"""Independent oracle for Omega and the operators below it, as sympy rational functions.

Nothing here uses heckemod's Weyl groups, root data, ring arithmetic or exact
division. The Weyl action, the positive coroots and the sign of each element
come from the literal Cartan matrix; sympy forms

    (-1)^{l(w0)} sum_w (-1)^{l(w)} w(x^{-rho} f) / (x^{rho} prod_{a>0} (1 - x^{-a^vee}))

and cancels it, and the result must equal ``omega_apply`` on fixed random
Laurent polynomials in q and pi. Since ``omega_apply`` straightens each
exponent into the dominant chamber, the inputs also include exponents far
outside it, exponents on walls (which contribute 0) and conjugate monomials
whose signs cancel or add. The same way, with the simple reflections
read off the Cartan matrix, sympy checks the generator action ``t_act`` (the
eigenvalue -1 or q of each character is the one input taken from heckemod),
the Demazure operator and the binomial division ``divide_by_binomials`` by
1 - q^k x^v, which must raise ``NotDivisible`` exactly when the cancelled
quotient keeps a denominator other than a monomial. Last, sympy forms Macdonald's spherical
sum sum_w w(x^lambda prod_{a>0} (1 - q x^{a^vee}) / (1 - x^{a^vee})) literally
over the same Weyl matrices, clears it of the denominator prod over all
coroots of (1 - x^b), and ``macdonald``, which composes Demazure operators
along w0 instead, must give the same numerator.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from heckemod.algebra import GroupRingElem, divide_by_binomials  # noqa: E402
from heckemod.characters import characters  # noqa: E402
from heckemod.errors import NotDivisible  # noqa: E402
from heckemod.formulas import macdonald  # noqa: E402
from heckemod.operators import demazure, omega_apply, t_act  # noqa: E402
from heckemod.root_system import build_root_system  # noqa: E402

# A[i][j] = <alpha_i, alpha_j^vee>: column j is the simple coroot alpha_j^vee
# in fundamental-coweight coordinates.
CARTAN = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "G2": [[2, -1], [-3, 2]],
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


def random_terms(rng, rank, spread=2):
    terms = {}
    for _ in range(3):
        key = (tuple(rng.randint(-spread, spread) for _ in range(rank)), rng.randint(-1, 1))
        terms[key] = rng.choice([-3, -2, -1, 1, 2, 3])
    return terms


def assert_omega_matches_oracle(name, terms):
    """omega_apply on the element of ``terms`` equals the cancelled sympy quotient."""
    cartan = CARTAN[name]
    rs = build_root_system(name)
    assert [list(row) for row in rs.cartan_matrix] == cartan
    xs, q = symbols_for(name)
    got = omega_apply(rs, element_of(terms, rs.rank))
    expected = sympy.cancel(oracle_omega(cartan, terms, xs, q))
    assert sympy.expand(expected - to_sympy(got, xs, q)) == 0, (name, terms)
    return got


@pytest.mark.parametrize("name", sorted(CARTAN))
def test_omega_matches_sympy_alternator_quotient(name):
    # Spread 6 puts exponents far outside the dominant chamber, which
    # straightening reflects many times.
    rng = random.Random(f"omega-{name}")
    for spread in [2] * 4 + [6] * 4:
        assert_omega_matches_oracle(name, random_terms(rng, len(CARTAN[name]), spread))


def orbit_with_signs(cartan, nu):
    """{w nu: det w} over the Weyl group; for regular nu each point has one w."""
    out = {}
    for w in weyl_matrices(cartan):
        out.setdefault(tuple(int(c) for c in w * sympy.Matrix(nu)), int(w.det()))
    return out


def plus_rho(nu):
    return tuple(c + 1 for c in nu)


@pytest.mark.parametrize("name", sorted(CARTAN))
def test_omega_vanishes_on_walls(name):
    # mu - rho = w x with x dominant and on a wall, so A(pi^{mu - rho}) = 0:
    # exponents on a wall and their conjugates off the dominant chamber.
    cartan = CARTAN[name]
    rank = len(cartan)
    rng = random.Random(f"omega-walls-{name}")
    for _ in range(3):
        x = [rng.randint(0, 3) for _ in range(rank)]
        x[rng.randrange(rank)] = 0
        orbit = sorted(orbit_with_signs(cartan, x))
        picks = rng.sample(orbit, min(3, len(orbit)))
        terms = {(plus_rho(nu), rng.randint(-1, 1)): rng.choice([-2, 1, 3]) for nu in picks}
        assert not assert_omega_matches_oracle(name, terms), terms
        # Beside one regular monomial the wall terms add nothing.
        terms[(plus_rho(tuple(rng.randint(1, 3) for _ in range(rank))), 0)] = 1
        assert assert_omega_matches_oracle(name, terms), terms


@pytest.mark.parametrize("name", sorted(CARTAN))
def test_omega_conjugate_monomials_cancel_or_add(name):
    # pi^{w x + rho} and pi^{v x + rho}, x regular dominant, both straighten to
    # lambda = x - rho, with signs det w and det v.
    cartan = CARTAN[name]
    rank = len(cartan)
    rng = random.Random(f"omega-cancel-{name}")
    for _ in range(3):
        x = tuple(rng.randint(1, 3) for _ in range(rank))
        orbit = orbit_with_signs(cartan, x)
        odd = sorted(nu for nu, sign in orbit.items() if sign < 0)
        even = sorted(nu for nu, sign in orbit.items() if sign > 0)
        a, b = rng.choice(odd), rng.choice(even)
        e = rng.randint(-1, 1)
        cancelling = {(plus_rho(a), e): 2, (plus_rho(b), e): 2}
        assert not assert_omega_matches_oracle(name, cancelling), cancelling
        partial = {(plus_rho(a), e): 2, (plus_rho(b), e): 3, (plus_rho(b), e + 1): -1}
        assert assert_omega_matches_oracle(name, partial), partial
        adding = {(plus_rho(b), e): 1, (plus_rho(rng.choice(even)), e + 1): 1}
        assert assert_omega_matches_oracle(name, adding), adding


def element_of(terms, rank):
    f = GroupRingElem.zero(rank)
    for (mu, e), c in terms.items():
        f = f + GroupRingElem.monomial(mu, {e: c})
    return f


def terms_to_sympy(terms, xs, q):
    return sympy.Add(*(c * q**e * monomial(xs, mu) for (mu, e), c in terms.items()))


def simple_coroot(cartan, i):
    return [row[i] for row in cartan]


def reflected(cartan, i, terms):
    """f^{s_i}, with s_i(mu) = mu - mu[i] alpha_i^vee."""
    col = simple_coroot(cartan, i)
    return {(tuple(m - mu[i] * c for m, c in zip(mu, col)), e): c for (mu, e), c in terms.items()}


def symbols_for(name):
    return sympy.symbols(f"x1:{len(CARTAN[name]) + 1}"), sympy.Symbol("q")


@pytest.mark.parametrize("name", sorted(CARTAN))
def test_t_act_and_demazure_match_sympy(name):
    cartan = CARTAN[name]
    rs = build_root_system(name)
    xs, q = symbols_for(name)
    rng = random.Random(f"rank-one-{name}")
    inputs = [random_terms(rng, rs.rank) for _ in range(3)]
    for i in range(rs.rank):
        x_neg = monomial(xs, [-c for c in simple_coroot(cartan, i)])
        for terms in inputs:
            f, fs = terms_to_sympy(terms, xs, q), terms_to_sympy(reflected(cartan, i, terms), xs, q)
            got = demazure(rs, i, element_of(terms, rs.rank))
            expected = sympy.cancel((x_neg * f - fs) / (x_neg - 1))
            assert sympy.expand(expected - to_sympy(got, xs, q)) == 0, ("demazure", name, i, terms)
            for eps in characters(rs):
                eigenvalue = to_sympy(GroupRingElem.monomial((0,) * rs.rank, eps.eigenvalues[i]), xs, q)
                assert eigenvalue in (q, -1)
                got = t_act(eps, i, element_of(terms, rs.rank))
                expected = sympy.cancel(eigenvalue * fs + (1 - q) * (fs - f) / (1 - x_neg))
                assert sympy.expand(expected - to_sympy(got, xs, q)) == 0, (eps.name, i, terms)


@pytest.mark.parametrize("name", sorted(CARTAN))
def test_divide_by_binomial_matches_sympy(name):
    cartan = CARTAN[name]
    rank = len(cartan)
    xs, q = symbols_for(name)
    rng = random.Random(f"binomial-{name}")
    columns = [simple_coroot(cartan, i) for i in range(rank)]
    exponents = columns + [[-c for c in col] for col in columns] + [[sum(r) for r in cartan]]
    seen = {(k, branch): 0 for k in (0, -1, 1) for branch in ("divisible", "not divisible")}
    for k in (0, -1, 1):
        for v in map(tuple, exponents):
            binomial = 1 - q**k * monomial(xs, v)
            for _ in range(3):
                g = random_terms(rng, rank)
                # f = g (1 - q^k pi^v), multiplied out by hand
                product = dict(g)
                for (mu, e), c in g.items():
                    key = (tuple(m + d for m, d in zip(mu, v)), e + k)
                    product[key] = product.get(key, 0) - c
                for terms in ({key: c for key, c in product.items() if c}, random_terms(rng, rank)):
                    quotient = sympy.cancel(terms_to_sympy(terms, xs, q) / binomial)
                    _, den = sympy.fraction(quotient)
                    f = element_of(terms, rank)
                    if sympy.Poly(den, *xs, q).is_monomial:
                        seen[k, "divisible"] += 1
                        got = divide_by_binomials(f, [v], k)
                        assert sympy.expand(quotient - to_sympy(got, xs, q)) == 0, (name, k, v, terms)
                    else:
                        seen[k, "not divisible"] += 1
                        with pytest.raises(NotDivisible):
                            divide_by_binomials(f, [v], k)
    assert min(seen.values()) > 0, seen


def cleared_macdonald(cartan, lam, xs, q):
    """sum_w w(x^lambda prod_{a>0} (1 - q x^{a^vee}) / (1 - x^{a^vee})), the
    literal sum over the Weyl matrices, as (numerator, denominator, shift):
    the sum times x^shift is numerator / denominator, both sympy polynomials.

    The denominator is the product of (1 - x^b) over all coroots b. Each
    term's own denominator factors are struck from that list, which fails
    unless w sends the positive coroots to coroots. A binomial 1 - c x^b is
    written x^{-b_-} (x^{b_-} - c x^{b + b_-}), b_- the negative part of b, so
    every term and the denominator carry the same x^{-sum_b b_-}, which is
    left out; x^shift, the least monomial that clears the negative
    coordinates of W lambda, clears those of x^{w lambda}.
    """
    gens = (*xs, q)
    group = weyl_matrices(cartan)
    pos = positive_coroots(cartan, group)
    coroots = pos + [tuple(-c for c in a) for a in pos]

    def binomial(b, c):
        low = [max(0, -e) for e in b]
        return sympy.Poly(monomial(xs, low) - c * monomial(xs, [e + m for e, m in zip(b, low)]), *gens)

    orbit = [list(w * sympy.Matrix(lam)) for w in group]
    shift = [max(0, -min(column)) for column in zip(*orbit)]
    numerator = sympy.Poly(0, *gens)
    for w, w_lam in zip(group, orbit):
        images = [tuple(w * sympy.Matrix(a)) for a in pos]
        cofactor = list(coroots)
        for b in images:
            cofactor.remove(b)
        term = sympy.Poly(monomial(xs, [e + s for e, s in zip(w_lam, shift)]), *gens)
        for b in images:
            term *= binomial(b, q)
        for b in cofactor:
            term *= binomial(b, 1)
        numerator += term
    denominator = sympy.Poly(1, *gens)
    for b in coroots:
        denominator *= binomial(b, 1)
    return numerator, denominator, shift


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_macdonald_matches_sympy_w_sum(name):
    cartan = CARTAN[name]
    rs = build_root_system(name)
    assert [list(row) for row in rs.cartan_matrix] == cartan
    xs, q = symbols_for(name)
    lams = [(a, b) for a in range(3) for b in range(3 - a)]  # dominant, height up to 2
    for lam in lams:
        # Every exponent of the sum lies in the convex hull of W lambda, so
        # the shift clears its negative coordinates too.
        numerator, denominator, shift = cleared_macdonald(cartan, lam, xs, q)
        got = sympy.Poly(monomial(xs, shift) * to_sympy(macdonald(rs, lam), xs, q), *xs, q)
        assert got * denominator == numerator, (name, lam)
