"""Hecke generator actions, Demazure operators and the alternator operator.

Everything here acts on exact group-ring elements. The generator action on the
module induced from a linear character eps is

    T_{s_i} f  =  eps(T_{s_i}) f^{s_i}  +  (1 - q) G_i(f),
    G_i(f)     =  (f^{s_i} - f) / (1 - pi^{-alpha_i^vee}),

where the division is exact because f - f^{s_i} is always divisible by
1 - pi^{-alpha_i^vee}. The conjugated operator frak_t_i = pi^{rho_eps} T_{s_i}
pi^{-rho_eps} and the Demazure operator

    d_i = (pi^{-alpha_i^vee} - 1)^{-1} (pi^{-alpha_i^vee} - s_i)

satisfy 1 + frak_t_i = (1 - q pi^{alpha_i^vee}) d_i on the -1 classes and
d_i (1 - q pi^{alpha_i^vee}) on the q classes; the verifiers in
:mod:`heckemod.verify` machine-check these identities.

Neither rank-one operator divides: T_{s_i} and d_i f = f + G_i(f) are one call
each into the string-sum kernel :func:`heckemod.algebra.rank_one`, whose module
holds the closed form of G_i and the packed keys it runs on.

The Hecke walk, the sum of the T_w over W, runs on integer-coded
coefficients instead (:mod:`heckemod.algebra`): :func:`level_walk` walks the
parabolic levels at an integer q, each generator one call of
:func:`heckemod.algebra.rank_one_int` with eps(T_{s_i}) and 1 - q taken at q,
so each q-polynomial is one integer and each merge one integer add. Its
input lies in Z[q][P^vee], like every eigenvalue and 1 - q, and it has two
callers:

* :func:`sum_fraktur` walks f at q = 2^B and decodes the result as balanced
  base-2^B digits;
* :func:`heckemod.verify.verify_q_zero_degeneration` walks at q = 0 (its
  control at q = 1), where the integers are the coefficients themselves.

The decode is exact when every coefficient c of the result has
|c| < 2^(B-1), and :func:`walk_bits` picks B from a bound. Let ||g|| be the
sum of the absolute values of all integer coefficients of g. Every support of
the walk lies in the W-orbit hull of its input's points, so |mu[i]| <= P on
it, P = max |<a, x>| over the positive roots a and the input points x. G_i
(pi^mu) has |mu[i]| terms of coefficient +-1, so
||T_{s_i} g|| <= K ||g||, K = max_i ||eps(T_{s_i})|| + 2P, and
||sum_w T_w f|| <= ||f|| sum_w K^{l(w)}. By the level factorization, with
lengths adding, sum_w K^{l(w)} is the product over the levels of the sums of
K^depth over their points. B is the least integer with 2^(B-1) above that
bound. The public :func:`t_act`, :func:`t_word` and :func:`demazure` keep the
q-polynomial kernel ``rank_one``, so the two routes stay independent and the
tests compare them.

The one division left here, by the Weyl denominator's binomials 1 - pi^v,
goes through :func:`heckemod.algebra.divide_by_binomials`, and the products by
binomials 1 - q^k pi^v (the intertwiner's (1 - pi^{a^vee}) T_{s_i}, and in the
tests the Weyl denominator A(pi^{rho}) = pi^{rho} prod_{a>0} (1 - pi^{-a^vee}))
through its inverse :func:`heckemod.algebra.multiply_binomials`. The
alternator-side operator is

    Omega(f) = (-1)^{l(w0)} * A(pi^{-rho} f) / A(pi^{rho}),

with A = sum_w (-1)^{l(w)} w the signed symmetrization. It is computed by
straightening (Brauer-Klimyk / Racah-Speiser; Humphreys, Introduction to Lie
Algebras and Representation Theory, section 24): A(pi^{w nu}) =
(-1)^{l(w)} A(pi^nu), and A(pi^nu) = 0 when nu lies on a wall, so each
monomial pi^mu of f contributes 0 or +-chi_lambda, where lambda + rho is the
dominant conjugate of mu - rho and chi_lambda = A(pi^{lambda+rho}) / A(pi^rho)
is the Weyl character. Omega runs in three parts, one implementation for
every caller:

* the gather, :func:`omega_gather`, straightens each monomial and sums the
  coefficients per lambda into the map {lambda: E_lambda(q)}, with
  Omega(f) = sum_lambda E_lambda chi_lambda. Its caller owns the table of
  straightenings, so a caller that gathers a whole box of inputs
  (:func:`heckemod.formulas.alternator_gathers`) straightens each distinct
  monomial once; no table outlives its caller;
* the accumulation, :func:`omega_dominant`, forms sum_lambda E_lambda
  chi_lambda on the dominant weights at an integer q, each E_lambda one
  integer (q-linearity: straightening ignores q, and the multiplicities are
  integers);
* the orbit fill, :func:`heckemod.algebra.orbit_fill`, puts each dominant
  value at every point of its orbit, one shared value per orbit, straight
  into packed keys: the ring layer memoizes the packed keys of each orbit
  per root system (orbits, not characters).

:func:`omega_apply` accumulates at q = 2^B and decodes only the dominant map
before the fill. The decode is exact because every integer coefficient of
sum_lambda E_lambda chi_lambda, sum_lambda E_lambda,k m_lambda(nu) at q^k
pi^nu, is at most :func:`omega_bound` = sum_lambda ||E_lambda||_inf
maxmult(chi_lambda) in size, and B is the least integer with 2^(B-1) above
it. The alternator side of :mod:`heckemod.formulas` fills the integers
instead and multiplies them by D_(-1) at the same q, so the identity's two
sides meet as integer maps. The dominant part of chi_lambda is memoized per
(root system, lambda) and filled by Freudenthal's multiplicity formula on the
dual root system (Humphreys, section 22.3; Moody-Patera, Bull. AMS 6 (1982)):
the roots are the positive coroots, rho = (1, ..., 1), and the W-invariant
form is (x, y) = sum_{a>0} <a, x><a, y>. The form's Gram matrix, the
coroot strings with their pairings and 2rho are computed once per root
system, and the dominant conjugate of each string point once per fill.
Filling the memo walks no Weyl group, runs no alternator and divides no ring
element; each multiplicity is an exact integer quotient. The memo holds
plain integers, so no result depends on whether it is cold or warm;
maxmult(chi_lambda) is read off it.
The negative control that drops the global (-1)^{l(w0)} lives in
:func:`heckemod.verify.verify_operator_identity`.

:func:`alternator`, the signed sum over W written out element by element,
and :func:`divide_by_weyl_denominator` stay as the reference routes: the tests
check the memo and :func:`omega_apply` against the literal quotient
A(pi^{lambda+rho}) / A(pi^rho).

The unsigned sum over W needs no walk of its own. On A1,
d(f) = (f^s - pi^{-a} f) / (1 - pi^{-a}) = f / (1 - pi^a) + s(f) / (1 - pi^{-a}),
so :func:`demazure_word` along a reduced word for w0 gives
d_{w0} f = sum_w w(f / prod_{a>0} (1 - pi^{a^vee})) (the Demazure character
formula), which is how :func:`heckemod.formulas.macdonald` forms Macdonald's
spherical sum.
"""

from __future__ import annotations

from functools import cache, lru_cache
from operator import mul, sub

from .algebra import (Q_ONE, GroupRingElem, QDict, decode_digits, decode_q, divide_by_binomials, encode_q, grsum,
                      int_sum, multiply_binomials, orbit_element, q_value, rank_one, rank_one_int, shift_keys, weyl_act)
from .characters import HeckeCharacter
from .errors import NotDivisible
from .root_system import (
    Coweight,
    RootSystem,
    add_coweights,
    dominant_conjugate,
    negate_coweight,
    parabolic_levels,
    require_reduced,
    require_walkable,
    rho,
    weyl_group,
)

_ONE_MINUS_Q: QDict = {0: 1, 1: -1}


def t_act(eps: HeckeCharacter, i: int, f: GroupRingElem) -> GroupRingElem:
    """Left action of the generator T_{s_i} on f in the module of eps:
    eps(T_{s_i}) f^{s_i} + (1 - q) G_i(f), in one pass over the monomials of f
    with no division (module docstring)."""
    return rank_one(eps.root_system, i, f, True, eps.eigenvalues[i], _ONE_MINUS_Q)


def t_word(eps: HeckeCharacter, word, f: GroupRingElem) -> GroupRingElem:
    """Compose T along a reduced word, rightmost letter acting first.

    The result is independent of the chosen reduced word (braid
    well-definedness, verified separately); a non-reduced word raises
    :class:`NonReducedWord` rather than silently computing something else.
    """
    for i in reversed(require_reduced(eps.root_system, word)):
        f = t_act(eps, i, f)
    return f


def demazure(rs: RootSystem, i: int, f: GroupRingElem) -> GroupRingElem:
    """Demazure operator d_i f = f + G_i(f), in one pass over the monomials of
    f with no division (module docstring)."""
    return rank_one(rs, i, f, False, Q_ONE, Q_ONE)


def demazure_word(rs: RootSystem, word, f: GroupRingElem) -> GroupRingElem:
    """Compose d along a reduced word (rightmost first)."""
    for i in reversed(require_reduced(rs, word)):
        f = demazure(rs, i, f)
    return f


def fraktur_t(eps: HeckeCharacter, i: int, f: GroupRingElem) -> GroupRingElem:
    """Conjugated generator pi^{rho_eps} T_{s_i} pi^{-rho_eps}."""
    shift = eps.rho_eps
    inner = t_act(eps, i, f.translated(negate_coweight(shift)))
    return inner.translated(shift)


def intertwiner_op(eps: HeckeCharacter, i: int, f: GroupRingElem) -> GroupRingElem:
    """Normalized rank-one intertwiner (1-q^-1) pi^{a^vee} + q^-1 (1-pi^{a^vee}) T_{s_i}.

    On the module of eps this acts diagonally: it equals c * f^{s_i} with
    c = 1 - q^-1 pi^{a^vee} when eps(T_{s_i}) = q and c = pi^{a^vee} - q^-1
    when eps(T_{s_i}) = -1.
    """
    rs = eps.root_system
    av = rs.simple_coroots[i]
    tf = t_act(eps, i, f)
    first = f.translated(av).scale_q({0: 1, -1: -1})
    second = multiply_binomials(tf, [av], 0).scale_q({-1: 1})
    return first + second


def level_walk(eps: HeckeCharacter, q: int, f: GroupRingElem) -> dict[int, int]:
    """Sum of pi^{rho_eps} T_w pi^{-rho_eps} over the whole Weyl group at the
    integer q, applied to f in Z[q][P^vee] and returned as an integer map
    (:func:`heckemod.algebra.encode_q`): each generator is
    :func:`heckemod.algebra.rank_one_int` with eps(T_{s_i}) and 1 - q taken at q.

    The sum factors as the product of the sums over the parabolic levels of
    :func:`heckemod.root_system.parabolic_levels`, applied innermost level
    first. Each level is an orbit of a fundamental coweight, walked by dynamic
    programming: the value at s_i x is T_{s_i} of the value at its parent x.
    One generator application per non-identity level point: 9 on B3 instead
    of |W| - 1 = 47, 33 on F4. The walk runs between one translation by
    -rho_eps in and one by +rho_eps out. Above the size cap it raises
    ``WeylGroupTooLarge``; for the walk the cap stands in for a budget on the
    support (F4 sign at (1, 1, 1, 1): 219,529 terms).
    """
    rs = eps.root_system
    require_walkable(rs)
    scalars = [q_value(v, q) for v in eps.eigenvalues]
    along = 1 - q
    coeffs = shift_keys(rs.rank, encode_q(f, q), negate_coweight(eps.rho_eps))
    for level in reversed(parabolic_levels(rs)):
        values = [coeffs]
        for i, parent in level:
            values.append(rank_one_int(rs, i, values[parent], scalars[i], along))
        coeffs = int_sum(values)
    return shift_keys(rs.rank, coeffs, eps.rho_eps)


def walk_bound(eps: HeckeCharacter, f: GroupRingElem) -> int:
    """||f|| * sum_w K^{l(w)}, which bounds every coefficient of sum_w T_w f
    (module docstring). ||.|| is the sum of the absolute values of all
    integer coefficients, K = max_i ||eps(T_{s_i})|| + 2P, and P = max |<a, x>|
    over the positive roots a and the points x of pi^{-rho_eps} f, where the
    walk starts."""
    rs = eps.root_system
    coeffs = f.coeffs
    points = [tuple(map(sub, mu, eps.rho_eps)) for mu in coeffs]
    big_p = max((abs(sum(map(mul, a, x))) for a in rs.positive_roots for x in points), default=0)
    k = max(sum(map(abs, v.values())) for v in eps.eigenvalues) + 2 * big_p
    total = sum(abs(c) for qd in coeffs.values() for c in qd.values())
    for level in parabolic_levels(rs):
        depths = [0]
        for _, parent in level:
            depths.append(depths[parent] + 1)
        total *= sum(k ** d for d in depths)
    return total


def walk_bits(eps: HeckeCharacter, f: GroupRingElem) -> int:
    """The least B with 2^(B-1) > :func:`walk_bound` (eps, f)."""
    return walk_bound(eps, f).bit_length() + 1


def sum_fraktur(eps: HeckeCharacter, f: GroupRingElem) -> GroupRingElem:
    """Sum of frak_t_w = pi^{rho_eps} T_w pi^{-rho_eps} over the whole Weyl
    group, applied to f in Z[q][P^vee] (multiply Laurent input by q^k first):
    :func:`level_walk` at q = 2^B, B from :func:`walk_bits`, then one
    balanced base-2^B decode (module docstring)."""
    bits = walk_bits(eps, f)
    return decode_q(f.rank, level_walk(eps, 1 << bits, f), bits)


def alternator(rs: RootSystem, f: GroupRingElem) -> GroupRingElem:
    """Signed symmetrization sum_w (-1)^{l(w)} w(f)."""
    g = weyl_group(rs)
    return grsum(
        rs.rank,
        (weyl_act(w, f) if w.length % 2 == 0 else -weyl_act(w, f) for w in g.elements),
    )


def divide_by_weyl_denominator(rs: RootSystem, f: GroupRingElem) -> GroupRingElem:
    out = divide_by_binomials(f, [negate_coweight(v) for v in rs.positive_coroots], 0)
    return out.translated(negate_coweight(rho(rs)))


def _straighten(rs: RootSystem, mu: Coweight) -> tuple[int, Coweight] | None:
    """(sign, lambda) with Omega(pi^mu) = sign * chi_lambda and lambda
    dominant, or None when mu - rho lies on a wall and Omega(pi^mu) = 0:
    A(pi^{mu-rho}) = (-1)^steps A(pi^{lambda+rho}), times Omega's global
    (-1)^{l(w0)}."""
    nu, steps = dominant_conjugate(rs, tuple(c - 1 for c in mu))  # rho = (1, ..., 1)
    if 0 in nu:
        return None
    # l(w0) is the number of positive roots.
    return -1 if (steps + len(rs.positive_roots)) % 2 else 1, tuple(c - 1 for c in nu)


@cache
def _freudenthal_constants(rs: RootSystem):
    """What every Freudenthal fill on rs shares: the Gram matrix of the form
    (x, y) = sum_{a>0} <a, x><a, y>, the coroot strings (a, ga, (a, a)) with
    ga[i] = (omega_i^vee, a), so that (x, a) = x . ga, and 2rho = the sum of
    the positive roots."""
    roots = rs.positive_roots
    gram = tuple(tuple(sum(r[i] * r[j] for r in roots) for j in range(rs.rank)) for i in range(rs.rank))
    strings = []
    for a in rs.positive_coroots:
        ga = tuple(sum(map(mul, row, a)) for row in gram)
        strings.append((a, ga, sum(map(mul, a, ga))))
    return gram, tuple(strings), tuple(map(sum, zip(*roots)))


@lru_cache(maxsize=None)
def _dominant_character(rs: RootSystem, lam: Coweight) -> tuple[tuple[Coweight, int], ...]:
    """The dominant weights of chi_lambda with their multiplicities, by
    Freudenthal's formula on the dual root system (module docstring):

        ((lambda+rho, lambda+rho) - (mu+rho, mu+rho)) m(mu)
            = 2 sum_{a>0} sum_{k>=1} (mu + k a, a) m(mu + k a),

    with a over the positive coroots. The dominant weights are those reached
    from lambda by subtracting positive coroots while staying dominant. They
    are filled in decreasing order of <2rho, mu>, so each m(mu + k a) is
    already known, read at the dominant conjugate (computed once per string
    point within the fill); an a-string of weights is unbroken, so it stops at
    its first non-weight. Each quotient is an exact integer; a remainder
    raises :class:`NotDivisible`."""
    gram, strings, two_rho = _freudenthal_constants(rs)

    def norm(x: Coweight) -> int:
        """(x, x) through the Gram matrix."""
        return sum(c * sum(map(mul, row, x)) for c, row in zip(x, gram))

    weights, seen = [lam], {lam}
    for nu in weights:
        for a, _, _ in strings:
            below = tuple(map(sub, nu, a))
            if min(below) >= 0 and below not in seen:
                seen.add(below)
                weights.append(below)
    weights.sort(key=lambda nu: sum(map(mul, two_rho, nu)), reverse=True)

    one = rho(rs)
    top_norm = norm(add_coweights(lam, one))
    mult = {lam: 1}
    conjugates: dict[Coweight, Coweight] = {}
    for mu in weights[1:]:
        total = 0
        for a, ga, aa in strings:
            nu = add_coweights(mu, a)
            pairing = sum(map(mul, nu, ga))
            while True:
                dom = conjugates.get(nu)
                if dom is None:
                    dom = conjugates[nu] = dominant_conjugate(rs, nu)[0]
                m = mult.get(dom, 0)
                if not m:
                    break
                total += pairing * m
                nu = add_coweights(nu, a)
                pairing += aa
        m, rem = divmod(2 * total, top_norm - norm(add_coweights(mu, one)))
        if rem:
            raise NotDivisible(f"Freudenthal quotient at {mu} in chi_{lam} is not an integer")
        mult[mu] = m
    return tuple(sorted(mult.items()))


def omega_gather(rs: RootSystem, terms, straightened: dict) -> dict[Coweight, QDict]:
    """Omega's gather of f = sum c pi^mu, given as its (mu, c) pairs ``terms``:
    the map {lambda: E_lambda} with Omega(f) = sum_lambda E_lambda chi_lambda,
    each monomial straightened to 0 or +-chi_lambda and the global
    (-1)^{l(w0)} applied (module docstring). No E_lambda is 0.

    ``straightened`` is the caller's table {mu: (sign, lambda) or None}:
    each mu not in it is straightened once and added, so callers that gather
    many inputs share their straightenings."""
    by_lambda: dict[Coweight, QDict] = {}
    for mu, qd in terms:
        straight = straightened.get(mu, False)
        if straight is False:
            straight = straightened[mu] = _straighten(rs, mu)
        if straight is None:
            continue
        sign, lam = straight
        acc = by_lambda.get(lam)
        if acc is None:
            by_lambda[lam] = {e: sign * c for e, c in qd.items()}
        else:
            for e, c in qd.items():
                acc[e] = acc.get(e, 0) + sign * c
    nonzero = ((lam, {e: c for e, c in acc.items() if c}) for lam, acc in by_lambda.items())
    return {lam: c for lam, c in nonzero if c}


def omega_bound(rs: RootSystem, gathered: dict[Coweight, QDict]) -> int:
    """sum_lambda ||E_lambda||_inf maxmult(chi_lambda), which bounds every
    integer coefficient of sum_lambda E_lambda chi_lambda: its coefficient of
    q^k pi^nu is sum_lambda E_lambda,k m_lambda(nu)."""
    return sum(max(map(abs, c.values())) * max(m for _, m in _dominant_character(rs, lam))
               for lam, c in gathered.items())


def omega_dominant(rs: RootSystem, gathered: dict[Coweight, QDict], q: int) -> dict[Coweight, int]:
    """Omega's accumulation at the integer q: sum_lambda E_lambda(q) chi_lambda
    on the dominant weights, each E_lambda one integer (no negative power of q)."""
    dominant: dict[Coweight, int] = {}
    get = dominant.get
    for lam, c in gathered.items():
        e = q_value(c, q)
        for nu, m in _dominant_character(rs, lam):
            dominant[nu] = get(nu, 0) + m * e
    return dominant


def omega_apply(rs: RootSystem, f: GroupRingElem) -> GroupRingElem:
    """Apply the alternator-quotient operator Omega to f by straightening
    (module docstring); equal to the full alternator divided by A(pi^rho).

    It runs in three parts: :func:`omega_gather` gathers f into {lambda:
    E_lambda}; :func:`omega_dominant` accumulates sum_lambda E_lambda
    chi_lambda on the dominant weights at q = 2^B, one integer per weight,
    with 2^(B-1) above :func:`omega_bound`; the dominant map is decoded
    (:func:`heckemod.algebra.decode_digits`, exact under that bound) and
    :func:`heckemod.algebra.orbit_element` puts each decoded map at every
    point of its orbit.
    Laurent input is multiplied by q^k first, for q^-k the lowest power of q
    in the E_lambda, and the decoded maps by q^-k: Omega is q-linear."""
    gathered = omega_gather(rs, f.coeffs.items(), {})
    k = -min((min(c) for c in gathered.values()), default=0)
    if k > 0:
        gathered = {lam: {e + k: v for e, v in c.items()} for lam, c in gathered.items()}
    bits = omega_bound(rs, gathered).bit_length() + 1
    dominant = decode_digits(omega_dominant(rs, gathered, 1 << bits), bits)
    if k > 0:
        dominant = {nu: {e - k: v for e, v in c.items()} for nu, c in dominant.items()}
    return orbit_element(rs, dominant)
