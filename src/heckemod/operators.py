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

Neither rank-one operator divides. On one monomial G_i is a geometric sum
along the alpha_i^vee-string from mu to s_i mu (Brubaker-Bump-Licata,
arXiv:1111.4230): with a = alpha_i^vee and p = <alpha_i, mu> = mu[i],

    G_i(pi^mu) = - sum_{j=0}^{p-1} pi^{mu - j a}   if p > 0,
                 + sum_{j=1}^{-p}  pi^{mu + j a}   if p < 0,
                   0                               if p = 0.

One private kernel, ``_rank_one``, computes c f^{s_i} + c' G_i(f) or
c f + c' G_i(f) for q-scalars c and c' in one pass over the monomials of f,
and both operators call it:
T_{s_i} f = eps(T_{s_i}) f^{s_i} + (1 - q) G_i(f), and d_i f = f + G_i(f).
It works on the packed keys of :mod:`heckemod.algebra`: mu[i] is a shift and
a mask, s_i mu is x - mu[i] * a for the packed step a of alpha_i^vee, and a
step along the string is one integer add. It checks each s_i mu against the
packing bound; the string points lie between mu and s_i mu, so inside the
W-orbit hull of the input. The root-system layer (``reflect``,
``dominant_conjugate``, ``orbit``, the memo below) stays on tuples;
:func:`omega_apply` unpacks each key once to straighten it and packs the
orbit points it writes.

The one division left here, by the Weyl denominator's binomials 1 - pi^v,
goes through :func:`heckemod.algebra.divide_by_binomials`, and the products by
binomials 1 - q^k pi^v (the Weyl denominator itself, the intertwiner's
(1 - pi^{a^vee}) T_{s_i}) through its inverse
:func:`heckemod.algebra.multiply_binomials`. The alternator-side operator is

    Omega(f) = (-1)^{l(w0)} * A(pi^{-rho} f) / A(pi^{rho}),

with A = sum_w (-1)^{l(w)} w the signed symmetrization. It is computed by
straightening (Brauer-Klimyk / Racah-Speiser; Humphreys, Introduction to Lie
Algebras and Representation Theory, section 24): A(pi^{w nu}) =
(-1)^{l(w)} A(pi^nu), and A(pi^nu) = 0 when nu lies on a wall, so each
monomial pi^mu of f contributes 0 or +-chi_lambda, where lambda + rho is the
dominant conjugate of mu - rho and chi_lambda = A(pi^{lambda+rho}) / A(pi^rho)
is the Weyl character. The coefficients are gathered per lambda and each
character is expanded once. The dominant part of chi_lambda is memoized per
(root system, lambda) and filled by Freudenthal's multiplicity formula on the
dual root system (Humphreys, section 22.3; Moody-Patera, Bull. AMS 6 (1982)):
the roots are the positive coroots, rho = (1, ..., 1), and the W-invariant
form is (x, y) = sum_{a>0} <a, x><a, y>. The fill walks no Weyl group, runs no
alternator and divides no ring element; each multiplicity is an exact integer
quotient. The memo holds plain integers, so no result depends on whether it
is cold or warm. The alternator-side formulas are all built on
:func:`omega_apply`. The negative control that drops the global (-1)^{l(w0)}
lives in :func:`heckemod.verify.verify_operator_identity`.

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

from functools import cache, lru_cache, reduce
from operator import mul, or_, sub

from .algebra import (COORD_BOUND, Q_ONE, VALUE_MASK, GroupRingElem, QDict, add_term, check_key,
                      divide_by_binomials, from_packed, grsum, multiply_binomials, pack, pack_step, packing, qd_add,
                      qd_mul, qd_neg, unpack, weyl_act)
from .characters import HeckeCharacter
from .errors import NotDivisible
from .root_system import (
    Coweight,
    RootSystem,
    add_coweights,
    dominant_conjugate,
    negate_coweight,
    orbit,
    parabolic_levels,
    require_reduced,
    require_walkable,
    rho,
    weyl_group,
)

_ONE_MINUS_Q: QDict = {0: 1, 1: -1}


@cache
def _simple_steps(rs: RootSystem) -> tuple[tuple[int, int, int], ...]:
    """Per simple root i: the bit offset of coordinate i in a packed key, the
    packed step of alpha_i^vee and the guard mask (:mod:`heckemod.algebra`)."""
    layout = packing(rs.rank)
    return tuple((layout.shifts[i], pack_step(a), layout.guard) for i, a in enumerate(rs.simple_coroots))


def s_image(rs: RootSystem, i: int, f: GroupRingElem) -> GroupRingElem:
    """f^{s_i}: relabel exponents by the simple reflection, x - mu[i] * a on
    each packed key x."""
    shift, step, guard = _simple_steps(rs)[i]
    out = {x - (((x >> shift) & VALUE_MASK) - COORD_BOUND) * step: v for x, v in f.packed.items()}
    check_key(reduce(or_, out, 0), guard)
    return from_packed(f.rank, out)


def _rank_one(rs: RootSystem, i: int, f: GroupRingElem, flip: bool, scalar: QDict, along: QDict) -> GroupRingElem:
    """scalar * f^{s_i} (or scalar * f, if not flip) + along * G_i(f), for
    q-scalars scalar and along, in one pass over the monomials of f.

    Per monomial c pi^mu, with p = mu[i] read off its packed key x: c * scalar
    at s_i mu = x - p * a for a = pack_step(alpha_i^vee) (or at mu), and
    c * along, negated when p > 0, at each of the |p| points of G_i(pi^mu)
    (module docstring), one integer add apart. Every map in the output is
    built here, so a point already present is summed into in place. s_i mu
    bounds the string, so checking it covers every point written.
    """
    shift, step, guard = _simple_steps(rs)[i]
    neg_along = qd_neg(along)
    out: dict[int, QDict] = {}
    get = out.get
    reflected = 0
    for x, qd in f.packed.items():
        p = ((x >> shift) & VALUE_MASK) - COORD_BOUND
        y = x - p * step
        reflected |= y
        add_term(out, y if flip else x, qd_mul(qd, scalar))
        if p > 0:
            c, d, point = qd_mul(qd, neg_along), -step, x
        elif p < 0:
            c, d, point = qd_mul(qd, along), step, x + step
        else:
            continue
        for _ in range(abs(p)):
            # add_term(out, point, c), inlined: this runs once per string point.
            tgt = get(point)
            if tgt is None:
                out[point] = c.copy()
            else:
                for e, v in c.items():
                    s = tgt.get(e, 0) + v
                    if s:
                        tgt[e] = s
                    else:
                        del tgt[e]
            point += d
    check_key(reflected, guard)
    return from_packed(f.rank, {k: v for k, v in out.items() if v})


def t_act(eps: HeckeCharacter, i: int, f: GroupRingElem) -> GroupRingElem:
    """Left action of the generator T_{s_i} on f in the module of eps:
    eps(T_{s_i}) f^{s_i} + (1 - q) G_i(f), in one pass over the monomials of f
    with no division (module docstring)."""
    return _rank_one(eps.root_system, i, f, True, eps.eigenvalues[i], _ONE_MINUS_Q)


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
    return _rank_one(rs, i, f, False, Q_ONE, Q_ONE)


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


def sum_fraktur(eps: HeckeCharacter, f: GroupRingElem) -> GroupRingElem:
    """Sum of frak_t_w over the whole Weyl group, applied to f.

    The sum factors as the product of the sums over the parabolic levels of
    :func:`heckemod.root_system.parabolic_levels`, applied innermost level
    first. Each level is an orbit of a fundamental coweight, walked by dynamic
    programming: the value at s_i x is frak_t_i of the value at its parent x.
    One generator application per non-identity level point: 9 on B3 instead
    of |W| - 1 = 47. Every frak_t_w is pi^{rho_eps} T_w pi^{-rho_eps}, so the
    walk runs ``t_act`` between one translation by -rho_eps in and one by
    +rho_eps out. Above the size cap it raises ``WeylGroupTooLarge``.
    """
    rs = eps.root_system
    require_walkable(rs)
    shift = eps.rho_eps
    f = f.translated(negate_coweight(shift))
    for level in reversed(parabolic_levels(rs)):
        values = [f]
        for i, parent in level:
            values.append(t_act(eps, i, values[parent]))
        f = grsum(rs.rank, values)
    return f.translated(shift)


def alternator(rs: RootSystem, f: GroupRingElem) -> GroupRingElem:
    """Signed symmetrization sum_w (-1)^{l(w)} w(f)."""
    g = weyl_group(rs)
    return grsum(
        rs.rank,
        (weyl_act(w, f) if w.length % 2 == 0 else -weyl_act(w, f) for w in g.elements),
    )


def weyl_denominator(rs: RootSystem) -> GroupRingElem:
    """pi^{rho} prod_{a > 0} (1 - pi^{-a^vee}); equals alternator(pi^{rho})."""
    return multiply_binomials(
        GroupRingElem.monomial(rho(rs)), [negate_coweight(v) for v in rs.positive_coroots], 0)


def divide_by_weyl_denominator(rs: RootSystem, f: GroupRingElem) -> GroupRingElem:
    out = divide_by_binomials(f, [negate_coweight(v) for v in rs.positive_coroots], 0)
    return out.translated(negate_coweight(rho(rs)))


def _straighten(rs: RootSystem, mu: Coweight) -> tuple[int, Coweight] | None:
    """(sign, lambda) with A(pi^{mu-rho}) = sign * A(pi^{lambda+rho}) and lambda
    dominant, or None when mu - rho lies on a wall and A(pi^{mu-rho}) = 0."""
    nu, steps = dominant_conjugate(rs, tuple(c - 1 for c in mu))  # rho = (1, ..., 1)
    if 0 in nu:
        return None
    return -1 if steps % 2 else 1, tuple(c - 1 for c in nu)


@lru_cache(maxsize=None)
def _dominant_character(rs: RootSystem, lam: Coweight) -> tuple[tuple[Coweight, int], ...]:
    """The dominant weights of chi_lambda with their multiplicities, by
    Freudenthal's formula on the dual root system (module docstring):

        ((lambda+rho, lambda+rho) - (mu+rho, mu+rho)) m(mu)
            = 2 sum_{a>0} sum_{k>=1} (mu + k a, a) m(mu + k a),

    with a over the positive coroots. The dominant weights are those reached
    from lambda by subtracting positive coroots while staying dominant. They
    are filled in decreasing order of <2rho, mu>, so each m(mu + k a) is
    already known, read at the dominant conjugate; an a-string of weights is
    unbroken, so it stops at its first non-weight. Each quotient is an exact
    integer; a remainder raises :class:`NotDivisible`."""
    roots = rs.positive_roots

    def form(x: Coweight, y: Coweight) -> int:
        """The W-invariant form sum_{r>0} <r, x><r, y>."""
        return sum(sum(map(mul, r, x)) * sum(map(mul, r, y)) for r in roots)

    basis = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    # (x, a) = x . ga, with ga[i] = (omega_i^vee, a).
    strings = [(a, tuple(form(e, a) for e in basis), form(a, a)) for a in rs.positive_coroots]
    weights, seen = [lam], {lam}
    for nu in weights:
        for a, _, _ in strings:
            below = tuple(map(sub, nu, a))
            if min(below) >= 0 and below not in seen:
                seen.add(below)
                weights.append(below)
    two_rho = tuple(map(sum, zip(*roots)))
    weights.sort(key=lambda nu: sum(map(mul, two_rho, nu)), reverse=True)

    top = add_coweights(lam, rho(rs))
    top_norm = form(top, top)
    mult = {lam: 1}
    for mu in weights[1:]:
        total = 0
        for a, ga, aa in strings:
            nu = add_coweights(mu, a)
            pairing = sum(map(mul, nu, ga))
            while (m := mult.get(dominant_conjugate(rs, nu)[0], 0)):
                total += pairing * m
                nu = add_coweights(nu, a)
                pairing += aa
        shifted = add_coweights(mu, rho(rs))
        m, rem = divmod(2 * total, top_norm - form(shifted, shifted))
        if rem:
            raise NotDivisible(f"Freudenthal quotient at {mu} in chi_{lam} is not an integer")
        mult[mu] = m
    return tuple(sorted(mult.items()))


def omega_apply(rs: RootSystem, f: GroupRingElem) -> GroupRingElem:
    """Apply the alternator-quotient operator Omega to f by straightening
    (module docstring); equal to the full alternator divided by A(pi^rho)."""
    # l(w0) is the number of positive roots.
    flip = len(rs.positive_roots) % 2
    by_lambda: dict[Coweight, QDict] = {}
    for x, qd in f.packed.items():
        straight = _straighten(rs, unpack(x, rs.rank))
        if straight is None:
            continue
        sign, lam = straight
        if flip:
            sign = -sign
        by_lambda[lam] = qd_add(by_lambda.get(lam, {}), qd if sign > 0 else qd_neg(qd))
    dominant: dict[Coweight, QDict] = {}
    for lam, c in by_lambda.items():
        if not c:
            continue
        for nu, m in _dominant_character(rs, lam):
            dominant[nu] = qd_add(dominant.get(nu, {}), {e: m * v for e, v in c.items()})
    out: dict[int, QDict] = {}
    for nu, c in dominant.items():
        if c:
            for mu in orbit(rs, nu):
                out[pack(mu)] = c
    return from_packed(rs.rank, out)
