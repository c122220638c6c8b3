"""Hecke generator actions, Demazure operators, and the alternator operator.

Everything here acts on exact group-ring elements. The generator action on the
module induced from a linear character eps is

    T_{s_i} f  =  eps(T_{s_i}) f^{s_i}  +  (1 - q) (f^{s_i} - f) / (1 - pi^{-alpha_i^vee}),

where the division is exact because f - f^{s_i} is always divisible by
1 - pi^{-alpha_i^vee}. The conjugated operator frak_t_i = pi^{rho_eps} T_{s_i}
pi^{-rho_eps} and the Demazure operator

    d_i = (pi^{-alpha_i^vee} - 1)^{-1} (pi^{-alpha_i^vee} - s_i)

satisfy 1 + frak_t_i = (1 - q pi^{alpha_i^vee}) d_i on the -1 classes and
d_i (1 - q pi^{alpha_i^vee}) on the q classes; the verifiers in
:mod:`heckemod.verify` machine-check these identities.

The alternator-side operator is implemented in the sign-corrected form

    Omega(f) = (-1)^{l(w0)} * exact_div(A(pi^{-rho} f), A(pi^{rho})),

with A = sum_w (-1)^{l(w)} w the signed symmetrization. The skew image is
always divisible by the denominator A(pi^{rho}) = pi^{rho} prod (1 - pi^{-a^vee}),
so Omega maps the group ring to itself. ``sign_corrected=False`` drops the
global (-1)^{l(w0)} factor and exists only as a negative control.
:func:`omega_apply` is the one place that runs the alternator and divides by
the Weyl denominator; the alternator-side formulas are all built on it.
"""

from __future__ import annotations

from .algebra import GroupRingElem, QDict, exact_div, grsum, weyl_act
from .characters import HeckeCharacter
from .errors import NonReducedWord
from .root_system import (
    Coweight,
    RootSystem,
    _matmul,
    element_of_word,
    negate_coweight,
    reflect,
    rho,
    simple_reflection_matrix,
    weyl_group,
)

_ONE_MINUS_Q: QDict = {0: 1, 1: -1}


def s_image(rs: RootSystem, i: int, f: GroupRingElem) -> GroupRingElem:
    """f^{s_i}: relabel exponents by the simple reflection."""
    return GroupRingElem(f.rank, {reflect(rs, i, k): v for k, v in f.coeffs.items()})


def _one_minus_pi(rank: int, mu: Coweight) -> GroupRingElem:
    """1 - pi^mu."""
    return GroupRingElem.one(rank) - GroupRingElem.monomial(mu)


def t_act(eps: HeckeCharacter, i: int, f: GroupRingElem) -> GroupRingElem:
    """Left action of the generator T_{s_i} on f in the module of eps."""
    rs = eps.root_system
    fs = s_image(rs, i, f)
    neg_av = negate_coweight(rs.simple_coroots[i])
    quot = exact_div(fs - f, _one_minus_pi(rs.rank, neg_av))
    return fs.scale_q(eps.eigenvalue_at(i)) + quot.scale_q(_ONE_MINUS_Q)


def _require_reduced(rs: RootSystem, word) -> tuple[int, ...]:
    """The word as a tuple; :class:`NonReducedWord` unless it is reduced."""
    word = tuple(word)
    if element_of_word(rs, word).length != len(word):
        raise NonReducedWord(f"word {word} is not reduced")
    return word


def t_word(eps: HeckeCharacter, word, f: GroupRingElem) -> GroupRingElem:
    """Compose T along a reduced word, rightmost letter acting first.

    The result is independent of the chosen reduced word (braid
    well-definedness, verified separately); a non-reduced word raises
    :class:`NonReducedWord` rather than silently computing something else.
    """
    for i in reversed(_require_reduced(eps.root_system, word)):
        f = t_act(eps, i, f)
    return f


def demazure(rs: RootSystem, i: int, f: GroupRingElem) -> GroupRingElem:
    """Demazure operator d_i; the division is exact for every input."""
    neg_av = negate_coweight(rs.simple_coroots[i])
    num = f.translated(neg_av) - s_image(rs, i, f)
    den = GroupRingElem.monomial(neg_av) - GroupRingElem.one(rs.rank)
    return exact_div(num, den)


def demazure_word(rs: RootSystem, word, f: GroupRingElem) -> GroupRingElem:
    """Compose d along a reduced word (rightmost first)."""
    for i in reversed(_require_reduced(rs, word)):
        f = demazure(rs, i, f)
    return f


def fraktur_t(eps: HeckeCharacter, i: int, f: GroupRingElem) -> GroupRingElem:
    """Conjugated generator pi^{rho_eps} T_{s_i} pi^{-rho_eps}."""
    shift = eps.rho_eps
    inner = t_act(eps, i, f.translated(negate_coweight(shift)))
    return inner.translated(shift)


def fraktur_word(eps: HeckeCharacter, word, f: GroupRingElem) -> GroupRingElem:
    """Compose the conjugated generators along a reduced word."""
    shift = eps.rho_eps
    inner = t_word(eps, word, f.translated(negate_coweight(shift)))
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
    second = (tf - tf.translated(av)).scale_q({-1: 1})
    return first + second


def sum_fraktur(eps: HeckeCharacter, f: GroupRingElem) -> GroupRingElem:
    """Sum of frak_t_w over the whole Weyl group, applied to f.

    Computed by dynamic programming over left descents: the value at w is
    frak_t_i of the value at s_i w, with i the first letter of the stored
    reduced word. One generator application per group element.
    """
    rs = eps.root_system
    g = weyl_group(rs)
    values: list[GroupRingElem | None] = [None] * len(g.elements)
    values[0] = f
    for idx, w in enumerate(g.elements):
        if w.length == 0:
            continue
        i = w.word[0]
        parent = g.index_by_matrix[_matmul(simple_reflection_matrix(rs, i), w.action)]
        values[idx] = fraktur_t(eps, i, values[parent])
    return grsum(rs.rank, values)


def alternator(rs: RootSystem, f: GroupRingElem) -> GroupRingElem:
    """Signed symmetrization sum_w (-1)^{l(w)} w(f)."""
    g = weyl_group(rs)
    return grsum(
        rs.rank,
        (weyl_act(w, f) if w.length % 2 == 0 else -weyl_act(w, f) for w in g.elements),
    )


def weyl_denominator(rs: RootSystem) -> GroupRingElem:
    """pi^{rho} prod_{a > 0} (1 - pi^{-a^vee}); equals alternator(pi^{rho})."""
    out = GroupRingElem.monomial(rho(rs))
    for root in rs.positive_roots:
        out = out * _one_minus_pi(rs.rank, negate_coweight(rs.coroot_of[root]))
    return out


def divide_by_weyl_denominator(rs: RootSystem, f: GroupRingElem) -> GroupRingElem:
    # Dividing factor by factor is exact whenever the full division is, and
    # binomial divisors keep every elimination step cheap.
    out = f
    for root in rs.positive_roots:
        out = exact_div(out, _one_minus_pi(rs.rank, negate_coweight(rs.coroot_of[root])))
    return out.translated(negate_coweight(rho(rs)))


def omega_apply(rs: RootSystem, f: GroupRingElem, sign_corrected: bool = True) -> GroupRingElem:
    """Apply the alternator-quotient operator Omega to f (module docstring)."""
    skew = alternator(rs, f.translated(negate_coweight(rho(rs))))
    out = divide_by_weyl_denominator(rs, skew)
    w0 = weyl_group(rs).longest
    if sign_corrected and w0.length % 2:
        out = -out
    return out
