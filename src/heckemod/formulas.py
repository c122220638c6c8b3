"""Evaluation of spherical-type vectors and the classical closed forms.

The two sides of the character-sum identity are exposed as

* :func:`theorem_lhs` -- the operator sum pi^{-rho_eps} sum_w frak_t_w pi^{lambda+2 rho_eps},
  equal to sum_w T_w (pi^{lambda+rho_eps}) computed in the induced module;
* :func:`theorem_rhs` -- the identity's right side written as it stands,

      pi^{-rho_eps} D_(-1) Omega(pi^{lambda+2rho_eps} D_(q)),
      D_(c) = prod_{Phi+_c} (1 - q pi^{a^vee}),

  with Omega = :func:`heckemod.operators.omega_apply`, i.e.
  (-1)^{l(w0)} A(pi^{-rho} f) / A(pi^{rho}). Products over empty subsets are
  1 and the division by the Weyl denominator is exact because the alternator
  image is skew.

The global (-1)^{l(w0)} makes lhs and rhs agree on the nose; with that
convention the sign-character value also equals the classical Whittaker
closed form q^{l(w0)} pi^{rho} prod (1 - q^-1 pi^{-a^vee}) chi_lambda exactly
(ratio +1, recorded by the test suite), and the trivial-character value equals
Macdonald's spherical sum over W, which :func:`macdonald` computes as the
Demazure operator d_{w0} of its numerator. Every product by binomials
1 - q^k pi^v here goes through :func:`heckemod.algebra.multiply_binomials`,
with the coroots negated where a formula has pi^{-a^vee}.

Double-coset measures are normalized by |I| = 1 and the dominant translation
coset gets measure q^{<2 rho, lambda>}; values are reported with the measure
as a separate factor so any other convention is a post-multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import GroupRingElem, QDict, divide_by_binomials, multiply_binomials
from .characters import HeckeCharacter, character_by_name
from .errors import NonDominant, NotDivisible, WrongFamily
from .operators import demazure_word, omega_apply, sum_fraktur, t_word
from .root_system import (
    Coweight,
    RootSystem,
    add_coweights,
    dominant_conjugate,
    is_dominant,
    longest_word,
    negate_coweight,
    orbit,
    rho,
)


def _require_dominant(lam: Coweight, what: str) -> None:
    if not is_dominant(lam):
        raise NonDominant(f"{what} requires a dominant coweight, got {lam}")


def in_family_b(rs: RootSystem) -> bool:
    """Whether rs is of type B_n, the family the Shalika and Bessel forms are defined on."""
    return rs.cartan_type.family == "B"


def theorem_lhs(eps: HeckeCharacter, lam: Coweight) -> GroupRingElem:
    """Operator-sum side of the identity; any coweight lambda is allowed."""
    shift = eps.rho_eps
    start = GroupRingElem.monomial(add_coweights(lam, add_coweights(shift, shift)))
    return sum_fraktur(eps, start).translated(negate_coweight(shift))


def theorem_rhs(eps: HeckeCharacter, lam: Coweight) -> GroupRingElem:
    """Alternator side of the identity, pi^{-rho_eps} D_(-1) Omega(pi^{lambda+2rho_eps} D_(q)).

    Its negative control, the global (-1)^{l(w0)} dropped, lives in
    :func:`heckemod.verify.verify_operator_identity`.
    """
    rs = eps.root_system
    shift = eps.rho_eps
    start = GroupRingElem.monomial(add_coweights(lam, add_coweights(shift, shift)))
    h = omega_apply(rs, multiply_binomials(start, eps.q_coroots, 1))
    return multiply_binomials(h, eps.minus_coroots, 1).translated(negate_coweight(shift))


def _w0_image(rs: RootSystem, lam: Coweight) -> Coweight:
    """w0 lambda = -(dominant conjugate of -lambda), with no Weyl group: w0
    maps the dominant chamber onto its negative."""
    return negate_coweight(dominant_conjugate(rs, negate_coweight(lam))[0])


def weyl_character(rs: RootSystem, lam: Coweight) -> GroupRingElem:
    """Highest-weight character chi_lambda = Omega(pi^{w0 lambda}) = A(pi^{lambda+rho}) / A(pi^{rho})."""
    _require_dominant(lam, "weyl_character")
    return omega_apply(rs, GroupRingElem.monomial(_w0_image(rs, lam)))


def demazure_character(rs: RootSystem, lam: Coweight) -> GroupRingElem:
    """chi_lambda by composing Demazure operators along w0, applied to pi^{w0 lambda}."""
    _require_dominant(lam, "demazure_character")
    return demazure_word(rs, longest_word(rs), GroupRingElem.monomial(_w0_image(rs, lam)))


def casselman_shalika(rs: RootSystem, lam: Coweight) -> GroupRingElem:
    """Whittaker closed form q^{l(w0)} pi^{rho} prod_{a>0} (1 - q^-1 pi^{-a^vee}) chi_lambda.

    It runs no Hecke walk: the ``casselman-shalika`` suite pairs it with the
    sign-character operator sum, ``theorem_lhs(sign, lambda)``.
    """
    _require_dominant(lam, "casselman_shalika")
    closed = multiply_binomials(weyl_character(rs, lam), [negate_coweight(v) for v in rs.positive_coroots], -1)
    # l(w0) is the number of positive roots.
    return closed.translated(rho(rs)).scale_q({len(rs.positive_roots): 1})


def macdonald(rs: RootSystem, lam: Coweight) -> GroupRingElem:
    """Spherical sum sum_w w(pi^lambda prod_{a>0} (1 - q pi^{a^vee}) / (1 - pi^{a^vee})).

    By the Demazure character formula this is d_{w0} applied to the numerator
    pi^lambda prod_{a>0} (1 - q pi^{a^vee}): on A1,
    d(f) = (f^s - pi^{-a} f) / (1 - pi^{-a}) = f / (1 - pi^a) + s(f) / (1 - pi^{-a}),
    and composing along a reduced word for w0 gives
    d_{w0} f = sum_w w(f / prod_{a>0} (1 - pi^{a^vee})). So the numerator is
    built with :func:`heckemod.algebra.multiply_binomials` over the positive
    coroots and the Demazure operators run along w0's word; nothing is
    divided. It uses neither ``omega_apply`` nor ``alternator``, so it stays
    an independent side of the macdonald suite. Its negative control, w0's
    word less its first letter, lives in :func:`heckemod.verify.verify_macdonald`.
    """
    _require_dominant(lam, "macdonald")
    num = multiply_binomials(GroupRingElem.monomial(lam), rs.positive_coroots, 1)
    return demazure_word(rs, longest_word(rs), num)


@dataclass
class ShalikaForms:
    """The two displayed evaluations of the spherical vector for the character
    that is -1 on short and q on long simple roots (type B only)."""

    theorem_form: GroupRingElem
    rewritten_form: GroupRingElem


def shalika(rs: RootSystem, lam: Coweight) -> ShalikaForms:
    """Both closed forms; they agree exactly because over the long positive
    roots 1 - q pi^{a^vee} = -q pi^{a^vee} (1 - q^-1 pi^{-a^vee}) and the number
    of long positive roots n(n-1) is even."""
    if not in_family_b(rs):
        raise WrongFamily(f"shalika forms are defined for family B, got {rs.cartan_type}")
    _require_dominant(lam, "shalika")
    eps = character_by_name(rs, "neg-short")
    long_coroots = eps.q_coroots  # q-class = long roots for this character
    first = theorem_rhs(eps, lam)

    # q^{|long|} pi^{-rho_eps} D_(-1) Omega(pi^{lambda+2rho} prod_long (1 - q^-1 pi^{-a^vee}))
    start = GroupRingElem.monomial(add_coweights(lam, add_coweights(rho(rs), rho(rs))))
    h = omega_apply(rs, multiply_binomials(start, [negate_coweight(v) for v in long_coroots], -1))
    out = multiply_binomials(h, eps.minus_coroots, 1)
    out = out.translated(negate_coweight(eps.rho_eps)).scale_q({len(long_coroots): 1})
    return ShalikaForms(theorem_form=first, rewritten_form=out)


@dataclass
class BesselValue:
    """Operator-sum value at lambda = 0 compared against the quoted product
    pi^{-rho_eps} prod_{long a > 0} (1 - q^-1 pi^{a^vee}).

    ``unit_ratio`` is (sign, q_exponent, coweight) when value/quoted clears to
    a single unit monomial, else None. ``q_form_cofactor`` is the exact
    element with value = cofactor * pi^{-rho_eps} prod_{long} (1 - q pi^{a^vee}).
    Both are quotients of pi^{rho_eps} value by the long binomials
    1 - q^k pi^{a^vee}, at k = -1 and k = 1, taken by
    :func:`heckemod.algebra.divide_by_binomials`.

    The value is :func:`value_at_zero` of the neg-long character. On B_n its
    only q-class simple root is the short alpha_n, so W_J is A1 and the
    cofactor is q^{n-1} P_{A1}(q) = q^{n-1} (1 + q). Since 1 + q is not a
    unit, ``unit_ratio`` is None.
    """

    theorem_value: GroupRingElem
    quoted_product: GroupRingElem
    unit_ratio: tuple[int, int, Coweight] | None
    q_form_cofactor: GroupRingElem


def _unit_monomial_ratio(shifted: GroupRingElem, long_coroots):
    """(sign, q-exponent, coweight) of value / quoted when that is a unit
    monomial, else None, where ``shifted`` is pi^{rho_eps} value. No second
    division by value is needed: if quoted / value is a unit monomial,
    value / quoted is its inverse."""
    try:
        ratio = divide_by_binomials(shifted, long_coroots, -1)
    except NotDivisible:
        return None
    term = ratio.single_term()
    if term is None:
        return None
    mu, qd = term
    if len(qd) != 1:
        return None
    ((k, c),) = qd.items()
    return (c, k, mu) if c in (1, -1) else None


def bessel_value(rs: RootSystem) -> BesselValue:
    """:func:`value_at_zero` of the neg-long character, so no Hecke walk runs,
    with the ratio report of :class:`BesselValue`. ``NotDivisible`` at
    k = -1 means no unit ratio."""
    if not in_family_b(rs):
        raise WrongFamily(f"bessel value is defined for family B, got {rs.cartan_type}")
    eps = character_by_name(rs, "neg-long")
    value = value_at_zero(eps)
    long_coroots = eps.minus_coroots
    quoted = multiply_binomials(GroupRingElem.monomial(negate_coweight(eps.rho_eps)), long_coroots, -1)
    shifted = value.translated(eps.rho_eps)
    unit = _unit_monomial_ratio(shifted, long_coroots)
    return BesselValue(value, quoted, unit, divide_by_binomials(shifted, long_coroots, 1))


def coset_measure(rs: RootSystem, lam: Coweight) -> QDict:
    """Measure q^{<2 rho, lambda>} of the double coset of a dominant translation."""
    _require_dominant(lam, "coset_measure")
    exponent = sum(rs.pairing(root, lam) for root in rs.positive_roots)
    return {exponent: 1}


def iwahori_image(eps: HeckeCharacter, word, lam: Coweight) -> GroupRingElem:
    """T_w (pi^{lambda + rho_eps}) for the w spelled by a reduced word (else
    :class:`heckemod.errors.NonReducedWord`); :func:`coset_measure` gives the
    measure of lambda's double coset.

    Summing the values over all w gives theorem_lhs(eps, lambda); equivalently
    pi^{rho_eps} theorem_lhs equals sum_w frak_t_w pi^{lambda + 2 rho_eps}.
    """
    # t_word checks the word, so a bad word is reported before a bad lambda.
    value = t_word(eps, word, GroupRingElem.monomial(add_coweights(lam, eps.rho_eps)))
    _require_dominant(lam, "iwahori_image")
    return value


def poincare_polynomial(rs: RootSystem, simple) -> GroupRingElem:
    """sum_{w in W_J} q^{l(w)} as a constant group-ring element, for W_J
    generated by the simple reflections ``simple``, over the orbit of rho:
    the a > 0 with <a, w(rho)> < 0 are the l(w) inversions of w^{-1}, and w
    is in W_J exactly when all of them are supported on J."""
    counts: QDict = {}
    for x in orbit(rs, rho(rs)):
        inversions = [a for a in rs.positive_roots if rs.pairing(a, x) < 0]
        if all(k in simple for a in inversions for k, c in enumerate(a) if c):
            counts[len(inversions)] = counts.get(len(inversions), 0) + 1
    return GroupRingElem.monomial((0,) * rs.rank, counts)


def value_at_zero(eps: HeckeCharacter) -> GroupRingElem:
    """theorem_lhs(eps, 0) in closed form, with no walk and no Omega:
    (-1)^{|Phi_{-1}^+|} q^{|Phi_q^+| - |Phi_J^+|} P_{W_J}(q) pi^{-rho_eps}
    prod_{a in Phi_{-1}^+} (1 - q pi^{a^vee}), where J is the set of q-class
    simple roots (<alpha_i, rho_eps> = 0) and |Phi_J^+| the degree of P_{W_J}.

    Hecke side: for i in J, s_i fixes rho_eps, so G_i(pi^{rho_eps}) = 0 and
    T_i pi^{rho_eps} = q pi^{rho_eps}. As l(uv) = l(u) + l(v) for u minimal in
    u W_J and v in W_J, theorem_lhs(eps, 0) = sum_w T_w pi^{rho_eps} is
    P_{W_J}(q) sum_u T_u pi^{rho_eps}. The README ("The value at lambda = 0")
    derives the rest from the alternator side (Macdonald, Math. Ann. 199, 1972).
    """
    rs = eps.root_system
    poincare = poincare_polynomial(rs, [i for i in range(rs.rank) if not eps.neg_at[i]])
    degree = max(poincare.single_term()[1])
    cofactor = poincare.scale_q({len(eps.phi_q) - degree: (-1) ** len(eps.phi_minus)})
    return multiply_binomials(cofactor.translated(negate_coweight(eps.rho_eps)), eps.minus_coroots, 1)


def dominant_coweights_up_to_height(rs: RootSystem, height: int) -> list[Coweight]:
    """All dominant coweights with coordinate sum at most ``height``, lex order."""
    return [lam for lam in product(range(height + 1), repeat=rs.rank) if sum(lam) <= height]
