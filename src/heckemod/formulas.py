"""Evaluation of spherical-type vectors and the classical closed forms.

The two sides of the character-sum identity are exposed as

* :func:`theorem_lhs` -- the operator sum pi^{-rho_eps} sum_w frak_t_w pi^{lambda+2 rho_eps},
  equal to sum_w T_w (pi^{lambda+rho_eps}) computed in the induced module;
* :func:`theorem_rhs` -- the identity's right side written as it stands,

      pi^{-rho_eps} D_(-1) Omega(pi^{lambda+2rho_eps} D_(q)),
      D_(c) = prod_{Phi+_c} (1 - q pi^{a^vee}),

  with Omega the operator of :func:`heckemod.operators.omega_apply`, i.e.
  (-1)^{l(w0)} A(pi^{-rho} f) / A(pi^{rho}). Products over empty subsets are
  1 and the division by the Weyl denominator is exact because the alternator
  image is skew.

The alternator side runs on integer-coded coefficients, like the Hecke walk.
The box gather :func:`alternator_gathers` takes a whole box of lambdas for
one character. It expands D_(q) once into (offset, q-coefficient) pairs and
gathers each pi^{lambda+2rho_eps} D_(q) into Omega's map {mu: E_mu}; each
distinct monomial lambda + 2rho_eps + offset of the box is straightened once,
through a table that lives only as long as the call. With each map it yields
the bound R = 2^{|Phi_-1^+|} sum_mu ||E_mu||_inf maxmult(chi_mu) of the
side's coefficients: Omega's integer coefficients are at most the sum
(:func:`heckemod.operators.omega_bound`), and each factor 1 - q pi^{a^vee} of
D_(-1) at most doubles the largest one. :func:`alternator_at` then
accumulates Omega at an integer q, fills the orbits straight into packed
keys and multiplies by D_(-1) there
(:func:`heckemod.algebra.multiply_binomials_int`). :func:`theorem_rhs` gathers
its one lambda the same way, runs :func:`alternator_at` at q = 2^B with
2^(B-1) > R and decodes once; the operator-identity suite gathers its box in
one call, runs :func:`alternator_at` at the q of the Hecke walk and compares
the integers.

The global (-1)^{l(w0)} makes lhs and rhs agree on the nose; with that
convention the sign-character value also equals the classical Whittaker
closed form q^{l(w0)} pi^{rho} prod (1 - q^-1 pi^{-a^vee}) chi_lambda exactly
(ratio +1, recorded by the test suite), and the trivial-character value equals
Macdonald's spherical sum over W, which :func:`macdonald` computes as the
Demazure operator d_{w0} of its numerator. Every product by binomials
1 - q^k pi^v here goes through :func:`heckemod.algebra.multiply_binomials`
(its integer form on the alternator side), with the coroots negated where a
formula has pi^{-a^vee}.

Double-coset measures are normalized by |I| = 1 and the dominant translation
coset gets measure q^{<2 rho, lambda>}; values are reported with the measure
as a separate factor so any other convention is a post-multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import (GroupRingElem, QDict, check_key, decode_q, divide_by_binomials, multiply_binomials,
                      multiply_binomials_int, orbit_fill, pack, pack_step, packing)
from .characters import HeckeCharacter, character_by_name
from .errors import NonDominant, NotDivisible, WrongFamily
from .operators import demazure_word, omega_apply, omega_bound, omega_dominant, omega_gather, sum_fraktur, t_word
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


def alternator_gathers(eps: HeckeCharacter, lams):
    """For each lambda of ``lams`` in turn, the alternator side's gathered
    Omega, {mu: E_mu} with Omega(pi^{lambda+2rho_eps} D_(q)) = sum_mu E_mu
    chi_mu (:func:`heckemod.operators.omega_gather`), and R = 2^{|Phi_-1^+|}
    :func:`heckemod.operators.omega_bound`, which bounds every integer
    coefficient of D_(-1) Omega(pi^{lambda+2rho_eps} D_(q)): each factor
    1 - q pi^{a^vee} at most doubles the largest coefficient.

    D_(q) is expanded once, into its (offset, q-coefficient) pairs, and each
    distinct lambda + 2rho_eps + offset is straightened once, through a table
    that lives as long as this generator. Like the element
    pi^{lambda+2rho_eps} D_(q), a point outside the packing bound raises
    :class:`heckemod.errors.CoweightOutOfRange`."""
    rs = eps.root_system
    doubled = add_coweights(eps.rho_eps, eps.rho_eps)
    d_q = list(multiply_binomials(GroupRingElem.one(rs.rank), eps.q_coroots, 1).coeffs.items())
    offsets = [off for off, _ in d_q]
    # Each coordinate of an offset lies between those of low and high, so
    # checking base + low and base + high checks every base + offset.
    low = pack_step(tuple(map(min, zip(*offsets))))
    high = pack_step(tuple(map(max, zip(*offsets))))
    guard = packing(rs.rank).guard
    straightened: dict = {}
    for lam in lams:
        base = add_coweights(lam, doubled)
        key = pack(base)
        check_key((key + low) | (key + high), guard)
        gathered = omega_gather(rs, ((add_coweights(base, off), qd) for off, qd in d_q), straightened)
        yield gathered, omega_bound(rs, gathered) << len(eps.minus_coroots)


def alternator_at(eps: HeckeCharacter, gathered: dict[Coweight, QDict], q: int) -> dict[int, int]:
    """D_(-1) Omega(pi^{lambda+2rho_eps} D_(q)) at the integer q, as a packed
    map (:func:`heckemod.algebra.encode_q`), from one of
    :func:`alternator_gathers`' maps: Omega accumulated on integers, filled
    over the orbits straight into packed keys
    (:func:`heckemod.algebra.orbit_fill`), then multiplied by D_(-1) on
    integers."""
    rs = eps.root_system
    g = orbit_fill(rs, omega_dominant(rs, gathered, q))
    return multiply_binomials_int(rs.rank, g, eps.minus_coroots, q)


def theorem_rhs(eps: HeckeCharacter, lam: Coweight) -> GroupRingElem:
    """Alternator side of the identity, pi^{-rho_eps} D_(-1) Omega(pi^{lambda+2rho_eps} D_(q)):
    :func:`alternator_at` at q = 2^B, with 2^(B-1) above the bound R of
    :func:`alternator_gathers` (called with lambda alone), then one balanced
    base-2^B decode.

    Its negative control, the global (-1)^{l(w0)} dropped, lives in
    :func:`heckemod.verify.verify_operator_identity`.
    """
    (gathered, bound), = alternator_gathers(eps, [lam])
    bits = bound.bit_length() + 1
    value = decode_q(eps.root_system.rank, alternator_at(eps, gathered, 1 << bits), bits)
    return value.translated(negate_coweight(eps.rho_eps))


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

    # pi^{-rho_eps} D_(-1) Omega(q^{|long|} pi^{lambda+2rho} prod_long (1 - q^-1 pi^{-a^vee})):
    # Omega is q-linear, and q^{|long|} makes its input a polynomial in q.
    start = GroupRingElem.monomial(add_coweights(lam, add_coweights(rho(rs), rho(rs))))
    start = multiply_binomials(start, [negate_coweight(v) for v in long_coroots], -1).scale_q({len(long_coroots): 1})
    out = multiply_binomials(omega_apply(rs, start), eps.minus_coroots, 1)
    return ShalikaForms(theorem_form=first, rewritten_form=out.translated(negate_coweight(eps.rho_eps)))


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
