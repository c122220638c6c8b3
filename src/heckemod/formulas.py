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
the symmetrized spherical sum of :func:`macdonald`.

Double-coset measures are normalized by |I| = 1 and the dominant translation
coset gets measure q^{<2 rho, lambda>}; values are reported with the measure
as a separate factor so any other convention is a post-multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GroupRingElem, QDict, exact_div, grsum, weyl_act
from .characters import HeckeCharacter, character_by_name
from .errors import NonDominant, NotDivisible, RatioNotMonomial, WrongFamily
from .operators import demazure_word, omega_apply, sum_fraktur, t_word
from .root_system import (
    Coweight,
    RootSystem,
    WeylElement,
    add_coweights,
    is_dominant,
    negate_coweight,
    rho,
    weyl_group,
)


def _require_dominant(lam: Coweight, what: str) -> None:
    if not is_dominant(lam):
        raise NonDominant(f"{what} requires a dominant coweight, got {lam}")


def in_family_b(rs: RootSystem) -> bool:
    """Whether rs is of type B_n, the family the Shalika and Bessel forms are defined on."""
    return rs.cartan_type.family == "B"


def multiply_binomials(rs: RootSystem, f: GroupRingElem, roots, q_exp: int, pi_sign: int) -> GroupRingElem:
    """f * prod over roots of (1 - q^{q_exp} pi^{pi_sign * a^vee}), factor by factor."""
    for r in roots:
        av = rs.coroot_of[r]
        if pi_sign < 0:
            av = negate_coweight(av)
        f = f - f.translated(av).scale_q({q_exp: 1})
    return f


def theorem_lhs(eps: HeckeCharacter, lam: Coweight) -> GroupRingElem:
    """Operator-sum side of the identity; any coweight lambda is allowed."""
    shift = eps.rho_eps
    start = GroupRingElem.monomial(add_coweights(lam, add_coweights(shift, shift)))
    return sum_fraktur(eps, start).translated(negate_coweight(shift))


def theorem_rhs(eps: HeckeCharacter, lam: Coweight, sign_corrected: bool = True) -> GroupRingElem:
    """Alternator side of the identity, pi^{-rho_eps} D_(-1) Omega(pi^{lambda+2rho_eps} D_(q)).

    ``sign_corrected=False`` drops the global (-1)^{l(w0)} factor of Omega and
    exists only as a negative control; with it the identity fails on A1 already.
    """
    rs = eps.root_system
    shift = eps.rho_eps
    start = GroupRingElem.monomial(add_coweights(lam, add_coweights(shift, shift)))
    h = omega_apply(rs, multiply_binomials(rs, start, eps.phi_q, 1, +1), sign_corrected)
    return multiply_binomials(rs, h, eps.phi_minus, 1, +1).translated(negate_coweight(shift))


def weyl_character(rs: RootSystem, lam: Coweight) -> GroupRingElem:
    """Highest-weight character chi_lambda = Omega(pi^{w0 lambda}) = A(pi^{lambda+rho}) / A(pi^{rho})."""
    _require_dominant(lam, "weyl_character")
    return omega_apply(rs, GroupRingElem.monomial(weyl_group(rs).longest.apply(lam)))


def demazure_character(rs: RootSystem, lam: Coweight) -> GroupRingElem:
    """chi_lambda by composing Demazure operators along w0, applied to pi^{w0 lambda}."""
    _require_dominant(lam, "demazure_character")
    w0 = weyl_group(rs).longest
    return demazure_word(rs, w0.word, GroupRingElem.monomial(w0.apply(lam)))


@dataclass
class CasselmanShalikaValue:
    """Whittaker closed form together with the operator-sum value it must equal."""

    closed_form: GroupRingElem
    theorem_form: GroupRingElem


def casselman_shalika(rs: RootSystem, lam: Coweight) -> CasselmanShalikaValue:
    """q^{l(w0)} pi^{rho} prod_{a>0} (1 - q^-1 pi^{-a^vee}) chi_lambda, plus the
    sign-character operator-sum value for comparison."""
    _require_dominant(lam, "casselman_shalika")
    chi = weyl_character(rs, lam)
    closed = multiply_binomials(rs, chi, rs.positive_roots, -1, -1)
    w0 = weyl_group(rs).longest
    closed = closed.translated(rho(rs)).scale_q({w0.length: 1})
    sign_eps = character_by_name(rs, "sign")
    return CasselmanShalikaValue(closed_form=closed, theorem_form=theorem_lhs(sign_eps, lam))


def macdonald(rs: RootSystem, lam: Coweight) -> GroupRingElem:
    """Symmetrized spherical sum sum_w w(pi^lambda prod (1-q pi^{a^vee})/(1-pi^{a^vee})).

    The numerators over the W-invariant common denominator
    prod_{a in Phi} (1 - pi^{a^vee}) are summed, then divided once, exactly.
    At lambda = 0 this is the Poincare polynomial sum_w q^{l(w)}.
    """
    _require_dominant(lam, "macdonald")
    g = weyl_group(rs)
    num = multiply_binomials(rs, GroupRingElem.monomial(lam), rs.positive_roots, 1, +1)
    # w(num/den) = w(num * den_bar) / den_full with den_full W-invariant.
    num_bar = multiply_binomials(rs, num, rs.positive_roots, 0, -1)
    den_full = multiply_binomials(
        rs,
        multiply_binomials(rs, GroupRingElem.one(rs.rank), rs.positive_roots, 0, +1),
        rs.positive_roots,
        0,
        -1,
    )
    return exact_div(grsum(rs.rank, (weyl_act(w, num_bar) for w in g.elements)), den_full)


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
    long_roots = eps.phi_q  # q-class = long roots for this character
    first = theorem_rhs(eps, lam)

    # q^{|long|} pi^{-rho_eps} D_(-1) Omega(pi^{lambda+2rho} prod_long (1 - q^-1 pi^{-a^vee}))
    start = GroupRingElem.monomial(add_coweights(lam, add_coweights(rho(rs), rho(rs))))
    h = omega_apply(rs, multiply_binomials(rs, start, long_roots, -1, -1))
    out = multiply_binomials(rs, h, eps.phi_minus, 1, +1)
    out = out.translated(negate_coweight(eps.rho_eps)).scale_q({len(long_roots): 1})
    return ShalikaForms(theorem_form=first, rewritten_form=out)


@dataclass
class BesselValue:
    """Operator-sum value at lambda = 0 compared against the quoted product
    pi^{-rho_eps} prod_{long a > 0} (1 - q^-1 pi^{a^vee}).

    ``unit_ratio`` is (sign, q_exponent, coweight) when value/quoted clears to
    a single unit monomial, else None. ``q_form_cofactor`` is the exact
    element with value = cofactor * pi^{-rho_eps} prod_{long} (1 - q pi^{a^vee}).

    On B_n the cofactor is q^{n-1} (1 + q). This follows from the alternator
    side of the identity at lambda = 0: in epsilon coordinates
    2 rho_eps - rho = (n-2, ..., 0, -1) and the short coroots are 2 e_i, so of
    the products over subsets S of short roots only S = {1..n-1} and
    S = {1..n} give an exponent W-conjugate to rho; they contribute
    (-1)^n q^{n-1} and (-1)^n q^n, and (-1)^{l(w0)} = (-1)^n. Because 1 + q is
    not a unit, and because the n(n-1) long coroots sum to 2 rho_eps (so the
    value is (q^{n^2-1} + q^{n^2}) times the quoted product with pi^mu sent to
    pi^{-mu}), no unit monomial relates the value to the quoted product and
    ``unit_ratio`` is None.
    """

    theorem_value: GroupRingElem
    quoted_product: GroupRingElem
    unit_ratio: tuple[int, int, Coweight] | None
    q_form_cofactor: GroupRingElem


def _unit_monomial_ratio(value: GroupRingElem, quoted: GroupRingElem):
    for num, den, invert in ((value, quoted, False), (quoted, value, True)):
        try:
            ratio = exact_div(num, den)
        except NotDivisible:
            continue
        term = ratio.single_term()
        if term is None:
            continue
        mu, qd = term
        if len(qd) != 1:
            continue
        ((k, c),) = qd.items()
        if c not in (1, -1):
            continue
        if invert:
            return (c, -k, negate_coweight(mu))
        return (c, k, mu)
    return None


def bessel_value(rs: RootSystem, strict: bool = False) -> BesselValue:
    """Value of the neg-long character sum at lambda = 0 with a ratio report.

    ``strict=True`` enforces the unit-monomial postcondition and raises
    :class:`RatioNotMonomial` when the ratio is anything else, instead of
    silently renormalizing; on B_n it always raises, since the exact relation
    carries the non-unit q^{n-1} (1 + q) (see :class:`BesselValue`). The
    non-strict report always carries the exact cofactor against the q-side
    product, which does exist in the ring.
    """
    if not in_family_b(rs):
        raise WrongFamily(f"bessel value is defined for family B, got {rs.cartan_type}")
    eps = character_by_name(rs, "neg-long")
    value = theorem_lhs(eps, (0,) * rs.rank)
    quoted = multiply_binomials(
        rs, GroupRingElem.one(rs.rank), eps.phi_minus, -1, +1
    ).translated(negate_coweight(eps.rho_eps))
    unit = _unit_monomial_ratio(value, quoted)
    q_form = multiply_binomials(
        rs, GroupRingElem.one(rs.rank), eps.phi_minus, 1, +1
    ).translated(negate_coweight(eps.rho_eps))
    cofactor = exact_div(value, q_form)
    if strict and unit is None:
        raise RatioNotMonomial(
            "theorem value is not a unit-monomial multiple of the quoted product; "
            f"exact relation: value = ({cofactor.to_str()}) * pi^-rho_eps * prod_long(1 - q pi^av)"
        )
    return BesselValue(value, quoted, unit, cofactor)


def coset_measure(rs: RootSystem, lam: Coweight) -> QDict:
    """Measure q^{<2 rho, lambda>} of the double coset of a dominant translation."""
    _require_dominant(lam, "coset_measure")
    exponent = sum(rs.pairing(root, lam) for root in rs.positive_roots)
    return {exponent: 1}


@dataclass
class IwahoriImage:
    """Image of one Iwahori-fixed vector: module value and coset measure."""

    value: GroupRingElem
    measure: QDict


def iwahori_image(eps: HeckeCharacter, w: WeylElement, lam: Coweight) -> IwahoriImage:
    """T_w (pi^{lambda + rho_eps}) with the measure carried separately.

    Summing the values over all w gives theorem_lhs(eps, lambda); equivalently
    pi^{rho_eps} theorem_lhs equals sum_w frak_t_w pi^{lambda + 2 rho_eps}.
    """
    rs = eps.root_system
    _require_dominant(lam, "iwahori_image")
    value = t_word(eps, w.word, GroupRingElem.monomial(add_coweights(lam, eps.rho_eps)))
    return IwahoriImage(value=value, measure=coset_measure(rs, lam))


def poincare_polynomial(rs: RootSystem) -> GroupRingElem:
    """sum_w q^{l(w)} as a constant group-ring element."""
    counts: QDict = {}
    for w in weyl_group(rs).elements:
        counts[w.length] = counts.get(w.length, 0) + 1
    return GroupRingElem.monomial((0,) * rs.rank, counts)


def dominant_coweights_up_to_height(rs: RootSystem, height: int) -> list[Coweight]:
    """All dominant coweights with coordinate sum at most ``height``, lex order."""
    out: list[Coweight] = []

    def rec(prefix: tuple[int, ...], remaining: int) -> None:
        if len(prefix) == rs.rank:
            out.append(prefix)
            return
        for c in range(remaining + 1):
            rec(prefix + (c,), remaining - c)

    rec((), height)
    return sorted(out)
