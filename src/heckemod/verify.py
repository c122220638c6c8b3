"""Machine verification of the operator identities, with negative controls.

Every verifier checks an exact identity on a deterministic box of test
monomials. It yields its checks into one loop, :func:`_checks`, one
``(holds, witness)`` pair per check. The loop counts them, stops at the first
that does not hold and only then calls ``witness()`` for the failure witness
of the :class:`VerifyResult`; a run with zero checks is a fail. Operator
equalities on the box extend to the whole module span by linearity, since
both sides are operators with bounded monomial spread there.

Each identity also accepts a named mutation that deliberately breaks one
ingredient; mutated runs must fail, and the test suite pins that they do.
Mutations are test-only controls applied inside their own verifiers: the
library functions take only their mathematical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from itertools import product as iproduct
from typing import Callable, NamedTuple

from .algebra import GroupRingElem, divide_by_binomials, multiply_binomials, specialize_q
from .characters import HeckeCharacter, character_by_name, characters
from .formulas import (
    bessel_value,
    casselman_shalika,
    demazure_character,
    dominant_coweights_up_to_height,
    in_family_b,
    macdonald,
    poincare_polynomial,
    shalika,
    theorem_lhs,
    theorem_rhs,
    weyl_character,
)
from .operators import (
    demazure,
    demazure_word,
    fraktur_t,
    intertwiner_op,
    s_image,
    sum_fraktur,
    t_act,
)
from .root_system import (
    Coweight,
    RootSystem,
    add_coweights,
    build_root_system,
    negate_coweight,
    orbit,
    reduced_word,
    reflect,
    require_walkable,
    rho,
)

#: Types exercised by the default verification run.
DEFAULT_TYPES = ("A1", "A2", "A3", "B2", "C2", "B3", "G2")

BOX_RADIUS_DEFAULT = 2
BOX_CAP_DEFAULT = 200


def monomial_box(rank: int, radius: int = BOX_RADIUS_DEFAULT, cap: int = BOX_CAP_DEFAULT) -> list[Coweight]:
    """Lex-ordered coweights in [-radius, radius]^rank, deterministically
    subsampled by a fixed stride when the box exceeds ``cap``.

    Raises ``ValueError`` for ``radius < 0`` or ``cap < 1``: neither gives a box.
    """
    if radius < 0:
        raise ValueError(f"box radius must be at least 0, got {radius}")
    if cap < 1:
        raise ValueError(f"box cap must be at least 1, got {cap}")
    box = list(iproduct(range(-radius, radius + 1), repeat=rank))
    if len(box) <= cap:
        return box
    stride = -(-len(box) // cap)  # ceil
    return box[::stride]


@dataclass
class VerifyResult:
    identity: str
    cartan: str
    character: str | None
    status: str  # "pass" or "fail"
    checked: int
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_obj(self) -> dict:
        out = {
            "identity": self.identity,
            "type": self.cartan,
            "character": self.character,
            "status": self.status,
            "checked": self.checked,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _checks(identity: str, rs: RootSystem, character: str | None, cases) -> VerifyResult:
    """The result of one identity from its ``(holds, witness)`` checks, as in the module docstring."""
    checked = 0
    witness = None
    for holds, explain in cases:
        checked += 1
        if not holds:
            witness = explain()
            break
    if checked == 0:
        witness = {"error": "nothing was checked"}
    status = "pass" if witness is None else "fail"
    return VerifyResult(identity, str(rs.cartan_type), character, status, checked, witness)


# --- structural identities -------------------------------------------------


def verify_quadratic(eps: HeckeCharacter, monomials, mutate: str | None = None) -> VerifyResult:
    """(T_{s_i} - q)(T_{s_i} + 1) = 0 on every test monomial and every i."""
    rs = eps.root_system
    acting = eps
    if mutate == "q-squared":  # the q eigenvalue replaced by q^2
        acting = replace(eps, eigenvalues=tuple({2: 1} if v == {1: 1} else v for v in eps.eigenvalues))

    def cases():
        for i in range(rs.rank):
            for mu in monomials:
                f = GroupRingElem.monomial(mu)
                tf = t_act(acting, i, f)
                lhs = t_act(acting, i, tf) + tf.scale_q({0: 1, 1: -1}) - f.scale_q({1: 1})
                yield lhs.is_zero(), lambda: {"i": i + 1, "mu": list(mu), "residual": lhs.to_str()}

    return _checks("quadratic", rs, eps.name, cases())


def verify_braid(eps: HeckeCharacter, monomials, mutate: str | None = None) -> VerifyResult:
    """T_w is the same along all reduced words of every Weyl element.

    Each reduced word's operator is one T_i on top of its parent's in the
    tree of all reduced words, and is compared with the element's reference
    T_{words[0]} f, itself one T_i on top of a shorter element's reference."""
    rs = eps.root_system
    require_walkable(rs)
    acting = eps
    if mutate == "mismatched-character":
        acting = next(c for c in characters(rs) if c.name != eps.name)

    @cache
    def reduced_words(x: Coweight) -> list[tuple[int, ...]]:
        """Every reduced word of the w with w(rho) = x, by its left descents,
        the negative coordinates of x."""
        if min(x) > 0:
            return [()]
        return [(i,) + rest for i, c in enumerate(x) if c < 0 for rest in reduced_words(reflect(rs, i, x))]

    def cases():
        # Each w in ShortLex order of its least reduced word, words[0], which
        # is the order in which BFS enumerates W.
        points = sorted(orbit(rs, rho(rs)), key=lambda x: (len(reduced_words(x)[0]), reduced_words(x)[0]))
        for mu in monomials:
            f = GroupRingElem.monomial(mu)
            # R_x = T_{words[0]} f under eps: words[0] without its first letter
            # i is the least word of s_i x, so R_x = T_i R_{s_i x}.
            references = {rho(rs): f}

            def reference(x: Coweight) -> GroupRingElem:
                if x not in references:
                    i = reduced_words(x)[0][0]
                    references[x] = t_act(eps, i, reference(reflect(rs, i, x)))
                return references[x]

            holds: dict[tuple[Coweight, tuple[int, ...]], bool] = {}

            def walk(word: tuple[int, ...], x: Coweight, value: GroupRingElem) -> None:
                # (i,) + word is reduced iff x[i] > 0, as in require_reduced.
                if len(reduced_words(x)) > 1:
                    holds[x, word] = value == reference(x)
                for i, c in enumerate(x):
                    if c > 0:
                        walk((i,) + word, reflect(rs, i, x), t_act(acting, i, value))

            walk((), rho(rs), f)
            for x in points:
                words = reduced_words(x)
                for word in words[1:]:
                    yield holds[x, word], lambda: {
                        "w": [i + 1 for i in words[0]], "word": [i + 1 for i in word], "mu": list(mu)}

    return _checks("braid", rs, eps.name, cases())


def verify_bernstein(eps: HeckeCharacter, mus, nus, mutate: str | None = None) -> VerifyResult:
    """T_{s_i} pi^mu = pi^{s_i mu} T_{s_i} + (1-q)(pi^{s_i mu} - pi^mu)/(1 - pi^{-a_i^vee})
    as operators on the module, checked on the monomial basis pi^nu.

    Both sides read T_{s_i} pi^x from one memo per i, the left at x = mu + nu
    and the right at x = nu, so each is computed once."""
    rs = eps.root_system
    correction_scale = {0: -1, 1: 1} if mutate == "flip-correction-sign" else {0: 1, 1: -1}

    def cases():
        for i in range(rs.rank):
            neg_av = negate_coweight(rs.simple_coroots[i])
            t_i: dict[Coweight, GroupRingElem] = {}

            def t_i_monomial(x: Coweight) -> GroupRingElem:
                if x not in t_i:
                    t_i[x] = t_act(eps, i, GroupRingElem.monomial(x))
                return t_i[x]

            for mu in mus:
                smu = reflect(rs, i, mu)
                difference = GroupRingElem.monomial(smu) - GroupRingElem.monomial(mu)
                correction = divide_by_binomials(difference, [neg_av], 0).scale_q(correction_scale)
                for nu in nus:
                    lhs = t_i_monomial(add_coweights(mu, nu))
                    rhs = t_i_monomial(nu).translated(smu) + correction.translated(nu)
                    yield lhs == rhs, lambda: {
                        "i": i + 1, "mu": list(mu), "nu": list(nu), "lhs": lhs.to_str(), "rhs": rhs.to_str()}

    return _checks("bernstein", rs, eps.name, cases())


def verify_deformed_demazure(eps: HeckeCharacter, monomials, mutate: str | None = None) -> VerifyResult:
    """1 + frak_t_i equals (1 - q pi^{a^vee}) d_i on the -1 classes and
    d_i (1 - q pi^{a^vee}) on the q classes."""
    rs = eps.root_system
    swap = mutate == "swap-cases"

    def cases():
        for i in range(rs.rank):
            av = rs.simple_coroots[i]
            neg_branch = eps.neg_at[i] != swap
            for mu in monomials:
                f = GroupRingElem.monomial(mu)
                lhs = f + fraktur_t(eps, i, f)
                if neg_branch:
                    rhs = multiply_binomials(demazure(rs, i, f), [av], 1)
                else:
                    rhs = demazure(rs, i, multiply_binomials(f, [av], 1))
                yield lhs == rhs, lambda: {"i": i + 1, "mu": list(mu), "lhs": lhs.to_str(), "rhs": rhs.to_str()}

    return _checks("deformed-demazure", rs, eps.name, cases())


def verify_rho_pairing(eps: HeckeCharacter, mutate: str | None = None) -> VerifyResult:
    """<alpha_i, rho_eps> is 1 exactly on the -1-class simple roots, else 0.

    One check per simple root, from the last one down, so a ``shift-rho``
    failure, which moves the first pairing, comes after all of them."""
    rs = eps.root_system
    shift = eps.rho_eps
    if mutate == "shift-rho":
        shift = tuple(c + (1 if k == 0 else 0) for k, c in enumerate(shift))
    expected = tuple(1 if neg else 0 for neg in eps.neg_at)
    cases = ((shift[i] == expected[i], lambda: {"rho_eps": list(shift), "expected": list(expected)})
             for i in reversed(range(rs.rank)))
    return _checks("rho-pairing", rs, eps.name, cases)


def verify_operator_identity(eps: HeckeCharacter, monomials, mutate: str | None = None) -> VerifyResult:
    """theorem_lhs(eps, mu) = theorem_rhs(eps, mu) on the test box. Omega is linear, so
    ``drop-sign-correction``, dropping its global (-1)^{l(w0)}, negates the
    right side when l(w0) = |Phi+| is odd."""
    flip = mutate == "drop-sign-correction" and len(eps.root_system.positive_roots) % 2

    def cases():
        for mu in monomials:
            lhs = theorem_lhs(eps, mu)
            rhs = -theorem_rhs(eps, mu) if flip else theorem_rhs(eps, mu)
            yield lhs == rhs, lambda: {"lambda": list(mu), "lhs": lhs.to_str(), "rhs": rhs.to_str()}

    return _checks("operator-identity", eps.root_system, eps.name, cases())


def verify_intertwiner(eps: HeckeCharacter, monomials, mutate: str | None = None) -> VerifyResult:
    """The normalized intertwiner acts as c * s_i with c decided by eps(T_{s_i}):
    c = 1 - q^-1 pi^{a^vee} for eigenvalue q, and c = pi^{a^vee} - q^-1
    = -q^-1 (1 - q pi^{a^vee}) for eigenvalue -1."""
    rs = eps.root_system
    swap = mutate == "swap-cases"

    def cases():
        for i in range(rs.rank):
            av = rs.simple_coroots[i]
            neg_branch = eps.neg_at[i] != swap
            for mu in monomials:
                f = GroupRingElem.monomial(mu)
                lhs = intertwiner_op(eps, i, f)
                rhs = multiply_binomials(s_image(rs, i, f), [av], 1 if neg_branch else -1)
                if neg_branch:
                    rhs = rhs.scale_q({-1: -1})
                yield lhs == rhs, lambda: {"i": i + 1, "mu": list(mu), "lhs": lhs.to_str(), "rhs": rhs.to_str()}

    return _checks("intertwiner", rs, eps.name, cases())


def verify_omega_symmetry(eps: HeckeCharacter, monomials, mutate: str | None = None) -> VerifyResult:
    """Cleared forms of the left and right symmetries of D_{-1}^-1 Theta D_q^-1.

    Left (s_i-invariance): D_{-1} * s_i(Theta pi^mu) = s_i(D_{-1}) * Theta pi^mu,
    where D_{-1} = prod (1 - q pi^{a^vee}) over the coroots a^vee of Phi_{-1}
    and s_i(D_{-1}) has the factors 1 - q pi^{s_i a^vee}. The classes are
    W-stable, so s_i permutes Phi_{-1} less alpha_i; the ring is a domain, so
    cancelling those factors keeps the verdict. The check runs the cleared form
    (1 - q pi^{a_i^vee}) s_i(Theta pi^mu) = (1 - q pi^{-a_i^vee}) Theta pi^mu
    when alpha_i is in Phi_{-1}, and s_i(Theta pi^mu) = Theta pi^mu otherwise.
    Right: Theta(g pi^{s_i mu}) = -Theta(g pi^{mu + a_i^vee}), with g = 1 on the
    -1 classes and g = 1 - q pi^{-a_i^vee} on the q classes.
    ``mutate="drop-right-sign"`` drops the minus sign of the right symmetry;
    ``mutate="unreflected-left"`` leaves the left factor unreflected on the
    right of the left symmetry.
    """
    rs = eps.root_system
    right_sign = 1 if mutate == "drop-right-sign" else -1

    def cases():
        for mu in monomials:
            theta = sum_fraktur(eps, GroupRingElem.monomial(mu))
            for i in range(rs.rank):
                vs = [rs.simple_coroots[i]] if eps.neg_at[i] else []
                lhs = multiply_binomials(s_image(rs, i, theta), vs, 1)
                svs = vs if mutate == "unreflected-left" else [reflect(rs, i, v) for v in vs]
                rhs = multiply_binomials(theta, svs, 1)
                yield lhs == rhs, lambda: {"side": "left", "i": i + 1, "mu": list(mu)}
        for i in range(rs.rank):
            av = rs.simple_coroots[i]
            g_coroots = [] if eps.neg_at[i] else [negate_coweight(av)]
            for mu in monomials:
                lhs = sum_fraktur(eps, multiply_binomials(GroupRingElem.monomial(reflect(rs, i, mu)), g_coroots, 1))
                start = GroupRingElem.monomial(tuple(a + b for a, b in zip(mu, av)))
                rhs = sum_fraktur(eps, multiply_binomials(start, g_coroots, 1)).scale(right_sign)
                yield lhs == rhs, lambda: {"side": "right", "i": i + 1, "mu": list(mu)}

    return _checks("omega-symmetry", rs, eps.name, cases())


# --- cross identities from the formula layer --------------------------------


def verify_q_zero_degeneration(eps: HeckeCharacter, monomials, mutate: str | None = None) -> VerifyResult:
    """At q = 0 the generator sum becomes the full divided-difference operator."""
    rs = eps.root_system
    w0_word = reduced_word(rs, negate_coweight(rho(rs)))  # w0 maps rho to -rho
    q = 1 if mutate == "wrong-specialization" else 0

    def cases():
        for mu in monomials:
            f = GroupRingElem.monomial(mu)
            lhs = specialize_q(sum_fraktur(eps, f), q)
            rhs = demazure_word(rs, w0_word, f)
            yield lhs == rhs, lambda: {"mu": list(mu), "lhs": lhs.to_str(), "rhs": rhs.to_str()}

    return _checks("q-zero-degeneration", rs, eps.name, cases())


def verify_character_formulas(rs: RootSystem, mutate: str | None = None) -> VerifyResult:
    """Weyl character equals the Demazure composition for dominant coweights."""

    def cases():
        for lam in dominant_coweights_up_to_height(rs, 4):
            lhs = demazure_character(rs, lam)
            rhs = weyl_character(rs, lam)
            if mutate == "drop-rho-shift":
                rhs = rhs.translated(tuple(1 if k == 0 else 0 for k in range(rs.rank)))
            yield lhs == rhs, lambda: {"lambda": list(lam), "lhs": lhs.to_str(), "rhs": rhs.to_str()}

    return _checks("character-formulas", rs, None, cases())


def verify_casselman_shalika(rs: RootSystem, mutate: str | None = None) -> VerifyResult:
    """Closed Whittaker form equals the sign-character operator sum."""

    def cases():
        for lam in dominant_coweights_up_to_height(rs, 3):
            cs = casselman_shalika(rs, lam)
            closed = cs.closed_form
            if mutate == "drop-q-power":
                closed = closed.scale_q({-len(rs.positive_roots): 1})  # l(w0) = |Phi+|
            yield closed == cs.theorem_form, lambda: {
                "lambda": list(lam), "closed": closed.to_str(), "theorem": cs.theorem_form.to_str()}

    return _checks("casselman-shalika", rs, "sign", cases())


def verify_macdonald(rs: RootSystem, mutate: str | None = None) -> VerifyResult:
    """Macdonald's spherical sum equals the trivial-character operator sum; at
    lambda = 0 both equal the Poincare polynomial. ``drop-first-letter`` runs
    the Demazure side along w0's word less its first letter; ``shift-poincare``
    perturbs the Poincare polynomial."""
    trv = character_by_name(rs, "triv")

    def cases():
        for lam in dominant_coweights_up_to_height(rs, 3):
            if mutate == "drop-first-letter":
                num = multiply_binomials(GroupRingElem.monomial(lam), rs.positive_coroots, 1)
                lhs = demazure_word(rs, reduced_word(rs, negate_coweight(rho(rs)))[1:], num)
            else:
                lhs = macdonald(rs, lam)
            rhs = theorem_lhs(trv, lam)
            yield lhs == rhs, lambda: {"lambda": list(lam), "lhs": lhs.to_str(), "rhs": rhs.to_str()}
        poincare = poincare_polynomial(rs)
        if mutate == "shift-poincare":
            poincare = poincare.scale_q({1: 1})
        yield macdonald(rs, (0,) * rs.rank) == poincare, lambda: {
            "lambda": [0] * rs.rank, "expected": poincare.to_str()}

    return _checks("macdonald", rs, "triv", cases())


def verify_bessel_intertwiner(rs: RootSystem, monomials, mutate: str | None = None) -> VerifyResult:
    """Short simple roots act spherically, long ones Whittaker-like, under neg-long."""
    eps = character_by_name(rs, "neg-long")
    return replace(verify_intertwiner(eps, monomials, mutate=mutate), identity="bessel-intertwiner")


def verify_bessel_value(rs: RootSystem, mutate: str | None = None) -> VerifyResult:
    """On B_n the neg-long value at lambda = 0 equals q^{n-1} (1 + q) times
    pi^{-rho_eps} * prod_{long a>0} (1 - q pi^{a^vee}), as derived from the
    alternator side in :class:`heckemod.formulas.BesselValue`. The witness
    also reports whether the quoted unit-monomial form holds."""
    report = bessel_value(rs)
    n = rs.rank
    expected = GroupRingElem.monomial((0,) * n, {n - 1: 1, n: 1})
    if mutate == "drop-cofactor":
        expected = GroupRingElem.one(n)
    actual = report.q_form_cofactor
    return _checks("bessel-value", rs, "neg-long", [(actual == expected, lambda: {
        "cofactor": actual.to_str(), "expected": expected.to_str(), "unit_ratio_to_quoted": report.unit_ratio})])


def verify_shalika(rs: RootSystem, mutate: str | None = None) -> VerifyResult:
    """The two displayed Shalika evaluations agree for dominant coweights."""

    def cases():
        for lam in dominant_coweights_up_to_height(rs, 2):
            forms = shalika(rs, lam)
            rewritten = forms.rewritten_form
            if mutate == "drop-long-q-power":
                eps = character_by_name(rs, "neg-short")
                rewritten = rewritten.scale_q({-len(eps.phi_q): 1})
            yield forms.theorem_form == rewritten, lambda: {
                "lambda": list(lam), "theorem": forms.theorem_form.to_str(), "rewritten": rewritten.to_str()}

    return _checks("shalika", rs, "neg-short", cases())


# --- suite registry ----------------------------------------------------------


class Suite(NamedTuple):
    """One registered suite.

    ``run(subject, box, small, mutate)`` runs the verifier on one character
    (``per_character``) or on the root system, with the suite's own slices of
    the main box and of the fixed radius-1 box ``small``. The verifier is
    looked up by name on each call, so a wrapper installed on the module
    attribute sees every run. ``mutations`` are the suite's negative
    controls; the benchmark runs the first one.
    """

    per_character: bool
    applies: Callable[[RootSystem], bool]
    mutations: tuple[str, ...]
    run: Callable[..., VerifyResult]


def _any_type(rs: RootSystem) -> bool:
    return True


def _rank_two_up(rs: RootSystem) -> bool:
    # In rank one no element has two reduced words, so braid has nothing to check.
    return rs.rank >= 2


SUITES: dict[str, Suite] = {
    "quadratic": Suite(True, _any_type, ("q-squared",),
                       lambda eps, box, small, m: verify_quadratic(eps, box, mutate=m)),
    "braid": Suite(True, _rank_two_up, ("mismatched-character",),
                   lambda eps, box, small, m: verify_braid(eps, small[:2], mutate=m)),
    "bernstein": Suite(True, _any_type, ("flip-correction-sign",),
                       lambda eps, box, small, m: verify_bernstein(eps, box[:40], small[:9], mutate=m)),
    "deformed-demazure": Suite(True, _any_type, ("swap-cases",),
                               lambda eps, box, small, m: verify_deformed_demazure(eps, box, mutate=m)),
    "rho-pairing": Suite(True, _any_type, ("shift-rho",),
                         lambda eps, box, small, m: verify_rho_pairing(eps, mutate=m)),
    "operator-identity": Suite(True, _any_type, ("drop-sign-correction",),
                               lambda eps, box, small, m: verify_operator_identity(eps, box, mutate=m)),
    "intertwiner": Suite(True, _any_type, ("swap-cases",),
                         lambda eps, box, small, m: verify_intertwiner(eps, box, mutate=m)),
    "omega-symmetry": Suite(True, _any_type, ("drop-right-sign", "unreflected-left"),
                            lambda eps, box, small, m: verify_omega_symmetry(eps, small, mutate=m)),
    "q-zero-degeneration": Suite(True, _any_type, ("wrong-specialization",),
                                 lambda eps, box, small, m: verify_q_zero_degeneration(eps, box, mutate=m)),
    "character-formulas": Suite(False, _any_type, ("drop-rho-shift",),
                                lambda rs, box, small, m: verify_character_formulas(rs, mutate=m)),
    "casselman-shalika": Suite(False, _any_type, ("drop-q-power",),
                               lambda rs, box, small, m: verify_casselman_shalika(rs, mutate=m)),
    "macdonald": Suite(False, _any_type, ("shift-poincare", "drop-first-letter"),
                       lambda rs, box, small, m: verify_macdonald(rs, mutate=m)),
    "bessel-intertwiner": Suite(False, in_family_b, ("swap-cases",),
                                lambda rs, box, small, m: verify_bessel_intertwiner(rs, box, mutate=m)),
    "bessel-value": Suite(False, in_family_b, ("drop-cofactor",),
                          lambda rs, box, small, m: verify_bessel_value(rs, mutate=m)),
    "shalika": Suite(False, in_family_b, ("drop-long-q-power",),
                     lambda rs, box, small, m: verify_shalika(rs, mutate=m)),
}

#: mutation -> every suite that registers it, in registry order.
MUTATION_SUITES: dict[str, tuple[str, ...]] = {
    mutation: tuple(name for name, suite in SUITES.items() if mutation in suite.mutations)
    for suite in SUITES.values()
    for mutation in suite.mutations
}


def _registered(registry: dict, name: str, what: str):
    """registry[name]; ``ValueError`` naming the known entries when it has none."""
    try:
        return registry[name]
    except KeyError:
        raise ValueError(f"unknown {what} {name!r}; known: {sorted(registry)}") from None


def run_suite(
    suite: str,
    type_name: str,
    radius: int = BOX_RADIUS_DEFAULT,
    cap: int = BOX_CAP_DEFAULT,
    mutate: str | None = None,
) -> list[VerifyResult]:
    """Run one named suite on one type; returns one result per character when
    the suite is character-indexed, and none when it does not apply. An
    unknown suite, or a mutation the suite does not register, raises
    ``ValueError``."""
    rs = build_root_system(type_name)
    entry = _registered(SUITES, suite, "suite")
    if mutate is not None and mutate not in entry.mutations:
        raise ValueError(f"suite {suite!r} registers no mutation {mutate!r}; registered: {list(entry.mutations)}")
    if not entry.applies(rs):
        return []
    box = monomial_box(rs.rank, radius, cap)
    small = monomial_box(rs.rank, 1, 30)
    subjects = characters(rs) if entry.per_character else [rs]
    return [entry.run(subject, box, small, mutate) for subject in subjects]


def suite_tasks(types, suites=None, mutate: str | None = None, max_rank: int | None = None) -> list[tuple[str, str]]:
    """(suite, type) pairs to run, types outermost, each suite only on the types
    it applies to. ``suites`` defaults to all of them; a mutation keeps only
    the selected suites that own it. Repeated types (``A1`` and ``a1`` are
    the same) and suites count once, in first-seen order. An unknown
    mutation or suite raises ``ValueError``; the mutation is checked first."""
    owners = SUITES if mutate is None else _registered(MUTATION_SUITES, mutate, "mutation")
    suites = list(SUITES) if suites is None else list(dict.fromkeys(suites))
    for s in suites:
        _registered(SUITES, s, "suite")
    suites = [s for s in suites if s in owners]
    tasks = []
    seen = set()
    for type_name in types:
        rs = build_root_system(type_name)
        if rs.cartan_type in seen or (max_rank is not None and rs.rank > max_rank):
            continue
        seen.add(rs.cartan_type)
        tasks.extend((suite, type_name) for suite in suites if SUITES[suite].applies(rs))
    return tasks


def run_verification(
    types=DEFAULT_TYPES,
    suites=None,
    radius: int = BOX_RADIUS_DEFAULT,
    cap: int = BOX_CAP_DEFAULT,
    mutate: str | None = None,
    max_rank: int | None = None,
) -> list[VerifyResult]:
    """Run suites over types; with a mutation, only the selected suites owning it run."""
    results: list[VerifyResult] = []
    for suite, type_name in suite_tasks(types, suites, mutate, max_rank):
        results.extend(run_suite(suite, type_name, radius=radius, cap=cap, mutate=mutate))
    results.sort(key=lambda r: (r.identity, r.cartan, r.character or ""))
    return results
