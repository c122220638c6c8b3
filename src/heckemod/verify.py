"""Machine verification of the operator identities, with negative controls.

Every verifier checks an exact identity on a deterministic box of test
monomials. It yields its checks into one loop, :func:`_checks`, one
``(holds, witness)`` pair per check. The loop counts them, stops at the first
that does not hold and only then calls ``witness()`` for the failure witness
of the :class:`VerifyResult`; a run with zero checks is a fail. A pass shows
the identity on the box's monomials, and so, both sides being linear, on
their span; it proves nothing about a monomial outside the box.

Each identity also accepts a named mutation that deliberately breaks one
ingredient; mutated runs must fail, and the test suite pins that they do.
Mutations are test-only controls applied inside their own verifiers: the
library functions take only their mathematical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from itertools import groupby
from typing import Callable, NamedTuple

from .algebra import GroupRingElem, divide_by_binomials, from_integers, multiply_binomials, s_image
from .characters import HeckeCharacter, character_by_name, characters
from .errors import UnknownName
from .formulas import (
    casselman_shalika,
    demazure_character,
    dominant_coweights_up_to_height,
    in_family_b,
    macdonald,
    shalika,
    theorem_lhs,
    theorem_rhs,
    value_at_zero,
    weyl_character,
)
from .operators import (
    demazure,
    demazure_word,
    fraktur_t,
    intertwiner_op,
    level_walk,
    sum_fraktur,
    t_act,
)
from .root_system import (
    Coweight,
    RootSystem,
    add_coweights,
    build_root_system,
    longest_word,
    negate_coweight,
    orbit,
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

    Only the kept points are built: the k-th in lex order has the base
    2 * radius + 1 digits of k, each less ``radius``, as its coordinates.

    Raises ``ValueError`` for ``radius < 0`` or ``cap < 1``: neither gives a box.
    """
    if radius < 0:
        raise ValueError(f"box radius must be at least 0, got {radius}")
    if cap < 1:
        raise ValueError(f"box cap must be at least 1, got {cap}")
    side = 2 * radius + 1
    places = [side**j for j in reversed(range(rank))]
    stride = -(-side**rank // cap)  # ceil; 1 when the whole box fits
    return [tuple(k // p % side - radius for p in places) for k in range(0, side**rank, stride)]


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


def result_order(r: VerifyResult) -> tuple[str, str, str]:
    """The order results are reported in: by identity, type, then character."""
    return r.identity, r.cartan, r.character or ""


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
                yield not lhs, lambda: {"i": i + 1, "mu": list(mu), "residual": lhs.to_str()}

    return _checks("quadratic", rs, eps.name, cases())


def verify_braid(eps: HeckeCharacter, monomials, mutate: str | None = None) -> VerifyResult:
    """T_w is the same along all reduced words of every Weyl element.

    The elements x = w(rho) come in ShortLex order of their least reduced
    word, words[0], and R_x = T_{words[0]} f is T_i R_{s_i x} with
    i = words[0][0]. Each other word (i,) + rest of x is checked as
    T_i R_{s_i x} = R_x. By induction on length this covers the whole word:
    rest is a reduced word of the shorter s_i x, all of whose words gave
    R_{s_i x} before x came up (the word property; Matsumoto 1964,
    Bjorner-Brenti, Combinatorics of Coxeter Groups, 3.3). One memo per
    monomial holds R^c_x under a character c, and each T_i R^c_{s_i x} is
    computed once. The control's word side acts by another character, which
    satisfies the braid relations too, so its checks fail where a check of
    every word's full T_w f would."""
    rs = eps.root_system
    require_walkable(rs)
    acting = eps
    if mutate == "mismatched-character":
        acting = next(c for c in characters(rs) if c.name != eps.name)

    @cache
    def reduced_words(x: Coweight) -> list[tuple[int, ...]]:
        """Every reduced word of the w with w(rho) = x in lex order, by its
        left descents, the negative coordinates of x."""
        if min(x) > 0:
            return [()]
        return [(i,) + rest for i, c in enumerate(x) if c < 0 for rest in reduced_words(reflect(rs, i, x))]

    def cases():
        points = sorted(orbit(rs, rho(rs)), key=lambda x: (len(reduced_words(x)[0]), reduced_words(x)[0]))
        for mu in monomials:
            f = GroupRingElem.monomial(mu)

            @cache
            def reference(c: HeckeCharacter, x: Coweight) -> GroupRingElem:
                """R^c_x, T_w f under c along x's least word."""
                return f if min(x) > 0 else step(c, x, reduced_words(x)[0][0])

            def step(c: HeckeCharacter, x: Coweight, i: int) -> GroupRingElem:
                """T_i R^c_{s_i x}."""
                return t_act(c, i, reference(c, reflect(rs, i, x)))

            for x in points:
                words = reduced_words(x)
                # The words with one first letter i are adjacent and share T_i R_{s_i x}.
                for i, group in groupby(words[1:], key=lambda word: word[0]):
                    side = reference(acting, x) if i == words[0][0] else step(acting, x, i)
                    for word in group:
                        yield side == reference(eps, x), lambda: {
                            "w": [j + 1 for j in words[0]], "word": [j + 1 for j in word], "mu": list(mu)}

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
    -1 classes and g = 1 - q pi^{-a_i^vee} on the q classes. Theta is linear,
    so each right check is one walk: Theta(g (pi^{s_i mu} + pi^{mu + a_i^vee})) = 0.
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
                start = (GroupRingElem.monomial(reflect(rs, i, mu))
                         + GroupRingElem.monomial(add_coweights(mu, av), -right_sign))
                yield not sum_fraktur(eps, multiply_binomials(start, g_coroots, 1)), lambda: {
                    "side": "right", "i": i + 1, "mu": list(mu)}

    return _checks("omega-symmetry", rs, eps.name, cases())


# --- cross identities from the formula layer --------------------------------


def verify_q_zero_degeneration(eps: HeckeCharacter, monomials, mutate: str | None = None) -> VerifyResult:
    """At q = 0 the generator sum becomes the full divided-difference operator
    d_{w0} (Brubaker-Bump-Licata, arXiv:1111.4230).

    The walk is :func:`heckemod.operators.level_walk` at q = 0 from the
    start: eps(T_{s_i}) at q = 0 is -1 on the -1 classes and 0 on the q
    classes, and 1 - q is 1. Setting q to a value is a ring map
    Z[q][P^vee] -> Z[P^vee] that fixes every pi^mu and commutes with s_i and
    with G_i, whose coefficients are integers. Every input monomial, every
    eigenvalue (-1 or q) and 1 - q lies in Z[q], so the map commutes with
    every T_{s_i} and takes sum_w frak_t_w pi^mu to this walk exactly.
    ``wrong-specialization`` runs the same walk at q = 1: eigenvalues -1 and
    1, and no G_i term."""
    rs = eps.root_system
    w0_word = longest_word(rs)
    q = 1 if mutate == "wrong-specialization" else 0

    def cases():
        for mu in monomials:
            f = GroupRingElem.monomial(mu)
            lhs = from_integers(rs.rank, level_walk(eps, q, f))
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
    sgn = character_by_name(rs, "sign")

    def cases():
        for lam in dominant_coweights_up_to_height(rs, 3):
            closed = casselman_shalika(rs, lam)
            if mutate == "drop-q-power":
                closed = closed.scale_q({-len(rs.positive_roots): 1})  # l(w0) = |Phi+|
            theorem = theorem_lhs(sgn, lam)
            yield closed == theorem, lambda: {
                "lambda": list(lam), "closed": closed.to_str(), "theorem": theorem.to_str()}

    return _checks("casselman-shalika", rs, "sign", cases())


def verify_macdonald(rs: RootSystem, mutate: str | None = None) -> VerifyResult:
    """Macdonald's spherical sum equals the trivial-character operator sum.
    ``drop-first-letter`` runs the Demazure side along w0's word less its
    first letter."""
    trv = character_by_name(rs, "triv")

    def cases():
        for lam in dominant_coweights_up_to_height(rs, 3):
            if mutate == "drop-first-letter":
                num = multiply_binomials(GroupRingElem.monomial(lam), rs.positive_coroots, 1)
                lhs = demazure_word(rs, longest_word(rs)[1:], num)
            else:
                lhs = macdonald(rs, lam)
            rhs = theorem_lhs(trv, lam)
            yield lhs == rhs, lambda: {"lambda": list(lam), "lhs": lhs.to_str(), "rhs": rhs.to_str()}

    return _checks("macdonald", rs, "triv", cases())


def verify_value_at_zero(eps: HeckeCharacter, mutate: str | None = None) -> VerifyResult:
    """value_at_zero(eps) equals theorem_lhs(eps, 0). ``shift-poincare`` multiplies
    the closed form by q, which fails on every row: the value is nonzero."""
    rs = eps.root_system
    closed = value_at_zero(eps)
    if mutate == "shift-poincare":
        closed = closed.scale_q({1: 1})
    theorem = theorem_lhs(eps, (0,) * rs.rank)
    return _checks("value-at-zero", rs, eps.name, [(closed == theorem, lambda: {
        "closed": closed.to_str(), "theorem": theorem.to_str()})])


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
    "macdonald": Suite(False, _any_type, ("drop-first-letter",),
                       lambda rs, box, small, m: verify_macdonald(rs, mutate=m)),
    "value-at-zero": Suite(True, _any_type, ("shift-poincare",),
                           lambda eps, box, small, m: verify_value_at_zero(eps, mutate=m)),
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
    """registry[name]; :class:`UnknownName` naming the known entries when it has none."""
    try:
        return registry[name]
    except KeyError:
        raise UnknownName(f"unknown {what} {name!r}; known: {sorted(registry)}") from None


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
    :class:`UnknownName`."""
    rs = build_root_system(type_name)
    entry = _registered(SUITES, suite, "suite")
    if mutate is not None and mutate not in entry.mutations:
        raise UnknownName(f"suite {suite!r} registers no mutation {mutate!r}; registered: {list(entry.mutations)}")
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
    mutation or suite raises :class:`UnknownName`; the mutation is checked first."""
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

