"""Machine verification of the operator identities, with negative controls.

Every verifier checks an exact identity on a deterministic box of test
monomials and returns a :class:`VerifyResult` carrying the first witness on
failure. Operator equalities on the box extend to the whole module span by
linearity, since both sides are operators with bounded monomial spread there.

Each structural identity also accepts a named mutation that deliberately
breaks one ingredient; mutated runs must fail, and the test suite pins that
they do. Mutations are test-only controls, never part of normal evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Callable, NamedTuple

from .algebra import GroupRingElem, exact_div, specialize_q
from .characters import HeckeCharacter, character_by_name, characters
from .formulas import (
    bessel_value,
    casselman_shalika,
    demazure_character,
    dominant_coweights_up_to_height,
    in_family_b,
    macdonald,
    multiply_binomials,
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
    t_word,
    weyl_group,
)
from .root_system import (
    Coweight,
    RootSystem,
    _matmul,
    build_root_system,
    negate_coweight,
    reflect,
    simple_reflection_matrix,
)

#: Types exercised by the default verification run.
DEFAULT_TYPES = ("A1", "A2", "A3", "B2", "C2", "B3", "G2")

BOX_RADIUS_DEFAULT = 2
BOX_CAP_DEFAULT = 200


def monomial_box(rank: int, radius: int = BOX_RADIUS_DEFAULT, cap: int = BOX_CAP_DEFAULT) -> list[Coweight]:
    """Lex-ordered coweights in [-radius, radius]^rank, deterministically
    subsampled by a fixed stride when the box exceeds ``cap``."""
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


def _result(identity, eps_or_rs, character, checked, witness=None) -> VerifyResult:
    """A pass when nothing failed, unless nothing was checked at all."""
    rs = eps_or_rs.root_system if isinstance(eps_or_rs, HeckeCharacter) else eps_or_rs
    if checked == 0 and witness is None:
        witness = {"error": "nothing was checked"}
    return VerifyResult(
        identity=identity,
        cartan=str(rs.cartan_type),
        character=character,
        status="pass" if witness is None else "fail",
        checked=checked,
        witness=witness,
    )


class _QSquaredCharacter(HeckeCharacter):
    """Negative control: the q eigenvalue replaced by q^2."""

    def eigenvalue(self, length_class):
        v = super().eigenvalue(length_class)
        return {2: 1} if v == {1: 1} else v


def _maybe_mutate_character(eps: HeckeCharacter, mutate: str | None) -> HeckeCharacter:
    if mutate == "q-squared":
        return _QSquaredCharacter(eps.root_system, eps.name, eps.neg_classes)
    return eps


# --- structural identities -------------------------------------------------


def verify_quadratic(eps: HeckeCharacter, monomials, mutate: str | None = None) -> VerifyResult:
    """(T_{s_i} - q)(T_{s_i} + 1) = 0 on every test monomial and every i."""
    rs = eps.root_system
    acting = _maybe_mutate_character(eps, mutate)
    checked = 0
    for i in range(rs.rank):
        for mu in monomials:
            f = GroupRingElem.monomial(mu)
            tf = t_act(acting, i, f)
            lhs = t_act(acting, i, tf) + tf.scale_q({0: 1, 1: -1}) - f.scale_q({1: 1})
            checked += 1
            if not lhs.is_zero():
                return _result(
                    "quadratic", eps, eps.name, checked,
                    {"i": i + 1, "mu": list(mu), "residual": lhs.to_str()},
                )
    return _result("quadratic", eps, eps.name, checked)


def _reduced_words(rs: RootSystem, w, cache) -> list[tuple[int, ...]]:
    got = cache.get(w.action)
    if got is not None:
        return got
    if w.length == 0:
        out = [()]
    else:
        g = weyl_group(rs)
        out = []
        for i in range(rs.rank):
            v = g.element_of_matrix(_matmul(simple_reflection_matrix(rs, i), w.action))
            if v.length == w.length - 1:
                out.extend((i,) + rest for rest in _reduced_words(rs, v, cache))
    cache[w.action] = out
    return out


def verify_braid(eps: HeckeCharacter, monomials, mutate: str | None = None) -> VerifyResult:
    """t_word agrees across all reduced words of every Weyl element."""
    rs = eps.root_system
    g = weyl_group(rs)
    other = None
    if mutate == "mismatched-character":
        pool = [c for c in characters(rs) if c.name != eps.name]
        other = pool[0]
    cache: dict = {}
    checked = 0
    for mu in monomials:
        f = GroupRingElem.monomial(mu)
        for w in g.elements:
            words = _reduced_words(rs, w, cache)
            if len(words) < 2:
                continue
            reference = t_word(eps, words[0], f)
            for word in words[1:]:
                value = t_word(other if other is not None else eps, word, f)
                checked += 1
                if value != reference:
                    return _result(
                        "braid", eps, eps.name, checked,
                        {"w": [i + 1 for i in w.word], "word": [i + 1 for i in word],
                         "mu": list(mu)},
                    )
    return _result("braid", eps, eps.name, checked)


def verify_bernstein(eps: HeckeCharacter, mus, nus, mutate: str | None = None) -> VerifyResult:
    """T_{s_i} pi^mu = pi^{s_i mu} T_{s_i} + (1-q)(pi^{s_i mu} - pi^mu)/(1 - pi^{-a_i^vee})
    as operators on the module, checked on the monomial basis pi^nu."""
    rs = eps.root_system
    correction_scale = {0: -1, 1: 1} if mutate == "flip-correction-sign" else {0: 1, 1: -1}
    checked = 0
    for i in range(rs.rank):
        neg_av = negate_coweight(rs.simple_coroots[i])
        denom = GroupRingElem.one(rs.rank) - GroupRingElem.monomial(neg_av)
        for mu in mus:
            smu = reflect(rs, i, mu)
            correction = exact_div(
                GroupRingElem.monomial(smu) - GroupRingElem.monomial(mu), denom
            ).scale_q(correction_scale)
            for nu in nus:
                basis = GroupRingElem.monomial(nu)
                lhs = t_act(eps, i, GroupRingElem.monomial(tuple(a + b for a, b in zip(mu, nu))))
                rhs = t_act(eps, i, basis).translated(smu) + correction.translated(nu)
                checked += 1
                if lhs != rhs:
                    return _result(
                        "bernstein", eps, eps.name, checked,
                        {"i": i + 1, "mu": list(mu), "nu": list(nu),
                         "lhs": lhs.to_str(), "rhs": rhs.to_str()},
                    )
    return _result("bernstein", eps, eps.name, checked)


def verify_deformed_demazure(eps: HeckeCharacter, monomials, mutate: str | None = None) -> VerifyResult:
    """1 + frak_t_i equals (1 - q pi^{a^vee}) d_i on the -1 classes and
    d_i (1 - q pi^{a^vee}) on the q classes."""
    rs = eps.root_system
    checked = 0
    for i in range(rs.rank):
        av = rs.simple_coroots[i]
        neg_branch = eps.is_neg_at(i)
        if mutate == "swap-cases":
            neg_branch = not neg_branch
        for mu in monomials:
            f = GroupRingElem.monomial(mu)
            lhs = f + fraktur_t(eps, i, f)
            if neg_branch:
                d = demazure(rs, i, f)
                rhs = d - d.translated(av).scale_q({1: 1})
            else:
                rhs = demazure(rs, i, f - f.translated(av).scale_q({1: 1}))
            checked += 1
            if lhs != rhs:
                return _result(
                    "deformed-demazure", eps, eps.name, checked,
                    {"i": i + 1, "mu": list(mu), "lhs": lhs.to_str(), "rhs": rhs.to_str()},
                )
    return _result("deformed-demazure", eps, eps.name, checked)


def verify_rho_pairing(eps: HeckeCharacter, mutate: str | None = None) -> VerifyResult:
    """<alpha_i, rho_eps> is 1 exactly on the -1-class simple roots, else 0."""
    rs = eps.root_system
    shift = eps.rho_eps
    if mutate == "shift-rho":
        shift = tuple(c + (1 if k == 0 else 0) for k, c in enumerate(shift))
    expected = tuple(1 if eps.is_neg_at(i) else 0 for i in range(rs.rank))
    if shift != expected:
        return _result(
            "rho-pairing", eps, eps.name, rs.rank,
            {"rho_eps": list(shift), "expected": list(expected)},
        )
    return _result("rho-pairing", eps, eps.name, rs.rank)


def verify_operator_identity(eps: HeckeCharacter, monomials, mutate: str | None = None) -> VerifyResult:
    """theorem_lhs(eps, mu) = theorem_rhs(eps, mu) on the test box."""
    checked = 0
    for mu in monomials:
        lhs = theorem_lhs(eps, mu)
        rhs = theorem_rhs(eps, mu, sign_corrected=(mutate != "drop-sign-correction"))
        checked += 1
        if lhs != rhs:
            return _result(
                "operator-identity", eps, eps.name, checked,
                {"lambda": list(mu), "lhs": lhs.to_str(), "rhs": rhs.to_str()},
            )
    return _result("operator-identity", eps, eps.name, checked)


def verify_intertwiner(eps: HeckeCharacter, monomials, mutate: str | None = None) -> VerifyResult:
    """The normalized intertwiner acts as c * s_i with c decided by eps(T_{s_i}):
    1 - q^-1 pi^{a^vee} for eigenvalue q, pi^{a^vee} - q^-1 for eigenvalue -1."""
    rs = eps.root_system
    checked = 0
    for i in range(rs.rank):
        av = rs.simple_coroots[i]
        neg_branch = eps.is_neg_at(i)
        if mutate == "swap-cases":
            neg_branch = not neg_branch
        if neg_branch:
            c = GroupRingElem.monomial(av) - GroupRingElem.monomial((0,) * rs.rank, {-1: 1})
        else:
            c = GroupRingElem.one(rs.rank) - GroupRingElem.monomial(av, {-1: 1})
        for mu in monomials:
            f = GroupRingElem.monomial(mu)
            lhs = intertwiner_op(eps, i, f)
            rhs = c * s_image(rs, i, f)
            checked += 1
            if lhs != rhs:
                return _result(
                    "intertwiner", eps, eps.name, checked,
                    {"i": i + 1, "mu": list(mu), "lhs": lhs.to_str(), "rhs": rhs.to_str()},
                )
    return _result("intertwiner", eps, eps.name, checked)


def verify_omega_symmetry(eps: HeckeCharacter, monomials, mutate: str | None = None) -> VerifyResult:
    """Cleared forms of the left and right symmetries of D_{-1}^-1 Theta D_q^-1.

    Left (s_i-invariance): D_{-1} * s_i(Theta pi^mu) = s_i(D_{-1}) * Theta pi^mu.
    Right: Theta(g pi^{s_i mu}) = -Theta(g pi^{mu + a_i^vee}), with g = 1 on the
    -1 classes and g = 1 - q pi^{-a_i^vee} on the q classes.
    ``mutate="drop-right-sign"`` drops the minus sign of the right symmetry.
    """
    rs = eps.root_system
    right_sign = 1 if mutate == "drop-right-sign" else -1
    d_minus = multiply_binomials(rs, GroupRingElem.one(rs.rank), eps.phi_minus, 1, +1)
    checked = 0
    for mu in monomials:
        theta = sum_fraktur(eps, GroupRingElem.monomial(mu))
        for i in range(rs.rank):
            lhs = d_minus * s_image(rs, i, theta)
            rhs = s_image(rs, i, d_minus) * theta
            checked += 1
            if lhs != rhs:
                return _result(
                    "omega-symmetry", eps, eps.name, checked,
                    {"side": "left", "i": i + 1, "mu": list(mu)},
                )
    for i in range(rs.rank):
        av = rs.simple_coroots[i]
        if eps.is_neg_at(i):
            g = GroupRingElem.one(rs.rank)
        else:
            g = GroupRingElem.one(rs.rank) - GroupRingElem.monomial(negate_coweight(av), {1: 1})
        for mu in monomials:
            smu = reflect(rs, i, mu)
            lhs = sum_fraktur(eps, g.translated(smu))
            rhs = sum_fraktur(eps, g.translated(tuple(a + b for a, b in zip(mu, av)))).scale(right_sign)
            checked += 1
            if lhs != rhs:
                return _result(
                    "omega-symmetry", eps, eps.name, checked,
                    {"side": "right", "i": i + 1, "mu": list(mu)},
                )
    return _result("omega-symmetry", eps, eps.name, checked)


# --- cross identities from the formula layer --------------------------------


def verify_q_zero_degeneration(eps: HeckeCharacter, monomials, mutate: str | None = None) -> VerifyResult:
    """At q = 0 the generator sum becomes the full divided-difference operator."""
    rs = eps.root_system
    w0 = weyl_group(rs).longest
    checked = 0
    for mu in monomials:
        f = GroupRingElem.monomial(mu)
        lhs = specialize_q(sum_fraktur(eps, f), 0)
        rhs = demazure_word(rs, w0.word, f)
        if mutate == "wrong-specialization":
            lhs = specialize_q(sum_fraktur(eps, f), 1)
        checked += 1
        if lhs != rhs:
            return _result(
                "q-zero-degeneration", eps, eps.name, checked,
                {"mu": list(mu), "lhs": lhs.to_str(), "rhs": rhs.to_str()},
            )
    return _result("q-zero-degeneration", eps, eps.name, checked)


def verify_character_formulas(rs: RootSystem, height: int = 4, mutate: str | None = None) -> VerifyResult:
    """Weyl character equals the Demazure composition for dominant coweights."""
    checked = 0
    for lam in dominant_coweights_up_to_height(rs, height):
        lhs = demazure_character(rs, lam)
        rhs = _wrapped_weyl_character(rs, lam, mutate)
        checked += 1
        if lhs != rhs:
            return _result(
                "character-formulas", rs, None, checked,
                {"lambda": list(lam), "lhs": lhs.to_str(), "rhs": rhs.to_str()},
            )
    return _result("character-formulas", rs, None, checked)


def _wrapped_weyl_character(rs, lam, mutate):
    chi = weyl_character(rs, lam)
    if mutate == "drop-rho-shift":
        chi = chi.translated(tuple(1 if k == 0 else 0 for k in range(rs.rank)))
    return chi


def verify_casselman_shalika(rs: RootSystem, height: int = 3, mutate: str | None = None) -> VerifyResult:
    """Closed Whittaker form equals the sign-character operator sum."""
    checked = 0
    for lam in dominant_coweights_up_to_height(rs, height):
        cs = casselman_shalika(rs, lam)
        closed = cs.closed_form
        if mutate == "drop-q-power":
            closed = closed.scale_q({-weyl_group(rs).longest.length: 1})
        checked += 1
        if closed != cs.theorem_form:
            return _result(
                "casselman-shalika", rs, "sign", checked,
                {"lambda": list(lam), "closed": closed.to_str(), "theorem": cs.theorem_form.to_str()},
            )
    return _result("casselman-shalika", rs, "sign", checked)


def verify_macdonald(rs: RootSystem, height: int = 3, mutate: str | None = None) -> VerifyResult:
    """Symmetrized sum equals the trivial-character operator sum; at lambda = 0
    both equal the Poincare polynomial."""
    trv = character_by_name(rs, "triv")
    checked = 0
    for lam in dominant_coweights_up_to_height(rs, height):
        lhs = macdonald(rs, lam)
        rhs = theorem_lhs(trv, lam)
        checked += 1
        if lhs != rhs:
            return _result(
                "macdonald", rs, "triv", checked,
                {"lambda": list(lam), "lhs": lhs.to_str(), "rhs": rhs.to_str()},
            )
    poincare = poincare_polynomial(rs)
    if mutate == "shift-poincare":
        poincare = poincare.scale_q({1: 1})
    checked += 1
    if macdonald(rs, (0,) * rs.rank) != poincare:
        return _result(
            "macdonald", rs, "triv", checked,
            {"lambda": [0] * rs.rank, "expected": poincare.to_str()},
        )
    return _result("macdonald", rs, "triv", checked)


def verify_bessel_intertwiner(rs: RootSystem, monomials, mutate: str | None = None) -> VerifyResult:
    """Short simple roots act spherically, long ones Whittaker-like, under neg-long."""
    eps = character_by_name(rs, "neg-long")
    return VerifyResult(
        **{**verify_intertwiner(eps, monomials, mutate=mutate).__dict__, "identity": "bessel-intertwiner"}
    )


def verify_bessel_value(rs: RootSystem, mutate: str | None = None) -> VerifyResult:
    """On B_n the neg-long value at lambda = 0 equals q^{n-1} (1 + q) times
    pi^{-rho_eps} * prod_{long a>0} (1 - q pi^{a^vee}), as derived from the
    alternator side in :class:`heckemod.formulas.BesselValue`. The witness
    also reports whether the quoted unit-monomial form holds."""
    report = bessel_value(rs)
    checked = 1
    n = rs.rank
    expected = GroupRingElem.monomial((0,) * n, {n - 1: 1, n: 1})
    if mutate == "drop-cofactor":
        expected = GroupRingElem.one(n)
    actual = report.q_form_cofactor
    if actual != expected:
        return _result(
            "bessel-value", rs, "neg-long", checked,
            {"cofactor": actual.to_str(), "expected": expected.to_str(),
             "unit_ratio_to_quoted": report.unit_ratio},
        )
    return _result("bessel-value", rs, "neg-long", checked)


def verify_shalika(rs: RootSystem, height: int = 2, mutate: str | None = None) -> VerifyResult:
    """The two displayed Shalika evaluations agree for dominant coweights."""
    checked = 0
    for lam in dominant_coweights_up_to_height(rs, height):
        forms = shalika(rs, lam)
        rewritten = forms.rewritten_form
        if mutate == "drop-long-q-power":
            eps = character_by_name(rs, "neg-short")
            rewritten = rewritten.scale_q({-len(eps.phi_q): 1})
        checked += 1
        if forms.theorem_form != rewritten:
            return _result(
                "shalika", rs, "neg-short", checked,
                {"lambda": list(lam), "theorem": forms.theorem_form.to_str(),
                 "rewritten": rewritten.to_str()},
            )
    return _result("shalika", rs, "neg-short", checked)


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
    "omega-symmetry": Suite(True, _any_type, ("drop-right-sign",),
                            lambda eps, box, small, m: verify_omega_symmetry(eps, small, mutate=m)),
    "q-zero-degeneration": Suite(True, _any_type, ("wrong-specialization",),
                                 lambda eps, box, small, m: verify_q_zero_degeneration(eps, box, mutate=m)),
    "character-formulas": Suite(False, _any_type, ("drop-rho-shift",),
                                lambda rs, box, small, m: verify_character_formulas(rs, mutate=m)),
    "casselman-shalika": Suite(False, _any_type, ("drop-q-power",),
                               lambda rs, box, small, m: verify_casselman_shalika(rs, mutate=m)),
    "macdonald": Suite(False, _any_type, ("shift-poincare",),
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


def run_suite(
    suite: str,
    type_name: str,
    radius: int = BOX_RADIUS_DEFAULT,
    cap: int = BOX_CAP_DEFAULT,
    mutate: str | None = None,
) -> list[VerifyResult]:
    """Run one named suite on one type; returns one result per character when
    the suite is character-indexed, and none when it does not apply."""
    rs = build_root_system(type_name)
    entry = SUITES[suite]
    if not entry.applies(rs):
        return []
    box = monomial_box(rs.rank, radius, cap)
    small = monomial_box(rs.rank, 1, 30)
    subjects = characters(rs) if entry.per_character else [rs]
    return [entry.run(subject, box, small, mutate) for subject in subjects]


def suite_tasks(types, suites=None, mutate: str | None = None, max_rank: int | None = None) -> list[tuple[str, str]]:
    """(suite, type) pairs to run, types outermost, each suite only on the types
    it applies to. A mutation selects every suite that owns it; otherwise
    ``suites`` defaults to all of them."""
    if mutate is not None:
        suites = MUTATION_SUITES[mutate]
    elif suites is None:
        suites = list(SUITES)
    tasks = []
    for type_name in types:
        rs = build_root_system(type_name)
        if max_rank is not None and rs.rank > max_rank:
            continue
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
    """Run suites over types; with a mutation, only the suites owning it run."""
    results: list[VerifyResult] = []
    for suite, type_name in suite_tasks(types, suites, mutate, max_rank):
        results.extend(run_suite(suite, type_name, radius=radius, cap=cap, mutate=mutate))
    results.sort(key=lambda r: (r.identity, r.cartan, r.character or ""))
    return results
