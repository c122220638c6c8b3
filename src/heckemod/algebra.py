"""Exact arithmetic in Z[q, q^-1][P^vee] and its fraction field.

A group-ring element is a sparse map from coweights (integer tuples in the
fundamental-coweight basis) to q-Laurent coefficients, themselves sparse maps
from q-exponents to arbitrary-precision integers. Neither level stores zeros.

Products and quotients by binomials each have one kernel here:

* :func:`multiply_binomials` multiplies by prod_{v} (1 - q^k pi^v) over a list
  of coweights v, one pass over the monomials per factor; the operators,
  formulas and verifiers form every such product through it;
* :func:`divide_by_binomial` divides by one binomial 1 - pi^v in one pass: the
  quotient g satisfies g(mu) = f(mu) + g(mu - v), so each v-string of the
  support is walked upward once, and a string whose running sum does not
  close to zero raises :class:`NotDivisible`.

The rank-one operators do not divide (their closed form is a string sum, see
:mod:`heckemod.operators`). The generic product ``GroupRingElem.__mul__``
serves only :class:`RationalElem` and the tests' reference products.

:func:`exact_div` is the generic fallback for any divisor. Monomial exponents
live in Z^n, where lexicographic order is total but not well-founded, so plain
leading-monomial elimination need not terminate on non-divisible input. Both
supports are therefore translated into N^n first (exact, since monomials are
units); on N^n lexicographic order is a well-order and elimination must halt,
either with a zero remainder or with a loud :class:`NotDivisible`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NegativeQExponentAtZero, NotDivisible
from .root_system import Coweight, WeylElement, add_coweights

# A q-Laurent coefficient: {q_exponent: integer}, no zero values stored.
QDict = dict[int, int]

Q_ONE: QDict = {0: 1}
Q_MINUS_ONE: QDict = {0: -1}
Q_GEN: QDict = {1: 1}


def qd_add(a: QDict, b: QDict) -> QDict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def qd_neg(a: QDict) -> QDict:
    return {k: -v for k, v in a.items()}


def qd_mul(a: QDict, b: QDict) -> QDict:
    out: QDict = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = k1 + k2
            s = out.get(k, 0) + v1 * v2
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def add_term(acc: dict[Coweight, QDict], mu: Coweight, qd: QDict) -> None:
    """acc[mu] += qd in place. A new entry gets a copy of qd, so acc never
    shares a coefficient map with a caller; an entry that cancels is left
    empty, and the caller drops it when it builds the element."""
    tgt = acc.get(mu)
    if tgt is None:
        acc[mu] = dict(qd)
        return
    for e, c in qd.items():
        s = tgt.get(e, 0) + c
        if s:
            tgt[e] = s
        else:
            del tgt[e]


def qd_div_exact(a: QDict, b: QDict) -> QDict:
    """Exact quotient a / b in Z[q, q^-1]; raises NotDivisible otherwise."""
    if not b:
        raise ZeroDivisionError("division by the zero coefficient")
    if not a:
        return {}
    blead = max(b)
    blc = b[blead]
    rem = dict(a)
    quot: QDict = {}
    # Quotient exponents strictly decrease, bounded below by min(a) - min(b).
    floor = min(a) - min(b)
    while rem:
        rlead = max(rem)
        e = rlead - blead
        if e < floor:
            raise NotDivisible("q-coefficient quotient out of range")
        c, r = divmod(rem[rlead], blc)
        if r:
            raise NotDivisible("q-coefficient leading integer not divisible")
        quot[e] = c
        for k, v in b.items():
            kk = k + e
            s = rem.get(kk, 0) - v * c
            if s:
                rem[kk] = s
            else:
                rem.pop(kk, None)
    return quot


def qd_specialize(a: QDict, v: int | Fraction):
    """Evaluate a q-Laurent coefficient at q = v, exactly."""
    if v == 0:
        if any(k < 0 for k in a):
            raise NegativeQExponentAtZero("q^-k term present at q = 0")
        return a.get(0, 0)
    total = Fraction(0)
    fv = Fraction(v)
    for k, c in a.items():
        total += c * fv**k
    return int(total) if total.denominator == 1 else total


def qd_str(a: QDict) -> str:
    """Canonical string of a q-Laurent coefficient, highest exponent first."""
    if not a:
        return "0"
    parts: list[str] = []
    for k in sorted(a, reverse=True):
        c = a[k]
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = "q" if k == 1 else f"q^{k}"
            body = power if mag == 1 else f"{mag}*{power}"
        parts.append(f"{sign} {body}" if parts else (f"-{body}" if c < 0 else body))
    return " ".join(parts)


class GroupRingElem:
    """Sparse exact element of Z[q, q^-1][P^vee].

    Instances are immutable by convention: every operation returns a new
    element and never writes into the coefficient maps of its operands. The
    q-coefficient maps themselves may be shared, within one result and
    between results: ``omega_apply`` stores one map at every point of an
    orbit, :func:`divide_by_binomial` one running sum at several points of a
    string, and ``translated``, :func:`weyl_act` and ``s_image`` hand back
    their operand's maps under new exponents. So nothing may write into a
    coefficient map it did not build itself.
    """

    __slots__ = ("rank", "coeffs")

    def __init__(self, rank: int, coeffs: dict[Coweight, QDict]):
        self.rank = rank
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "GroupRingElem":
        return cls(rank, {})

    @classmethod
    def one(cls, rank: int) -> "GroupRingElem":
        return cls(rank, {(0,) * rank: dict(Q_ONE)})

    @classmethod
    def monomial(cls, mu: Coweight, coeff: QDict | int = 1) -> "GroupRingElem":
        """The term coeff * pi^mu; zero entries of a q-coefficient are dropped."""
        if isinstance(coeff, int):
            coeff = {0: coeff}
        coeff = {e: c for e, c in coeff.items() if c}
        if not coeff:
            return cls(len(mu), {})
        return cls(len(mu), {tuple(mu): coeff})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "GroupRingElem") -> "GroupRingElem":
        self._check(other)
        return grsum(self.rank, (self, other))

    def __sub__(self, other: "GroupRingElem") -> "GroupRingElem":
        return self + (-other)

    def __neg__(self) -> "GroupRingElem":
        return GroupRingElem(self.rank, {k: qd_neg(v) for k, v in self.coeffs.items()})

    def __mul__(self, other: "GroupRingElem") -> "GroupRingElem":
        self._check(other)
        out: dict[Coweight, dict[int, int]] = {}
        for k1, a in self.coeffs.items():
            for k2, b in other.coeffs.items():
                key = tuple(x + y for x, y in zip(k1, k2))
                tgt = out.setdefault(key, {})
                for e1, c1 in a.items():
                    for e2, c2 in b.items():
                        e = e1 + e2
                        s = tgt.get(e, 0) + c1 * c2
                        if s:
                            tgt[e] = s
                        else:
                            del tgt[e]
        return GroupRingElem(self.rank, {k: v for k, v in out.items() if v})

    def scale(self, n: int) -> "GroupRingElem":
        if n == 0:
            return GroupRingElem.zero(self.rank)
        return GroupRingElem(self.rank, {k: {e: n * c for e, c in v.items()} for k, v in self.coeffs.items()})

    def scale_q(self, qd: QDict) -> "GroupRingElem":
        """Multiply by a scalar from Z[q, q^-1]."""
        if not qd:
            return GroupRingElem.zero(self.rank)
        return GroupRingElem(self.rank, {k: qd_mul(v, qd) for k, v in self.coeffs.items()})

    def translated(self, mu: Coweight) -> "GroupRingElem":
        """Multiply by the monomial pi^mu (exponent shift)."""
        return GroupRingElem(
            self.rank,
            {tuple(x + y for x, y in zip(k, mu)): v for k, v in self.coeffs.items()},
        )

    # -- predicates and access ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupRingElem)
            and self.rank == other.rank
            and self.coeffs == other.coeffs
        )

    __hash__ = None  # type: ignore[assignment]

    def single_term(self) -> tuple[Coweight, QDict] | None:
        """The (coweight, coefficient) pair if this is a one-monomial element."""
        if len(self.coeffs) != 1:
            return None
        ((k, v),) = self.coeffs.items()
        return k, v

    def _check(self, other: "GroupRingElem") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    # -- serialization -------------------------------------------------------

    def to_str(self) -> str:
        """Canonical text form; monomials in ascending lexicographic order."""
        if not self.coeffs:
            return "0"
        zero = (0,) * self.rank
        parts = []
        for k in sorted(self.coeffs):
            qd = self.coeffs[k]
            if k == zero:
                body = qd_str(qd) if len(qd) == 1 else f"({qd_str(qd)})"
                parts.append(body)
                continue
            mono = "pi^[" + ",".join(str(c) for c in k) + "]"
            if qd == Q_ONE:
                parts.append(mono)
            elif qd == Q_MINUS_ONE:
                parts.append(f"-{mono}")
            elif len(qd) == 1:
                parts.append(f"{qd_str(qd)}*{mono}")
            else:
                parts.append(f"({qd_str(qd)})*{mono}")
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text

    def to_json_obj(self) -> list[dict]:
        """Canonical JSON form; integers as decimal strings to avoid precision loss."""
        return [
            {
                "coweight": list(k),
                "coeff": [[e, str(self.coeffs[k][e])] for e in sorted(self.coeffs[k])],
            }
            for k in sorted(self.coeffs)
        ]

    def __repr__(self) -> str:
        return f"GroupRingElem({self.to_str()})"


def weyl_act(w: WeylElement, f: GroupRingElem) -> GroupRingElem:
    """Apply a Weyl element to a ring element; fixes q.

    This is the ring automorphism with pi^mu -> pi^(w mu).
    """
    return GroupRingElem(f.rank, {w.apply(k): v for k, v in f.coeffs.items()})


def exact_div(f: GroupRingElem, g: GroupRingElem) -> GroupRingElem:
    """Exact quotient f / g in Z[q, q^-1][P^vee].

    Leading-monomial elimination under lexicographic order, run on supports
    translated into N^n (see module docstring). Raises :class:`NotDivisible`
    when no exact quotient exists; never returns a wrong answer silently.
    """
    if not g.coeffs:
        raise ZeroDivisionError("division by the zero element")
    if not f.coeffs:
        return GroupRingElem.zero(f.rank)
    f._check(g)
    n = f.rank

    fmin = tuple(min(k[j] for k in f.coeffs) for j in range(n))
    gmin = tuple(min(k[j] for k in g.coeffs) for j in range(n))
    rem = {tuple(x - m for x, m in zip(k, fmin)): dict(v) for k, v in f.coeffs.items()}
    gg = {tuple(x - m for x, m in zip(k, gmin)): v for k, v in g.coeffs.items()}

    glead = max(gg)
    glead_qd = gg[glead]
    quot: dict[Coweight, QDict] = {}
    while rem:
        rlead = max(rem)
        e = tuple(x - y for x, y in zip(rlead, glead))
        if any(c < 0 for c in e):
            raise NotDivisible("no exact quotient (monomial out of range)")
        cq = qd_div_exact(rem[rlead], glead_qd)
        quot[e] = cq
        for k, qd in gg.items():
            kk = tuple(x + y for x, y in zip(k, e))
            s = qd_add(rem.get(kk, {}), qd_neg(qd_mul(qd, cq)))
            if s:
                rem[kk] = s
            else:
                rem.pop(kk, None)
    shift = tuple(x - y for x, y in zip(fmin, gmin))
    return GroupRingElem(n, {tuple(x + y for x, y in zip(k, shift)): v for k, v in quot.items()})


def multiply_binomials(f: GroupRingElem, vs, q_exp: int) -> GroupRingElem:
    """f * prod_{v in vs} (1 - q^{q_exp} pi^v) over coweights vs, one pass over
    the monomials of f per factor."""
    for v in vs:
        out: dict[Coweight, QDict] = {}
        for mu, qd in f.coeffs.items():
            add_term(out, mu, qd)
            add_term(out, add_coweights(mu, v), {e + q_exp: -c for e, c in qd.items()})
        f = GroupRingElem(f.rank, {k: c for k, c in out.items() if c})
    return f


def divide_by_binomial(f: GroupRingElem, v: Coweight) -> GroupRingElem:
    """Exact quotient f / (1 - pi^v) for v != 0; raises :class:`NotDivisible`
    when none exists.

    The support is grouped into v-strings mu + Z v, each keyed by its point
    whose first nonzero v-coordinate is reduced modulo that coordinate. Along
    a string the quotient obeys g(mu) = f(mu) + g(mu - v): a running sum from
    the lowest point, which must be zero again after the highest.
    """
    j = next((k for k, c in enumerate(v) if c), None)
    if j is None:
        raise ZeroDivisionError("division by 1 - pi^0 = 0")
    vj = v[j]
    strings: dict[Coweight, dict[int, QDict]] = {}
    for mu, qd in f.coeffs.items():
        t = mu[j] // vj
        base = tuple(m - t * c for m, c in zip(mu, v))
        strings.setdefault(base, {})[t] = qd
    out: dict[Coweight, QDict] = {}
    for base, points in strings.items():
        steps = sorted(points)
        run: QDict = {}
        for t, t_next in zip(steps, steps[1:]):
            run = qd_add(run, points[t])
            if run:
                for s in range(t, t_next):
                    out[tuple(b + s * c for b, c in zip(base, v))] = run
        if qd_add(run, points[steps[-1]]):
            raise NotDivisible(f"no exact quotient by 1 - pi^{list(v)}")
    return GroupRingElem(f.rank, out)


def grsum(rank: int, terms) -> GroupRingElem:
    """Sum an iterable of GroupRingElem via one mutable accumulator."""
    acc: dict[Coweight, QDict] = {}
    for t in terms:
        for k, qd in t.coeffs.items():
            add_term(acc, k, qd)
    return GroupRingElem(rank, {k: v for k, v in acc.items() if v})


def specialize_q(f: GroupRingElem, v: int | Fraction) -> GroupRingElem:
    """Substitute q <- v exactly, leaving constant coefficients.

    With v = 0 the element must contain no negative q-exponents
    (:class:`NegativeQExponentAtZero`). Non-integer rational values may leave
    Fraction constants in the coefficient maps.
    """
    out: dict[Coweight, QDict] = {}
    for k, qd in f.coeffs.items():
        val = qd_specialize(qd, v)
        if val:
            out[k] = {0: val}
    return GroupRingElem(f.rank, out)


class RationalElem:
    """Fraction num/den of group-ring elements, compared by cross-multiplication.

    No canonical form is maintained (no gcd); any value reported outside the
    fraction field must first be cleared to a GroupRingElem via :meth:`clear`.
    No computation in the package uses it; it stays while the benchmark's
    tracing (``perfbench/tracing.py``) still wraps :meth:`clear`.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: GroupRingElem, den: GroupRingElem | None = None):
        if den is None:
            den = GroupRingElem.one(num.rank)
        if not den.coeffs:
            raise ZeroDivisionError("rational element with zero denominator")
        self.num = num
        self.den = den

    @property
    def rank(self) -> int:
        return self.num.rank

    def __add__(self, other: "RationalElem") -> "RationalElem":
        if self.den == other.den:
            return RationalElem(self.num + other.num, self.den)
        return RationalElem(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RationalElem") -> "RationalElem":
        return self + (-other)

    def __neg__(self) -> "RationalElem":
        return RationalElem(-self.num, self.den)

    def __mul__(self, other: "RationalElem") -> "RationalElem":
        return RationalElem(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalElem") -> "RationalElem":
        if not other.num.coeffs:
            raise ZeroDivisionError("division by a zero rational element")
        return RationalElem(self.num * other.den, self.den * other.num)

    def scale(self, n: int) -> "RationalElem":
        return RationalElem(self.num.scale(n), self.den)

    def scale_q(self, qd: QDict) -> "RationalElem":
        return RationalElem(self.num.scale_q(qd), self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalElem):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # type: ignore[assignment]

    def is_zero(self) -> bool:
        return not self.num.coeffs

    def clear(self) -> GroupRingElem:
        """Exact clearing to the group ring; NotDivisible if a denominator survives."""
        return exact_div(self.num, self.den)

    def __repr__(self) -> str:
        return f"RationalElem(({self.num.to_str()}) / ({self.den.to_str()}))"
