"""Exact arithmetic in Z[q, q^-1][P^vee] and its fraction field.

A group-ring element is a sparse map from coweights (integer tuples in the
fundamental-coweight basis) to q-Laurent coefficients, themselves sparse maps
from q-exponents to arbitrary-precision integers. Neither level stores zeros.

Packed keys. The map stores each coweight mu = (mu_0, ..., mu_{n-1}) as one
integer (Kronecker substitution; Harvey, arXiv:0712.4046):

    pack(mu) = sum_i (mu_i + 2^17) * 2^(20 (n - 1 - i)).

Each coordinate owns a 20-bit field, coordinate 0 the highest. The low 18
bits hold mu_i + 2^17 and the top two are guard bits, zero in every stored
key. So the packing bound is -2^17 <= mu_i < 2^17 (:data:`COORD_BOUND`); on it
the packing is injective, and integer order is the lexicographic order of the
tuples, which ``to_str``, ``to_json_obj`` and ``to_json_text`` sort on (the
JSON writer ``to_json_text`` reads each coordinate straight off the packed
key, without building the records). A translation by v adds the integer
:func:`pack_step` (v), mu_i is a shift and a mask, and s_i mu =
mu - mu_i alpha_i^vee is ``x - mu_i * pack_step(alpha_i^vee)``.

Why the bound holds. :func:`pack` raises :class:`CoweightOutOfRange` on a
coordinate outside the bound, and the constructor and ``monomial`` pack
through it; :func:`pack_step` checks every shift given as a tuple the same
way. A key made by arithmetic moves each coordinate of a stored key by less
than 3 * 2^18: by a packable shift, or by mu_i alpha_i^vee, whose entries are
at most 3 |mu_i| <= 3 * 2^17. If such a move takes a coordinate out of the
bound, the lowest field that leaves it shows a guard bit (a borrow or carry
reaches only the fields above it), so one AND with the guard mask finds it
and the operation raises rather than wraps. The kernels check only the keys
that can leave the hull of their input:

* the rank-one kernels :func:`rank_one` and :func:`rank_one_int` check s_i mu,
  once per monomial. The points they write lie on the alpha_i^vee-string from
  mu to s_i mu, where each coordinate runs linearly between its two ends: a
  string point's coordinates lie between those of mu, a stored key, and s_i
  mu, a checked one, so a string point outside the bound would put s_i mu
  outside it too. They stay inside the W-orbit hull of the input's points;
* :func:`s_image` checks every image, ``translated`` and the generic product
  every shifted key, and :func:`multiply_binomials` every key shifted by a
  factor; a product by prod_{a>0} (1 - q^k pi^{a^vee}) shifts a point by at
  most |Phi+| coroots;
* :func:`divide_by_binomials` writes only between points of one v-string of
  its input, and ``grsum``, ``scale_q`` and the like keep their keys.

``coeffs`` is a tuple-keyed view built on each access, for callers outside
the ring layer; it holds the element's own q-coefficient maps.

Products and quotients by binomials have one pair of kernels here:

* :func:`multiply_binomials` multiplies by prod_{v} (1 - q^k pi^v) over a list
  of coweights v, one pass over the monomials per factor;
* :func:`divide_by_binomials` is its inverse, one factor at a time: the
  quotient g by 1 - q^k pi^v satisfies g(mu) = f(mu) + q^k g(mu - v), so each
  v-string of the support is walked upward once, and a string whose running
  sum does not close to zero raises :class:`NotDivisible`.

The operators, formulas and verifiers form every such product and quotient
through this pair. The rank-one operators of :mod:`heckemod.operators` divide
nothing: their kernel :func:`rank_one` writes G_i(f) = (f^{s_i} - f) /
(1 - pi^{-a}), for a = alpha_i^vee and p = <alpha_i, mu> = mu_i, as a sum
along the a-string from mu to s_i mu (Brubaker-Bump-Licata, arXiv:1111.4230):

    G_i(pi^mu) = - sum_{j=0}^{p-1} pi^{mu - j a}   if p > 0,
                 + sum_{j=1}^{-p}  pi^{mu + j a}   if p < 0,
                   0                               if p = 0.

Integer-coded coefficients. Setting q to an integer N is a ring map
Z[q][P^vee] -> Z[P^vee], so a map {packed key: int} holds an element of
Z[q][P^vee] at q = N, each q-polynomial one Python integer (Kronecker
substitution again, now in q). :func:`encode_q` takes f in Z[q][P^vee] to
such a map, refusing a negative power of q, which has no value in Z;
:func:`rank_one_int` is the generator form of :func:`rank_one` on it, one
integer add per string point, and :func:`int_sum` sums such maps. At N = 2^B,
:func:`decode_q` reads each integer back as balanced base-2^B digits, which
is exact when every coefficient c of the element has |c| < 2^(B-1); the Hecke
walk of :mod:`heckemod.operators` picks B from a proved bound.

The generic routes, :func:`exact_div` for any divisor (with
:func:`qd_div_exact` on the coefficients) and the generic product
``GroupRingElem.__mul__``, are the tests' reference routes and the targets of
the benchmark's tracing (``perfbench/tracing.py``); no computation in the
package calls them. Monomial exponents live in Z^n, where lexicographic order
is total but not well-founded, so plain leading-monomial elimination need not
terminate on non-divisible input. :func:`exact_div` therefore translates both
supports into N^n first (exact, since monomials are units); on N^n
lexicographic order is a well-order and elimination must halt, either with a
zero remainder or with a loud :class:`NotDivisible`. It works on the
tuple-keyed view.
"""

from __future__ import annotations

from functools import cache, reduce
from operator import or_
from typing import NamedTuple

from .errors import CoweightOutOfRange, NotDivisible
from .root_system import Coweight, RootSystem, WeylElement

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


def qd_nonzero(a: QDict) -> QDict:
    """a less its zero entries: a itself when it holds none, else a new map."""
    return a if all(a.values()) else {e: c for e, c in a.items() if c}


def qd_neg(a: QDict) -> QDict:
    return {k: -v for k, v in a.items()}


def qd_mul(a: QDict, b: QDict) -> QDict:
    """a * b as a new map: one shifted and scaled copy of a per term of b.
    A zero term of either operand contributes nothing, so every product
    merged in is nonzero and a sum that cancels deletes a key it set."""
    out: QDict = {}
    for k, c in b.items():
        if c:
            for e, v in a.items():
                if v:
                    e += k
                    s = out.get(e, 0) + c * v
                    if s:
                        out[e] = s
                    else:
                        del out[e]
    return out


def add_term(acc: dict[int, QDict], mu: int, qd: QDict) -> None:
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
    """Exact quotient a / b in Z[q, q^-1]; raises NotDivisible otherwise.
    Used only by :func:`exact_div`, a reference route (module docstring)."""
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


#: Bits per coordinate in a packed key: 18 value bits under 2 guard bits.
FIELD_BITS = 20
#: The packing bound: a packed coordinate c satisfies -COORD_BOUND <= c < COORD_BOUND.
COORD_BOUND = 1 << 17
#: Reads a coordinate out of its field once shifted down: ((x >> s) & VALUE_MASK) - COORD_BOUND.
VALUE_MASK = (1 << 18) - 1
_GUARD = (1 << FIELD_BITS) - 1 - VALUE_MASK


class Packing(NamedTuple):
    """The key layout of one rank: ``shifts[i]`` is the bit offset of
    coordinate i's field, ``zero`` the key of the zero coweight and ``guard``
    the guard bits of every field."""

    shifts: tuple[int, ...]
    zero: int
    guard: int


@cache
def packing(rank: int) -> Packing:
    shifts = tuple(FIELD_BITS * (rank - 1 - i) for i in range(rank))
    return Packing(shifts, sum(COORD_BOUND << s for s in shifts), sum(_GUARD << s for s in shifts))


def _out_of_range(what) -> CoweightOutOfRange:
    return CoweightOutOfRange(
        f"{what} has a coordinate outside the packing bound [{-COORD_BOUND}, {COORD_BOUND - 1}]")


def pack_step(v: Coweight) -> int:
    """The integer whose addition to a packed key translates it by v; raises
    :class:`CoweightOutOfRange` unless v itself is packable."""
    if min(v) < -COORD_BOUND or max(v) >= COORD_BOUND:
        raise _out_of_range(f"coweight {list(v)}")
    x = 0
    for c in v:
        x = (x << FIELD_BITS) + c
    return x


def pack(mu: Coweight) -> int:
    """The packed key of mu (module docstring); raises
    :class:`CoweightOutOfRange` outside the packing bound."""
    return packing(len(mu)).zero + pack_step(mu)


def unpack(x: int, rank: int) -> Coweight:
    """The coweight of a packed key."""
    return tuple(((x >> s) & VALUE_MASK) - COORD_BOUND for s in packing(rank).shifts)


def check_key(x: int, guard: int) -> None:
    """Raise :class:`CoweightOutOfRange` if x shows a guard bit of ``guard``;
    x is a key made by one bounded move from a packed key, or the bitwise OR
    of such keys (module docstring)."""
    if x & guard:
        raise _out_of_range("a computed coweight")


class GroupRingElem:
    """Sparse exact element of Z[q, q^-1][P^vee].

    ``packed`` maps packed coweight keys (module docstring) to q-coefficient
    maps; ``coeffs`` is the tuple-keyed view of the same terms. No zero is
    stored: no zero q-coefficient and no empty map. The constructor drops
    both, copying a map only when it holds a zero, and packs the tuple keys,
    so it raises :class:`CoweightOutOfRange` outside the packing bound;
    :func:`from_packed` wraps a map whose keys are packed already.

    An element writes itself: ``to_str`` is its text form, ``to_json_obj``
    its JSON records (the reference), and ``to_json_text`` the indented JSON
    text of those records, written from the packed keys; the CLI puts
    elements in its rows and writes them with ``to_json_text``.

    Instances are immutable by convention: every operation returns a new
    element and never writes into the coefficient maps of its operands. The
    q-coefficient maps themselves may be shared, within one result and
    between results: ``omega_apply`` stores one map at every point of an
    orbit, :func:`divide_by_binomials` one running sum at the points of a
    gap in a string (only at k = 0, dividing by 1 - pi^v; at k != 0 each point
    gets its own shifted map), the rank-one kernel one string coefficient
    along a string, and ``translated``, :func:`weyl_act` and ``s_image`` hand
    back their operand's maps under new exponents. So nothing may write into a
    coefficient map it did not build itself.
    """

    __slots__ = ("rank", "packed")

    def __init__(self, rank: int, coeffs: dict[Coweight, QDict]):
        if any(len(mu) != rank for mu in coeffs):
            raise ValueError(f"coweights of rank {rank} expected")
        self.rank = rank
        nonzero = ((mu, qd_nonzero(qd)) for mu, qd in coeffs.items())
        self.packed = {pack(mu): qd for mu, qd in nonzero if qd}

    @property
    def coeffs(self) -> dict[Coweight, QDict]:
        """The terms keyed by coweight tuples: a new dict on each access, over
        this element's own q-coefficient maps, which nobody may write into."""
        n = self.rank
        return {unpack(x, n): qd for x, qd in self.packed.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "GroupRingElem":
        return from_packed(rank, {})

    @classmethod
    def one(cls, rank: int) -> "GroupRingElem":
        return from_packed(rank, {packing(rank).zero: dict(Q_ONE)})

    @classmethod
    def monomial(cls, mu: Coweight, coeff: QDict | int = 1) -> "GroupRingElem":
        """The term coeff * pi^mu; zero entries of a q-coefficient are dropped."""
        coeff = qd_nonzero({0: coeff} if isinstance(coeff, int) else coeff)
        key = pack(mu)
        return from_packed(len(mu), {key: coeff} if coeff else {})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "GroupRingElem") -> "GroupRingElem":
        self._check(other)
        return grsum(self.rank, (self, other))

    def __sub__(self, other: "GroupRingElem") -> "GroupRingElem":
        return self + (-other)

    def __neg__(self) -> "GroupRingElem":
        return from_packed(self.rank, {k: qd_neg(v) for k, v in self.packed.items()})

    def __mul__(self, other: "GroupRingElem") -> "GroupRingElem":
        """The generic product: the tests' reference route and a target of the
        benchmark's tracing; no computation in the package calls it."""
        self._check(other)
        layout = packing(self.rank)
        out: dict[int, dict[int, int]] = {}
        for k1, a in self.packed.items():
            shifted = {k2 - layout.zero + k1: b for k2, b in other.packed.items()}
            check_key(reduce(or_, shifted, 0), layout.guard)
            for key, b in shifted.items():
                tgt = out.setdefault(key, {})
                for e1, c1 in a.items():
                    for e2, c2 in b.items():
                        e = e1 + e2
                        s = tgt.get(e, 0) + c1 * c2
                        if s:
                            tgt[e] = s
                        else:
                            del tgt[e]
        return from_packed(self.rank, {k: v for k, v in out.items() if v})

    def scale_q(self, qd: QDict) -> "GroupRingElem":
        """Multiply by a scalar from Z[q, q^-1]."""
        if not any(qd.values()):
            return GroupRingElem.zero(self.rank)
        return from_packed(self.rank, {k: qd_mul(v, qd) for k, v in self.packed.items()})

    def translated(self, mu: Coweight) -> "GroupRingElem":
        """Multiply by the monomial pi^mu (exponent shift)."""
        return from_packed(self.rank, shift_keys(self.rank, self.packed, mu))

    # -- predicates and access ---------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.packed)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupRingElem)
            and self.rank == other.rank
            and self.packed == other.packed
        )

    __hash__ = None  # type: ignore[assignment]

    def single_term(self) -> tuple[Coweight, QDict] | None:
        """The (coweight, coefficient) pair if this is a one-monomial element."""
        if len(self.packed) != 1:
            return None
        ((k, v),) = self.packed.items()
        return unpack(k, self.rank), v

    def _check(self, other: "GroupRingElem") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    # -- serialization -------------------------------------------------------

    def to_str(self) -> str:
        """Canonical text form; monomials in ascending lexicographic order."""
        if not self.packed:
            return "0"
        zero = packing(self.rank).zero
        parts = []
        for k in sorted(self.packed):
            qd = self.packed[k]
            if k == zero:
                body = qd_str(qd) if len(qd) == 1 else f"({qd_str(qd)})"
                parts.append(body)
                continue
            mono = "pi^[" + ",".join(str(c) for c in unpack(k, self.rank)) + "]"
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
                "coweight": list(unpack(k, self.rank)),
                "coeff": [[e, str(self.packed[k][e])] for e in sorted(self.packed[k])],
            }
            for k in sorted(self.packed)
        ]

    def to_json_text(self, newline: str = "\n") -> str:
        """``json.dumps(self.to_json_obj(), sort_keys=True, indent=2)``, byte
        for byte, written in one pass over the packed keys; ``newline`` is a
        line break and the indentation of the level the records sit at."""
        if not self.packed:
            return "[]"
        n1 = newline + "  "
        n2, n3, n4 = n1 + "  ", n1 + "    ", n1 + "      "
        term = "[" + n4 + "%d," + n4 + '"%s"' + n3 + "]"
        record = ("{" + n2 + '"coeff": [' + n3 + "%s" + n2 + "]," + n2 + '"coweight": ['
                  + n3 + ("," + n3).join(["%d"] * self.rank) + n2 + "]" + n1 + "}")
        sep, shifts, packed = "," + n3, packing(self.rank).shifts, self.packed
        records = [
            record % (sep.join([term % ec for ec in sorted(packed[k].items())]),
                      *[((k >> s) & VALUE_MASK) - COORD_BOUND for s in shifts])
            for k in sorted(packed)
        ]
        return "[" + n1 + ("," + n1).join(records) + newline + "]"

    def __repr__(self) -> str:
        return f"GroupRingElem({self.to_str()})"


def shift_keys(rank: int, packed: dict, mu: Coweight) -> dict:
    """A packed-key map translated by mu: each key moved by ``pack_step(mu)``,
    each value kept, and the moved keys checked against the packing bound."""
    step = pack_step(mu)
    out = {k + step: v for k, v in packed.items()}
    check_key(reduce(or_, out, 0), packing(rank).guard)
    return out


def from_packed(rank: int, packed: dict[int, QDict]) -> GroupRingElem:
    """The element whose packed-key map is ``packed``, taken as it is: no copy,
    no packing and no range check. For kernels whose keys are packed and
    checked already."""
    out = object.__new__(GroupRingElem)
    out.rank = rank
    out.packed = packed
    return out


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
    The tests' reference route and a target of the benchmark's tracing; the
    package divides by binomials through :func:`divide_by_binomials`.
    """
    if not g.packed:
        raise ZeroDivisionError("division by the zero element")
    if not f.packed:
        return GroupRingElem.zero(f.rank)
    f._check(g)
    n = f.rank
    fc, gc = f.coeffs, g.coeffs

    fmin = tuple(min(k[j] for k in fc) for j in range(n))
    gmin = tuple(min(k[j] for k in gc) for j in range(n))
    rem = {tuple(x - m for x, m in zip(k, fmin)): dict(v) for k, v in fc.items()}
    gg = {tuple(x - m for x, m in zip(k, gmin)): v for k, v in gc.items()}

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
    guard = packing(f.rank).guard
    for v in vs:
        step = pack_step(v)
        out = {x + step: {e + q_exp: -c for e, c in qd.items()} for x, qd in f.packed.items()}
        check_key(reduce(or_, out, 0), guard)
        for x, qd in f.packed.items():
            add_term(out, x, qd)
        f = from_packed(f.rank, {k: c for k, c in out.items() if c})
    return f


def divide_by_binomials(f: GroupRingElem, vs, q_exp: int) -> GroupRingElem:
    """Exact quotient f / prod_{v in vs} (1 - q^{q_exp} pi^v) over nonzero
    coweights vs; raises :class:`NotDivisible` when none exists. The inverse
    of :func:`multiply_binomials`. It divides one factor at a time, which is
    exact whenever the whole quotient is.

    The support is grouped into v-strings mu + Z v. Along a string the
    quotient obeys g(mu) = f(mu) + q^{q_exp} g(mu - v): a running sum from the
    lowest point, its exponents shifted by q_exp at each step, which must be
    zero again after the highest. A string is keyed by its point b whose
    coordinate j, the first of largest |v_j|, is reduced modulo v_j. The
    coordinates of b are below 2^17 + 2^17 + |v_j| < 2^19 in size, so its key,
    computed as a packed point minus a multiple of ``pack_step(v)``, is a
    signed-digit integer with digits under half the field size: distinct
    strings get distinct keys although b need not be packable. The quotient's
    points lie between points of its string.
    """
    shifts = packing(f.rank).shifts
    for v in vs:
        if not any(v):
            raise ZeroDivisionError("division by 1 - q^k pi^0")
        j = max(range(len(v)), key=lambda k: abs(v[k]))
        vj = v[j]
        step = pack_step(v)
        strings: dict[int, dict[int, QDict]] = {}
        for x, qd in f.packed.items():
            t = (((x >> shifts[j]) & VALUE_MASK) - COORD_BOUND) // vj
            strings.setdefault(x - t * step, {})[t] = qd
        out: dict[int, QDict] = {}
        for base, points in strings.items():
            steps = sorted(points)
            run: QDict = {}
            for t, t_next in zip(steps, steps[1:]):
                run = qd_add(run, points[t])
                if run:
                    for s in range(t, t_next):
                        out[base + s * step] = run
                        if q_exp:
                            run = {e + q_exp: c for e, c in run.items()}
            if qd_add(run, points[steps[-1]]):
                raise NotDivisible(f"no exact quotient by 1 - q^{q_exp} pi^{list(v)}")
        f = from_packed(f.rank, out)
    return f


@cache
def _simple_steps(rs: RootSystem) -> tuple[tuple[int, int, int], ...]:
    """Per simple root i: the bit offset of coordinate i in a packed key, the
    packed step of alpha_i^vee and the guard mask (module docstring)."""
    layout = packing(rs.rank)
    return tuple((layout.shifts[i], pack_step(a), layout.guard) for i, a in enumerate(rs.simple_coroots))


def s_image(rs: RootSystem, i: int, f: GroupRingElem) -> GroupRingElem:
    """f^{s_i}: relabel exponents by the simple reflection, x - mu[i] * a on
    each packed key x."""
    shift, step, guard = _simple_steps(rs)[i]
    out = {x - (((x >> shift) & VALUE_MASK) - COORD_BOUND) * step: v for x, v in f.packed.items()}
    check_key(reduce(or_, out, 0), guard)
    return from_packed(f.rank, out)


def rank_one(rs: RootSystem, i: int, f: GroupRingElem, flip: bool, scalar: QDict, along: QDict) -> GroupRingElem:
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


# -- the integer-coded walk --------------------------------------------------
#
# A map {packed key: int} is an element of Z[P^vee] with q set to an integer
# (module docstring). Nothing below stores a zero.


def q_value(qd: QDict, q: int) -> int:
    """The polynomial qd at the integer q; qd must hold no negative power of q."""
    if any(e < 0 for e in qd):
        raise ValueError(f"q^{min(qd)} has no value in Z")
    return sum(c * q ** e for e, c in qd.items())


def encode_q(f: GroupRingElem, q: int) -> dict[int, int]:
    """f at the integer q, each coefficient c(q) one integer; a negative power
    of q raises ``ValueError`` (:func:`q_value`)."""
    out = {x: q_value(qd, q) for x, qd in f.packed.items()}
    return {x: c for x, c in out.items() if c}


def decode_q(rank: int, coeffs: dict[int, int], bits: int) -> GroupRingElem:
    """The element g of Z[q][P^vee] whose value at q = 2^bits is ``coeffs``:
    each integer's balanced base-2^bits digits, in [-2^(bits-1), 2^(bits-1)),
    lowest first, are g's coefficients of q^0, q^1, .... Exact when every
    coefficient c of g has |c| < 2^(bits-1)."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out: dict[int, QDict] = {}
    for x, v in coeffs.items():
        qd, e = {}, 0
        while v:
            d = ((v + half) & mask) - half
            if d:
                qd[e] = d
            v = (v - d) >> bits
            e += 1
        out[x] = qd
    return from_packed(rank, out)


def from_integers(rank: int, coeffs: dict[int, int]) -> GroupRingElem:
    """The element with the constant coefficient ``coeffs[x]`` at each packed key x."""
    return from_packed(rank, {x: {0: c} for x, c in coeffs.items()})


def rank_one_int(rs: RootSystem, i: int, coeffs: dict[int, int], scalar: int, along: int) -> dict[int, int]:
    """:func:`rank_one`'s generator form, scalar * f^{s_i} + along * G_i(f),
    on integer coefficients: f, scalar and along with q set to one integer.

    Per monomial c pi^mu: c * scalar at s_i mu, and c * along, negated when
    p = mu[i] > 0, at each of the |p| string points, one integer add each.
    The points lie on the alpha_i^vee-string from mu to s_i mu, so checking
    s_i mu covers every key written, as in :func:`rank_one`.
    """
    shift, step, guard = _simple_steps(rs)[i]
    out: dict[int, int] = {}
    get = out.get
    reflected = 0
    for x, c in coeffs.items():
        p = ((x >> shift) & VALUE_MASK) - COORD_BOUND
        y = x - p * step
        reflected |= y
        out[y] = get(y, 0) + c * scalar
        if p > 0:
            c, points = -c * along, range(x, y, -step)
        elif p < 0:
            c, points = c * along, range(x + step, y + step, step)
        else:
            continue
        for point in points:
            out[point] = get(point, 0) + c
    check_key(reflected, guard)
    return {k: v for k, v in out.items() if v}


def int_sum(maps) -> dict[int, int]:
    """The sum of integer-coefficient maps (section comment)."""
    acc: dict[int, int] = {}
    get = acc.get
    for m in maps:
        for k, c in m.items():
            acc[k] = get(k, 0) + c
    return {k: v for k, v in acc.items() if v}


def grsum(rank: int, terms) -> GroupRingElem:
    """Sum an iterable of GroupRingElem via one mutable accumulator."""
    acc: dict[int, QDict] = {}
    for t in terms:
        for k, qd in t.packed.items():
            add_term(acc, k, qd)
    return from_packed(rank, {k: v for k, v in acc.items() if v})


class RationalElem:
    """Quotient num/den of group-ring elements, kept only as the target of the
    benchmark's tracing (``perfbench/tracing.py`` wraps :meth:`clear`); no
    computation in the package uses it."""

    __slots__ = ("num", "den")

    def __init__(self, num: GroupRingElem, den: GroupRingElem):
        if not den:
            raise ZeroDivisionError("rational element with zero denominator")
        self.num = num
        self.den = den

    def clear(self) -> GroupRingElem:
        """Exact clearing to the group ring; NotDivisible if a denominator survives."""
        return exact_div(self.num, self.den)
