"""Global verdicts assembled from exact local generating counts.

The headline quantity is the smallest k such that every finite quotient of
the order admits k algebra generators.  Local minima are evaluated exactly
for every prime below a certified cutoff Q0; a worst-case capacity
inequality (monotone in the residue characteristic, so checkable in closed
form) covers all primes beyond it.  Density intervals multiply exact local
factors up to a truncation bound, rounding the product outward, and attach a
certified rational tail estimate, so every reported number is a statement,
not a sample.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import partial
from operator import attrgetter

from .counting import _deficiency_coeff, plan_count, twisted_capacity
from .errors import BoundTooSmall, CapExceeded, CertificateError, NoCutoff, SpecError, check_budget
from .orderspec import (
    ClassifiedLocal,
    OrderSpec,
    SimpleFactorSpec,
    _copies,
    _ShapeIndex,
    count_plan,
    min_k_local,
)
from .primes import PRIME_TEST_LIMIT, _integer_root, is_prime


def _ceil_root(value: int, exponent: int) -> int:
    """Smallest t >= 1 with t**exponent >= value.

    Only ``_shape_threshold`` calls it, with value >= 1 and exponent >= 1
    (see there).  For value >= 2 it is one more than the floor of the root of
    value - 1.
    """
    return 1 if value == 1 else _integer_root(value - 1, exponent) + 1


SIEVE_SPAN = 1 << 15


def _primes(n: int):
    """The primes below n in increasing order, sieved one range at a time as they are read.

    The ranges are [2, 64), [64, 4096), then SIEVE_SPAN numbers each, and each
    is sieved once, by the primes below its square root found before it (the
    first by the integers 2 to 7).  Past the primes below 64, an n beyond the
    work budget raises BudgetExceeded.
    """
    found = []
    lo, hi = 2, min(64, n)
    while lo < n:
        if lo == 64:
            check_budget(n, unit="sieve entries")
        flags = bytearray([1]) * (hi - lo)
        for p in found or range(2, 8):
            if p * p >= hi:
                break
            first = max(p * p - lo, -lo % p)
            flags[first::p] = bytes(len(range(first, hi - lo, p)))
        primes = tuple(itertools.compress(range(lo, hi), flags))
        yield from primes
        if lo * lo < n:
            found += primes
        lo, hi = hi, min(n, 4096 if hi == 64 else hi + SIEVE_SPAN)


def _next_prime(n: int) -> int:
    p = max(2, n)
    while not is_prime(p):
        p += 1
    return p


@dataclass(frozen=True)
class ShapeBound:
    """Worst-case block shape (n, r) with its copy bound and certified threshold."""

    n: int
    r: int
    copies_bound: int
    threshold: int


@dataclass(frozen=True)
class CutoffCertificate:
    """Evidence that every prime >= q0 passes the capacity test at level k."""

    k: int
    q0: int
    shapes: tuple[ShapeBound, ...]
    sweep: tuple[tuple[int, tuple[int, ...]], ...]


def _shape_threshold(n: int, r: int, copies: int, k: int) -> int:
    """Least q0 such that capacity(k, n, q, r) >= copies certifiably holds for all q >= q0.

    The conditions below are monotone in q.  For n == 1 the count is
    q^{kr} minus at most r/2 subfield terms each <= q^{k floor(r/2)}.  For
    n >= 2 the head bound loses a factor D_n q^{-r(k-1)(n-1)}, subfield
    corrections lose r q^{-ceil(r/2)((k-1)n^2+1)}, and the denominator
    r |PGL_n| is at most r q^{r(n^2-1)}; each condition caps its loss at a
    quarter of the main term, leaving capacity >= q^{r((k-1)n^2+1)}/(2r).
    """
    # Only _cutoff_shapes calls this, and no input reaches it with copies, k
    # or r below 1: _worst_shapes keeps the shapes with copies >= 1 and r from
    # 1 up, and _cutoff_shapes raises SpecError for k < 1 and NoCutoff for
    # k = 1 with n >= 2, so every exponent below is at least 1.
    if n == 1:
        if r == 1:
            return max(2, _ceil_root(copies, k))
        t = _ceil_root(2 * r, k * (r - r // 2))
        t = max(t, _ceil_root(2 * r * copies, k * r))
        return max(2, t)
    t = _ceil_root(4 * _deficiency_coeff(n), r * (k - 1) * (n - 1))
    if r >= 2:
        t = max(t, _ceil_root(4 * r, (r - r // 2) * ((k - 1) * n * n + 1)))
    t = max(t, _ceil_root(2 * r * copies, r * ((k - 1) * n * n + 1)))
    return max(2, t)


def _worst_shapes(spec: OrderSpec) -> tuple[tuple[int, int, int], ...]:
    """All block shapes (n, r) any prime can produce, with worst-case copy counts."""
    d = spec.dimension
    keys: set[tuple[int, int]] = set()
    for factor in spec.factors:
        for r in range(1, factor.center_degree + 1):
            keys.add((factor.degree, r))
    shapes = []
    for n, r in sorted(keys):
        copies = d // (r * n * n)
        if copies >= 1:
            shapes.append((n, r, copies))
    return tuple(shapes)


def _cutoff_shapes(spec: OrderSpec, k: int) -> tuple[tuple[ShapeBound, ...], int]:
    """The worst-case shapes with their thresholds at level k, and the cutoff q0 they give.

    q0 is the largest threshold, but above every listed prime; no sweep is run.
    """
    if k < 1:
        raise SpecError("candidate k must be a positive integer")
    shape_data = _worst_shapes(spec)
    if k == 1 and any(n >= 2 for n, _, _ in shape_data):
        raise NoCutoff(
            "k=1 admits no cutoff: matrix blocks of size >= 2 are never "
            "generated by one element, whatever the prime"
        )
    shapes = tuple(
        ShapeBound(n, r, copies, _shape_threshold(n, r, copies, k))
        for n, r, copies in shape_data
    )
    q0 = max([2] + [s.threshold for s in shapes] + [p + 1 for p in spec.listed_primes])
    return shapes, q0


def prime_cutoff(spec: OrderSpec, k: int) -> CutoffCertificate:
    """Certified Q0 such that every prime p >= Q0 passes the capacity test at level k.

    The certificate sweeps 8 primes from q0 to about 4*q0.  When one of them
    would lie at or past PRIME_TEST_LIMIT, where primality is not proven,
    CapExceeded names q0 and the limit.
    """
    shapes, q0 = _cutoff_shapes(spec, k)
    sweep = []
    previous: list[int | None] = [None] * len(shapes)

    def next_prime(n: int) -> int:
        try:
            return _next_prime(n)
        except CapExceeded as exc:
            raise CapExceeded(
                f"the cutoff q0 = {q0} is not certified: its sweep up to about 4*q0 passes {PRIME_TEST_LIMIT}, "
                "the limit of the primality test"
            ) from exc

    p = next_prime(q0)
    step = max(1, (3 * q0) // 7)
    for _ in range(8):
        margins = []
        for i, s in enumerate(shapes):
            margin = twisted_capacity(k, s.n, p, s.r) - s.copies_bound
            if margin < 0:
                raise CertificateError(f"capacity deficit at sweep prime {p} for shape {s}")
            if previous[i] is not None and margin < previous[i]:
                raise CertificateError(f"margin not monotone at {p} for {s}")
            margins.append(margin)
        sweep.append((p, tuple(margins)))
        previous = margins
        p = next_prime(p + step)
    return CutoffCertificate(k=k, q0=q0, shapes=shapes, sweep=tuple(sweep))


@dataclass(frozen=True)
class Verdict:
    """Smallest local generator count h with its certainty class and evidence."""

    h: int
    kind: str
    refined: int | None
    critical_primes: tuple[int, ...]
    cutoff: int
    r_k: int
    note: str
    certificate: CutoffCertificate


def smallest_h(spec: OrderSpec, *, _table: dict[int, tuple[ClassifiedLocal, int]] | None = None) -> Verdict:
    """Smallest k such that every localization admits k generators, with verdict.

    Each prime is classified once, its groups read from a `_ShapeIndex`,
    into `_table` with its local minimum.  Each candidate k first gets its
    cutoff q0, then the primes below q0 are read from `_primes` up to the
    first that needs more than k generators, and only the k that passes is
    swept for its certificate.  So a k whose q0 is far too large to sieve up
    to, as for a huge copy count, costs nothing once a prime below 64 rules it
    out.  The next candidate is that prime's local minimum: no smaller k can
    pass, since the prime needs that many generators whatever the cutoff.
    Each pass reads from 2, so the table ends up with the primes below the
    cutoff in order: the critical primes and `report`'s details read them.
    """
    table = {} if _table is None else _table
    index = _ShapeIndex(spec, attrgetter("groups"))
    commutative = all(f.degree == 1 for f in spec.factors)
    r_k = 1 if commutative else 2
    has_delta2 = any(f.degree == 2 for f in spec.factors)

    def mk(p: int) -> int:
        if p not in table:
            cls = ClassifiedLocal(p, index.at(p))
            table[p] = (cls, min_k_local(cls))
        return table[p][1]

    h = r_k  # with a matrix factor, k = 1 has no cutoff
    while True:
        short = next((p for p in _primes(_cutoff_shapes(spec, h)[1]) if mk(p) > h), None)
        if short is None:
            break
        h = mk(short)
    certificate = prime_cutoff(spec, h)

    critical = tuple(p for p, (_, min_k) in table.items() if p < certificate.q0 and min_k == h)
    notes = []
    refined = None
    if h == 1:
        kind = "ONE_OR_TWO"
        notes.append(
            "every localization is generated by one element; whether a single "
            "global generator exists is not decided here, so the answer is 1 or 2"
        )
    elif h == 2:
        kind = "TWO_OR_THREE"
        if has_delta2:
            notes.append(
                "a factor of reduced degree 2 blocks refinement: the answer is 2 or 3"
            )
        elif spec.free_over_base:
            refined = 2
            notes.append(
                "refined: exactly 2 generators (no factor of reduced degree 2, "
                "and the order is declared free over its base ring)"
            )
        else:
            notes.append(
                "refinement to exactly 2 needs free_over_base; without it the "
                "answer stays 2 or 3 (a density conjecture predicts 2)"
            )
    else:
        kind = "EXACT"
    if not critical and not commutative:
        notes.append(
            "no prime below the cutoff attains h; the bound is driven by the "
            "generic split primes beyond it"
        )
    return Verdict(
        h=h,
        kind=kind,
        refined=refined,
        critical_primes=critical,
        cutoff=certificate.q0,
        r_k=r_k,
        note="; ".join(notes),
        certificate=certificate,
    )


# Density bounds are held as multiples of 2**-DENSITY_BITS.  At 192 bits the
# rounding of a bound at 10**5, with 9 592 primes, moves it by less than
# 10**-53, far below the 12 digits the text output prints.
DENSITY_BITS = 192


@dataclass(frozen=True)
class DensityInterval:
    """Certified enclosure of the Euler product of local generating fractions.

    `counts` holds each prime's exact local count of generating k-tuples, out
    of the p^(dimension k) that exist; `lower` and `upper` are multiples of
    2**-DENSITY_BITS (see `density`).  `factors`, the exact local fractions, is
    derived from `counts`, so only the machine document and the callers that
    read it reduce them.
    """

    k: int
    bound: int
    minimum_bound: int
    lower: Fraction
    upper: Fraction
    dimension: int
    counts: tuple[tuple[int, int], ...]
    tail_coefficient: Fraction | None
    zero_reason: str | None
    note: str

    def __post_init__(self) -> None:
        if not 0 <= self.lower <= self.upper <= 1:
            raise CertificateError(f"density bounds out of order: lower {self.lower}, upper {self.upper}")

    @property
    def factors(self) -> tuple[tuple[int, Fraction], ...]:
        """(p, count / p^(dimension k)) for every prime, built from `counts` on each access."""
        exponent = self.dimension * self.k
        return tuple((p, Fraction(count, p**exponent)) for p, count in self.counts)


def _tail_terms(spec: OrderSpec, k: int) -> tuple[tuple[int, int, str], ...]:
    """Tail deficiency terms (coefficient, exponent, label) per worst-case shape.

    Beyond the truncation bound every prime's local factor is at least
    1 - sum(coeff * q**-exp) over these terms; validity of the constants is
    arranged by the per-shape floor in _tail_floor.
    """
    d = spec.dimension
    terms: list[tuple[int, int, str]] = []
    for n, r, copies in _worst_shapes(spec):
        if n == 1 and r >= 2:
            terms.append((copies * r, k * (r - r // 2), f"subfields n={n} r={r}"))
        if n >= 2:
            dn = _deficiency_coeff(n)
            terms.append((copies * dn, r * (k - 1) * (n - 1), f"head n={n} r={r}"))
            if r >= 2:
                exp = (r - r // 2) * ((k - 1) * n * n + 1)
                terms.append((copies * r, exp, f"twist n={n} r={r}"))
        if copies >= 2:
            exp = r * ((k - 1) * n * n + 1)
            terms.append((copies * (copies - 1) * r, exp, f"pairwise n={n} r={r}"))
        allowance = d // (2 * r * n * n)
        if allowance >= 1:
            exp = r * ((k - 1) * n * n + 1)
            terms.append((allowance, exp, f"ramified n={n} r={r}"))
    return tuple(terms)


def _tail_floor(spec: OrderSpec) -> int:
    """Least truncation bound for which the tail constants are valid."""
    floor = 25
    for p in spec.listed_primes:
        floor = max(floor, p)
    for n, r, copies in _worst_shapes(spec):
        floor = max(floor, r**n, 2 * r * copies)
        if n >= 2:
            floor = max(floor, 2 * (_deficiency_coeff(n) + r))
    return floor


def density(spec: OrderSpec, k: int, bound: int | None = None) -> DensityInterval:
    """Certified interval for the product over all primes of the local generating fraction.

    Each prime's factor is exact.  The product of the factors up to the bound
    is enclosed in multiples of 2**-DENSITY_BITS, the lower end rounded down
    and the upper end rounded up at every prime (R. E. Moore, *Interval
    Analysis*, 1966), so no number outgrows DENSITY_BITS + 1 bits.  As every
    factor lies in [0, 1], each rounding adds less than one unit to the
    width: `upper` exceeds the exact partial product by less than pi(bound)
    units, and `lower` falls short of the exact lower bound by at most
    pi(bound) + 1.  The local data, and from it the `count_plan` of the
    groups' count polynomials, is built once per splitting shape for the
    call (`_ShapeIndex`, which reads a quadratic center's shape from the
    prime's residue class), so each prime's count is a shape lookup and a few
    Horner evaluations (`plan_count`).  The sieve stops where the loop stops,
    at a vanishing factor too, but a bound whose sieve, bound + 1 entries,
    exceeds the work budget (``errors.check_budget``) raises BudgetExceeded
    before any prime is sieved.

    A `zero_reason` makes the product exactly 0: a factor of reduced degree 2
    at k = 2 (bound 0, before the floor and budget checks), or a vanishing
    local factor, which ends the loop as the last entry of `counts`.
    """
    if k < 1:
        raise SpecError("k must be a positive integer")
    note_parts = []
    if not spec.free_over_base:
        note_parts.append(
            "free_over_base is false: the product is a local invariant; reading "
            "it as a global density is conjectural"
        )
    zero_reason = tail_coefficient = None
    if k == 2 and any(f.degree == 2 for f in spec.factors):
        bound = minimum = 0
        zero_reason = (
            "a factor of reduced degree 2 makes every split prime contribute "
            "1 - 1/p + O(1/p^2) at k=2, so the product diverges to zero"
        )
    else:
        minimum = _tail_floor(spec)
        if bound is None:
            bound = minimum
        if bound < minimum:
            raise BoundTooSmall(bound, minimum)
        check_budget(bound + 1, unit="sieve entries")

    d = spec.dimension
    counts = []
    lo = hi = 1 << DENSITY_BITS
    plan_at = _ShapeIndex(spec, partial(count_plan, k)).at
    for p in _primes(bound + 1):
        count, whole = plan_count(plan_at(p), p), p ** (d * k)
        if not 0 <= count <= whole:
            raise CertificateError(f"local count {count} at p={p} is outside [0, p^{d * k}]")
        counts.append((p, count))
        if count == 0:
            zero_reason = f"the local factor at p={p} vanishes: k={k} is below the local minimum there"
            break
        lo = lo * count // whole
        hi = -(-hi * count // whole)

    lower = upper = Fraction(0)
    if zero_reason is None:
        upper = Fraction(hi, 1 << DENSITY_BITS)
        terms = _tail_terms(spec, k)
        gated = [t for t in terms if t[1] < 2]
        if gated:
            labels = ", ".join(label for _, _, label in gated)
            note_parts.append(
                f"tail exponent below 2 for {labels}: the certified lower bound "
                "degenerates to 0 at this k"
            )
        else:
            tail_coefficient = sum(
                (Fraction(coeff, minimum ** (exp - 2)) for coeff, exp, _ in terms),
                Fraction(0),
            )
            t = max(Fraction(0), 1 - Fraction(tail_coefficient, bound))
            lower = Fraction(lo * t.numerator // t.denominator, 1 << DENSITY_BITS)
    return DensityInterval(
        k=k,
        bound=bound,
        minimum_bound=minimum,
        lower=lower,
        upper=upper,
        dimension=d,
        counts=tuple(counts),
        tail_coefficient=tail_coefficient,
        zero_reason=zero_reason,
        note="; ".join(note_parts),
    )


@dataclass(frozen=True)
class QuaternionTable:
    """Smallest generator counts for m copies of a rational quaternion order.

    `ranges` holds (h, first m, last m) per level of h.  `rows`, one (m, h) pair
    per m, is derived from it, so only the machine document builds the pairs.
    """

    ramified: tuple[int, ...]
    m_max: int
    ranges: tuple[tuple[int, int, int], ...]

    @property
    def rows(self) -> tuple[tuple[int, int], ...]:
        """(m, h(m)) for every m, built from `ranges` on each access."""
        return tuple((m, h) for h, lo, hi in self.ranges for m in range(lo, hi + 1))


def make_quaternion_spec(ramified: tuple[int, ...], copies: int = 1) -> OrderSpec:
    """Order spec for the m-th power of a quaternion order ramified at the given primes."""
    primes = tuple(sorted(set(ramified)))
    if not primes:
        raise SpecError("ramified set must be nonempty")
    for p in primes:
        if p < 2 or not is_prime(p):
            raise SpecError(f"ramified entries must be primes, got {p}")
    factor = SimpleFactorSpec(
        name="quaternion",
        center_minpoly=(0, 1),
        degree=2,
        local_indices={p: (2,) for p in primes},
        copies=copies,
    )
    return OrderSpec(factors=(factor,), free_over_base=False)


def quaternion_example(ramified: tuple[int, ...], m_max: int) -> QuaternionTable:
    """h(m) for m = 1..m_max copies of the quaternion order, with threshold ranges.

    h(m) <= k exactly when every prime has room for m copies at level k, where a
    prime's room is the least capacity of its block groups, each divided by the
    group's copies in one copy of the order.  So level k ends at the least room
    over all primes, with no verdict and no sieve up to the cutoff.  The room at
    2 caps it, and an unlisted prime at or above the largest shape threshold for
    that many copies has room for them (the argument that certifies the cutoff),
    so only the primes below that threshold and the listed primes are looked at.
    Levels start at 2, as a matrix factor has no cutoff at 1.  Each nonempty
    range is certified by `prime_cutoff` at its first and last m.  h never
    decreases in m, since a tuple generating A^m projects to one generating
    A^(m-1), so a level that reaches fewer copies than the one below raises
    CertificateError.
    """
    if m_max < 1:
        raise SpecError("m_max must be a positive integer")
    one = make_quaternion_spec(ramified)
    groups_at = _ShapeIndex(one, attrgetter("groups")).at

    def room(k: int, p: int) -> int:
        return min(twisted_capacity(k, n, p, r) // _copies(members) for (n, r), members in groups_at(p))

    ranges = []
    k, reached = 1, 0
    while reached < m_max:
        k += 1
        most = min(m_max, room(k, 2))
        threshold = max(b.threshold for b in _cutoff_shapes(make_quaternion_spec(ramified, most), k)[0])
        level = min([most] + [room(k, p) for p in itertools.chain(_primes(threshold), one.listed_primes)])
        if level < reached:
            raise CertificateError(
                f"h must be nondecreasing in the copy count, but level {k} reaches "
                f"{level} copies and level {k - 1} reached {reached}"
            )
        if level > reached:
            for m in {reached + 1, level}:
                prime_cutoff(make_quaternion_spec(ramified, m), k)
            ranges.append((k, reached + 1, level))
            reached = level
    return QuaternionTable(
        ramified=tuple(sorted(set(ramified))),
        m_max=m_max,
        ranges=tuple(ranges),
    )


@dataclass(frozen=True)
class PrimeDetail:
    """Local minimum and block structure at one checked prime."""

    p: int
    min_k: int
    groups: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class Report:
    """Aggregated analysis: verdict, per-prime detail, optional density interval."""

    dimension: int
    free_over_base: bool
    verdict: Verdict
    details: tuple[PrimeDetail, ...]
    density: DensityInterval | None


def report(
    spec: OrderSpec,
    density_k: int | None = None,
    density_bound: int | None = None,
) -> Report:
    """Full analysis of a spec: verdict, local detail below the cutoff, optional density.

    A density bound without a density k raises SpecError.
    """
    if density_k is None and density_bound is not None:
        raise SpecError("a density bound needs a density k")
    table: dict[int, tuple[ClassifiedLocal, int]] = {}
    verdict = smallest_h(spec, _table=table)
    details = tuple(
        PrimeDetail(p=p, min_k=min_k, groups=tuple((n, r, _copies(members)) for (n, r), members in cls.groups))
        for p, (cls, min_k) in table.items()
        if p < verdict.cutoff
    )
    interval = None if density_k is None else density(spec, density_k, density_bound)
    return Report(
        dimension=spec.dimension,
        free_over_base=spec.free_over_base,
        verdict=verdict,
        details=details,
        density=interval,
    )


def _json_leaf(obj):
    """A Fraction as "n/d", a dataclass as its field dict; anything else raises TypeError.

    A density interval's dict holds `factors` in place of `dimension` and
    `counts`, and a quaternion table's also holds `rows`.
    """
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if is_dataclass(obj) and not isinstance(obj, type):
        doc = {f.name: getattr(obj, f.name) for f in fields(obj)}
        if isinstance(obj, DensityInterval):
            del doc["dimension"], doc["counts"]
            doc["factors"] = obj.factors
        elif isinstance(obj, QuaternionTable):
            doc["rows"] = obj.rows
        return doc
    raise TypeError(f"cannot render {type(obj).__name__} to JSON")


def render_json(obj) -> str:
    """Canonical machine document: sorted keys, no whitespace, `_json_leaf` for what JSON lacks.

    An integer past `sys.get_int_max_str_digits()` raises ValueError.
    """
    return json.dumps(obj, default=_json_leaf, sort_keys=True, separators=(",", ":"))


def to_jsonable(obj):
    """The JSON value of a result: its machine document, parsed back."""
    return json.loads(render_json(obj))


def _fraction_text(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def density_text(interval: DensityInterval) -> str:
    """Aligned text rendering of a density interval."""
    lines = [
        f"k                 {interval.k}",
        f"truncation bound  {interval.bound}",
    ]
    if interval.zero_reason is not None:
        lines.append("density           0 (exact)")
        lines.append(f"reason            {interval.zero_reason}")
    else:
        lines.append(f"upper             {float(interval.upper):.12g}")
        lines.append(f"lower             {float(interval.lower):.12g}")
        if interval.tail_coefficient is not None:
            lines.append(f"tail coefficient  {_fraction_text(interval.tail_coefficient)}")
    if interval.note:
        lines.append(f"note              {interval.note}")
    return "\n".join(lines)


def quaternion_table_text(table: QuaternionTable) -> str:
    """Aligned text rendering of a quaternion h(m) table."""
    ram = ",".join(str(p) for p in table.ramified)
    lines = [f"quaternion order ramified at {{{ram}}}, m = 1..{table.m_max}", ""]
    lines.append("    h  copies")
    for h, lo, hi in table.ranges:
        span = f"m = {lo}" if lo == hi else f"{lo} <= m <= {hi}"
        lines.append(f"    {h}  {span}")
    return "\n".join(lines)


def render_text(rep: Report) -> str:
    """Aligned-column text rendering of a full report."""
    verdict = rep.verdict
    value = str(verdict.h)
    if verdict.refined is not None:
        value = f"{verdict.h} (refined: exactly {verdict.refined})"
    lines = [
        f"dimension        {rep.dimension}",
        f"free over base   {'yes' if rep.free_over_base else 'no'}",
        f"smallest h       {value}",
        f"verdict          {verdict.kind}",
        f"r_K              {verdict.r_k}",
        f"certified cutoff {verdict.cutoff} (at k = {verdict.certificate.k})",
        f"critical primes  {', '.join(map(str, verdict.critical_primes)) or '(none below cutoff)'}",
    ]
    if verdict.note:
        lines.append(f"note             {verdict.note}")
    if rep.details:
        lines.append("")
        lines.append("prime  min_k  blocks (n x n over degree-r extension, copies)")
        for detail in rep.details:
            blocks = ", ".join(f"n={n} r={r} x{c}" for n, r, c in detail.groups)
            lines.append(f"{detail.p:<6} {detail.min_k:<6} {blocks}")
    if rep.density is not None:
        lines.append("")
        lines.append(density_text(rep.density))
    return "\n".join(lines)
