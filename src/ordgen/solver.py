"""Global verdicts assembled from exact local generating counts.

The headline quantity is the smallest k such that every finite quotient of
the order admits k algebra generators.  Local minima are evaluated exactly
for every prime below a certified cutoff Q0; a worst-case capacity
inequality (monotone in the residue characteristic, so checkable in closed
form) covers all primes beyond it.  Density intervals multiply exact local
factors up to a truncation bound and attach a certified rational tail
estimate, so every reported number is a statement, not a sample.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction

from .counting import _deficiency_coeff, twisted_capacity
from .errors import BoundTooSmall, CertificateError, NoCutoff, SpecError
from .finfield import is_prime
from .orderspec import (
    ClassifiedLocal,
    OrderSpec,
    SimpleFactorSpec,
    classify,
    gen_count_local,
    local_data,
    min_k_local,
)


def _ceil_root(value: int, exponent: int) -> int:
    """Smallest t >= 1 with t**exponent >= value."""
    assert value >= 1 and exponent >= 1
    if value == 1:
        return 1
    hi = 1 << ((value.bit_length() + exponent - 1) // exponent + 1)
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**exponent >= value:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _primes_below(n: int) -> tuple[int, ...]:
    if n <= 2:
        return ()
    flags = bytearray([1]) * n
    flags[0] = flags[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            for m in range(p * p, n, p):
                flags[m] = 0
    return tuple(i for i in range(2, n) if flags[i])


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
    assert copies >= 1 and k >= 1 and r >= 1
    if n == 1:
        if r == 1:
            return max(2, _ceil_root(copies, k))
        t = _ceil_root(2 * r, k * (r - r // 2))
        t = max(t, _ceil_root(2 * r * copies, k * r))
        return max(2, t)
    assert k >= 2, "no finite threshold exists at k=1 for matrix blocks"
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


def prime_cutoff(spec: OrderSpec, k: int) -> CutoffCertificate:
    """Certified Q0 such that every prime p >= Q0 passes the capacity test at level k."""
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
    listed = spec.listed_primes
    q0 = max([2] + [s.threshold for s in shapes] + [p + 1 for p in listed])
    sweep = []
    previous: list[int | None] = [None] * len(shapes)
    p = _next_prime(q0)
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
        p = _next_prime(p + step)
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


def _classified(spec: OrderSpec, table: dict[int, tuple[ClassifiedLocal, int]], p: int) -> tuple[ClassifiedLocal, int]:
    """The classified local data of the spec at a sieved prime p and its local minimum, once per table."""
    if p not in table:
        cls = classify(local_data(spec, p, _known_prime=True))
        table[p] = (cls, min_k_local(cls))
    return table[p]


def smallest_h(spec: OrderSpec, *, _table: dict[int, tuple[ClassifiedLocal, int]] | None = None) -> Verdict:
    """Smallest k such that every localization admits k generators, with verdict.

    Primes are classified once into `_table`, which `report` shares.
    """
    table = {} if _table is None else _table
    commutative = all(f.degree == 1 for f in spec.factors)
    r_k = 1 if commutative else 2
    has_delta2 = any(f.degree == 2 for f in spec.factors)

    def mk(p: int) -> int:
        return _classified(spec, table, p)[1]

    k = r_k  # with a matrix factor, k = 1 has no cutoff
    while True:
        certificate = prime_cutoff(spec, k)
        small = _primes_below(certificate.q0)
        if all(mk(p) <= k for p in small):
            h = k
            break
        k += 1

    critical = tuple(p for p in _primes_below(certificate.q0) if mk(p) == h)
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


@dataclass(frozen=True)
class DensityInterval:
    """Certified rational enclosure of the Euler product of local generating fractions."""

    k: int
    bound: int
    minimum_bound: int
    lower: Fraction
    upper: Fraction
    factors: tuple[tuple[int, Fraction], ...]
    tail_coefficient: Fraction | None
    zero_reason: str | None
    note: str

    def __post_init__(self) -> None:
        if not 0 <= self.lower <= self.upper <= 1:
            raise CertificateError(f"density bounds out of order: lower {self.lower}, upper {self.upper}")


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


def _tree_product(values: list[int]) -> int:
    """Product of the values by a balanced tree of multiplications (1 when empty).

    Pairwise products keep both operands of every multiplication about the same
    size, so the large products run in Python's Karatsuba range rather than as
    one long chain of small-by-large products.
    """
    while len(values) > 1:
        values = [a * b for a, b in zip(values[::2], values[1::2])] + values[len(values) & ~1 :]
    return values[0] if values else 1


def density(spec: OrderSpec, k: int, bound: int | None = None) -> DensityInterval:
    """Certified interval for the product over all primes of the local generating fraction.

    Each prime's factor is reduced on its own; their numerators and their
    denominators are multiplied in two product trees and reduced by one gcd at
    the end, which gives the same fraction as multiplying them one at a time.
    """
    if k < 1:
        raise SpecError("k must be a positive integer")
    note_parts = []
    if not spec.free_over_base:
        note_parts.append(
            "free_over_base is false: the product is a local invariant; reading "
            "it as a global density is conjectural"
        )
    if k == 2 and any(f.degree == 2 for f in spec.factors):
        return DensityInterval(
            k=k,
            bound=0,
            minimum_bound=0,
            lower=Fraction(0),
            upper=Fraction(0),
            factors=(),
            tail_coefficient=None,
            zero_reason=(
                "a factor of reduced degree 2 makes every split prime contribute "
                "1 - 1/p + O(1/p^2) at k=2, so the product diverges to zero"
            ),
            note="; ".join(note_parts),
        )
    minimum = _tail_floor(spec)
    if bound is None:
        bound = minimum
    if bound < minimum:
        raise BoundTooSmall(bound, minimum)

    d = spec.dimension
    factors = []
    numerators = []
    denominators = []
    for p in _primes_below(bound + 1):
        cls = classify(local_data(spec, p, _known_prime=True))
        count, whole = gen_count_local(k, cls), p ** (d * k)
        if not 0 <= count <= whole:
            raise CertificateError(f"local count {count} at p={p} is outside [0, p^{d * k}]")
        factor = Fraction(count, whole)
        factors.append((p, factor))
        numerators.append(factor.numerator)
        denominators.append(factor.denominator)
        if count == 0:
            return DensityInterval(
                k=k,
                bound=bound,
                minimum_bound=minimum,
                lower=Fraction(0),
                upper=Fraction(0),
                factors=tuple(factors),
                tail_coefficient=None,
                zero_reason=f"the local factor at p={p} vanishes: k={k} is below "
                "the local minimum there",
                note="; ".join(note_parts),
            )

    upper = Fraction(_tree_product(numerators), _tree_product(denominators))
    terms = _tail_terms(spec, k)
    gated = [t for t in terms if t[1] < 2]
    if gated:
        labels = ", ".join(label for _, _, label in gated)
        note_parts.append(
            f"tail exponent below 2 for {labels}: the certified lower bound "
            "degenerates to 0 at this k"
        )
        lower = Fraction(0)
        tail_coefficient = None
    else:
        tail_coefficient = sum(
            (Fraction(coeff, minimum ** (exp - 2)) for coeff, exp, _ in terms),
            Fraction(0),
        )
        lower = upper * max(Fraction(0), 1 - Fraction(tail_coefficient, bound))
    return DensityInterval(
        k=k,
        bound=bound,
        minimum_bound=minimum,
        lower=lower,
        upper=upper,
        factors=tuple(factors),
        tail_coefficient=tail_coefficient,
        zero_reason=None,
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

    h never decreases in m: a tuple generating A^m projects to one generating
    A^(m-1).  So each range of equal h is found by exponential and then binary
    search from its first m, at about h_max * log2(m_max) verdicts.
    """
    if m_max < 1:
        raise SpecError("m_max must be a positive integer")
    probes: dict[int, int] = {}

    def h_at(m: int) -> int:
        if m not in probes:
            probes[m] = smallest_h(make_quaternion_spec(ramified, m)).h
        return probes[m]

    ranges = []
    start = 1
    while start <= m_max:
        level = h_at(start)
        # h(lo) == level is known; hi is the least probed m beyond lo with h > level.
        lo, hi, step = start, m_max + 1, 1
        while hi == m_max + 1 and lo < m_max:
            m = min(lo + step, m_max)
            if h_at(m) == level:
                lo = m
                step *= 2
            else:
                hi = m
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if h_at(mid) == level:
                lo = mid
            else:
                hi = mid
        ranges.append((level, start, lo))
        start = lo + 1
    probed = sorted(probes.items())
    for (m1, h1), (m2, h2) in zip(probed, probed[1:]):
        if h1 > h2:
            raise CertificateError(
                f"h must be nondecreasing in the copy count, but h({m1}) = {h1} > h({m2}) = {h2}"
            )
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
    """Full analysis of a spec: verdict, local detail below the cutoff, optional density."""
    table: dict[int, tuple[ClassifiedLocal, int]] = {}
    verdict = smallest_h(spec, _table=table)
    details = []
    for p in _primes_below(verdict.cutoff):
        cls, min_k = _classified(spec, table, p)
        groups = tuple((n, r, sum(count for _, _, count in members)) for (n, r), members in cls.groups)
        details.append(PrimeDetail(p=p, min_k=min_k, groups=groups))
    interval = None
    if density_k is not None:
        interval = density(spec, density_k, density_bound)
    return Report(
        dimension=spec.dimension,
        free_over_base=spec.free_over_base,
        verdict=verdict,
        details=tuple(details),
        density=interval,
    )


def to_jsonable(obj):
    """Recursively convert dataclasses, tuples and Fractions to JSON-ready values."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if is_dataclass(obj) and not isinstance(obj, type):
        doc = {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
        if isinstance(obj, QuaternionTable):
            doc["rows"] = to_jsonable(obj.rows)
        return doc
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(key): to_jsonable(value) for key, value in obj.items()}
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"cannot render {type(obj).__name__} to JSON")


def render_json(obj) -> str:
    """Canonical machine rendering: sorted keys, no whitespace, exact rationals as strings."""
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))


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
