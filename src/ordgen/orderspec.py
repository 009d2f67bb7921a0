"""Order descriptions over the rational integers and their local generating counts.

An OrderSpec lists simple factors (center minimal polynomial, division-algebra
degree, declared local indices, copies).  For each rational prime the splitting
of every center is read off the minimal polynomial modulo p, certified by the
maximality criterion of the polynomial order; classified local data then feeds
exact per-prime generating-tuple counts and minimal-k thresholds.  A density,
verdict or quaternion table holds one shape index (`_ShapeIndex`), which
builds that data once per splitting shape and reads a quadratic center's shape
from the prime's residue class modulo the center's discriminant.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from . import polys
from .counting import gen_count_power, horner, min_k_for_copies, twisted_count_polys
from .errors import (
    CertificateError,
    EmptySpec,
    ExceptionalPrimeNeedsOverride,
    IndexNotDividingDegree,
    InvalidCount,
    NotMonic,
    NotPrime,
    SpecError,
)
from .finalg import FiniteAlgebra, matrix_over, product_algebra, truncated_local_algebra
from .primes import is_prime


# -- splitting patterns ------------------------------------------------------


@dataclass(frozen=True)
class DegreePattern:
    """Multiset of (residue degree, multiplicity) for the primes above p, plus
    whether the polynomial order is certified maximal at p."""

    pairs: tuple[tuple[int, int], ...]
    certified: bool


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


_LINEAR = DegreePattern(((1, 1),), True)
_SPLIT = DegreePattern(((1, 1), (1, 1)), True)
_INERT = DegreePattern(((2, 1),), True)


def degree_pattern(minpoly, p: int) -> DegreePattern:
    """Factor shape of a monic integer polynomial mod p with a maximality certificate.

    The pattern lists one (degree, multiplicity) pair per irreducible factor of
    the reduction mod p.  Degrees 1 and 2 take a shortcut: a linear f is one
    certified linear factor, and a quadratic x^2 + bx + c with p not dividing
    disc(f) = b^2 - 4c reduces to a squarefree polynomial (f is monic), so
    Z[x]/(f) is maximal at p by Dedekind's criterion and f splits or stays
    inert by Euler's criterion on the discriminant (for p = 2 by the parity
    of c).

    Otherwise, that is for a quadratic at a prime dividing its discriminant
    and for every degree from 3 on, the full path runs: a squarefree
    decomposition, a distinct-degree factorization of each part, then the
    lifted-radical test.  With fbar = g*h for g the radical and h the
    cofactor, the order is maximal at p iff gcd((g*h - f)/p mod p, gcd(g, h)) = 1.
    """
    coeffs = tuple(int(c) for c in minpoly)
    if not coeffs or coeffs[-1] != 1 or len(coeffs) < 2:
        raise NotMonic(f"center polynomial must be monic of positive degree, got {list(minpoly)}")
    if not is_prime(p):
        raise NotPrime(p)
    return _pattern(coeffs, p)


def _pattern(coeffs: tuple[int, ...], p: int) -> DegreePattern:
    """degree_pattern of a monic integer coefficient tuple at a prime, both unchecked."""
    n = len(coeffs) - 1
    if n == 1:
        return _LINEAR
    if n == 2:
        c, b, _ = coeffs
        disc = b * b - 4 * c
        if disc % p:
            if p == 2:
                return _INERT if c % 2 else _SPLIT
            return _SPLIT if pow(disc % p, (p - 1) // 2, p) == 1 else _INERT
    return _full_pattern(coeffs, p)


def _full_pattern(coeffs: tuple[int, ...], p: int) -> DegreePattern:
    """degree_pattern without the shortcut, valid at every prime: factor and certify in full."""
    fbar = polys.reduce_mod(coeffs, p)
    if polys.degree(fbar) != len(coeffs) - 1:
        raise CertificateError(f"reduction of {list(coeffs)} mod {p} lost degree")
    parts = polys.squarefree_decomposition(fbar, p)
    pattern = []
    radical: polys.Poly = (1,)
    for part, mult in parts:
        radical = polys.mul(radical, part, p)
        for deg, cnt in sorted(polys.distinct_degree_counts(part, p).items()):
            pattern.extend([(deg, mult)] * cnt)
    pattern.sort()
    if sum(deg * mult for deg, mult in pattern) != len(coeffs) - 1:
        raise CertificateError(f"factor degrees {pattern} of {list(coeffs)} mod {p} do not sum to its degree")
    cofactor, rem = polys.divmod_poly(fbar, radical, p)
    if rem:
        raise CertificateError(f"radical of {list(coeffs)} mod {p} does not divide it")
    common = polys.gcd(radical, cofactor, p)
    if polys.degree(common) <= 0:
        certified = True
    else:
        lifted = _int_mul(list(radical), list(cofactor))
        lifted += [0] * (len(coeffs) - len(lifted))
        diff = [x - y for x, y in zip(lifted, coeffs)]
        if any(c % p for c in diff):
            raise CertificateError(f"lifted factors of {list(coeffs)} do not agree with it mod {p}")
        tbar = polys.reduce_mod(tuple(c // p for c in diff), p)
        certified = polys.degree(polys.gcd(tbar, common, p)) <= 0
    return DegreePattern(tuple(pattern), certified)


# -- spec model ---------------------------------------------------------------

_FACTOR_KEYS = {"name", "center_minpoly", "degree", "local_indices", "copies"}
_SPEC_KEYS = {"factors", "free_over_base", "overrides"}


@dataclass(frozen=True)
class SimpleFactorSpec:
    """One simple factor: center K = Q[x]/(center_minpoly), division degree
    delta (dimension delta^2 over K), declared local indices, and copies."""

    name: str
    center_minpoly: tuple[int, ...]
    degree: int
    local_indices: dict = field(default_factory=dict)
    copies: int = 1

    def __post_init__(self):
        if not self.name:
            raise SpecError("factor name must be nonempty")
        if self.degree < 1:
            raise SpecError(f"factor {self.name}: degree must be >= 1")
        if self.copies < 1:
            raise SpecError(f"factor {self.name}: copies must be >= 1")
        coeffs = self.center_minpoly
        if not coeffs or coeffs[-1] != 1 or len(coeffs) < 2:
            raise NotMonic(f"factor {self.name}: center polynomial must be monic of positive degree")
        for p, ms in self.local_indices.items():
            if not is_prime(p):
                raise SpecError(f"factor {self.name}: local index key {p} is not prime")
            if not ms:
                raise SpecError(f"factor {self.name}: empty local index list at p={p}")
            for m in ms:
                if m < 1 or self.degree % m != 0:
                    raise IndexNotDividingDegree(f"factor {self.name}: index {m} does not divide degree {self.degree}")

    @property
    def center_degree(self) -> int:
        return len(self.center_minpoly) - 1

    @property
    def dimension(self) -> int:
        """Dimension over the rationals of this factor including copies."""
        return self.center_degree * self.degree**2 * self.copies


@dataclass(frozen=True)
class OrderSpec:
    """A maximal order in a product of simple algebras over the rationals."""

    factors: tuple[SimpleFactorSpec, ...]
    free_over_base: bool = False
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.factors:
            raise EmptySpec("spec has no factors")
        names = [f.name for f in self.factors]
        if len(set(names)) != len(names):
            raise SpecError("factor names must be unique")
        for fac in self.factors:
            if fac.center_degree > 1 and fac.local_indices:
                missing = [p for p in fac.local_indices if p not in self.overrides]
                if missing:
                    raise SpecError(
                        f"factor {fac.name}: local indices over a center of degree > 1 "
                        f"need explicit override rows for p in {sorted(missing)}"
                    )
        d = self.dimension
        for p, rows in self.overrides.items():
            if not is_prime(p):
                raise SpecError(f"override key {p} is not prime")
            if not rows:
                raise SpecError(f"override for p={p} is empty")
            total = 0
            for row in rows:
                if len(row) != 4 or any(x < 1 for x in row):
                    raise SpecError(f"override row {row} at p={p} must be four positive integers (n, m, e, f)")
                n, m, e, f = row
                total += e * f * m * m * n * n
            if total != d:
                raise SpecError(f"override rows at p={p} have total dimension {total}, expected {d}")

    @property
    def dimension(self) -> int:
        return sum(f.dimension for f in self.factors)

    @property
    def listed_primes(self) -> list[int]:
        """Primes carrying declared indices or override rows, sorted."""
        out = set(self.overrides)
        for f in self.factors:
            out.update(f.local_indices)
        return sorted(out)


def _json_int(value, what: str) -> int:
    """A JSON integer; booleans and non-integral numbers are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{what} must be an integer, got {value!r}")
    return value


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise SpecError(f"{what} must be a JSON list, got {value!r}")
    return value


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SpecError(f"{what} must be a JSON object, got {value!r}")
    return value


def _prime_key(key: str, what: str) -> int:
    """A map key in plain decimal; int() alone would also read "0_2" or " 2" as 2."""
    try:
        p = int(key)
    except ValueError:
        p = None
    if p is None or str(p) != key:
        raise SpecError(f"{what} key {key!r} is not an integer in plain decimal")
    return p


def _int_list(value, what: str) -> tuple[int, ...]:
    return tuple(_json_int(x, f"an entry of {what}") for x in _json_list(value, what))


def spec_from_dict(data: dict) -> OrderSpec:
    """Build and validate an OrderSpec from parsed JSON.

    Unknown keys are rejected, and so is every value of the wrong JSON type:
    integers must be integers (not booleans or fractions), flags must be
    booleans, lists must be lists and maps must be objects.
    """
    _json_object(data, "spec document")
    unknown = set(data) - _SPEC_KEYS
    if unknown:
        raise SpecError(f"unknown spec keys: {sorted(unknown)}")
    raw_factors = data.get("factors")
    if raw_factors is None:
        raise EmptySpec("spec has no factors")
    factors = []
    for raw in _json_list(raw_factors, "factors"):
        _json_object(raw, "each factor")
        bad = set(raw) - _FACTOR_KEYS
        if bad:
            raise SpecError(f"unknown factor keys: {sorted(bad)}")
        if "name" not in raw or "center_minpoly" not in raw or "degree" not in raw:
            raise SpecError("factor needs name, center_minpoly, and degree")
        if not isinstance(raw["name"], str):
            raise SpecError(f"factor name must be a string, got {raw['name']!r}")
        indices = {
            _prime_key(key, "local index"): _int_list(ms, f"local_indices[{key!r}]")
            for key, ms in _json_object(raw.get("local_indices", {}), "local_indices").items()
        }
        factors.append(
            SimpleFactorSpec(
                name=raw["name"],
                center_minpoly=_int_list(raw["center_minpoly"], "center_minpoly"),
                degree=_json_int(raw["degree"], "degree"),
                local_indices=indices,
                copies=_json_int(raw.get("copies", 1), "copies"),
            )
        )
    overrides = {}
    for key, rows in _json_object(data.get("overrides", {}), "overrides").items():
        rows = _json_list(rows, f"overrides[{key!r}]")
        overrides[_prime_key(key, "override")] = tuple(_int_list(row, "an override row") for row in rows)
    free = data.get("free_over_base", False)
    if not isinstance(free, bool):
        raise SpecError(f"free_over_base must be true or false, got {free!r}")
    return OrderSpec(factors=tuple(factors), free_over_base=free, overrides=overrides)


def load_spec(path: str) -> OrderSpec:
    """Load an OrderSpec from a JSON file.

    A file that is not UTF-8, not JSON, or holds an integer past Python's
    digit limit for integer conversion raises SpecError.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
    return spec_from_dict(data)


def spec_to_dict(spec: OrderSpec) -> dict:
    """Canonical JSON-ready form of a spec (round-trips through spec_from_dict)."""
    return {
        "factors": [
            {
                "name": f.name,
                "center_minpoly": list(f.center_minpoly),
                "degree": f.degree,
                "local_indices": {str(p): list(ms) for p, ms in sorted(f.local_indices.items())},
                "copies": f.copies,
            }
            for f in spec.factors
        ],
        "free_over_base": spec.free_over_base,
        "overrides": {str(p): [list(row) for row in rows] for p, rows in sorted(spec.overrides.items())},
    }


# -- local data ----------------------------------------------------------------


@dataclass(frozen=True)
class LocalPrimeData:
    """Per-prime local structure: distinct entries (n, m, e, f) with their copy counts."""

    p: int
    entries: tuple[tuple[tuple[int, int, int, int], int], ...]
    exceptional: bool


def local_data(spec: OrderSpec, p: int, *, _known_prime: bool = False) -> LocalPrimeData:
    """Assemble the local entries of the spec at a rational prime.

    Override rows win outright; otherwise each factor contributes one entry per
    prime of its center above p, with the declared index (default 1) and the
    residue data from degree_pattern, counted once per copy of the factor.  An
    uncertifiable pattern marks the prime exceptional.  p is checked for
    primality once, here, unless the caller took it from a sieve of primes
    (`_known_prime`, as the solver does); the spec's polynomials were checked
    when it was built, so the patterns come from degree_pattern's unchecked body.
    """
    if not _known_prime and not is_prime(p):
        raise NotPrime(p)
    if p in spec.overrides:
        return LocalPrimeData(p, tuple(Counter(map(tuple, spec.overrides[p])).items()), False)
    counts: Counter = Counter()
    for fac in spec.factors:
        pattern = _pattern(fac.center_minpoly, p)
        if not pattern.certified:
            return LocalPrimeData(p, (), True)
        listed = fac.local_indices.get(p)
        if listed is not None and len(listed) != len(pattern.pairs):
            raise SpecError(
                f"factor {fac.name}: {len(listed)} local indices at p={p}, "
                f"but {len(pattern.pairs)} primes lie above it"
            )
        for j, (fdeg, e) in enumerate(pattern.pairs):
            m = listed[j] if listed is not None else 1
            if fac.degree % m != 0:
                raise IndexNotDividingDegree(f"index {m} does not divide degree {fac.degree}")
            counts[fac.degree // m, m, e, fdeg] += fac.copies
    data = LocalPrimeData(p, tuple(counts.items()), False)
    total = sum(count * e * f * m * m * n * n for (n, m, e, f), count in data.entries)
    if total != spec.dimension:
        raise CertificateError(f"local entries at p={p} have total dimension {total}, expected {spec.dimension}")
    return data


@dataclass(frozen=True)
class ClassifiedLocal:
    """Entries grouped by (capacity n, twist degree r = f*m); members carry (e*m, c, copies).

    c encodes the radical correction constant: None for 0 (m = e = 1), 0 for 1
    (m > 1) and f for p^-f (m = 1 < e), so an integer c stands for p^-c.
    """

    p: int
    groups: tuple[tuple[tuple[int, int], tuple[tuple[int, int | None, int], ...]], ...]


def classify(data: LocalPrimeData) -> ClassifiedLocal:
    """Group local entries by (n, r); raises for exceptional primes."""
    if data.exceptional:
        raise ExceptionalPrimeNeedsOverride(data.p, "splitting not certifiable; supply override rows")
    buckets: dict = {}
    for (n, m, e, f), count in data.entries:
        c = 0 if m > 1 else f if e > 1 else None
        members = buckets.setdefault((n, f * m), Counter())
        members[e * m, c] += count
    groups = tuple(
        (key, tuple((em, c, count) for (em, c), count in sorted(members.items())))
        for key, members in sorted(buckets.items())
    )
    return ClassifiedLocal(data.p, groups)


class _ShapeIndex:
    """build(classify(local_data(spec, p))) at sieved primes p, built once per splitting shape.

    Held for one density, one verdict or one quaternion table.  Away from the
    listed primes, those with override rows or declared indices, the local
    data depends on p only through how each center splits there, and a linear
    center splits the same way everywhere.  So `at` keys what `build` made of
    the first prime of a shape by the patterns of the nonlinear centers, in
    factor order, each stored as its number in `numbers` so that the key
    hashes without the dataclass's Python-level __hash__.

    A quadratic center x^2 + bx + c has discriminant D = b^2 - 4c = 0 or 1 mod
    4, so the Kronecker symbol (D/.) is a character mod |D| (H. Cohen, *A Course
    in Computational Algebraic Number Theory*, 1993, section 1.4).  At a prime p
    not dividing D the center splits or stays inert as (D/p) is 1 or -1: by
    Euler's criterion for odd p and, for p = 2 and D = 1 mod 4, as D is 1 or 5
    mod 8, which is the parity of c that `_pattern` reads.  A prime dividing D
    is the only prime in its class.  So for D != 0 the pattern depends on p mod
    |D| alone, and `_pattern` runs once per residue class, at its first prime.
    When D = 0, and for centers of degree 3 or more, it runs at every prime.

    A listed prime's value is built from its own local data and kept under the
    prime.  An uncertified pattern is never stored: `classify` raises for it,
    naming p.
    """

    def __init__(self, spec: OrderSpec, build):
        self.spec = spec
        self.build = build
        self.listed: dict = dict.fromkeys(spec.listed_primes)  # prime -> value, once built
        self.numbers: dict[DegreePattern, int] = {}
        self.values: dict = {}
        self.readers = tuple(self._reader(f.center_minpoly) for f in spec.factors if f.center_degree > 1)

    def _number(self, pattern: DegreePattern) -> int:
        return self.numbers.setdefault(pattern, len(self.numbers))

    def _reader(self, coeffs: tuple[int, ...]):
        """The function from a prime to the number of the center's pattern there."""
        number = self._number
        modulus = abs(coeffs[1] ** 2 - 4 * coeffs[0]) if len(coeffs) == 3 else 0
        if not modulus:
            return lambda p: number(_pattern(coeffs, p))
        classes: dict[int, int] = {}

        def read(p: int) -> int:
            value = classes.get(p % modulus)
            if value is None:
                value = classes[p % modulus] = number(_pattern(coeffs, p))
            return value

        return read

    def at(self, p: int):
        """build(classify(local_data(spec, p))) for a sieved prime p."""
        if p in self.listed:
            value = self.listed[p]
            if value is None:
                value = self.listed[p] = self._built(p)
            return value
        key = tuple([read(p) for read in self.readers])
        value = self.values.get(key)
        if value is None:
            value = self.values[key] = self._built(p)
        return value

    def _built(self, p: int):
        return self.build(classify(local_data(self.spec, p, _known_prime=True)))


def _copies(members) -> int:
    return sum(count for _, _, count in members)


def gen_count_local(k: int, cls: ClassifiedLocal) -> int:
    """Exact number of k-tuples generating the full local quotient algebra at p.

    Product over groups of the semisimple head count times one radical factor
    p^(k n^2 r (em-2)) * (p^(k n^2 r) - p^(n^2 r - c)) per copy of a member;
    members with c None (m = e = 1) contribute 1.  `density` takes the same
    product from the count polynomials (`count_plan`, `plan_count`); this
    route through the per-q counts is their oracle.
    """
    if k < 1:
        raise InvalidCount(f"tuple length k must be at least 1, got {k}")
    p = cls.p
    total = 1
    for (n, r), members in cls.groups:
        head = gen_count_power(k, n, p, r, _copies(members))
        if head == 0:
            return 0
        total *= head
        size = n * n * r
        for em, c, count in members:
            if c is None:
                continue
            piece = p ** (k * size * (em - 2)) * (p ** (k * size) - p ** (size - c))
            if piece == 0:
                return 0
            total *= piece**count
    return total


def count_plan(k: int, cls: ClassifiedLocal) -> tuple:
    """`gen_count_local` at k for every prime with the groups of cls, as integer data.

    One entry per group (n, r): the coefficients in q of g_k(n, q, r) and of
    r |PGL_n(F_{q^r})| (`twisted_count_polys`), the group's copies, and for
    each member with a radical correction the exponents and copies (a, b, c,
    count) of its factor (q^a (q^b - q^c))^count, as in `gen_count_local`.
    """
    plan = []
    for (n, r), members in cls.groups:
        size = n * n * r
        radicals = tuple(
            (k * size * (em - 2), k * size, size - c, count) for em, c, count in members if c is not None
        )
        plan.append((*twisted_count_polys(k, n, r), _copies(members), radicals))
    return tuple(plan)


def plan_count(plan: tuple, p: int) -> int:
    """gen_count_local at the prime p, from the `count_plan` of its groups.

    Each group's count and capacity step are one Horner evaluation each; as in
    `gen_count_power`, a group with more copies than its capacity gives 0.
    """
    total = 1
    for count_coeffs, step_coeffs, copies, radicals in plan:
        g, step = horner(count_coeffs, p), horner(step_coeffs, p)
        if copies > g // step:
            return 0
        for i in range(copies):
            total *= g - i * step
        for a, b, c, count in radicals:
            piece = p**a * (p**b - p**c)
            if piece == 0:
                return 0
            total *= piece**count
    return total


def min_k_local(cls: ClassifiedLocal) -> int:
    """Smallest k with a positive local generating count at this prime.

    The capacity search settles every k >= 2; the only extra constraint is
    that a ramified division part (index m > 1, radical correction c = 0,
    standing for 1) kills all single generators, since the generated
    subalgebra of one element is commutative.  Exact for every block size n.
    """
    best = 1
    for (n, r), members in cls.groups:
        best = max(best, min_k_for_copies(n, cls.p, r, _copies(members)))
        if any(c == 0 for _, c, _ in members):
            best = max(best, 2)
    return best


def local_quotient_algebra(data: LocalPrimeData) -> FiniteAlgebra:
    """The finite quotient algebra at p as an explicit structure-constant product.

    Each copy of an entry (n, m, e, f) contributes the n x n matrix algebra
    over the twisted truncated local algebra with residue data (f, m, e);
    twist s = 1 (generating counts do not depend on the twist).
    """
    if data.exceptional:
        raise ExceptionalPrimeNeedsOverride(data.p, "splitting not certifiable; supply override rows")
    if not data.entries:
        raise SpecError(f"no local entries at p={data.p}")
    algs = [
        matrix_over(truncated_local_algebra(data.p, f, m, 1, e), n)
        for (n, m, e, f), count in data.entries
        for _ in range(count)
    ]
    out = algs[0]
    for nxt in algs[1:]:
        out = product_algebra(out, nxt)
    return out
