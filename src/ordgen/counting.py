"""Exact counts of generating k-tuples for matrix algebras over finite fields.

Every count is exact, in arbitrary-precision arithmetic: the plain counts of
M_n(F_q), by closed forms for n <= 3 and by a recursion for absolutely
irreducible modules for larger n, the twisted counts for algebras M_n(F_{q^r})
viewed over the subfield F_q, and the product formula for m identical simple
factors.  Quotients that must be exact are checked with `divmod` or a
`fractions.Fraction` denominator and raise CertificateError when they are not.
Arguments out of range (k, n, r or m below 1, q below 2) raise InvalidCount.
The subfield inversion reads its divisors and Moebius values from `factorize`.
For a caller that evaluates one shape at many q, `twisted_count_polys` gives the
twisted count and its capacity step as integer polynomials in q, interpolated
once per (k, n, r) and checked, so that each q costs one Horner evaluation.
Four caches remain: `pgl_order` (32 entries) and `_absolutely_irreducible` (128)
hold the repeats within one prime and one recursion; `gen_count_twisted`
(unbounded, see its comment) holds the count every capacity is recomputed from,
and `twisted_count_polys` one entry per shape.  The recursion's cache stays: one
`gen_count_exact(2, n, 2)` makes 10 hits on 6 entries at n = 4 and 667 on 45 at
n = 48, where it takes 52 ms against 310 ms uncached (2 vCPUs, CPython 3.11).
The closed forms stay: one count of M_2(F_q) or M_3(F_q) by the recursion took
55 to 89 microseconds against 0.2 to 1.0, and a verdict pass makes about 219 counts
that no cache holds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, log

from .errors import CertificateError, InvalidCount
from .primes import factorize


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n in increasing order, from `factorize`."""
    if n < 1:
        raise InvalidCount(f"n must be at least 1, got n={n}")
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return tuple(sorted(out))


def mobius(n: int) -> int:
    """Moebius function, from `factorize`."""
    if n < 1:
        raise InvalidCount(f"n must be at least 1, got n={n}")
    exponents = factorize(n).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


def gl_order(n: int, q: int) -> int:
    """Order of GL_n over the field with q elements."""
    if n < 1 or q < 2:
        raise InvalidCount(f"n must be at least 1 and q at least 2, got n={n}, q={q}")
    qn = q**n
    out = 1
    for i in range(n):
        out *= qn - q**i
    return out


@lru_cache(maxsize=32)
def pgl_order(n: int, q: int) -> int:
    """Order of PGL_n over the field with q elements.

    Callers repeat an argument only while they work on one prime, so a few
    recent entries catch every repeat and the cache does not grow with the
    number of primes a density pass visits.
    """
    order, rem = divmod(gl_order(n, q), q - 1)
    if rem:
        raise CertificateError(f"q - 1 does not divide |GL_{n}({q})|")
    return order


@lru_cache(maxsize=128)
def _absolutely_irreducible(k: int, n: int, q: int) -> int:
    """Number of absolutely irreducible n-dimensional modules of the free F_q-algebra on k letters.

    Modules are counted up to isomorphism, for any n >= 1, by the one-vertex
    case of M. Reineke, "Counting rational points of quiver moduli" (IMRN
    2006).  With F_m = q^(km^2)/|GL_m(q)|, the series s solves
    s o F = 1 in the ring where t^a o t^b = q^((k-1)ab) t^(a+b), because the
    Moebius function over the semisimple submodules of a nonzero module sums
    to 0.  Its logarithm is -sum c_(e,a) sum_j t^(ej) / (j (q^(aj) - 1)), where
    c_(e,a) counts the simple modules of dimension e with endomorphism field
    F_(q^a), and Galois descent gives
    c_(e,a) = (1/a) sum_(b|a) mu(a/b) a_(e/a)(q^b).  The term c_(n,1) is the
    answer; every other term of t^n comes from smaller dimensions.

    One call reaches a few dozen (n, q) pairs for n <= 90, so 128 recent
    entries hold every repeat within it, and the cache does not grow with the
    number of primes a density pass visits.
    """
    weights = [Fraction(1)] + [Fraction(q ** (k * b * b), gl_order(b, q)) for b in range(1, n + 1)]
    s = [Fraction(1)]
    for m in range(1, n + 1):
        s.append(-sum(s[a] * weights[m - a] * q ** ((k - 1) * a * (m - a)) for a in range(m)))
    log = [Fraction(0)]
    for m in range(1, n + 1):
        log.append(s[m] - Fraction(sum(i * log[i] * s[m - i] for i in range(1, m)), m))
    rest = -log[n]
    for e in divisors(n):
        j = n // e
        for a in divisors(e):
            if e == n and a == 1:
                continue
            orbits = sum(mobius(a // b) * _absolutely_irreducible(k, e // a, q**b) for b in divisors(a))
            simples, rem = divmod(orbits, a)
            if rem:
                raise CertificateError(f"Galois orbits of size {a} do not divide at k={k}, n={e // a}, q={q}")
            rest -= Fraction(simples, j * (q ** (a * j) - 1))
    value = rest * (q - 1)
    if value.denominator != 1 or value < 0:
        raise CertificateError(f"absolutely irreducible count {value} is not a natural number at k={k}, n={n}, q={q}")
    return value.numerator


def _check_arguments(k: int, n: int, q: int, r: int = 1, m: int = 1) -> None:
    if k < 1 or n < 1 or q < 2 or r < 1 or m < 1:
        raise InvalidCount(f"k, n, r and m must be at least 1 and q at least 2, got k={k}, n={n}, q={q}, r={r}, m={m}")


def gen_count_exact(k: int, n: int, q: int) -> int:
    """Number of k-tuples generating M_n(F_q) as a unital F_q-algebra.

    Closed forms for n <= 3.  For larger n, by Burnside's theorem a tuple
    generates M_n(F_q) exactly when it makes F_q^n absolutely irreducible, so
    the count is the number of such modules times |PGL_n(q)|.
    """
    _check_arguments(k, n, q)
    if n == 1:
        return q**k
    if k == 1:  # one element generates a commutative subalgebra, never M_n for n >= 2
        return 0
    if n == 2:
        return q ** (2 * k + 1) * (q ** (k - 1) - 1) * (q**k - 1)
    if n == 3:
        tail = (
            q ** (3 * k - 2)
            + q ** (2 * k - 2)
            - q**k
            - 2 * q ** (k - 1)
            - q ** (k - 2)
            + q
            + 1
        )
        return (
            q ** (3 * k + 4)
            * (q ** (k - 1) - 1)
            * (q ** (k - 1) + 1)
            * (q**k - 1)
            * tail
        )
    return _absolutely_irreducible(k, n, q) * pgl_order(n, q)


def _deficiency_coeff(n: int) -> int:
    # ceil(2^((n+6)/2)): exact power for even n, ceil(sqrt(2^(n+6))) for odd n.
    if n % 2 == 0:
        return 1 << ((n + 6) // 2)
    return isqrt((1 << (n + 6)) - 1) + 1


# Unbounded.  Density reads its counts from `twisted_count_polys`, so its only
# entries are interpolation nodes (72 over seeds 1 to 3 of the benchmark's density
# workload, no hit); oracle and sample make no call.  Verdict makes about 425 hits
# on 220 entries, the repeats of the capacity scans and cutoff sweeps: without the
# cache its pass_s rose by 2.7% (0.00591 -> 0.00607 s at seed 1 over 20 alternating
# passes, the cached side faster in 16; in 18 of 20 at seeds 2 and 3, 2 vCPUs,
# CPython 3.11).  A bound of 1024 entries tied on pass_s but read 0.2 MB more peak
# RSS on every seed, and what it would save lies off the benchmark: `analyze` on a
# quaternion order ramified at 100003 fills 28 785 entries with no hit, 27 MB peak.
@lru_cache(maxsize=None)
def gen_count_twisted(k: int, n: int, q: int, r: int) -> int:
    """Number of k-tuples generating M_n(F_{q^r}) as a unital F_q-algebra.

    The Moebius sum over the subfields F_{q^s}, s | r, of
    mu(r/s) * gen_count_exact(k, n, q^s) * [PGL_n(q^r) : PGL_n(q^s)], in integers:
    PGL_n(F_{q^s}) is a subgroup of PGL_n(F_{q^r}), so each index is exact.
    """
    _check_arguments(k, n, q, r)
    if r == 1:
        return gen_count_exact(k, n, q)
    pgl_top = pgl_order(n, q**r)
    total = 0
    for s in divisors(r):
        mu = mobius(r // s)
        if mu == 0:
            continue
        index, rem = divmod(pgl_top, pgl_order(n, q**s))
        if rem:
            raise CertificateError(f"|PGL_{n}({q}^{s})| does not divide |PGL_{n}({q}^{r})|")
        total += mu * gen_count_exact(k, n, q**s) * index
    if total < 0:
        raise CertificateError(f"negative twisted count for k={k}, n={n}, q={q}, r={r}")
    return total


def twisted_capacity(k: int, n: int, q: int, s: int) -> int:
    """floor(g_k(n,q,s) / (s |PGL_n(F_{q^s})|)): max copies generated by k elements."""
    return gen_count_twisted(k, n, q, s) // (s * pgl_order(n, q**s))


def gen_count_power(k: int, n: int, q: int, s: int, m: int) -> int:
    """Number of k-tuples generating the m-th power of M_n(F_{q^s}) over F_q."""
    _check_arguments(k, n, q, s, m)
    g = gen_count_twisted(k, n, q, s)
    step = s * pgl_order(n, q**s)
    if m > g // step:
        return 0
    out = 1
    for i in range(m):
        out *= g - i * step
    if out < 0:
        raise CertificateError(f"negative power count for k={k}, n={n}, q={q}, s={s}, m={m}")
    return out


def horner(coeffs: tuple[int, ...], q: int) -> int:
    """The polynomial with the given coefficients, constant term first, at q."""
    value = 0
    for c in reversed(coeffs):
        value = value * q + c
    return value


# The second check point, far past every node, where a wrong coefficient of
# high degree cannot hide behind the small values at the nodes.
_FAR_POINT = (1 << 20) + 1


def _interpolate(direct, degree: int, what: str) -> tuple[int, ...]:
    """Integer coefficients, constant term first, of the polynomial of degree at
    most `degree` that `direct` evaluates at every integer q >= 2.

    Newton's divided differences at the nodes q = 2 .. degree + 2: every divided
    difference of an integer polynomial at integer nodes is an integer (for q^m
    it is a complete homogeneous symmetric polynomial in the nodes), so each
    division must leave no remainder.  The Newton form is expanded in integers
    and checked against `direct` at degree + 3 and at _FAR_POINT.  Either
    failure raises CertificateError, naming `what`.
    """
    nodes = range(2, degree + 3)
    diffs = [direct(q) for q in nodes]
    for j in range(1, degree + 1):
        for i in range(degree, j - 1, -1):
            diffs[i], rem = divmod(diffs[i] - diffs[i - 1], nodes[i] - nodes[i - j])
            if rem:
                raise CertificateError(f"a divided difference of {what} is not an integer")
    coeffs = [0] * (degree + 1)
    for i in range(degree, -1, -1):  # coeffs <- coeffs * (q - nodes[i]) + diffs[i]
        for e in range(degree - i, 0, -1):
            coeffs[e] = coeffs[e - 1] - nodes[i] * coeffs[e]
        coeffs[0] = diffs[i] - nodes[i] * coeffs[0]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    coeffs = tuple(coeffs)
    for q in (degree + 3, _FAR_POINT):
        if horner(coeffs, q) != direct(q):
            raise CertificateError(f"the interpolant of {what} disagrees with the direct count at q={q}")
    return coeffs


@lru_cache(maxsize=None)
def twisted_count_polys(k: int, n: int, r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Coefficients in q, constant term first, of g_k(n, q, r) and of r |PGL_n(F_{q^r})|.

    The count `gen_count_twisted` is a polynomial in q of degree k n^2 r (the
    zero polynomial for k = 1 < n), and the step of its capacity one of degree
    r (n^2 - 1); each is interpolated from its direct values (`_interpolate`).
    A caller that evaluates one shape at many primes, as `density` does, then
    pays one Horner evaluation per prime instead of the count chain.  One entry
    per (k, n, r): a density uses a few.
    """
    _check_arguments(k, n, 2, r)
    shape = f"k={k}, n={n}, r={r}"
    return (
        _interpolate(lambda q: gen_count_twisted(k, n, q, r), k * n * n * r, f"the count at {shape}"),
        _interpolate(lambda q: r * pgl_order(n, q**r), r * (n * n - 1), f"the capacity step at {shape}"),
    )


def _ceil_log(value: int, base: int) -> int:
    """Least e >= 0 with base**e >= value, for value >= 1 and base >= 2."""
    e = max(0, int(log(value, base)) - 1)  # a float estimate, made exact below
    while e > 0 and base**e >= value:
        e -= 1
    while base**e < value:
        e += 1
    return e


def min_k_for_copies(n: int, q: int, s: int, m: int) -> int:
    """Smallest k whose capacity for (n, q, s) reaches m copies.

    m copies need at least m * s * |PGL_n(q^s)| generating k-tuples among
    the q^(s k n^2) that exist, so no k below the least one with room for
    them can do, and the search starts there.  A generating k-tuple stays
    generating when any element is added, so the capacity does not fall as k
    grows, and it grows without bound: doubling steps from the start bracket
    the answer and bisection finds it, with O(log k) capacities.
    """
    _check_arguments(1, n, q, s, m)
    start = max(1, -(-_ceil_log(m * s * pgl_order(n, q**s), q) // (s * n * n)))
    lo, step = start - 1, 1  # every k <= lo falls short of m
    while twisted_capacity(lo + step, n, q, s) < m:
        lo += step
        step *= 2
    hi = lo + step  # the capacity at hi reaches m
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if twisted_capacity(mid, n, q, s) >= m:
            hi = mid
        else:
            lo = mid
    return hi
