"""Exact counts of generating k-tuples for matrix algebras over finite fields.

Everything here is closed-form, arbitrary-precision integer arithmetic: the
plain counts for matrix sizes n <= 3, a certified lower bound for every n,
the twisted counts for algebras M_n(F_{q^r}) viewed over the subfield F_q,
and the product formula for m identical simple factors.  Quotients of group
orders that are exact are checked with `divmod`; the twisted lower bound rounds
its `fractions.Fraction` corrections up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import CertificateError, UnsupportedRank

MAX_K_SCAN = 512


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n in increasing order."""
    assert n >= 1
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return tuple(small + large)


def mobius(n: int) -> int:
    """Moebius function by trial factorization."""
    assert n >= 1
    result = 1
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            rest //= p
            if rest % p == 0:
                return 0
            result = -result
        p += 1
    if rest > 1:
        result = -result
    return result


def gl_order(n: int, q: int) -> int:
    """Order of GL_n over the field with q elements."""
    assert n >= 1 and q >= 2
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
    assert rem == 0
    return order


def gen_count_exact(k: int, n: int, q: int) -> int:
    """Number of k-tuples generating M_n(F_q) as a unital F_q-algebra (n <= 3)."""
    assert k >= 1 and q >= 2
    if n == 1:
        return q**k
    if n == 2:
        return q ** (2 * k + 1) * (q ** (k - 1) - 1) * (q**k - 1)
    if n == 3:
        if k == 1:
            return 0
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
    raise UnsupportedRank(f"no closed form for n={n}; use gen_count_lower")


def _deficiency_coeff(n: int) -> int:
    # ceil(2^((n+6)/2)): exact power for even n, ceil(sqrt(2^(n+6))) for odd n.
    if n % 2 == 0:
        return 1 << ((n + 6) // 2)
    return isqrt((1 << (n + 6)) - 1) + 1


@dataclass(frozen=True)
class CountBound:
    """Certified lower bound for a generating count, with the exact value when known."""

    lower: int
    exact: int | None = None

    def __post_init__(self) -> None:
        assert self.lower >= 0
        if self.exact is not None:
            assert self.lower <= self.exact


def gen_count_lower(k: int, n: int, q: int) -> CountBound:
    """Certified lower bound q^{kn^2} - ceil(2^{(n+6)/2}) q^{n^2 k - (k-1)(n-1)}, any n."""
    assert k >= 1 and n >= 1 and q >= 2
    raw = q ** (k * n * n) - _deficiency_coeff(n) * q ** (n * n * k - (k - 1) * (n - 1))
    exact = gen_count_exact(k, n, q) if n <= 3 else None
    return CountBound(lower=max(0, raw), exact=exact)


@lru_cache(maxsize=None)
def gen_count_twisted(k: int, n: int, q: int, r: int) -> int:
    """Number of k-tuples generating M_n(F_{q^r}) as a unital F_q-algebra (n <= 3).

    The Moebius sum over the subfields F_{q^s}, s | r, of
    mu(r/s) * gen_count_exact(k, n, q^s) * [PGL_n(q^r) : PGL_n(q^s)], in integers:
    PGL_n(F_{q^s}) is a subgroup of PGL_n(F_{q^r}), so each index is exact.
    """
    assert k >= 1 and r >= 1 and q >= 2
    if n > 3:
        raise UnsupportedRank(f"no closed form for n={n}; use gen_count_twisted_lower")
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


@lru_cache(maxsize=None)
def gen_count_twisted_lower(k: int, n: int, q: int, r: int) -> int:
    """Certified lower bound for the twisted count, valid for every n >= 1."""
    assert k >= 1 and r >= 1 and q >= 2
    pgl_top = pgl_order(n, q**r)
    total = gen_count_lower(k, n, q**r).lower
    for s in divisors(r):
        if s == r:
            continue
        # Each correction term is at most (pgl_top / pgl_s) * q^{skn^2}.
        term = Fraction(pgl_top * q ** (s * k * n * n), pgl_order(n, q**s))
        total -= -((-term.numerator) // term.denominator)
    return max(0, total)


@lru_cache(maxsize=None)
def twisted_capacity(k: int, n: int, q: int, s: int) -> int:
    """floor(g_k(n,q,s) / (s |PGL_n(F_{q^s})|)): max copies generated by k elements."""
    return gen_count_twisted(k, n, q, s) // (s * pgl_order(n, q**s))


@lru_cache(maxsize=None)
def twisted_capacity_lower(k: int, n: int, q: int, s: int) -> int:
    """Certified lower bound for the capacity, valid for every n >= 1."""
    return gen_count_twisted_lower(k, n, q, s) // (s * pgl_order(n, q**s))


def gen_count_power(k: int, n: int, q: int, s: int, m: int) -> int:
    """Number of k-tuples generating the m-th power of M_n(F_{q^s}) over F_q (n <= 3)."""
    assert m >= 1
    if m > twisted_capacity(k, n, q, s):
        return 0
    g = gen_count_twisted(k, n, q, s)
    step = s * pgl_order(n, q**s)
    out = 1
    for i in range(m):
        out *= g - i * step
    assert out >= 0
    return out


@lru_cache(maxsize=None)
def min_k_for_copies(n: int, q: int, s: int, m: int) -> int:
    """Smallest k whose capacity for (n, q, s) reaches m copies (n <= 3)."""
    assert m >= 1
    for k in range(1, MAX_K_SCAN + 1):
        if twisted_capacity(k, n, q, s) >= m:
            return k
    raise AssertionError(f"capacity scan exhausted at k={MAX_K_SCAN}")


@lru_cache(maxsize=None)
def min_k_for_copies_bound(n: int, q: int, s: int, m: int) -> int:
    """Smallest k whose certified capacity lower bound reaches m copies (any n)."""
    assert m >= 1
    for k in range(1, MAX_K_SCAN + 1):
        if twisted_capacity_lower(k, n, q, s) >= m:
            return k
    raise AssertionError(f"capacity scan exhausted at k={MAX_K_SCAN}")
