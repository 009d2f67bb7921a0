"""Count oracles: the bodies that `counting.plan_count`, the upward scan and the integer recursion replaced."""

from fractions import Fraction
from functools import lru_cache

from ordgen.counting import _ceil_log, divisors, gen_count_twisted, gl_order, mobius, pgl_order, twisted_capacity
from ordgen.errors import CertificateError, InvalidCount


def per_q_gen_count_local(k, cls):
    """The local count from the per-q counts, with its own product of copies and radical factors.

    Each group (n, r) with m copies contributes g (g - s) ... (g - (m - 1) s),
    for g = gen_count_twisted(k, n, p, r) and s = r |PGL_n(F_{p^r})|, or 0 when
    m exceeds floor(g / s); then one factor
    p^(k n^2 r (em - 2)) * (p^(k n^2 r) - p^(n^2 r - c)) per copy of each member
    whose c is not None.  Nothing runs through `plan_count`.
    """
    if k < 1:
        raise InvalidCount(f"tuple length k must be at least 1, got {k}")
    p = cls.p
    total = 1
    for (n, r), members in cls.groups:
        g, step = gen_count_twisted(k, n, p, r), r * pgl_order(n, p**r)
        copies = sum(count for _, _, count in members)
        if copies > g // step:
            return 0
        for i in range(copies):
            total *= g - i * step
        size = n * n * r
        for em, c, count in members:
            if c is None:
                continue
            piece = p ** (k * size * (em - 2)) * (p ** (k * size) - p ** (size - c))
            if piece == 0:
                return 0
            total *= piece**count
    return total


def bisect_min_k(n, q, s, m):
    """min_k_for_copies by doubling steps from the counting bound, then bisection."""
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


@lru_cache(maxsize=None)
def fraction_absolutely_irreducible(k, n, q):
    """`counting._absolutely_irreducible` by Reineke's series and its logarithm in `Fraction`s.

    The series s solves s o F = 1 for F_m = q^(km^2)/|GL_m(q)|, in the ring
    where t^a o t^b = q^((k-1)ab) t^(a+b); its logarithm's t^n coefficient, less
    the Galois terms of the smaller simple modules, times (q - 1), is the count.
    Every Galois term recurses into this oracle, never into `counting`.
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
            orbits = sum(mobius(a // b) * fraction_absolutely_irreducible(k, e // a, q**b) for b in divisors(a))
            simples, rem = divmod(orbits, a)
            if rem:
                raise CertificateError(f"Galois orbits of size {a} do not divide at k={k}, n={e // a}, q={q}")
            rest -= Fraction(simples, j * (q ** (a * j) - 1))
    value = rest * (q - 1)
    if value.denominator != 1 or value < 0:
        raise CertificateError(f"absolutely irreducible count {value} is not a natural number at k={k}, n={n}, q={q}")
    return value.numerator
