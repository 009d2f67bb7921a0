"""Local-count and least-k oracles: the bodies that `counting.plan_count` and the upward scan replaced."""

from ordgen.counting import _ceil_log, gen_count_twisted, pgl_order, twisted_capacity
from ordgen.errors import InvalidCount


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
