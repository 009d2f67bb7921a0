"""The two sieves that `solver._primes` replaced, kept as its test oracles."""

import itertools
from bisect import bisect_left

from ordgen.errors import BudgetExceeded, resolve_budget


def primes_below(n: int) -> tuple[int, ...]:
    """The primes below n, from one sieve over the whole range."""
    if n <= 2:
        return ()
    flags = bytearray([1]) * n
    flags[0] = flags[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(itertools.compress(range(n), flags))


def primes_in_order(n: int):
    """The primes below n in increasing order, re-sieved from 2 over doubling ranges.

    Past the primes below 64, an n beyond the work budget raises BudgetExceeded.
    """
    lo, hi = 2, 64
    while lo < n:
        if lo == 64 and n > (limit := resolve_budget()):
            raise BudgetExceeded(n, limit, "sieve entries")
        hi = min(hi, n)
        primes = primes_below(hi)
        yield from primes[bisect_left(primes, lo) :]
        lo, hi = hi, 2 * hi
