"""The package's one primality test, its one integer factorization and its one prime-power routine."""

from __future__ import annotations

from .errors import CapExceeded

# Miller-Rabin on these bases is proven below PRIME_TEST_LIMIT, the least strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86, 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, by division by the bases and then Miller-Rabin.

    Division answers every n below 43^2.  An n of PRIME_TEST_LIMIT or more
    that no base divides raises CapExceeded: it is never guessed.
    """
    for a in _BASES:
        if n % a == 0:
            return n == a
    if n < 43 * 43:
        return n > 1
    if n >= PRIME_TEST_LIMIT:
        raise CapExceeded(f"{n} is not decided: the primality test is proven only below {PRIME_TEST_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """The prime factorization {p: e} of n >= 1 by trial division; factorize(1) is {}."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _integer_root(n: int, e: int) -> int:
    """The floor of n^(1/e) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def perfect_power(q: int) -> tuple[int, int]:
    """(r, e) with q = r^e and r no perfect power, so q is a prime power iff r is prime.

    Prime-order integer roots are taken while they are exact; q < 4 gives (q, 1).
    """
    r, e, ell = q, 1, 2
    while 1 << ell <= r:  # a perfect ell-th power r >= 2 is at least 2^ell
        root = _integer_root(r, ell)
        if root**ell == r:
            r, e = root, e * ell
        else:
            ell += 1
            while not is_prime(ell):
                ell += 1
    return r, e
