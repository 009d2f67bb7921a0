"""The arithmetic that `primes.factorize` and `polys.distinct_degree_counts` replaced, kept as test oracles.

`counting.divisors` and `counting.mobius` ran their own trial-division loops,
and `polys.is_irreducible` ran its own gcd filtration; `finfield._find_modulus`
searched with that test.
"""

from math import isqrt

from ordgen.polys import Poly, degree, gcd, pow_mod, sub


def divisors_by_trial(n: int) -> tuple[int, ...]:
    """All positive divisors of n >= 1 in increasing order, by trial division up to the square root."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return tuple(small + large)


def mobius_by_trial(n: int) -> int:
    """Moebius function of n >= 1 by trial division by every d >= 2."""
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


def is_irreducible_by_gcds(f: Poly, p: int) -> bool:
    """Irreducibility of a monic f over F_p: gcd(x^(p^d) - x, f) = 1 for d = 1 .. deg(f)//2."""
    d = degree(f)
    if d < 1:
        return False
    if d == 1:
        return True
    x: Poly = (0, 1)
    h = x
    for _ in range(1, d // 2 + 1):
        h = pow_mod(h, p, f, p)
        if degree(gcd(sub(h, x, p), f, p)) > 0:
            return False
    return True


def find_modulus_by_gcds(p: int, e: int) -> Poly:
    """The least monic irreducible of degree e over F_p in `finfield._find_modulus`'s order."""
    if e == 1:
        return (0, 1)
    for code in range(p**e):
        coeffs = []
        c = code
        for _ in range(e):
            coeffs.append(c % p)
            c //= p
        f = tuple(coeffs) + (1,)
        if is_irreducible_by_gcds(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")
