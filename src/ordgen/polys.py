"""Polynomial arithmetic over a prime field F_p.

Polynomials are tuples of coefficients in ascending degree order with no
trailing zeros; the zero polynomial is the empty tuple.  All functions take
the prime modulus p explicitly.  One gcd filtration, `distinct_degree_counts`,
also decides irreducibility.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import NotPrime
from .primes import is_prime

Poly = tuple[int, ...]


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise NotPrime(p)


def trim(c: Sequence[int]) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def reduce_mod(c: Sequence[int], p: int) -> Poly:
    return trim([x % p for x in c])


def degree(a: Poly) -> int:
    """Degree, with the zero polynomial mapped to -1."""
    return len(a) - 1


def add(a: Poly, b: Poly, p: int) -> Poly:
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return trim(out)


def sub(a: Poly, b: Poly, p: int) -> Poly:
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] - x) % p
    return trim(out)


def mul(a: Poly, b: Poly, p: int) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return trim(out)


def scale(a: Poly, s: int, p: int) -> Poly:
    s %= p
    return trim([x * s % p for x in a])


def divmod_poly(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    db = len(b) - 1
    while len(rem) >= len(b) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(b):
            break
        coef = rem[-1] * inv_lead % p
        shift = len(rem) - len(b)
        quo[shift] = coef
        for i, y in enumerate(b):
            rem[shift + i] = (rem[shift + i] - coef * y) % p
    return trim(quo), trim(rem)


def mod(a: Poly, b: Poly, p: int) -> Poly:
    return divmod_poly(a, b, p)[1]


def monic(a: Poly, p: int) -> Poly:
    if not a:
        return a
    return scale(a, pow(a[-1], p - 2, p), p)


def gcd(a: Poly, b: Poly, p: int) -> Poly:
    while b:
        a, b = b, mod(a, b, p)
    return monic(a, p)


def pow_mod(base: Poly, exp: int, modulus: Poly, p: int) -> Poly:
    result: Poly = (1,)
    base = mod(base, modulus, p)
    while exp > 0:
        if exp & 1:
            result = mod(mul(result, base, p), modulus, p)
        base = mod(mul(base, base, p), modulus, p)
        exp >>= 1
    return result


def derivative(a: Poly, p: int) -> Poly:
    return trim([i * a[i] % p for i in range(1, len(a))])


def is_irreducible(f: Poly, p: int) -> bool:
    """Irreducibility of a monic polynomial, read from `distinct_degree_counts`.

    A reducible f, squarefree or not, has an irreducible factor of degree at
    most deg(f)/2, which the filtration splits off at that degree; so f is
    irreducible exactly when the counts are one factor of degree deg(f).
    """
    return degree(f) >= 1 and distinct_degree_counts(f, p) == {degree(f): 1}


def pth_root(f: Poly, p: int) -> Poly:
    """p-th root of a polynomial of the form g(x^p) over F_p.

    Over F_p the Frobenius fixes coefficients, so g(x^p) = g(x)^p and the root
    is read off the coefficients at indices divisible by p.
    """
    # Both callers, in squarefree_decomposition, pass a reduced f with f' = 0:
    # then i * f_i = 0 mod p with 0 <= f_i < p, so f_i = 0 unless p divides i.
    return trim([f[i] for i in range(0, len(f), p)])


def squarefree_decomposition(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """Write a monic f as a product of monic squarefree pairwise-coprime parts.

    Returns [(g, m), ...] with f = prod g^m, handling the characteristic-p
    degeneracy f' = 0 by recursing on the p-th root.
    """
    _require_prime(p)
    f = monic(f, p)
    if degree(f) < 1:
        return []
    df = derivative(f, p)
    if not df:
        return [(g, m * p) for g, m in squarefree_decomposition(pth_root(f, p), p)]
    a = gcd(f, df, p)
    b = divmod_poly(f, a, p)[0]
    out: list[tuple[Poly, int]] = []
    i = 1
    while degree(b) > 0:
        c = gcd(a, b, p)
        part = divmod_poly(b, c, p)[0]
        if degree(part) > 0:
            out.append((part, i))
        b = c
        a = divmod_poly(a, c, p)[0]
        i += 1
    if degree(a) > 0:
        out.extend((g, m * p) for g, m in squarefree_decomposition(pth_root(a, p), p))
    return out


def distinct_degree_counts(g: Poly, p: int) -> dict[int, int]:
    """Number of irreducible factors of each degree for squarefree monic g.

    Uses the splitting-field filtration gcd(x^(p^d) - x, g) only; no
    equal-degree splitting is performed, so the result is deterministic.
    """
    _require_prime(p)
    counts: dict[int, int] = {}
    x: Poly = (0, 1)
    rem = monic(g, p)
    h = mod(x, rem, p) if degree(rem) > 0 else x
    d = 0
    while degree(rem) > 0:
        d += 1
        if 2 * d > degree(rem):
            counts[degree(rem)] = counts.get(degree(rem), 0) + 1
            break
        h = pow_mod(h, p, rem, p)
        factor = gcd(sub(h, x, p), rem, p)
        if degree(factor) > 0:
            counts[d] = counts.get(d, 0) + degree(factor) // d
            rem = divmod_poly(rem, factor, p)[0]
            h = mod(h, rem, p)
    return counts
