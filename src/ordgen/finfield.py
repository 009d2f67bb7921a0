"""Exact arithmetic in small finite fields F_q, q = p^e.

Field elements are plain integers 0..q-1 encoding coordinate vectors over
F_p in base p: the element with coordinates (c_0, ..., c_{e-1}) relative to
the power basis of the modulus root is encoded as sum c_i * p^i.  The
encodings of 0 and 1 are therefore 0 and 1 in every field.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import polys
from .errors import CapExceeded, InvalidCount, NotPrime, at_most, written_size
from .primes import factorize, is_prime, perfect_power

PRIME_POWER_CAP = 1 << 20
LOG_TABLE_CAP = 1 << 16


@dataclass(frozen=True)
class PrimePower:
    """A validated prime power q = p^e."""

    p: int
    e: int = 1

    def __post_init__(self):
        if self.e < 1:
            raise InvalidCount(f"exponent must be positive, got {self.e}")
        # The cap first, by `at_most`: a huge e would otherwise hang in forming p^e.
        if not at_most(self.p, self.e, PRIME_POWER_CAP):
            raise CapExceeded(f"{written_size(self.p, self.e, power=True)} exceeds the cap {PRIME_POWER_CAP}")
        if not is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")

    @property
    def q(self) -> int:
        return self.p**self.e


def prime_power_of(q: int) -> PrimePower:
    """Split a prime power q into (p, e).

    Raises CapExceeded when q exceeds PRIME_POWER_CAP, before any root is
    taken, and NotPrime when q is not a prime power.
    """
    if q > PRIME_POWER_CAP:
        raise CapExceeded(f"{q} exceeds the cap {PRIME_POWER_CAP}")
    p, e = perfect_power(q)
    if not is_prime(p):
        raise NotPrime(f"{q} is not a prime power")
    return PrimePower(p, e)


def _find_modulus(p: int, e: int) -> polys.Poly:
    # Smallest monic irreducible of degree e, ordered by the base-p encoding
    # of the lower coefficients (most significant digit at degree e-1).
    if e == 1:
        return (0, 1)
    for code in range(p**e):
        coeffs = []
        c = code
        for _ in range(e):
            coeffs.append(c % p)
            c //= p
        f = tuple(coeffs) + (1,)
        if polys.is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")


class FiniteField:
    """The field F_q with deterministic modulus and multiplicative generator.

    The modulus is the least monic irreducible polynomial of degree e over
    F_p under the element encoding order; the generator is the least element
    of multiplicative order q - 1.
    """

    def __init__(self, prime_power: PrimePower):
        self.prime_power = prime_power
        self.p = prime_power.p
        self.e = prime_power.e
        self.q = prime_power.q
        self.modulus = _find_modulus(self.p, self.e)
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self.generator = self._find_generator()
        if self.q <= LOG_TABLE_CAP:
            self._build_tables()

    # -- encoding ---------------------------------------------------------

    def coords(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coords(self, cs) -> int:
        acc = 0
        for c in reversed(list(cs)):
            acc = acc * self.p + c % self.p
        return acc

    def elements(self) -> list[int]:
        return list(range(self.q))

    # -- arithmetic -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        acc, shift = 0, 1
        for _ in range(self.e):
            acc += ((a + b) % self.p) * shift
            a //= self.p
            b //= self.p
            shift *= self.p
        return acc

    def _mul_slow(self, a: int, b: int) -> int:
        prod = polys.mul(self.coords(a), self.coords(b), self.p)
        return self.from_coords(polys.mod(prod, self.modulus, self.p) + (0,) * self.e)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return self._mul_slow(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self._exp is not None:
            return self._exp[-self._log[a] % (self.q - 1)]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("inverse of 0")
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] * n % (self.q - 1)]
        n %= self.q - 1
        acc = 1
        while n:
            if n & 1:
                acc = self._mul_slow(acc, a)
            a = self._mul_slow(a, a)
            n >>= 1
        return acc

    def frobenius(self, a: int, i: int = 1) -> int:
        """The i-fold Frobenius a -> a^(p^i)."""
        if a == 0 or self.q == 2:
            return a
        return self.pow(a, pow(self.p, i, self.q - 1))

    def multiplicative_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        order = self.q - 1
        for ell in factorize(self.q - 1):
            while order % ell == 0 and self.pow(a, order // ell) == 1:
                order //= ell
        return order

    # -- construction helpers ----------------------------------------------

    def _build_tables(self):
        # Discrete-log tables filled from the powers of the generator, by
        # repeated slow multiplication.
        q = self.q
        exp = [0] * (q - 1)
        log = [0] * q
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            log[acc] = i
            acc = self._mul_slow(acc, self.generator)
        self._exp = exp
        self._log = log

    def _find_generator(self) -> int:
        for g in range(1, self.q):
            if self.multiplicative_order(g) == self.q - 1:
                return g
        raise AssertionError("no multiplicative generator found")

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteField) and self.prime_power == other.prime_power

    def __hash__(self) -> int:
        return hash(self.prime_power)

    def __reduce__(self):
        return (build_field, (self.p, self.e))

    def __repr__(self) -> str:
        return f"FiniteField(q={self.q})"


_FIELD_CACHE: dict[PrimePower, FiniteField] = {}


def build_field(p: int, e: int = 1) -> FiniteField:
    """Construct (and cache) the field F_{p^e}."""
    pp = PrimePower(p, e)
    field = _FIELD_CACHE.get(pp)
    if field is None:
        field = FiniteField(pp)
        _FIELD_CACHE[pp] = field
    return field


def field_of(q: int | PrimePower) -> FiniteField:
    pp = q if isinstance(q, PrimePower) else prime_power_of(q)
    return build_field(pp.p, pp.e)

