"""Exception types shared across the package."""

from __future__ import annotations


class OrdgenError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(OrdgenError):
    """The given characteristic is not a prime number."""


class CapExceeded(OrdgenError):
    """A prime power exceeds its size cap, or a number is past what the primality test decides."""


class BaseMismatch(OrdgenError):
    """Two algebras were combined whose base fields differ."""


class InvalidTwist(OrdgenError):
    """The twist exponent of a truncated local algebra is out of range or not coprime to the index."""


class InvalidCount(OrdgenError):
    """A tuple length, sample count, matrix size, degree or copy count is below 1, or a field size below 2."""


class InvalidTable(OrdgenError):
    """A structure-constant table has the wrong shape or breaks the unit law or associativity,
    or a radical or ideal basis does not span a nilpotent two-sided ideal."""


class InvalidElement(OrdgenError):
    """An element builder was given an algebra of the wrong kind or coefficients out of range."""


class BudgetExceeded(OrdgenError):
    """A request would exceed the configured work budget or a fixed size limit.

    The attribute ``required`` holds the number of tuples the request covers:
    |A|^k for an exhaustive count over an algebra A (it decides one tuple
    per coset, far fewer), the sample count for a Monte Carlo estimate, |I|^k
    for a lift count over an ideal I, the q^(r k n^2 m) tuples among which
    the `count` command counts, or the n entries of the prime sieve below n:
    bound + 1 behind a density interval, the cutoff q0 behind an `analyze`
    verdict (a quaternion table sieves only below its shape thresholds).  A
    count of 2^8192 or more is held, and printed, as the power "q^e" it was
    given as.  ``budget`` holds the budget; for `count` it is the fixed limit
    "2^8192", held as that power too.  ``unit`` names what is counted:
    "tuples", "table entries" for the dim^3 coordinates of a structure table
    that a sampled request would build, "sieve entries" for the prime sieve,
    or "digits in one printed integer" for an output holding an integer past
    Python's limit on int-to-str conversion (`sys.get_int_max_str_digits`),
    which also bounds what a reader parses.
    """

    def __init__(self, required: int | str, budget: int | str, unit: str = "tuples"):
        super().__init__(f"request needs {required} {unit}, budget is {budget}")
        self.required = required
        self.budget = budget


class NotGenerating(OrdgenError):
    """A tuple that was required to generate a quotient algebra does not."""


class NotMonic(OrdgenError):
    """A polynomial that must be monic is not."""


class IndexNotDividingDegree(OrdgenError):
    """A declared local index does not divide the factor's reduced degree."""


class ExceptionalPrimeNeedsOverride(OrdgenError):
    """Splitting data at a prime could not be certified; explicit local data is required.

    The attribute ``p`` holds the prime.
    """

    def __init__(self, p: int, detail: str = ""):
        msg = f"local structure at p={p} is not certified; supply an override entry"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.p = p


class BoundTooSmall(OrdgenError):
    """A truncation bound is below the validity threshold of the tail estimate.

    The attribute ``minimum`` holds the smallest acceptable bound.
    """

    def __init__(self, bound: int, minimum: int):
        super().__init__(f"bound {bound} is below the tail-validity threshold {minimum}")
        self.bound = bound
        self.minimum = minimum


class NoCutoff(OrdgenError):
    """No prime cutoff exists at this generator count (k=1 with a noncommutative factor)."""


class EmptySpec(OrdgenError):
    """An order description contains no simple factors."""


class SpecError(OrdgenError):
    """An order description, an algebra expression or a command-line request is malformed."""


class CertificateError(OrdgenError):
    """A certificate failed its own check: an internal fault, not bad input.

    Raised when a cutoff margin is negative or not monotone, when density
    bounds are out of order, or when h decreases in a quaternion table.
    """
