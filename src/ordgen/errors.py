"""Exception types with their exit codes, and the one rule each for comparing a size
with a limit, for writing a size in a message and for the work budget."""

from __future__ import annotations

import os

_SHOWN_BITS = 1 << 13  # a size of at most 8192 bits is written out in full
DEFAULT_BUDGET = 1 << 26


def at_most(base: int, exponent: int, limit: int) -> bool:
    """Whether base^exponent <= limit, for base >= 0 and limit >= 1.

    As base^exponent >= 2^(exponent (bitlen(base) - 1)), the bit lengths refuse
    first: a power is formed only when it has fewer than twice the limit's bits.
    """
    return exponent * (base.bit_length() - 1) <= limit.bit_length() and base**exponent <= limit


def written_size(base: int, exponent: int = 1, *, power: bool = False) -> int | str:
    """The size base^exponent as an error message writes it: one rule for every refusal.

    A size given as itself (exponent 1), or of at most 8192 bits, is the
    number; past that it is the text "base^exponent", and the number is never
    formed; `power` asks for that text at any size.  What Python cannot write in
    decimal (past `sys.get_int_max_str_digits()`, 4300 digits by default) is the
    text "more than 2^8192".
    """
    try:
        if not power and (exponent == 1 or at_most(base, exponent, (1 << _SHOWN_BITS) - 1)):
            value = base**exponent
            str(value)  # raises ValueError past the digit limit
            return value
        return f"{base}^{exponent}"
    except ValueError:
        return f"more than 2^{_SHOWN_BITS}"


class OrdgenError(Exception):
    """Base class for all errors raised by this package; ``exit_code`` is the command line's status."""

    exit_code = 2


class NotPrime(OrdgenError):
    """The given characteristic is not a prime number."""


class CapExceeded(OrdgenError):
    """A prime power exceeds its size cap, or a number is past what the primality test decides."""


class BaseMismatch(OrdgenError):
    """Two algebras were combined whose base fields differ."""


class InvalidTwist(OrdgenError):
    """The twist exponent of a truncated local algebra is out of range or not coprime to the index."""


class InvalidCount(OrdgenError):
    """A tuple length, sample count, matrix size, degree, copy count or field exponent is below 1,
    or a field size below 2."""


class InvalidTable(OrdgenError):
    """A structure-constant table has the wrong shape or breaks the unit law or associativity,
    or a radical or ideal basis does not span a nilpotent two-sided ideal."""


class InvalidElement(OrdgenError):
    """An element builder was given an algebra of the wrong kind or coefficients out of range."""


class BudgetExceeded(OrdgenError):
    """A request would exceed the configured work budget or a fixed size limit.

    The attribute ``required`` holds the size of the request and ``budget``
    the budget, each as ``written_size``, the one rule for writing a size,
    holds it: the number itself, the power "base^exponent" past 8192 bits, or
    the phrase "more than 2^8192" past Python's digit limit.  The budget of
    `count` is its fixed limit, held as the power "2^8192".  ``unit``
    names what is counted: "tuples" (|A|^k for an exhaustive count over an
    algebra A, which decides one tuple per coset, far fewer; the sample count
    of a Monte Carlo estimate; |I|^k for a lift count over an ideal I; the
    q^(r k n^2 m) tuples among which `count` counts), "table entries" for the
    dim^3 coordinates of the structure table a sampled request would build,
    "sieve entries" for the n entries of the prime sieve below n (bound + 1
    behind a density interval, the cutoff q0 behind an `analyze` verdict), or
    "digits in one printed integer" for an output holding an integer past
    Python's limit on int-to-str conversion (`sys.get_int_max_str_digits`),
    which also bounds what a reader parses.
    """

    exit_code = 4

    def __init__(self, required: int | str, budget: int | str, unit: str = "tuples"):
        self.required, self.budget = (x if isinstance(x, str) else written_size(x) for x in (required, budget))
        super().__init__(f"request needs {self.required} {unit}, budget is {self.budget}")


def resolve_budget(budget: int | None = None) -> int:
    """The work budget: explicit argument, else ORDGEN_BUDGET, else 2^26.

    A budget argument or ORDGEN_BUDGET that is not a positive integer raises
    OrdgenError.
    """
    if budget is not None:
        if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
            raise OrdgenError(f"budget must be a positive integer, got {budget!r}")
        return budget
    raw = os.environ.get("ORDGEN_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0  # refused below with the other values under 1
    if value < 1:
        raise OrdgenError(f"ORDGEN_BUDGET must be a positive integer, got {raw!r}")
    return value


def check_budget(base: int, exponent: int = 1, unit: str = "tuples", budget: int | None = None) -> None:
    """Raise BudgetExceeded when a request of base^exponent units exceeds the budget.

    The budget is resolved as in resolve_budget, the request compared by
    `at_most` and the refusal written by `written_size`.
    """
    limit = resolve_budget(budget)
    if not at_most(base, exponent, limit):
        raise BudgetExceeded(written_size(base, exponent), limit, unit)


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

    exit_code = 5

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
        super().__init__(f"bound {written_size(bound)} is below the tail-validity threshold {written_size(minimum)}")
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

    exit_code = 6
