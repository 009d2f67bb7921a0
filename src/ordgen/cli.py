"""Command-line front end: counts, oracles, spec analysis, densities, tables.

Exit codes: 0 success, 2 a usage error, and for a refusal the ``exit_code``
of the `errors.OrdgenError` raised: 2 invalid input (an OSError too), 4
`BudgetExceeded`, 5 `ExceptionalPrimeNeedsOverride`, 6 `CertificateError`.
Code 3 is retired and not reused.  Any other exception is an internal fault
and propagates.  Machine format output is canonical JSON (sorted keys, no
whitespace) and parses back byte-identically.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Callable

from .counting import gen_count_power
from .errors import (
    BudgetExceeded,
    CapExceeded,
    NotPrime,
    OrdgenError,
    SpecError,
    at_most,
    check_budget,
    written_size,
)
from .finalg import (
    FiniteAlgebra,
    brute_gen_count,
    matrix_algebra,
    matrix_algebra_base,
    product_algebra,
    product_base,
    sample_gen_fraction,
    truncated_local_algebra,
    truncated_local_base,
)
from .finfield import FiniteField
from .orderspec import load_spec
from .primes import PRIME_TEST_LIMIT, is_prime, perfect_power
from .solver import (
    density,
    density_text,
    quaternion_example,
    quaternion_table_text,
    render_json,
    render_text,
    report,
)

EXIT_OK = 0
EXIT_USAGE = 2

# `count` refuses a tuple space q^(r k n^2 m) above 2^COUNT_MAX_BITS.  That
# admits n <= 64 for pairs over F_2, whose count takes about 0.07 s from a fresh
# CPython 3.11 on a 2-vCPU x86 machine, 0.06 s of it start-up; the recursion's
# cost grows with n.
COUNT_MAX_BITS = 8192


class _Cursor:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise SpecError(f"expected '{ch}' at position {self.pos} in algebra expression")
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start : self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise SpecError(f"expected an integer at position {start} in algebra expression")
        try:
            return int(self.text[start : self.pos])
        except ValueError as exc:  # a digit int() does not read, or past the digit limit
            raise SpecError(f"bad integer at position {start} in algebra expression: {exc}") from exc


def _parse_expr(cur: _Cursor) -> tuple[FiniteField, int, Callable[[], FiniteAlgebra]]:
    """Parse one algebra expression and check its parameters as its constructor would.

    Returns the base field, the dimension over it and a builder of the
    algebra, so that the size is known before any table is built.
    """
    head = cur.word()
    cur.expect("(")
    if head == "M":
        n = cur.integer()
        cur.expect(",")
        q = cur.integer()
        r = 1
        if cur.peek() == ";":
            cur.expect(";")
            if cur.word() != "r":
                raise SpecError("matrix option must be r=<int>")
            cur.expect("=")
            r = cur.integer()
        cur.expect(")")
        return matrix_algebra_base(n, q, r), n * n * r, lambda: matrix_algebra(n, q, r)
    if head == "TW":
        params = {}
        while True:
            key = cur.word()
            if key not in ("q", "f", "m", "s", "e") or key in params:
                raise SpecError(f"bad twisted parameter {key!r}")
            cur.expect("=")
            params[key] = cur.integer()
            if cur.peek() != ",":
                break
            cur.expect(",")
        cur.expect(")")
        for required in ("q", "f", "m"):
            if required not in params:
                raise SpecError(f"twisted algebra needs {required}=")
        q, f, m, s, e = params["q"], params["f"], params["m"], params.get("s", 1), params.get("e", 1)
        return truncated_local_base(q, f, m, s, e), f * m * m * e, lambda: truncated_local_algebra(q, f, m, s, e)
    if head == "P":
        left_base, left_dim, left = _parse_expr(cur)
        cur.expect(",")
        right_base, right_dim, right = _parse_expr(cur)
        cur.expect(")")
        return product_base(left_base, right_base), left_dim + right_dim, lambda: product_algebra(left(), right())
    raise SpecError(f"unknown algebra constructor {head!r} (use M, TW, or P)")


def parse_algebra(text: str) -> tuple[FiniteField, int, Callable[[], FiniteAlgebra]]:
    """Parse 'M(n,q)', 'M(n,q;r=R)', 'TW(q=..,f=..,m=..[,s=..][,e=..])', 'P(a,b)'.

    Returns the base field, the dimension over it and a builder of the algebra.
    """
    cur = _Cursor(text)
    shape = _parse_expr(cur)
    cur.skip_ws()
    if cur.pos != len(text):
        raise SpecError(f"trailing input at position {cur.pos} in algebra expression")
    return shape


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


def _prime_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected comma-separated integers") from exc


def _emit(args, text: Callable[[], str], machine_doc) -> None:
    """Print the text() or machine document a `_cmd_*` returned; an integer too long to print is a size limit."""
    try:
        out = render_json(machine_doc) if args.format == "machine" else text()
    except ValueError as exc:  # int-to-str conversion past sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise BudgetExceeded(f"more than {limit}", limit, "digits in one printed integer") from exc
    print(out)


def _is_prime_power(q: int) -> bool:
    """Whether q = r^e with r prime; any r >= PRIME_TEST_LIMIT raises CapExceeded, whatever its factors."""
    r, _ = perfect_power(q)
    if r >= PRIME_TEST_LIMIT:
        raise CapExceeded(
            f"q={q} is not decided: the prime-power test is proven only for bases below {PRIME_TEST_LIMIT}"
        )
    return is_prime(r)


def _cmd_count(args):
    if not _is_prime_power(args.q):
        raise NotPrime(f"q={args.q} is not a prime power")
    # The count lies among the q^(r k n^2 m) tuples; refuse that size before forming anything.
    exponent = args.r * args.k * args.n * args.n * args.m
    if not at_most(args.q, exponent, 1 << COUNT_MAX_BITS):
        raise BudgetExceeded(written_size(args.q, exponent), written_size(2, COUNT_MAX_BITS))
    value = gen_count_power(args.k, args.n, args.q, args.r, args.m)
    doc = {"command": "count", "k": args.k, "n": args.n, "q": args.q, "r": args.r, "m": args.m, "value": value}
    return lambda: str(value), doc


def _cmd_oracle(args):
    base, dim, build = parse_algebra(args.alg)
    doc = {"command": "oracle", "alg": args.alg, "k": args.k}
    if args.samples is None:
        check_budget(base.q, dim * args.k, budget=args.budget)  # |A|^k, before any table is built
        value = brute_gen_count(build(), args.k, budget=args.budget)
        doc["value"] = value
        return lambda: str(value), doc
    if args.seed is None:
        raise SpecError("--seed is required with --samples")
    check_budget(args.samples, budget=args.budget)  # before any table is built
    check_budget(dim, 3, "table entries", args.budget)
    est = sample_gen_fraction(
        build(), args.k, args.samples, seed=args.seed, budget=args.budget, workers=args.workers
    )
    doc.update(
        samples=est.samples,
        hits=est.hits,
        seed=est.seed,
        fraction=f"{est.hits}/{est.samples}",
        ci_low=repr(est.ci_low),
        ci_high=repr(est.ci_high),
    )
    text = (
        f"estimate {est.hits}/{est.samples} = {est.fraction:.6f}  "
        f"(95% CI [{est.ci_low:.6f}, {est.ci_high:.6f}], seed {est.seed})"
    )
    return lambda: text, doc


def _cmd_analyze(args):
    rep = report(load_spec(args.spec), density_k=args.density_k, density_bound=args.bound)
    return lambda: render_text(rep), rep


def _cmd_density(args):
    interval = density(load_spec(args.spec), args.k, args.bound)
    return lambda: density_text(interval), interval


def _cmd_quaternion(args):
    table = quaternion_example(args.ramified, args.mmax)
    return lambda: quaternion_table_text(table), table


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built at the first ``main`` call and kept: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ordgen",
        description="Generator counts for finite algebras and maximal orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "machine"), default="text")

    p = sub.add_parser("count", help="exact generating counts")
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--q", type=_positive, required=True)
    p.add_argument("--r", type=_positive, default=1)
    p.add_argument("--m", type=_positive, default=1)
    p.add_argument("--exact", action="store_true", help="accepted for compatibility; every count is exact")
    common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("oracle", help="exhaustive or sampled counts on explicit algebras")
    p.add_argument("--alg", required=True, help="M(n,q), M(n,q;r=R), TW(q=,f=,m=[,s=][,e=]), P(a,b)")
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("--samples", type=_positive)
    p.add_argument("--seed", type=_nonnegative)
    p.add_argument("--budget", type=_positive)
    p.add_argument("--workers", type=_positive, default=1, help="processes that split --samples, at most one per CPU")
    common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("analyze", help="verdict and report for an order spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--density-k", type=_positive, dest="density_k")
    p.add_argument("--bound", type=_positive)
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("density", help="certified Euler-product interval for a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("--bound", type=_positive)
    common(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("quaternion", help="h(m) table for powers of a quaternion order")
    p.add_argument("--ramified", type=_prime_list, required=True)
    p.add_argument("--mmax", type=_positive, required=True)
    common(p)
    p.set_defaults(func=_cmd_quaternion)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _emit(args, *args.func(args))
    except (OrdgenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_USAGE)
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
