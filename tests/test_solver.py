"""Global verdicts, certified cutoffs, density intervals, quaternion tables."""

import dataclasses
import functools
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordgen import cli, counting, orderspec, solver
from ordgen.errors import (
    BoundTooSmall,
    BudgetExceeded,
    CertificateError,
    ExceptionalPrimeNeedsOverride,
    NoCutoff,
    NotPrime,
    OrdgenError,
    SpecError,
    resolve_budget,
)
from ordgen.finfield import is_prime
from ordgen.orderspec import (
    OrderSpec,
    SimpleFactorSpec,
    classify,
    gen_count_local,
    load_spec,
    local_data,
    min_k_local,
    spec_from_dict,
    spec_to_dict,
)
from ordgen.solver import (
    DensityInterval,
    QuaternionTable,
    Verdict,
    density,
    density_text,
    make_quaternion_spec,
    prime_cutoff,
    quaternion_example,
    quaternion_table_text,
    render_json,
    render_text,
    report,
    smallest_h,
    to_jsonable,
)
from count_oracles import per_q_gen_count_local
from sieve_oracles import primes_below, primes_in_order

DATA = pathlib.Path(__file__).parent / "data"


def fixture(name):
    return load_spec(str(DATA / name))


def rank4_spec():
    return OrderSpec(
        factors=(
            SimpleFactorSpec(
                name="m4", center_minpoly=(0, 1), degree=4, local_indices={}, copies=1
            ),
        ),
        free_over_base=True,
        overrides={},
    )


# ---------------------------------------------------------------- cutoffs


def test_cutoff_for_gaussian_integers_is_tight():
    cert = prime_cutoff(fixture("zi.json"), 1)
    assert cert.k == 1
    assert cert.q0 == 4
    assert {(s.n, s.r, s.copies_bound) for s in cert.shapes} == {(1, 1, 2), (1, 2, 1)}
    assert all(s.threshold <= cert.q0 for s in cert.shapes)


def test_cutoff_sweep_has_nonnegative_nondecreasing_margins():
    for name, k in (("zi.json", 1), ("zi.json", 2), ("quat2x7.json", 3), ("m3q.json", 2)):
        cert = prime_cutoff(fixture(name), k)
        assert len(cert.sweep) == 8
        primes = [p for p, _ in cert.sweep]
        assert primes == sorted(primes)
        assert all(p >= cert.q0 for p in primes)
        per_shape = list(zip(*(margins for _, margins in cert.sweep)))
        for series in per_shape:
            assert all(m >= 0 for m in series)
            assert all(a <= b for a, b in zip(series, series[1:]))


def test_no_cutoff_exists_for_single_generators_of_matrix_blocks():
    with pytest.raises(NoCutoff) as info:
        prime_cutoff(fixture("m2q.json"), 1)
    assert "never generated by one element" in str(info.value)


def test_cutoff_capacity_deficit_raises_certificate_error(monkeypatch):
    monkeypatch.setattr(solver, "twisted_capacity", lambda k, n, q, r: 0)
    with pytest.raises(CertificateError, match="capacity deficit"):
        prime_cutoff(fixture("zi.json"), 2)


def test_cutoff_margin_that_falls_raises_certificate_error(monkeypatch):
    monkeypatch.setattr(solver, "twisted_capacity", lambda k, n, q, r: 10**9 - q)
    with pytest.raises(CertificateError, match="margin not monotone"):
        prime_cutoff(fixture("zi.json"), 2)


def test_cutoff_soundness_by_brute_scan():
    # below ten times the certified cutoff, no prime needs more than h generators
    spec = fixture("zi.json")
    verdict = smallest_h(spec)
    q0 = verdict.certificate.q0
    for p in range(2, 10 * q0):
        if all(p % d for d in range(2, p)):
            assert min_k_local(classify(local_data(spec, p))) <= verdict.h

    spec7 = fixture("quat2x7.json")
    verdict7 = smallest_h(spec7)
    seen = {}
    for p in range(2, 10 * verdict7.certificate.q0):
        if all(p % d for d in range(2, p)):
            seen[p] = min_k_local(classify(local_data(spec7, p)))
    assert max(seen.values()) == verdict7.h == 3
    assert seen[2] == 3


def taylor_shift(coeffs, a):
    """The coefficients of P(a + t), constant term first, from those of P(q): O(D^2) integer steps."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def threshold_proven_from(k, n, r, copies, q0):
    """Whether P(q) = g_k(n, q, r) - copies * r |PGL_n(q^r)| >= 0 is proven for every real q >= q0.

    Capacity >= copies holds exactly when P(q) >= 0.  If P(q0 + t) has no
    negative coefficient and a positive leading one, it is positive for all
    t > 0: Descartes' rule of signs after a shift (Collins and Akritas, 1976).
    """
    g, step = counting.twisted_count_polys(k, n, r)
    assert len(step) < len(g)
    poly = [a - copies * b for a, b in itertools.zip_longest(g, step, fillvalue=0)]
    shifted = taylor_shift(poly, q0)
    # P(q0 + t) at t = 0 and t = 1 from both forms
    assert shifted[0] == sum(c * q0**i for i, c in enumerate(poly))
    assert sum(shifted) == sum(c * (q0 + 1) ** i for i, c in enumerate(poly))
    return shifted[-1] > 0 and min(shifted) >= 0


# k = 2-4, n <= 4, r <= 3 and five copy counts, plus k = 1 at n = 1 (k = 1 has no cutoff for n >= 2)
THRESHOLD_GRID = [
    (k, n, r, copies)
    for k, n in [(1, 1)] + list(itertools.product((2, 3, 4), range(1, 5)))
    for r in (1, 2, 3)
    for copies in (1, 2, 7, 100, 10**6)
]


def test_every_grid_threshold_is_proven_by_a_taylor_shift():
    assert len(THRESHOLD_GRID) == 195
    for k, n, r, copies in THRESHOLD_GRID:
        assert threshold_proven_from(k, n, r, copies, solver._shape_threshold(n, r, copies, k)), (k, n, r, copies)
    # q0 is above 2 at 89 of the 180 shapes with k >= 2; the shift proves 61 of those from q = 2 already
    above_two = [s for s in THRESHOLD_GRID if s[0] >= 2 and solver._shape_threshold(s[1], s[2], s[3], s[0]) > 2]
    assert len(above_two) == 89
    assert len([s for s in above_two if threshold_proven_from(*s, 2)]) == 61


def test_every_fixture_threshold_is_proven_by_a_taylor_shift():
    for name in sorted(path.name for path in DATA.glob("*.json")):
        shapes = solver._worst_shapes(fixture(name))
        for k in range(1 if all(n == 1 for n, _, _ in shapes) else 2, 5):
            for n, r, copies in shapes:
                assert threshold_proven_from(k, n, r, copies, solver._shape_threshold(n, r, copies, k)), (name, k)


def test_benchmark_generator_thresholds_are_proven_by_a_taylor_shift():
    """The verdict workload draws powers of M_2(Q), M_3(Q) and of quaternion orders with 200 to 699 copies."""
    for k, n, copies in itertools.product((2, 3, 4), (2, 3), range(200, 700)):
        assert threshold_proven_from(k, n, 1, copies, solver._shape_threshold(n, 1, copies, k)), (k, n, copies)


def bisection_ceil_root(value, exponent):
    """Smallest t >= 1 with t**exponent >= value, by bisection: the former ``_ceil_root``."""
    if value == 1:
        return 1
    hi = 1 << ((value.bit_length() + exponent - 1) // exponent + 1)
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**exponent >= value:
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_ceil_root_matches_bisection():
    values = list(range(1, 3000))
    for t in (2, 3, 7, 10**6 + 3, 2**61 - 1):
        for e in range(1, 40):
            values += [t**e - 1, t**e, t**e + 1]
    for value in values:
        for exponent in (1, 2, 3, 4, 5, 7, 13, 37):
            assert solver._ceil_root(value, exponent) == bisection_ceil_root(value, exponent)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**400), st.integers(1, 200))
def test_ceil_root_matches_bisection_on_large_values(value, exponent):
    assert solver._ceil_root(value, exponent) == bisection_ceil_root(value, exponent)


# ---------------------------------------------------------------- verdicts


def test_gaussian_integers_verdict():
    v = smallest_h(fixture("zi.json"))
    assert (v.h, v.kind, v.refined) == (1, "ONE_OR_TWO", None)
    assert v.critical_primes == (2, 3)
    assert v.r_k == 1
    assert "1 or 2" in v.note


def test_rational_integers_verdict():
    v = smallest_h(fixture("z.json"))
    assert (v.h, v.kind) == (1, "ONE_OR_TWO")
    assert v.critical_primes == ()
    assert v.r_k == 1


def test_quaternion_order_verdict():
    v = smallest_h(fixture("quat2.json"))
    assert (v.h, v.kind, v.refined) == (2, "TWO_OR_THREE", None)
    assert v.critical_primes == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
    assert v.r_k == 2
    assert "reduced degree 2 blocks refinement" in v.note


def test_verdict_search_starts_at_two_for_a_matrix_factor(monkeypatch):
    spec = fixture("quat2.json")
    levels = []
    original = solver.prime_cutoff

    def recording_cutoff(spec, k):
        levels.append(k)
        return original(spec, k)

    monkeypatch.setattr(solver, "prime_cutoff", recording_cutoff)
    assert smallest_h(spec).h == 2
    assert levels == [2]
    with pytest.raises(NoCutoff):
        original(spec, 1)


def test_quaternion_seventh_power_verdict():
    v = smallest_h(fixture("quat2x7.json"))
    assert (v.h, v.kind, v.refined) == (3, "EXACT", None)
    assert v.critical_primes == (2,)


def test_quaternion_twentyninth_power_verdict():
    v = smallest_h(make_quaternion_spec((2,), 29))
    assert (v.h, v.kind) == (4, "EXACT")
    assert v.critical_primes == (2,)


def test_matrix_block_spec_refines_to_exactly_two():
    v = smallest_h(fixture("m3q.json"))
    assert (v.h, v.kind, v.refined) == (2, "TWO_OR_THREE", 2)
    assert "exactly 2" in v.note


def test_refinement_requires_free_module_structure():
    doc = json.loads((DATA / "m3q.json").read_text())
    doc["free_over_base"] = False
    from ordgen.orderspec import spec_from_dict

    v = smallest_h(spec_from_dict(doc))
    assert (v.h, v.kind, v.refined) == (2, "TWO_OR_THREE", None)
    assert "density conjecture" in v.note


def test_matrix2_spec_blocked_from_refinement():
    v = smallest_h(fixture("m2q.json"))
    assert (v.h, v.kind, v.refined) == (2, "TWO_OR_THREE", None)
    assert "reduced degree 2" in v.note


def test_large_rank_verdict_flags_bound_mode():
    # M_4(Z) once read h = 3 from capacity lower bounds; the counts are exact now.
    v = smallest_h(rank4_spec())
    assert (v.h, v.kind, v.refined) == (2, "TWO_OR_THREE", 2)
    assert (v.cutoff, v.critical_primes) == (6, (2, 3, 5))
    assert "capacity lower bounds" not in v.note


def test_verdict_sieve_is_bounded_by_the_work_budget(monkeypatch):
    spec = make_quaternion_spec((101,))  # the cutoff lies just above the listed prime
    monkeypatch.setenv("ORDGEN_BUDGET", "102")
    assert smallest_h(spec).cutoff == 102
    monkeypatch.setenv("ORDGEN_BUDGET", "101")
    with pytest.raises(BudgetExceeded) as info:
        smallest_h(spec)
    assert (info.value.required, info.value.budget) == (102, 101)
    assert str(info.value) == "request needs 102 sieve entries, budget is 101"
    # p = 2 rules out k = 2, whose cutoff is near 1.15e40, so no sieve past the budget is asked for
    monkeypatch.setenv("ORDGEN_BUDGET", "1")
    v = smallest_h(make_quaternion_spec((2,), 10**200))
    assert (v.h, v.cutoff) == (333, 3)


@pytest.mark.parametrize("n", (4, 5, 6))
def test_matrix_orders_of_every_degree_are_generated_by_two(n):
    from ordgen.orderspec import spec_from_dict

    doc = json.loads((DATA / "m4q.json").read_text())
    doc["factors"][0]["degree"] = n
    rep = solver.report(spec_from_dict(doc))
    assert (rep.verdict.h, rep.verdict.refined) == (2, 2)
    assert "capacity lower bounds" not in rep.verdict.note
    assert "smallest h       2 (refined: exactly 2)" in solver.render_text(rep)


# ---------------------------------------------------------------- density


def test_density_of_rational_integers_is_one():
    d = density(fixture("z.json"), 1)
    assert d.lower == d.upper == Fraction(1)
    assert all(f == 1 for _, f in d.factors)


def test_density_zero_certificate_for_degree_two_factor():
    d = density(fixture("m2q.json"), 2)
    assert d.lower == d.upper == 0
    assert d.bound == 0
    assert d.factors == ()
    assert "reduced degree 2" in d.zero_reason


def test_density_zero_when_a_local_factor_vanishes():
    d = density(fixture("quat2.json"), 1)
    assert d.lower == d.upper == 0
    assert "p=2" in d.zero_reason


def test_density_interval_for_gaussian_integers():
    d = density(fixture("zi.json"), 2, 1000)
    assert d.minimum_bound == 25
    assert d.tail_coefficient == 5
    assert 0 < d.lower <= d.upper < 1
    assert abs(float(d.lower) - 0.604964) < 1e-5
    assert abs(float(d.upper) - 0.608004) < 1e-5
    product = Fraction(1)
    for _, f in d.factors:
        product *= f
    # 168 primes below 1000, each rounding up by less than one unit
    assert product <= d.upper < product + Fraction(168, 2**solver.DENSITY_BITS)


def test_density_interval_tightens_as_bound_doubles():
    spec = fixture("zi.json")
    intervals = [density(spec, 2, b) for b in (1000, 2000, 4000)]
    for a, b in zip(intervals, intervals[1:]):
        assert b.lower >= a.lower
        assert b.upper <= a.upper
        assert (b.upper - b.lower) < Fraction(3, 4) * (a.upper - a.lower)


def test_density_lower_bound_degenerates_below_quadratic_tail():
    d = density(fixture("zi.json"), 1)
    assert d.lower == 0
    assert d.tail_coefficient is None
    assert abs(float(d.upper) - 0.163588) < 1e-5
    assert "degenerates" in d.note


def test_density_default_bound_is_the_validity_floor():
    d = density(fixture("z.json"), 1)
    assert d.bound == d.minimum_bound == 25
    d3 = density(fixture("m3q.json"), 2, 200)
    assert d3.minimum_bound == 48
    assert abs(float(d3.lower) - 0.272503) < 1e-5
    assert abs(float(d3.upper) - 0.307913) < 1e-5


def tail_spec(poly, degree, copies=1, overrides=None):
    factor = {"name": "a", "center_minpoly": poly, "degree": degree, "copies": copies}
    return spec_from_dict({"factors": [factor], "overrides": overrides or {}})


TAIL_SPECS = {
    "M2(Z[i])": tail_spec([1, 0, 1], 2),
    "M3(Z[i])": tail_spec([1, 0, 1], 3),
    "M2(Z[sqrt2])": tail_spec([-2, 0, 1], 2),
    # Dedekind's cubic field: Z[alpha] is not maximal at 2, where three primes of degree 1 lie
    "M2(dedekind)": tail_spec([8, -2, 1, 1], 2, overrides={"2": [[2, 1, 1, 1]] * 3}),
    "Z[i]^3": tail_spec([1, 0, 1], 1, copies=3),
    "M2(Z)^3": tail_spec([0, 1], 2, copies=3),
}


@pytest.mark.parametrize("name", TAIL_SPECS)
def test_tail_terms_bound_every_local_deficit_past_the_floor(name):
    # beyond the bound density reads each local factor as at least 1 - sum(coeff p^-exp)
    spec = TAIL_SPECS[name]
    checked = 0
    for k in range(2, 5):
        terms = solver._tail_terms(spec, k)
        if k == 2 and any(f.degree == 2 for f in spec.factors) or any(exp < 2 for _, exp, _ in terms):
            continue  # density's zero path, or a gated term: the tail is not used
        for p in (p for p in primes_below(3001) if p >= solver._tail_floor(spec)):
            deficit = 1 - Fraction(gen_count_local(k, classify(local_data(spec, p))), p ** (spec.dimension * k))
            assert deficit <= sum(Fraction(coeff, p**exp) for coeff, exp, _ in terms), (k, p)
            checked += 1
    assert checked


def test_density_rejects_bound_below_validity_floor():
    with pytest.raises(BoundTooSmall) as info:
        density(fixture("zi.json"), 2, 10)
    assert info.value.bound == 10
    assert info.value.minimum == 25
    assert "below the tail-validity threshold" in str(info.value)


def test_density_refuses_large_rank():
    # degree 4 once raised UnsupportedRank; the Euler product is evaluated now.
    d = density(rank4_spec(), 2)
    assert (d.bound, d.minimum_bound, d.tail_coefficient) == (66, 66, Fraction(16, 33))
    assert d.factors[0] == (2, Fraction(2745630720, 2**32))
    assert abs(float(d.lower) - 0.549825) < 1e-5
    assert abs(float(d.upper) - 0.553894) < 1e-5


def test_primes_below_matches_trial_division():
    primes = [p for p in range(2000) if is_prime(p)]
    for n in range(2001):
        assert primes_below(n) == tuple(p for p in primes if p < n)


# Every n below 5000, powers of two and their neighbours, and both sides of the
# first range boundaries: 64, 4096 and then every SIEVE_SPAN numbers.
SIEVE_CASES = sorted(
    {*range(5000), *(2**j + d for j in range(6, 22) for d in range(-3, 4))}
    | {b + d for b in (64, *range(4096, 4096 + 8 * solver.SIEVE_SPAN, solver.SIEVE_SPAN)) for d in (-1, 0, 1)}
)


def test_primes_match_both_oracles():
    for n in SIEVE_CASES:
        expected = primes_below(n)
        assert tuple(solver._primes(n)) == expected == tuple(primes_in_order(n)), n


def test_primes_read_the_primes_below_64_before_refusing_past_the_budget(monkeypatch):
    monkeypatch.setenv("ORDGEN_BUDGET", "100")
    for sieve in (solver._primes, primes_in_order):
        read = []
        with pytest.raises(BudgetExceeded) as info:
            read.extend(sieve(10**9))
        assert read == list(primes_below(64)) and len(read) == 18
        assert str(info.value) == "request needs 1000000000 sieve entries, budget is 100"


def test_density_interval_validates_ordering():
    with pytest.raises(CertificateError):
        DensityInterval(
            k=2,
            bound=25,
            minimum_bound=25,
            lower=Fraction(2),
            upper=Fraction(1),
            dimension=2,
            counts=(),
            tail_coefficient=None,
            zero_reason=None,
            note=None,
        )


def tree_product(values):
    """Product of the values by a balanced tree of multiplications (1 when empty).

    Pairwise products keep both operands of every multiplication about the same
    size, so the large products run in Python's Karatsuba range rather than as
    one long chain of small-by-large products.
    """
    while len(values) > 1:
        values = [a * b for a, b in zip(values[::2], values[1::2])] + values[len(values) & ~1 :]
    return values[0] if values else 1


@functools.total_ordering
class Ratio:
    """An exact bound n/d, d > 0, left unreduced: it compares by cross-multiplying integers.

    Reducing the product of thousands of factors costs a gcd of integers of
    millions of bits.  `float` is int true division, which rounds correctly,
    as `float(Fraction)` does.
    """

    def __init__(self, numerator, denominator):
        self.numerator, self.denominator = numerator, denominator

    def __eq__(self, other):
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __lt__(self, other):
        return self.numerator * other.denominator < other.numerator * self.denominator

    def __mul__(self, other):
        return Ratio(self.numerator * other.numerator, self.denominator * other.denominator)

    def __float__(self):
        return self.numerator / self.denominator


def exact_density(spec, k, bound=None, ratio=Fraction):
    """The oracle: the density interval with exact bounds.

    Each prime is classified on its own and counted by `per_q_gen_count_local`,
    which does not run through `plan_count`; each factor is range-checked as a
    Fraction, and `upper` is the exact product of the factors, from two product
    trees: a Fraction, reduced by one gcd, or with ratio=Ratio the unreduced
    pair.
    """
    if k < 1:
        raise SpecError("k must be a positive integer")
    note_parts = []
    if not spec.free_over_base:
        note_parts.append(
            "free_over_base is false: the product is a local invariant; reading "
            "it as a global density is conjectural"
        )
    if k == 2 and any(f.degree == 2 for f in spec.factors):
        return DensityInterval(
            k=k,
            bound=0,
            minimum_bound=0,
            lower=Fraction(0),
            upper=Fraction(0),
            dimension=spec.dimension,
            counts=(),
            tail_coefficient=None,
            zero_reason=(
                "a factor of reduced degree 2 makes every split prime contribute "
                "1 - 1/p + O(1/p^2) at k=2, so the product diverges to zero"
            ),
            note="; ".join(note_parts),
        )
    minimum = solver._tail_floor(spec)
    if bound is None:
        bound = minimum
    if bound < minimum:
        raise BoundTooSmall(bound, minimum)
    d = spec.dimension
    counts = []
    for p in primes_below(bound + 1):
        cls = classify(local_data(spec, p))
        count = per_q_gen_count_local(k, cls)
        assert 0 <= Fraction(count, p ** (d * k)) <= 1
        counts.append((p, count))
        if count == 0:
            return DensityInterval(
                k=k,
                bound=bound,
                minimum_bound=minimum,
                lower=Fraction(0),
                upper=Fraction(0),
                dimension=d,
                counts=tuple(counts),
                tail_coefficient=None,
                zero_reason=f"the local factor at p={p} vanishes: k={k} is below "
                "the local minimum there",
                note="; ".join(note_parts),
            )
    upper = ratio(
        tree_product([count for _, count in counts]),
        tree_product([p ** (d * k) for p, _ in counts]),
    )
    terms = solver._tail_terms(spec, k)
    gated = [t for t in terms if t[1] < 2]
    if gated:
        labels = ", ".join(label for _, _, label in gated)
        note_parts.append(
            f"tail exponent below 2 for {labels}: the certified lower bound "
            "degenerates to 0 at this k"
        )
        lower = Fraction(0)
        tail_coefficient = None
    else:
        tail_coefficient = sum(
            (Fraction(coeff, minimum ** (exp - 2)) for coeff, exp, _ in terms),
            Fraction(0),
        )
        lower = upper * max(Fraction(0), 1 - Fraction(tail_coefficient, bound))
    return DensityInterval(
        k=k,
        bound=bound,
        minimum_bound=minimum,
        lower=lower,
        upper=upper,
        dimension=d,
        counts=tuple(counts),
        tail_coefficient=tail_coefficient,
        zero_reason=None,
        note="; ".join(note_parts),
    )


def assert_encloses(got, exact):
    """`got` is `exact` but for its bounds, which are dyadic and enclose exact's closely.

    Each of the pi(bound) primes rounds a bound outward by less than one unit
    of 2**-DENSITY_BITS, and the tail factor rounds `lower` down by less than
    one more, so either bound is at most pi(bound) + 1 units from the exact one.
    The exact bounds, Fractions or `Ratio`s, are compared by cross-multiplying.
    """
    assert dataclasses.replace(got, lower=exact.lower, upper=exact.upper) == exact
    unit = 2**solver.DENSITY_BITS
    slack = len(primes_below(got.bound + 1)) + 1
    for value in (got.lower, got.upper):
        assert value.denominator & (value.denominator - 1) == 0
        assert value.denominator <= unit
    # for got = units / unit and exact = n / d, got - exact = (units * d - n * unit) / (d * unit)
    low, high = int(got.lower * unit), int(got.upper * unit)
    lower, upper = exact.lower, exact.upper
    assert -slack * lower.denominator <= low * lower.denominator - lower.numerator * unit <= 0
    assert 0 <= high * upper.denominator - upper.numerator * unit <= slack * upper.denominator


def outcome(fn, *args):
    """The value of fn(*args), or the type and text of the OrdgenError it raises."""
    try:
        return fn(*args)
    except OrdgenError as exc:
        return type(exc), str(exc)


FIXTURES = sorted(path.name for path in DATA.glob("*.json"))

# Specs kept out of tests/data, so that the other grids over its files do not grow.
INLINE_SPECS = {
    # a quadratic field, M_2(Q) and a quaternion order ramified at {3, 5}
    "three_factor": {
        "factors": [
            {"name": "gauss", "center_minpoly": [1, 0, 1], "degree": 1},
            {"name": "matrix2", "center_minpoly": [0, 1], "degree": 2},
            {"name": "quaternion", "center_minpoly": [0, 1], "degree": 2, "local_indices": {"3": [2], "5": [2]}},
        ],
        "free_over_base": False,
    },
    # Dedekind's cubic x^3 - x^2 - 2x - 8: Z[x]/(f) is not maximal at 2, where
    # three primes of degree 1 lie; every other prime takes one of its patterns.
    "dedekind": {
        "factors": [{"name": "dedekind", "center_minpoly": [-8, -2, -1, 1], "degree": 1}],
        "free_over_base": True,
        "overrides": {"2": [[1, 1, 1, 1]] * 3},
    },
    # Q(sqrt 2) and Q(i) split independently, so a prime's shape is the pair of patterns.
    "two_quadratics": {
        "factors": [
            {"name": "sqrt2", "center_minpoly": [-2, 0, 1], "degree": 1},
            {"name": "gauss", "center_minpoly": [1, 0, 1], "degree": 1},
        ],
        "free_over_base": True,
    },
    # Q(sqrt 3) beside a quaternion order ramified at 3, which divides the center's
    # discriminant 12, and at 7, which does not.
    "quadratic_quaternion": {
        "factors": [
            {"name": "sqrt3", "center_minpoly": [-3, 0, 1], "degree": 1},
            {"name": "quaternion", "center_minpoly": [0, 1], "degree": 2, "local_indices": {"3": [2], "7": [2]}},
        ],
        "free_over_base": False,
    },
    # The same with two copies of Q(sqrt 3), whose split and inert shapes give
    # different counts, so that a wrong shape reading shows in the density.
    "quadratic_quaternion_twice": {
        "factors": [
            {"name": "sqrt3", "center_minpoly": [-3, 0, 1], "degree": 1, "copies": 2},
            {"name": "quaternion", "center_minpoly": [0, 1], "degree": 2, "local_indices": {"3": [2], "7": [2]}},
        ],
        "free_over_base": False,
    },
    # Z[3i] is maximal at 2 but not at 3, the second prime met.
    "late_exceptional": {
        "factors": [
            {"name": "sqrt2", "center_minpoly": [-2, 0, 1], "degree": 1},
            {"name": "threei", "center_minpoly": [9, 0, 1], "degree": 1},
        ],
        "free_over_base": True,
    },
}


def spec_named(name):
    if name in INLINE_SPECS:
        return spec_from_dict(INLINE_SPECS[name])
    return fixture(name)


# Specs whose shapes the quadratic fixtures lack: two quadratic centers, an override
# at a prime dividing the discriminant, a quadratic center beside listed primes (once
# with one copy, whose split and inert counts agree, and once with two), and a cubic
# center, read prime by prime.  The fold grid takes them to k = 4 as well.
SHAPE_SPECS = [
    "two_quadratics",
    "exceptional_override.json",
    "quadratic_quaternion",
    "quadratic_quaternion_twice",
    "dedekind",
]

FOLD_CASES = [
    (name, k, bound)
    for name in FIXTURES + sorted(INLINE_SPECS)
    for k in (1, 2, 3, 4) if k < 4 or name in SHAPE_SPECS
    for bound in (None, 1000, 4000)
]


@pytest.mark.parametrize("name,k,bound", FOLD_CASES)
def test_density_matches_per_prime_fold(name, k, bound):
    spec = spec_named(name)
    got = outcome(density, spec, k, bound)
    exact = outcome(exact_density, spec, k, bound)
    if isinstance(exact, DensityInterval):
        assert_encloses(got, exact)
        assert density_text(got) == density_text(exact)
    else:
        assert got == exact


def test_fold_grid_reaches_every_branch():
    def at(name, k, bound):
        return outcome(exact_density, spec_named(name), k, bound)

    assert ("exceptional.json", 2, 1000) in FOLD_CASES
    assert at("exceptional.json", 2, 1000)[0] is ExceptionalPrimeNeedsOverride
    vanishing = at("quat2.json", 1, None)
    assert vanishing.upper == 0 and vanishing.factors and "p=2" in vanishing.zero_reason
    assert at("m2q.json", 2, 1000).zero_reason.startswith("a factor of reduced degree 2")
    degenerate = at("zi.json", 1, 4000)
    assert degenerate.lower == 0 < degenerate.upper and degenerate.tail_coefficient is None
    interval = at("zi.json", 2, 4000)
    assert 0 < interval.lower < interval.upper < 1
    late = at("late_exceptional", 2, 1000)
    assert late[0] is ExceptionalPrimeNeedsOverride and "at p=3 " in late[1]
    assert 0 < at("three_factor", 3, 4000).lower
    dedekind = spec_named("dedekind")
    patterns = {orderspec._pattern(dedekind.factors[0].center_minpoly, p) for p in primes_below(4001)}
    assert len(patterns) == 5 and not all(pattern.certified for pattern in patterns)
    # F_2^3 is generated by the pairs whose three coordinate points in F_2^2 are distinct
    assert at("dedekind", 2, 4000).factors[0] == (2, Fraction(4 * 3 * 2, 4**3))
    # one copy of Q(sqrt 3) counts the same split or inert, two copies do not: at p = 5
    # and k = 2, F_5^2 and F_25 have 600 generating pairs each, F_5^4 and F_25^2 do not
    power = counting.gen_count_power
    assert power(2, 1, 5, 1, 2) == power(2, 1, 5, 2, 1) == 600
    assert (power(2, 1, 5, 1, 4), power(2, 1, 5, 2, 2)) == (303600, 358800)


@pytest.mark.parametrize("name,k,calls", [("zi.json", 2, 3), ("quat2.json", 3, 2), ("dedekind", 2, 5)])
def test_density_builds_local_data_once_per_shape(monkeypatch, name, k, calls):
    spec = spec_named(name)
    seen = []
    original = orderspec.local_data

    def counting_local_data(spec, p, **kwargs):
        seen.append(p)
        return original(spec, p, **kwargs)

    monkeypatch.setattr(orderspec, "local_data", counting_local_data)
    got = density(spec, k, 4000)
    keys = {
        tuple(orderspec._pattern(f.center_minpoly, p) for f in spec.factors)
        for p in primes_below(4001)
        if p not in spec.listed_primes
    }
    # one call per splitting shape, plus one per listed prime
    assert len(seen) == len(keys) + len(spec.listed_primes) == calls
    assert len(set(seen)) == len(seen)
    assert_encloses(got, exact_density(spec, k, 4000))


class PerPrimeKeyIndex:
    """The oracle of `orderspec._ShapeIndex`: each prime's key is every center's pattern there.

    The index reads a quadratic center's pattern from the prime's residue class
    and leaves linear centers out; this key calls `_pattern` for every factor
    at every unlisted prime.
    """

    def __init__(self, spec, build):
        self.spec, self.build, self.values = spec, build, {}

    def at(self, p):
        spec = self.spec
        if p in spec.overrides or any(p in f.local_indices for f in spec.factors):
            return self.build(classify(local_data(spec, p)))
        key = tuple(orderspec._pattern(f.center_minpoly, p) for f in spec.factors)
        if key not in self.values:
            self.values[key] = self.build(classify(local_data(spec, p)))
        return self.values[key]


@pytest.mark.parametrize("name", SHAPE_SPECS)
def test_analyze_documents_match_the_per_prime_key(monkeypatch, tmp_path, capsys, name):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_dict(spec_named(name))))

    def documents():
        out = []
        for k in (1, 2, 3, 4):
            for bound in ([], ["--bound", "4000"]):
                code = cli.main(["analyze", "--spec", str(path), "--format", "machine", "--density-k", str(k), *bound])
                captured = capsys.readouterr()
                out.append((code, captured.out, captured.err))
        return out

    got = documents()
    made = []

    def oracle(spec, build):
        made.append(spec)
        return PerPrimeKeyIndex(spec, build)

    monkeypatch.setattr(solver, "_ShapeIndex", oracle)
    assert documents() == got
    assert made and any(code == 0 for code, _, _ in got)


@pytest.mark.parametrize("name", SHAPE_SPECS)
def test_shape_index_reads_every_prime_as_its_local_data(name):
    spec = spec_named(name)
    index = orderspec._ShapeIndex(spec, attrgetter("groups"))
    for p in primes_below(4000):
        assert index.at(p) == classify(local_data(spec, p)).groups, p


def counted_pattern_calls(monkeypatch):
    """Record each `_pattern` call as (coefficients, p, whether local_data made it)."""
    calls, depth = [], [0]
    pattern, local = orderspec._pattern, orderspec.local_data

    def counting_pattern(f, p):
        calls.append((f, p, depth[0] > 0))
        return pattern(f, p)

    def nested_local_data(*args, **kwargs):
        depth[0] += 1
        try:
            return local(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(orderspec, "_pattern", counting_pattern)
    monkeypatch.setattr(orderspec, "local_data", nested_local_data)
    return calls


@pytest.mark.parametrize(
    "name,k,reads,built",
    [
        # Z[i]: the index reads the classes 2, 3 and 1 mod 4 at p = 2, 3 and 5, and
        # local_data builds the three shapes, one center each
        ("zi.json", 2, 3, 3),
        # Z[sqrt 2] and Z[i]: 5 classes mod 8 and 3 mod 4 are met; local_data builds 2
        # centers at 5 shapes, p = 2 and the four pairs of split or inert
        ("two_quadratics", 3, 8, 10),
    ],
)
def test_density_calls_pattern_once_per_residue_class(monkeypatch, name, k, reads, built):
    calls = counted_pattern_calls(monkeypatch)
    got = density(spec_named(name), k, 30000)
    assert len(got.counts) == 3245
    assert sum(inside for _, _, inside in calls) == built
    assert len(calls) == reads + built


def test_smallest_h_calls_pattern_once_per_residue_class_per_center(monkeypatch):
    # discriminants 8 and -3; the quaternion order ramified at 1009 puts the cutoff past it
    spec = spec_from_dict(
        {
            "factors": [
                {"name": "sqrt2", "center_minpoly": [-2, 0, 1], "degree": 1},
                {"name": "eisenstein", "center_minpoly": [1, 1, 1], "degree": 1},
                {"name": "quaternion", "center_minpoly": [0, 1], "degree": 2, "local_indices": {"1009": [2]}},
            ],
        }
    )
    calls = counted_pattern_calls(monkeypatch)
    table = {}
    verdict = smallest_h(spec, _table=table)
    assert verdict.cutoff > 1009 and len(table) == len(primes_below(verdict.cutoff))
    unlisted = [p for p in table if p not in spec.listed_primes]
    reads = [(f, p) for f, p, inside in calls if not inside]
    for f, disc in (((-2, 0, 1), 8), ((1, 1, 1), -3)):
        classes = [p % abs(disc) for g, p in reads if g == f]
        assert sorted(classes) == sorted({p % abs(disc) for p in unlisted})
    assert len(reads) == 4 + 1 + 3  # 1, 3, 5, 7 mod 8 and 2 (p = 2); 0, 1, 2 mod 3


def test_density_evaluates_one_count_polynomial_per_shape():
    # zi at k=2 has the groups (n, r) = (1, 1) and (1, 2), whose counts have
    # degrees 2 and 4: 3 + 5 direct counts at the nodes and 2 + 2 at the check
    # points build them, and no prime adds a count of its own.
    counting.gen_count_twisted.cache_clear()
    counting.twisted_count_polys.cache_clear()
    got = density(fixture("zi.json"), 2, 30000)
    assert len(got.counts) == 3245
    assert counting.twisted_count_polys.cache_info().currsize == 2
    assert counting.gen_count_twisted.cache_info().currsize == 12


def test_density_of_a_degree_four_factor_matches_the_per_prime_oracle():
    # The degree-4 count polynomials against the recursion at every prime below 30000.  The
    # exact bounds have more digits than a document may print, so both documents carry the
    # dyadic bounds, which assert_encloses checks.
    # The oracle's bounds stay unreduced; at a small bound they equal the reduced ones.
    spec = fixture("m4q.json")
    reduced, unreduced = exact_density(spec, 3, 1000), exact_density(spec, 3, 1000, ratio=Ratio)
    assert unreduced == reduced and density_text(unreduced) == density_text(reduced)
    got, exact = density(spec, 3, 30000), exact_density(spec, 3, 30000, ratio=Ratio)
    assert_encloses(got, exact)
    assert density_text(got) == density_text(exact)
    assert render_json(got) == render_json(dataclasses.replace(exact, lower=got.lower, upper=got.upper))


DENSITY_GRID = [(name, k) for name in FIXTURES if name != "exceptional.json" for k in (1, 2, 3)]


def test_density_upper_never_increases_as_the_bound_grows():
    # A larger bound folds more factors c/w <= 1 into the same rounded product,
    # and ceil(hi * c / w) <= hi, so this holds exactly, not up to rounding.
    for name, k in DENSITY_GRID:
        spec = fixture(name)
        floor = solver._tail_floor(spec)
        uppers = [density(spec, k, b).upper for b in (floor, floor + 1, 100, 101, 1000, 1009, 3000)]
        assert uppers == sorted(uppers, reverse=True), (name, k)


def test_density_bounds_enclose_the_exact_ones_under_optimisation():
    # The intervals are computed under python -O and checked here, where assert is live.
    cases = [(name, k, bound) for name, k in DENSITY_GRID for bound in (1000, 3000)]
    code = (
        "import sys\n"
        "from ordgen.orderspec import load_spec\n"
        "from ordgen.solver import density, render_json\n"
        f"for name, k, bound in {cases!r}:\n"
        f"    print(render_json(density(load_spec({str(DATA)!r} + '/' + name), k, bound)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(solver.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(cases)
    for (name, k, bound), line in zip(cases, lines):
        got = density(fixture(name), k, bound)
        assert line == render_json(got)
        assert_encloses(got, exact_density(fixture(name), k, bound))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**80), max_size=33))
def test_tree_product_matches_prod(values):
    assert tree_product(list(values)) == math.prod(values)


@pytest.mark.parametrize("n", range(0, 18))
def test_tree_product_of_every_short_length(n):
    values = [3 * i + 2 for i in range(n)]
    assert tree_product(values) == math.prod(values)
    assert tree_product(values + [0]) == 0


@pytest.mark.parametrize("bad_count", [lambda whole: -1, lambda whole: whole + 1], ids=["negative", "above"])
def test_density_local_count_out_of_range_raises_certificate_error(monkeypatch, bad_count):
    spec = fixture("zi.json")
    monkeypatch.setattr(solver, "plan_count", lambda plan, p: bad_count(p ** (spec.dimension * 2)))
    with pytest.raises(CertificateError, match="outside"):
        density(spec, 2, 1000)


def test_density_range_checks_a_listed_primes_count(monkeypatch):
    # 3 and 5 are listed: each takes a plan of its own, through the same evaluation
    spec = spec_named("three_factor")
    exponent = spec.dimension * 3
    above = 5**exponent + 1
    original = solver.plan_count
    monkeypatch.setattr(solver, "plan_count", lambda plan, p: above if p == 5 else original(plan, p))
    with pytest.raises(CertificateError, match=rf"^local count {above} at p=5 is outside \[0, p\^{exponent}\]$"):
        density(spec, 3, 1000)


def test_density_checks_primality_once_per_shape(monkeypatch):
    # local_data checks its prime on every call, and the shape index calls it at
    # the first prime of each of Z[i]'s three shapes: the sieve itself checks none
    spec = fixture("zi.json")
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(orderspec, "is_prime", counting_is_prime)
    monkeypatch.setattr(solver, "is_prime", counting_is_prime)
    d = density(spec, 2, 4000)
    assert len(d.factors) == 550
    assert calls == [2, 3, 5]
    calls.clear()
    with pytest.raises(NotPrime):
        local_data(spec, 15)
    assert calls == [15]


# ---------------------------------------------------------------- quaternion


def test_quaternion_spec_constructor_validates_primes():
    with pytest.raises(SpecError):
        make_quaternion_spec((4,))
    spec = make_quaternion_spec((2,), 7)
    assert spec == fixture("quat2x7.json")


def test_quaternion_thresholds_short_table():
    table = quaternion_example((2,), 28)
    assert table.ranges == ((2, 1, 6), (3, 7, 28))
    assert table.rows[0] == (1, 2)
    assert table.rows[-1] == (28, 3)


def test_quaternion_h_nondecreasing():
    table = quaternion_example((2,), 130)
    hs = [h for _, h in table.rows]
    assert all(a <= b for a, b in zip(hs, hs[1:]))
    assert table.ranges == ((2, 1, 6), (3, 7, 28), (4, 29, 120), (5, 121, 130))


def scan_quaternion_table(ramified, m_max):
    """The per-m oracle: a full verdict for every m from 1 to m_max.

    Returns the table and the scanned (m, h) rows, which the table derives.
    """
    rows = tuple((m, smallest_h(make_quaternion_spec(ramified, m)).h) for m in range(1, m_max + 1))
    ranges = []
    for m, h in rows:
        if ranges and ranges[-1][0] == h:
            ranges[-1][2] = m
        else:
            ranges.append([h, m, m])
    table = QuaternionTable(
        ramified=tuple(sorted(set(ramified))),
        m_max=m_max,
        ranges=tuple(tuple(r) for r in ranges),
    )
    return table, rows


def assert_matches_scan(ramified, m_max):
    table, rows = scan_quaternion_table(ramified, m_max)
    got = quaternion_example(ramified, m_max)
    assert got == table
    assert got.rows == rows
    assert to_jsonable(got)["rows"] == [list(row) for row in rows]


def capacity_ranges(ramified, m_max):
    """Threshold ranges from the local capacities alone.

    k generators reach (p^2k - p^k)/2 copies of F_{p^2} at a ramified p (Galois
    orbits of tuples not inside F_p) and phi_k(M_2(F_q))/|PGL_2(q)| copies of
    M_2(F_q) at the least unramified q, where phi_k = q^4k - (q+1) q^3k + q^(2k+1)
    by Moebius inversion over the Borel, field, torus and scalar subalgebras.
    """
    q = next(p for p in itertools.count(2) if is_prime(p) and p not in ramified)
    ranges = []
    lo, k = 1, 1
    while lo <= m_max:
        split = (q ** (4 * k) - (q + 1) * q ** (3 * k) + q ** (2 * k + 1)) // (q * (q * q - 1))
        cap = min([split] + [(p ** (2 * k) - p**k) // 2 for p in ramified])
        if cap >= lo:
            ranges.append((k, lo, min(cap, m_max)))
            lo = cap + 1
        k += 1
    return tuple(ranges)


SMALL_RAMIFIED = [(p,) for p in (2, 3, 5, 7, 11, 13)] + list(itertools.combinations((2, 3, 5, 7, 11, 13), 2))


@pytest.mark.parametrize("m_max", [1, 2, 7, 300])
@pytest.mark.parametrize("ramified", SMALL_RAMIFIED, ids=[",".join(map(str, r)) for r in SMALL_RAMIFIED])
def test_quaternion_search_matches_per_m_scan(ramified, m_max):
    assert_matches_scan(ramified, m_max)


@pytest.mark.parametrize("ramified", [(2,), (5, 7), (3, 5)])
def test_quaternion_acceptance_tables_match_per_m_scan(ramified):
    assert_matches_scan(ramified, 1000)


@pytest.mark.parametrize("ramified,m_max", [((5, 7), 10**6), ((2,), 10**5)])
def test_quaternion_thresholds_match_local_capacities(ramified, m_max):
    table = quaternion_example(ramified, m_max)
    assert table.ranges == capacity_ranges(ramified, m_max)
    rows = table.rows
    assert len(rows) == m_max
    assert rows[-1] == (m_max, table.ranges[-1][0])


def test_capacity_ranges_name_the_known_thresholds():
    assert [hi for _, _, hi in capacity_ranges((5, 7), 10**6)] == [16, 448, 8960, 158720, 10**6]
    assert [hi for _, _, hi in capacity_ranges((2,), 40000)] == [6, 28, 120, 496, 2016, 8128, 32640, 40000]


@pytest.mark.parametrize(
    "ramified,m_max", [((5, 7), 10000), ((2,), 1000), ((100003,), 1000), ((2, 5), 10**30)]
)
def test_quaternion_table_makes_no_verdict(monkeypatch, ramified, m_max):
    """No verdict and no sieve up to the cutoff: two cutoffs per range, at its first and last m."""
    cutoffs, sieves = [], []
    original_cutoff, original_sieve = solver.prime_cutoff, solver._primes

    def no_verdict(spec, **kwargs):
        raise AssertionError("quaternion_example called smallest_h")

    def counting_cutoff(spec, k):
        cutoffs.append((spec.factors[0].copies, k))
        return original_cutoff(spec, k)

    def counting_sieve(n):
        sieves.append(n)
        return original_sieve(n)

    monkeypatch.setattr(solver, "smallest_h", no_verdict)
    monkeypatch.setattr(solver, "prime_cutoff", counting_cutoff)
    monkeypatch.setattr(solver, "_primes", counting_sieve)
    table = quaternion_example(ramified, m_max)
    assert all(lo < hi for _, lo, hi in table.ranges)
    assert sorted(cutoffs) == sorted((m, h) for h, lo, hi in table.ranges for m in (lo, hi))
    assert 0 < max(sieves) <= 64


@pytest.mark.parametrize("short", [3, 101], ids=["unramified-3", "ramified-101"])
def test_quaternion_table_reads_every_prime_that_can_fall_short(monkeypatch, short):
    """A prime whose capacity grows by only 10 copies per level ends every level, as in the per-m scan.

    The unramified 3 lies below the shape threshold of each level reached here
    (64, 8 and 4); the ramified 101 lies above them, where only the listed
    primes are read.  No true capacity does this: for a quaternion order the
    least room is at 2 or at a small ramified prime.
    """
    original = counting.twisted_capacity

    def clipped(k, n, q, r):
        capacity = original(k, n, q, r)
        return min(capacity, 10 * k) if q == short else capacity

    monkeypatch.setattr(counting, "twisted_capacity", clipped)
    monkeypatch.setattr(solver, "twisted_capacity", clipped)
    table, _ = scan_quaternion_table((101,), 40)
    assert table.ranges == ((2, 1, 16), (3, 17, 30), (4, 31, 40))
    assert quaternion_example((101,), 40) == table


def test_quaternion_search_refuses_decreasing_h(monkeypatch):
    """Level 4 gets the capacities of level 2, so it reaches 6 copies after level 3 reached 28."""
    original = solver.twisted_capacity
    monkeypatch.setattr(solver, "twisted_capacity", lambda k, n, q, r: original(2 if k == 4 else k, n, q, r))
    with pytest.raises(CertificateError, match="nondecreasing"):
        quaternion_example((2,), 40)


# Quaternion tables ramified at primes up to about 10^5, where a verdict
# classifies every prime below the largest ramified one.
LARGE_RAMIFIED = [((99991,), 1000), ((2, 99989), 10**5), ((3, 65537), 5000), ((10007, 99991), 300)]

LARGE_RAMIFIED_SCRIPT = (
    "from ordgen.solver import make_quaternion_spec, quaternion_example, smallest_h\n"
    f"for ramified, m_max in {LARGE_RAMIFIED!r}:\n"
    "    table = quaternion_example(ramified, m_max)\n"
    "    ends = [m for _, lo, hi in table.ranges for m in (lo, hi)]\n"
    "    print(table.ranges, [smallest_h(make_quaternion_spec(ramified, m)).h for m in ends])\n"
)


def expected_large_ramified_lines():
    """The capacity ranges, and each range's h twice: at its first and at its last m."""
    lines = []
    for ramified, m_max in LARGE_RAMIFIED:
        ranges = capacity_ranges(ramified, m_max)
        lines.append(f"{ranges} {[h for h, _, _ in ranges for _ in (0, 1)]}\n")
    return "".join(lines)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_quaternion_tables_at_large_ramified_primes(flags):
    """The tables equal the capacity ranges, and a full verdict at each range's ends agrees.

    A verdict pins each boundary: h is h(lo) = h(hi) within a range and changes
    at the next range's first m.  Under -O too, where no assert would run.
    """
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(solver.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", LARGE_RAMIFIED_SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected_large_ramified_lines()


@pytest.mark.parametrize("name", ["m2q.json", "quat2x7.json"])
def test_report_classifies_each_prime_once(monkeypatch, name):
    seen = []
    original = orderspec.classify

    def counting_classify(data):
        seen.append(data.p)
        return original(data)

    minima = []
    original_min_k = solver.min_k_local

    def counting_min_k(cls):
        minima.append(cls.p)
        return original_min_k(cls)

    monkeypatch.setattr(orderspec, "classify", counting_classify)
    monkeypatch.setattr(solver, "min_k_local", counting_min_k)
    spec = fixture(name)
    rep = report(spec)
    primes = [p for p in range(2, rep.verdict.cutoff) if is_prime(p)]
    # one classification per splitting shape (a linear center has one), plus one per listed prime
    assert len(seen) == 1 + len(spec.listed_primes)
    assert len(set(seen)) == len(seen) and set(spec.listed_primes) <= set(seen) <= set(primes)
    assert [detail.p for detail in rep.details] == primes
    assert sorted(minima) == primes


def test_report_sieves_nothing_after_its_last_search_pass(monkeypatch):
    """The critical primes and the details are read from the verdict's table.

    quat2x7 has two search passes: p = 2 rules out k = 2, and k = 3 passes.
    """
    events = []
    original_sieve, original_cutoff = solver._primes, solver.prime_cutoff

    def counting_sieve(n):
        events.append(("sieve", n))
        return original_sieve(n)

    def recording_cutoff(spec, k):
        events.append(("cutoff", k))
        return original_cutoff(spec, k)

    monkeypatch.setattr(solver, "_primes", counting_sieve)
    monkeypatch.setattr(solver, "prime_cutoff", recording_cutoff)
    spec = fixture("quat2x7.json")
    rep = report(spec)
    cutoff = rep.verdict.cutoff
    assert events == [("sieve", solver._cutoff_shapes(spec, 2)[1]), ("sieve", cutoff), ("cutoff", 3)]
    assert [detail.p for detail in rep.details] == list(primes_below(cutoff))
    assert rep.verdict.critical_primes == (2,)


def test_report_on_a_large_ramified_prime_makes_pinned_capacity_calls(monkeypatch):
    """Each of the primes below the cutoff has its local minimum at the counting
    bound or one above it, so the upward scan makes one or two capacities per
    prime; the doubling and bisection it replaced made 28 785 calls here."""
    calls = []
    original = counting.twisted_capacity

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(counting, "twisted_capacity", counted)
    monkeypatch.setattr(solver, "twisted_capacity", counted)
    report(make_quaternion_spec((100003,)))
    assert len(calls) == 19193


# ---------------------------------------------------------------- rendering


def test_report_renders_text_sections():
    rep = report(fixture("zi.json"), density_k=2, density_bound=1000)
    text = render_text(rep)
    assert "smallest h       1" in text
    assert "verdict          ONE_OR_TWO" in text
    assert "prime  min_k  blocks" in text
    assert "truncation bound  1000" in text


def test_density_text_formats_decimal_interval():
    text = density_text(density(fixture("zi.json"), 2, 1000))
    assert "upper             0.608004307306" in text
    assert "lower             0.60496428577" in text
    assert "tail coefficient  5" in text
    zero = density_text(density(fixture("m2q.json"), 2))
    assert "density           0 (exact)" in zero


def test_quaternion_table_text_lists_ranges():
    text = quaternion_table_text(quaternion_example((2,), 28))
    assert "ramified at {2}" in text
    assert "2  1 <= m <= 6" in text
    assert "3  7 <= m <= 28" in text


def test_machine_rendering_is_canonical_json():
    rep = report(fixture("zi.json"), density_k=2, density_bound=1000)
    blob = render_json(rep)
    assert blob == render_json(report(fixture("zi.json"), density_k=2, density_bound=1000))
    doc = json.loads(blob)
    assert doc["verdict"]["h"] == 1
    assert doc["density"]["tail_coefficient"] == "5/1"
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == blob


def test_jsonable_conversion_rules():
    assert to_jsonable(Fraction(3, 7)) == "3/7"
    assert to_jsonable({2: (1, None, True)}) == {"2": [1, None, True]}
    assert to_jsonable(Verdict(
        h=1,
        kind="ONE_OR_TWO",
        refined=None,
        critical_primes=(),
        cutoff=2,
        r_k=1,
        note="",
        certificate=None,
    ))["h"] == 1
    with pytest.raises(TypeError):
        to_jsonable({1, 2})
    # json.dumps decides the values no document holds: floats pass, keys are JSON keys
    assert to_jsonable({True: 0.5}) == {"true": 0.5}
    with pytest.raises(TypeError):
        to_jsonable({(1, 2): 3})


# ---------------------------------------------------------------- machine documents


def walked_jsonable(obj):
    """The oracle of `to_jsonable`: a recursive walk over dataclasses, containers and Fractions."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # a density interval's document holds its factors in place of the counts they come from
        hidden = ("dimension", "counts") if isinstance(obj, DensityInterval) else ()
        doc = {f.name: walked_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.name not in hidden}
        if isinstance(obj, QuaternionTable):
            doc["rows"] = walked_jsonable(obj.rows)
        elif hidden:
            doc["factors"] = walked_jsonable(obj.factors)
        return doc
    if isinstance(obj, (list, tuple)):
        return [walked_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(key): walked_jsonable(value) for key, value in obj.items()}
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"cannot render {type(obj).__name__} to JSON")


def walked_render(obj):
    """The oracle of `render_json`: the walked value, dumped."""
    return json.dumps(walked_jsonable(obj), sort_keys=True, separators=(",", ":"))


def three_construction_density(spec, k, bound=None):
    """The oracle of `density`: the same interval, returned from each of its three ends.

    The reduced-degree-2 factor at k = 2 and a vanishing local factor each
    return an interval of their own, and the full product a third.
    """
    if k < 1:
        raise SpecError("k must be a positive integer")
    note_parts = []
    if not spec.free_over_base:
        note_parts.append(
            "free_over_base is false: the product is a local invariant; reading "
            "it as a global density is conjectural"
        )
    if k == 2 and any(f.degree == 2 for f in spec.factors):
        return DensityInterval(
            k=k,
            bound=0,
            minimum_bound=0,
            lower=Fraction(0),
            upper=Fraction(0),
            dimension=spec.dimension,
            counts=(),
            tail_coefficient=None,
            zero_reason=(
                "a factor of reduced degree 2 makes every split prime contribute "
                "1 - 1/p + O(1/p^2) at k=2, so the product diverges to zero"
            ),
            note="; ".join(note_parts),
        )
    minimum = solver._tail_floor(spec)
    if bound is None:
        bound = minimum
    if bound < minimum:
        raise BoundTooSmall(bound, minimum)
    limit = resolve_budget()
    if bound + 1 > limit:
        raise BudgetExceeded(bound + 1, limit, "sieve entries")

    d = spec.dimension
    counts = []
    lo = hi = 1 << solver.DENSITY_BITS
    plan_at = orderspec._ShapeIndex(spec, functools.partial(orderspec.count_plan, k)).at
    for p in primes_below(bound + 1):
        count, whole = counting.plan_count(plan_at(p), p), p ** (d * k)
        if not 0 <= count <= whole:
            raise CertificateError(f"local count {count} at p={p} is outside [0, p^{d * k}]")
        counts.append((p, count))
        lo = lo * count // whole
        hi = -(-hi * count // whole)
        if count == 0:
            return DensityInterval(
                k=k,
                bound=bound,
                minimum_bound=minimum,
                lower=Fraction(0),
                upper=Fraction(0),
                dimension=d,
                counts=tuple(counts),
                tail_coefficient=None,
                zero_reason=f"the local factor at p={p} vanishes: k={k} is below "
                "the local minimum there",
                note="; ".join(note_parts),
            )

    upper = Fraction(hi, 1 << solver.DENSITY_BITS)
    terms = solver._tail_terms(spec, k)
    gated = [t for t in terms if t[1] < 2]
    if gated:
        labels = ", ".join(label for _, _, label in gated)
        note_parts.append(
            f"tail exponent below 2 for {labels}: the certified lower bound "
            "degenerates to 0 at this k"
        )
        lower = Fraction(0)
        tail_coefficient = None
    else:
        tail_coefficient = sum(
            (Fraction(coeff, minimum ** (exp - 2)) for coeff, exp, _ in terms),
            Fraction(0),
        )
        t = max(Fraction(0), 1 - Fraction(tail_coefficient, bound))
        lower = Fraction(lo * t.numerator // t.denominator, 1 << solver.DENSITY_BITS)
    return DensityInterval(
        k=k,
        bound=bound,
        minimum_bound=minimum,
        lower=lower,
        upper=upper,
        dimension=d,
        counts=tuple(counts),
        tail_coefficient=tail_coefficient,
        zero_reason=None,
        note="; ".join(note_parts),
    )


DOCUMENT_SPECS = FIXTURES + sorted(INLINE_SPECS)
# The default bound, 1000 and 30 000, plus a bound below every floor and one past the
# work budget: only a degree-2 factor at k = 2 answers those two, with bound 0.
DOCUMENT_BOUNDS = (None, 1000, 30000, 3, 10**12)
DOCUMENT_CASES = [(name, k, bound) for name in DOCUMENT_SPECS for k in (1, 2, 3, 4) for bound in DOCUMENT_BOUNDS]


def document_outcome(result):
    """A density outcome as the -O script prints it: the machine document, or the error."""
    if isinstance(result, DensityInterval):
        return render_json(result)
    return f"{result[0].__name__}: {result[1]}"


@functools.cache
def oracle_document(name, k, bound):
    return document_outcome(outcome(three_construction_density, spec_named(name), k, bound))


@pytest.mark.parametrize("name", DOCUMENT_SPECS)
def test_density_matches_the_three_construction_oracle(monkeypatch, name):
    monkeypatch.delenv("ORDGEN_BUDGET", raising=False)
    spec = spec_named(name)
    for k in (1, 2, 3, 4):
        for bound in DOCUMENT_BOUNDS:
            got = outcome(density, spec, k, bound)
            expected = outcome(three_construction_density, spec, k, bound)
            assert got == expected, (k, bound)
            if isinstance(got, DensityInterval):
                assert render_json(got) == walked_render(expected)
                assert to_jsonable(got) == walked_jsonable(expected)
                assert density_text(got) == density_text(expected)
            assert document_outcome(got) == oracle_document(name, k, bound)


def test_density_zero_paths_match_the_oracle():
    # a degree-2 factor at k = 2 answers before the floor and the budget are checked
    for bound in (None, 3, 10**12):
        zero = density(fixture("m2q.json"), 2, bound)
        assert zero == three_construction_density(fixture("m2q.json"), 2, bound)
        assert (zero.bound, zero.minimum_bound, zero.counts) == (0, 0, ())
        assert "truncation bound  0\n" in density_text(zero)
    # a vanishing prime is the last entry of the counts
    vanishing = density(fixture("quat2.json"), 1, 1000)
    assert vanishing == three_construction_density(fixture("quat2.json"), 1, 1000)
    assert vanishing.counts == ((2, 0),) and vanishing.tail_coefficient is None
    # a tail exponent below 2 keeps the upper bound and drops the lower one to 0
    degenerate = density(fixture("zi.json"), 1, 1000)
    assert degenerate == three_construction_density(fixture("zi.json"), 1, 1000)
    assert degenerate.lower == 0 < degenerate.upper and "degenerates" in degenerate.note


def test_density_stops_sieving_at_a_vanishing_factor(monkeypatch):
    # p = 2 fixes the answer, so the sieve up to 10**7, once 10**7 flags, ends in its first range.
    monkeypatch.delenv("ORDGEN_BUDGET", raising=False)
    tracemalloc.start()
    try:
        vanishing = density(fixture("quat2.json"), 1, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vanishing.counts == ((2, 0),)
    assert peak < 2**20


def test_density_matches_the_three_construction_oracle_under_optimisation():
    # The documents are computed under python -O and compared here with the oracle's.
    code = (
        "from ordgen import solver\n"
        "from ordgen.errors import OrdgenError\n"
        "from ordgen.orderspec import spec_from_dict, load_spec\n"
        f"inline = {INLINE_SPECS!r}\n"
        f"for name, k, bound in {DOCUMENT_CASES!r}:\n"
        f"    spec = spec_from_dict(inline[name]) if name in inline else load_spec({str(DATA)!r} + '/' + name)\n"
        "    try:\n"
        "        print(solver.render_json(solver.density(spec, k, bound)))\n"
        "    except OrdgenError as exc:\n"
        "        print(f'{type(exc).__name__}: {exc}')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(solver.__file__).parent.parent))
    env.pop("ORDGEN_BUDGET", None)
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split("\n")
    assert lines[-1] == "" and len(lines) == len(DOCUMENT_CASES) + 1
    for case, line in zip(DOCUMENT_CASES, lines):
        assert line == oracle_document(*case), case


def cli_documents(capsys, argvs):
    out = []
    for argv in argvs:
        code = cli.main(argv)
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


QUATERNION_DOCUMENTS = [
    ["quaternion", "--ramified", ramified, "--mmax", mmax, "--format", "machine"]
    for ramified in ("2", "3", "2,5", "5,7", "13")
    for mmax in ("300", "1000")
]
OTHER_DOCUMENTS = [
    ["count", "--k", "2", "--n", "2", "--q", "2", "--format", "machine"],
    ["count", "--k", "3", "--n", "3", "--q", "4", "--r", "2", "--m", "3", "--format", "machine"],
    ["oracle", "--alg", "M(2,2)", "--k", "2", "--format", "machine"],
    ["oracle", "--alg", "M(2,2)", "--k", "2", "--samples", "500", "--seed", "7", "--format", "machine"],
]


def test_cli_documents_match_the_walked_encoder(monkeypatch, capsys, tmp_path):
    # 10^4299 copies: its analyze document holds an integer of more than 4300 digits
    doc = json.loads((DATA / "z.json").read_text())
    doc["factors"][0]["copies"] = 10**4299
    huge = tmp_path / "zlimit.json"
    huge.write_text(json.dumps(doc))
    argvs = [*QUATERNION_DOCUMENTS, *OTHER_DOCUMENTS, ["analyze", "--spec", str(huge), "--format", "machine"]]
    for name in FIXTURES:
        path = str(DATA / name)
        argvs.append(["analyze", "--spec", path, "--format", "machine"])
        argvs.append(["analyze", "--spec", path, "--format", "machine", "--density-k", "3"])
        argvs.append(["density", "--spec", path, "--k", "3", "--bound", "1000", "--format", "machine"])
    got = cli_documents(capsys, argvs)
    monkeypatch.setattr(cli, "render_json", walked_render)
    assert cli_documents(capsys, argvs) == got
    assert got[len(QUATERNION_DOCUMENTS) + len(OTHER_DOCUMENTS)] == (
        4,
        "",
        "error: request needs more than 4300 digits in one printed integer, budget is 4300\n",
    )
    assert sum(code == 0 for code, _, _ in got) >= len(argvs) - 4


def test_report_and_table_values_match_the_walked_encoder():
    results = [outcome(report, fixture(name), *args) for name in FIXTURES for args in ((), (3, 1000))]
    results += [quaternion_example(ramified, 300) for ramified in ((2,), (5, 7))]
    results = [result for result in results if not isinstance(result, tuple)]  # not an OrdgenError
    assert len(results) >= 2 * len(FIXTURES)
    for result in results:
        assert render_json(result) == walked_render(result)
        assert to_jsonable(result) == walked_jsonable(result)


def test_huge_integers_raise_value_error_in_both_encoders():
    huge = {"value": 10**4300}
    with pytest.raises(ValueError):
        render_json(huge)
    with pytest.raises(ValueError):
        walked_render(huge)
    with pytest.raises(ValueError):
        to_jsonable(huge)
