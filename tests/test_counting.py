"""Exact generating-tuple counts, capacities, inversion, and the lower bounds as oracles."""

from collections import Counter
from fractions import Fraction
from math import sqrt

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordgen.counting import (
    _absolutely_irreducible,
    _deficiency_coeff,
    divisors,
    gen_count_exact,
    gen_count_power,
    gen_count_twisted,
    gl_order,
    horner,
    min_k_for_copies,
    mobius,
    pgl_order,
    twisted_capacity,
    twisted_count_polys,
)
from ordgen import counting
from ordgen.errors import CertificateError, InvalidCount
from ordgen.finalg import brute_gen_count, matrix_algebra, product_algebra, sample_gen_fraction
from ordgen.primes import is_prime
from arithmetic_oracles import divisors_by_trial, mobius_by_trial
from count_oracles import bisect_min_k

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9)
PRIME_POWERS_TO_32 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)


# The certified lower bounds that verdicts for n >= 4 once rested on; they are
# oracles now, each at most the exact count.


def count_lower(k, n, q):
    """Lower bound q^{kn^2} - ceil(2^{(n+6)/2}) q^{n^2 k - (k-1)(n-1)} on gen_count_exact, any n."""
    raw = q ** (k * n * n) - _deficiency_coeff(n) * q ** (n * n * k - (k - 1) * (n - 1))
    return max(0, raw)


def twisted_lower(k, n, q, r):
    """Lower bound on gen_count_twisted: each subfield correction rounded up, any n."""
    pgl_top = pgl_order(n, q**r)
    total = count_lower(k, n, q**r)
    for s in divisors(r):
        if s == r:
            continue
        # Each correction term is at most (pgl_top / pgl_s) * q^{skn^2}.
        term = Fraction(pgl_top * q ** (s * k * n * n), pgl_order(n, q**s))
        total -= -((-term.numerator) // term.denominator)
    return max(0, total)


def capacity_lower(k, n, q, s):
    return twisted_lower(k, n, q, s) // (s * pgl_order(n, q**s))


def min_k_bound(n, q, s, m):
    """Smallest k whose capacity lower bound reaches m copies: at least min_k_for_copies."""
    k = 1
    while capacity_lower(k, n, q, s) < m:
        k += 1
    return k


def test_divisors_sorted():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)


def test_mobius_first_values():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_divisors_and_mobius_match_the_trial_division_oracles():
    for n in range(1, 5000):
        assert divisors(n) == divisors_by_trial(n), n
        assert mobius(n) == mobius_by_trial(n), n


def test_group_orders():
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    assert gl_order(3, 2) == 168
    assert pgl_order(2, 2) == 6
    assert pgl_order(2, 3) == 24
    assert pgl_order(3, 2) == 168


def test_exact_count_known_values():
    assert gen_count_exact(1, 1, 5) == 5
    assert gen_count_exact(2, 1, 3) == 9
    assert gen_count_exact(2, 2, 2) == 96
    assert gen_count_exact(2, 2, 3) == 3888
    assert gen_count_exact(2, 3, 2) == 129024
    assert gen_count_exact(1, 2, 7) == 0
    assert gen_count_exact(1, 3, 4) == 0


def test_exact_count_matches_oracle_beyond_frozen_grid():
    assert gen_count_exact(3, 2, 2) == brute_gen_count(matrix_algebra(2, 2), 3)


def test_exact_count_refuses_large_rank():
    # n = 4 once raised; the recursion now gives the count, 0.6393 of all pairs.
    assert gen_count_exact(2, 4, 2) == 2745630720
    assert gen_count_exact(3, 4, 2) == 265052207185920


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.sampled_from(PRIME_POWERS_TO_32))
def test_recursion_matches_closed_forms(k, n, q):
    assert _absolutely_irreducible(k, n, q) * pgl_order(n, q) == gen_count_exact(k, n, q)


@pytest.mark.parametrize("q", (2, 3, 4))
def test_single_element_never_generates_a_matrix_block(q):
    # one element generates a commutative subalgebra
    assert _absolutely_irreducible(1, 1, q) == q
    assert [_absolutely_irreducible(1, n, q) for n in range(2, 9)] == [0] * 7


@pytest.mark.parametrize("n", range(4, 9))
def test_count_lies_between_lower_bound_and_tuple_space(n):
    for q in (2, 3):
        for k in (2, 3):
            assert 0 <= count_lower(k, n, q) <= gen_count_exact(k, n, q) <= q ** (k * n * n)


def test_single_generator_count_is_zero_without_the_recursion():
    before = _absolutely_irreducible.cache_info().misses
    for q in (2, 3):
        assert [gen_count_exact(1, n, q) for n in range(2, 91)] == [0] * 89
    assert _absolutely_irreducible.cache_info().misses == before


def test_recursion_raises_a_certificate_error_on_a_fractional_count(monkeypatch):
    # A wrong group order makes the recursion's value fractional; no value
    # computed with it may stay in the cache.
    _absolutely_irreducible.cache_clear()
    monkeypatch.setattr(counting, "gl_order", lambda n, q: q**n + 1)
    try:
        with pytest.raises(CertificateError, match="not a natural number"):
            _absolutely_irreducible(2, 2, 2)
    finally:
        _absolutely_irreducible.cache_clear()


@pytest.mark.parametrize("q,samples,density", [(2, 1000, 0.63927), (3, 300, 0.89449)])
def test_sampled_fraction_agrees_with_the_recursion(q, samples, density):
    assert gen_count_exact(2, 4, q) / q**32 == pytest.approx(density, abs=5e-6)
    est = sample_gen_fraction(matrix_algebra(4, q), 2, samples, seed=1)
    sigma = sqrt(density * (1 - density) / samples)
    assert abs(est.fraction - density) <= 5 * sigma


@pytest.mark.parametrize(
    "m,count,samples,density",
    [
        (2, gen_count_exact(2, 4, 2) * gen_count_exact(2, 2, 2), 1000, 0.23973),
        (4, gen_count_power(2, 4, 2, 1, 2), 400, 0.40866),
    ],
)
def test_sampled_pairs_of_m4_times_mm_agree_with_hall(m, count, samples, density):
    # P. Hall's product relation: M_4 and M_2 have no common simple quotient,
    # so a pair generates their product exactly when it generates each factor;
    # two copies of M_4 need generating pairs in two distinct conjugacy classes.
    assert count / 2 ** (2 * (16 + m * m)) == pytest.approx(density, abs=5e-6)
    est = sample_gen_fraction(product_algebra(matrix_algebra(4, 2), matrix_algebra(m, 2)), 2, samples, seed=1)
    sigma = sqrt(density * (1 - density) / samples)
    assert abs(est.fraction - density) <= 5 * sigma


def test_exact_count_never_exceeds_tuple_space():
    for q in PRIME_POWERS:
        for n in (1, 2, 3):
            for k in (1, 2, 3, 4):
                assert 0 <= gen_count_exact(k, n, q) <= q ** (k * n * n)


def test_count_bound_orders_lower_below_exact():
    for q in PRIME_POWERS:
        for n in (2, 3):
            for k in (2, 3, 4):
                assert 0 <= count_lower(k, n, q) <= gen_count_exact(k, n, q)


def test_count_bound_available_for_large_rank():
    assert 0 < count_lower(3, 4, 3) <= gen_count_exact(3, 4, 3)


def test_count_bound_is_asymptotically_tight():
    # the lower bound captures the leading term: ratio to exact tends to 1
    assert count_lower(3, 2, 101) > 0.99 * gen_count_exact(3, 2, 101)
    assert count_lower(2, 2, 10007) > 0.99 * gen_count_exact(2, 2, 10007)
    assert count_lower(2, 4, 101) > 0.99 * gen_count_exact(2, 4, 101)


def test_twisted_count_frozen_values():
    assert gen_count_twisted(1, 1, 2, 2) == 2
    assert gen_count_twisted(2, 1, 2, 2) == 12
    assert gen_count_twisted(2, 2, 2, 2) == 45120


def test_twisted_count_reduces_to_exact_for_trivial_extension():
    for q in (2, 3, 4):
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                assert gen_count_twisted(k, n, q, 1) == gen_count_exact(k, n, q)


def test_twisted_count_nonnegative_on_grid():
    for q in (2, 3, 4):
        for n in (1, 2, 3):
            for r in (1, 2, 3, 4):
                for k in (1, 2, 3):
                    assert gen_count_twisted(k, n, q, r) >= 0


def test_twisted_counts_invert_the_subfield_sum():
    # summing the twisted counts against coset weights recovers the plain count
    for q in (2, 3, 4):
        for n in (1, 2, 3):
            for r in (1, 2, 3, 4):
                for k in (1, 2, 3):
                    total = Fraction(0)
                    for s in divisors(r):
                        weight = Fraction(
                            gl_order(n, q**r) * (q**s - 1),
                            gl_order(n, q**s) * (q**r - 1),
                        )
                        total += gen_count_twisted(k, n, q, s) * weight
                    assert total == gen_count_exact(k, n, q**r)


def fraction_twisted_count(k, n, q, r):
    """The oracle: the Moebius sum of gen_count_exact(k, n, q^s) / |PGL_n(q^s)| as Fractions."""
    total = Fraction(0)
    for s in divisors(r):
        total += Fraction(mobius(r // s) * gen_count_exact(k, n, q**s), pgl_order(n, q**s))
    value = total * pgl_order(n, q**r)
    assert value.denominator == 1
    return int(value)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 9, 11))
def test_twisted_count_matches_fraction_moebius_sum(q):
    for r in (1, 2, 3, 4, 6):
        for n in (1, 2, 3):
            for k in (1, 2, 3, 4):
                assert gen_count_twisted(k, n, q, r) == fraction_twisted_count(k, n, q, r)


def test_twisted_count_refuses_an_inexact_group_index(monkeypatch):
    monkeypatch.setattr(counting, "pgl_order", lambda n, q: q + 1)
    with pytest.raises(CertificateError, match="does not divide"):
        gen_count_twisted.__wrapped__(2, 2, 2, 2)


def test_twisted_lower_bounds_twisted_count():
    for q in (2, 3):
        for n in (1, 2, 3):
            for r in (1, 2, 3):
                for k in (2, 3):
                    lo = twisted_lower(k, n, q, r)
                    assert 0 <= lo <= gen_count_twisted(k, n, q, r)
    for q in (2, 3):
        for k in (2, 3):
            assert 0 < twisted_lower(k, 4, q, 2) <= gen_count_twisted(k, 4, q, 2)


def test_capacity_counts_conjugacy_copies():
    # capacity = twisted count / (s * automorphism group order)
    assert twisted_capacity(2, 2, 2, 1) == 96 // 6 == 16
    assert twisted_capacity(2, 1, 2, 2) == 12 // (2 * 1) == 6


def test_capacity_nondecreasing_in_k_on_grid():
    for q in PRIME_POWERS:
        for n in (1, 2, 3):
            for s in (1, 2, 3):
                caps = [twisted_capacity(k, n, q, s) for k in range(1, 7)]
                assert all(a <= b for a, b in zip(caps, caps[1:]))


def test_capacity_lower_never_exceeds_capacity():
    for q in (2, 3, 4):
        for n in (1, 2, 3):
            for s in (1, 2):
                for k in (2, 3, 4):
                    assert capacity_lower(k, n, q, s) <= twisted_capacity(k, n, q, s)


def test_power_count_multiplies_distinct_conjugacy_slots():
    g, a = 96, 6  # M_2(F_2) pairs and automorphisms
    assert gen_count_power(2, 2, 2, 1, 1) == g
    assert gen_count_power(2, 2, 2, 1, 2) == g * (g - a)
    assert gen_count_power(2, 2, 2, 1, 3) == g * (g - a) * (g - 2 * a)


def test_power_count_clamps_to_zero_beyond_capacity():
    assert gen_count_power(2, 2, 2, 1, 16) > 0
    assert gen_count_power(2, 2, 2, 1, 17) == 0
    assert gen_count_power(1, 2, 2, 1, 1) == 0  # no single generator at all


def test_min_k_for_copies_small_cases():
    assert min_k_for_copies(1, 2, 1, 2) == 1  # F_2 x F_2 needs one generator
    assert min_k_for_copies(2, 2, 1, 1) == 2  # a 2x2 block needs two
    assert min_k_for_copies(2, 2, 1, 17) == 3  # 17 copies exceed the pair capacity
    assert min_k_for_copies(1, 2, 1, 5) == 3  # five copies of F_2 need 2^k >= 5


def test_min_k_for_copies_is_minimal():
    for n, q, s, m in ((1, 2, 1, 2), (2, 2, 1, 17), (1, 2, 1, 5), (2, 3, 1, 1)):
        k = min_k_for_copies(n, q, s, m)
        assert gen_count_power(k, n, q, s, m) > 0
        assert k == 1 or gen_count_power(k - 1, n, q, s, m) == 0


def scan_min_k(n, q, s, m):
    """The oracle: min_k_for_copies as a scan over k = 1, 2, 3, ..."""
    k = 1
    while twisted_capacity(k, n, q, s) < m:
        k += 1
    return k


def test_min_k_for_copies_matches_the_linear_scan():
    for n, q, s in ((1, 2, 1), (1, 3, 2), (1, 4, 3), (2, 2, 1), (2, 3, 2), (3, 2, 1), (3, 5, 1), (4, 2, 1)):
        for m in (1, 2, 3, 5, 16, 17, 100, 1000, 10**6, 10**12, 10**30):
            k = min_k_for_copies(n, q, s, m)
            assert k == scan_min_k(n, q, s, m) == bisect_min_k(n, q, s, m), (n, q, s, m)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.sampled_from(PRIME_POWERS),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=10**40),
)
def test_min_k_for_copies_matches_the_linear_scan_at_random(n, q, s, m):
    assert min_k_for_copies(n, q, s, m) == scan_min_k(n, q, s, m) == bisect_min_k(n, q, s, m)


@pytest.mark.parametrize("n,q,s,m", [(1, 2, 1, 10**4299), (1, 3, 2, 10**4299), (2, 2, 1, 10**600), (3, 4, 2, 10**300)])
def test_min_k_for_copies_takes_logarithmic_steps(monkeypatch, n, q, s, m):
    calls = []
    capacity = counting.twisted_capacity

    def counted(*args):
        calls.append(args[0])
        return capacity(*args)

    monkeypatch.setattr(counting, "twisted_capacity", counted)
    k = min_k_for_copies(n, q, s, m)
    assert capacity(k, n, q, s) >= m > capacity(k - 1, n, q, s)
    assert len(calls) <= 64


def counting_bound(n, q, s, m):
    """The least k with room for m copies: q^(s k n^2) >= m s |PGL_n(q^s)|."""
    k = 1
    while q ** (s * k * n * n) < m * s * pgl_order(n, q**s):
        k += 1
    return k


def test_min_k_for_copies_scans_up_from_its_counting_bound(monkeypatch):
    """One capacity per k from the bound to the answer, which is at most one above the bound."""
    calls = []
    capacity = counting.twisted_capacity

    def counted(*args):
        calls.append(args)
        return capacity(*args)

    monkeypatch.setattr(counting, "twisted_capacity", counted)
    above = Counter()
    for n in range(1, 6):
        for s in (1, 2, 3):
            for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 31, 101, 1009, 65537):
                for m in (1, 2, 3, 7, 100, 10**4, 10**6, 10**12, 10**40):
                    calls.clear()
                    k, bound = min_k_for_copies(n, q, s, m), counting_bound(n, q, s, m)
                    assert len(calls) == k - bound + 1 and k - bound in (0, 1), (n, q, s, m)
                    above[k - bound] += 1
    assert above == {0: 1058, 1: 697}


def test_ceil_log_is_exact():
    for base in (2, 3, 4, 10, 27):
        for value in list(range(1, 300)) + [base**e + d for e in (50, 400, 3000) for d in (-1, 0, 1)]:
            e = counting._ceil_log(value, base)
            assert base**e >= value and (e == 0 or base ** (e - 1) < value)


def test_min_k_bound_is_conservative():
    for q in (2, 3, 5):
        for n in (2, 3):
            for m in (1, 2, 7):
                assert min_k_bound(n, q, 1, m) >= min_k_for_copies(n, q, 1, m)


def test_min_k_bound_covers_large_rank():
    # blocks of size >= 2 are never singly generated, and pairs generate M_4(F_5)
    assert min_k_bound(4, 5, 1, 1) >= min_k_for_copies(4, 5, 1, 1) == 2


INVALID_CALLS = [
    (gen_count_exact, (0, 2, 2)),
    (gen_count_exact, (2, 0, 2)),
    (gen_count_exact, (2, 2, 1)),
    (gen_count_twisted, (0, 2, 2, 1)),
    (gen_count_twisted, (2, 2, 2, 0)),
    (twisted_capacity, (2, 2, 2, 0)),
    (gen_count_power, (2, 2, 2, 1, 0)),
    (gen_count_power, (2, 2, 0, 1, 1)),
    (min_k_for_copies, (2, 2, 1, 0)),
    (min_k_for_copies, (0, 2, 1, 1)),
    (twisted_count_polys, (0, 2, 1)),
    (twisted_count_polys, (2, 0, 1)),
    (twisted_count_polys, (2, 2, 0)),
]


@pytest.mark.parametrize("func,args", INVALID_CALLS, ids=[f"{f.__name__}{a}" for f, a in INVALID_CALLS])
def test_counts_refuse_arguments_out_of_range(func, args):
    with pytest.raises(InvalidCount, match="must be at least 1"):
        func(*args)


def test_counts_refuse_arguments_out_of_range_under_optimization():
    # Asserts are stripped under -O; these once returned -0.0 and 1.
    code = (
        "from ordgen.counting import gen_count_exact, gen_count_power\n"
        "from ordgen.errors import InvalidCount\n"
        "for call in (lambda: gen_count_exact(0, 2, 2), lambda: gen_count_power(2, 2, 2, 1, 0)):\n"
        "    try:\n"
        "        print(call())\n"
        "    except InvalidCount:\n"
        "        print('refused')\n"
    )
    src = os.path.dirname(os.path.dirname(counting.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\nrefused\n"


def test_arithmetic_helpers_refuse_arguments_out_of_range_under_optimization():
    # divisors, mobius and gl_order asserted their arguments; under -O they
    # returned (), 1, 1 and 0 for these.
    code = (
        "from ordgen.counting import divisors, gl_order, mobius\n"
        "from ordgen.errors import InvalidCount\n"
        "for call in (lambda: divisors(0), lambda: mobius(-3), lambda: gl_order(0, 2), lambda: gl_order(2, 1)):\n"
        "    try:\n"
        "        print(call())\n"
        "    except InvalidCount as exc:\n"
        "        print('refused:', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(counting.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "refused: n must be at least 1, got n=0\n"
            "refused: n must be at least 1, got n=-3\n"
            "refused: n must be at least 1 and q at least 2, got n=0, q=2\n"
            "refused: n must be at least 1 and q at least 2, got n=2, q=1\n"
        )


def test_group_order_remainder_is_a_certificate_error(monkeypatch):
    monkeypatch.setattr(counting, "gl_order", lambda n, q: q**n + 1)
    with pytest.raises(CertificateError, match="does not divide"):
        pgl_order.__wrapped__(2, 4)


def test_negative_power_count_is_a_certificate_error(monkeypatch):
    # Only a wrong count or group order can make a factor negative.
    monkeypatch.setattr(counting, "gen_count_twisted", lambda k, n, q, r: -10)
    monkeypatch.setattr(counting, "pgl_order", lambda n, q: -3)
    with pytest.raises(CertificateError, match="negative power count"):
        gen_count_power(2, 2, 2, 1, 3)


# -- count polynomials ---------------------------------------------------------

POLY_SHAPES = [(k, n, r) for k in range(1, 5) for n in range(1, 5) for r in range(1, 4)]


def random_points(k, n, r):
    """Three prime powers and three plain integers below 2^20, drawn afresh for each shape."""
    rng = random.Random(f"count-polys:{k}:{n}:{r}")
    powers = []
    while len(powers) < 3:
        p = rng.randrange(2, 1 << 10)
        if is_prime(p):
            powers.append(p ** rng.randrange(1, 20 // p.bit_length() + 1))
    return powers + [rng.randrange(2, 1 << 20) for _ in range(3)]


@pytest.mark.parametrize("k,n,r", POLY_SHAPES)
def test_count_polynomials_agree_with_the_direct_counts(k, n, r):
    count, step = twisted_count_polys(k, n, r)
    for q in random_points(k, n, r):
        assert horner(count, q) == gen_count_twisted(k, n, q, r)
        assert horner(step, q) == r * pgl_order(n, q**r)


@pytest.mark.parametrize("k,n,r", POLY_SHAPES)
def test_count_polynomials_have_their_degree_and_leading_coefficient(k, n, r):
    count, step = twisted_count_polys(k, n, r)
    if k == 1 < n:  # one element never generates a matrix block
        assert count == ()
    else:
        assert (len(count) - 1, count[-1]) == (k * n * n * r, 1)
    assert (len(step) - 1, step[-1]) == (r * (n * n - 1), r)


def test_horner_evaluates_constant_term_first():
    assert horner((), 7) == 0
    assert horner((5,), 7) == 5
    assert horner((1, -2, 3), 10) == 281


# (what is perturbed, at which q, the message) for the count at k=2, n=2, r=1:
# degree 8, nodes 2 .. 10, check points 11 and 2^20 + 1.
PERTURBED = [
    ("count", 5, "a divided difference of the count at k=2, n=2, r=1 is not an integer"),
    ("count", 11, "the interpolant of the count at k=2, n=2, r=1 disagrees with the direct count at q=11"),
    ("count", (1 << 20) + 1, "the interpolant of the count at k=2, n=2, r=1 disagrees with the direct count at q=1048577"),
    ("step", 3, "a divided difference of the capacity step at k=2, n=2, r=1 is not an integer"),
]

@pytest.mark.parametrize("what,at,message", PERTURBED, ids=[f"{w}-{a}" for w, a, _ in PERTURBED])
def test_count_polynomial_off_by_one_is_a_certificate_error(monkeypatch, what, at, message):
    # the count at n = 2, r = 1 is a closed form, so no cached count holds a perturbed value
    count, pgl = counting.gen_count_twisted, counting.pgl_order
    if what == "count":
        monkeypatch.setattr(counting, "gen_count_twisted", lambda k, n, q, r: count(k, n, q, r) + (q == at))
    else:
        monkeypatch.setattr(counting, "pgl_order", lambda n, q: pgl(n, q) + (q == at))
    twisted_count_polys.cache_clear()
    try:
        with pytest.raises(CertificateError) as info:
            twisted_count_polys(2, 2, 1)
        assert str(info.value) == message
    finally:
        twisted_count_polys.cache_clear()


def test_count_polynomial_off_by_one_is_a_certificate_error_under_optimization():
    code = (
        "from ordgen import counting\n"
        "from ordgen.errors import CertificateError\n"
        "count, pgl = counting.gen_count_twisted, counting.pgl_order\n"
        f"for what, at, _ in {PERTURBED!r}:\n"
        "    counting.gen_count_twisted = lambda k, n, q, r: count(k, n, q, r) + (what == 'count' and q == at)\n"
        "    counting.pgl_order = lambda n, q: pgl(n, q) + (what == 'step' and q == at)\n"
        "    counting.twisted_count_polys.cache_clear()\n"
        "    try:\n"
        "        print(counting.twisted_count_polys(2, 2, 1))\n"
        "    except CertificateError as exc:\n"
        "        print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(counting.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [message for _, _, message in PERTURBED]
