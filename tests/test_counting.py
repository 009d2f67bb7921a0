"""Closed-form generating-tuple counts, bounds, capacities, inversion."""

from fractions import Fraction

import pytest

from ordgen.counting import (
    CountBound,
    divisors,
    gen_count_exact,
    gen_count_lower,
    gen_count_power,
    gen_count_twisted,
    gen_count_twisted_lower,
    gl_order,
    min_k_for_copies,
    min_k_for_copies_bound,
    mobius,
    pgl_order,
    twisted_capacity,
    twisted_capacity_lower,
)
from ordgen import counting
from ordgen.errors import CertificateError, UnsupportedRank
from ordgen.finalg import brute_gen_count, matrix_algebra

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9)


def test_divisors_sorted():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)


def test_mobius_first_values():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


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
    with pytest.raises(UnsupportedRank):
        gen_count_exact(2, 4, 2)


def test_exact_count_never_exceeds_tuple_space():
    for q in PRIME_POWERS:
        for n in (1, 2, 3):
            for k in (1, 2, 3, 4):
                assert 0 <= gen_count_exact(k, n, q) <= q ** (k * n * n)


def test_count_bound_orders_lower_below_exact():
    for q in PRIME_POWERS:
        for n in (2, 3):
            for k in (2, 3, 4):
                bound = gen_count_lower(k, n, q)
                assert isinstance(bound, CountBound)
                assert 0 <= bound.lower <= bound.exact == gen_count_exact(k, n, q)


def test_count_bound_available_for_large_rank():
    bound = gen_count_lower(3, 4, 3)
    assert bound.exact is None
    assert bound.lower > 0


def test_count_bound_rejects_inconsistent_fields():
    with pytest.raises(AssertionError):
        CountBound(lower=-1)
    with pytest.raises(AssertionError):
        CountBound(lower=5, exact=3)


def test_count_bound_is_asymptotically_tight():
    # the lower bound captures the leading term: ratio to exact tends to 1
    assert gen_count_lower(3, 2, 101).lower > 0.99 * gen_count_exact(3, 2, 101)
    assert gen_count_lower(2, 2, 10007).lower > 0.99 * gen_count_exact(2, 2, 10007)


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
                    lo = gen_count_twisted_lower(k, n, q, r)
                    assert 0 <= lo <= gen_count_twisted(k, n, q, r)


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
                    assert twisted_capacity_lower(k, n, q, s) <= twisted_capacity(k, n, q, s)


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


def test_min_k_bound_is_conservative():
    for q in (2, 3, 5):
        for n in (2, 3):
            for m in (1, 2, 7):
                assert min_k_for_copies_bound(n, q, 1, m) >= min_k_for_copies(n, q, 1, m)


def test_min_k_bound_covers_large_rank():
    k = min_k_for_copies_bound(4, 5, 1, 1)
    assert k >= 2  # blocks of size >= 2 are never singly generated
