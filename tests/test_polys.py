"""Polynomial arithmetic over prime fields: ascending-coefficient tuples."""

import itertools

import pytest

from arithmetic_oracles import divisors_by_trial, is_irreducible_by_gcds, mobius_by_trial
from ordgen.errors import NotPrime
from ordgen.polys import (
    degree,
    derivative,
    distinct_degree_counts,
    divmod_poly,
    gcd,
    is_irreducible,
    mod,
    monic,
    mul,
    pow_mod,
    pth_root,
    reduce_mod,
    squarefree_decomposition,
    sub,
    trim,
)


def test_trim_drops_leading_zeros():
    assert trim((1, 2, 0, 0)) == (1, 2)
    assert trim((0,)) == ()
    assert trim(()) == ()


def test_degree_of_zero_is_minus_one():
    assert degree(()) == -1
    assert degree((5,)) == 0
    assert degree((0, 0, 1)) == 2


def test_reduce_mod_wraps_coefficients():
    assert reduce_mod((5, -1, 3), 3) == (2, 2)


def test_add_sub_roundtrip():
    a, b = (1, 2, 1), (2, 1)
    minus_one = (2,)  # -1 in F_3, so a + b = a - (-1) b
    assert sub(sub(a, mul(minus_one, b, 3), 3), b, 3) == a
    assert sub(a, mul(minus_one, sub((), a, 3), 3), 3) == ()


def test_mul_known_product():
    # (x + 1)^2 = x^2 + 1 over F_2
    assert mul((1, 1), (1, 1), 2) == (1, 0, 1)
    # (x + 1)(x^2 + x + 1) = x^3 + 1 over F_2
    assert mul((1, 1), (1, 1, 1), 2) == (1, 0, 0, 1)


def test_divmod_exact_division():
    q, r = divmod_poly((1, 0, 0, 1), (1, 1), 2)
    assert q == (1, 1, 1)
    assert r == ()


def test_divmod_with_remainder():
    q, r = divmod_poly((1, 0, 1), (1, 1), 3)
    assert sub((1, 0, 1), mul(q, (1, 1), 3), 3) == r
    assert degree(r) < 1


def test_mod_reduces_degree():
    assert degree(mod((0, 0, 0, 0, 1), (1, 1, 1), 2)) < 2


def test_monic_normalizes_leading_coefficient():
    assert monic((2, 4), 5) == (3, 1)


def test_gcd_is_monic_common_divisor():
    # x^2 + 1 = (x + 1)^2 over F_2
    assert gcd((1, 0, 1), (1, 1), 2) == (1, 1)
    # coprime pair
    assert gcd((1, 1, 1), (1, 1), 2) == (1,)


def test_derivative_in_characteristic():
    assert derivative((1, 0, 0, 1), 3) == ()  # d/dx (x^3 + 1) = 3x^2 = 0
    assert derivative((1, 1, 1), 3) == (1, 2)


def test_pow_mod_frobenius_fixes_base_field():
    # x^(2^2) = x mod any irreducible quadratic over F_2
    assert pow_mod((0, 1), 4, (1, 1, 1), 2) == (0, 1)


@pytest.mark.parametrize(
    "f,p,expected",
    [
        ((1, 1, 1), 2, True),  # x^2 + x + 1
        ((1, 0, 1), 2, False),  # (x + 1)^2
        ((1, 0, 1), 3, True),  # x^2 + 1 over F_3
        ((1, 0, 1), 5, False),  # splits over F_5
        ((1, 1, 0, 1), 2, True),  # x^3 + x + 1
    ],
)
def test_is_irreducible_small_cases(f, p, expected):
    assert is_irreducible(f, p) is expected


@pytest.mark.parametrize("p,top", [(2, 6), (3, 4), (5, 3), (7, 3)])
def test_is_irreducible_matches_the_gcd_oracle_on_every_monic(p, top):
    for d in range(1, top + 1):
        found = 0
        for lower in itertools.product(range(p), repeat=d):
            f = lower + (1,)
            want = is_irreducible_by_gcds(f, p)
            assert is_irreducible(f, p) is want, f
            found += want
        # Gauss's count of the monic irreducibles of degree d over F_p
        assert d * found == sum(mobius_by_trial(d // e) * p**e for e in divisors_by_trial(d)), (p, d)


def test_pth_root_inverts_frobenius_on_coefficients():
    assert pth_root((0, 0, 1), 2) == (0, 1)  # sqrt of x^2
    # (x^3 + x^2)^2 = x^6 + x^4 over F_2
    assert pth_root((0, 0, 0, 0, 1, 0, 1), 2) == (0, 0, 1, 1)


def test_squarefree_decomposition_recovers_multiplicities():
    # (x + 1)^3 = x^3 + x^2 + x + 1 over F_2
    assert squarefree_decomposition((1, 1, 1, 1), 2) == [((1, 1), 3)]


def test_squarefree_decomposition_mixed_multiplicities():
    # (x + 1)^2 (x^2 + x + 1) over F_2
    f = mul(mul((1, 1), (1, 1), 2), (1, 1, 1), 2)
    parts = squarefree_decomposition(f, 2)
    assert sorted(parts) == sorted([((1, 1, 1), 1), ((1, 1), 2)])
    rebuilt = (1,)
    for g, mult in parts:
        for _ in range(mult):
            rebuilt = mul(rebuilt, g, 2)
    assert rebuilt == f


@pytest.mark.parametrize(
    "f,p,expected",
    [
        ((1, 0, 1), 5, {1: 2}),  # x^2 + 1 splits mod 5
        ((1, 0, 1), 3, {2: 1}),  # x^2 + 1 inert mod 3
        ((0, 2, 0, 1), 3, {1: 3}),  # x^3 - x splits completely mod 3
        ((1, 1, 0, 1), 2, {3: 1}),  # irreducible cubic
    ],
)
def test_distinct_degree_counts(f, p, expected):
    assert distinct_degree_counts(f, p) == expected


def test_distinct_degree_counts_rejects_composite_modulus():
    with pytest.raises(NotPrime):
        distinct_degree_counts((1, 0, 1), 6)


@pytest.mark.parametrize("p", [1849, 2021, 3215031751], ids=["43^2", "43*47", "psp-2-7"])
@pytest.mark.parametrize("routine", [is_irreducible, squarefree_decomposition, distinct_degree_counts])
def test_composites_that_no_small_base_divides_are_rejected(routine, p):
    with pytest.raises(NotPrime):
        routine((1, 0, 1), p)


def test_large_prime_modulus_is_accepted():
    # 2^61 - 1 is 3 mod 4, so -1 is no square and x^2 + 1 stays irreducible
    p = 2**61 - 1
    assert distinct_degree_counts((1, 0, 1), p) == {2: 1}
    assert is_irreducible((1, 0, 1), p)
