"""The package's one primality test, factorization and prime-power routine, against trial division."""

import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordgen.errors import CapExceeded, NotPrime
from ordgen.finfield import PrimePower, prime_power_of
from ordgen.primes import PRIME_TEST_LIMIT, factorize, is_prime, perfect_power
from arithmetic_oracles import divisors_by_trial, mobius_by_trial


def trial_division_is_prime(n: int) -> bool:
    """The oracle: trial division by 2 and every odd d up to the square root."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def test_matches_trial_division_below_2_to_16():
    assert [n for n in range(-5, 1 << 16) if is_prime(n)] == [
        n for n in range(-5, 1 << 16) if trial_division_is_prime(n)
    ]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(min_value=0, max_value=(1 << 40) - 1),
        # products of two factors past the bases: composites only Miller-Rabin rejects
        st.builds(operator.mul, st.integers(43, 1 << 20), st.integers(43, 1 << 20)),
    )
)
def test_matches_trial_division_below_2_to_40(n):
    assert is_prime(n) is trial_division_is_prime(n)


@pytest.mark.parametrize(
    "n,factors",
    [
        (3215031751, (151, 751, 28351)),  # a strong pseudoprime to the bases 2, 3, 5 and 7
        (318665857834031151167461, (399165290221, 798330580441)),  # to every base up to 37
        (561, (3, 11, 17)),  # Carmichael numbers
        (1105, (5, 13, 17)),
        (41041, (7, 11, 13, 41)),
        (43 * 43, (43, 43)),  # the least composite that no base divides
    ],
)
def test_pseudoprimes_are_composite(n, factors):
    assert math.prod(factors) == n
    assert is_prime(n) is False


def lucas_lehmer(exponent: int) -> bool:
    """Whether the Mersenne number 2^exponent - 1, for an odd prime exponent, is prime."""
    m, s = (1 << exponent) - 1, 4
    for _ in range(exponent - 2):
        s = (s * s - 2) % m
    return s == 0


def test_mersenne_primes_are_decided_below_the_limit_only():
    assert lucas_lehmer(61) and lucas_lehmer(89)
    assert is_prime(2**61 - 1) is True
    assert 2**89 - 1 > PRIME_TEST_LIMIT


@pytest.mark.parametrize("n", [PRIME_TEST_LIMIT, 2**89 - 1], ids=["limit", "M89"])
def test_undecided_numbers_raise(n):
    """The limit is a strong pseudoprime to every base; 2^89 - 1 is a prime past it."""
    with pytest.raises(CapExceeded, match=f"^{n} is not decided: the primality test is proven only below"):
        is_prime(n)


@pytest.mark.parametrize("n", [PRIME_TEST_LIMIT + 1, 2**100, 41 * PRIME_TEST_LIMIT])
def test_numbers_past_the_limit_with_a_small_factor_are_composite(n):
    assert is_prime(n) is False


def test_perfect_power_matches_factoring():
    for q in range(2, 20000):
        r, e = perfect_power(q)
        assert r**e == q and math.gcd(*factorize(r).values()) == 1, q


@pytest.mark.parametrize("q", [-8, -1, 0, 1])
def test_perfect_power_leaves_numbers_below_two(q):
    assert perfect_power(q) == (q, 1)


def test_prime_power_of_matches_factoring():
    for q in range(-3, 5000):
        fac = factorize(q) if q >= 2 else {}
        if len(fac) == 1:
            assert prime_power_of(q) == PrimePower(*next(iter(fac.items()))), q
        else:
            with pytest.raises(NotPrime):
                prime_power_of(q)


def test_factorize_multiplies_back_and_matches_the_trial_division_oracles():
    for n in range(1, 5000):
        fac = factorize(n)
        assert math.prod(p**e for p, e in fac.items()) == n, n
        assert all(trial_division_is_prime(p) and e >= 1 for p, e in fac.items()), n
        assert len(divisors_by_trial(n)) == math.prod(e + 1 for e in fac.values()), n
        assert mobius_by_trial(n) == (0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)), n
