"""Finite field arithmetic: construction, axioms, Frobenius."""

import pickle

import pytest

from arithmetic_oracles import find_modulus_by_gcds

from ordgen.errors import CapExceeded, NotPrime
from ordgen.finfield import (
    LOG_TABLE_CAP,
    PRIME_POWER_CAP,
    PrimePower,
    _find_modulus,
    build_field,
    factorize,
    field_of,
    is_prime,
    prime_power_of,
)


def check_field_axioms(field):
    """Exhaustively check the field axioms; for q small enough to afford q^3 triples."""
    els = field.elements()
    add, mul = field.add, field.mul
    for a in els:
        assert add(a, 0) == a and mul(a, 1) == a
        assert add(a, field.neg(a)) == 0
        if a != 0:
            assert mul(a, field.inv(a)) == 1
        for b in els:
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
    for a in els:
        for b in els:
            for c in els:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@pytest.mark.parametrize("p,e", [(2, 1), (2, 4), (3, 3), (5, 2), (7, 1)])
def test_build_field_validates_axioms(p, e):
    field = build_field(p, e)
    check_field_axioms(field)
    assert field.q == p**e


def test_build_field_is_cached():
    assert build_field(3, 2) is build_field(3, 2)


def test_build_field_rejects_composite_characteristic():
    with pytest.raises(NotPrime):
        build_field(6)
    with pytest.raises(NotPrime):
        build_field(4)


def test_build_field_enforces_size_cap():
    with pytest.raises(CapExceeded):
        build_field(2, 21)


def test_field_of_accepts_prime_powers_and_descriptors():
    assert field_of(9).q == 9
    assert field_of(PrimePower(3, 2)) is field_of(9)
    with pytest.raises(NotPrime):
        field_of(6)


def test_prime_power_of_factors_prime_powers():
    assert prime_power_of(8) == PrimePower(2, 3)
    assert prime_power_of(7) == PrimePower(7, 1)
    with pytest.raises(NotPrime):
        prime_power_of(12)


@pytest.mark.parametrize("q", [PRIME_POWER_CAP + 1, 2**21, 10**30 + 57, 2**127 - 1])
def test_prime_power_of_checks_the_cap_before_factoring(q):
    """10^30 + 57 and 2^127 - 1 are primes that trial division would never finish."""
    with pytest.raises(CapExceeded, match=f"^{q} exceeds the cap {PRIME_POWER_CAP}$"):
        prime_power_of(q)


@pytest.mark.parametrize("p,e", [(2, 10**9), (10**30 + 57, 1), (2**127 - 1, 3)])
def test_prime_power_checks_the_cap_before_the_power_and_the_primality(p, e):
    with pytest.raises(CapExceeded, match=f"^{p}\\^{e} exceeds the cap"):
        PrimePower(p, e)


def test_elements_enumerates_all_encodings():
    field = build_field(3, 2)
    elems = field.elements()
    assert list(elems) == list(range(9))


def test_coords_roundtrip():
    field = build_field(2, 4)
    for a in field.elements():
        assert field.from_coords(field.coords(a)) == a


def test_multiplicative_inverses():
    for field in (build_field(2, 4), build_field(3, 3)):
        for a in field.elements():
            if a == 0:
                continue
            assert field.mul(a, field.inv(a)) == 1


def test_pow_matches_repeated_multiplication():
    field = build_field(5, 2)
    a = 7
    acc = 1
    for n in range(8):
        assert field.pow(a, n) == acc
        acc = field.mul(acc, a)


def test_zero_has_no_multiplicative_order():
    field = build_field(2, 2)
    with pytest.raises(ValueError):
        field.multiplicative_order(0)


def test_multiplicative_orders_divide_group_order():
    field = build_field(2, 4)
    orders = {field.multiplicative_order(a) for a in field.elements() if a}
    assert all(15 % n == 0 for n in orders)
    assert 15 in orders  # the multiplicative group is cyclic


def test_frobenius_is_the_pth_power_map():
    field = build_field(3, 3)
    for a in field.elements():
        assert field.frobenius(a) == field.pow(a, 3)
        assert field.frobenius(a, 2) == field.pow(a, 9)


def test_frobenius_iterate_and_additivity():
    field = build_field(2, 4)
    for a in (3, 7, 11):
        b = a
        for _ in range(4):
            b = field.frobenius(b)
        assert b == a  # order of Frobenius is the extension degree
    for a, b in ((3, 5), (9, 14)):
        lhs = field.frobenius(field.add(a, b))
        assert lhs == field.add(field.frobenius(a), field.frobenius(b))


def test_pickle_preserves_cached_identity():
    field = build_field(2, 4)
    assert pickle.loads(pickle.dumps(field)) is field


@pytest.mark.parametrize(
    "n,expected",
    [(1, False), (2, True), (3, True), (4, False), (25, False), (97, True), (91, False)],
)
def test_is_prime_small_values(n, expected):
    assert is_prime(n) is expected


def test_factorize_known_values():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(97) == {97: 1}
    assert factorize(1) == {}


def test_find_modulus_matches_the_gcd_oracle_up_to_2_to_12():
    for p in filter(is_prime, range(2, (1 << 12) + 1)):
        e = 1
        while p**e <= 1 << 12:
            assert _find_modulus(p, e) == find_modulus_by_gcds(p, e), (p, e)
            e += 1


def walked_generator_and_powers(field):
    """The oracle: the least element whose powers, walked one product at a time, reach order q - 1."""
    q = field.q
    for g in range(1, q):
        powers = [1]
        acc = field._mul_slow(1, g)
        while acc != 1:
            powers.append(acc)
            acc = field._mul_slow(acc, g)
        if len(powers) == q - 1:
            return g, powers
    raise AssertionError("no multiplicative generator found")


@pytest.mark.parametrize("q", [q for q in range(2, 513) if len(factorize(q)) == 1])
def test_generator_and_log_tables_match_the_power_walk(q):
    field = field_of(q)
    assert q <= LOG_TABLE_CAP
    assert (field.generator, field._exp) == walked_generator_and_powers(field)
    assert all(field._log[a] == i for i, a in enumerate(field._exp))
