"""Order specifications: prime splitting, classification, local counts."""

import json
import os
import pathlib
import re
import subprocess
import sys

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordgen
from ordgen import orderspec, polys

from ordgen.errors import (
    EmptySpec,
    ExceptionalPrimeNeedsOverride,
    IndexNotDividingDegree,
    NotMonic,
    NotPrime,
    OrdgenError,
    SpecError,
)
from ordgen.counting import gen_count_power
from ordgen.finalg import brute_gen_count
from ordgen.finfield import is_prime
from ordgen.orderspec import (
    DegreePattern,
    LocalPrimeData,
    OrderSpec,
    SimpleFactorSpec,
    classify,
    degree_pattern,
    gen_count_local,
    load_spec,
    local_data,
    local_quotient_algebra,
    min_k_local,
    spec_from_dict,
    spec_to_dict,
)
from ordgen.solver import make_quaternion_spec

DATA = pathlib.Path(__file__).parent / "data"


def fixture(name):
    return load_spec(str(DATA / name))


def base_dict():
    return json.loads((DATA / "zi.json").read_text())


# ---------------------------------------------------------------- splitting


def test_degree_pattern_split_prime():
    pat = degree_pattern((1, 0, 1), 5)  # x^2 + 1 splits mod 5
    assert pat.pairs == ((1, 1), (1, 1))
    assert pat.certified


def test_degree_pattern_inert_prime():
    pat = degree_pattern((1, 0, 1), 3)
    assert pat.pairs == ((2, 1),)
    assert pat.certified


def test_degree_pattern_ramified_prime_certified_when_index_matches():
    pat = degree_pattern((1, 0, 1), 2)  # (x+1)^2 mod 2, disc = -4
    assert pat.pairs == ((1, 2),)
    assert pat.certified


def test_degree_pattern_flags_uncertifiable_prime():
    pat = degree_pattern((3, 0, 1), 2)  # x^2 + 3: mod-2 repetition hides the true shape
    assert pat.pairs == ((1, 2),)
    assert not pat.certified


def test_degree_pattern_rejects_nonmonic():
    with pytest.raises(NotMonic):
        degree_pattern((1, 2), 5)


PRIMES_BELOW_500 = [p for p in range(500) if is_prime(p)]


def _repeated_factor(f, p):
    """Whether f mod p has a repeated factor; for monic f, whether p divides disc(f)."""
    fbar = polys.reduce_mod(f, p)
    return polys.degree(polys.gcd(fbar, polys.derivative(fbar, p), p)) > 0


def _monic(draw, degree):
    return tuple(draw(st.lists(st.integers(-12, 12), min_size=degree, max_size=degree))) + (1,)


@st.composite
def monic_polynomials(draw):
    """Random monic integer polynomials of degree 1 to 5; a third carry a square factor g^2."""
    if draw(st.integers(0, 2)):
        return _monic(draw, draw(st.integers(1, 5)))
    g = _monic(draw, draw(st.integers(1, 2)))
    h = _monic(draw, draw(st.integers(0, 5 - 2 * (len(g) - 1))))
    return tuple(orderspec._int_mul(orderspec._int_mul(g, g), h))


# The oracle is orderspec._full_pattern: the factor-and-certify path without
# the shortcut, valid at every prime.


@settings(max_examples=400, deadline=None)
@given(monic_polynomials(), st.data())
def test_degree_pattern_matches_full_path(f, data):
    dividing = [p for p in PRIMES_BELOW_500 if _repeated_factor(f, p)]
    p = data.draw(st.sampled_from(dividing) if dividing and data.draw(st.booleans()) else st.sampled_from(PRIMES_BELOW_500))
    expected = orderspec._full_pattern(f, p)
    got = degree_pattern(f, p)
    assert (got.pairs, got.certified) == (expected.pairs, expected.certified)
    if len(f) == 3:  # the shortcut's premise: p | b^2 - 4c exactly when f mod p has a repeated factor
        c, b, _ = f
        assert ((b * b - 4 * c) % p == 0) == _repeated_factor(f, p)


@pytest.mark.parametrize(
    "f,p",
    [
        ((2, 3, 1), 2),  # (x+1)(x+2), disc 1
        ((1, 0, 1), 2),  # x^2 + 1, disc -4
        ((4, 4, 1), 7),  # (x+2)^2, disc 0
        ((2, 5, 4, 1), 3),  # (x+1)^2 (x+2), disc 0
        ((8, -2, 1, 1), 2),  # Dedekind's cubic: 2 divides the index, not certifiable
        ((1, 1, 1, 1, 1), 5),
        ((0, 0, 0, 0, 0, 1), 3),  # x^5, disc 0
    ],
)
def test_degree_pattern_matches_full_path_on_fixed_cases(f, p):
    assert degree_pattern(f, p) == orderspec._full_pattern(f, p)


@pytest.mark.parametrize(
    "f,disc",
    [
        ((3, 1), 1),
        ((-7, 1), 1),
        ((1, 0, 1), -4),
        ((3, 0, 1), -12),
        ((1, 1, 1), -3),
        ((-2, 0, 1), 8),
        ((5, 3, 1), -11),
        ((-1, -1, 1), 5),
        ((4, 4, 1), 0),
    ],
)
def test_degree_pattern_divides_polynomials_only_at_primes_dividing_the_discriminant(f, disc, monkeypatch):
    divided_at = set()
    divmod_poly = polys.divmod_poly

    def recorded(a, b, p):
        divided_at.add(p)
        return divmod_poly(a, b, p)

    monkeypatch.setattr(polys, "divmod_poly", recorded)
    for p in PRIMES_BELOW_500:
        degree_pattern(f, p)
    assert divided_at == {p for p in PRIMES_BELOW_500 if disc % p == 0}


@pytest.mark.parametrize("f,p", [((1, 0, 1), 6), ((0, 1), 4), ((1, 1, 1), 1), ((1, 1, 1), 0)])
def test_degree_pattern_rejects_composite_modulus(f, p):
    with pytest.raises(NotPrime):
        degree_pattern(f, p)


def test_local_data_rejects_composite_modulus():
    with pytest.raises(NotPrime):
        local_data(fixture("zi.json"), 9)


@pytest.mark.parametrize("optimise", [False, True], ids=["plain", "-O"])
def test_composite_modulus_raises_not_prime_in_every_mode(optimise):
    script = (
        "from ordgen.errors import NotPrime\n"
        "from ordgen.orderspec import degree_pattern, load_spec, local_data\n"
        "calls = [lambda: degree_pattern((1, 0, 1), 6), lambda: degree_pattern((0, 1), 4),\n"
        f"         lambda: local_data(load_spec({str(DATA / 'zi.json')!r}), 9)]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except NotPrime:\n"
        "        print('NotPrime')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ordgen.__file__).parent.parent))
    flags = ["-O"] if optimise else []
    proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "NotPrime\n" * 3


# The shape index reads a quadratic center's pattern once per residue class mod
# |disc|, its first prime included, when disc != 0.  index_mismatches checks its
# reading of each center at each prime against _pattern, and at 2 also against
# _full_pattern; at the odd primes dividing disc, _pattern is _full_pattern.  At
# the other odd primes _pattern reads f only through disc (Euler's criterion),
# so there it runs once per discriminant and prime.  The script runs in this
# process and under python -O, where no assert would run.
QUADRATIC_INDEX = """
import random
from ordgen.orderspec import OrderSpec, SimpleFactorSpec, _ShapeIndex, _full_pattern, _pattern
from ordgen.solver import _primes_below


def index_mismatches(polys, primes):
    assert primes[0] == 2
    by_disc = {}
    bad = []
    for f in polys:
        c, b, _ = f
        disc = b * b - 4 * c
        index = _ShapeIndex(OrderSpec((SimpleFactorSpec("f", f, 1),)), None)
        read = index.readers[0]
        numbers = [read(p) for p in primes]
        pattern_of = {number: pattern for pattern, number in index.numbers.items()}
        got = [pattern_of[number] for number in numbers]
        if disc not in by_disc:
            by_disc[disc] = [None if p == 2 or disc % p == 0 else _pattern(f, p) for p in primes]
        expected = [_pattern(f, p) if e is None else e for p, e in zip(primes, by_disc[disc])]
        if got != expected or got[0] != _full_pattern(f, 2):
            bad.append((f, [p for p, x, y in zip(primes, got, expected) if x != y]))
    return bad


def large_polys(count, seed):
    rng = random.Random(seed)
    return [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6), 1) for _ in range(count)]


PRIMES = _primes_below(5000)
GRID = [(c, b, 1) for b in range(-30, 31) for c in range(-30, 31)]
"""


def _quadratic_index_namespace():
    namespace = {}
    exec(QUADRATIC_INDEX, namespace)
    return namespace


def test_shape_index_reads_each_quadratic_grid_center_by_residue_class():
    ns = _quadratic_index_namespace()
    discs = {b * b - 4 * c for c, b, _ in ns["GRID"]}
    # D = 0, D = 1, square D past 1, and both residues of D mod 4, each met
    assert {0, 1, 4, 9} <= discs and {d % 4 for d in discs} == {0, 1}
    assert ns["index_mismatches"](ns["GRID"], ns["PRIMES"]) == []


@st.composite
def quadratic_centers(draw):
    """x^2 + bx + c with |b|, |c| <= 10^6; half have a discriminant divisible by a product of small odd primes."""
    b = draw(st.integers(-(10**6), 10**6))
    c = draw(st.integers(-(10**6), 10**6))
    if draw(st.booleans()):
        m = 1
        for q in draw(st.lists(st.sampled_from((3, 5, 7, 11, 13, 4999)), max_size=3, unique=True)):
            m *= q
        c -= (c - b * b * pow(4, -1, m)) % m  # now b^2 - 4c = 0 mod m, and |c| stays below 10^6 + m
    return (c, b, 1)


@settings(max_examples=150, deadline=None)
@given(quadratic_centers())
def test_shape_index_reads_large_quadratic_centers_by_residue_class(f):
    ns = _quadratic_index_namespace()
    assert ns["index_mismatches"]([f], ns["PRIMES"]) == []


def test_shape_index_reads_quadratic_centers_by_residue_class_under_optimisation():
    script = QUADRATIC_INDEX + "print(len(index_mismatches(GRID + large_polys(150, 1), PRIMES)))\n"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ordgen.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "0\n")


# Each case breaks one invariant of the local data, through a bad argument or a
# patched helper; the checks were asserts once, and python -O stripped them.
INVARIANT_CALLS = """
import contextlib
from unittest import mock
from ordgen import orderspec, polys
from ordgen.errors import OrdgenError
from ordgen.orderspec import DegreePattern, LocalPrimeData, _full_pattern, classify, gen_count_local
from ordgen.orderspec import load_spec, local_data, local_quotient_algebra
zi = load_spec(ZI)
cls = classify(local_data(zi, 5))
cases = [
    (None, lambda: _full_pattern((1, 0, 2), 2)),
    (None, lambda: gen_count_local(0, cls)),
    (None, lambda: local_quotient_algebra(LocalPrimeData(7, (), False))),
    ((polys, "distinct_degree_counts", lambda f, p: {1: 5}), lambda: _full_pattern((1, 0, 1), 3)),
    ((polys, "squarefree_decomposition", lambda f, p: [((2, 0, 1), 1)]), lambda: _full_pattern((1, 0, 1), 3)),
    ((orderspec, "_int_mul", lambda a, b: [0, 0, 1]), lambda: _full_pattern((1, 0, 1), 2)),
    ((orderspec, "_pattern", lambda f, p: DegreePattern(((1, 1),), True)), lambda: local_data(zi, 5)),
]
for patch, call in cases:
    with mock.patch.object(*patch) if patch else contextlib.nullcontext():
        try:
            call()
        except OrdgenError as exc:
            print(type(exc).__name__, exc)
"""


@pytest.mark.parametrize("optimise", [False, True], ids=["plain", "-O"])
def test_local_invariants_raise_typed_errors_in_every_mode(optimise):
    script = f"ZI = {str(DATA / 'zi.json')!r}\n" + INVARIANT_CALLS
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ordgen.__file__).parent.parent))
    flags = ["-O"] if optimise else []
    proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    kinds = [line.split(" ", 1) for line in proc.stdout.splitlines()]
    assert [kind for kind, _ in kinds] == [
        "CertificateError", "InvalidCount", "SpecError",
        "CertificateError", "CertificateError", "CertificateError", "CertificateError",
    ]
    assert "p=7" in kinds[2][1]
    assert "lost degree" in kinds[0][1] and "do not sum" in kinds[3][1]
    assert "does not divide" in kinds[4][1] and "do not agree" in kinds[5][1]
    assert "p=5" in kinds[6][1]


# ---------------------------------------------------------------- validation


def test_fixture_specs_load():
    for name in (
        "z.json",
        "zi.json",
        "m2q.json",
        "m3q.json",
        "quat2.json",
        "quat2x7.json",
        "exceptional.json",
        "exceptional_override.json",
    ):
        spec = fixture(name)
        assert isinstance(spec, OrderSpec)
        assert spec.factors


def test_spec_roundtrips_through_dict():
    spec = fixture("quat2x7.json")
    assert spec_from_dict(spec_to_dict(spec)) == spec


@pytest.mark.parametrize(
    "mutate,error",
    [
        (lambda d: d.update(factors=[]), EmptySpec),
        (lambda d: d.update(factors=d["factors"] * 2), SpecError),
        (lambda d: d.update(bogus=1), SpecError),
        (lambda d: d["factors"][0].update(bogus=1), SpecError),
        (lambda d: d["factors"][0].update(center_minpoly=[1, 2]), NotMonic),
        (lambda d: d["factors"][0].update(degree=0), SpecError),
        (lambda d: d["factors"][0].update(local_indices={"3": [4]}), IndexNotDividingDegree),
        (lambda d: d["factors"][0].update(local_indices={"x": [1]}), SpecError),
        (lambda d: d["factors"][0].update(copies=0), SpecError),
        (lambda d: d.update(overrides={"2": [[1, 1, 1, 1]]}), SpecError),
    ],
)
def test_spec_dict_validation_errors(mutate, error):
    doc = base_dict()
    mutate(doc)
    with pytest.raises(error):
        spec_from_dict(doc)


def quaternion_dict():
    return json.loads((DATA / "quat2.json").read_text())


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d["factors"][0].update(local_indices=[[2, [2]]]), "local_indices must be a JSON object"),
        (lambda d: d.update(free_over_base="no"), "free_over_base must be true or false"),
        (lambda d: d.update(free_over_base=1), "free_over_base must be true or false"),
        (lambda d: d["factors"][0].update(center_minpoly=[0.5, 1]), "center_minpoly must be an integer"),
        (lambda d: d["factors"][0].update(center_minpoly=[0, True]), "center_minpoly must be an integer"),
        (lambda d: d["factors"][0].update(degree=2.5), "degree must be an integer"),
        (lambda d: d["factors"][0].update(degree=True), "degree must be an integer"),
        (lambda d: d["factors"][0].update(copies=1.5), "copies must be an integer"),
        (lambda d: d["factors"][0].update(copies=True), "copies must be an integer"),
        (lambda d: d["factors"][0].update(local_indices={"2": [2.0]}), "local_indices['2'] must be an integer"),
        (lambda d: d["factors"][0].update(local_indices={"2": 2}), "local_indices['2'] must be a JSON list"),
        (lambda d: d.update(overrides={"2": [[1, 1, 1, 4.0]]}), "override row must be an integer"),
        (lambda d: d.update(overrides={"2": [[1, 1, 1, False]]}), "override row must be an integer"),
        (lambda d: d.update(overrides=[]), "overrides must be a JSON object"),
        (lambda d: d.update(factors={"quaternion": {}}), "factors must be a JSON list"),
        (lambda d: d["factors"][0].update(name=5), "factor name must be a string"),
        (lambda d: d["factors"][0].update(local_indices={"0_2": [2]}), "local index key '0_2' is not an integer"),
        (lambda d: d.update(overrides={" 2": [[1, 2, 1, 1]]}), "override key ' 2' is not an integer"),
    ],
)
def test_spec_dict_rejects_wrong_json_types(mutate, fragment):
    doc = quaternion_dict()
    mutate(doc)
    with pytest.raises(SpecError, match=re.escape(fragment)):
        spec_from_dict(doc)


@pytest.mark.parametrize(
    "content",
    [b"", b'{"factors": [', b'{"factors": [], "\xff": 1}', b'{"factors": [], "x": 1' + b"0" * 5000 + b"}"],
    ids=["empty", "truncated", "not-utf8", "integer-past-digit-limit"],
)
def test_load_spec_raises_spec_error_on_unreadable_files(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(SpecError):
        load_spec(str(path))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def mostly(valid):
    """Valid values about seven times in eight, arbitrary JSON otherwise."""
    return st.integers(0, 7).flatmap(lambda i: JSON_VALUES if i == 0 else valid)


PRIME_KEYS = mostly(st.sampled_from(["2", "3", "5"])).map(str)
MINPOLYS = st.sampled_from([[0, 1], [1, 0, 1], [-2, 0, 1], [1, 1, 1], [9, 0, 1], [-8, -2, -1, 1]])
INDEX_LISTS = st.lists(st.integers(1, 3), min_size=1, max_size=2)
FACTORS = st.fixed_dictionaries(
    {
        "name": mostly(st.sampled_from(["a", "b", "c"])),
        "center_minpoly": mostly(MINPOLYS),
        "degree": mostly(st.integers(1, 3)),
    },
    optional={
        "local_indices": mostly(st.dictionaries(PRIME_KEYS, mostly(INDEX_LISTS), max_size=2)),
        "copies": mostly(st.integers(1, 4)),
    },
)
SPEC_DICTS = mostly(
    st.fixed_dictionaries(
        {"factors": mostly(st.lists(FACTORS, min_size=1, max_size=2))},
        optional={
            "free_over_base": mostly(st.booleans()),
            "overrides": mostly(
                st.dictionaries(
                    PRIME_KEYS, mostly(st.lists(st.lists(st.integers(1, 2), min_size=4, max_size=4), max_size=3)),
                    max_size=1,
                )
            ),
        },
    )
)


@settings(max_examples=500, deadline=None)
@given(SPEC_DICTS)
def test_spec_from_dict_raises_only_ordgen_errors(doc):
    try:
        spec = spec_from_dict(doc)
    except OrdgenError:
        return
    assert spec_from_dict(spec_to_dict(spec)) == spec
    for p in (2, 3):
        try:
            min_k_local(classify(local_data(spec, p)))
        except OrdgenError:
            pass


def test_dimension_counts_copies():
    assert fixture("zi.json").dimension == 2
    assert fixture("m3q.json").dimension == 9
    assert fixture("quat2x7.json").dimension == 28


# ---------------------------------------------------------------- local data


def test_local_data_shapes_for_gaussian_integers():
    spec = fixture("zi.json")
    assert local_data(spec, 5).entries == (((1, 1, 1, 1), 2),)
    assert local_data(spec, 3).entries == (((1, 1, 1, 2), 1),)
    assert local_data(spec, 2).entries == (((1, 1, 2, 1), 1),)


def test_local_data_shapes_for_quaternion_order():
    spec = fixture("quat2.json")
    assert local_data(spec, 2).entries == (((1, 2, 1, 1), 1),)  # listed division prime
    assert local_data(spec, 3).entries == (((2, 1, 1, 1), 1),)  # split matrix prime


def test_exceptional_prime_demands_override():
    spec = fixture("exceptional.json")
    data = local_data(spec, 2)
    assert data.exceptional
    assert data.entries == ()
    with pytest.raises(ExceptionalPrimeNeedsOverride) as info:
        classify(data)
    assert info.value.p == 2


def test_override_supplies_local_shape():
    spec = fixture("exceptional_override.json")
    data = local_data(spec, 2)
    assert not data.exceptional
    assert data.entries == (((1, 1, 1, 2), 1),)
    assert min_k_local(classify(data)) == 1


def test_classify_groups_by_block_shape():
    spec = fixture("zi.json")
    # members are (e*m, c, copies); c = None stands for the constant 0
    groups = classify(local_data(spec, 5)).groups
    assert groups == (((1, 1), ((1, None, 2),)),)
    # c = 1 stands for 2^-1
    groups2 = classify(local_data(spec, 2)).groups
    assert groups2 == (((1, 1), ((2, 1, 1),)),)


def _correction(c, q):
    """The radical correction constant that classify's encoding c stands for."""
    return Fraction(0) if c is None else Fraction(1, q**c)


@pytest.mark.parametrize(
    "m,e,f,q,expected",
    [
        (1, 1, 1, 5, Fraction(0)),
        (1, 1, 3, 5, Fraction(0)),
        (1, 2, 1, 2, Fraction(1, 2)),
        (1, 3, 2, 3, Fraction(1, 9)),
        (2, 1, 1, 7, Fraction(1)),
        (3, 2, 2, 2, Fraction(1)),
    ],
)
def test_c_factor_cases(m, e, f, q, expected):
    data = LocalPrimeData(q, (((1, m, e, f), 1),), False)
    [((n, r), [(em, c, copies)])] = classify(data).groups
    assert (n, r, em, copies) == (1, f * m, e * m, 1)
    assert _correction(c, q) == expected


# ---------------------------------------------------------------- counts


@pytest.mark.parametrize(
    "name,p,k,expected",
    [
        ("zi.json", 2, 1, 2),
        ("zi.json", 2, 2, 12),
        ("zi.json", 3, 1, 6),
        ("zi.json", 3, 2, 72),
        ("zi.json", 5, 1, 20),
        ("zi.json", 5, 2, 600),
        ("quat2.json", 2, 1, 0),
        ("quat2.json", 2, 2, 144),
        ("quat2.json", 3, 1, 0),
        ("quat2.json", 3, 2, 3888),
    ],
)
def test_local_count_frozen_values(name, p, k, expected):
    cls = classify(local_data(fixture(name), p))
    assert gen_count_local(k, cls) == expected


def test_local_count_matches_brute_force_on_quotient():
    spec = fixture("zi.json")
    data = local_data(spec, 5)
    alg = local_quotient_algebra(data)
    assert alg.size == 25
    cls = classify(data)
    for k in (1, 2):
        assert gen_count_local(k, cls) == brute_gen_count(alg, k)


def test_local_count_refuses_large_blocks():
    spec = OrderSpec(
        factors=(
            SimpleFactorSpec(
                name="m4", center_minpoly=(0, 1), degree=4, local_indices={}, copies=1
            ),
        ),
        free_over_base=True,
        overrides={},
    )
    # n = 4 blocks once raised UnsupportedRank here; their counts are exact now.
    cls = classify(local_data(spec, 5))
    assert gen_count_local(2, cls) == 22803629062500000000000
    assert gen_count_local(1, cls) == 0
    assert min_k_local(cls) == 2


@pytest.mark.parametrize(
    "name,p,expected",
    [
        ("zi.json", 2, 1),
        ("zi.json", 3, 1),
        ("zi.json", 5, 1),
        ("quat2.json", 2, 2),
        ("quat2.json", 3, 2),
        ("quat2x7.json", 2, 3),
        ("quat2x7.json", 3, 2),
        ("m3q.json", 2, 2),
    ],
)
def test_min_k_local_frozen_values(name, p, expected):
    assert min_k_local(classify(local_data(fixture(name), p))) == expected


def test_min_k_local_coheres_with_local_count():
    # the local count is positive exactly from min_k_local onward
    for name in ("z.json", "zi.json", "m2q.json", "m3q.json", "quat2.json", "quat2x7.json"):
        spec = fixture(name)
        for p in (2, 3, 5, 7, 11, 13):
            cls = classify(local_data(spec, p))
            mk = min_k_local(cls)
            for k in (1, 2, 3, 4, 5):
                assert (gen_count_local(k, cls) > 0) == (mk <= k)


# ---------------------------------------------------------------- per-copy oracle


def per_copy_gen_count(k, data):
    """The local count with one Fraction radical factor per expanded copy of an entry."""
    q = data.p
    groups = {}
    for (n, m, e, f), count in data.entries:
        c = Fraction(1) if m > 1 else Fraction(1, q**f) if e > 1 else Fraction(0)
        groups.setdefault((n, f * m), []).extend([(e * m, c)] * count)
    total = Fraction(1)
    base = Fraction(q)
    for (n, r), members in groups.items():
        total *= gen_count_power(k, n, q, r, len(members))
        for em, c in members:
            total *= base ** (k * n * n * r * (em - 2)) * (base ** (k * n * n * r) - c * base ** (n * n * r))
    assert total.denominator == 1
    return int(total)


def test_counted_local_count_matches_per_copy_formula():
    specs = [fixture(path.name) for path in sorted(DATA.glob("*.json"))]
    specs += [make_quaternion_spec(ramified, m) for ramified in ((2,), (5, 7)) for m in (1, 7, 1000)]
    checked = 0
    for spec in specs:
        for p in (2, 3, 5, 7, 11, 13):
            data = local_data(spec, p)
            if data.exceptional:
                continue
            cls = classify(data)
            for k in (1, 2, 3, 4):
                assert gen_count_local(k, cls) == per_copy_gen_count(k, data)
                checked += 1
    assert checked == 4 * (6 * len(specs) - 1)  # exceptional.json is exceptional at 2 only


def test_two_copy_local_count_matches_brute_force():
    doc = json.loads((DATA / "quat2.json").read_text())
    doc["factors"][0]["copies"] = 2
    data = local_data(spec_from_dict(doc), 2)
    assert data.entries == (((1, 2, 1, 1), 2),)
    alg = local_quotient_algebra(data)
    assert alg.size == 16**2
    cls = classify(data)
    for k in (1, 2):
        assert gen_count_local(k, cls) == per_copy_gen_count(k, data) == brute_gen_count(alg, k)


def test_local_data_does_not_grow_with_copies():
    assert local_data(make_quaternion_spec((2,), 1000), 3).entries == (((2, 1, 1, 1), 1000),)
