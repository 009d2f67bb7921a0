"""End-to-end gate: every closed form, verdict, density, and table the
package promises, checked against independent oracles and frozen values."""

import itertools
import pathlib

from fractions import Fraction

from ordgen.counting import (
    divisors,
    gen_count_exact,
    gen_count_power,
    gen_count_twisted,
    gl_order,
)
from ordgen.errors import NotGenerating
from ordgen.finalg import (
    brute_gen_count,
    coset_representatives,
    lift_count,
    matrix_algebra,
    product_algebra,
    sample_gen_fraction,
    truncated_local_algebra,
    twisted_element,
)
from ordgen.orderspec import (
    LocalPrimeData,
    classify,
    gen_count_local,
    load_spec,
    local_data,
    local_quotient_algebra,
)
from ordgen.solver import (
    density,
    make_quaternion_spec,
    quaternion_example,
    smallest_h,
)

DATA = pathlib.Path(__file__).parent / "data"


def fixture(name):
    return load_spec(str(DATA / name))


def zero(alg):
    return (0,) * alg.dim


def test_closed_form_counts_agree_with_exhaustive_enumeration():
    grid = [(1, q, k) for q in (2, 3, 4, 5) for k in (1, 2)]
    grid += [(2, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 2)]
    for n, q, k in grid:
        assert brute_gen_count(matrix_algebra(n, q), k) == gen_count_exact(k, n, q)
    assert gen_count_exact(2, 2, 2) == 96
    assert gen_count_exact(2, 2, 3) == 3888
    assert gen_count_exact(2, 3, 2) == 129024


def test_twisted_counts_agree_with_oracles_and_invert_exactly():
    assert gen_count_twisted(1, 1, 2, 2) == 2 == brute_gen_count(matrix_algebra(1, 2, 2), 1)
    assert gen_count_twisted(2, 1, 2, 2) == 12 == brute_gen_count(matrix_algebra(1, 2, 2), 2)
    assert gen_count_twisted(2, 2, 2, 2) == 45120 == brute_gen_count(matrix_algebra(2, 2, 2), 2)
    # pre-inversion form: weighted subfield sums recover the plain counts
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


def test_power_counts_agree_with_product_oracles_and_clamp_at_capacity():
    line = product_algebra(matrix_algebra(1, 2), matrix_algebra(1, 2))
    assert gen_count_power(1, 1, 2, 1, 2) == 2 == brute_gen_count(line, 1)
    plane = product_algebra(matrix_algebra(2, 2), matrix_algebra(2, 2))
    assert gen_count_power(2, 2, 2, 1, 2) == 8640 == brute_gen_count(plane, 2)
    assert gen_count_power(2, 2, 2, 1, 16) > 0
    assert gen_count_power(2, 2, 2, 1, 17) == 0


def test_lift_counts_are_oracle_exact_and_tuple_independent():
    cubic = truncated_local_algebra(2, 1, 1, 1, 3)
    u = twisted_element(cubic, (0, 1))
    square_ideal = (twisted_element(cubic, (0, 0, 1)),)
    ideal_size = cubic.size // len(coset_representatives(cubic, square_ideal))
    assert ideal_size == 2
    assert lift_count(cubic, square_ideal, (u,)) == 2 == ideal_size

    duals = {q: truncated_local_algebra(q, 1, 1, 1, 2) for q in (2, 3)}
    for q, dual in duals.items():
        for k in (1, 2):
            assert lift_count(dual, dual.radical_basis, (zero(dual),) * k) == q**k - 1

    tw = truncated_local_algebra(2, 1, 2, 1, 1)
    omega = twisted_element(tw, (2,))
    assert lift_count(tw, tw.radical_basis, (omega, tw.unit)) == 12
    assert brute_gen_count(tw, 2) == 144

    instances = [
        (cubic, square_ideal),
        (duals[2], duals[2].radical_basis),
        (duals[3], duals[3].radical_basis),
        (tw, tw.radical_basis),
    ]
    for alg, ideal_basis in instances:
        reps = coset_representatives(alg, ideal_basis)
        for k in (1, 2):
            counts = []
            for tup in itertools.product(reps, repeat=k):
                try:
                    counts.append(lift_count(alg, ideal_basis, tup))
                except NotGenerating:
                    pass
            assert len(set(counts)) == 1
            assert sum(counts) == brute_gen_count(alg, k)


def test_local_counts_match_explicit_quotient_algebras():
    cases = [("zi.json", (2, 3, 5)), ("quat2.json", (2, 3))]
    for name, primes in cases:
        spec = fixture(name)
        for p in primes:
            data = local_data(spec, p)
            alg = local_quotient_algebra(data)
            for k in (1, 2):
                assert gen_count_local(k, classify(data)) == brute_gen_count(alg, k)
    # matrix blocks over a non-semisimple local ring: the radical M_n(J(A)) and its factors for n >= 2
    for entry, p, ks in [((2, 1, 2, 1), 2, (2, 3)), ((2, 1, 2, 1), 3, (2,)), ((2, 1, 3, 1), 2, (2,))]:
        data = LocalPrimeData(p, ((entry, 1),), False)
        alg = local_quotient_algebra(data)
        for k in ks:
            assert gen_count_local(k, classify(data)) == brute_gen_count(alg, k)


def test_quaternion_power_tables_have_exact_thresholds():
    assert quaternion_example((2,), 1000).ranges == (
        (2, 1, 6),
        (3, 7, 28),
        (4, 29, 120),
        (5, 121, 496),
        (6, 497, 1000),
    )
    assert quaternion_example((5, 7), 1000).ranges == (
        (2, 1, 16),
        (3, 17, 448),
        (4, 449, 1000),
    )
    assert quaternion_example((3, 5), 1000).ranges == (
        (2, 1, 16),
        (3, 17, 351),
        (4, 352, 1000),
    )
    # the table rows agree with independent per-spec verdicts at every boundary
    boundaries = {
        (2,): ((1, 2), (6, 2), (7, 3), (28, 3), (29, 4), (120, 4), (121, 5), (496, 5), (497, 6), (1000, 6)),
        (5, 7): ((16, 2), (17, 3), (448, 3), (449, 4), (1000, 4)),
        (3, 5): ((16, 2), (17, 3), (351, 3), (352, 4), (1000, 4)),
    }
    for ramified, pairs in boundaries.items():
        for m, expected in pairs:
            assert smallest_h(make_quaternion_spec(ramified, m)).h == expected


def test_verdict_trichotomy_on_reference_orders():
    v = smallest_h(fixture("zi.json"))
    assert (v.h, v.kind, v.refined) == (1, "ONE_OR_TWO", None)

    v = smallest_h(fixture("quat2.json"))
    assert (v.h, v.kind, v.refined) == (2, "TWO_OR_THREE", None)
    assert "reduced degree 2" in v.note

    v = smallest_h(fixture("m3q.json"))
    assert (v.h, v.kind, v.refined) == (2, "TWO_OR_THREE", 2)
    assert "exactly 2" in v.note


def test_density_certificates_and_interval_tightening():
    one = density(fixture("z.json"), 1)
    assert one.lower == one.upper == Fraction(1)

    zero_cert = density(fixture("m2q.json"), 2)
    assert zero_cert.lower == zero_cert.upper == Fraction(0)
    assert "reduced degree 2" in zero_cert.zero_reason

    spec = fixture("zi.json")
    intervals = [density(spec, 2, b) for b in (1000, 2000, 4000)]
    assert intervals[0].lower > 0
    for a, b in zip(intervals, intervals[1:]):
        assert b.lower >= a.lower
        assert b.upper <= a.upper
        assert (b.upper - b.lower) < (a.upper - a.lower)


def test_sampling_confidence_interval_and_reproducibility():
    alg = matrix_algebra(2, 2)
    first = sample_gen_fraction(alg, 2, 100000, seed=11)
    assert first.hits == 37467
    assert first.ci_low < 0.375 < first.ci_high
    assert sample_gen_fraction(alg, 2, 100000, seed=11) == first
    assert sample_gen_fraction(alg, 2, 100000, seed=11, workers=3) == first
