"""Global verdicts, certified cutoffs, density intervals, quaternion tables."""

import itertools
import json
import pathlib
import types

from fractions import Fraction

import pytest

from ordgen import solver
from ordgen.errors import BoundTooSmall, CertificateError, NoCutoff, SpecError, UnsupportedRank
from ordgen.finfield import is_prime
from ordgen.orderspec import (
    OrderSpec,
    SimpleFactorSpec,
    classify,
    load_spec,
    local_data,
    min_k_local,
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
    v = smallest_h(rank4_spec())
    assert v.h >= 2
    assert "capacity lower bounds" in v.note


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
    assert product == d.upper


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


def test_density_rejects_bound_below_validity_floor():
    with pytest.raises(BoundTooSmall) as info:
        density(fixture("zi.json"), 2, 10)
    assert info.value.bound == 10
    assert info.value.minimum == 25
    assert "below the tail-validity threshold" in str(info.value)


def test_density_refuses_large_rank():
    with pytest.raises(UnsupportedRank):
        density(rank4_spec(), 2)


def test_density_interval_validates_ordering():
    with pytest.raises(CertificateError):
        DensityInterval(
            k=2,
            bound=25,
            minimum_bound=25,
            lower=Fraction(2),
            upper=Fraction(1),
            factors=(),
            tail_coefficient=None,
            zero_reason=None,
            note=None,
        )


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
    """The per-m oracle: a full verdict for every m from 1 to m_max."""
    rows = tuple((m, smallest_h(make_quaternion_spec(ramified, m)).h) for m in range(1, m_max + 1))
    ranges = []
    for m, h in rows:
        if ranges and ranges[-1][0] == h:
            ranges[-1][2] = m
        else:
            ranges.append([h, m, m])
    return QuaternionTable(
        ramified=tuple(sorted(set(ramified))),
        m_max=m_max,
        rows=rows,
        ranges=tuple(tuple(r) for r in ranges),
    )


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
    assert quaternion_example(ramified, m_max) == scan_quaternion_table(ramified, m_max)


@pytest.mark.parametrize("ramified", [(2,), (5, 7), (3, 5)])
def test_quaternion_acceptance_tables_match_per_m_scan(ramified):
    assert quaternion_example(ramified, 1000) == scan_quaternion_table(ramified, 1000)


@pytest.mark.parametrize("ramified,m_max", [((5, 7), 10**6), ((2,), 10**5)])
def test_quaternion_thresholds_match_local_capacities(ramified, m_max):
    table = quaternion_example(ramified, m_max)
    assert table.ranges == capacity_ranges(ramified, m_max)
    assert len(table.rows) == m_max
    assert table.rows[-1] == (m_max, table.ranges[-1][0])


def test_capacity_ranges_name_the_known_thresholds():
    assert [hi for _, _, hi in capacity_ranges((5, 7), 10**6)] == [16, 448, 8960, 158720, 10**6]
    assert [hi for _, _, hi in capacity_ranges((2,), 40000)] == [6, 28, 120, 496, 2016, 8128, 32640, 40000]


@pytest.mark.parametrize("ramified,m_max,most", [((5, 7), 10000, 70), ((2,), 1000, 64)])
def test_quaternion_search_verdict_count(monkeypatch, ramified, m_max, most):
    seen = []
    original = solver.smallest_h

    def counting_smallest_h(spec):
        seen.append(spec.factors[0].copies)
        return original(spec)

    monkeypatch.setattr(solver, "smallest_h", counting_smallest_h)
    quaternion_example(ramified, m_max)
    assert len(seen) <= most
    assert len(set(seen)) == len(seen)


def test_quaternion_search_refuses_decreasing_h(monkeypatch):
    def fake_smallest_h(spec):
        m = spec.factors[0].copies
        return types.SimpleNamespace(h=3 if 6 <= m <= 9 else 2)

    monkeypatch.setattr(solver, "smallest_h", fake_smallest_h)
    with pytest.raises(CertificateError, match="nondecreasing"):
        quaternion_example((2,), 40)


@pytest.mark.parametrize("name", ["m2q.json", "quat2x7.json"])
def test_report_classifies_each_prime_once(monkeypatch, name):
    seen = []
    original = solver.classify

    def counting_classify(data):
        seen.append(data.p)
        return original(data)

    monkeypatch.setattr(solver, "classify", counting_classify)
    rep = report(fixture(name))
    assert sorted(seen) == [p for p in range(2, rep.verdict.cutoff) if is_prime(p)]
    assert [detail.p for detail in rep.details] == sorted(seen)


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
