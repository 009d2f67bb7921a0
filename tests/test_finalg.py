"""Finite algebra engines: closure, exhaustive and sampled counts, lifts."""

import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordgen import finalg
from ordgen.errors import BudgetExceeded, InvalidCount, InvalidTwist, NotGenerating, OrdgenError
from ordgen.finalg import (
    DEFAULT_BUDGET,
    FiniteAlgebra,
    brute_gen_count,
    closure,
    coset_representatives,
    is_generating,
    lift_count,
    matrix_algebra,
    matrix_element,
    matrix_over,
    product_algebra,
    resolve_budget,
    sample_gen_fraction,
    splitmix64_stream,
    truncated_local_algebra,
    twisted_element,
)


def zero(alg):
    return (0,) * alg.dim


def naive_gen_count(alg, k):
    """The per-element enumerator: every node closes each of the |A| elements.

    It is the reference for brute_gen_count, which closes one element per
    coset of the subalgebra a node has reached.
    """
    eng = alg._eng()
    memo = {}

    def rec(state, depth):
        if len(state) == eng.D:
            return alg.size ** (k - depth)
        if depth == k:
            return 0
        key = (state, depth)
        if key not in memo:
            memo[key] = sum(
                rec(tuple(finalg._close(eng, list(state), [eng.flat_of_index(idx)])), depth + 1)
                for idx in range(alg.size)
            )
        return memo[key]

    return rec(tuple(finalg._close(eng, [], [eng.flat_unit])), 0)


def unit_matrix(alg, n, u, v):
    entries = [[0] * n for _ in range(n)]
    entries[u][v] = 1
    return matrix_element(alg, entries)


@pytest.mark.parametrize("n,q,r", [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2), (1, 2, 2)])
def test_matrix_algebra_passes_structure_axioms(n, q, r):
    matrix_algebra(n, q, r).validate()


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (2, 4), (2, 8), (2, 9)])
def test_matrix_units_multiply_by_index_contraction(n, q):
    alg = matrix_algebra(n, q)
    for u in range(n):
        for v in range(n):
            for s in range(n):
                for t in range(n):
                    prod = alg.multiply(unit_matrix(alg, n, u, v), unit_matrix(alg, n, s, t))
                    expected = unit_matrix(alg, n, u, t) if v == s else zero(alg)
                    assert prod == expected


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 25])
def test_scalar_matrix_entries_are_their_own_coordinates(q):
    alg = matrix_algebra(1, q)
    assert [matrix_element(alg, [[x]]) for x in range(q)] == [(x,) for x in range(q)]


def test_element_builders_take_coefficient_fields_above_4096_elements():
    assert matrix_element(matrix_algebra(1, 8192), [[5000]]) == (5000,)
    alg = truncated_local_algebra(2, 13, 1, 1, 1)  # F_8192 over F_2
    field = alg.meta["coeff_field"]
    for x, y in [(2, 3), (5000, 8191), (4097, 77)]:
        prod = alg.multiply(twisted_element(alg, (x,)), twisted_element(alg, (y,)))
        assert prod == twisted_element(alg, (field.mul(x, y),))


def test_unit_is_two_sided_identity():
    alg = matrix_algebra(2, 2)
    for i in range(alg.size):
        a = alg.element_from_index(i)
        assert alg.multiply(alg.unit, a) == a
        assert alg.multiply(a, alg.unit) == a


def test_element_index_roundtrip():
    alg = matrix_algebra(2, 3)
    for i in range(alg.size):
        assert alg.index_of_element(alg.element_from_index(i)) == i


def test_closure_spans_generated_subalgebra():
    alg = matrix_algebra(2, 2)
    e12 = unit_matrix(alg, 2, 0, 1)
    e21 = unit_matrix(alg, 2, 1, 0)
    assert closure(alg, (e12,)).rank == 2  # span{1, e12}
    assert closure(alg, (e12, e21)).rank == 4
    assert is_generating(alg, (e12, e21))
    assert not is_generating(alg, (e12,))


def test_brute_count_matches_hand_enumeration():
    # single elements never generate a 2x2 matrix algebra
    assert brute_gen_count(matrix_algebra(2, 2), 1) == 0
    assert brute_gen_count(matrix_algebra(2, 2), 2) == 96
    # the field F_4 over F_2 is generated by its 2 primitive elements
    assert brute_gen_count(matrix_algebra(1, 2, 2), 1) == 2


def test_budget_guards_enumeration_size():
    alg = matrix_algebra(2, 4)  # 256 elements, 65536 pairs
    with pytest.raises(BudgetExceeded) as info:
        brute_gen_count(alg, 2, budget=100)
    assert info.value.required == 65536
    assert info.value.budget == 100
    assert str(info.value) == "request needs 65536 tuples, budget is 100"
    assert brute_gen_count(alg, 1, budget=256) == 0


def test_resolve_budget_env_override(monkeypatch):
    monkeypatch.delenv("ORDGEN_BUDGET", raising=False)
    assert resolve_budget() == DEFAULT_BUDGET
    monkeypatch.setenv("ORDGEN_BUDGET", "12345")
    assert resolve_budget() == 12345
    assert resolve_budget(777) == 777  # explicit argument wins


@pytest.mark.parametrize("raw", ["abc", "0", "-5", ""])
def test_resolve_budget_rejects_malformed_env(monkeypatch, raw):
    monkeypatch.setenv("ORDGEN_BUDGET", raw)
    with pytest.raises(OrdgenError, match="ORDGEN_BUDGET must be a positive integer"):
        resolve_budget()


def test_splitmix_stream_is_frozen():
    assert splitmix64_stream(0, 1) == 16294208416658607535
    assert splitmix64_stream(0, 2) == 7960286522194355700
    assert splitmix64_stream(7, 1) == 7191089600892374487


def test_sampling_is_reproducible_and_worker_independent():
    alg = matrix_algebra(2, 2)
    est = sample_gen_fraction(alg, 2, 500, seed=7)
    assert (est.hits, est.samples, est.seed) == (202, 500, 7)
    assert est.fraction == 202 / 500
    assert est.ci_low <= est.fraction <= est.ci_high
    assert sample_gen_fraction(alg, 2, 500, seed=7) == est
    assert sample_gen_fraction(alg, 2, 500, seed=7, workers=3) == est
    assert sample_gen_fraction(alg, 2, 500, seed=8) != est


def test_pool_that_cannot_start_falls_back_to_serial_with_warning(monkeypatch):
    def refuse(*args, **kwargs):
        raise OSError("cannot start worker processes")

    monkeypatch.setattr(finalg.futures, "ProcessPoolExecutor", refuse)
    with pytest.warns(RuntimeWarning, match="recomputing serially"):
        est = sample_gen_fraction(matrix_algebra(2, 2), 2, 500, seed=7, workers=2)
    assert est.hits == 202


@pytest.mark.parametrize("error", [ValueError("bad part"), OrdgenError("bad part")])
def test_pool_work_errors_propagate(monkeypatch, error):
    class FailingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, parts):
            raise error

    monkeypatch.setattr(finalg.futures, "ProcessPoolExecutor", FailingPool)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(type(error), match="bad part"):
            sample_gen_fraction(matrix_algebra(2, 2), 2, 500, seed=7, workers=2)


def test_import_loads_no_process_machinery():
    src = os.path.dirname(os.path.dirname(finalg.__file__))
    code = (
        "import sys\n"
        "import ordgen\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sampled_fraction_tracks_exact_fraction():
    alg = matrix_algebra(2, 2)
    est = sample_gen_fraction(alg, 2, 2000, seed=1)
    assert abs(est.fraction - 96 / 256) < 0.05


def test_product_algebra_multiplies_componentwise():
    f2 = matrix_algebra(1, 2)
    prod = product_algebra(f2, f2)
    prod.validate()
    assert prod.dim == 2
    # (1,0) and (0,1) are the two idempotent generators
    assert brute_gen_count(prod, 1) == 2


def test_product_of_matrix_algebras_count():
    alg = product_algebra(matrix_algebra(1, 3), matrix_algebra(1, 3))
    # pairs (a, b) generate F_3 x F_3 iff a != b: 9*9 - 3*... by brute force
    assert brute_gen_count(alg, 1) == 6


def test_truncated_local_algebra_shape():
    alg = truncated_local_algebra(2, 1, 2, 1, 1)
    alg.validate()
    assert alg.size == 16
    assert len(alg.radical_basis) == 2
    pi = twisted_element(alg, (0, 1))
    assert alg.multiply(pi, pi) == zero(alg)


def test_twisted_product_law():
    alg = truncated_local_algebra(2, 1, 2, 1, 1)
    omega = twisted_element(alg, (2,))
    pi = twisted_element(alg, (0, 1))
    omega2 = alg.multiply(omega, omega)
    # pi moves past a coefficient by applying Frobenius to it
    assert alg.multiply(pi, omega) == alg.multiply(omega2, pi)
    assert alg.multiply(omega, pi) == twisted_element(alg, (0, 2))


def test_truncated_local_algebra_rejects_bad_twist():
    with pytest.raises(InvalidTwist):
        truncated_local_algebra(2, 2, 2, 3, 1)


def test_commutative_truncation_matches_polynomial_model():
    # F_3[u]/(u^2): exactly the multiples of u square to zero
    alg = truncated_local_algebra(3, 1, 1, 1, 2)
    alg.validate()
    assert alg.size == 9
    u = twisted_element(alg, (0, 1))
    assert alg.multiply(u, u) == zero(alg)
    assert brute_gen_count(alg, 1) == 6  # a + bu generates iff b != 0


def test_matrix_over_wraps_scalar_algebra():
    inner = matrix_algebra(1, 2)
    alg = matrix_over(inner, 2)
    alg.validate()
    assert alg.size == 16
    assert brute_gen_count(alg, 2) == 96  # same structure as the plain 2x2 algebra


def test_coset_representatives_cover_quotient():
    alg = truncated_local_algebra(2, 1, 2, 1, 1)
    reps = coset_representatives(alg, alg.radical_basis)
    assert len(reps) == 4
    assert len(set(reps)) == 4


def test_lift_count_frozen_values():
    tw = truncated_local_algebra(2, 1, 2, 1, 1)
    omega = twisted_element(tw, (2,))
    assert lift_count(tw, tw.radical_basis, (omega,)) == 0
    assert lift_count(tw, tw.radical_basis, (omega, tw.unit)) == 12
    dual = truncated_local_algebra(2, 1, 1, 1, 2)  # F_2[u]/(u^2)
    assert lift_count(dual, dual.radical_basis, (zero(dual),)) == 1


def test_lift_count_rejects_nongenerating_quotient_tuple():
    tw = truncated_local_algebra(2, 1, 2, 1, 1)
    with pytest.raises(NotGenerating):
        lift_count(tw, tw.radical_basis, (tw.unit,))


def test_refused_lift_count_never_enumerates_the_ideal(monkeypatch):
    def refuse(self, rows):
        raise AssertionError("span_elements called")

    monkeypatch.setattr(finalg._Gf2Engine, "span_elements", refuse)
    monkeypatch.setattr(finalg._GfpEngine, "span_elements", refuse)
    alg = truncated_local_algebra(3, 1, 1, 1, 13)  # F_3[u]/(u^13): the radical has 3^12 elements
    with pytest.raises(BudgetExceeded) as info:
        lift_count(alg, alg.radical_basis, (zero(alg), zero(alg)), budget=DEFAULT_BUDGET)
    assert info.value.required == 3**24


def _span_checkers(alg, basis):
    return [
        (lambda: lift_count(alg, basis, (alg.unit,)), "the given span"),
        (lambda: coset_representatives(alg, basis), "the given span"),
        (lambda: FiniteAlgebra(alg.base, alg.table, alg.unit, basis, "A"), "radical span of A"),
    ]


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_span_that_is_not_an_ideal_is_refused(q):
    alg = matrix_algebra(2, q)
    e11 = matrix_element(alg, [[1, 0], [0, 0]])
    for call, name in _span_checkers(alg, [e11]):
        with pytest.raises(ValueError, match=f"^{name} is not a two-sided ideal$"):
            call()


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_ideal_that_is_not_nilpotent_is_refused(q):
    field = matrix_algebra(1, q)
    alg = product_algebra(field, field)
    for call, name in _span_checkers(alg, [(1, 0)]):  # the factor F_q x 0
        with pytest.raises(ValueError, match=f"^{name} is not nilpotent$"):
            call()


def test_lift_counts_sum_to_total_count():
    tw = truncated_local_algebra(2, 1, 2, 1, 1)
    reps = coset_representatives(tw, tw.radical_basis)
    total = 0
    for a in reps:
        for b in reps:
            try:
                total += lift_count(tw, tw.radical_basis, (a, b))
            except NotGenerating:
                pass
    assert total == brute_gen_count(tw, 2) == 144


F4 = matrix_algebra(1, 2, 2)
M22 = matrix_algebra(2, 2)
ORACLE_ALGEBRAS = [
    M22,
    matrix_algebra(2, 3),
    matrix_algebra(1, 5, 2),
    matrix_algebra(1, 2, 3),
    matrix_algebra(1, 3, 2),
    matrix_algebra(2, 2, 2),
    matrix_over(matrix_algebra(1, 2), 2),
    truncated_local_algebra(2, 1, 2, 1, 1),
    truncated_local_algebra(3, 1, 2, 1, 1),
    truncated_local_algebra(2, 2, 1, 1, 2),
    truncated_local_algebra(4, 1, 1, 1, 2),
    truncated_local_algebra(2, 1, 2, 1, 2),
    *(truncated_local_algebra(q, 1, 1, 1, e) for q in (2, 3) for e in (1, 2, 3)),
    product_algebra(F4, F4),
    product_algebra(F4, M22),
    product_algebra(matrix_algebra(1, 3, 2), matrix_algebra(1, 3, 2)),
    product_algebra(truncated_local_algebra(2, 1, 1, 1, 2), matrix_algebra(1, 2)),
]
ORACLE_CASES = [(alg, k) for alg in ORACLE_ALGEBRAS for k in (1, 2, 3) if alg.size**k <= 1 << 14]


@pytest.mark.parametrize("alg,k", ORACLE_CASES, ids=[f"{alg.label}-k{k}" for alg, k in ORACLE_CASES])
def test_coset_enumeration_matches_per_element_oracle(alg, k):
    assert brute_gen_count(alg, k) == naive_gen_count(alg, k)


@st.composite
def small_algebras(draw, max_size=256):
    kind = draw(st.sampled_from(["matrix", "twisted", "product"]))
    if kind == "matrix":
        alg = matrix_algebra(draw(st.integers(1, 2)), draw(st.sampled_from([2, 3, 4])), draw(st.integers(1, 2)))
    elif kind == "twisted":
        q, f, m, e = draw(st.sampled_from([2, 3, 4])), draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
        alg = truncated_local_algebra(q, f, m, 1, e) if q ** (f * m * m * e) <= max_size else matrix_algebra(1, q)
    else:
        left = draw(small_algebras(max_size=16))
        right = draw(small_algebras(max_size=16))
        alg = product_algebra(left, right) if left.base == right.base else left
    return alg if alg.size <= max_size else matrix_algebra(1, alg.base.q)


@settings(max_examples=40, deadline=None)
@given(small_algebras(), st.integers(1, 3))
def test_coset_enumeration_matches_per_element_oracle_on_random_algebras(alg, k):
    while alg.size**k > 1 << 12:
        k -= 1
    assert brute_gen_count(alg, k) == naive_gen_count(alg, k)


@pytest.mark.parametrize(
    "n,q,k,closures,naive_closures",
    [(2, 2, 2, 45, 145), (2, 2, 3, 87, 321), (2, 3, 2, 172, 1216), (3, 2, 2, 15809, None)],
)
def test_closure_counts_of_exhaustive_oracle(monkeypatch, n, q, k, closures, naive_closures):
    calls = [0]
    close = finalg._close

    def counted(*args):
        calls[0] += 1
        return close(*args)

    monkeypatch.setattr(finalg, "_close", counted)
    alg = matrix_algebra(n, q)
    value = brute_gen_count(alg, k)
    assert calls[0] == closures
    if naive_closures is None:  # 98 305 closures: too slow to repeat here
        return
    calls[0] = 0
    assert naive_gen_count(alg, k) == value
    assert calls[0] == naive_closures


@pytest.mark.parametrize(
    "call",
    [
        lambda: brute_gen_count(M22, 0),
        lambda: sample_gen_fraction(M22, 0, 10),
        lambda: sample_gen_fraction(M22, 2, 0),
        lambda: lift_count(M22, (), ()),
    ],
)
def test_nonpositive_counts_raise_typed_error(call):
    with pytest.raises(InvalidCount):
        call()


def test_nonpositive_k_is_rejected_under_optimisation():
    src = os.path.dirname(os.path.dirname(finalg.__file__))
    code = (
        "from ordgen.errors import InvalidCount\n"
        "from ordgen.finalg import brute_gen_count, matrix_algebra\n"
        "try:\n"
        "    print(brute_gen_count(matrix_algebra(2, 2), 0))\n"
        "except InvalidCount as exc:\n"
        "    print('rejected:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected:")
