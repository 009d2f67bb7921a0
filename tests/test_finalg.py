"""Finite algebra engines: closure, exhaustive and sampled counts, lifts."""

import concurrent.futures
import hashlib
import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordgen import finalg
from ordgen.errors import (
    BudgetExceeded,
    CertificateError,
    InvalidCount,
    InvalidElement,
    InvalidTable,
    InvalidTwist,
    NotGenerating,
    OrdgenError,
    written_size,
)
from ordgen.counting import gen_count_exact, gen_count_twisted
from ordgen.finalg import (
    DEFAULT_BUDGET,
    FiniteAlgebra,
    brute_gen_count,
    check_budget,
    closure,
    coset_representatives,
    is_generating,
    lift_count,
    matrix_algebra,
    matrix_algebra_base,
    matrix_element,
    matrix_over,
    product_algebra,
    product_base,
    resolve_budget,
    sample_gen_fraction,
    splitmix64_stream,
    truncated_local_algebra,
    truncated_local_base,
    twisted_element,
)
from ordgen.finfield import build_field, field_of, is_prime
from test_engine_oracle import per_sample_range


def zero(alg):
    return (0,) * alg.dim


def naive_gen_count(alg, k):
    """The per-element enumerator: every node closes each of the |A| elements.

    It is the reference for brute_gen_count, which decides one element per
    coset of the subalgebra a prefix has reached.
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

    return rec(tuple(finalg._close(eng, [], eng.scalars)), 0)


def unit_matrix(alg, n, u, v):
    entries = [[0] * n for _ in range(n)]
    entries[u][v] = 1
    return matrix_element(alg, entries)


TW2 = truncated_local_algebra(2, 1, 2, 1, 1)  # radical square zero over F_2, residue field F_4


@pytest.mark.parametrize("n,q,r", [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2), (1, 2, 2)])
def test_matrix_algebra_passes_structure_axioms(n, q, r):
    matrix_algebra(n, q, r)._verify()


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


def scan_subfield_embedding(F, E):
    """The full-scan oracle: evaluate F's modulus at every element of E, send
    F's modulus root to the least root found, and check the map is a ring
    homomorphism."""
    roots = []
    for a in range(E.q):
        acc = 0
        for c in reversed(F.modulus):
            acc = E.add(E.mul(acc, a), c)
        if acc == 0:
            roots.append(a)
    rho = min(roots)
    table = []
    for a in range(F.q):
        acc = 0
        for c in reversed(F.coords(a)):
            acc = E.add(E.mul(acc, rho), c)
        table.append(acc)
    if F.q <= 64:
        for a in range(F.q):
            for b in range(F.q):
                assert table[F.mul(a, b)] == E.mul(table[a], table[b])
                assert table[F.add(a, b)] == E.add(table[a], table[b])
    return table


SUBFIELD_PAIRS = [
    (p, f, e)
    for p in range(2, 64)
    if is_prime(p)
    for e in range(2, 13)
    if p**e <= 4096
    for f in range(2, e + 1)
    if e % f == 0
]


@pytest.mark.parametrize("p,f,e", SUBFIELD_PAIRS, ids=[f"F{p}^{f}<F{p}^{e}" for p, f, e in SUBFIELD_PAIRS])
def test_subfield_embedding_matches_full_scan(p, f, e):
    F, E = build_field(p, f), build_field(p, e)
    assert list(finalg._subfield_embedding(F, E)) == scan_subfield_embedding(F, E)


def test_subfield_embedding_searches_only_the_subfield(monkeypatch):
    calls = []
    original = finalg._subfield_embedding

    def counted(F, E):
        mul = E.mul
        E.mul = lambda a, b: calls.append((a, b)) or mul(a, b)
        try:
            return original(F, E)
        finally:
            del E.mul

    monkeypatch.setattr(finalg, "_subfield_embedding", counted)
    alg = matrix_algebra(1, 49, 3)  # F_49 inside F_{7^6}, 117 649 elements
    assert alg.meta["coeff_field"].q == 7**6
    assert 0 < len(calls) <= 300


# SHA-256 of repr((table, unit, label, n, r, coeff_field.q)) for matrix_algebra(n, q, r),
# frozen from the structure-constant construction that built M_n(F_{q^r}) directly.
MATRIX_DIGESTS = {
    (1, 2, 1): "96e578d751e40e91d841662c6fb1a80e38580677f443bcb04599b6f809059330",
    (1, 2, 2): "5684be8356c1e6fd5769966a619a33163cf05ce67aa10df864f2dfe52428b85f",
    (1, 2, 3): "31a2b7e866b030992921da4a9ead1dca940c7b04655c9262a40d49e8940bca92",
    (1, 3, 1): "ab9c376225bd182faa134925854c1cc21898aca02a6510a838ae33abb25a6946",
    (1, 3, 2): "8f26be1d976d3277a6d76098048e2357e97fd7fa94d346c4966c194e87e60004",
    (1, 3, 3): "5bbc2cda0534110bd9177ea68e3b2b7d31844696647acb9e96e92cf34eaa0782",
    (1, 4, 1): "38eb358aac9c6d7f773c36e685a55f6544dc3a5075b2535763c5fdfd50fcbf41",
    (1, 4, 2): "5a1f2932a75dd3effe617d1bcb641cac5109c0a9ac1a2744c8ac0c344b385d33",
    (1, 4, 3): "29f6b1de37278f1494796201ae1eaad8e2a386125284466b2100414b9145b6f4",
    (1, 5, 1): "2df0c78fb3bc9f4c78af178083bad752cfdbb25460e8ddd8962645f61ebff29e",
    (1, 5, 2): "7ce074fee0b0948890af2b6645b4d35d1b7f3c1eefb4ad0b593c2353859401c6",
    (1, 5, 3): "694d0a1c807f5fe3471650d2ac09b8bf5b728df48cd3c66e917fba8a772e173a",
    (1, 7, 1): "0361c7168e8d9283e0dec25e9350691f025c17423733daef610add61132ad7c8",
    (1, 7, 2): "ebca714e702fba1f2bc7d1e7cd4f3e1024a675d9699e8a53e4d0ffbe6a486a57",
    (1, 7, 3): "67343ca9588098432d4a9f92f53f15d2eca35071eca563a8ae6cf24486749699",
    (1, 8, 1): "63c88929c357ef83b019fd3c7cdafd18253711e3ad2943ca34d6902a72ed7dac",
    (1, 8, 2): "d3125c93da391bc06a433d9f2b0439fb149f0b004b51c880b8c333bbb670b992",
    (1, 8, 3): "a60e76a0fd6491a325b0112f8fe64b87614025eac12e2ebc1d8a14d2ba43dc67",
    (1, 9, 1): "7bea3977cf16457bdbee2c1a81cd1f0754da597e7fbaf45e18a39ca79cc060e8",
    (1, 9, 2): "52749a87807ec2caeb88271bd21ce6a712b57f57835d8cb84b5f98ab68f25501",
    (1, 9, 3): "8eaa8c8987915d3334fc80bcc883485302de28211aa61ff29236f6b3a52f368c",
    (2, 2, 1): "3c8b4278d9aec9a1f2d54a753f7fbecbea0316edb611780c39a14e1e92667c7e",
    (2, 2, 2): "b9dbeee6ac2a608a1c822bfd8d0d889452150b52117b46759588268fd5205dbd",
    (2, 2, 3): "f749d32332a27fdc4625d21da888d48650f8a94f1c317ec2baed463ee9ed2026",
    (2, 3, 1): "9b973d1b80eccb260c4ffa00c50184f237e256f9d429774c073256036c548283",
    (2, 3, 2): "ecbde05741a51f07b6f8e92f0fa8cb2574e293e80766b9f1256ba3b62bbafaf3",
    (2, 3, 3): "f6ce0e3798fac2cda8ea765c8502feafe16d862aa698ff33e7b748f63bc6099c",
    (2, 4, 1): "aec011941152f55b14f99684a39b5a80fa759312a235988c74a1c3fdb9526b6a",
    (2, 4, 2): "b819e76617298ed822c715384317c393050c4ff6b1412d48f2f5c3e198afd152",
    (2, 4, 3): "5526e2adc6cbe548f6f306b4ef2f1cf497975006fbaaf9d8287748c626954ed8",
    (2, 5, 1): "4c1ba1a65fe8e5cc4f5d313b7573c81158fd79274b4e34f29059d04459c2f14a",
    (2, 5, 2): "53ebec715f7146a04d33714b0737e4ae60fdf0e5c2de65b2d8357d0ca1d04544",
    (2, 5, 3): "2c9b2b5bf00f89b5d473094190790ec90ecf99411cad7b27fcf6ed08d1a8cb43",
    (2, 7, 1): "a57182f21703c560ae9b00d465e06507f2da79836dda396635ebf4eca3b33526",
    (2, 7, 2): "08b9c8d515083e994b8b37e28c3459ec2fcd3cb45244bb533f442c28d1507864",
    (2, 7, 3): "3923e3b6125efb8e58ac0156547168a4dbda6f65d1433204673bc5c72c582fba",
    (2, 8, 1): "973b247232c9e28ba749fc152e794b03fdf93c0de8048acbbaf20769843ec2dd",
    (2, 8, 2): "cfac9a3c6945d3cc8ea32a146208cf299f418d9207c891a1a6cd505fbefb92e6",
    (2, 8, 3): "3ec228c31299b12bcc9ab100f038011aa804b7933f206a4d3890acde188f69a0",
    (2, 9, 1): "87adcbf4ff168300f16bbeadba8bc9ea8c40772e1e9d8c8e543220944889671d",
    (2, 9, 2): "2c8a0d445fd5611a69ff7b6ac488e5d63c18393b0f1402c3081ef4045c057511",
    (2, 9, 3): "c9a9cb51e08d93b60f341e2e93afeb35a9f632ec217d6ad5bcd8717048cd65dc",
    (3, 2, 1): "70b5d457fa66b077327ef6d452109fe548a2075e770bf79f637a037c686f6b85",
    (3, 2, 2): "f63c4a129737d57ac134406f02d37bf642ad9ece2f625b9a9e75d65184450b8b",
    (3, 2, 3): "b0bed49bd8d1e41616de01f7961adf85db86fb2646d4a9db7a5716aaabdc8353",
    (3, 3, 1): "d4cd57289213ae20297c6e0535bc3b8805a4a9ea008989f9feea640c82cebca0",
    (3, 3, 2): "a9663c8da53280270c1233991e6c3adc09d5efd3ec82a0792b7731d959b9f521",
    (3, 3, 3): "75c3b862046d37fb25cbed84772d67729ab75f37b9497977c2c2c135af0b9397",
    (3, 4, 1): "cc52a4fbdc7ef337e689b5e741b53e366e9ecbaed7f116a94a6a7e12085f3669",
    (3, 4, 2): "ac328e6d158f997d9b76b3ca67c036d2c75ced7aef7a4a20ce4d531dac7f78b2",
    (3, 4, 3): "900292904bbaec700ea4d6ab1213818d30b61d528a3fe5458fde747d65e9b59b",
    (3, 5, 1): "20b4182cfa83567954b25a1ad053bf0d019f2f078987cc57ed907c6b65dfc64c",
    (3, 5, 2): "1aca1d6f9146c194dd855e33506893c4f88dd1b1f585a1a84d6a22532338b42d",
    (3, 5, 3): "bb154a353648f91b790546f20db6eb4727acf022ddd190a64d95173107c45157",
    (3, 7, 1): "487aace3d7ac02136b5e09ca04356bad28e0f766ba396784f047789b15882a8d",
    (3, 7, 2): "4271e6069e55b48765fb5d72c46e3d269f831809d8699e31b032d3faeb791243",
    (3, 7, 3): "7e0ad7ada9b1e6cd4052421ed33a2990a2086facbedba8c1523803eb2e9f3c13",
    (3, 8, 1): "3c05f2f7a7c3d31e7a0ccaf22f0e01e99f6d55d9f91a58d649cf351192f3dd49",
    (3, 8, 2): "7e19aa8b30263c15a983285ed8e64802fadb5b98fdf23551d283c103aaa58a6c",
    (3, 8, 3): "1d8cc7d3f9b486a2973f8a7f4526d694d56a56019c7bfcfb49b58335b4ff7d2d",
    (3, 9, 1): "d3ed3265961b141a4e2a1f079c57b61dd05e1f2b796bf089cd424369c5df5ad1",
    (3, 9, 2): "573c4a6a0d31b975455e81f257085804f0ac3682fdf6b4d5825ae0942f21aa82",
    (3, 9, 3): "ebe544b4d208df7bc952f3bf60d3a8e3ee6ff1baefd09801a212a745f76b7ec0",
}


@pytest.mark.parametrize("n,q,r", sorted(MATRIX_DIGESTS), ids=[f"M({n},{q};r={r})" for n, q, r in sorted(MATRIX_DIGESTS)])
def test_matrix_algebra_tables_are_frozen(n, q, r):
    alg = matrix_algebra(n, q, r)
    key = (alg.table, alg.unit, alg.label, alg.meta["n"], alg.meta["r"], alg.meta["coeff_field"].q)
    assert hashlib.sha256(repr(key).encode()).hexdigest() == MATRIX_DIGESTS[(n, q, r)]


def in_span(alg, basis, v):
    eng = alg._eng()
    rows = {}
    for b in basis:
        eng.insert(rows, eng.flatten(b))
    return eng.insert(rows, eng.flatten(v)) is None


SCALAR_CASES = [
    matrix_algebra(2, 4),
    truncated_local_algebra(4, 1, 2, 1, 1),
    truncated_local_algebra(9, 1, 1, 1, 2),
]


@pytest.mark.parametrize("alg", SCALAR_CASES, ids=[alg.label for alg in SCALAR_CASES])
def test_closure_is_an_fq_subalgebra(alg):
    F = alg.base
    scalars = [tuple(F.mul(c, F.pow(F.p, t)) for c in alg.unit) for t in range(F.e)]
    empty = closure(alg, [])
    assert empty.rank == 1
    assert all(in_span(alg, empty.basis, s) for s in scalars)
    rng = random.Random(7)
    for _ in range(20):
        elems = [tuple(rng.randrange(F.q) for _ in range(alg.dim)) for _ in range(rng.randint(1, 2))]
        sub = closure(alg, elems)
        assert all(in_span(alg, sub.basis, x) for x in elems)
        for s in scalars:
            for b in sub.basis:
                assert in_span(alg, sub.basis, alg.multiply(s, b))
                assert in_span(alg, sub.basis, alg.multiply(b, s))


@pytest.mark.parametrize(
    "build,name",
    [
        (lambda: matrix_algebra(0, 2), "n"),
        (lambda: matrix_algebra(2, 2, 0), "r"),
        (lambda: matrix_over(matrix_algebra(1, 2), 0), "n"),
        (lambda: truncated_local_algebra(2, 0, 1, 1, 1), "f"),
        (lambda: truncated_local_algebra(2, 1, 0, 1, 1), "m"),
        (lambda: truncated_local_algebra(2, 1, 1, 1, 0), "e"),
        (lambda: truncated_local_algebra(2, 1, 1, 1, -1), "e"),
    ],
)
def test_constructors_reject_parameters_below_one(build, name):
    with pytest.raises(OrdgenError, match=f" {name} must be at least 1, got {name}="):
        build()


@pytest.mark.parametrize("q,a_squared", [(2, 1), (4, 1), (4, 2)])
def test_verify_refuses_non_associative_table(q, a_squared):
    # basis 1, a, b with a*a = a_squared * b, b*a = a, a*b = b*b = 0:
    # (a*a)*a = a_squared * a but a*(a*a) = a_squared * (a*b) = 0
    one, a, b, zero3 = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
    table = [[one, a, b], [a, (0, 0, a_squared), zero3], [b, a, zero3]]
    with pytest.raises(InvalidTable, match="associativity fails"):
        FiniteAlgebra(field_of(q), table, one)


def first_failing_triple(q, table):
    """The first basis triple (a, b, c), in lexicographic order, with (a*b)*c != a*(b*c),
    multiplied out coordinate by coordinate; None when the table is associative."""
    F = field_of(q)
    d = len(table)

    def mul(x, y):
        out = [0] * d
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                c = F.mul(xi, yj)
                for t, v in enumerate(table[i][j]):
                    out[t] = F.add(out[t], F.mul(c, v))
        return out

    basis = [[int(i == j) for j in range(d)] for i in range(d)]
    for a, b, c in itertools.product(range(d), repeat=3):
        if mul(mul(basis[a], basis[b]), basis[c]) != mul(basis[a], mul(basis[b], basis[c])):
            return a, b, c
    return None


def test_verify_names_the_first_triple_in_abc_order():
    """Here (1,1,2) fails first in (a, b, c) order and (2,1,1) first in the
    (b, c, a) order that the check loops in; the error names (1,1,2)."""
    one, a, b = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    table = [[one, a, b], [a, (1, 1, 0), (1, 1, 0)], [b, a, (0, 0, 0)]]
    assert first_failing_triple(2, table) == (1, 1, 2)
    with pytest.raises(InvalidTable, match=re.escape("associativity fails on basis triple (1,1,2) of algebra(dim=3, q=2)")):
        FiniteAlgebra(field_of(2), table, one)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(2, 4), st.data())
def test_verify_names_the_first_failing_triple(q, d, data):
    """Random tables with basis vector 0 as the unit: construction refuses
    exactly the non-associative ones and names their first failing triple."""
    basis = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    entry = st.tuples(*[st.integers(0, q - 1)] * d)
    table = [[basis[i + j] if 0 in (i, j) else data.draw(entry) for j in range(d)] for i in range(d)]
    failed = first_failing_triple(q, table)
    if failed is None:
        FiniteAlgebra(field_of(q), table, basis[0])
    else:
        triple = "({},{},{})".format(*failed)
        with pytest.raises(InvalidTable, match=re.escape(f"associativity fails on basis triple {triple} of ")):
            FiniteAlgebra(field_of(q), table, basis[0])


def test_singular_matrix_and_missing_root_raise_certificate_errors_under_optimisation():
    src = os.path.dirname(os.path.dirname(finalg.__file__))
    code = (
        "from ordgen import finalg\n"
        "from ordgen.errors import CertificateError\n"
        "from ordgen.finfield import build_field\n"
        "for call in (lambda: finalg._inv_matrix_mod_p([[1, 2], [2, 4]], 5),\n"
        "             lambda: finalg._subfield_embedding(build_field(2, 2), build_field(2, 3))):\n"
        "    try:\n"
        "        call()\n"
        "    except CertificateError as exc:\n"
        "        print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "singular matrix\nmodulus has no root in the extension\n"


@pytest.mark.parametrize("q,unit", [(2, (1, 1, 0)), (2, (0, 0, 1)), (4, (2, 0, 0)), (4, (3, 0, 0))])
def test_verify_refuses_wrong_unit(q, unit):
    diag = [[(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 0), (0, 1, 0), (0, 0, 0)], [(0, 0, 1), (0, 0, 0), (0, 0, 1)]]
    FiniteAlgebra(field_of(q), diag, (1, 0, 0))  # F_q x F_q x F_q on idempotents 1, e1, e2 is fine
    with pytest.raises(InvalidTable, match="unit law fails"):
        FiniteAlgebra(field_of(q), diag, unit)


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize(
    "table",
    [
        [[(1, 0), (0, 1)], [(0, 0), (0, 0)]],  # span{E11, E12}: E11 is a left unit only, E12 * E11 = 0
        [[(1, 0), (0, 0)], [(0, 1), (0, 0)]],  # span{E11, E21}: E11 is a right unit only, E11 * E21 = 0
    ],
    ids=["left", "right"],
)
def test_verify_refuses_one_sided_unit(q, table):
    with pytest.raises(InvalidTable, match="unit law fails"):
        FiniteAlgebra(field_of(q), table, (1, 0))


@pytest.mark.parametrize(
    "table,unit,match",
    [
        ([[(1, 0), (0, 1)], [(0, 1)]], (1, 0), r"structure table of .* is not 2 x 2 vectors of length 2"),
        ([[(1, 0), (0, 1)], [(0, 1), (0,)]], (1, 0), r"structure table of .* is not 2 x 2 vectors of length 2"),
        ([[(1, 0), (0, 1)], [(0, 1), (0, 0)]], (1,), r"unit of .* has length 1, not 2"),
    ],
)
def test_malformed_table_raises_typed_error(table, unit, match):
    with pytest.raises(InvalidTable, match=match):
        FiniteAlgebra(field_of(2), table, unit)


def test_verify_refuses_non_associative_table_under_optimisation():
    src = os.path.dirname(os.path.dirname(finalg.__file__))
    code = (
        "from ordgen.errors import InvalidTable\n"
        "from ordgen.finalg import FiniteAlgebra\n"
        "from ordgen.finfield import field_of\n"
        "one, a, b, z = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)\n"
        "try:\n"
        "    FiniteAlgebra(field_of(2), [[one, a, b], [a, b, z], [b, a, z]], one)\n"
        "except InvalidTable as exc:\n"
        "    print('refused:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused: associativity fails on basis triple")


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: twisted_element(matrix_algebra(2, 2), (1,)), "is not a truncated local algebra"),
        (lambda: twisted_element(TW2, (1, 1, 1)), "takes at most 2 pi-power coefficients, got 3"),
        (lambda: twisted_element(TW2, (4,)), "coefficient 4 is not an element of F_4"),
        (lambda: twisted_element(TW2, (-1,)), "coefficient -1 is not an element of F_4"),
        (lambda: matrix_element(TW2, [[0]]), "is not a matrix algebra"),
    ],
)
def test_element_builders_raise_typed_errors(call, match):
    with pytest.raises(InvalidElement, match=match):
        call()


@pytest.mark.parametrize(
    "base,build",
    [
        (lambda: matrix_algebra_base(0, 2), lambda: matrix_algebra(0, 2)),
        (lambda: matrix_algebra_base(2, 2, 0), lambda: matrix_algebra(2, 2, 0)),
        (lambda: matrix_algebra_base(2, 6), lambda: matrix_algebra(2, 6)),
        (lambda: matrix_algebra_base(0, 6), lambda: matrix_algebra(0, 6)),
        (lambda: matrix_algebra_base(2, 2, 21), lambda: matrix_algebra(2, 2, 21)),
        (lambda: truncated_local_base(2, 1, 2, 2, 1), lambda: truncated_local_algebra(2, 1, 2, 2, 1)),
        (lambda: truncated_local_base(2, 0, 1, 1, 1), lambda: truncated_local_algebra(2, 0, 1, 1, 1)),
        (lambda: truncated_local_base(2, 5, 5, 1, 1), lambda: truncated_local_algebra(2, 5, 5, 1, 1)),
        (
            lambda: product_base(field_of(2), field_of(4)),
            lambda: product_algebra(matrix_algebra(1, 2), matrix_algebra(1, 4)),
        ),
    ],
)
def test_base_checks_raise_what_the_constructors_raise(base, build):
    with pytest.raises(OrdgenError) as want:
        build()
    with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
        base()


def test_base_checks_return_the_base_field():
    assert matrix_algebra_base(3, 4, 2) == matrix_algebra(1, 4, 2).base == field_of(4)
    assert truncated_local_base(3, 1, 2, 1, 2) == truncated_local_algebra(3, 1, 2, 1, 2).base == field_of(3)
    assert product_base(field_of(9), field_of(9)) == field_of(9)


def test_unit_is_two_sided_identity():
    alg = matrix_algebra(2, 2)
    for a in itertools.product(range(alg.base.q), repeat=alg.dim):
        assert alg.multiply(alg.unit, a) == a
        assert alg.multiply(a, alg.unit) == a


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


@pytest.mark.parametrize(
    "q,exponent,budget,required",
    [
        (2, 100, 2**100 - 1, 2**100),
        (2, 8191, 1, 2**8191),  # the largest count written out: 8192 bits
        (2, 8192, 1, "2^8192"),
        (3, 5000, 1, 3**5000),  # 7925 bits
        (3, 5200, 1, "3^5200"),  # 8242 bits
        (4, 10**15, 1, "4^1000000000000000"),  # never formed
        (2, 15000, 2**14000, "2^15000"),  # a budget above 8192 bits
    ],
    ids=["2^100", "2^8191", "2^8192", "3^5000", "3^5200", "4^10^15", "2^15000"],
)
def test_tuple_budget_writes_counts_out_below_8192_bits(q, exponent, budget, required):
    with pytest.raises(BudgetExceeded) as info:
        check_budget(q, exponent, budget=budget)
    assert info.value.required == required
    assert str(info.value) == f"request needs {required} tuples, budget is {budget}"


@pytest.mark.parametrize("q,exponent", [(2, 100), (3, 5000), (2, 14000), (7, 0)])
def test_tuple_budget_admits_a_count_equal_to_the_budget(q, exponent):
    check_budget(q, exponent, budget=q**exponent)


@pytest.mark.parametrize(
    "base,exponent,power,written",
    [
        (65536, 1, False, 65536),
        (10**3000, 1, False, 10**3000),  # given as itself: written in full past 8192 bits
        (2, 8191, False, 2**8191),
        (2, 8192, False, "2^8192"),
        (2, 30, True, "2^30"),
        (10**30 + 57, 1, True, f"{10**30 + 57}^1"),
        (10**4300, 1, False, "more than 2^8192"),  # 4301 digits
        (2, 10**4300, False, "more than 2^8192"),
        (2, 10**4300, True, "more than 2^8192"),
        (10**4300, 2, False, "more than 2^8192"),
    ],
    ids=["65536", "10^3000", "2^8191", "2^8192", "power-2^30", "power-p^1", "10^4300", "2^10^4300",
         "power-2^10^4300", "10^8600"],
)
def test_written_size_follows_one_rule(base, exponent, power, written):
    assert written_size(base, exponent, power=power) == written


def test_huge_exhaustive_request_is_refused_without_forming_its_count():
    with pytest.raises(BudgetExceeded, match=r"^request needs 2\^4000000000000 tuples, budget is 67108864$"):
        brute_gen_count(M22, 10**12, budget=DEFAULT_BUDGET)


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


@pytest.mark.parametrize("budget", [0, -3, 2.5, "100", True])
@pytest.mark.parametrize(
    "call",
    [
        lambda budget: brute_gen_count(matrix_algebra(1, 2), 1, budget=budget),
        lambda budget: sample_gen_fraction(matrix_algebra(1, 2), 1, 10, budget=budget),
        lambda budget: lift_count(TW2, TW2.radical_basis, (twisted_element(TW2, (2,)), TW2.unit), budget=budget),
    ],
    ids=["brute", "sample", "lift"],
)
def test_budget_argument_must_be_a_positive_integer(call, budget):
    with pytest.raises(OrdgenError, match="budget must be a positive integer") as info:
        call(budget)
    assert not isinstance(info.value, BudgetExceeded)


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

    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two parts even on a one-CPU host
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
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

        def map(self, fn, *columns):
            raise error

    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two parts even on a one-CPU host
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FailingPool)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(type(error), match="bad part"):
            sample_gen_fraction(matrix_algebra(2, 2), 2, 500, seed=7, workers=2)


@pytest.mark.parametrize("cpus", [None, 1, 2, 3])
def test_pool_asks_for_at_most_one_worker_per_cpu(monkeypatch, cpus):
    # A recording stand-in for the pool: no process starts, the parts run in this one.
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *columns):
            return map(fn, *columns)

    serial = sample_gen_fraction(matrix_algebra(2, 2), 2, 500, seed=7)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert sample_gen_fraction(matrix_algebra(2, 2), 2, 500, seed=7, workers=10**6) == serial
    assert asked == ([] if cpus in (None, 1) else [cpus])  # one CPU, or an unknown count, works serially


def test_import_loads_no_process_machinery():
    # The pool, and with it concurrent.futures and logging, is imported only
    # when more than one worker splits the samples.
    src = os.path.dirname(os.path.dirname(finalg.__file__))
    code = (
        "import sys\n"
        "machinery = ('multiprocessing', 'concurrent.futures', 'concurrent.futures.process', 'logging')\n"
        "import ordgen\n"
        "print(sorted(m for m in machinery if m in sys.modules))\n"
        "import ordgen.cli\n"
        "print(sorted(m for m in machinery if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "[]", ""]


@pytest.mark.parametrize("workers", [0, -1])
def test_sampling_refuses_fewer_than_one_worker(workers):
    with pytest.raises(InvalidCount, match=f"workers={workers}"):
        sample_gen_fraction(matrix_algebra(2, 2), 2, 500, seed=7, workers=workers)


def test_sampled_fraction_tracks_exact_fraction():
    alg = matrix_algebra(2, 2)
    est = sample_gen_fraction(alg, 2, 2000, seed=1)
    assert abs(est.fraction - 96 / 256) < 0.05


def test_product_algebra_multiplies_componentwise():
    f2 = matrix_algebra(1, 2)
    prod = product_algebra(f2, f2)
    prod._verify()
    assert prod.dim == 2
    # (1,0) and (0,1) are the two idempotent generators
    assert brute_gen_count(prod, 1) == 2


def test_product_of_matrix_algebras_count():
    alg = product_algebra(matrix_algebra(1, 3), matrix_algebra(1, 3))
    # pairs (a, b) generate F_3 x F_3 iff a != b: 9*9 - 3*... by brute force
    assert brute_gen_count(alg, 1) == 6


def test_truncated_local_algebra_shape():
    alg = truncated_local_algebra(2, 1, 2, 1, 1)
    alg._verify()
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
    alg._verify()
    assert alg.size == 9
    u = twisted_element(alg, (0, 1))
    assert alg.multiply(u, u) == zero(alg)
    assert brute_gen_count(alg, 1) == 6  # a + bu generates iff b != 0


def test_matrix_over_wraps_scalar_algebra():
    inner = matrix_algebra(1, 2)
    alg = matrix_over(inner, 2)
    alg._verify()
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

    for engine in finalg._Engine.__subclasses__():
        monkeypatch.setattr(engine, "span_elements", refuse)
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
        with pytest.raises(InvalidTable, match=f"^{name} is not a two-sided ideal$"):
            call()


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_ideal_that_is_not_nilpotent_is_refused(q):
    field = matrix_algebra(1, q)
    alg = product_algebra(field, field)
    for call, name in _span_checkers(alg, [(1, 0)]):  # the factor F_q x 0
        with pytest.raises(InvalidTable, match=f"^{name} is not nilpotent$"):
            call()


def test_radical_basis_that_is_not_nilpotent_raises_a_typed_error():
    f2 = matrix_algebra(1, 2)
    diagonal = product_algebra(product_algebra(f2, f2), f2)  # F_2^3
    with pytest.raises(InvalidTable, match="^radical span of F_2\\^3 is not nilpotent$") as info:
        FiniteAlgebra(diagonal.base, diagonal.table, diagonal.unit, [(0, 1, 0)], "F_2^3")
    assert isinstance(info.value, OrdgenError)
    assert not isinstance(info.value, ValueError)


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


SPAN_ALGEBRAS = [
    M22,
    matrix_algebra(2, 3),
    matrix_algebra(2, 4),
    matrix_algebra(1, 3, 3),
    truncated_local_algebra(3, 1, 2, 1, 1),
    truncated_local_algebra(4, 1, 1, 1, 3),
    product_algebra(F4, M22),
    product_algebra(matrix_algebra(1, 3), truncated_local_algebra(3, 1, 1, 1, 2)),
]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(SPAN_ALGEBRAS),
    st.lists(st.integers(0, 1 << 16), max_size=2),
    st.lists(st.integers(0, 1 << 16), max_size=2),
)
def test_coset_representatives_inside_a_closure_span_its_rows_off_the_pivots(alg, s_idx, t_idx):
    """For closed S inside T, the rows of T whose pivots are not pivots of S span
    exactly the coset representatives of S that lie in T: the skip set of the
    last level of the oracle ``per_coset_gen_count``."""
    eng = alg._eng()
    S = finalg._close(eng, [], eng.scalars + [eng.flat_of_index(i % alg.size) for i in s_idx])
    T = finalg._close(eng, list(S), [eng.flat_of_index(i % alg.size) for i in t_idx])
    pivots = {eng.pivot(r) for r in S}
    assert pivots <= {eng.pivot(r) for r in T}
    span = eng.span_elements([r for r in T if eng.pivot(r) not in pivots])
    inside = [x for x in finalg._coset_flats(eng, S) if eng.insert({eng.pivot(r): r for r in T}, x) is None]
    assert len(span) == len(set(span)) == eng.p ** (len(T) - len(S))
    assert set(span) == set(inside)


def local_count_k1(q, f, e):
    """Generating elements of F_{q^f}[u]/(u^e) over F_q: a generator of the residue
    field plus a u-coefficient that is not zero, the higher coefficients free."""
    head = gen_count_twisted(1, 1, q, f)
    return head if e == 1 else head * (q**f - 1) * q ** (f * (e - 2))


K1_CASES = [
    (matrix_algebra(1, 3), gen_count_exact(1, 1, 3)),
    (M22, gen_count_exact(1, 2, 2)),
    (matrix_algebra(2, 3), gen_count_exact(1, 2, 3)),
    (matrix_algebra(3, 2), gen_count_exact(1, 3, 2)),
    (matrix_algebra(1, 2, 3), gen_count_twisted(1, 1, 2, 3)),
    (matrix_algebra(1, 2, 4), gen_count_twisted(1, 1, 2, 4)),
    (matrix_algebra(1, 3, 2), gen_count_twisted(1, 1, 3, 2)),
    (matrix_algebra(1, 4, 2), gen_count_twisted(1, 1, 4, 2)),
    (matrix_algebra(2, 2, 2), gen_count_twisted(1, 2, 2, 2)),
    (truncated_local_algebra(2, 1, 1, 1, 3), local_count_k1(2, 1, 3)),
    (truncated_local_algebra(2, 2, 1, 1, 2), local_count_k1(2, 2, 2)),
    (truncated_local_algebra(3, 2, 1, 1, 2), local_count_k1(3, 2, 2)),
    (truncated_local_algebra(4, 1, 1, 1, 3), local_count_k1(4, 1, 3)),
    (truncated_local_algebra(2, 1, 2, 1, 1), 0),  # not commutative
    (
        product_algebra(matrix_algebra(1, 2, 2), matrix_algebra(1, 2, 3)),
        gen_count_twisted(1, 1, 2, 2) * gen_count_twisted(1, 1, 2, 3),
    ),
    (
        product_algebra(matrix_algebra(1, 3), matrix_algebra(1, 3, 2)),
        gen_count_exact(1, 1, 3) * gen_count_twisted(1, 1, 3, 2),
    ),
    (product_algebra(matrix_algebra(1, 2), truncated_local_algebra(2, 2, 1, 1, 2)), 2 * local_count_k1(2, 2, 2)),
    (product_algebra(F4, M22), 0),
]


@pytest.mark.parametrize("alg,count", K1_CASES, ids=[alg.label for alg, _ in K1_CASES])
def test_single_generators_match_closed_forms(alg, count):
    """k = 1, where the scalars' span is the only subalgebra of the last level.

    A product of algebras with no common simple quotient is generated exactly
    by pairs of generators (P. Hall's product relation)."""
    assert brute_gen_count(alg, 1) == count


CLOSURE_COUNT_CASES = [
    (M22, 2, (9, 1, 4, 7), 145),
    (M22, 3, (45, 1, 6, 10), 321),
    (matrix_algebra(2, 3), 2, (28, 1, 4, 7), 1216),
    (matrix_algebra(3, 2), 2, (257, 16, 224, 272), None),  # 98 305 per-element closures: too slow to repeat here
    (product_algebra(M22, M22), 2, (129, 5, 60, 75), None),  # 29 441 per-element closures
]


@pytest.mark.parametrize(
    "alg,k,work,naive_closures",
    CLOSURE_COUNT_CASES,
    ids=[f"{alg.label}-k{k}" for alg, k, _, _ in CLOSURE_COUNT_CASES],
)
def test_closure_counts_of_exhaustive_oracle(monkeypatch, alg, k, work, naive_closures):
    """Closures above the last generator, batches of the last generator, and
    the batches' lane products and insertions.  The cosets of every
    subalgebra at the last level share batches of up to 1024 lanes, and a
    round multiplies one row per live lane.  Sweeps by slot in batches of up
    to 256 lanes made 61 batches, 2 370 products and 2 553 insertions on
    M_3(F_2) at k = 2, and 20, 596 and 656 on M_2(F_2)^2.  Closing
    one coset at a time and skipping those inside a proper closure took
    45, 87, 143, 7 834 and 1 924 closures; without the skip, 172 on
    M_2(F_3), 15 809 on M_3(F_2) and 5 073 on M_2(F_2)^2 at k = 2."""
    eng = alg._eng()
    calls = dict.fromkeys(["_close", "_close_batch", "batch_product", "batch_insert"], 0)

    def counting(owner, name):
        method = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(owner, name, counted)

    for owner, names in ((finalg, ["_close", "_close_batch"]), (eng, ["batch_product", "batch_insert"])):
        for name in names:
            counting(owner, name)
    value = brute_gen_count(alg, k)
    assert tuple(calls.values()) == work
    if naive_closures is None:
        return
    calls["_close"] = 0
    assert naive_gen_count(alg, k) == value
    assert calls["_close"] == naive_closures


@pytest.mark.parametrize(
    "n,q,samples,hits,applications,builds",
    [(3, 3, 3000, 2334, 29302, 5996), (3, 2, 6000, 2967, 60702, 11929)],
)
def test_engine_products_of_sampling(monkeypatch, n, q, samples, hits, applications, builds):
    """Right-operator applications and builds of the closure kernel, on the
    per-sample oracle that closed one drawn tuple at a time.  The closure
    that called ``mul`` once per product made 29 343 and 60 919 products; the
    two-sided one made 78 805 and 215 735."""
    alg = matrix_algebra(n, q)
    eng = alg._eng()
    calls = {"apply": 0, "right_op": 0}

    def counting(name):
        method = getattr(eng, name)

        def counted(*args):
            calls[name] += 1
            return method(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(eng, name, counting(name))
    assert not hasattr(eng, "mul") and not hasattr(eng, "tbl")  # the right operator is the only product
    assert per_sample_range(alg, 2, 0, samples, 123) == hits
    assert calls == {"apply": applications, "right_op": builds}


@pytest.mark.parametrize(
    "n,q,samples,hits,products,insertions",
    [(3, 3, 3000, 2334, 42, 51), (3, 2, 6000, 2967, 84, 102)],
    ids=["M_3(F_3)", "M_3(F_2)"],
)
def test_batch_products_of_sampling(monkeypatch, n, q, samples, hits, products, insertions):
    """Lane products and insertions of the batched sampler, for the tuples of
    ``test_engine_products_of_sampling``, in 3 and 6 batches of at most 1024
    samples.  Each batch inserts the scalars and its 2 drawn elements, then
    every product.  Sweeps by slot in 12 and 24 batches of at most 256
    samples made 266 and 950 products and 302 and 1 022 insertions."""
    alg = matrix_algebra(n, q)
    eng = alg._eng()
    calls = {"batch_product": 0, "batch_insert": 0}

    def counting(name):
        method = getattr(eng, name)

        def counted(*args):
            calls[name] += 1
            return method(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(eng, name, counting(name))
    close = finalg._close
    closures = []
    monkeypatch.setattr(finalg, "_close", lambda *args: closures.append(args) or close(*args))
    assert sample_gen_fraction(alg, 2, samples, seed=123).hits == hits
    assert calls == {"batch_product": products, "batch_insert": insertions}
    assert len(closures) == 1  # the scalars' span, once; no closure per sample


def test_sampling_working_set_is_bounded():
    """A batch's slots and generator masks take (D^2 + k*D*ceil(log2 p))*B*w
    bits, 164 736 bytes here, and the slots' pivot inverses D*ceil(log2 p)*B*w
    more, 25 344 bytes; the peak stays below twice their sum.  Each generator
    is drawn into one packed integer and its digits are peeled off it, with
    no object per sample: a layout with per-sample bytes objects peaked at
    260 KiB with 512 lanes.  The factor 2 keeps the margin of the bound at
    B = 256, 96 KiB against 47 520 bytes (2.07 times)."""
    alg = matrix_algebra(3, 3)
    eng = alg._eng()
    sample_gen_fraction(alg, 2, 10, seed=1)  # builds the lane terms
    B, w, D, bits = finalg._batch_size(eng, 2), eng.b, eng.D, (eng.p - 1).bit_length()
    slots_and_masks, inverses = (D**2 + 2 * D * bits) * B * w // 8, D * bits * B * w // 8
    assert (B, w, slots_and_masks, inverses) == (1024, 11, 164736, 25344)
    tracemalloc.start()
    try:
        sample_gen_fraction(alg, 2, 3000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (slots_and_masks + inverses)


def test_closure_of_a_rank_that_is_not_an_fq_span_is_refused(monkeypatch):
    """A kernel whose rows do not span an F_q-space fails loudly, also under python -O."""
    alg = matrix_algebra(2, 4)
    close = finalg._close
    monkeypatch.setattr(finalg, "_close", lambda *args: close(*args)[1:])
    with pytest.raises(CertificateError, match="F_2-rank 1, which is not a multiple of 2"):
        closure(alg, [])
    src = os.path.dirname(os.path.dirname(finalg.__file__))
    code = (
        "from ordgen import finalg\n"
        "close = finalg._close\n"
        "finalg._close = lambda *args: close(*args)[1:]\n"
        "try:\n"
        "    finalg.closure(finalg.matrix_algebra(1, 4), [])\n"
        "except finalg.CertificateError as exc:\n"
        "    print('refused:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "refused: the closure has F_2-rank 1, which is not a multiple of 2\n"


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
