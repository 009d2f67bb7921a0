"""The packed engines and the right-multiplying closure against the code they replaced.

The oracles below are the tuple engine for odd p and the two-sided closure
that ``finalg`` used before odd-p vectors were packed into integer lanes and
``_close`` multiplied only on the right.  Swapped into an algebra, they must
give the same rows, bases, coset representatives and counts as ``finalg``.
"""

import contextlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordgen import finalg
from ordgen.finalg import (
    brute_gen_count,
    closure,
    coset_representatives,
    matrix_algebra,
    product_algebra,
    truncated_local_algebra,
)


class TupleGfpEngine:
    """Flattened F_p engine for odd p: vectors are coordinate tuples mod p.

    Flat coordinate i*e + t stands for x^t times the i-th basis vector.  Table
    entries are sparse (index, coefficient) pairs of the product vector.  A
    row's pivot is its lowest non-zero coordinate, and rows are kept in
    increasing pivot order.
    """

    def __init__(self, alg):
        F = alg.base
        e = F.e
        dim = alg.dim
        self.D = dim * e
        self.e = e
        self.p = F.p
        xpow = [F.pow(F.p, s) for s in range(2 * e - 1)] if e > 1 else [1]
        flat = self.flatten
        self.tbl = []
        for i in range(dim):
            for t in range(e):
                row = []
                for j in range(dim):
                    for u in range(e):
                        vec = flat(tuple(F.mul(c, xpow[t + u]) for c in alg.table[i][j]))
                        row.append(tuple((idx, c) for idx, c in enumerate(vec) if c))
                self.tbl.append(row)
        self.scalars = [flat(tuple(F.mul(c, xpow[t]) for c in alg.unit)) for t in range(e)]
        self.size = alg.size

    def flatten(self, coords):
        e, p = self.e, self.p
        out = []
        for c in coords:
            for _ in range(e):
                out.append(c % p)
                c //= p
        return tuple(out)

    def unflatten(self, flat):
        e, p = self.e, self.p
        out = []
        for i in range(0, self.D, e):
            acc = 0
            for t in reversed(range(e)):
                acc = acc * p + flat[i + t]
            out.append(acc)
        return tuple(out)

    def flat_of_index(self, idx):
        p = self.p
        out = []
        for _ in range(self.D):
            out.append(idx % p)
            idx //= p
        return tuple(out)

    def mul(self, u, v):
        p = self.p
        acc = [0] * self.D
        for i, ui in enumerate(u):
            if ui:
                row = self.tbl[i]
                for j, vj in enumerate(v):
                    if vj:
                        c = ui * vj % p
                        for idx, wc in row[j]:
                            acc[idx] = (acc[idx] + c * wc) % p
        return tuple(acc)

    def add(self, u, v):
        return tuple((x + y) % self.p for x, y in zip(u, v))

    @staticmethod
    def pivot(row):
        return next(i for i, x in enumerate(row) if x)

    def insert(self, rows, v):
        p = self.p
        v = list(v)
        for r in rows:
            piv = next(i for i, x in enumerate(r) if x)
            c = v[piv]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, r)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return None
        inv = pow(v[piv], p - 2, p)
        v = tuple(x * inv % p for x in v)
        for i, r in enumerate(rows):
            c = r[piv]
            if c:
                rows[i] = tuple((x - c * y) % p for x, y in zip(r, v))
        pos = 0
        while pos < len(rows) and next(i for i, x in enumerate(rows[pos]) if x) < piv:
            pos += 1
        rows.insert(pos, v)
        return v

    def span_elements(self, rows):
        out = [tuple([0] * self.D)]
        for r in rows:
            out = [tuple((x + c * y) % self.p for x, y in zip(v, r)) for v in out for c in range(self.p)]
        return out


def two_sided_close(eng, base_rows, new_flats):
    """Echelon basis of the span closed under products on both sides with every rep."""
    rows = list(base_rows)
    reps = list(base_rows)
    work = []
    D = eng.D

    def add(vec):
        red = eng.insert(rows, vec)
        if red is not None:
            reps.append(red)
            work.append(red)

    for v in new_flats:
        if len(rows) == D:
            break
        add(v)
    while work and len(rows) < D:
        x = work.pop()
        for y in list(reps):
            add(eng.mul(x, y))
            if len(rows) == D:
                return rows
            add(eng.mul(y, x))
            if len(rows) == D:
                return rows
    return rows


def tuple_coset_flats(eng, rows):
    """One flat per coset of the span of an echelon basis, for either engine."""
    p, D = eng.p, eng.D
    if p == 2:
        pivots = {r.bit_length() - 1 for r in rows}
        out = [0]
        for pos in range(D):
            if pos not in pivots:
                bit = 1 << pos
                out = [y for x in out for y in (x, x | bit)]
        return out
    pivots = {next(i for i, x in enumerate(r) if x) for r in rows}
    free = [i for i in range(D) if i not in pivots]
    out = []
    for combo in itertools.product(range(p), repeat=len(free)):
        vec = [0] * D
        for pos, c in zip(free, combo):
            vec[pos] = c
        out.append(tuple(vec))
    return out


def reference_engine(alg):
    """The engine the oracle runs on: tuples for odd p; for p = 2 the bit engine,
    whose arithmetic the packing left as it was."""
    return finalg._Gf2Engine(alg) if alg.base.p == 2 else TupleGfpEngine(alg)


@contextlib.contextmanager
def old_code(alg):
    """Run finalg's public functions on alg through the oracles."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(alg, "_engine", reference_engine(alg))
        mp.setattr(finalg, "_close", two_sided_close)
        mp.setattr(finalg, "_coset_flats", tuple_coset_flats)
        yield alg._engine


def candidate_algebras(q):
    """Small algebras over F_q: matrix, extension, truncated local and product algebras."""
    field = matrix_algebra(1, q)
    return [
        field,
        matrix_algebra(2, q),
        matrix_algebra(1, q, 2),
        matrix_algebra(2, q, 2),
        matrix_algebra(3, q),
        truncated_local_algebra(q, 1, 1, 1, 2),
        truncated_local_algebra(q, 1, 1, 1, 3),
        truncated_local_algebra(q, 1, 2, 1, 1),
        truncated_local_algebra(q, 2, 1, 1, 2),
        truncated_local_algebra(q, 1, 2, 1, 2),
        product_algebra(field, field),
        product_algebra(field, truncated_local_algebra(q, 1, 1, 1, 2)),
    ]


_CANDIDATES = {p**e: candidate_algebras(p**e) for p in (2, 3, 5, 7) for e in (1, 2)}


def elements(alg, rng, count):
    return [tuple(rng.randrange(alg.base.q) for _ in range(alg.dim)) for _ in range(count)]


@st.composite
def algebra_cases(draw, max_size=float("inf")):
    """An algebra over F_q with q = p^e, p in {2, 3, 5, 7} and e in {1, 2}, and a random source."""
    q = draw(st.sampled_from(sorted(_CANDIDATES)))
    alg = draw(st.sampled_from([alg for alg in _CANDIDATES[q] if alg.size <= max_size]))
    return alg, random.Random(draw(st.integers(0, 2**32)))


def check_close(alg, base_elems, new_elems):
    """_close from the scalars and from the closed base, and closure(), against the oracles."""
    eng = alg._eng()
    base = finalg._close(eng, [], eng.scalars + [eng.flatten(x) for x in base_elems])
    got_from_scalars = finalg._close(eng, [], eng.scalars + [eng.flatten(x) for x in new_elems])
    got_from_base = finalg._close(eng, list(base), [eng.flatten(x) for x in new_elems])
    got_basis = closure(alg, base_elems + new_elems).basis
    with old_code(alg) as ref:
        ref_base = two_sided_close(ref, [], ref.scalars + [ref.flatten(x) for x in base_elems])
        want_from_scalars = two_sided_close(ref, [], ref.scalars + [ref.flatten(x) for x in new_elems])
        want_from_base = two_sided_close(ref, list(ref_base), [ref.flatten(x) for x in new_elems])
        want_basis = closure(alg, base_elems + new_elems).basis
    assert [eng.unflatten(r) for r in base] == [ref.unflatten(r) for r in ref_base]
    assert [eng.unflatten(r) for r in got_from_scalars] == [ref.unflatten(r) for r in want_from_scalars]
    assert [eng.unflatten(r) for r in got_from_base] == [ref.unflatten(r) for r in want_from_base]
    assert got_basis == want_basis


@settings(max_examples=200, deadline=None)
@given(algebra_cases(), st.integers(1, 3), st.integers(0, 2))
def test_close_matches_two_sided_tuple_oracle(case, extra, base_size):
    alg, rng = case
    check_close(alg, elements(alg, rng, base_size), elements(alg, rng, extra))


@pytest.mark.parametrize("alg", [matrix_algebra(3, 2), matrix_algebra(3, 3), truncated_local_algebra(2, 1, 2, 1, 2)])
def test_close_from_random_bases_matches_two_sided_tuple_oracle(alg):
    """Bases between the scalars and the whole algebra, where a closure that left
    out the products of base rows with the new elements would differ."""
    rng = random.Random(alg.size)
    for _ in range(150):
        check_close(alg, elements(alg, rng, rng.randint(1, 2)), elements(alg, rng, 1))


@settings(max_examples=60, deadline=None)
@given(algebra_cases(max_size=2**12))
def test_counts_and_coset_representatives_match_tuple_oracle(case):
    alg, _ = case
    k = max(k for k in (1, 2, 3) if k == 1 or alg.size**k <= 2**12)
    got_count = brute_gen_count(alg, k)
    got_reps = coset_representatives(alg, alg.radical_basis)
    with old_code(alg):
        assert brute_gen_count(alg, k) == got_count
        assert coset_representatives(alg, alg.radical_basis) == got_reps


# -- lanes -------------------------------------------------------------------

LANE_PRIMES = [3, 5, 7, 11, 101, 251, 1009]


def pack(eng, lanes):
    return sum(x << (i * eng.b) for i, x in enumerate(lanes))


@pytest.mark.parametrize("p", LANE_PRIMES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lanes_reduce_at_the_largest_lazy_value(p, n):
    eng = finalg._GfpEngine(matrix_algebra(n, p))
    top = eng.top
    rng = random.Random(p * 10 + n)
    cases = [
        [top - i for i in range(eng.D)],
        [top if i % 2 else p - 1 for i in range(eng.D)],
        [rng.randrange(top + 1) for _ in range(eng.D)],
    ]
    cases += [[x] * eng.D for x in range(0, top + 1, max(1, top // 2000))] + [[top] * eng.D]
    for lanes in cases:
        assert eng._reduce(pack(eng, lanes)) == pack(eng, [x % p for x in lanes])


@pytest.mark.parametrize("p", LANE_PRIMES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_at_the_largest_lane_sum(p, n):
    """u at p - 1, v at 1 and every table entry at p - 1 in every lane: each
    output lane sums D*D terms (p-1)^2 before the one reduction."""
    eng = finalg._GfpEngine(matrix_algebra(n, p))
    full = pack(eng, [p - 1] * eng.D)
    eng.tbl = [[full] * eng.D for _ in range(eng.D)]
    assert eng.D * eng.D * (p - 1) ** 2 <= eng.top
    want = eng.D * eng.D * (p - 1) ** 2 % p
    assert eng.mul(full, pack(eng, [1] * eng.D)) == pack(eng, [want] * eng.D)


@pytest.mark.parametrize("p", [3, 5, 1009])
def test_insert_matches_tuple_oracle_on_dense_vectors(p):
    """Dense vectors reduced against rows dense off their pivots, up to a full basis."""
    alg = matrix_algebra(3, p)
    eng, tup = finalg._GfpEngine(alg), TupleGfpEngine(alg)
    rng = random.Random(p)
    rows, ref_rows = [], []
    for _ in range(2 * eng.D):
        vec = [rng.randrange(1, p) for _ in range(eng.D)]
        got = eng.insert(rows, pack(eng, vec))
        want = tup.insert(ref_rows, tuple(vec))
        assert (got is None) == (want is None)
        assert [eng.unflatten(r) for r in rows] == [tup.unflatten(r) for r in ref_rows]
