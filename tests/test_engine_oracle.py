"""The packed engines and the closure kernel against the code they replaced.

The oracles below come from earlier designs of ``finalg``:

- the tuple engine for odd p and the two-sided closure, used before odd-p
  vectors were packed into integer lanes and ``_close`` multiplied only on
  the right;
- the right-multiplying closure on fully reduced, sorted row lists
  (``right_close``), with its two insertions (``gf2_insert``, ``gfp_insert``)
  and its ideal check, used before ``_close`` applied right operators to
  pivot-keyed, semi-reduced rows;
- the table product ``mul`` of both packed engines (``TableGf2Engine``,
  ``TableGfpEngine``), used before the right operator became the engines'
  only product.  It reads the D x D table of flat basis products that
  ``flat_table`` builds from the structure table, and the oracles above
  multiply through it;
- the per-sample Monte Carlo loop (``per_sample_range``), one ``_close`` per
  drawn tuple, used before the sampler closed its samples in batches of
  lanes, with the per-element draw (``drawn_indices``), one splitmix64 call
  per raw output, used before the draws of a batch were packed into lanes;
- the batch insertion that scaled each row to 1 at its pivot
  (``ScaledGfpEngine``), used before the odd-p slots kept rows unscaled
  beside their pivots' inverses;
- the depth-first enumeration (``per_coset_gen_count``), one ``_close`` per
  coset of the last generator except those its skip span settles, used
  before the exhaustive oracle decided its last generator in batches of
  lanes;
- the batch kernel that swept the pivot slots one at a time, at full width
  (``slot_close_batch``), used before each round of ``_close_batch`` took
  one row per live lane.

Swapped into an algebra, they must give the same rows, bases, coset
representatives and counts as ``finalg``.
"""

import contextlib
import functools
import itertools
import operator
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordgen import finalg
from ordgen.errors import InvalidTable
from ordgen.finalg import (
    brute_gen_count,
    closure,
    coset_representatives,
    matrix_algebra,
    product_algebra,
    truncated_local_algebra,
)


def flat_table(alg, eng):
    """tbl[a][b] = e_a * e_b for the flat basis vectors a, b of alg, packed as eng packs vectors."""
    F, e = alg.base, eng.e
    xpow = [F.pow(F.p, s) for s in range(2 * e - 1)] if e > 1 else [1]
    return [
        [eng.flatten(tuple(F.mul(c, xpow[t + u]) for c in alg.table[i][j])) for j in range(alg.dim) for u in range(e)]
        for i in range(alg.dim)
        for t in range(e)
    ]


class TableGf2Engine(finalg._Gf2Engine):
    """The bit engine with its table product."""

    def __init__(self, alg):
        super().__init__(alg)
        self.tbl = flat_table(alg, self)

    def mul(self, u, v):
        acc = 0
        tbl = self.tbl
        while u:
            low = u & -u
            row = tbl[low.bit_length() - 1]
            u ^= low
            w = v
            while w:
                lw = w & -w
                acc ^= row[lw.bit_length() - 1]
                w ^= lw
        return acc


class TableGfpEngine(finalg._GfpEngine):
    """The packed odd-p engine with its table product.

    The product once summed all D*D terms in a lane before reducing; with
    lanes that hold (D+1)(p-1)^2 it reduces after each row of the table, D
    terms of at most (p-1)^2 added to a reduced value.
    """

    def __init__(self, alg):
        super().__init__(alg)
        self.tbl = flat_table(alg, self)

    def mul(self, u, v):
        p, b, lane, tbl = self.p, self.b, self.lane, self.tbl
        vs = [(j, c) for j in range(self.D) if (c := (v >> (j * b)) & lane)]
        acc = 0
        i = 0
        while u:
            ui = u & lane
            if ui:
                row = tbl[i]
                for j, c in vs:
                    acc += (ui * c % p) * row[j]
                acc = self._reduce(acc)
            u >>= b
            i += 1
        return acc


@functools.cache
def table_engine(alg):
    """An engine for alg with the table product ``mul``, packed as alg's own engine."""
    return TableGf2Engine(alg) if alg.base.p == 2 else TableGfpEngine(alg)


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


def gf2_insert(rows, v):
    """Insert into a fully reduced echelon basis over F_2, kept in decreasing
    order; returns the reduced vector or None."""
    for r in rows:
        if v & (1 << (r.bit_length() - 1)):
            v ^= r
    if v == 0:
        return None
    pb = 1 << (v.bit_length() - 1)
    for i, r in enumerate(rows):
        if r & pb:
            rows[i] = r ^ v
    pos = 0
    while pos < len(rows) and rows[pos] > v:
        pos += 1
    rows.insert(pos, v)
    return v


def gfp_insert(eng, rows, v):
    """Insert into a fully reduced echelon basis of packed odd-p rows, kept in
    increasing pivot order; returns the reduced vector or None."""
    p, lane = eng.p, eng.lane
    for r in rows:
        c = ((v >> ((r & -r).bit_length() - 1)) & lane) % p
        if c:
            v += (p - c) * r
    v = eng._reduce(v)
    if v == 0:
        return None
    s = (v & -v).bit_length() - 1
    s -= s % eng.b  # the start of the lowest non-zero lane
    low = 1 << s
    c = (v >> s) & lane
    if c != 1:
        v = eng._reduce(v * pow(c, p - 2, p))
    for i, r in enumerate(rows):
        c = (r >> s) & lane
        if c:
            rows[i] = eng._reduce(r + (p - c) * v)
    pos = 0
    while pos < len(rows) and rows[pos] & -rows[pos] < low:
        pos += 1
    rows.insert(pos, v)
    return v


def list_insert(eng):
    """The fully reduced insertion into a row list for an engine: the tuple
    engine's own, else the packed one for its p."""
    if isinstance(eng, TupleGfpEngine):
        return eng.insert
    return gf2_insert if eng.p == 2 else functools.partial(gfp_insert, eng)


def right_close(eng, base_rows, new_flats):
    """The right-multiplying closure on a fully reduced row list, one ``mul`` per product."""
    insert = list_insert(eng)
    rows = list(base_rows)
    D = eng.D
    unit = eng.scalars[0]
    new = []
    for v in new_flats:
        if len(rows) == D:
            return rows
        red = insert(rows, v)
        if red is not None and red != unit:
            new.append(red)
    old = [s for s in base_rows if s != unit]
    gens = old + new
    work = [(s, new) for s in old] + [(x, gens) for x in new]
    while work and len(rows) < D:
        x, by = work.pop()
        for g in by:
            red = insert(rows, eng.mul(x, g))
            if red is not None:
                if len(rows) == D:
                    return rows
                work.append((red, gens))
    return rows


def list_nilpotent_ideal_rows(eng, basis, name):
    """The ideal check on a fully reduced row list."""
    insert = list_insert(eng)
    rows = []
    for v in basis:
        flat = eng.flatten(tuple(v))
        for s in eng.scalars:
            insert(rows, eng.mul(s, flat))
    for a in range(eng.D):
        ba = eng.flat_of_index(eng.p**a)
        for r in rows:
            for prod in (eng.mul(ba, r), eng.mul(r, ba)):
                if insert(list(rows), prod) is not None:
                    raise InvalidTable(f"{name} is not a two-sided ideal")
    current = rows
    while current:
        nxt = []
        for x in current:
            for y in current:
                insert(nxt, eng.mul(x, y))
        if len(nxt) >= len(current):
            raise InvalidTable(f"{name} is not nilpotent")
        current = nxt
    return rows


def two_sided_close(eng, base_rows, new_flats):
    """Echelon basis of the span closed under products on both sides with every rep."""
    insert = list_insert(eng)
    rows = list(base_rows)
    reps = list(base_rows)
    work = []
    D = eng.D

    def add(vec):
        red = insert(rows, vec)
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
    whose arithmetic the packing left as it was, with its table product."""
    return table_engine(alg) if alg.base.p == 2 else TupleGfpEngine(alg)


def per_coset_gen_count(alg, k):
    """The oracle for brute_gen_count: a depth-first search, memoized on the
    closed subalgebra S of each tuple prefix, that closes one element per
    coset of S, through ``finalg._close`` and ``finalg._coset_flats``.

    At the last position a closure that stops at a proper subalgebra T
    settles every coset of S inside T, which all close inside T too, so they
    are skipped: S lies in T, so the fully reduced rows of T off the pivots
    of S are zero on those pivots, and their span is exactly the set of
    coset representatives (vectors supported off the pivots of S) in T.
    """
    eng = alg._eng()
    D = eng.D
    memo = {}

    def rec(state, depth):
        if len(state) == D:
            return alg.size ** (k - depth)
        if depth == k:
            return 0
        key = (state, depth)
        if key in memo:
            return memo[key]
        total = 0
        if depth == k - 1:
            pivots = {eng.pivot(r) for r in state}
            skip = set()
            for flat in finalg._coset_flats(eng, state):
                if flat in skip:
                    continue
                rows = finalg._close(eng, state, [flat])
                if len(rows) == D:
                    total += 1
                else:
                    skip.update(eng.span_elements([r for r in rows if eng.pivot(r) not in pivots]))
        else:
            for flat in finalg._coset_flats(eng, state):
                total += rec(tuple(finalg._close(eng, state, [flat])), depth + 1)
        memo[key] = total * eng.p ** len(state)
        return memo[key]

    return rec(tuple(finalg._close(eng, [], eng.scalars)), 0)


@contextlib.contextmanager
def old_code(alg):
    """Run finalg's public functions on alg through the oracles.  The tuple
    engine has no lanes, so counts under it come from ``per_coset_gen_count``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(alg, "_engine", reference_engine(alg))
        mp.setattr(finalg, "_close", two_sided_close)
        mp.setattr(finalg, "_coset_flats", tuple_coset_flats)
        mp.setattr(finalg, "_nilpotent_ideal_rows", list_nilpotent_ideal_rows)
        yield alg._engine


@contextlib.contextmanager
def previous_kernel(alg):
    """Run finalg's public functions on alg through the row-list closure and ideal check."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(alg, "_engine", table_engine(alg))
        mp.setattr(finalg, "_close", right_close)
        mp.setattr(finalg, "_nilpotent_ideal_rows", list_nilpotent_ideal_rows)
        yield


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
        base, new = elements(alg, rng, rng.randint(1, 2)), elements(alg, rng, 1)
        check_close(alg, base, new)
        check_kernel(alg, base, new)


@settings(max_examples=60, deadline=None)
@given(algebra_cases(max_size=2**12))
def test_counts_and_coset_representatives_match_tuple_oracle(case):
    alg, _ = case
    k = max(k for k in (1, 2, 3) if k == 1 or alg.size**k <= 2**12)
    got_count = brute_gen_count(alg, k)
    got_reps = coset_representatives(alg, alg.radical_basis)
    with old_code(alg):
        assert per_coset_gen_count(alg, k) == got_count
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


def full_table_engine(p, n):
    """The table engine of M_n(F_p) with every table entry at p - 1 in every lane."""
    eng = TableGfpEngine(matrix_algebra(n, p))
    full = pack(eng, [p - 1] * eng.D)
    eng.tbl = [[full] * eng.D for _ in range(eng.D)]
    eng.cols = [[(i, full) for i in range(eng.D)] for _ in range(eng.D)]
    return eng, full


@pytest.mark.parametrize("p", LANE_PRIMES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_at_the_largest_lane_sum(p, n):
    """x and g at p - 1 and every table entry at p - 1 in every lane: each lane
    of g's right operator sums D terms (p-1)^2 before its reduction, the most
    any lazy sum adds to a reduced value, and the lanes hold one more."""
    eng, full = full_table_engine(p, n)
    assert eng.top == (eng.D + 1) * (p - 1) ** 2
    want = eng.D * eng.D * (p - 1) ** 3 % p
    assert eng.apply(eng.right_op(full), full) == pack(eng, [want] * eng.D) == eng.mul(full, full)


@pytest.mark.parametrize("p", [3, 5, 1009])
def test_insert_matches_tuple_oracle_on_dense_vectors(p):
    """Dense vectors reduced against rows dense off their pivots, up to a full basis."""
    alg = matrix_algebra(3, p)
    eng, tup = finalg._GfpEngine(alg), TupleGfpEngine(alg)
    rng = random.Random(p)
    rows, ref_rows = {}, []
    for _ in range(2 * eng.D):
        vec = [rng.randrange(1, p) for _ in range(eng.D)]
        got = eng.insert(rows, pack(eng, vec))
        want = tup.insert(ref_rows, tuple(vec))
        assert (got is None) == (want is None)
        assert [eng.unflatten(r) for r in eng.echelon(rows)] == [tup.unflatten(r) for r in ref_rows]


@pytest.mark.parametrize("p", [3, 5, 7, 101, 1009])
def test_insert_at_the_largest_lazy_lane(p):
    """The most that insertion leaves unreduced in a lane: a reduced value plus
    one (p-1)^2 for every pivot it clears.

    Row j is 1 at lane j and p - 1 above it, and lane j of the vector is
    1 - j mod p for j < D - 1.  So each of m rows in turn meets residue 1 at
    its pivot and adds (p-1)^2 to every lane above, and the top lane ends at
    its value plus m(p-1)^2.  With m = D - 1 that lane is read as the new
    pivot, and a residue of 0 there puts the vector in the span; with
    m = D - 2 it passes through the reduction before lane D - 2 becomes the
    new pivot."""
    alg = matrix_algebra(3, p)
    tup = TupleGfpEngine(alg)
    D = tup.D
    for m in (D - 1, D - 2):
        for last in sorted({p - 1, (-m) % p, (1 - m) % p}):
            eng = finalg._GfpEngine(alg)
            rows, ref_rows = {}, []
            for j in range(m):
                row = [0] * j + [1] + [p - 1] * (D - 1 - j)
                eng.insert(rows, pack(eng, row))
                tup.insert(ref_rows, tuple(row))
            vec = [(1 - j) % p for j in range(D - 1)] + [last]
            largest = last + m * (p - 1) ** 2
            assert largest <= eng.top
            seen = [0]
            reduce = eng._reduce

            def recorded(v):
                seen[0] = max([seen[0]] + [(v >> (i * eng.b)) & eng.lane for i in range(D)])
                return reduce(v)

            eng._reduce = recorded
            got = eng.insert(rows, pack(eng, vec))
            del eng._reduce
            if m == D - 2:
                assert seen[0] == largest
            want = tup.insert(ref_rows, tuple(vec))
            assert (got is None) == (want is None) == (m == D - 1 and last == (-m) % p)
            assert got is None or eng.unflatten(got) == tup.unflatten(want)
            assert [eng.unflatten(r) for r in eng.echelon(rows)] == [tup.unflatten(r) for r in ref_rows]


@pytest.mark.parametrize("p", LANE_PRIMES)
def test_operator_at_the_largest_lane_sum(p):
    """Every table entry at p - 1 in every lane, g and x at p - 1: a row of the
    right operator sums D terms (p-1)^2, and so does its application."""
    eng, full = full_table_engine(p, 2)
    op = eng.right_op(full)
    assert op == [pack(eng, [eng.D * (p - 1) ** 2 % p] * eng.D)] * eng.D
    assert eng.apply(op, full) == eng.mul(full, full)


# -- the closure kernel against the row-list closure --------------------------


def check_kernel(alg, base_elems, new_elems):
    """_close from the scalars and from a closed base, and closure(), against right_close."""
    eng = table_engine(alg)
    base = finalg._close(eng, [], eng.scalars + [eng.flatten(x) for x in base_elems])
    assert base == right_close(eng, [], eng.scalars + [eng.flatten(x) for x in base_elems])
    for start in ([], base):
        seed = [] if start else eng.scalars
        new = seed + [eng.flatten(x) for x in new_elems]
        assert finalg._close(eng, list(start), new) == right_close(eng, list(start), new)
    got = closure(alg, base_elems + new_elems)
    with previous_kernel(alg):
        want = closure(alg, base_elems + new_elems)
    assert (got.basis, got.rank) == (want.basis, want.rank)


@settings(max_examples=200, deadline=None)
@given(algebra_cases(), st.integers(0, 3), st.integers(0, 3))
def test_close_matches_row_list_closure(case, extra, base_size):
    alg, rng = case
    check_kernel(alg, elements(alg, rng, base_size), elements(alg, rng, extra))


@settings(max_examples=60, deadline=None)
@given(algebra_cases(max_size=2**12))
def test_counts_and_coset_representatives_match_row_list_closure(case):
    alg, _ = case
    k = max(k for k in (1, 2, 3) if k == 1 or alg.size**k <= 2**12)
    got_count = brute_gen_count(alg, k)
    got_reps = coset_representatives(alg, alg.radical_basis)
    with previous_kernel(alg):
        assert per_coset_gen_count(alg, k) == got_count
        assert coset_representatives(alg, alg.radical_basis) == got_reps


@settings(max_examples=150, deadline=None)
@given(algebra_cases(), st.integers(1, 40))
def test_insert_and_echelon_match_fully_reduced_insert(case, count):
    """Random vectors, some of them dense, inserted into a pivot-keyed basis
    and into a fully reduced row list."""
    alg, rng = case
    eng = alg._eng()
    rows, ref_rows = {}, []
    for _ in range(count):
        vec = eng.flat_of_index(rng.randrange(alg.size))
        if rng.random() < 0.5:  # a sparse vector: one in span more often
            vec = eng.flat_of_index(rng.choice([0, 1, rng.randrange(alg.size)]) * eng.p ** rng.randrange(eng.D))
        got = eng.insert(rows, vec)
        want = list_insert(eng)(ref_rows, vec)
        assert (got is None) == (want is None)
        assert got is None or eng.pivot(got) == eng.pivot(want)
        assert eng.echelon(rows) == ref_rows


@settings(max_examples=100, deadline=None)
@given(algebra_cases())
def test_right_operators_match_products(case):
    alg, rng = case
    eng = table_engine(alg)
    for _ in range(5):
        x, g = (eng.flat_of_index(rng.randrange(alg.size)) for _ in range(2))
        assert eng.apply(eng.right_op(g), x) == eng.mul(x, g)


@pytest.mark.parametrize("q", [2, 4, 3, 9, 49])
def test_columns_match_every_table_entry(q):
    """The engine skips zero table vectors; its columns are those built from every entry."""
    for alg in _CANDIDATES[q]:
        eng = alg._eng()
        tbl = flat_table(alg, eng)
        assert eng.cols == [[(a, tbl[a][b]) for a in range(eng.D) if tbl[a][b]] for b in range(eng.D)]


def bare_gfp_engine(p, D, e=1):
    """An odd-p engine with lanes for D flat coordinates over F_(p^e), but no algebra."""
    eng = object.__new__(finalg._GfpEngine)
    eng.p, eng.D, eng.e = p, D, e
    eng.b = eng._lane_width()
    return eng


@pytest.mark.parametrize("e", (1, 2, 3))
@pytest.mark.parametrize("p", (3, 5, 7, 11, 101, 1009))
def test_flat_of_index_matches_digit_loop(p, e):
    """flat_of_index against ``flatten`` of the index's base-q digits."""
    # D = 4e flat coordinates, as for M_2 over F_(p^e)
    eng = bare_gfp_engine(p, 4 * e, e)
    q, size = p**e, p**eng.D

    def via_coordinates(idx):
        return eng.flatten(tuple(idx // q**i % q for i in range(4)))

    rng = random.Random(p * 10 + e)
    for idx in [0, 1, p - 1, p, size - 1] + [rng.randrange(size) for _ in range(200)]:
        assert eng.flat_of_index(idx) == via_coordinates(idx)
    # digits from the D-th on are dropped, as the insertion tests rely on
    for idx in [size, size * p + 1, (size - 1) * p ** (eng.D - 1)]:
        assert eng.flat_of_index(idx) == via_coordinates(idx)


# -- the sampler: batches of lanes against one closure per sample -----------


def drawn_indices(seed, first, count, size):
    """The indices of drawn elements first .. first + count - 1 of the stream from seed.

    Element n reads the m = _element_draws(size) raw outputs n*m+1 .. n*m+m
    as one integer, the first output lowest, and reduces it modulo size.
    """
    m = finalg._element_draws(size)
    raw = (finalg.splitmix64_stream(seed, i) for i in range(first * m + 1, (first + count) * m + 1))
    if m > 1:
        raw = [sum(r << (64 * u) for u, r in enumerate(itertools.islice(raw, m))) for _ in range(count)]
    return [r % size for r in raw]


def packed_indices(eng, idxs):
    """The indices packed as ``batch_load`` reads them, one per lane of ``load_width`` bits."""
    return sum(i << (s * eng.load_width) for s, i in enumerate(idxs))


def unpacked(x, n, width):
    return [(x >> (s * width)) & ((1 << width) - 1) for s in range(n)]


def per_sample_range(alg, k, start, stop, seed):
    """The oracle: the hits among samples start .. stop - 1, one ``_close`` per drawn tuple."""
    eng = alg._eng()
    base = finalg._close(eng, [], eng.scalars)
    hits = 0
    for t in range(start, stop):
        flats = [eng.flat_of_index(i) for i in drawn_indices(seed, t * k, k, alg.size)]
        if len(finalg._close(eng, base, flats)) == eng.D:
            hits += 1
    return hits


@functools.cache
def sampling_algebras(q):
    """Matrix, truncated local (with a radical) and product algebras over F_q."""
    algs = [
        matrix_algebra(2, q),
        truncated_local_algebra(q, 1, 1, 1, 2),
        truncated_local_algebra(q, 1, 2, 1, 1),
        product_algebra(matrix_algebra(1, q), truncated_local_algebra(q, 1, 1, 1, 2)),
    ]
    if q in (2, 3, 5, 7):
        algs.append(matrix_algebra(3, q))
    return algs


def lane_flat(eng, vec, s):
    """The flat vector in lane s of a lane vector, each coordinate read mod p."""
    lane = (1 << eng.b) - 1
    return sum(((x >> (s * eng.b)) & lane) % eng.p << (i * eng.b) for i, x in enumerate(vec))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([p**e for p in (2, 3, 5, 7) for e in (1, 2, 3)]), st.data())
def test_batched_hits_match_per_sample_oracle(q, data):
    """Hits from the batches equal the oracle's, for partial batches, worker parts and two workers."""
    alg = data.draw(st.sampled_from(sampling_algebras(q)), label="algebra")
    k = data.draw(st.integers(1, 3), label="k")
    lanes = data.draw(st.sampled_from([1, 3, 64, finalg.SAMPLE_LANES]), label="lanes")
    start = data.draw(st.integers(0, 40), label="start")
    count = data.draw(st.integers(1, 140), label="count")
    seed = data.draw(st.integers(0, 2**64), label="seed")
    workers = data.draw(st.sampled_from([1, 1, 1, 2]), label="workers")
    want = per_sample_range(alg, k, start, start + count, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(finalg, "SAMPLE_LANES", lanes)
        assert finalg._sample_range(alg, k, start, start + count, seed) == want
        if workers > 1:
            est = finalg.sample_gen_fraction(alg, k, count, seed=seed, workers=workers)
            assert est.hits == per_sample_range(alg, k, 0, count, seed)


@pytest.mark.parametrize(
    "size,m", [(2**64 - 1, 1), (2**64, 1), (2**64 + 1, 3), (2**128, 3), (2**128 + 1, 4), (2**169, 4)]
)
def test_outputs_per_element_at_the_size_edges(size, m):
    """One raw output up to 2^64 elements, else the least m with 2^(64m) >= size * 2^64,
    so no size takes m = 2.  M_13(F_2) has 2^169 elements."""
    assert finalg._element_draws(size) == m


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**40),
    st.integers(1, 300),
    st.integers(1, 3),
    st.sampled_from([2, 3, 2**9, 625, 3**9, 7**4, 3**16, 49**8, 2**64 - 1, 2**64, 2**64 + 1, 2**169, 13**100]),
    st.integers(0, 2),
)
def test_packed_draws_match_per_element_draws(seed, first, count, stride, size, extra):
    """Lane s of a packed draw is the index of drawn element first + s*stride,
    in lanes of at least the bytes of size - 1, and m = 1, 3, 4 and 7 raw
    outputs per element."""
    width = 8 * (((size - 1).bit_length() + 7) // 8 + extra)
    got = unpacked(finalg._packed_draws(seed, stride, size, count, width)(first), count, width)
    assert got == drawn_indices(seed, first, (count - 1) * stride + 1, size)[::stride]


class ScaledGfpEngine(finalg._GfpEngine):
    """The odd-p engine whose batch insertion scales each stored row to 1 at its pivot."""

    def batch_insert(self, L, rows, have, inv, v, live):
        """As the engine's, but a lane gaining pivot t stores its remainder times c^-1, so
        ``rows[t]`` holds 1 at t in the lanes of ``have[t]``; ``inv`` is not kept."""
        p, D, magic, shift, quot = self.p, self.D, self.magic, self.shift, L.quot
        ones, low, high, b1 = L.ones, L.full, L.high, self.b - 1
        for t in range(D):
            c = v[t] & live
            if not c:
                continue
            c -= p * (((c * magic) >> shift) & quot)
            if not c:
                continue
            nz = (c + low) & high
            nz -= nz >> b1  # the lanes where c is not 0
            h = nz & have[t]
            row = rows[t]
            if h:
                masks = self._bit_masks(L, (p * ones & h) - (c & h))
                for u in range(t + 1, D):
                    r = row[u]
                    if r:
                        acc = v[u]
                        for s, m in masks:
                            acc += (r & m) << s
                        v[u] = acc
            new = nz ^ h
            if new:
                masks = self._bit_masks(L, self._lane_inverse(L, c & new))
                if row is None:
                    row = rows[t] = [0] * D
                for u in range(t + 1, D):
                    y = v[u] & new
                    if y:
                        y -= p * (((y * magic) >> shift) & quot)
                        acc = 0
                        for s, m in masks:
                            acc += (y & m) << s
                        row[u] |= acc - p * (((acc * magic) >> shift) & quot)
                row[t] |= ones & new
                have[t] |= new
                live ^= new
                if not live:
                    return


def unscaled_slot_mismatches(q, seed, lanes=40):
    """The disagreements of the odd-p batches with the oracles on the candidate algebras over F_q.

    For k = 1 and 2 random elements per lane, ``_close_batch`` must find the
    lanes that ``_close`` finds generating.  After D + 2 random insertions,
    the slots must have the pivots of the scaled insertion's, each row must
    be its scaled row times its pivot coordinate, and ``inv`` must hold minus
    that coordinate's inverse.  The result is a list, so that ``python -O``
    can print it.
    """
    rng = random.Random(seed)
    bad = []
    for alg in _CANDIDATES[q]:
        eng, ref = alg._eng(), ScaledGfpEngine(alg)
        p, b, D, L = eng.p, eng.b, eng.D, eng.lanes(lanes)
        lane = (1 << b) - 1
        base = finalg._close(eng, [], eng.scalars)
        for k in (1, 2):
            xs = [[rng.randrange(alg.size) for _ in range(lanes)] for _ in range(k)]
            full = finalg._close_batch(eng, L, base, [eng.batch_load(L, packed_indices(eng, x)) for x in xs])
            got = [(full >> (s * b)) & 1 for s in range(lanes)]
            want = [len(finalg._close(eng, base, [eng.flat_of_index(x[s]) for x in xs])) == D for s in range(lanes)]
            if got != want:
                bad.append(f"{alg.label} k={k}: lanes {got} against closures {want}")
        rows, have, inv, ref_rows, ref_have = [None] * D, [0] * D, [0] * D, [None] * D, [0] * D
        for _ in range(D + 2):
            v = eng.batch_load(L, packed_indices(eng, [rng.randrange(alg.size) for _ in range(lanes)]))
            eng.batch_insert(L, rows, have, inv, list(v), L.full)
            ref.batch_insert(L, ref_rows, ref_have, None, list(v), L.full)
        if have != ref_have:
            bad.append(f"{alg.label}: pivots differ from the scaled insertion's")
            continue
        for t in range(D):
            for s in range(lanes):
                if not (have[t] >> (s * b)) & 1:
                    continue
                row = [((x >> (s * b)) & lane) for x in rows[t]]
                ref_row = [((x >> (s * b)) & lane) for x in ref_rows[t]]
                minus_inverse = sum(((m >> (s * b)) & 1) << i for i, m in enumerate(inv[t]))
                if row != [row[t] * x % p for x in ref_row] or row[t] * minus_inverse % p != p - 1:
                    bad.append(f"{alg.label}: slot {t}, lane {s}: {row} against {ref_row}, -1/pivot {minus_inverse}")
    return bad


@pytest.mark.parametrize("q", [3, 5, 7, 9, 49])
@pytest.mark.parametrize("optimise", [False, True], ids=["plain", "-O"])
def test_unscaled_slots_match_closures_and_scaled_insertion(q, optimise):
    if not optimise:
        assert unscaled_slot_mismatches(q, seed=q) == []
        return
    here, src = os.path.dirname(__file__), os.path.dirname(os.path.dirname(finalg.__file__))
    code = f"import test_engine_oracle as t\nprint(t.unscaled_slot_mismatches({q}, seed={q}))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([here, src]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([p**e for p in (2, 3, 5, 7) for e in (1, 2, 3)]), st.data())
def test_lane_loads_and_products_match_one_sample_at_a_time(q, data):
    """Lane s of a loaded vector is flat_of_index of its index, and lane s of a
    batch product is the right operator's product of lanes s."""
    alg = data.draw(st.sampled_from(sampling_algebras(q)), label="algebra")
    eng = alg._eng()
    n = data.draw(st.integers(1, 70), label="lanes")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    L = eng.lanes(n)
    xs, gs = ([rng.randrange(alg.size) for _ in range(n)] for _ in range(2))
    x, g = eng.batch_load(L, packed_indices(eng, xs)), eng.batch_load(L, packed_indices(eng, gs))
    assert [lane_flat(eng, x, s) for s in range(n)] == [eng.flat_of_index(i) for i in xs]
    for s in range(n):  # the lanes of a load, and so the product's inputs, are reduced
        assert all(((v >> (s * eng.b)) & ((1 << eng.b) - 1)) < eng.p for v in x + g)
    prod = eng.batch_product(L, x, eng.batch_masks(L, g))
    for s in range(n):
        want = eng.apply(eng.right_op(eng.flat_of_index(gs[s])), eng.flat_of_index(xs[s]))
        assert lane_flat(eng, prod, s) == want
        assert all(((v >> (s * eng.b)) & ((1 << eng.b) - 1)) < eng.p for v in prod)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 101))
def test_lane_inverse_of_every_residue(p):
    eng = bare_gfp_engine(p, 4)
    L = eng.lanes(p - 1)
    a = sum(v << (s * eng.b) for s, v in enumerate(range(1, p)))
    inv = eng._lane_inverse(L, a)
    assert [(inv >> (s * eng.b)) & ((1 << eng.b) - 1) for s in range(p - 1)] == [pow(v, p - 2, p) for v in range(1, p)]


@pytest.mark.parametrize("q", [p**e for p in (3, 5, 7) for e in (1, 2, 3)])
def test_lane_product_at_the_largest_lane_sum(q):
    """Every coordinate p - 1 in both factors makes every term (p-1)^2; a
    coordinate of TW(q=27, f=1, m=2) has 27 terms against D = 12, so the
    sum is reduced after every chunk of D terms."""
    for alg in sampling_algebras(q):
        eng = alg._eng()
        L = eng.lanes(3)
        top = sum((eng.p - 1) << (i * eng.b) for i in range(eng.D))
        x = eng.broadcast(L, top)
        prod = eng.batch_product(L, x, eng.batch_masks(L, x))
        want = eng.apply(eng.right_op(top), top)
        assert [lane_flat(eng, prod, s) for s in range(3)] == [want] * 3


# -- the exhaustive oracle: the last generator in batches against one closure per coset


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([p**e for p in (2, 3, 5, 7) for e in (1, 2, 3)]), st.data())
def test_batched_counts_match_per_coset_oracle(q, data):
    """brute_gen_count against the per-coset search, with batches small enough
    that one subalgebra's cosets span several batches and a batch holds the
    cosets of several."""
    alg = data.draw(st.sampled_from([a for a in sampling_algebras(q) if a.size <= 1 << 18]), label="algebra")
    k = data.draw(st.integers(1, 3), label="k")
    while k > 1 and alg.size**k > 1 << 18:
        k -= 1
    lanes = data.draw(st.sampled_from([1, 3, 64, finalg.SAMPLE_LANES]), label="lanes")
    want = per_coset_gen_count(alg, k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(finalg, "SAMPLE_LANES", lanes)
        assert brute_gen_count(alg, k) == want


def test_lanes_with_a_prefix_match_closures_from_its_subalgebra():
    """A lane holding a prefix a and an element x reaches the whole algebra
    exactly when ``_close`` from S, the closure of a, does with x.  Most of
    these S are not central, and the closures of a diagonal idempotent have
    canonical rows without the unit."""
    kinds = set()
    for alg in [matrix_algebra(2, 3), truncated_local_algebra(3, 1, 2, 1, 1), matrix_algebra(2, 2, 2)]:
        eng = alg._eng()
        base = finalg._close(eng, [], eng.scalars)
        rng = random.Random(alg.size)
        prefixes = [eng.flat_of_index(rng.randrange(alg.size)) for _ in range(12)]
        if alg.meta["kind"] == "matrix":
            prefixes.append(eng.flatten(finalg.matrix_element(alg, [[1, 0], [0, 0]])))
        for a in prefixes:
            S = finalg._close(eng, base, [a])
            kinds.add(eng.scalars[0] in S)
            xs = [rng.randrange(alg.size) for _ in range(70)]
            L = eng.lanes(len(xs))
            full = finalg._close_batch(eng, L, base, [eng.broadcast(L, a), eng.batch_load(L, packed_indices(eng, xs))])
            got = [(full >> (s * eng.b)) & 1 for s in range(len(xs))]
            assert got == [len(finalg._close(eng, S, [eng.flat_of_index(i)])) == eng.D for i in xs]
    assert kinds == {True, False}


# -- the batch kernel: one row per live lane per round against one slot per sweep


def slot_close_batch(eng, L, base_rows, gens):
    """The oracle for ``finalg._close_batch``: each sweep takes the pivot slots
    in turn and multiplies, at full width, the rows of a slot that the live
    lanes have not yet multiplied by every generator, until a sweep finds no
    row left."""
    D, full = eng.D, L.full
    rows = [None] * D
    have, inv = [0] * D, [0] * D
    for r in base_rows:
        eng.batch_insert(L, rows, have, inv, eng.broadcast(L, r), full)
    done = list(have)
    for g in gens:
        eng.batch_insert(L, rows, have, inv, list(g), full)
    masks = [eng.batch_masks(L, g) for g in gens + [eng.broadcast(L, s) for s in eng.scalars[1:]]]
    alive = full & ~functools.reduce(operator.and_, have)
    busy = True
    while busy and alive:
        busy = False
        for t in range(D):
            todo = (have[t] ^ done[t]) & alive
            if not todo:
                continue
            busy = True
            done[t] |= todo
            x = [s & todo for s in rows[t]]
            for m in masks:
                eng.batch_insert(L, rows, have, inv, eng.batch_product(L, x, m), alive)
            alive &= ~functools.reduce(operator.and_, have)
            if not alive:
                break
    return functools.reduce(operator.and_, have)


def kernel_batch(eng, lanes, k, rng, dead):
    """k lane vectors of random elements in ``lanes`` lanes, the zero element
    in each lane of ``dead``, which so never generates beyond the scalars."""
    idxs = [[0 if s in dead else rng.randrange(eng.size) for s in range(lanes)] for _ in range(k)]
    L = eng.lanes(lanes)
    return L, [eng.batch_load(L, packed_indices(eng, x)) for x in idxs]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([p**e for p in (2, 3, 5, 7) for e in (1, 2)]), st.data())
def test_round_kernel_matches_slot_sweeps(q, data):
    """The full lanes of ``_close_batch`` equal the oracle's on random batches:
    matrix, truncated local (TW) and product algebras, extension fields whose
    scalars are generators, k = 1 to 3 and lanes that never generate."""
    alg = data.draw(st.sampled_from(sampling_algebras(q)), label="algebra")
    eng = alg._eng()
    k = data.draw(st.integers(1, 3), label="k")
    lanes = data.draw(st.sampled_from([1, 3, 64, finalg.SAMPLE_LANES]), label="lanes")
    dead = data.draw(st.sets(st.integers(0, lanes - 1), max_size=8), label="dead")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    base = finalg._close(eng, [], eng.scalars)
    L, gens = kernel_batch(eng, lanes, k, rng, dead)
    full = finalg._close_batch(eng, L, base, gens)
    assert full == slot_close_batch(eng, L, base, gens)
    assert not any((full >> (s * eng.b)) & 1 for s in dead)  # the scalars span a proper subalgebra here


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("lanes", [256, finalg.SAMPLE_LANES])
def test_rounds_make_no_more_products_than_slot_sweeps(monkeypatch, q, lanes):
    """On the same batches of M_3(F_q), k = 2, a round per live lane never
    makes more lane products than the sweeps by slot, and finds the same
    full lanes."""
    alg = matrix_algebra(3, q)
    eng = alg._eng()
    base = finalg._close(eng, [], eng.scalars)
    calls = [0]
    product = eng.batch_product

    def counted(*args):
        calls[0] += 1
        return product(*args)

    def run(kernel, L, gens):
        calls[0] = 0
        return kernel(eng, L, base, gens), calls[0]

    monkeypatch.setattr(eng, "batch_product", counted)
    rng = random.Random(q * lanes)
    for _ in range(3):
        L, gens = kernel_batch(eng, lanes, 2, rng, ())
        (full, rounds), (want, sweeps) = run(finalg._close_batch, L, gens), run(slot_close_batch, L, gens)
        assert full == want and rounds <= sweeps
