"""Finite-dimensional associative unital algebras over F_q via structure constants.

Elements are coordinate tuples over the base field (each coordinate a field
encoding).  The element with coordinates (c_0, ..., c_{dim-1}) has index
sum c_i * q^i, so enumeration order is the row-major order of the base field's
element order.  Internally all linear algebra runs over the prime field F_p on
flattened coordinate vectors packed into integers, one bit per coordinate
when p = 2 and one b-bit lane per coordinate for odd p.
A unital F_q-subalgebra is exactly an F_p-subalgebra that contains the scalars
F_q * 1, so every closure starts from those scalars and never works over F_q.

The engines have one product on packed vectors: x * y is x applied to y's
right operator, the D packed rows e_i * y, summed from a column-sparse copy of
the structure table.  The table checks, the ideal check, ``multiply`` and
every closure of a single tuple use it, and every such closure runs through
one kernel, ``_close``; the batches of lanes (below) multiply term by term
of the same table.  ``_close`` multiplies only on the right by a
generator g, building g's right operator at its first use in the closure.  It
keeps a dict from pivot to a semi-reduced row, whose pivot no other row has,
and forms the canonical (fully reduced, sorted) echelon rows once, at return,
and only for a proper subalgebra; a full closure returns the standard basis.

The enumeration oracle counts generating k-tuples level by level, keyed on
the closed subalgebra S reached by each tuple prefix; it extends S by one
element per coset of S and weights each branch by |S|.  The Monte Carlo
oracle draws index tuples from a counter-based splitmix64 stream so the
estimate depends only on (seed, sample index), never on worker count.  Both
decide whether their tuples generate in batches (``_close_batch``), one lane
per tuple: a prefix with a coset of the last generator, or a sample.

A vector of a batch is D slices, slice i an integer whose lane s holds
coordinate i of tuple s, so one big-integer operation acts on every tuple.
For p = 2 a lane is one bit, the product AND and the sum XOR; for odd p a
lane has the engine's b bits, a product of two per-tuple values goes through
the bit masks of one of them, and lazy sums are reduced with the engine's
magic constant.  Each pivot slot holds, in the lanes of the tuples that have
that pivot, their semi-reduced row, under the engines' pivot conventions; for
odd p the row is not scaled to 1 at its pivot, and the slot keeps the pivots'
inverses beside it.
Each round gathers one row per live lane that it has not yet multiplied
into one vector and multiplies it by every generator, until no lane has a
row left, and a tuple generates when its lane has all D pivots; this is
exact, the same as one closure per tuple.  B is SAMPLE_LANES = 1024, fewer
where a batch's slots and generator masks would pass SAMPLE_BITS = 2^23 bits.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import (
    BaseMismatch,
    BudgetExceeded,
    CertificateError,
    InvalidCount,
    InvalidElement,
    InvalidTable,
    InvalidTwist,
    NotGenerating,
    OrdgenError,
)
from .finfield import FiniteField, PrimePower, build_field, field_of

DEFAULT_BUDGET = 1 << 26
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# A batch closes up to SAMPLE_LANES = 1024 tuples at once, samples or cosets,
# fewer when its working set would pass SAMPLE_BITS (1 MiB); a wide batch
# spreads the Python cost of each big-integer operation over many lanes.
# The working set is about (D^2 + g*D*bitlen(p-1)) * B * b bits for D flat
# coordinates, g generators, B lanes of b bits: D pivot slots of D slices and
# g generators' bit masks, one more g for the slots' pivot inverses when p is
# odd.
SAMPLE_LANES = 1024
SAMPLE_BITS = 1 << 23


def resolve_budget(budget: int | None = None) -> int:
    """The work budget: explicit argument, else ORDGEN_BUDGET, else 2^26.

    A budget argument or ORDGEN_BUDGET that is not a positive integer raises
    OrdgenError.
    """
    if budget is not None:
        if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
            raise OrdgenError(f"budget must be a positive integer, got {budget!r}")
        return budget
    raw = os.environ.get("ORDGEN_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0  # refused below with the other values under 1
    if value < 1:
        raise OrdgenError(f"ORDGEN_BUDGET must be a positive integer, got {raw!r}")
    return value


_SHOWN_BITS = 1 << 13  # tuple counts below 2^8192 are written out in full


def check_tuple_budget(q: int, exponent: int, budget: int | None = None) -> None:
    """Raise BudgetExceeded when a request covers more tuples, q^exponent, than the budget.

    The budget is resolved as in resolve_budget.  A count far above the budget
    is never formed: when it would take more than 8192 bits, BudgetExceeded
    reports it as the power "q^exponent".
    """
    limit = resolve_budget(budget)
    if exponent * (q.bit_length() - 1) <= max(limit.bit_length(), _SHOWN_BITS):
        need = q**exponent  # at most twice as many bits: cheap to form
        if need <= limit:
            return
        if need.bit_length() <= _SHOWN_BITS:
            raise BudgetExceeded(need, limit)
    raise BudgetExceeded(f"{q}^{exponent}", limit)


def check_sample_budget(samples: int, budget: int | None = None) -> None:
    """Raise BudgetExceeded when a request draws more samples than the budget, resolved as in resolve_budget."""
    limit = resolve_budget(budget)
    if samples > limit:
        raise BudgetExceeded(samples, limit)


def check_table_budget(dim: int, budget: int | None = None) -> None:
    """Raise BudgetExceeded when the structure table of a dim-dimensional algebra,
    dim^3 coordinates, exceeds the budget, resolved as in resolve_budget."""
    limit = resolve_budget(budget)
    if dim**3 > limit:
        raise BudgetExceeded(dim**3, limit, "table entries")


# -- prime-field linear algebra engines -----------------------------------

# _BIT_CHARS[t] maps a byte to the character "0" or "1" of its bit t.
_BIT_CHARS = [(b"0" * (1 << t) + b"1" * (1 << t)) * (128 >> t) for t in range(8)]


def _inv_matrix_mod_p(cols: list[list[int]], p: int) -> list[list[int]]:
    """Inverse of the matrix whose columns are given, as a list of rows, mod p."""
    n = len(cols)
    aug = [[cols[j][i] % p for j in range(n)] + [1 if t == i else 0 for t in range(n)] for i in range(n)]
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if aug[r][col] % p), None)
        if piv is None:
            raise CertificateError("singular matrix")
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = pow(aug[row][col], p - 2, p)
        aug[row] = [x * inv % p for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col]:
                c = aug[r][col]
                aug[r] = [(x - c * y) % p for x, y in zip(aug[r], aug[row])]
        row += 1
    return [r[n:] for r in aug]


class _Lanes:
    """The constants of a batch of n samples in b-bit lanes, b the engine's
    lane width: lane s of an integer belongs to sample s.

    ``ones`` holds 1 in every lane.  ``full`` selects every lane: its one bit
    for p = 2, and for odd p the low b - 1 bits, which hold every reduced and
    every lazily summed value.  A set of lanes is such a mask, with ``bits``
    set bits per lane.  For odd p, ``high`` is bit b - 1 of every lane and
    ``quot`` reads a lane's quotient in a reduction.  (A plain class: a
    dataclass would cost a millisecond at every import.)
    """

    __slots__ = ("n", "ones", "full", "bits", "high", "quot")

    def __init__(self, n: int, ones: int, full: int, bits: int, high: int = 0, quot: int = 0):
        self.n, self.ones, self.full, self.bits, self.high, self.quot = n, ones, full, bits, high, quot


def _packed_lanes(n: int, width: int) -> tuple[int, int]:
    """(ones, ramp) for n lanes of ``width`` bits: lane s holds 1 in ``ones`` and s in ``ramp``.

    With X = 2^width, they are the sums of X^s and of s * X^s over s < n.
    """
    X, top = 1 << width, 1 << (n * width)
    return (top - 1) // (X - 1), (X - n * top + (n - 1) * top * X) // (X - 1) ** 2


class _Engine:
    """The multiplication of an algebra on flattened, packed F_p vectors.

    Flat coordinate i*e + t stands for x^t times the i-th basis vector, x the
    root of the base field's modulus.  A flat vector is a Python int with one
    b-bit lane per flat coordinate, coordinate 0 in the lowest lane; for p = 2
    the lanes are single bits.  ``cols[b]`` lists the pairs (a, e_a * e_b) of
    flat basis vectors whose product is not zero: a matrix unit has n of
    them.  ``scalars`` is the flat F_p-basis x^t * unit (t < e) of the scalars
    F_q * 1.  An F_p-subalgebra that contains them is closed under
    multiplication by F_q, so it is an F_q-subalgebra: every closure seeded
    with ``scalars`` works over F_p alone.

    The one product is the right operator.  ``right_op(g)`` is the list of
    the D rows e_i * g, summed from the columns that g's non-zero coordinates
    pick out; ``apply(op, x)`` is then x * g at one packed addition per
    non-zero coordinate of x.

    A working basis is a dict from pivot (``pivot``) to a row whose pivot no
    other row has.  ``insert`` reduces a vector against it only while its
    pivot is taken, so the rows stay semi-reduced: zero before their pivot,
    arbitrary after it.  ``echelon`` forms the fully reduced rows in canonical
    order, so equal spans give equal row lists; ``standard`` is that list for
    the whole algebra.  The subclasses supply the lane width (``_lane_width``)
    and the arithmetic.

    The sampler's batch arithmetic works on lane vectors: D slices, slice i an
    integer whose lane s (see ``_Lanes``) holds coordinate i of sample s.
    ``lanes(n)`` fixes the lane constants, ``batch_load`` reads packed
    indices into slices, ``batch_masks`` prepares a generator,
    ``batch_product`` multiplies by it and ``batch_insert`` eliminates into
    pivot slots: ``rows[t]`` is a lane vector holding, in the lanes of
    ``have[t]``, a semi-reduced row with pivot t, under the same pivot
    convention as ``insert`` but, for odd p, not scaled to 1 at its pivot;
    ``inv[t]`` holds the inverse of that pivot coordinate.
    """

    def __init__(self, alg: FiniteAlgebra):
        F = alg.base
        e = F.e
        dim = alg.dim
        self.D = dim * e
        self.e = e
        self.p = F.p
        self.b = self._lane_width()
        xpow = [F.pow(F.p, s) for s in range(2 * e - 1)] if e > 1 else [1]
        flat = self.flatten
        self.cols = [[] for _ in range(self.D)]
        for i, row in enumerate(alg.table):
            for t in range(e):
                for j, v in enumerate(row):
                    if not any(v):
                        continue
                    for u in range(e):
                        s = xpow[t + u]
                        prod = flat(tuple(F.mul(c, s) for c in v))
                        if prod:
                            self.cols[j * e + u].append((i * e + t, prod))
        self.scalars = [flat(tuple(F.mul(c, xpow[t]) for c in alg.unit)) for t in range(e)]
        self.standard = self.echelon({i: 1 << (i * self.b) for i in range(self.D)})
        self.size = alg.size

    def flatten(self, coords) -> int:
        p, b = self.p, self.b
        acc = shift = 0
        for c in coords:
            for _ in range(self.e):
                acc |= (c % p) << shift
                c //= p
                shift += b
        return acc

    def unflatten(self, flat: int) -> tuple[int, ...]:
        p, b, e = self.p, self.b, self.e
        mask = (1 << b) - 1
        out = []
        for i in range(0, self.D, e):
            acc = 0
            for t in reversed(range(e)):
                acc = acc * p + ((flat >> ((i + t) * b)) & mask)
            out.append(acc)
        return tuple(out)

    def pivot(self, row: int) -> int:
        """The flat coordinate of a basis row's pivot: its highest bit for p = 2,
        its lowest non-zero lane for odd p."""
        bit = row.bit_length() - 1 if self.p == 2 else (row & -row).bit_length() - 1
        return bit // self.b

    def broadcast(self, L: _Lanes, flat: int) -> list[int]:
        """The lane vector holding the flat vector in every lane."""
        b, lane = self.b, (1 << self.b) - 1
        return [((flat >> (i * b)) & lane) * L.ones for i in range(self.D)]

    @functools.cached_property
    def load_width(self) -> int:
        """The lane width in bits of ``batch_load``'s packed indices: room for
        an index times the magic constant, in whole bytes."""
        return 8 * ((2 * (self.size - 1).bit_length() + self.p.bit_length() + 7) // 8)

    def batch_load(self, L: _Lanes, x: int) -> list[int]:
        """The lane vector of the elements whose indices are packed in x, one per lane.

        Lane s of x, ``load_width`` bits wide, holds the index of sample s.
        Its D base-p digits are peeled off every lane at once: with indices
        of ``bits`` bits, S = bits + bitlen(p) and M = ceil(2^S / p), a
        lane's quotient by p is (x * M) >> S, and a lane holds x * M.  The
        bytes of digit j, last sample first, are read as a binary numeral
        with one character per lane bit, through one translated copy per bit
        of a digit.
        """
        p, n, w = self.p, L.n, self.b
        shift = (self.size - 1).bit_length() + p.bit_length()
        wb = self.load_width // 8
        magic = -(-(1 << shift) // p)
        quot = int.from_bytes((b"\x01" + bytes(wb - 1)) * n, "little") * ((1 << (8 * wb - shift)) - 1)
        out = []
        for _ in range(self.D):
            q = ((x * magic) >> shift) & quot
            digits = (x - p * q).to_bytes(n * wb, "little")
            x = q
            numeral = bytearray(b"0") * (n * w)
            for t in range((p - 1).bit_length()):
                numeral[w - 1 - t :: w] = digits[t // 8 :: wb][::-1].translate(_BIT_CHARS[t % 8])
            out.append(int(numeral, 2))
        return out


class _Gf2Engine(_Engine):
    """F_2: one bit per coordinate, so addition is XOR.  A row's pivot is its
    highest bit, and canonical rows are in decreasing order."""

    def _lane_width(self) -> int:
        return 1

    @staticmethod
    def flat_of_index(idx: int) -> int:
        """The flat vector of the element with the given index: its binary digits are the lanes."""
        return idx

    def right_op(self, g: int) -> list[int]:
        op = [0] * self.D
        cols = self.cols
        while g:
            low = g & -g
            for i, t in cols[low.bit_length() - 1]:
                op[i] ^= t
            g ^= low
        return op

    @staticmethod
    def apply(op: list[int], x: int) -> int:
        acc = 0
        while x:
            low = x & -x
            acc ^= op[low.bit_length() - 1]
            x ^= low
        return acc

    def add(self, u: int, v: int) -> int:
        return u ^ v

    @staticmethod
    def insert(piv: dict, v: int):
        """Reduce v while its top bit is a pivot; store and return the rest, or None when it is 0."""
        while v:
            top = v.bit_length() - 1
            r = piv.get(top)
            if r is None:
                piv[top] = v
                return v
            v ^= r
        return None

    @staticmethod
    def echelon(piv: dict) -> list[int]:
        """The fully reduced rows of the span, highest pivot first.

        A reduced row is zero above its pivot and at every other pivot, so
        clearing the pivots below a row, in any order, touches no other pivot.
        """
        done: list = []
        for t in sorted(piv):
            r = piv[t]
            for u, s in done:
                if r >> u & 1:
                    r ^= s
            done.append((t, r))
        return [r for _, r in reversed(done)]

    def span_elements(self, rows: list[int]) -> list[int]:
        out = [0]
        for r in rows:
            out += [x ^ r for x in out]
        return out

    # -- lane vectors: 1-bit lanes, AND as the product and XOR as the sum --

    @staticmethod
    def lanes(n: int) -> _Lanes:
        full = (1 << n) - 1
        return _Lanes(n, full, full, 1)

    @functools.cached_property
    def lane_terms(self) -> list[list[tuple[int, int]]]:
        """``lane_terms[i]`` lists the pairs (j, m) with e_m a term of e_i * e_j."""
        terms: list = [[] for _ in range(self.D)]
        for j, col in enumerate(self.cols):
            for i, prod in col:
                while prod:
                    low = prod & -prod
                    terms[i].append((j, low.bit_length() - 1))
                    prod ^= low
        return terms

    @staticmethod
    def batch_masks(L: _Lanes, g: list[int]) -> list[int]:
        """A generator's masks: over F_2 a lane of a slice is its own value mask."""
        return g

    def batch_product(self, L: _Lanes, x: list[int], g: list[int]) -> list[int]:
        """x * g lane by lane: the AND of the coordinates of each term, summed by XOR."""
        out = [0] * self.D
        terms = self.lane_terms
        for i, xi in enumerate(x):
            if xi:
                for j, m in terms[i]:
                    out[m] ^= xi & g[j]
        return out

    def batch_insert(self, L: _Lanes, rows: list, have: list[int], inv: list, v: list[int], live: int) -> None:
        """Reduce lane vector v in the lanes of ``live`` and store each lane's remainder at its pivot.

        The slots are visited from the top coordinate down.  Where v has a 1
        at t, the lanes holding a row with pivot t clear it with that row; in
        the others t becomes the pivot of what is left of v, which is stored
        and leaves the reduction.  ``rows[t]`` keeps the slices 0 .. t.
        Every pivot is 1, so the pivot inverses ``inv`` are not kept.
        """
        for t in range(self.D - 1, -1, -1):
            c = v[t] & live
            if not c:
                continue
            h = c & have[t]
            row = rows[t]
            if h:
                for u in range(t):
                    v[u] ^= row[u] & h
            new = c ^ h
            if new:
                if row is None:
                    rows[t] = [s & new for s in v[:t]] + [new]
                else:
                    for u in range(t):
                        row[u] |= v[u] & new
                    row[t] |= new
                have[t] |= new
                live ^= new
                if not live:
                    return


class _GfpEngine(_Engine):
    """Odd p: b-bit lanes that are summed lazily and reduced mod p all at once.

    Every lane of a stored vector lies in [0, p).  Sums of up to ``top`` per
    lane are left unreduced; ``_reduce`` then takes each lane x to x mod p as
    x - p * ((x * magic) >> shift), the quotient read through a mask.  The
    width b leaves room for ``top * magic`` in a lane, so neither the product
    by the magic nor the sums before it carry into the next lane.  A row's
    pivot is its lowest non-zero lane, where it holds 1, and canonical rows
    are in increasing pivot order.

    The lazy sums, each within ``top`` = (D+1)(p-1)^2: a right operator row
    and an application add at most D terms of at most (p-1)^2 in a lane;
    ``insert`` starts from a reduced vector and adds one such term per pivot
    it clears, at most D; ``echelon`` adds at most D - 1 to a reduced row.
    """

    def _lane_width(self) -> int:
        """Fix ``top`` and the reduction constants from p and D; return the lane width b."""
        p, D = self.p, self.D
        top = (D + 1) * (p - 1) ** 2
        shift = p.bit_length()
        while True:
            magic = -(-(1 << shift) // p)
            if top * (magic * p - (1 << shift)) < 1 << shift:
                break
            shift += 1
        b = (top * magic).bit_length()
        self.top, self.magic, self.shift = top, magic, shift
        self.lane = (1 << b) - 1
        self.quot = sum(((1 << (b - shift)) - 1) << (i * b) for i in range(D))
        return b

    def flat_of_index(self, idx: int) -> int:
        """The flat vector of the element with the given index: its low D base-p digits, one per lane."""
        acc = 0
        for pos in range(self.D):
            idx, c = divmod(idx, self.p)
            acc |= c << (pos * self.b)
        return acc

    def _reduce(self, v: int) -> int:
        return v - self.p * (((v * self.magic) >> self.shift) & self.quot)

    def right_op(self, g: int) -> list[int]:
        b, lane, cols = self.b, self.lane, self.cols
        op = [0] * self.D
        j = 0
        while g:
            c = g & lane
            if c:
                for i, t in cols[j]:
                    op[i] += c * t
            g >>= b
            j += 1
        return [self._reduce(r) for r in op]

    def apply(self, op: list[int], x: int) -> int:
        b, lane = self.b, self.lane
        acc = 0
        i = 0
        while x:
            c = x & lane
            if c:
                acc += c * op[i]
            x >>= b
            i += 1
        return self._reduce(acc)

    def add(self, u: int, v: int) -> int:
        return self._reduce(u + v)

    def insert(self, piv: dict, v: int):
        """Reduce v, whose lanes lie in [0, p), while its lowest non-zero lane
        is a pivot; store and return the rest scaled to 1 there, or None when it is 0.

        Only the lowest lane is read mod p: it is cleared, and a non-zero
        residue c there either takes (p - c) times the pivot's row off the
        pivot, or makes a new pivot.
        """
        p, b, lane = self.p, self.b, self.lane
        while v:
            j = ((v & -v).bit_length() - 1) // b
            s = j * b
            c = (v >> s) & lane
            v -= c << s
            c %= p
            if c:
                r = piv.get(j)
                if r is None:
                    v = self._reduce(v)
                    v = (1 << s) + (v if c == 1 else self._reduce(v * pow(c, p - 2, p)))
                    piv[j] = v
                    return v
                v += (p - c) * (r - (1 << s))
        return None

    def echelon(self, piv: dict) -> list[int]:
        """The fully reduced rows of the span, lowest pivot first.

        A reduced row is zero below its pivot and at every other pivot, so
        the lanes of a row at the pivots above its own are cleared from their
        values as stored, with one reduction at the end.
        """
        p, b, lane = self.p, self.b, self.lane
        done: list = []
        for j in sorted(piv, reverse=True):
            r = acc = piv[j]
            for u, s in done:
                c = (r >> (u * b)) & lane
                if c:
                    acc += (p - c) * s
            done.append((j, self._reduce(acc)))
        return [r for _, r in reversed(done)]

    def span_elements(self, rows: list[int]) -> list[int]:
        out = [0]
        for r in rows:
            out = [self._reduce(x + c * r) for x in out for c in range(self.p)]
        return out

    # -- lane vectors: b-bit lanes, summed lazily as above ------------------
    #
    # A product of two per-sample values a * y goes through the bit masks of
    # a: the lanes where bit t of a is set, each filled over its low w - 1
    # bits, so a * y = sum over t of (y & mask_t) << t, at most (p-1)^2 in a
    # lane.  Lazy sums stay within ``top`` and are reduced with the engine's
    # magic constant, read through the batch's own quotient mask.

    def lanes(self, n: int) -> _Lanes:
        b = self.b
        ones = ((1 << (n * b)) - 1) // ((1 << b) - 1)
        full, quot = ones * ((1 << (b - 1)) - 1), ones * ((1 << (b - self.shift)) - 1)
        return _Lanes(n, ones, full, b - 1, ones << (b - 1), quot)

    @functools.cached_property
    def lane_terms(self) -> tuple[list[tuple[int, int]], list[list[list[tuple[int, int]]]]]:
        """``(keys, terms)``: ``keys`` lists the pairs (j, c) of a coordinate and
        a coefficient, and ``terms[m]`` lists the pairs (i, key) such that e_m
        has coefficient c in e_i * e_j, in chunks of at most D.

        A reduced sum plus D terms of at most (p-1)^2 stays within ``top``.
        """
        b, lane, D = self.b, self.lane, self.D
        keys: dict = {}
        terms: list = [[] for _ in range(D)]
        for j, col in enumerate(self.cols):
            for i, prod in col:
                m = 0
                while prod:
                    c = prod & lane
                    if c:
                        terms[m].append((i, keys.setdefault((j, c), len(keys))))
                    prod >>= b
                    m += 1
        return list(keys), [[t[s : s + D] for s in range(0, len(t), D)] for t in terms]

    def _lane_reduce(self, L: _Lanes, v: int) -> int:
        return v - self.p * (((v * self.magic) >> self.shift) & L.quot)

    def _bit_masks(self, L: _Lanes, a: int) -> list[tuple[int, int]]:
        """The pairs (t, mask_t) of a reduced lane value a, for the bits t some lane has."""
        ones, fill = L.ones, (1 << (self.b - 1)) - 1
        return [(t, m) for t in range((self.p - 1).bit_length()) if (m := ((a >> t) & ones) * fill)]

    def _lane_mul(self, L: _Lanes, a: int, y: int) -> int:
        acc = 0
        for t, m in self._bit_masks(L, a):
            acc += (y & m) << t
        return self._lane_reduce(L, acc)

    def _lane_inverse(self, L: _Lanes, a: int) -> int:
        """a^(p-2), the inverse of every non-zero lane of a, by repeated squaring."""
        e, power, out = self.p - 2, a, None
        while True:
            if e & 1:
                out = power if out is None else self._lane_mul(L, out, power)
            e >>= 1
            if not e:
                return out
            power = self._lane_mul(L, power, power)

    def batch_masks(self, L: _Lanes, g: list[int]) -> list[list[tuple[int, int]]]:
        """A generator's masks: for each key (j, c) of ``lane_terms``, the bit masks of c * g_j."""
        return [self._bit_masks(L, g[j] if c == 1 else self._lane_reduce(L, c * g[j])) for j, c in self.lane_terms[0]]

    def batch_product(self, L: _Lanes, x: list[int], masks: list) -> list[int]:
        """x * g lane by lane, each term (x_i & mask) << t, reduced after every chunk of terms."""
        p, magic, shift, quot = self.p, self.magic, self.shift, L.quot
        out = []
        for chunks in self.lane_terms[1]:
            acc = 0
            for chunk in chunks:
                if acc:
                    acc -= p * (((acc * magic) >> shift) & quot)
                for i, key in chunk:
                    xi = x[i]
                    if xi:
                        for t, m in masks[key]:
                            acc += (xi & m) << t
            out.append(acc - p * (((acc * magic) >> shift) & quot) if acc else 0)
        return out

    def batch_insert(self, L: _Lanes, rows: list, have: list[int], inv: list, v: list[int], live: int) -> None:
        """Reduce lane vector v, whose lanes lie in [0, p), in the lanes of
        ``live``, and store each lane's remainder at its pivot, unscaled.

        ``inv[t]`` holds, in the lanes of ``have[t]``, minus the inverse of
        the pivot coordinate of the row stored at t, as its bit masks: mask
        s for bit s.  The slots are visited from coordinate 0 up.  Where v's
        lane c at t is not 0 mod p, the lanes holding a row r with pivot t
        add (c * inv mod p) times r, one term of at most (p-1)^2 per lane
        and slot; in the others t becomes the pivot of what is left of v,
        which is reduced and stored with minus the inverse of c, and leaves
        the reduction.
        """
        p, D, magic, shift, quot = self.p, self.D, self.magic, self.shift, L.quot
        low, high, b1 = L.full, L.high, self.b - 1
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
                ch, acc = c & h, 0
                for s, m in enumerate(inv[t]):
                    acc += (ch & m) << s
                masks = self._bit_masks(L, acc - p * (((acc * magic) >> shift) & quot))
                for u in range(t + 1, D):
                    r = row[u]
                    if r:
                        acc = v[u]
                        for s, m in masks:
                            acc += (r & m) << s
                        v[u] = acc
            new = nz ^ h
            if new:
                if row is None:
                    row = rows[t] = [0] * D
                    inv[t] = [0] * (p - 1).bit_length()
                for u in range(t + 1, D):
                    y = v[u] & new
                    if y:
                        row[u] |= y - p * (((y * magic) >> shift) & quot)
                c &= new
                row[t] |= c
                for s, m in self._bit_masks(L, (p * L.ones & new) - self._lane_inverse(L, c)):
                    inv[t][s] |= m
                have[t] |= new
                live ^= new
                if not live:
                    return


def _close(eng, base_rows, new_flats) -> list:
    """Canonical echelon rows of the F_p-subalgebra generated by a closed base span plus new elements.

    The subalgebra generated by a set G is the span of the words in G, the
    empty word being the unit.  So when the unit lies in the base span or
    among the new elements, that subalgebra is the smallest space holding
    both that is closed under multiplication on the right by G, taken here as
    the base rows and the new elements: the word g1...gn is then reached as
    (g1...g(n-1))*gn.  The base span is closed, so a base row needs
    multiplying only by the new elements, while each vector the closure adds
    is multiplied by every generator.  Multiplying by the unit changes
    nothing, so the unit is neither a generator nor a vector to multiply.

    A product x * g costs one packed addition per non-zero coordinate of x:
    it applies g's right operator, built at g's first use and at most once
    per call.  The working rows are semi-reduced, in a dict keyed by pivot
    (see ``_Engine``); for odd p each product arrives reduced, and insertion
    adds at most D multiples of (p-1)^2 to a lane before reducing it, within
    the engine's ``top``.  ``base_rows`` must be canonical rows, as this
    function returns them, and is not changed.  A closure that reaches the
    whole algebra returns ``eng.standard`` at once; a proper one forms its
    canonical rows once, at return, since the level keys of
    ``brute_gen_count`` and ``closure().basis`` read them.

    Every caller seeds the unit, through ``eng.scalars`` in the base span or
    among the new elements; with the scalars the result is also the
    F_q-subalgebra they generate.
    """
    D = eng.D
    unit = eng.scalars[0]
    insert, apply = eng.insert, eng.apply
    piv = {eng.pivot(r): r for r in base_rows}
    new = []
    for v in new_flats:
        if len(piv) == D:
            break
        red = insert(piv, v)
        if red is not None and red != unit:
            new.append(red)
    if new and len(piv) < D:
        old = [s for s in base_rows if s != unit]
        gens = old + new
        work = [(s, new) for s in old] + [(x, gens) for x in new]  # (vector, generators to multiply it by)
        ops: dict = {}  # generator -> its right operator, built at first use
        while work:
            x, by = work.pop()
            for g in by:
                op = ops.get(g)
                if op is None:
                    op = ops[g] = eng.right_op(g)
                red = insert(piv, apply(op, x))
                if red is not None:
                    if len(piv) == D:
                        return list(eng.standard)
                    work.append((red, gens))
    return list(eng.standard) if len(piv) == D else eng.echelon(piv)


def _coset_flats(eng, rows) -> list:
    """One flat per coset of the F_p-span of an echelon basis.

    The representatives are the vectors supported on the non-pivot
    coordinates, in the order of itertools.product over those coordinates.
    """
    pivots = {eng.pivot(r) for r in rows}
    out = [0]
    for pos in range(eng.D):
        if pos not in pivots:
            shift = pos * eng.b
            out = [x + (c << shift) for x in out for c in range(eng.p)]
    return out


def _nilpotent_ideal_rows(eng, basis, name: str) -> list:
    """Canonical echelon rows of the F_q-span of basis, checked to be a nilpotent two-sided ideal.

    Raises InvalidTable, naming the span, when it is not one.
    """
    apply, right_op = eng.apply, eng.right_op
    rows: dict = {}
    for v in basis:
        op = right_op(eng.flatten(tuple(v)))
        for s in eng.scalars:
            eng.insert(rows, apply(op, s))
    ops = [(r, right_op(r)) for r in rows.values()]
    for a in range(eng.D):
        op_a = right_op(eng.flat_of_index(eng.p**a))
        for r, op in ops:
            for prod in (op[a], apply(op_a, r)):  # e_a * r and r * e_a
                if eng.insert(dict(rows), prod) is not None:
                    raise InvalidTable(f"{name} is not a two-sided ideal")
    # The products of two F_q-spans span an F_q-space, so no scalars are needed here.
    current = list(rows.values())
    while current:
        nxt: dict = {}
        ops = [right_op(y) for y in current]
        for x in current:
            for op in ops:
                eng.insert(nxt, apply(op, x))
        if len(nxt) >= len(current):
            raise InvalidTable(f"{name} is not nilpotent")
        current = list(nxt.values())
    return eng.echelon(rows)


# -- the algebra type ------------------------------------------------------


class FiniteAlgebra:
    """A finite-dimensional unital associative F_q-algebra given by structure constants.

    ``table[i][j]`` holds the coordinates of the product of the i-th and j-th
    basis vectors; ``radical_basis`` spans the Jacobson radical.  Associativity,
    the unit law, and nilpotency of the radical span are verified at
    construction.
    """

    def __init__(self, base: FiniteField, table, unit, radical_basis=(), label: str = "", meta: dict | None = None):
        self.base = base
        self.table = tuple(tuple(tuple(v) for v in row) for row in table)
        self.dim = len(self.table)
        self.unit = tuple(unit)
        self.radical_basis = tuple(tuple(v) for v in radical_basis)
        self.label = label or f"algebra(dim={self.dim}, q={base.q})"
        self.meta = meta or {}
        self.size = base.q**self.dim
        self._engine = None
        d = self.dim
        if any(len(row) != d or any(len(v) != d for v in row) for row in self.table):
            raise InvalidTable(f"structure table of {self.label} is not {d} x {d} vectors of length {d}")
        if len(self.unit) != d:
            raise InvalidTable(f"unit of {self.label} has length {len(self.unit)}, not {d}")
        self._verify()

    def _eng(self):
        if self._engine is None:
            self._engine = _Gf2Engine(self) if self.base.p == 2 else _GfpEngine(self)
        return self._engine

    def _verify(self):
        """Check the unit law and associativity on the F_q-basis, and the radical span.

        The engine's product is the F_q-bilinear extension of ``table`` (flat
        entry (i, t)(j, u) is x^(t+u) table[i][j]), so the dim unit checks and
        the dim^3 basis triples decide both laws on every element.  With R_b
        the right operator of basis vector b, row a*e of R_b is a * b, so
        (a * b) * c is R_c applied to that row and a * (b * c) is row a*e of
        the right operator of b * c.  A failure names the first failing
        triple (a, b, c) in lexicographic order: once one is found, a later
        pair (b, c) is checked only on the rows a below it.
        """
        eng = self._eng()
        e, apply, right_op = eng.e, eng.apply, eng.right_op
        basis = [eng.flat_of_index(eng.p ** (i * e)) for i in range(self.dim)]
        ops = [right_op(bb) for bb in basis]
        u = eng.scalars[0]  # x^0 * unit
        op_u = right_op(u)
        for a, ba in enumerate(basis):
            if apply(ops[a], u) != ba or op_u[a * e] != ba:
                raise InvalidTable(f"unit law fails on basis vector {a} of {self.label}")
        failed = None
        rows = self.dim  # the rows a still worth checking
        for b, op_b in enumerate(ops):
            for c, op_c in enumerate(ops):
                op_bc = right_op(op_c[b * e])  # the right operator of b * c
                for a in range(rows):
                    if apply(op_c, op_b[a * e]) != op_bc[a * e]:
                        failed, rows = f"({a},{b},{c})", a
                        break
        if failed is not None:
            raise InvalidTable(f"associativity fails on basis triple {failed} of {self.label}")
        _nilpotent_ideal_rows(eng, self.radical_basis, f"radical span of {self.label}")

    def multiply(self, x, y) -> tuple[int, ...]:
        eng = self._eng()
        return eng.unflatten(eng.apply(eng.right_op(eng.flatten(y)), eng.flatten(x)))

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_engine"] = None
        return state

    def __repr__(self):
        return f"FiniteAlgebra({self.label})"


@dataclass(frozen=True)
class SubalgebraBasis:
    """Canonical echelon basis over F_p of a subalgebra; its span is an F_q-space."""

    algebra: FiniteAlgebra = field(compare=False)
    basis: tuple[tuple[int, ...], ...] = ()
    rank: int = 0  # dimension over the base field

    @property
    def is_full(self) -> bool:
        return self.rank == self.algebra.dim


def closure(alg: FiniteAlgebra, elements) -> SubalgebraBasis:
    """The unital subalgebra generated by the given elements."""
    eng = alg._eng()
    flats = [eng.flatten(tuple(v)) for v in elements]
    rows = _close(eng, [], eng.scalars + flats)
    if len(rows) % eng.e:
        raise CertificateError(f"the closure has F_{eng.p}-rank {len(rows)}, which is not a multiple of {eng.e}")
    return SubalgebraBasis(alg, tuple(eng.unflatten(r) for r in rows), len(rows) // eng.e)


def is_generating(alg: FiniteAlgebra, elements) -> bool:
    return closure(alg, elements).is_full


# -- exhaustive oracle -----------------------------------------------------


def brute_gen_count(alg: FiniteAlgebra, k: int, *, budget: int | None = None) -> int:
    """Exact number of k-tuples generating the algebra, by exhaustive enumeration.

    The search runs level by level.  Level d maps each subalgebra S that
    d-tuples generate (with the scalars), proper after level 0, to |S| times
    the number of those tuples and to one of them, its prefix.  S and x
    generate the same subalgebra as S and x + s for every s in S, so S is
    extended by one element per coset of its span.  The budget caps |A|^k,
    which bounds the number of cosets from above.

    The last generator only decides whether a tuple generates, so the cosets
    of every S of level k - 1 are closed in batches (``_close_batch``), one
    lane per coset, next to S's prefix.  A batch holds pieces of consecutive
    cosets of one or more S; coset c has the base-p digits of c as its
    coordinates off the pivots of S.  The coset numbers of a piece from c on
    are packed at once, as c * ones + ramp (``_packed_lanes``).
    """
    if k < 1:
        raise InvalidCount(f"k must be at least 1, got {k}")
    check_tuple_budget(alg.base.q, alg.dim * k, budget)
    eng = alg._eng()
    D, p, b = eng.D, eng.p, eng.b
    base = _close(eng, [], eng.scalars)
    total = 0
    level = {tuple(base): [p ** len(base), []]}
    for depth in range(1, k):
        nxt: dict = {}
        for S, (w, prefix) in level.items():
            for flat in _coset_flats(eng, S):
                T = tuple(_close(eng, S, [flat]))
                if len(T) == D:
                    total += w * alg.size ** (k - depth)
                else:
                    nxt.setdefault(T, [0, prefix + [flat]])[0] += w * p ** len(T)
        level = nxt
    B = _batch_size(eng, k)
    width = eng.load_width
    ones, ramp = _packed_lanes(B, width)

    def pieces():  # (batch number, first lane, lanes, weight, prefix, free positions, first coset)
        lanes = 0
        for S, (w, prefix) in level.items():
            pivots = {eng.pivot(r) for r in S}
            free = [pos for pos in range(D) if pos not in pivots]
            first, cosets = 0, p ** len(free)
            while first < cosets:  # a piece ends with its batch
                n = min(B - lanes % B, cosets - first)
                yield lanes // B, lanes % B, n, w, prefix, free, first
                lanes, first = lanes + n, first + n

    for _, batch in itertools.groupby(pieces(), operator.itemgetter(0)):
        batch = list(batch)
        _, at, n, *_ = batch[-1]
        L = eng.lanes(at + n)
        x = 0
        for _, at, n, *_, first in batch:  # cosets first, first + 1, ... from lane ``at`` on
            x |= ((first * ones + ramp) & ((1 << (n * width)) - 1)) << (at * width)
        digits = eng.batch_load(L, x)
        gens = [[0] * D for _ in range(k)]
        weights = []
        for _, at, n, w, prefix, free, _ in batch:
            mask = ((1 << (n * b)) - 1) << (at * b)
            for j, a in enumerate(prefix):
                gens[j] = [g | (s & mask) for g, s in zip(gens[j], eng.broadcast(L, a))]
            for pos, s in zip(free, digits):
                gens[-1][pos] |= s & mask
            weights.append((mask, w))
        full = _close_batch(eng, L, base, gens)
        total += sum(w * ((full & mask).bit_count() // L.bits) for mask, w in weights)
    return total


# -- Monte Carlo oracle ----------------------------------------------------


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def splitmix64_stream(seed: int, i: int) -> int:
    """The i-th raw output (i >= 1) of the splitmix64 counter stream from seed."""
    return _mix64((seed + i * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class SampleEstimate:
    """A Monte Carlo estimate of the generating fraction with a 95% Wilson interval."""

    k: int
    samples: int
    hits: int
    fraction: float
    ci_low: float
    ci_high: float
    seed: int


def _run_parts(fn, parts) -> list:
    """fn(*part) for each part, in a process pool when there are two parts or
    more, and serially when there is one or the pool cannot run.

    The pool's machinery is imported only here, before it starts.  Only a
    failure of the pool itself (an OSError, NotImplementedError or a broken
    pool) falls back to serial work, with a RuntimeWarning; any other
    exception, such as one raised by fn, propagates.
    """
    if len(parts) > 1:
        from concurrent import futures

        try:
            with futures.ProcessPoolExecutor(max_workers=len(parts)) as pool:
                return list(pool.map(fn, *zip(*parts)))
        except (OSError, NotImplementedError, futures.BrokenExecutor) as exc:
            warnings.warn(f"process pool failed ({exc!r}); recomputing serially", RuntimeWarning, stacklevel=3)
    return [fn(*part) for part in parts]


def _element_draws(size: int) -> int:
    """Stream outputs per drawn element: 1 for at most 2^64 elements, else the
    least m with 2^(64m) >= size * 2^64, so the modulo bias stays below 2^-64."""
    return 1 if size <= 1 << 64 else 1 + -(-(size - 1).bit_length() // 64)


def _packed_draws(seed: int, stride: int, size: int, n: int, width: int):
    """The function from first to the indices of drawn elements first,
    first + stride, ..., first + (n-1)*stride of the stream from seed,
    packed in n lanes of ``width`` bits (whole bytes, room for size - 1).

    The draws of a call are made in wide lanes, one per element, each with
    room for an element's m raw outputs times a magic constant, at least
    128 bits.  Output u of lane s has the counter
    seed + (first*m + u + 1 + s*stride*m) * golden, an arithmetic progression
    in s, so each splitmix64 step runs on every lane at once: a 64-bit value
    times a 64-bit constant stays in its lane, and is cut back to 64 bits.
    The raw values, first output lowest, are reduced modulo the size as
    x - size * ((x * magic) >> shift), the quotient read through the low
    64m bits of each lane, and the low bytes of the wide lanes are copied
    into the narrow ones, one strided copy per byte.
    """
    m = _element_draws(size)
    shift = 64 * m + size.bit_length()
    magic = -(-(1 << shift) // size)
    wb, nb = (64 * m + shift + 7) // 8, width // 8
    ones, ramp = _packed_lanes(n, 8 * wb)
    steps = ramp * (stride * m * _GOLDEN & _MASK64)
    quot = ones * ((1 << (64 * m)) - 1)
    masks = quot if m == 1 else ones * _MASK64  # a lane cut to 64 bits
    used = range(((size - 1).bit_length() + 7) // 8)

    def draw(first: int) -> int:
        x = 0
        for u in range(m):
            z = (((seed + (first * m + u + 1) * _GOLDEN) & _MASK64) * ones + steps) & masks
            z = ((z ^ (z >> 30)) & masks) * 0xBF58476D1CE4E5B9 & masks
            z = ((z ^ (z >> 27)) & masks) * 0x94D049BB133111EB & masks
            x |= ((z ^ (z >> 31)) & masks) << (64 * u)
        wide = (x - size * (((x * magic) >> shift) & quot)).to_bytes(n * wb, "little")
        out = bytearray(n * nb)
        for i in used:
            out[i::nb] = wide[i::wb]
        return int.from_bytes(out, "little")

    return draw


def _batch_size(eng, k: int) -> int:
    """Lanes per batch: SAMPLE_LANES, or fewer to keep the working set within SAMPLE_BITS.

    A lane takes D slices in each of the D slots and, per generator, D
    slices of bit masks; for odd p the slots' pivot inverses take D more.
    """
    D = eng.D
    masks = k + eng.e - 1 + (eng.p > 2)
    per_lane = (D * D + masks * D * (eng.p - 1).bit_length()) * eng.b
    return max(1, min(SAMPLE_LANES, SAMPLE_BITS // per_lane))


def _close_batch(eng, L: _Lanes, base_rows, gens: list) -> int:
    """The set of lanes (see ``_Lanes``) whose generators, with the scalars, generate the algebra.

    ``gens`` holds the lane vectors of a tuple's k elements; the scalars
    x^t * 1 (t >= 1) are generators too, the same in every lane.  The span
    starts from the closed base span of the scalars and the tuple's elements.
    Each round takes one row per live lane, the row of its lowest slot that
    it has not yet multiplied, gathers these rows into one lane vector,
    multiplies it by every generator and inserts the products; a lane leaves
    once it has all D pivots, and the closure stops when a round finds no
    row left.  A stored row never changes, so the order of the rounds does
    not matter: as in ``_close``, the span is then closed on the right under
    the generators and holds the unit, so it is the subalgebra they generate.
    The base rows need no products of their own: x^t * g = g * x^t, and
    g * x^t is reached from the rows that g's insertion added.
    """
    D, full = eng.D, L.full
    rows: list = [None] * D
    have, inv = [0] * D, [0] * D
    for r in base_rows:
        eng.batch_insert(L, rows, have, inv, eng.broadcast(L, r), full)
    done = list(have)
    for g in gens:
        eng.batch_insert(L, rows, have, inv, list(g), full)
    masks = [eng.batch_masks(L, g) for g in gens + [eng.broadcast(L, s) for s in eng.scalars[1:]]]
    alive = full & ~functools.reduce(operator.and_, have)
    while alive:
        x, free = [0] * D, alive
        for t in range(D):
            todo = (have[t] ^ done[t]) & free
            if todo:
                done[t] |= todo
                free ^= todo
                for i, s in enumerate(rows[t]):
                    x[i] |= s & todo
                if not free:
                    break
        picked = alive ^ free
        if not picked:
            break
        for m in masks:
            eng.batch_insert(L, rows, have, inv, eng.batch_product(L, x, m), picked)
        alive &= ~functools.reduce(operator.and_, have)
    return functools.reduce(operator.and_, have)


def _sample_range(alg: FiniteAlgebra, k: int, start: int, stop: int, seed: int) -> int:
    """The number of generating tuples among samples start .. stop - 1, closed in
    batches of ``_batch_size`` samples, one lane each (``_close_batch``).

    Generator j of a batch is loaded from drawn elements j, j + k, ... of
    its first sample on, packed in the lanes of one integer (``_packed_draws``)."""
    eng = alg._eng()
    base = _close(eng, [], eng.scalars)
    B = _batch_size(eng, k)
    draw = _packed_draws(seed, k, alg.size, B, eng.load_width)
    hits = 0
    for first in range(start, stop, B):
        n = min(B, stop - first)
        L = eng.lanes(n)
        cut = (1 << (n * eng.load_width)) - 1
        gens = [eng.batch_load(L, draw(first * k + j) & cut) for j in range(k)]
        hits += _close_batch(eng, L, base, gens).bit_count() // L.bits
    return hits


def sample_gen_fraction(
    alg: FiniteAlgebra, k: int, samples: int, *, seed: int = 0, budget: int | None = None, workers: int = 1
) -> SampleEstimate:
    """Estimate the fraction of generating k-tuples from uniform index samples.

    Sample t (0-based) uses drawn elements t*k .. t*k+k-1 of the stream:
    element n reads the m = ``_element_draws(size)`` raw outputs
    n*m+1 .. n*m+m (``splitmix64_stream``) as one integer, the first output
    lowest, and reduces it modulo the algebra's size.  So results are
    identical for any worker partition: the samples are split into at most
    `workers` ranges, each counted by ``_sample_range``, in a process pool
    only when there are two ranges or more (``_run_parts``).
    """
    if k < 1 or samples < 1 or workers < 1:
        raise InvalidCount(f"k, samples and workers must be positive, got k={k}, samples={samples}, workers={workers}")
    check_sample_budget(samples, budget)
    bounds = [samples * i // workers for i in range(workers + 1)]
    parts = [(alg, k, bounds[i], bounds[i + 1], seed) for i in range(workers) if bounds[i] < bounds[i + 1]]
    hits = sum(_run_parts(_sample_range, parts))
    z = 1.96
    n = samples
    ph = hits / n
    den = 1 + z * z / n
    center = (ph + z * z / (2 * n)) / den
    half = z * math.sqrt(ph * (1 - ph) / n + z * z / (4 * n * n)) / den
    return SampleEstimate(k, samples, hits, ph, max(0.0, center - half), min(1.0, center + half), seed)


# -- radical lifting oracle -------------------------------------------------


def lift_count(alg: FiniteAlgebra, ideal_basis, b_tuple, *, budget: int | None = None) -> int:
    """Number of lifts of a generating tuple of A/I that generate A.

    ``ideal_basis`` spans a nilpotent two-sided ideal I and ``b_tuple`` is a
    tuple of coset representatives whose images generate A/I; the count runs
    over all |I|^k translation tuples.
    """
    eng = alg._eng()
    D = eng.D
    rows = _nilpotent_ideal_rows(eng, ideal_basis, "the given span")
    b_flats = [eng.flatten(tuple(v)) for v in b_tuple]
    k = len(b_flats)
    if k < 1:
        raise InvalidCount("the quotient tuple must have at least one element")
    if len(_close(eng, [], eng.scalars + b_flats + list(rows))) != D:
        raise NotGenerating("the given tuple does not generate the quotient algebra")
    check_tuple_budget(eng.p, len(rows) * k, budget)
    count = 0
    for xs in itertools.product(eng.span_elements(rows), repeat=k):
        lifted = [eng.add(b, x) for b, x in zip(b_flats, xs)]
        if len(_close(eng, [], eng.scalars + lifted)) == D:
            count += 1
    return count


def coset_representatives(alg: FiniteAlgebra, ideal_basis) -> list[tuple[int, ...]]:
    """Canonical representatives of A modulo the span of an ideal basis."""
    eng = alg._eng()
    rows = _nilpotent_ideal_rows(eng, ideal_basis, "the given span")
    return [eng.unflatten(flat) for flat in _coset_flats(eng, rows)]


# -- constructors -----------------------------------------------------------


def _subfield_embedding(F: FiniteField, E: FiniteField) -> Sequence[int]:
    """Encoding table of the field embedding F -> E sending the modulus root of F
    to its least root in E.

    Every root is a nonzero element of the copy of F inside E, so only the
    F.q - 1 powers of E.generator ** ((E.q - 1) // (F.q - 1)) are tried.
    """
    if F.e == 1:
        return range(F.q)
    g = E.pow(E.generator, (E.q - 1) // (F.q - 1))
    roots = []
    a = 1
    for _ in range(F.q - 1):
        acc = 0
        for c in reversed(F.modulus):
            acc = E.add(E.mul(acc, a), c)
        if acc == 0:
            roots.append(a)
        a = E.mul(a, g)
    if not roots:
        raise CertificateError("modulus has no root in the extension")
    rho = min(roots)
    table = []
    for a in range(F.q):
        acc = 0
        for c in reversed(F.coords(a)):
            acc = E.add(E.mul(acc, rho), c)
        table.append(acc)
    return table


def _power_basis_coords(F: FiniteField, E: FiniteField, emb: Sequence[int], width: int):
    """Coordinate function for E over F in the basis 1, w, ..., w^(width-1),
    where w is the multiplicative generator of E."""
    p = F.p
    w = E.generator
    cols = []
    for t in range(width):
        wt = E.pow(w, t)
        for u in range(F.e):
            cols.append(list(E.coords(E.mul(emb[p**u], wt))))
    inv_rows = _inv_matrix_mod_p(cols, p)
    cache: dict[int, tuple[int, ...]] = {}

    def coords_of(x: int) -> tuple[int, ...]:
        got = cache.get(x)
        if got is not None:
            return got
        flat = E.coords(x)
        digits = [sum(row[i] * flat[i] for i in range(len(flat))) % p for row in inv_rows]
        out = tuple(F.from_coords(digits[t * F.e : (t + 1) * F.e]) for t in range(width))
        cache[x] = out
        return out

    return coords_of


def matrix_algebra(n: int, base_q: int | PrimePower, r: int = 1) -> FiniteAlgebra:
    """M_n(F_{q^r}) viewed as an algebra over F_q, of dimension n^2 r.

    Built as matrix_over(F_{q^r}, n), with F_{q^r} the truncated local algebra
    with f = r and m = e = 1.  Basis: matrix units tensored with the power
    basis 1, w, ..., w^(r-1) of the coefficient field over F_q, w its
    multiplicative generator; index (u, v, t) -> (u*n + v)*r + t.
    """
    matrix_algebra_base(n, base_q, r)
    coeffs = truncated_local_algebra(base_q, r, 1, 1, 1)
    alg = matrix_over(coeffs, n)
    q = coeffs.base.q
    alg.label = f"M_{n}(F_{q**r}) over F_{q}"
    alg.meta = {"kind": "matrix", "n": n, "r": r, "coeff_field": coeffs.meta["coeff_field"]}
    return alg


def _check_matrix_size(n: int) -> None:
    if n < 1:
        raise OrdgenError(f"matrix size n must be at least 1, got n={n}")


def matrix_algebra_base(n: int, base_q: int | PrimePower, r: int = 1) -> FiniteField:
    """The base field of matrix_algebra(n, base_q, r), after the same parameter
    checks in the same order, without building a table."""
    if r < 1:
        raise OrdgenError(f"extension degree r must be at least 1, got r={r}")
    F = truncated_local_base(base_q, r, 1, 1, 1)
    _check_matrix_size(n)
    return F


def product_base(a: FiniteField, b: FiniteField) -> FiniteField:
    """The base field of a product of algebras over a and b; BaseMismatch if they differ."""
    if a != b:
        raise BaseMismatch(f"base fields differ: {a} vs {b}")
    return a


def product_algebra(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Direct product with componentwise operations."""
    product_base(a.base, b.base)
    da, db = a.dim, b.dim
    dim = da + db
    zero = tuple([0] * dim)
    table = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if i < da and j < da:
                row.append(tuple(a.table[i][j]) + (0,) * db)
            elif i >= da and j >= da:
                row.append((0,) * da + tuple(b.table[i - da][j - da]))
            else:
                row.append(zero)
        table.append(row)
    unit = tuple(a.unit) + tuple(b.unit)
    radical = [tuple(v) + (0,) * db for v in a.radical_basis] + [(0,) * da + tuple(v) for v in b.radical_basis]
    label = f"({a.label}) x ({b.label})"
    return FiniteAlgebra(a.base, table, unit, radical, label, {"kind": "product"})


def truncated_local_base(q: int | PrimePower, f: int, m: int, s: int, e: int) -> FiniteField:
    """The base field F_q of truncated_local_algebra(q, f, m, s, e), after its
    parameter checks, without building a table."""
    for name, value in (("f", f), ("m", m), ("e", e)):
        if value < 1:
            raise OrdgenError(f"truncated local algebra parameter {name} must be at least 1, got {name}={value}")
    if not (1 <= s <= m) or math.gcd(s, m) != 1:
        raise InvalidTwist(f"twist s={s} must satisfy 1 <= s <= m and gcd(s, m) = 1")
    F = field_of(q)
    build_field(F.p, F.e * f * m)  # the coefficient field, within the prime power cap
    return F


def truncated_local_algebra(q: int | PrimePower, f: int, m: int, s: int, e: int) -> FiniteAlgebra:
    """The twisted truncated algebra with residue data (f, m, s, e) over F_q.

    Basis w^i pi^j with 0 <= i < f*m, 0 <= j < e*m, where w generates the
    coefficient field F_{q^(f*m)} and pi * a = a^((q^f)^s) * pi; pi^(e*m) = 0.
    The radical is spanned by the basis vectors with j >= 1.  Dimension over
    F_q is f * m^2 * e.  For m = 1 this degenerates to F_{q^f}[u]/(u^e).
    """
    F = truncated_local_base(q, f, m, s, e)
    fm = f * m
    em = e * m
    dim = fm * em
    E = build_field(F.p, F.e * fm)
    emb = _subfield_embedding(F, E)
    beta = _power_basis_coords(F, E, emb, fm)
    w = E.generator
    frob_steps = F.e * f * s  # pi a pi^{-1} = a^(p^(e0*f*s))

    def idx(i, j):
        return j * fm + i

    zero = tuple([0] * dim)
    table = []
    for a in range(dim):
        i1, j1 = a % fm, a // fm
        row = []
        for b in range(dim):
            i2, j2 = b % fm, b // fm
            if j1 + j2 >= em:
                row.append(zero)
                continue
            coeff = E.mul(E.pow(w, i1), E.frobenius(E.pow(w, i2), frob_steps * j1))
            vec = [0] * dim
            for wi, c in enumerate(beta(coeff)):
                vec[idx(wi, j1 + j2)] = c
            row.append(tuple(vec))
        table.append(row)
    unit = [0] * dim
    unit[0] = 1
    radical = []
    for j in range(1, em):
        for i in range(fm):
            vec = [0] * dim
            vec[idx(i, j)] = 1
            radical.append(tuple(vec))
    label = f"TW(q={F.q},f={f},m={m},s={s},e={e})"
    meta = {
        "kind": "twisted",
        "f": f,
        "m": m,
        "s": s,
        "e": e,
        "coeff_field": E,
    }
    return FiniteAlgebra(F, table, unit, radical, label, meta)


def matrix_over(alg: FiniteAlgebra, n: int) -> FiniteAlgebra:
    """M_n(A) for a structure-constant algebra A; radical is M_n(J(A))."""
    _check_matrix_size(n)
    if n == 1:
        return alg
    da = alg.dim
    dim = n * n * da
    zero = tuple([0] * dim)

    def idx(u, v, w):
        return (u * n + v) * da + w

    table = []
    for a in range(dim):
        u, v, w = a // (n * da), (a // da) % n, a % da
        row = []
        for b in range(dim):
            u2, v2, w2 = b // (n * da), (b // da) % n, b % da
            if v != u2:
                row.append(zero)
                continue
            vec = [0] * dim
            for x, c in enumerate(alg.table[w][w2]):
                vec[idx(u, v2, x)] = c
            row.append(tuple(vec))
        table.append(row)
    unit = [0] * dim
    for u in range(n):
        for w, c in enumerate(alg.unit):
            unit[idx(u, u, w)] = c
    radical = []
    for u in range(n):
        for v in range(n):
            for rv in alg.radical_basis:
                vec = [0] * dim
                for w, c in enumerate(rv):
                    vec[idx(u, v, w)] = c
                radical.append(tuple(vec))
    label = f"M_{n}({alg.label})"
    return FiniteAlgebra(alg.base, table, unit, radical, label, {"kind": "matrix_over", "n": n})


def _coeff_coords(alg: FiniteAlgebra):
    """Coordinates over the base field of the coefficient field of a matrix or
    truncated local algebra, in the power basis its constructor used."""
    F, E = alg.base, alg.meta["coeff_field"]
    return _power_basis_coords(F, E, _subfield_embedding(F, E), E.e // F.e)


def twisted_element(alg: FiniteAlgebra, coeffs) -> tuple[int, ...]:
    """Element of a truncated local algebra from coefficient-field encodings per pi-power."""
    if alg.meta.get("kind") != "twisted":
        raise InvalidElement(f"{alg.label} is not a truncated local algebra")
    E: FiniteField = alg.meta["coeff_field"]
    fm = alg.meta["f"] * alg.meta["m"]
    em = alg.meta["e"] * alg.meta["m"]
    coeffs = list(coeffs)
    if len(coeffs) > em:
        raise InvalidElement(f"{alg.label} takes at most {em} pi-power coefficients, got {len(coeffs)}")
    coords = [0] * alg.dim
    coords_of = _coeff_coords(alg)
    for j, x in enumerate(coeffs):
        if not 0 <= x < E.q:
            raise InvalidElement(f"coefficient {x} is not an element of F_{E.q}")
        for i, c in enumerate(coords_of(x)):
            coords[j * fm + i] = c
    return tuple(coords)


def matrix_element(alg: FiniteAlgebra, entries) -> tuple[int, ...]:
    """Element of matrix_algebra(n, q, r) from an n x n array of coefficient-field encodings."""
    if alg.meta.get("kind") != "matrix":
        raise InvalidElement(f"{alg.label} is not a matrix algebra")
    n, r = alg.meta["n"], alg.meta["r"]
    coords = [0] * alg.dim
    coords_of = _coeff_coords(alg)
    for u in range(n):
        for v in range(n):
            for t, c in enumerate(coords_of(entries[u][v])):
                coords[(u * n + v) * r + t] = c
    return tuple(coords)
