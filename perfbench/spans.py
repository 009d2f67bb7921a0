"""Spans around the calls into each layer of `ordgen`, and the per-layer metrics.

The tracer wraps the public functions of each layer, plus `finalg._close`,
the one function every subalgebra closure passes through.  Each wrapper
replaces the function under every name a module of the package looks it up
by, because `cli`, `solver` and `orderspec` import functions by name.  Engine
products are not wrapped: a span per `mul` would cost more than the product.

A span is (id, name, job, parent, start, end, value).  Spans are kept in
memory and written out as JSON lines after the pass has been timed; the first
line holds the pass-level counters.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span, named "<module>.<function>".
TRACED = (
    ("cli", "main"),
    ("solver", "render_json"),
    ("solver", "render_text"),
    ("solver", "density_text"),
    ("solver", "quaternion_table_text"),
    ("finalg", "matrix_algebra"),
    ("finalg", "truncated_local_algebra"),
    ("finalg", "product_algebra"),
    ("finalg", "matrix_over"),
    ("finalg", "_close"),
    ("finalg", "brute_gen_count"),
    ("finalg", "sample_gen_fraction"),
    ("orderspec", "local_data"),
    ("orderspec", "classify"),
    ("orderspec", "degree_pattern"),
    ("orderspec", "min_k_local"),
    ("orderspec", "gen_count_local"),
    ("counting", "min_k_for_copies"),
    ("solver", "smallest_h"),
    ("solver", "prime_cutoff"),
    ("solver", "density"),
)

RENDER = {"solver.render_json", "solver.render_text", "solver.density_text", "solver.quaternion_table_text"}
BUILD = {"finalg.matrix_algebra", "finalg.truncated_local_algebra", "finalg.product_algebra", "finalg.matrix_over"}

# Per-layer metrics in output order, with their units.
METRICS = (
    ("cli.render_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("finalg.build_s", "s"),
    ("finalg.close_calls", "count"),
    ("finalg.close_s", "s"),
    ("finalg.close_full_ratio", "ratio"),
    ("finalg.enumerate_self_s", "s"),
    ("finalg.sample_self_s", "s"),
    ("orderspec.local_data_calls", "count"),
    ("orderspec.local_data_s", "s"),
    ("orderspec.classify_calls", "count"),
    ("orderspec.classify_s", "s"),
    ("orderspec.classify_distinct_ratio", "ratio"),
    ("orderspec.degree_pattern_s", "s"),
    ("orderspec.min_k_local_s", "s"),
    ("orderspec.gen_count_local_s", "s"),
    ("counting.lru_hit_ratio", "ratio"),
    ("counting.min_k_for_copies_s", "s"),
    ("solver.smallest_h_calls", "count"),
    ("solver.smallest_h_self_s", "s"),
    ("solver.prime_cutoff_s", "s"),
    ("solver.density_self_s", "s"),
    ("solver.density_bits", "bits"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Records spans in memory while the wrapped functions run."""

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self.stack: list[int] = []
        self.job: int | None = None
        self._ids = itertools.count()
        # classify receives LocalPrimeData, which does not name its spec; the
        # local_data wrapper tags each result with (spec number, prime).
        self._spec_numbers: dict[int, int] = {}
        self._specs: list = []  # keeps specs alive so their ids stay unique
        self._pending_keys: dict[int, tuple[int, int]] = {}

    # Values recorded with a span, by span name.

    def _close_value(self, args, result):
        return int(len(result) == args[0].D)  # the closure reached the whole algebra

    def _density_value(self, args, result):
        return result.upper.denominator.bit_length()

    def _local_data_value(self, args, result):
        spec, p = args[0], args[1]
        number = self._spec_numbers.get(id(spec))
        if number is None:
            number = self._spec_numbers[id(spec)] = len(self._specs)
            self._specs.append(spec)
        self._pending_keys[id(result)] = (number, p)
        return None

    def _classify_value(self, args, result):
        return self._pending_keys.pop(id(args[0]), (-1, args[0].p))

    def wrap(self, name: str, fn):
        records, stack, ids, clock = self.records, self.stack, self._ids, time.perf_counter
        value_of = {
            "finalg._close": self._close_value,
            "solver.density": self._density_value,
            "orderspec.local_data": self._local_data_value,
            "orderspec.classify": self._classify_value,
        }.get(name)

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = value_of(args, result) if value_of is not None and result is not None else None
                records.append((sid, name, self.job, parent, start, end, value))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every traced function under each name a module of `ordgen` uses for it."""
        modules = [m for key, m in sys.modules.items() if key == "ordgen" or key.startswith("ordgen.")]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"ordgen.{module_name}"], func_name)
            wrapper = self.wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def run_job(self, job: int, fn, *args):
        self.job = job
        try:
            return fn(*args)
        finally:
            self.job = None

    def lru_counts(self) -> tuple[int, int]:
        """(hits, lookups) summed over the lru caches of `ordgen.counting`."""
        counting = sys.modules["ordgen.counting"]
        caches = {}
        for value in vars(counting).values():
            # A traced cached function is reached through its wrapper's __wrapped__.
            cached = value if hasattr(value, "cache_info") else getattr(value, "__wrapped__", None)
            if hasattr(cached, "cache_info"):
                caches[id(cached)] = cached.cache_info()
        hits = sum(ci.hits for ci in caches.values())
        return hits, hits + sum(ci.misses for ci in caches.values())

    def write(self, path: str, **counters) -> None:
        hits, lookups = self.lru_counts()
        header = dict(counters, lru_hits=hits, lru_lookups=lookups, spans=len(self.records))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")


def read(path: str) -> tuple[dict, list[list]]:
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        return header, [json.loads(line) for line in fh]


def layer_metrics(header: dict, records: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counters."""
    name_of = {}
    parent_of = {}
    duration = {}
    child_time: dict[int, float] = defaultdict(float)
    by_name: dict[str, list] = defaultdict(list)
    for sid, name, _job, parent, start, end, _value in records:
        name_of[sid] = name
        parent_of[sid] = parent
        duration[sid] = end - start
        child_time[parent] += end - start
    for rec in records:
        by_name[rec[1]].append(rec)

    def outermost(names: set[str]) -> float:
        total = 0.0
        for name in names:
            for rec in by_name[name]:
                p = rec[3]
                while p != -1 and name_of.get(p) not in names:
                    p = parent_of.get(p, -1)
                if p == -1:
                    total += duration[rec[0]]
        return total

    def inclusive(name: str) -> float:
        return outermost({name})

    def self_time(name: str) -> float:
        return sum(duration[rec[0]] - child_time[rec[0]] for rec in by_name[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    closes = by_name["finalg._close"]
    classifies = by_name["orderspec.classify"]
    distinct = {(rec[2], tuple(rec[6]) if rec[6] is not None else None) for rec in classifies}
    densities = [rec[6] for rec in by_name["solver.density"] if rec[6] is not None]
    return {
        "cli.render_s": outermost(RENDER),
        "cli.output_bytes": header["output_bytes"],
        "finalg.build_s": outermost(BUILD),
        "finalg.close_calls": len(closes),
        "finalg.close_s": inclusive("finalg._close"),
        "finalg.close_full_ratio": ratio(sum(rec[6] or 0 for rec in closes), len(closes)),
        "finalg.enumerate_self_s": self_time("finalg.brute_gen_count"),
        "finalg.sample_self_s": self_time("finalg.sample_gen_fraction"),
        "orderspec.local_data_calls": len(by_name["orderspec.local_data"]),
        "orderspec.local_data_s": inclusive("orderspec.local_data"),
        "orderspec.classify_calls": len(classifies),
        "orderspec.classify_s": inclusive("orderspec.classify"),
        "orderspec.classify_distinct_ratio": ratio(len(distinct), len(classifies)),
        "orderspec.degree_pattern_s": inclusive("orderspec.degree_pattern"),
        "orderspec.min_k_local_s": inclusive("orderspec.min_k_local"),
        "orderspec.gen_count_local_s": inclusive("orderspec.gen_count_local"),
        "counting.lru_hit_ratio": ratio(header["lru_hits"], header["lru_lookups"]),
        "counting.min_k_for_copies_s": inclusive("counting.min_k_for_copies"),
        "solver.smallest_h_calls": len(by_name["solver.smallest_h"]),
        "solver.smallest_h_self_s": self_time("solver.smallest_h"),
        "solver.prime_cutoff_s": inclusive("solver.prime_cutoff"),
        "solver.density_self_s": self_time("solver.density"),
        "solver.density_bits": max(densities, default=0),
    }
