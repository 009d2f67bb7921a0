"""Checks of the program's outputs, made apart from the code paths they check.

Each check compares an output with a value computed another way (closed
forms against enumeration, 1/zeta(k) against an Euler product, orbit-count
capacities against the verdict search) or with a property the method must
have (monotone thresholds, nested intervals, identical reruns).  None of
them compares with a stored copy of an earlier output.

`check(workload, jobs, results)` returns (failed, errors): the number of jobs
that exited non-zero, and one message per wrong output among the others.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from ordgen import counting

# Printed intervals carry 12 significant digits.
TEXT_TOL = 1e-11


class CheckError(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- closed forms and capacities ---------------------------------------------


def pgl_order(n: int, q: int) -> int:
    """|PGL_n(F_q)| = q^(n(n-1)/2) * prod_{i=2..n} (q^i - 1)."""
    out = q ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        out *= q**i - 1
    return out


def simple_count(k: int, n: int, q: int, r: int) -> int:
    """Generating k-tuples of M_n(F_{q^r}) over F_q, from the closed forms in `counting`."""
    return counting.gen_count_twisted(k, n, q, r) if r > 1 else counting.gen_count_exact(k, n, q)


def closed_form(form: tuple, k: int) -> int:
    """The count an oracle job must print, from closed forms and Hall's product relation."""
    kind = form[0]
    if kind == "matrix":
        _, n, q, r = form
        return simple_count(k, n, q, r)
    if kind == "local":
        # One radical layer per unit of e*m on top of the residue field F_{q^(fm)}.
        _, q, f, m, e = form
        r = f * m
        c = Fraction(1) if m > 1 else Fraction(1, q**f) if e > 1 else Fraction(0)
        piece = Fraction(q) ** (k * r * (e * m - 2)) * (Fraction(q) ** (k * r) - c * Fraction(q) ** r)
        value = counting.gen_count_twisted(k, 1, q, r) * piece
        assert value.denominator == 1
        return int(value)
    if kind == "square":
        # P. Hall: phi(A x A) = phi(A) (phi(A) - |Aut A|) for a simple A, where
        # |Aut_{F_q} M_n(F_{q^r})| = r |PGL_n(F_{q^r})|.
        _, n, q, r = form[1]
        phi = closed_form(form[1], k)
        return phi * (phi - r * pgl_order(n, q**r))
    if kind == "pair":
        return closed_form(form[1], k) * closed_form(form[2], k)
    raise ValueError(f"unknown closed form {form!r}")


def tuple_space(form: tuple, k: int) -> int:
    _, n, q, r = form
    return q ** (n * n * r * k)


def _least_k(capacity, copies: int, start: int = 1) -> int:
    k = start
    while capacity(k) < copies:
        k += 1
    return k


def _primes_below(n: int) -> list[int]:
    return [p for p in range(2, n) if all(p % d for d in range(2, int(p**0.5) + 1))]


def power_h(n: int, ramified, copies: int) -> int:
    """Smallest h for the copies-th power of a maximal order with centre Q and degree n.

    At every prime the copies blocks must be pairwise non-conjugate generated
    images, so the local bound is the least k whose orbit count (capacity)
    reaches copies.  Split primes give M_n(F_p) with capacity
    phi_k(M_n(F_p)) / |PGL_n(F_p)|, which grows with p, so the least
    unramified prime is the binding one.  A ramified quaternion prime gives
    the local algebra F_{p^2}[pi]/(pi^2), capacity (p^2k - p^k)/2, and needs
    k >= 2 because one element generates a commutative subalgebra.
    """
    p0 = next(p for p in range(2, 100) if p not in ramified and all(p % d for d in range(2, p)))
    if n == 1:
        return _least_k(lambda k: p0**k, copies)
    if n == 2:
        def phi(k):
            return p0 ** (2 * k + 1) * (p0 ** (k - 1) - 1) * (p0**k - 1)
    else:
        def phi(k):
            return counting.gen_count_exact(k, n, p0)
    h = _least_k(lambda k: phi(k) // pgl_order(n, p0), copies)
    for p in ramified:
        h = max(h, _least_k(lambda k: (p ** (2 * k) - p**k) // 2, copies, start=2))
    return h


def inverse_zeta(k: int) -> float:
    """1/zeta(k) from the partial sum and its Euler-Maclaurin tail."""
    n = 1000
    s = sum(j**-k for j in range(1, n))
    s += n ** (1 - k) / (k - 1) + n**-k / 2 + k * n ** (-k - 1) / 12
    return 1 / s


# -- parsing -------------------------------------------------------------------

HEAD_KEYS = ("free over base", "smallest h", "certified cutoff", "critical primes", "dimension", "verdict",
             "note", "r_K")
DENSITY_KEYS = ("truncation bound", "tail coefficient", "density", "reason", "upper", "lower", "note", "k")


def _fields(block: list[str], keys) -> dict[str, str]:
    out = {}
    for line in block:
        key = next((k for k in keys if line.startswith(k + " ")), None)
        _expect(key is not None, f"unexpected line {line!r}")
        out[key] = line[len(key):].strip()
    return out


def parse_density(block: list[str]) -> dict:
    f = _fields(block, DENSITY_KEYS)
    doc = {"k": int(f["k"]), "bound": int(f["truncation bound"])}
    if "density" in f:
        _expect(f["density"] == "0 (exact)", f"bad density line {f['density']!r}")
        doc["lower"] = doc["upper"] = 0.0
    else:
        doc["lower"], doc["upper"] = float(f["lower"]), float(f["upper"])
    return doc


def parse_report(text: str) -> dict:
    blocks, current = [], []
    for line in text.splitlines():
        if line.strip():
            current.append(line)
        elif current:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)
    head = _fields(blocks[0], HEAD_KEYS)
    doc = {
        "dimension": int(head["dimension"]),
        "free": head["free over base"] == "yes",
        "h": int(head["smallest h"].split()[0]),
        "refined": head["smallest h"].endswith("(refined: exactly 2)"),
        "kind": head["verdict"],
        "cutoff": int(head["certified cutoff"].split()[0]),
        "critical": [] if head["critical primes"].startswith("(") else
        [int(p) for p in head["critical primes"].split(", ")],
        "rows": [],
        "density": None,
    }
    for block in blocks[1:]:
        if block[0].startswith("prime  min_k"):
            doc["rows"] = [tuple(int(x) for x in line.split()[:2]) for line in block[1:]]
        else:
            doc["density"] = parse_density(block)
    return doc


RANGE = re.compile(r"^\s+(\d+)\s+(?:(\d+) <= m <= (\d+)|m = (\d+))$")


def parse_table(text: str) -> list[tuple[int, int, int]]:
    ranges = []
    for line in text.splitlines()[3:]:
        m = RANGE.match(line)
        _expect(m is not None, f"unexpected table line {line!r}")
        h, lo, hi, single = m.groups()
        ranges.append((int(h), int(lo or single), int(hi or single)))
    return ranges


# -- per-workload checks ------------------------------------------------------------


def check_oracle(job: dict, out: str) -> None:
    c = job["check"]
    want = closed_form(c["form"], c["k"])
    got = int(out.strip())
    _expect(got == want, f"{c['alg']} k={c['k']}: enumeration gave {got}, closed form {want}")


ESTIMATE = re.compile(r"^estimate (\d+)/(\d+) = [0-9.]+  \(95% CI \[[0-9.]+, [0-9.]+\], seed (\d+)\)$")


def check_sample(job: dict, out: str) -> int:
    """Check one estimate against the closed-form fraction; returns its hits."""
    c = job["check"]
    m = ESTIMATE.match(out.strip())
    _expect(m is not None, f"unparsable estimate {out!r}")
    hits, samples, seed = map(int, m.groups())
    _expect(samples == c["samples"] and seed == c["seed"], f"estimate echoes {samples} samples, seed {seed}")
    frac = closed_form(c["form"], c["k"]) / tuple_space(c["form"], c["k"])
    sigma = math.sqrt(frac * (1 - frac) / samples)
    _expect(abs(hits / samples - frac) <= 5 * sigma,
            f"{c['alg']} k={c['k']}: {hits}/{samples} is more than 5 sigma from {frac:.6f}")
    return hits


def _check_interval(d: dict, zeta_k: int | None) -> None:
    _expect(0 <= d["lower"] <= d["upper"] <= 1, f"interval [{d['lower']}, {d['upper']}] is not ordered in [0, 1]")
    if zeta_k is not None:
        z = inverse_zeta(zeta_k)
        _expect(d["lower"] - TEXT_TOL <= z <= d["upper"] + TEXT_TOL,
                f"bound {d['bound']}: [{d['lower']}, {d['upper']}] misses 1/zeta({zeta_k}) = {z}")


def check_report(job: dict, out: str) -> None:
    c = job["check"]
    spec = c["spec"]
    rep = parse_report(out)
    factors = spec["factors"]
    dim = sum((len(f["center_minpoly"]) - 1) * f["degree"] ** 2 * f.get("copies", 1) for f in factors)
    _expect(rep["dimension"] == dim, f"dimension {rep['dimension']}, spec gives {dim}")
    h = rep["h"]
    _expect(h >= 1, f"h = {h}")
    if any(f["degree"] >= 2 for f in factors):
        _expect(h >= 2, f"h = {h} although a matrix block needs two generators")
    kind = {1: "ONE_OR_TWO", 2: "TWO_OR_THREE"}.get(h, "EXACT")
    _expect(rep["kind"] == kind, f"verdict {rep['kind']} for h = {h}")
    _expect(not rep["refined"] or h == 2, "refined verdict for h != 2")
    primes = [p for p, _ in rep["rows"]]
    _expect(primes == _primes_below(rep["cutoff"]), f"rows list {primes}, not the primes below {rep['cutoff']}")
    _expect(all(mk <= h for _, mk in rep["rows"]), "a prime below the cutoff needs more than h")
    _expect(rep["critical"] == [p for p, mk in rep["rows"] if mk == h], "critical primes disagree with the rows")
    if "h" in c:
        _expect(h == c["h"], f"h = {h}, expected {c['h']}")
    if len(factors) == 1 and factors[0]["center_minpoly"] == [0, 1]:
        f = factors[0]
        ramified = sorted(int(p) for p in f.get("local_indices", {}))
        want = power_h(f["degree"], ramified, f.get("copies", 1))
        _expect(h == want, f"h = {h}, capacities give {want}")
    if "density_k" in c:
        d = rep["density"]
        _expect(d is not None and d["k"] == c["density_k"], "density section missing")
        quadratic = len(factors) == 1 and len(factors[0]["center_minpoly"]) == 3 and factors[0]["degree"] == 1
        _check_interval(d, d["k"] if quadratic and factors[0].get("copies", 1) == 1 else None)


def check_table(job: dict, out: str) -> None:
    c = job["check"]
    ranges = parse_table(out)
    expected_lo = 1
    for i, (h, lo, hi) in enumerate(ranges):
        _expect(lo == expected_lo and lo <= hi, f"ranges do not tile 1..{c['mmax']}: {ranges}")
        _expect(i == 0 or h > ranges[i - 1][0], f"h decreases or repeats: {ranges}")
        expected_lo = hi + 1
    _expect(expected_lo == c["mmax"] + 1, f"ranges end at {expected_lo - 1}, not {c['mmax']}")
    want, lo = [], 1
    for m in range(1, c["mmax"] + 1):
        h = power_h(2, c["ramified"], m)
        if m == c["mmax"] or power_h(2, c["ramified"], m + 1) != h:
            want.append((h, lo, m))
            lo = m + 1
    _expect(ranges == want, f"ramified {c['ramified']}: table {ranges}, capacities give {want}")


def check_density(job: dict, out: str) -> dict:
    c = job["check"]
    if c.get("known_fault"):
        doc = json.loads(out)
        lower, upper = Fraction(doc["lower"]), Fraction(doc["upper"])
        d = {"k": doc["k"], "bound": doc["bound"], "lower": float(lower), "upper": float(upper)}
    else:
        d = parse_density(out.strip().splitlines())
    _expect(d["k"] == c["k"] and d["bound"] == c["bound"], f"interval for k={d['k']} bound {d['bound']}")
    _check_interval(d, c.get("zeta_k"))
    return d


def check_groups(intervals: list[tuple[str, dict]]) -> None:
    """Intervals of one spec and k at growing bounds intersect, and the upper bounds do not grow."""
    groups: dict[str, list[dict]] = {}
    for group, d in intervals:
        groups.setdefault(group, []).append(d)
    for group, ds in groups.items():
        ds.sort(key=lambda d: d["bound"])
        lo = max(d["lower"] for d in ds)
        hi = min(d["upper"] for d in ds)
        _expect(lo <= hi + TEXT_TOL, f"{group}: intervals at bounds {[d['bound'] for d in ds]} do not intersect")
        for a, b in zip(ds, ds[1:]):
            _expect(b["upper"] <= a["upper"] + TEXT_TOL, f"{group}: upper grows from bound {a['bound']} to {b['bound']}")


def check(workload: str, jobs: list[dict], results: list[dict]) -> tuple[int, list[str]]:
    failed = 0
    errors = []
    hits_of: dict = {}
    intervals = []
    for i, (job, res) in enumerate(zip(jobs, results)):
        if res["rc"] != 0:
            failed += 1
            continue
        try:
            out = res["out"]
            if workload == "oracle":
                check_oracle(job, out)
            elif workload == "sample":
                hits_of[i] = check_sample(job, out)
                first = job["check"].get("repeat_of")
                if first is not None:
                    _expect(hits_of[i] == hits_of.get(first), f"rerun with the same seed gave {hits_of[i]} hits, "
                                                              f"the first run {hits_of.get(first)}")
            elif workload == "verdict":
                (check_table if job["argv"][0] == "quaternion" else check_report)(job, out)
            elif workload == "density":
                intervals.append((job["check"]["group"], check_density(job, out)))
        except (CheckError, ValueError, KeyError, IndexError) as exc:
            errors.append(f"job {i} ({' '.join(job['argv'])}): {exc}")
    if intervals:
        try:
            check_groups(intervals)
        except CheckError as exc:
            errors.append(str(exc))
    return failed, errors
