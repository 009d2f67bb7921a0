"""Job lists of the four workloads, generated from the seed.

A job is one `ordgen` command line plus the facts its check needs.  The same
(workload, seed, size) always gives the same jobs and the same spec files.
This module imports nothing from `ordgen`, so a pass can time the import of
the package and the generation of its inputs together as set-up.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("oracle", "sample", "verdict", "density")

# The fixture specs of the test suite, written out afresh by every pass so the
# benchmark does not depend on files outside its own directory.
FIXTURES = {
    "z": {"factors": [{"name": "rational", "center_minpoly": [0, 1], "degree": 1}], "free_over_base": True},
    "zi": {"factors": [{"name": "gauss", "center_minpoly": [1, 0, 1], "degree": 1}], "free_over_base": True},
    "m2q": {"factors": [{"name": "matrix2", "center_minpoly": [0, 1], "degree": 2}], "free_over_base": True},
    "m3q": {"factors": [{"name": "matrix3", "center_minpoly": [0, 1], "degree": 3}], "free_over_base": True},
    "quat2": {
        "factors": [{"name": "quaternion", "center_minpoly": [0, 1], "degree": 2, "local_indices": {"2": [2]}}],
        "free_over_base": False,
    },
    "quat2x7": {
        "factors": [
            {"name": "quaternion", "center_minpoly": [0, 1], "degree": 2, "local_indices": {"2": [2]}, "copies": 7}
        ],
        "free_over_base": False,
    },
    "exceptional_override": {
        "factors": [{"name": "eisenstein", "center_minpoly": [3, 0, 1], "degree": 1}],
        "free_over_base": True,
        "overrides": {"2": [[1, 1, 1, 2]]},
    },
}

# Dedekind's cubic field: 2 splits into three primes of degree 1, so the
# residue algebra F_2^3 needs two generators although Q(alpha) is monogenic
# over Q.  Z[alpha] is not maximal at 2, hence the override rows.
DEDEKIND = {
    "factors": [{"name": "dedekind", "center_minpoly": [8, -2, 1, 1], "degree": 1}],
    "free_over_base": True,
    "overrides": {"2": [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]]},
}

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _squarefree(d: int) -> bool:
    d = abs(d)
    return all(d % (p * p) for p in range(2, int(d**0.5) + 1))


QUADRATIC_DS = tuple(d for d in range(-60, 61) if d not in (0, 1) and _squarefree(d))


def quadratic_minpoly(d: int) -> list[int]:
    """Minimal polynomial of a generator of the ring of integers of Q(sqrt d)."""
    if d % 4 == 1:
        return [-(d - 1) // 4, -1, 1]
    return [-d, 0, 1]


def quaternion_factor(name: str, ramified, copies: int) -> dict:
    return {
        "name": name,
        "center_minpoly": [0, 1],
        "degree": 2,
        "local_indices": {str(p): [2] for p in sorted(ramified)},
        "copies": copies,
    }


def _job(argv, **check) -> dict:
    return {"argv": [str(a) for a in argv], "check": check}


class _Specs:
    """Writes spec documents into the pass's work directory."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def write(self, name: str, doc: dict) -> str:
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        return path


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"ordgen-bench:{workload}:{seed}")


# -- oracle ----------------------------------------------------------------
# (expression, k, closed form).  A closed form is ("matrix", n, q, r) for
# M(n,q;r=R), ("local", q, f, m, e) for TW, ("square", simple) for P(A,A) and
# ("pair", simple, simple) for P(A,B) with A and B not isomorphic.
_M32 = ("matrix", 3, 2, 1)
_M22 = ("matrix", 2, 2, 1)
_F4 = ("matrix", 1, 2, 2)
_F9 = ("matrix", 1, 3, 2)

ORACLE_FULL = (
    ("M(3,2)", 2, _M32),
    ("M(2,2;r=2)", 2, ("matrix", 2, 2, 2)),
    ("P(M(2,2),M(2,2))", 2, ("square", _M22)),
    ("M(2,2)", 3, _M22),
    ("M(1,2;r=3)", 2, ("matrix", 1, 2, 3)),
    ("TW(q=2,f=1,m=2,s=1,e=1)", 2, ("local", 2, 1, 2, 1)),
    ("TW(q=2,f=2,m=1,e=2)", 2, ("local", 2, 2, 1, 2)),
    ("P(M(1,2;r=2),M(1,2;r=2))", 2, ("square", _F4)),
    ("P(M(1,2;r=2),M(2,2))", 2, ("pair", _F4, _M22)),
    ("M(2,3)", 2, ("matrix", 2, 3, 1)),
    ("M(1,5;r=2)", 2, ("matrix", 1, 5, 2)),
    ("M(1,3;r=3)", 2, ("matrix", 1, 3, 3)),
    ("TW(q=3,f=1,m=1,e=3)", 2, ("local", 3, 1, 1, 3)),
    ("TW(q=3,f=2,m=1,e=2)", 2, ("local", 3, 2, 1, 2)),
    ("TW(q=3,f=1,m=2,s=1,e=1)", 2, ("local", 3, 1, 2, 1)),
    ("P(M(1,3;r=2),M(1,3;r=2))", 2, ("square", _F9)),
)

ORACLE_TINY = (
    ("M(2,2)", 2, _M22),
    ("P(M(1,2;r=2),M(1,2;r=2))", 2, ("square", _F4)),
    ("P(M(1,2;r=2),M(2,2))", 2, ("pair", _F4, _M22)),
    ("TW(q=3,f=1,m=1,e=3)", 2, ("local", 3, 1, 1, 3)),
    ("M(1,5;r=2)", 2, ("matrix", 1, 5, 2)),
)


def oracle_jobs(seed: int, size: str) -> list[dict]:
    """Exhaustive counts; the seed fixes the order in which the jobs run."""
    table = list(ORACLE_FULL if size == "full" else ORACLE_TINY)
    _rng("oracle", seed).shuffle(table)
    return [_job(["oracle", "--alg", expr, "--k", k, "--workers", 1], alg=expr, k=k, form=form)
            for expr, k, form in table]


# -- sample ----------------------------------------------------------------
# (expression, k, samples, closed form).  The first entry runs twice with the
# same sampling seed.
SAMPLE_FULL = (
    ("M(2,5)", 2, 4000, ("matrix", 2, 5, 1)),
    ("M(3,3)", 2, 3000, ("matrix", 3, 3, 1)),
    ("M(3,2)", 2, 6000, _M32),
    ("M(3,2)", 3, 3000, _M32),
    ("M(2,3;r=2)", 2, 2000, ("matrix", 2, 3, 2)),
    ("M(2,7)", 2, 4000, ("matrix", 2, 7, 1)),
)

SAMPLE_TINY = (
    ("M(2,2)", 2, 300, _M22),
    ("M(2,3)", 2, 200, ("matrix", 2, 3, 1)),
)


def sample_jobs(seed: int, size: str) -> list[dict]:
    """Monte Carlo estimates; sampling seeds are drawn from the workload seed."""
    rng = _rng("sample", seed)
    table = SAMPLE_FULL if size == "full" else SAMPLE_TINY
    jobs = []
    for i, (expr, k, samples, form) in enumerate(table):
        sseed = rng.randrange(1 << 32)
        argv = ["oracle", "--alg", expr, "--k", k, "--samples", samples, "--seed", sseed, "--workers", 1]
        jobs.append(_job(argv, alg=expr, k=k, samples=samples, seed=sseed, form=form))
        if i == 0:
            jobs.append(_job(argv, alg=expr, k=k, samples=samples, seed=sseed, form=form, repeat_of=0))
    return jobs


# -- verdict ---------------------------------------------------------------


def verdict_jobs(seed: int, size: str, specs: _Specs) -> list[dict]:
    """Spec analyses and quaternion tables; the seed draws the generated specs."""
    rng = _rng("verdict", seed)
    full = size == "full"
    jobs = []
    fixtures = FIXTURES if full else {k: FIXTURES[k] for k in ("zi", "quat2x7")}
    for name, doc in fixtures.items():
        jobs.append(_job(["analyze", "--spec", specs.write(name, doc)], spec=doc))
    jobs.append(_job(["analyze", "--spec", specs.write("dedekind", DEDEKIND)], spec=DEDEKIND, h=2))
    zi = FIXTURES["zi"]
    jobs.append(_job(["analyze", "--spec", specs.write("zi", zi), "--density-k", 2, "--bound", 100],
                     spec=zi, density_k=2))

    # A power of one quaternion order, ramified at a drawn set of primes.
    ramified = sorted(rng.sample(SMALL_PRIMES, rng.choice((1, 2))))
    copies = rng.randrange(300, 700) if full else rng.randrange(5, 40)
    doc = {"factors": [quaternion_factor("quaternion", ramified, copies)], "free_over_base": False}
    jobs.append(_job(["analyze", "--spec", specs.write("gen_quaternion", doc)], spec=doc))

    # A power of M_n(Q).
    n = rng.choice((2, 3))
    copies = rng.randrange(200, 400) if full else rng.randrange(2, 20)
    doc = {"factors": [{"name": "matrix", "center_minpoly": [0, 1], "degree": n, "copies": copies}],
           "free_over_base": rng.random() < 0.5}
    jobs.append(_job(["analyze", "--spec", specs.write("gen_matrix", doc)], spec=doc))

    # Several factors with many copies: a quadratic field, M_2(Q) and a quaternion order.
    scale = 1 if full else 10
    d = rng.choice(QUADRATIC_DS)
    doc = {
        "factors": [
            {"name": "quadratic", "center_minpoly": quadratic_minpoly(d), "degree": 1,
             "copies": rng.randrange(150, 250) // scale},
            {"name": "matrix", "center_minpoly": [0, 1], "degree": 2, "copies": rng.randrange(60, 100) // scale},
            quaternion_factor("quaternion", rng.sample(SMALL_PRIMES, 2), rng.randrange(20, 60) // scale),
        ],
        "free_over_base": rng.random() < 0.5,
    }
    jobs.append(_job(["analyze", "--spec", specs.write("gen_mixed", doc)], spec=doc))

    # Fields only, with a density interval at the lowest valid bound.
    d = rng.choice(QUADRATIC_DS)
    doc = {
        "factors": [
            {"name": "quadratic", "center_minpoly": quadratic_minpoly(d), "degree": 1, "copies": rng.randrange(2, 6)},
            {"name": "rational", "center_minpoly": [0, 1], "degree": 1, "copies": rng.randrange(2, 6)},
        ],
        "free_over_base": True,
    }
    jobs.append(_job(["analyze", "--spec", specs.write("gen_fields", doc), "--density-k", 3],
                     spec=doc, density_k=3))

    tables = [((2,), 1000), ((3,), 1000), ((2, 5), 300)] if full else [((2,), 40), ((5, 7), 20)]
    for ramified, mmax in tables:
        primes = ",".join(map(str, ramified))
        jobs.append(_job(["quaternion", "--ramified", primes, "--mmax", mmax], ramified=list(ramified), mmax=mmax))
    return jobs


# -- density ---------------------------------------------------------------

# The one request kept although it fails: the exact bounds of this interval
# have more than 4300 decimal digits, and the machine rendering converts them
# to decimal strings.
DENSITY_FAULT = ("zi", 2, 7000)


def density_jobs(seed: int, size: str, specs: _Specs) -> list[dict]:
    """Density intervals at growing bounds; the seed draws the fields and ramified primes."""
    rng = _rng("density", seed)
    full = size == "full"
    jobs = []

    def text_job(name, doc, k, bound, **facts):
        path = specs.write(name, doc)
        jobs.append(_job(["density", "--spec", path, "--k", k, "--bound", bound], spec=doc, k=k, bound=bound,
                         group=f"{name}:{k}", **facts))

    d2, d3 = rng.sample(QUADRATIC_DS, 2)
    for d, k, bounds in ((d2, 2, (1000, 4000, 16000, 30000) if full else (100, 400)),
                         (d3, 3, (2000, 30000) if full else (100, 300))):
        doc = {"factors": [{"name": "quadratic", "center_minpoly": quadratic_minpoly(d), "degree": 1}],
               "free_over_base": True}
        for bound in bounds:
            text_job(f"quadratic_{k}", doc, k, bound, zeta_k=k)
    if full:
        m2 = {"factors": [{"name": "matrix2", "center_minpoly": [0, 1], "degree": 2}], "free_over_base": True}
        for bound in (3000, 10000):
            text_job("m2q", m2, 3, bound)
        text_job("m3q", FIXTURES["m3q"], 3, 5000)
        ramified = rng.sample(SMALL_PRIMES, 2)
        quat = {"factors": [quaternion_factor("quaternion", ramified, 1)], "free_over_base": False}
        for bound in (2000, 8000):
            text_job("quaternion", quat, 3, bound)
    name, k, bound = DENSITY_FAULT
    path = specs.write(name, FIXTURES[name])
    jobs.append(_job(["density", "--spec", path, "--k", k, "--bound", bound, "--format", "machine"],
                     spec=FIXTURES[name], k=k, bound=bound, group=f"{name}:{k}", zeta_k=k, known_fault=True))
    return jobs


def build(workload: str, seed: int, workdir: str, size: str = "full") -> list[dict]:
    """The job list of one pass, with its spec files written under workdir."""
    if workload == "oracle":
        return oracle_jobs(seed, size)
    if workload == "sample":
        return sample_jobs(seed, size)
    specs = _Specs(workdir)
    if workload == "verdict":
        return verdict_jobs(seed, size, specs)
    if workload == "density":
        return density_jobs(seed, size, specs)
    raise ValueError(f"unknown workload {workload!r}")
