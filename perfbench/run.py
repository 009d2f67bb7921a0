"""Benchmark of `ordgen`: one workload per run, cold serial passes, checked outputs.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --repeat 10 [--workload W] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

A run starts passes over the workload's job list, one at a time, each in a
fresh interpreter, until --seconds have gone by and at least three passes are
done.  With --trace 0 it reports the medians of set-up time, pass time and
peak resident memory.  With --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics of the traced ones, with the tracing
overhead.  Every pass's outputs are checked; the last line of stdout is one
JSON object with keys correct, attempted, failed and metrics.

--repeat runs the benchmark that many times per workload with seeds 1..N and
prints, per metric, the median, the quartiles and the spread against the
bound in BENCHMARK.json.  --selftest runs every check on tiny inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
MIN_PASSES = 3
# Extra set-ups per run, so that the median set-up time rests on enough samples.
SETUP_SAMPLES = 9
PASS_TIMEOUT_S = 150
# Stop starting passes after this long, so that a run ends within three minutes.
RUN_LIMIT_S = 120

sys.path.insert(0, str(ROOT / "src"))
import jobs as joblist  # noqa: E402
import spans  # noqa: E402

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def require_source() -> None:
    if not (ROOT / "src" / "ordgen" / "__init__.py").is_file():
        raise BenchError(f"no ordgen sources under {ROOT / 'src'}")


def _env() -> dict:
    """The environment of a pass: default budget, fixed hashing, bytecode cached as when installed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    for name in ("ORDGEN_BUDGET", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    return env


def run_pass(workload: str, seed: int, workdir: Path, size: str, spans_path: Path | None = None,
             setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "passproc.py"), "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir), "--size", size]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"pass of {workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_passes(workload: str, jobs: list[dict], passes: list[dict]) -> tuple[int, list[str]]:
    """Check the first pass's outputs, and that every later pass printed the same."""
    import checks  # imports ordgen, so only once the sources are known to be there

    argv = [job["argv"] for job in jobs]
    first = passes[0]["results"]
    errors = []
    for n, p in enumerate(passes):
        if p["argv"] != argv:
            errors.append(f"pass {n} ran other command lines than the job list")
        elif n and [(r["rc"], r["out"]) for r in p["results"]] != [(r["rc"], r["out"]) for r in first]:
            errors.append(f"pass {n} printed other outputs than pass 0")
    failed, wrong = checks.check(workload, jobs, first)
    return failed, errors + wrong


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run: timed passes, checks, and the result document."""
    require_source()
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        # Compile the package's bytecode once, as an installed package has it.
        subprocess.run([sys.executable, "-c", "import ordgen"], cwd=ROOT, check=True, timeout=PASS_TIMEOUT_S,
                       env=dict(_env(), PYTHONPATH=str(ROOT / "src")))
        jobs = joblist.build(workload, seed, str(workdir / "specs"), size)
        plain, traced, layers = [], [], []
        spans_path = WORK / f"spans-{workload}.jsonl"
        start = time.perf_counter()
        while True:
            n = len(plain) + len(traced)
            if trace and n % 2 == 1:
                traced.append(run_pass(workload, seed, workdir / "specs", size, spans_path))
                layers.append(spans.layer_metrics(*spans.read(str(spans_path))))
            else:
                plain.append(run_pass(workload, seed, workdir / "specs", size))
            elapsed = time.perf_counter() - start
            if n + 1 >= MIN_PASSES and (elapsed >= seconds or elapsed >= RUN_LIMIT_S):
                break
        passes = plain + traced
        failed, errors = check_passes(workload, jobs, passes)
        setups = [p["setup_s"] for p in plain]
        if not trace:
            setups += [run_pass(workload, seed, workdir / "specs", size, setup_only=True)["setup_s"]
                       for _ in range(SETUP_SAMPLES)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name, _ in spans.METRICS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(p["pass_s"] for p in traced)
                                       - statistics.median(p["pass_s"] for p in plain))
        units = dict(spans.METRICS)
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "pass_s": statistics.median(p["pass_s"] for p in plain),
                   "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain)}
        units = E2E_UNITS
    return {
        "correct": not errors,
        "attempted": len(jobs) * len(passes),
        "failed": failed * len(passes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "errors": errors,
        "jobs": jobs,
        "results": passes[0]["results"],
    }


# -- repeat mode -------------------------------------------------------------------


def repeat(count: int, workloads: list[str], seconds: float, trace: int) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = seconds or bench["run_seconds"]
    all_correct = True
    for workload in workloads:
        ok = True
        values: dict[str, list[float]] = {}
        shares = set()
        wall = []
        for seed in range(1, count + 1):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= doc["correct"]
            shares.add(Fraction(doc["failed"], doc["attempted"]))
            for name, m in doc["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {count} runs, {statistics.median(wall):.1f} s each (median), "
              f"failed share {sorted(map(str, shares))}, correct {ok}")
        print(f"  {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            mark = "" if bound is None else f"{bound:6.2f}" + ("" if spread <= bound / 3 else "  > bound/3")
            print(f"  {name:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {mark}")
        print("  pass_s by seed:", " ".join(f"{v:.3f}" for v in values.get("pass_s", [])))
        all_correct &= ok
    return 0 if all_correct else 1


# -- self-test -------------------------------------------------------------------


def _corrupt(workload: str, out: str) -> str:
    if workload == "oracle":
        return str(int(out) + 1)
    if workload == "sample":
        return re.sub(r"estimate (\d+)/", lambda m: f"estimate {int(m.group(1)) // 2}/", out)
    if workload == "verdict":
        return re.sub(r"(smallest h\s+)(\d+)", lambda m: m.group(1) + str(int(m.group(2)) + 1), out)
    return re.sub(r"(upper\s+)\S+", r"\g<1>0.5", out)


def selftest() -> int:
    """Every workload on tiny inputs: one plain and one traced pass, all checks, and a corrupted output."""
    import checks

    problems = []
    for workload in joblist.WORKLOADS:
        t0 = time.perf_counter()
        doc = run(workload, 1, 0, True, size="tiny")
        problems += [f"{workload}: {e}" for e in doc["errors"]]
        first = dict(doc["results"][0], out=_corrupt(workload, doc["results"][0]["out"]))
        _, wrong = checks.check(workload, doc["jobs"][:1], [first])
        if not wrong:
            problems.append(f"{workload}: a corrupted output passed the checks")
        layers = {k: v["value"] for k, v in doc["metrics"].items()}
        print(f"{workload:8} {time.perf_counter() - t0:5.1f} s  attempted {doc['attempted']} failed {doc['failed']} "
              f"correct {doc['correct']}  spans: close {layers['finalg.close_calls']}, "
              f"classify {layers['orderspec.classify_calls']}, smallest_h {layers['solver.smallest_h_calls']}")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "ok")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=joblist.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, metavar="N")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.selftest:
            return selftest()
        if args.repeat:
            workloads = [args.workload] if args.workload else list(joblist.WORKLOADS)
            return repeat(args.repeat, workloads, args.seconds, args.trace)
        if args.workload is None:
            parser.error("--workload is required")
        doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for error in doc["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({key: doc[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
