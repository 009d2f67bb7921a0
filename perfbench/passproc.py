"""One cold pass over a workload's job list, run in a fresh interpreter.

    python3 perfbench/passproc.py --workload W --seed S --workdir DIR [--size tiny] [--spans FILE | --setup-only]

Set-up is the import of `ordgen` plus the generation of the job list and its
spec files.  The pass then runs every job serially through
`ordgen.cli.main(argv)` with stdout and stderr captured.  With `--spans` the
layer functions are wrapped before the pass starts and the recorded spans are
written to FILE after the pass has been timed.  With `--setup-only` the
process stops after set-up.  The last line of stdout is one JSON object with
the timings, the peak resident memory and each job's exit code and output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import jobs as joblist

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import ordgen.cli

    jobs = joblist.build(args.workload, args.seed, args.workdir, args.size)
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(ordgen.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"ordgen was imported from {ordgen.__file__}, not from {SRC}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    results = []
    t1 = time.perf_counter()
    for i, job in enumerate(jobs):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = ordgen.cli.main(job["argv"])
            else:
                rc = tracer.run_job(i, ordgen.cli.main, job["argv"])
        job_s = time.perf_counter() - start
        results.append({"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "job_s": job_s})
    pass_s = time.perf_counter() - t1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    output_bytes = sum(len(r["out"].encode()) for r in results)
    if tracer is not None:
        tracer.write(args.spans, output_bytes=output_bytes)
    doc = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "peak_rss_mb": peak_rss_mb,
        "output_bytes": output_bytes,
        "argv": [job["argv"] for job in jobs],
        "results": results,
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
