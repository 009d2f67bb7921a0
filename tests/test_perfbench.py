"""The benchmark's self-test, run with the tests.

`perfbench/run.py --selftest` runs every workload on tiny inputs, traced and
untraced, and checks each output.  It fails when a function the tracer wraps
(`perfbench/spans.py`) is renamed or removed, or when a benchmark check fails.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--selftest"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest ok" in proc.stdout.splitlines()
