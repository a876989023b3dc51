"""The benchmark's generator self-test, run as tier-1.

`perfbench/selftest.py` reads `compute_polyhedron(...).vertices` and the
vertex share of every random-support family, so a library change that
breaks what the benchmark relies on fails here, not only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # The self-test imports src/ and tests/ relative to the working directory.
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert done.stdout.rstrip().endswith("0 failed")
