"""The benchmark's self-test (bench/selftest.py) runs every correctness check
of the benchmark on a real output and on a perturbed one, and compares the
metric names with BENCHMARK.json.  Running it here makes a check that passes
vacuously, or a metric renamed on one side only, a tier-1 failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_exits_0():
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
