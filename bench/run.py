#!/usr/bin/env python3
"""Benchmark of the sideband toolkit.

    python3 bench/run.py --workload {sweep,scenario,large,oracle,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/` of that checkout.  One workload runs in this single process,
closed loop, one operation at a time.  Set-up is timed as the median
import time of the program in five fresh interpreters plus the median of
three in-process set-ups (input generation, file writing and one warm-up
operation).  Then the workload's fixed batch of operations repeats until S
seconds have passed (at least twice), and every output is checked.
`--workload all` runs each workload in its own child process, one after
another.

With --trace 0 the end-to-end metrics are reported; with --trace 1 the
batch runs untraced for half the time and traced for the rest, and the
per-layer metrics plus the tracing overhead are reported.  The last line
of standard output is one JSON object; a fuller record goes to
bench/out/.  Exit code 0 when every check passed, 1 when one did not,
2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import PER_LAYER_UNITS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "scenario", "large", "oracle")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
MIN_BATCHES = 2
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "peak_rss_mib": "MiB"}
TAIL_BEYOND = 10  # ops beyond the reported tail percentile
TAIL_MIN_OPS = 40


def cap_blas_threads():
    cores = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cores):
            os.environ[var] = str(cores)


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:]
import workloads
print(time.perf_counter() - start)
"""


def import_program():
    """Import the checkout's program and the workloads module."""
    src = ROOT / "src"
    if not (src / "sideband" / "__init__.py").is_file():
        fail(f"no program source at {src}")
    sys.path.insert(0, str(src))
    import sideband
    import workloads
    if not Path(sideband.__file__).resolve().is_relative_to(src):
        fail(f"imported sideband from {sideband.__file__}, not {src}")
    return workloads


def import_seconds() -> float:
    """Median time to import the program and the workloads in a fresh
    interpreter, over IMPORT_REPEATS child processes (each waited for)."""
    times = []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"),
                                str(HERE)], cwd=ROOT, capture_output=True, text=True,
                               check=True)
        times.append(float(child.stdout))
    return statistics.median(times)


class Session:
    """Runs operations, counts attempts and failures, collects check problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, op, batch: int, counted: bool = True) -> float | None:
        """Run one operation and check it; returns its latency in seconds,
        or None when it failed."""
        self.attempted += counted
        start = time.perf_counter()
        try:
            out = op.run(batch)
        except Exception:  # keep measuring; the failure is counted and shown
            self.failed += counted
            if not counted:
                self.problems.append(f"{op.name}: warm-up operation failed")
            traceback.print_exc()
            return None
        elapsed = time.perf_counter() - start
        self.problems += [f"{op.name}: {p}" for p in op.check(out)]
        return elapsed

    def batch(self, wl, number: int) -> list[float | None]:
        return [self.run(op, number) for op in wl.ops]


def set_up(workloads, name: str, seed: int, workdir: Path, session: Session):
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[name](seed, workdir)
    session.run(wl.warmup, -1, counted=False)
    return wl


def run_batches(wl, session: Session, until: float, first: int, minimum: int):
    """Repeat the batch until `until` (perf_counter time), at least `minimum`
    times; returns per-batch lists of op latencies."""
    done = []
    while len(done) < minimum or time.perf_counter() < until:
        done.append(session.batch(wl, first + len(done)))
    return done


def op_medians(batches: list[list[float | None]]) -> list[float]:
    """Each operation of the batch: its median latency across the run's
    batches, so that a slow spell of the machine during one batch does not
    move it.  Failed attempts (None) are left out."""
    return [statistics.median(done) for op in zip(*batches)
            if (done := [t for t in op if t is not None])]


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND ops beyond it: (percent, value)."""
    ordered = sorted(latencies)
    n = len(ordered)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def measure(workloads, args, workdir: Path) -> tuple[dict, dict]:
    session = Session()
    import_s = import_seconds() if not args.trace else 0.0
    setups = []
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        start = time.perf_counter()
        wl = set_up(workloads, args.workload, args.seed, workdir, session)
        setups.append(time.perf_counter() - start)
    record = {"import_s": import_s, "setup_runs_s": setups,
              "ops_per_batch": [op.name for op in wl.ops]}

    start = time.perf_counter()
    if not args.trace:
        batches = run_batches(wl, session, start + args.seconds, 0, MIN_BATCHES)
        ops = [t for b in batches for t in b if t is not None]
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "wall_s": sum(op_medians(batches)),
            "op_p50_ms": statistics.median(op_medians(batches)) * 1e3,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        record["batch_ops_s"] = batches
        if getattr(wl, "like_sized", False) and len(ops) >= TAIL_MIN_OPS:
            pct, value = tail(ops)
            record["op_tail_ms"] = {"percentile": pct, "value": value * 1e3,
                                    "ops": len(ops)}
    else:
        plain = run_batches(wl, session, start + args.seconds / 2, 0, 1)
        tracer = Tracer()
        traced, snapshots = [], []
        with tracer.installed():
            while not traced or time.perf_counter() < start + args.seconds:
                tracer.reset()
                traced.append(session.batch(wl, len(plain) + len(traced)))
                snapshots.append(tracer.metrics(len(wl.ops)))
                record.setdefault("trace_edges", [
                    [caller, callee, n] for (caller, callee), n in sorted(tracer.edges.items())])
        metrics = {name: statistics.median(s[name] for s in snapshots)
                   for name in snapshots[0]}
        if hasattr(wl, "computed_metrics"):
            metrics.update(wl.computed_metrics())
        else:
            metrics.update({"montecarlo.gaussian_samples": 0, "montecarlo.stream_mib": 0.0})
        metrics["trace.overhead_s"] = sum(op_medians(traced)) - sum(op_medians(plain))
        units = PER_LAYER_UNITS
        record.update(untraced_batch_ops_s=plain, traced_batch_ops_s=traced)

    result = {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record["problems"] = session.problems
    return result, record


def report(args, result: dict, record: dict):
    for problem in record["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} ops attempted, {result['failed']} failed, "
          f"checks {'passed' if result['correct'] else 'FAILED'}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    if "op_tail_ms" in record:
        t = record["op_tail_ms"]
        print(f"  {'op_tail_ms':36s} {t['value']:14.6g} ms "
              f"(p{t['percentile']:.2f} of {t['ops']} ops)")
    if args.trace:
        print("  (montecarlo.gaussian_samples and montecarlo.stream_mib are computed "
              "from the roster and the sampling plan, not measured)")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"result": result, **record}, indent=1) + "\n",
                    encoding="utf-8")
    print(json.dumps(result))


def run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, check=False)
        code = max(code, child.returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    cap_blas_threads()
    workloads = import_program()
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        result, record = measure(workloads, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    report(args, result, record)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
