#!/usr/bin/env python3
"""Shows that no correctness check of the benchmark passes vacuously.

Each check runs on a real output of the program, where it must pass, and
on the same output with one value perturbed, where it must fail.  Also
checks that BENCHMARK.json names exactly the metrics the benchmark prints.

    python3 bench/selftest.py        (from the root of a source checkout)

Exits 0 when every check behaves, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import sys
from pathlib import Path

import run

results: list[tuple[str, bool]] = []


def expect(label: str, problems: list[str], should_fail: bool):
    ok = bool(problems) == should_fail
    results.append((label, ok))
    verdict = "rejects" if problems else "accepts"
    print(f"{'ok ' if ok else 'BAD'} {label}: {verdict}"
          + (f" ({problems[0]})" if problems else ""))


def rewrite_csv(path: Path, rows):
    body = "\n".join(",".join(f"{v:.12g}" for v in row) for row in rows)
    path.write_text("f_hz,abs,snl,norm,db\n" + body + "\n", encoding="utf-8")


def csv_cases(wl, perturbations: dict[str, list]):
    """Run each op, check it, then re-check under each named perturbation."""
    import checks
    for op in wl.ops:
        path = op.run(0)
        expect(f"{op.name} as computed", op.check(path), False)
        rows = checks.read_sweep_csv(path)
        for kind in perturbations[op.name]:
            bad = rows.copy()
            mid = len(bad) // 2
            if kind == "drop a row":
                bad = bad[:-1]
            elif kind == "norm x (1 + 1e-6)":
                bad[mid, 3] *= 1.0 + 1e-6
            elif kind == "norm above every input":
                bad[mid, 3] = 1e3
            elif kind == "norm below every input":
                bad[mid, 3] = 1e-3
            rewrite_csv(path, bad)
            expect(f"{op.name} with {kind}", op.check(path), True)
        rewrite_csv(path, rows)


def main() -> int:
    run.cap_blas_threads()
    workloads = run.import_program()
    import checks
    from sideband import engine
    from spans import PER_LAYER_UNITS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect("BENCHMARK.json end_to_end names and units match the printed metrics",
           [] if {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
           else ["mismatch"], False)
    expect("BENCHMARK.json per_layer names and units match the printed metrics",
           [] if {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
           else ["mismatch"], False)

    workdir = run.HERE / "_work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        seed = 11
        bounds = ["drop a row", "norm above every input", "norm below every input"]
        exact = ["drop a row", "norm x (1 + 1e-6)"]
        sweep = workloads.Sweep(seed, workdir)
        csv_cases(sweep, {"mz_phase": exact, "entangled_phase": bounds,
                          "entangled_amplitude": bounds})
        large = workloads.Large(seed, workdir)
        csv_cases(large, {g.name: bounds if g.squeezed else exact for g in large.nets})

        scen = workloads.Scenario(seed, workdir)
        for op in scen.ops[:3]:
            path = op.run(0)
            expect(f"scenario {op.name} as computed", op.check(path), False)
            good = json.loads(path.read_text(encoding="utf-8"))
            for label, edit in (
                    ("V+ x (1 + 1e-6)", lambda r: r["amplitude_mode"].update(
                        correlation=r["amplitude_mode"]["correlation"] * (1 + 1e-6))),
                    ("V- x (1 + 1e-6)", lambda r: r["phase_mode"].update(
                        correlation=r["phase_mode"]["correlation"] * (1 + 1e-6))),
                    ("verdict flipped", lambda r: r["entanglement"].update(
                        nonseparable=not r["entanglement"]["nonseparable"]))):
                bad = json.loads(json.dumps(good))
                edit(bad)
                path.write_text(json.dumps(bad), encoding="utf-8")
                expect(f"scenario {op.name} with {label}", op.check(path), True)

        oracle = workloads.Oracle(seed, workdir)
        result = oracle.ops[0].run(0)
        expect("oracle mz_diff cross-validation as computed", oracle.ops[0].check(result), False)
        expect("oracle mz_diff with z = 3.5",
               oracle.ops[0].check(dataclasses.replace(result, z=3.5)), True)
        for case in oracle.cases:
            # the engine side of every case, evaluated at the snapped bin
            omega = result.omega
            value = engine.spectrum(engine.compile(case.spec), case.combo, omega).normalized
            expect(f"oracle {case.name} engine value", checks.check_cross_validation(
                value, 0.0, case.expected), False)
            expect(f"oracle {case.name} engine value x (1 + 1e-6)",
                   checks.check_cross_validation(value * (1 + 1e-6), 0.0, case.expected), True)
        expect("oracle NaN z", checks.check_cross_validation(63.0, math.nan, 63.0), True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    bad = [label for label, ok in results if not ok]
    print(f"{len(results) - len(bad)} of {len(results)} checks behave as they should")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
