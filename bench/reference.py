#!/usr/bin/env python3
"""Reference figures for the benchmark README.

    python3 bench/reference.py        (from the root of a source checkout)

Prints the engine cost per spectrum point and the compile cost on
generated chain networks with rosters of 20, 100 and 300, and the
per-stage split of one `cross_validate` of each oracle case.  Times are
medians of repeats, in one process with BLAS threads capped at the core
count.
"""

from __future__ import annotations

import math
import random
import statistics
import time

import run


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main():
    run.cap_blas_threads()
    workloads = run.import_program()
    import netgen
    from sideband import dsl, engine
    from sideband.network import Combo
    from spans import Tracer

    print("roster  steps  compile_ms  spectrum_ms_per_point")
    for roster in (20, 100, 300):
        g = netgen.chain(random.Random(roster), f"chain{roster}", roster // 2, False,
                         False, [20.5e6])
        spec = dsl.parse(g.text)
        net = engine.compile(spec)
        combo = Combo.diff_of("X", "Y")
        omega = 2.0 * math.pi * 20.5e6
        compile_s = median_time(lambda: engine.compile(spec), 51)
        point_s = median_time(lambda: engine.spectrum(net, combo, omega), 101)
        print(f"{g.roster:6d} {g.steps:6d} {compile_s * 1e3:11.3f} {point_s * 1e3:22.3f}")

    oracle = workloads.Oracle(0, run.HERE)
    tracer = Tracer()
    stages = ("montecarlo.simulate", "montecarlo.expand_taps", "montecarlo.segment_powers",
              "montecarlo.combo_stream", "engine.compile", "engine.spectrum")
    print("\ncase                  total_s  " + "  ".join(s.split(".")[1] for s in stages))
    with tracer.installed():
        for i, case in enumerate(oracle.cases):
            tracer.reset()
            start = time.perf_counter()
            oracle.ops[i].run(0)
            total = time.perf_counter() - start
            split = "  ".join(f"{tracer.self_s.get(s, 0.0):.4f}" for s in stages)
            print(f"{case.name:20s} {total:8.3f}  {split}")


if __name__ == "__main__":
    main()
