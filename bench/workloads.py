"""The four benchmark workloads.

A workload is built from a seed (that is its set-up: inputs are generated
and written under its work directory) and exposes a fixed batch of
operations.  Each operation drives the program through a public entry
point, `sideband.cli.main` or a library function, and comes with a check
that compares its output against values computed in `checks`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from sideband import cli, engine, montecarlo, presets, scenario
from sideband.network import SPEED_OF_LIGHT, Combo, QuadSpectrum

import checks
import netgen

SWEEP_POINTS = 4000
SCENARIO_GRID = 48
LARGE_FREQS = 4
MC_SAMPLE_RATE = 164e6
MC_SEGMENT_LENGTH = 512
MC_SEGMENTS = 4096
MC_F = 20.5e6
# Monte-Carlo base seeds; case i of a batch runs on base + i.  Every base
# here was run on all four oracle cases and gave |z| <= 3.
MC_BASE_SEEDS = tuple(range(8600, 8632))


class OpError(RuntimeError):
    """An operation that did not complete (non-zero exit code)."""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[int], object]  # batch number -> output
    check: Callable[[object], list[str]]


def _cli(argv: list[str], out: Path) -> Path:
    """Run one CLI command that writes `out`; returns that path."""
    code = cli.main([*argv, "--out", str(out)])
    if code != 0:
        raise OpError(f"sideband {' '.join(argv)} exited with {code}")
    return out


def _db(v: float) -> str:
    return f"{v!r}dB"


class Sweep:
    """`sideband simulate` over SWEEP_POINTS frequencies on each bundled preset."""

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.ops = []
        for preset in ("mz_phase", "entangled_phase", "entangled_amplitude"):
            net = workdir / f"{preset}.net"
            net.write_text(presets.load(preset), encoding="utf-8")
            start = rng.uniform(1e6, 5e6)
            step = rng.uniform(5e3, 10e3)
            freqs = f"{start!r}:{start + (SWEEP_POINTS - 1) * step!r}:{step!r}"
            if preset == "mz_phase":
                length = rng.uniform(6.5, 8.0)
                phi = rng.uniform(0.0, math.pi)
                vx_db, vy_db = rng.uniform(-3.0, -1.0), rng.uniform(10.0, 20.0)
                overrides = [f"LONG.length={length!r}m", f"LONG.carrier_phase={phi!r}",
                             f"a.vx={_db(vx_db)}", f"a.vy={_db(vy_db)}"]
                combo = ["--combo", "diff"]
                expect = self._mz_check(length / SPEED_OF_LIGHT, phi,
                                        10 ** (vx_db / 10), 10 ** (vy_db / 10))
            else:
                vx = [rng.uniform(-3.0, -1.0) for _ in range(2)]
                vy = [rng.uniform(10.0, 20.0) for _ in range(2)]
                overrides = [f"s{i + 1}.{q}={_db(v)}" for i in range(2)
                             for q, v in (("vx", vx[i]), ("vy", vy[i]))]
                combo = []  # the preset's first measure statement: beam 1
                expect = self._bounds_check(10 ** (min(vx) / 10), 10 ** (max(vy) / 10))
            out = workdir / f"{preset}.csv"
            argv = ["simulate", "--net", str(net), "--freqs", freqs, *combo,
                    *[a for o in overrides for a in ("--override", o)]]
            self.ops.append(Op(preset, lambda batch, argv=argv, out=out: _cli(argv, out),
                               expect))
        self.warmup = self.ops[0]

    @staticmethod
    def _mz_check(tau, phi, vx, vy):
        def check(out):
            rows = checks.read_sweep_csv(out)
            return (checks.check_row_count(rows, SWEEP_POINTS)
                    + checks.check_mz_rows(rows, tau, phi, vx, vy))
        return check

    @staticmethod
    def _bounds_check(v_min, v_max):
        def check(out):
            rows = checks.read_sweep_csv(out)
            return (checks.check_row_count(rows, SWEEP_POINTS)
                    + checks.check_within(rows, min(v_min, 1.0), max(v_max, 1.0)))
        return check


class Scenario:
    """`sideband scenario --override ...` on SCENARIO_GRID feasible points."""

    TARGET = scenario.ExperimentConfig().amp_sum_target
    like_sized = True  # every operation does the same work

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.ops = []
        for i in range(SCENARIO_GRID):
            # both squeezings below -2.1 dB keep the fitted loss inside (0, 1)
            s1, s2 = rng.uniform(-4.5, -2.1), rng.uniform(-4.5, -2.1)
            vis, excess = rng.uniform(0.6, 1.0), rng.uniform(6.0, 20.0)
            out = workdir / f"scenario{i}.json"
            argv = ["scenario"]
            for key, value in (("squeezing1_db", s1), ("squeezing2_db", s2),
                               ("visibility", vis), ("excess_db", excess)):
                argv += ["--override", f"{key}={value!r}"]
            self.ops.append(Op(f"grid{i}", lambda batch, argv=argv, out=out: _cli(argv, out),
                               lambda out, s1=s1, s2=s2, vis=vis: checks.check_scenario(
                                   json.loads(out.read_text(encoding="utf-8")),
                                   self.TARGET, 10 ** (s1 / 10), 10 ** (s2 / 10), vis)))
        self.warmup = self.ops[0]


class Large:
    """`sideband simulate` at LARGE_FREQS frequencies on generated networks
    with rosters in the hundreds."""

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)

        def freqs():
            return [rng.uniform(1e6, 40e6) for _ in range(LARGE_FREQS)]

        self.nets = [
            netgen.chain(rng, "chain_few", 150, False, False, freqs()),
            netgen.chain(rng, "chain_many", 100, True, True, freqs()),
            netgen.mesh(rng, "mesh_many", 10, 15, False, True, freqs()),
            netgen.mesh(rng, "mesh_few", 8, 12, True, False, freqs()),
        ]
        self.ops = []
        for g in self.nets:
            path = workdir / f"{g.name}.net"
            path.write_text(g.text, encoding="utf-8")
            out = workdir / f"{g.name}.csv"
            argv = ["simulate", "--net", str(path)]
            self.ops.append(Op(g.name, lambda batch, argv=argv, out=out: _cli(argv, out),
                               lambda out, g=g: self._check(out, g)))
        self.warmup = self.ops[0]

    @staticmethod
    def _check(out, g: netgen.GeneratedNet) -> list[str]:
        rows = checks.read_sweep_csv(out)
        problems = checks.check_row_count(rows, LARGE_FREQS)
        if g.squeezed:
            return problems + checks.check_within(rows, g.v_min, g.v_max)
        return problems + checks.check_shot_noise_floor(rows)


@dataclass(frozen=True)
class OracleCase:
    name: str
    spec: object
    combo: object
    expected: float


class Oracle:
    """`montecarlo.cross_validate` on the three Monte-Carlo acceptance cases
    plus a readout with a tabulated input spectrum, at MC_SEGMENTS segments."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        tau = 1.0 / (2.0 * MC_F)  # theta = pi, a whole number of samples
        cfg = scenario.ExperimentConfig()
        bin_hz = MC_SAMPLE_RATE / MC_SEGMENT_LENGTH
        snapped = 2.0 * math.pi * round(MC_F / bin_hz) * bin_hz
        # the snapped bin falls a quarter of the way between grid points 2 and 3
        grid = np.linspace(0.0, math.pi * MC_SAMPLE_RATE, 10)
        vy_table = np.array([20.0, 27.0, 33.0, 38.0, 42.0, 45.0, 47.0, 48.5, 49.5, 50.0])
        tabulated = QuadSpectrum.tabulated(grid, [0.6] * len(grid), vy_table)
        diff = Combo.diff_of("C", "D")
        self.cases = [
            OracleCase("mz_diff", scenario.mz_network(
                tau, math.pi / 2, noise=QuadSpectrum.constant(0.617, 63.0)), diff, 63.0),
            OracleCase("twin_amplitude_sum", scenario.experiment_network(cfg, "amplitude"),
                       scenario.correlation_weights("amplitude"), 0.63),
            OracleCase("twin_phase_diff", scenario.experiment_network(cfg, "phase"),
                       scenario.correlation_weights("phase"), 0.732675),
            OracleCase("mz_tabulated", scenario.mz_network(tau, math.pi / 2, noise=tabulated),
                       diff, float(np.interp(snapped, grid, vy_table))),
        ]
        self.shapes = [(n.n_inputs, n.n_detectors)
                       for n in (engine.compile(c.spec) for c in self.cases)]
        self.ops = [Op(c.name, lambda batch, i=i: self._run(i, batch),
                       lambda r, c=c: checks.check_cross_validation(
                           r.engine_value, r.z, c.expected))
                    for i, c in enumerate(self.cases)]
        self.warmup = self.ops[0]

    def _run(self, i: int, batch: int):
        case = self.cases[i]
        base = MC_BASE_SEEDS[(self.seed + batch) % len(MC_BASE_SEEDS)]
        cfg = montecarlo.MCConfig(sample_rate=MC_SAMPLE_RATE, seed=base + i,
                                  segment_length=MC_SEGMENT_LENGTH,
                                  segment_count=MC_SEGMENTS)
        net = engine.compile(case.spec)
        return montecarlo.cross_validate(net, case.combo, 2.0 * math.pi * MC_F, cfg)

    def computed_metrics(self) -> dict[str, float]:
        """Work implied by the roster and the sampling plan, per batch.

        Every roster input of these networks reaches a detector, so each
        cross_validate draws X and Y streams for all N inputs in both the
        signal and the vacuum run.  While the vacuum run accumulates, the
        signal run's (M, T) detector streams are held alongside its own, plus
        one input's X and Y and their shifted copies.
        """
        samples = MC_SEGMENT_LENGTH * MC_SEGMENTS
        return {
            "montecarlo.gaussian_samples": sum(2 * 2 * n * samples for n, _ in self.shapes),
            "montecarlo.stream_mib": max((2 * m + 4) * samples * 8 for _, m in self.shapes)
            / 2 ** 20,
        }


WORKLOADS = {"sweep": Sweep, "scenario": Scenario, "large": Large, "oracle": Oracle}
