"""Generated `.net` networks for the `large` workload.

Each generator returns the network text plus what the correctness check
needs to know about it: whether any source is squeezed, and the smallest
and largest input quadrature variance (vacuum counts as 1).  The structure
(roster size, step count, number of distinct path delays) depends only on
the shape arguments; the seed moves element parameters and frequencies.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

HALF = math.sqrt(0.5)
FS = 1e-15  # path delays are counted on a femtosecond grid


@dataclass(frozen=True)
class GeneratedNet:
    name: str
    text: str
    squeezed: bool
    v_min: float
    v_max: float
    roster: int  # declared sources + injected vacua
    steps: int  # pipeline elements
    distinct_delays: int  # distinct input -> detector path delays


class _Writer:
    """Emits statements and tracks, per port, the set of path delays that
    reach it from any roster input (declared source or injected vacuum)."""

    def __init__(self, rng: random.Random, squeezed: bool):
        self.rng = rng
        self.squeezed = squeezed
        self.lines: list[str] = []
        self.variances = [1.0]  # injected vacua
        self.delays: dict[str, frozenset[int]] = {}
        self.roster = 0
        self.steps = 0

    def source(self, name: str):
        rng = self.rng
        amp = rng.uniform(20.0, 120.0)
        phase = rng.uniform(-math.pi, math.pi)
        self.roster += 1
        self.delays[name] = frozenset({0})
        if not self.squeezed:
            self.lines.append(f"source {name} coherent amp={amp!r} phase={phase!r};")
            return
        vx = rng.uniform(0.4, 0.9)
        vy = rng.uniform(1.2 / vx, 40.0)
        self.variances += [vx, vy]
        self.lines.append(
            f"source {name} squeezed amp={amp!r} phase={phase!r} vx={vx!r} vy={vy!r};")

    def bs(self, name: str, ins: list[str], t: float):
        paths = frozenset().union(*(self.delays[p] for p in ins))
        if len(ins) < 2:
            paths |= {0}
            self.roster += 1
        self._add(f"bs {name} from {', '.join(ins)} t={t!r};",
                  {f"{name}.out1": paths, f"{name}.out2": paths})

    def loss(self, name: str, port: str, eta: float):
        self.roster += 1
        self._add(f"loss {name} from {port} eta={eta!r};",
                  {f"{name}.out": self.delays[port] | {0}})

    def delay(self, name: str, port: str, tau: float, extra: str = ""):
        shift = round(tau / FS)
        self._add(f"delay {name} from {port} tau={tau!r}{extra};",
                  {f"{name}.out": frozenset(d + shift for d in self.delays[port])})

    def _add(self, line: str, outputs: dict[str, frozenset[int]]):
        self.lines.append(line)
        self.steps += 1
        self.delays.update(outputs)

    def finish(self, name: str, port: str, freqs: list[float]) -> GeneratedNet:
        """Unbalanced Mach-Zehnder readout on `port`, measured as diff(X,Y)."""
        rng = self.rng
        self.bs("SPL", [port], HALF)
        self.delay("ARM", "SPL.out2", rng.uniform(10e-9, 40e-9),
                   f" carrier_phase={rng.uniform(-math.pi, math.pi)!r}")
        self.bs("MIX", ["SPL.out1", "ARM.out"], HALF)
        self.lines += ["det X from MIX.out1;", "det Y from MIX.out2;",
                       "measure M diff(X,Y) freqs=" + ",".join(repr(f) for f in freqs) + ";"]
        return GeneratedNet(name, "\n".join(self.lines) + "\n", self.squeezed,
                            min(self.variances), max(self.variances),
                            self.roster, self.steps, len(self.delays["MIX.out1"]))


def chain(rng: random.Random, name: str, stages: int, squeezed: bool,
          many_delays: bool, freqs: list[float]) -> GeneratedNet:
    """A through-beam that picks up one source per stage, with a loss after
    each mixer.  With many_delays every stage adds its own delay, so every
    source reaches the readout over a different path length."""
    w = _Writer(rng, squeezed)
    w.source("S0")
    port = "S0"
    for i in range(1, stages):
        w.source(f"S{i}")
        if many_delays:
            w.delay(f"D{i}", port, rng.uniform(0.5e-9, 5e-9))
            port = f"D{i}.out"
        w.bs(f"B{i}", [port, f"S{i}"], rng.uniform(0.3, 0.95))
        w.loss(f"L{i}", f"B{i}.out1", rng.uniform(0.85, 1.0))
        port = f"L{i}.out"
    return w.finish(name, port, freqs)


def mesh(rng: random.Random, name: str, modes: int, layers: int, squeezed: bool,
         many_delays: bool, freqs: list[float]) -> GeneratedNet:
    """Brick-wall mesh: each layer puts a loss on every mode, with
    many_delays a delay on every other mode, and mixes neighbouring modes
    pairwise."""
    w = _Writer(rng, squeezed)
    ports = []
    for i in range(modes):
        w.source(f"M{i}")
        ports.append(f"M{i}")
    for layer in range(layers):
        for i in range(modes):
            w.loss(f"L{layer}_{i}", ports[i], rng.uniform(0.9, 1.0))
            ports[i] = f"L{layer}_{i}.out"
            if many_delays and i % 2 == layer % 2:
                w.delay(f"D{layer}_{i}", ports[i], rng.uniform(0.5e-9, 5e-9))
                ports[i] = f"D{layer}_{i}.out"
        for i in range(layer % 2, modes - 1, 2):
            w.bs(f"X{layer}_{i}", [ports[i], ports[i + 1]], rng.uniform(0.5, 0.9))
            ports[i], ports[i + 1] = f"X{layer}_{i}.out1", f"X{layer}_{i}.out2"
    return w.finish(name, ports[0], freqs)
