"""Random network generators shared by fuzz and property tests."""

from __future__ import annotations

import math
import random

from sideband.network import (
    BeamSplitter,
    Combo,
    Delay,
    DetectorDecl,
    ElementDecl,
    FreqList,
    FreqRange,
    Loss,
    Measurement,
    NetworkSpec,
    PhaseShift,
    QuadSpectrum,
    SourceDecl,
)


def random_source(rng: random.Random, name: str, allow_squeezed: bool) -> SourceDecl:
    roll = rng.random()
    if roll < 0.2:
        return SourceDecl(name)
    amp = complex(rng.uniform(1.0, 200.0),
                  rng.uniform(-50.0, 50.0) if rng.random() < 0.3 else 0.0)
    if allow_squeezed and roll < 0.55:
        vx = rng.uniform(0.3, 1.5)
        vy = max(1.0 / vx, 1.0) * rng.uniform(1.0, 80.0)
        return SourceDecl(name, amp, QuadSpectrum.constant(vx, vy))
    return SourceDecl(name, amp)


def random_spec(rng: random.Random, allow_squeezed: bool = True,
                force_loss: bool = False, max_elements: int = 8) -> NetworkSpec:
    """A random valid network: random DAG of elements over 1-3 sources."""
    n_src = rng.randint(1, 3)
    sources = tuple(random_source(rng, f"S{i}", allow_squeezed) for i in range(n_src))
    open_ports = [s.name for s in sources]
    elements: list[ElementDecl] = []

    def add_element(kind: str):
        name = f"E{len(elements)}"
        if kind == "bs":
            n_in = 2 if len(open_ports) >= 2 and rng.random() < 0.8 else 1
            ins = tuple(open_ports.pop(rng.randrange(len(open_ports)))
                        for _ in range(n_in))
            el = BeamSplitter(rng.uniform(0.0, 1.0))
        else:
            ins = (open_ports.pop(rng.randrange(len(open_ports))),)
            if kind == "phase":
                el = PhaseShift(rng.uniform(-math.pi, math.pi))
            elif kind == "delay":
                el = Delay(rng.uniform(0.0, 5e-8), rng.uniform(-math.pi, math.pi))
            else:
                el = Loss(rng.uniform(0.05, 1.0))
        decl = ElementDecl(name, el, ins)
        elements.append(decl)
        open_ports.extend(decl.output_ports())

    kinds = ["bs", "phase", "delay", "loss"]
    for _ in range(rng.randint(0, max_elements)):
        add_element(rng.choice(kinds))
    if force_loss and not any(isinstance(e.element, Loss) for e in elements):
        add_element("loss")

    detectors: list[DetectorDecl] = []
    rng.shuffle(open_ports)
    for port in open_ports:
        if not detectors or rng.random() < 0.8:
            detectors.append(DetectorDecl(f"D{len(detectors)}", port))

    measurements: list[Measurement] = []
    det_names = [d.name for d in detectors]
    for i in range(rng.randint(0, 2)):
        combo = _draw_combo(rng, det_names)
        if rng.random() < 0.5:
            lo = rng.uniform(1e6, 2e7)
            freqs = FreqRange(lo, lo + rng.uniform(1e6, 1e7), rng.uniform(1e5, 1e6))
        else:
            freqs = FreqList(tuple(rng.uniform(1e6, 4e7)
                                   for _ in range(rng.randint(1, 3))))
        measurements.append(Measurement(f"M{i}", combo, freqs))

    return NetworkSpec(sources, tuple(elements), tuple(detectors),
                       tuple(measurements))


def random_combo(rng: random.Random, spec: NetworkSpec) -> Combo:
    return _draw_combo(rng, list(spec.detector_names()))


def _draw_combo(rng: random.Random, names: list[str]) -> Combo:
    """sum, diff or single, or general weights (negative and non-unit among
    them) on one or more distinct detectors."""
    roll = rng.random()
    if len(names) >= 2 and roll < 0.45:
        return (Combo.sum_of if rng.random() < 0.5 else Combo.diff_of)(*rng.sample(names, 2))
    if roll < 0.7:
        return Combo.single(rng.choice(names))
    picked = rng.sample(names, rng.randint(1, len(names)))
    return Combo(tuple((d, rng.choice((1.0, -1.0, rng.uniform(-3.0, 3.0))))
                       for d in picked))
