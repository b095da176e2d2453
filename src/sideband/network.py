"""Domain types for passive optical networks probed at rf sideband frequencies.

A network is a DAG of sources, passive elements (beamsplitters, phase
shifters, delay lines, loss ports) and photodetectors.  Carrier amplitudes
are complex field amplitudes in units of sqrt(photon flux); quadrature
fluctuation spectra are dimensionless and normalised so vacuum = 1.

Validation is data-in, data-out: :func:`validate` returns a list of
violations instead of raising, so malformed specs remain inspectable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s, exact

#: name prefix reserved for compile-time artifacts (injected vacuum ports)
RESERVED_PREFIX = "__"

#: the most points a FreqRange may hold; a longer range is refused before
#: any point is built
MAX_SWEEP_POINTS = 1_000_000


@dataclass(frozen=True)
class ComplexAmp:
    """Classical carrier amplitude; magnitude squared is mean photon flux."""

    re: float
    im: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError("carrier amplitude must be finite")

    @classmethod
    def from_polar(cls, mag: float, phase: float = 0.0) -> "ComplexAmp":
        return cls(mag * math.cos(phase), mag * math.sin(phase))

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)


@dataclass(frozen=True)
class QuadSpectrum:
    """Quadrature variance pair (V_X, V_Y) versus sideband frequency.

    Either a constant pair or a tabulated grid with linear interpolation
    (clamped at the grid ends).  Cross-spectra between X and Y are assumed
    zero: squeezing axes are aligned with amplitude/phase, rotated squeezing
    is expressed with an explicit phase-shift element in the network.
    """

    vx: float | None = None
    vy: float | None = None
    omegas: tuple[float, ...] | None = None
    vx_table: tuple[float, ...] | None = None
    vy_table: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.omegas is None:
            if self.vx is None or self.vy is None:
                raise ValueError("constant spectrum needs vx and vy")
            vals = (self.vx, self.vy)
        else:
            if self.vx_table is None or self.vy_table is None:
                raise ValueError("tabulated spectrum needs vx_table and vy_table")
            if not (len(self.omegas) == len(self.vx_table) == len(self.vy_table)):
                raise ValueError("tabulated spectrum arrays must have equal length")
            if len(self.omegas) < 2:
                raise ValueError("tabulated spectrum needs at least two grid points")
            if any(b <= a for a, b in zip(self.omegas, self.omegas[1:])):
                raise ValueError("tabulated spectrum grid must be strictly increasing")
            vals = self.vx_table + self.vy_table
        for v in vals:
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError("quadrature variances must be finite and positive")

    @classmethod
    def constant(cls, vx: float, vy: float) -> "QuadSpectrum":
        return cls(vx=vx, vy=vy)

    @classmethod
    def tabulated(cls, omegas, vx, vy) -> "QuadSpectrum":
        return cls(omegas=tuple(float(w) for w in omegas),
                   vx_table=tuple(float(v) for v in vx),
                   vy_table=tuple(float(v) for v in vy))

    @property
    def is_constant(self) -> bool:
        return self.omegas is None

    def _at(self, value, table, omega):
        if self.is_constant:
            return value if np.ndim(omega) == 0 else np.full(np.shape(omega), value)
        return np.interp(np.abs(omega), self.omegas, table)

    def vx_at(self, omega):
        """V_X at omega (rad/s), a scalar or an array; even in omega."""
        return self._at(self.vx, self.vx_table, omega)

    def vy_at(self, omega):
        """V_Y at omega (rad/s), a scalar or an array; even in omega."""
        return self._at(self.vy, self.vy_table, omega)

    def heisenberg_ok(self) -> bool:
        """Check V_X * V_Y >= 1 on the grid.

        For positive tables under linear interpolation the product between
        grid points is bounded below by the endpoint products, so checking
        grid points is exact.
        """
        if self.is_constant:
            return self.vx * self.vy >= 1.0
        return all(x * y >= 1.0 for x, y in zip(self.vx_table, self.vy_table))


VACUUM_SPECTRUM = QuadSpectrum.constant(1.0, 1.0)


# ---------------------------------------------------------------------------
# Sources

@dataclass(frozen=True)
class Vacuum:
    """Empty port: zero carrier, unit quadrature noise."""


@dataclass(frozen=True)
class Coherent:
    amp: ComplexAmp


@dataclass(frozen=True)
class SqueezedCoherent:
    amp: ComplexAmp
    noise: QuadSpectrum


SourceSpec = Union[Vacuum, Coherent, SqueezedCoherent]


def source_amp(spec: SourceSpec) -> ComplexAmp:
    if isinstance(spec, Vacuum):
        return ComplexAmp(0.0, 0.0)
    return spec.amp


def source_noise(spec: SourceSpec) -> QuadSpectrum:
    if isinstance(spec, SqueezedCoherent):
        return spec.noise
    return VACUUM_SPECTRUM


# ---------------------------------------------------------------------------
# Passive elements

@dataclass(frozen=True)
class BeamSplitter:
    """Two-in/two-out mixer: outputs t*a + r*b and r*a - t*b, r = sqrt(1-t^2)."""

    t: float

    n_inputs = 2


@dataclass(frozen=True)
class PhaseShift:
    """Optical phase shift; multiplies carrier and sidebands by e^{i phi}."""

    phi: float

    n_inputs = 1


@dataclass(frozen=True)
class Delay:
    """Path-length delay of tau seconds plus an independent carrier phase.

    The sub-wavelength optical phase of a meter-scale arm is not fixed by
    tau (it is set interferometrically in practice), so it is a separate
    knob.  Sidebands at frequency w pick up e^{i carrier_phase} e^{-i w tau};
    the carrier picks up e^{i carrier_phase} only.
    """

    tau: float
    carrier_phase: float = 0.0

    n_inputs = 1

    @property
    def delta_l(self) -> float:
        """Equivalent arm-length difference in meters (c * tau)."""
        return SPEED_OF_LIGHT * self.tau


@dataclass(frozen=True)
class Loss:
    """Attenuator of power transmittance eta.

    Modeled as a beamsplitter of field transmittance sqrt(eta) against a
    hidden vacuum port whose second output is discarded.
    """

    eta: float

    n_inputs = 1


Element = Union[BeamSplitter, PhaseShift, Delay, Loss]


# ---------------------------------------------------------------------------
# Network wiring

@dataclass(frozen=True)
class SourceDecl:
    name: str
    spec: SourceSpec


@dataclass(frozen=True)
class ElementDecl:
    name: str
    element: Element
    inputs: tuple[str, ...]  # port names; beamsplitter may list 0-2

    def output_ports(self) -> tuple[str, ...]:
        if isinstance(self.element, BeamSplitter):
            return (self.name + ".out1", self.name + ".out2")
        return (self.name + ".out",)


@dataclass(frozen=True)
class DetectorDecl:
    """Photodetector of unit quantum efficiency.

    Detector imperfection is modeled by an explicit upstream Loss element so
    that a single attenuation code path covers all efficiency effects.
    """

    name: str
    input: str


@dataclass(frozen=True)
class Combo:
    """A photocurrent combination over named detectors."""

    kind: str  # "sum" | "diff" | "single"
    detectors: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in ("sum", "diff", "single"):
            raise ValueError(f"unknown combo kind {self.kind!r}")
        need = 1 if self.kind == "single" else 2
        if len(self.detectors) != need:
            raise ValueError(f"{self.kind} combo needs {need} detectors")

    @classmethod
    def sum_of(cls, d1: str, d2: str) -> "Combo":
        return cls("sum", (d1, d2))

    @classmethod
    def diff_of(cls, d1: str, d2: str) -> "Combo":
        return cls("diff", (d1, d2))

    @classmethod
    def single(cls, d: str) -> "Combo":
        return cls("single", (d,))


@dataclass(frozen=True)
class FreqRange:
    """Inclusive frequency sweep lo..hi in steps, all Hz."""

    start: float
    stop: float
    step: float

    def values(self) -> tuple[float, ...]:
        """The points; ValueError if there are more than MAX_SWEEP_POINTS."""
        if self.step <= 0 or self.stop < self.start:
            return ()
        steps = (self.stop - self.start) / self.step + 1e-9
        if not steps < MAX_SWEEP_POINTS:  # also an infinite or NaN count
            raise ValueError(f"more than {MAX_SWEEP_POINTS} frequencies "
                             f"({self.start:g}:{self.stop:g}:{self.step:g})")
        return tuple(self.start + i * self.step for i in range(int(math.floor(steps)) + 1))


@dataclass(frozen=True)
class FreqList:
    values_hz: tuple[float, ...]

    def values(self) -> tuple[float, ...]:
        return self.values_hz


@dataclass(frozen=True)
class Measurement:
    name: str
    combo: Combo
    freqs: Union[FreqRange, FreqList]


@dataclass(frozen=True)
class NetworkSpec:
    sources: tuple[SourceDecl, ...] = ()
    elements: tuple[ElementDecl, ...] = ()
    detectors: tuple[DetectorDecl, ...] = ()
    measurements: tuple[Measurement, ...] = ()

    def producer_ports(self) -> dict[str, str]:
        """Map of every output port name to the declaration that produces it."""
        ports: dict[str, str] = {}
        for s in self.sources:
            ports[s.name] = s.name
        for e in self.elements:
            for p in e.output_ports():
                ports[p] = e.name
        return ports

    def detector_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.detectors)


# ---------------------------------------------------------------------------
# Validation

@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"


def _range_violations(decl: ElementDecl) -> list[Violation]:
    el = decl.element
    out: list[Violation] = []

    def bad(param, msg):
        out.append(Violation("range", decl.name, f"{param} {msg}"))

    if isinstance(el, BeamSplitter):
        if not (math.isfinite(el.t) and 0.0 <= el.t <= 1.0):
            bad("t", "out of range [0,1]")
    elif isinstance(el, Loss):
        if not (math.isfinite(el.eta) and 0.0 <= el.eta <= 1.0):
            bad("eta", "out of range [0,1]")
    elif isinstance(el, Delay):
        if not (math.isfinite(el.tau) and el.tau >= 0.0):
            bad("tau", "must be >= 0")
        if not math.isfinite(el.carrier_phase):
            bad("carrier_phase", "must be finite")
    elif isinstance(el, PhaseShift):
        if not math.isfinite(el.phi):
            bad("phi", "must be finite")
    return out


def validate(spec: NetworkSpec) -> list[Violation]:
    """Return every structural violation of a network spec (empty = valid).

    Pure and deterministic; violations are data, not faults.  Checks:
    duplicate names, unknown/double-used ports, unbound inputs (beamsplitter
    inputs excepted: open ones receive injected vacuum at compile time),
    missing detectors, cycles, parameter ranges, and source physicality
    (the Heisenberg bound V_X * V_Y >= 1).
    """
    out: list[Violation] = []

    if not spec.detectors:
        out.append(Violation("no-detectors", "<network>", "no detectors declared"))

    seen: set[str] = set()
    for name in ([s.name for s in spec.sources] + [e.name for e in spec.elements]
                 + [d.name for d in spec.detectors]):
        if name in seen:
            out.append(Violation("duplicate-name", name, "name declared more than once"))
        seen.add(name)

    ports = spec.producer_ports()
    consumed: dict[str, str] = {}

    def check_port(port: str, consumer: str):
        if port not in ports:
            out.append(Violation("unknown-port", consumer, f"references unknown port {port!r}"))
            return
        if port in consumed:
            out.append(Violation("double-driven", consumer,
                                 f"port {port!r} already feeds {consumed[port]!r}"))
        else:
            consumed[port] = consumer

    for e in spec.elements:
        n_max = e.element.n_inputs
        if len(e.inputs) > n_max:
            out.append(Violation("arity", e.name,
                                 f"takes at most {n_max} inputs, got {len(e.inputs)}"))
        if not isinstance(e.element, BeamSplitter) and len(e.inputs) < n_max:
            out.append(Violation("unbound-input", e.name, "input port not driven"))
        for p in e.inputs:
            check_port(p, e.name)
        out.extend(_range_violations(e))

    for d in spec.detectors:
        if not d.input:
            out.append(Violation("unbound-input", d.name, "detector port not driven"))
        else:
            check_port(d.input, d.name)

    for s in spec.sources:
        if isinstance(s.spec, SqueezedCoherent) and not s.spec.noise.heisenberg_ok():
            out.append(Violation("heisenberg", s.name,
                                 "Heisenberg bound violated: V_X * V_Y < 1"))

    det_names = set(spec.detector_names())
    for m in spec.measurements:
        for d in m.combo.detectors:
            if d not in det_names:
                out.append(Violation("unknown-detector", m.name,
                                     f"measurement references unknown detector {d!r}"))
        if m.combo.kind in ("sum", "diff") and len(set(m.combo.detectors)) != 2:
            out.append(Violation("combo", m.name, "sum/diff needs two distinct detectors"))
        try:
            freqs = m.freqs.values()
        except ValueError as exc:
            out.append(Violation("range", m.name, str(exc)))
            freqs = ()
        for f in freqs:
            if f < 0 or not math.isfinite(f):
                out.append(Violation("range", m.name, "frequencies must be finite and >= 0"))

    out.extend(_cycle_violations(spec))
    return out


def _cycle_violations(spec: NetworkSpec) -> list[Violation]:
    producer_of = spec.producer_ports()
    deps: dict[str, set[str]] = {e.name: set() for e in spec.elements}
    source_names = {s.name for s in spec.sources}
    for e in spec.elements:
        for p in e.inputs:
            owner = producer_of.get(p)
            if owner is not None and owner not in source_names:
                deps[e.name].add(owner)

    state: dict[str, int] = {}  # 0 visiting, 1 done
    cyclic: set[str] = set()

    def visit(node: str, stack: list[str]):
        if state.get(node) == 1:
            return
        if state.get(node) == 0:
            cyclic.update(stack[stack.index(node):])
            return
        state[node] = 0
        stack.append(node)
        for dep in sorted(deps.get(node, ())):
            visit(dep, stack)
        stack.pop()
        state[node] = 1

    for name in deps:
        visit(name, [])
    return [Violation("cycle", name, "element is part of a wiring cycle")
            for name in sorted(cyclic)]


def topo_order(spec: NetworkSpec) -> list[ElementDecl]:
    """Deterministic topological order of elements (declaration order ties)."""
    producer_of = spec.producer_ports()
    source_names = {s.name for s in spec.sources}
    by_name = {e.name: e for e in spec.elements}
    indeg: dict[str, int] = {}
    dependents: dict[str, list[str]] = {e.name: [] for e in spec.elements}
    for e in spec.elements:
        n = 0
        for p in e.inputs:
            owner = producer_of.get(p)
            if owner is not None and owner not in source_names:
                dependents[owner].append(e.name)
                n += 1
        indeg[e.name] = n

    order: list[ElementDecl] = []
    ready = [e.name for e in spec.elements if indeg[e.name] == 0]
    pos = {e.name: i for i, e in enumerate(spec.elements)}
    while ready:
        ready.sort(key=pos.__getitem__)
        name = ready.pop(0)
        order.append(by_name[name])
        for dep in dependents[name]:
            indeg[dep] -= 1
            if indeg[dep] == 0:
                ready.append(dep)
    if len(order) != len(spec.elements):
        raise ValueError("network wiring contains a cycle")
    return order
