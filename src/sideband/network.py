"""Domain types for passive optical networks probed at rf sideband frequencies.

A network is a DAG of sources, passive elements (beamsplitters, phase
shifters, delay lines, loss ports) and photodetectors.  Every network input,
a declared source or a vacuum that compiling injects, is one
:class:`SourceDecl`: a complex carrier amplitude in units of sqrt(photon
flux) and a quadrature fluctuation spectrum, dimensionless and normalised so
vacuum = 1.  A vacuum takes the defaults; a coherent beam has vacuum noise.

Validation is data-in, data-out: :func:`validate` returns a list of
violations instead of raising, so malformed specs remain inspectable.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple, Union

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s, exact

#: name prefix reserved for compile-time artifacts (injected vacuum ports)
RESERVED_PREFIX = "__"

#: the most points a FreqRange may hold; a longer range is refused before
#: any point is built
MAX_SWEEP_POINTS = 1_000_000


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
class SourceDecl:
    """One network input: a carrier amplitude and its quadrature noise."""

    name: str
    amp: complex = 0j
    noise: QuadSpectrum = VACUUM_SPECTRUM

    def __post_init__(self):
        if not cmath.isfinite(self.amp):
            raise ValueError("carrier amplitude must be finite")


# ---------------------------------------------------------------------------
# Passive elements

class Param(NamedTuple):
    """An element parameter: its `.net` dimension and closed allowed range."""

    dim: str
    lo: float = -math.inf
    hi: float = math.inf


class Element:
    """The one statement of an element kind, made by each subclass."""

    keyword: ClassVar[str]  # of its `.net` statement
    params: ClassVar[dict[str, Param]]  # one per dataclass field, in field order
    n_inputs: ClassVar[int] = 1  # the most inputs it takes
    n_driven: ClassVar[int] = 1  # the inputs that must be driven
    ports: ClassVar[tuple[str, ...]] = ("out",)  # its output port names


@dataclass(frozen=True)
class BeamSplitter(Element):
    """Two-in/two-out mixer: outputs t*a + r*b and r*a - t*b, r = sqrt(1-t^2)."""

    t: float = math.sqrt(0.5)  # 50/50

    keyword = "bs"
    params = {"t": Param("plain", 0.0, 1.0)}
    n_inputs = 2
    n_driven = 0  # an open input receives vacuum at compile time
    ports = ("out1", "out2")


@dataclass(frozen=True)
class PhaseShift(Element):
    """Optical phase shift; multiplies carrier and sidebands by e^{i phi}."""

    phi: float

    keyword = "phase"
    params = {"phi": Param("plain")}


@dataclass(frozen=True)
class Delay(Element):
    """Path-length delay of tau seconds plus an independent carrier phase.

    The sub-wavelength optical phase of a meter-scale arm is not fixed by
    tau (it is set interferometrically in practice), so it is a separate
    knob.  Sidebands at frequency w pick up e^{i carrier_phase} e^{-i w tau};
    the carrier picks up e^{i carrier_phase} only.
    """

    tau: float
    carrier_phase: float = 0.0

    keyword = "delay"
    params = {"tau": Param("time", 0.0), "carrier_phase": Param("plain")}

    @property
    def delta_l(self) -> float:
        """Equivalent arm-length difference in meters (c * tau)."""
        return SPEED_OF_LIGHT * self.tau


@dataclass(frozen=True)
class Loss(Element):
    """Attenuator of power transmittance eta.

    Modeled as a beamsplitter of field transmittance sqrt(eta) against a
    hidden vacuum port whose second output is discarded.
    """

    eta: float

    keyword = "loss"
    params = {"eta": Param("plain", 0.0, 1.0)}


#: `.net` keyword -> element class
ELEMENT_KINDS = {cls.keyword: cls for cls in (BeamSplitter, PhaseShift, Delay, Loss)}


def element_problems(el: Element) -> list[tuple[str, str]]:
    """(parameter, problem) for each parameter of ``el`` out of its range."""
    # the range is closed, and NaN and infinite values are outside every range
    return [(name, f"out of range [{lo:g},{hi:g}]" if math.isfinite(hi)
             else f"must be >= {lo:g}" if math.isfinite(lo) else "must be finite")
            for name, (_, lo, hi) in el.params.items()
            if not (math.isfinite(v := getattr(el, name)) and lo <= v <= hi)]


# ---------------------------------------------------------------------------
# Network wiring

@dataclass(frozen=True)
class ElementDecl:
    name: str
    element: Element
    inputs: tuple[str, ...]  # port names; beamsplitter may list 0-2
    # worked out once: validate and compile read them several times
    _output_ports: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_output_ports",
                           tuple([f"{self.name}.{p}" for p in self.element.ports]))

    def output_ports(self) -> tuple[str, ...]:
        return self._output_ports


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
    """The photocurrent sum_k w_k i_k: one (detector, weight) pair per
    detector read.  single, sum_of and diff_of give weights of 1 and +-1."""

    weights: tuple[tuple[str, float], ...]

    @classmethod
    def single(cls, d: str) -> "Combo":
        return cls(((d, 1.0),))

    @classmethod
    def sum_of(cls, d1: str, d2: str) -> "Combo":
        return cls(((d1, 1.0), (d2, 1.0)))

    @classmethod
    def diff_of(cls, d1: str, d2: str) -> "Combo":
        return cls(((d1, 1.0), (d2, -1.0)))

    @property
    def detectors(self) -> tuple[str, ...]:
        return tuple(d for d, _ in self.weights)

    @property
    def kind(self) -> str:
        """'single', 'sum' or 'diff' when the weights spell one, else 'weights'."""
        values = tuple(w for _, w in self.weights)
        return next((k for k, v in SPELLINGS.items() if v == values), "weights")


#: the weights that each spelling of a combo stands for
SPELLINGS = {"single": (1.0,), "sum": (1.0, 1.0), "diff": (1.0, -1.0)}


@dataclass(frozen=True)
class FreqRange:
    """Inclusive frequency sweep lo..hi in steps, all Hz."""

    start: float
    stop: float
    step: float

    def size(self) -> int:
        """The number of points; ValueError if more than MAX_SWEEP_POINTS."""
        if self.step <= 0 or self.stop < self.start:
            return 0
        steps = (self.stop - self.start) / self.step + 1e-9
        if not steps < MAX_SWEEP_POINTS:  # also an infinite or NaN count
            raise ValueError(f"more than {MAX_SWEEP_POINTS} frequencies "
                             f"({self.start:g}:{self.stop:g}:{self.step:g})")
        return int(math.floor(steps)) + 1

    def values(self) -> tuple[float, ...]:
        """The points; ValueError if there are more than MAX_SWEEP_POINTS."""
        return tuple((self.start + np.arange(self.size()) * self.step).tolist())


@dataclass(frozen=True)
class FreqList:
    values_hz: tuple[float, ...]

    def values(self) -> tuple[float, ...]:
        return self.values_hz


def axis_error(freqs: Union[FreqRange, FreqList]) -> str | None:
    """Why a frequency axis cannot be swept, or None if it can.

    The rule for every axis: it has points, all finite and >= 0 with a
    finite angular frequency 2*pi*f, and a range holds at most
    MAX_SWEEP_POINTS.  A range is decided from its endpoints, without
    building its points: they ascend from start to the last.
    """
    if isinstance(freqs, FreqRange):
        try:
            n = freqs.size()
        except ValueError as exc:
            return str(exc)
        ends = (freqs.start, freqs.start + (n - 1) * freqs.step) if n else ()
    else:
        ends = freqs.values_hz
    if not ends:
        return "frequency range is empty"
    if not all(math.isfinite(f) and f >= 0 for f in ends):
        return "frequencies must be finite and >= 0"
    if not math.isfinite(2.0 * math.pi * max(ends)):
        return "angular frequency 2*pi*f overflows"
    return None


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


def validate(spec: NetworkSpec) -> list[Violation]:
    """Return every structural violation of a network spec (empty = valid).

    Pure and deterministic; violations are data, not faults.  Checks:
    duplicate names, unknown/double-used ports, unbound inputs (beamsplitter
    inputs excepted: open ones receive injected vacuum at compile time),
    missing detectors, cycles, parameter ranges, and source physicality
    (the Heisenberg bound V_X * V_Y >= 1).

    The cycle check is :func:`topo_order`'s pass and tie rule (among ready
    elements the first declared goes first); it names, sorted, every element
    that pass cannot place: every element on, or fed by, a cycle.
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
        if len(e.inputs) > e.element.n_inputs:
            out.append(Violation("arity", e.name, f"takes at most {e.element.n_inputs} "
                                 f"inputs, got {len(e.inputs)}"))
        if len(e.inputs) < e.element.n_driven:
            out.append(Violation("unbound-input", e.name, "input port not driven"))
        for p in e.inputs:
            check_port(p, e.name)
        for param, problem in element_problems(e.element):
            out.append(Violation("range", e.name, f"{param} {problem}"))

    for d in spec.detectors:
        if not d.input:
            out.append(Violation("unbound-input", d.name, "detector port not driven"))
        else:
            check_port(d.input, d.name)

    for s in spec.sources:
        if not s.noise.heisenberg_ok():
            out.append(Violation("heisenberg", s.name,
                                 "Heisenberg bound violated: V_X * V_Y < 1"))

    det_names = set(spec.detector_names())
    for m in spec.measurements:
        for d in m.combo.detectors:
            if d not in det_names:
                out.append(Violation("unknown-detector", m.name,
                                     f"measurement references unknown detector {d!r}"))
        if not m.combo.weights or len(set(m.combo.detectors)) != len(m.combo.weights):
            out.append(Violation("combo", m.name, "needs one or more distinct detectors"))
        problem = axis_error(m.freqs)
        if problem:
            out.append(Violation("range", m.name, problem))

    out.extend(Violation("cycle", name, "element is on, or fed by, a wiring cycle")
               for name in _wiring_order(spec)[1])
    return out


def _wiring_order(spec: NetworkSpec) -> tuple[list[ElementDecl], list[str]]:
    """Kahn's sort of the elements, popping ready ones from a heap keyed by
    declaration position.  Returns the order and the sorted names it could
    not place: every element on, or fed by, a wiring cycle."""
    elements = spec.elements
    producer = {p: i for i, e in enumerate(elements) for p in e.output_ports()}
    indeg = [0] * len(elements)
    dependents: list[list[int]] = [[] for _ in elements]
    for i, e in enumerate(elements):
        for p in e.inputs:
            owner = producer.get(p)
            if owner is not None:
                dependents[owner].append(i)
                indeg[i] += 1

    ready = [i for i, n in enumerate(indeg) if n == 0]  # ascending: a heap
    order: list[ElementDecl] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(elements[i])
        for j in dependents[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    return order, sorted({e.name for e, n in zip(elements, indeg) if n})


def topo_order(spec: NetworkSpec) -> list[ElementDecl]:
    """Deterministic topological order of the elements.

    Tie rule: among elements whose element inputs are all placed, the one
    declared first goes next.  ValueError if the wiring has a cycle.
    """
    order, unplaced = _wiring_order(spec)
    if unplaced:
        raise ValueError("network wiring contains a cycle")
    return order
