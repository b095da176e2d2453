"""Sideband transfer matrices and photocurrent fluctuation spectra.

A compiled network maps the annihilation fluctuation operators of its inputs
at sideband frequency w to the operators at the detector ports through an
M x N complex matrix A(w), built by walking the element pipeline in
topological order.  Compiling turns each element into its linear map, stated
once in :func:`_linear_map`: rows of output-by-input gains and a sideband
delay tau, so an output port is sum_i gains[o][i] e^{-i w tau} in_i.  The
walk here and the Monte-Carlo delay taps both read those maps and nothing
else of the element.  Carriers follow the same pipeline with the sideband
factor of each delay removed, i.e. the carrier vector equals A(0) applied to
the source amplitudes.

Because every element is passive, the conjugate-operator rows need no extra
state: the da^dag response at +w is conj(A(-w)).  Photocurrent linear forms
therefore combine u = conj(alpha_k) A_kj(w) and w = alpha_k conj(A_kj(-w))
into amplitude/phase quadrature coefficients c_X = (u + w)/2 and
c_Y = i(u - w)/2 per input, and a variance spectrum is a weighted sum of the
input quadrature variances.  All spectra are normalised to the shot-noise
level of the same detector combination, which for a passive network equals
the detected carrier flux.

Every entry point is a view of one walk over a whole frequency axis:
:func:`sweep` evaluates blocks of frequencies per walk, and
:func:`transfer` and :func:`spectrum` are its one-point views.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .network import (
    BeamSplitter,
    Combo,
    Delay,
    Loss,
    NetworkSpec,
    PhaseShift,
    QuadSpectrum,
    RESERVED_PREFIX,
    VACUUM_SPECTRUM,
    source_amp,
    source_noise,
    topo_order,
    validate,
)


#: Sideband frequencies per pipeline walk in :func:`sweep`.  A port's state
#: holds 2 * BLOCK * N complex values (+w and -w stacked), so this bounds the
#: memory of long sweeps on large rosters.
BLOCK = 256


class StructuralError(ValueError):
    """Raised when compiling a spec that does not pass validation."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__(
            "spec does not validate: " + "; ".join(str(v) for v in self.violations))


@dataclass(frozen=True)
class RosterEntry:
    """One network input: a declared source or an injected vacuum."""

    name: str
    noise: QuadSpectrum
    carrier: complex
    injected: bool


@dataclass(frozen=True)
class CompiledNetwork:
    """Element pipeline with resolved ports and a deterministic input roster.

    The roster lists declared sources in declaration order followed by the
    vacuum ports injected for Loss elements and open beamsplitter inputs, in
    pipeline-traversal order.  n_inputs/n_detectors give the transfer-matrix
    shape (N columns, M rows).
    """

    spec: NetworkSpec
    roster: tuple[RosterEntry, ...]
    steps: tuple["PipelineStep", ...]
    detector_names: tuple[str, ...]
    detector_ports: tuple[str, ...]
    carriers: tuple[complex, ...]  # per detector
    unconsumed_ports: tuple[str, ...]

    @property
    def n_inputs(self) -> int:
        return len(self.roster)

    @property
    def n_detectors(self) -> int:
        return len(self.detector_names)

    def input_spectra(self, inputs=None) -> list[QuadSpectrum]:
        """Resolve per-roster quadrature spectra.

        ``inputs`` may be None (use the declared source noise), a mapping
        from source name to QuadSpectrum overriding individual sources, or a
        full roster-aligned sequence.  Injected vacua are always (1, 1).
        """
        if isinstance(inputs, Sequence) and not isinstance(inputs, (str, bytes)):
            if len(inputs) != self.n_inputs:
                raise ValueError(
                    f"expected {self.n_inputs} roster-aligned spectra, got {len(inputs)}")
            return [VACUUM_SPECTRUM if e.injected else s
                    for e, s in zip(self.roster, inputs)]
        overrides: Mapping[str, QuadSpectrum] = inputs or {}
        unknown = set(overrides) - {e.name for e in self.roster}
        if unknown:
            raise KeyError(f"unknown source names in overrides: {sorted(unknown)}")
        return [VACUUM_SPECTRUM if e.injected else overrides.get(e.name, e.noise)
                for e in self.roster]

    def source_flux(self) -> float:
        return float(sum(abs(e.carrier) ** 2 for e in self.roster))


@dataclass(frozen=True)
class PipelineStep:
    """One element with resolved ports and its linear map (see _linear_map)."""

    element: object
    in_ports: tuple[str, ...]
    out_ports: tuple[str, ...]
    gains: tuple[tuple[complex, ...], ...]  # one row per output, one gain per input
    tau: float  # sideband delay in seconds


def _linear_map(el) -> tuple[tuple[tuple[complex, ...], ...], float]:
    """An element's output-by-input gains and its sideband delay tau (s).

    The only statement of element physics: at sideband w, output o is
    sum_i gains[o][i] e^{-i w tau} in_i; the carrier sees w = 0.  A Loss is
    a beamsplitter against a hidden vacuum, its second input.
    """
    if isinstance(el, BeamSplitter):
        r = math.sqrt(max(0.0, 1.0 - el.t * el.t))
        return ((el.t, r), (r, -el.t)), 0.0
    if isinstance(el, PhaseShift):
        return ((np.exp(1j * el.phi),),), 0.0
    if isinstance(el, Delay):
        return ((np.exp(1j * el.carrier_phase),),), el.tau
    if isinstance(el, Loss):
        return ((math.sqrt(el.eta), math.sqrt(1.0 - el.eta)),), 0.0
    raise TypeError(f"unknown element {el!r}")  # pragma: no cover - union is closed


@dataclass(frozen=True)
class TransferMatrix:
    """A(w): rows = detectors, columns = roster inputs; plus the carriers."""

    omega: float
    a: np.ndarray  # (M, N) complex
    carriers: np.ndarray  # (M,) complex


@dataclass(frozen=True)
class SpectrumPoint:
    omega: float
    absolute: float
    snl: float
    normalized: float
    db: float


def compile(spec: NetworkSpec) -> CompiledNetwork:  # noqa: A001 - domain verb
    """Compile a validated spec into an ordered pipeline with vacuum roster.

    Deterministic and idempotent: the roster is declared sources first, then
    injected vacua in traversal order, one for every input of an element's
    linear map that the spec leaves open (every Loss contributes exactly one).
    """
    violations = validate(spec)
    if violations:
        raise StructuralError(violations)

    roster: list[RosterEntry] = []
    for s in spec.sources:
        roster.append(RosterEntry(
            name=s.name,
            noise=source_noise(s.spec),
            carrier=source_amp(s.spec).value,
            injected=False,
        ))

    def inject_vacuum() -> str:
        name = f"{RESERVED_PREFIX}vac{sum(1 for e in roster if e.injected)}"
        roster.append(RosterEntry(name, VACUUM_SPECTRUM, 0j, injected=True))
        return name

    steps: list[PipelineStep] = []
    for decl in topo_order(spec):
        gains, tau = _linear_map(decl.element)
        ins = list(decl.inputs)
        while len(ins) < len(gains[0]):
            ins.append(inject_vacuum())
        steps.append(PipelineStep(decl.element, tuple(ins), decl.output_ports(),
                                  gains, tau))

    consumed = {p for st in steps for p in st.in_ports}
    consumed.update(d.input for d in spec.detectors)
    produced = [s.name for s in spec.sources]
    produced += [p for st in steps for p in st.out_ports]
    unconsumed = tuple(p for p in produced if p not in consumed)

    net = CompiledNetwork(
        spec=spec,
        roster=tuple(roster),
        steps=tuple(steps),
        detector_names=spec.detector_names(),
        detector_ports=tuple(d.input for d in spec.detectors),
        carriers=(),
        unconsumed_ports=unconsumed,
    )
    amps = np.array([e.carrier for e in net.roster], dtype=complex)
    carriers = tuple(complex(c) for c in transfer(net, 0.0).a @ amps)
    return dataclasses.replace(net, carriers=carriers)


def _run_pipeline(net: CompiledNetwork, omegas: np.ndarray,
                  ports: Sequence[str]) -> dict[str, np.ndarray]:
    """Walk the element pipeline at every sideband frequency in ``omegas``.

    A port's state is an (F, N) array: row f holds the port's operator as a
    combination of the roster inputs at omegas[f].  Roster inputs start as
    unit rows when first read.  Every port feeds at most one consumer (see
    ``validate``), so a state is dropped once read, and never kept for an
    unconsumed port, unless it is one of ``ports``; live memory is the
    walk's frontier.  Returns the states of ``ports``.
    """
    shape = (omegas.size, net.n_inputs)
    column = {entry.name: j for j, entry in enumerate(net.roster)}
    wanted = set(ports)
    discarded = set(net.unconsumed_ports) - wanted
    state: dict[str, np.ndarray] = {}
    out: dict[str, np.ndarray] = {}

    def read(port: str) -> np.ndarray:
        arr = state.pop(port, None)
        if arr is None:
            arr = np.zeros(shape, dtype=complex)
            arr[:, column[port]] = 1.0
        if port in wanted:
            out[port] = arr
        return arr

    def write(port: str, arr: np.ndarray):
        if port not in discarded:
            state[port] = arr

    for st in net.steps:
        ins = [read(p) for p in st.in_ports]
        gains = st.gains
        if st.tau:
            delay = np.exp(-1j * omegas * st.tau)
            gains = [[(g * delay)[:, None] for g in row] for row in gains]
        for port, row in zip(st.out_ports, gains):
            acc = row[0] * ins[0]
            if len(row) > 1:
                acc += row[1] * ins[1]
            write(port, acc)
    for port in ports:
        if port not in out:
            read(port)
    return out


def _detector_rows(net: CompiledNetwork, omegas: np.ndarray) -> np.ndarray:
    """A(w) for every w in ``omegas``: an (F, M, N) array."""
    state = _run_pipeline(net, omegas, net.detector_ports)
    return np.stack([state[p] for p in net.detector_ports], axis=1)


def transfer(net: CompiledNetwork, omega: float) -> TransferMatrix:
    """Evaluate the input->detector matrix at sideband frequency omega (rad/s)."""
    a = _detector_rows(net, np.array([omega], dtype=float))[0]
    return TransferMatrix(omega=omega, a=a,
                          carriers=np.array(net.carriers, dtype=complex))


ComboLike = Union[Combo, Mapping[str, float]]


def combo_weights(net: CompiledNetwork, combo: ComboLike) -> np.ndarray:
    """Per-detector weights (+1/-1/0, or arbitrary floats for custom combos)."""
    w = np.zeros(net.n_detectors)
    index = {name: k for k, name in enumerate(net.detector_names)}
    if isinstance(combo, Combo):
        if combo.kind == "single":
            w[index[combo.detectors[0]]] = 1.0
        else:
            w[index[combo.detectors[0]]] = 1.0
            w[index[combo.detectors[1]]] = 1.0 if combo.kind == "sum" else -1.0
        return w
    for name, weight in combo.items():
        w[index[name]] = weight
    return w


def _forms(net: CompiledNetwork, weights: np.ndarray,
           omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c_X and c_Y of each weight row at each omega, as (F, C, N) arrays.

    +w and -w share one walk.  With real weights the da^dag term
    alpha w conj(A(-w)) is the conjugate of conj(alpha) w A(-w), so one
    matmul over the stacked axis gives both halves.
    """
    f = omegas.size
    a = _detector_rows(net, np.concatenate([omegas, -omegas]))
    g = np.matmul(weights * np.conj(np.array(net.carriers, dtype=complex)), a)
    u, w = g[:f], np.conj(g[f:])
    return (u + w) / 2.0, 1j * (u - w) / 2.0


@dataclass(frozen=True)
class SpectrumSweep:
    """Spectra of one combo, shape (F,), or of C combos, shape (C, F)."""

    absolute: np.ndarray
    snl: np.ndarray
    normalized: np.ndarray
    db: np.ndarray


def sweep(net: CompiledNetwork, combo: Union[ComboLike, Sequence[ComboLike]],
          omegas, inputs=None) -> SpectrumSweep:
    """Photocurrent variance spectral densities over a frequency axis (rad/s).

    ``absolute`` sums |c_X|^2 V_X + |c_Y|^2 V_Y over the roster; ``snl`` is
    the same sum with every variance forced to 1; ``normalized`` is their
    ratio (NaN when no carrier reaches the combo), ``db`` its decibel value.
    ``combo`` may be a sequence of combos, which share each pipeline walk and
    give one row each.  The axis is walked in blocks of BLOCK frequencies.
    """
    single = isinstance(combo, (Combo, Mapping))
    combos = [combo] if single else list(combo)
    weights = np.array([combo_weights(net, c) for c in combos])
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    spectra = net.input_spectra(inputs)
    absolute = np.empty((len(combos), omegas.size))
    snl_vals = np.empty_like(absolute)
    for lo in range(0, omegas.size, BLOCK):
        block = omegas[lo:lo + BLOCK]
        c_x, c_y = _forms(net, weights, block)
        px, py = np.abs(c_x) ** 2, np.abs(c_y) ** 2
        vx = np.empty((block.size, net.n_inputs))
        vy = np.empty_like(vx)
        for j, s in enumerate(spectra):
            vx[:, j] = s.vx_at(block)
            vy[:, j] = s.vy_at(block)
        absolute[:, lo:lo + BLOCK] = (np.einsum("fcn,fn->cf", px, vx)
                                      + np.einsum("fcn,fn->cf", py, vy))
        snl_vals[:, lo:lo + BLOCK] = (px + py).sum(axis=2).T
    lit = snl_vals > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = np.where(lit, absolute / snl_vals, math.nan)
        db = np.where(lit, 10.0 * np.log10(normalized), math.nan)
    if single:
        absolute, snl_vals, normalized, db = absolute[0], snl_vals[0], normalized[0], db[0]
    return SpectrumSweep(absolute=absolute, snl=snl_vals, normalized=normalized, db=db)


def spectrum(net: CompiledNetwork, combo: ComboLike, omega: float,
             inputs=None) -> SpectrumPoint:
    """Photocurrent variance spectral density of a combo at omega (rad/s):
    the one-point view of :func:`sweep`."""
    s = sweep(net, combo, [omega], inputs)
    return SpectrumPoint(omega=omega, absolute=float(s.absolute[0]),
                         snl=float(s.snl[0]), normalized=float(s.normalized[0]),
                         db=float(s.db[0]))


def snl(net: CompiledNetwork, combo: ComboLike) -> float:
    """Shot-noise level of a combo: the weighted detected carrier flux.

    Equals the coefficient-sum route in :func:`spectrum` because the rows of
    a passive network's transfer matrix are orthonormal once every hidden
    vacuum is part of the roster.
    """
    weights = combo_weights(net, combo)
    alpha = np.array(net.carriers, dtype=complex)
    return float(np.sum((weights ** 2) * np.abs(alpha) ** 2))


@dataclass(frozen=True)
class DCLevels:
    """Mean photocurrents per detector and their pairwise differences."""

    detector_names: tuple[str, ...]
    means: tuple[float, ...]

    def mean(self, detector: str) -> float:
        return self.means[self.detector_names.index(detector)]

    def difference(self, d1: str, d2: str) -> float:
        return self.mean(d1) - self.mean(d2)

    def pairwise(self) -> dict[tuple[str, str], float]:
        out = {}
        for i, a in enumerate(self.detector_names):
            for b in self.detector_names[i + 1:]:
                out[(a, b)] = self.mean(a) - self.mean(b)
        return out


def dc_levels(net: CompiledNetwork) -> DCLevels:
    """DC photocurrents |alpha_k|^2; the two-port difference traces the fringe."""
    means = tuple(float(abs(c) ** 2) for c in net.carriers)
    return DCLevels(detector_names=net.detector_names, means=means)


@dataclass(frozen=True)
class FluxAudit:
    source_flux: float
    detected_flux: float
    loss_flux: float
    unconsumed_flux: float

    @property
    def balance(self) -> float:
        return self.source_flux - (self.detected_flux + self.loss_flux
                                   + self.unconsumed_flux)


def flux_audit(net: CompiledNetwork) -> FluxAudit:
    """Carrier-flux bookkeeping: sources vs detected + discarded + unconsumed."""
    losses = [st for st in net.steps if isinstance(st.element, Loss)]
    state = _run_pipeline(net, np.zeros(1), (
        *net.detector_ports, *net.unconsumed_ports, *(st.in_ports[0] for st in losses)))
    amps = np.array([e.carrier for e in net.roster], dtype=complex)

    def port_flux(port: str) -> float:
        return float(abs(state[port][0] @ amps) ** 2)

    detected = sum(port_flux(p) for p in net.detector_ports)
    unconsumed = sum(port_flux(p) for p in net.unconsumed_ports)
    lost = sum((1.0 - st.element.eta) * port_flux(st.in_ports[0]) for st in losses)
    return FluxAudit(
        source_flux=net.source_flux(),
        detected_flux=float(detected),
        loss_flux=float(lost),
        unconsumed_flux=float(unconsumed),
    )
