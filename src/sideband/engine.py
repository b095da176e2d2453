"""Sideband transfer matrices and photocurrent fluctuation spectra.

A compiled network maps the annihilation fluctuation operators of its inputs
at sideband frequency w to the operators at the detector ports through an
M x N complex matrix A(w).  Compiling turns each element into its linear
map, stated once in :func:`_linear_map`: rows of output-by-input gains and a
sideband delay tau, so an output port is sum_i gains[o][i] e^{-i w tau} in_i.
The walks here and the Monte-Carlo delay taps read those maps and nothing
else of the element.

Carriers are one complex number per port: :func:`compile` walks the source
amplitudes forward through the maps at w = 0 (the sideband factor of each
delay removed), so the carrier vector equals A(0) applied to the source
amplitudes.  Fluctuations are evaluated in reverse (adjoint) mode: a
spectrum needs only a few rows of A(w) combined with detector weights, so
:func:`_adjoint` seeds each detector port with its weights and walks the
pipeline backwards, carrying R weight rows per port instead of the N roster
columns a forward walk carries.

Because every element is passive, the conjugate-operator rows need no extra
state: the da^dag response at +w is conj(A(-w)).  Photocurrent linear forms
therefore combine u = conj(alpha_k) A_kj(w) and w = alpha_k conj(A_kj(-w))
into amplitude/phase quadrature coefficients c_X = (u + w)/2 and
c_Y = i(u - w)/2 per input, and a variance spectrum is a weighted sum of the
input quadrature variances.  All spectra are normalised to the shot-noise
level of the same detector combination, which for a passive network equals
the detected carrier flux.

Every spectrum is a view of one reverse walk over a whole frequency axis:
:func:`forms` reads the quadrature coefficients off it, :func:`sweep`
evaluates blocks of frequencies per walk, and :func:`spectrum` is its
one-point view.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .network import (
    BeamSplitter,
    Combo,
    Delay,
    Loss,
    NetworkSpec,
    PhaseShift,
    RESERVED_PREFIX,
    SourceDecl,
    topo_order,
    validate,
)


#: Sideband frequencies per pipeline walk in :func:`sweep`.  A walk returns
#: 2 * BLOCK * R * N complex coefficients (+w and -w stacked, R combos), so
#: this bounds the memory of long sweeps on large rosters.
BLOCK = 256


class StructuralError(ValueError):
    """Raised when compiling a spec that does not pass validation."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__(
            "spec does not validate: " + "; ".join(str(v) for v in self.violations))


@dataclass(frozen=True)
class CompiledNetwork:
    """Element pipeline with resolved ports and a deterministic input roster.

    The roster lists declared sources in declaration order followed by the
    vacuum ports injected for Loss elements and open beamsplitter inputs, in
    pipeline-traversal order: an entry is injected when its position is
    len(spec.sources) or more.  Each entry's ``noise`` is the one statement
    of that input's quadrature spectrum; every spectrum and Monte-Carlo run
    reads it.  A(w) has n_detectors rows (M) and n_inputs columns (N).
    """

    spec: NetworkSpec
    roster: tuple[SourceDecl, ...]
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

    def source_flux(self) -> float:
        return float(sum(abs(e.amp) ** 2 for e in self.roster))


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

    roster = list(spec.sources)
    vacua = itertools.count()

    def inject_vacuum() -> str:
        name = f"{RESERVED_PREFIX}vac{next(vacua)}"
        roster.append(SourceDecl(name))
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

    detector_ports = tuple(d.input for d in spec.detectors)
    amps = _carrier_amplitudes(roster, steps)
    return CompiledNetwork(
        spec=spec,
        roster=tuple(roster),
        steps=tuple(steps),
        detector_names=spec.detector_names(),
        detector_ports=detector_ports,
        carriers=tuple(amps[p] for p in detector_ports),
        unconsumed_ports=unconsumed,
    )


def _carrier_amplitudes(roster: Sequence[SourceDecl],
                        steps: Sequence[PipelineStep]) -> dict[str, complex]:
    """Carrier amplitude of every port: the source amplitudes walked forward
    at w = 0, one complex number per port."""
    amps = {e.name: complex(e.amp) for e in roster}
    for st in steps:
        ins = [amps[p] for p in st.in_ports]
        for port, row in zip(st.out_ports, st.gains):
            amps[port] = complex(sum(g * a for g, a in zip(row, ins)))
    return amps


def _adjoint(net: CompiledNetwork, seeds: np.ndarray,
             omegas: np.ndarray) -> np.ndarray:
    """seeds @ A(w) for every w in ``omegas``: an (F, R, N) array.

    ``seeds`` holds R rows over the M detectors.  Each detector port starts
    with its seed column, and the walk visits the pipeline backwards,
    pushing each output's adjoint into the step's inputs through
    gains[o][i] e^{-i w tau}; a step with no live output is skipped.  An
    adjoint is an (R,) row until a delay makes it an (F, R) array.  The walk
    ends with each roster input holding its column, so the cost scales with
    R, not with the roster size N.
    """
    f = omegas.size
    adj: dict[str, np.ndarray] = {}

    def add(port: str, value: np.ndarray):
        held = adj.get(port)
        adj[port] = value if held is None else held + value

    for k, port in enumerate(net.detector_ports):
        add(port, seeds[:, k])
    for st in reversed(net.steps):
        outs = [(adj.pop(p), row) for p, row in zip(st.out_ports, st.gains) if p in adj]
        if not outs:
            continue
        delay = np.exp(-1j * omegas * st.tau)[:, None] if st.tau else None
        for bar, row in outs:
            if delay is not None:
                bar = bar * delay
            for port, g in zip(st.in_ports, row):
                add(port, g * bar)
    out = np.zeros((f, seeds.shape[0], net.n_inputs), dtype=complex)
    for j, entry in enumerate(net.roster):
        if entry.name in adj:
            out[:, :, j] = adj[entry.name]
    return out


def combo_weights(net: CompiledNetwork, combo: Combo) -> np.ndarray:
    """The combo's weight on each detector, in net.detector_names order."""
    w = np.zeros(net.n_detectors)
    for name, weight in combo.weights:
        w[net.detector_names.index(name)] = weight
    return w


def forms(net: CompiledNetwork, weights: np.ndarray,
          omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c_X and c_Y of each weight row at each omega, as (F, C, N) arrays
    with the N columns in roster order.

    +w and -w share one reverse walk.  With real weights the da^dag term
    alpha w conj(A(-w)) is the conjugate of conj(alpha) w A(-w), so seeding
    with the rows w conj(alpha) over the stacked axis gives both halves.
    """
    f = omegas.size
    seeds = weights * np.conj(np.array(net.carriers, dtype=complex))
    g = _adjoint(net, seeds, np.concatenate([omegas, -omegas]))
    u, w = g[:f], np.conj(g[f:])
    return (u + w) / 2.0, 1j * (u - w) / 2.0


@dataclass(frozen=True)
class SpectrumSweep:
    """Spectra of one combo, shape (F,), or of C combos, shape (C, F)."""

    absolute: np.ndarray
    snl: np.ndarray
    normalized: np.ndarray
    db: np.ndarray


def sweep(net: CompiledNetwork, combo: Combo | Sequence[Combo],
          omegas) -> SpectrumSweep:
    """Photocurrent variance spectral densities over a frequency axis (rad/s).

    ``absolute`` sums |c_X|^2 V_X + |c_Y|^2 V_Y over the roster, each input's
    variances read off its ``noise``; ``snl`` is the same sum with every
    variance forced to 1; ``normalized`` is their ratio (NaN when no carrier
    reaches the combo), ``db`` its decibel value.
    ``combo`` may be a sequence of combos, which share each pipeline walk and
    give one row each.  The axis is walked in blocks of BLOCK frequencies.
    """
    single = isinstance(combo, Combo)
    combos = [combo] if single else list(combo)
    weights = np.array([combo_weights(net, c) for c in combos])
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    spectra = [e.noise for e in net.roster]
    position = {}  # spectrum -> column; injected vacua share one
    column = [position.setdefault(s, len(position)) for s in spectra]
    absolute = np.empty((len(combos), omegas.size))
    snl_vals = np.empty_like(absolute)
    for lo in range(0, omegas.size, BLOCK):
        block = omegas[lo:lo + BLOCK]
        c_x, c_y = forms(net, weights, block)
        px, py = np.abs(c_x) ** 2, np.abs(c_y) ** 2
        v = np.array([(s.vx_at(block), s.vy_at(block)) for s in position])[column]
        absolute[:, lo:lo + BLOCK] = (np.einsum("fcn,nf->cf", px, v[:, 0])
                                      + np.einsum("fcn,nf->cf", py, v[:, 1]))
        snl_vals[:, lo:lo + BLOCK] = (px + py).sum(axis=2).T
    lit = snl_vals > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = np.where(lit, absolute / snl_vals, math.nan)
        db = np.where(lit, 10.0 * np.log10(normalized), math.nan)
    if single:
        absolute, snl_vals, normalized, db = absolute[0], snl_vals[0], normalized[0], db[0]
    return SpectrumSweep(absolute=absolute, snl=snl_vals, normalized=normalized, db=db)


def spectrum(net: CompiledNetwork, combo: Combo, omega: float) -> SpectrumPoint:
    """Photocurrent variance spectral density of a combo at omega (rad/s):
    the one-point view of :func:`sweep`."""
    s = sweep(net, combo, [omega])
    return SpectrumPoint(omega=omega, absolute=float(s.absolute[0]),
                         snl=float(s.snl[0]), normalized=float(s.normalized[0]),
                         db=float(s.db[0]))


def snl(net: CompiledNetwork, combo: Combo) -> float:
    """Shot-noise level of a combo: the weighted detected carrier flux.

    Equals the coefficient-sum route in :func:`spectrum` because the rows of
    a passive network's transfer matrix are orthonormal once every hidden
    vacuum is part of the roster.
    """
    weights = combo_weights(net, combo)
    alpha = np.array(net.carriers, dtype=complex)
    return float(np.sum((weights ** 2) * np.abs(alpha) ** 2))


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
    amps = _carrier_amplitudes(net.roster, net.steps)

    def port_flux(port: str) -> float:
        return abs(amps[port]) ** 2

    detected = sum(port_flux(p) for p in net.detector_ports)
    unconsumed = sum(port_flux(p) for p in net.unconsumed_ports)
    lost = sum((1.0 - st.element.eta) * port_flux(st.in_ports[0]) for st in losses)
    return FluxAudit(
        source_flux=net.source_flux(),
        detected_flux=float(detected),
        loss_flux=float(lost),
        unconsumed_flux=float(unconsumed),
    )
