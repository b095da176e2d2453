"""The paper's two setups, read from the bundled presets that state their
topology: the phase-reading interferometer (``mz_phase``) and the twin-beam
entanglement experiment (``entangled_phase``, ``entangled_amplitude``).

A configuration's values are set on named statements of a preset.  The
detection loss of each beam (DET1, DET2) is fitted so the amplitude-sum
correlation hits its calibration target; imperfect fringe visibility adds a
loss of 1 - V^2 (VIS1, VIS2) on the phase-measurement path only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import dsl, engine, mzi, presets
from .network import (
    Combo,
    FreqList,
    NetworkSpec,
    QuadSpectrum,
    SPEED_OF_LIGHT,
    VACUUM_SPECTRUM,
)


class CalibrationError(ValueError):
    """The calibration targets need a detection loss outside [0, 1]."""


def db_to_variance(db: float) -> float:
    return 10.0 ** (db / 10.0)


def variance_to_db(v: float) -> float:
    return 10.0 * math.log10(v)


def _gives_variance(db: float) -> bool:
    """True when db_to_variance(db) is finite and positive."""
    try:
        return 0.0 < db_to_variance(db) < math.inf
    except OverflowError:
        return False


@functools.cache
def _preset(name: str) -> NetworkSpec:
    """The bundled preset ``name``, parsed once: its text is a package constant."""
    return dsl.parse(presets.load(name))


def _at(spec: NetworkSpec, f_m: float, sources: dict[str, dict],
        elements: dict[str, dict]) -> NetworkSpec:
    """``spec`` with the fields ``sources[name]`` set on each named source,
    ``elements[name]`` on each named element's physics, and its measures at
    ``f_m``.  KeyError on a name the spec lacks: a renamed statement fails."""
    missing = (sources.keys() - {s.name for s in spec.sources}
               | elements.keys() - {e.name for e in spec.elements})
    if missing:
        raise KeyError(f"preset has no statement named {sorted(missing)}")
    freqs = FreqList((f_m,))
    return NetworkSpec(
        tuple(replace(s, **sources[s.name]) if s.name in sources else s
              for s in spec.sources),
        tuple(replace(e, element=replace(e.element, **elements[e.name]))
              if e.name in elements else e for e in spec.elements),
        spec.detectors,
        tuple(replace(m, freqs=freqs) for m in spec.measurements),
    )


def mz_network(tau: float, carrier_phase: float, amp: float = 100.0,
               noise: QuadSpectrum = VACUUM_SPECTRUM) -> NetworkSpec:
    """The ``mz_phase`` preset, an unbalanced Mach-Zehnder read by the diff
    (PM) and sum (SN) of detectors C and D, with source ``a`` and long-arm
    delay ``LONG`` set, measured where the delay gives theta = pi."""
    f_m = mzi.frequency_for_delay(SPEED_OF_LIGHT * tau) if tau > 0 else 0.0
    return _at(_preset("mz_phase"), f_m, {"a": {"amp": amp, "noise": noise}},
               {"LONG": {"tau": tau, "carrier_phase": carrier_phase}})


@dataclass(frozen=True)
class ExperimentConfig:
    """Twin-beam entanglement experiment parameters.

    detection_loss = None fits the per-beam loss so the amplitude-sum
    correlation equals amp_sum_target.  excess_correlation is the
    common-mode fraction of the two sources' excess phase noise: the
    sources' phase quadratures share the covariance
    C = excess_correlation * max(0, V_Y - 1).  C shifts the single-beam and
    anticorrelated levels but cancels from the sum/difference correlations.
    """

    squeezing1_db: float = -2.1
    squeezing2_db: float = -2.4
    excess_db: float = 18.0
    visibility: float = 0.85
    amp_sum_target: float = 0.63
    detection_loss: float | None = None
    rep_rate_hz: float = 82e6
    pulse_multiple: int = 2
    excess_correlation: float = 0.0

    def __post_init__(self):
        loss = self.detection_loss
        finite_variance = "give a finite, positive variance"
        for key, ok, want in (
            ("visibility", 0.0 <= self.visibility <= 1.0, "lie in [0, 1]"),
            ("detection_loss", loss is None or 0.0 <= loss < 1.0, "lie in [0, 1)"),
            ("excess_correlation", -1.0 <= self.excess_correlation <= 1.0,
             "lie in [-1, 1]"),
            ("squeezing1_db", _gives_variance(self.squeezing1_db), finite_variance),
            ("squeezing2_db", _gives_variance(self.squeezing2_db), finite_variance),
            ("excess_db", _gives_variance(self.excess_db), finite_variance),
            ("rep_rate_hz", math.isfinite(self.rep_rate_hz) and self.rep_rate_hz > 0.0,
             "be finite and positive"),
            ("pulse_multiple", self.pulse_multiple >= 1, "be at least 1"),
        ):
            if not ok:
                raise ValueError(f"{key} must {want}, got {getattr(self, key)!r}")
        if not math.isfinite(SPEED_OF_LIGHT * self.pulse_multiple / self.rep_rate_hz):
            raise ValueError(f"pulse_multiple {self.pulse_multiple:g} over rep_rate_hz "
                             f"{self.rep_rate_hz:g} overflows the arm-length difference")

    @property
    def design(self) -> mzi.PulsedDesign:
        return mzi.pulsed_design(self.rep_rate_hz, self.pulse_multiple)

    @property
    def vx1(self) -> float:
        return db_to_variance(self.squeezing1_db)

    @property
    def vx2(self) -> float:
        return db_to_variance(self.squeezing2_db)

    @property
    def vy(self) -> float:
        return db_to_variance(self.excess_db)

    def fitted_detection_loss(self) -> float:
        """Loss solving (1 - l) v_ideal + l = amp_sum_target.

        Raises CalibrationError when that loss falls outside [0, 1]: the
        squeezing cannot reach the target with a physical loss.
        """
        if self.detection_loss is not None:
            return self.detection_loss
        v_ideal = 0.5 * (self.vx1 + self.vx2)
        if abs(1.0 - v_ideal) < 1e-12:
            return 0.0
        loss = (self.amp_sum_target - v_ideal) / (1.0 - v_ideal)
        if not 0.0 <= loss <= 1.0:
            raise CalibrationError(
                f"infeasible calibration: amp_sum_target {self.amp_sum_target:g} "
                f"with mean squeezed variance {v_ideal:.6g} needs detection "
                f"loss {loss:.6g}, outside [0, 1]")
        return loss


def experiment_network(cfg: ExperimentConfig, mode: str) -> NetworkSpec:
    """The ``entangled_{mode}`` preset, 'phase' or 'amplitude', at ``cfg``:
    source noise, detection and visibility losses, arm delays and f_m."""
    tau = cfg.pulse_multiple / cfg.rep_rate_hz
    det = {"eta": 1.0 - cfg.fitted_detection_loss()}
    elements = {"DET1": det, "DET2": det, "ARM1": {"tau": tau}, "ARM2": {"tau": tau}}
    if mode == "phase":
        vis = {"eta": 1.0 - mzi.visibility_to_loss(cfg.visibility)}
        elements.update(VIS1=vis, VIS2=vis)
    sources = {"s1": {"noise": QuadSpectrum.constant(cfg.vx1, cfg.vy)},
               "s2": {"noise": QuadSpectrum.constant(cfg.vx2, cfg.vy)}}
    return _at(_preset(f"entangled_{mode}"), cfg.design.f_m, sources, elements)


def correlation_weights(mode: str) -> Combo:
    """The cross-beam combo of the ``entangled_{mode}`` preset: V- (VMINUS,
    beam 1 - beam 2) in phase mode, V+ (VPLUS, beam 1 + beam 2) in amplitude mode."""
    name = "VMINUS" if mode == "phase" else "VPLUS"
    return next(m.combo for m in _preset(f"entangled_{mode}").measurements
                if m.name == name)


@dataclass(frozen=True)
class ModeResult:
    """Engine results of one quadrature mode of the experiment."""

    f_m: float
    correlation: float  # normalised cross-beam sum/diff variance
    anticorrelation: float
    beam1: float  # normalised single-beam level
    beam2: float


@dataclass(frozen=True)
class ExperimentReport:
    amplitude: ModeResult
    phase: ModeResult
    detection_loss: float
    phase_path_loss: float

    @property
    def v_plus(self) -> float:
        return self.amplitude.correlation

    @property
    def v_minus(self) -> float:
        return self.phase.correlation


def run_experiment(cfg: ExperimentConfig | None = None) -> ExperimentReport:
    """Evaluate both quadrature modes of the twin-beam experiment.

    Every level is the engine's.  The sources' shared excess, cov(Y_s1, Y_s2)
    = C, is the one off-diagonal entry of the input covariance, so it adds
    2 C Re(c_Y,s1 conj(c_Y,s2)) / snl to each normalised level.
    """
    cfg = cfg or ExperimentConfig()
    shared = cfg.excess_correlation * max(0.0, cfg.vy - 1.0)  # C
    f_m = cfg.design.f_m
    omegas = np.array([2.0 * math.pi * f_m])

    results = {}
    for mode in ("amplitude", "phase"):
        net = engine.compile(experiment_network(cfg, mode))
        combos = [m.combo for m in net.spec.measurements]  # BEAM1, BEAM2, V, ANTI
        sweep = engine.sweep(net, combos, omegas)
        levels = sweep.normalized[:, 0]
        if shared:
            weights = np.array([engine.combo_weights(net, c) for c in combos])
            c_y = engine.forms(net, weights, omegas)[1][0]  # s1 and s2 lead the roster
            cross = 2.0 * shared * (c_y[:, 0] * np.conj(c_y[:, 1])).real
            with np.errstate(invalid="ignore"):  # no carrier: snl 0, the level NaN
                levels = levels + cross / sweep.snl[:, 0]
        b1, b2, corr, anti = levels.tolist()
        results[mode] = ModeResult(f_m=f_m, correlation=corr, anticorrelation=anti,
                                   beam1=b1, beam2=b2)

    return ExperimentReport(
        amplitude=results["amplitude"],
        phase=results["phase"],
        detection_loss=cfg.fitted_detection_loss(),
        phase_path_loss=mzi.visibility_to_loss(cfg.visibility),
    )


def config_with_overrides(cfg: ExperimentConfig, overrides: dict[str, float]) -> ExperimentConfig:
    """Apply CLI-style overrides; 'squeezing_db' sets both input squeezings."""
    keys = {f.name for f in fields(ExperimentConfig)}
    updates: dict[str, object] = {}
    for key, value in overrides.items():
        if key == "squeezing_db":
            updates["squeezing1_db"] = updates["squeezing2_db"] = value
        elif key not in keys:
            raise KeyError(f"unknown scenario override {key!r}")
        elif key == "pulse_multiple":
            if value % 1 != 0:  # also refuses nan and inf
                raise ValueError(f"pulse_multiple must be a whole number, got {value!r}")
            updates[key] = int(value)
        else:
            updates[key] = value
    return replace(cfg, **updates)
