"""Preset networks: single phase-reading interferometer and the twin-beam
entanglement experiment.

The experiment preset interferes two amplitude-squeezed beams on a 50/50
splitter with a pi/2 carrier offset and sends each output through its own
unbalanced Mach-Zehnder readout locked at phi = pi/2 with theta = pi at the
measurement frequency.  Detection inefficiency is one explicit loss per
beam, fitted so the amplitude-sum correlation hits its calibration target;
imperfect fringe visibility adds a second loss of 1 - V^2 on the
phase-measurement path only.  Switching the first splitter of each readout
from 50/50 to fully transmitting turns the same network into a balanced
amplitude detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from . import engine, mzi
from .network import (
    BeamSplitter,
    Combo,
    Delay,
    DetectorDecl,
    ElementDecl,
    FreqList,
    Loss,
    Measurement,
    NetworkSpec,
    PhaseShift,
    QuadSpectrum,
    SPEED_OF_LIGHT,
    SourceDecl,
    VACUUM_SPECTRUM,
)

FIFTY_FIFTY = math.sqrt(0.5)

#: carrier amplitude of both twin-beam sources, the amp=100.0 of the bundled
#: presets; every scenario output is normalised to shot noise, so it only
#: sets the scale
CARRIER = 100.0


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


def mz_network(tau: float, carrier_phase: float, amp: float = 100.0,
               noise: QuadSpectrum = VACUUM_SPECTRUM) -> NetworkSpec:
    """Unbalanced Mach-Zehnder with balanced detection on one input beam.

    Signal enters the first splitter against a declared vacuum; the second
    splitter output of the first (the arm carrying -v) is the delayed long
    arm.  Detectors C and D sit on the recombiner outputs, and the bundled
    measurements expose the diff (phase) and sum (shot-noise) combos.
    """
    f_m = mzi.frequency_for_delay(SPEED_OF_LIGHT * tau) if tau > 0 else 0.0
    freqs = FreqList((f_m,))
    return NetworkSpec(
        sources=(SourceDecl("a", amp, noise), SourceDecl("v")),
        elements=(
            ElementDecl("B1", BeamSplitter(FIFTY_FIFTY), ("a", "v")),
            ElementDecl("LONG", Delay(tau, carrier_phase), ("B1.out2",)),
            ElementDecl("B2", BeamSplitter(FIFTY_FIFTY), ("B1.out1", "LONG.out")),
        ),
        detectors=(
            DetectorDecl("C", "B2.out1"),
            DetectorDecl("D", "B2.out2"),
        ),
        measurements=(
            Measurement("PM", Combo.diff_of("C", "D"), freqs),
            Measurement("SN", Combo.sum_of("C", "D"), freqs),
        ),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Twin-beam entanglement experiment parameters.

    detection_loss = None fits the per-beam loss so the amplitude-sum
    correlation equals amp_sum_target.  excess_correlation is the
    common-mode fraction of the two sources' excess phase noise; it shifts
    the diagnostic single-beam/anticorrelated levels but not the
    sum/difference correlations.
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
    """Build the twin-readout network in 'phase' or 'amplitude' mode."""
    if mode not in ("phase", "amplitude"):
        raise ValueError("mode must be 'phase' or 'amplitude'")
    tau = cfg.pulse_multiple / cfg.rep_rate_hz
    det_loss = cfg.fitted_detection_loss()
    vis_loss = mzi.visibility_to_loss(cfg.visibility)
    first_split = FIFTY_FIFTY if mode == "phase" else 1.0

    sources = (
        SourceDecl("s1", CARRIER, QuadSpectrum.constant(cfg.vx1, cfg.vy)),
        SourceDecl("s2", CARRIER, QuadSpectrum.constant(cfg.vx2, cfg.vy)),
    )
    elements = [
        ElementDecl("ROT", PhaseShift(math.pi / 2.0), ("s2",)),
        ElementDecl("ENT", BeamSplitter(FIFTY_FIFTY), ("s1", "ROT.out")),
    ]
    detectors = []
    for i, beam_port in ((1, "ENT.out1"), (2, "ENT.out2")):
        port = beam_port
        if det_loss > 0.0:
            elements.append(ElementDecl(f"DET{i}", Loss(1.0 - det_loss), (port,)))
            port = f"DET{i}.out"
        if mode == "phase" and vis_loss > 0.0:
            elements.append(ElementDecl(f"VIS{i}", Loss(1.0 - vis_loss), (port,)))
            port = f"VIS{i}.out"
        elements.append(ElementDecl(f"SPL{i}", BeamSplitter(first_split), (port,)))
        elements.append(ElementDecl(f"ARM{i}", Delay(tau, math.pi / 2.0), (f"SPL{i}.out2",)))
        elements.append(ElementDecl(
            f"MIX{i}", BeamSplitter(FIFTY_FIFTY), (f"SPL{i}.out1", f"ARM{i}.out")))
        detectors.append(DetectorDecl(f"D{i}c", f"MIX{i}.out1"))
        detectors.append(DetectorDecl(f"D{i}d", f"MIX{i}.out2"))

    f_m = FreqList((cfg.design.f_m,))
    correlation = "VMINUS" if mode == "phase" else "VPLUS"
    measurements = (
        Measurement("BEAM1", beam_weights(mode, 1), f_m),
        Measurement("BEAM2", beam_weights(mode, 2), f_m),
        Measurement(correlation, correlation_weights(mode), f_m),
        Measurement("ANTI", correlation_weights(mode, anti=True), f_m),
    )
    return NetworkSpec(tuple(sources), tuple(elements), tuple(detectors), measurements)


def beam_weights(mode: str, beam: int) -> Combo:
    """One beam's readout: diff(D{b}c,D{b}d) in phase mode, sum in amplitude mode."""
    return (Combo.diff_of if mode == "phase" else Combo.sum_of)(f"D{beam}c", f"D{beam}d")


def correlation_weights(mode: str, anti: bool = False) -> Combo:
    """The cross-beam combo: V- = beam 1 - beam 2 in phase mode, V+ = beam 1 +
    beam 2 in amplitude mode; anti flips the sign of beam 2."""
    sign = -1.0 if (mode == "phase") != anti else 1.0
    beam2 = tuple((d, sign * w) for d, w in beam_weights(mode, 2).weights)
    return Combo(beam_weights(mode, 1).weights + beam2)


@dataclass(frozen=True)
class ModeResult:
    """Engine results of one quadrature mode of the experiment."""

    mode: str
    f_m: float
    correlation: float  # normalised cross-beam sum/diff variance
    anticorrelation: float
    beam1: float  # normalised single-beam level
    beam2: float


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
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


def _diagnostic_levels(cfg: ExperimentConfig, mode: str, eta: float):
    """Closed-form single-beam and anticorrelated levels before/after loss.

    C is the common-mode covariance of the two sources' excess phase noise;
    it cancels from the correlation combos but shifts these diagnostics.
    """
    vx1, vx2, vy = cfg.vx1, cfg.vx2, cfg.vy
    c = cfg.excess_correlation * max(0.0, vy - 1.0)
    sign = 1.0 if mode == "phase" else -1.0
    beam = (vx1 + vx2 + 2.0 * vy + 2.0 * sign * c) / 4.0
    anti = (2.0 * vy + 2.0 * sign * c) / 2.0
    loss = 1.0 - eta
    return (mzi.degraded_variance(beam, loss), mzi.degraded_variance(anti, loss))


def run_experiment(cfg: ExperimentConfig | None = None) -> ExperimentReport:
    """Evaluate both quadrature modes of the twin-beam experiment."""
    cfg = cfg or ExperimentConfig()
    det_loss = cfg.fitted_detection_loss()
    vis_loss = mzi.visibility_to_loss(cfg.visibility)
    f_m = cfg.design.f_m
    omega = 2.0 * math.pi * f_m

    results = {}
    for mode in ("amplitude", "phase"):
        net = engine.compile(experiment_network(cfg, mode))
        combos = [m.combo for m in net.spec.measurements]  # BEAM1, BEAM2, V, ANTI
        b1, b2, corr, anti = engine.sweep(net, combos, [omega]).normalized[:, 0].tolist()
        if cfg.excess_correlation != 0.0:
            eta = (1.0 - det_loss) * ((1.0 - vis_loss) if mode == "phase" else 1.0)
            b_level, anti_level = _diagnostic_levels(cfg, mode, eta)
            b1 = b2 = b_level
            anti = anti_level
        results[mode] = ModeResult(mode=mode, f_m=f_m, correlation=corr,
                                   anticorrelation=anti, beam1=b1, beam2=b2)

    return ExperimentReport(
        config=cfg,
        amplitude=results["amplitude"],
        phase=results["phase"],
        detection_loss=det_loss,
        phase_path_loss=vis_loss,
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
