import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from sideband import cli, dsl, engine, mzi, presets, scenario
from sideband.network import Combo, FreqList, QuadSpectrum, validate
from sideband.scenario import (
    ExperimentConfig,
    correlation_weights,
    experiment_network,
    run_experiment,
)

OMEGA = 2 * math.pi * 20.5e6


def measure(spec, name):
    """The combo of the measure statement ``name``."""
    return next(m.combo for m in spec.measurements if m.name == name)


def test_networks_validate():
    cfg = ExperimentConfig()
    for mode in ("phase", "amplitude"):
        assert validate(experiment_network(cfg, mode)) == []


@pytest.mark.parametrize("mode", ["phase", "amplitude"])
def test_entangled_presets_are_the_default_experiment(mode):
    preset = dsl.parse(presets.load(f"entangled_{mode}"))
    built = experiment_network(ExperimentConfig(), mode)
    assert preset == built
    assert dsl.serialize(preset) == dsl.serialize(built)


def preset_overrides(cfg, mode):
    """The --override items that put the entangled_{mode} preset at ``cfg``."""
    tau = cfg.pulse_multiple / cfg.rep_rate_hz
    det_eta = 1.0 - cfg.fitted_detection_loss()
    values = {"s1.vx": cfg.vx1, "s2.vx": cfg.vx2, "s1.vy": cfg.vy, "s2.vy": cfg.vy,
              "DET1.eta": det_eta, "DET2.eta": det_eta, "ARM1.tau": tau, "ARM2.tau": tau}
    if mode == "phase":
        vis_eta = 1.0 - mzi.visibility_to_loss(cfg.visibility)
        values.update({"VIS1.eta": vis_eta, "VIS2.eta": vis_eta})
    return [f"{key}={value!r}" for key, value in values.items()]


# both squeezings at or below -2.1 dB keep the fitted loss in [0, 1]; an
# excess above 6 dB keeps every draw above the Heisenberg bound
CONFIGS = st.builds(
    ExperimentConfig,
    squeezing1_db=st.floats(-6.0, -2.1), squeezing2_db=st.floats(-6.0, -2.1),
    excess_db=st.floats(6.5, 20.0), visibility=st.floats(0.0, 1.0),
    detection_loss=st.none() | st.floats(0.0, 0.99),
    rep_rate_hz=st.floats(1e6, 1e9), pulse_multiple=st.integers(1, 8))


@pytest.mark.parametrize("mode", ["phase", "amplitude"])
@given(cfg=CONFIGS)
def test_experiment_network_is_the_preset_under_overrides(mode, cfg):
    spec = dsl.parse(presets.load(f"entangled_{mode}"), preset_overrides(cfg, mode))
    f_m = FreqList((cfg.design.f_m,))
    spec = replace(spec, measurements=tuple(replace(m, freqs=f_m)
                                            for m in spec.measurements))
    assert experiment_network(cfg, mode) == spec


def test_simulate_with_overrides_reads_the_scenario_correlation(preset_path, tmp_path,
                                                                capsys):
    settings = {"squeezing1_db": -3.0, "squeezing2_db": -2.5, "visibility": 0.9,
                "excess_db": 15.0}
    cfg = ExperimentConfig(**settings)
    out = tmp_path / "scenario.json"
    argv = ["scenario", "--out", str(out)]
    for key, value in settings.items():
        argv += ["--override", f"{key}={value!r}"]
    assert cli.main(argv) == 0
    argv = ["simulate", "--net", preset_path("entangled_phase"), "--combo",
            "measure:VMINUS", "--format", "json"]
    for item in preset_overrides(cfg, "phase"):
        argv += ["--override", item]
    assert cli.main(argv) == 0
    points = json.loads(capsys.readouterr().out)["points"]
    assert [p["f_hz"] for p in points] == [cfg.design.f_m]
    report = json.loads(out.read_text())
    assert points[0]["norm"] == report["phase_mode"]["correlation"]
    assert report["phase_mode"]["correlation"] != pytest.approx(0.732675, abs=1e-3)


def test_ideal_correlations_equal_mean_input_squeezing():
    # two squeezed inputs on the 50/50 entangler with a pi/2 offset: both the
    # amplitude-sum and phase-difference photocurrent correlations read the
    # average of the input amplitude squeezings
    cfg = ExperimentConfig(detection_loss=0.0, visibility=1.0)
    expected = 0.5 * (cfg.vx1 + cfg.vx2)
    for mode in ("amplitude", "phase"):
        net = engine.compile(experiment_network(cfg, mode))
        got = engine.spectrum(net, correlation_weights(mode), OMEGA).normalized
        assert got == pytest.approx(expected, rel=1e-12)


def test_ideal_anticorrelation_and_beam_levels():
    cfg = ExperimentConfig(detection_loss=0.0, visibility=1.0)
    net = engine.compile(experiment_network(cfg, "phase"))
    anti = engine.spectrum(net, measure(net.spec, "ANTI"), OMEGA)
    beam = engine.spectrum(net, measure(net.spec, "BEAM1"), OMEGA)
    assert anti.normalized == pytest.approx(cfg.vy, rel=1e-12)
    assert beam.normalized == pytest.approx(
        (cfg.vx1 + cfg.vx2 + 2 * cfg.vy) / 4, rel=1e-12)


def test_default_run_reproduces_expected_numbers():
    report = run_experiment()
    assert report.v_plus == pytest.approx(0.63, abs=1e-9)
    assert report.v_minus == pytest.approx(0.732675, abs=1e-9)
    assert 0.72 <= report.v_minus <= 0.76
    assert scenario.variance_to_db(report.v_minus) == pytest.approx(-1.35, abs=0.01)
    assert report.detection_loss == pytest.approx(0.0841188, abs=1e-6)
    assert report.phase_path_loss == pytest.approx(0.2775, abs=1e-12)


def test_v_minus_matches_degraded_variance_chain():
    report = run_experiment()
    chain = mzi.degraded_variance(report.v_plus, report.phase_path_loss)
    assert report.v_minus == pytest.approx(chain, rel=1e-12)


def test_perfect_visibility_removes_phase_penalty():
    report = run_experiment(ExperimentConfig(visibility=1.0))
    assert report.v_minus == pytest.approx(report.v_plus, rel=1e-12)


def test_zero_squeezing_cannot_entangle():
    cfg = scenario.config_with_overrides(ExperimentConfig(), ["squeezing_db=0"])
    report = run_experiment(cfg)
    assert report.v_plus == pytest.approx(1.0, abs=1e-9)
    assert report.v_minus == pytest.approx(1.0, abs=1e-9)
    delta = math.sqrt(report.v_plus * report.v_minus)
    assert delta == pytest.approx(1.0, abs=1e-9)


def closed_form_levels(cfg, mode, report):
    """(single-beam, anticorrelated) levels of the ideal experiment after the
    mode's loss.  The shared excess C = cov(Y_s1, Y_s2) adds to the phase
    quadrature the beams read in phase mode and subtracts in amplitude mode."""
    c = cfg.excess_correlation * max(0.0, cfg.vy - 1.0)
    sign = 1.0 if mode == "phase" else -1.0
    beam = (cfg.vx1 + cfg.vx2 + 2 * cfg.vy + 2 * sign * c) / 4
    anti = cfg.vy + sign * c
    eta = 1.0 - report.detection_loss
    if mode == "phase":
        eta *= 1.0 - report.phase_path_loss
    return (mzi.degraded_variance(beam, 1.0 - eta), mzi.degraded_variance(anti, 1.0 - eta))


# a visibility of 0 leaves no carrier on the phase readout, and no level
@given(cfg=st.builds(replace, CONFIGS, visibility=st.floats(0.05, 1.0),
                     excess_correlation=st.floats(-1.0, 1.0)))
def test_beam_levels_match_closed_form_with_losses(cfg):
    report = run_experiment(cfg)
    uncorrelated = run_experiment(replace(cfg, excess_correlation=0.0))
    for mode in ("amplitude", "phase"):
        got = getattr(report, mode)
        beam, anti = closed_form_levels(cfg, mode, report)
        assert got.beam1 == pytest.approx(beam, rel=1e-12)
        assert got.beam2 == pytest.approx(beam, rel=1e-12)
        assert got.anticorrelation == pytest.approx(anti, rel=1e-12)
        assert got.correlation == pytest.approx(getattr(uncorrelated, mode).correlation,
                                                rel=1e-12)


def test_amplitude_mode_first_splitter_is_bar():
    net = experiment_network(ExperimentConfig(), "amplitude")
    splitters = {e.name: e.element.t for e in net.elements if e.name.startswith("SPL")}
    assert splitters == {"SPL1": 1.0, "SPL2": 1.0}
    phase_net = experiment_network(ExperimentConfig(), "phase")
    splitters = {e.name: e.element.t for e in phase_net.elements
                 if e.name.startswith("SPL")}
    assert all(t == pytest.approx(math.sqrt(0.5)) for t in splitters.values())


def test_common_mode_excess_shifts_diagnostics_only():
    base = run_experiment(ExperimentConfig())
    corr = run_experiment(ExperimentConfig(excess_correlation=0.5))
    assert corr.v_plus == pytest.approx(base.v_plus, rel=1e-12)
    assert corr.v_minus == pytest.approx(base.v_minus, rel=1e-12)
    # positively correlated excess raises phase diagnostics, lowers amplitude
    assert corr.phase.anticorrelation > base.phase.anticorrelation
    assert corr.amplitude.anticorrelation < base.amplitude.anticorrelation


def test_experiment_reads_the_preset_by_name(monkeypatch):
    cfg = ExperimentConfig(excess_correlation=0.5)
    shipped = run_experiment(cfg)

    def reordered(name):
        # an unused input first in the roster, and the measures in reverse
        spec = dsl.parse("source z vacuum;\n" + presets.load(name))
        return replace(spec, measurements=spec.measurements[::-1])

    monkeypatch.setattr(scenario, "_preset", reordered)
    report = run_experiment(cfg)
    for mode in ("amplitude", "phase"):
        got, want = getattr(report, mode), getattr(shipped, mode)
        for field in ("correlation", "anticorrelation", "beam1", "beam2"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12)


def test_mz_network_builder_passes_through_noise():
    spec = scenario.mz_network(tau=1 / 41e6, carrier_phase=math.pi / 2,
                               noise=QuadSpectrum.constant(0.617, 63.0))
    net = engine.compile(spec)
    pt = engine.spectrum(net, Combo.diff_of("C", "D"), OMEGA)
    assert pt.normalized == pytest.approx(63.0, rel=1e-9)


def test_preset_without_a_named_statement_is_refused():
    spec = scenario.experiment_network(scenario.ExperimentConfig(), "phase")
    with pytest.raises(KeyError, match=r"preset has no statement named \['nope'\]"):
        scenario._at(spec, 1e6, {"nope": {}}, {})


def test_config_override_rejects_unknown_key():
    with pytest.raises(KeyError):
        scenario.config_with_overrides(ExperimentConfig(), ["bogus=1"])


@pytest.mark.parametrize("squeezing_db", [3.0, -1.5])
def test_infeasible_calibration_raises(squeezing_db):
    # +3 dB needs a loss above 1, -1.5 dB a negative one, to reach 0.63
    cfg = ExperimentConfig(squeezing1_db=squeezing_db, squeezing2_db=squeezing_db)
    with pytest.raises(scenario.CalibrationError, match="outside"):
        cfg.fitted_detection_loss()
    with pytest.raises(scenario.CalibrationError):
        run_experiment(cfg)


def test_calibration_at_the_feasible_edges():
    # a target equal to the squeezed level needs no loss, a target of 1 all
    cfg = ExperimentConfig(squeezing1_db=-3.0, squeezing2_db=-3.0)
    assert replace(cfg, amp_sum_target=cfg.vx1).fitted_detection_loss() == pytest.approx(
        0.0, abs=1e-12)
    assert replace(cfg, amp_sum_target=1.0).fitted_detection_loss() == 1.0
