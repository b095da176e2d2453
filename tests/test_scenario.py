import math
from dataclasses import replace

import pytest

from sideband import dsl, engine, mzi, presets, scenario
from sideband.network import Combo, QuadSpectrum, validate
from sideband.scenario import (
    ExperimentConfig,
    beam_weights,
    correlation_weights,
    experiment_network,
    run_experiment,
)

OMEGA = 2 * math.pi * 20.5e6


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
    anti = engine.spectrum(net, correlation_weights("phase", anti=True), OMEGA)
    beam = engine.spectrum(net, beam_weights("phase", 1), OMEGA)
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
    cfg = scenario.config_with_overrides(
        ExperimentConfig(), {"squeezing_db": 0.0})
    report = run_experiment(cfg)
    assert report.v_plus == pytest.approx(1.0, abs=1e-9)
    assert report.v_minus == pytest.approx(1.0, abs=1e-9)
    delta = math.sqrt(report.v_plus * report.v_minus)
    assert delta == pytest.approx(1.0, abs=1e-9)


def test_beam_levels_match_closed_form_with_losses():
    report = run_experiment()
    cfg = report.config
    eta = (1.0 - report.detection_loss) * (1.0 - report.phase_path_loss)
    ideal = (cfg.vx1 + cfg.vx2 + 2 * cfg.vy) / 4
    expected = mzi.degraded_variance(ideal, 1.0 - eta)
    assert report.phase.beam1 == pytest.approx(expected, rel=1e-9)
    assert report.phase.beam2 == pytest.approx(expected, rel=1e-9)


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


def test_mz_network_builder_passes_through_noise():
    spec = scenario.mz_network(tau=1 / 41e6, carrier_phase=math.pi / 2,
                               noise=QuadSpectrum.constant(0.617, 63.0))
    net = engine.compile(spec)
    pt = engine.spectrum(net, Combo.diff_of("C", "D"), OMEGA)
    assert pt.normalized == pytest.approx(63.0, rel=1e-9)


def test_config_override_rejects_unknown_key():
    with pytest.raises(KeyError):
        scenario.config_with_overrides(ExperimentConfig(), {"bogus": 1.0})


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
