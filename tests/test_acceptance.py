"""Acceptance suite: one test per release criterion, each printing a
[PASS] line with its runtime (run with -s to see them).

Criteria cover: transfer-matrix regression against the two-splitter closed
form, engine/closed-form grid equivalence, the theta=pi readout contract,
pulsed delay-line design numbers, the twin-beam experiment operating point,
entanglement verdicts, Monte-Carlo/engine agreement, the shot-noise floor
on random lossy networks, the DC fringe, and parser round-trip integrity.
"""

import math
import random
import re
import time

import numpy as np
import pytest

from sideband import dsl, engine, entanglement, montecarlo, mzi, presets, scenario
from sideband.entanglement import CorrelationPair
from sideband.montecarlo import MCConfig
from sideband.network import Combo, QuadSpectrum, validate

import netgen
from reference_walk import engine_matrix

F_M = 20.5e6
OMEGA = 2 * math.pi * F_M
TAU_PI = 1.0 / (2 * F_M)
DIFF = Combo.diff_of("C", "D")
SUM = Combo.sum_of("C", "D")


def mz_net(phi=math.pi / 2, vx=0.617, vy=63.0, tau=TAU_PI, amp=100.0):
    spec = scenario.mz_network(tau=tau, carrier_phase=phi, amp=amp,
                               noise=QuadSpectrum.constant(vx, vy))
    return engine.compile(spec)


def dc_difference(net):
    """Mean photocurrent |alpha|^2 of detector C less that of detector D."""
    assert net.detector_names == ("C", "D")
    return abs(net.carriers[0]) ** 2 - abs(net.carriers[1]) ** 2


def report(num: int, label: str, t0: float, limit: float):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"
    print(f"[PASS] criterion {num:2d}: {label} ({elapsed:.2f}s)")


def test_criterion_01_transfer_matrix_regression():
    t0 = time.perf_counter()
    rng = random.Random(101)
    for _ in range(10):
        phi = rng.uniform(0, 2 * math.pi)
        tau = rng.uniform(1e-9, 1e-7)
        omega = rng.uniform(0, 2 * math.pi * 60e6)
        net = mz_net(phi=phi, tau=tau)
        g = np.exp(1j * phi) * np.exp(-1j * omega * tau)
        expected_a = 0.5 * np.array([[1 + g, 1 - g], [1 - g, 1 + g]])
        got = engine_matrix(net, omega)
        assert np.abs(got - expected_a).max() <= 1e-12
        expected_carriers = 100.0 * np.array(
            [(1 + np.exp(1j * phi)) / 2, (1 - np.exp(1j * phi)) / 2])
        assert np.abs(np.array(net.carriers) - expected_carriers).max() <= 1e-10
    report(1, "interferometer transfer coefficients match closed form", t0, 1.0)


def test_criterion_02_closed_form_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(33):
        theta = i * math.pi / 16
        omega = theta / TAU_PI
        for phi in (0.0, math.pi / 4, math.pi / 2):
            for vx, vy in ((1.0, 1.0), (0.617, 63.0), (0.575, 63.0)):
                net = mz_net(phi=phi, vx=vx, vy=vy)
                worst = max(
                    worst,
                    abs(engine.spectrum(net, DIFF, omega).normalized
                        - mzi.diff_variance(theta, phi, vx, vy)),
                    abs(engine.spectrum(net, SUM, omega).normalized
                        - mzi.sum_variance(theta, vx)))
    assert worst <= 1e-9
    report(2, f"engine equals analytic formulas on the grid (worst {worst:.1e})",
           t0, 1.0)


def test_criterion_03_theta_pi_contract():
    t0 = time.perf_counter()
    for vx, vy in ((2.0, 0.76), (0.617, 63.0)):
        net = mz_net(vx=vx, vy=vy)
        assert engine.spectrum(net, SUM, OMEGA).normalized == pytest.approx(
            1.0, abs=1e-9)
        assert engine.spectrum(net, DIFF, OMEGA).normalized == pytest.approx(
            vy, rel=1e-12)
        # the analytic form is float-exact at the operating point
        assert mzi.diff_variance(math.pi, math.pi / 2, vx, vy) == vy
    report(3, "theta=pi readout: sum at shot noise, diff reads V_Y", t0, 1.0)


def test_criterion_04_design_numbers():
    t0 = time.perf_counter()
    assert 7.30 <= mzi.delay_for_frequency(20.5e6) <= 7.32
    base = mzi.pulsed_design(82e6, 1).delta_l
    assert 3.655 <= base <= 3.66
    for n in range(1, 6):
        d = mzi.pulsed_design(82e6, n)
        assert d.delta_l == pytest.approx(n * base, rel=1e-12)
        assert d.f_m == pytest.approx(82e6 / (2 * n), rel=1e-12)
    report(4, "delay designs: 7.31 m at 20.5 MHz, 3.656 m pulse spacing", t0, 1.0)


def test_criterion_05_experiment_operating_point():
    t0 = time.perf_counter()
    rep = scenario.run_experiment()
    assert rep.v_plus == pytest.approx(0.63, abs=1e-9)
    assert rep.phase_path_loss == pytest.approx(0.2775, abs=1e-12)
    assert 0.72 <= rep.v_minus <= 0.76
    assert rep.v_minus == pytest.approx(0.732675, abs=0.02)
    db = 10 * math.log10(rep.v_minus)
    assert -1.4 <= db <= -1.2
    report(5, f"twin-beam scenario: v_plus=0.630, v_minus={rep.v_minus:.4f} "
              f"({db:.2f} dB)", t0, 1.0)


def test_criterion_06_entanglement_verdicts():
    t0 = time.perf_counter()
    delta, witnessed = entanglement.duan_product(CorrelationPair(0.63, 0.76))
    assert witnessed and delta < 1.0
    assert delta == pytest.approx(0.692, abs=1e-3)
    eof = entanglement.eof_symmetric(delta)
    assert eof == pytest.approx(0.22, abs=0.02)
    report(6, f"non-separability {delta:.4f} < 1, EoF {eof:.4f} bits", t0, 1.0)


def test_criterion_07_monte_carlo_agreement():
    t0 = time.perf_counter()
    cfg = scenario.ExperimentConfig()
    amp_net = engine.compile(scenario.experiment_network(cfg, "amplitude"))
    phase_net = engine.compile(scenario.experiment_network(cfg, "phase"))
    cases = [
        ("unbalanced readout, excess phase noise", mz_net(vy=63.0), DIFF, 63.0),
        ("experiment amplitude-sum", amp_net,
         scenario.correlation_weights("amplitude"), 0.63),
        ("experiment phase-diff", phase_net,
         scenario.correlation_weights("phase"), 0.732675),
    ]
    for i, (label, net, combo, expected) in enumerate(cases):
        mc_cfg = MCConfig(sample_rate=164e6, seed=8600 + i,
                          segment_length=512, segment_count=4096)
        result = montecarlo.cross_validate(net, combo, OMEGA, mc_cfg)
        rel_se = result.stderr / result.mc_value
        assert rel_se <= math.sqrt(2.0) * 0.023  # each estimate within 2.3%
        assert result.engine_value == pytest.approx(expected, rel=1e-3)
        assert abs(result.z) <= 3.0, (label, result)
    report(7, "Monte-Carlo matches engine within 3 sigma at K=4096", t0, 120.0)


def test_criterion_08_shot_noise_floor():
    t0 = time.perf_counter()
    rng = random.Random(808)
    count = 0
    while count < 100:
        spec = netgen.random_spec(rng, allow_squeezed=False, force_loss=True)
        net = engine.compile(spec)
        combo = netgen.random_combo(rng, spec)
        if engine.snl(net, combo) < 1e-9:
            continue
        omega = rng.uniform(0, 2 * math.pi * 40e6)
        assert engine.spectrum(net, combo, omega).normalized == pytest.approx(
            1.0, abs=1e-9)
        count += 1
    report(8, "100 random lossy coherent networks sit at the shot-noise floor",
           t0, 5.0)


def test_criterion_09_dc_fringe():
    t0 = time.perf_counter()
    for i in range(33):
        phi = i * 2 * math.pi / 32
        for amp in (1.0, 140.0):
            net = mz_net(phi=phi, amp=amp)
            diff = dc_difference(net)
            assert abs(diff / amp ** 2 - math.cos(phi)) <= 1e-12
    lock = dc_difference(mz_net(phi=math.pi / 2, amp=1.0))
    assert abs(lock) <= 1e-12
    report(9, "DC fringe follows flux * cos(phi); lock point is dark", t0, 1.0)


def test_criterion_10_parser_round_trip():
    t0 = time.perf_counter()
    for name in presets.available():
        spec = dsl.parse(presets.load(name))
        assert validate(spec) == []
        assert dsl.parse(dsl.serialize(spec)) == spec
    rng = random.Random(1010)
    for _ in range(200):
        spec = netgen.random_spec(rng)
        assert dsl.parse(dsl.serialize(spec)) == spec
    invalid = 0
    for i in range(100):
        text = dsl.serialize(netgen.random_spec(rng))
        mutant = _corrupt(text, i, rng)
        try:
            dsl.parse(mutant)
        except dsl.ParseError as err:
            d = err.diagnostic
            assert d.line >= 1 and d.column >= 1
            assert d.line <= mutant.count("\n") + 2
            invalid += 1
    assert invalid == 100
    report(10, "round-trip on presets plus 200 fuzz specs; 100 positioned "
               "diagnostics", t0, 5.0)


def _corrupt(text: str, i: int, rng: random.Random) -> str:
    kind = i % 4
    if kind == 0:
        return re.sub(r"^(source|bs|phase|delay|loss|det|measure)", "bogus",
                      text, count=1, flags=re.M)
    if kind == 1:
        idx = text.rindex(";")
        return text[:idx] + text[idx + 1:]
    if kind == 2:
        pos = rng.randrange(len(text))
        return text[:pos] + "@" + text[pos:]
    return text + text.splitlines()[0] + "\n"
