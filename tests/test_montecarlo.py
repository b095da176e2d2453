import dataclasses
import math
import random
import sys

import numpy as np
import pytest

from sideband import cli, dsl, engine, montecarlo, presets, scenario
from sideband.montecarlo import MCConfig, MCError
from sideband.network import VACUUM_SPECTRUM, Combo, Delay, Loss, QuadSpectrum

import netgen

F_M = 20.5e6
OMEGA = 2 * math.pi * F_M
TAU_PI = 1.0 / (2 * F_M)  # theta = pi; 4 samples at 164 MHz


def mz_net(vx=0.617, vy=63.0, tau=TAU_PI, phi=math.pi / 2):
    spec = scenario.mz_network(tau=tau, carrier_phase=phi, amp=100.0,
                               noise=QuadSpectrum.constant(vx, vy))
    return engine.compile(spec)


def cfg(seed=0, segments=256, length=512, fs=164e6, window="hann"):
    return MCConfig(sample_rate=fs, seed=seed, segment_length=length,
                    segment_count=segments, window=window)


DIFF = Combo.diff_of("C", "D")
SUM = Combo.sum_of("C", "D")


class TestSimulate:
    def test_fixed_seed_is_bit_identical(self):
        net = mz_net()
        a = montecarlo.simulate(net, cfg(seed=7, segments=16, length=64))
        b = montecarlo.simulate(net, cfg(seed=7, segments=16, length=64))
        assert np.array_equal(a.streams, b.streams)
        c = montecarlo.simulate(net, cfg(seed=8, segments=16, length=64))
        assert not np.array_equal(a.streams, c.streams)

    def test_vacuum_inputs_sit_at_shot_noise(self):
        net = mz_net()
        mc = montecarlo.simulate(net, cfg(seed=3, segments=128),
                                 inputs=[QuadSpectrum.constant(1, 1)] * 2)
        for k, name in enumerate(net.detector_names):
            flux = abs(net.carriers[k]) ** 2
            sample_var = mc.streams[k].var()
            se = flux * math.sqrt(2.0 / mc.streams.shape[1])
            assert abs(sample_var - flux) <= 3 * se, name

    def test_delay_must_be_integer_samples(self):
        net = mz_net(tau=TAU_PI * 1.01)
        with pytest.raises(MCError, match="integer number of samples"):
            montecarlo.simulate(net, cfg())

    def test_dc_level_present(self):
        net = mz_net()
        mc = montecarlo.simulate(net, cfg(seed=1, segments=16, length=64))
        for k in range(net.n_detectors):
            flux = abs(net.carriers[k]) ** 2
            assert mc.streams[k].mean() == pytest.approx(flux, rel=0.05)


class TestPeriodogram:
    def test_sinusoid_calibration(self):
        c = cfg(segments=64, length=512, fs=164e6, window="hann")
        m = 64
        f = m * c.sample_rate / c.segment_length
        t = np.arange(c.total_samples) / c.sample_rate
        amp = 3.7
        stream = amp * np.sin(2 * np.pi * f * t)
        est = montecarlo.periodogram(stream, 2 * np.pi * f, c)
        assert est.estimate == pytest.approx(amp ** 2 / 2, rel=0.01)

    def test_white_noise_level(self):
        c = cfg(segments=2048, length=256, fs=164e6, window="rect")
        rng = np.random.default_rng(11)
        sigma2 = 2.5
        stream = rng.normal(0, math.sqrt(sigma2), c.total_samples)
        expected = sigma2 / (256 / 2)
        for m in (10, 40, 100):
            omega = 2 * np.pi * m * c.sample_rate / 256
            est = montecarlo.periodogram(stream, omega, c)
            assert abs(est.estimate - expected) <= 3 * est.stderr

    def test_frequency_bounds(self):
        c = cfg(segments=16, length=64)
        stream = np.zeros(c.total_samples)
        with pytest.raises(MCError, match="outside"):
            montecarlo.periodogram(stream, 2 * np.pi * c.sample_rate, c)

    def test_short_stream_rejected(self):
        c = cfg(segments=16, length=64)
        with pytest.raises(MCError, match="too short"):
            montecarlo.periodogram(np.zeros(10), OMEGA, c)

    def test_stderr_convention(self):
        # a complex bin's power is exponential (relative variance 1); the real
        # bins 0 and L/2 are chi-squared with one degree of freedom (2)
        c = cfg(segments=1024, length=64)
        stream = np.random.default_rng(0).normal(0, 1, c.total_samples)
        # 31.75 bins, just below Nyquist, snaps to bin L/2 = 32
        for bins, rel_var in ((10, 1), (0, 2), (31.75, 2)):
            est = montecarlo.periodogram(stream, 2 * np.pi * bins * c.sample_rate / 64, c)
            assert est.stderr == pytest.approx(est.estimate * math.sqrt(rel_var / 1024))


class TestCrossValidate:
    def test_mz_shot_noise_sum(self):
        net = mz_net()
        result = montecarlo.cross_validate(net, SUM, OMEGA, cfg(seed=101, segments=512))
        assert result.engine_value == pytest.approx(1.0, abs=1e-9)
        assert abs(result.z) <= 3

    def test_mz_excess_phase_noise_diff(self):
        net = mz_net(vy=63.0)
        result = montecarlo.cross_validate(net, DIFF, OMEGA, cfg(seed=55, segments=512))
        assert result.engine_value == pytest.approx(63.0, rel=1e-9)
        assert abs(result.z) <= 3
        assert result.mc_value == pytest.approx(63.0, rel=0.2)

    def test_scenario_phase_diff(self):
        c = scenario.ExperimentConfig()
        net = engine.compile(scenario.experiment_network(c, "phase"))
        result = montecarlo.cross_validate(
            net, scenario.correlation_weights("phase"), OMEGA,
            cfg(seed=77, segments=512))
        assert result.engine_value == pytest.approx(0.732675, abs=1e-6)
        assert abs(result.z) <= 3

    def test_seed_invariance_within_errors(self):
        net = mz_net()
        a = montecarlo.cross_validate(net, DIFF, OMEGA, cfg(seed=1, segments=256))
        b = montecarlo.cross_validate(net, DIFF, OMEGA, cfg(seed=2, segments=256))
        combined = math.hypot(a.stderr, b.stderr)
        assert abs(a.mc_value - b.mc_value) <= 3 * combined

    def test_linearity_in_input_variances(self):
        net = mz_net()
        g = 2.0
        base = montecarlo.cross_validate(
            net, DIFF, OMEGA, cfg(seed=31, segments=512),
            inputs=[QuadSpectrum.constant(0.617, 63.0), QuadSpectrum.constant(1, 1)])
        scaled = montecarlo.cross_validate(
            net, DIFF, OMEGA, cfg(seed=31, segments=512),
            inputs=[QuadSpectrum.constant(g * 0.617, g * 63.0),
                    QuadSpectrum.constant(1, 1)])
        # vacuum ports stay at 1, so only the signal part scales by g
        expected = g * (base.mc_value - 0.0)  # signal dominates: 63 vs the
        assert scaled.mc_value == pytest.approx(expected, rel=3 * 0.1)

    def test_misset_theta_is_flagged(self):
        # theta = pi/2 sits mid-fringe where the response is steepest; run
        # the Monte-Carlo on a delay one sample longer than the engine thinks
        fs = 328e6
        tau_true = 1.0 / (4 * F_M)   # 4 samples, theta = pi/2
        tau_wrong = 5.0 / fs         # 5 samples, theta = 5 pi/8
        truth = engine.spectrum(mz_net(tau=tau_true), DIFF, OMEGA).normalized
        corrupted = mz_net(tau=tau_wrong)
        result = montecarlo.cross_validate(
            corrupted, DIFF, OMEGA, cfg(seed=9, segments=2048, fs=fs),
            engine_value=truth)
        assert abs(result.z) > 5

    def test_audit_twenty_comparisons(self):
        # statistical audit: at most one of twenty independent comparisons
        # may land outside |z| <= 3
        cases = []
        for i in range(10):
            cases.append((mz_net(vy=63.0), DIFF, OMEGA))
            cases.append((mz_net(vx=0.8, vy=1.6), SUM, OMEGA))
        failures = 0
        for seed, (net, combo, omega) in enumerate(cases):
            result = montecarlo.cross_validate(
                net, combo, omega, cfg(seed=1000 + seed, segments=256))
            failures += int(abs(result.z) > 3)
        assert failures <= 1

    def test_frequency_guard(self):
        net = mz_net()
        with pytest.raises(MCError, match="too low"):
            montecarlo.cross_validate(net, DIFF, 2 * math.pi * 50e6,
                                      cfg(segments=16, length=64))


def integer_delay_net(rng, fs):
    """A random netgen network whose delays are whole samples at fs."""
    spec = netgen.random_spec(rng)
    elements = tuple(
        dataclasses.replace(e, element=Delay(round(e.element.tau * fs) / fs,
                                             e.element.carrier_phase))
        if isinstance(e.element, Delay) else e
        for e in spec.elements)
    return dataclasses.replace(spec, elements=elements)


TABULATED = QuadSpectrum.tabulated([0.0, OMEGA / 2, OMEGA, 2 * OMEGA],
                                   [0.6, 0.62, 0.65, 0.7], [90.0, 75.0, 63.0, 40.0])


class TestComboStreams:
    """cross_validate accumulates only the combo's stream; it must equal the
    combo of simulate's per-detector streams on the same substreams."""

    @pytest.mark.parametrize("tabulated", [False, True])
    def test_cross_validate_stream_is_combo_of_detector_streams(self, tabulated,
                                                                monkeypatch):
        rng = random.Random(404 + tabulated)
        c = cfg(seed=17, segments=16, length=64)
        seen = []
        periodogram = montecarlo.periodogram

        def capture(stream, *args):
            seen.append(stream.copy())
            return periodogram(stream, *args)

        monkeypatch.setattr(montecarlo, "periodogram", capture)
        checked = 0
        while checked < 12:
            spec = integer_delay_net(rng, c.sample_rate)
            net = engine.compile(spec)
            combo = netgen.random_combo(rng, spec)
            if engine.snl(net, combo) < 1e-9:
                continue
            inputs = {s.name: TABULATED for s in spec.sources} if tabulated else None
            seen.clear()
            montecarlo.cross_validate(net, combo, OMEGA, c, inputs=inputs)
            signal_ss, vacuum_ss = np.random.SeedSequence(c.seed).spawn(2)
            vacua = [VACUUM_SPECTRUM] * net.n_inputs
            for got, run_inputs, ss in ((seen[0], inputs, signal_ss),
                                        (seen[1], vacua, vacuum_ss)):
                ref = montecarlo.simulate(net, c, inputs=run_inputs,
                                          substream=ss).combo_stream(net, combo)
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
            checked += 1

    @pytest.mark.parametrize("tabulated", [False, True])
    def test_simulate_matches_rolled_tap_sum(self, tabulated):
        # reference: every tap as a rolled copy of the input's own draws
        rng = random.Random(505 + tabulated)
        c = cfg(seed=23, segments=8, length=64)
        n = c.total_samples
        omegas = 2 * np.pi * np.fft.rfftfreq(n, d=1 / c.sample_rate)
        for _ in range(8):
            spec = integer_delay_net(rng, c.sample_rate)
            net = engine.compile(spec)
            inputs = {s.name: TABULATED for s in spec.sources} if tabulated else None
            got = montecarlo.simulate(net, c, inputs=inputs).streams
            ref = np.tile((np.abs(net.carriers) ** 2)[:, None], (1, n))
            children = np.random.SeedSequence(c.seed).spawn(net.n_inputs)
            taps = montecarlo.expand_taps(net, c)
            for j, q in enumerate(net.input_spectra(inputs)):
                draws = np.random.default_rng(children[j]).standard_normal((2, n))
                x, y = (np.fft.irfft(np.fft.rfft(w) * np.sqrt(v(omegas)), n)
                        for w, v in zip(draws, (q.vx_at, q.vy_at)))
                for k, det in enumerate(taps):
                    for jj, d, g in det:
                        if jj == j:
                            z = np.conj(net.carriers[k]) * g
                            ref[k] += np.roll(z.real * x - z.imag * y, d)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_worker_count_does_not_change_streams(self, monkeypatch):
        net = engine.compile(scenario.experiment_network(
            scenario.ExperimentConfig(), "phase"))
        c = cfg(seed=5, segments=32, length=64)
        inputs = {"s1": TABULATED}
        default = montecarlo.simulate(net, c, inputs=inputs).streams
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: a reused buffer would show
        try:
            for workers in (1, 3, 8):
                monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
                again = montecarlo.simulate(net, c, inputs=inputs).streams
                assert np.array_equal(again, default), workers
        finally:
            sys.setswitchinterval(interval)


class TestTaps:
    def test_tap_sum_is_the_transfer_matrix(self):
        # taps and engine walk the same step maps: the taps' sum of
        # g e^{-i w d / f_s} must rebuild A(w)
        rng = random.Random(606)
        c = cfg()
        lossy = open_ports = 0
        for _ in range(40):
            net = engine.compile(integer_delay_net(rng, c.sample_rate))
            losses = sum(isinstance(st.element, Loss) for st in net.steps)
            vacua = sum(e.injected for e in net.roster)
            lossy += losses > 0
            open_ports += vacua > losses
            taps = montecarlo.expand_taps(net, c)
            for omega in (rng.uniform(-2e9, 2e9) for _ in range(3)):
                a = np.zeros((net.n_detectors, net.n_inputs), dtype=complex)
                for k, det in enumerate(taps):
                    for j, d, g in det:
                        a[k, j] += g * np.exp(-1j * omega * d / c.sample_rate)
                assert np.max(np.abs(a - engine.transfer(net, omega).a)) <= 1e-12
        assert lossy >= 5 and open_ports >= 5

    def test_bundled_presets_at_164_mhz(self):
        c = cfg(fs=164e6)
        for name in ("entangled_phase", "entangled_amplitude"):
            montecarlo.expand_taps(engine.compile(dsl.parse(presets.load(name))), c)
        mz = dsl.parse(presets.load("mz_phase"))  # length=7.32m: 4.0044 samples
        with pytest.raises(MCError, match="integer number of samples"):
            montecarlo.expand_taps(engine.compile(mz), c)
        mz = cli.apply_overrides(mz, ["LONG.tau=24.390243902439025ns"])
        taps = montecarlo.expand_taps(engine.compile(mz), c)
        assert {d for det in taps for _, d, _ in det} == {0, 4}


class TestSegmentPowers:
    @pytest.mark.parametrize("window", ["hann", "rect"])
    def test_single_bin_matches_full_rfft(self, window):
        c = cfg(segments=64, length=128, window=window)
        length = c.segment_length
        stream = 3.0 + np.random.default_rng(8).normal(0, 2.0, c.total_samples)
        win = np.hanning(length) if window == "hann" else np.ones(length)
        segments = stream.reshape(c.segment_count, length)
        segments = segments - segments.mean(axis=1, keepdims=True)
        spectrum = np.abs(np.fft.rfft(segments * win, axis=1)) ** 2 / win.sum() ** 2
        scale = 1e-12 * spectrum.max()
        for m, omega_bins in ((0, 0.0), (10, 10.0), (length // 2, length / 2 - 0.25)):
            omega = 2 * np.pi * omega_bins * c.sample_rate / length
            got = montecarlo.segment_powers(stream, omega, c)
            ref = (2.0 if 0 < m < length // 2 else 1.0) * spectrum[:, m]
            assert np.max(np.abs(got - ref)) <= scale, m


class TestTabulatedInputs:
    def test_shaped_spectrum_tracks_engine(self):
        # tabulated spectra route through FFT coloring; the engine reads the
        # same interpolated value at the measurement bin
        noise = QuadSpectrum.tabulated(
            [0.0, OMEGA / 2, OMEGA, 2 * OMEGA],
            [0.6, 0.62, 0.65, 0.7],
            [90.0, 75.0, 63.0, 40.0])
        spec = scenario.mz_network(tau=TAU_PI, carrier_phase=math.pi / 2,
                                   amp=100.0, noise=noise)
        net = engine.compile(spec)
        result = montecarlo.cross_validate(net, DIFF, OMEGA,
                                           cfg(seed=13, segments=512))
        assert result.engine_value == pytest.approx(63.0, rel=1e-6)
        assert abs(result.z) <= 4  # coloring leaks a little across bins

