import dataclasses
import itertools
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sideband import dsl, engine, montecarlo, presets, scenario
from sideband.montecarlo import MCConfig, MCError
from sideband.network import VACUUM_SPECTRUM, Combo, Delay, Loss, QuadSpectrum

import netgen
from reference_walk import engine_matrix

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


def detector_projections(net, c):
    """Per-detector segment projections onto OMEGA's bin kernel, (M, K, 2):
    the signal rows of the oracle's accumulator, one call per detector with
    its one-hot weight row.  Each call draws on a fresh SeedSequence of the
    seed: spawning advances a SeedSequence, so a reused one would draw
    other children."""
    taps = montecarlo.expand_taps(net, c)
    return np.stack([montecarlo._streams(net, c, taps, weights, np.random.SeedSequence(c.seed),
                                         OMEGA)[0]
                     for weights in np.eye(net.n_detectors)])


def project(streams, omega, c):
    """The projections of (..., T) streams onto omega's bin kernel, segment
    by segment: (..., K, 2)."""
    kernel = segment_kernel(omega, c)
    segments = streams.reshape(*streams.shape[:-1], c.segment_count, c.segment_length)
    return segments @ np.stack([kernel.real, kernel.imag], axis=1)


def max_relative_gap(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestSimulate:
    def test_fixed_seed_is_bit_identical(self):
        net = mz_net()
        a = detector_projections(net, cfg(seed=7, segments=16, length=64))
        b = detector_projections(net, cfg(seed=7, segments=16, length=64))
        assert np.array_equal(a, b)
        c = detector_projections(net, cfg(seed=8, segments=16, length=64))
        assert not np.array_equal(a, c)

    def test_vacuum_inputs_sit_at_shot_noise(self):
        # with every input at vacuum a detector's fluctuation is white with
        # variance |alpha|^2, so a segment's projections are Gaussian with
        # covariance |alpha|^2 G, G the Gram matrix of the kernel's parts
        net = mz_net(vx=1.0, vy=1.0)
        c = cfg(seed=3, segments=16384, length=64)
        kernel = segment_kernel(OMEGA, c)
        basis = np.stack([kernel.real, kernel.imag], axis=1)
        gram = basis.T @ basis
        powers = (detector_projections(net, c) ** 2).sum(axis=2)  # (M, K)
        for k, name in enumerate(net.detector_names):
            flux = abs(net.carriers[k]) ** 2
            mean = powers[k].mean()
            se = flux * math.sqrt(2.0 * np.trace(gram @ gram) / c.segment_count)
            assert abs(mean - flux * np.trace(gram)) <= 3 * se, name

    def test_delay_must_be_integer_samples(self):
        net = mz_net(tau=TAU_PI * 1.01)
        with pytest.raises(MCError, match="integer number of samples"):
            detector_projections(net, cfg())

    def test_dc_level_present(self):
        # the tests-side streams carry the DC level; the kernel has no mean,
        # so their projections are the rows, which never hold it
        net = mz_net()
        c = cfg(seed=1, segments=16, length=64)
        streams = rolled_tap_sum(net, c)
        for k in range(net.n_detectors):
            flux = abs(net.carriers[k]) ** 2
            assert streams[k].mean() == pytest.approx(flux, rel=0.05)
        assert max_relative_gap(detector_projections(net, c),
                                project(streams, OMEGA, c)) <= 1e-12


class TestPeriodogram:
    def test_sinusoid_calibration(self):
        c = cfg(segments=64, length=512, fs=164e6, window="hann")
        m = 64
        f = m * c.sample_rate / c.segment_length
        t = np.arange(c.total_samples) / c.sample_rate
        amp = 3.7
        stream = amp * np.sin(2 * np.pi * f * t)
        omega = 2 * np.pi * f
        est = montecarlo.periodogram(project(stream, omega, c), omega, c)
        assert est.estimate == pytest.approx(amp ** 2 / 2, rel=0.01)

    def test_white_noise_level(self):
        c = cfg(segments=2048, length=256, fs=164e6, window="rect")
        rng = np.random.default_rng(11)
        sigma2 = 2.5
        stream = rng.normal(0, math.sqrt(sigma2), c.total_samples)
        expected = sigma2 / (256 / 2)
        for m in (10, 40, 100):
            omega = 2 * np.pi * m * c.sample_rate / 256
            est = montecarlo.periodogram(project(stream, omega, c), omega, c)
            se = est.powers.std() / math.sqrt(c.segment_count)
            assert abs(est.estimate - expected) <= 3 * se

    def test_odd_length_top_bin_is_complex(self):
        # L = 9 has no Nyquist bin: its top bin 4 is complex like bins 1-3,
        # so white noise reads sigma^2 / (L/2) there with exponential powers
        c = cfg(segments=20000, length=9, window="rect")
        stream = np.random.default_rng(12).normal(0, 1, c.total_samples)
        for m in (1, 4):
            omega = 2 * np.pi * m * c.sample_rate / 9
            est = montecarlo.periodogram(project(stream, omega, c), omega, c)
            se = est.powers.std() / math.sqrt(c.segment_count)
            assert abs(est.estimate - 2 / 9) <= 4 * se, m
            assert np.std(est.powers) / est.estimate == pytest.approx(1.0, abs=0.05), m

    def test_frequency_bounds(self):
        c = cfg(segments=16, length=64)
        projections = np.zeros((c.segment_count, 2))
        with pytest.raises(MCError, match="outside"):
            montecarlo.periodogram(projections, 2 * np.pi * c.sample_rate, c)

    def test_short_stream_rejected(self):
        c = cfg(segments=16, length=64)
        for shape in ((10, 2), (c.total_samples,)):
            with pytest.raises(MCError, match=r"need \(16, 2\) segment projections"):
                montecarlo.periodogram(np.zeros(shape), OMEGA, c)

    def test_stderr_convention(self):
        # a complex bin's power is exponential (relative variance 1); the real
        # bins 0 and L/2 are chi-squared with one degree of freedom (2).  By
        # the delta method the sample relative variance var/mean^2 of K
        # powers has variance 4/K (exponential) or 24/K (chi-squared), so at
        # K = 1024 the tolerance of 4 standard errors is 0.25 and 0.61
        c = cfg(segments=1024, length=64)
        stream = np.random.default_rng(0).normal(0, 1, c.total_samples)
        # 31.75 bins, just below Nyquist, snaps to bin L/2 = 32
        for bins, rel_var, spread in ((10, 1, 4), (0, 2, 24), (31.75, 2, 24)):
            omega = 2 * np.pi * bins * c.sample_rate / 64
            est = montecarlo.periodogram(project(stream, omega, c), omega, c)
            got = est.powers.var() / est.estimate ** 2
            assert abs(got - rel_var) <= 4 * math.sqrt(spread / c.segment_count), bins


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
        g = 2.0
        base = montecarlo.cross_validate(
            mz_net(vx=0.617, vy=63.0), DIFF, OMEGA, cfg(seed=31, segments=512))
        scaled = montecarlo.cross_validate(
            mz_net(vx=g * 0.617, vy=g * 63.0), DIFF, OMEGA, cfg(seed=31, segments=512))
        # vacuum ports stay at 1, so only the signal part scales by g
        expected = g * (base.mc_value - 0.0)  # signal dominates: 63 vs the
        assert scaled.mc_value == pytest.approx(expected, rel=3 * 0.1)

    def test_misset_theta_is_flagged(self):
        # theta = pi/2 sits mid-fringe where the response is steepest; run
        # the Monte-Carlo on a delay one sample longer than the engine thinks
        fs = 328e6
        tau_true = 1.0 / (4 * F_M)   # 4 samples, theta = pi/2
        tau_wrong = 5.0 / fs         # 5 samples, theta = 5 pi/8
        corrupted = mz_net(tau=tau_wrong)
        result = montecarlo.cross_validate(
            corrupted, DIFF, OMEGA, cfg(seed=9, segments=2048, fs=fs),
            reference=mz_net(tau=tau_true))
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

    @pytest.mark.parametrize("make, message", [
        (lambda: cfg(segments=1), "segment_count >= 2"),
        (lambda: cfg(window="flat"), "window must be"),
        (lambda: cfg().check_frequency(-1.0), "must be >= 0"),
    ])
    def test_bad_plan_is_refused(self, make, message):
        with pytest.raises(MCError, match=message):
            make()

    def test_frequency_guard(self):
        net = mz_net()
        with pytest.raises(MCError, match="too low"):
            montecarlo.cross_validate(net, DIFF, 2 * math.pi * 50e6,
                                      cfg(segments=16, length=64))


class TestPairedEstimator:
    """The Monte-Carlo value is mean(P_sig) / mean(P_vac) over rows drawn
    together; its error bar is the delta-method error of that ratio and z is
    taken against the engine's window-weighted expectation of it."""

    def test_coherent_inputs_give_an_exact_ratio(self):
        # every input at vacuum variance: both rows are one stream, so the
        # ratio is exactly 1 and only the covariance term cancels its error
        net = mz_net(vx=1.0, vy=1.0)
        result = montecarlo.cross_validate(net, DIFF, OMEGA, cfg(seed=4, segments=64))
        assert result.mc_value == 1.0
        assert result.stderr == montecarlo.RATIO_RESOLUTION
        assert result.passed and abs(result.z) <= 1e-3

    @pytest.mark.parametrize("case", ["mz_diff", "mz_sum", "twin_phase"])
    def test_error_bar_matches_the_spread_over_seeds(self, case):
        net, combo = {
            "mz_diff": (mz_net(), DIFF),
            "mz_sum": (mz_net(vx=0.8, vy=1.6), SUM),
            "twin_phase": (engine.compile(scenario.experiment_network(
                scenario.ExperimentConfig(), "phase")), scenario.correlation_weights("phase")),
        }[case]
        results = [montecarlo.cross_validate(net, combo, OMEGA, cfg(seed=300 + s, segments=128,
                                                                    length=64))
                   for s in range(40)]
        spread = np.std([r.mc_value for r in results], ddof=1)
        # sd over 40 seeds is known to about 11%
        assert 0.6 <= spread / np.median([r.stderr for r in results]) <= 1.6
        assert sum(not r.passed for r in results) <= 2

    @pytest.mark.parametrize("window", ["hann", "rect"])
    @pytest.mark.parametrize("bin_", [1, 8])
    def test_reference_is_the_expected_ratio(self, window, bin_):
        # a 40-sample delay puts several fringes inside the window's main
        # lobe: the point value is far from what the segments measure
        c = cfg(segments=8, length=64, window=window)
        omega = 2 * np.pi * bin_ * c.sample_rate / c.segment_length
        net = mz_net(tau=40 / c.sample_rate)
        result = montecarlo.cross_validate(net, DIFF, omega, c)
        exact = expected_ratio(net, DIFF, omega, c)
        assert result.reference == pytest.approx(exact, rel=1e-10)
        assert abs(result.engine_value - exact) > 0.1 * exact
        tabulated = engine.compile(with_noise(net.spec, TABULATED))
        result = montecarlo.cross_validate(tabulated, DIFF, omega, c)
        assert result.reference == pytest.approx(
            stream_grid_ratio(tabulated, DIFF, omega, c), rel=1e-10)
        rng = random.Random(707 + bin_)
        checked = 0
        while checked < 10:
            spec = integer_delay_net(rng, c.sample_rate)
            net = engine.compile(spec)
            combo = netgen.random_combo(rng, spec)
            if engine.snl(net, combo) < 1e-9:
                continue
            result = montecarlo.cross_validate(net, combo, omega, c)
            assert result.reference == pytest.approx(expected_ratio(net, combo, omega, c),
                                                      rel=1e-9)
            checked += 1


class TestRandomNetworks:
    @settings(max_examples=150)
    @given(seed=st.integers(0, 2 ** 32 - 1), tabulated=st.booleans(),
           bin_=st.integers(1, 16))
    def test_oracle_agrees_with_the_engine(self, seed, tabulated, bin_):
        # engine against oracle on random networks with whole-sample delays,
        # bins up to L/4, some with tabulated sources; dark combos are skipped
        rng = random.Random(seed)
        c = cfg(seed=seed, segments=512, length=64)
        spec = integer_delay_net(rng, c.sample_rate)
        net = engine.compile(with_noise(spec, TABULATED) if tabulated else spec)
        combo = netgen.random_combo(rng, spec)
        assume(engine.snl(net, combo) >= 1e-9)
        omega = 2 * np.pi * bin_ * c.sample_rate / c.segment_length
        result = montecarlo.cross_validate(net, combo, omega, c)
        assert abs(result.z) <= 4, result


def segment_kernel(omega, c):
    """The window times the phasor of omega's bin, less its mean (the
    segment-mean removal)."""
    length = c.segment_length
    m = round(omega / (2 * np.pi) / (c.sample_rate / length))
    win = np.hanning(length) if c.window == "hann" else np.ones(length)
    kernel = win * np.exp(2j * np.pi * m * np.arange(length) / length)
    return kernel - kernel.mean()


def stream_grid_ratio(net, combo, omega, c):
    """E[P_sig] / E[P_vac] of one segment, summed over the T frequencies of
    the circular streams: exact for any input spectrum.  A tabulated input's
    stream is its draws through the FIR h of :func:`fir`, so its spectrum
    there is |DFT_T(h)|^2."""
    n = c.total_samples
    span = c.segment_length + max(d for det in montecarlo.expand_taps(net, c)
                                  for _, d, _ in det)
    grid = 2 * np.pi * np.fft.rfftfreq(n, 1 / c.sample_rate)

    def seen(q):
        if q.is_constant:
            return q
        return QuadSpectrum.tabulated(grid, *(
            np.abs(np.fft.rfft(fir(v, c.sample_rate, span), n)) ** 2 for v in (q.vx_at, q.vy_at)))

    net = dataclasses.replace(net, roster=tuple(
        dataclasses.replace(e, noise=seen(e.noise)) for e in net.roster))
    gain = np.abs(np.fft.fft(segment_kernel(omega, c), n)) ** 2
    s = engine.sweep(net, combo, 2 * np.pi * np.fft.fftfreq(n, 1 / c.sample_rate))
    return (s.absolute @ gain) / (s.snl @ gain)


def expected_ratio(net, combo, omega, c):
    """E[P_sig] / E[P_vac] of one segment, from the taps: each input
    quadrature is white with its variance, and a segment's projection sees
    it through the kernel shifted by every tap delay."""
    length = c.segment_length
    kernel = segment_kernel(omega, c)
    weights = engine.combo_weights(net, combo)
    taps = montecarlo.expand_taps(net, c)
    span = length + max(d for det in taps for _, d, _ in det)
    signal = vacuum = 0.0
    for j, entry in enumerate(net.roster):
        h = np.zeros((2, span), dtype=complex)  # the kernel X_j and Y_j see
        for k, det in enumerate(taps):
            for jj, d, g in det:
                if jj == j:
                    coef = weights[k] * np.conj(net.carriers[k]) * g
                    h[0, span - length - d:span - d] += coef.real * kernel
                    h[1, span - length - d:span - d] -= coef.imag * kernel
        seen = (np.abs(h) ** 2).sum(axis=1)
        signal += entry.noise.vx * seen[0] + entry.noise.vy * seen[1]
        vacuum += seen.sum()
    return signal / vacuum


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


def with_noise(spec, noise):
    """``spec`` with every declared source carrying ``noise``; the vacua
    injected at compile time keep theirs."""
    return dataclasses.replace(spec, sources=tuple(
        dataclasses.replace(s, noise=noise) for s in spec.sources))


def fir(variance_fn, fs, span):
    """Frequency sampling: the 2 span taps whose DFT is the square root of
    the spectrum at 2 pi fs j / (2 span), centred on tap span."""
    grid = 2 * np.pi * fs * np.arange(span + 1) / (2 * span)
    return np.roll(np.fft.irfft(np.sqrt(variance_fn(grid)), 2 * span), span)


def circular_filter(draws, h):
    """c[t] = sum_m h[m] draws[(t + m) mod n], through the n-point DFT."""
    n = draws.size
    return np.fft.irfft(np.fft.rfft(draws) * np.conj(np.fft.rfft(h, n)), n)


def draw_matrix(net, c, weights):
    """The inputs' features at one instant, rebuilt from the taps:
    (features, A), one feature (row r, delay d mod T) per row of A, the
    signal row's first, delays ascending; one column per quadrature of an
    input with taps, roster order, X then Y.  Taps of zero weight keep
    their (zero) entries, so every weight row gives A the same shape.
    Feature (r, d) is sum_s A[(r, d), s] W_s.  A quadrature's vacuum-row
    entries are its taps' coefficients.  A constant quadrature's signal-row
    entries are those times sqrt(V); a tabulated one's are the impulse
    response of its signal row: the coefficients on the circular filter of
    a unit impulse through its :func:`fir`, centred by span, read at the
    delays the FIR's 2 span taps reach."""
    n = c.total_samples
    taps = montecarlo.expand_taps(net, c)
    span = c.segment_length + max(d for det in taps for _, d, _ in det)
    impulse = np.eye(1, n)[0]
    coefs = [{} for _ in net.roster]
    for k, det in enumerate(taps):
        for j, d, g in det:
            coefs[j][d % n] = coefs[j].get(d % n, 0j) + weights[k] * np.conj(net.carriers[k]) * g
    columns = []  # one {(r, d): entry} per input quadrature
    for z, q in zip(coefs, (e.noise for e in net.roster)):
        if not z:
            continue
        for variance, variance_fn, part in ((q.vx, q.vx_at, np.real),
                                            (q.vy, q.vy_at, lambda v: -np.imag(v))):
            column = {(1, d): part(v) for d, v in z.items()}
            if q.is_constant:
                column.update({(0, d): part(v) * math.sqrt(variance) for d, v in z.items()})
            else:
                spread = np.roll(circular_filter(impulse, fir(variance_fn, c.sample_rate, span)),
                                 span)
                signal = sum(part(v) * np.roll(spread, d) for d, v in z.items())
                column.update({(0, (d + t) % n): signal[(d + t) % n]
                               for d in z for t in range(1 - span, span + 1)})
            columns.append(column)
    features = sorted({f for column in columns for f in column})
    a = np.array([[column.get(f, 0.0) for column in columns] for f in features])
    return features, a.reshape(len(features), len(columns))


def job_rows(net, c, weights, root):
    """The (2, T) signal and vacuum rows that ``montecarlo._streams`` projects,
    from whole streams: each job of ``montecarlo._plan`` redrawn on its
    seed, the s-th of len(jobs) children of ``root``, and each term (d, b)
    adding b times the draws rolled by d, summed as one circular
    convolution.  The jobs' coefficients B must be ``montecarlo._factor``
    of A, from :func:`draw_matrix`, and must draw A's law, B B^T = A A^T:
    in full where there are few features, and through B (B^T x) against
    A (A^T x) on seeded probes x, which needs no F x F matrix, on all.  The
    factor leaves out the residuals under its floor: no entry of A A^T -
    B B^T is above sqrt(eps) of the largest feature variance.  On these
    constant-spectrum plans every skipped row lies in the taken rows' span
    and the law holds to 1e-12; a tabulated input's FIR tails can leave an
    independent row under the floor, so its plans are held to sqrt(eps)."""
    n = c.total_samples
    taps = montecarlo.expand_taps(net, c)
    span = c.segment_length + max(d for det in taps for _, d, _ in det)
    jobs = montecarlo._plan(net, c, taps, weights, span)
    features, a = draw_matrix(net, c, weights)
    index = {f: i for i, f in enumerate(features)}
    b = np.zeros((len(features), len(jobs)))
    for k, rows in enumerate(jobs):
        for r, terms in enumerate(rows):
            for d, coef in terms:
                b[index[r, d], k] = coef
    factor = montecarlo._factor(a)
    assert b.shape == factor.shape and len(jobs) <= a.shape[1]
    assert np.max(np.abs(b - factor), initial=0.0) <= 1e-12 * np.max(np.abs(factor), initial=0.0)
    constant = all(e.noise.is_constant for e in net.roster)
    bound = 1e-12 if constant else math.sqrt(np.finfo(float).eps)
    if len(features) <= 1024:
        gram = a @ a.T
        assert np.max(np.abs(b @ b.T - gram), initial=0.0) <= bound * np.max(gram, initial=0.0)
    for x in np.random.default_rng(0).standard_normal((4, len(features))):
        law = a @ (a.T @ x)
        assert np.max(np.abs(b @ (b.T @ x) - law), initial=0.0) <= bound * np.max(np.abs(law),
                                                                                 initial=0.0)

    rows = np.zeros((2, n))
    for seed, job in zip(root.spawn(len(jobs)), jobs):
        z = np.fft.rfft(np.random.default_rng(seed).standard_normal(n))
        for r, terms in enumerate(job):
            g = np.zeros(n)  # the rolled copies' sum is the circular convolution with g
            for d, coef in terms:
                g[d] = coef
            rows[r] += np.fft.irfft(z * np.fft.rfft(g), n)
    return rows


def rolled_tap_sum(net, c):
    """The per-detector streams that :func:`detector_projections` projects,
    DC included: each detector's signal row of :func:`job_rows`, drawn for
    its one-hot weight row on a fresh SeedSequence of the seed."""
    return np.stack([abs(alpha) ** 2 + job_rows(net, c, weights,
                                                np.random.SeedSequence(c.seed))[0]
                     for alpha, weights in zip(net.carriers, np.eye(net.n_detectors))])


class TestComboStreams:
    """cross_validate accumulates the combo's signal and vacuum rows from one
    set of draws, on the signal substream, as segment projections onto the
    bin kernel; each must equal the projections of the tests-side rows,
    rebuilt from the jobs' draws, and the jobs must draw the features of the
    combo of the detectors' streams with its covariance."""

    @pytest.mark.parametrize("tabulated", [False, True])
    def test_cross_validate_stream_is_combo_of_detector_streams(self, tabulated,
                                                                monkeypatch):
        rng = random.Random(404 + tabulated)
        c = cfg(seed=17, segments=16, length=64)
        seen = []
        periodogram = montecarlo.periodogram

        def capture(projections, *args):
            seen.append(projections.copy())
            return periodogram(projections, *args)

        monkeypatch.setattr(montecarlo, "periodogram", capture)
        checked = 0
        while checked < 12:
            spec = integer_delay_net(rng, c.sample_rate)
            net = engine.compile(with_noise(spec, TABULATED) if tabulated else spec)
            combo = netgen.random_combo(rng, spec)
            if engine.snl(net, combo) < 1e-9:
                continue
            seen.clear()
            montecarlo.cross_validate(net, combo, OMEGA, c)
            assert len(seen) == 2  # one periodogram per row
            weights = engine.combo_weights(net, combo)
            # the features' draw matrix is the combo of the detectors' ones
            a = draw_matrix(net, c, weights)[1]
            detectors = [draw_matrix(net, c, e)[1].ravel() for e in np.eye(net.n_detectors)]
            combo_matrix = montecarlo.MCStreams(np.stack(detectors)).combo_stream(net, combo)
            assert (np.max(np.abs(combo_matrix.reshape(a.shape) - a), initial=0.0)
                    <= 1e-12 * np.max(np.abs(a), initial=0.0))
            rows = job_rows(net, c, weights, np.random.SeedSequence(c.seed).spawn(1)[0])
            for got, ref in zip(seen, project(rows, OMEGA, c)):
                assert max_relative_gap(got, ref) <= 1e-12
            checked += 1

    @pytest.mark.parametrize("tabulated", [False, True])
    def test_simulate_matches_rolled_tap_sum(self, tabulated):
        rng = random.Random(505 + tabulated)
        c = cfg(seed=23, segments=8, length=64)
        for _ in range(8):
            spec = integer_delay_net(rng, c.sample_rate)
            net = engine.compile(with_noise(spec, TABULATED) if tabulated else spec)
            got = detector_projections(net, c)
            ref = project(rolled_tap_sum(net, c), OMEGA, c)
            assert max_relative_gap(got, ref) <= 1e-12

    @pytest.mark.parametrize("noise", [QuadSpectrum.constant(0.617, 63.0), TABULATED])
    def test_long_plan_matches_rolled_tap_sum(self, noise):
        # more than two blocks of draws, and a delay longer than one; a
        # tabulated input needs T >= 3 (L + D)
        c = cfg(seed=29, segments=100, length=512)
        assert c.total_samples > 2 * montecarlo.CHUNK
        spec = scenario.mz_network(tau=(montecarlo.CHUNK + 3) / c.sample_rate,
                                   carrier_phase=math.pi / 2, amp=100.0, noise=noise)
        net = engine.compile(spec)
        got = detector_projections(net, c)
        ref = project(rolled_tap_sum(net, c), OMEGA, c)
        assert max_relative_gap(got, ref) <= 1e-12

    def test_blocked_accumulation_is_the_rolled_sum(self):
        # draws come in blocks of whole segments: with L = 100 a block is
        # 163 segments, and T = 400 segments is no whole number of blocks;
        # the delays read lags 0, 1 and L - 1, cross segment and block
        # boundaries, and wrap round the end of the stream; a tabulated input
        # with a delay past T / 3 - L is refused
        c = cfg(seed=31, segments=400, length=100)
        block = montecarlo.CHUNK // c.segment_length * c.segment_length
        assert c.total_samples % block
        n = c.total_samples
        for d in (0, 1, 99, 100, 105, block + 7, n - 1):
            for noise in (QuadSpectrum.constant(0.617, 63.0), TABULATED):
                net = engine.compile(scenario.mz_network(
                    tau=d / c.sample_rate, carrier_phase=math.pi / 2, amp=100.0, noise=noise))
                if not noise.is_constant and n < 3 * (c.segment_length + d):
                    with pytest.raises(MCError, match="tabulated spectrum needs T >= 3"):
                        detector_projections(net, c)
                    continue
                got = detector_projections(net, c)
                ref = project(rolled_tap_sum(net, c), OMEGA, c)
                assert max_relative_gap(got, ref) <= 1e-12, (d, noise.is_constant)

    def test_worker_count_does_not_change_streams(self, monkeypatch):
        spec = scenario.experiment_network(scenario.ExperimentConfig(), "phase")
        first = dataclasses.replace(spec.sources[0], noise=TABULATED)
        net = engine.compile(dataclasses.replace(spec, sources=(first, *spec.sources[1:])))
        c = cfg(seed=5, segments=32, length=64)
        default = detector_projections(net, c)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: a reused buffer would show
        try:
            for workers in (1, 3, 8):
                monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
                again = detector_projections(net, c)
                assert np.array_equal(again, default), workers
        finally:
            sys.setswitchinterval(interval)

    def test_workers_fall_back_to_the_cpu_count(self, monkeypatch):
        # where the process cannot read its affinity, every core counts, and
        # an unknown count means one worker
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
        for cores, workers in ((3, 3), (None, 1)):
            monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cores)
            assert montecarlo._workers() == workers


class TestFactor:
    """``montecarlo._factor`` draws the inputs' features as the fewest white
    streams with their covariance: B B^T = A A^T."""

    @staticmethod
    def check(a, rank):
        b = montecarlo._factor(a)
        gram = a @ a.T
        assert b.shape == (len(a), rank)
        assert np.max(np.abs(b @ b.T - gram), initial=0.0) <= 1e-12 * np.max(gram, initial=0.0)
        return b

    def test_rank_deficient_gram_gives_rank_columns(self):
        rng = np.random.default_rng(5)
        for rows, cols, rank in ((5, 6, 3), (8, 4, 1), (7, 7, 6)):
            self.check(rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols)),
                       rank)

    def test_duplicate_features_give_bitwise_equal_rows(self):
        # the vacuum row's features repeat the signal row's at vacuum variance
        rng = np.random.default_rng(6)
        unique = rng.standard_normal((3, 4))
        order = [0, 1, 0, 2, 1, 1]
        b = self.check(unique[order], 3)
        for i, j in itertools.combinations(range(len(order)), 2):
            assert np.array_equal(b[i], b[j]) == (order[i] == order[j])

    def test_signed_zeros_are_one_feature(self):
        # -Im(c) of a real coefficient is -0.0: the row is the same feature
        a = np.array([[1.0, -0.0], [2.0, 3.0], [1.0, 0.0]])
        b = self.check(a, 2)
        assert b[0].tobytes() == b[2].tobytes()

    def test_zero_gram_gives_no_columns(self):
        self.check(np.zeros((4, 6)), 0)
        self.check(np.zeros((0, 0)), 0)

    def test_never_more_columns_than_quadratures(self):
        rng = np.random.default_rng(7)
        for rows, cols in ((2, 1), (9, 2), (40, 3), (3, 8)):
            self.check(rng.standard_normal((rows, cols)), min(rows, cols))

    @pytest.mark.parametrize("setup", ["mz_diff", "twin_amplitude_sum", "twin_phase_diff",
                                       "mz_tabulated"])
    def test_rounding_never_moves_the_columns(self, setup):
        # the bench's oracle setups at its plan; twin_phase_diff's features
        # tie in exact arithmetic, so a pivot search would rest on the last
        # bits of A.  Up to 8 ulps on every entry must leave B's columns and
        # its zero pattern as they are
        config = scenario.ExperimentConfig()
        net, combo = {
            "mz_diff": (mz_net(), DIFF),
            "twin_amplitude_sum": (engine.compile(scenario.experiment_network(config, "amplitude")),
                                   scenario.correlation_weights("amplitude")),
            "twin_phase_diff": (engine.compile(scenario.experiment_network(config, "phase")),
                                scenario.correlation_weights("phase")),
            "mz_tabulated": (engine.compile(scenario.mz_network(
                tau=TAU_PI, carrier_phase=math.pi / 2, amp=100.0, noise=TABULATED)), DIFF),
        }[setup]
        weights = engine.combo_weights(net, combo)
        a = draw_matrix(net, cfg(segments=4096, length=512), weights)[1]
        b = montecarlo._factor(a)
        rng = np.random.default_rng(9)
        for _ in range(64):
            k = rng.integers(-8, 9, a.shape)
            again = montecarlo._factor(a * (1 + k * np.finfo(float).eps))
            assert again.shape == b.shape and np.array_equal(again == 0, b == 0)


class TestMemory:
    """No stream-length array is built: every stream is drawn and projected a
    block at a time, onto its rows' sub-kernels.  No Gram matrix of the
    features is built either, and A's rows are deduped as arrays."""

    @pytest.mark.parametrize("noise, streams", [(QuadSpectrum.constant(0.617, 63.0), 1),
                                                (TABULATED, 1)])
    def test_traced_peak_at_the_acceptance_plan(self, noise, streams):
        c = cfg(seed=3, segments=4096, length=512)  # T = 2^21 samples
        net = engine.compile(scenario.mz_network(tau=TAU_PI, carrier_phase=math.pi / 2,
                                                 amp=100.0, noise=noise))
        tracemalloc.start()
        try:
            montecarlo.cross_validate(net, DIFF, OMEGA, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < streams * 8 * c.total_samples, peak / 2 ** 20

    def test_factor_never_forms_the_gram_matrix(self):
        # 2000 distinct features of 3 quadratures: their F x F Gram matrix
        # would take 32 MB, while the factor needs a few F x 3 arrays
        a = np.random.default_rng(8).standard_normal((2000, 3))
        tracemalloc.start()
        try:
            b = montecarlo._factor(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(a) ** 2 / 16, peak / 2 ** 20
        gram = a @ a.T
        assert b.shape == a.shape
        assert np.max(np.abs(b @ b.T - gram)) <= 1e-12 * np.max(gram)

    def test_factor_dedups_rows_without_python_floats(self):
        # 4000 features over 50 distinct rows: a Python float per entry, or
        # a tuple per row, would take several times A
        rng = np.random.default_rng(10)
        a = rng.standard_normal((50, 100))[rng.integers(0, 50, 4000)]
        tracemalloc.start()
        try:
            b = montecarlo._factor(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * a.nbytes, peak / a.nbytes
        assert b.shape == (4000, 50)


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
            vacua = net.n_inputs - len(net.spec.sources)
            lossy += losses > 0
            open_ports += vacua > losses
            taps = montecarlo.expand_taps(net, c)
            for omega in (rng.uniform(-2e9, 2e9) for _ in range(3)):
                a = np.zeros((net.n_detectors, net.n_inputs), dtype=complex)
                for k, det in enumerate(taps):
                    for j, d, g in det:
                        a[k, j] += g * np.exp(-1j * omega * d / c.sample_rate)
                assert np.max(np.abs(a - engine_matrix(net, omega))) <= 1e-12
        assert lossy >= 5 and open_ports >= 5

    def test_bundled_presets_at_164_mhz(self):
        c = cfg(fs=164e6)
        for name in ("entangled_phase", "entangled_amplitude"):
            montecarlo.expand_taps(engine.compile(dsl.parse(presets.load(name))), c)
        text = presets.load("mz_phase")
        mz = dsl.parse(text)  # length=7.32m: 4.0044 samples
        with pytest.raises(MCError, match="integer number of samples"):
            montecarlo.expand_taps(engine.compile(mz), c)
        mz = dsl.parse(text, ["LONG.tau=24.390243902439025ns"])
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
            got = montecarlo.segment_powers(project(stream, omega, c), omega, c)
            ref = (2.0 if 0 < m < length // 2 else 1.0) * spectrum[:, m]
            assert np.max(np.abs(got - ref)) <= scale, m


class TestTabulatedInputs:
    def test_shaped_spectrum_tracks_engine(self):
        # tabulated spectra route through a FIR; the engine reads the same
        # interpolated value at the measurement bin
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

    def test_spike_narrower_than_a_bin_fails_loudly(self):
        # the reference's spectrum, cut to the lags a segment meets, rings
        # below zero around a spike this narrow on a squeezed floor
        noise = QuadSpectrum.tabulated([0.0, OMEGA - 2e6, OMEGA, OMEGA + 2e6],
                                       [0.05, 0.05, 1000.0, 0.05], [25.0] * 4)
        net = engine.compile(scenario.mz_network(tau=TAU_PI, carrier_phase=math.pi / 2,
                                                 noise=noise))
        with pytest.raises(MCError, match="too sharply"):
            montecarlo.cross_validate(net, SUM, OMEGA, cfg(segments=16, length=64))

    def test_filtered_projection_is_the_circular_filter(self):
        # one job's sub-kernel projections against its rows built from the
        # same draws.  The signal row is a term list spread through a FIR h
        # as _plan spreads a tabulated quadrature, (d, b) to b h[m] at
        # d + span - m, and must read the direct circular filter of the
        # draws, centred by span; the vacuum row reads the draws themselves.
        # Three blocks, the last one short, and delays that cross segment,
        # block and stream ends
        c = cfg(segments=600, length=64)
        n, length = c.total_samples, c.segment_length
        assert 2 * montecarlo.CHUNK < n < 3 * montecarlo.CHUNK
        h = np.random.default_rng(1).standard_normal(150)
        span = h.size // 2
        draws = np.random.default_rng(2).standard_normal(n)
        delays = [0, 1, 40, length - 1, length, 2 * length + 2, n - 1]
        coefs = np.random.default_rng(3).uniform(-2.0, 2.0, (2, len(delays)))
        spread = {}
        for d, b in zip(delays, coefs[0]):
            for m, hm in enumerate(h):
                key = (d + span - m) % n
                spread[key] = spread.get(key, 0.0) + b * hm
        rows = [sorted(spread.items()), list(zip(delays, coefs[1]))]
        got = montecarlo._run(np.random.SeedSequence(2), rows, segment_kernel(OMEGA, c),
                              c.segment_count)
        direct = np.roll(circular_filter(draws, h), span)
        for projections, stream, row_coefs in zip(got, (direct, draws), coefs):
            row = sum(b * np.roll(stream, d) for d, b in zip(delays, row_coefs))
            assert max_relative_gap(projections, project(row, OMEGA, c)) <= 1e-12

    def test_tabulated_input_draws_its_normals_once(self, monkeypatch):
        # every job's generator draws T normals once: one white factor
        # stream per job, read by both rows, a tabulated input's signal row
        # through its FIR.  The bench's oracle cases, with 2, 6, 8 and 2
        # inputs, make 2, 2, 3 and 2: in the tabulated readout both inputs'
        # X quadratures reach the difference at about 1e-14, under the
        # factor's floor, so the tabulated X draws no stream of its own
        c = cfg(seed=3, segments=16, length=64)
        config = scenario.ExperimentConfig()
        cases = [
            (mz_net(), DIFF, 2),
            (engine.compile(scenario.experiment_network(config, "amplitude")),
             scenario.correlation_weights("amplitude"), 2),
            (engine.compile(scenario.experiment_network(config, "phase")),
             scenario.correlation_weights("phase"), 3),
            (engine.compile(scenario.mz_network(tau=TAU_PI, carrier_phase=math.pi / 2,
                                                amp=100.0, noise=TABULATED)), DIFF, 2),
        ]
        default_rng = np.random.default_rng
        drawn = []

        class Counting:
            def __init__(self, seed):
                self.rng = default_rng(seed)
                self.count = 0
                drawn.append(self)

            def standard_normal(self, *args, **kwargs):
                out = self.rng.standard_normal(*args, **kwargs)
                self.count += out.size
                return out

        monkeypatch.setattr(np.random, "default_rng", Counting)
        for net, combo, jobs in cases:
            drawn.clear()
            montecarlo.cross_validate(net, combo, OMEGA, c)
            assert [g.count for g in drawn] == [c.total_samples] * jobs

    def test_plan_shorter_than_three_spans_is_refused(self):
        # a 4-sample delay and L = 12: span = 16, so T = 48 is the shortest
        # plan a tabulated input may use; a constant spectrum needs no wrap
        net = engine.compile(scenario.mz_network(tau=TAU_PI, carrier_phase=math.pi / 2,
                                                 amp=100.0, noise=TABULATED))
        with pytest.raises(MCError, match=r"needs T >= 3 \(L \+ D\) = 48 samples, got 36"):
            montecarlo.cross_validate(net, DIFF, OMEGA, cfg(segments=3, length=12))
        for noise, segments in ((TABULATED, 4), (QuadSpectrum.constant(0.617, 63.0), 3)):
            net = engine.compile(scenario.mz_network(tau=TAU_PI, carrier_phase=math.pi / 2,
                                                     amp=100.0, noise=noise))
            result = montecarlo.cross_validate(net, DIFF, OMEGA, cfg(segments=segments,
                                                                     length=12))
            assert math.isfinite(result.z)

