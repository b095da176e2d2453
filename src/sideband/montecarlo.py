"""Time-domain stochastic oracle for the frequency-domain engine.

Each network input carries independent stationary Gaussian quadrature
processes X(t), Y(t) with the variances of its QuadSpectrum (white across
the band, or shaped by FFT coloring for tabulated spectra, with vacuum
variance 1 per sample).  The compiled pipeline is expanded into delay taps
per detector by applying each step's linear map -- its gains, and a shift
by its delay tau in samples -- the same maps the frequency-domain engine
walks.  Photocurrent fluctuations are
dn_k(t) = 2 Re(conj(alpha_k) sum taps), sampled at a rate that makes every
delay a whole number of samples, on circular streams of T = K L samples.

Spectra come from a Welch periodogram read at one FFT bin: the mean of the
segments' bin powers, at a resolution of one bin width f_s / L.  A
segment's bin is its projection onto one kernel of L samples, and
projection is linear, so no photocurrent stream is built: each input is
projected onto the kernel as it is drawn, and a row's segment projections
are the sum of its inputs' projections, shifted by the tap delays and
weighted by the tap coefficients.  The shot-noise reference is a second row
accumulated from the same draws with every input at vacuum variance, so the
signal and vacuum bin powers share their randomness and their ratio is a
low-variance estimate.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from . import engine
from .network import QuadSpectrum

DELAY_TOLERANCE = 1e-6  # max |tau*f_s - round(tau*f_s)|

#: the most samples a sampling plan may hold, 8x the acceptance plan's
#: 512 x 4096: a tabulated input's float64 stream is then 128 MiB, and a run
#: holds one at a time, plus its FFT temporaries; constant-spectrum inputs
#: are drawn a block at a time, and a row is K x 2 projections
MAX_TOTAL_SAMPLES = 2 ** 24

#: samples per block of an input's draws, rounded down to whole segments:
#: a block stays in cache while it is projected at every lag its taps need
CHUNK = 2 ** 14


class MCError(ValueError):
    pass


@dataclass(frozen=True)
class MCConfig:
    """Sampling plan for the time-domain oracle."""

    sample_rate: float
    seed: int
    segment_length: int = 512
    segment_count: int = 4096
    window: str = "hann"

    def __post_init__(self):
        if not 0.0 < self.sample_rate < math.inf:
            raise MCError("sample rate must be finite and positive")
        if self.segment_length < 8 or self.segment_count < 2:
            raise MCError("need segment_length >= 8 and segment_count >= 2")
        if self.total_samples > MAX_TOTAL_SAMPLES:
            raise MCError(f"sampling plan of {self.total_samples} samples exceeds "
                          f"{MAX_TOTAL_SAMPLES}")
        if self.window not in ("hann", "rect"):
            raise MCError("window must be 'hann' or 'rect'")

    @property
    def total_samples(self) -> int:
        return self.segment_length * self.segment_count

    def check_frequency(self, omega: float):
        if not 0.0 <= omega:
            raise MCError("measurement frequency must be >= 0")
        if omega * 4.0 > 2.0 * math.pi * self.sample_rate:
            raise MCError(
                f"sample rate {self.sample_rate:g} Hz too low: need "
                f"f_s > 4 * measurement frequency")
        if omega > 0.0 and _bin_index(omega, self) == 0:
            raise MCError(f"measurement frequency {omega / (2.0 * math.pi):g} Hz "
                          f"snaps to 0 Hz: bin width f_s/L = "
                          f"{self.sample_rate / self.segment_length:g} Hz")

    def delay_samples(self, tau: float) -> int:
        exact = tau * self.sample_rate
        if not abs(exact) < 2.0 ** 53:  # every double is an integer from here on
            raise MCError(f"delay {tau:g} s is {exact:.3g} samples at "
                          f"f_s = {self.sample_rate:g} Hz, more than 2^53")
        nearest = round(exact)
        if abs(exact - nearest) > DELAY_TOLERANCE:
            raise MCError(
                f"delay {tau:g} s is not an integer number of samples at "
                f"f_s = {self.sample_rate:g} Hz (off by {abs(exact - nearest):.3g})")
        return int(nearest)


@dataclass(frozen=True)
class MCEstimate:
    estimate: float
    powers: np.ndarray = field(repr=False, compare=False)  # (K,) segment powers


@dataclass
class MCStreams:
    """Per-detector rows, such as segment projections flattened, and their
    combination for a combo.  Only the tests build these rows; the class is
    kept for ``bench/spans.py``, which wraps ``combo_stream`` by attribute
    (pinned by ``tests/test_bench_trace.py``), until the tracer wraps
    _streams."""

    streams: np.ndarray  # (M, ...) float64, rows in net.detector_names order

    def combo_stream(self, net: engine.CompiledNetwork, combo) -> np.ndarray:
        weights = engine.combo_weights(net, combo)
        return weights @ self.streams


@dataclass(frozen=True)
class CrossValidation:
    omega: float
    engine_value: float
    reference: float
    mc_value: float
    stderr: float
    z: float
    segments: int

    @property
    def passed(self) -> bool:
        return abs(self.z) <= 3.0

    def as_json_dict(self) -> dict:
        return {
            "omega_rad_s": self.omega,
            "frequency_hz": self.omega / (2.0 * math.pi),
            "engine": self.engine_value,
            "reference": self.reference,
            "monte_carlo": self.mc_value,
            "stderr": self.stderr,
            "z": self.z,
            "segments": self.segments,
            "passed": self.passed,
        }


# ---------------------------------------------------------------------------
# Pipeline expansion into delay taps

def expand_taps(net: engine.CompiledNetwork, cfg: MCConfig) -> list[list[tuple[int, int, complex]]]:
    """Per-detector tap lists (roster index, delay in samples, complex gain).

    Applies each compiled step's gains and delay, the same linear maps the
    frequency-domain engine walks, so both views share one statement of the
    element physics.
    """
    taps = {entry.name: {(j, 0): 1.0 + 0j} for j, entry in enumerate(net.roster)}
    for st in net.steps:
        shift = cfg.delay_samples(st.tau)
        for port, row in zip(st.out_ports, st.gains):
            out: dict[tuple[int, int], complex] = {}
            for src, gain in zip(st.in_ports, row):
                for (j, d), g in taps[src].items():
                    key = (j, d + shift)
                    out[key] = out.get(key, 0j) + g * gain
            taps[port] = out

    out = []
    for port in net.detector_ports:
        out.append([(j, d, g) for (j, d), g in sorted(taps[port].items(),
                                                      key=lambda kv: kv[0])])
    return out


def _workers() -> int:
    """Threads that draw constant-spectrum inputs: one per core this process
    may use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _project(fill, lags, basis: np.ndarray, count: int) -> np.ndarray:
    """Project a circular stream of ``count`` segments onto ``basis``, the
    (L, 2) real and imaginary parts of the segment kernel, at every lag in
    ``lags`` (each in [0, L)): [i, k] is the projection of the L samples
    that start lags[i] samples before segment k.

    ``fill(block, start)`` writes the stream's samples from ``start`` on
    into ``block``.  It is called in stream order, CHUNK samples rounded
    down to whole segments (at least one) at a time, and a block stays in
    cache while it is projected at every lag.  Segment 0's windows wrap
    round, so they are joined at the end from the stream's last and first
    samples.
    """
    length = basis.shape[0]
    step = max(1, CHUNK // length)  # segments per block
    buf = np.zeros((step + 1) * length)  # the previous block's last segment, then a block
    out = np.empty((len(lags), count, 2))
    for k0 in range(0, count, step):
        size = (min(k0 + step, count) - k0) * length
        fill(buf[length:length + size], k0 * length)
        if k0 == 0:
            head = buf[length:2 * length].copy()
        for i, r in enumerate(lags):
            out[i, k0:k0 + size // length] = (
                buf[length - r:length - r + size].reshape(-1, length) @ basis)
        buf[:length] = buf[size:size + length]
    buf[length:2 * length] = head
    for i, r in enumerate(lags):
        out[i, 0] = buf[length - r:2 * length - r] @ basis
    return out


def _white(seed: np.random.SeedSequence, lags, basis: np.ndarray, count: int) -> np.ndarray:
    """One input's unit-variance X and Y streams, drawn on its substream a
    block at a time and projected as drawn: (2, len(lags), K, 2)."""
    rng = np.random.default_rng(seed)
    return np.stack([_project(lambda block, _: rng.standard_normal(out=block),
                              lags, basis, count) for _ in range(2)])


def _coloured(seed: np.random.SeedSequence, spec: QuadSpectrum, lags, basis: np.ndarray,
              cfg: MCConfig) -> tuple[np.ndarray, np.ndarray]:
    """A tabulated input's projections before and after FFT colouring to
    its spectrum's variances, each (2, len(lags), K, 2).  X, then Y, is
    drawn whole on the input's substream, projected, coloured and projected
    again; one stream is held at a time."""
    def project(stream):
        return _project(lambda block, at: np.copyto(block, stream[at:at + block.size]),
                        lags, basis, cfg.segment_count)

    rng = np.random.default_rng(seed)
    n = cfg.total_samples
    white, coloured = [], []
    for variance_fn in (spec.vx_at, spec.vy_at):
        stream = rng.standard_normal(n)
        white.append(project(stream))
        shaped = np.fft.rfft(stream)
        del stream
        shaped *= np.sqrt(variance_fn(
            2.0 * math.pi * np.fft.rfftfreq(n, d=1.0 / cfg.sample_rate)))
        stream = np.fft.irfft(shaped, n)
        del shaped
        coloured.append(project(stream))
    return np.stack(white), np.stack(coloured)


def _streams(net: engine.CompiledNetwork, cfg: MCConfig, taps, weights: np.ndarray,
             root: np.random.SeedSequence, omega: float) -> np.ndarray:
    """Segment projections of the combo's photocurrent fluctuations
    sum_k weights[k] dn_k(t), no DC, onto omega's bin kernel: (2, K, 2),
    the signal row, then the vacuum row (every input at vacuum variance);
    [r, k] is segment k's projection onto the real and imaginary parts of
    the kernel.  No stream of a row is built.

    Each roster input carries its own noise, drawn on the substream of its
    roster position.  ``taps`` are :func:`expand_taps` of ``net``; an input's
    taps fold into one complex coefficient c per distinct delay d (mod T):
    weights, conj(alpha_k) and the tap gains.  Projection is linear, so a
    tap adds Re(c) times the input's X projections and -Im(c) times its Y
    projections, at lag d mod L, rolled by d // L segments.  Both rows use
    one rule: coefficient times scale times projections.  The vacuum row
    reads the white projections at scale 1; the signal row reads a constant
    spectrum's white projections at scale (sqrt(V_X), sqrt(V_Y)), and a
    tabulated one's coloured projections at scale 1.

    Constant-spectrum inputs are drawn and projected on a thread pool, a
    block at a time, at most workers + 1 inputs in flight.  Tabulated inputs
    are drawn, coloured and projected on the calling thread, one stream at
    a time: freed on a draw thread, the colouring's FFT temporaries (16 MiB
    at 2^21 samples) would stay in that thread's malloc arena for as long
    as thread timing decides, and peak memory would vary from run to run.
    The calling thread adds the inputs in roster order, so the result is
    bit-identical for any worker count.
    """
    from concurrent.futures import ThreadPoolExecutor

    n, length, count = cfg.total_samples, cfg.segment_length, cfg.segment_count
    kernel = _kernel(omega, cfg)
    basis = np.stack([kernel.real, kernel.imag], axis=1)
    conj_alphas = np.conj(np.array(net.carriers, dtype=complex))
    children = root.spawn(net.n_inputs)

    folded: list[dict[int, complex]] = [{} for _ in range(net.n_inputs)]
    for k, det in enumerate(taps):
        for j, d, g in det:
            d %= n  # circular shift, like a roll by d
            folded[j][d] = folded[j].get(d, 0j) + weights[k] * (conj_alphas[k] * g)

    jobs = []  # (substream, spectrum, lags, (delay, coefficient) terms)
    for j, entry in enumerate(net.roster):
        terms = [(d, c) for d, c in sorted(folded[j].items()) if c]
        if terms:
            jobs.append((children[j], entry.noise, sorted({d % length for d, _ in terms}),
                         terms))

    out = np.zeros((2, count, 2))
    workers = _workers()
    queue = iter([(seed, lags) for seed, spec, lags, _ in jobs if spec.is_constant])
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()

        def top_up():
            for seed, lags in itertools.islice(queue, workers + 1 - len(pending)):
                pending.append(pool.submit(_white, seed, lags, basis, count))

        top_up()
        for seed, spec, lags, terms in jobs:
            if spec.is_constant:
                white = signal = pending.popleft().result()
                top_up()
                scale = (math.sqrt(spec.vx), math.sqrt(spec.vy))
            else:
                white, signal = _coloured(seed, spec, lags, basis, cfg)
                scale = (1.0, 1.0)
            position = {lag: i for i, lag in enumerate(lags)}
            for d, c in terms:
                i, shift = position[d % length], d // length
                cx, cy = c.real, -c.imag  # coefficients of X and Y
                for row, projections, (sx, sy) in ((out[0], signal, scale),
                                                   (out[1], white, (1.0, 1.0))):
                    x, y = projections[:, i]
                    row += ((cx * sx) * np.roll(x, shift, axis=0)
                            + (cy * sy) * np.roll(y, shift, axis=0))
    return out


# ---------------------------------------------------------------------------
# Welch periodogram at one bin

def _window(cfg: MCConfig) -> np.ndarray:
    if cfg.window == "rect":
        return np.ones(cfg.segment_length)
    return np.hanning(cfg.segment_length)


def _bin_index(omega: float, cfg: MCConfig) -> int:
    """The FFT bin of a segment nearest to omega, clamped to [0, L/2]."""
    bin_width = cfg.sample_rate / cfg.segment_length
    m = int(round(omega / (2.0 * math.pi) / bin_width))
    return min(max(m, 0), cfg.segment_length // 2)


def _real_bin(m: int, length: int) -> bool:
    """True for the bins whose DFT of a real segment is real: m = 0, and
    m = L/2 when L is even.  An odd L's top bin, (L - 1)/2, is complex."""
    return m == 0 or 2 * m == length


def _kernel(omega: float, cfg: MCConfig) -> np.ndarray:
    """A segment's effective bin kernel: the window times the bin phasor,
    less its mean, so that projecting a segment on it also removes the
    segment's mean."""
    length = cfg.segment_length
    angle = (2.0 * math.pi / length) * ((_bin_index(omega, cfg) * np.arange(length))
                                        % length)
    kernel = _window(cfg) * (np.cos(angle) + 1j * np.sin(angle))
    return kernel - kernel.mean()


def segment_powers(projections: np.ndarray, omega: float, cfg: MCConfig) -> np.ndarray:
    """Per-segment bin powers at omega, coherent-gain normalised, from the
    (K, 2) projections of the segments onto the real and imaginary parts of
    the segment kernel (see :func:`_kernel`), which also remove each
    segment's mean.

    A sinusoid of amplitude A exactly on the bin gives A^2/2; white noise of
    variance s^2 gives s^2 / (L/2) per bin with a rectangular window.
    """
    f_nyq_omega = math.pi * cfg.sample_rate
    if not 0.0 <= omega < f_nyq_omega:
        raise MCError(f"frequency {omega:g} rad/s outside [0, pi*f_s)")
    if projections.shape != (cfg.segment_count, 2):
        raise MCError(f"need ({cfg.segment_count}, 2) segment projections, "
                      f"got {projections.shape}")
    one_sided = 1.0 if _real_bin(_bin_index(omega, cfg), cfg.segment_length) else 2.0
    return one_sided * (projections ** 2).sum(axis=1) / (_window(cfg).sum() ** 2)


def periodogram(projections: np.ndarray, omega: float, cfg: MCConfig) -> MCEstimate:
    """Welch-averaged bin power at omega, from the (K, 2) segment
    projections of :func:`segment_powers`.

    The estimate is the mean of the K segment powers, an unbiased bin power
    for stationary input; the powers are returned too, for the error of a
    ratio of two rows (see :func:`cross_validate`).
    """
    powers = segment_powers(np.asarray(projections, dtype=float), omega, cfg)
    return MCEstimate(estimate=float(powers.mean()), powers=powers)


def _window_reference(net: engine.CompiledNetwork, combo, omega: float, cfg: MCConfig,
                      max_delay: int) -> float:
    """The engine's expectation of the Monte-Carlo ratio at omega's bin.

    A segment's bin power averages the spectrum through the segment kernel
    K: its mean is proportional to sum_j S(w_j) |K(w_j)|^2 over a grid of
    N >= L + D points, D the longest tap delay in samples, on which the
    kernel's lag products do not alias onto the stream's correlations.  The
    reference is that sum with the engine's absolute spectrum over the same
    sum with its shot-noise spectrum; the spectra are even in w, so one
    engine sweep covers the half grid and the kernel's response is folded
    onto it.  A grid of more than T = K L points is never needed: the
    streams are circular with period T, and on T points the sum is exact.
    A tabulated input's stream is correlated at every lag, so no such grid
    is exact for it; on N = 2 (L + D) points the engine reads it through
    :func:`_seen_spectrum`, which keeps the lags the kernel meets.
    NaN when no carrier reaches the combo.
    """
    span = cfg.segment_length + max_delay
    tabulated = any(not e.noise.is_constant for e in net.roster)
    size = min(2 * span if tabulated else span, cfg.total_samples)
    gain = np.abs(np.fft.fft(_kernel(omega, cfg), size)) ** 2
    folded = gain[:size // 2 + 1].copy()
    folded[1:(size + 1) // 2] += gain[size - 1:size // 2:-1]
    omegas = 2.0 * math.pi * cfg.sample_rate / size * np.arange(folded.size)
    if size < cfg.total_samples and tabulated:
        net = replace(net, roster=tuple(
            e if e.noise.is_constant else replace(e, noise=_seen_spectrum(
                e.noise, cfg.sample_rate, cfg.total_samples, span))
            for e in net.roster))
    sweep = engine.sweep(net, combo, omegas)
    snl = float(sweep.snl @ folded)
    return float(sweep.absolute @ folded) / snl if snl > 0.0 else math.nan


@functools.lru_cache(maxsize=32)
def _seen_spectrum(noise: QuadSpectrum, sample_rate: float, n: int,
                   span: int) -> QuadSpectrum:
    """The spectrum of a tabulated input's coloured stream of n samples with
    its correlations beyond lag ``span`` - 1 cut, on the grid of 2 ``span``
    points.  A kernel of ``span`` samples meets no other lag, so a sum over
    that grid with this spectrum equals the sum over the stream's own n
    points with ``noise``.  Cached: runs that differ only in their seed
    share it."""
    tables = []
    for variance_fn in (noise.vx_at, noise.vy_at):
        # the grid is built per table and the slice copied, so no n-point
        # array outlives the FFT that reads it
        lags = np.fft.irfft(variance_fn(
            2.0 * math.pi * np.fft.rfftfreq(n, d=1.0 / sample_rate)), n)[:span].copy()
        tables.append(np.fft.rfft(np.concatenate([lags, [0.0], lags[:0:-1]])).real)
    try:
        return QuadSpectrum.tabulated(np.pi * sample_rate / span * np.arange(span + 1),
                                      *tables)
    except ValueError:  # a variance that is not positive
        raise MCError(f"tabulated spectrum changes too sharply within a bin of "
                      f"{span} samples for the window reference") from None


#: relative floor of the ratio's standard error: a ratio of float sums is
#: known no better than this, even where the delta-method error vanishes
#: (every input at vacuum variance makes the two rows identical)
RATIO_RESOLUTION = 1e-12


def cross_validate(net: engine.CompiledNetwork, combo, omega: float,
                   cfg: MCConfig,
                   reference: engine.CompiledNetwork | None = None) -> CrossValidation:
    """Compare the engine's normalised spectrum against a Monte-Carlo run.

    One pass over the inputs' draws builds the combo's signal row and its
    vacuum row (every input at unit variance), so both share their
    randomness.  The Monte-Carlo value is the ratio of their mean bin powers;
    its standard error is the delta-method error of that ratio, from the
    per-segment variances of both rows and their covariance.  z is the
    discrepancy from :func:`_window_reference`, the engine's expectation of
    the ratio, in standard errors.  The requested frequency snaps to the
    nearest FFT bin and the engine is evaluated there, so both sides see the
    same sideband.  The engine side reads ``reference`` (default ``net``): a
    different network there tests a deliberate mismatch.
    """
    cfg.check_frequency(omega)
    omega = 2.0 * math.pi * _bin_index(omega, cfg) * (cfg.sample_rate / cfg.segment_length)
    # the seed's first child, as in earlier versions: a seed draws the same
    # signal inputs
    signal_ss = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    weights = engine.combo_weights(net, combo)
    taps = expand_taps(net, cfg)

    signal_row, vacuum_row = _streams(net, cfg, taps, weights, signal_ss, omega)
    est_sig = periodogram(signal_row, omega, cfg)
    est_vac = periodogram(vacuum_row, omega, cfg)
    if est_vac.estimate <= 0.0:
        raise MCError("vacuum reference power is not positive; no carrier in combo?")

    mc_value = est_sig.estimate / est_vac.estimate
    # relative deviations keep the covariance finite however bright the carrier
    cov = np.cov(est_sig.powers / est_sig.estimate, est_vac.powers / est_vac.estimate)
    rel_var = (cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1]) / cfg.segment_count
    stderr = abs(mc_value) * max(math.sqrt(max(rel_var, 0.0)), RATIO_RESOLUTION)

    engine_net = net if reference is None else reference
    engine_value = engine.spectrum(engine_net, combo, omega).normalized
    expected = _window_reference(engine_net, combo, omega, cfg,
                                max(d for det in taps for _, d, _ in det))
    z = (mc_value - expected) / stderr
    return CrossValidation(omega=omega, engine_value=float(engine_value),
                           reference=expected, mc_value=mc_value, stderr=stderr,
                           z=float(z), segments=cfg.segment_count)
