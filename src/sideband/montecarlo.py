"""Time-domain stochastic oracle for the frequency-domain engine.

Each network input carries independent stationary Gaussian quadrature
processes X(t), Y(t) with the variances of its QuadSpectrum (white across
the band, or shaped by FFT coloring for tabulated spectra, with vacuum
variance 1 per sample).  The compiled pipeline is expanded into delay taps
per detector by applying each step's linear map -- its gains, and a shift
by its delay tau in samples -- the same maps the frequency-domain engine
walks.  Photocurrent fluctuation streams are
dn_k(t) = 2 Re(conj(alpha_k) sum taps), sampled at a rate that makes every
delay a whole number of samples (circular-buffer shifts).

Spectra come from a Welch periodogram read at one FFT bin: the mean of the
segments' bin powers, at a resolution of one bin width f_s / L.  The
shot-noise reference is a second row accumulated from the same draws with
every input at vacuum variance, so the signal and vacuum bin powers share
their randomness and their ratio is a low-variance estimate.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from . import engine
from .network import QuadSpectrum

DELAY_TOLERANCE = 1e-6  # max |tau*f_s - round(tau*f_s)|

#: the most samples a sampling plan may hold, 8x the acceptance plan's
#: 512 x 4096: a float64 stream buffer is then 128 MiB, and a run holds two
#: per drawing thread plus one per output row
MAX_TOTAL_SAMPLES = 2 ** 24

#: output samples per block of tap accumulation: a block of each row and of
#: the shifted inputs stays in cache while every tap of an input is added
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

    def delay_samples(self, tau: float) -> int:
        exact = tau * self.sample_rate
        nearest = round(exact)
        if abs(exact - nearest) > DELAY_TOLERANCE:
            raise MCError(
                f"delay {tau:g} s is not an integer number of samples at "
                f"f_s = {self.sample_rate:g} Hz (off by {abs(exact - nearest):.3g})")
        return int(nearest)


@dataclass(frozen=True)
class MCEstimate:
    omega: float
    estimate: float
    stderr: float
    segments: int
    powers: np.ndarray = field(repr=False, compare=False)  # (K,) segment powers


@dataclass
class MCStreams:
    """Per-detector photocurrent sample streams (DC level included)."""

    streams: np.ndarray  # (M, T) float64, rows in net.detector_names order

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
    """Threads that draw input streams: one per core this process may use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _draw(seed: np.random.SeedSequence, x: np.ndarray, y: np.ndarray):
    """Fill x and y with one input's unit-variance white noise."""
    rng = np.random.default_rng(seed)
    rng.standard_normal(out=x)
    rng.standard_normal(out=y)


def _colour(spec, cfg: MCConfig, x: np.ndarray, y: np.ndarray):
    """FFT-colour white x and y in place to a tabulated spectrum's variances."""
    n = x.size
    omegas = 2.0 * math.pi * np.fft.rfftfreq(n, d=1.0 / cfg.sample_rate)
    for buf, variance_fn in ((x, spec.vx_at), (y, spec.vy_at)):
        shaped = np.fft.rfft(buf)
        shaped *= np.sqrt(variance_fn(omegas))
        buf[:] = np.fft.irfft(shaped, n)


def _accumulate(out: np.ndarray, x: np.ndarray, y: np.ndarray, coefs):
    """out[r, i] += cx[r] x[i - d] + cy[r] y[i - d], indices mod n, for every
    (d, cx, cy) in ``coefs``; rows whose cx and cy are both 0 are skipped.

    The output is walked in blocks of CHUNK samples, every tap of a block
    before the next, with block-sized temporaries.  Each element gets the
    same operations in the same order as adding whole shifted rows would
    (taps in ``coefs`` order), so the sums do not depend on the block size.
    """
    n = x.size
    t, u = np.empty(CHUNK), np.empty(CHUNK)
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        for d, cx, cy in coefs:
            # outputs below d read the end of the inputs: a circular shift
            for a, b in ((lo, min(hi, d)), (max(lo, d), hi)):
                if a >= b:
                    continue
                src = (a - d) % n
                xs, ys = x[src:src + b - a], y[src:src + b - a]
                ts, us = t[:b - a], u[:b - a]
                for r in range(out.shape[0]):
                    if cx[r] == 0.0 and cy[r] == 0.0:
                        continue
                    np.multiply(xs, cx[r], out=ts)
                    np.multiply(ys, cy[r], out=us)
                    ts += us
                    out[r, a:b] += ts


def _streams(net: engine.CompiledNetwork, cfg: MCConfig, taps, weights: np.ndarray,
             root: np.random.SeedSequence, paired: bool = False) -> np.ndarray:
    """Weighted photocurrent fluctuations sum_k weights[r, k] dn_k(t), no DC.

    Each roster input carries its own noise.  ``taps`` are
    :func:`expand_taps` of ``net``; an input's taps fold into one complex
    coefficient per row and distinct delay: weights, conj(alpha_k), the tap
    gains and, for constant spectra, sqrt(V_X) and sqrt(V_Y).  ``paired``
    appends one more row per weight row: the same weights with every input
    at vacuum variance, added from the same white draws before a tabulated
    input is coloured.  Inputs
    are drawn on a thread pool, at most workers + 1 in flight in a fixed set
    of buffers, and the calling thread adds them in roster order, so the
    result is bit-identical for any worker count.  The calling thread also
    colours tabulated inputs: freed on a draw thread, the colouring's FFT
    temporaries (16 MiB at 2^21 samples) stay in that thread's malloc arena
    for as long as thread timing decides, and peak memory would vary from run
    to run.
    """
    from concurrent.futures import ThreadPoolExecutor

    n = cfg.total_samples
    conj_alphas = np.conj(np.array(net.carriers, dtype=complex))
    children = root.spawn(net.n_inputs)

    folded: list[dict[int, np.ndarray]] = [{} for _ in range(net.n_inputs)]
    for k, det in enumerate(taps):
        for j, d, g in det:
            d %= n  # circular shift, like a roll by d
            term = weights[:, k] * (conj_alphas[k] * g)
            folded[j][d] = folded[j].get(d, 0.0) + term
    blank = np.zeros(weights.shape[0])

    def over_rows(signal, vacuum):
        return np.concatenate([signal, vacuum]) if paired else signal

    jobs = []  # (substream, spectrum, taps on the white draws, taps after colouring)
    for j, entry in enumerate(net.roster):
        spec = entry.noise
        sx, sy = ((math.sqrt(spec.vx), math.sqrt(spec.vy)) if spec.is_constant
                  else (1.0, 1.0))
        white, coloured = [], []
        for d, c in sorted(folded[j].items()):
            if not c.any():
                continue
            signal, vacuum = (c.real * sx, -c.imag * sy), (c.real, -c.imag)
            if spec.is_constant:
                white.append((d, *map(over_rows, signal, vacuum)))
            else:
                coloured.append((d, *(over_rows(s, blank) for s in signal)))
                if paired:
                    white.append((d, *(over_rows(blank, v) for v in vacuum)))
        if white or coloured:
            jobs.append((children[j], spec, white, coloured))

    out = np.zeros(((2 if paired else 1) * weights.shape[0], n))
    workers = _workers()
    # a ring of buffers: input i draws into slot i % len(ring), and input
    # i + len(ring) is submitted once input i has been added
    ring = [(np.empty(n), np.empty(n)) for _ in range(min(workers + 1, len(jobs)))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        def submit(i):
            return pool.submit(_draw, jobs[i][0], *ring[i % len(ring)])

        pending = deque(submit(i) for i in range(len(ring)))
        for i, (_, spec, white, coloured) in enumerate(jobs):
            pending.popleft().result()
            x, y = ring[i % len(ring)]
            _accumulate(out, x, y, white)
            if coloured:
                _colour(spec, cfg, x, y)
                _accumulate(out, x, y, coloured)
            if i + len(ring) < len(jobs):
                pending.append(submit(i + len(ring)))
    return out


def simulate(net: engine.CompiledNetwork, cfg: MCConfig) -> MCStreams:
    """Sample per-detector photocurrent streams; bit-reproducible per seed.

    Each roster entry carries its own noise.  Input generation is keyed by
    roster position on spawned substreams, so streams are independent of
    element evaluation order and of the number of threads drawing them.
    """
    streams = _streams(net, cfg, expand_taps(net, cfg), np.eye(net.n_detectors),
                       np.random.SeedSequence(cfg.seed))
    streams += (np.abs(net.carriers) ** 2)[:, None]  # DC photocurrent
    return MCStreams(streams)


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


def segment_powers(stream: np.ndarray, omega: float, cfg: MCConfig) -> np.ndarray:
    """Per-segment bin powers at omega, coherent-gain normalised.

    A sinusoid of amplitude A exactly on the bin gives A^2/2; white noise of
    variance s^2 gives s^2 / (L/2) per bin with a rectangular window.  The
    one bin is read as two real projections, on the real and imaginary parts
    of the segment kernel, which also remove each segment's mean.
    """
    length = cfg.segment_length
    f_nyq_omega = math.pi * cfg.sample_rate
    if not 0.0 <= omega < f_nyq_omega:
        raise MCError(f"frequency {omega:g} rad/s outside [0, pi*f_s)")
    if stream.size < cfg.total_samples:
        raise MCError(
            f"stream too short: {stream.size} < {cfg.total_samples} samples")

    m = _bin_index(omega, cfg)
    kernel = _kernel(omega, cfg)
    segments = stream[:cfg.total_samples].reshape(cfg.segment_count, length)
    proj = segments @ np.stack([kernel.real, kernel.imag], axis=1)  # (K, 2)
    one_sided = 1.0 if _real_bin(m, length) else 2.0
    return one_sided * (proj ** 2).sum(axis=1) / (_window(cfg).sum() ** 2)


def periodogram(stream: np.ndarray, omega: float, cfg: MCConfig) -> MCEstimate:
    """Welch-averaged bin power at omega.

    The estimate is the mean of the K segment powers, an unbiased bin power
    for stationary input.  The reported standard error is estimate * sqrt(1/K) for a
    complex bin, whose power is exponentially distributed, and
    estimate * sqrt(2/K) for a real bin (see :func:`_real_bin`), whose
    power is chi-squared with one degree of freedom.
    """
    powers = segment_powers(np.asarray(stream, dtype=float), omega, cfg)
    estimate = float(powers.mean())
    rel_var = 2.0 if _real_bin(_bin_index(omega, cfg), cfg.segment_length) else 1.0
    stderr = abs(estimate) * math.sqrt(rel_var / cfg.segment_count)
    return MCEstimate(omega=omega, estimate=estimate, stderr=stderr,
                      segments=cfg.segment_count, powers=powers)


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
    stream_omegas = 2.0 * math.pi * np.fft.rfftfreq(n, d=1.0 / sample_rate)
    tables = []
    for variance_fn in (noise.vx_at, noise.vy_at):
        lags = np.fft.irfft(variance_fn(stream_omegas), n)[:span]
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
    weights = engine.combo_weights(net, combo)[None, :]
    taps = expand_taps(net, cfg)

    signal_row, vacuum_row = _streams(net, cfg, taps, weights, signal_ss, paired=True)
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
