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

Spectra come from a Welch periodogram with a spectrum-analyzer flavour:
segment width plays the resolution bandwidth, a post-detection moving
average over segment powers emulates the video bandwidth, and a known
electronic noise floor can be subtracted in absolute power before
normalisation.  Shot-noise references are measured by re-running the same
network with vacuum inputs on an independent random substream, mirroring
how the calibration is done on the bench.
"""

from __future__ import annotations

import math
import os
import struct
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import engine
from .network import VACUUM_SPECTRUM

DELAY_TOLERANCE = 1e-6  # max |tau*f_s - round(tau*f_s)|
STREAM_MAGIC = b"SBMCS1\x00\x00"
STREAM_HEADER = "<8sdQQQ"  # magic, sample rate, detectors, samples, seed


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
        if self.window not in ("hann", "rect"):
            raise MCError("window must be 'hann' or 'rect'")

    @property
    def total_samples(self) -> int:
        return self.segment_length * self.segment_count

    @property
    def duration(self) -> float:
        return self.total_samples / self.sample_rate

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
class AnalyzerSettings:
    """Spectrum-analyzer emulation: RBW/VBW and electronic-noise handling."""

    rbw: float = 300e3
    vbw: float = 30.0
    electronic_floor: float = 0.0  # absolute bin power
    subtract_electronic: bool = False

    def __post_init__(self):
        if self.rbw <= 0 or self.vbw <= 0:
            raise MCError("RBW and VBW must be positive")
        if self.vbw > self.rbw:
            raise MCError("VBW must not exceed RBW")


@dataclass(frozen=True)
class MCEstimate:
    omega: float
    estimate: float
    stderr: float
    segments: int


@dataclass
class MCStreams:
    """Per-detector photocurrent sample streams (DC level included)."""

    sample_rate: float
    seed: int
    detector_names: tuple[str, ...]
    streams: np.ndarray  # (M, T) float64

    @property
    def length(self) -> int:
        return self.streams.shape[1]

    def combo_stream(self, net: engine.CompiledNetwork, combo) -> np.ndarray:
        weights = engine.combo_weights(net, combo)
        return weights @ self.streams


@dataclass(frozen=True)
class CrossValidation:
    omega: float
    engine_value: float
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


def _draw(seed: np.random.SeedSequence, spec, cfg: MCConfig,
          x: np.ndarray, y: np.ndarray):
    """Fill x and y with one input's quadrature samples.

    Tabulated spectra are FFT-coloured to their variance; constant spectra
    stay unit-variance white noise, their variance is folded into the taps.
    """
    rng = np.random.default_rng(seed)
    rng.standard_normal(out=x)
    rng.standard_normal(out=y)
    if spec.is_constant:
        return
    n = x.size
    omegas = 2.0 * math.pi * np.fft.rfftfreq(n, d=1.0 / cfg.sample_rate)
    for buf, variance_fn in ((x, spec.vx_at), (y, spec.vy_at)):
        shaped = np.fft.rfft(buf)
        shaped *= np.sqrt(variance_fn(omegas))
        buf[:] = np.fft.irfft(shaped, n)


def _streams(net: engine.CompiledNetwork, cfg: MCConfig, weights: np.ndarray,
             inputs, root: np.random.SeedSequence) -> np.ndarray:
    """Weighted photocurrent streams sum_k weights[r, k] n_k(t), DC included.

    Each input's taps fold into one complex coefficient per row and distinct
    delay: weights, conj(alpha_k), the tap gains and, for constant spectra,
    sqrt(V_X) and sqrt(V_Y).  Inputs are drawn on a thread pool, at most
    workers + 1 in flight in a fixed set of buffers, and the calling thread
    adds them in roster order, so the result is bit-identical for any worker
    count.
    """
    from concurrent.futures import ThreadPoolExecutor

    spectra = net.input_spectra(inputs)
    taps = expand_taps(net, cfg)
    n = cfg.total_samples
    conj_alphas = np.conj(np.array(net.carriers, dtype=complex))
    children = root.spawn(net.n_inputs)

    folded: list[dict[int, np.ndarray]] = [{} for _ in range(net.n_inputs)]
    for k, det in enumerate(taps):
        for j, d, g in det:
            d %= n  # circular shift, like a roll by d
            term = weights[:, k] * (conj_alphas[k] * g)
            folded[j][d] = folded[j].get(d, 0.0) + term
    jobs = []
    for j, spec in enumerate(spectra):
        sx, sy = ((math.sqrt(spec.vx), math.sqrt(spec.vy)) if spec.is_constant
                  else (1.0, 1.0))
        coefs = [(d, c.real * sx, -c.imag * sy)
                 for d, c in sorted(folded[j].items()) if c.any()]
        if coefs:
            jobs.append((children[j], spec, coefs))

    out = np.zeros((weights.shape[0], n))
    t, u = np.empty(n), np.empty(n)
    workers = _workers()
    # a ring of buffers: input i draws into slot i % len(ring), and input
    # i + len(ring) is submitted once input i has been added
    ring = [(np.empty(n), np.empty(n)) for _ in range(min(workers + 1, len(jobs)))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        def submit(i):
            seed, spec, _ = jobs[i]
            return pool.submit(_draw, seed, spec, cfg, *ring[i % len(ring)])

        pending = deque(submit(i) for i in range(len(ring)))
        for i, (_, _, coefs) in enumerate(jobs):
            pending.popleft().result()
            x, y = ring[i % len(ring)]
            for d, cx, cy in coefs:
                for r in range(out.shape[0]):
                    if cx[r] == 0.0 and cy[r] == 0.0:
                        continue
                    np.multiply(x, cx[r], out=t)
                    np.multiply(y, cy[r], out=u)
                    t += u
                    out[r, d:] += t[:n - d]
                    out[r, :d] += t[n - d:]
            if i + len(ring) < len(jobs):
                pending.append(submit(i + len(ring)))

    out += (weights @ np.abs(conj_alphas) ** 2)[:, None]  # DC photocurrent
    return out


def simulate(net: engine.CompiledNetwork, cfg: MCConfig, inputs=None,
             substream: np.random.SeedSequence | None = None) -> MCStreams:
    """Sample per-detector photocurrent streams; bit-reproducible per seed.

    Input generation is keyed by roster position on spawned substreams, so
    streams are independent of element evaluation order and of the number
    of threads drawing them.
    """
    root = substream if substream is not None else np.random.SeedSequence(cfg.seed)
    return MCStreams(
        sample_rate=cfg.sample_rate,
        seed=cfg.seed,
        detector_names=net.detector_names,
        streams=_streams(net, cfg, np.eye(net.n_detectors), inputs, root),
    )


# ---------------------------------------------------------------------------
# Welch periodogram with analyzer emulation

def _window(cfg: MCConfig) -> np.ndarray:
    if cfg.window == "rect":
        return np.ones(cfg.segment_length)
    return np.hanning(cfg.segment_length)


def _bin_index(omega: float, cfg: MCConfig) -> int:
    """The FFT bin of a segment nearest to omega, clamped to [0, L/2]."""
    bin_width = cfg.sample_rate / cfg.segment_length
    m = int(round(omega / (2.0 * math.pi) / bin_width))
    return min(max(m, 0), cfg.segment_length // 2)


def segment_powers(stream: np.ndarray, omega: float, settings: AnalyzerSettings,
                   cfg: MCConfig) -> np.ndarray:
    """Per-segment bin powers at omega, coherent-gain normalised.

    A sinusoid of amplitude A exactly on the bin gives A^2/2; white noise of
    variance s^2 gives s^2 / (L/2) per bin with a rectangular window.  The
    one bin is read as two real projections onto win*cos and win*sin, with
    each segment's mean removed through the kernels' sums.
    """
    length = cfg.segment_length
    f_nyq_omega = math.pi * cfg.sample_rate
    if not 0.0 <= omega < f_nyq_omega:
        raise MCError(f"frequency {omega:g} rad/s outside [0, pi*f_s)")
    bin_width = cfg.sample_rate / length
    if not 0.5 <= bin_width / settings.rbw <= 2.0:
        raise MCError(
            f"segment length {length} gives bin width {bin_width:g} Hz, "
            f"inconsistent with RBW {settings.rbw:g} Hz")
    if stream.size < cfg.total_samples:
        raise MCError(
            f"stream too short: {stream.size} < {cfg.total_samples} samples")

    m = _bin_index(omega, cfg)
    win = _window(cfg)
    angle = (2.0 * math.pi / length) * ((m * np.arange(length)) % length)
    kernel = np.stack([win * np.cos(angle), win * np.sin(angle),
                       np.full(length, 1.0 / length)], axis=1)
    segments = stream[:cfg.total_samples].reshape(cfg.segment_count, length)
    proj = segments @ kernel  # (K, 3): cos and sin projections, segment mean
    proj = proj[:, :2] - proj[:, 2:] * kernel[:, :2].sum(axis=0)
    one_sided = 2.0 if 0 < m < length // 2 else 1.0
    return one_sided * (proj ** 2).sum(axis=1) / (win.sum() ** 2)


def video_average(powers: np.ndarray, settings: AnalyzerSettings,
                  cfg: MCConfig) -> np.ndarray:
    """Moving average over segment powers emulating the VBW filter."""
    segment_rate = cfg.sample_rate / cfg.segment_length
    width = max(1, int(round(segment_rate / settings.vbw)))
    width = min(width, powers.size)
    if width == 1:
        return powers
    kernel = np.ones(width) / width
    return np.convolve(powers, kernel, mode="valid")


def periodogram(stream: np.ndarray, omega: float, settings: AnalyzerSettings,
                cfg: MCConfig) -> MCEstimate:
    """Welch-averaged bin power at omega with analyzer emulation.

    Segment powers pass through the VBW moving average and the estimate is
    the mean of that trace; for stationary input this is an unbiased bin
    power (and identical to the plain Welch mean when VBW covers the whole
    record).  The reported standard error is estimate * sqrt(1/K) for a
    complex bin (0 < m < L/2), whose power is exponentially distributed,
    and estimate * sqrt(2/K) for the real bins m = 0 and m = L/2, whose
    power is chi-squared with one degree of freedom.
    """
    powers = segment_powers(np.asarray(stream, dtype=float), omega, settings, cfg)
    if settings.subtract_electronic:
        powers = powers - settings.electronic_floor
    trace = video_average(powers, settings, cfg)
    estimate = float(trace.mean())
    m = _bin_index(omega, cfg)
    rel_var = 1.0 if 0 < m < cfg.segment_length // 2 else 2.0
    stderr = abs(estimate) * math.sqrt(rel_var / cfg.segment_count)
    return MCEstimate(omega=omega, estimate=estimate, stderr=stderr,
                      segments=cfg.segment_count)


def cross_validate(net: engine.CompiledNetwork, combo, omega: float,
                   cfg: MCConfig, settings: AnalyzerSettings | None = None,
                   inputs=None, engine_value: float | None = None) -> CrossValidation:
    """Compare the engine's normalised spectrum against a Monte-Carlo run.

    The Monte-Carlo value is the ratio of the signal-run bin power to a
    vacuum-input re-run on an independent substream; z is the discrepancy in
    combined standard errors.  The requested frequency snaps to the nearest
    FFT bin and the engine reference is evaluated there, so both sides see
    the same sideband.  Only the combo's stream is accumulated, one per run.
    engine_value can be overridden to test deliberate mismatches.
    """
    cfg.check_frequency(omega)
    if settings is None:
        settings = AnalyzerSettings(rbw=cfg.sample_rate / cfg.segment_length,
                                    vbw=cfg.sample_rate / cfg.segment_length)
    omega = 2.0 * math.pi * _bin_index(omega, cfg) * (cfg.sample_rate / cfg.segment_length)
    signal_ss, vacuum_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    weights = engine.combo_weights(net, combo)[None, :]

    est_sig = periodogram(_streams(net, cfg, weights, inputs, signal_ss)[0],
                          omega, settings, cfg)
    est_vac = periodogram(_streams(net, cfg, weights, [VACUUM_SPECTRUM] * net.n_inputs,
                                   vacuum_ss)[0], omega, settings, cfg)
    if est_vac.estimate <= 0.0:
        raise MCError("vacuum reference power is not positive; no carrier in combo?")

    mc_value = est_sig.estimate / est_vac.estimate
    rel = math.sqrt((est_sig.stderr / est_sig.estimate) ** 2
                    + (est_vac.stderr / est_vac.estimate) ** 2)
    stderr = abs(mc_value) * rel
    if engine_value is None:
        engine_value = engine.spectrum(net, combo, omega, inputs=inputs).normalized
    z = (mc_value - engine_value) / stderr
    return CrossValidation(omega=omega, engine_value=float(engine_value),
                           mc_value=mc_value, stderr=stderr, z=float(z),
                           segments=cfg.segment_count)


# ---------------------------------------------------------------------------
# Stream dumps: little-endian float64 with a fixed binary header

def dump_streams(path, mc: MCStreams):
    bad = [name for name in mc.detector_names if "," in name]
    if bad:
        raise MCError(f"detector names {bad} contain a comma and cannot be loaded back")
    header = struct.pack(STREAM_HEADER, STREAM_MAGIC, mc.sample_rate,
                         len(mc.detector_names), mc.length, mc.seed)
    names = ",".join(mc.detector_names).encode()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(struct.pack("<Q", len(names)))
        fh.write(names)
        fh.write(mc.streams.astype("<f8").tobytes())


def load_streams(path) -> MCStreams:
    head_size = struct.calcsize(STREAM_HEADER) + 8  # fixed header + name length
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(head_size)
        if head[:8] != STREAM_MAGIC:
            raise MCError(f"not a stream dump: bad magic {head[:8]!r}")
        if len(head) < head_size:
            raise MCError(f"truncated stream dump: {size} bytes, header needs {head_size}")
        magic, f_s, m, length, seed, name_len = struct.unpack(STREAM_HEADER + "Q", head)
        expected = head_size + name_len + 8 * m * length
        if size != expected:
            raise MCError(f"truncated or over-long stream dump: {size} bytes, "
                          f"its header describes {expected}")
        names = tuple(fh.read(name_len).decode().split(",")) if m else ()
        if len(names) != m:
            raise MCError(f"stream dump names {len(names)} detectors for {m} streams")
        data = np.frombuffer(fh.read(8 * m * length), dtype="<f8").reshape(m, length)
    return MCStreams(sample_rate=f_s, seed=seed, detector_names=names,
                     streams=data.copy())
