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
segments' bin powers, at a resolution of one bin width f_s / L.  Shot-noise
references are measured by re-running the same network with vacuum inputs
on an independent random substream, mirroring how the calibration is done
on the bench.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import engine
from .network import VACUUM_SPECTRUM

DELAY_TOLERANCE = 1e-6  # max |tau*f_s - round(tau*f_s)|

#: the most samples a sampling plan may hold, 8x the acceptance plan's
#: 512 x 4096: a float64 stream buffer is then 128 MiB, and a run holds two
#: per drawing thread plus a few more
MAX_TOTAL_SAMPLES = 2 ** 24


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


def _streams(net: engine.CompiledNetwork, cfg: MCConfig, weights: np.ndarray,
             spectra, root: np.random.SeedSequence) -> np.ndarray:
    """Weighted photocurrent streams sum_k weights[r, k] n_k(t), DC included.

    ``spectra`` holds one QuadSpectrum per roster entry: the roster's noise
    for a signal run, all vacuum for a shot-noise reference.  Each input's
    taps fold into one complex coefficient per row and distinct delay:
    weights, conj(alpha_k), the tap gains and, for constant spectra,
    sqrt(V_X) and sqrt(V_Y).  Inputs are drawn on a thread pool, at most
    workers + 1 in flight in a fixed set of buffers, and the calling thread
    adds them in roster order, so the result is bit-identical for any worker
    count.  The calling thread also colours tabulated inputs: freed on a draw
    thread, the colouring's FFT temporaries (16 MiB at 2^21 samples) stay in
    that thread's malloc arena for as long as thread timing decides, and peak
    memory would vary from run to run.
    """
    from concurrent.futures import ThreadPoolExecutor

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
            return pool.submit(_draw, jobs[i][0], *ring[i % len(ring)])

        pending = deque(submit(i) for i in range(len(ring)))
        for i, (_, spec, coefs) in enumerate(jobs):
            pending.popleft().result()
            x, y = ring[i % len(ring)]
            if not spec.is_constant:
                _colour(spec, cfg, x, y)
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


def simulate(net: engine.CompiledNetwork, cfg: MCConfig) -> MCStreams:
    """Sample per-detector photocurrent streams; bit-reproducible per seed.

    Each roster entry carries its own noise.  Input generation is keyed by
    roster position on spawned substreams, so streams are independent of
    element evaluation order and of the number of threads drawing them.
    """
    return MCStreams(_streams(net, cfg, np.eye(net.n_detectors),
                              [e.noise for e in net.roster],
                              np.random.SeedSequence(cfg.seed)))


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


def segment_powers(stream: np.ndarray, omega: float, cfg: MCConfig) -> np.ndarray:
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


def periodogram(stream: np.ndarray, omega: float, cfg: MCConfig) -> MCEstimate:
    """Welch-averaged bin power at omega.

    The estimate is the mean of the K segment powers, an unbiased bin power
    for stationary input.  The reported standard error is estimate * sqrt(1/K) for a
    complex bin (0 < m < L/2), whose power is exponentially distributed,
    and estimate * sqrt(2/K) for the real bins m = 0 and m = L/2, whose
    power is chi-squared with one degree of freedom.
    """
    powers = segment_powers(np.asarray(stream, dtype=float), omega, cfg)
    estimate = float(powers.mean())
    m = _bin_index(omega, cfg)
    rel_var = 1.0 if 0 < m < cfg.segment_length // 2 else 2.0
    stderr = abs(estimate) * math.sqrt(rel_var / cfg.segment_count)
    return MCEstimate(omega=omega, estimate=estimate, stderr=stderr,
                      segments=cfg.segment_count)


def cross_validate(net: engine.CompiledNetwork, combo, omega: float,
                   cfg: MCConfig,
                   reference: engine.CompiledNetwork | None = None) -> CrossValidation:
    """Compare the engine's normalised spectrum against a Monte-Carlo run.

    The Monte-Carlo value is the ratio of the signal-run bin power to a
    vacuum-input re-run on an independent substream; z is the discrepancy in
    combined standard errors.  The requested frequency snaps to the nearest
    FFT bin and the engine reference is evaluated there, so both sides see
    the same sideband.  Only the combo's stream is accumulated, one per run.
    The engine side reads ``reference`` (default ``net``): a different network
    there tests a deliberate mismatch.
    """
    cfg.check_frequency(omega)
    omega = 2.0 * math.pi * _bin_index(omega, cfg) * (cfg.sample_rate / cfg.segment_length)
    signal_ss, vacuum_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    weights = engine.combo_weights(net, combo)[None, :]

    est_sig = periodogram(_streams(net, cfg, weights, [e.noise for e in net.roster],
                                   signal_ss)[0], omega, cfg)
    est_vac = periodogram(_streams(net, cfg, weights, [VACUUM_SPECTRUM] * net.n_inputs,
                                   vacuum_ss)[0], omega, cfg)
    if est_vac.estimate <= 0.0:
        raise MCError("vacuum reference power is not positive; no carrier in combo?")

    mc_value = est_sig.estimate / est_vac.estimate
    rel = math.sqrt((est_sig.stderr / est_sig.estimate) ** 2
                    + (est_vac.stderr / est_vac.estimate) ** 2)
    stderr = abs(mc_value) * rel
    engine_value = engine.spectrum(net if reference is None else reference, combo,
                                   omega).normalized
    z = (mc_value - engine_value) / stderr
    return CrossValidation(omega=omega, engine_value=float(engine_value),
                           mc_value=mc_value, stderr=stderr, z=float(z),
                           segments=cfg.segment_count)

