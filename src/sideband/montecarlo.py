"""Time-domain stochastic oracle for the frequency-domain engine.

Each network input carries independent stationary Gaussian quadrature
processes X(t), Y(t) with the variances of its QuadSpectrum (white across
the band, or white draws through a FIR for tabulated spectra, with vacuum
variance 1 per sample).  The compiled pipeline is expanded into delay taps
per detector by applying each step's linear map -- its gains, and a shift
by its delay tau in samples -- the same maps the frequency-domain engine
walks.  Photocurrent fluctuations are
dn_k(t) = 2 Re(conj(alpha_k) sum taps), sampled at a rate that makes every
delay a whole number of samples, on circular streams of T = K L samples.

Spectra come from a Welch periodogram read at one FFT bin: the mean of the
segments' bin powers, at a resolution of one bin width f_s / L.  A segment's
bin is its projection onto one kernel of L samples, and projection is
linear, so no photocurrent stream is built: each white stream is projected
onto the kernel as it is drawn, and a row's segment projections are a sum
of those projections, shifted by the tap delays and weighted by real
coefficients; a tabulated input's FIR is folded into the kernel too.  The
constant-spectrum inputs are not drawn one by one: a row reads them only
through a few features, their sums at each distinct tap delay, so the
fewest white streams with those features' covariance are drawn in their
place (:func:`_factor`), with the same joint law.  The shot-noise reference
is a second row accumulated from the same draws with every input at vacuum
variance, so the signal and vacuum bin powers share their randomness and
their ratio is a low-variance estimate.
"""

from __future__ import annotations

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
#: 512 x 4096: every stream is drawn a block at a time, and a row is K x 2
#: projections
MAX_TOTAL_SAMPLES = 2 ** 24

#: samples per block of a stream's draws, rounded down to whole segments:
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
    """Threads that draw the inputs: one per core this process may use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _project(fill, lags, basis: np.ndarray, count: int) -> np.ndarray:
    """Project a circular stream of ``count`` segments onto ``basis``, (L, C)
    columns of L-sample kernels, at every lag in ``lags`` (each in [0, L)):
    [i, k] is the C projections of the L samples that start lags[i] samples
    before segment k.

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
    out = np.empty((len(lags), count, basis.shape[1]))
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


def _fir(variance_fn, sample_rate: float, span: int) -> np.ndarray:
    """A FIR of 2 ``span`` taps whose response is the square root of
    ``variance_fn`` on the grid of 2 ``span`` frequencies (frequency
    sampling), centred on tap ``span``."""
    omegas = np.pi * sample_rate / span * np.arange(span + 1)
    return np.roll(np.fft.irfft(np.sqrt(variance_fn(omegas)), 2 * span), span)


def _filtered(fill, lags, basis: np.ndarray, h: np.ndarray, count: int):
    """:func:`_project` of a stream s onto the (L, 2) ``basis``, and of s
    through the FIR ``h``, c[t] = sum_m h[m] s[(t + m - span) mod T] with
    span = len(h) // 2, in one pass over s: (len(lags), K, 2) each.

    Filtering and projection are linear: c's window is s's window onto
    g = basis * h, from span samples before it.  g, padded to whole segments,
    is cut into J sub-kernels set as columns beside ``basis``, whose rolled
    projections sum to c's.  Cost: one draw of s, and a matmul of 2 (J + 1)
    columns, J about 3 + 2 D / L for 2 (L + D) taps (5 at L = 512, D = 4).
    """
    length = basis.shape[0]
    pad = -(h.size // 2) % length  # zeros that start g on a segment boundary
    parts = np.convolve(np.pad(basis @ [1, 1j], (pad, -(pad + h.size - 1) % length)),
                        h).reshape(-1, length)
    wide = _project(fill, lags, np.hstack([basis, parts.real.T, parts.imag.T]), count)
    before = (h.size // 2 + pad) // length  # segments g starts before the window
    signal = np.zeros((len(lags), count, 2))
    for j in range(len(parts)):  # rolled by slices: np.roll's copies raise the peak RSS
        shift = (before - j) % count
        signal[:, shift:] += wide[:, :count - shift, 2 + j::len(parts)]
        signal[:, :shift] += wide[:, count - shift:, 2 + j::len(parts)]
    return wide[..., :2].copy(), signal  # a copy, so that the wide array is freed


def _factor(a: np.ndarray) -> np.ndarray:
    """A factor B of ``a``'s Gram matrix, B B^T = A A^T, with as few columns
    as its numerical rank: the rows of (F, C) ``a`` as (F, m) rows, m <= C.

    Duplicate rows of ``a`` are dropped first (a dict of row tuples, in
    first-seen order) and get bitwise-equal rows of B.  The unique rows'
    Gram matrix is factored by Cholesky with diagonal pivoting: each column
    pivots on the largest remaining diagonal entry (the first on a tie), and
    the factor stops at a pivot <= max(diag) size eps or at C columns.
    """
    unique: dict[tuple, int] = {}
    index = [unique.setdefault(row, len(unique)) for row in map(tuple, a.tolist())]
    rows = np.array(list(unique), dtype=float).reshape(len(unique), a.shape[1])
    gram = rows @ rows.T
    size = len(gram)
    residual = gram.diagonal().copy()
    floor = residual.max(initial=0.0) * size * np.finfo(float).eps
    factor = np.zeros((size, min(size, a.shape[1])))
    pivots: list[int] = []
    for k in range(factor.shape[1]):
        p = int(np.argmax(residual))
        if residual[p] <= floor:
            factor = factor[:, :k]
            break
        column = (gram[:, p] - factor[:, :k] @ factor[p, :k]) / math.sqrt(residual[p])
        column[pivots] = 0.0
        column[p] = math.sqrt(residual[p])
        factor[:, k] = column
        residual -= column ** 2
        residual[p] = 0.0
        pivots.append(p)
    return factor[index]


def _plan(net: engine.CompiledNetwork, cfg: MCConfig, taps, weights: np.ndarray, span: int):
    """The pool jobs that draw the combo's two rows, as (fir, lags, terms):
    the constant-spectrum inputs' factor streams, then each tabulated
    input's X and Y in roster order.  A job draws one quadrature of T unit
    normals and projects it at ``lags`` (each d mod L), for a ``fir`` h also
    through h; a term (r, d, b) adds b times those projections at lag
    d mod L, rolled by d // L segments, to row r (0 signal, 1 vacuum).

    An input's taps fold into one complex coefficient c per distinct delay
    d (mod T): weights, conj(alpha_k) and the tap gains.  A tabulated
    quadrature is read at Re(c) (X) or -Im(c) (Y), by the signal row through
    h.  The constant inputs reach row r at delay d only through the feature
    F_(r,d) = sum_s A[(r,d), s] W_s of their white quadratures W_s (roster
    order, X then Y; signal-row features first, delays ascending), with
    entries Re(c) sqrt(V_X) and -Im(c) sqrt(V_Y) in the signal row and
    Re(c) and -Im(c) in the vacuum row.  The features are white with
    covariance A A^T, so the streams of B = :func:`_factor` of A, one per
    column, draw them with the same law.
    """
    n, length = cfg.total_samples, cfg.segment_length
    conj_alphas = np.conj(np.array(net.carriers, dtype=complex))
    folded: list[dict[int, complex]] = [{} for _ in range(net.n_inputs)]
    for k, det in enumerate(taps):
        for j, d, g in det:
            d %= n  # circular shift, like a roll by d
            folded[j][d] = folded[j].get(d, 0j) + weights[k] * (conj_alphas[k] * g)
    terms = [[(d, c) for d, c in sorted(taps_j.items()) if c] for taps_j in folded]

    constant = [j for j, e in enumerate(net.roster) if e.noise.is_constant]
    delays = sorted({d for j in constant for d, _ in terms[j]})
    a = np.zeros((2 * len(delays), 2 * len(constant)))
    for s, j in enumerate(constant):
        scales = ((math.sqrt(net.roster[j].noise.vx), math.sqrt(net.roster[j].noise.vy)),
                  (1.0, 1.0))
        for d, c in terms[j]:
            f = delays.index(d)
            for r, (sx, sy) in enumerate(scales):
                a[r * len(delays) + f, 2 * s:2 * s + 2] = c.real * sx, -c.imag * sy
    lags = sorted({d % length for d in delays})
    features = [(r, d) for r in (0, 1) for d in delays]
    jobs = [(None, lags, [(r, d, b) for (r, d), b in zip(features, column) if b])
            for column in _factor(a).T]
    for j, entry in enumerate(net.roster):
        if entry.noise.is_constant or not terms[j]:
            continue
        lags = sorted({d % length for d, _ in terms[j]})
        for variance_fn, part in ((entry.noise.vx_at, lambda c: c.real),
                                  (entry.noise.vy_at, lambda c: -c.imag)):
            jobs.append((_fir(variance_fn, cfg.sample_rate, span), lags,
                         [(r, d, part(c)) for r in (0, 1) for d, c in terms[j]]))
    return jobs


def _run(seed: np.random.SeedSequence, fir, lags, basis: np.ndarray, count: int):
    """One job of :func:`_plan`: T unit normals, drawn on ``seed`` a block at
    a time and projected as drawn, as the (signal row, vacuum row) pair of
    (len(lags), K, 2) projections the rows read: the white projections for
    both, or the filtered ones for the signal row of a ``fir``."""
    rng = np.random.default_rng(seed)
    fill = lambda block, _: rng.standard_normal(out=block)  # noqa: E731
    if fir is None:
        white = _project(fill, lags, basis, count)
        return white, white
    white, signal = _filtered(fill, lags, basis, fir, count)
    return signal, white


def _streams(net: engine.CompiledNetwork, cfg: MCConfig, taps, weights: np.ndarray,
             root: np.random.SeedSequence, omega: float) -> np.ndarray:
    """Segment projections of the combo's photocurrent fluctuations
    sum_k weights[k] dn_k(t), no DC, onto omega's bin kernel: (2, K, 2),
    the signal row, then the vacuum row (every input at vacuum variance);
    [r, k] is segment k's projection onto the real and imaginary parts of
    the kernel.  No stream of a row is built.

    ``taps`` are :func:`expand_taps` of ``net``.  The rows are drawn by the
    jobs of :func:`_plan`: the fewest white factor streams with the joint
    law of the constant-spectrum inputs' features, then one job per
    quadrature of each tabulated input, read through its FIR of 2 span taps
    (span = L + D, D the longest tap delay).  Job s draws on the s-th of
    len(jobs) children of ``root``.  Projection is linear, so both rows add
    each job's terms by one rule: coefficient times the projections at lag
    d mod L, rolled by d // L segments.  A plan with T < 3 span and a
    tabulated input is refused: the stream's wrap would alias the FIR's
    autocorrelation onto the lags a kernel of span samples meets.

    Every job is drawn and projected on a thread pool, a block at a time,
    at most workers + 1 in flight, and added in job order on the calling
    thread, so the result is bit-identical for any worker count.
    """
    from concurrent.futures import ThreadPoolExecutor

    n, length, count = cfg.total_samples, cfg.segment_length, cfg.segment_count
    span = length + max(d for det in taps for _, d, _ in det)
    if n < 3 * span and not all(e.noise.is_constant for e in net.roster):
        raise MCError(f"a tabulated spectrum needs T >= 3 (L + D) = {3 * span} samples, got {n}")
    kernel = _kernel(omega, cfg)
    basis = np.stack([kernel.real, kernel.imag], axis=1)
    jobs = _plan(net, cfg, taps, weights, span)

    out = np.zeros((2, count, 2))
    workers = _workers()
    queue = zip(root.spawn(len(jobs)), jobs)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()

        def top_up():
            for seed, (fir, lags, _) in itertools.islice(queue, workers + 1 - len(pending)):
                pending.append(pool.submit(_run, seed, fir, lags, basis, count))

        top_up()
        for _, lags, terms in jobs:
            rows = pending.popleft().result()
            top_up()
            position = {lag: i for i, lag in enumerate(lags)}
            for r, d, coef in terms:
                out[r] += coef * np.roll(rows[r][position[d % length]], d // length, axis=0)
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
                      taps) -> float:
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
    A tabulated input's stream, its draws through a FIR of 2 (L + D) taps,
    is read on N = 2 (L + D) points through :func:`_seen_spectrum`.
    NaN when no carrier reaches the combo.
    """
    span = cfg.segment_length + max(d for det in taps for _, d, _ in det)
    tabulated = any(not e.noise.is_constant for e in net.roster)
    size = min(2 * span if tabulated else span, cfg.total_samples)
    gain = np.abs(np.fft.fft(_kernel(omega, cfg), size)) ** 2
    folded = gain[:size // 2 + 1].copy()
    folded[1:(size + 1) // 2] += gain[size - 1:size // 2:-1]
    omegas = 2.0 * math.pi * cfg.sample_rate / size * np.arange(folded.size)
    net = replace(net, roster=tuple(
        e if e.noise.is_constant
        else replace(e, noise=_seen_spectrum(e.noise, cfg.sample_rate, span))
        for e in net.roster))
    sweep = engine.sweep(net, combo, omegas)
    snl = float(sweep.snl @ folded)
    return float(sweep.absolute @ folded) / snl if snl > 0.0 else math.nan


def _seen_spectrum(noise: QuadSpectrum, sample_rate: float, span: int) -> QuadSpectrum:
    """The spectrum, on the grid of 2 ``span`` points, of the lags below
    ``span`` of h*h, the linear autocorrelation of a tabulated input's
    :func:`_fir` h.  These are the lags a kernel of ``span`` samples meets,
    and on them a stream of T >= 3 ``span`` samples is correlated as h*h."""
    tables = []
    for variance_fn in (noise.vx_at, noise.vy_at):
        response = np.fft.rfft(_fir(variance_fn, sample_rate, span), 4 * span)
        lags = np.fft.irfft(np.abs(response) ** 2, 4 * span)[:span]
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
    expected = _window_reference(engine_net, combo, omega, cfg, taps)
    z = (mc_value - expected) / stderr
    return CrossValidation(omega=omega, engine_value=float(engine_value),
                           reference=expected, mc_value=mc_value, stderr=stderr,
                           z=float(z), segments=cfg.segment_count)
