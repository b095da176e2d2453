"""Time-domain stochastic oracle for the frequency-domain engine.

Each network input carries independent stationary Gaussian quadrature
processes X(t), Y(t) with the variances of its QuadSpectrum (white across
the band, or white draws through a FIR for tabulated spectra, with vacuum
variance 1 per sample).  The compiled pipeline is expanded into delay taps
per detector by applying each step's linear map -- its gains, and a shift
by its delay tau in samples -- the same maps the frequency-domain engine
walks.  Photocurrent fluctuations are
dn_k(t) = 2 Re(conj(alpha_k) sum taps), sampled at a rate that makes every
delay a whole number of samples, on circular streams of T = K H samples.

Spectra come from a Welch periodogram read at one FFT bin: the mean of the
bin powers of K segments of L samples that overlap by half, segment k
starting at sample k H with hop H = ceil(L/2), at a resolution of one bin
width f_s / L.  A segment's bin is its projection onto one kernel of L
samples, and projection is linear, so no photocurrent stream is built.
The inputs are not drawn one by one either: a row reads them only through
a few features, their sums at each distinct delay (a tabulated input's
spread over its colouring FIR's taps), so the fewest white streams with
those features' covariance are drawn in their place (:func:`_factor`), with
the same joint law.  A row reads each white stream at real coefficients per
delay, which fold with the kernel into sub-kernels of H samples, one per
whole-hop offset, and each stream is projected onto them as it is drawn.
The shot-noise reference is a second row accumulated from the same draws
with every input at vacuum variance, so the signal and vacuum bin powers
share their randomness and their ratio is a low-variance estimate.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import engine
from .network import QuadSpectrum

DELAY_TOLERANCE = 1e-6  # max |tau*f_s - round(tau*f_s)|

#: the largest K L a sampling plan may have, 8x the acceptance plan's
#: 512 x 4096: every stream is drawn a block at a time, and a row is K x 2
#: projections
MAX_TOTAL_SAMPLES = 2 ** 24

#: samples per block of a stream's draws, rounded down to whole hops: a
#: block stays in cache while it is projected onto every sub-kernel
CHUNK = 2 ** 14


class MCError(ValueError):
    pass


@dataclass(frozen=True)
class MCConfig:
    """Sampling plan for the time-domain oracle: K = ``segment_count``
    segments of L = ``segment_length`` samples, each starting ``hop``
    samples after the last, on circular streams of ``total_samples``."""

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
        if self.segment_length * self.segment_count > MAX_TOTAL_SAMPLES:
            raise MCError(f"sampling plan of {self.segment_length * self.segment_count} "
                          f"samples exceeds {MAX_TOTAL_SAMPLES}")
        if self.window not in ("hann", "rect"):
            raise MCError("window must be 'hann' or 'rect'")

    @property
    def hop(self) -> int:
        """H = ceil(L/2): adjacent segments share L - H samples (Welch's half
        overlap), and segments two hops apart share none."""
        return -(-self.segment_length // 2)

    @property
    def total_samples(self) -> int:
        """T = K H, the period of the circular streams: the draws per job."""
        return self.hop * self.segment_count

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


def _fir(variance_fn, sample_rate: float, span: int) -> np.ndarray:
    """A FIR of 2 ``span`` taps whose response is the square root of
    ``variance_fn`` on the grid of 2 ``span`` frequencies (frequency
    sampling), centred on tap ``span``."""
    omegas = np.pi * sample_rate / span * np.arange(span + 1)
    return np.roll(np.fft.irfft(np.sqrt(variance_fn(omegas)), 2 * span), span)


def _sub_kernels(terms, kernel: np.ndarray, hop: int, count: int) -> dict[int, np.ndarray]:
    """A row's ``hop``-sample sub-kernels, keyed by whole-hop offset e in
    [0, K): segment k of the row, which starts at sample k H, reads hop
    (k + e) mod K of the draws s, samples [(k + e) H, (k + e + 1) H) mod T,
    through sub-kernel e.

    The row is sum_(d, b) b s[t - d] over ``terms`` (distinct d), so a
    term's window onto s is b kernel, from d samples before the segment.
    The terms starting in one hop fold into one FIR over their offsets
    there, convolved with the kernel and cut at hop boundaries; all-zero
    pieces are dropped.
    """
    groups: dict[int, dict[int, float]] = {}
    for d, b in terms:
        first, pad = divmod(-d, hop)
        groups.setdefault(first, {})[pad] = b
    parts: dict[int, np.ndarray] = {}
    for first, taps in groups.items():
        lo = min(taps)  # the FIR spans its taps' offsets only
        fir = np.zeros(max(taps) + 1 - lo)
        fir[[pad - lo for pad in taps]] = list(taps.values())
        pieces = np.convolve(fir, kernel)
        pieces = np.pad(pieces, (lo, -(lo + pieces.size) % hop)).reshape(-1, hop)
        for j, piece in enumerate(pieces):
            if piece.any():
                e = (first + j) % count
                parts[e] = parts[e] + piece if e in parts else piece
    return parts


def _factor(a: np.ndarray) -> np.ndarray:
    """A factor B of ``a``'s Gram matrix, B B^T ~ A A^T, with as few columns
    as its numerical rank: the rows of (F, C) ``a`` as (F, m) rows, m <= C.

    Duplicate rows of ``a`` (-0.0 equal to 0.0) are dropped first, in
    first-seen order, and get bitwise-equal rows of B.  The unique rows are
    then taken in that order, a Cholesky factor of their Gram matrix built
    a column at a time from the rows themselves: a row becomes the next
    column only if its residual, its squared distance from the span of the
    earlier columns' rows, exceeds the floor, sqrt(eps) times the largest
    squared row norm, and the factor stops at C columns.

    A A^T - B B^T is the Gram matrix of what the taken rows leave of every
    row, so it is semidefinite with no entry above the floor: B B^T is
    A A^T to within 1.5e-8 of the largest feature variance, and to rounding
    where every skipped row lies in the taken rows' span.  Rounding leaves a
    residual an error of about eps times the largest squared row norm,
    times that norm over the smallest residual taken before it.  Which rows
    become columns rests on the last bits of ``a`` only where a residual
    lies within that error of the floor.
    """
    # np.unique sorts the rows; order puts them back in first-seen order
    _, first, inverse = np.unique(a, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rows = a[first[order]]
    residual = np.einsum("ij,ij->i", rows, rows)
    floor = residual.max(initial=0.0) * math.sqrt(np.finfo(float).eps)
    factor = np.zeros((len(rows), min(len(rows), a.shape[1])))
    pivots: list[int] = []
    for p in range(len(rows)):
        k = len(pivots)
        if k == factor.shape[1]:
            break
        if residual[p] <= floor:
            continue
        column = (rows @ rows[p] - factor[:, :k] @ factor[p, :k]) / math.sqrt(residual[p])
        column[pivots] = 0.0
        column[p] = math.sqrt(residual[p])
        factor[:, k] = column
        residual -= column ** 2
        pivots.append(p)
    # NumPy 2.0.0 alone returns a 2-D inverse for axis=0; reshape is its fix
    return factor[np.argsort(order)[inverse.reshape(-1)], :len(pivots)]


def _plan(net: engine.CompiledNetwork, cfg: MCConfig, taps, weights: np.ndarray, span: int):
    """The pool jobs that draw the combo's two rows.  A job draws one white
    stream of T unit normals and is one term list per row, signal then
    vacuum: a term (d, b) adds b times the draws delayed by d samples (see
    :func:`_sub_kernels`).

    An input's taps fold into one complex coefficient c per distinct delay
    d (mod T): weights, conj(alpha_k) and the tap gains.  Each input
    quadrature with taps is one white draw W_s, column s of A (roster order,
    X then Y), read at b = Re(c) (X) or -Im(c) (Y).  Row r reaches the
    draws at delay d only through the feature F_(r,d) = sum_s A[(r,d), s] W_s
    (signal-row features first, delays ascending).  The vacuum row's entry
    is b at d.  The signal row's is b sqrt(V_X) or b sqrt(V_Y) at d for a
    constant spectrum; a tabulated quadrature is coloured by its
    :func:`_fir` h, u[t] = sum_m h[m] W_s[t + m - span], so its entry at
    delay (d + span - m) mod T is sum b h[m].  The features are white with
    covariance A A^T, so the streams of B = :func:`_factor` of A, one per
    column, draw them with the same law, to within the factor's floor.
    """
    n = cfg.total_samples
    conj_alphas = np.conj(np.array(net.carriers, dtype=complex))
    folded: list[dict[int, complex]] = [{} for _ in range(net.n_inputs)]
    for k, det in enumerate(taps):
        for j, d, g in det:
            d %= n  # circular shift, like a roll by d
            folded[j][d] = folded[j].get(d, 0j) + weights[k] * (conj_alphas[k] * g)

    # per column of A, the keys r T + d of its features (r, d) and its entries
    entries: list[tuple[np.ndarray, np.ndarray]] = []
    for j, entry in enumerate(net.roster):
        delays = np.array([d for d, c in sorted(folded[j].items()) if c], dtype=np.int64)
        if not delays.size:
            continue
        c = np.array([folded[j][d] for d in delays])
        noise = entry.noise
        for b, variance, variance_fn in ((c.real, noise.vx, noise.vx_at),
                                         (-c.imag, noise.vy, noise.vy_at)):
            if noise.is_constant:
                signal, scaled = delays, b * math.sqrt(variance)
            else:
                h = _fir(variance_fn, cfg.sample_rate, span)
                # summed in delay order over the delays it reaches, from
                # base, wrapped mod T only where they span T (T >= 3 span)
                base = delays[0] + span + 1 - h.size
                offsets = span - base - np.arange(h.size)
                spread = np.zeros(min(n, delays[-1] + h.size - delays[0]))
                for d, coef in zip(delays, b):
                    spread[(d + offsets) % spread.size] += coef * h
                reached = np.flatnonzero(spread)
                signal, scaled = (reached + base) % n, spread[reached]
            entries.append((np.concatenate([signal, n + delays]), np.concatenate([scaled, b])))
    if not entries:
        return []
    keys, feature = np.unique(np.concatenate([key for key, _ in entries]), return_inverse=True)
    column = np.repeat(np.arange(len(entries)), [key.size for key, _ in entries])
    a = np.zeros((keys.size, len(entries)))
    np.add.at(a, (feature, column), np.concatenate([value for _, value in entries]))
    row, delay = np.divmod(keys, n)
    return [tuple([(d, coef) for d, coef in zip(delay[row == r].tolist(), b[row == r]) if coef]
                  for r in (0, 1))
            for b in _factor(a).T]


def _run(seed: np.random.SeedSequence, rows, kernel: np.ndarray, hop: int,
         count: int) -> np.ndarray:
    """One job of :func:`_plan`: its rows' (2, K, 2) segment projections onto
    the real and imaginary parts of ``kernel``, segment k starting at sample
    k ``hop``.

    T = K H unit normals are drawn on ``seed`` CHUNK samples, rounded down
    to whole hops (at least one), at a time, and each block is projected as
    drawn by one matmul onto every row's :func:`_sub_kernels`, two columns
    each.  A row's projections are then the sum of its sub-kernels'
    projections, each rolled back by its hop offset.
    """
    parts = [(r, e, piece) for r, terms in enumerate(rows)
             for e, piece in _sub_kernels(terms, kernel, hop, count).items()]
    pieces = np.array([piece for *_, piece in parts]).reshape(-1, hop).T
    columns = np.stack([pieces.real, pieces.imag], axis=2).reshape(hop, -1)
    rng = np.random.default_rng(seed)
    step = max(1, CHUNK // hop)  # hops per block
    block = np.empty((step, hop))
    wide = np.empty((count, columns.shape[1]))
    for k0 in range(0, count, step):
        hops = block[:min(step, count - k0)]
        rng.standard_normal(out=hops)
        wide[k0:k0 + len(hops)] = hops @ columns
    out = np.zeros((2, count, 2))
    for i, (r, e, _) in enumerate(parts):  # rolled by slices: np.roll's copies raise the peak RSS
        shift = -e % count
        out[r, shift:] += wide[:count - shift, 2 * i:2 * i + 2]
        out[r, :shift] += wide[count - shift:, 2 * i:2 * i + 2]
    return out


def _streams(net: engine.CompiledNetwork, cfg: MCConfig, taps, weights: np.ndarray,
             root: np.random.SeedSequence, omega: float) -> np.ndarray:
    """Segment projections of the combo's photocurrent fluctuations
    sum_k weights[k] dn_k(t), no DC, onto omega's bin kernel: (2, K, 2),
    the signal row, then the vacuum row (every input at vacuum variance);
    [r, k] is segment k's projection onto the real and imaginary parts of
    the kernel.  No stream of a row is built.

    ``taps`` are :func:`expand_taps` of ``net``.  The rows are drawn by the
    jobs of :func:`_plan`, the fewest white streams with the joint law of
    every input quadrature's features: a tabulated quadrature's signal-row
    features come from its FIR of 2 span taps (span = L + D, D the longest
    tap delay).  Job s draws T = K H normals on the s-th of len(jobs)
    children of ``root``, every row of every job is read by one rule,
    :func:`_sub_kernels`, and each job gives its (2, K, 2) projections.  A
    plan with T < 3 span and a tabulated input is refused: the stream's wrap
    would alias the FIR's autocorrelation onto the lags a kernel of span
    samples meets.

    The jobs are drawn and projected on a thread pool (``pool.map``), a
    block at a time, and added in job order on the calling thread, so the
    result is bit-identical for any worker count.
    """
    from concurrent.futures import ThreadPoolExecutor

    n, length, count = cfg.total_samples, cfg.segment_length, cfg.segment_count
    span = length + max(d for det in taps for _, d, _ in det)
    if n < 3 * span and not all(e.noise.is_constant for e in net.roster):
        raise MCError(f"a tabulated spectrum needs T >= 3 (L + D) = {3 * span} samples, got {n}")
    kernel = _kernel(omega, cfg)
    jobs = _plan(net, cfg, taps, weights, span)

    out = np.zeros((2, count, 2))
    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        for projections in pool.map(_run, root.spawn(len(jobs)), jobs,
                                    itertools.repeat(kernel), itertools.repeat(cfg.hop),
                                    itertools.repeat(count)):
            out += projections
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
    onto it.  A grid of more than T = K H points is never needed: the
    streams are circular with period T >= L, and on T points the sum is
    exact.
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
    its standard error is the delta-method error of that ratio.  With
    d_k = P_sig,k / mean(P_sig) - P_vac,k / mean(P_vac), its relative
    variance is (g0 + 2 max(g1, 0)) / K, g0 and g1 the circular lag-0 and
    lag-1 autocovariances of d over K - 1: g0 / K is the error of K disjoint
    segments, and g1 adds what adjacent segments share through their half
    overlap (segments two hops apart share no sample).  The clip keeps the
    bar from narrowing below g0 / K where g1 comes out negative; at K = 2
    and 3 it always does (-g0 and -g0 / 2, d having zero mean), so there
    the bar is g0 / K although every segment shares samples with both
    neighbours.  z is the discrepancy from :func:`_window_reference`, the
    engine's expectation of the ratio, in standard errors.  The requested frequency snaps to the
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
    d = est_sig.powers / est_sig.estimate - est_vac.powers / est_vac.estimate
    d -= d.mean()
    g0, g1 = d @ d, d @ np.roll(d, 1)
    rel_var = (g0 + 2.0 * max(g1, 0.0)) / (cfg.segment_count - 1) / cfg.segment_count
    stderr = abs(mc_value) * max(math.sqrt(rel_var), RATIO_RESOLUTION)

    engine_net = net if reference is None else reference
    engine_value = engine.spectrum(engine_net, combo, omega).normalized
    expected = _window_reference(engine_net, combo, omega, cfg, taps)
    z = (mc_value - expected) / stderr
    return CrossValidation(omega=omega, engine_value=float(engine_value),
                           reference=expected, mc_value=mc_value, stderr=stderr,
                           z=float(z), segments=cfg.segment_count)
