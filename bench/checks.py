"""Correctness checks on the program's outputs.

Expected values are computed here, apart from the program: the closed form
of the unbalanced Mach-Zehnder readout, the twin-beam calibration algebra,
and the input-variance bounds that any passive network obeys (its
normalised output is a convex mix of its input variances, vacuum = 1).
Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9
Z_LIMIT = 3.0


def mz_diff_variance(theta, phi, vx, vy):
    """Normalised difference-photocurrent variance of the unbalanced readout:
    cos²φ cos²(θ/2) V_X + sin²φ sin²(θ/2) V_Y + cos²φ sin²(θ/2) + sin²φ cos²(θ/2)."""
    c2t, s2t = np.cos(theta / 2.0) ** 2, np.sin(theta / 2.0) ** 2
    c2p, s2p = math.cos(phi) ** 2, math.sin(phi) ** 2
    return c2p * c2t * vx + s2p * s2t * vy + c2p * s2t + s2p * c2t


def read_sweep_csv(path) -> np.ndarray:
    """Rows of a `simulate` CSV: columns f_hz, abs, snl, norm, db."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "f_hz,abs,snl,norm,db":
            raise ValueError(f"unexpected CSV header {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def _worst(label: str, got, want, rel: float = REL_TOL) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.broadcast_to(want, got.shape)
    err = np.abs(got - want) / np.abs(want)
    i = int(np.argmax(err))
    if not err[i] <= rel:  # also catches NaN
        return [f"{label}: row {i} reads {float(got[i])!r}, expected "
                f"{float(want[i])!r} (relative error {err[i]:.3g})"]
    return []


def check_row_count(rows: np.ndarray, expected: int) -> list[str]:
    if len(rows) != expected:
        return [f"{len(rows)} rows, expected {expected}"]
    return []


def check_mz_rows(rows: np.ndarray, tau: float, phi: float, vx: float,
                  vy: float) -> list[str]:
    """Difference-photocurrent rows of the unbalanced readout, θ = 2π f τ."""
    theta = 2.0 * math.pi * rows[:, 0] * tau
    return _worst("mz closed form", rows[:, 3], mz_diff_variance(theta, phi, vx, vy))


def check_within(rows: np.ndarray, v_min: float, v_max: float) -> list[str]:
    """Normalised rows lie within [v_min, v_max] of the network's inputs."""
    norm = rows[:, 3]
    bad = ~((norm >= v_min * (1.0 - REL_TOL)) & (norm <= v_max * (1.0 + REL_TOL)))
    if bad.any():
        i = int(np.argmax(bad))
        return [f"row {i} reads {float(norm[i])!r}, outside the input range "
                f"[{v_min!r}, {v_max!r}]"]
    return []


def check_shot_noise_floor(rows: np.ndarray) -> list[str]:
    """A network fed only coherent light and vacuum reads exactly 1."""
    return _worst("shot-noise floor", rows[:, 3], 1.0)


def calibrated_v_minus(target: float, vx1: float, vx2: float,
                       visibility: float) -> float:
    """Phase-difference correlation of the calibrated twin-beam experiment.

    The per-beam detection loss l solves (1 - l) v̄ + l = target with
    v̄ = (V_X1 + V_X2)/2; the phase path then transmits η = (1 - l)·vis²,
    so V₋ = η v̄ + 1 - η.
    """
    v_bar = 0.5 * (vx1 + vx2)
    loss = (target - v_bar) / (1.0 - v_bar)
    eta = (1.0 - loss) * visibility ** 2
    return eta * v_bar + 1.0 - eta


def check_scenario(report: dict, target: float, vx1: float, vx2: float,
                   visibility: float) -> list[str]:
    """`sideband scenario` JSON against the calibration algebra."""
    v_plus = report["amplitude_mode"]["correlation"]
    v_minus = report["phase_mode"]["correlation"]
    problems = _worst("V+ against the calibration target", [v_plus], target)
    problems += _worst("V- against the calibrated closed form", [v_minus],
                       calibrated_v_minus(target, vx1, vx2, visibility))
    verdict = report["entanglement"]["nonseparable"]
    if verdict != (v_plus * v_minus < 1.0):
        problems.append(f"verdict nonseparable={verdict} but V+·V- = {v_plus * v_minus!r}")
    return problems


def check_cross_validation(engine_value: float, z: float, expected: float) -> list[str]:
    """Monte-Carlo agreement |z| <= 3, and the engine value it was tested against."""
    problems = _worst("engine value", [engine_value], expected)
    if not abs(z) <= Z_LIMIT:
        problems.append(f"Monte-Carlo disagrees with the engine: z = {z!r}")
    return problems
