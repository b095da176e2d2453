"""Closed-form response of the unbalanced Mach-Zehnder phase readout.

Analytic reference for the network engine plus the pulsed-operation design
calculators.  Conventions: theta = w * tau is the delay-induced sideband
phase, phi the interferometrically locked optical phase between the arms,
and all variances are shot-noise normalised (vacuum = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .network import SPEED_OF_LIGHT


@dataclass(frozen=True)
class PulsedDesign:
    """Arm-length / measurement-frequency pair allowed by a pulse train.

    Interference in the unbalanced arms requires the delay to be a whole
    number of pulse periods: delta_l = c * n / f_rep, which pins the
    measurement frequency to f_m = f_rep / (2 n).
    """

    delta_l: float
    f_m: float


def sum_variance(theta: float, vx: float) -> float:
    """Normalised sum-photocurrent variance: cos^2(t/2) V_X + sin^2(t/2)."""
    c2 = math.cos(theta / 2.0) ** 2
    s2 = math.sin(theta / 2.0) ** 2
    return c2 * vx + s2


def diff_variance(theta: float, phi: float, vx: float, vy: float) -> float:
    """Normalised difference-photocurrent variance at lock phase phi.

    cos^2(phi) cos^2(t/2) V_X + sin^2(phi) sin^2(t/2) V_Y
    + cos^2(phi) sin^2(t/2) + sin^2(phi) cos^2(t/2); at theta = pi,
    phi = pi/2 this is the input phase-quadrature variance V_Y.
    """
    c2t = math.cos(theta / 2.0) ** 2
    s2t = math.sin(theta / 2.0) ** 2
    c2p = math.cos(phi) ** 2
    s2p = math.sin(phi) ** 2
    return c2p * c2t * vx + s2p * s2t * vy + c2p * s2t + s2p * c2t


def delay_for_frequency(f_m: float) -> float:
    """Arm-length difference (m) putting theta = pi at frequency f_m (Hz)."""
    if f_m <= 0:
        raise ValueError("measurement frequency must be positive")
    return _finite_length(SPEED_OF_LIGHT / (2.0 * f_m), "measurement frequency", f_m)


def frequency_for_delay(delta_l: float) -> float:
    """Inverse of delay_for_frequency: f_m = c / (2 delta_l)."""
    if delta_l <= 0:
        raise ValueError("arm-length difference must be positive")
    return SPEED_OF_LIGHT / (2.0 * delta_l)


def pulsed_design(f_rep: float, n: int) -> PulsedDesign:
    """Delay and measurement frequency for an n-pulse arm imbalance."""
    if f_rep <= 0:
        raise ValueError("repetition rate must be positive")
    if n < 1:
        raise ValueError("n must be a positive integer")
    return PulsedDesign(
        delta_l=_finite_length(SPEED_OF_LIGHT * n / f_rep, "repetition rate", f_rep),
        f_m=f_rep / (2.0 * n),
    )


def _finite_length(delta_l: float, what: str, value: float) -> float:
    if not math.isfinite(delta_l):
        raise ValueError(f"{what} {value:g} Hz is too small: the arm-length "
                         "difference overflows")
    return delta_l


def visibility_to_loss(visibility: float) -> float:
    """Effective loss of the phase readout from fringe visibility: 1 - V^2."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    return 1.0 - visibility * visibility


def degraded_variance(v_in: float, loss: float) -> float:
    """Normalised variance after mixing a fraction ``loss`` of vacuum in."""
    if v_in <= 0:
        raise ValueError("variance must be positive")
    if not 0.0 <= loss <= 1.0:
        raise ValueError("loss must lie in [0, 1]")
    return (1.0 - loss) * v_in + loss
