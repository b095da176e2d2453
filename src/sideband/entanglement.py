"""Two-mode correlation variances, the Duan/Simon non-separability product,
and entanglement of formation for symmetric Gaussian states.

Correlation variances follow the /2 normalisation: v_plus is half the
variance of the amplitude-quadrature sum of the two beams, v_minus half the
variance of their phase-quadrature difference, so a vacuum pair sits at 1
and the product witness reduces to Delta = sqrt(v_plus * v_minus) < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: relative mismatch of the two beams' individual noise levels above which
#: the symmetric-state EoF value gets a warning
SYMMETRY_TOLERANCE = 0.01


@dataclass(frozen=True)
class CorrelationPair:
    """Shot-noise-normalised correlation variances of a beam pair."""

    v_plus: float   # <(dX1 + dX2)^2>/2, amplitude sum
    v_minus: float  # <(dY1 - dY2)^2>/2, phase difference

    def __post_init__(self):
        if not (self.v_plus > 0.0 and self.v_minus > 0.0):
            raise ValueError("correlation variances must be positive")


@dataclass(frozen=True)
class EntanglementReport:
    v_plus: float
    v_minus: float
    delta: float
    nonseparable: bool
    eof_bits: float | None
    warnings: tuple[str, ...] = ()

    def as_json_dict(self) -> dict:
        out = {
            "v_plus": self.v_plus,
            "v_minus": self.v_minus,
            "delta": self.delta,
            "nonseparable": self.nonseparable,
            "eof_bits": self.eof_bits,
        }
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


def duan_product(pair: CorrelationPair) -> tuple[float, bool]:
    """Non-separability product Delta = sqrt(v_plus * v_minus); Delta < 1
    witnesses entanglement."""
    delta = math.sqrt(pair.v_plus * pair.v_minus)
    return delta, delta < 1.0


def eof_symmetric(delta: float) -> float:
    """Entanglement of formation (bits) of a symmetric Gaussian two-mode
    state from its non-separability product.

    E_F = c+ log2 c+ - c- log2 c- with c(+/-) = (delta^-1/2 +/- delta^1/2)^2/4,
    defined for 0 < delta < 1; decreasing in delta, -> 0 as delta -> 1.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(
            "entanglement not witnessed (delta >= 1): EoF undefined here"
            if delta >= 1.0 else "delta must be positive")
    root = math.sqrt(delta)
    c_plus = (1.0 / root + root) ** 2 / 4.0
    c_minus = (1.0 / root - root) ** 2 / 4.0
    value = c_plus * math.log2(c_plus)
    if c_minus > 0.0:
        value -= c_minus * math.log2(c_minus)
    return value


def assess(pair: CorrelationPair,
           beam_levels: tuple[float, float] | None = None) -> EntanglementReport:
    """Full verdict for a correlation pair.

    beam_levels, when given, are the two beams' individual normalised noise
    levels; the symmetric-state EoF expression assumes they coincide, so a
    mismatch beyond 1% attaches an 'asymmetric state' warning.
    """
    delta, witnessed = duan_product(pair)
    warnings: list[str] = []
    eof = None
    if witnessed:
        eof = eof_symmetric(delta)
        if beam_levels is not None:
            a, b = beam_levels
            if abs(a - b) > SYMMETRY_TOLERANCE * max(abs(a), abs(b)):
                warnings.append(
                    "asymmetric state: individual beam levels differ by more "
                    "than 1%, symmetric-state EoF is approximate")
    return EntanglementReport(
        v_plus=pair.v_plus,
        v_minus=pair.v_minus,
        delta=delta,
        nonseparable=witnessed,
        eof_bits=eof,
        warnings=tuple(warnings),
    )
