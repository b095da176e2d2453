import math
import random

import numpy as np
import pytest

from sideband import engine
from sideband.network import (
    BeamSplitter,
    Coherent,
    ComplexAmp,
    Delay,
    DetectorDecl,
    ElementDecl,
    Loss,
    NetworkSpec,
    QuadSpectrum,
    SPEED_OF_LIGHT,
    SourceDecl,
    SqueezedCoherent,
    validate,
)

import netgen


def minimal_spec():
    return NetworkSpec(
        sources=(SourceDecl("a", Coherent(ComplexAmp(100.0))),),
        detectors=(DetectorDecl("D1", "a"),),
    )


def test_empty_network_reports_no_detectors():
    violations = validate(NetworkSpec())
    assert any(v.code == "no-detectors" for v in violations)


def test_minimal_network_is_valid():
    assert validate(minimal_spec()) == []


def test_heisenberg_violation_is_reported():
    spec = NetworkSpec(
        sources=(SourceDecl("a", SqueezedCoherent(
            ComplexAmp(10.0), QuadSpectrum.constant(0.5, 1.0))),),
        detectors=(DetectorDecl("D1", "a"),),
    )
    codes = [v.code for v in validate(spec)]
    assert "heisenberg" in codes


def test_validate_is_deterministic():
    spec = NetworkSpec(
        sources=(SourceDecl("a", Coherent(ComplexAmp(1.0))),),
        elements=(ElementDecl("B", BeamSplitter(1.5), ("a", "nowhere")),),
        detectors=(),
    )
    assert validate(spec) == validate(spec)
    assert len(validate(spec)) >= 2  # missing detectors + range + unknown port


def test_double_driven_port():
    spec = NetworkSpec(
        sources=(SourceDecl("a", Coherent(ComplexAmp(1.0))),),
        elements=(
            ElementDecl("L1", Loss(0.5), ("a",)),
            ElementDecl("L2", Loss(0.5), ("a",)),
        ),
        detectors=(DetectorDecl("D1", "L1.out"), DetectorDecl("D2", "L2.out")),
    )
    assert any(v.code == "double-driven" for v in validate(spec))


def test_unbound_single_input_element():
    spec = NetworkSpec(
        sources=(SourceDecl("a", Coherent(ComplexAmp(1.0))),),
        elements=(ElementDecl("DL", Delay(1e-9), ()),),
        detectors=(DetectorDecl("D1", "a"),),
    )
    assert any(v.code == "unbound-input" for v in validate(spec))


def test_open_beamsplitter_inputs_are_allowed():
    spec = NetworkSpec(
        sources=(SourceDecl("a", Coherent(ComplexAmp(1.0))),),
        elements=(ElementDecl("B", BeamSplitter(0.5), ("a",)),),
        detectors=(DetectorDecl("D1", "B.out1"), DetectorDecl("D2", "B.out2")),
    )
    assert validate(spec) == []


def test_cycle_detected():
    spec = NetworkSpec(
        sources=(SourceDecl("a", Coherent(ComplexAmp(1.0))),),
        elements=(
            ElementDecl("B1", BeamSplitter(0.5), ("a", "B2.out1")),
            ElementDecl("B2", BeamSplitter(0.5), ("B1.out1",)),
        ),
        detectors=(DetectorDecl("D1", "B1.out2"),),
    )
    assert any(v.code == "cycle" for v in validate(spec))


def test_parameter_ranges():
    spec = NetworkSpec(
        sources=(SourceDecl("a", Coherent(ComplexAmp(1.0))),),
        elements=(
            ElementDecl("B", BeamSplitter(1.2), ("a",)),
            ElementDecl("L", Loss(-0.1), ("B.out1",)),
            ElementDecl("DL", Delay(-1e-9), ("B.out2",)),
        ),
        detectors=(DetectorDecl("D1", "L.out"), DetectorDecl("D2", "DL.out")),
    )
    assert sum(1 for v in validate(spec) if v.code == "range") == 3


def test_quad_spectrum_rejects_nonpositive():
    with pytest.raises(ValueError):
        QuadSpectrum.constant(0.0, 1.0)
    with pytest.raises(ValueError):
        QuadSpectrum.constant(1.0, -2.0)


def test_tabulated_spectrum_interpolates():
    spec = QuadSpectrum.tabulated([0.0, 10.0, 20.0], [1.0, 2.0, 4.0], [4.0, 2.0, 1.0])
    assert spec.vx_at(15.0) == pytest.approx(3.0)
    assert spec.vy_at(5.0) == pytest.approx(3.0)
    # negative frequencies read the same point (spectra are even)
    assert spec.vx_at(-15.0) == spec.vx_at(15.0)
    # clamped outside the grid
    assert spec.vx_at(100.0) == 4.0
    assert spec.heisenberg_ok()


def test_tabulated_grid_must_increase():
    with pytest.raises(ValueError):
        QuadSpectrum.tabulated([0.0, 0.0], [1.0, 1.0], [1.0, 1.0])


def test_complex_amp_requires_finite():
    with pytest.raises(ValueError):
        ComplexAmp(math.inf)


def test_delay_stores_consistent_length():
    d = Delay(7.32 / SPEED_OF_LIGHT, 0.5)
    assert d.delta_l == pytest.approx(7.32, abs=1e-12)
    assert d.tau == 7.32 / 299792458.0


def test_valid_specs_compile():
    # anything validate accepts must compile without structural error
    rng = random.Random(1234)
    for _ in range(60):
        spec = netgen.random_spec(rng)
        assert validate(spec) == []
        net = engine.compile(spec)
        assert net.n_detectors == len(spec.detectors)


def _loop_interp(grid, table, omega):
    """Reference lookup: linear interpolation in |omega|, clamped at the ends."""
    w = abs(omega)
    if w <= grid[0]:
        return table[0]
    if w >= grid[-1]:
        return table[-1]
    for i in range(len(grid) - 1):
        if grid[i] <= w <= grid[i + 1]:
            return table[i] + (w - grid[i]) / (grid[i + 1] - grid[i]) * (table[i + 1] - table[i])


def test_tabulated_lookup_takes_arrays():
    grid, vx, vy = [1.0, 10.0, 20.0, 35.0], [1.0, 2.0, 4.0, 3.0], [4.0, 2.0, 1.0, 1.5]
    spec = QuadSpectrum.tabulated(grid, vx, vy)
    omegas = np.concatenate([np.linspace(-50.0, 50.0, 401), grid, [0.0]])
    got_x, got_y = spec.vx_at(omegas), spec.vy_at(omegas)
    assert got_x.shape == got_y.shape == omegas.shape
    for w, x, y in zip(omegas, got_x, got_y):
        assert x == pytest.approx(_loop_interp(grid, vx, w), rel=1e-14)
        assert y == pytest.approx(_loop_interp(grid, vy, w), rel=1e-14)


def test_constant_lookup_broadcasts_over_arrays():
    spec = QuadSpectrum.constant(0.5, 3.0)
    assert spec.vx_at(7.0) == 0.5
    assert np.array_equal(spec.vy_at(np.zeros((2, 3))), np.full((2, 3), 3.0))
