import math

import pytest
from hypothesis import given, strategies as st

from sideband.entanglement import CorrelationPair, assess, duan_product, eof_symmetric


class TestCorrelationVariances:
    def test_vacuum_pair(self):
        delta, witnessed = duan_product(CorrelationPair(1.0, 1.0))
        assert delta == 1.0 and not witnessed

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CorrelationPair(0.0, 1.0)


class TestDuanProduct:
    def test_paper_operating_point(self):
        delta, witnessed = duan_product(CorrelationPair(0.63, 0.76))
        assert delta == pytest.approx(0.6919537556802478, abs=1e-12)
        assert witnessed

    def test_one_sided_squeezing_fails_the_product(self):
        delta, witnessed = duan_product(CorrelationPair(0.5, 2.2))
        assert delta == pytest.approx(1.0488088481701516, abs=1e-12)
        assert not witnessed

    @given(st.floats(0.01, 50.0), st.floats(0.01, 50.0))
    def test_symmetric_in_arguments(self, a, b):
        assert duan_product(CorrelationPair(a, b))[0] == pytest.approx(
            duan_product(CorrelationPair(b, a))[0], rel=1e-12)

    @given(st.floats(0.05, 5.0), st.floats(0.05, 5.0), st.floats(0.1, 10.0))
    def test_scales_linearly_under_joint_gain(self, a, b, g):
        # sqrt((g a)(g b)) = g sqrt(a b): scaling both variances by g scales
        # the product witness by g; equivalently by sqrt(g) when only one is
        # scaled
        base = duan_product(CorrelationPair(a, b))[0]
        assert duan_product(CorrelationPair(g * a, g * b))[0] == pytest.approx(
            g * base, rel=1e-9)
        assert duan_product(CorrelationPair(g * a, b))[0] == pytest.approx(
            math.sqrt(g) * base, rel=1e-9)


class TestEofSymmetric:
    def test_paper_value(self):
        assert eof_symmetric(0.6920) == pytest.approx(0.2171, abs=5e-5)
        delta = math.sqrt(0.76 * 0.63)
        assert eof_symmetric(delta) == pytest.approx(0.22, abs=0.02)

    def test_strong_witness_value(self):
        # c+ = (2 + 0.5)^2/4, c- = (2 - 0.5)^2/4 at delta = 0.25
        assert eof_symmetric(0.25) == pytest.approx(1.4729424832117068, abs=1e-12)

    def test_vanishes_at_separability_boundary(self):
        for delta in (0.999, 0.9999, 0.99999):
            assert 0.0 < eof_symmetric(delta) < 0.01

    def test_strictly_decreasing_on_grid(self):
        grid = [0.01 + i * (0.999 - 0.01) / 999 for i in range(1000)]
        values = [eof_symmetric(d) for d in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_undefined_when_not_witnessed(self):
        with pytest.raises(ValueError, match="not witnessed"):
            eof_symmetric(1.0)
        with pytest.raises(ValueError):
            eof_symmetric(1.5)
        with pytest.raises(ValueError):
            eof_symmetric(0.0)


class TestAssess:
    def test_paper_round_trip(self):
        report = assess(CorrelationPair(v_plus=0.63, v_minus=0.76))
        assert report.nonseparable
        assert report.delta < 1.0
        assert 0.20 <= report.eof_bits <= 0.24
        assert report.warnings == ()
        d = report.as_json_dict()
        assert set(d) == {"v_plus", "v_minus", "delta", "nonseparable", "eof_bits"}

    def test_separable_state_has_no_eof(self):
        report = assess(CorrelationPair(1.0, 1.0))
        assert not report.nonseparable and report.eof_bits is None

    def test_asymmetric_beams_warn(self):
        report = assess(CorrelationPair(0.63, 0.76), beam_levels=(21.0, 25.0))
        assert any("asymmetric" in w for w in report.warnings)
        assert report.as_json_dict()["warnings"] == list(report.warnings)
        report = assess(CorrelationPair(0.63, 0.76), beam_levels=(21.0, 21.1))
        assert report.warnings == ()
