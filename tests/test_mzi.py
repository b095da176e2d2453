import math

import pytest
from hypothesis import given, strategies as st

from sideband import mzi

C = 299792458.0


class TestSumVariance:
    def test_theta_pi_is_shot_noise(self):
        for vx in (0.3, 0.617, 5.0):
            assert mzi.sum_variance(math.pi, vx) == pytest.approx(1.0, abs=1e-12)

    def test_zero_delay_reads_amplitude_noise(self):
        assert mzi.sum_variance(0.0, 0.617) == 0.617

    def test_half_delay(self):
        assert mzi.sum_variance(math.pi / 2, 0.63) == pytest.approx(0.815, abs=1e-12)


class TestDiffVariance:
    def test_phase_readout_point(self):
        # theta=pi, phi=pi/2 reads the input phase quadrature exactly
        assert mzi.diff_variance(math.pi, math.pi / 2, 0.617, 63.0) == 63.0
        assert mzi.diff_variance(math.pi, math.pi / 2, 0.617, 0.76) == 0.76

    def test_bright_fringe_reads_amplitude(self):
        assert mzi.diff_variance(0.0, 0.0, 0.42, 63.0) == 0.42

    def test_intermediate_delay(self):
        val = mzi.diff_variance(math.pi / 2, math.pi / 2, 0.617, 63.0)
        assert val == pytest.approx(32.0, abs=1e-12)

    @given(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi))
    def test_vacuum_input_gives_shot_noise(self, theta, phi):
        assert mzi.diff_variance(theta, phi, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_theta_for_antisqueezed_phase(self):
        values = [mzi.diff_variance(t, math.pi / 2, 0.617, 63.0)
                  for t in [i * math.pi / 64 for i in range(65)]]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestDelayDesign:
    def test_delay_for_paper_frequency(self):
        delta_l = mzi.delay_for_frequency(20.5e6)
        assert delta_l == pytest.approx(7.312011170731707, abs=1e-9)
        assert 7.30 <= delta_l <= 7.32

    def test_unit_consistency(self):
        assert mzi.delay_for_frequency(C / 2.0) == pytest.approx(1.0, rel=1e-15)

    def test_round_trip_with_inverse(self):
        assert mzi.frequency_for_delay(7.312) == pytest.approx(C / (2 * 7.312))
        f = mzi.frequency_for_delay(mzi.delay_for_frequency(20.5e6))
        assert f == pytest.approx(20.5e6, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mzi.delay_for_frequency(0.0)
        with pytest.raises(ValueError):
            mzi.frequency_for_delay(-1.0)


class TestPulsedDesign:
    def test_single_pulse_spacing(self):
        d = mzi.pulsed_design(82e6, 1)
        assert d.delta_l == pytest.approx(3.6560055853658535, abs=1e-9)
        assert d.f_m == pytest.approx(41e6)

    def test_two_pulse_spacing(self):
        d = mzi.pulsed_design(82e6, 2)
        assert d.delta_l == pytest.approx(7.312011170731707, abs=1e-9)
        assert d.f_m == pytest.approx(20.5e6)

    def test_doubling_n_halves_frequency(self):
        for n in (1, 2, 5, 8):
            assert mzi.pulsed_design(82e6, 2 * n).f_m == mzi.pulsed_design(82e6, n).f_m / 2

    def test_delta_l_is_multiple_of_pulse_spacing(self):
        base = mzi.pulsed_design(82e6, 1).delta_l
        for n in range(1, 6):
            assert mzi.pulsed_design(82e6, n).delta_l == pytest.approx(n * base)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            mzi.pulsed_design(-82e6, 1)
        with pytest.raises(ValueError):
            mzi.pulsed_design(82e6, 0)


class TestVisibilityAndLoss:
    def test_paper_visibility(self):
        assert mzi.visibility_to_loss(0.85) == pytest.approx(0.2775, abs=1e-12)

    def test_endpoints(self):
        assert mzi.visibility_to_loss(1.0) == 0.0
        assert mzi.visibility_to_loss(0.0) == 1.0

    def test_degraded_variance_value(self):
        out = mzi.degraded_variance(0.631, 0.2775)
        assert out == pytest.approx(0.7333975, abs=1e-7)
        assert 10 * math.log10(out) == pytest.approx(-1.347, abs=2e-3)

    @given(st.floats(0.01, 100.0))
    def test_no_loss_is_identity(self, v):
        assert mzi.degraded_variance(v, 0.0) == v

    @given(st.floats(0.0, 1.0))
    def test_vacuum_is_fixed_point(self, loss):
        assert mzi.degraded_variance(1.0, loss) == pytest.approx(1.0, abs=1e-12)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            mzi.visibility_to_loss(1.2)
        with pytest.raises(ValueError):
            mzi.degraded_variance(0.5, 1.5)
        with pytest.raises(ValueError, match="variance must be positive"):
            mzi.degraded_variance(0.0, 0.1)
