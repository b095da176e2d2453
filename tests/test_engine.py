import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sideband import dsl, engine, mzi, scenario
from sideband.network import (
    Combo,
    DetectorDecl,
    ElementDecl,
    Loss,
    NetworkSpec,
    QuadSpectrum,
    SourceDecl,
)

import netgen
from reference_walk import forward_reference, run_pipeline

TAU = 1.0 / (2 * 20.5e6)  # theta = pi at 20.5 MHz
OMEGA = 2 * math.pi * 20.5e6
DIFF = Combo.diff_of("C", "D")
SUM = Combo.sum_of("C", "D")


def mz_net(phi=math.pi / 2, vx=0.617, vy=63.0, amp=100.0, tau=TAU, noise=None):
    spec = scenario.mz_network(tau=tau, carrier_phase=phi, amp=amp,
                               noise=noise or QuadSpectrum.constant(vx, vy))
    return engine.compile(spec)


def lossless_random_net(rng):
    # beamsplitter/phase/delay chain, detectors on every open port
    spec = netgen.random_spec(rng)
    while any(isinstance(e.element, Loss) for e in spec.elements):
        spec = netgen.random_spec(rng)
    detectors = []
    ports = set(spec.producer_ports())
    consumed = {p for e in spec.elements for p in e.inputs}
    for i, port in enumerate(sorted(ports - consumed)):
        detectors.append(DetectorDecl(f"DET{i}", port))
    import dataclasses
    return engine.compile(dataclasses.replace(spec, detectors=tuple(detectors),
                                              measurements=()))


class TestCompile:
    def test_mz_roster_counts(self):
        net = mz_net()
        assert net.n_inputs == 2 and net.n_detectors == 2
        assert [e.name for e in net.roster] == ["a", "v"]

    def test_loss_injects_one_vacuum(self):
        spec = scenario.mz_network(tau=TAU, carrier_phase=math.pi / 2)
        import dataclasses
        withloss = dataclasses.replace(
            spec,
            elements=spec.elements + (
                ElementDecl("L", Loss(0.72), ("B2.out1",)),),
            detectors=(DetectorDecl("C", "L.out"), DetectorDecl("D", "B2.out2")),
        )
        net = engine.compile(withloss)
        assert net.n_inputs == 3
        assert net.roster == withloss.sources + (SourceDecl("__vac0"),)

    def test_compile_is_deterministic(self):
        spec = scenario.mz_network(tau=TAU, carrier_phase=0.3)
        a, b = engine.compile(spec), engine.compile(spec)
        assert a.roster == b.roster
        assert a.steps == b.steps
        assert a.carriers == b.carriers

    def test_compile_rejects_invalid(self):
        with pytest.raises(engine.StructuralError):
            engine.compile(NetworkSpec())


class TestTransfer:
    def test_matches_two_splitter_closed_form(self):
        rng = random.Random(7)
        for _ in range(10):
            phi = rng.uniform(0, 2 * math.pi)
            tau = rng.uniform(1e-9, 1e-7)
            omega = rng.uniform(0, 2 * math.pi * 50e6)
            net = mz_net(phi=phi, tau=tau)
            g = np.exp(1j * phi) * np.exp(-1j * omega * tau)
            expected = 0.5 * np.array([[1 + g, 1 - g], [1 - g, 1 + g]])
            got = engine.transfer(net, omega).a
            assert np.abs(got - expected).max() < 1e-12

    def test_lossless_unitarity(self):
        net = mz_net()
        rng = np.random.default_rng(3)
        for omega in rng.uniform(0, 2 * np.pi * 60e6, size=100):
            a = engine.transfer(net, omega).a
            assert np.abs(a @ a.conj().T - np.eye(2)).max() < 1e-12

    def test_bar_state_at_zero_phase(self):
        # phi = 0, theta = 0: both splittings undo, all carrier exits port C
        net = mz_net(phi=0.0)
        a = engine.transfer(net, 0.0).a
        assert np.abs(np.abs(a) - np.eye(2)).max() < 1e-12
        assert abs(net.carriers[0]) == pytest.approx(100.0, rel=1e-12)
        assert abs(net.carriers[1]) == pytest.approx(0.0, abs=1e-9)

    def test_carriers_equal_dc_transfer(self):
        rng = random.Random(11)
        for _ in range(20):
            spec = netgen.random_spec(rng)
            net = engine.compile(spec)
            amps = np.array([e.amp for e in net.roster], dtype=complex)
            expected = engine.transfer(net, 0.0).a @ amps
            assert np.abs(np.array(net.carriers) - expected).max() < 1e-12


def quadrature_coefficients(net, combo, omega):
    """c_X and c_Y of one combo at one omega, each an (N,) array."""
    c_x, c_y = engine.forms(net, engine.combo_weights(net, combo)[None, :],
                            np.array([omega]))
    return c_x[0, 0], c_y[0, 0]


def roster_column(net, name):
    return [e.name for e in net.roster].index(name)


class TestPhotocurrentForm:
    def test_phase_readout_selects_signal_y(self):
        net = mz_net()
        c_x, c_y = quadrature_coefficients(net, DIFF, OMEGA)
        j = roster_column(net, "a")
        k = roster_column(net, "v")
        assert c_y[j] == pytest.approx(100.0, abs=1e-7)
        assert abs(c_x[j]) < 1e-7
        assert abs(c_x[k]) < 1e-7 and abs(c_y[k]) < 1e-7

    def test_sum_selects_vacuum_x(self):
        net = mz_net()
        c_x, c_y = quadrature_coefficients(net, SUM, OMEGA)
        j = roster_column(net, "a")
        k = roster_column(net, "v")
        assert abs(c_x[k]) == pytest.approx(100.0, abs=1e-7)
        assert abs(c_y[k]) < 1e-7
        assert abs(c_x[j]) < 1e-7 and abs(c_y[j]) < 1e-7

    def test_direct_detection_reads_amplitude(self):
        spec = NetworkSpec(
            sources=(SourceDecl("a", 140.0),),
            detectors=(DetectorDecl("D1", "a"),),
        )
        net = engine.compile(spec)
        c_x, c_y = quadrature_coefficients(net, Combo.single("D1"), 1e7)
        assert c_x[0] == pytest.approx(140.0)
        assert abs(c_y[0]) < 1e-12


class TestSpectrum:
    def test_excess_phase_noise_read_at_theta_pi(self):
        net = mz_net(vy=63.0)
        pt = engine.spectrum(net, DIFF, OMEGA)
        assert pt.normalized == pytest.approx(63.0, rel=1e-12)
        assert pt.db == pytest.approx(10 * math.log10(63.0), abs=1e-9)

    def test_sum_is_shot_noise_at_theta_pi(self):
        # vy < 1 needs an antisqueezed amplitude quadrature to stay physical
        for vx, vy in ((2.0, 0.76), (0.617, 63.0)):
            net = mz_net(vx=vx, vy=vy)
            assert engine.spectrum(net, SUM, OMEGA).normalized == pytest.approx(
                1.0, abs=1e-9)

    def test_phase_squeezed_input_read_exactly(self):
        net = mz_net(vx=2.0, vy=0.76)
        assert engine.spectrum(net, DIFF, OMEGA).normalized == pytest.approx(
            0.76, rel=1e-12)

    def test_all_coherent_network_sits_at_snl(self):
        spec = scenario.mz_network(tau=TAU, carrier_phase=1.1)
        net = engine.compile(spec)
        for omega in (0.0, OMEGA, 2.3 * OMEGA):
            for combo in (DIFF, SUM, Combo.single("C")):
                assert engine.spectrum(net, combo, omega).normalized == pytest.approx(
                    1.0, abs=1e-9)

    def test_half_theta_mixes_quadratures(self):
        net = mz_net(vx=0.617, vy=63.0)
        pt = engine.spectrum(net, DIFF, OMEGA / 2)  # theta = pi/2
        assert pt.normalized == pytest.approx(32.0, rel=1e-9)

    def test_closed_form_grid_equivalence(self):
        worst = 0.0
        for i in range(33):
            theta = i * math.pi / 16
            omega = theta / TAU
            for phi in (0.0, math.pi / 4, math.pi / 2):
                for vx, vy in ((1.0, 1.0), (0.617, 63.0), (0.575, 63.0)):
                    net = mz_net(phi=phi, vx=vx, vy=vy)
                    d = engine.spectrum(net, DIFF, omega).normalized
                    s = engine.spectrum(net, SUM, omega).normalized
                    worst = max(worst,
                                abs(d - mzi.diff_variance(theta, phi, vx, vy)),
                                abs(s - mzi.sum_variance(theta, vx)))
        assert worst <= 1e-9

    def test_frequency_symmetry(self):
        rng = random.Random(5)
        for _ in range(20):
            spec = netgen.random_spec(rng)
            net = engine.compile(spec)
            combo = netgen.random_combo(rng, spec)
            omega = rng.uniform(0, 2 * math.pi * 40e6)
            plus = engine.spectrum(net, combo, omega)
            minus = engine.spectrum(net, combo, -omega)
            if math.isnan(plus.normalized):
                assert math.isnan(minus.normalized)
                continue
            assert minus.normalized == pytest.approx(plus.normalized, rel=1e-12)

    def test_tabulated_input_spectrum(self):
        noise = QuadSpectrum.tabulated(
            [0.0, OMEGA, 2 * OMEGA], [0.6, 0.7, 0.8], [80.0, 63.0, 50.0])
        pt = engine.spectrum(mz_net(noise=noise), DIFF, OMEGA)
        assert pt.normalized == pytest.approx(63.0, rel=1e-9)


class TestSnl:
    def test_mz_sum_equals_input_flux(self):
        net = mz_net(amp=100.0)
        assert engine.snl(net, SUM) == pytest.approx(1e4, rel=1e-12)

    def test_loss_scales_snl(self):
        spec = scenario.mz_network(tau=TAU, carrier_phase=math.pi / 2, amp=100.0)
        import dataclasses
        lossy = dataclasses.replace(
            spec,
            elements=spec.elements + (
                ElementDecl("LC", Loss(0.72), ("B2.out1",)),
                ElementDecl("LD", Loss(0.72), ("B2.out2",)),),
            detectors=(DetectorDecl("C", "LC.out"), DetectorDecl("D", "LD.out")),
        )
        net = engine.compile(lossy)
        assert engine.snl(net, SUM) == pytest.approx(0.72 * 1e4, rel=1e-12)

    def test_sum_and_diff_snl_agree_on_random_networks(self):
        rng = random.Random(99)
        checked = 0
        while checked < 25:
            spec = netgen.random_spec(rng)
            if len(spec.detectors) < 2:
                continue
            net = engine.compile(spec)
            names = spec.detector_names()[:2]
            s = engine.snl(net, Combo.sum_of(*names))
            d = engine.snl(net, Combo.diff_of(*names))
            assert d == pytest.approx(s, rel=1e-12, abs=1e-12)
            # and both equal the coefficient-sum route
            pt = engine.spectrum(net, Combo.sum_of(*names),
                                 rng.uniform(0, 2 * math.pi * 30e6))
            assert pt.snl == pytest.approx(s, rel=1e-9, abs=1e-9)
            checked += 1


class TestDCLevels:
    @pytest.mark.parametrize("phi", [0.0, math.pi / 3, math.pi / 2, 1.1, math.pi])
    def test_fringe_difference(self, phi):
        net = mz_net(phi=phi, amp=1.0)
        dc = engine.dc_levels(net)
        # hand-propagated carriers: alpha*(1 +/- e^{i phi})/2 per port
        expected = abs((1 + np.exp(1j * phi)) / 2) ** 2 - abs((1 - np.exp(1j * phi)) / 2) ** 2
        assert dc.difference("C", "D") == pytest.approx(math.cos(phi), abs=1e-12)
        assert dc.difference("C", "D") == pytest.approx(expected, abs=1e-12)

    def test_lock_point_is_dark(self):
        net = mz_net(phi=math.pi / 2, amp=100.0)
        dc = engine.dc_levels(net)
        assert dc.difference("C", "D") / 1e4 == pytest.approx(0.0, abs=1e-12)

    def test_third_fringe(self):
        net = mz_net(phi=math.pi / 3, amp=100.0)
        assert engine.dc_levels(net).difference("C", "D") == pytest.approx(
            0.5 * 1e4, rel=1e-12)

    def test_phase_and_delay_carrier_phase_share_a_sign(self):
        # phase multiplies by e^{+i phi} and a zero-length delay by
        # e^{+i carrier_phase}: equal settings in the two arms cancel, and all
        # the light leaves one port
        net = engine.compile(dsl.parse(
            "source a coherent amp=100; source v vacuum; bs B1 from a, v;"
            "phase P from B1.out1 phi=0.6;"
            "delay L from B1.out2 length=0m carrier_phase=0.6;"
            "bs B2 from P.out, L.out; det C from B2.out1; det D from B2.out2;"))
        assert engine.dc_levels(net).means == pytest.approx((1e4, 0.0), abs=1e-9)


class TestConservation:
    def test_flux_conservation_on_random_lossy_networks(self):
        rng = random.Random(77)
        for _ in range(40):
            spec = netgen.random_spec(rng, force_loss=True)
            net = engine.compile(spec)
            audit = engine.flux_audit(net)
            scale = max(audit.source_flux, 1.0)
            assert abs(audit.balance) / scale < 1e-12

    def test_lossless_fully_detected_unitarity(self):
        rng = random.Random(42)
        for _ in range(15):
            net = lossless_random_net(rng)
            m = net.n_detectors
            omega = rng.uniform(0, 2 * math.pi * 40e6)
            a = engine.transfer(net, omega).a
            assert np.abs(a @ a.conj().T - np.eye(m)).max() < 1e-12


class TestShotNoiseFloor:
    def test_random_lossy_networks_sit_at_unity(self):
        rng = random.Random(2024)
        count = 0
        while count < 100:
            spec = netgen.random_spec(rng, allow_squeezed=False, force_loss=True)
            net = engine.compile(spec)
            combo = netgen.random_combo(rng, spec)
            if engine.snl(net, combo) < 1e-9:
                continue
            omega = rng.uniform(0, 2 * math.pi * 40e6)
            assert engine.spectrum(net, combo, omega).normalized == pytest.approx(
                1.0, abs=1e-9)
            count += 1


def _axis(seed: int, extra: int) -> np.ndarray:
    """A frequency axis longer than one block with 0, negative and repeated w."""
    gen = np.random.default_rng(seed)
    omegas = gen.uniform(-2 * math.pi * 40e6, 2 * math.pi * 40e6, engine.BLOCK + extra)
    omegas[0] = 0.0
    omegas[1] = -omegas[2]
    omegas[-1] = omegas[3]
    omegas[engine.BLOCK] = omegas[engine.BLOCK - 1]  # repeated across a block edge
    return omegas


def _assert_close(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert np.array_equal(np.isnan(got), np.isnan(expected))
    assert np.array_equal(np.isneginf(got), np.isneginf(expected))
    ok = np.isfinite(expected)
    scale = np.maximum(np.abs(expected[ok]), 1.0)
    assert np.all(np.abs(got[ok] - expected[ok]) <= 1e-12 * scale)


def _assert_sweeps_close(got, expected):
    for field in ("absolute", "snl", "normalized", "db"):
        _assert_close(getattr(got, field), getattr(expected, field))


SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


class TestSweep:
    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS, extra=st.integers(min_value=1, max_value=engine.BLOCK))
    def test_rows_equal_single_point_sweeps(self, seed, extra):
        rng = random.Random(seed)
        spec = netgen.random_spec(rng)
        net = engine.compile(spec)
        combo = netgen.random_combo(rng, spec)
        omegas = _axis(seed, extra)
        got = engine.sweep(net, combo, omegas)
        assert got.absolute.shape == omegas.shape
        for i, omega in enumerate(omegas):
            one = engine.sweep(net, combo, [omega])
            for field in ("absolute", "snl", "normalized", "db"):
                _assert_close(getattr(got, field)[i:i + 1], getattr(one, field))

    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS, extra=st.integers(min_value=1, max_value=engine.BLOCK))
    def test_multi_combo_rows_equal_single_combo_sweeps(self, seed, extra):
        rng = random.Random(seed)
        spec = netgen.random_spec(rng)
        net = engine.compile(spec)
        combos = [netgen.random_combo(rng, spec) for _ in range(3)]
        combos.append(Combo(tuple((name, rng.uniform(-2.0, 2.0))
                                  for name in spec.detector_names())))
        omegas = _axis(seed, extra)
        got = engine.sweep(net, combos, omegas)
        assert got.normalized.shape == (len(combos), omegas.size)
        for row, combo in enumerate(combos):
            one = engine.sweep(net, combo, omegas)
            for field in ("absolute", "snl", "normalized", "db"):
                _assert_close(getattr(got, field)[row], getattr(one, field))

    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS, dark=st.booleans())
    def test_nan_exactly_where_no_carrier_reaches_the_combo(self, seed, dark):
        rng = random.Random(seed)
        spec = netgen.random_spec(rng)
        if dark:  # every source a vacuum: no carrier anywhere
            spec = dataclasses.replace(spec, sources=tuple(
                SourceDecl(s.name) for s in spec.sources))
        net = engine.compile(spec)
        combo = netgen.random_combo(rng, spec)
        got = engine.sweep(net, combo, _axis(seed, 1))
        unlit = got.snl == 0.0
        if dark:
            assert unlit.all()
        assert np.isnan(got.normalized[unlit]).all() and np.isnan(got.db[unlit]).all()
        assert not np.isnan(got.normalized[~unlit]).any()
        assert not np.isnan(got.db[~unlit]).any()

    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS, extra=st.integers(min_value=1, max_value=engine.BLOCK))
    def test_stacked_transfer_rows_are_orthonormal(self, seed, extra):
        # passivity: with every hidden vacuum in the roster, the detector
        # rows of A(w) are rows of a unitary, lossy networks included
        rng = random.Random(seed)
        net = engine.compile(netgen.random_spec(rng))
        a = forward_reference(net, _axis(seed, extra))
        gram = np.matmul(a, np.conj(np.swapaxes(a, 1, 2)))
        assert np.abs(gram - np.eye(net.n_detectors)).max() < 1e-12

    def test_mz_closed_form_over_several_blocks(self):
        net = mz_net(phi=0.9, vx=0.617, vy=63.0)
        omegas = np.linspace(-3 * OMEGA, 3 * OMEGA, 3 * engine.BLOCK + 7)
        got = engine.sweep(net, DIFF, omegas).normalized
        expected = [mzi.diff_variance(w * TAU, 0.9, 0.617, 63.0) for w in omegas]
        assert np.abs(got - expected).max() <= 1e-9

    def test_tabulated_inputs_match_scalar_lookup(self):
        noise = QuadSpectrum.tabulated(
            [0.0, OMEGA, 2 * OMEGA], [0.6, 0.7, 0.8], [80.0, 63.0, 50.0])
        net = mz_net(noise=noise)
        omegas = np.linspace(-3 * OMEGA, 3 * OMEGA, engine.BLOCK + 3)
        got = engine.sweep(net, DIFF, omegas)
        for i in (0, 1, engine.BLOCK // 2, engine.BLOCK + 1, engine.BLOCK + 2):
            pt = engine.spectrum(net, DIFF, omegas[i])
            assert got.normalized[i] == pytest.approx(pt.normalized, rel=1e-12)

    def test_spectrum_is_the_one_point_view(self):
        net = mz_net()
        s = engine.sweep(net, SUM, [OMEGA])
        pt = engine.spectrum(net, SUM, OMEGA)
        assert (pt.absolute, pt.snl, pt.normalized, pt.db) == (
            s.absolute[0], s.snl[0], s.normalized[0], s.db[0])


def _walk_net(seed: int, lossy: bool, direct: bool):
    """A random network; ``direct`` adds a detector reading a source port."""
    rng = random.Random(seed)
    spec = netgen.random_spec(rng, force_loss=lossy)
    if direct:
        spec = dataclasses.replace(
            spec,
            sources=spec.sources + (SourceDecl("SX", complex(
                rng.uniform(1.0, 200.0), rng.uniform(-50.0, 50.0))),),
            detectors=spec.detectors + (DetectorDecl("DX", "SX"),))
    return rng, engine.compile(spec)


def _assert_within(got, expected, scale):
    assert got.shape == expected.shape
    assert np.abs(got - expected).max(initial=0.0) <= 1e-12 * scale


class TestReverseWalk:
    """The reverse walk against the forward reference walk."""

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, lossy=st.booleans(), direct=st.booleans(),
           n_combos=st.integers(min_value=1, max_value=4),
           extra=st.integers(min_value=1, max_value=engine.BLOCK))
    def test_forms_and_sweep_equal_the_forward_reference(
            self, seed, lossy, direct, n_combos, extra):
        rng, net = _walk_net(seed, lossy, direct)
        weights = np.array([[rng.choice((-1.0, 0.0, 1.0, rng.uniform(-2.0, 2.0)))
                             for _ in range(net.n_detectors)] for _ in range(n_combos)])
        omegas = _axis(seed, extra)
        alpha = np.array(net.carriers, dtype=complex)
        scale = max(np.abs(alpha).max(), 1.0) * max(np.abs(weights).max(), 1.0)

        g = np.matmul(weights * np.conj(alpha),
                      forward_reference(net, np.concatenate([omegas, -omegas])))
        u, w = g[:omegas.size], np.conj(g[omegas.size:])
        c_x, c_y = engine.forms(net, weights, omegas)
        _assert_within(c_x, (u + w) / 2.0, scale)
        _assert_within(c_y, 1j * (u - w) / 2.0, scale)

        # the blocked sweep over the same axis, from the reference forms
        combos = [Combo(tuple(zip(net.detector_names, row.tolist()))) for row in weights]
        got = engine.sweep(net, combos, omegas)
        px, py = np.abs((u + w) / 2.0) ** 2, np.abs((u - w) / 2.0) ** 2
        v = np.array([[e.noise.vx, e.noise.vy] for e in net.roster])
        _assert_within(got.absolute, np.einsum("fcn,n->cf", px, v[:, 0])
                       + np.einsum("fcn,n->cf", py, v[:, 1]), scale ** 2)
        _assert_within(got.snl, (px + py).sum(axis=2).T, scale ** 2)

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, lossy=st.booleans(), direct=st.booleans())
    def test_transfer_equals_the_forward_reference(self, seed, lossy, direct):
        _, net = _walk_net(seed, lossy, direct)
        omegas = _axis(seed, 1)
        for omega in (*omegas[:4], omegas[-1]):
            _assert_within(engine.transfer(net, omega).a,
                           forward_reference(net, [omega])[0], 1.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, lossy=st.booleans(), direct=st.booleans())
    def test_carrier_walk_equals_the_forward_reference(self, seed, lossy, direct):
        _, net = _walk_net(seed, lossy, direct)
        amps = np.array([e.amp for e in net.roster], dtype=complex)
        scale = max(np.abs(amps).max(), 1.0)
        _assert_within(np.array(net.carriers, dtype=complex),
                       forward_reference(net, [0.0])[0] @ amps, scale)

        losses = [step for step in net.steps if isinstance(step.element, Loss)]
        state = run_pipeline(net, [0.0], (*net.detector_ports, *net.unconsumed_ports,
                                          *(step.in_ports[0] for step in losses)))

        def flux(port):
            return abs(state[port][0] @ amps) ** 2

        balance = net.source_flux() - (
            sum(flux(p) for p in net.detector_ports)
            + sum(flux(p) for p in net.unconsumed_ports)
            + sum((1.0 - step.element.eta) * flux(step.in_ports[0]) for step in losses))
        assert abs(engine.flux_audit(net).balance - balance) <= 1e-12 * scale ** 2
