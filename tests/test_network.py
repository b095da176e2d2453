import dataclasses
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sideband import dsl, engine, network, presets
from sideband.network import (
    ELEMENT_KINDS,
    BeamSplitter,
    Combo,
    Delay,
    DetectorDecl,
    ElementDecl,
    FreqList,
    FreqRange,
    Loss,
    Measurement,
    NetworkSpec,
    QuadSpectrum,
    SPEED_OF_LIGHT,
    SourceDecl,
    axis_error,
    topo_order,
    validate,
)

import netgen


def minimal_spec():
    return NetworkSpec(
        sources=(SourceDecl("a", 100.0),),
        detectors=(DetectorDecl("D1", "a"),),
    )


def test_empty_network_reports_no_detectors():
    violations = validate(NetworkSpec())
    assert any(v.code == "no-detectors" for v in violations)


def test_minimal_network_is_valid():
    assert validate(minimal_spec()) == []


def test_freq_range_values_match_stepwise_sum_bit_for_bit():
    rng = random.Random(31)
    ranges = [FreqRange(1e6, 41e6, 10e3), FreqRange(15e6, 25e6, 0.5e6)]
    ranges += [FreqRange(lo, lo + rng.uniform(0.0, 4e7), rng.uniform(1e4, 1e6))
               for lo in (rng.uniform(0.0, 1e8) for _ in range(20))]
    for r in ranges:
        n = int(math.floor((r.stop - r.start) / r.step + 1e-9)) + 1
        expected = tuple(r.start + i * r.step for i in range(n))
        got = r.values()
        assert type(got) is tuple and all(type(v) is float for v in got)
        assert [v.hex() for v in got] == [v.hex() for v in expected]
    assert len(FreqRange(1e6, 41e6, 10e3).values()) == 4001


FREQ = st.one_of(st.floats(-1e9, 1e9),
                 st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1e308]))


@settings(max_examples=300)
@given(start=FREQ, span=st.floats(-1e3, 1e9), step=st.floats(1e-3, 1e9))
def test_range_rule_from_endpoints_matches_every_point(start, span, step):
    r = FreqRange(start, start + span, step)
    try:
        points = r.values()
    except ValueError as exc:
        assert axis_error(r) == str(exc)
        return
    if not points:
        want = "frequency range is empty"
    elif not all(math.isfinite(f) and f >= 0 for f in points):
        want = "frequencies must be finite and >= 0"
    elif not all(math.isfinite(2 * math.pi * f) for f in points):
        want = "angular frequency 2*pi*f overflows"
    else:
        want = None
    assert axis_error(r) == want
    assert axis_error(FreqList(points)) == axis_error(r)


def test_validate_decides_a_range_without_building_it(monkeypatch):
    def refuse(self):
        raise AssertionError("built the points")

    monkeypatch.setattr(FreqRange, "values", refuse)
    text = presets.load("mz_phase").replace("freqs=15MHz:25MHz:0.5MHz",
                                            "freqs=0Hz:999990Hz:1Hz", 1)
    assert "0Hz:999990Hz:1Hz" in text
    assert validate(dsl.parse(text)) == []
    negative = text.replace("freqs=0Hz", "freqs=-1Hz")
    assert [str(v) for v in validate(dsl.parse(negative))] == [
        "[range] PM: frequencies must be finite and >= 0"]


def test_heisenberg_violation_is_reported():
    spec = NetworkSpec(
        sources=(SourceDecl("a", 10.0, QuadSpectrum.constant(0.5, 1.0)),),
        detectors=(DetectorDecl("D1", "a"),),
    )
    codes = [v.code for v in validate(spec)]
    assert "heisenberg" in codes


def test_validate_is_deterministic():
    spec = NetworkSpec(
        sources=(SourceDecl("a", 1.0),),
        elements=(ElementDecl("B", BeamSplitter(1.5), ("a", "nowhere")),),
        detectors=(),
    )
    assert validate(spec) == validate(spec)
    assert len(validate(spec)) >= 2  # missing detectors + range + unknown port


@pytest.mark.parametrize("combo", ["sum(C,C)", "diff(D,D)", "weights(C=1, D=2, C=-1)"])
def test_detector_named_twice_in_a_combo(combo):
    spec = dsl.parse("source a coherent amp=1; bs B from a; det C from B.out1;"
                     f"det D from B.out2; measure M {combo} freqs=1MHz;")
    assert [str(v) for v in validate(spec)] == [
        "[combo] M: needs one or more distinct detectors"]


def test_combo_with_no_detector():
    spec = dataclasses.replace(minimal_spec(), measurements=(
        Measurement("M", Combo(()), FreqList((1e6,))),))
    assert [v.code for v in validate(spec)] == ["combo"]


@pytest.mark.parametrize("spec, violation", [
    (NetworkSpec(sources=(SourceDecl("a", 1.0), SourceDecl("a", 1.0)),
                 detectors=(DetectorDecl("D1", "a"),)),
     "[duplicate-name] a: name declared more than once"),
    (NetworkSpec(sources=(SourceDecl("a", 1.0), SourceDecl("b", 1.0)),
                 elements=(ElementDecl("L", Loss(0.5), ("a", "b")),),
                 detectors=(DetectorDecl("D1", "L.out"),)),
     "[arity] L: takes at most 1 inputs, got 2"),
    (NetworkSpec(sources=(SourceDecl("a", 1.0),), detectors=(DetectorDecl("D1", ""),)),
     "[unbound-input] D1: detector port not driven"),
    (dataclasses.replace(minimal_spec(), measurements=(
        Measurement("M", Combo.sum_of("D1", "X"), FreqList((1e6,))),)),
     "[unknown-detector] M: measurement references unknown detector 'X'"),
])
def test_spec_the_parser_cannot_write_is_one_violation(spec, violation):
    assert [str(v) for v in validate(spec)] == [violation]


def test_double_driven_port():
    spec = NetworkSpec(
        sources=(SourceDecl("a", 1.0),),
        elements=(
            ElementDecl("L1", Loss(0.5), ("a",)),
            ElementDecl("L2", Loss(0.5), ("a",)),
        ),
        detectors=(DetectorDecl("D1", "L1.out"), DetectorDecl("D2", "L2.out")),
    )
    assert any(v.code == "double-driven" for v in validate(spec))


def test_unbound_single_input_element():
    spec = NetworkSpec(
        sources=(SourceDecl("a", 1.0),),
        elements=(ElementDecl("DL", Delay(1e-9), ()),),
        detectors=(DetectorDecl("D1", "a"),),
    )
    assert any(v.code == "unbound-input" for v in validate(spec))


def test_open_beamsplitter_inputs_are_allowed():
    spec = NetworkSpec(
        sources=(SourceDecl("a", 1.0),),
        elements=(ElementDecl("B", BeamSplitter(0.5), ("a",)),),
        detectors=(DetectorDecl("D1", "B.out1"), DetectorDecl("D2", "B.out2")),
    )
    assert validate(spec) == []


def test_cycle_detected():
    spec = NetworkSpec(
        sources=(SourceDecl("a", 1.0),),
        elements=(
            ElementDecl("B1", BeamSplitter(0.5), ("a", "B2.out1")),
            ElementDecl("B2", BeamSplitter(0.5), ("B1.out1",)),
        ),
        detectors=(DetectorDecl("D1", "B1.out2"),),
    )
    assert any(v.code == "cycle" for v in validate(spec))


def test_cycle_names_members_reached_through_a_finished_element():
    spec = dsl.parse("source a coherent amp=1; bs X from Y.out1, Z.out; bs Y from X.out1;"
                     "phase Z from Y.out2 phi=0; det D from X.out2;")
    assert [v.subject for v in validate(spec) if v.code == "cycle"] == ["X", "Y", "Z"]


def _reference_order(spec):
    """O(N^2) reference: repeatedly place the first-declared element whose
    element inputs are all placed.  Returns the placed names in order and
    the sorted names left over."""
    producer = {p: e.name for e in spec.elements for p in e.output_ports()}
    left, placed, order = list(spec.elements), set(), []
    while True:
        nxt = next((e for e in left
                    if all(producer[p] in placed for p in e.inputs if p in producer)),
                   None)
        if nxt is None:
            return order, sorted(e.name for e in left)
        left.remove(nxt)
        placed.add(nxt.name)
        order.append(nxt.name)


def _rewired(rng, spec):
    """spec with one element input moved to an output of that element or of
    one downstream of it, which closes a wiring cycle."""
    elements = list(spec.elements)
    i = rng.choice([k for k, e in enumerate(elements) if e.inputs])
    reader = {p: e for e in elements for p in e.inputs}
    seen, frontier, ports = {elements[i]}, [elements[i]], []
    while frontier:
        outs = frontier.pop().output_ports()
        ports += outs
        for r in (reader[p] for p in outs if p in reader):
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    inputs = list(elements[i].inputs)
    inputs[rng.randrange(len(inputs))] = rng.choice(ports)
    elements[i] = dataclasses.replace(elements[i], inputs=tuple(inputs))
    return dataclasses.replace(spec, elements=tuple(elements))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rewire=st.booleans())
def test_order_and_cycles_match_the_quadratic_reference(seed, rewire):
    rng = random.Random(seed)
    spec = netgen.random_spec(rng, max_elements=20)
    elements = list(spec.elements)
    rng.shuffle(elements)
    spec = dataclasses.replace(spec, elements=tuple(elements))
    rewire = rewire and any(e.inputs for e in elements)
    if rewire:
        spec = _rewired(rng, spec)
    order, unplaced = _reference_order(spec)
    assert bool(unplaced) == rewire
    assert [v.subject for v in validate(spec) if v.code == "cycle"] == unplaced
    if unplaced:
        with pytest.raises(ValueError, match="cycle"):
            topo_order(spec)
    else:
        assert [e.name for e in topo_order(spec)] == order


def test_compile_walks_the_wiring_once(monkeypatch):
    calls = []
    walk = network._wiring_order
    monkeypatch.setattr(network, "_wiring_order", lambda spec: calls.append(spec) or walk(spec))
    spec = dsl.parse(presets.load("entangled_phase"))
    net = engine.compile(spec)
    assert calls == [spec]
    assert [st.element for st in net.steps] == [e.element for e in topo_order(spec)]
    assert calls == [spec]


def test_parameter_ranges():
    spec = NetworkSpec(
        sources=(SourceDecl("a", 1.0),),
        elements=(
            ElementDecl("B", BeamSplitter(1.2), ("a",)),
            ElementDecl("L", Loss(-0.1), ("B.out1",)),
            ElementDecl("DL", Delay(-1e-9), ("B.out2",)),
        ),
        detectors=(DetectorDecl("D1", "L.out"), DetectorDecl("D2", "DL.out")),
    )
    assert sum(1 for v in validate(spec) if v.code == "range") == 3


def _edge_values(param):
    """+-1e308, and each finite bound with its neighbours on either side."""
    values = [1e308, -1e308]
    for bound in (param.lo, param.hi):
        if math.isfinite(bound):
            values += [bound, math.nextafter(bound, -math.inf),
                       math.nextafter(bound, math.inf)]
    return values


@st.composite
def one_element_specs(draw):
    """A valid one-element network with one parameter drawn near its range."""
    cls = draw(st.sampled_from(list(ELEMENT_KINDS.values())))
    name = draw(st.sampled_from(list(cls.params)))
    values = {p: min(max(0.0, param.lo), param.hi) for p, param in cls.params.items()}
    values[name] = draw(st.one_of(st.sampled_from(_edge_values(cls.params[name])),
                                  st.floats(allow_nan=False, allow_infinity=False)))
    element = cls(**values)
    return NetworkSpec(
        sources=(SourceDecl("a", 1.0),),
        elements=(ElementDecl("E", element, ("a",)),),
        detectors=tuple(DetectorDecl(f"D{i}", f"E.{port}")
                        for i, port in enumerate(cls.ports)),
    ), getattr(element, name)


@settings(max_examples=300, deadline=None)
@given(case=one_element_specs())
def test_parse_refuses_exactly_what_validate_reports(case):
    spec, value = case
    ranges = [v.message for v in validate(spec) if v.code == "range"]
    text = dsl.serialize(spec)
    try:
        parsed = dsl.parse(text)
    except dsl.ParseError as err:
        d = err.diagnostic
        assert [d.message] == ranges
        assert d.snippet[d.column - 1:].startswith(repr(value))  # at the value
    else:
        assert ranges == [] and parsed == spec


def test_parse_then_compile_checks_each_elements_ranges_once():
    # the parser refuses a range fault at its value, and compiling validates
    # the spec again: both read one check per element
    calls = []
    code = network.element_problems.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame.f_locals["el"])

    sys.setprofile(profile)
    try:
        net = engine.compile(dsl.parse(presets.load("entangled_phase")))
    finally:
        sys.setprofile(None)
    elements = [e.element for e in net.spec.elements]
    assert len(elements) >= 6
    assert sorted(map(id, calls)) == sorted(map(id, elements))


def test_quad_spectrum_rejects_nonpositive():
    with pytest.raises(ValueError):
        QuadSpectrum.constant(0.0, 1.0)
    with pytest.raises(ValueError):
        QuadSpectrum.constant(1.0, -2.0)


@pytest.mark.parametrize("fields, message", [
    ({"vx": 1.0}, "constant spectrum needs vx and vy"),
    ({"omegas": (0.0, 1.0), "vx_table": (1.0, 1.0)}, "needs vx_table and vy_table"),
    ({"omegas": (0.0, 1.0), "vx_table": (1.0,), "vy_table": (1.0, 1.0)}, "equal length"),
    ({"omegas": (0.0,), "vx_table": (1.0,), "vy_table": (1.0,)}, "at least two grid points"),
])
def test_quad_spectrum_rejects_a_missing_or_short_table(fields, message):
    with pytest.raises(ValueError, match=message):
        QuadSpectrum(**fields)


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
    for amp in (math.inf, complex(1.0, math.nan), complex(-math.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            SourceDecl("a", amp)


def test_delay_stores_consistent_length():
    d = Delay(7.32 / SPEED_OF_LIGHT, 0.5)
    assert d.tau * SPEED_OF_LIGHT == pytest.approx(7.32, abs=1e-12)
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
