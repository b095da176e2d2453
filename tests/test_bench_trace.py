"""The benchmark's traced run (bench/spans.py) wraps the package's public
functions and ``MCStreams.combo_stream`` by attribute.  Installing its tracer
here turns a rename or deletion of such a name into a tier-1 failure."""

import importlib
import math
from pathlib import Path

import pytest

from sideband import cli, engine, montecarlo, scenario
from sideband.network import Combo, QuadSpectrum

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def test_traced_simulate_and_cross_validate(spans, preset_path, capsys):
    tracer = spans.Tracer()
    combo_stream = montecarlo.MCStreams.combo_stream
    with tracer.installed():
        assert cli.main(["simulate", "--net", preset_path("mz_phase"),
                         "--freqs", "20MHz:21MHz:0.5MHz"]) == 0
        net = engine.compile(scenario.mz_network(
            1.0 / (2 * 20.5e6), math.pi / 2, noise=QuadSpectrum.constant(0.617, 63.0)))
        cfg = montecarlo.MCConfig(sample_rate=164e6, seed=3, segment_length=64,
                                  segment_count=16)
        montecarlo.cross_validate(net, Combo.diff_of("C", "D"), 2 * math.pi * 20.5e6, cfg)
    assert montecarlo.MCStreams.combo_stream is combo_stream  # restored
    for name in ("cli.main", "dsl.parse", "network.validate",
                 "engine.compile", "engine.sweep", "montecarlo.cross_validate",
                 "montecarlo.expand_taps", "montecarlo.periodogram",
                 "montecarlo.segment_powers", "engine.spectrum"):
        assert tracer.calls.get(name, 0) >= 1, name
    metrics = tracer.metrics(ops=2)
    assert metrics["dsl.parse_calls"] == 1 and metrics["engine.compile_calls"] == 2
    assert set(metrics) <= set(spans.PER_LAYER_UNITS)
