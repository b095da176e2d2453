"""Span tracing from outside the program.

`Tracer.installed()` replaces every public function of the layer modules
(and `MCStreams.combo_stream`) with a timing wrapper, wherever a module of
the package holds a reference to it, and puts the originals back on exit.
Nothing under `src/` changes.  A span's self time is its duration minus the
time of the wrapped calls made inside it.  Spans are aggregated in memory
per function and per (caller, callee) edge.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "dsl", "network", "engine", "mzi", "montecarlo", "scenario",
          "entanglement", "presets")

PER_LAYER_UNITS = {
    "cli.self_ms": "ms",
    "dsl.parse_ms": "ms",
    "dsl.parse_calls": "count",
    "network.validate_ms": "ms",
    "network.validate_calls_per_op": "count",
    "network.topo_order_ms": "ms",
    "engine.compile_ms": "ms",
    "engine.compile_calls": "count",
    "engine.transfer_ms": "ms",
    "engine.transfer_calls_per_point": "count",
    "engine.photocurrent_form_ms": "ms",
    "engine.spectrum_ms": "ms",
    "engine.spectrum_calls": "count",
    "montecarlo.simulate_ms": "ms",
    "montecarlo.expand_taps_ms": "ms",
    "montecarlo.periodogram_ms": "ms",
    "montecarlo.segment_powers_ms": "ms",
    "montecarlo.combo_stream_ms": "ms",
    "montecarlo.gaussian_samples": "count",
    "montecarlo.stream_mib": "MiB",
    "scenario.run_experiment_ms": "ms",
    "scenario.experiment_network_ms": "ms",
    "entanglement.assess_ms": "ms",
    "mzi.self_ms": "ms",
    "trace.spans_per_op": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self._stack: list[list] = []  # [name, time spent in child spans]

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.edges.clear()

    def _wrap(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else "bench"
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - frame[1]
                edge = (parent, name)
                self.edges[edge] = self.edges.get(edge, 0) + 1
        return span

    @contextlib.contextmanager
    def installed(self):
        targets = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"sideband.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        streams = importlib.import_module("sideband.montecarlo").MCStreams
        combo_stream = streams.combo_stream
        targets[id(combo_stream)] = (combo_stream,
                                     self._wrap("montecarlo.combo_stream", combo_stream))
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "sideband" and not mod_name.startswith("sideband."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, obj))
        streams.combo_stream = targets[id(combo_stream)][1]
        patched.append((streams, "combo_stream", combo_stream))
        try:
            yield self
        finally:
            for owner, attr, original in patched:
                setattr(owner, attr, original)

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        def ms(name):
            return self.self_s.get(name, 0.0) * 1e3

        def layer_ms(layer):
            return sum(v for k, v in self.self_s.items()
                       if k.split(".", 1)[0] == layer) * 1e3

        calls = self.calls.get
        points = calls("engine.spectrum", 0)
        return {
            "cli.self_ms": layer_ms("cli"),
            "dsl.parse_ms": ms("dsl.parse"),
            "dsl.parse_calls": calls("dsl.parse", 0),
            "network.validate_ms": ms("network.validate"),
            "network.validate_calls_per_op": calls("network.validate", 0) / ops,
            "network.topo_order_ms": ms("network.topo_order"),
            "engine.compile_ms": ms("engine.compile"),
            "engine.compile_calls": calls("engine.compile", 0),
            "engine.transfer_ms": ms("engine.transfer"),
            "engine.transfer_calls_per_point":
                calls("engine.transfer", 0) / points if points else 0.0,
            "engine.photocurrent_form_ms": ms("engine.photocurrent_form"),
            "engine.spectrum_ms": ms("engine.spectrum"),
            "engine.spectrum_calls": points,
            "montecarlo.simulate_ms": ms("montecarlo.simulate"),
            "montecarlo.expand_taps_ms": ms("montecarlo.expand_taps"),
            "montecarlo.periodogram_ms": ms("montecarlo.periodogram"),
            "montecarlo.segment_powers_ms": ms("montecarlo.segment_powers"),
            "montecarlo.combo_stream_ms": ms("montecarlo.combo_stream"),
            "scenario.run_experiment_ms": ms("scenario.run_experiment"),
            "scenario.experiment_network_ms": ms("scenario.experiment_network"),
            "entanglement.assess_ms": ms("entanglement.assess"),
            "mzi.self_ms": layer_ms("mzi"),
            "trace.spans_per_op": sum(self.calls.values()) / ops,
        }
