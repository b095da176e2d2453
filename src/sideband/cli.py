"""Command-line front end: validate networks, sweep spectra, run the
twin-beam experiment preset, cross-validate against Monte-Carlo, and print
delay designs.

Outputs are plot-ready files: CSV for sweeps (fixed header
f_hz,abs,snl,norm,db) and JSON for reports.  Every output embeds or
references a run manifest (command, input hash, overrides, seed, version,
timestamp) and reruns are byte-identical apart from the timestamp field.

Network overrides (--override, --mc-override) go to dsl.parse, which reads
each NAME.PARAM=VALUE as if it were written in the statement NAME.

Exit codes: 0 success, 2 I/O or usage (a refused override among them),
3 parse error, 4 validation error, 5 numerical/statistical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, dsl, engine, entanglement, montecarlo, mzi, scenario
from .network import Combo, FreqList, NetworkSpec, axis_error

EXIT_OK = 0
EXIT_IO = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_NUMERICAL = 5

SEED_ENV_VAR = "SIDEBAND_SEED"
MAX_DESIGN_ROWS = 1000  # design --frep lists pulse delays 1..n
COMBO_HELP = "sum | diff | single:K | measure:NAME"


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO)


def _parse_flag(flag: str, text: str, parse, *args):
    """Parse a flag's value with a DSL parser; malformed text is a usage error."""
    try:
        return parse(text, *args)
    except dsl.ParseError as exc:
        raise CliError(f"bad {flag} {text!r}: {exc.diagnostic.message}", EXIT_IO)


def _compile(path: str, text: str, overrides: list[str]) -> engine.CompiledNetwork:
    """The network ``text`` with ``overrides``, compiled; a refusal exits 2, 3 or 4."""
    try:
        return engine.compile(dsl.parse(text, overrides))
    except dsl.ParseError as exc:
        raise CliError(f"{path}: {exc}", EXIT_PARSE)
    except dsl.OverrideError as exc:
        raise CliError(str(exc), EXIT_IO)
    except engine.StructuralError as exc:
        raise _invalid(path, exc)


def _invalid(subject: str, exc: engine.StructuralError) -> CliError:
    """The one report of a network that does not validate: one line per violation."""
    listing = "\n".join("  " + str(v) for v in exc.violations)
    return CliError(f"{subject}: network is invalid:\n{listing}", EXIT_VALIDATION)


def _load_network(path: str, overrides: list[str]) -> tuple[engine.CompiledNetwork, str]:
    text = _read_text(path)
    return _compile(path, text, overrides), text


@contextlib.contextmanager
def _overflow_is_numerical():
    """Raise numpy overflow and invalid operations as one exit-5 error, not
    warnings and a row of inf and NaN: inputs are finite, so either means a
    carrier flux or combo weight past the float range."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise CliError(f"{exc}: a carrier flux or combo weight is too large",
                       EXIT_NUMERICAL)


def _resolve_combo(spec: NetworkSpec, text: str | None) -> Combo:
    detectors = spec.detector_names()
    if text is None:
        if spec.measurements:
            return spec.measurements[0].combo
        text = "sum"
    if text.startswith("single:"):
        try:
            idx = int(text.split(":", 1)[1])
        except ValueError:
            raise CliError(f"single:K needs a detector index, got {text!r}", EXIT_IO)
        if not 0 <= idx < len(detectors):
            raise CliError(f"single:{idx} out of range (have {len(detectors)} detectors)",
                           EXIT_IO)
        return Combo.single(detectors[idx])
    if text.startswith("measure:"):
        name = text.split(":", 1)[1]
        for m in spec.measurements:
            if m.name == name:
                return m.combo
        raise CliError(f"no measurement named {name!r} in network", EXIT_IO)
    if text in ("sum", "diff"):
        if len(detectors) != 2:
            raise CliError(
                f"{text} needs exactly 2 detectors (have {len(detectors)}); "
                "use measure:NAME or single:K", EXIT_IO)
        return (Combo.sum_of if text == "sum" else Combo.diff_of)(*detectors)
    raise CliError(f"unknown combo {text!r}", EXIT_IO)


def _combo_json(combo: Combo) -> dict:
    """Kind and detectors, plus for kind 'weights' one weight per detector."""
    doc = {"kind": combo.kind, "detectors": list(combo.detectors)}
    if doc["kind"] == "weights":
        doc["weights"] = [w for _, w in combo.weights]
    return doc


def _seed_from(args) -> int:
    seed = getattr(args, "seed", None)
    env = os.environ.get(SEED_ENV_VAR)
    if seed is None and env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise CliError(f"{SEED_ENV_VAR} must be an integer, got {env!r}", EXIT_IO)
    if seed is not None and seed < 0:
        raise CliError(f"seed must be a non-negative integer, got {seed}", EXIT_IO)
    return seed or 0


def make_manifest(command: str, *, path: str | None = None, text: str | None = None,
                  overrides=None, seed: int | None = None) -> dict:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if path is not None:
        manifest["input_file"] = path
        manifest["input_sha256"] = hashlib.sha256(
            (text or "").encode("utf-8")).hexdigest()
    if overrides:
        manifest["overrides"] = list(overrides)
    if seed is not None:
        manifest["seed"] = seed
    return manifest


def _emit(text: str, out: str | None):
    """Write text to the file ``out``, or to stdout when no file is given."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}", EXIT_IO)


def _json_safe(value):
    """The payload with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _emit_json(payload: dict, out: str | None):
    text = json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False)
    _emit(text + "\n", out)


def _emit_csv(rows: list[tuple], header: str, out: str | None, manifest: dict):
    """Write the header and one line per row, every value formatted %.12g."""
    line = ",".join(["%.12g"] * (header.count(",") + 1))
    body = header + "\n" + "\n".join([line % row for row in rows]) + "\n"
    _emit(body, out)
    if out:
        _emit_json(manifest, out + ".manifest.json")


# ---------------------------------------------------------------------------
# Commands

def cmd_validate(args) -> int:
    spec = _load_network(args.net, [])[0].spec
    print(f"{args.net}: ok ({len(spec.sources)} sources, {len(spec.elements)} "
          f"elements, {len(spec.detectors)} detectors)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    net, text = _load_network(args.net, args.override)
    spec = net.spec
    combo = _resolve_combo(spec, args.combo)
    if args.freqs:
        freqs = _parse_flag("--freqs", args.freqs, dsl.parse_frequency_range)
        problem = axis_error(freqs)
        if problem:
            raise CliError(f"bad --freqs {args.freqs!r}: {problem}", EXIT_IO)
    elif spec.measurements:
        freqs = spec.measurements[0].freqs  # validate has checked its axis
    else:
        raise CliError("no --freqs given and the network has no measure statement",
                       EXIT_IO)
    values = freqs.values()

    with _overflow_is_numerical():
        s = engine.sweep(net, combo, 2.0 * math.pi * np.array(values))
    rows = list(zip(values, s.absolute.tolist(), s.snl.tolist(),
                    s.normalized.tolist(), s.db.tolist()))

    manifest = make_manifest("simulate", path=args.net, text=text,
                             overrides=args.override)
    if args.format == "csv":
        _emit_csv(rows, "f_hz,abs,snl,norm,db", args.out, manifest)
    else:
        payload = {
            "manifest": manifest,
            "combo": _combo_json(combo),
            "points": [dict(zip(("f_hz", "abs", "snl", "norm", "db"), row))
                       for row in rows],
        }
        _emit_json(payload, args.out)
    return EXIT_OK


def cmd_scenario(args) -> int:
    try:
        cfg = scenario.config_with_overrides(scenario.ExperimentConfig(), args.override)
    except (KeyError, ValueError) as exc:  # args[0]: a KeyError's str() adds quotes
        raise CliError(exc.args[0], EXIT_IO)

    try:
        report = scenario.run_experiment(cfg)
    except scenario.CalibrationError as exc:
        raise CliError(str(exc), EXIT_NUMERICAL)
    except engine.StructuralError as exc:  # a source breaks the Heisenberg bound
        raise _invalid("scenario", exc)
    try:
        pair = entanglement.CorrelationPair(v_plus=report.v_plus, v_minus=report.v_minus)
    except ValueError as exc:  # no carrier reaches a readout: V is NaN
        raise CliError(f"{exc}: V+ = {report.v_plus:g}, V- = {report.v_minus:g}",
                       EXIT_NUMERICAL)
    verdict = entanglement.assess(
        pair, beam_levels=(report.phase.beam1, report.phase.beam2))

    payload = {
        "manifest": make_manifest("scenario", overrides=args.override),
        "config": dataclasses.asdict(cfg),
        "measurement_frequency_hz": report.phase.f_m,
        "detection_loss": report.detection_loss,
        "phase_path_loss": report.phase_path_loss,
        "amplitude_mode": _mode_json(report.amplitude),
        "phase_mode": _mode_json(report.phase),
        "entanglement": verdict.as_json_dict(),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _mode_json(mode: scenario.ModeResult) -> dict:
    return {"correlation": mode.correlation,
            "correlation_db": scenario.variance_to_db(mode.correlation),
            "anticorrelation": mode.anticorrelation, "beam1": mode.beam1,
            "beam2": mode.beam2}


def cmd_oracle(args) -> int:
    net, text = _load_network(args.net, args.override)
    combo = _resolve_combo(net.spec, args.combo)
    freq = _parse_flag("--freq", args.freq, dsl.parse_quantity, dsl.FREQ)
    problem = axis_error(FreqList((freq,)))
    if problem:
        raise CliError(f"bad --freq {args.freq!r}: {problem}", EXIT_IO)
    seed = _seed_from(args)

    # the engine reads the uncorrupted network and the Monte-Carlo runs the
    # corrupted one: a deliberate-mismatch diagnostic
    reference = net
    if args.mc_override:
        net = _compile(args.net, text, args.override + args.mc_override)

    try:
        cfg = montecarlo.MCConfig(
            sample_rate=8.0 * freq if args.sample_rate is None else args.sample_rate,
            seed=seed,
            segment_length=args.segment_length,
            segment_count=args.segments,
            window=args.window,
        )
        with _overflow_is_numerical():
            result = montecarlo.cross_validate(net, combo, 2.0 * math.pi * freq, cfg,
                                               reference=reference)
    except montecarlo.MCError as exc:
        raise CliError(str(exc), EXIT_NUMERICAL)

    payload = {
        "manifest": make_manifest("oracle", path=args.net, text=text,
                                  overrides=args.override + args.mc_override,
                                  seed=seed),
        "combo": _combo_json(combo),
        "result": result.as_json_dict(),
    }
    _emit_json(payload, args.out)
    return EXIT_OK if result.passed else EXIT_NUMERICAL


def cmd_design(args) -> int:
    if (args.frep is None) == (args.fm is None):
        raise CliError("give exactly one of --frep (with --n) or --fm", EXIT_IO)
    if not 1 <= args.n <= MAX_DESIGN_ROWS:
        raise CliError(f"--n must be between 1 and {MAX_DESIGN_ROWS}, got {args.n}",
                       EXIT_IO)
    try:
        if args.fm is not None:
            f_m = _parse_flag("--fm", args.fm, dsl.parse_quantity, dsl.FREQ)
            designs = [(None, mzi.PulsedDesign(mzi.delay_for_frequency(f_m), f_m))]
        else:
            f_rep = _parse_flag("--frep", args.frep, dsl.parse_quantity, dsl.FREQ)
            designs = [(n, mzi.pulsed_design(f_rep, n)) for n in range(1, args.n + 1)]
    except ValueError as exc:
        raise CliError(str(exc), EXIT_IO)
    rows = [{"n": n, "f_m_hz": d.f_m, "delta_l_m": d.delta_l,
             "tau_s": d.delta_l / scenario.SPEED_OF_LIGHT} for n, d in designs]
    payload = {"manifest": make_manifest("design"), "designs": rows}
    _emit_json(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sideband",
        description="Quantum-noise spectra of passive optical networks at rf "
                    "sideband frequencies")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a .net file")
    p.add_argument("net")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="frequency sweep of a photocurrent combo")
    p.add_argument("--net", required=True)
    p.add_argument("--freqs", help="LO:HI:STEP or F[,F...] (units ok)")
    p.add_argument("--combo", help=COMBO_HELP)
    p.add_argument("--override", action="append", default=[],
                   metavar="NAME.PARAM=VALUE")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scenario", help="run the twin-beam entanglement preset")
    p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--out")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("oracle", help="Monte-Carlo cross-validation of the engine")
    p.add_argument("--net", required=True)
    p.add_argument("--combo", help=COMBO_HELP)
    p.add_argument("--freq", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--segments", type=int, default=4096)
    p.add_argument("--segment-length", type=int, default=512)
    p.add_argument("--sample-rate", type=float,
                   help="Hz; default 8x the measurement frequency")
    p.add_argument("--window", choices=("hann", "rect"), default="hann")
    p.add_argument("--override", action="append", default=[],
                   metavar="NAME.PARAM=VALUE")
    p.add_argument("--mc-override", action="append", default=[],
                   metavar="NAME.PARAM=VALUE",
                   help="corrupt only the Monte-Carlo network (mismatch test)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("design", help="delay-line designs for pulsed operation")
    p.add_argument("--frep", help="laser repetition rate (units ok)")
    p.add_argument("--n", type=int, default=4,
                   help="list designs for 1..n pulse delays")
    p.add_argument("--fm", help="measurement frequency (units ok)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_design)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
