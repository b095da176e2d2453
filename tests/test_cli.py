import json
import math

import numpy as np
import pytest

from sideband import cli, dsl, engine, montecarlo, mzi, presets, scenario
from sideband.cli import main
from sideband.network import Combo, validate

MZ_THETA_PI = """\
source a squeezed amp=100 vx=-2.1dB vy=+18dB;
source v vacuum;
bs B1 from a, v t=0.7071067811865476;
delay LONG from B1.out2 tau=2.4390243902439025e-08 carrier_phase=1.5707963267948966;
bs B2 from B1.out1, LONG.out t=0.7071067811865476;
det C from B2.out1;
det D from B2.out2;
measure PM diff(C,D) freqs=20.5MHz;
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestValidate:
    def test_valid_preset(self, preset_path):
        assert main(["validate", preset_path("mz_phase")]) == 0

    def test_syntax_error_has_position(self, tmp_path, capsys):
        path = write(tmp_path, "bad.net", "source a coherent amp=;\n")
        assert main(["validate", path]) == 3
        err = capsys.readouterr().err
        assert "line 1" in err and "col" in err

    def test_cycle_is_validation_error(self, tmp_path, capsys):
        path = write(tmp_path, "cycle.net",
                     "source a coherent amp=1;"
                     "bs B1 from a, B2.out1 t=0.5; bs B2 from B1.out1 t=0.5;"
                     "det D from B1.out2;")
        assert main(["validate", path]) == 4
        assert "cycle" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/x.net"]) == 2

    def test_long_chain_declared_in_reverse(self, tmp_path, capsys):
        stages = ["phase P0 from a phi=0;"]
        stages += [f"phase P{i} from P{i - 1}.out phi=0;" for i in range(1, 3000)]
        path = write(tmp_path, "chain.net", "source a coherent amp=1;\n"
                     + "\n".join(reversed(stages)) + "\ndet D from P2999.out;\n")
        assert main(["validate", path]) == 0
        assert "3000 elements" in capsys.readouterr().out
        assert main(["simulate", "--net", path, "--combo", "single:0",
                     "--freqs", "1MHz"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_cycle_names_every_element_on_or_fed_by_it(self, tmp_path, capsys):
        path = write(tmp_path, "loops.net",
                     "source a coherent amp=1; bs X from Y.out1, Z.out; bs Y from X.out1;"
                     "phase Z from Y.out2 phi=0; phase W from X.out2 phi=0;"
                     "det D from W.out;")
        assert main(["validate", path]) == 4
        err = capsys.readouterr().err
        assert [ln.strip() for ln in err.splitlines() if "[cycle]" in ln] == [
            f"[cycle] {name}: element is on, or fed by, a wiring cycle" for name in "WXYZ"]

    def test_negative_measure_range_is_one_violation(self, mz_phase_text, tmp_path,
                                                     capsys):
        text = mz_phase_text.replace(
            "measure PM diff(C,D) freqs=15MHz:25MHz:0.5MHz;",
            "measure PM diff(C,D) freqs=-0.4MHz:0.4MHz:1Hz;")
        assert "-0.4MHz" in text
        path = write(tmp_path, "neg.net", text)
        assert main(["validate", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: network is invalid:\n")
        assert err.count("[range] PM: frequencies must be finite and >= 0") == 1
        assert len(validate(dsl.parse(text))) == 1

    @pytest.mark.parametrize("text, violation", [
        ("source a coherent amp=;\n", None),
        ("source a coherent amp=1; bs B from a; det C from B.out1; det D from B.out2;"
         "measure M sum(D,X) freqs=1MHz;",
         "[unknown-detector] M: measurement references unknown detector 'X'"),
    ])
    def test_validate_and_simulate_report_a_fault_alike(self, tmp_path, capsys, text,
                                                        violation):
        path = write(tmp_path, "bad.net", text)
        reports = []
        for argv in (["validate", path], ["simulate", "--net", path]):
            assert main(argv) == (3 if violation is None else 4)
            captured = capsys.readouterr()
            assert captured.out == ""
            reports.append(captured.err)
        assert reports[0] == reports[1]
        if violation is None:
            assert reports[0].startswith(f"error: {path}: line 1, col ")
        else:
            assert reports[0] == f"error: {path}: network is invalid:\n  {violation}\n"


class TestSimulate:
    def test_csv_sweep_peaks_at_design_frequency(self, preset_path, tmp_path):
        out = str(tmp_path / "sweep.csv")
        code = main(["simulate", "--net", preset_path("mz_phase"),
                     "--combo", "diff", "--freqs", "15MHz:25MHz:0.5MHz",
                     "--out", out, "--format", "csv"])
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "f_hz,abs,snl,norm,db"
        rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
        assert len(rows) == 21
        peak = max(rows, key=lambda r: r[4])
        assert peak[0] == pytest.approx(20.5e6)
        assert peak[4] == pytest.approx(18.0, abs=0.01)
        # manifest sidecar references the run
        manifest = load_json(out + ".manifest.json")
        assert manifest["command"] == "simulate"
        assert "input_sha256" in manifest

    def test_sum_sits_at_zero_db(self, preset_path, capsys):
        code = main(["simulate", "--net", preset_path("mz_phase"),
                     "--combo", "sum", "--freqs", "20.5MHz"])
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        db = float(line.split(",")[4])
        assert db == pytest.approx(0.0, abs=1e-4)

    def test_all_coherent_sweep_is_flat(self, tmp_path, capsys):
        path = write(tmp_path, "flat.net",
                     "source a coherent amp=50;"
                     "bs B from a t=0.7071067811865476;"
                     "det C from B.out1; det D from B.out2;")
        assert main(["simulate", "--net", path, "--combo", "diff",
                     "--freqs", "1MHz:10MHz:1MHz"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert all(abs(float(r.split(",")[3]) - 1.0) < 1e-9 for r in rows)

    def test_default_combo_without_measure_is_sum(self, tmp_path, capsys):
        path = write(tmp_path, "two.net",
                     "source a coherent amp=50; bs B from a t=0.6;"
                     "det C from B.out1; det D from B.out2;")
        assert main(["simulate", "--net", path, "--freqs", "1MHz"]) == 0
        default = capsys.readouterr().out
        assert main(["simulate", "--net", path, "--freqs", "1MHz", "--combo", "sum"]) == 0
        assert capsys.readouterr().out == default
        assert main(["simulate", "--net", path, "--freqs", "1MHz", "--combo", "single:0"]) == 0
        assert capsys.readouterr().out != default

    def test_default_combo_and_freqs_from_measure(self, preset_path, capsys):
        assert main(["simulate", "--net", preset_path("mz_phase")]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 21  # the preset sweep

    def test_json_format_embeds_manifest(self, preset_path, tmp_path):
        out = str(tmp_path / "sweep.json")
        assert main(["simulate", "--net", preset_path("mz_phase"),
                     "--combo", "measure:SN", "--freqs", "20.5MHz",
                     "--format", "json", "--out", out]) == 0
        doc = load_json(out)
        assert doc["manifest"]["command"] == "simulate"
        assert doc["combo"]["kind"] == "sum"
        assert len(doc["points"]) == 1

    def test_json_writes_null_where_no_carrier_reaches(self, tmp_path, capsys):
        path = write(tmp_path, "dark.net", "source a coherent amp=1; source v vacuum;"
                     "bs B from a, v t=1; det C from B.out1; det D from B.out2;")
        assert main(["simulate", "--net", path, "--combo", "single:1",
                     "--freqs", "1MHz", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert "NaN" not in out
        point = json.loads(out)["points"][0]
        assert point["norm"] is None and point["db"] is None and point["snl"] == 0.0

    def test_override_changes_result(self, tmp_path, capsys):
        path = write(tmp_path, "mz.net", MZ_THETA_PI)
        assert main(["simulate", "--net", path, "--combo", "diff",
                     "--freqs", "20.5MHz", "--override", "a.vy=+10dB"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        assert float(line.split(",")[3]) == pytest.approx(10.0, rel=1e-6)

    def test_unknown_combo_is_usage_error(self, preset_path):
        assert main(["simulate", "--net", preset_path("mz_phase"),
                     "--combo", "prod", "--freqs", "20MHz"]) == 2

    @pytest.mark.parametrize("freqs,message", [
        ("-1MHz", "frequencies must be finite and >= 0"),
        ("-2MHz:1MHz:1MHz", "frequencies must be finite and >= 0"),
        ("1MHz:2MHz:0", "frequency step must be > 0"),
        ("25MHz:15MHz:1MHz", "frequency range is empty"),
        ("1e308", "angular frequency 2*pi*f overflows"),
    ])
    def test_bad_freqs_flag_is_one_line_usage_error(self, preset_path, capsys,
                                                    freqs, message):
        assert main(["simulate", "--net", preset_path("mz_phase"),
                     f"--freqs={freqs}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad --freqs {freqs!r}: {message}\n"

    @pytest.mark.parametrize("command", [["validate"], ["simulate", "--net"]])
    def test_empty_measure_axis_is_a_range_violation(self, tmp_path, capsys, command):
        text = dsl.serialize(dsl.parse(presets.load("mz_phase")))
        path = write(tmp_path, "empty.net", text.replace(
            "freqs=15000000.0:25000000.0:500000.0", "freqs=25MHz:15MHz:1MHz", 1))
        assert main([*command, path]) == 4
        assert "[range] PM: frequency range is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["validate"], ["simulate", "--net"]])
    def test_overflowing_measure_axis_is_a_range_violation(self, tmp_path, capsys,
                                                           command):
        # 2*pi*1e308 is inf: the sweep would print a row of nan
        text = presets.load("mz_phase").replace("freqs=15MHz:25MHz:0.5MHz", "freqs=1e308", 1)
        assert "freqs=1e308" in text
        assert main([*command, write(tmp_path, "huge.net", text)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[range] PM: angular frequency 2*pi*f overflows" in captured.err

    @pytest.mark.parametrize("preset, measure, expected", [
        ("entangled_phase", "VMINUS", 0.732675),
        ("entangled_amplitude", "VPLUS", 0.63),
    ])
    def test_witness_measures_read_the_correlations(self, preset_path, capsys,
                                                    preset, measure, expected):
        assert main(["simulate", "--net", preset_path(preset), "--combo",
                     f"measure:{measure}", "--freqs", "20.5MHz", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["combo"]["kind"] == "weights"
        assert doc["points"][0]["norm"] == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("preset, measure", [
        (name, m.name) for name in presets.available()
        for m in dsl.parse(presets.load(name)).measurements])
    def test_every_preset_measure_runs(self, preset_path, capsys, preset, measure):
        assert main(["simulate", "--net", preset_path(preset), "--combo",
                     f"measure:{measure}", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(p["norm"]) for p in doc["points"])
        got = doc["combo"]
        if got["kind"] == "weights":
            rebuilt = Combo(tuple(zip(got["detectors"], got["weights"])))
        else:
            assert sorted(got) == ["detectors", "kind"]
            spelled = {"single": Combo.single, "sum": Combo.sum_of, "diff": Combo.diff_of}
            rebuilt = spelled[got["kind"]](*got["detectors"])
        spec = dsl.parse(presets.load(preset))
        assert rebuilt == next(m.combo for m in spec.measurements if m.name == measure)

    def test_freqs_flag_takes_a_measure_axis(self, preset_path, capsys):
        assert main(["simulate", "--net", preset_path("mz_phase"),
                     "--freqs", "1MHz,2.5MHz"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [1e6, 2.5e6]

    def test_sweep_over_several_blocks_matches_closed_form(self, preset_path, tmp_path):
        path = preset_path("mz_phase")
        spec = dsl.parse(open(path).read())
        delay = next(e.element for e in spec.elements if e.name == "LONG")
        noise = next(s.noise for s in spec.sources if s.name == "a")
        out = str(tmp_path / "long.csv")
        assert main(["simulate", "--net", path, "--combo", "diff",
                     "--freqs", "0Hz:60MHz:0.1MHz", "--out", out]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert len(rows) == 601 > engine.BLOCK
        theta = 2 * math.pi * rows[:, 0] * delay.tau
        expected = [mzi.diff_variance(t, delay.carrier_phase, noise.vx, noise.vy)
                    for t in theta]
        assert np.abs(rows[:, 3] - expected).max() <= 1e-9

    def test_validates_once(self, preset_path, monkeypatch, capsys):
        calls = []

        def counting(spec):
            calls.append(spec)
            return validate(spec)

        monkeypatch.setattr(engine, "validate", counting)
        assert main(["simulate", "--net", preset_path("mz_phase")]) == 0
        assert len(calls) == 1

    def test_invalid_network_message(self, tmp_path, capsys):
        path = write(tmp_path, "open.net",
                     "source a coherent amp=1; delay L from a tau=1ns; "
                     "det D from L.out; det E from L.out;")
        assert main(["simulate", "--net", path, "--freqs", "1MHz"]) == 4
        err = capsys.readouterr().err
        assert f"{path}: network is invalid:\n  [double-driven]" in err

    def test_bad_override_target(self, preset_path):
        assert main(["simulate", "--net", preset_path("mz_phase"),
                     "--combo", "sum", "--freqs", "20MHz",
                     "--override", "nosuch.t=0.5"]) == 2

    @pytest.mark.parametrize("override,code", [
        ("B1.t=1.5", 2), ("LONG.tau=-1ns", 2), ("a.vx=0.01", 2),  # refused values
        ("a.vx=0", 2), ("v.vx=2", 2), ("C.x=1", 2), ("B1.t", 2), ("nosuch.t=0.5", 2),
        ("a.phase=0.3", 0), ("a.amp_im=5", 0),  # parameters a squeezed source takes
    ])
    def test_override_contract(self, preset_path, capsys, override, code):
        path = preset_path("mz_phase")
        assert main(["simulate", "--net", path, "--freqs", "20MHz",
                     "--override", override]) == code
        err = capsys.readouterr().err
        if code:  # the parser's one-line message, as it gives it
            with pytest.raises(dsl.OverrideError) as refusal:
                dsl.parse(open(path).read(), [override])
            assert err == f"error: {refusal.value}\n"
        else:
            assert err == ""

    def test_csv_rows_format_like_per_value_fstrings(self, capsys):
        specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, -1e-300,
                    1e300, -1e300, 5e-324, 1.7976931348623157e308, 20.5e6, 1.0]
        gen = np.random.default_rng(5)
        rows = [tuple(float(v) for v in gen.choice(specials, 5)) for _ in range(200)]
        rows += [tuple(gen.standard_normal(5).tolist()) for _ in range(200)]
        rows += [tuple((10.0 ** gen.uniform(-300, 300, 5)).tolist()) for _ in range(200)]
        cli._emit_csv(rows, "f_hz,abs,snl,norm,db", None, {})
        expected = "f_hz,abs,snl,norm,db\n" + "\n".join(
            ",".join(f"{v:.12g}" for v in row) for row in rows) + "\n"
        assert capsys.readouterr().out == expected


class TestScenario:
    def test_default_report(self, tmp_path):
        out = str(tmp_path / "report.json")
        assert main(["scenario", "--out", out]) == 0
        doc = load_json(out)
        assert doc["amplitude_mode"]["correlation"] == pytest.approx(0.63, abs=1e-9)
        assert 0.72 <= doc["phase_mode"]["correlation"] <= 0.76
        assert doc["phase_mode"]["correlation_db"] == pytest.approx(-1.35, abs=0.01)
        ent = doc["entanglement"]
        assert ent["nonseparable"] is True
        assert ent["delta"] < 1
        assert 0.20 <= ent["eof_bits"] <= 0.26
        assert doc["manifest"]["command"] == "scenario"

    def test_visibility_override_removes_penalty(self, tmp_path):
        out = str(tmp_path / "vis.json")
        assert main(["scenario", "--override", "visibility=1.0", "--out", out]) == 0
        doc = load_json(out)
        assert doc["phase_mode"]["correlation"] == pytest.approx(
            doc["amplitude_mode"]["correlation"], rel=1e-9)

    def test_zero_squeezing_not_witnessed(self, tmp_path):
        out = str(tmp_path / "zero.json")
        assert main(["scenario", "--override", "squeezing_db=0", "--out", out]) == 0
        doc = load_json(out)
        assert doc["entanglement"]["delta"] == pytest.approx(1.0, abs=1e-9)
        assert doc["entanglement"]["nonseparable"] is False

    def test_reruns_are_identical_modulo_timestamp(self, tmp_path):
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["scenario", "--out", out1]) == 0
        assert main(["scenario", "--out", out2]) == 0
        d1, d2 = load_json(out1), load_json(out2)
        d1["manifest"].pop("timestamp")
        d2["manifest"].pop("timestamp")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    @pytest.mark.parametrize("squeezing", ["3", "-1.5"])
    def test_infeasible_calibration_is_numerical_error(self, squeezing, capsys):
        assert main(["scenario", "--override", f"squeezing_db={squeezing}"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error: infeasible calibration") and "\n" not in err
        assert "Traceback" not in err

    def test_heisenberg_breach_is_a_validation_error(self, capsys):
        assert main(["scenario", "--override", "excess_db=0"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: scenario: network is invalid:\n"
            "  [heisenberg] s1: Heisenberg bound violated: V_X * V_Y < 1\n"
            "  [heisenberg] s2: Heisenberg bound violated: V_X * V_Y < 1\n")

    def test_later_override_wins(self, tmp_path):
        out = str(tmp_path / "order.json")
        assert main(["scenario", "--override", "squeezing1_db=-2",
                     "--override", "squeezing_db=-2.2",
                     "--override", "squeezing1_db=-2.3", "--out", out]) == 0
        config = load_json(out)["config"]
        assert (config["squeezing1_db"], config["squeezing2_db"]) == (-2.3, -2.2)

    def test_unknown_override_key(self, capsys):
        assert main(["scenario", "--override", "bogus=1"]) == 2
        assert capsys.readouterr().err == "error: unknown scenario override 'bogus'\n"

    def test_carrier_is_not_an_override(self, capsys):
        # every scenario output is normalised to shot noise: the carrier is fixed
        assert main(["scenario", "--override", "carrier=5"]) == 2
        assert capsys.readouterr().err == "error: unknown scenario override 'carrier'\n"

    @pytest.mark.parametrize("override,key", [
        ("visibility=abc", "visibility"),
        ("visibility=1.5", "visibility"),
        ("detection_loss=1", "detection_loss"),
        ("pulse_multiple=2.5", "pulse_multiple"),
        ("amp_sum_target=nan", "amp_sum_target"),
        ("amp_sum_target=inf", "amp_sum_target"),
    ])
    def test_bad_override_value_is_usage_error(self, override, key, capsys):
        assert main(["scenario", "--override", override]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error: ") and key in err and "\n" not in err

    def test_parser_keeps_no_state_between_calls(self, tmp_path):
        first, second = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["scenario", "--override", "visibility=0.9", "--out", first]) == 0
        assert main(["scenario", "--out", second]) == 0
        assert load_json(first)["manifest"]["overrides"] == ["visibility=0.9"]
        doc = load_json(second)
        assert "overrides" not in doc["manifest"]
        assert doc["config"]["visibility"] == 0.85
        assert cli.build_parser() is cli.build_parser()


class TestOracle:
    def test_engine_agreement_passes(self, tmp_path, capsys):
        path = write(tmp_path, "mz.net", MZ_THETA_PI)
        code = main(["oracle", "--net", path, "--combo", "diff",
                     "--freq", "20.5MHz", "--seed", "42",
                     "--segments", "256", "--sample-rate", "164e6"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["passed"] is True
        assert abs(doc["result"]["z"]) <= 3
        assert doc["result"]["engine"] == pytest.approx(63.096, rel=1e-3)

    def test_witness_combo_equals_the_library_run(self, preset_path, capsys):
        code = main(["oracle", "--net", preset_path("entangled_phase"), "--combo",
                     "measure:VMINUS", "--freq", "20.5MHz", "--segments", "256",
                     "--seed", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["combo"] == {"kind": "weights", "detectors": ["D1c", "D1d", "D2c", "D2d"],
                                "weights": [1.0, -1.0, -1.0, 1.0]}
        net = engine.compile(dsl.parse(presets.load("entangled_phase")))
        cfg = montecarlo.MCConfig(sample_rate=164e6, seed=1, segment_count=256)
        want = montecarlo.cross_validate(net, scenario.correlation_weights("phase"),
                                         2 * math.pi * 20.5e6, cfg)
        assert code == (0 if want.passed else 5)
        got = doc["result"]
        assert (got["engine"], got["monte_carlo"], got["z"]) == (
            want.engine_value, want.mc_value, want.z)

    def test_corrupted_delay_fails(self, tmp_path, capsys):
        # theta = pi/2 point, Monte-Carlo delay one sample off
        text = MZ_THETA_PI.replace("2.4390243902439025e-08",
                                   "1.2195121951219512e-08")
        path = write(tmp_path, "mz_half.net", text)
        code = main(["oracle", "--net", path, "--combo", "diff",
                     "--freq", "20.5MHz", "--seed", "42",
                     "--segments", "2048", "--sample-rate", "328e6",
                     "--mc-override", "LONG.tau=1.524390243902439e-08"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 5
        assert abs(doc["result"]["z"]) > 5

    @pytest.mark.parametrize("override", ["B1.t=1.5", "a.vy=0.5"])
    def test_refused_mc_override_is_usage_error(self, preset_path, capsys, override):
        assert main(["oracle", "--net", preset_path("mz_phase"), "--freq", "20.5MHz",
                     "--segments", "8", "--mc-override", override]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: override {override!r}: ")
        assert captured.err.count("\n") == 1

    def test_mc_override_leaves_engine_value_at_snapped_bin(self, preset_path, capsys):
        # 20.6 MHz snaps to the 20.5 MHz bin; the engine side must be read
        # there, on the uncorrupted network, with or without --mc-override
        argv = ["oracle", "--net", preset_path("mz_phase"),
                "--override", "LONG.tau=24.390243902439025ns", "--freq", "20.6MHz",
                "--sample-rate", "164e6", "--combo", "diff", "--seed", "3",
                "--segments", "8"]
        main(argv)
        plain = json.loads(capsys.readouterr().out)["result"]
        main(argv + ["--mc-override", "a.vy=17.9dB"])
        corrupted = json.loads(capsys.readouterr().out)["result"]
        assert plain["frequency_hz"] == corrupted["frequency_hz"] == 20.5e6
        assert corrupted["engine"] == plain["engine"]
        assert corrupted["monte_carlo"] != plain["monte_carlo"]

    def test_dark_reference_writes_null(self, preset_path, capsys):
        code = main(["oracle", "--net", preset_path("mz_phase"),
                     "--override", "LONG.tau=24.390243902439025ns",
                     "--override", "a.amp=0", "--mc-override", "a.amp=100",
                     "--sample-rate", "164e6", "--freq", "20.5MHz", "--segments", "8"])
        out = capsys.readouterr().out
        assert code == 5
        assert "NaN" not in out
        result = json.loads(out)["result"]
        assert result["engine"] is None and result["z"] is None
        assert result["passed"] is False

    def test_bright_carrier_keeps_the_fluctuations(self, preset_path, capsys):
        # the rows carry no DC photocurrent, whose rounding at |alpha|^2 would
        # swamp fluctuations of size |alpha|
        values = []
        for amp in ("1e6", "1e40", "1e75"):
            assert main(["oracle", "--net", preset_path("mz_phase"), "--override",
                         f"a.amp={amp}", "--override", "LONG.tau=25ns", "--freq", "20MHz",
                         "--segments", "64", "--seed", "0"]) == 0
            values.append(json.loads(capsys.readouterr().out)["result"]["monte_carlo"])
        assert values[1] == pytest.approx(values[0], rel=1e-12)
        assert values[2] == pytest.approx(values[0], rel=1e-12)

    def test_result_carries_the_window_reference(self, tmp_path, capsys):
        path = write(tmp_path, "mz.net", MZ_THETA_PI)
        main(["oracle", "--net", path, "--combo", "diff", "--freq", "20.5MHz",
              "--seed", "5", "--segments", "64", "--sample-rate", "164e6"])
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["z"] == pytest.approx(
            (result["monte_carlo"] - result["reference"]) / result["stderr"])
        assert result["reference"] != result["engine"]

    @pytest.mark.parametrize("plan", [["--segments", "100000000000"],
                                      ["--segments", str(10 ** 18)],
                                      ["--segment-length", str(10 ** 18)]])
    def test_huge_sampling_plan_is_numerical_error(self, preset_path, capsys, plan):
        assert main(["oracle", "--net", preset_path("mz_phase"), "--freq", "20.5MHz",
                     "--override", "LONG.tau=24.390243902439025ns", *plan]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: sampling plan of ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("message", ["", "Unable to allocate 1.50 GiB for an array"])
    def test_out_of_memory_is_numerical_error(self, tmp_path, monkeypatch, capsys, message):
        def oversized(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(montecarlo, "cross_validate", oversized)
        path = write(tmp_path, "mz.net", MZ_THETA_PI)
        assert main(["oracle", "--net", path, "--freq", "20.5MHz", "--segments", "8",
                     "--sample-rate", "164e6"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: out of memory{': ' if message else ''}{message}\n"

    def test_zero_frequency_is_numerical_error(self, tmp_path, capsys):
        path = write(tmp_path, "mz.net", MZ_THETA_PI)
        assert main(["oracle", "--net", path, "--freq", "0Hz"]) == 5
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_seed_env_fallback(self, tmp_path, monkeypatch, capsys):
        path = write(tmp_path, "mz.net", MZ_THETA_PI)
        monkeypatch.setenv("SIDEBAND_SEED", "777")
        code = main(["oracle", "--net", path, "--combo", "sum",
                     "--freq", "20.5MHz", "--segments", "128",
                     "--sample-rate", "164e6"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["manifest"]["seed"] == 777

    def test_bad_seed_env_is_usage_error(self, preset_path, monkeypatch, capsys):
        monkeypatch.setenv("SIDEBAND_SEED", "abc")
        assert main(["oracle", "--net", preset_path("mz_phase"), "--freq", "20.5MHz"]) == 2
        assert capsys.readouterr().err == "error: SIDEBAND_SEED must be an integer, got 'abc'\n"


class TestDesign:
    def test_from_repetition_rate(self, capsys):
        assert main(["design", "--frep", "82MHz", "--n", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        by_n = {d["n"]: d for d in doc["designs"]}
        assert by_n[1]["delta_l_m"] == pytest.approx(3.656, abs=1e-3)
        assert by_n[1]["f_m_hz"] == pytest.approx(41e6)
        assert by_n[2]["delta_l_m"] == pytest.approx(7.312, abs=1e-3)
        assert by_n[2]["f_m_hz"] == pytest.approx(20.5e6)

    def test_from_measurement_frequency(self, capsys):
        assert main(["design", "--fm", "20.5MHz"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["designs"][0]["delta_l_m"] == pytest.approx(7.312, abs=1e-3)

    def test_conflicting_flags(self, capsys):
        assert main(["design", "--frep", "82MHz", "--fm", "20MHz"]) == 2
        assert main(["design"]) == 2

    def test_row_count_is_bounded(self, capsys):
        assert main(["design", "--frep", "82MHz", "--n", str(cli.MAX_DESIGN_ROWS)]) == 0
        assert len(json.loads(capsys.readouterr().out)["designs"]) == cli.MAX_DESIGN_ROWS
        assert main(["design", "--frep", "82MHz", "--n", "1001"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
