"""Exit-code contract under bad input: every subcommand ends with a
documented code (0 ok, 2 usage, 3 parse, 4 validation, 5 numerical) and
never lets an exception escape."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from sideband import presets
from sideband.cli import main
from sideband.network import MAX_SWEEP_POINTS

EXIT_CODES = {0, 2, 3, 4, 5}

# flag values: zero, negative, non-numeric, non-finite and malformed
# quantities, plus a few good ones so that later checks are reached
QUANTITIES = st.sampled_from([
    "0", "0Hz", "-1", "-20.5MHz", "abc", "", "nan", "inf", "1e400", "1e-300", "1e-320",
    "20.5MHz", "82MHz", "5 MHz", "1..2", "20.5MHz:", "7.32m", "24.390243902439025ns",
    "-3dB", "+15dB", "0.5", "2",
])
FREQ_RANGES = st.sampled_from([
    "0", "-1MHz", "abc", "", "1MHz:0:1kHz", "1MHz:2MHz:0", "1MHz:2MHz:-1kHz",
    "1MHz:2MHz", "1MHz::1kHz", "20.5MHz", "15MHz:25MHz:0.5MHz", "1e400", "0:1e400:1e399",
    "0:1e300:1e-300", "0:1e300:1", "1e-300:2e-300:1e-320",
])
COMBOS = st.sampled_from([
    "sum", "diff", "prod", "", "single:0", "single:1", "single:9", "single:-1",
    "single:x", "single:", "single:1.5", "measure:PM", "measure:BEAM1",
    "measure:VMINUS", "measure:VPLUS", "measure:ANTI", "measure:NOPE", "measure:",
])
OVERRIDES = st.one_of(
    st.builds("{}.{}={}".format,
              st.sampled_from(["B1", "LONG", "a", "v", "s1", "ARM1", "DET1", "NOPE", ""]),
              st.sampled_from(["t", "tau", "length", "carrier_phase", "phi", "eta",
                               "amp", "vx", "vy", "x", ""]),
              QUANTITIES),
    st.sampled_from(["", "=", "B1", "B1.t", ".=", "B1=1", "=1"]),
)
SCENARIO_OVERRIDES = st.one_of(
    st.builds("{}={}".format,
              st.sampled_from(["visibility", "detection_loss", "squeezing_db",
                               "squeezing1_db", "squeezing2_db", "amp_sum_target",
                               "excess_db", "excess_correlation", "pulse_multiple",
                               "rep_rate_hz", "carrier", "nope", ""]),
              QUANTITIES),
    st.sampled_from(["", "=", "visibility"]),
)
NETS = st.sampled_from(["@mz_phase", "@entangled_phase", "@garbage", "@missing",
                        "@huge_sweep"])
# --out: a writable file, a directory, a file in a missing directory, and a
# CSV whose manifest sidecar path is a directory
OUT = st.one_of(st.just([]), st.sampled_from(
    ["@out_file", "@out_dir", "@no_dir", "@sidecar_dir"]).map(lambda p: ["--out", p]))
SMALL_INTS = st.sampled_from(["0", "-1", "1", "2", "8", "abc", "1e3"])
# design --n: below 1, small, malformed, and above MAX_SWEEP_POINTS
DESIGN_NS = st.sampled_from(["0", "-3", "1", "2", "8", "abc", "1e3",
                             str(MAX_SWEEP_POINTS + 1), "100000000", str(10 ** 30)])


def _flag(name, values):
    """An optional --name=value pair (the = form lets negatives through)."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


def _repeated(name, values):
    return st.lists(values, max_size=2).map(
        lambda vs: [f"--{name}={v}" for v in vs])


def _argv(command, *parts):
    return st.tuples(*parts).map(lambda ps: [command] + [a for p in ps for a in p])


# well-formed runs, so that the strict JSON check reads each command's report
GOOD_ARGV = st.one_of(
    _argv("simulate", st.sampled_from([["--net", "@mz_phase"], ["--net", "@entangled_phase"]]),
          _flag("freqs", st.sampled_from(["20.5MHz", "15MHz:25MHz:0.5MHz"])),
          st.lists(st.sampled_from(["a.vy=+15dB", "s1.vx=-3dB", "LONG.tau=24.4ns"]),
                   max_size=1).map(lambda vs: [f"--override={v}" for v in vs]),
          st.just(["--format=json"])),
    # weights combos, whose JSON carries "weights"
    _argv("simulate", st.sampled_from([
              ["--net", "@entangled_phase", "--combo=measure:VMINUS"],
              ["--net", "@entangled_phase", "--combo=measure:ANTI"],
              ["--net", "@entangled_amplitude", "--combo=measure:VPLUS"]]),
          st.just(["--format=json"])),
    _argv("oracle", st.sampled_from(["@mz_phase", "@entangled_phase"]).map(
              lambda n: ["--net", n]),
          st.sampled_from(["20.5MHz", "41MHz"]).map(lambda f: [f"--freq={f}"]),
          _flag("seed", st.sampled_from(["0", "7"])),
          st.just(["--segments=8", "--segment-length=64", "--sample-rate=164e6"])),
    _argv("scenario", _repeated("override", st.sampled_from(
        ["visibility=0.9", "squeezing_db=-3", "excess_db=12", "excess_correlation=0.5"]))),
    _argv("design", st.sampled_from([["--fm=20.5MHz"], ["--frep=82MHz", "--n=3"]])),
)

ARGV = st.one_of(
    GOOD_ARGV,
    _argv("validate", NETS.map(lambda n: [n])),
    _argv("simulate", NETS.map(lambda n: ["--net", n]), _flag("freqs", FREQ_RANGES),
          _flag("combo", COMBOS), _repeated("override", OVERRIDES),
          _flag("format", st.sampled_from(["csv", "json", "xml"])), OUT),
    _argv("oracle", NETS.map(lambda n: ["--net", n]), _flag("freq", QUANTITIES),
          _flag("combo", COMBOS), _flag("seed", st.sampled_from(["-1", "0", "7", "x"])),
          # always a small sampling plan: valid runs stay fast
          SMALL_INTS.map(lambda v: [f"--segments={v}"]),
          st.sampled_from(["0", "-8", "7", "64", "abc"]).map(
              lambda v: [f"--segment-length={v}"]),
          _flag("sample-rate", st.sampled_from(["0", "-1", "nan", "inf", "abc", "164e6"])),
          _repeated("override", OVERRIDES), _repeated("mc-override", OVERRIDES), OUT),
    _argv("scenario", _repeated("override", SCENARIO_OVERRIDES), OUT),
    _argv("design", _flag("fm", QUANTITIES), _flag("frep", QUANTITIES),
          _flag("n", DESIGN_NS), OUT),
)


@pytest.fixture(scope="module")
def nets(tmp_path_factory):
    root = tmp_path_factory.mktemp("nets")
    paths = {"@missing": str(root / "missing.net")}
    for name in ("mz_phase", "entangled_phase", "entangled_amplitude"):
        (root / f"{name}.net").write_text(presets.load(name))
        paths[f"@{name}"] = str(root / f"{name}.net")
    (root / "garbage.net").write_text("source a coherent amp=;\n")
    paths["@garbage"] = str(root / "garbage.net")
    # a measure statement whose point count overflows to inf
    (root / "huge_sweep.net").write_text(
        presets.load("mz_phase").replace("15MHz:25MHz:0.5MHz", "0:1e300:1e-300", 1))
    paths["@huge_sweep"] = str(root / "huge_sweep.net")
    (root / "not_utf8.net").write_bytes(b"source a coherent amp=1;\xff\xfe")
    paths["@not_utf8"] = str(root / "not_utf8.net")
    # a combo weight whose square overflows
    (root / "huge_weight.net").write_text(
        presets.load("mz_phase") + "measure W weights(C=1e200, D=1) freqs=1MHz;\n")
    paths["@huge_weight"] = str(root / "huge_weight.net")
    paths["@out_file"] = str(root / "out.txt")
    paths["@out_dir"] = str(root)
    paths["@no_dir"] = str(root / "missing" / "out.txt")
    (root / "sidecar.csv.manifest.json").mkdir()
    paths["@sidecar_dir"] = str(root / "sidecar.csv")
    return paths


def run(argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(argv=ARGV)
def test_every_run_ends_with_a_documented_code(nets, argv):
    argv = [nets.get(a, a) for a in argv]
    code, out, _ = run(argv)
    assert code in EXIT_CODES, argv
    if out and (argv[0] in ("design", "scenario", "oracle") or "--format=json" in argv):
        json.loads(out, parse_constant=_no_constant)  # no Infinity or NaN


@pytest.mark.parametrize("argv", [
    ["design", "--fm", "0"],
    ["design", "--frep", "0"],
    ["design", "--fm", "abc"],
    ["simulate", "--net", "@mz_phase", "--combo", "single:x"],
    ["simulate", "--net", "@mz_phase", "--combo", "single:"],
    ["simulate", "--net", "@mz_phase", "--override", "B1.t=abc"],
    ["oracle", "--net", "@mz_phase", "--freq", "20.5MHz", "--combo", "single:x"],
    ["oracle", "--net", "@mz_phase", "--freq", "20.5MHz", "--mc-override", "NOPE.t=1"],
    ["oracle", "--net", "@mz_phase", "--freq", "20.5MHz", "--mc-override", "B1.t=abc"],
    ["oracle", "--net", "@mz_phase", "--freq", "20.5MHz", "--seed", "-1"],
    ["simulate", "--net", "@mz_phase", "--freqs", "0:1e400:1e399"],
    ["simulate", "--net", "@mz_phase", "--override", "a.vy=100000dB"],
    ["design", "--fm", "1e400"],
    ["design", "--fm", "1e-320"],
    ["design", "--frep", "1e-320"],
    ["simulate", "--net", "@mz_phase", "--freqs", "0:1e300:1e-300"],
    ["simulate", "--net", "@mz_phase", "--freqs", "0:1e300:1"],
    ["simulate", "--net", "@mz_phase", "--freqs", "25MHz:15MHz:1MHz"],
    ["design", "--fm", "20MHz", "--out", "@no_dir"],
    ["simulate", "--net", "@mz_phase", "--out", "@out_dir"],
    ["simulate", "--net", "@mz_phase", "--out", "@sidecar_dir"],
    ["scenario", "--out", "@no_dir"],
    ["scenario", "--override", "squeezing1_db=1e6"],
    ["scenario", "--override", "excess_db=1e6"],
    ["scenario", "--override", "squeezing1_db=nan", "--override", "detection_loss=0.1"],
    ["scenario", "--override", "excess_db=-1e6"],
    ["scenario", "--override", "rep_rate_hz=1e-300"],
    ["scenario", "--override", "pulse_multiple=1e300"],
    ["design", "--frep", "82MHz", "--n", "0"],
    ["design", "--frep", "82MHz", "--n=-3"],
    ["design", "--frep", "82MHz", "--n", str(MAX_SWEEP_POINTS + 1)],
    ["design", "--frep", "82MHz", "--n", "100000000"],
    ["validate", "@not_utf8"],
    ["simulate", "--net", "@not_utf8"],
    ["oracle", "--net", "@not_utf8", "--freq", "20.5MHz"],
])
def test_bad_values_are_one_line_usage_errors(nets, argv):
    code, _, err = run([nets.get(a, a) for a in argv])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["oracle", "--net", "@entangled_phase", "--freq", "20.5MHz", "--segments", "8",
     "--segment-length", "64", "--sample-rate=nan"],
    ["oracle", "--net", "@entangled_phase", "--freq", "20.5MHz", "--segments", "8",
     "--segment-length", "64", "--sample-rate=inf"],
    ["oracle", "--net", "@entangled_phase", "--freq", "20.5MHz", "--segments", "8",
     "--segment-length", "64", "--sample-rate=0"],
    # no carrier reaches the phase readout, so V- is NaN
    ["scenario", "--override", "visibility=0"],
    ["scenario", "--override", "visibility=1e-300"],
    # the carrier flux or a combo weight squared overflows
    ["simulate", "--net", "@mz_phase", "--override", "a.amp=1e160", "--freqs", "20MHz"],
    ["simulate", "--net", "@huge_weight", "--combo", "measure:W"],
    ["oracle", "--net", "@mz_phase", "--override", "a.amp=1e160", "--override",
     "LONG.tau=25ns", "--freq", "20MHz", "--segments", "8", "--segment-length", "64"],
    ["oracle", "--net", "@huge_weight", "--override", "LONG.tau=250ns", "--combo",
     "measure:W", "--freq", "1MHz", "--segments", "8", "--segment-length", "64"],
    # a nonzero frequency below half a bin width would be read at 0 Hz
    ["oracle", "--net", "@mz_phase", "--freq", "20MHz", "--sample-rate", "1e300",
     "--segments", "64"],
    # a delay of 2^53 samples or more: every such double is an integer
    ["oracle", "--net", "@mz_phase", "--freq", "20.5MHz", "--sample-rate", "164e6",
     "--segments", "16", "--segment-length", "64", "--override", "LONG.tau=1e285"],
])
def test_impossible_numbers_are_one_line_numerical_errors(nets, argv):
    code, out, err = run([nets.get(a, a) for a in argv])
    assert code == 5
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["validate", "@huge_sweep"],
    ["simulate", "--net", "@huge_sweep"],
])
def test_huge_measure_range_is_a_range_violation(nets, argv):
    code, _, err = run([nets.get(a, a) for a in argv])
    assert code == 4
    assert "[range] PM: more than" in err
