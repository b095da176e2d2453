"""The benchmark's workloads (bench/workloads.py) import library names and
call them with fixed signatures.  Setting every workload up here turns a
rename or a changed signature of such a name into a tier-1 failure."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
# bench modules imported by top-level name; tests/netgen.py shares one of them
BENCH_MODULES = ("workloads", "checks", "netgen")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    saved = {name: sys.modules.pop(name) for name in BENCH_MODULES if name in sys.modules}
    try:
        yield importlib.import_module("workloads")
    finally:
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def test_every_workload_sets_up_and_a_scenario_op_passes(workloads, tmp_path):
    built = {}
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        built[name] = workload(11, workdir)
        assert built[name].ops, name
    assert set(built) == {"sweep", "scenario", "large", "oracle"}
    # every generated network goes through `sideband simulate` and its check
    for op in [built["scenario"].ops[0], *built["large"].ops]:
        assert op.check(op.run(0)) == [], op.name
