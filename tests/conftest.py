import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from sideband import presets

# Tier-1 runs the same examples every time and keeps no example database;
# per-test max_examples still apply.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def pytest_configure(config):
    # Hypothesis still caches the literals it reads from the source modules
    # under its home directory; keep that cache in a temporary directory that
    # goes with the session, not in the tree.
    home = tempfile.mkdtemp(prefix="hypothesis-home-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))


@pytest.fixture
def mz_phase_text():
    return presets.load("mz_phase")


@pytest.fixture
def preset_path(tmp_path):
    """Write a bundled preset to disk and return its path."""
    def _write(name: str):
        path = tmp_path / f"{name}.net"
        path.write_text(presets.load(name))
        return str(path)
    return _write
