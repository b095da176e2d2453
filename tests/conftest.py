import pytest
from hypothesis import settings

from sideband import presets

# Tier-1 runs the same examples every time and keeps no example database;
# per-test max_examples still apply.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


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
