import importlib.util
import pathlib
import subprocess
import sys
import sysconfig

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pytest
from hypothesis import settings

from quandles import _kernel, enumerate_all, enumerate_classes

# first example of a property test may trigger a cached full enumeration
settings.register_profile("quandles", deadline=None)
settings.load_profile("quandles")

_reports: dict = {}
_streams: dict = {}


@pytest.fixture(scope="session")
def report_for():
    """Session-cached enumerate_classes(n)."""

    def get(n):
        if n not in _reports:
            _reports[n] = enumerate_classes(n)
        return _reports[n]

    return get


@pytest.fixture(scope="session")
def matrices_for():
    """Session-cached list(enumerate_all(n))."""

    def get(n):
        if n not in _streams:
            _streams[n] = list(enumerate_all(n))
        return _streams[n]

    return get


@pytest.fixture(scope="session")
def built_speedups(tmp_path_factory):
    """quandles._speedups compiled by the repository's setup.py into a temp
    dir and loaded from there, or None when it does not build."""
    out = tmp_path_factory.mktemp("speedups")
    try:
        subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext",
             "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
            cwd=ROOT, capture_output=True, timeout=300,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    path = out / "lib" / "quandles" / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    if not path.is_file():
        return None
    spec = importlib.util.spec_from_file_location("quandles._speedups", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def compiled(built_speedups, monkeypatch):
    """The freshly built compiled kernel, active for the test; skips if it did not build."""
    if built_speedups is None:
        pytest.skip("compiled kernel did not build")
    monkeypatch.setattr(_kernel, "_speedups", built_speedups)
    return built_speedups


@pytest.fixture
def fastest_kernel(built_speedups, monkeypatch):
    """The compiled kernel when it built, else the pure-Python fallback."""
    if built_speedups is not None:
        monkeypatch.setattr(_kernel, "_speedups", built_speedups)
    return _kernel.backend()
