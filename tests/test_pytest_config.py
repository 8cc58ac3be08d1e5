"""The test configuration of `pyproject.toml`: a failing property test is
reported as one failure, and the session runs on to the next test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None, deadline=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_failing_property_test_fails_alone(tmp_path):
    # hypothesis reports a failure through libcst, whose imports raise a
    # DeprecationWarning that the `error::` filters must not turn into an
    # INTERNALERROR ending the session
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
