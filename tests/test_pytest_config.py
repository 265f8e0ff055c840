"""The repository's pytest configuration reports a failing property test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_property(x):
    assert x < 5
"""


def test_failing_property_prints_its_example(tmp_path):
    # hypothesis's failure report imports libcst, whose import warns; with
    # warnings as errors that used to end the run in INTERNALERROR
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert run.returncode == 1, output
    assert "assert 5 < 5" in output
    assert "1 failed" in output
