"""The repo's pytest configuration reports a failing property test.

``pyproject.toml`` turns DeprecationWarning into an error.  When a
``@given`` test fails, hypothesis imports libcst to explain the example,
and libcst's ``mypy_extensions`` import warns; unless that one message is
ignored, the run aborts with an INTERNALERROR (exit 3), shows no
falsifying example and runs no later test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

CHILD_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_test_is_reported(tmp_path):
    (tmp_path / "test_child.py").write_text(CHILD_TESTS)
    # cwd=tmp_path: hypothesis writes .hypothesis/patches there
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_child.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
