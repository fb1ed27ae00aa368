"""The benchmark's own unit tests pass.

perfbench's checkers call and trace the constants functions, so a change
there can break ``python3 -m pytest perfbench`` while every test under
``tests/`` passes.  This runs that suite in a child process from the repo
root.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_unit_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
