"""The package never imports numpy.

The kernel's exact enumerator is plain Python, and numpy was the
package's most expensive import.  A fresh interpreter that imports
``repro`` and serves one ``auto`` query must come out without numpy in
``sys.modules``.  The check only bites where numpy is installed, so it
is skipped (not silently passed) where it is not.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

import repro
from repro.workloads import chain

result = repro.Optimizer().optimize(chain(8, seed=0))
print("numpy" in sys.modules, result.algorithm)
"""


@pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None,
    reason="numpy is not installed, so nothing could import it",
)
def test_optimize_under_auto_does_not_import_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    numpy_loaded, algorithm = completed.stdout.split()
    assert numpy_loaded == "False"
    assert algorithm == "dphyp-kernel"
