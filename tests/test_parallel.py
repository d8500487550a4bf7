"""The pool of worker processes is optional: importing the package needs none."""

import os
import subprocess
import sys
from pathlib import Path

from cvbell.bell import region_boundary

ROOT = Path(__file__).resolve().parent.parent


def test_import_leaves_multiprocessing_out():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, cvbell; print('multiprocessing' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def test_two_workers_equal_one():
    grid = [0.8, 0.9, 1.0]
    assert region_boundary(grid, workers=2) == region_boundary(grid, workers=1)
