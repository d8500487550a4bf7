"""The pool of worker processes is optional: importing the package needs none."""

import multiprocessing
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from cvbell.bell import critical_efficiency
from cvbell.cli import _solve_at
from cvbell.parallel import map_ordered

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
    solve = partial(_solve_at, critical_efficiency, "eta_d", {"target": "eta_t"})
    grid = [0.8, 0.9, 1.0]
    assert map_ordered(solve, grid, workers=2) == map_ordered(solve, grid, workers=1)


class RecordingPool:
    """Stands in for ``multiprocessing.Pool``: records its size and starts no process."""

    sizes: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


@pytest.mark.parametrize("workers, items, cpus, pool", [
    (1000, 5, 2, 2),   # capped at the machine
    (3, 5, 8, 3),      # as asked
    (8, 2, 8, 2),      # no more processes than items
    (1000, 5, 1, None),  # one process: no pool
    (4, 5, None, None),  # an unknown CPU count counts as one
    (0, 5, 8, None),
])
def test_pool_is_capped_at_the_cpu_count(workers, items, cpus, pool, monkeypatch):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert map_ordered(lambda x: x * x, range(items), workers=workers) == [
        x * x for x in range(items)]
    assert RecordingPool.sizes == ([] if pool is None else [pool])
