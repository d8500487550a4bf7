"""Deterministic work distribution for parameter sweeps.

Grid points are independent pure computations; results are returned in input
order so that single-worker and multi-worker runs produce identical output.
"""

from __future__ import annotations

import os


def map_ordered(fn, items, workers: int = 1) -> list:
    """``[fn(item) for item in items]`` on at most ``workers`` processes.

    The pool never exceeds the items or ``os.cpu_count()``; a single worker
    runs the items in this process, without a pool.
    """
    items = list(items)
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    import multiprocessing  # only a pool needs it; keeps it off `import cvbell`

    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(fn, items)
