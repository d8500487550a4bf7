"""Deterministic work distribution for parameter sweeps.

Grid points are independent pure computations; results are returned in input
order so that single-worker and multi-worker runs produce identical output.
"""

from __future__ import annotations


def map_ordered(fn, items, workers: int = 1) -> list:
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    import multiprocessing  # only a pool needs it; keeps it off `import cvbell`

    with multiprocessing.Pool(processes=min(workers, len(items))) as pool:
        return pool.map(fn, items)
