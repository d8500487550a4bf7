"""Print the traffic of every cache in ``cvbell`` over the benchmark's workloads and the report.

Each run starts with every cache empty and runs in process: the seed-0 ops
of one perfbench workload (built by ``perfbench.workloads.build``, which is
only read), or ``cvbell.reproduce.reproduce_all()``.  After the run the tool
prints the hits, misses and size of every module-level
``functools.lru_cache`` in ``cvbell`` and of the hand-kept
``source_amp._STACK_CACHE`` and ``source_amp._CAPPED_LOSS_CACHE``, whose
lookups it counts by wrapping ``source_amp._cached`` for the run.  A cache
with no hits kept state that no call of the run read again.

Usage::

    PYTHONPATH=src python tools/cache_traffic.py [RUN ...]

RUN is a workload name (``chsh-battery``, ``source-lossy``,
``pdc-ancilla``) or ``reproduce-all``; the default is all four.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import pkgutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DICT_CACHES = ("_STACK_CACHE", "_CAPPED_LOSS_CACHE")
WORKLOADS = ("chsh-battery", "source-lossy", "pdc-ancilla")


def caches() -> dict:
    """Every module-level ``lru_cache`` of ``cvbell``, by ``module.name``."""
    package = importlib.import_module("cvbell")
    found = {}
    for module in pkgutil.iter_modules(package.__path__):
        namespace = vars(importlib.import_module(f"cvbell.{module.name}"))
        for name, value in namespace.items():
            if hasattr(value, "cache_info") and value.__module__ == f"cvbell.{module.name}":
                found[f"{module.name}.{name}"] = value
    return found


def dict_caches() -> dict:
    """The hand-kept caches of ``source_amp``, by ``source_amp.name``."""
    source_amp = importlib.import_module("cvbell.source_amp")
    return {f"source_amp.{name}": getattr(source_amp, name) for name in DICT_CACHES}


def clear() -> None:
    for cached in caches().values():
        cached.cache_clear()
    for cache in dict_caches().values():
        cache.clear()


def run(name: str) -> dict:
    """Run ``name`` from empty caches: a workload's seed-0 ops, or the report.

    Returns ``[hits, misses]`` of each hand-kept cache over the run, counted
    at every ``source_amp._cached`` lookup.  What the commands print is
    dropped.
    """
    clear()
    source_amp = importlib.import_module("cvbell.source_amp")
    held = dict_caches()
    traffic = {key: [0, 0] for key in held}
    names = {id(cache): key for key, cache in held.items()}
    cached = source_amp._cached

    def counted(cache, size, key, build):
        traffic[names[id(cache)]][0 if key in cache else 1] += 1
        return cached(cache, size, key, build)

    source_amp._cached = counted
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if name == "reproduce-all":
                importlib.import_module("cvbell.reproduce").reproduce_all()
            else:
                from perfbench.workloads import build

                with tempfile.TemporaryDirectory() as workdir:
                    for op in build(name, 0, workdir):
                        op.run()
    finally:
        source_amp._cached = cached
    return traffic


def report(name: str, traffic: dict) -> list:
    """The traffic of every cache after ``run(name)`` returned ``traffic``."""
    lines = [f"{name}:", f"  {'cache':34s} {'hits':>6s} {'misses':>6s} {'size':>6s}"]
    for key, cached in sorted(caches().items()):
        info = cached.cache_info()
        lines.append(f"  {key:34s} {info.hits:6d} {info.misses:6d} {info.currsize:6d}")
    for key, cache in dict_caches().items():
        hits, misses = traffic[key]
        lines.append(f"  {key:34s} {hits:6d} {misses:6d} {len(cache):6d}")
    return lines


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    for name in argv[1:] or [*WORKLOADS, "reproduce-all"]:
        if name not in (*WORKLOADS, "reproduce-all"):
            print(f"cache_traffic: unknown run {name!r}", file=sys.stderr)
            return 2
        print("\n".join(report(name, run(name))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
