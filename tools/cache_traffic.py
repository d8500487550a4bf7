"""Print the traffic of every cache in ``cvbell`` over the benchmark's workloads and the report.

Each run starts with every cache empty and runs in process: the seed-0 ops
of one perfbench workload (built by ``perfbench.workloads.build``, which is
only read), or ``cvbell.reproduce.reproduce_all()``.  After the run the tool
prints the hits, misses and size of every module-level
``functools.lru_cache`` in ``cvbell``, and the entry counts of
``source_amp._STACK_CACHE`` and ``source_amp._CAPPED_LOSS_CACHE``.  A cache
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


def run(name: str) -> None:
    """Run ``name`` from empty caches: a workload's seed-0 ops, or the report.

    What the commands print is dropped.
    """
    clear()
    with contextlib.redirect_stdout(io.StringIO()):
        if name == "reproduce-all":
            importlib.import_module("cvbell.reproduce").reproduce_all()
            return
        from perfbench.workloads import build

        with tempfile.TemporaryDirectory() as workdir:
            for op in build(name, 0, workdir):
                op.run()


def report(name: str) -> list:
    lines = [f"{name}:", f"  {'cache':34s} {'hits':>6s} {'misses':>6s} {'size':>6s}"]
    for key, cached in sorted(caches().items()):
        info = cached.cache_info()
        lines.append(f"  {key:34s} {info.hits:6d} {info.misses:6d} {info.currsize:6d}")
    for key, cache in dict_caches().items():
        lines.append(f"  {key:34s} {'':6s} {'':6s} {len(cache):6d}")
    return lines


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    for name in argv[1:] or [*WORKLOADS, "reproduce-all"]:
        if name not in (*WORKLOADS, "reproduce-all"):
            print(f"cache_traffic: unknown run {name!r}", file=sys.stderr)
            return 2
        run(name)
        print("\n".join(report(name)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
