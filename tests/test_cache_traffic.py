"""The probe of ``tools/cache_traffic.py`` reports every cache of the package.

Its list of ``lru_cache``s is found at run time; here it is held to an
``ast`` scan of the sources for module-level ``lru_cache``s, decorated or
assigned.  An ``lru_cache`` made inside a function lives for one call and
is no module state (``bell._party_factors`` makes two).  The last test
holds the package to one policy: every such cache, and every hand-kept
cache of ``source_amp``, is read again on some workload.
"""

import ast
import importlib.util
from pathlib import Path

import cvbell
import cvbell.source_amp as sa

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(cvbell.__file__).parent
spec = importlib.util.spec_from_file_location("cache_traffic", ROOT / "tools" / "cache_traffic.py")
cache_traffic = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cache_traffic)


def is_lru_cache(node: ast.AST) -> bool:
    """``lru_cache`` or ``functools.lru_cache``, bare or called with its options."""
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id == "lru_cache") or (
        isinstance(node, ast.Attribute) and node.attr == "lru_cache")


def module_caches(source: str, module: str) -> set:
    """The ``module.name`` of every module-level ``lru_cache`` in ``source``."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and any(map(is_lru_cache, node.decorator_list)):
            names.add(f"{module}.{node.name}")
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and is_lru_cache(node.value.func)):
            names.update(f"{module}.{t.id}" for t in node.targets if isinstance(t, ast.Name))
    return names


def test_the_scan_finds_module_level_caches_only():
    source = ("@lru_cache(maxsize=2)\ndef f(x):\n    return x\n\n"
              "@functools.lru_cache\ndef g(x):\n    return x\n\n"
              "h = lru_cache(maxsize=4)(abs)\n\n"
              "def k(x):\n    inner = lru_cache(abs)\n    return inner(x)\n")
    assert module_caches(source, "m") == {"m.f", "m.g", "m.h"}


def test_the_probe_lists_the_caches_of_the_scan():
    scanned = set()
    for path in PACKAGE.glob("*.py"):
        scanned |= module_caches(path.read_text(encoding="utf-8"), path.stem)
    assert set(cache_traffic.caches()) == scanned
    assert {n for n in scanned if n.startswith("measurement.")} == {
        "measurement._ideal_binned_cached", "measurement.delta_grid",
        "measurement._loss_coefficients"}


def test_the_report_has_a_line_per_cache():
    lines = cache_traffic.report("now", dict.fromkeys(cache_traffic.dict_caches(), (0, 0)))
    assert len(lines) == 2 + len(cache_traffic.caches()) + len(cache_traffic.DICT_CACHES)
    assert all(isinstance(cache, dict) for cache in cache_traffic.dict_caches().values())


def test_every_cache_is_read_again_on_some_workload():
    """Each module-level ``lru_cache`` and hand-kept cache has a hit in some workload's seed-0 run.

    A cache that no run of the benchmark reads twice only keeps state; its
    function should build afresh on every call.  The hand-kept caches'
    lookups are counted through ``source_amp._cached``, which the probe
    puts back after each run.
    """
    lookup = sa._cached
    hits = dict.fromkeys([*cache_traffic.caches(), *cache_traffic.dict_caches()], 0)
    for name in cache_traffic.WORKLOADS:
        traffic = cache_traffic.run(name)
        assert sa._cached is lookup
        for key, cached in cache_traffic.caches().items():
            hits[key] += cached.cache_info().hits
        for key, (count, _) in traffic.items():
            hits[key] += count
    assert [key for key, count in hits.items() if not count] == []
