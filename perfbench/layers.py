"""Per-layer metrics of the traced run: what is wrapped and what is reported.

Every name below is reported by every traced run, with 0 for a layer the
workload does not reach.  A function or cache that a later commit removed is
reported as 0 and listed as absent.
"""

from __future__ import annotations

import importlib
import os

from .tracer import TracePoint
from . import workloads

PACKAGE = "cvbell"

BISECT = TracePoint("bell.bisect_threshold", objective=True, capture=True)

#: Every wrapped function and the statistics reported as ``<name>.<statistic>``.
TRACED = [
    (TracePoint("measurement.ideal_binned_homodyne"), ("calls", "self_s")),
    (TracePoint("measurement.lossy_binned_homodyne"), ("calls", "self_s")),
    (TracePoint("measurement.photodetection_povm"), ("calls", "self_s")),
    (TracePoint("fock.loss_kraus", key=lambda eta, cutoff: (float(eta), int(cutoff))),
     ("calls", "self_s", "distinct_ratio")),
    (TracePoint("fock.hermitian_eig"), ("calls", "self_s")),
    (TracePoint("fock.beam_splitter"), ("calls", "self_s")),
    (TracePoint("fock.embed_single_mode"), ("calls", "self_s")),
    (TracePoint("bell.bell_matrix"), ("calls", "self_s")),
    (TracePoint("bell.optimize_delta"), ("calls", "self_s", "incl_s")),
    (TracePoint("bell.optimal_state"), ("calls", "self_s")),
    (TracePoint("bell.golden_section_max", objective=True), ("calls", "evals")),
    (BISECT, ("calls", "evals")),
    (TracePoint("source_amp.amplified_source"), ("calls", "self_s")),
    (TracePoint("source_amp._source_stack"), ("calls", "incl_s")),
    (TracePoint("source_amp.max_source_chsh"), ("calls", "self_s", "incl_s")),
    (TracePoint("source_amp.herald_probabilities"), ("calls", "self_s")),
    (TracePoint("local_amp.apply_filters"), ("calls", "self_s")),
    (TracePoint("local_amp.filtered_chsh"), ("calls", "incl_s")),
    (TracePoint("sweep.write_csv"), ("calls", "self_s")),
    (TracePoint("sweep.write_sidecar"), ("calls", "self_s")),
    (TracePoint("cli.main"), ("calls", "self_s")),
]

TRACE_POINTS = [point for point, _ in TRACED]

#: Module state read at the end of the timed region: name -> (unit, better).
PROBES = {
    "measurement.quad_cache.hit_ratio": ("ratio", "higher"),
    "source_amp.stack_cache_mb": ("MiB", "lower"),
    "source_amp.capped_loss_cache.entries": ("count", "lower"),
    "sweep.bytes_written": ("B", "lower"),
}

_STAT = {
    "calls": ("count", "lower"),
    "evals": ("count", "lower"),
    "self_s": ("s", "lower"),
    "incl_s": ("s", "lower"),
    "distinct_ratio": ("ratio", "higher"),
}


def per_layer_spec() -> list:
    """Every per-layer metric as ``{"name", "unit", "better"}``, in report order."""
    spec = []
    for point, stats in TRACED:
        for stat in stats:
            unit, better = _STAT[stat]
            spec.append({"name": f"{point.name}.{stat}", "unit": unit, "better": better})
    for name, (unit, better) in PROBES.items():
        spec.append({"name": name, "unit": unit, "better": better})
    for workload in workloads.WORKLOADS:
        for op in workloads.op_names(workload):
            spec.append({"name": op_metric(op), "unit": "s", "better": "lower"})
    spec.append({"name": "trace.overhead_s", "unit": "s", "better": "lower"})
    return spec


def op_metric(op_name: str) -> str:
    return f"op.{op_name}.s"


def span_metrics(tracer) -> dict:
    """The span-derived metrics of a finished traced run."""
    summary = tracer.summary()
    out = {}
    for point, stats in TRACED:
        name = point.name
        row = summary.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        for stat in stats:
            if stat == "evals":
                value = tracer.evals.get(name, 0)
            elif stat == "distinct_ratio":
                calls = row["calls"]
                value = len(tracer.keys.get(name, ())) / calls if calls else 0.0
            else:
                value = row[stat]
            out[f"{name}.{stat}"] = value
    return out


def probe_metrics(output_dir: str, absent: list) -> dict:
    """Cache sizes and bytes written; a missing cache is appended to ``absent``."""
    measurement = importlib.import_module(f"{PACKAGE}.measurement")
    source_amp = importlib.import_module(f"{PACKAGE}.source_amp")
    out = {}

    cached = getattr(measurement, "_ideal_binned_cached", None)
    if hasattr(cached, "cache_info"):
        info = cached.cache_info()
        lookups = info.hits + info.misses
        out["measurement.quad_cache.hit_ratio"] = info.hits / lookups if lookups else 0.0
    else:
        absent.append("measurement._ideal_binned_cached")
        out["measurement.quad_cache.hit_ratio"] = 0.0

    stack = getattr(source_amp, "_STACK_CACHE", None)
    if isinstance(stack, dict):
        out["source_amp.stack_cache_mb"] = _nbytes(list(stack.values())) / 2**20
    else:
        absent.append("source_amp._STACK_CACHE")
        out["source_amp.stack_cache_mb"] = 0.0

    capped = getattr(source_amp, "_CAPPED_LOSS_CACHE", None)
    if isinstance(capped, dict):
        out["source_amp.capped_loss_cache.entries"] = len(capped)
    else:
        absent.append("source_amp._CAPPED_LOSS_CACHE")
        out["source_amp.capped_loss_cache.entries"] = 0

    written = 0
    if os.path.isdir(output_dir):
        for entry in os.scandir(output_dir):
            if entry.is_file():
                written += entry.stat().st_size
    out["sweep.bytes_written"] = written
    return out


def _nbytes(value) -> int:
    """Bytes held by the arrays inside nested tuples, lists and dicts (computed)."""
    if hasattr(value, "nbytes"):
        return int(value.nbytes)
    if isinstance(value, dict):
        return sum(_nbytes(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    return 0
