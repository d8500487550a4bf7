"""Tests of the benchmark's own logic.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import cvbell.bell  # noqa: E402
import cvbell.source_amp  # noqa: E402
from perfbench import checks, layers, run, workloads  # noqa: E402
from perfbench.tracer import Capture, TracePoint, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_covered_child_intervals():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # d [8, 12] overruns its parent b and is clipped to [8, 9].
    start = [0.0, 1.0, 5.0, 2.0, 8.0]
    end = [10.0, 4.0, 9.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 2]
    assert self_times(start, end, parent) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_tracer_summary_of_nested_calls():
    tracer = Tracer("cvbell", [])
    with tracer.op(0, "outer"):
        with tracer.op(0, "inner"):
            pass
    summary = tracer.summary()
    assert summary["outer"]["calls"] == summary["inner"]["calls"] == 1
    inner = summary["inner"]["incl_s"]
    assert summary["outer"]["self_s"] == pytest.approx(summary["outer"]["incl_s"] - inner)


def test_call_through_another_module_binding_is_counted():
    original = cvbell.bell.optimize_delta
    tracer = Tracer("cvbell", [TracePoint("bell.optimize_delta")])
    tracer.install()
    try:
        assert cvbell.source_amp.optimize_delta is not original
        party = cvbell.bell.PartyConditions()
        cvbell.source_amp.optimize_delta(party, party, grid_points=5)
    finally:
        tracer.uninstall()
    assert cvbell.source_amp.optimize_delta is original
    assert cvbell.bell.optimize_delta is original
    assert tracer.summary()["bell.optimize_delta"]["calls"] == 1


def test_objective_evaluations_are_counted():
    calls = []

    def f(x):
        calls.append(x)
        return -(x - 1.0) ** 2

    tracer = Tracer("cvbell", [TracePoint("bell.golden_section_max", objective=True)])
    tracer.install()
    try:
        cvbell.source_amp.golden_section_max(f, 0.0, 2.0, 1e-3)
    finally:
        tracer.uninstall()
    assert tracer.evals["bell.golden_section_max"] == len(calls) > 0


def test_missing_names_are_reported_absent(monkeypatch, tmp_path):
    tracer = Tracer("cvbell", [TracePoint("bell.no_such_function"),
                               TracePoint("no_such_module.function")])
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["bell.no_such_function", "no_such_module.function"]

    monkeypatch.delattr(cvbell.source_amp, "_STACK_CACHE")
    absent = []
    probes = layers.probe_metrics(str(tmp_path), absent)
    assert absent == ["source_amp._STACK_CACHE"]
    assert probes["source_amp.stack_cache_mb"] == 0.0


def test_bracket_check_rejects_a_wrong_threshold():
    def objective(x):
        return 2.0 + (x - 0.5)

    def capture(result):
        return Capture(0, objective, {"lo": 0.0, "hi": 1.0, "tol": 1e-3}, result)

    assert checks.bracket_problems([capture(0.5)]) == []
    assert len(checks.bracket_problems([capture(0.6)])) == 1
    assert len(checks.bracket_problems([capture(0.4)])) == 1


def test_seed_zero_is_the_fixed_set_and_other_seeds_stay_in_range():
    for workload, ranges in workloads.RANGES.items():
        assert workloads.params(workload, 0) == {k: v[0] for k, v in ranges.items()}
        assert workloads.params(workload, 7) == workloads.params(workload, 7)
        for seed in range(1, 20):
            for name, value in workloads.params(workload, seed).items():
                assert ranges[name][1] <= value <= ranges[name][2]


def test_seed_zero_battery_runs_the_listed_commands(tmp_path):
    ops = workloads.build("chsh-battery", 0, str(tmp_path))
    assert [op.name for op in ops] == workloads.op_names("chsh-battery")
    assert len(ops) == 18
    for workload in ("source-lossy", "pdc-ancilla"):
        built = workloads.build(workload, 0, str(tmp_path))
        assert [op.name for op in built] == workloads.op_names(workload)


@pytest.mark.parametrize("workload, names", [
    ("chsh-battery", ["c2.threshold.sym.eta-t", "c2.threshold.psi2.eta-d",
                      "c2.local-amp.g-high"]),
    ("pdc-ancilla", ["c4.herald-probabilities", "c4.amplified-source"]),
])
def test_seed_zero_reproduces_the_references(workload, names, tmp_path):
    ops = [op for op in workloads.build(workload, 0, str(tmp_path)) if op.name in names]
    tracer = Tracer(layers.PACKAGE, [layers.BISECT], record=False)
    tracer.install()
    try:
        results = {}
        for index, op in enumerate(ops):
            with tracer.op(index, op.name):
                results[op.name] = op.run()
        outcomes = checks.check_ops(workload, 0, ops, results, {}, tracer.captures)
    finally:
        tracer.uninstall()
    assert [o["problems"] for o in outcomes] == [[]] * len(ops)
    for outcome in outcomes:
        reference = workloads.REFERENCES[workload][outcome["name"]]
        assert np.allclose(outcome["values"], reference, rtol=0.0, atol=1e-12)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["per_layer"] == layers.per_layer_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_package_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pdc-ancilla", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
