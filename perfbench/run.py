"""Run one benchmark workload of cvbell and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chsh-battery --seed 0 --seconds 20 --trace 0

Every run of the workload's ops happens in a fresh Python process, because
the package keeps module-level caches that a second in-process repeat would
hit.  Each child imports the package from ``src/`` with BLAS pinned to one
thread; children run one at a time.

``--trace 0`` measures the end-to-end metrics: set-up and the first result
are sampled in several short children that run only the workload's first op
(or none, where that op is most of the run), then the whole workload repeats
in fresh children until ``--seconds`` have passed (at least once), and each
metric is the median over its samples.  ``--trace 1`` runs the workload once untraced
and once traced, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with provenance and every op's checked values, is written to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import layers, workloads  # noqa: E402

WORK = ROOT / ".perfbench_work"

#: Thread pools of every BLAS numpy may be built against, pinned to one.
BLAS_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}

#: Short children that sample set-up and first-result time in each run.
PROBES = 6

#: Every run ends within this many seconds of its start.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "first_result_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(workload: str, seed: int, deadline: float, *extra) -> dict:
    """Run one child to completion; returns its result with ``setup_s`` added."""
    out = WORK / f"child-{workload}-{seed}.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(WORK),
               PYTHONHASHSEED="0", **BLAS_ENV)
    command = [sys.executable, "-m", "perfbench.child", "--workload", workload,
               "--seed", str(seed), "--out", str(out), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("no time left before the deadline")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child exceeded the deadline: {command}") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"child failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    payload = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    expected = ROOT / "src" / "cvbell"
    if Path(payload["cvbell_file"]).resolve().parent != expected:
        raise BenchmarkError(f"child imported {payload['cvbell_file']}, not {expected}")
    payload["setup_s"] = payload["setup_end"] - spawned
    return payload


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    """End-to-end metrics, medians over probes and workload repeats.

    Probes run set-up and the workload's first ``PROBE_OPS`` ops (possibly
    none); then the whole workload repeats until ``seconds`` have passed.
    """
    probe_ops = workloads.PROBE_OPS[workload]
    probes = [spawn(workload, seed, deadline, "--ops", str(probe_ops))
              for _ in range(PROBES)]
    reps = []
    started = time.monotonic()
    while not reps or time.monotonic() - started < seconds:
        rep_began = time.monotonic()
        reps.append(spawn(workload, seed, deadline))
        if deadline - time.monotonic() < 2 * (time.monotonic() - rep_began):
            break
    firsts = reps + (probes if probe_ops else [])
    metrics = {
        "setup_s": statistics.median(c["setup_s"] for c in probes + reps),
        "first_result_s": statistics.median(c["first_result_s"] for c in firsts),
        "run_s": statistics.median(rep["run_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_kib"] for rep in reps) / 1024,
    }
    detail = {"probes": len(probes), "probe_ops": probe_ops, "repeats": len(reps),
              "setup_samples": [c["setup_s"] for c in probes + reps],
              "first_result_samples": [c["first_result_s"] for c in firsts]}
    return metrics, probes + reps, detail


def trace(workload: str, seed: int, deadline: float) -> tuple:
    """Per-layer metrics from one traced repeat, next to one untraced repeat."""
    plain = spawn(workload, seed, deadline)
    spans = WORK / f"spans-{workload}-seed{seed}.npz"
    traced = spawn(workload, seed, deadline, "--trace", str(spans))
    metrics = {spec["name"]: 0 for spec in layers.per_layer_spec()}
    names = set(metrics)
    metrics.update(traced["per_layer"])
    for op, seconds in plain["op_seconds"].items():
        metrics[layers.op_metric(op)] = seconds
    metrics["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    if set(metrics) != names:
        raise BenchmarkError(f"unlisted per-layer metrics: {sorted(set(metrics) - names)}")
    return metrics, [plain, traced], {"spans": str(spans.relative_to(ROOT)),
                                      "traced_run_s": traced["run_s"],
                                      "untraced_run_s": plain["run_s"]}


def provenance(args, reps: list) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_available": affinity,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"],
        "blas": reps[0]["blas"],
        "blas_env": BLAS_ENV,
        "git_commit": _git_commit(),
        "source_sha256": _source_hash(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or None


def _source_hash() -> str:
    """SHA-256 over the package sources, identifying the code without git."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(str(ROOT / "src" / "cvbell" / "**" / "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, ROOT).encode())
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "cvbell" / "__init__.py").is_file():
        print(f"perfbench: error: no package sources at {ROOT / 'src' / 'cvbell'}",
              file=sys.stderr)
        return 2

    # A terminated run raises SystemExit, so subprocess.run kills and reaps
    # the running child before the run exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, reps, detail = trace(args.workload, args.seed, deadline)
            units = {s["name"]: s["unit"] for s in layers.per_layer_spec()}
        else:
            metrics, reps, detail = measure(args.workload, args.seed, args.seconds,
                                            deadline)
            units = END_TO_END
    except BenchmarkError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1

    ops = [op for rep in reps for op in rep["ops"]]
    failed = sum(op["failed"] for op in ops)
    absent = sorted(set(reps[-1]["absent"]))
    record = {
        "provenance": provenance(args, reps),
        "detail": detail,
        "metrics": metrics,
        "absent": absent,
        "ops": ops,
    }
    results = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for op in ops:
        for problem in op["problems"]:
            print(f"perfbench: op {op['name']} failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {detail}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:.6g} {units[name]}")
    print(f"  ops {len(ops)}  ops_failed {failed}")
    if absent:
        print(f"  absent: {', '.join(absent)}")
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
