"""One cold run of a workload, in a fresh process started by ``run.py``.

Run as ``python -m perfbench.child --workload NAME --seed N --out FILE
[--ops N] [--trace SPANS.npz]`` from the repository root, with ``src``
on ``PYTHONPATH``.  Set-up (importing the package and generating the inputs)
ends at the monotonic time written as ``setup_end``; the parent subtracts its
own spawn time.  The ops (all, or the first ``--ops``) then run once, timed;
their results are checked after the timed region.  The result is written to
``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--ops", type=int, help="run only the first OPS ops")
    parser.add_argument("--trace", help="record spans and save them to this file")
    args = parser.parse_args(argv)

    # -- set-up: import the package, generate the inputs --------------------
    import cvbell

    from perfbench import workloads

    output_dir = os.path.join(os.path.dirname(os.path.abspath(args.out)),
                              f"cli-{os.getpid()}")
    os.makedirs(output_dir, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, output_dir)[:args.ops]
        setup_end = time.monotonic()
        result = _run(args, ops, output_dir, setup_end)
        result.update(setup_end=setup_end, cvbell_file=cvbell.__file__)
        _write(args.out, result)
    finally:
        shutil.rmtree(output_dir, ignore_errors=True)
    return 0


def _run(args, ops, output_dir, setup_end: float) -> dict:
    from perfbench import layers
    from perfbench.tracer import Tracer

    tracer = Tracer(layers.PACKAGE,
                    layers.TRACE_POINTS if args.trace else [layers.BISECT],
                    record=bool(args.trace))
    tracer.install()

    results, errors, op_seconds, done = {}, {}, {}, []
    for index, op in enumerate(ops):
        began = time.monotonic()
        with tracer.op(index, f"op.{op.name}"):
            try:
                results[op.name] = op.run()
            except Exception:  # an op that raises is counted as failed
                errors[op.name] = traceback.format_exc(limit=3)
        done.append(time.monotonic())
        op_seconds[op.name] = done[-1] - began
    end = time.monotonic()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    tracer.record = False
    per_layer = {}
    if args.trace:
        per_layer.update(layers.span_metrics(tracer))
        per_layer.update(layers.probe_metrics(output_dir, tracer.absent))
        tracer.save(args.trace)

    from perfbench import checks

    outcomes = checks.check_ops(args.workload, args.seed, ops, results, errors,
                                tracer.captures)
    tracer.uninstall()
    return {
        "first_result_s": done[0] - setup_end if done else None,
        "run_s": end - setup_end,
        "peak_rss_kib": peak_rss_kib,
        "op_seconds": op_seconds,
        "ops": outcomes,
        "per_layer": per_layer,
        "absent": tracer.absent,
        **_numpy_info(),
    }


def _numpy_info() -> dict:
    import numpy as np

    try:
        blas = str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def _write(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, default=repr)
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
