"""Benchmark of the cvbell solvers: cold-process workloads and a layer trace.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
