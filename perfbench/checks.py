"""Correctness checks of one run's op results, made after the timed region.

An op fails if it raised, if a result is missing (no violation found), if a
seed-0 result is further from its reference than the op's solver tolerance,
or if one of these checks fails:

* every threshold ``x`` found by a bisection leaves the solver's own
  max-CHSH objective at or below the violation bound at ``x - tol`` and
  above it at ``min(hi, x + tol)``;
* the op's own check (herald probabilities sum to 1; the heralded success
  probability equals the accepted herald entries).
"""

from __future__ import annotations

from . import workloads

#: The bisection's violation bound, 2 plus the solver's margin
#: (``cvbell.bell.VIOLATION_MARGIN``): max-CHSH values within the margin of 2
#: count as no violation.
VIOLATION_BOUND = 2.0 + 1e-7


def check_ops(workload, seed, ops, results, errors, captures) -> list:
    """One record per op: name, values, failed flag and the problems found."""
    references = workloads.REFERENCES[workload] if seed == 0 else {}
    outcomes = []
    for index, op in enumerate(ops):
        problems, values = [], []
        if op.name in errors:
            problems.append(errors[op.name])
        else:
            values = op.values(results[op.name])
            problems += _compare(values, references.get(op.name), op.tol)
            if op.check is not None:
                problems += op.check(results[op.name], results)
            problems += bracket_problems(c for c in captures if c.op == index)
        outcomes.append({
            "name": op.name,
            "values": values,
            "failed": bool(problems),
            "problems": problems,
        })
    return outcomes


def _compare(values, reference, tol) -> list:
    if any(v is None for v in values):
        return [f"no violation found: {values}"]
    if reference is None:
        return []
    if len(values) != len(reference):
        return [f"{len(values)} results, {len(reference)} references"]
    return [
        f"result {v!r} differs from reference {r!r} by more than {tol}"
        for v, r in zip(values, reference)
        if abs(v - r) > tol
    ]


def bracket_problems(captured) -> list:
    """Check each captured bisection's result against its own objective."""
    problems = []
    for capture in captured:
        x = capture.result
        if x is None:
            continue  # reported as a missing result by _compare
        tol = capture.arguments.get("tol")
        lo = capture.arguments.get("lo", 0.0)
        hi = capture.arguments.get("hi", 1.0)
        below = x - tol
        if below >= lo and capture.objective(below) > VIOLATION_BOUND:
            problems.append(f"max CHSH exceeds 2 at {below!r}, below threshold {x!r}")
        above = min(hi, x + tol)
        if not capture.objective(above) > VIOLATION_BOUND:
            problems.append(f"max CHSH does not exceed 2 at {above!r}, above threshold {x!r}")
    return problems
