"""The benchmark's workloads: inputs drawn from a seed, the ops, and checks.

Seed 0 is the fixed set below and is compared with reference values that
the seed commit of the benchmark computed.  Other seeds draw the same
parameters from ranges in which every threshold solve finds a violation.
Every op's cost is set by solver step counts and grid sizes, not by the drawn
values, so all seeds do the same amount of work.

This module does not import ``cvbell`` at import time: importing the package
is part of the measured set-up, which :func:`build` performs.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("chsh-battery", "source-lossy", "pdc-ancilla")

#: Solver tolerances an op's result may differ from its reference by.
BISECTION_TOL = 1e-4
SOURCE_BISECTION_TOL = 1e-3
PROBABILITY_TOL = 1e-10


#: Ops run by each short child that samples set-up and first-result time: the
#: first op where it is cheap, none where it is most of the workload's run.
PROBE_OPS = {"chsh-battery": 1, "source-lossy": 0, "pdc-ancilla": 1}


@dataclass
class Op:
    """One solve or command.

    run: performs the op and returns its raw result (timed).
    values: the numbers of a result that are compared with the reference.
    check: further checks of a result after the timed region, given the
        results of all ops by name; returns a list of problems.
    """

    name: str
    run: Callable[[], object]
    values: Callable[[object], list]
    tol: float
    check: Callable[[object, dict], list] | None = None


# -- seeded inputs ------------------------------------------------------------

#: (seed-0 value, low, high) of every drawn parameter.  A parameter drawn over
#: a wide range would change the amount of work: the heralded circuit drops
#: branches whose weight is below 1e-16, so its branch count follows the
#: squeezing, transmission and coupling, and a unit efficiency takes the
#: lossless shortcut of the binned-homodyne POVM.  So the source parameters
#: are drawn close to the seed-0 set, and the eta-d solves keep unit
#: transmission.
RANGES = {
    "chsh-battery": {
        "eta_d": (1.0, 0.92, 1.0),         # detector efficiency of eta-t solves
        "gain_low": (2.0, 1.8, 2.4),       # local-amp gains
        "gain_high": (3.0, 2.6, 3.4),
        "eta_c": (1.0, 0.92, 1.0),         # local-amp coupling
        "region_start": (0.7, 0.7, 0.8),   # first eta_d of the region grid
        "multi_gain": (2.0, 1.8, 2.4),     # multi-filter gain
    },
    "source-lossy": {
        # Coupling stays below 1: at eta_c = 1 the circuit skips its loss
        # branches and costs a twentieth as much.
        "eta_c": (0.9, 0.895, 0.905),
        "eta_d": (1.0, 0.97, 1.0),
        "gain": (2.0, 1.6, 2.6),
    },
    "pdc-ancilla": {
        "squeezing": (0.2, 0.195, 0.205),
        "amp_transmission": (0.3, 0.28, 0.32),
        "ancilla_squeezing": (0.2, 0.195, 0.205),
        "coupling": (0.95, 0.948, 0.952),
    },
}


def params(workload: str, seed: int) -> dict:
    """The workload's parameters for ``seed`` (seed 0: the fixed set)."""
    if workload not in RANGES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    return {
        name: base if seed == 0 else round(rng.uniform(low, high), 4)
        for name, (base, low, high) in RANGES[workload].items()
    }


# -- ops ----------------------------------------------------------------------


def _read_column(path: str, column: str) -> list:
    with open(path, newline="", encoding="utf-8") as handle:
        return [float(row[column]) if row[column] else None for row in csv.DictReader(handle)]


def _cli_op(name: str, argv: list, column: str, workdir: str) -> Op:
    path = f"{workdir}/{name}.csv"

    def run():
        import cvbell.cli

        code = cvbell.cli.main(argv + ["--output", path])
        if code != 0:
            raise RuntimeError(f"cvbell {' '.join(argv)} exited with code {code}")
        return _read_column(path, column)

    return Op(name, run, lambda values: values, BISECTION_TOL)


def _chsh_battery(p: dict, workdir: str) -> list:
    import cvbell.cli  # noqa: F401  (the battery runs through the CLI)

    ops = []
    for cutoff in (2, 6):
        c = ["--cutoff", str(cutoff)]
        eta_d = ["--eta-d", repr(p["eta_d"])]
        eta_t = ["--eta-t", "1.0"]
        for sym in ("sym", "asym"):
            flag = "--symmetric" if sym == "sym" else "--asymmetric"
            ops.append(_cli_op(f"c{cutoff}.threshold.{sym}.eta-t",
                               ["threshold", flag, "--target", "eta-t"] + eta_d + c,
                               "threshold", workdir))
            ops.append(_cli_op(f"c{cutoff}.threshold.{sym}.eta-d",
                               ["threshold", flag, "--target", "eta-d"] + eta_t + c,
                               "threshold", workdir))
        ops.append(_cli_op(f"c{cutoff}.threshold.psi2.eta-t",
                           ["threshold", "--target", "eta-t", "--state", "psi2"] + eta_d + c,
                           "threshold", workdir))
        ops.append(_cli_op(f"c{cutoff}.threshold.psi2.eta-d",
                           ["threshold", "--target", "eta-d", "--state", "psi2"] + eta_t + c,
                           "threshold", workdir))
        for label, gain in (("g-low", p["gain_low"]), ("g-high", p["gain_high"])):
            ops.append(_cli_op(f"c{cutoff}.local-amp.{label}",
                               ["local-amp", "--g", repr(gain), "--eta-c", repr(p["eta_c"])]
                               + eta_d + c,
                               "eta_t_star", workdir))
    ops.append(_cli_op("region",
                       ["region", "--eta-d-grid", f"{p['region_start']!r}:1.0:4"],
                       "eta_t_star", workdir))
    ops.append(_cli_op("multi-filter",
                       ["multi-filter", "--m-max", "4", "--g", repr(p["multi_gain"]),
                        "--eta-d", repr(p["eta_d"])],
                       "eta_t_star", workdir))
    return ops


def _source_grids() -> tuple:
    """The 20 x 30 (squeezing, transmission) grid of the source workload.

    Equal to ``default_squeezing_grid(20)`` and ``default_transmission_grid(30)``,
    the grid ``amplified_source_threshold_with_filters`` uses by default.
    """
    import numpy as np

    return tuple(np.linspace(0.0, 0.4, 20)), tuple(np.geomspace(3e-5, 0.99, 30))


def _source_lossy(p: dict, workdir: str) -> list:
    import cvbell.source_amp as sa

    lam_grid, t_grid = _source_grids()

    def threshold():
        return [sa.source_critical_transmission(
            eta_d=p["eta_d"], eta_c=p["eta_c"], lam_grid=lam_grid, t_grid=t_grid)]

    def filtered_threshold():
        return [sa.amplified_source_threshold_with_filters(
            p["gain"], 1, eta_d=p["eta_d"], eta_c=p["eta_c"],
            lam_grid=lam_grid, t_grid=t_grid)]

    return [
        Op("source-threshold", threshold, lambda v: v, SOURCE_BISECTION_TOL),
        Op("source-filtered-threshold", filtered_threshold, lambda v: v,
           SOURCE_BISECTION_TOL),
    ]


#: Herald outcome labels that make up the accepted heralded-pdc event:
#: D0 clicks and exactly one of D1/D2 clicks.
ACCEPTED_HERALDS = (("click", "d1"), ("click", "d2"))


def _herald_values(probs: dict) -> list:
    return [probs[key] for key in sorted(probs)]


def _check_herald_sum(probs: dict, results: dict) -> list:
    total = sum(probs.values())
    if abs(total - 1.0) > PROBABILITY_TOL:
        return [f"herald probabilities sum to {total!r}, not 1"]
    return []


def _check_success(herald_op: str):
    def check(outcome, results: dict) -> list:
        problems = []
        probs = results.get(herald_op)
        if probs is not None:
            clicks = sum(probs[key] for key in ACCEPTED_HERALDS)
            if abs(outcome.success_probability - clicks) > PROBABILITY_TOL:
                problems.append(
                    f"success probability {outcome.success_probability!r} differs "
                    f"from the accepted herald entries {clicks!r}"
                )
        trace = float(outcome.state.matrix.trace().real)
        if abs(trace - 1.0) > PROBABILITY_TOL:
            problems.append(f"heralded state has trace {trace!r}")
        return problems

    return check


def _pdc_ancilla(p: dict, workdir: str) -> list:
    import cvbell.source_amp as sa

    ops = []
    for cutoff in (4, 5):
        config = sa.SourceConfig(
            squeezing=p["squeezing"], amp_transmission=p["amp_transmission"],
            ancilla_model="heralded-pdc", ancilla_squeezing=p["ancilla_squeezing"],
            coupling=p["coupling"], cutoff=cutoff,
        )
        herald = f"c{cutoff}.herald-probabilities"
        ops.append(Op(herald, lambda c=config: sa.herald_probabilities(c),
                      _herald_values, PROBABILITY_TOL, _check_herald_sum))
        ops.append(Op(f"c{cutoff}.amplified-source",
                      lambda c=config: sa.amplified_source(c),
                      lambda outcome: [float(outcome.success_probability)],
                      PROBABILITY_TOL, _check_success(herald)))
    return ops


_BUILDERS = {
    "chsh-battery": _chsh_battery,
    "source-lossy": _source_lossy,
    "pdc-ancilla": _pdc_ancilla,
}


def build(workload: str, seed: int, workdir: str) -> list:
    """The ops of ``workload`` for ``seed``; CLI outputs go to ``workdir``."""
    return _BUILDERS[workload](params(workload, seed), workdir)


def op_names(workload: str) -> list:
    """Op names without importing the package (all seeds share them)."""
    return list(REFERENCES[workload])


# -- references ---------------------------------------------------------------

#: Seed-0 results computed at the commit that introduced the benchmark.  The
#: herald probabilities are in sorted key order: (D0 outcome, D1/D2 pattern)
#: with D0 in (click, none) and the pattern in (both, d1, d2, none).
REFERENCES = {
    "chsh-battery": {
        "c2.threshold.sym.eta-t": [0.804901123046875],
        "c2.threshold.sym.eta-d": [0.648040771484375],
        "c2.threshold.asym.eta-t": [0.665802001953125],
        "c2.threshold.asym.eta-d": [0.648040771484375],
        "c2.threshold.psi2.eta-t": [0.837432861328125],
        "c2.threshold.psi2.eta-d": [0.711090087890625],
        "c2.local-amp.g-low": [0.652679443359375],
        "c2.local-amp.g-high": [0.560089111328125],
        "c6.threshold.sym.eta-t": [0.804901123046875],
        "c6.threshold.sym.eta-d": [0.648040771484375],
        "c6.threshold.asym.eta-t": [0.665802001953125],
        "c6.threshold.asym.eta-d": [0.648040771484375],
        "c6.threshold.psi2.eta-t": [0.837432861328125],
        "c6.threshold.psi2.eta-d": [0.711090087890625],
        "c6.local-amp.g-low": [0.652679443359375],
        "c6.local-amp.g-high": [0.560089111328125],
        "region": [0.960601806640625, 0.897003173828125, 0.846038818359375,
                   0.804901123046875],
        "multi-filter": [0.652679443359375, 0.412933349609375, 0.213348388671875,
                         0.097442626953125],
    },
    "source-lossy": {
        "source-threshold": [0.84521484375],
        "source-filtered-threshold": [0.62744140625],
    },
    "pdc-ancilla": {
        "c4.herald-probabilities": [
            9.137178129633441e-05, 0.006058571338199432, 0.006058571338199432,
            0.025865175330950656, 0.0007106940320185935, 0.018221920082318373,
            0.018221920082318373, 0.9247717760146985,
        ],
        "c4.amplified-source": [0.012117142676386194],
        "c5.herald-probabilities": [
            9.137506009227267e-05, 0.006058570970126144, 0.006058570970126144,
            0.025865172788301263, 0.0007107809728778132, 0.01822192206625649,
            0.01822192206625649, 0.9247716851059634,
        ],
        "c5.amplified-source": [0.012117141940233628],
    },
}
