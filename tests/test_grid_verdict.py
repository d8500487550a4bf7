"""Bisection steps decided on the delta grid.

``search_delta`` never returns less than its grid maximum, so once that
exceeds the violation bound the refine cannot change a step's verdict.  The
threshold solvers pass the bound as ``stop_above``; a bisection over the
full, refined ``optimize_delta`` values is the reference, and the
thresholds must agree bit for bit.
"""

import importlib
import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell.bell import (
    ASYMMETRIC,
    SYMMETRIC,
    VIOLATION_BOUND,
    PartyConditions,
    _scenario_for,
    bisect_threshold,
    critical_efficiency,
    optimize_delta,
    search_delta,
)
from cvbell.local_amp import filtered_chsh, filtered_critical_transmission, lossy_psi2, psi2_state
from cvbell.measurement import DELTA_MAX

TOL = 1e-3
cutoffs = st.sampled_from([2, 6])
high = st.floats(min_value=0.85, max_value=1.0)


def reference_efficiency(target, symmetry, other, state, cutoff):
    def max_chsh(value):
        kwargs = {"eta_t": 1.0, "eta_d": 1.0}
        kwargs["eta_d" if target == "eta_t" else "eta_t"] = other
        kwargs[target] = value
        scen = _scenario_for(symmetry, eta_h=1.0, **kwargs)
        return optimize_delta(scen.alice, scen.bob, state=state, cutoff=cutoff)[1]

    return bisect_threshold(max_chsh, tol=TOL)


@settings(max_examples=12, deadline=None)
@given(target=st.sampled_from(["eta_t", "eta_d"]),
       symmetry=st.sampled_from([SYMMETRIC, ASYMMETRIC]),
       other=high, psi2=st.booleans(), cutoff=cutoffs)
def test_critical_efficiency_matches_full_search_bisection(target, symmetry, other, psi2,
                                                           cutoff):
    state = psi2_state(cutoff) if psi2 else None
    other_name = "eta_d" if target == "eta_t" else "eta_t"
    found = critical_efficiency(target, symmetry=symmetry, state=state, cutoff=cutoff,
                                tol=TOL, **{other_name: other})
    assert found == reference_efficiency(target, symmetry, other, state, cutoff)


@settings(max_examples=8, deadline=None)
@given(gain=st.floats(min_value=1.5, max_value=3.5), applications=st.integers(1, 2),
       eta_d=high, eta_c=high, cutoff=cutoffs)
def test_filtered_transmission_matches_full_search_bisection(gain, applications, eta_d,
                                                             eta_c, cutoff):
    found = filtered_critical_transmission(gain, applications, eta_d=eta_d, eta_c=eta_c,
                                           cutoff=cutoff, tol=TOL)
    reference = bisect_threshold(
        lambda eta_t: filtered_chsh(eta_t, gain, applications, eta_d, eta_c, cutoff)[1],
        tol=TOL,
    )
    assert found == reference


lossy = st.floats(min_value=0.3, max_value=1.0)
parties = st.builds(PartyConditions, eta_t=lossy, eta_d=lossy, eta_h=lossy)


@settings(max_examples=40, deadline=None)
@given(alice=parties, bob=parties, state=st.sampled_from([None, "psi2", "lossy-psi2"]),
       where=st.sampled_from(["grid", "optimum", "offset"]),
       offset=st.floats(min_value=-1e-3, max_value=1e-3))
def test_stopped_search_lands_on_the_same_side(alice, bob, state, where, offset):
    state = {None: None, "psi2": psi2_state(), "lossy-psi2": lossy_psi2(0.8)}[state]
    full = search_delta(alice, bob, state=state)
    grid = search_delta(alice, bob, state=state, stop_above=-math.inf)
    assert not grid.refined and grid.evaluations == 0
    assert full.value >= grid.value
    bound = {"grid": grid.value, "optimum": full.value,
             "offset": full.value + offset}[where]
    stopped = search_delta(alice, bob, state=state, stop_above=bound)
    assert (stopped.value > bound) == (full.value > bound)
    if stopped.refined:
        assert stopped == full
    else:
        assert stopped == grid and stopped.value > bound
    assert optimize_delta(alice, bob, state=state, stop_above=bound) == (
        stopped.delta, stopped.value)


def test_violated_steps_skip_the_refine():
    # Unit efficiencies violate on the grid: the step is decided there.
    unit = PartyConditions()
    stopped = search_delta(unit, unit, stop_above=VIOLATION_BOUND)
    full = search_delta(unit, unit)
    assert not stopped.refined and full.refined
    grid = np.linspace(0.0, DELTA_MAX, 241)
    assert stopped.delta == grid[stopped.grid_index] and stopped.value > VIOLATION_BOUND
    assert stopped.value <= full.value


def test_benchmark_checks_use_the_solvers_bound(monkeypatch):
    # perfbench/checks.py keeps its own copy of the bound for its bracket
    # checks; a change to VIOLATION_MARGIN must change both.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    checks = importlib.import_module("perfbench.checks")
    assert checks.VIOLATION_BOUND == VIOLATION_BOUND
