"""Bisection steps decided without a full delta search.

A step is decided on the delta grid: a delta search never returns less
than its grid maximum, so once that exceeds the violation bound the refine
cannot change the step's verdict.  The threshold steps pass the bound as
the ``stop_above`` of ``bell._search_grid``, and the local end (zero
efficiency) runs no search at all (``bell._threshold``).  And
``bisect_threshold`` evaluates only the midpoints whose verdicts its
earlier evaluations do not imply.  The reference for both is
plain bisection, written out below, over the full, refined ``optimize_delta``
values: the thresholds must agree bit for bit, and ``bisect_threshold`` may
take at most twice the reference's evaluations.
"""

import importlib
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cvbell.bell as bell
import cvbell.local_amp as la
import cvbell.source_amp as sa
from cvbell.bell import (
    ASYMMETRIC,
    SYMMETRIC,
    VIOLATION_BOUND,
    PartyConditions,
    _scenario_for,
    _search_grid,
    _state_chsh,
    _top_eigenvalue,
    bisect_threshold,
    critical_efficiency,
    optimize_delta,
    search_delta,
)
from cvbell.fock import shared_basis
from cvbell.local_amp import (
    apply_filters,
    filtered_chsh,
    filtered_critical_transmission,
    lossy_psi2,
    psi2_state,
)
from cvbell.measurement import DELTA_MAX, delta_grid


def plain_bisection(max_chsh, lo=0.0, hi=1.0, tol=1e-4):
    """Every midpoint evaluated: the walk ``bisect_threshold`` must reproduce."""

    def violates(x):
        return max_chsh(x) > VIOLATION_BOUND

    if not violates(hi):
        return None
    if violates(lo):
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if violates(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def counted(f):
    """``f`` with a list that grows by one entry per call."""
    calls = []

    def wrapper(x):
        calls.append(x)
        return f(x)

    return wrapper, calls


def synthetic(shape, crossing, slope, flat):
    """A max-CHSH stand-in that violates exactly above ``crossing``.

    ``flat`` puts it at exactly 2 below the crossing, as the delta = 0
    corner does.
    """
    def rising(x):
        d = x - crossing
        if shape == "linear":
            return slope * d
        if shape == "sqrt":
            return slope * math.copysign(math.sqrt(abs(d)), d)
        if shape == "cubic":
            return slope * d ** 3
        if shape == "steps":  # runs of equal values
            return slope * math.ceil(8.0 * d) / 8.0 if d > 0.0 else -1.0
        if shape == "tiny":
            return 1e-6 * d
        return slope * d * (1.0 + 0.5 * math.sin(1e4 * x))  # "noisy"

    def max_chsh(x):
        excess = rising(x)
        if flat and not excess > 0.0:
            return 2.0
        return VIOLATION_BOUND + excess

    return max_chsh


SHAPES = ["linear", "sqrt", "cubic", "steps", "tiny", "noisy"]


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from(SHAPES), flat=st.booleans(),
       lo=st.floats(min_value=-2.0, max_value=1.0),
       width_exp=st.floats(min_value=-3.0, max_value=1.0),
       where=st.floats(min_value=-0.1, max_value=1.1),
       slope_exp=st.floats(min_value=-2.0, max_value=2.0),
       tol_exp=st.floats(min_value=-300.0, max_value=-3.0))
@example(shape="linear", flat=True, lo=0.0, width_exp=0.0, where=0.8049, slope_exp=0.0,
         tol_exp=-4.0)
@example(shape="cubic", flat=True, lo=0.0, width_exp=0.0, where=0.3371, slope_exp=0.0,
         tol_exp=-300.0)
@example(shape="cubic", flat=True, lo=0.0, width_exp=0.0, where=0.1, slope_exp=0.0,
         tol_exp=-6.0)  # 2.2x plain bisection's evaluations without the probe budget
@example(shape="steps", flat=False, lo=-1.0, width_exp=0.5, where=0.5, slope_exp=1.0,
         tol_exp=-9.0)
def test_bisection_equals_plain_bisection(shape, flat, lo, width_exp, where, slope_exp,
                                          tol_exp):
    hi = lo + 10.0 ** width_exp
    objective = synthetic(shape, lo + where * (hi - lo), 10.0 ** slope_exp, flat)
    tol = 10.0 ** tol_exp
    reference, reference_calls = counted(objective)
    found, calls = counted(objective)
    assert bisect_threshold(found, lo, hi, tol) == plain_bisection(reference, lo, hi, tol)
    assert len(calls) <= 2 * len(reference_calls)
    assert len(set(calls)) == len(calls)  # no point evaluated twice


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

    return plain_bisection(max_chsh, tol=TOL)


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
    reference = plain_bisection(
        lambda eta_t: filtered_chsh(eta_t * eta_c, gain, applications, eta_d, cutoff)[1],
        tol=TOL,
    )
    assert found == reference


def recorded_steps(monkeypatch):
    """Every value at which the threshold solves' bisection reads max CHSH, in order."""
    steps = []
    monkeypatch.setattr(bell, "bisect_threshold", lambda max_chsh, **kwargs: bisect_threshold(
        lambda value: steps.append(value) or max_chsh(value), **kwargs))
    return steps


def searched_steps(steps):
    """The steps that run a delta search: all but the local end, which is read once."""
    assert steps.count(0.0) == 1
    return [value for value in steps if value != 0.0]


def recorded_searches(monkeypatch, module):
    """Every ``(grid, values, slope_objective)`` that ``module``'s solvers search, in order."""
    searches = []
    search = module._search_grid

    def record(grid, values, slope_objective, *args, **kwargs):
        searches.append((np.array(grid), np.array(values), slope_objective))
        return search(grid, values, slope_objective, *args, **kwargs)

    monkeypatch.setattr(module, "_search_grid", record)
    return searches


@pytest.mark.parametrize("eta_c", [1.0, 0.9])
@pytest.mark.parametrize("applications", [1, 2, 3, 4])
@pytest.mark.parametrize("cutoff", [2, 6])
def test_filtered_steps_read_the_filtered_states_grid(monkeypatch, cutoff, applications, eta_c):
    # Each step's grid of pulled-back forms is the filtered state's CHSH.
    steps = recorded_steps(monkeypatch)
    searches = recorded_searches(monkeypatch, la)
    filtered_critical_transmission(2.0, applications, eta_d=0.95, eta_c=eta_c, cutoff=cutoff)
    steps = searched_steps(steps)
    assert len(searches) == len(steps) > 0
    party = PartyConditions(eta_d=0.95)
    for eta_t, (grid, values, slope_objective) in zip(steps, searches):
        rho = apply_filters(lossy_psi2(eta_t * eta_c, cutoff), 2.0, applications)
        assert len(grid) == 241
        assert np.abs(values - _state_chsh(rho, party, party)[0](grid)).max() <= 1e-14
        assert np.abs(values - slope_objective()(grid)[0]).max() <= 1e-14


#: The source thresholds' step: filtered at gain 2 (by the number of
#: applications), or unfiltered, the filter at gain 1, by symmetry.
SOURCE_STEPS = [
    *(pytest.param(partial(sa.amplified_source_threshold_with_filters, 2.0, m), None, id=str(m))
      for m in (1, 2, 3, 4)),
    *(pytest.param(partial(sa.source_critical_transmission, symmetry=symmetry), symmetry,
                   id=symmetry) for symmetry in (SYMMETRIC, ASYMMETRIC)),
]


@pytest.mark.parametrize("eta_c", [1.0, 0.9])
@pytest.mark.parametrize("solve, symmetry", SOURCE_STEPS)
@pytest.mark.parametrize("cutoff", [2, 6])
def test_filtered_source_steps_read_the_chosen_states_grid(monkeypatch, cutoff, solve, symmetry,
                                                           eta_c):
    # The delta grid at the best (lam, t) of the forms is the CHSH of that
    # filtered lossy output state, which the refine builds (its slope objective).
    # Unfiltered, it is the CHSH of the chosen output state itself, measured
    # in the step's scenario, with the loss in the measurements.
    steps, chosen = recorded_steps(monkeypatch), []
    weights = sa._image_weights
    monkeypatch.setattr(sa, "_image_weights",
                        lambda lam, t, degree: chosen.append((lam, t)) or weights(lam, t, degree))
    searches = recorded_searches(monkeypatch, sa)
    solve(eta_d=0.95, eta_c=eta_c, cutoff=cutoff)
    steps = searched_steps(steps)
    assert len(searches) == len(steps) > 0
    basis, packed, _ = sa._source_stack(eta_c, cutoff)
    for eta_t, (grid, values, slope_objective) in zip(steps, searches):
        assert len(grid) == 61
        assert np.abs(values - slope_objective()(grid)[0]).max() <= 1e-14
        if symmetry is not None:
            scenario = _scenario_for(symmetry, eta_t=eta_t, eta_d=0.95, eta_h=1.0)
            state = sa._image_state(basis, packed, *chosen[-1])
            chsh = _state_chsh(state, scenario.alice, scenario.bob)[0](grid)
            assert np.abs(values - chsh).max() <= 1e-13


@pytest.mark.parametrize("solve", [
    lambda: sa.source_critical_transmission(eta_d=0.93, eta_c=0.95, symmetry=ASYMMETRIC),
    lambda: sa.amplified_source_threshold_with_filters(2.5, eta_d=0.95, eta_c=0.9),
], ids=["source", "filtered-source"])
def test_source_threshold_matches_plain_bisection(monkeypatch, solve):
    found = solve()
    monkeypatch.setattr(bell, "bisect_threshold", plain_bisection)
    assert found is not None and solve() == found


lossy = st.floats(min_value=0.3, max_value=1.0)
parties = st.builds(PartyConditions, eta_t=lossy, eta_d=lossy, eta_h=lossy)


def stopped_search(alice, bob, state=None, stop_above=None):
    """``search_delta``'s grid and refine, through ``_search_grid`` with a bound."""
    if state is None:
        objective, value_and_slope = _top_eigenvalue(shared_basis((2, 2), 2), alice, bob)
    else:
        objective, value_and_slope = _state_chsh(state, alice, bob)
    grid = delta_grid(241)
    return _search_grid(grid, objective(grid), lambda: value_and_slope,
                        stop_above=stop_above)


@settings(max_examples=40, deadline=None)
@given(alice=parties, bob=parties, state=st.sampled_from([None, "psi2", "lossy-psi2"]),
       where=st.sampled_from(["grid", "optimum", "offset"]),
       offset=st.floats(min_value=-1e-3, max_value=1e-3))
def test_stopped_search_lands_on_the_same_side(alice, bob, state, where, offset):
    state = {None: None, "psi2": psi2_state(), "lossy-psi2": lossy_psi2(0.8)}[state]
    full = search_delta(alice, bob, state=state)
    assert stopped_search(alice, bob, state) == full
    grid = stopped_search(alice, bob, state, stop_above=-math.inf)
    assert not grid.refined and grid.evaluations == 0
    assert full.value >= grid.value
    bound = {"grid": grid.value, "optimum": full.value,
             "offset": full.value + offset}[where]
    stopped = stopped_search(alice, bob, state, stop_above=bound)
    assert (stopped.value > bound) == (full.value > bound)
    if stopped.refined:
        assert stopped == full
    else:
        assert stopped == grid and stopped.value > bound


def test_violated_steps_skip_the_refine():
    # Unit efficiencies violate on the grid: the step is decided there.
    unit = PartyConditions()
    stopped = stopped_search(unit, unit, stop_above=VIOLATION_BOUND)
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


#: Every threshold solver of the package, through its public entry point.
THRESHOLD_SOLVES = [
    *(pytest.param(partial(critical_efficiency, target, symmetry=symmetry, state=state),
                   id=f"{target}-{symmetry}-{name}")
      for target in ("eta_t", "eta_d") for symmetry in (SYMMETRIC, ASYMMETRIC)
      for name, state in (("optimal", None), ("psi2", psi2_state()))),
    pytest.param(partial(filtered_critical_transmission, 2.0), id="filtered"),
    pytest.param(sa.source_critical_transmission, id="source"),
    pytest.param(partial(sa.amplified_source_threshold_with_filters, 2.0), id="filtered-source"),
]


@pytest.mark.parametrize("solve", THRESHOLD_SOLVES)
def test_no_delta_search_at_the_local_end(monkeypatch, solve):
    # At zero efficiency no photon arrives or no detector clicks, so max CHSH
    # is at most 2: the bisection reads that end without a delta search, and
    # every other step runs one.
    searches, per_step = [], {}

    def search(*args, original=bell._search_grid, **kwargs):
        searches.append(args)
        return original(*args, **kwargs)

    for module in (bell, la, sa):
        monkeypatch.setattr(module, "_search_grid", search)

    def bisect(max_chsh, **kwargs):
        def step(value):
            start = len(searches)
            chsh = max_chsh(value)
            per_step[value] = len(searches) - start
            return chsh

        return bisect_threshold(step, **kwargs)

    monkeypatch.setattr(bell, "bisect_threshold", bisect)
    assert solve() is not None
    assert per_step.pop(0.0) == 0
    assert per_step and set(per_step.values()) == {1}


@pytest.mark.parametrize("solve", THRESHOLD_SOLVES)
def test_the_skipped_search_reads_two(monkeypatch, solve):
    # The search the local end skips reads the delta = 0 corner's 2, up to
    # rounding, and never a violation.
    skipped = []

    def threshold(search, tol, original=bell._threshold):
        skipped.append(search(0.0, VIOLATION_BOUND))
        return original(search, tol)

    for module in (bell, la, sa):
        monkeypatch.setattr(module, "_threshold", threshold)
    solve()
    (search,) = skipped
    assert abs(search.value - 2.0) <= 1e-15
    assert not search.value > VIOLATION_BOUND


def fine_grid(monkeypatch):
    """Every threshold step searches a 4801-point delta grid instead of 241."""
    grid = delta_grid(4801)
    for module in (bell, la):
        monkeypatch.setattr(module, "delta_grid", lambda points: grid)


@pytest.mark.xfail(strict=True, reason="δ-grid bias, ROADMAP direction 2")
@pytest.mark.parametrize("solve", [
    pytest.param(partial(critical_efficiency, "eta_t"), id="1"),
    pytest.param(partial(critical_efficiency, "eta_d"), id="2a"),
    pytest.param(partial(critical_efficiency, "eta_t", state=psi2_state()), id="5a"),
    pytest.param(partial(critical_efficiency, "eta_d", state=psi2_state()), id="5b"),
    pytest.param(partial(filtered_critical_transmission, 2.0), id="6a"),
])
def test_threshold_is_the_fine_grids(monkeypatch, solve):
    # Near a threshold the violating delta window closes to a point, so the
    # 241-point grid reads the delta = 0 corner there and the threshold lies
    # above the one the delta search would find on a far finer grid.
    found = solve(tol=1e-6)
    fine_grid(monkeypatch)
    assert abs(found - solve(tol=1e-6)) <= 1e-6
