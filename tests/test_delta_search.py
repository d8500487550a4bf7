"""The batched delta search against per-delta reference loops.

The references rebuild every POVM element, Bell matrix and delta-derivative
one delta at a time from the :mod:`cvbell.fock` primitives (``loss_kraus``,
``np.kron``).  The slope refine is checked against central differences and
against a golden section on the same bracket.
"""

import inspect
import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cvbell.bell as bell
import cvbell.source_amp as sa
from cvbell.bell import (
    DELTA_REFINE_TOL,
    BellScenario,
    PartyConditions,
    _mode_observables,
    _mode_slopes,
    _packed_kron,
    _projected_kron,
    _search_grid,
    _state_chsh,
    _top_eigenvalue,
    bell_matrices,
    bell_matrix,
    critical_efficiency,
    golden_section_max,
    optimal_state,
    optimize_delta,
    refine_slope_root,
    search_delta,
)
from cvbell.fock import (
    DensityOperator,
    ModeBasis,
    StateVector,
    _product_tensor,
    embedding_indices,
    fock_state,
    loss_kraus,
    shared_basis,
)
from cvbell.local_amp import (
    apply_filters,
    filtered_critical_transmission,
    lossy_psi2,
    psi2_state,
)
from cvbell.measurement import (
    DELTA_MAX,
    binned_homodyne_povms,
    binned_homodyne_slopes,
    hermite_functions,
    ideal_binned_homodyne,
    photodetection_povm,
)
from cvbell.source_amp import (
    SourceConfig,
    amplified_source,
    amplified_source_threshold_with_filters,
    default_squeezing_grid,
    default_transmission_grid,
    max_source_chsh,
)

unit = st.floats(min_value=0.0, max_value=1.0)
deltas = st.lists(st.floats(min_value=0.0, max_value=DELTA_MAX), min_size=1, max_size=8)
parties = st.builds(PartyConditions, eta_t=unit, eta_d=unit, eta_h=unit)


def reference_inner(eta, delta, cutoff):
    ideal = ideal_binned_homodyne(delta, cutoff)
    return sum(A.T @ ideal @ A for A in loss_kraus(eta, cutoff))


def reference_inner_slope(eta, delta, cutoff):
    """d/d(delta) of the lossy inner element, one entry at a time.

    The ideal element changes by psi_n(delta) psi_m(delta) at both bin edges,
    on the even-parity entries, with the Fock phase sign of each entry.
    """
    psi = hermite_functions(cutoff, [delta])[:, 0]
    ideal = np.zeros((cutoff + 1, cutoff + 1))
    for n in range(cutoff + 1):
        for m in range(n % 2, cutoff + 1, 2):
            ideal[n, m] = (-1.0 if (m - n) % 4 == 2 else 1.0) * 2.0 * psi[n] * psi[m]
    return sum(A.T @ ideal @ A for A in loss_kraus(eta, cutoff))


def reference_observables(party, delta, cutoff):
    """X, N and dX/d(delta) of one party from the per-delta references."""
    eta = party.eta_h * party.eta_t
    X = 2.0 * reference_inner(eta, delta, cutoff) - np.eye(cutoff + 1)
    N = photodetection_povm(party.eta_d * party.eta_t, cutoff)[2]
    return X, N, 2.0 * reference_inner_slope(eta, delta, cutoff)


def reference_bell(basis, alice, bob, delta, slope=False):
    ca, cb = basis.cutoffs
    Xa, Na, dXa = reference_observables(alice, delta, ca)
    Xb, Nb, dXb = reference_observables(bob, delta, cb)
    if slope:  # N does not depend on delta
        B = np.kron(dXa, Xb + Nb) + np.kron(Xa + Na, dXb)
    else:
        B = np.kron(Xa, Xb + Nb) + np.kron(Na, Xb - Nb)
    idx = embedding_indices(basis, ModeBasis(basis.cutoffs))
    return B[np.ix_(idx, idx)]


def reference_optimize_delta(alice, bob, state, grid_points):
    """The grid scan and slope refine of ``optimize_delta``, one delta at a time."""
    basis = state.basis
    matrix = state.to_density().matrix if isinstance(state, StateVector) else state.matrix

    def expectation(d, slope=False):
        return float(np.trace(matrix @ reference_bell(basis, alice, bob, d, slope)).real)

    def value_and_slope(ds):
        return [expectation(d) for d in ds], [expectation(d, slope=True) for d in ds]

    grid = np.linspace(0.0, DELTA_MAX, grid_points)
    values = [expectation(d) for d in grid]
    k = int(np.argmax(values))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid_points - 1)]
    delta_star, best, _ = refine_slope_root(value_and_slope, lo, hi, DELTA_REFINE_TOL)
    if delta_star is None or best < values[k]:
        return float(grid[k]), float(values[k])
    return float(delta_star), float(best)


@settings(max_examples=60, deadline=None)
@given(eta=unit, ds=deltas, cutoff=st.integers(min_value=1, max_value=6))
def test_povm_stack_matches_per_delta_kraus_sum(eta, ds, cutoff):
    inner, outer, X = binned_homodyne_povms(eta, ds, cutoff)
    assert inner.shape == (len(ds), cutoff + 1, cutoff + 1)
    for g, d in enumerate(ds):
        assert np.abs(inner[g] - reference_inner(eta, d, cutoff)).max() <= 1e-12
        # 0 <= inner <= I: both POVM elements are positive semidefinite.
        assert np.linalg.eigvalsh(inner[g]).min() >= -1e-12
        assert np.linalg.eigvalsh(outer[g]).min() >= -1e-12
    assert np.array_equal(X, inner - outer)


@settings(max_examples=40, deadline=None)
@given(
    alice=parties,
    bob=parties,
    ds=deltas,
    cutoffs=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    cap=st.one_of(st.none(), st.integers(0, 5)),
)
def test_bell_stack_matches_per_delta_kron(alice, bob, ds, cutoffs, cap):
    basis = ModeBasis(cutoffs, total_cap=cap)
    stack = bell_matrices(basis, alice, bob, ds)
    assert stack.shape == (len(ds), basis.dimension, basis.dimension)
    for g, d in enumerate(ds):
        reference = reference_bell(basis, alice, bob, d)
        assert np.abs(stack[g] - reference).max() <= 1e-12
        single = bell_matrix(basis, BellScenario(alice, bob, delta=d))
        assert np.array_equal(single, stack[g])


@settings(max_examples=50, deadline=None)
@given(
    alice=parties,
    bob=parties,
    ds=deltas,
    cutoffs=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    cap=st.one_of(st.none(), st.integers(0, 5)),
)
def test_bell_stack_invariant_under_party_swap(alice, bob, ds, cutoffs, cap):
    # B = Xa (x) (Xb + Nb) + Na (x) (Xb - Nb) is symmetric in the two parties:
    # swapping the parties and their modes permutes the basis, P B P^T.
    ca, cb = cutoffs
    basis = ModeBasis((ca, cb), total_cap=cap)
    swapped = ModeBasis((cb, ca), total_cap=cap)
    P = [basis.index_of((a, b)) for b, a in swapped.occupations]
    expected = bell_matrices(basis, alice, bob, ds)[:, P][:, :, P]
    found = bell_matrices(swapped, bob, alice, ds)
    assert np.abs(found - expected).max() <= 1e-12


LOSSY = PartyConditions(eta_t=0.9, eta_d=0.85, eta_h=0.95)


@pytest.mark.parametrize("state, grid_points", [
    (psi2_state(2), 241),
    (psi2_state(4), 241),
    (lossy_psi2(0.8), 241),
    (amplified_source(SourceConfig(squeezing=0.15, amp_transmission=0.01,
                                   coupling=0.9, cutoff=3)).state, 61),
], ids=["psi2", "psi2-cutoff4", "lossy-psi2", "capped-source-output"])
def test_optimize_delta_matches_scalar_loop(state, grid_points):
    for alice, bob in ((PartyConditions(), PartyConditions()), (LOSSY, PartyConditions())):
        found = optimize_delta(alice, bob, state=state, grid_points=grid_points)
        expected = reference_optimize_delta(alice, bob, state, grid_points)
        assert found == pytest.approx(expected, abs=1e-12)


lossy_unit = st.floats(min_value=0.3, max_value=0.99)
lossy_parties = st.builds(PartyConditions, eta_t=lossy_unit, eta_d=lossy_unit, eta_h=lossy_unit)
fixed_states = st.sampled_from([None, "psi2", "lossy-psi2"])


def make_state(name, cutoff=2):
    return {None: None, "psi2": psi2_state(cutoff), "lossy-psi2": lossy_psi2(0.8, cutoff)}[name]


def slope_objective(alice, bob, state, cutoff=2, total_cap=2):
    """The delta objective of ``optimize_delta`` and its value-and-slope twin."""
    if state is None:
        basis = ModeBasis((cutoff, cutoff), total_cap=total_cap)
        return _top_eigenvalue(basis, alice, bob)
    return _state_chsh(state, alice, bob)


FD_STEP = 1e-6
# Central differences lose about 1e-16 / FD_STEP to rounding: an absolute
# floor for slopes that vanish far out in the bin.
FD_FLOOR = 1e-9


@settings(max_examples=40, deadline=None)
@given(party=lossy_parties, delta=st.floats(min_value=0.01, max_value=DELTA_MAX),
       cutoff=st.integers(min_value=0, max_value=6))
def test_observable_slope_matches_central_difference(party, delta, cutoff):
    eta = party.eta_h * party.eta_t
    X, dX = binned_homodyne_slopes(eta, [delta], cutoff)
    assert np.abs(X - binned_homodyne_povms(eta, [delta], cutoff)[2]).max() <= 1e-15
    ahead, behind = (binned_homodyne_povms(eta, [delta + s], cutoff)[2]
                     for s in (FD_STEP, -FD_STEP))
    central = (ahead - behind) / (2 * FD_STEP)
    assert np.abs(central - dX).max() <= 1e-5 * np.abs(dX).max() + FD_FLOOR


@settings(max_examples=40, deadline=None)
@given(alice=lossy_parties, bob=lossy_parties, state=fixed_states,
       delta=st.floats(min_value=0.01, max_value=3.0))
def test_refine_slope_matches_central_difference(alice, bob, state, delta):
    state = make_state(state)
    objective, value_and_slope = slope_objective(alice, bob, state)
    if state is None:  # the top eigenvalue is smooth only where it is simple
        basis = ModeBasis((2, 2), total_cap=2)
        w = np.linalg.eigvalsh(bell_matrices(basis, alice, bob, [delta])[0])
        assume(w[-1] - w[-2] > 1e-3)
    (value,), (slope,) = value_and_slope(np.array([delta]))
    assert value == pytest.approx(objective(np.array([delta]))[0], abs=1e-12)
    ahead, behind = objective(np.array([delta + FD_STEP, delta - FD_STEP]))
    central = (ahead - behind) / (2 * FD_STEP)
    assert central == pytest.approx(slope, rel=1e-5, abs=FD_FLOOR)


@settings(max_examples=30, deadline=None)
@given(alice=lossy_parties, bob=lossy_parties, state=fixed_states)
def test_slope_refine_reaches_the_golden_section_optimum(alice, bob, state):
    state = make_state(state)
    search = search_delta(alice, bob, state=state)
    assume(search.unimodal)
    objective = slope_objective(alice, bob, state)[0]
    golden_delta, golden_value = golden_section_max(
        lambda d: float(objective(np.array([d]))[0]), *search.bracket, 1e-10
    )
    assert search.value >= golden_value - 1e-12
    assert abs(search.delta - golden_delta) <= 1e-6
    assert (search.delta, search.value) == optimize_delta(alice, bob, state=state)


@settings(max_examples=40, deadline=None)
@given(alice=parties, bob=parties, state=st.sampled_from([None, "psi2"]))
def test_party_swap_leaves_the_optimum_unchanged(alice, bob, state):
    # Both the capped optimal state and psi2 are symmetric under exchanging
    # the modes, so exchanging the parties' conditions cannot move the optimum.
    state = make_state(state)
    forward = optimize_delta(alice, bob, state=state)[1]
    assert optimize_delta(bob, alice, state=state)[1] == pytest.approx(forward, abs=1e-12)


@pytest.mark.parametrize("state", [None, "psi2"])
@pytest.mark.parametrize("eta_t", [1.0, 0.9])
def test_refine_converges_superlinearly(state, eta_t):
    # Bisection from a two-step bracket to 1e-6 takes 16 steps and plain
    # regula falsi 9 to 11 here; the Illinois steps take at most 6.
    alice, bob = PartyConditions(eta_t=eta_t), PartyConditions(eta_t=eta_t, eta_d=0.9)
    search = search_delta(alice, bob, state=make_state(state))
    assert 2 < search.evaluations <= 2 + 6


def test_refine_stops_at_the_zero_delta_edge():
    # All photons lost: X = (2 erf(delta) - 1) 1 and N = -1, so CHSH is
    # x^2 - 2x - 1, largest (2) at the constant observable X = -1, delta = 0.
    # A maximum at delta = 0 is not refined: the slope there is never positive.
    lost = PartyConditions(eta_t=0.0)
    search = search_delta(lost, lost)
    assert (search.delta, search.grid_index, search.evaluations) == (0.0, 0, 0)
    assert search.value == pytest.approx(2.0, abs=1e-12)
    assert search.unimodal


@settings(max_examples=40, deadline=None)
@given(alice=parties, other=parties, symmetric=st.booleans(), cap=st.integers(2, 6),
       delta=st.floats(min_value=0.0, max_value=DELTA_MAX), eta=unit,
       gain=st.floats(min_value=1.0, max_value=4.0), applications=st.integers(1, 4))
def test_the_slope_at_zero_delta_is_never_positive(alice, other, symmetric, cap, delta, eta,
                                                   gain, applications):
    # X(0) = -1, dX/d(delta) >= 0 and N <= 1, so
    # dB(0) = dXa (x) (Nb - 1) + (Na - 1) (x) dXb <= 0: no state has a positive
    # slope at delta = 0, and a maximum there is returned unrefined.
    bob = alice if symmetric else other
    basis = ModeBasis((cap, cap), total_cap=cap)
    slope = _projected_kron(basis, _mode_slopes(basis, alice, bob, [0.0])[1])[0]
    w = np.linalg.eigvalsh(slope)
    assert w[-1] <= 1e-12 * np.abs(w).max()
    states = [psi2_state(cap), apply_filters(lossy_psi2(eta, cap), gain, applications),
              optimal_state(BellScenario(alice, bob, delta), cap, cap)[0]]
    for state in states:
        (_,), (state_slope,) = _state_chsh(state, alice, bob)[1](np.array([0.0]))
        assert state_slope <= 1e-12


@pytest.mark.parametrize("solve", [
    lambda: critical_efficiency("eta_t"),
    lambda: critical_efficiency("eta_d", state=psi2_state()),
    lambda: filtered_critical_transmission(2.0),
], ids=["optimal-eta-t", "psi2-eta-d", "filtered"])
def test_cap_two_threshold_solves_never_refine(monkeypatch, solve):
    # Every step of these solves violates on the grid or peaks at delta = 0,
    # where the refine could not move the verdict, so it never runs.
    calls = []

    def counted(*args):
        calls.append(args)
        return refine_slope_root(*args)

    monkeypatch.setattr(bell, "refine_slope_root", counted)
    assert solve() is not None
    assert calls == []
    optimize_delta(PartyConditions(), PartyConditions())  # an interior maximum
    assert len(calls) == 1


@pytest.mark.parametrize("kwargs", [
    {"eta_c": 0.9}, {}, {"eta_d": 0.93, "eta_c": 0.95, "symmetry": "asymmetric"},
], ids=["coupling-loss", "defaults", "asymmetric"])
def test_source_threshold_solves_never_refine(monkeypatch, kwargs):
    # The delta search of each step stops above the violation bound, and the
    # steps below it peak at delta = 0.  The reported optimum still refines.
    calls = []

    def counted(*args):
        calls.append(args)
        return refine_slope_root(*args)

    monkeypatch.setattr(bell, "refine_slope_root", counted)
    assert sa.source_critical_transmission(**kwargs) is not None
    assert calls == []
    party = PartyConditions(eta_t=0.9)
    optimum = max_source_chsh(party, party, eta_c=0.9)
    assert calls and optimum.chsh_value > 2.0


def test_flat_objective_keeps_the_grid_maximizer():
    # Blind homodyne on |11>: CHSH = x^2 + 2x - 1 rises to 2 as delta grows
    # and stays within 1e-12 of it from delta ~ 5.3 on, where the slope is
    # still positive: no root, a grid point of the plateau, and no alarm.
    blind = PartyConditions(eta_h=0.0)
    state = fock_state(ModeBasis((2, 2)), (1, 1))
    search = search_delta(blind, blind, state=state)
    grid = np.linspace(0.0, DELTA_MAX, 241)
    assert 0 < search.grid_index < 240
    assert search.delta == grid[search.grid_index]
    assert search.value == pytest.approx(2.0, abs=1e-12)
    assert search.unimodal


@pytest.mark.parametrize("state", [None, "psi2"])
def test_broken_unimodality_is_reported(state):
    # On a 9-point grid the best point, delta = 0.75, has delta = 0 as its left
    # neighbour.  CHSH falls from its edge value 2 at delta = 0 before it rises
    # to the peak, so the slope is negative at both bracket ends.
    unit = PartyConditions()
    search = search_delta(unit, unit, state=make_state(state), grid_points=9)
    assert (search.grid_index, search.delta, search.evaluations) == (1, 0.75, 2)
    assert not search.unimodal
    assert optimize_delta(unit, unit, state=make_state(state), grid_points=9) == (
        search.delta, search.value)


def test_refine_bisects_when_the_secant_leaves_the_bracket():
    # A step function of a slope: regula falsi would stall at one end.
    calls = []

    def value_and_slope(ds):
        calls.extend(ds)
        return -np.abs(ds - 0.3), np.where(ds < 0.3, 1.0, -1e-300)

    x, _, evaluations = refine_slope_root(value_and_slope, 0.0, 1.0, 1e-6)
    assert abs(x - 0.3) <= 1e-6 and evaluations == len(calls) < 60


@contextmanager
def time_limit(seconds):
    """Fail with ``TimeoutError`` instead of stalling the suite on a loop that never ends."""
    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


TILTED = PartyConditions(eta_t=0.9)


def tilted_slopes():
    """The optimal-state ``value_and_slope`` at eta_t = 0.9, whose optimum is interior."""
    return _top_eigenvalue(shared_basis((2, 2), 2), TILTED, TILTED)[1]


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_a_tol_that_is_not_finite_and_positive_is_refused(tol):
    # A tol <= 0 never ended the loops; NaN and inf ended them at once.
    with time_limit(5):
        with pytest.raises(ValueError, match="refine tol must be finite and positive"):
            refine_slope_root(tilted_slopes(), 0.675, 0.725, tol)
        with pytest.raises(ValueError, match="golden-section tol must be finite and positive"):
            golden_section_max(lambda x: -(x - 1.0) ** 2, 0.0, 2.0, tol)


def test_a_tol_below_the_float_spacing_stops_at_adjacent_floats():
    with time_limit(5):
        x, value, _ = refine_slope_root(tilted_slopes(), 0.675, 0.725, 1e-300)
        assert golden_section_max(lambda x: -(x - 1.0) ** 2, 0.0, 2.0, 5e-324) == (1.0, 0.0)
    assert abs(x - 0.6971520623983694) <= 1e-6
    assert value == pytest.approx(2.1748201553222115, abs=1e-12)


@pytest.mark.parametrize("grid_points", [0, 1])
def test_a_delta_grid_of_fewer_than_two_points_is_refused(grid_points):
    with time_limit(5):
        with pytest.raises(ValueError, match="delta grid must have at least 2 points"):
            optimize_delta(TILTED, TILTED, grid_points=grid_points)


def test_every_delta_search_refines_to_the_one_width():
    # No search takes a tol: the refine runs to DELTA_REFINE_TOL, the width
    # the JSON sidecar reports (the grid point alone reads 2.174811414612007).
    for function in (search_delta, optimize_delta, _search_grid):
        assert "tol" not in inspect.signature(function).parameters
    assert refine_slope_root(tilted_slopes(), 0.675, 0.725, DELTA_REFINE_TOL) == (
        0.6971520623983694, 2.1748201553222115, 5)
    assert optimize_delta(TILTED, TILTED) == (0.6971520623983694, 2.1748201553222115)


SMALL_GRIDS = dict(cutoff=3, lam_grid=default_squeezing_grid(4),
                   t_grid=default_transmission_grid(5))


def source_grid_optimum(party, eta_c, cutoff, lam_grid, t_grid):
    """The (chsh, squeezing, amp_transmission, delta) grid point that max_source_chsh refines."""
    basis, packed, trace = sa._source_stack(eta_c, cutoff)
    deltas = np.linspace(0.0, DELTA_MAX, 81)
    hankels = sa._pair_forms(packed, _packed_kron(basis, _mode_observables(basis, party, party,
                                                                            deltas)))
    values = sa._grid_chsh(hankels, trace, lam_grid, t_grid)
    g, i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    return values[g, i, j], lam_grid[i], t_grid[j], deltas[g]


@pytest.mark.parametrize("eta_t, eta_d, refine, expected", [
    # (chsh, squeezing, amp_transmission, delta) from the per-delta loops,
    # of the grid scan alone (refine False) and of max_source_chsh.
    (1.0, 1.0, False, (2.243917871879339, 0.13333333333333333,
                       0.0004043428237538843, 0.6749999999999999)),
    # With refine, delta is pinned at the slope refine's optimum.
    (1.0, 1.0, True, (2.24823164059503, 0.11919410875085226,
                      0.00034590782625691787, 0.7075078969098594)),
    (0.9, 0.95, True, (2.0580654775899756, 0.12637741784907808,
                       0.0003494816039775519, 0.6533498581996202)),
])
def test_max_source_chsh_pinned(eta_t, eta_d, refine, expected):
    party = PartyConditions(eta_t=eta_t, eta_d=eta_d)
    if refine:
        found = max_source_chsh(party, party, eta_c=0.9, **SMALL_GRIDS)
        values = (found.chsh_value, found.squeezing, found.amp_transmission, found.delta)
    else:
        values = source_grid_optimum(party, eta_c=0.9, **SMALL_GRIDS)
    assert values == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("gain, expected", [(2.0, 0.65869140625), (3.0, 0.57666015625)])
def test_filtered_source_threshold_pinned(gain, expected):
    # Bisection results are dyadic: equal values mean the same bisection path.
    assert amplified_source_threshold_with_filters(
        gain, 1, eta_c=0.9, **SMALL_GRIDS
    ) == expected


@pytest.mark.parametrize("symmetry, eta_c, eta_d, tol, expected", [
    ("symmetric", 0.9, 1.0, 1e-3, 0.84521484375),
    ("symmetric", 1.0, 0.9, 1e-4, 0.846405029296875),
    ("asymmetric", 1.0, 1.0, 1e-4, 0.697906494140625),
    ("asymmetric", 0.9, 0.8, 1e-3, 0.89306640625),
    ("asymmetric", 0.9, 0.9, 1e-4, 0.805206298828125),
])
def test_source_threshold_pinned(symmetry, eta_c, eta_d, tol, expected):
    # Measured with each step's own golden sections and delta search on the
    # default 40 x 60 grid at cutoff 6; the shared step keeps every verdict.
    assert sa.source_critical_transmission(eta_d=eta_d, eta_c=eta_c, symmetry=symmetry,
                                           tol=tol) == expected


def test_source_threshold_runs_no_golden_section(monkeypatch):
    # The threshold steps read the (delta, lam, t) grid and a delta search;
    # only the reported optimum refines lam and t.
    def refined(*args, **kwargs):
        raise AssertionError("a threshold step refined lam or t")

    for name in ("max_source_chsh", "golden_section_max"):
        monkeypatch.setattr(sa, name, refined)
    for symmetry in ("symmetric", "asymmetric"):
        assert sa.source_critical_transmission(eta_c=0.9, symmetry=symmetry) is not None


def untrimmed_chsh(rho, alice, bob, deltas):
    """``Tr rho B`` and ``Tr rho dB`` with the stacks at the basis's full cutoffs."""
    T = _product_tensor(rho.basis, rho.matrix.real)
    full = ModeBasis(rho.basis.cutoffs)
    G = len(deltas)

    def contract(terms):
        # Tr rho (a (x) b) = sum rho[i, a, j, b] a[j, i] b[b, a], per delta.
        return sum(np.einsum("iajb,xji,xba->x", T, *(np.broadcast_to(m, (G, *m.shape[-2:]))
                                                      for m in pair))
                   for pair in terms)

    values, slopes = _mode_slopes(full, alice, bob, deltas)
    terms = _mode_observables(full, alice, bob, deltas)
    return contract(terms), contract(values), contract(slopes)


@settings(max_examples=40, deadline=None)
@given(alice=lossy_parties, bob=lossy_parties, cutoff=st.sampled_from([2, 4, 6]),
       cap=st.sampled_from([None, 2]), reach=st.tuples(st.integers(0, 6), st.integers(0, 6)),
       seed=st.integers(0, 2**32 - 1), delta_list=deltas)
def test_state_chsh_on_the_support_equals_the_full_contraction(alice, bob, cutoff, cap, reach,
                                                               seed, delta_list):
    # The stacks are built only up to the photon numbers the state occupies.
    basis = ModeBasis((cutoff, cutoff), total_cap=cap)
    inside = np.all(basis.occupations <= reach, axis=1)
    rng = np.random.default_rng(seed)
    g = (rng.normal(size=(basis.dimension, 3)) + 1j * rng.normal(size=(basis.dimension, 3)))
    g[~inside] = 0.0
    g[0] += 1.0  # the vacuum is always inside: a non-zero trace
    rho = g @ g.conj().T
    rho = DensityOperator(basis, rho / np.trace(rho).real)
    chsh, chsh_and_slope = _state_chsh(rho, alice, bob)
    values, slopes = chsh_and_slope(np.array(delta_list))
    reference = untrimmed_chsh(rho, alice, bob, np.array(delta_list))
    for found, expected in zip((chsh(delta_list), values, slopes), reference):
        assert np.abs(found - expected).max() <= 1e-14


@pytest.mark.parametrize("cutoff", [2, 4, 6])
def test_fixed_states_on_the_support_equal_the_full_contraction(cutoff):
    party = PartyConditions(eta_t=0.9, eta_d=0.85, eta_h=0.95)
    grid = np.linspace(0.0, DELTA_MAX, 241)
    for state in (psi2_state(cutoff).to_density(), lossy_psi2(0.7, cutoff), lossy_psi2(0.0, cutoff)):
        found = _state_chsh(state, party, party)[0](grid)
        assert np.abs(found - untrimmed_chsh(state, party, party, grid)[0]).max() <= 1e-14
