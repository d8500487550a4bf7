"""The batched delta search against per-delta reference loops.

The references rebuild every POVM element, Bell matrix and delta-derivative
one delta at a time from the :mod:`cvbell.fock` primitives (``loss_kraus``,
``np.kron``).  The slope refine is checked against central differences and
against a golden section on the same bracket.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cvbell.source_amp as sa
from cvbell.bell import (
    BellScenario,
    PartyConditions,
    _mode_observables,
    _mode_slopes,
    _packed_kron,
    _state_chsh,
    _top_eigenvalue,
    bell_matrices,
    bell_matrix,
    golden_section_max,
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
)
from cvbell.local_amp import lossy_psi2, psi2_state
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


def reference_optimize_delta(alice, bob, state, grid_points, tol):
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
    delta_star, best, _ = refine_slope_root(value_and_slope, lo, hi, tol)
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


@pytest.mark.parametrize("state, grid_points, tol", [
    (psi2_state(2), 241, 1e-6),
    (psi2_state(4), 241, 1e-6),
    (lossy_psi2(0.8), 241, 1e-6),
    (amplified_source(SourceConfig(squeezing=0.15, amp_transmission=0.01,
                                   coupling=0.9, cutoff=3)).state, 61, 1e-5),
], ids=["psi2", "psi2-cutoff4", "lossy-psi2", "capped-source-output"])
def test_optimize_delta_matches_scalar_loop(state, grid_points, tol):
    for alice, bob in ((PartyConditions(), PartyConditions()), (LOSSY, PartyConditions())):
        found = optimize_delta(alice, bob, state=state, grid_points=grid_points, tol=tol)
        expected = reference_optimize_delta(alice, bob, state, grid_points, tol)
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
    lost = PartyConditions(eta_t=0.0)
    search = search_delta(lost, lost)
    assert (search.delta, search.grid_index, search.evaluations) == (0.0, 0, 2)
    assert search.value == pytest.approx(2.0, abs=1e-12)
    assert search.unimodal


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


SMALL_GRIDS = dict(cutoff=3, lam_grid=default_squeezing_grid(4),
                   t_grid=default_transmission_grid(5))


def source_grid_optimum(party, eta_c, cutoff, lam_grid, t_grid):
    """The (chsh, squeezing, amp_transmission, delta) grid point that max_source_chsh refines."""
    basis, _, packed, trace = sa._source_stack(eta_c, cutoff)
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
