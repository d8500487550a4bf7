"""The batched delta search against per-delta reference loops.

The references rebuild every POVM element and Bell matrix one delta at a
time from the :mod:`cvbell.fock` primitives (``loss_kraus``, ``np.kron``),
the way the search worked before it was batched.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell.bell import (
    BellScenario,
    PartyConditions,
    bell_matrices,
    bell_matrix,
    golden_section_max,
    optimize_delta,
)
from cvbell.fock import ModeBasis, StateVector, embedding_indices, loss_kraus
from cvbell.local_amp import lossy_psi2, psi2_state
from cvbell.measurement import (
    DELTA_MAX,
    binned_homodyne_povms,
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


def reference_bell(basis, alice, bob, delta, delta_b):
    def observables(party, d, c):
        X = 2.0 * reference_inner(party.eta_h * party.eta_t, d, c) - np.eye(c + 1)
        return X, photodetection_povm(party.eta_d * party.eta_t, c)[2]

    ca, cb = basis.cutoffs
    Xa, Na = observables(alice, delta, ca)
    Xb, Nb = observables(bob, delta_b, cb)
    B = np.kron(Xa, Xb + Nb) + np.kron(Na, Xb - Nb)
    idx = embedding_indices(basis, ModeBasis(basis.cutoffs))
    return B[np.ix_(idx, idx)]


def reference_optimize_delta(alice, bob, state, grid_points, tol):
    basis = state.basis
    matrix = state.to_density().matrix if isinstance(state, StateVector) else state.matrix

    def objective(d):
        return float(np.trace(matrix @ reference_bell(basis, alice, bob, d, d)).real)

    grid = np.linspace(0.0, DELTA_MAX, grid_points)
    values = [objective(d) for d in grid]
    k = int(np.argmax(values))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid_points - 1)]
    delta_star, best = golden_section_max(objective, lo, hi, tol)
    if best < values[k]:
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
    own_bob=st.booleans(),
)
def test_bell_stack_matches_per_delta_kron(alice, bob, ds, cutoffs, cap, own_bob):
    basis = ModeBasis(cutoffs, total_cap=cap)
    ds_bob = list(reversed(ds)) if own_bob else None
    stack = bell_matrices(basis, alice, bob, ds, ds_bob)
    assert stack.shape == (len(ds), basis.dimension, basis.dimension)
    for g, d in enumerate(ds):
        d_b = ds_bob[g] if own_bob else d
        reference = reference_bell(basis, alice, bob, d, d_b)
        assert np.abs(stack[g] - reference).max() <= 1e-12
        single = bell_matrix(basis, BellScenario(alice, bob, delta=d, delta_bob=d_b))
        assert np.array_equal(single, stack[g])


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


SMALL_GRIDS = dict(cutoff=3, lam_grid=default_squeezing_grid(4),
                   t_grid=default_transmission_grid(5))


@pytest.mark.parametrize("eta_t, eta_d, refine, expected", [
    # (chsh, squeezing, amp_transmission, delta) from the per-delta loops.
    (1.0, 1.0, False, (2.243917871879339, 0.13333333333333333,
                       0.0004043428237538843, 0.6749999999999999)),
    (1.0, 1.0, True, (2.24823164059503, 0.11919410875085226,
                      0.00034590782625691787, 0.707507706494459)),
    (0.9, 0.95, True, (2.0580654775899756, 0.12637741784907808,
                       0.0003494816039775519, 0.65334973352836)),
])
def test_max_source_chsh_pinned(eta_t, eta_d, refine, expected):
    party = PartyConditions(eta_t=eta_t, eta_d=eta_d)
    found = max_source_chsh(party, party, eta_c=0.9, refine=refine, **SMALL_GRIDS)
    values = (found.chsh_value, found.squeezing, found.amp_transmission, found.delta)
    assert values == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("gain, expected", [(2.0, 0.65869140625), (3.0, 0.57666015625)])
def test_filtered_source_threshold_pinned(gain, expected):
    # Bisection results are dyadic: equal values mean the same bisection path.
    assert amplified_source_threshold_with_filters(
        gain, 1, eta_c=0.9, **SMALL_GRIDS
    ) == expected
