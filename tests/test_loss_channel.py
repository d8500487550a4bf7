"""The loss as one channel matrix, stacks row by row, and grid eigenvalues.

``measurement._through_loss`` applies the adjoint loss to a raveled stack as
one product with ``C = sum_k A_k (x) A_k``; the Kraus sums over
``fock.loss_kraus``, summed in extended precision, are the reference.  A
stack's rows are separate products, so one delta alone equals its row in a
stack bit for bit.  The
delta grid takes eigenvalues only (``fock.hermitian_eigvals``), checked
against ``eigh``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell.bell import PartyConditions, bell_matrices
from cvbell.fock import ModeBasis, hermitian_eig, hermitian_eigvals, loss_kraus
from cvbell.measurement import (
    DELTA_MAX,
    _through_loss,
    binned_homodyne_povms,
    binned_homodyne_slopes,
)

unit = st.floats(min_value=0.0, max_value=1.0)
seeds = st.integers(0, 2**32 - 1)
delta_lists = st.lists(st.floats(min_value=0.0, max_value=DELTA_MAX), min_size=1, max_size=8)


def extended(A):
    return A.astype(np.longdouble)


def adjoint_kraus_sum(eta, stack, cutoff):
    return sum(extended(A).T @ extended(stack) @ extended(A) for A in loss_kraus(eta, cutoff))


def stack_scale(stack, image):
    """The larger entry of a stack and of its image: loss can gather a trace."""
    return max(float(np.abs(stack).max()), float(np.abs(image).max()))


@settings(max_examples=60, deadline=None)
@given(eta=unit, cutoff=st.integers(0, 7), count=st.integers(1, 9), seed=seeds)
def test_channel_matrix_matches_adjoint_kraus_sum(eta, cutoff, count, seed):
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(count, cutoff + 1, cutoff + 1))
    found = _through_loss(eta, stack, cutoff)
    assert found.shape == stack.shape
    reference = adjoint_kraus_sum(eta, stack, cutoff)
    assert np.abs(found - reference).max() <= 1e-15 * stack_scale(stack, reference)
    single = _through_loss(eta, stack[0], cutoff)
    assert np.array_equal(single, found[0])


@settings(max_examples=60, deadline=None)
@given(eta=unit, ds=delta_lists, cutoff=st.integers(0, 7))
def test_one_delta_equals_its_stacked_row(eta, ds, cutoff):
    stacked = binned_homodyne_povms(eta, ds, cutoff)
    X, dX = binned_homodyne_slopes(eta, ds, cutoff)
    for g, d in enumerate(ds):
        for one, row in zip(binned_homodyne_povms(eta, [d], cutoff), stacked):
            assert np.array_equal(one[0], row[g])
        X_one, dX_one = binned_homodyne_slopes(eta, [d], cutoff)
        assert np.array_equal(X_one[0], X[g]) and np.array_equal(dX_one[0], dX[g])


parties = st.builds(PartyConditions, eta_t=unit, eta_d=unit, eta_h=unit)


@settings(max_examples=40, deadline=None)
@given(alice=parties, bob=parties, ds=delta_lists,
       cutoffs=st.tuples(st.integers(1, 6), st.integers(1, 6)),
       cap=st.one_of(st.none(), st.integers(0, 6)))
def test_grid_eigenvalues_match_eigh_on_bell_stacks(alice, bob, ds, cutoffs, cap):
    stack = bell_matrices(ModeBasis(cutoffs, total_cap=cap), alice, bob, ds)
    values = hermitian_eigvals(stack)
    w, _ = hermitian_eig(stack)
    assert values.shape == w.shape
    assert np.abs(values[:, -1] - w[:, -1]).max() <= 1e-14


@settings(max_examples=40, deadline=None)
@given(dimension=st.integers(1, 12), count=st.integers(1, 5), complex_=st.booleans(),
       seed=seeds)
def test_grid_eigenvalues_match_eigh_on_hermitian_stacks(dimension, count, complex_, seed):
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1.0, 1.0, size=(count, dimension, dimension))
    if complex_:
        M = M + 1j * rng.uniform(-1.0, 1.0, size=M.shape)
    H = (M + M.conj().swapaxes(-1, -2)) / 2.0
    values = hermitian_eigvals(H)
    w, _ = hermitian_eig(H)
    assert values.dtype == float
    assert np.abs(values[:, -1] - w[:, -1]).max() <= 1e-14


def test_grid_eigenvalues_reject_non_hermitian_input():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigvals(np.array([[0.0, 1.0], [0.0, 0.0]]))
    stack = np.stack([np.eye(3), np.eye(3)])
    stack[1, 0, 2] = 0.5  # one bad matrix in the stack
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigvals(stack)
    with pytest.raises(ValueError, match="square"):
        hermitian_eigvals(np.zeros((2, 3)))
