"""Capped two-mode operators built from their per-mode factors.

``bell._packed_kron`` gathers the entries of ``sum a (x) b`` in the
photon-parity sectors of a capped basis, and ``bell._projected_kron`` builds
the whole matrix densely; ``np.kron`` followed by the capped-index
projection is the reference for both, entry for entry.  The
filtered solvers pull their
filtered Bell operators and ``F^2`` back through the transmission loss one
mode at a time (``local_amp._filtered_pullback``); the two-mode Kraus
operators of ``fock.embed_single_mode`` and ``fock.loss_kraus`` are the
reference.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import cvbell.source_amp as sa
from cvbell.bell import (
    PartyConditions,
    _mode_observables,
    _parity_sectors,
    _packed_kron,
    _projected_kron,
    _trimmed_cutoffs,
    bell_matrices,
)
from cvbell.fock import ModeBasis, embed_single_mode, embedding_indices, loss_kraus
from cvbell.local_amp import filter_diagonal
from cvbell.measurement import DELTA_MAX

seeds = st.integers(0, 2**32 - 1)


@st.composite
def kron_cases(draw):
    cutoffs = (draw(st.integers(0, 7)), draw(st.integers(0, 7)))
    cap = draw(st.none() | st.integers(0, sum(cutoffs)))
    return ModeBasis(cutoffs, total_cap=cap), draw(st.integers(1, 5)), draw(st.booleans())


def kron_reference(basis, terms):
    """``np.kron`` of every pair at every stack index, summed, then projected.

    The factors are at the basis's trimmed cutoffs.
    """
    (a, b), (c, d) = terms
    c = np.broadcast_to(c, (len(a),) + c.shape[-2:])
    full = np.stack([np.kron(a[g], b[g]) + np.kron(c[g], d[g]) for g in range(len(a))])
    idx = embedding_indices(basis, ModeBasis(_trimmed_cutoffs(basis)))
    return full[:, idx[:, None], idx]


def sector_entries(basis, matrices):
    """The photon-parity sector entries of a ``(G, d, d)`` stack, packed."""
    return matrices.reshape(len(matrices), -1)[:, _parity_sectors(basis).entries]


@settings(max_examples=80, deadline=None)
@given(case=kron_cases(), seed=seeds)
def test_packed_kron_equals_projected_kron(case, seed):
    basis, G, single = case
    rng = np.random.default_rng(seed)
    da, db = (c + 1 for c in _trimmed_cutoffs(basis))
    a, c = rng.normal(size=(G, da, da)), rng.normal(size=(G, da, da))
    b, d = rng.normal(size=(G, db, db)), rng.normal(size=(G, db, db))
    if single:  # one matrix against a stack, as Alice's N in the Bell operator
        c = c[0]
    terms = ((a, b), (c, d))
    reference = kron_reference(basis, terms)
    dense = _projected_kron(basis, terms)
    assert dense.shape == (G, basis.dimension, basis.dimension)
    assert np.array_equal(dense, reference)
    # The gather is exact for any factors; only its choice of entries
    # relies on the parity structure.
    got = _packed_kron(basis, terms)
    assert got.shape == (G, sum(p.size ** 2 for p in _parity_sectors(basis).positions))
    assert np.array_equal(got, sector_entries(basis, reference))


def embedded_loss(basis, eta):
    """Each mode's loss Kraus operators, embedded in the two-mode basis."""
    return [
        [embed_single_mode(basis, A, mode).real for A in loss_kraus(eta, basis.cutoffs[mode])]
        for mode in (0, 1)
    ]


def through_embedded(ops, kraus):
    """The adjoint loss ``sum_k E_k^T O E_k``, mode 0 then mode 1."""
    for mode_kraus in kraus:
        ops = sum(E.T @ ops @ E for E in mode_kraus)
    return ops


def assert_relatively_close(got, expected, rtol=1e-12):
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= rtol * np.max(np.abs(expected))


def filter_scale(got, expected):
    """The power of two nearest ``got / expected`` at the largest entry of ``expected``.

    The pullback scales each mode's filter by a power of two, so its
    operators are the unscaled ones times one such common factor.
    """
    k = np.argmax(np.abs(expected))
    return 2.0 ** np.round(np.log2(got.flat[k] / expected.flat[k]))


@settings(max_examples=40, deadline=None)
@given(
    eta=st.floats(min_value=0.0, max_value=1.0),
    gain=st.floats(min_value=1.0, max_value=4.0),
    applications=st.integers(1, 3),
    cutoff=st.integers(1, 6),
    eta_d=st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 2),
    seed=seeds,
)
def test_per_mode_loss_matches_embedded_kraus(eta, gain, applications, cutoff, eta_d, seed):
    # The source output basis: every occupation up to the cap.  Unequal
    # parties make the Bell operator tell the two modes apart.
    basis = ModeBasis((cutoff, cutoff), total_cap=cutoff)
    alice, bob = (PartyConditions(eta_d=e) for e in eta_d)
    rng = np.random.default_rng(seed)
    deltas = rng.uniform(0.0, DELTA_MAX, size=3)
    kraus = embedded_loss(basis, eta)
    F = filter_diagonal(basis, gain, applications)

    terms = _mode_observables(basis, alice, bob, deltas)
    bells, trace = sa._filtered_pullback(basis, gain, applications, cutoff)(terms)(eta)
    filtered = F[:, None] * bell_matrices(basis, alice, bob, deltas) * F
    square = sector_entries(basis, through_embedded(np.diag(F * F), kraus)[None])[0]
    scale = filter_scale(trace, square)
    assert_relatively_close(
        bells, scale * sector_entries(basis, through_embedded(filtered, kraus))
    )
    assert_relatively_close(trace, scale * square)
