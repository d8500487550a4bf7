"""The image path of the source sweeps against the direct circuit.

With the single-photon ancilla the sweeps never run the circuit per
(lam, t): they evaluate quadratic forms in the circuit's images of its basis
inputs, folded once into Hankel sums over the squeezing powers
(``source_amp._source_stack``).  The grid scans evaluate those sums as
polynomials in lam contracted with the photon pair in t
(``source_amp._grid_chsh``).  The reference is the dense form
``x R x / x T x`` over every image-weight row, with ``R`` built here from
the unfolded Gram array of the circuit and the dense operators.  The sweeps
read only the photon-parity sector entries of each operator
(``source_amp._pair_forms``); ``tests/test_parity_sectors.py`` checks that
the entries between sectors are zero.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvbell.source_amp as sa
from cvbell.bell import (
    BellScenario,
    PartyConditions,
    _parity_sectors,
    _mode_observables,
    _packed_kron,
    bell_matrices,
    chsh_value,
)
from cvbell.fock import ModeBasis
from cvbell.measurement import DELTA_MAX
from cvbell.source_amp import (
    SourceConfig,
    amplified_source,
    amplified_source_threshold_with_filters,
    default_squeezing_grid,
    default_transmission_grid,
    max_source_chsh,
)


@lru_cache(maxsize=None)
def unfolded_rows(eta_c, cutoff):
    """The circuit's Gram blocks as ``(P^2, d^2)`` rows, row ``p P + q`` the raveled transpose of ``M_pq``."""
    config = SourceConfig(squeezing=0.0, amp_transmission=1.0, coupling=eta_c, cutoff=cutoff)
    arms = ModeBasis((cutoff, cutoff))
    inputs = np.zeros((arms.dimension, cutoff + 1), dtype=complex)
    for n in range(cutoff + 1):
        inputs[arms.index_of((n, n)), n] = 1.0
    _, blocks = sa._output_gram(config, inputs, photon=np.eye(2))
    d, P = blocks.shape[:2]
    return blocks.transpose(1, 3, 2, 0).reshape(P * P, d * d)


def fold(rows, cutoff):
    """``H[s, j, k] = sum_{n + m = s} rows[(2n + j) P + 2m + k]``, as ``(4 S, d^2)`` rows."""
    terms = cutoff + 1
    R = rows.reshape(terms, 2, terms, 2, -1)
    H = np.zeros((2 * terms - 1, 2, 2, rows.shape[-1]), dtype=rows.dtype)
    for n in range(terms):
        for m in range(terms):
            H[n + m] += R[n, :, m, :]
    return H.reshape(-1, rows.shape[-1])


def input_weights(lams, ts, cutoff):
    """Image weights ``x[2n + j] = lam^n phi_j(t)``, one row per (lam, t) in row-major order."""
    powers = np.asarray(lams, dtype=float)[:, None] ** np.arange(cutoff + 1)
    ts = np.asarray(ts, dtype=float)
    photon = np.sqrt(np.array([ts, 1.0 - ts]).T)
    return (powers[:, None, :, None] * photon[None, :, None, :]).reshape(-1, 2 * (cutoff + 1))


def dense_forms(eta_c, cutoff, ops):
    """``R[g, p, q] = Re Tr(M_pq O_g)`` from the unfolded rows: ``(G, P, P)``."""
    rows = unfolded_rows(eta_c, cutoff).real
    P = 2 * (cutoff + 1)
    return (ops.reshape(len(ops), -1) @ rows.T).reshape(-1, P, P)


def dense_values(forms, trace, inputs):
    """CHSH values ``x R_g x / x T x`` of every (form g, input row x) pair: ``(G, S)``."""
    values = ((inputs @ forms) * inputs).sum(axis=-1)
    return values / ((inputs @ trace) * inputs).sum(axis=-1)


def image_state(lam, t, eta_c, cutoff):
    basis, stack, _, _ = sa._source_stack(eta_c, cutoff)
    return sa._image_state(basis, stack, lam, t)


def packed_bells(basis, alice, bob, deltas):
    """The Bell stack in the packed sector layout the source sweeps contract."""
    return _packed_kron(basis, _mode_observables(basis, alice, bob, deltas))


def unpacked(basis, packed):
    """A packed ``(G, sum n^2)`` stack as full ``(G, d, d)`` matrices, zero between sectors."""
    d = basis.dimension
    full = np.zeros((len(packed), d * d))
    full[:, _parity_sectors(basis).entries] = packed
    return full.reshape(-1, d, d)


@settings(max_examples=20, deadline=None)
@given(cutoff=st.integers(min_value=1, max_value=6), eta_c=st.sampled_from([1.0, 0.9]))
def test_folded_rows_equal_fold_of_unfolded_gram(cutoff, eta_c):
    basis, (re, im), packed, trace = sa._source_stack(eta_c, cutoff)
    rows = unfolded_rows(eta_c, cutoff)
    assert re.shape == im.shape == (4 * (2 * cutoff + 1), basis.dimension ** 2)
    for array in (re, im, packed, trace):
        assert not array.flags.writeable
    expected = fold(rows, cutoff)
    assert np.abs(re - expected.real).max() <= 1e-13
    assert np.abs(im - expected.imag).max() <= 1e-13
    # The sweeps' columns: the photon-parity sector entries of the real rows.
    assert np.array_equal(packed, re[:, _parity_sectors(basis).entries])
    identity = np.eye(basis.dimension).ravel() @ re.T
    assert np.abs(trace.ravel() - identity).max() <= 1e-13 * np.abs(re).max()


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(min_value=0.0, max_value=0.4),
    t=st.floats(min_value=3e-5, max_value=0.99),
    eta_c=st.floats(min_value=0.8, max_value=1.0),
    cutoff=st.integers(min_value=1, max_value=4),
)
def test_image_state_matches_circuit(lam, t, eta_c, cutoff):
    # The circuit drops pure branches below an absolute squared norm of
    # BRANCH_TOL; at success probabilities near 1e-4 that alone moves the
    # normalized state by a few 1e-12.  Without the cut both paths compute
    # the same linear map.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sa, "BRANCH_TOL", 0.0)
        direct = amplified_source(
            SourceConfig(squeezing=lam, amp_transmission=t, coupling=eta_c, cutoff=cutoff)
        ).state
    fast = image_state(lam, t, eta_c, cutoff)
    assert fast.basis == direct.basis
    assert np.abs(fast.matrix - direct.matrix).max() <= 1e-12


def test_grid_values_equal_chsh_of_materialized_states():
    party = PartyConditions(eta_t=0.9, eta_d=0.95)
    lam_grid, t_grid = default_squeezing_grid(4), default_transmission_grid(5)
    deltas = np.linspace(0.0, DELTA_MAX, 7)
    basis, _, packed, trace = sa._source_stack(0.9, 3)
    forms = sa._pair_forms(packed, packed_bells(basis, party, party, deltas))
    values = sa._grid_chsh(forms, trace, lam_grid, t_grid).reshape(len(deltas), -1)

    expected = np.array([
        [chsh_value(image_state(lam, t, 0.9, 3), BellScenario(party, party, delta=d))
         for lam in lam_grid for t in t_grid]
        for d in deltas
    ])
    assert np.abs(values - expected).max() <= 1e-12


def test_a_cutoff_beyond_the_gram_limit_is_rejected_before_the_circuit(monkeypatch):
    def circuit(*args, **kwargs):
        raise AssertionError("the circuit ran")

    monkeypatch.setattr(sa, "_output_gram", circuit)
    monkeypatch.setattr(sa, "_STACK_CACHE", {})
    # 40.9 GiB for the 74046 x 74046 Gram array of cutoff 40.
    with pytest.raises(ValueError, match=r"source cutoff 40 needs a 74046 x 74046 .*40\.9 GiB"
                                         r".*largest source cutoff is 14"):
        sa._source_stack(1.0, 40)
    assert sa._STACK_CACHE == {}
    assert sa._gram_side(6) == 504 and sa._gram_side(10) == 1716
    assert sa._gram_side(14) <= sa.MAX_GRAM_SIDE < sa._gram_side(15)


def test_stack_cache_stays_bounded():
    party = PartyConditions()
    grids = dict(cutoff=2, lam_grid=default_squeezing_grid(3),
                 t_grid=default_transmission_grid(3))
    etas = [0.8 + 0.02 * i for i in range(sa._STACK_CACHE_SIZE + 3)]
    for eta_c in etas:
        max_source_chsh(party, party, eta_c=eta_c, **grids)
        assert len(sa._STACK_CACHE) <= sa._STACK_CACHE_SIZE
    assert (etas[-1], 2) in sa._STACK_CACHE


@pytest.mark.parametrize("lam_grid, t_grid", [
    ((0.0, 1.0), (0.5, 0.9)),
    ((0.0, 0.2), (0.0, 0.5)),
    ((-0.1, 0.2), (0.5, 0.9)),
])
def test_grid_outside_the_source_parameters_is_rejected(lam_grid, t_grid):
    with pytest.raises(ValueError):
        max_source_chsh(PartyConditions(), PartyConditions(), cutoff=2,
                        lam_grid=lam_grid, t_grid=t_grid)


parties = st.builds(PartyConditions, eta_t=st.floats(0.5, 1.0), eta_d=st.floats(0.5, 1.0))


@settings(max_examples=40, deadline=None)
@given(
    cutoff=st.integers(min_value=1, max_value=6),
    eta_c=st.sampled_from([1.0, 0.9]),
    lam_points=st.integers(min_value=1, max_value=12),
    lam_upper=st.floats(min_value=0.01, max_value=0.95),
    t_points=st.integers(min_value=1, max_value=16),
    t_lower=st.floats(min_value=1e-6, max_value=0.9),
    alice=parties,
    bob=parties,
    filtered=st.booleans(),
    eta=st.floats(min_value=0.5, max_value=1.0),
    gain=st.floats(min_value=1.0, max_value=3.0),
)
def test_factored_grid_matches_dense_forms(cutoff, eta_c, lam_points, lam_upper, t_points,
                                          t_lower, alice, bob, filtered, eta, gain):
    # Every grid holds lam = 0 and t = 0.99, the ends of the default grids.
    lam_grid = np.linspace(0.0, lam_upper, lam_points)
    t_grid = np.geomspace(t_lower, 0.99, t_points) if t_points > 1 else (0.99,)
    basis, _, packed, trace = sa._source_stack(eta_c, cutoff)
    deltas = np.linspace(0.0, DELTA_MAX, 81)
    if filtered:  # the operators of the filtered-source threshold
        terms = _mode_observables(basis, alice, bob, deltas)
        bells, square = sa._filtered_pullback(basis, gain, 1, cutoff)(terms)(eta)
        ops = np.concatenate([bells, square[None]])
        hankels = sa._pair_forms(packed, ops)
        hankels, trace = hankels[:-1], hankels[-1]
        ops = unpacked(basis, ops)
    else:
        ops = np.concatenate([bell_matrices(basis, alice, bob, deltas),
                              np.eye(basis.dimension)[None]])
        hankels = sa._pair_forms(packed, packed_bells(basis, alice, bob, deltas))
    forms = dense_forms(eta_c, cutoff, ops)

    expected = dense_values(forms[:-1], forms[-1], input_weights(lam_grid, t_grid, cutoff))
    values = sa._grid_chsh(hankels, trace, lam_grid, t_grid)
    assert values.shape == (len(deltas), len(lam_grid), len(t_grid))
    values = values.reshape(expected.shape)
    assert np.abs(values - expected).max() <= 1e-13

    top, second = np.sort(expected, axis=None)[[-1, -2]]
    if top - second > 1e-12:
        assert np.argmax(values) == np.argmax(expected)


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(min_value=0.0, max_value=0.95),
    t=st.floats(min_value=1e-6, max_value=1.0),
    delta=st.floats(min_value=0.0, max_value=DELTA_MAX),
    cutoff=st.integers(min_value=1, max_value=6),
    eta_c=st.sampled_from([1.0, 0.9]),
    alice=parties,
    bob=parties,
)
def test_golden_section_objectives_match_grid(lam, t, delta, cutoff, eta_c, alice, bob):
    basis, _, packed, trace = sa._source_stack(eta_c, cutoff)
    form = sa._pair_forms(packed, packed_bells(basis, alice, bob, [delta]))
    expected = sa._grid_chsh(form, trace, [lam], [t])[0, 0, 0]
    assert abs(sa._point_chsh(np.stack([form[0], trace]))(lam, t) - expected) <= 1e-13


SMALL = dict(cutoff=2, lam_grid=default_squeezing_grid(4), t_grid=default_transmission_grid(5))


def filtered_threshold(**grids):
    return amplified_source_threshold_with_filters(2.0, 1, **{**SMALL, **grids})


def source_optimum(**grids):
    party = PartyConditions(eta_t=0.9)
    return max_source_chsh(party, party, **{**SMALL, **grids})


@pytest.mark.parametrize("solve", [source_optimum, filtered_threshold])
def test_grid_array_equals_tuple(solve):
    arrays = {name: np.array(grid) for name, grid in SMALL.items() if name != "cutoff"}
    assert solve(**arrays) == solve()


@pytest.mark.parametrize("solve", [source_optimum, filtered_threshold])
@pytest.mark.parametrize("name", ["lam_grid", "t_grid"])
@pytest.mark.parametrize("grid", [(), (0.1,), [[0.1, 0.2]]])
def test_grid_of_fewer_than_two_points_is_rejected(solve, name, grid):
    with pytest.raises(ValueError, match=name):
        solve(**{name: grid})
