"""The image path of the source sweeps against the direct circuit.

With the single-photon ancilla the sweeps never run the circuit per
(lam, t): they evaluate quadratic forms in the circuit's images of its basis
inputs, folded once into Hankel sums over the squeezing powers
(``source_amp._source_stack``).  The grid scans evaluate those sums as
polynomials in lam contracted with the photon pair in t
(``source_amp._grid_chsh``).  The reference is the dense form
``x R x / x T x`` over every image-weight row, with ``R`` built here from
the unfolded Gram array of the whole circuit output
(``source_amp._output_gram``) and the dense operators.  The sweeps read
only the photon-parity sector entries of each operator
(``source_amp._pair_forms``), and the stack builds only those entries of
the sums; ``tests/test_parity_sectors.py`` checks that the entries between
sectors are zero.
"""

import csv
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvbell.local_amp as la
import cvbell.source_amp as sa
from cvbell.bell import (
    ASYMMETRIC,
    SYMMETRIC,
    BellScenario,
    PartyConditions,
    _parity_sectors,
    _mode_observables,
    _packed_kron,
    _scenario_for,
    _search_grid,
    _swept_observables,
    _threshold,
    _top_eigenvalue,
    bell_matrices,
    chsh_value,
    critical_efficiency,
)
from cvbell.fock import ModeBasis, shared_basis
from cvbell.measurement import DELTA_MAX, delta_grid
from cvbell.source_amp import (
    SourceConfig,
    amplified_source,
    amplified_source_threshold_with_filters,
    default_squeezing_grid,
    default_transmission_grid,
    max_source_chsh,
)
from perfbench.workloads import REFERENCES


@lru_cache(maxsize=None)
def unfolded_rows(eta_c, cutoff):
    """The circuit's Gram blocks as ``(P^2, d^2)`` rows, row ``p P + q`` the raveled transpose of ``M_pq``."""
    config = SourceConfig(squeezing=0.0, amp_transmission=1.0, coupling=eta_c, cutoff=cutoff)
    arms = ModeBasis((cutoff, cutoff))
    inputs = np.zeros((arms.dimension, cutoff + 1), dtype=complex)
    for n in range(cutoff + 1):
        inputs[arms.index_of((n, n)), n] = 1.0
    _, blocks = sa._output_gram(config, inputs, ancilla=sa._PHOTON_INPUTS)
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
    basis, packed, _ = sa._source_stack(eta_c, cutoff)
    return sa._image_state(basis, packed, lam, t)


def packed_bells(basis, alice, bob, deltas):
    """The Bell stack in the packed sector layout the source sweeps contract."""
    return _packed_kron(basis, _mode_observables(basis, alice, bob, deltas))


def unpacked(basis, packed):
    """A packed ``(G, sum n^2)`` stack as full ``(G, d, d)`` matrices, zero between sectors."""
    d = basis.dimension
    full = np.zeros((len(packed), d * d))
    full[:, _parity_sectors(basis).entries] = packed
    return full.reshape(-1, d, d)


def test_folded_rows_equal_fold_of_unfolded_gram():
    """The packed rows are the sector entries of the dense fold of the whole output."""
    for cutoff in range(1, 7):
        for eta_c in (1.0, 0.9):
            basis, packed, trace = sa._source_stack(eta_c, cutoff)
            entries = _parity_sectors(basis).entries
            assert packed.shape == (4 * (2 * cutoff + 1), len(entries))
            assert packed.dtype == trace.dtype == np.float64
            for array in (packed, trace):
                assert not array.flags.writeable
            # The sector entries of the whole output's fold are real (the
            # plate's i^(n - n') is +-1 there), and they are all the stack keeps.
            expected = fold(unfolded_rows(eta_c, cutoff), cutoff)[:, entries]
            scale = np.abs(expected).max()
            assert np.all(expected.imag == 0.0)
            assert np.abs(packed - expected.real).max() <= 1e-13 * scale
            identity = np.eye(basis.dimension).ravel()[entries] @ expected.real.T
            assert np.abs(trace.ravel() - identity).max() <= 1e-13 * scale


def sector_part(basis, matrix):
    """The photon-parity sector entries of a matrix, zero between sectors."""
    part = np.zeros(basis.dimension ** 2, dtype=matrix.dtype)
    entries = _parity_sectors(basis).entries
    part[entries] = matrix.ravel()[entries]
    return part.reshape(matrix.shape)


def direct_state(lam, t, eta_c, cutoff):
    # The circuit drops pure branches below an absolute squared norm of
    # BRANCH_TOL; at success probabilities near 1e-4 that alone moves the
    # normalized state by a few 1e-12.  Without the cut both paths compute
    # the same linear map.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sa, "BRANCH_TOL", 0.0)
        return amplified_source(
            SourceConfig(squeezing=lam, amp_transmission=t, coupling=eta_c, cutoff=cutoff)
        ).state


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(min_value=0.0, max_value=0.4),
    t=st.floats(min_value=3e-5, max_value=0.99),
    eta_c=st.floats(min_value=0.8, max_value=1.0),
    cutoff=st.integers(min_value=1, max_value=4),
)
def test_image_state_matches_circuit(lam, t, eta_c, cutoff):
    """The image state is the photon-parity sector part of the circuit output."""
    direct = direct_state(lam, t, eta_c, cutoff)
    fast = image_state(lam, t, eta_c, cutoff)
    assert fast.basis == direct.basis
    assert np.array_equal(sector_part(fast.basis, fast.matrix), fast.matrix)
    assert np.abs(fast.matrix - sector_part(direct.basis, direct.matrix)).max() <= 1e-12


parties = st.builds(PartyConditions, eta_t=st.floats(0.5, 1.0), eta_d=st.floats(0.5, 1.0))


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(min_value=0.0, max_value=0.4),
    t=st.floats(min_value=3e-5, max_value=0.99),
    delta=st.floats(min_value=0.0, max_value=DELTA_MAX),
    eta_c=st.sampled_from([1.0, 0.9]),
    cutoff=st.integers(min_value=1, max_value=6),
    alice=parties,
    bob=parties,
)
def test_sector_part_gives_the_chsh_of_the_whole_output(lam, t, delta, eta_c, cutoff,
                                                       alice, bob):
    scenario = BellScenario(alice, bob, delta=delta)
    whole = chsh_value(direct_state(lam, t, eta_c, cutoff), scenario)
    assert abs(chsh_value(image_state(lam, t, eta_c, cutoff), scenario) - whole) <= 1e-12


def test_grid_values_equal_chsh_of_materialized_states():
    party = PartyConditions(eta_t=0.9, eta_d=0.95)
    lam_grid, t_grid = default_squeezing_grid(4), default_transmission_grid(5)
    deltas = np.linspace(0.0, DELTA_MAX, 7)
    basis, packed, trace = sa._source_stack(0.9, 3)
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

    monkeypatch.setattr(sa, "_heralded_gram", circuit)
    monkeypatch.setattr(sa, "_STACK_CACHE", {})
    # 10.2 GiB for the parity-sector Gram arrays of the 74046 pairs of cutoff 40.
    with pytest.raises(ValueError, match=r"source cutoff 40 has 74046 .* pairs.*10\.2 GiB"
                                         r".*largest source cutoff is 14"):
        sa._source_stack(1.0, 40)
    # Below a GiB the size is given in MiB: 46.2 MiB at cutoff 15, the first refused.
    with pytest.raises(ValueError, match=r"source cutoff 15 has 4896 .* pairs.* 46\.2 MiB;"):
        sa._source_stack(1.0, 15)
    assert sa._STACK_CACHE == {}
    assert sa._gram_side(6) == 504 and sa._gram_side(10) == 1716
    assert sa._gram_side(14) <= sa.MAX_GRAM_SIDE < sa._gram_side(15)


@pytest.mark.parametrize("cutoff", [1, 2, 6, 14, 40])
def test_gram_bytes_count_the_sector_grams_of_the_output_basis(cutoff):
    basis = ModeBasis((cutoff + 1,) * 2, cutoff + 1)
    side = 2 * (cutoff + 1)
    sizes = [p.size for p in _parity_sectors(basis).positions]
    assert sa._gram_bytes(cutoff) == sum((n * side) ** 2 for n in sizes) * 8
    assert sum(sizes) * side == sa._gram_side(cutoff)


def gram_bytes_by_rows(cutoff: int) -> int:
    """The sector Gram bytes counted row by row: for each a, the b of each parity."""
    cap, sizes = cutoff + 1, [0] * 4
    for a in range(cap + 1):
        for pb in (0, 1):
            sizes[a % 2 * 2 + pb] += (cap - a - pb) // 2 + 1 if cap - a >= pb else 0
    return sum((n * 2 * cap) ** 2 for n in sizes) * 8


def test_gram_bytes_stay_exact_far_beyond_the_limit():
    """The closed form holds in Python integers where int64 overflowed (from cutoff 1823).

    At 300 and 3000 it is checked row by row (the sectors' packed entries at
    300 would take gigabytes).  Within a parity of the cutoff the bytes are
    a polynomial of degree 6 in it, so seven row-by-row counts of even
    cutoffs fix it at 10^100, by exact Lagrange interpolation.
    """
    for cutoff in (300, 3000):
        assert sa._gram_bytes(cutoff) == gram_bytes_by_rows(cutoff)
    assert sa._gram_bytes(3000) // 2**30 == 1_363_308_998_525
    far, nodes = 10**100, range(2, 16, 2)
    value = sum(Fraction(gram_bytes_by_rows(x)) * math.prod(Fraction(far - y, x - y)
                                                          for y in nodes if y != x)
                for x in nodes)
    assert sa._gram_bytes(far) == value


def test_fresh_stack_stays_small(monkeypatch):
    """The build allocates no Gram array over the whole output.

    That array and its complex plated copy held 1.9 and 3.9 MiB at cutoff 6,
    and the build peaked at 6.2 MiB; the sector path peaks near 1.8 MiB
    (2.2 MiB while both arms' coupling loss came before the heralds).
    """
    sa._source_stack(0.9, 6)  # fill the splitter, loss and sector caches outside
    monkeypatch.setattr(sa, "_STACK_CACHE", {})
    tracemalloc.start()
    try:
        sa._source_stack(0.9, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * 2**20


def test_the_stack_build_peaks_near_its_sector_grams(monkeypatch):
    """A fresh ``_source_stack(0.9, 12)`` peaks below 1.25 times its sector Gram arrays.

    Measured 17.31 MiB against ``_gram_bytes(12)`` = 14.40 MiB (ratio 1.20),
    with the splitter, loss and Kraus caches warm.  The herald contraction's
    products are freed before the output stage; held through it, they lift
    the peak to 19.05 MiB.
    """
    monkeypatch.setattr(sa, "_STACK_CACHE", {})
    sa._source_stack(0.9, 12)  # fill the splitter, loss and Kraus caches
    sa._STACK_CACHE.clear()
    tracemalloc.start()
    try:
        sa._source_stack(0.9, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * sa._gram_bytes(12)


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
    basis, packed, trace = sa._source_stack(eta_c, cutoff)
    deltas = np.linspace(0.0, DELTA_MAX, 81)
    if filtered:  # the operators of the filtered-source threshold
        f = la._mode_filter(basis, gain, 1, cutoff)
        swept = ((True, True),) * 2
        factors = _swept_observables(basis, alice, bob, swept, deltas, f)
        ops = sa._filtered_at(basis, factors, la._swept_squares(basis, f, swept), eta)
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


# The high-gain limit: t -> 0 along lam^2 = r t.  There the image weights
# lam^s phi_j(t) phi_k(t) are t (1, sqrt(r), sqrt(r), r) on the sums H[0,0,0],
# H[1,0,1], H[1,1,0] and H[2,1,1], up to a relative O(t); the sums H[0,1,1] and
# H[1,1,1] vanish, and every other weight is of higher order in t.  So the
# output tends to rho_inf(r) ~ H[0,0,0] + sqrt(r) (H[1,0,1] + H[1,1,0]) + r H[2,1,1],
# and each CHSH value to a 2 x 2 pencil in u = (1, sqrt(r)).

LIMIT_ETAS = [1.0, 0.9, 0.5]
LIMIT_PARTIES = [(1.0, 1.0), (0.9, 0.95), (0.81, 1.0), (1.0, 0.65), (0.7, 0.9)]


def limit_forms(sums):
    """The 2 x 2 forms in ``u = (1, sqrt(r))`` of sums ``F[..., s, j, k]``: ``(..., 2, 2)``."""
    cross = 0.5 * (sums[..., 1, 0, 1] + sums[..., 1, 1, 0])
    return np.stack([np.stack([sums[..., 0, 0, 0], cross], axis=-1),
                     np.stack([cross, sums[..., 2, 1, 1]], axis=-1)], axis=-2)


def limit_tops(eta_c, cutoff, alice, bob, deltas):
    """The pencil's top CHSH value on ``deltas`` and its top vectors ``u``, ``(G, 2)``.

    The trace form is diag(1, eta_c) (:func:`test_limit_rows`), so the
    pencil's top is the ordinary top of ``S A S`` with ``S = T^(-1/2)``.
    """
    basis, packed, trace = sa._source_stack(eta_c, cutoff)
    forms = limit_forms(sa._pair_forms(packed, packed_bells(basis, alice, bob, deltas)))
    scale = 1.0 / np.sqrt(np.diag(limit_forms(trace)))
    values, vectors = np.linalg.eigh(scale[:, None] * forms * scale)
    return values[:, -1], scale * vectors[:, :, -1]


@pytest.mark.parametrize("cutoff", [2, 4, 6])
@pytest.mark.parametrize("eta_c", LIMIT_ETAS)
def test_limit_rows(eta_c, cutoff):
    _, packed, trace = sa._source_stack(eta_c, cutoff)
    sums = packed.reshape(-1, 2, 2, packed.shape[-1])
    assert not sums[0, 1, 1].any() and not sums[1, 1, 1].any()
    T = limit_forms(trace)
    assert T[0, 1] == 0.0
    assert T[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert T[1, 1] == pytest.approx(eta_c, abs=1e-15)


@pytest.mark.parametrize("eta_c", LIMIT_ETAS)
@pytest.mark.parametrize("eta_t, eta_d", LIMIT_PARTIES)
def test_limit_top_does_not_depend_on_the_cutoff(eta_c, eta_t, eta_d):
    party = PartyConditions(eta_t=eta_t, eta_d=eta_d)
    deltas = delta_grid(241)
    found = limit_tops(eta_c, 2, party, party, deltas)[0]
    assert np.abs(found - limit_tops(eta_c, 6, party, party, deltas)[0]).max() <= 1e-13


@pytest.mark.parametrize("eta_t, eta_d", LIMIT_PARTIES)
def test_unit_coupling_limit_prepares_the_best_cap_two_state(eta_t, eta_d):
    # Measured: at most 8.9e-16 apart on the grid.
    party = PartyConditions(eta_t=eta_t, eta_d=eta_d)
    deltas = delta_grid(241)
    best = _top_eigenvalue(shared_basis((2, 2), 2), party, party)[0](deltas)
    assert np.abs(limit_tops(1.0, 2, party, party, deltas)[0] - best).max() <= 1e-13


@pytest.mark.parametrize("t", [1e-4, 1e-5, 1e-6])
@pytest.mark.parametrize("eta_c, eta_t, eta_d", [(0.9, 0.88886, 0.9), (1.0, 0.9, 0.95),
                                                  (0.9, 0.9, 1.0)])
def test_circuit_approaches_the_limit_from_below(eta_c, eta_t, eta_d, t):
    # At the grid's best delta, CHSH_inf - CHSH(t) is 10.8 t, 17.4 t and 22.0 t.
    party = PartyConditions(eta_t=eta_t, eta_d=eta_d)
    deltas = delta_grid(241)
    tops, vectors = limit_tops(eta_c, 2, party, party, deltas)
    best = int(np.argmax(tops))
    root_r = vectors[best, 1] / vectors[best, 0]
    assert root_r > 0.0  # the best vector needs no squeezing phase
    lam = math.sqrt(root_r ** 2 * t)
    out = amplified_source(SourceConfig(squeezing=lam, amp_transmission=t, coupling=eta_c))
    value = chsh_value(out.state, BellScenario(party, party, float(deltas[best])))
    assert 0.0 < tops[best] - value <= 30.0 * t


@pytest.mark.parametrize("t", [1e-3, 1e-4, 1e-5])
@pytest.mark.parametrize("r", [5.0, 30.0])
@pytest.mark.parametrize("eta_c", LIMIT_ETAS)
def test_limit_heralds_with_probability_one_plus_eta_c_r_times_t(eta_c, r, t):
    # Measured: a relative gap of at most 15.7 t.
    out = amplified_source(SourceConfig(squeezing=math.sqrt(r * t), amp_transmission=t,
                                        coupling=eta_c))
    assert out.success_probability == pytest.approx((1.0 + eta_c * r) * t, rel=20.0 * t)


def limit_threshold(eta_c, eta_d, grid_points, tol, symmetry=SYMMETRIC):
    """The eta_t threshold of the limit pencil, through ``bell._threshold``.

    ``symmetry`` puts the transmission loss on the modes as the source
    thresholds do (:func:`cvbell.bell._sweep`).
    """
    grid = delta_grid(grid_points)

    def no_refine():
        raise AssertionError("a limit threshold step refined delta")

    def search(eta_t, stop_above):
        scenario = _scenario_for(symmetry, eta_t, eta_d, 1.0)
        tops = limit_tops(eta_c, 2, scenario.alice, scenario.bob, grid)[0]
        return _search_grid(grid, tops, no_refine, stop_above=stop_above)

    return _threshold(search, tol)


@pytest.mark.parametrize("eta_d, expected", [
    (1.0, 0.804901123046875), (0.95, 0.824371337890625), (0.9, 0.846038818359375),
    (0.85, 0.870147705078125)])
def test_unit_coupling_limit_threshold_is_the_best_cap_two_states(eta_d, expected):
    # Every step violates on the grid or peaks at delta = 0, so none refines,
    # and the bisection walks the optimal-state solve's path bit for bit.
    found = limit_threshold(1.0, eta_d, 241, 1e-4)
    assert found == critical_efficiency("eta_t", eta_d=eta_d) == expected


@pytest.mark.parametrize("eta_c, expected", [
    (0.9, REFERENCES["source-lossy"]["source-threshold"][0]),  # 0.84521484375
    (1.0, 0.80517578125),  # row 10a, 0.8052
])
def test_limit_threshold_at_the_source_workload_settings(eta_c, expected):
    # 61 delta points and tol 1e-3, the (lam, t) grid solve's settings.
    assert limit_threshold(eta_c, 1.0, 61, 1e-3) == expected


@pytest.mark.parametrize("symmetry, eta_d, limit, cells", [
    (SYMMETRIC, 0.9, 0.888580322265625, 3), (SYMMETRIC, 1.0, 0.844818115234375, 6),
    (ASYMMETRIC, 0.9, 0.804901123046875, 5), (ASYMMETRIC, 1.0, 0.746185302734375, 6)])
def test_source_amp_fixtures_lie_above_the_limit(symmetry, eta_d, limit, cells):
    # The finite-t bias of the (lam, t) grid solve, in bisection cells of
    # 2^-14 (tol 1e-4, 61 delta points, the fixtures' settings): routing the
    # source thresholds through the limit re-pins these CSVs.
    name = {SYMMETRIC: "source-amp-eta-c", ASYMMETRIC: "source-amp-asym"}[symmetry]
    with open(Path(__file__).parent / "data" / "cli" / f"{name}.csv", newline="") as handle:
        [row] = [row for row in csv.DictReader(handle) if float(row["eta_d"]) == eta_d]
    assert (row["symmetry"], float(row["eta_c"])) == (symmetry, 0.9)
    assert limit_threshold(0.9, eta_d, 61, 1e-4, symmetry) == limit
    assert float(row["eta_t_star"]) == limit + cells * 2.0**-14


@pytest.mark.parametrize("eta_c, eta_d, grid_threshold, cells", [
    (0.895, 1.0, 0.84716796875, 0), (0.9, 1.0, 0.84521484375, 0),
    (0.905, 1.0, 0.84326171875, 0), (0.895, 0.985, 0.85400390625, 1),
    (0.9, 0.985, 0.85205078125, 1), (0.905, 0.985, 0.85009765625, 1),
    (0.895, 0.97, 0.85986328125, 1), (0.9, 0.97, 0.85791015625, 1),
    (0.905, 0.97, 0.85595703125, 1)])
def test_source_workload_threshold_against_the_limit(eta_c, eta_d, grid_threshold, cells):
    # The source-lossy op's settings (20 x 30 grid, 61 delta points, tol
    # 1e-3) over its drawn ranges: the grid solve equals the limit at unit
    # detection and sits one 2^-10 cell above it at eta_d < 1.
    found = sa.source_critical_transmission(eta_d=eta_d, eta_c=eta_c,
                                            lam_grid=default_squeezing_grid(20),
                                            t_grid=default_transmission_grid(30))
    assert found == grid_threshold
    assert limit_threshold(eta_c, eta_d, 61, 1e-3) == grid_threshold - cells * 2.0**-10
