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

import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvbell.local_amp as la
import cvbell.source_amp as sa
from cvbell.bell import (
    BellScenario,
    PartyConditions,
    _parity_sectors,
    _mode_observables,
    _packed_kron,
    _swept_observables,
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
    basis, packed, trace = sa._source_stack(eta_c, cutoff)
    form = sa._pair_forms(packed, packed_bells(basis, alice, bob, [delta]))
    expected = sa._grid_chsh(form, trace, [lam], [t])[0, 0, 0]
    along_lam, along_log_t = sa._section_objectives(np.stack([form[0], trace]))
    assert abs(along_lam(t)(lam) - expected) <= 1e-13
    assert abs(along_log_t(lam)(np.log(t)) - along_lam(t)(lam)) <= 1e-13


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
