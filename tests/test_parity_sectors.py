"""The per-sector eigensolve of the Bell operator against the full matrix.

``bell._top_eigenvalue`` and ``bell.optimal_state`` solve the Bell stack in
its four photon-parity sectors (``bell._parity_sectors``), and the source
sweeps contract only the sector entries of their operators
(``source_amp._pair_forms``).  The references take ``np.linalg.eigvalsh`` /
``eigh`` of the dense ``bell_matrices`` stack, and the dense trace forms,
which needs every operator's entries between sectors to be exactly zero.
"""

import numpy as np
import pytest

import cvbell.bell as bell
import cvbell.source_amp as sa
from cvbell.bell import (
    BellScenario,
    PartyConditions,
    _mode_slopes,
    _mode_observables,
    _packed_kron,
    _parity_sectors,
    _projected_kron,
    _sector_blocks,
    _top_eigenvalue,
    _top_pairs,
    bell_matrices,
    critical_efficiency,
    optimal_state,
    optimize_delta,
)
from cvbell.fock import ModeBasis, embed_single_mode, loss_kraus
from cvbell.local_amp import filter_diagonal
from cvbell.measurement import DELTA_MAX

CAPS = [2, 3, 4, 6, 8]

SETUPS = {
    "symmetric": BellScenario.symmetric(eta_t=0.9, eta_d=0.95),
    "asymmetric": BellScenario.asymmetric(eta_t=0.7),
    "lossy-homodyne": BellScenario.symmetric(eta_t=0.85, eta_d=0.9, eta_h=0.8),
    "low-eta-d": BellScenario.asymmetric(eta_t=0.9, eta_d=0.3, eta_h=0.9),
}

DELTAS = np.linspace(0.0, DELTA_MAX, 97)

#: Agreement with the full solve, relative to the spectral norm of B.
RTOL = 1e-12

#: The Hellmann-Feynman slope is compared only where the top eigenvalue is
#: this far (relative to the norm) from the next: at a degeneracy the slope
#: depends on which vector of the eigenspace the solver returns.
SIMPLE_GAP = 1e-6


def full_reference(basis, alice, bob, deltas):
    """Top eigenvalue, its gap, norm and Hellmann-Feynman slope of the full stack."""
    w, v = np.linalg.eigh(bell_matrices(basis, alice, bob, deltas))
    dB = _projected_kron(basis, _mode_slopes(basis, alice, bob, deltas)[1])
    top = v[:, :, -1:]
    slope = (top.swapaxes(-1, -2) @ dB @ top)[:, 0, 0]
    norm = np.abs(w).max(axis=1)
    return w[:, -1], w[:, -1] - w[:, -2], norm, slope, v[:, :, -1]


def same_up_to_phase(psi, reference, tol):
    phase = np.vdot(psi, reference)
    return np.abs(psi * phase / abs(phase) - reference).max() <= tol


@pytest.mark.parametrize("setup", SETUPS)
@pytest.mark.parametrize("cap", CAPS)
def test_top_eigenvalue_and_slope_match_the_full_solve(cap, setup):
    scenario = SETUPS[setup]
    basis = ModeBasis((cap, cap), total_cap=cap)
    top, top_and_slope = _top_eigenvalue(basis, scenario.alice, scenario.bob)
    w, gap, norm, slope, _ = full_reference(basis, scenario.alice, scenario.bob, DELTAS)
    assert np.all(np.abs(top(DELTAS) - w) <= RTOL * norm)
    values, slopes = top_and_slope(DELTAS)
    assert np.all(np.abs(values - w) <= RTOL * norm)
    simple = gap > SIMPLE_GAP * norm
    assert simple.any()
    assert np.all(np.abs(slopes - slope)[simple] <= RTOL * norm[simple])


@pytest.mark.parametrize("setup", SETUPS)
@pytest.mark.parametrize("cap", CAPS)
def test_optimal_state_matches_the_full_solve(cap, setup):
    scenario = SETUPS[setup]
    basis = ModeBasis((cap, cap), total_cap=cap)
    deltas = DELTAS[::12]
    w, gap, norm, _, vectors = full_reference(basis, scenario.alice, scenario.bob, deltas)
    for delta, top, g, n, vector in zip(deltas, w, gap, norm, vectors):
        state, value = optimal_state(BellScenario(scenario.alice, scenario.bob, delta),
                                     cutoff=cap, total_cap=cap)
        assert state.basis == basis
        assert abs(value - top) <= RTOL * n
        assert abs(state.norm() - 1.0) <= 1e-14
        if g > SIMPLE_GAP * n:
            assert same_up_to_phase(state.amplitudes, vector, 1e-10)


def embedded_adjoint_loss(basis, ops, eta):
    """``L^dag(O)`` for a two-mode loss ``eta``, through the embedded Kraus operators."""
    for mode in (0, 1):
        kraus = [embed_single_mode(basis, A, mode).real
                 for A in loss_kraus(eta, basis.cutoffs[mode])]
        ops = sum(E.T @ ops @ E for E in kraus)
    return ops


def assert_source_forms_match(cutoff, ops, packed_ops):
    """Packed ``_pair_forms`` equals the dense ``Re Tr(H O)`` at a source cutoff."""
    _, (re, _), packed, _ = sa._source_stack(1.0, cutoff)
    dense = ops.reshape(len(ops), -1) @ re.T
    found = sa._pair_forms(packed, packed_ops).reshape(dense.shape)
    scale = np.abs(re).max() * max(1.0, np.abs(ops).max())
    assert np.abs(found - dense).max() <= 1e-13 * scale


# Caps 4 and 7 are the source's output bases at cutoffs 3 and 6.
@pytest.mark.parametrize("cap", [2, 3, 4, 5, 6, 7])
def test_bell_matrices_vanish_between_sectors(cap):
    rng = np.random.default_rng(cap)
    basis = ModeBasis((cap, cap), total_cap=cap)
    parity = basis.occupations % 2
    between = (parity[:, None, :] != parity[None, :, :]).any(axis=-1)
    positions = _parity_sectors(basis).positions
    deltas = rng.uniform(0.0, DELTA_MAX, 40)
    for _ in range(30):
        alice, bob = (PartyConditions(*rng.uniform(0.0, 1.0, 3)) for _ in range(2))
        full = bell_matrices(basis, alice, bob, deltas)
        assert np.all(full[:, between] == 0.0)
        slopes = _projected_kron(basis, _mode_slopes(basis, alice, bob, deltas)[1])
        assert np.all(slopes[:, between] == 0.0)
        # Each gathered block is bitwise the full matrix's block.
        terms = _mode_observables(basis, alice, bob, deltas)
        blocks = [run[:, i] for run in _sector_blocks(basis, terms)
                  for i in range(run.shape[1])]
        for p, block in zip(positions, blocks, strict=True):
            assert np.array_equal(block, full[:, p[:, None], p])
    if cap not in (4, 7):
        return
    # The source sweeps' operators: the Bell stack, and L^dag(F B F) and
    # L^dag(F^2) of the filtered-source threshold.
    cutoff = cap - 1
    assert_source_forms_match(cutoff, full, _packed_kron(basis, terms))
    for gain in (1.0, 2.0, 3.0):
        for applications in (1, 2, 3):
            F = filter_diagonal(basis, gain, applications)
            pullback = sa._filtered_pullback(basis, alice, bob, deltas, gain, applications,
                                             cutoff)
            for eta in (0.3, 0.62, 1.0):
                ops = embedded_adjoint_loss(
                    basis, np.concatenate([F[:, None] * full * F, np.diag(F * F)[None]]), eta
                )
                assert np.all(ops[:, between] == 0.0)
                bells, square = pullback(eta)
                # One common power of two: the pullback's filter scale.
                k = np.argmax(np.abs(ops[-1]))
                scale = 2.0 ** np.round(np.log2(
                    square[_parity_sectors(basis).entries == k][0] / ops[-1].flat[k]))
                assert_source_forms_match(cutoff, scale * ops,
                                          np.concatenate([bells, square[None]]))


def test_sectors_partition_the_basis_in_order():
    for cap in CAPS:
        basis = ModeBasis((cap, cap), total_cap=cap)
        sectors = _parity_sectors(basis)
        positions = np.concatenate(sectors.positions)
        assert sorted(positions) == list(range(basis.dimension))
        assert all(np.all(np.diff(p) > 0) for p in sectors.positions)
        assert sum(k for k, _ in sectors.runs) == len(sectors.positions)
    paper = _parity_sectors(ModeBasis((2, 2), total_cap=2))
    assert [p.size for p in paper.positions] == [3, 1, 1, 1]
    assert paper.runs == ((1, 3), (3, 1))
    # A larger per-mode cutoff under the same cap gives the same sectors.
    wide = _parity_sectors(ModeBasis((6, 6), total_cap=2))
    for got, expected in zip((*wide.gathers, wide.entries), (*paper.gathers, paper.entries)):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("cap, scenario, delta, size", [
    # At the paper's cap the 1 x 1 sector of |10> wins: read, not solved.
    (2, BellScenario.asymmetric(eta_t=0.3), 0.5, 1),
    # At cap 3 the (odd, even) sector {|10>, |12>, |30>} wins.
    (3, BellScenario.asymmetric(eta_t=0.5, eta_d=0.5), 1.0, 3),
])
def test_a_top_outside_the_even_sector(cap, scenario, delta, size):
    basis = ModeBasis((cap, cap), total_cap=cap)
    terms = _mode_observables(basis, scenario.alice, scenario.bob, [delta])
    tops = np.concatenate([_top_pairs(block[0])[0] for block in _sector_blocks(basis, terms)])
    labels = [tuple(basis.occupations[p[0]] % 2) for p in _parity_sectors(basis).positions]
    tops = dict(zip(labels, tops))
    assert max(tops, key=tops.get) == (1, 0)
    assert tops[(1, 0)] - tops[(0, 0)] > 0.05
    w, gap, norm, slope, vector = full_reference(basis, scenario.alice, scenario.bob, [delta])
    assert gap[0] > 0.05
    top, top_and_slope = _top_eigenvalue(basis, scenario.alice, scenario.bob)
    assert abs(top([delta])[0] - w[0]) <= RTOL * norm[0]
    (value,), (derivative,) = top_and_slope(np.array([delta]))
    assert abs(value - w[0]) <= RTOL * norm[0]
    assert abs(derivative - slope[0]) <= RTOL * norm[0]
    state, value = optimal_state(BellScenario(scenario.alice, scenario.bob, delta),
                                 cutoff=cap, total_cap=cap)
    support = {tuple(occ) for occ in basis.occupations[np.abs(state.amplitudes) > 0]}
    assert len(support) == size and all(a % 2 == 1 and b % 2 == 0 for a, b in support)
    assert same_up_to_phase(state.amplitudes, vector[0], 1e-10)


def corrupt(monkeypatch, name, index, edit):
    """Make ``bell.<name>`` return element ``index`` of its result edited."""
    original = getattr(bell, name)

    def corrupted(*args):
        out = [np.array(part) for part in original(*args)]
        edit(out[index])
        return tuple(out)

    monkeypatch.setattr(bell, name, corrupted)


def set_nan(entry):
    def edit(matrix):
        matrix[(..., *entry)] = np.nan
    return edit


def skew(matrix):
    matrix[..., 0, 2] += 0.1


@pytest.mark.parametrize("name, index, edit, message", [
    # Entries of the 3 x 3 (even, even) block: the Hermiticity check.
    ("binned_homodyne_povms", 2, set_nan((0, 0)), "not Hermitian or not finite"),
    ("binned_homodyne_slopes", 0, set_nan((0, 0)), "not Hermitian or not finite"),
    ("binned_homodyne_povms", 2, skew, "not Hermitian or not finite"),
    ("binned_homodyne_slopes", 0, skew, "not Hermitian or not finite"),
    # |1><1| of N only reaches the 1 x 1 sectors: the bisection's own check.
    ("photodetection_povm", 2, set_nan((1, 1)), "max CHSH is not finite"),
])
def test_bad_per_mode_input_is_rejected(monkeypatch, name, index, edit, message):
    corrupt(monkeypatch, name, index, edit)
    with pytest.raises(ValueError, match=message):
        if name == "binned_homodyne_slopes":
            # Only the slope refine reads the slopes.  Every step of the cap-2
            # threshold solve violates on the grid or peaks at delta = 0, where
            # nothing is refined; the lossless search peaks inside the grid.
            optimize_delta(PartyConditions(), PartyConditions())
        else:
            critical_efficiency("eta_t")


def test_a_non_finite_one_by_one_sector_fails_the_state_solve(monkeypatch):
    corrupt(monkeypatch, "photodetection_povm", 2, set_nan((1, 1)))
    assert np.isnan(optimize_delta(PartyConditions(), PartyConditions())[1])
    with pytest.raises(ValueError, match="not finite"):
        optimal_state(BellScenario.symmetric(delta=0.5))


@pytest.mark.parametrize("cap, target, threshold", [
    (4, "eta_d", 0.447601318359375),
    (4, "eta_t", 0.797698974609375),
    (6, "eta_d", 0.342315673828125),
    (6, "eta_t", 0.762481689453125),
])
def test_large_cap_thresholds_are_pinned(cap, target, threshold):
    assert critical_efficiency(target, cutoff=cap, total_cap=cap) == threshold
