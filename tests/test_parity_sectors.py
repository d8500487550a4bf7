"""The per-sector eigensolve of the Bell operator against the full matrix.

``bell._top_eigenvalue`` and ``bell.optimal_state`` solve the Bell stack in
its four photon-parity sectors (``bell._parity_sectors``), split into
swap-even and swap-odd halves when the parties are symmetric
(``bell._swap_layout``), and the source sweeps contract only the sector
entries of their operators (``source_amp._pair_forms``).  The references
take ``np.linalg.eigvalsh`` / ``eigh`` of the dense ``bell_matrices`` stack,
and the dense trace forms, which needs every operator's entries between
sectors to be exactly zero.
"""

import numpy as np
import pytest

import cvbell.bell as bell
import cvbell.local_amp as la
import cvbell.source_amp as sa
from cvbell.bell import (
    BellScenario,
    PartyConditions,
    _mode_slopes,
    _mode_observables,
    _packed_kron,
    _parity_sectors,
    _projected_kron,
    _layout,
    _sector_blocks,
    _sector_layout,
    _swap_layout,
    _swept_observables,
    _top_eigenvalue,
    _top_pairs,
    _top_values,
    bell_matrices,
    critical_efficiency,
    optimal_state,
    optimize_delta,
)
from cvbell.fock import ModeBasis, embed_single_mode, loss_kraus, shared_basis
from cvbell.local_amp import filter_diagonal, psi2_state
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


def whole_output_rows(cutoff):
    """The real Hankel rows of the circuit's whole output, every entry (``_output_gram``)."""
    config = sa.SourceConfig(squeezing=0.0, amp_transmission=1.0, cutoff=cutoff)
    arms = ModeBasis((cutoff, cutoff))
    inputs = np.zeros((arms.dimension, cutoff + 1))
    for n in range(cutoff + 1):
        inputs[arms.index_of((n, n)), n] = 1.0
    return sa._fold(sa._output_gram(config, inputs, ancilla=sa._PHOTON_INPUTS)[1].real)


def assert_source_forms_match(cutoff, ops, packed_ops):
    """Packed ``_pair_forms`` equals the dense ``Re Tr(H O)`` at a source cutoff."""
    _, packed, _ = sa._source_stack(1.0, cutoff)
    re = whole_output_rows(cutoff)
    dense = ops.reshape(len(ops), -1) @ re.T
    found = sa._pair_forms(packed, packed_ops).reshape(dense.shape)
    scale = np.abs(re).max() * max(1.0, np.abs(ops).max())
    assert np.abs(found - dense).max() <= 1e-13 * scale


#: A transmission loss on both modes, as the filtered-source threshold sweeps it.
SWEPT = ((True, True), (True, True))


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
        blocks = [run[:, i] for run in _sector_blocks(basis, terms, _sector_layout(basis))
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
            f = la._mode_filter(basis, gain, applications, cutoff)
            factors = _swept_observables(basis, alice, bob, SWEPT, deltas, f)
            squares = la._swept_squares(basis, f, SWEPT)
            for eta in (0.3, 0.62, 1.0):
                ops = embedded_adjoint_loss(
                    basis, np.concatenate([F[:, None] * full * F, np.diag(F * F)[None]]), eta
                )
                assert np.all(ops[:, between] == 0.0)
                forms = sa._filtered_at(basis, factors, squares, eta)
                # One common power of two: the mode filter's scale.
                k = np.argmax(np.abs(ops[-1]))
                scale = 2.0 ** np.round(np.log2(
                    forms[-1][_parity_sectors(basis).entries == k][0] / ops[-1].flat[k]))
                assert_source_forms_match(cutoff, scale * ops, forms)


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
    tops = np.concatenate([_top_pairs(block[0])[0]
                           for block in _sector_blocks(basis, terms, _sector_layout(basis))])
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
    # The swept N is the base N pulled back through the loss, which carries
    # |1><1| into |2><2| and so into the 3 x 3 block.
    ("photodetection_povm", 2, set_nan((1, 1)), "not Hermitian or not finite"),
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


def test_a_non_finite_fixed_state_grid_fails_the_bisection(monkeypatch):
    # A fixed state's grid passes no eigensolver: the bisection's own check.
    corrupt(monkeypatch, "photodetection_povm", 2, set_nan((1, 1)))
    with pytest.raises(ValueError, match="max CHSH is not finite"):
        critical_efficiency("eta_t", state=psi2_state())


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


SYMMETRIC_SETUPS = {
    "lossless": BellScenario.symmetric(),
    "symmetric": SETUPS["symmetric"],
    "lossy-homodyne": SETUPS["lossy-homodyne"],
    "low-eta-d": BellScenario.symmetric(eta_t=0.6, eta_d=0.3, eta_h=0.7),
}


def layout_matrix(basis, layout, block):
    """The ``(d, n)`` matrix whose columns are block ``block``'s basis states."""
    rows, columns, coefficients = layout.states[block]
    n = int(columns.max()) + 1
    U = np.zeros((basis.dimension, n))
    U[rows, columns] = coefficients
    return U


def test_symmetric_parties_take_the_swap_layout():
    basis = ModeBasis((4, 4), total_cap=4)
    for scenario in SYMMETRIC_SETUPS.values():
        assert _layout(basis, scenario.alice, scenario.bob) is _swap_layout(basis)
    # Only eta_t eta_h and eta_t eta_d enter the factors (0.5 and 0.4 on both sides).
    alice = PartyConditions(eta_t=0.5, eta_d=0.8, eta_h=1.0)
    bob = PartyConditions(eta_t=1.0, eta_d=0.4, eta_h=0.5)
    assert _layout(basis, alice, bob) is _swap_layout(basis)
    for setup in ("asymmetric", "low-eta-d"):
        scenario = SETUPS[setup]
        assert _layout(basis, scenario.alice, scenario.bob) is _sector_layout(basis)
    # Different trimmed cutoffs: no swap symmetry.
    uneven = ModeBasis((2, 3))
    party = PartyConditions()
    assert _layout(uneven, party, party) is _sector_layout(uneven)
    # At the paper's cap: a 2 x 2 swap-even (even, even) block, then the
    # swap-odd |02> - |20>, |01> and |11>; |10> is not solved.
    paper = _swap_layout(ModeBasis((2, 2), total_cap=2))
    assert paper.runs == ((1, 2), (3, 1))
    labels = [{tuple(ModeBasis((2, 2), 2).occupations[r]) for r in rows}
              for rows, _, _ in paper.states]
    assert labels == [{(0, 0), (0, 2), (2, 0)}, {(0, 2), (2, 0)}, {(0, 1)}, {(1, 1)}]


@pytest.mark.parametrize("cap", range(2, 9))
def test_swap_blocks_are_the_projected_operator(cap):
    """Each block is U^T B U of the dense B, and the blocks hold B's whole spectrum."""
    basis = ModeBasis((cap, cap), total_cap=cap)
    layout = _swap_layout(basis)
    deltas = DELTAS[::8]
    for scenario in SYMMETRIC_SETUPS.values():
        full = bell_matrices(basis, scenario.alice, scenario.bob, deltas)
        norm = np.abs(np.linalg.eigvalsh(full)).max(axis=-1)
        blocks = [run[:, i] for run in _sector_blocks(
            basis, _mode_observables(basis, scenario.alice, scenario.bob, deltas), layout)
            for i in range(run.shape[1])]
        spectrum = []
        for b, block in enumerate(blocks):
            U = layout_matrix(basis, layout, b)
            assert np.abs(U.T @ U - np.eye(U.shape[1])).max() <= 1e-15
            projected = U.T @ full @ U
            assert np.all(np.abs(block - projected).max(axis=(1, 2)) <= 4e-16 * norm)
            spectrum.append(np.linalg.eigvalsh(block))
            if (basis.occupations[layout.states[b][0]] % 2 == (0, 1)).all():
                spectrum.append(np.linalg.eigvalsh(block))  # and its image, (1, 0)
        spectrum = np.sort(np.concatenate(spectrum, axis=-1), axis=-1)
        assert np.all(np.abs(spectrum - np.linalg.eigvalsh(full)).max(axis=-1) <= RTOL * norm)


def without_the_image_sector(basis, alice, bob, deltas):
    """:func:`full_reference` on every sector but (1, 0), embedded back in the basis.

    For symmetric parties (1, 0) is the swap image of (0, 1), so at odd caps
    a top eigenvalue there is always doubly degenerate in the full matrix.
    Both sectors are decoupled from the rest, so the eigenpairs without
    (1, 0) are eigenpairs of B.
    """
    keep = np.flatnonzero((basis.occupations % 2 != (1, 0)).any(axis=1))
    B = bell_matrices(basis, alice, bob, deltas)[:, keep[:, None], keep]
    dB = _projected_kron(basis, _mode_slopes(basis, alice, bob, deltas)[1])[:, keep[:, None], keep]
    w, v = np.linalg.eigh(B)
    top = v[:, :, -1:]
    vectors = np.zeros((len(deltas), basis.dimension))
    vectors[:, keep] = v[:, :, -1]
    norm = np.abs(w).max(axis=1)
    return w[:, -1], w[:, -1] - w[:, -2], norm, (top.swapaxes(-1, -2) @ dB @ top)[:, 0, 0], vectors


@pytest.mark.parametrize("setup", SYMMETRIC_SETUPS)
@pytest.mark.parametrize("cap", range(2, 9))
def test_swap_layout_matches_the_full_solve(cap, setup):
    scenario = SYMMETRIC_SETUPS[setup]
    basis = ModeBasis((cap, cap), total_cap=cap)
    top, top_and_slope = _top_eigenvalue(basis, scenario.alice, scenario.bob)
    w, gap, norm, slope, vectors = without_the_image_sector(basis, scenario.alice,
                                                            scenario.bob, DELTAS)
    assert np.all(np.abs(top(DELTAS) - w) <= RTOL * norm)
    values, slopes = top_and_slope(DELTAS)
    assert np.all(np.abs(values - w) <= RTOL * norm)
    simple = gap > SIMPLE_GAP * norm
    assert simple.any()
    assert np.all(np.abs(slopes - slope)[simple] <= RTOL * norm[simple])
    for k in range(0, len(DELTAS), 12):
        state, value = optimal_state(BellScenario(scenario.alice, scenario.bob, DELTAS[k]),
                                     cutoff=cap, total_cap=cap)
        assert abs(value - w[k]) <= RTOL * norm[k]
        assert abs(state.norm() - 1.0) <= 1e-14
        if simple[k]:
            # Either vector moves by about eps ||B|| / gap (Davis-Kahan).
            assert same_up_to_phase(state.amplitudes, vectors[k], 1e-14 * norm[k] / gap[k])


@pytest.mark.parametrize("cap", [2, 4, 6])
def test_symmetric_optimal_states_are_swap_symmetric(cap):
    basis = shared_basis((cap, cap), cap)
    swapped = [basis.index_of((b, a)) for a, b in basis.occupations.tolist()]
    for scenario in SYMMETRIC_SETUPS.values():
        for delta in (0.3, 0.9, 1.7):
            state, _ = optimal_state(BellScenario(scenario.alice, scenario.bob, delta), cap, cap)
            psi = state.amplitudes
            assert (np.abs(psi - psi[swapped]).max() <= 1e-15
                    or np.abs(psi + psi[swapped]).max() <= 1e-15)


def symmetric_blocks(rng, count, scale=1.0):
    a, d, r = (rng.normal(size=count) * scale for _ in range(3))
    return np.stack([np.stack([a, r], -1), np.stack([r, d], -1)], -2)


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
def test_two_by_two_top_in_closed_form(scale):
    rng = np.random.default_rng(7)
    random = symmetric_blocks(rng, 2000, scale)
    a = rng.normal(size=500) * scale
    degenerate = np.zeros((500, 2, 2))
    degenerate[:, 0, 0] = degenerate[:, 1, 1] = a
    diagonal = symmetric_blocks(rng, 500, scale)
    diagonal[:, 0, 1] = diagonal[:, 1, 0] = 0.0
    near = degenerate + symmetric_blocks(rng, 500, scale * 1e-9)  # tops nearly meet
    for blocks in (random, degenerate, diagonal, near, -random):
        reference = np.linalg.eigvalsh(blocks)
        norm = np.abs(reference).max(axis=-1)
        found = _top_values(blocks)
        assert np.all(np.isfinite(found))
        assert np.all(np.abs(found - reference[:, -1]) <= 4 * np.finfo(float).eps * norm)
    assert np.array_equal(_top_values(degenerate), a)


def test_two_by_two_top_checks_hermiticity():
    blocks = symmetric_blocks(np.random.default_rng(3), 4)
    skewed = blocks.copy()
    skewed[2, 0, 1] += 0.1
    with pytest.raises(ValueError, match="not Hermitian or not finite"):
        _top_values(skewed)
    blocks[1, 1, 1] = np.nan
    with pytest.raises(ValueError, match="not Hermitian or not finite"):
        _top_values(blocks)
