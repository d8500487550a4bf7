"""The swept loss expanded once: the polynomial forms against the one-value paths.

``measurement._loss_coefficients`` writes the adjoint loss as a polynomial in
the transmission, ``sum_i eta^i (1 - eta)^(c - i) E_i``.  The threshold
solves expand every per-mode factor that their swept efficiency enters once
(``bell._swept_observables``, which also takes the parties' mode filter)
and read each step from the expansion: a fixed state's grid is one
polynomial (``bell._swept_state_chsh``), the filtered psi2's the ratio of
that polynomial to the squares' (``local_amp._swept_squares``), and the
optimal-state and source steps evaluate the factors from their
coefficients (``bell._swept_at``).  A one-value read is the same expansion
at one point: ``measurement._through_loss`` contracts the coefficients with
the weights of its transmission.  The references are the extended-precision
Kraus sum, the per-value loss ``_through_loss``, the one-value paths
``_state_chsh`` and ``_mode_observables``, and the filtered psi2 sent
forward (``local_amp.apply_filters`` of ``local_amp.lossy_psi2``).
The expansion also makes the monotonicity that bisection assumes cheap to
check on a fine grid of efficiencies.
"""

import numpy as np
import pytest

import cvbell.bell as bell
import cvbell.local_amp as la
import cvbell.measurement as measurement
import cvbell.source_amp as sa
from cvbell.bell import (
    ASYMMETRIC,
    SYMMETRIC,
    PartyConditions,
    _mode_observables,
    _observable_terms,
    _same_factors,
    _state_chsh,
    _sweep,
    _swept_at,
    _swept_observables,
    _swept_state_chsh,
    critical_efficiency,
    optimize_delta,
)
from cvbell.fock import DensityOperator, ModeBasis, loss_kraus, shared_basis
from cvbell.local_amp import apply_filters, filtered_critical_transmission, lossy_psi2, psi2_state
from cvbell.measurement import (
    _expand_loss,
    _loss_coefficients,
    _through_loss,
    bernstein_weights,
    delta_grid,
)

EPS = np.finfo(float).eps

#: Every parity entry of the expanded channel is a sum of non-negative terms,
#: each a few roundings from exact, so it lies within this many ulps of the
#: entry itself (measured: 3.3 against the extended-precision Kraus sum,
#: cutoffs 0-8).
ULPS = 8

#: Swept grids and factors agree with the one-value paths to this, relative to
#: the largest value of the reference.
RTOL = 1e-14

ETAS = np.linspace(0.0, 1.0, 57)
STEPS = (0.0, 0.31, 0.77, 0.9, 1.0)
GRID = delta_grid(241)


def even_entries(cutoff):
    """Mask of the channel entries ``[(m, m'), (n, n')]`` with ``m + m'`` even."""
    n = cutoff + 1
    m, mm, _, _ = np.indices((n,) * 4).reshape(4, -1)
    return ((m + mm) % 2 == 0).reshape(n * n, n * n)


def assert_close(found, reference):
    scale = np.abs(reference).max()
    assert np.abs(found - reference).max() <= RTOL * scale


@pytest.mark.parametrize("cutoff", range(9))
def test_coefficients_expand_the_channel_and_the_kraus_sum(cutoff):
    E = _loss_coefficients(cutoff)
    assert E.shape == (cutoff + 1, (cutoff + 1) ** 2, (cutoff + 1) ** 2)
    assert not E.flags.writeable and (E >= 0.0).all()
    even = even_entries(cutoff)
    assert not E[:, ~even].any()
    # The parity-keeping unit matrices |m><m'|: their images are the rows of
    # the channel matrix with m + m' even.
    rows = even[:, 0]
    n = cutoff + 1
    units = np.eye(n * n)[rows].reshape(-1, n, n)
    for eta in ETAS:
        found = _through_loss(float(eta), units, cutoff).reshape(-1, n * n)
        assert np.array_equal(found, np.tensordot(bernstein_weights(eta, cutoff), E, 1)[rows])
        assert not np.shares_memory(found, E) and not E.flags.writeable
        kraus = sum(np.kron(A, A) for A in (A.astype(np.longdouble)
                                            for A in loss_kraus(float(eta), cutoff)))[rows]
        error = np.abs(found - kraus).astype(float)
        assert (error <= ULPS * EPS * np.abs(kraus).astype(float)).all()


@pytest.mark.parametrize("cutoff", range(9))
def test_expanded_stacks_match_the_loss_of_each_value(cutoff):
    rng = np.random.default_rng(cutoff)
    n = cutoff + 1
    stack = rng.normal(size=(5, n, n)) * (np.add.outer(range(n), range(n)) % 2 == 0)
    expanded = _expand_loss(stack, cutoff)
    assert expanded.shape == (cutoff + 1, *stack.shape)
    for eta in ETAS:
        found = np.tensordot(bernstein_weights(eta, cutoff), expanded, 1)
        assert_close(found, _through_loss(float(eta), stack, cutoff))


def test_bernstein_weights_of_arrays_are_the_scalar_rows():
    rows = bernstein_weights(ETAS, 4)
    assert rows.shape == (len(ETAS), 5)
    assert np.array_equal(rows[17], bernstein_weights(ETAS[17], 4))
    assert np.array_equal(bernstein_weights(0.0, 3), [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(bernstein_weights(1.0, 3), [0.0, 0.0, 0.0, 1.0])


@pytest.mark.parametrize("target, symmetry, expected", [
    ("eta_t", SYMMETRIC, ((True, True), (True, True))),
    ("eta_t", ASYMMETRIC, ((False, False), (True, True))),
    ("eta_d", SYMMETRIC, ((False, True), (False, True))),
    ("eta_d", ASYMMETRIC, ((False, True), (False, True))),
])
def test_the_sweep_enters_the_factors_of_its_efficiency(target, symmetry, expected):
    scenario, base, sweeps = _sweep(target, symmetry, 0.9, 0.8, 0.7)
    assert sweeps == expected
    assert base == scenario(1.0)
    assert getattr(scenario(0.4).bob, target) == 0.4


def random_state(rng, cutoff):
    """A random full-rank complex density operator on the (cutoff, cutoff) basis."""
    basis = shared_basis((cutoff, cutoff))
    A = rng.normal(size=(basis.dimension,) * 2) + 1j * rng.normal(size=(basis.dimension,) * 2)
    rho = A @ A.conj().T
    return DensityOperator(basis, rho / np.trace(rho).real)


@pytest.mark.parametrize("cutoff", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("target", ["eta_t", "eta_d"])
@pytest.mark.parametrize("symmetry", [SYMMETRIC, ASYMMETRIC])
def test_fixed_state_grids_match_the_one_value_path(cutoff, target, symmetry):
    state = random_state(np.random.default_rng(cutoff), cutoff)
    scenario, base, sweeps = _sweep(target, symmetry, 0.91, 0.87, 0.83)
    chsh = _swept_state_chsh(state, base.alice, base.bob, sweeps, GRID)
    mode_degrees = [cutoff * any(swept) for swept in sweeps]
    assert chsh.shape == (sum(mode_degrees) + 1, len(GRID))
    for value in STEPS:
        scen = scenario(value)
        assert_close(bernstein_weights(value, len(chsh) - 1) @ chsh,
                     _state_chsh(state, scen.alice, scen.bob)[0](GRID))


def psi2_grids(monkeypatch, gain, applications, eta_d, etas):
    """The filtered psi2's delta grid at each transmission, as its search reads it."""
    search = la._psi2_search(gain, applications, eta_d, 1.0, 2)
    grids = []
    with monkeypatch.context() as patch:
        patch.setattr(la, "_search_grid", lambda grid, values, *args, **kwargs:
                      grids.append(values))
        for eta in etas:
            search(eta)
    return np.array(grids)


@pytest.mark.parametrize("gain, applications", [
    *((g, m) for g in (1.0, 1.5, 2.0, 3.0) for m in (1, 2, 3, 4)), (1e100, 1)])
@pytest.mark.parametrize("eta_d", [1.0, 0.9])
def test_filtered_grids_match_the_forward_state(monkeypatch, gain, applications, eta_d):
    party = PartyConditions(eta_d=eta_d)
    grids = psi2_grids(monkeypatch, gain, applications, eta_d, STEPS)
    for eta, grid in zip(STEPS, grids, strict=True):
        state = apply_filters(lossy_psi2(eta), gain, applications)
        reference = _state_chsh(state, party, party)[0](GRID)
        assert np.abs(grid - reference).max() <= 1e-13 * np.abs(reference).max()


def test_an_overflowing_filter_is_named_before_any_expansion(monkeypatch):
    for module in (bell, la):
        monkeypatch.setattr(module, "_expand_loss", None)
    with pytest.raises(ValueError, match="overflows the float range at cutoff 6"):
        la._psi2_search(1e100, 2, 1.0, 1.0, 6)


@pytest.mark.parametrize("cap", [2, 4, 6])
@pytest.mark.parametrize("target", ["eta_t", "eta_d"])
@pytest.mark.parametrize("symmetry", [SYMMETRIC, ASYMMETRIC])
def test_optimal_state_factors_match_mode_observables(cap, target, symmetry):
    basis = shared_basis((cap, cap), cap)
    scenario, base, sweeps = _sweep(target, symmetry, 0.91, 0.87, 0.83)
    factors = _swept_observables(basis, base.alice, base.bob, sweeps, GRID)
    for value in STEPS:
        scen = scenario(value)
        found = _observable_terms(*_swept_at(factors, value))
        reference = _mode_observables(basis, scen.alice, scen.bob, GRID)
        for found_term, reference_term in zip(found, reference, strict=True):
            for f, r in zip(found_term, reference_term, strict=True):
                assert f.shape[-2:] == r.shape[-2:]
                assert_close(f, r)


ALICE = PartyConditions(eta_t=0.9, eta_d=0.8)
ALIKE = ((True, True), (True, True))


@pytest.mark.parametrize("bob, cutoffs, sweeps, shared", [
    (ALICE, (2, 2), ALIKE, (True, True)),
    (ALICE, (2, 2), ((False, True), (True, True)), (False, True)),
    (PartyConditions(eta_t=0.9, eta_d=0.7), (2, 2), ALIKE, (True, False)),
    (PartyConditions(eta_t=0.8, eta_d=0.9), (2, 2), ALIKE, (False, True)),
    (ALICE, (3, 2), ALIKE, (False, False)),
], ids=["alike", "swept-apart", "other-detector", "same-detection-product", "other-cutoff"])
def test_bob_gets_alices_factor_exactly_where_they_agree(bob, cutoffs, sweeps, shared):
    # The optimal-state steps evaluate a shared factor once (_swept_at).
    basis = ModeBasis(cutoffs)
    Xa, Xb, Na, Nb = _swept_observables(basis, ALICE, bob, sweeps, GRID)
    assert (Xb is Xa, Nb is Na) == shared
    alike = (a == b for a, b in zip(*sweeps, strict=True))
    assert tuple(s and a for s, a in zip(_same_factors(basis, ALICE, bob), alike)) == shared


#: On the fine grid the maximum over delta may fall by rounding only (the
#: worst fall measured is 8.9e-16).
ETA_GRID = np.linspace(0.0, 1.0, 401)
FALL = 1e-12


@pytest.mark.parametrize("target", ["eta_t", "eta_d"])
@pytest.mark.parametrize("symmetry", [SYMMETRIC, ASYMMETRIC])
@pytest.mark.parametrize("other", [1.0, 0.9])
def test_fixed_psi2_grid_maximum_never_falls(target, symmetry, other):
    # Bisection assumes that more efficiency never hurts.
    _, base, sweeps = _sweep(target, symmetry, other, other, 1.0)
    chsh = _swept_state_chsh(psi2_state(), base.alice, base.bob, sweeps, GRID)
    maxima = (bernstein_weights(ETA_GRID, len(chsh) - 1) @ chsh).max(axis=1)
    assert np.diff(maxima).min() >= -FALL
    assert maxima[-1] > maxima[0]


@pytest.mark.parametrize("gain", [1.0, 1.5, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("applications", [1, 2, 3, 4])
@pytest.mark.parametrize("eta_d", [1.0, 0.9])
def test_filtered_psi2_grid_maximum_never_falls(monkeypatch, gain, applications, eta_d):
    maxima = psi2_grids(monkeypatch, gain, applications, eta_d, ETA_GRID).max(axis=1)
    assert np.diff(maxima).min() >= -FALL
    assert maxima[-1] > maxima[0]


@pytest.mark.parametrize("solve", [
    lambda: critical_efficiency("eta_t", state=psi2_state()),
    lambda: critical_efficiency("eta_d", state=psi2_state()),
    lambda: filtered_critical_transmission(2.0),
    lambda: sa.source_critical_transmission(),
    lambda: sa.source_critical_transmission(eta_c=0.9, symmetry=ASYMMETRIC),
    lambda: sa.amplified_source_threshold_with_filters(2.0),
], ids=["psi2-eta-t", "psi2-eta-d", "filtered", "source", "source-asymmetric",
        "filtered-source"])
def test_threshold_steps_build_no_loss_channel(monkeypatch, solve):
    # After the set-up, every step reads the expansion: no channel is built
    # and no stack goes through a loss.
    calls = []

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return wrapper

    for module, name in ((measurement, "_through_loss"), (la, "_through_loss")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    during = []

    def bisect(max_chsh, original=bell.bisect_threshold, **kwargs):
        start = len(calls)
        result = original(max_chsh, **kwargs)
        during.append(calls[start:])
        return result

    monkeypatch.setattr(bell, "bisect_threshold", bisect)
    assert solve() is not None
    assert during == [[]]
    # The counters see a one-value search.
    party = PartyConditions(eta_t=0.9)
    optimize_delta(party, party, state=psi2_state())
    assert "_through_loss" in calls
