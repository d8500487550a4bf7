"""CHSH engine for the hybrid photodetection / binned-homodyne scenario.

Each party chooses between the binned quadrature observable X and the
photodetection observable N, giving the Bell operator

    B = X (x) (X + N) + N (x) (X - N)

with Alice's factor first.  Channel transmission eta_t is folded into the
measurement efficiencies (a loss upstream of the detectors is a detector
inefficiency), so states are always written at the source.

State optimization is restricted to the subspace with at most two photons in
total (``total_cap``).  The binned quadrature and photodetection keep each
mode's photon parity, so the projected Bell operator is block-diagonal in
the four (P_a, P_b) parity sectors; the optimal entangled state for the
given losses is the top eigenvector of the sector whose top eigenvalue is
largest, and each sector is solved on its own.  Every two-mode operator of
a solver is gathered in that packed sector layout (:func:`_packed_kron`);
:func:`bell_matrices` is the dense reference.

Every loss threshold of the package is :func:`bisect_threshold` applied to
a max-CHSH function; :func:`critical_efficiency` is this scenario's.  A
violation-region boundary is such a solver mapped over detection
efficiencies (:func:`cvbell.parallel.map_ordered`, as :mod:`cvbell.cli` does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import groupby

import numpy as np

from .fock import (
    ModeBasis,
    StateVector,
    _product_tensor,
    anchor_phase,
    hermitian_eig,
    hermitian_eigvals,
    shared_basis,
)
from .measurement import (
    DELTA_MAX,
    binned_homodyne_povms,
    binned_homodyne_slopes,
    photodetection_povm,
)

TSIRELSON = 2.0 * math.sqrt(2.0)

SYMMETRIC = "symmetric"
ASYMMETRIC = "asymmetric"


@dataclass(frozen=True)
class PartyConditions:
    """Loss parameters seen by one party.

    eta_t: power transmission of the channel from the source.
    eta_d: photodetector efficiency.
    eta_h: homodyne efficiency (unit by default).
    """

    eta_t: float = 1.0
    eta_d: float = 1.0
    eta_h: float = 1.0

    def __post_init__(self):
        for name in ("eta_t", "eta_d", "eta_h"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class BellScenario:
    """Two-party measurement configuration with a shared bin half-width."""

    alice: PartyConditions
    bob: PartyConditions
    delta: float

    def __post_init__(self):
        if self.delta < 0.0:
            raise ValueError("delta must be non-negative")

    @classmethod
    def symmetric(cls, eta_t=1.0, eta_d=1.0, eta_h=1.0, delta=0.0):
        party = PartyConditions(eta_t=eta_t, eta_d=eta_d, eta_h=eta_h)
        return cls(alice=party, bob=party, delta=delta)

    @classmethod
    def asymmetric(cls, eta_t=1.0, eta_d=1.0, eta_h=1.0, delta=0.0):
        """Source at Alice's lab: only Bob's mode suffers transmission loss."""
        alice = PartyConditions(eta_t=1.0, eta_d=eta_d, eta_h=eta_h)
        bob = PartyConditions(eta_t=eta_t, eta_d=eta_d, eta_h=eta_h)
        return cls(alice=alice, bob=bob, delta=delta)


def _trimmed_cutoffs(basis: ModeBasis) -> tuple[int, int]:
    """Per-mode cutoffs ``min(cutoff, total_cap)``.

    Building the observables there directly is exact: no element of a capped
    basis holds more photons in one mode, and neither loss nor photodetection
    raises the photon number, so entries up to the cap depend only on entries
    up to the cap.
    """
    if basis.mode_count != 2:
        raise ValueError("the Bell operator lives on a two-mode basis")
    cap = basis.total_cap
    ca, cb = (c if cap is None else min(c, cap) for c in basis.cutoffs)
    return ca, cb


def _mode_observables(basis, alice, bob, deltas):
    """The terms ``((Xa, Xb + Nb), (Na, Xb - Nb))`` of B at the trimmed cutoffs.

    X is the binned-homodyne observable (one per delta), N photodetection.
    """
    ca, cb = _trimmed_cutoffs(basis)
    eta_a, eta_b = alice.eta_h * alice.eta_t, bob.eta_h * bob.eta_t
    Xa = binned_homodyne_povms(eta_a, deltas, ca)[2]
    if (eta_b, cb) == (eta_a, ca):
        Xb = Xa  # a symmetric setup: Bob's are Alice's
    else:
        Xb = binned_homodyne_povms(eta_b, deltas, cb)[2]
    Na = photodetection_povm(alice.eta_d * alice.eta_t, ca)[2]
    Nb = photodetection_povm(bob.eta_d * bob.eta_t, cb)[2]
    return (Xa, Xb + Nb), (Na, Xb - Nb)


def _mode_slopes(basis, alice, bob, deltas):
    """The terms of B and of dB/d(delta) at shared, uncached bin half-widths.

    ``B = Xa (x) plus + Na (x) minus`` and, as N does not depend on delta,
    ``dB = dXa (x) plus + (Xa + Na) (x) dXb``.  Returns the pairs
    ``((Xa, plus), (Na, minus))`` and ``((dXa, plus), (Xa + Na, dXb))``.
    """
    ca, cb = _trimmed_cutoffs(basis)
    eta_a, eta_b = alice.eta_h * alice.eta_t, bob.eta_h * bob.eta_t
    Xa, dXa = binned_homodyne_slopes(eta_a, deltas, ca)
    if (eta_b, cb) == (eta_a, ca):  # a symmetric setup: Bob's are Alice's
        Xb, dXb = Xa, dXa
    else:
        Xb, dXb = binned_homodyne_slopes(eta_b, deltas, cb)
    Na = photodetection_povm(alice.eta_d * alice.eta_t, ca)[2]
    Nb = photodetection_povm(bob.eta_d * bob.eta_t, cb)[2]
    plus = Xb + Nb
    return ((Xa, plus), (Na, Xb - Nb)), ((dXa, plus), (Xa + Na, dXb))


@dataclass(frozen=True)
class _Sectors:
    """The photon-parity sectors of a two-mode basis (:func:`_parity_sectors`).

    ``positions`` holds each non-empty sector's positions in the basis, in
    ``(P_a, P_b)`` order.  The blocks are raveled and packed sector after
    sector; ``gathers`` holds each packed entry's flat index into Alice's and
    Bob's raveled factors, ``entries`` its flat position in the ``(d, d)``
    matrix.  ``runs`` has a ``(k, n)`` pair per run of k sectors of size n.
    """

    positions: tuple
    gathers: tuple
    entries: np.ndarray
    runs: tuple


@lru_cache(maxsize=64)
def _parity_sectors(basis: ModeBasis) -> _Sectors:
    """The photon-parity sectors of a (capped) two-mode basis.

    The bin ``|x| <= delta`` is symmetric and photodetection is diagonal, so
    every per-mode observable (after loss, and under the diagonal filters)
    commutes with that mode's photon parity: the Bell operator has no entry
    between elements whose ``(n_a mod 2, n_b mod 2)`` differ.  A sector is a
    set of positions in the unchanged lexicographic basis.  Entry ``(i, j)``
    of ``a (x) b`` is ``a[alpha_i, alpha_j] b[beta_i, beta_j]``, with
    ``(alpha_i, beta_i)`` the occupations of element i.
    """
    occupations, (ca, cb) = basis.occupations, _trimmed_cutoffs(basis)
    parities = occupations % 2
    positions = [np.flatnonzero((parities == sector).all(axis=1))
                 for sector in ((0, 0), (0, 1), (1, 0), (1, 1))]
    positions = tuple(p for p in positions if p.size)

    def packed(index, size):
        return np.concatenate([(index[p, None] * size + index[p]).ravel() for p in positions])

    gathers = (packed(occupations[:, 0], ca + 1), packed(occupations[:, 1], cb + 1))
    entries = packed(np.arange(basis.dimension), basis.dimension)
    for index in (*positions, *gathers, entries):
        index.setflags(write=False)
    runs = tuple((len(list(run)), n) for n, run in groupby(p.size for p in positions))
    return _Sectors(positions, gathers, entries, runs)


def _packed_kron(basis: ModeBasis, terms) -> np.ndarray:
    """``sum a (x) b`` over the (a, b) pairs on the photon-parity sectors only.

    Each entry of each sector's block is gathered from the per-mode factors
    (one matrix or a stack; stacks broadcast) and packed, ``(..., sum n^2)``
    (:func:`_parity_sectors`).  The entries between sectors are not formed.
    """
    ia, ib = _parity_sectors(basis).gathers
    out = None
    for a, b in terms:
        term = (np.take(a.reshape(*a.shape[:-2], -1), ia, axis=-1)
                * np.take(b.reshape(*b.shape[:-2], -1), ib, axis=-1))
        out = term if out is None else out + term
    return out


def _sector_blocks(basis: ModeBasis, terms) -> list[np.ndarray]:
    """``sum a (x) b`` on each photon-parity sector of the basis.

    Splits the packed gather (:func:`_packed_kron`) into one ``(..., k, n, n)``
    stack per run of k sectors of size n, in sector order.
    """
    packed = _packed_kron(basis, terms)
    blocks, start = [], 0
    for k, n in _parity_sectors(basis).runs:
        blocks.append(packed[..., start:start + k * n * n].reshape(*packed.shape[:-1], k, n, n))
        start += k * n * n
    return blocks


def _top_pairs(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalue ``(...)`` and eigenvector ``(..., n, 1)`` of each block.

    A 1 x 1 block is its own eigenpair, read without LAPACK; larger ones go
    through :func:`cvbell.fock.hermitian_eig`, which rejects a non-Hermitian
    or non-finite block.
    """
    if blocks.shape[-1] == 1:
        return blocks[..., 0, 0], np.ones_like(blocks)
    w, v = hermitian_eig(blocks)
    return w[..., -1], v[..., -1:]


def bell_matrices(basis: ModeBasis, alice: PartyConditions, bob: PartyConditions,
                  deltas) -> np.ndarray:
    """Bell operators for a stack of bin half-widths, shape ``(G, d, d)``.

    Built densely (:func:`_projected_kron`): the tests' reference for the
    packed sector gather of the solvers (:func:`_packed_kron`).
    """
    return _projected_kron(basis, _mode_observables(basis, alice, bob, deltas))


def _projected_kron(basis: ModeBasis, terms) -> np.ndarray:
    """``sum a (x) b`` over the (a, b) pairs as full Kronecker products, projected.

    The factors (matrices or stacks) are at the trimmed cutoffs.
    """
    da, db = (c + 1 for c in _trimmed_cutoffs(basis))
    alpha, beta = basis.occupations.T
    index = alpha * db + beta
    kron = sum(a[..., :, None, :, None] * b[..., None, :, None, :] for a, b in terms)
    return kron.reshape(*kron.shape[:-4], da * db, da * db)[..., index[:, None], index]


def bell_matrix(basis: ModeBasis, scenario: BellScenario) -> np.ndarray:
    """Bell operator matrix on a two-mode basis (projected if capped)."""
    return bell_matrices(basis, scenario.alice, scenario.bob, [scenario.delta])[0]


def chsh_value(state, scenario: BellScenario) -> float:
    """CHSH expectation of a pure or mixed two-mode state."""
    chsh = _state_chsh(state, scenario.alice, scenario.bob)[0]
    return float(chsh([scenario.delta])[0])


def _state_chsh(state, alice: PartyConditions, bob: PartyConditions):
    """CHSH expectation of a fixed state as a function of the bin half-widths.

    B is real, so ``Re(rho)``, embedded in the product basis as
    ``(da, db, da, db)`` (:func:`_product_tensor`), is contracted against the
    per-mode stacks.  Returns ``chsh(deltas)`` and ``chsh_and_slope(deltas)``,
    the values and their delta-derivatives ``Tr rho dB``.  A state of
    non-positive trace (the zero state of a source that never heralds) is
    rejected.

    The stacks are built only up to the largest photon number the state
    occupies in each mode.  That is exact for the reason
    :func:`_trimmed_cutoffs` gives: entries up to a photon number depend only
    on entries up to it.
    """
    rho = state.to_density() if isinstance(state, StateVector) else state
    if rho.trace() <= 0.0:
        raise ValueError("state has non-positive trace")
    occupied = (rho.matrix != 0).any(axis=0) | (rho.matrix != 0).any(axis=1)
    ca, cb = (int(n) for n in rho.basis.occupations[occupied].max(axis=0))
    full = shared_basis((ca, cb))
    matrix = _product_tensor(rho.basis, rho.matrix.real)[:ca + 1, :cb + 1, :ca + 1, :cb + 1]

    # Q[(i, j), (k, l)] = rho[i, k, j, l], so Tr rho (a (x) b) = vec(a^T) Q vec(b^T).
    Q = matrix.transpose(0, 2, 1, 3).reshape((ca + 1) ** 2, (cb + 1) ** 2)

    def contract(terms):
        return sum(
            ((a.swapaxes(-1, -2).reshape(-1, Q.shape[0]) @ Q)
             * b.swapaxes(-1, -2).reshape(-1, Q.shape[1])).sum(axis=-1)
            for a, b in terms
        )

    def chsh(deltas):
        return contract(_mode_observables(full, alice, bob, deltas))

    def chsh_and_slope(deltas):
        values, slopes = _mode_slopes(full, alice, bob, deltas)
        return contract(values), contract(slopes)

    return chsh, chsh_and_slope


def _top_eigenvalue(basis: ModeBasis, alice: PartyConditions, bob: PartyConditions):
    """Top eigenvalue of the Bell operator as a function of the bin half-widths.

    Returns ``top(deltas)`` and ``top_and_slope(deltas)``.  B is block-diagonal
    in the photon-parity sectors (:func:`_parity_sectors`), so its top
    eigenvalue is the largest of the sectors'; a NaN in any sector makes it
    NaN.  On the grid, 1 x 1 sectors are read and larger ones take
    :func:`cvbell.fock.hermitian_eigvals`.  The slope is ``v^T dB v`` with v
    the top eigenvector of the winning sector and dB that sector's block
    (Hellmann-Feynman).
    """

    def top(deltas):
        tops = [block[..., 0, 0] if block.shape[-1] == 1 else hermitian_eigvals(block)[..., -1]
                for block in _sector_blocks(basis, _mode_observables(basis, alice, bob, deltas))]
        return np.concatenate(tops, axis=-1).max(axis=-1)

    def top_and_slope(deltas):
        values, slopes = _mode_slopes(basis, alice, bob, deltas)
        tops, derivatives = [], []
        for B, dB in zip(_sector_blocks(basis, values), _sector_blocks(basis, slopes)):
            w, v = _top_pairs(B)
            tops.append(w)
            derivatives.append((v.swapaxes(-1, -2) @ dB @ v)[..., 0, 0])
        tops, derivatives = np.concatenate(tops, axis=-1), np.concatenate(derivatives, axis=-1)
        best = np.arange(len(tops)), np.argmax(tops, axis=-1)
        return tops[best], derivatives[best]

    return top, top_and_slope


def optimal_state(
    scenario: BellScenario, cutoff: int = 2, total_cap: int = 2
) -> tuple[StateVector, float]:
    """Top eigenpair of the Bell operator on the photon-capped subspace.

    The eigenvector is the top one of the photon-parity sector with the
    largest top eigenvalue (:func:`_parity_sectors`), embedded in the capped
    basis.  Its global phase is fixed so that its largest-magnitude
    coefficient is real positive.
    """
    basis = shared_basis((cutoff, cutoff), total_cap)
    terms = _mode_observables(basis, scenario.alice, scenario.bob, [scenario.delta])
    pairs = [_top_pairs(block[0]) for block in _sector_blocks(basis, terms)]
    tops = np.concatenate([w for w, _ in pairs])
    vectors = [vector[:, 0] for _, v in pairs for vector in v]
    best = int(np.argmax(tops))
    if not np.isfinite(tops[best]):
        raise ValueError("Bell operator is not finite")
    positions = _parity_sectors(basis).positions[best]
    amplitudes = np.zeros(basis.dimension, dtype=vectors[best].dtype)
    amplitudes[positions] = vectors[best]
    return StateVector(basis, anchor_phase(amplitudes)), float(tops[best])


def golden_section_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Maximize a unimodal scalar function on [lo, hi] to width ``tol``."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)


@dataclass(frozen=True)
class DeltaSearch:
    """Outcome of one delta search (:func:`search_delta`).

    ``delta`` and ``value`` are the optimum; ``grid_index`` is the best grid
    point and ``bracket`` the interval refined in, its neighbours.
    ``evaluations`` counts the objective evaluations of the refine, one per
    delta, the two bracket ends included.  ``unimodal`` is False when the grid
    maximum is interior, off a plateau, but the slope does not fall from
    positive to negative across its bracket: the objective then has more
    than one critical point there, and the grid maximum is returned.
    ``refined`` is False when the grid maximum already exceeded the
    search's ``stop_above``: the refine did not run, and ``value`` is the
    grid maximum, a lower bound on the optimum.
    """

    delta: float
    value: float
    grid_index: int
    bracket: tuple[float, float]
    evaluations: int
    unimodal: bool = True
    refined: bool = True


def refine_slope_root(value_and_slope, lo: float, hi: float, tol: float):
    """Root of the slope of an objective on ``[lo, hi]``: its maximum there.

    ``value_and_slope(deltas)`` returns the objective and its derivative at an
    array of points.  Regula falsi with the Illinois modification, falling
    back to bisection whenever a step would leave the bracket, until the
    bracket is narrower than ``tol``.  Returns ``(x, value, evaluations)``,
    with x the evaluated point of smallest slope magnitude, or
    ``(None, None, 2)`` when the slope is not positive at ``lo`` and negative
    at ``hi``.
    """
    (f_a, f_b), (g_a, g_b) = value_and_slope(np.array([lo, hi]))
    if not g_a > 0.0 > g_b:
        return None, None, 2
    a, b, evaluations, side = lo, hi, 2, 0
    best = min((abs(g_a), lo, f_a), (abs(g_b), hi, f_b))
    while b - a > tol:
        x = (a * g_b - b * g_a) / (g_b - g_a)
        if not a < x < b:
            x = 0.5 * (a + b)
        (f,), (g,) = value_and_slope(np.array([x]))
        evaluations += 1
        best = min(best, (abs(g), x, f))
        if g == 0.0:
            break
        if g > 0.0:
            a, g_a = x, g
            if side > 0:  # same end kept twice: Illinois halves its slope
                g_b *= 0.5
            side = 1
        else:
            b, g_b = x, g
            if side < 0:
                g_a *= 0.5
            side = -1
    return float(best[1]), float(best[2]), evaluations


#: Width to which :func:`search_delta` refines the best bin half-width by default.
DELTA_REFINE_TOL = 1e-6

#: Grid values that agree to this are a plateau of the delta objective: its
#: argmax there is decided by rounding, not by a second maximum.
PLATEAU_TOL = 1e-12


def search_delta(
    alice: PartyConditions,
    bob: PartyConditions,
    state=None,
    cutoff: int = 2,
    total_cap: int = 2,
    grid_points: int = 241,
    tol: float = DELTA_REFINE_TOL,
    stop_above: float | None = None,
) -> DeltaSearch:
    """The delta search of :func:`optimize_delta`, with its record."""
    if state is None:
        basis = shared_basis((cutoff, cutoff), total_cap)
        objective, value_and_slope = _top_eigenvalue(basis, alice, bob)
    else:
        objective, value_and_slope = _state_chsh(state, alice, bob)

    grid = np.linspace(0.0, DELTA_MAX, grid_points)
    values = objective(grid)
    k = int(np.argmax(values))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid_points - 1)]
    keep_grid = DeltaSearch(float(grid[k]), float(values[k]), k, (float(lo), float(hi)), 0)
    if stop_above is not None and values[k] > stop_above:
        return replace(keep_grid, refined=False)
    if hi <= lo:
        return keep_grid
    delta_star, best, evaluations = refine_slope_root(value_and_slope, lo, hi, tol)
    keep_grid = replace(keep_grid, evaluations=evaluations)
    if delta_star is None:
        # At an end of the grid the maximum may sit on the edge, and on a
        # plateau the argmax is decided by rounding.  Otherwise a bracket
        # without a root breaks the unimodality the grid relies on.
        edge = k in (0, grid_points - 1)
        unimodal = edge or values[k] - min(values[k - 1], values[k + 1]) <= PLATEAU_TOL
        return replace(keep_grid, unimodal=unimodal)
    if best < values[k]:  # flat objective: keep the grid maximizer
        return keep_grid
    return replace(keep_grid, delta=delta_star, value=best)


def optimize_delta(
    alice: PartyConditions,
    bob: PartyConditions,
    state=None,
    cutoff: int = 2,
    total_cap: int = 2,
    grid_points: int = 241,
    tol: float = DELTA_REFINE_TOL,
    stop_above: float | None = None,
) -> tuple[float, float]:
    """Best bin half-width and the CHSH value it achieves.

    With ``state=None`` the objective at each delta is the top eigenvalue of
    the Bell operator on the photon-capped subspace; otherwise it is the
    CHSH expectation of the fixed (pure or mixed) state.  The whole grid is
    evaluated in one batched call.  Between the best grid point's neighbours
    a safeguarded root search on the objective's delta-derivative
    (:func:`refine_slope_root`) refines to ``tol``; where the slope has no
    root there, the grid maximizer is kept.  The search never returns less
    than its grid maximum, so when that exceeds ``stop_above`` the refine
    cannot change whether the optimum does, and the grid point is returned
    unrefined: a threshold solve passes its violation bound here.
    :func:`search_delta` returns the same search with its record.
    """
    search = search_delta(alice, bob, state, cutoff, total_cap, grid_points, tol,
                          stop_above)
    return search.delta, search.value


def _scenario_for(
    symmetry: str, eta_t: float, eta_d: float, eta_h: float
) -> BellScenario:
    if symmetry == SYMMETRIC:
        return BellScenario.symmetric(eta_t=eta_t, eta_d=eta_d, eta_h=eta_h)
    if symmetry == ASYMMETRIC:
        return BellScenario.asymmetric(eta_t=eta_t, eta_d=eta_d, eta_h=eta_h)
    raise ValueError(f"unknown symmetry {symmetry!r}")


#: Violation margin for threshold solves.  Constant-observable corners of the
#: delta range sit at CHSH = 2 exactly, so a bare "> 2" test would trip on
#: rounding noise; the margin is far below the threshold resolution and far
#: above eigensolver noise.
VIOLATION_MARGIN = 1e-7

#: A threshold solve counts a max-CHSH value above this as a violation.
VIOLATION_BOUND = 2.0 + VIOLATION_MARGIN


def _finest_cell(lo: float, hi: float, tol: float, x: float) -> tuple[float, float]:
    """The last bracket of a bisection on ``[lo, hi]`` whose threshold is ``x``.

    Walks the bisection's own recurrence (the same midpoints, the same
    stopping rule), so both ends are points the bisection could evaluate.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid > x:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _crossing_estimate(points) -> float | None:
    """Where the value crosses :data:`VIOLATION_BOUND`, from three ``(x, value)``.

    Inverse quadratic interpolation (as in Brent's root finder): x as a
    quadratic in the value, read at the bound.  ``None`` unless the three
    values are distinct and the estimate is finite.
    """
    (x0, y0), (x1, y1), (x2, y2) = points
    if y0 == y1 or y1 == y2 or y0 == y2:
        return None
    b = VIOLATION_BOUND
    x = (x0 * (b - y1) * (b - y2) / ((y0 - y1) * (y0 - y2))
         + x1 * (b - y0) * (b - y2) / ((y1 - y0) * (y1 - y2))
         + x2 * (b - y0) * (b - y1) / ((y2 - y0) * (y2 - y1)))
    return x if math.isfinite(x) else None


def bisect_threshold(max_chsh, lo: float = 0.0, hi: float = 1.0, tol: float = 1e-4):
    """Smallest parameter value at which ``max_chsh`` exceeds 2.

    A value counts as a violation above :data:`VIOLATION_BOUND`.  Assumes
    monotonicity (more efficiency never hurts).  Returns ``None`` when there
    is no violation at the upper end.  The bracket must be finite with
    ``lo < hi``, and ``tol`` finite and positive, or the bisection would
    never end (or end on NaN comparisons); below the float spacing of the
    bracket it stops at adjacent floats.  A non-finite ``max_chsh`` value
    raises ``ValueError``: NaN would read as a verdict.

    The bracket walk is plain bisection's, and so is the result, bit for
    bit, whenever the verdicts are monotone.  But a midpoint is evaluated
    only when no earlier evaluation implies its verdict: one at or below the
    largest non-violating point is a "no", one at or above the smallest
    violating point a "yes".  Before evaluating an open midpoint, the
    solver estimates the crossing from the three smallest violating points
    evaluated (:func:`_crossing_estimate`; the flat side at 2 has no slope
    to read) and probes an end of the bisection cell the estimate ends in
    (:func:`_finest_cell`), the upper end first.  Two right probes leave
    every remaining midpoint implied.  There are never more probes than
    bisection levels, so a solve takes fewer than twice plain bisection's
    evaluations.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"bisection tol must be finite and positive, got {tol}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bisection bracket must be finite with lo < hi, got [{lo}, {hi}]")

    violating = []  # (x, max CHSH) of every violating point evaluated

    def violates(x: float) -> bool:
        chsh = max_chsh(x)
        if not math.isfinite(chsh):
            raise ValueError(f"max CHSH is not finite at {x}: {chsh}")
        if chsh > VIOLATION_BOUND:
            violating.append((x, chsh))
        return chsh > VIOLATION_BOUND

    if not violates(hi):
        return None
    if violates(lo):
        return lo
    no_max, yes_min = lo, hi  # largest "no" and smallest "yes" evaluated
    levels = probes = 0

    def probe_point():
        """An end of the estimate's cell whose verdict is still open."""
        if probes >= levels or len(violating) < 3:
            return None
        estimate = _crossing_estimate(sorted(violating)[:3])
        if estimate is None or not no_max < estimate < yes_min:
            return None
        a, b = _finest_cell(lo, hi, tol, estimate)
        return next((x for x in (b, a) if no_max < x < yes_min), None)

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # tol is below the float spacing: no finer midpoint
            break
        levels += 1
        while no_max < mid < yes_min:
            x = probe_point()
            if x is None:
                x = mid
            else:
                probes += 1
            if violates(x):
                yes_min = x
            else:
                no_max = x
        if mid >= yes_min:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def critical_efficiency(
    target: str,
    symmetry: str = SYMMETRIC,
    eta_t: float = 1.0,
    eta_d: float = 1.0,
    eta_h: float = 1.0,
    state=None,
    cutoff: int = 2,
    total_cap: int = 2,
    tol: float = 1e-4,
) -> float | None:
    """Critical transmission or detection efficiency for a CHSH violation.

    ``target`` is ``"eta_t"`` or ``"eta_d"``; the other efficiency is held at
    the supplied value.  The bin half-width (and, when ``state`` is None, the
    subspace state) is re-optimized at every bisection step; a step whose
    delta grid already violates is decided there (``stop_above``).
    """
    if target not in ("eta_t", "eta_d"):
        raise ValueError("target must be 'eta_t' or 'eta_d'")

    def max_chsh(value):
        kwargs = {"eta_t": eta_t, "eta_d": eta_d}
        kwargs[target] = value
        scen = _scenario_for(symmetry, eta_h=eta_h, **kwargs)
        return optimize_delta(
            scen.alice, scen.bob, state=state, cutoff=cutoff, total_cap=total_cap,
            stop_above=VIOLATION_BOUND,
        )[1]

    return bisect_threshold(max_chsh, tol=tol)

