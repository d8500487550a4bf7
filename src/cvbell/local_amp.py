"""Local noiseless filtering by the parties before their measurements.

Each party passes its incoming mode through the heralded filter

    G(g) |n> = [(g - 1) n + 1] |n>,

keeping only events where both filters succeed; the kept events are treated
as state preparation, so the filtered state is renormalized by its computed
trace.  Applied to the two-photon entangled state (|20> + |02>)/sqrt(2)
after lossy transmission, the filter re-weights the surviving two-photon
component against the one-photon and vacuum backgrounds and thereby lowers
the critical transmission for a CHSH violation.

Loss ordering: transmission (and source-coupling) losses act on the state
before the filters; the photodetector inefficiency stays in the measurement.
Coupling and transmission compose, so the state reaching the filters is the
input state through a loss of eta_t * eta_c per mode.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import (
    DensityOperator,
    HermitianOperator,
    ModeBasis,
    StateVector,
    shared_basis,
)
from .bell import (
    VIOLATION_BOUND,
    PartyConditions,
    _mode_observables,
    _mode_slopes,
    _packed_kron,
    _parity_sectors,
    _search_grid,
    bisect_threshold,
)
from .measurement import DELTA_MAX, _through_loss


def filter_diagonal(basis: ModeBasis, gain: float, applications: int = 1) -> np.ndarray:
    """Diagonal of the filter on every mode of ``basis``, applied m times.

    Each mode contributes ``((g - 1) n + 1)^m`` for its photon number n.
    Every filter path of the package goes through here, so the arguments
    are checked here: the gain must be finite and at least 1, and the filter
    applied at least once.  Raises ``ValueError`` naming the gain, the
    applications and the cutoff when an entry overflows the float range.
    """
    if not 1.0 <= gain < math.inf:  # also rejects NaN
        raise ValueError(f"filter gain must be finite and at least 1, got {gain}")
    if not applications >= 1:
        raise ValueError(f"filter applications must be at least 1, got {applications}")
    with np.errstate(over="ignore"):
        diag = np.prod(((gain - 1.0) * basis.occupations + 1.0) ** applications, axis=1)
    if not np.isfinite(diag).all():
        raise ValueError(f"the filter of gain {gain} applied {applications} times overflows "
                         f"the float range at cutoff {max(basis.cutoffs)}")
    return diag


def _filtered_pullback(basis: ModeBasis, gain: float, applications: int, cutoff: int):
    """Filtered two-mode operators pulled back through a loss on both modes.

    Returns ``pullback(terms)``, which filters the per-mode factors of
    ``B = sum a (x) b`` once and returns ``at(eta)``: ``L^dag(F B F)`` and
    ``L^dag(F^2)``, packed on the photon-parity sectors of the capped
    two-mode ``basis`` (:func:`cvbell.bell._packed_kron`), with ``F`` the
    filter of ``gain`` applied ``applications`` times on each mode and ``L``
    the transmission ``eta`` on each mode.  Filter and loss factor by mode,

        L^dag(F (a (x) b) F) = L_a^dag(f a f) (x) L_b^dag(f b f),

    and capping after the pullback is exact, because loss never raises the
    photon number.  Each mode's ``f``, with entries from 1 to its largest,
    M, is scaled by a power of two near ``1/sqrt(M)``, so a product of four
    entries lies between about ``1/M^2`` and ``M^2``: it neither overflows
    nor underflows where the two-mode diagonal is finite, and the common
    factor cancels exactly in every ratio to ``L^dag(F^2)``.  The filter is
    checked once, on the two-mode basis at the caller's ``cutoff``: invalid
    arguments and an overflow there raise the :func:`filter_diagonal` error.
    """
    filter_diagonal(shared_basis((cutoff, cutoff)), gain, applications)

    def filtered(ops):
        """``f O f`` for each factor of one mode, stacked, with ``f^2`` last."""
        n = ops[0].shape[-1]
        f = filter_diagonal(shared_basis((n - 1,)), gain, applications)
        f = np.ldexp(f, -(np.frexp(f.max())[1] // 2))
        stack = np.concatenate([*(op.reshape(-1, n, n) for op in ops), np.eye(n)[None]])
        return f[:, None] * stack * f, np.cumsum([op.size // (n * n) for op in ops]).tolist()

    def pullback(terms):
        modes = [filtered(ops) for ops in zip(*terms)]

        def at(eta: float):
            (*a, square_a), (*b, square_b) = (
                np.split(_through_loss(eta, stack, stack.shape[-1] - 1), ends)
                for stack, ends in modes)
            return (_packed_kron(basis, zip(a, b)),
                    _packed_kron(basis, ((square_a, square_b),))[0])

        return at

    return pullback


def _filtered_slopes(pullback, basis: ModeBasis, party: PartyConditions, eta: float,
                     rho: np.ndarray):
    """The refine's ``value_and_slope`` of a filtered state (:func:`cvbell.bell._search_grid`).

    ``Tr(rho L^dag(F B F))`` and ``Tr(rho L^dag(F dB F))`` over
    ``Tr(rho L^dag(F^2))``, which does not depend on delta, for ``rho``
    packed on the sectors of ``basis`` and both parties measuring as
    ``party``; ``pullback`` is the :func:`_filtered_pullback` of ``basis``.
    """

    def value_and_slope(deltas):
        values, slopes = _mode_slopes(basis, party, party, deltas)
        (bells, square), (dbells, _) = pullback(values)(eta), pullback(slopes)(eta)
        norm = square @ rho
        return (bells @ rho) / norm, (dbells @ rho) / norm

    return value_and_slope


def filter_operator(gain: float, cutoff: int) -> HermitianOperator:
    """Single-mode filter G(g) = diag((g - 1) n + 1)."""
    basis = shared_basis((cutoff,))
    return HermitianOperator(basis, np.diag(filter_diagonal(basis, gain)))


def psi2_state(cutoff: int = 2) -> StateVector:
    """The two-photon entangled state (|20> + |02>)/sqrt(2)."""
    basis = shared_basis((cutoff, cutoff))
    v = np.zeros(basis.dimension, dtype=complex)
    v[basis.index_of((2, 0))] = 1.0 / math.sqrt(2.0)
    v[basis.index_of((0, 2))] = 1.0 / math.sqrt(2.0)
    return StateVector(basis, v)


def lossy_psi2(eta_t: float, cutoff: int = 2) -> DensityOperator:
    """State (|20> + |02>)/sqrt(2) after per-mode transmission eta_t.

    The two-photon component keeps weight eta_t^2, the single-photon mixture
    |01><01| + |10><10| carries eta_t (1 - eta_t) and the vacuum
    (1 - eta_t)^2.  The arms lose photons into different environment modes,
    so |10> and |01> stay incoherent.  A forward reference for the tests.
    """
    if not 0.0 <= eta_t <= 1.0:
        raise ValueError("eta_t must lie in [0, 1]")
    basis = shared_basis((cutoff, cutoff))
    psi2 = psi2_state(cutoff).amplitudes.real
    rho = eta_t**2 * np.outer(psi2, psi2)
    one = eta_t * (1.0 - eta_t)
    for occupation, weight in (((1, 0), one), ((0, 1), one), ((0, 0), (1.0 - eta_t) ** 2)):
        i = basis.index_of(occupation)
        rho[i, i] += weight
    return DensityOperator(basis, rho)


def apply_filters(rho: DensityOperator, gain: float, applications: int = 1) -> DensityOperator:
    """Filter both modes ``applications`` times and renormalize.

    m applications equal a single diagonal filter with entries
    ``((g - 1) n + 1)^m``; the success probability is absorbed into the
    renormalization (filtering is part of state preparation).  The forward
    reference that the pulled-back forms of the solvers are tested against.
    """
    basis = rho.basis
    if basis.mode_count != 2:
        raise ValueError("expected a two-mode state")
    diag = filter_diagonal(basis, gain, applications)
    filtered = diag[:, None] * rho.matrix * diag[None, :]
    trace = float(np.trace(filtered).real)
    if trace <= 0.0:
        raise ValueError("filtered state has non-positive trace")
    return DensityOperator(basis, filtered / trace)


def filtered_state(
    eta_t: float,
    gain: float,
    applications: int = 1,
    eta_c: float = 1.0,
    cutoff: int = 2,
) -> DensityOperator:
    """Lossy two-photon state after both parties' filters: the forward reference."""
    return apply_filters(lossy_psi2(eta_t * eta_c, cutoff), gain, applications)


def _psi2_search(gain: float, applications: int, eta_d: float, eta_c: float, cutoff: int):
    """The delta search of the filtered psi2 at a transmission: ``search(eta_t, stop_above)``.

    The 241-point grid reads ``Tr(psi2 L^dag(F B F)) / Tr(psi2 L^dag(F^2))``
    (:func:`_filtered_pullback`) through the loss ``eta_t * eta_c``, on the
    basis capped at the two photons that psi2 and its losses hold; the
    filtered stacks of the grid are built once.  The refine, when it runs,
    reads the slopes from the same forms (:func:`_filtered_slopes`).  The
    measurements carry only the detector efficiencies.
    """
    basis = shared_basis((cutoff, cutoff), 2)
    pullback = _filtered_pullback(basis, gain, applications, cutoff)
    party = PartyConditions(eta_t=1.0, eta_d=eta_d, eta_h=1.0)
    grid = np.linspace(0.0, DELTA_MAX, 241)
    grid_forms = pullback(_mode_observables(basis, party, party, grid))
    # (|20> + |02>)(<20| + <02|) on the packed entries: psi2 up to its norm,
    # which cancels in the ratio.
    v = np.zeros(basis.dimension)
    v[[basis.index_of((2, 0)), basis.index_of((0, 2))]] = 1.0
    psi2 = np.outer(v, v).ravel()[_parity_sectors(basis).entries]

    def search(eta_t: float, stop_above: float | None = None):
        eta = eta_t * eta_c
        bells, square = grid_forms(eta)
        return _search_grid(grid, (bells @ psi2) / (square @ psi2),
                            lambda: _filtered_slopes(pullback, basis, party, eta, psi2),
                            stop_above=stop_above)

    return search


def filtered_chsh(
    eta_t: float,
    gain: float,
    applications: int = 1,
    eta_d: float = 1.0,
    eta_c: float = 1.0,
    cutoff: int = 2,
) -> tuple[float, float]:
    """Best (delta, CHSH) for the filtered lossy state (:func:`filtered_state`).

    The full delta search of :func:`_psi2_search`, refined to
    :data:`cvbell.bell.DELTA_REFINE_TOL`.
    """
    search = _psi2_search(gain, applications, eta_d, eta_c, cutoff)(eta_t)
    return search.delta, search.value


def filtered_critical_transmission(
    gain: float,
    applications: int = 1,
    eta_d: float = 1.0,
    eta_c: float = 1.0,
    cutoff: int = 2,
    tol: float = 1e-4,
) -> float | None:
    """Critical transmission for a CHSH violation with local filters.

    Bisection on eta_t with the bin half-width re-optimized at every step
    (:func:`_psi2_search`); ``None`` when even unit transmission shows no
    violation.  A step whose grid maximum already violates is decided there
    (``stop_above``).
    """
    search = _psi2_search(gain, applications, eta_d, eta_c, cutoff)
    return bisect_threshold(lambda eta_t: search(eta_t, VIOLATION_BOUND).value, tol=tol)


def log_linear_fit(curve) -> tuple[float, float, float]:
    """Fit log(threshold) = slope * m + intercept; returns (slope, intercept, R^2).

    Quantifies the exponential decay of the critical transmission with the
    number of filter applications.
    """
    points = [(m, thr) for m, thr in curve if thr is not None]
    if len(points) < 2:
        raise ValueError("need at least two finite thresholds to fit")
    m = np.array([p[0] for p in points], dtype=float)
    y = np.log(np.array([p[1] for p in points], dtype=float))
    slope, intercept = np.polyfit(m, y, 1)
    residuals = y - (slope * m + intercept)
    total = y - y.mean()
    r2 = 1.0 - float(residuals @ residuals) / float(total @ total)
    return float(slope), float(intercept), r2

