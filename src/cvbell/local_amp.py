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
import sys

import numpy as np

from .fock import (
    DensityOperator,
    HermitianOperator,
    ModeBasis,
    StateVector,
    shared_basis,
)
from .bell import (
    SYMMETRIC,
    PartyConditions,
    _bilinear_coefficients,
    _fixed_state,
    _mode_slopes,
    _packed_kron,
    _parity_sectors,
    _search_grid,
    _sweep,
    _swept_state_chsh,
    _threshold,
    _trimmed_cutoffs,
)
from .measurement import _expand_loss, _through_loss, bernstein_weights, delta_grid


def filter_diagonal(basis: ModeBasis, gain: float, applications: int = 1) -> np.ndarray:
    """Diagonal of the filter on every mode of ``basis``, applied m times.

    Each mode contributes ``((g - 1) n + 1)^m`` for its photon number n.
    Every filter path of the package goes through here or through
    :func:`_filter_entries`, which checks the arguments: the gain must be
    finite and at least 1, and the filter applied a whole number of times,
    at least once.  Raises ``ValueError`` naming the gain, the applications
    and the cutoff when an entry overflows the float range.
    """
    return _filter_entries(basis.occupations, gain, applications, max(basis.cutoffs))


def _filter_entries(occupations: np.ndarray, gain: float, applications: int,
                    cutoff: int) -> np.ndarray:
    """The :func:`filter_diagonal` entries of the rows of ``occupations``.

    An overflow error names ``cutoff``.
    """
    if not 1.0 <= gain < math.inf:  # also rejects NaN
        raise ValueError(f"filter gain must be finite and at least 1, got {gain}")
    if not applications >= 1:
        raise ValueError(f"filter applications must be at least 1, got {applications}")
    if not float(applications).is_integer():
        raise ValueError(f"filter applications must be a whole number, got {applications}")
    with np.errstate(over="ignore"):
        diag = np.prod(((gain - 1.0) * occupations + 1.0) ** applications, axis=1)
    if not np.isfinite(diag).all():
        raise ValueError(f"the filter of gain {gain} applied {applications} times overflows "
                         f"the float range at cutoff {cutoff}")
    return diag


def _mode_filter(basis: ModeBasis, gain: float, applications: int, cutoff: int) -> np.ndarray:
    """One mode's filter for the per-mode factors on ``basis``, scaled.

    The filter is checked once at the caller's ``cutoff``, in closed form:
    the largest entry of the two-mode diagonal there is the entry of the one
    occupation ``(cutoff, cutoff)``, ``((g - 1) cutoff + 1)^(2m)``, so
    :func:`_filter_entries` on that one row raises the
    :func:`filter_diagonal` error for invalid arguments and for an overflow
    of that diagonal, bit for bit, and no basis is sized by ``cutoff``.  A
    cutoff past the float range is checked as the largest float.  Then one
    mode's filter is built up to the largest cutoff of ``basis``, shared by
    both modes and by every step and refine of a solve.
    Its entries, from 1 to its largest, M, are
    scaled by a power of two near ``1/sqrt(M)``, so a product of four
    entries lies between about ``1/M^2`` and ``M^2``: it neither overflows
    nor underflows where the two-mode diagonal is finite, and the common
    factor cancels exactly in every ratio to ``L^dag(F^2)``.
    """
    corner = np.full((1, 2), min(cutoff, sys.float_info.max), dtype=float)
    _filter_entries(corner, gain, applications, cutoff)
    f = filter_diagonal(shared_basis((max(basis.cutoffs),)), gain, applications)
    return np.ldexp(f, -(np.frexp(f.max())[1] // 2))


def _swept_squares(basis: ModeBasis, f: np.ndarray, sweeps) -> tuple:
    """``L^dag(f^2)`` on each mode as a polynomial in a swept transmission v.

    The filtered solvers' denominators (``Tr(rho L^dag(F^2))`` is the trace
    of the filtered state): the filtered identity ``f I f`` at each mode's
    trimmed cutoff, expanded through the loss v as
    :func:`cvbell.bell._swept_observables` expands the filtered factors
    where the transmission sweep ``sweeps`` enters the mode, else the
    degree-0 stack.
    """
    squares = []
    for cutoff, swept in zip(_trimmed_cutoffs(basis), sweeps):
        square = np.diag(f[:cutoff + 1] ** 2)
        squares.append(_expand_loss(square, cutoff) if any(swept) else square[None])
    return tuple(squares)


def _filtered_slopes(basis: ModeBasis, party: PartyConditions, f: np.ndarray, etas: tuple,
                     rho: np.ndarray):
    """The refine's ``value_and_slope`` of a filtered state (:func:`cvbell.bell._search_grid`).

    ``Tr(rho L^dag(F B F))`` and ``Tr(rho L^dag(F dB F))`` over
    ``Tr(rho L^dag(F^2))``, which does not depend on delta, for ``rho``
    packed on the sectors of ``basis`` (:func:`cvbell.bell._packed_kron`),
    both parties measuring as ``party``, the mode filter ``f`` of
    :func:`_mode_filter` and the transmissions ``etas`` of the two modes.
    Filter and loss factor by mode,

        L^dag(F (a (x) b) F) = L_a^dag(f a f) (x) L_b^dag(f b f),

    so each factor is filtered and goes through its mode's one loss
    (:func:`cvbell.measurement._through_loss`); capping after the loss is
    exact, because loss never raises the photon number.
    """
    def pulled(M, eta):
        n = M.shape[-1]
        return _through_loss(eta, f[:n, None] * M * f[:n], n - 1)

    def form(terms):
        return _packed_kron(basis, ((pulled(a, etas[0]), pulled(b, etas[1]))
                                    for a, b in terms)) @ rho

    norm = form([tuple(np.eye(c + 1) for c in _trimmed_cutoffs(basis))])

    def value_and_slope(deltas):
        values, slopes = _mode_slopes(basis, party, party, deltas)
        return form(values) / norm, form(slopes) / norm

    return value_and_slope


def filter_operator(gain: float, cutoff: int) -> HermitianOperator:
    """Single-mode filter G(g) = diag((g - 1) n + 1)."""
    basis = shared_basis((cutoff,))
    return HermitianOperator(basis, np.diag(filter_diagonal(basis, gain)))


def psi2_state(cutoff: int = 2) -> StateVector:
    """The two-photon entangled state (|20> + |02>)/sqrt(2), at a per-mode cutoff of at least 2."""
    if cutoff < 2:
        raise ValueError(f"psi2 needs a per-mode cutoff of at least 2, got {cutoff}")
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
    reference that the filtered forms of the solvers are tested against.
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


def _psi2_search(gain: float, applications: int, eta_d: float, eta_c: float, cutoff: int):
    """The delta search of the filtered psi2 at a transmission: ``search(eta_t, stop_above)``.

    The 241-point grid reads ``Tr(psi2 L^dag(F B F)) / Tr(psi2 L^dag(F^2))``
    through the loss of the step's scenario (:func:`cvbell.bell._sweep`) at
    ``eta_t * eta_c``, which refuses a loss outside [0, 1]; ``eta_c`` is
    checked once, here.  A step is one evaluation of the filtered CHSH
    polynomial (:func:`cvbell.bell._swept_state_chsh`) and of the squares'
    (:func:`_swept_squares`), both built once, on the cutoff-2 factors where
    psi2 lives, after the filter check at ``cutoff`` (:func:`_mode_filter`).
    The refine, when it runs, reads :func:`_filtered_slopes` at the step's
    loss.  The measurements carry only the detector efficiencies.  psi2
    holds two photons in a mode, so a per-mode cutoff below 2 is rejected;
    above 2 the cutoff bounds only the filter check, and psi2 is built once,
    on its own 3 x 3 box.
    """
    if not 0.0 <= eta_c <= 1.0:  # also rejects NaN
        raise ValueError(f"eta_c must lie in [0, 1], got {eta_c}")
    state = psi2_state(min(cutoff, 2))
    psi2 = _fixed_state(state)
    basis = psi2.basis
    f = _mode_filter(basis, gain, applications, cutoff)
    scenario, base, sweeps = _sweep("eta_t", SYMMETRIC, 1.0, eta_d, 1.0)
    grid = delta_grid(241)
    bells = _swept_state_chsh(psi2, base.alice, base.bob, sweeps, grid, f)
    square = _bilinear_coefficients(psi2.Q, [_swept_squares(basis, f, sweeps)])
    rho = state.to_density().matrix.real.ravel()[_parity_sectors(basis).entries]

    def search(eta_t: float, stop_above: float | None = None):
        eta = scenario(eta_t * eta_c).alice.eta_t
        w = bernstein_weights(eta, len(bells) - 1)
        return _search_grid(grid, (w @ bells) / (w @ square),
                            lambda: _filtered_slopes(basis, base.alice, f, (eta, eta), rho),
                            stop_above=stop_above)

    return search


def filtered_chsh(
    eta_t: float,
    gain: float,
    applications: int = 1,
    eta_d: float = 1.0,
    cutoff: int = 2,
) -> tuple[float, float]:
    """Best (delta, CHSH) for the filtered lossy state.

    The state is ``apply_filters(lossy_psi2(eta_t, cutoff), gain,
    applications)``; the full delta search of :func:`_psi2_search`, refined
    to :data:`cvbell.bell.DELTA_REFINE_TOL`.
    """
    search = _psi2_search(gain, applications, eta_d, 1.0, cutoff)(eta_t)
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

    Bisection on eta_t (:func:`cvbell.bell._threshold`) with the bin
    half-width re-optimized at every step but the local end
    (:func:`_psi2_search`); ``None`` when even unit transmission shows no
    violation.  A step whose grid maximum already violates is decided there
    (``stop_above``).
    """
    return _threshold(_psi2_search(gain, applications, eta_d, eta_c, cutoff), tol)


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

