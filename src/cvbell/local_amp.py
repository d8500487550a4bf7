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
    _packed_kron,
    _parity_sectors,
    _search_grid,
    _state_chsh,
    bisect_threshold,
    optimize_delta,
)
from .measurement import DELTA_MAX, _lossy_state, _through_loss


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
        raise _overflow_error(gain, applications, max(basis.cutoffs))
    return diag


def _overflow_error(gain: float, applications: int, cutoff: int) -> ValueError:
    return ValueError(f"the filter of gain {gain} applied {applications} times overflows "
                      f"the float range at cutoff {cutoff}")


def _filtered_pullback(basis: ModeBasis, alice: PartyConditions, bob: PartyConditions,
                       deltas, gain: float, applications: int, cutoff: int):
    """The filtered Bell stack and ``F^2``, pulled back through a two-mode loss.

    Returns ``pullback(eta)``, which gives ``L^dag(F B F)`` for the Bell
    operators of the two parties at ``deltas``, and ``L^dag(F^2)``, packed on
    the photon-parity sectors of the capped two-mode ``basis``
    (:func:`cvbell.bell._packed_kron`), with ``F`` the filter of ``gain``
    applied ``applications`` times on each mode and ``L`` the transmission
    ``eta`` on each mode.  Every factor is a product over the two modes, so

        L^dag(F (A (x) B) F) = L_a^dag(f A f) (x) L_b^dag(f B f),

    and both are assembled from single-mode factors, pulled back through the
    loss (:func:`cvbell.measurement._through_loss`) at each eta.  The filter
    ``f`` of each mode, whose entries run from 1 (vacuum) to its largest
    entry M, is scaled by a power of two near ``1/sqrt(M)``: a product of
    four entries then lies between about ``1/M^2`` and ``M^2``, so neither
    overflows nor underflows wherever the filter's two-mode diagonal is
    finite, and every product is exactly the unscaled one times a common
    factor, which cancels in each CHSH ratio ``Tr(rho L^dag(F B F)) /
    Tr(rho L^dag(F^2))``.  Capping after the pullback is exact, because loss
    never raises the photon number.  Invalid filter arguments raise the
    :func:`filter_diagonal` error, and a filter whose single-mode diagonal
    overflows the float range raises it naming the caller's ``cutoff``.
    """
    # Checks the arguments (and an overflow at the caller's own cutoff) first,
    # so that every error below is an overflow at the modes' own cutoff.
    filter_diagonal(shared_basis((cutoff,)), gain, applications)
    (Xa, plus), (Na, minus) = _mode_observables(basis, alice, bob, deltas)

    def filtered(*ops):
        """``f O f`` for each stack, with ``f^2`` last: one mode's factors."""
        mode_cutoff = ops[0].shape[-1] - 1
        try:
            f = filter_diagonal(shared_basis((mode_cutoff,)), gain, applications)
        except ValueError:
            raise _overflow_error(gain, applications, cutoff) from None
        f = np.ldexp(f, -(np.frexp(f.max())[1] // 2))
        stack = np.concatenate([*(op.reshape(-1, mode_cutoff + 1, mode_cutoff + 1) for op in ops),
                                np.eye(mode_cutoff + 1)[None]])
        return f[:, None] * stack * f, mode_cutoff

    # The filtered factors do not depend on eta.
    (alice_ops, ca), (bob_ops, cb) = filtered(Xa, Na), filtered(plus, minus)
    G = len(Xa)

    def pullback(eta: float):
        xa, na, square_a = np.split(_through_loss(eta, alice_ops, ca), [G, G + 1])
        xb_plus, xb_minus, square_b = np.split(_through_loss(eta, bob_ops, cb), [G, 2 * G])
        bells = _packed_kron(basis, ((xa, xb_plus), (na, xb_minus)))
        return bells, _packed_kron(basis, ((square_a, square_b),))[0]

    return pullback


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
    (1 - eta_t)^2 (:func:`cvbell.measurement._lossy_state`).
    """
    if not 0.0 <= eta_t <= 1.0:
        raise ValueError("eta_t must lie in [0, 1]")
    basis = shared_basis((cutoff, cutoff))
    psi2 = psi2_state(cutoff).amplitudes.real  # real amplitudes: a real loss product
    return DensityOperator(basis, _lossy_state(basis, np.outer(psi2, psi2), eta_t))


def apply_filters(rho: DensityOperator, gain: float, applications: int = 1) -> DensityOperator:
    """Filter both modes ``applications`` times and renormalize.

    m applications equal a single diagonal filter with entries
    ``((g - 1) n + 1)^m``; the success probability is absorbed into the
    renormalization (filtering is part of state preparation).
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
    """Lossy two-photon state after both parties' filters."""
    return apply_filters(lossy_psi2(eta_t * eta_c, cutoff), gain, applications)


def filtered_chsh(
    eta_t: float,
    gain: float,
    applications: int = 1,
    eta_d: float = 1.0,
    eta_c: float = 1.0,
    cutoff: int = 2,
) -> tuple[float, float]:
    """Best (delta, CHSH) for the filtered lossy state.

    Transmission and coupling losses already sit in the state, so the
    measurements carry only the detector efficiencies.
    """
    rho = filtered_state(eta_t, gain, applications, eta_c, cutoff)
    party = PartyConditions(eta_t=1.0, eta_d=eta_d, eta_h=1.0)
    return optimize_delta(party, party, state=rho)


def filtered_critical_transmission(
    gain: float,
    applications: int = 1,
    eta_d: float = 1.0,
    eta_c: float = 1.0,
    cutoff: int = 2,
    tol: float = 1e-4,
) -> float | None:
    """Critical transmission for a CHSH violation with local filters.

    Bisection on eta_t with the bin half-width re-optimized at every step;
    ``None`` when even unit transmission shows no violation.  Each step is
    decided on the 241-point delta grid of the pulled-back forms

        Tr(psi2 L^dag(F B F)) / Tr(psi2 L^dag(F^2)),

    the CHSH values of :func:`filtered_state` (:func:`_filtered_pullback`):
    the filtered measurement stacks are built once per solve, on the
    photon-capped basis of two photons that psi2 and its losses live on, and
    each step pulls them back through its loss ``eta_t * eta_c``.  Only a
    step whose grid maximum neither violates nor sits at delta = 0 builds
    the filtered state, for the slope refine (:func:`cvbell.bell._search_grid`).
    """
    # The check of apply_filters: the filter on the caller's two-mode basis.
    filter_diagonal(shared_basis((cutoff, cutoff)), gain, applications)
    basis = shared_basis((cutoff, cutoff), 2)
    party = PartyConditions(eta_t=1.0, eta_d=eta_d, eta_h=1.0)
    grid = np.linspace(0.0, DELTA_MAX, 241)
    pullback = _filtered_pullback(basis, party, party, grid, gain, applications, cutoff)
    # (|20> + |02>)(<20| + <02|) on the packed entries: psi2 up to its norm,
    # which cancels in the ratio.
    v = np.zeros(basis.dimension)
    v[[basis.index_of((2, 0)), basis.index_of((0, 2))]] = 1.0
    psi2 = np.outer(v, v).ravel()[_parity_sectors(basis).entries]

    def max_chsh(eta_t):
        bells, square = pullback(eta_t * eta_c)

        def slope_objective():
            rho = filtered_state(eta_t, gain, applications, eta_c, cutoff)
            return _state_chsh(rho, party, party)[1]

        return _search_grid(grid, (bells @ psi2) / (square @ psi2), slope_objective,
                            stop_above=VIOLATION_BOUND).value

    return bisect_threshold(max_chsh, tol=tol)


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

