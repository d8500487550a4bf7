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
from dataclasses import dataclass

import numpy as np

from .fock import (
    DensityOperator,
    HermitianOperator,
    ModeBasis,
    StateVector,
)
from .bell import VIOLATION_BOUND, PartyConditions, bisect_threshold, optimize_delta


def filter_diagonal(basis: ModeBasis, gain: float, applications: int = 1) -> np.ndarray:
    """Diagonal of the filter on every mode of ``basis``, applied m times.

    Each mode contributes ``((g - 1) n + 1)^m`` for its photon number n.
    Raises ``ValueError`` naming the gain, the applications and the cutoff
    when an entry overflows the float range.
    """
    with np.errstate(over="ignore"):
        diag = np.prod(((gain - 1.0) * basis.occupations + 1.0) ** applications, axis=1)
    if not np.isfinite(diag).all():
        raise _overflow_error(gain, applications, max(basis.cutoffs))
    return diag


def _overflow_error(gain: float, applications: int, cutoff: int) -> ValueError:
    return ValueError(f"the filter of gain {gain} applied {applications} times overflows "
                      f"the float range at cutoff {cutoff}")


def filter_operator(gain: float, cutoff: int) -> HermitianOperator:
    """Single-mode filter G(g) = diag((g - 1) n + 1)."""
    if gain < 0.0:
        raise ValueError("gain must be non-negative")
    basis = ModeBasis((cutoff,))
    return HermitianOperator(basis, np.diag(filter_diagonal(basis, gain)))


def psi2_state(cutoff: int = 2) -> StateVector:
    """The two-photon entangled state (|20> + |02>)/sqrt(2)."""
    basis = ModeBasis((cutoff, cutoff))
    v = np.zeros(basis.dimension, dtype=complex)
    v[basis.index_of((2, 0))] = 1.0 / math.sqrt(2.0)
    v[basis.index_of((0, 2))] = 1.0 / math.sqrt(2.0)
    return StateVector(basis, v)


def lossy_psi2(eta_t: float, cutoff: int = 2) -> DensityOperator:
    """State (|20> + |02>)/sqrt(2) after per-mode transmission eta_t.

    Closed form: the two-photon component survives with weight eta_t^2, the
    single-photon mixture |01><01| + |10><10| carries eta_t (1 - eta_t), and
    the vacuum (1 - eta_t)^2.
    """
    if not 0.0 <= eta_t <= 1.0:
        raise ValueError("eta_t must lie in [0, 1]")
    basis = ModeBasis((cutoff, cutoff))
    psi2 = psi2_state(cutoff).amplitudes
    rho = eta_t**2 * np.outer(psi2, psi2.conj())
    for occ, weight in (
        ((0, 1), eta_t * (1.0 - eta_t)),
        ((1, 0), eta_t * (1.0 - eta_t)),
        ((0, 0), (1.0 - eta_t) ** 2),
    ):
        i = basis.index_of(occ)
        rho[i, i] += weight
    return DensityOperator(basis, rho)


def apply_filters(rho: DensityOperator, gain: float, applications: int = 1) -> DensityOperator:
    """Filter both modes ``applications`` times and renormalize.

    m applications equal a single diagonal filter with entries
    ``((g - 1) n + 1)^m``; the success probability is absorbed into the
    renormalization (filtering is part of state preparation).
    """
    if applications < 1:
        raise ValueError("applications must be a positive integer")
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
    stop_above: float | None = None,
) -> tuple[float, float]:
    """Best (delta, CHSH) for the filtered lossy state.

    Transmission and coupling losses already sit in the state, so the
    measurements carry only the detector efficiencies.  ``stop_above`` is
    passed to :func:`cvbell.bell.optimize_delta`.
    """
    rho = filtered_state(eta_t, gain, applications, eta_c, cutoff)
    party = PartyConditions(eta_t=1.0, eta_d=eta_d, eta_h=1.0)
    return optimize_delta(party, party, state=rho, stop_above=stop_above)


def filtered_critical_transmission(
    gain: float,
    applications: int = 1,
    eta_d: float = 1.0,
    eta_c: float = 1.0,
    cutoff: int = 2,
    tol: float = 1e-4,
) -> float | None:
    """Critical transmission for a CHSH violation with local filters.

    Bisection on eta_t with the bin half-width re-optimized at every step,
    except where the delta grid already violates; ``None`` when even unit
    transmission shows no violation.
    """
    return bisect_threshold(
        lambda eta_t: filtered_chsh(eta_t, gain, applications, eta_d, eta_c, cutoff,
                                    stop_above=VIOLATION_BOUND)[1],
        tol=tol,
    )


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


@dataclass
class CombinedSchemeReport:
    """Threshold comparison: local filters alone versus source amplifier feed.

    ``improvement`` is (psi2 threshold) - (amplified-source threshold);
    positive values mean the source amplifier helped.
    """

    gain: float
    applications: int
    eta_d: float
    eta_c: float
    threshold_psi2: float | None
    threshold_amplified_source: float | None

    @property
    def improvement(self) -> float:
        if self.threshold_psi2 is None or self.threshold_amplified_source is None:
            return float("nan")
        return self.threshold_psi2 - self.threshold_amplified_source


def combined_source_and_local(
    gain: float = 2.0,
    applications: int = 1,
    eta_d: float = 1.0,
    eta_c: float = 1.0,
    cutoff: int = 6,
    tol: float = 1e-3,
) -> CombinedSchemeReport:
    """Feed the local filters from the amplified source instead of psi2.

    At each candidate transmission the source squeezing, amplifier gain and
    bin half-width are re-optimized; the report pairs the resulting critical
    transmission with the plain psi2 one.
    """
    from .source_amp import amplified_source_threshold_with_filters

    threshold_psi2 = filtered_critical_transmission(
        gain, applications, eta_d=eta_d, eta_c=1.0, cutoff=2, tol=tol
    )
    threshold_src = amplified_source_threshold_with_filters(
        gain,
        applications,
        eta_d=eta_d,
        eta_c=eta_c,
        cutoff=cutoff,
        tol=tol,
    )
    return CombinedSchemeReport(
        gain=gain,
        applications=applications,
        eta_d=eta_d,
        eta_c=eta_c,
        threshold_psi2=threshold_psi2,
        threshold_amplified_source=threshold_src,
    )
