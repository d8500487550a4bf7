"""Hybrid-measurement POVMs: bucket photodetection and binned homodyne.

Photodetection is click / no-click with efficiency ``eta_d``; the no-click
element is ``diag((1 - eta_d)^n)`` and the dichotomic observable assigns +1
to a click, ``N = N_click - N_noclick``.

The homodyne measurement binarises the quadrature outcome x with a bin of
half-width ``delta``: the dichotomic observable assigns +1 to the inner
outcome ``|x| <= delta``, so ``X = X_inner - X_outer``.  Only this
orientation produces CHSH violations in this scheme; swapping the labels on
either observable alone merely relabels the inequality away from the
violating facet.

Conventions
-----------
Quadrature units: ``X = (a + a^dag)/sqrt(2)`` with vacuum variance 1/2; bin
half-widths are always quoted in these units.  The Fock basis is taken with
number states carrying the phase ``i^n`` relative to the basis in which the
position wavefunctions are real; concretely, the inner-bin matrix elements
are

    M[n, m] = (-1)^((m - n)/2) integral_{-delta}^{delta} psi_n psi_m dx

for even n + m (odd entries vanish by parity), with psi_n the real
harmonic-oscillator eigenfunctions.  This is the phase pairing for which the
optimal Bell states of this scheme come out with all-real coefficients;
spectra, thresholds and every CHSH value reported by this package are
invariant under the choice.

Detector inefficiency ``eta_h`` is modelled as a photon-loss channel in
front of an ideal measurement: every POVM element is pushed through the
adjoint loss channel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .fock import loss_kraus

QUADRATURE_CONVENTION = (
    "X = (a + a^dag)/sqrt(2), vacuum variance 1/2; Fock phases i^n; "
    "binned observable +1 for |x| <= delta"
)

#: Half-widths beyond this are indistinguishable from an unbinned measurement
#: for the photon numbers in scope (the inner element is identity to < 1e-9).
DELTA_MAX = 6.0


class QuadratureError(RuntimeError):
    """Raised when the overlap quadrature fails to converge to 1e-12."""


@dataclass(frozen=True)
class PhotodetectionSetting:
    """Click/no-click detector with the given efficiency."""

    efficiency: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")

    def povm(self, cutoff: int):
        return photodetection_povm(self.efficiency, cutoff)

    def observable(self, cutoff: int) -> np.ndarray:
        return photodetection_povm(self.efficiency, cutoff)[2]


@dataclass(frozen=True)
class HomodyneSetting:
    """Binned X-quadrature measurement: outcome +1 iff |x| <= bin_half_width."""

    bin_half_width: float
    efficiency: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if self.bin_half_width < 0.0:
            raise ValueError("bin half-width must be non-negative")

    def povm(self, cutoff: int):
        return lossy_binned_homodyne(self.efficiency, self.bin_half_width, cutoff)

    def observable(self, cutoff: int) -> np.ndarray:
        return lossy_binned_homodyne(self.efficiency, self.bin_half_width, cutoff)[2]


def effective_setting(setting, channel_transmission: float):
    """Fold a transmission loss into the measurement efficiency.

    Losses in the channel and losses in the detector stack multiplicatively,
    so measuring a transmitted state with efficiency eta equals measuring the
    source state with efficiency eta * eta_t.
    """
    if not 0.0 <= channel_transmission <= 1.0:
        raise ValueError("channel transmission must lie in [0, 1]")
    return replace(setting, efficiency=setting.efficiency * channel_transmission)


def photodetection_povm(eta_d: float, cutoff: int):
    """POVM (no-click, click) and observable of a bucket detector.

    Returns ``(N0, N1, N)`` with ``N0 = diag((1 - eta_d)^n)``,
    ``N1 = 1 - N0`` and ``N = N1 - N0``.
    """
    if not 0.0 <= eta_d <= 1.0:
        raise ValueError("efficiency must lie in [0, 1]")
    n = np.arange(cutoff + 1)
    no_click = np.diag((1.0 - eta_d) ** n).astype(float)
    click = np.eye(cutoff + 1) - no_click
    return no_click, click, click - no_click


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal harmonic-oscillator eigenfunctions psi_0 .. psi_n_max.

    Evaluated with the stable three-term recurrence
    ``psi_n = sqrt(2/n) x psi_{n-1} - sqrt((n-1)/n) psi_{n-2}``;
    returns an array of shape ``(n_max + 1, len(x))``.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1, x.size))
    out[0] = np.pi ** (-0.25) * np.exp(-0.5 * x**2)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(2, n_max + 1):
        out[n] = np.sqrt(2.0 / n) * x * out[n - 1] - np.sqrt((n - 1) / n) * out[n - 2]
    return out


@lru_cache(maxsize=100_000)
def _ideal_binned_cached(delta: float, cutoff: int) -> np.ndarray:
    n = np.arange(cutoff + 1)
    if delta == 0.0:
        M = np.zeros((cutoff + 1, cutoff + 1))
        M.setflags(write=False)
        return M
    # Gauss-Legendre with order doubling; the integrand is a polynomial of
    # degree <= 2*cutoff times a Gaussian, so convergence is fast.
    previous = None
    for order in (64, 128, 256, 512, 1024):
        nodes, weights = _leggauss(order)
        x = 0.5 * delta * (nodes + 1.0)  # [0, delta]; even integrand doubled below
        psi = hermite_functions(cutoff, x)
        M = (psi * weights) @ psi.T * delta
        M[(n[:, None] + n[None, :]) % 2 == 1] = 0.0  # odd n+m vanish by parity
        M = 0.5 * (M + M.T)
        if previous is not None and np.abs(M - previous).max() < 1e-13:
            M *= _fock_phase_signs(cutoff)
            M.setflags(write=False)
            return M
        previous = M
    raise QuadratureError(
        f"binned-homodyne overlap integral did not converge for delta={delta}"
    )


@lru_cache(maxsize=8)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


@lru_cache(maxsize=32)
def _fock_phase_signs(cutoff: int) -> np.ndarray:
    """Real conjugation by diag(i^n): sign -1 where |n - m| = 2 mod 4."""
    n = np.arange(cutoff + 1)
    signs = np.where((n[:, None] - n[None, :]) % 4 == 2, -1.0, 1.0)
    signs.setflags(write=False)
    return signs


def ideal_binned_homodyne(delta: float, cutoff: int) -> np.ndarray:
    """Inner POVM element of an ideal binned homodyne measurement.

    Overlap integrals of the oscillator eigenfunctions over
    ``[-delta, delta]`` in the module's Fock phase convention.  Real
    symmetric, zero whenever n + m is odd, reaching 1e-12 absolute accuracy
    by adaptive Gauss-Legendre quadrature.
    """
    if delta < 0.0:
        raise ValueError("bin half-width must be non-negative")
    return _ideal_binned_cached(float(delta), int(cutoff))


@lru_cache(maxsize=64)
def _loss_kraus_stack(eta: float, cutoff: int) -> np.ndarray:
    """The loss Kraus operators of :func:`cvbell.fock.loss_kraus`, stacked, read-only."""
    kraus = np.stack(loss_kraus(eta, cutoff))
    kraus.setflags(write=False)
    return kraus


def binned_homodyne_povms(eta_h: float, deltas, cutoff: int):
    """Stacked POVMs of a lossy binned homodyne, one per bin half-width.

    Returns ``(inner, outer, X)``, each of shape ``(G, cutoff + 1, cutoff + 1)``.
    The inner element is the ideal one conjugated by the adjoint loss
    channel, ``X_inner = sum_k A_k^dag X_inner_ideal A_k``, for the whole
    stack at once; the outer element is its complement and the observable is
    ``X = X_inner - X_outer``.
    """
    if not 0.0 <= eta_h <= 1.0:
        raise ValueError("efficiency must lie in [0, 1]")
    ideal = np.stack([ideal_binned_homodyne(d, cutoff) for d in np.atleast_1d(deltas)])
    if eta_h == 1.0:
        inner = ideal
    else:
        kraus = _loss_kraus_stack(float(eta_h), int(cutoff))[:, None]
        inner = (kraus.swapaxes(-1, -2) @ ideal @ kraus).sum(axis=0)
    outer = np.eye(cutoff + 1) - inner
    return inner, outer, inner - outer


def lossy_binned_homodyne(eta_h: float, delta: float, cutoff: int):
    """POVM (inner, outer) and observable: :func:`binned_homodyne_povms` at one delta."""
    inner, outer, X = binned_homodyne_povms(eta_h, [delta], cutoff)
    return inner[0], outer[0], X[0]
