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

The overlap integrals need no quadrature.  With the Hermite functions and
their derivatives at the bin edge, the off-diagonal elements are Wronskian
ratios ``W_mn(delta) / (n - m)`` and the diagonal follows from
``erf(delta)`` by a two-term recurrence (:func:`_ideal_binned_stack`), so a
whole delta grid is built from one ``hermite_functions`` call.  The same
values give the derivative in delta, ``2 psi(delta) psi(delta)^T`` on the
even entries, which the delta refine of :mod:`cvbell.bell` follows to the
optimum.  A small cache keeps the ideal stacks of repeated delta grids.

Detector inefficiency ``eta_h`` is modelled as a photon-loss channel in
front of an ideal measurement: every POVM element is pushed through the
adjoint loss channel.
"""

from __future__ import annotations

import math
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


def _ideal_binned_stack(deltas: np.ndarray, cutoff: int, slopes: bool = False):
    """Closed-form ideal inner elements for an array of bin half-widths.

    With ``W_mn = psi_m' psi_n - psi_m psi_n'`` and
    ``psi_n'' = (x^2 - 2n - 1) psi_n``, the off-diagonal integral over
    ``[-delta, delta]`` is ``2 W_mn(delta) / (2(n - m))`` (``W_mn(0) = 0`` for
    even n + m).  On the diagonal ``I_0 = erf(delta)/2`` and
    ``I_n = I_{n-1} - psi_{n-1}(delta) psi_n(delta) / sqrt(2n)``, and the
    element is ``2 I_n``.  Returns the ``(G, cutoff + 1, cutoff + 1)`` stack,
    and with ``slopes=True`` also its delta-derivative ``2 psi(delta) psi(delta)^T``;
    both masked by parity and carrying the Fock phase signs.
    """
    up, down, off_diagonal, diagonal_step, mask = _closed_form_constants(cutoff)
    psi = hermite_functions(cutoff + 1, deltas)
    # psi_n' = sqrt(n/2) psi_{n-1} - sqrt((n+1)/2) psi_{n+1}
    dpsi = -up * psi[1:]
    dpsi[1:] += down * psi[:-2]
    psi, dpsi = psi[:-1].T, dpsi.T  # (G, cutoff + 1)
    wronskian = dpsi[:, :, None] * psi[:, None, :] - psi[:, :, None] * dpsi[:, None, :]
    M = wronskian * off_diagonal
    # The diagonal is 2 I_n, with I_n the integral over [0, delta]; the
    # recurrence is a running sum.
    erf_half = [[0.5 * math.erf(d)] for d in deltas]
    steps = -diagonal_step * psi[:, :-1] * psi[:, 1:]
    half = np.cumsum(np.concatenate([erf_half, steps], axis=1), axis=1)
    M.reshape(len(deltas), -1)[:, :: cutoff + 2] = 2.0 * half
    M += 0.0  # parity zeros print as 0, not -0
    if not slopes:
        return M
    return M, (psi[:, :, None] * psi[:, None, :]) * (2.0 * mask)


@lru_cache(maxsize=32)
def _closed_form_constants(cutoff: int):
    """Per-cutoff factors of :func:`_ideal_binned_stack`."""
    n = np.arange(cutoff + 1)
    # Real conjugation by diag(i^n): sign -1 where |n - m| = 2 mod 4.
    signs = np.where((n[:, None] - n[None, :]) % 4 == 2, -1.0, 1.0)
    mask = signs * ((n[:, None] + n[None, :]) % 2 == 0)
    gap = n[None, :] - n[:, None]
    off_diagonal = mask / np.where(gap == 0, np.inf, gap)
    up, down = np.sqrt((n[:, None] + 1) / 2.0), np.sqrt(n[1:, None] / 2.0)
    constants = up, down, off_diagonal, 1.0 / np.sqrt(2.0 * n[1:]), mask
    for array in constants:
        array.setflags(write=False)
    return constants


@lru_cache(maxsize=16)
def _ideal_binned_cached(deltas: tuple, cutoff: int) -> np.ndarray:
    """Read-only closed-form stack of a delta grid, kept for repeated grids."""
    M = _ideal_binned_stack(np.array(deltas), cutoff)
    M.setflags(write=False)
    return M


def _deltas(deltas) -> np.ndarray:
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    if deltas.ndim != 1 or not np.all(deltas >= 0.0):
        raise ValueError("bin half-width must be non-negative")
    return deltas


def ideal_binned_homodyne(delta: float, cutoff: int) -> np.ndarray:
    """Inner POVM element of an ideal binned homodyne measurement.

    Overlap integrals of the oscillator eigenfunctions over
    ``[-delta, delta]`` in the module's Fock phase convention, in closed form
    (error function and one Hermite-function recurrence; see
    :func:`_ideal_binned_stack`).  Real symmetric and zero whenever n + m is
    odd.
    """
    return _ideal_binned_stack(_deltas([delta]), int(cutoff))[0]


@lru_cache(maxsize=64)
def _loss_channel(eta: float, cutoff: int) -> np.ndarray:
    """The loss channel as one read-only ``(n^2, n^2)`` matrix, ``n = cutoff + 1``.

    ``C = sum_k A_k (x) A_k`` over the real Kraus operators of
    :func:`cvbell.fock.loss_kraus`, so ``C[(m, m'), (n, n')] = sum_k
    A_k[m, n] A_k[m', n']``.  On a matrix raveled into a row, the forward
    channel ``sum_k A_k M A_k^T`` is ``vec(M) C^T`` and the adjoint
    ``sum_k A_k^T M A_k`` is ``vec(M) C``.
    """
    n = cutoff + 1
    kraus = np.stack(loss_kraus(eta, cutoff)).reshape(-1, n * n)
    channel = (kraus.T @ kraus).reshape((n,) * 4).transpose(0, 2, 1, 3).reshape(n * n, -1)
    channel.setflags(write=False)
    return channel


def _through_loss(eta_h: float, elements: np.ndarray, cutoff: int) -> np.ndarray:
    """Adjoint loss channel on a stack: ``sum_k A_k^dag M A_k``.

    Each matrix is raveled into a row and multiplied by the channel matrix
    (:func:`_loss_channel`).  The rows stay separate products, so a matrix
    comes out the same alone or in any stack.
    """
    if not 0.0 <= eta_h <= 1.0:
        raise ValueError("efficiency must lie in [0, 1]")
    if eta_h == 1.0:
        return elements
    channel = _loss_channel(float(eta_h), int(cutoff))
    return (elements.reshape(-1, 1, channel.shape[0]) @ channel).reshape(elements.shape)


def binned_homodyne_povms(eta_h: float, deltas, cutoff: int):
    """Stacked POVMs of a lossy binned homodyne, one per bin half-width.

    Returns ``(inner, outer, X)``, each of shape ``(G, cutoff + 1, cutoff + 1)``.
    The inner element is the ideal one conjugated by the adjoint loss
    channel, ``X_inner = sum_k A_k^dag X_inner_ideal A_k``, for the whole
    stack at once; the outer element is its complement and the observable is
    ``X = X_inner - X_outer``.  The ideal stack of each grid is kept in a
    small cache.
    """
    deltas = _deltas(deltas)
    ideal = _ideal_binned_cached(tuple(deltas.tolist()), int(cutoff))
    inner = _through_loss(eta_h, ideal, cutoff)
    outer = np.eye(cutoff + 1) - inner
    return inner, outer, inner - outer


def binned_homodyne_slopes(eta_h: float, deltas, cutoff: int):
    """Observables ``X`` of a lossy binned homodyne and their delta-derivatives.

    Returns ``(X, dX)``, each of shape ``(G, cutoff + 1, cutoff + 1)``, from
    one Hermite-function evaluation.  The ideal inner element changes with
    delta by ``psi(delta) psi(delta)^T + psi(-delta) psi(-delta)^T``; that
    passes through the same loss channel, and ``dX = 2 d(X_inner)``.  Not
    cached: every call of the delta refine is at a new point.
    """
    deltas = _deltas(deltas)
    ideal, slope = _ideal_binned_stack(deltas, int(cutoff), slopes=True)
    both = _through_loss(eta_h, np.concatenate([ideal, slope]), cutoff)
    inner = both[: len(deltas)]
    return inner - (np.eye(cutoff + 1) - inner), 2.0 * both[len(deltas):]


def lossy_binned_homodyne(eta_h: float, delta: float, cutoff: int):
    """POVM (inner, outer) and observable: :func:`binned_homodyne_povms` at one delta."""
    inner, outer, X = binned_homodyne_povms(eta_h, [delta], cutoff)
    return inner[0], outer[0], X[0]
