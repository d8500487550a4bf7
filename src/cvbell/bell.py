"""CHSH engine for the hybrid photodetection / binned-homodyne scenario.

Each party chooses between the binned quadrature observable X and the
photodetection observable N, giving the Bell operator

    B = X (x) (X + N) + N (x) (X - N)

with Alice's factor first.  Channel transmission eta_t is folded into the
measurement efficiencies (a loss upstream of the detectors is a detector
inefficiency), so states are always written at the source.

State optimization is restricted to the subspace with at most two photons in
total, where the top eigenvector of the projected Bell operator is the
optimal entangled state for the given losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .fock import (
    DensityOperator,
    HermitianOperator,
    ModeBasis,
    StateVector,
    anchor_phase,
    embedding_indices,
    hermitian_eig,
)
from .measurement import DELTA_MAX, binned_homodyne_povms, photodetection_povm
from .parallel import map_ordered

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
    """Two-party measurement configuration with a shared bin half-width.

    ``delta_bob`` allows an unequal binning; every reported result uses the
    shared default.
    """

    alice: PartyConditions
    bob: PartyConditions
    delta: float
    symmetry: str = "custom"
    delta_bob: float | None = None

    def __post_init__(self):
        if self.delta < 0.0:
            raise ValueError("delta must be non-negative")
        if self.delta_bob is not None and self.delta_bob < 0.0:
            raise ValueError("delta_bob must be non-negative")

    @classmethod
    def symmetric(cls, eta_t=1.0, eta_d=1.0, eta_h=1.0, delta=0.0):
        party = PartyConditions(eta_t=eta_t, eta_d=eta_d, eta_h=eta_h)
        return cls(alice=party, bob=party, delta=delta, symmetry=SYMMETRIC)

    @classmethod
    def asymmetric(cls, eta_t=1.0, eta_d=1.0, eta_h=1.0, delta=0.0):
        """Source at Alice's lab: only Bob's mode suffers transmission loss."""
        alice = PartyConditions(eta_t=1.0, eta_d=eta_d, eta_h=eta_h)
        bob = PartyConditions(eta_t=eta_t, eta_d=eta_d, eta_h=eta_h)
        return cls(alice=alice, bob=bob, delta=delta, symmetry=ASYMMETRIC)


@dataclass
class BellResult:
    chsh_value: float
    optimal_state: StateVector | DensityOperator
    optimal_delta: float
    violated: bool

    def __post_init__(self):
        if abs(self.chsh_value) > TSIRELSON + 1e-9:
            raise ValueError(
                f"CHSH value {self.chsh_value} exceeds the quantum bound"
            )


@lru_cache(maxsize=16)
def _product_basis(cutoff_a: int, cutoff_b: int) -> ModeBasis:
    return ModeBasis((cutoff_a, cutoff_b))


@lru_cache(maxsize=64)
def _cap_indices(cutoff_a: int, cutoff_b: int, total_cap: int) -> np.ndarray:
    sub = ModeBasis((cutoff_a, cutoff_b), total_cap=total_cap)
    return embedding_indices(sub, _product_basis(cutoff_a, cutoff_b))


def party_observables(party: PartyConditions, deltas, cutoff: int):
    """Binned-homodyne observables X (one per delta) and photodetection N."""
    X = binned_homodyne_povms(party.eta_h * party.eta_t, deltas, cutoff)[2]
    N = photodetection_povm(party.eta_d * party.eta_t, cutoff)[2]
    return X, N


def _mode_observables(basis: ModeBasis, alice, bob, deltas, deltas_bob=None):
    """Alice's (X, N) and Bob's (X + N, X - N), trimmed to the basis.

    Trimming each mode to ``min(cutoff, total_cap)`` photons is exact: no
    element of a capped basis holds more photons in one mode.
    """
    if basis.mode_count != 2:
        raise ValueError("the Bell operator lives on a two-mode basis")
    cap = basis.total_cap
    da, db = (c + 1 if cap is None else min(c, cap) + 1 for c in basis.cutoffs)
    Xa, Na = party_observables(alice, deltas, basis.cutoffs[0])
    Xb, Nb = party_observables(
        bob, deltas if deltas_bob is None else deltas_bob, basis.cutoffs[1]
    )
    return Xa[:, :da, :da], Na[:da, :da], (Xb + Nb)[:, :db, :db], (Xb - Nb)[:, :db, :db]


def bell_matrices(basis: ModeBasis, alice: PartyConditions, bob: PartyConditions,
                  deltas, deltas_bob=None) -> np.ndarray:
    """Bell operators for a stack of bin half-widths, shape ``(G, d, d)``.

    One batched Kronecker product of the per-mode stacks, projected onto the
    basis if it is capped.  ``deltas_bob`` gives Bob his own half-widths.
    """
    Xa, Na, plus, minus = _mode_observables(basis, alice, bob, deltas, deltas_bob)
    (G, da, _), db = Xa.shape, plus.shape[-1]
    B = np.einsum("gij,gkl->gikjl", Xa, plus) + np.einsum("ij,gkl->gikjl", Na, minus)
    B = B.reshape(G, da * db, da * db)
    if basis.total_cap is not None:
        idx = _cap_indices(da - 1, db - 1, basis.total_cap)
        B = B[:, idx[:, None], idx]
    return B


def bell_matrix(basis: ModeBasis, scenario: BellScenario) -> np.ndarray:
    """Bell operator matrix on a two-mode basis (projected if capped)."""
    delta_b = scenario.delta if scenario.delta_bob is None else scenario.delta_bob
    return bell_matrices(
        basis, scenario.alice, scenario.bob, [scenario.delta], [delta_b]
    )[0]


def build_bell_operator(scenario: BellScenario, cutoff: int = 2) -> HermitianOperator:
    basis = _product_basis(cutoff, cutoff)
    return HermitianOperator(basis, bell_matrix(basis, scenario))


def chsh_value(state, scenario: BellScenario) -> float:
    """CHSH expectation of a pure or mixed two-mode state."""
    delta_b = scenario.delta if scenario.delta_bob is None else scenario.delta_bob
    chsh = _state_chsh(state, scenario.alice, scenario.bob)
    return float(chsh([scenario.delta], [delta_b])[0])


def _state_chsh(state, alice: PartyConditions, bob: PartyConditions):
    """CHSH expectation of a fixed state as a function of the bin half-widths.

    B is real, so ``Re(rho)``, embedded in the product basis as
    ``(da, db, da, db)``, is contracted against the per-mode stacks.
    """
    rho = state.to_density() if isinstance(state, StateVector) else state
    ca, cb = rho.basis.cutoffs
    full = _product_basis(ca, cb)
    idx = embedding_indices(rho.basis, full)
    matrix = np.zeros((full.dimension, full.dimension))
    matrix[np.ix_(idx, idx)] = rho.matrix.real
    matrix = matrix.reshape(ca + 1, cb + 1, ca + 1, cb + 1)

    def chsh(deltas, deltas_bob=None):
        Xa, Na, plus, minus = _mode_observables(full, alice, bob, deltas, deltas_bob)
        return (np.einsum("ikjl,gji,glk->g", matrix, Xa, plus)
                + np.einsum("ikjl,ji,glk->g", matrix, Na, minus))

    return chsh


def optimal_state(
    scenario: BellScenario, cutoff: int = 2, total_cap: int = 2
) -> tuple[StateVector, float]:
    """Top eigenpair of the Bell operator on the photon-capped subspace.

    The eigenvector's global phase is fixed so that its largest-magnitude
    coefficient is real positive.
    """
    basis = ModeBasis((cutoff, cutoff), total_cap=total_cap)
    B = bell_matrix(basis, scenario)
    w, v = hermitian_eig(B)
    return StateVector(basis, anchor_phase(v[:, -1])), float(w[-1])


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


def optimize_delta(
    alice: PartyConditions,
    bob: PartyConditions,
    state=None,
    cutoff: int = 2,
    total_cap: int = 2,
    grid_points: int = 241,
    tol: float = 1e-6,
    delta_max: float = DELTA_MAX,
) -> tuple[float, float]:
    """Best bin half-width and the CHSH value it achieves.

    With ``state=None`` the objective at each delta is the top eigenvalue of
    the Bell operator on the photon-capped subspace; otherwise it is the
    CHSH expectation of the fixed (pure or mixed) state.  The whole grid is
    evaluated in one batched call, then a golden section refines between the
    best grid point's neighbours.
    """
    if state is None:
        basis = ModeBasis((cutoff, cutoff), total_cap=total_cap)

        def objective(deltas):
            return hermitian_eig(bell_matrices(basis, alice, bob, deltas))[0][:, -1]

    else:
        objective = _state_chsh(state, alice, bob)

    grid = np.linspace(0.0, delta_max, grid_points)
    values = objective(grid)
    k = int(np.argmax(values))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid_points - 1)]
    if hi <= lo:
        return float(grid[k]), float(values[k])
    delta_star, best = golden_section_max(
        lambda delta: float(objective(delta)[0]), lo, hi, tol
    )
    if best < values[k]:  # flat objective: keep the grid maximizer
        return float(grid[k]), float(values[k])
    return float(delta_star), float(best)


def best_violation(
    alice: PartyConditions,
    bob: PartyConditions,
    state=None,
    symmetry: str = "custom",
    cutoff: int = 2,
    total_cap: int = 2,
) -> BellResult:
    """Delta-optimized CHSH value, with the optimal subspace state if free."""
    delta_star, value = optimize_delta(
        alice, bob, state=state, cutoff=cutoff, total_cap=total_cap
    )
    scen = BellScenario(alice=alice, bob=bob, delta=delta_star, symmetry=symmetry)
    if state is None:
        state, value = optimal_state(scen, cutoff=cutoff, total_cap=total_cap)
    return BellResult(
        chsh_value=value,
        optimal_state=state,
        optimal_delta=delta_star,
        violated=value > 2.0,
    )


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


def bisect_threshold(max_chsh, lo: float = 0.0, hi: float = 1.0, tol: float = 1e-4):
    """Smallest parameter value at which ``max_chsh`` exceeds 2.

    Assumes monotonicity (more efficiency never hurts).  Returns ``None``
    when there is no violation at the upper end.
    """
    bound = 2.0 + VIOLATION_MARGIN
    if max_chsh(hi) <= bound:
        return None
    if max_chsh(lo) > bound:
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if max_chsh(mid) > bound:
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
    subspace state) is re-optimized at every bisection step.
    """
    if target not in ("eta_t", "eta_d"):
        raise ValueError("target must be 'eta_t' or 'eta_d'")

    def max_chsh(value):
        kwargs = {"eta_t": eta_t, "eta_d": eta_d}
        kwargs[target] = value
        scen = _scenario_for(symmetry, eta_h=eta_h, **kwargs)
        return optimize_delta(
            scen.alice, scen.bob, state=state, cutoff=cutoff, total_cap=total_cap
        )[1]

    return bisect_threshold(max_chsh, tol=tol)


@dataclass
class RegionPoint:
    eta_d: float
    eta_t_star: float | None

    @property
    def violation_possible(self) -> bool:
        return self.eta_t_star is not None


def _region_solve(eta_d, symmetry, state, cutoff, total_cap, tol):
    thr = critical_efficiency(
        "eta_t",
        symmetry=symmetry,
        eta_d=eta_d,
        state=state,
        cutoff=cutoff,
        total_cap=total_cap,
        tol=tol,
    )
    return RegionPoint(eta_d=float(eta_d), eta_t_star=thr)


def region_boundary(
    eta_d_values,
    symmetry: str = SYMMETRIC,
    state=None,
    cutoff: int = 2,
    total_cap: int = 2,
    tol: float = 1e-4,
    workers: int = 1,
) -> list[RegionPoint]:
    """Critical transmission as a function of detection efficiency.

    One threshold solve per grid point; points without any violation are
    reported with ``eta_t_star=None``.
    """
    solve = partial(
        _region_solve,
        symmetry=symmetry,
        state=state,
        cutoff=cutoff,
        total_cap=total_cap,
        tol=tol,
    )
    return map_ordered(solve, eta_d_values, workers=workers)
