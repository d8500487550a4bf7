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
largest, and each sector is solved on its own.  For symmetric parties B
also commutes with the mode swap, and the sectors are solved in swap-even
and swap-odd halves (:func:`_swap_layout`).  Every two-mode operator of a
solver is gathered in the packed sector layout (:func:`_packed_kron`);
:func:`bell_matrices` is the dense reference.

Every loss threshold of the package is :func:`bisect_threshold` applied to
a max-CHSH function; :func:`critical_efficiency` is this scenario's.  A
violation-region boundary is such a solver mapped over detection
efficiencies, one solve per value (as :mod:`cvbell.cli` does).
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
    _check_hermitian,
    _product_tensor,
    anchor_phase,
    hermitian_eig,
    hermitian_eigvals,
    shared_basis,
)
from .measurement import (
    _expand_loss,
    bernstein_weights,
    binned_homodyne_povms,
    binned_homodyne_slopes,
    delta_grid,
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


def _same_factors(basis, alice, bob) -> tuple[bool, bool]:
    """Whether Bob's X and Bob's N are Alice's: the same trimmed cutoff and efficiency.

    X depends on ``eta_h eta_t`` and N on ``eta_d eta_t``.  When both agree,
    B commutes with the mode swap (:func:`_swap_layout`).
    """
    ca, cb = _trimmed_cutoffs(basis)
    return (ca == cb and alice.eta_h * alice.eta_t == bob.eta_h * bob.eta_t,
            ca == cb and alice.eta_d * alice.eta_t == bob.eta_d * bob.eta_t)


def _party_factors(basis, alice, bob, homodyne, photodetection, sweeps=((False, False),) * 2):
    """Xa, Xb, Na and Nb, each built once per (efficiency, trimmed cutoff, swept).

    ``homodyne`` and ``photodetection`` build one party's X (at ``eta_h
    eta_t``) and N (at ``eta_d eta_t``) from that key; ``sweeps`` holds per
    party whether its X and its N are swept.  Bob's factor is Alice's object
    exactly where the two agree and are swept alike (:func:`_same_factors`).
    """
    homodyne, photodetection = lru_cache(homodyne), lru_cache(photodetection)
    parties = list(zip((alice, bob), _trimmed_cutoffs(basis), sweeps))
    X = [homodyne(p.eta_h * p.eta_t, c, x) for p, c, (x, _) in parties]
    N = [photodetection(p.eta_d * p.eta_t, c, n) for p, c, (_, n) in parties]
    return (*X, *N)


def _mode_observables(basis, alice, bob, deltas):
    """The terms ``((Xa, Xb + Nb), (Na, Xb - Nb))`` of B at the trimmed cutoffs.

    X is the binned-homodyne observable (one per delta), N photodetection:
    the degree-0 factors of :func:`_swept_observables`, with nothing swept.
    """
    factors = _swept_observables(basis, alice, bob, ((False, False),) * 2, deltas)
    return _observable_terms(*(f[0] for f in factors))


def _observable_terms(Xa, Xb, Na, Nb):
    """The terms ``((Xa, Xb + Nb), (Na, Xb - Nb))`` of B from the four observables."""
    return (Xa, Xb + Nb), (Na, Xb - Nb)


def _mode_slopes(basis, alice, bob, deltas):
    """The terms of B and of dB/d(delta) at shared, uncached bin half-widths.

    ``B = Xa (x) plus + Na (x) minus`` and, as N does not depend on delta,
    ``dB = dXa (x) plus + (Xa + Na) (x) dXb``.  Returns the pairs
    ``((Xa, plus), (Na, minus))`` and ``((dXa, plus), (Xa + Na, dXb))``.
    """
    (Xa, dXa), (Xb, dXb), Na, Nb = _party_factors(
        basis, alice, bob, lambda eta, cutoff, _: binned_homodyne_slopes(eta, deltas, cutoff),
        lambda eta, cutoff, _: photodetection_povm(eta, cutoff)[2])
    plus = Xb + Nb
    return ((Xa, plus), (Na, Xb - Nb)), ((dXa, plus), (Xa + Na, dXb))


def _sweep(target: str, symmetry: str, eta_t: float, eta_d: float, eta_h: float):
    """A threshold solve's scenarios as the efficiency ``target`` sweeps a value v.

    Returns ``(scenario, base, sweeps)``: ``scenario(v)`` is the scenario at
    v, ``base`` the one at v = 1, and ``sweeps`` holds per party whether v
    enters its X and whether it enters its N.  Losses compose, so a factor
    that v enters is the base one through a loss v on its mode: with v the
    transmission, ``X(eta_h v) = L^dag_v(X(eta_h))`` and
    ``N(eta_d v) = L^dag_v(N(eta_d))``; with v the detector efficiency,
    ``N(v eta_t) = L^dag_v(N(eta_t))``.
    """
    fixed = {"eta_t": eta_t, "eta_d": eta_d}

    def scenario(value):
        return _scenario_for(symmetry, eta_h=eta_h, **{**fixed, target: value})

    base, zero = scenario(1.0), scenario(0.0)
    sweeps = tuple((one.eta_t != none.eta_t, one.eta_t != none.eta_t or one.eta_d != none.eta_d)
                   for one, none in ((base.alice, zero.alice), (base.bob, zero.bob)))
    return scenario, base, sweeps


def _swept_observables(basis, alice, bob, sweeps, deltas, f=None):
    """Xa, Xb, Na and Nb as polynomials in a swept efficiency v (:func:`_sweep`).

    ``alice`` and ``bob`` hold the efficiencies at v = 1.  A factor that v
    enters is pulled back through the loss v once, for every v
    (:func:`cvbell.measurement._expand_loss`): a ``(c + 1, ...)`` stack of
    coefficients of :func:`cvbell.measurement.bernstein_weights` of degree c,
    the mode's trimmed cutoff.  A factor that v does not enter is the
    degree-0 stack ``(1, ...)``.  Bob's factor is Alice's object where the
    two agree and are swept alike (:func:`_party_factors`).  With a mode
    filter ``f`` (:func:`cvbell.local_amp._mode_filter`) each factor M is
    ``f M f`` before the loss: the filter acts on the state after the loss
    v, as the parties' filters do.
    """
    def expanded(M, cutoff, swept):
        if f is not None:
            M = f[:cutoff + 1, None] * M * f[:cutoff + 1]
        return _expand_loss(M, cutoff) if swept else M[None]

    return _party_factors(
        basis, alice, bob,
        lambda eta, cutoff, swept: expanded(binned_homodyne_povms(eta, deltas, cutoff)[2],
                                            cutoff, swept),
        lambda eta, cutoff, swept: expanded(photodetection_povm(eta, cutoff)[2], cutoff, swept),
        sweeps)


def _swept_at(factors, value: float):
    """The four :func:`_swept_observables` at one value v.

    Each stack of degree d > 0 is contracted with ``bernstein_weights(v, d)``
    (d + 1 scaled additions); a degree-0 stack is its own value, and a
    factor shared by both parties is evaluated once.
    """
    Xa, Xb, Na, Nb = factors
    weights = {}

    def at(f):
        if len(f) == 1:
            return f[0]
        if len(f) not in weights:
            weights[len(f)] = bernstein_weights(value, len(f) - 1)
        return (weights[len(f)] @ f.reshape(len(f), -1)).reshape(f.shape[1:])

    Xa_v, Na_v = at(Xa), at(Na)
    return Xa_v, Xa_v if Xb is Xa else at(Xb), Na_v, Na_v if Nb is Na else at(Nb)


def _common_degree(*factors):
    """The coefficient stacks of one mode's factors, all at the largest degree d among them.

    Only degrees 0 and d occur (:func:`_swept_observables`); a degree-0
    stack M is raised as ``M = M (eta + (1 - eta))^d``, coefficients
    ``C(d, i) M``.
    """
    d = max(len(f) for f in factors) - 1
    raised = np.array([math.comb(d, i) for i in range(d + 1)], dtype=float)
    return [f if len(f) == d + 1 else raised.reshape(-1, *[1] * (f.ndim - 1)) * f
            for f in factors]


def _bilinear_coefficients(Q: np.ndarray, terms) -> np.ndarray:
    """``sum Tr rho (a (x) b)`` over the terms, as a polynomial: ``(da + db + 1, g)``.

    Each factor is a ``(d + 1, g, n, n)`` stack of coefficients of
    :func:`cvbell.measurement.bernstein_weights` (g is 1 or the grid), and
    the weights multiply as ``w_i(da) w_j(db) = w_{i + j}(da + db)``, so
    coefficients i of a and j of b meet at degree i + j.  Each pair is
    contracted with the ``Q`` of :func:`_fixed_state` as
    ``vec(a) Q vec(b)``: ``Tr rho (a (x) b) = vec(a^T) Q vec(b^T)``, and
    rho is Hermitian, so Q is unchanged when both of its index pairs swap
    and the transposes drop out.  At degree 0 (``(1, g, n, n)`` factors)
    this is the CHSH at one loss, as :func:`_state_chsh` reads it.
    """
    out = 0.0
    for a, b in terms:
        left = a.reshape(len(a), -1, Q.shape[0]) @ Q
        pairs = np.einsum("i...k,j...k->ij...", left, b.reshape(len(b), -1, Q.shape[1]))
        folded = np.zeros((len(a) + len(b) - 1, pairs.shape[-1]))
        for i, row in enumerate(pairs):
            folded[i:i + len(b)] += row
        out = out + folded
    return out


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
        # Indexing gathers the last axis faster than np.take (0.5 against 0.77 ms
        # for the 241-point cap-6 stack, 12.7 against 16.9 ms at cap 16).
        term = a.reshape(*a.shape[:-2], -1)[..., ia] * b.reshape(*b.shape[:-2], -1)[..., ib]
        out = term if out is None else out + term
    return out


@dataclass(frozen=True)
class _Layout:
    """The blocks a Bell operator is solved on (:func:`_layout`).

    ``runs`` has a ``(k, n)`` pair per run of k blocks of size n, the blocks
    packed one after another.  ``projection`` is None when the blocks are
    the parity sectors as gathered (:func:`_packed_kron`); otherwise it is
    ``(index, signs, weights)`` of :func:`_swap_layout`.  ``states[b]`` is
    ``(rows, columns, coefficients)``: a vector v of block b is the state
    with amplitudes ``coefficients * v[columns]`` at the basis positions
    ``rows``.
    """

    runs: tuple
    states: tuple
    projection: tuple | None = None


@lru_cache(maxsize=64)
def _sector_layout(basis: ModeBasis) -> _Layout:
    """The photon-parity sectors of :func:`_parity_sectors` as solved blocks."""
    sectors = _parity_sectors(basis)
    states = tuple((p, np.arange(p.size), np.ones(p.size)) for p in sectors.positions)
    for _, columns, coefficients in states:
        columns.setflags(write=False)
        coefficients.setflags(write=False)
    return _Layout(sectors.runs, states)


@lru_cache(maxsize=64)
def _swap_layout(basis: ModeBasis) -> _Layout:
    """Swap-adapted blocks of the parity sectors, for a B that commutes with the swap.

    The swap ``|a, b> -> |b, a>`` maps the (P, P) sectors onto themselves and
    the (0, 1) sector onto (1, 0), which has the same spectrum and is not
    solved.  A (P, P) sector splits into a swap-even block on ``|a, a>`` and
    ``(|a, b> + |b, a>)/sqrt(2)`` and a swap-odd block on
    ``(|a, b> - |b, a>)/sqrt(2)``, a < b; (0, 1) is kept whole.  Blocks are
    in sector order, even before odd.

    A block entry is the projection ``P B P`` of the gathered entries g
    (:func:`_packed_kron`), with weight 1 between two ``|a, a>``,
    1/sqrt(2) between one and a pair and 1/2 between two pairs: the gathered
    B is swap-symmetric only up to rounding, so both images are read.  With
    ``(f, f')`` the first elements of the entry's row and column and
    ``(s, s')`` their images, the entry is

        w ((g[f, f'] + sign g[f, s']) + (sign g[s, f'] + g[s, s'])),

    sign -1 in a swap-odd block.  An element that is its own image
    (``|a, a>`` and all of (0, 1)) is read twice, so w is the weight
    quartered or halved, and the sums are exact doublings there.
    ``projection`` holds the four gather positions of every entry (all
    ``g[f, f']`` first), the signs of the middle two and w.
    """
    sectors, occupations = _parity_sectors(basis), basis.occupations
    half = math.sqrt(0.5)
    table = np.array([[0.25, 0.5 * half], [0.5 * half, 0.5]])
    gathered, signs, weights, states, sizes, offset = [], [], [], [], [], 0
    for p in sectors.positions:
        n, occ = p.size, occupations[p]
        if occ[0, 0] % 2 != occ[0, 1] % 2:
            # (0, 1) is kept as gathered; (1, 0), its swap image, is not solved.
            halves = [(np.arange(n), np.arange(n), 1.0)] if occ[0, 0] % 2 == 0 else []
        else:
            local = {tuple(o): i for i, o in enumerate(occ.tolist())}
            image = np.array([local[b, a] for a, b in occ.tolist()])
            first = np.flatnonzero(occ[:, 0] <= occ[:, 1])
            pairs = first[occ[first, 0] < occ[first, 1]]
            halves = [(first, image[first], 1.0), (pairs, image[pairs], -1.0)]
        for first, second, sign in halves:
            if not first.size:
                continue
            paired = first != second
            gathered.append([offset + n * x[:, None] + y[None, :]
                             for x, y in ((first, first), (first, second),
                                          (second, first), (second, second))])
            signs.append(np.full(first.size ** 2, sign))
            weights.append(table[paired[:, None].astype(int), paired[None, :].astype(int)])
            c = np.where(paired, half, 1.0)
            states.append((np.concatenate([p[first], p[second[paired]]]),
                           np.concatenate([np.arange(first.size), np.flatnonzero(paired)]),
                           np.concatenate([c, sign * c[paired]])))
            sizes.append(first.size)
        offset += n * n
    index = np.concatenate([e[i].ravel() for i in range(4) for e in gathered])
    projection = (index, np.concatenate(signs * 2), np.concatenate([w.ravel() for w in weights]))
    for array in (*projection, *(a for state in states for a in state)):
        array.setflags(write=False)
    runs = tuple((len(list(run)), n) for n, run in groupby(sizes))
    return _Layout(runs, tuple(states), projection)


def _layout(basis: ModeBasis, alice: PartyConditions, bob: PartyConditions) -> _Layout:
    """The swap-adapted blocks when Bob's factors are Alice's, else the parity sectors."""
    return _swap_layout(basis) if all(_same_factors(basis, alice, bob)) else _sector_layout(basis)


def _sector_blocks(basis: ModeBasis, terms, layout: _Layout) -> list[np.ndarray]:
    """``sum a (x) b`` on each block of a layout.

    Projects the packed gather (:func:`_packed_kron`) where the layout has a
    projection (:func:`_swap_layout`), in one gather, and splits it into one
    ``(..., k, n, n)`` stack per run of k blocks of size n, in block order.
    """
    packed = _packed_kron(basis, terms)
    if layout.projection is not None:
        index, signs, weights = layout.projection
        m = weights.size
        q = packed[..., index]
        signed = q[..., m:3 * m] * signs
        packed = ((q[..., :m] + signed[..., :m]) + (signed[..., m:] + q[..., 3 * m:])) * weights
    blocks, start = [], 0
    for k, n in layout.runs:
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


def _top_values(blocks: np.ndarray) -> np.ndarray:
    """Top eigenvalue ``(...)`` of each block, without eigenvectors.

    A 1 x 1 block is read.  A 2 x 2 block ``[[a, r], [r, d]]`` has the top
    ``m + hypot(h, r)``, with ``m = (a + d)/2`` and ``h = (a - d)/2``,
    computed as ``((a + d) + hypot(a - d, 2r)) / 2`` (r is the mean of the
    two off-diagonal entries, as the symmetrized input of the solvers has
    it).  Each step is one rounded operation on the entries, so the result
    is off by a few ulps of the block's norm, like LAPACK's, without a
    solve; nothing cancels where the two eigenvalues meet.  Larger blocks go
    through :func:`cvbell.fock.hermitian_eigvals`.  Every block larger than
    1 x 1 passes the Hermiticity check first.
    """
    n = blocks.shape[-1]
    if n == 1:
        return blocks[..., 0, 0]
    if n > 2:
        return hermitian_eigvals(blocks)[..., -1]
    _check_hermitian(blocks)
    a, d = blocks[..., 0, 0], blocks[..., 1, 1]
    return 0.5 * ((a + d) + np.hypot(a - d, blocks[..., 0, 1] + blocks[..., 1, 0]))


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


@dataclass(frozen=True)
class _FixedState:
    """A fixed state as the solvers contract it (:func:`_fixed_state`).

    ``basis`` is the product basis up to the state's largest photon numbers
    and ``Q`` the matrix ``Q[(i, j), (k, l)] = Re rho[i, k, j, l]`` on it.
    """

    basis: ModeBasis
    Q: np.ndarray


def _fixed_state(state) -> _FixedState:
    """The contraction matrix of a pure or mixed two-mode state; built once per solve.

    B is real, so ``Re(rho)``, embedded in the product basis as
    ``(da, db, da, db)`` (:func:`_product_tensor`), is what the per-mode
    stacks are contracted against: ``Tr rho (a (x) b) = vec(a^T) Q vec(b^T)``.
    A state of non-positive trace (the zero state of a source that never
    heralds) is rejected.  The basis ends at the largest photon number the
    state occupies in each mode.  That is exact for the reason
    :func:`_trimmed_cutoffs` gives: entries up to a photon number depend
    only on entries up to it.  A pure state is first moved onto the product
    basis of the box its nonzero amplitudes occupy, so the padding of a large
    cutoff is never densified.  A :class:`_FixedState` is returned as it is.
    """
    if isinstance(state, _FixedState):
        return state
    rho = state
    if isinstance(state, StateVector):
        occupations = state.basis.occupations
        box = occupations[state.amplitudes != 0].max(axis=0, initial=0)
        inside = (occupations <= box).all(axis=1)
        basis = shared_basis(tuple(int(n) for n in box))
        amplitudes = np.zeros(basis.dimension, dtype=complex)
        amplitudes[np.ravel_multi_index(occupations[inside].T, box + 1)] = state.amplitudes[inside]
        rho = StateVector(basis, amplitudes).to_density()
    if rho.trace() <= 0.0:
        raise ValueError("state has non-positive trace")
    occupied = (rho.matrix != 0).any(axis=0) | (rho.matrix != 0).any(axis=1)
    ca, cb = (int(n) for n in rho.basis.occupations[occupied].max(axis=0))
    matrix = _product_tensor(rho.basis, rho.matrix.real)[:ca + 1, :cb + 1, :ca + 1, :cb + 1]
    Q = matrix.transpose(0, 2, 1, 3).reshape((ca + 1) ** 2, (cb + 1) ** 2)
    return _FixedState(shared_basis((ca, cb)), Q)


def _state_chsh(state, alice: PartyConditions, bob: PartyConditions):
    """CHSH expectation of a fixed state as a function of the bin half-widths.

    ``state`` is a pure or mixed state or its :func:`_fixed_state`.  Returns
    ``chsh(deltas)`` and ``chsh_and_slope(deltas)``, the values and their
    delta-derivatives ``Tr rho dB``, from the per-mode stacks built on the
    fixed state's basis, each contracted as a degree-0 polynomial
    (:func:`_bilinear_coefficients`).
    """
    fixed = _fixed_state(state)
    full, Q = fixed.basis, fixed.Q

    def contract(terms):
        return _bilinear_coefficients(Q, ((a[None], b[None]) for a, b in terms))[0]

    def chsh(deltas):
        return contract(_mode_observables(full, alice, bob, deltas))

    def chsh_and_slope(deltas):
        values, slopes = _mode_slopes(full, alice, bob, deltas)
        return contract(values), contract(slopes)

    return chsh, chsh_and_slope


def _swept_state_chsh(state, alice: PartyConditions, bob: PartyConditions, sweeps,
                      deltas, f=None) -> np.ndarray:
    """CHSH of a fixed state as a polynomial in a swept efficiency v: ``(D + 1, G)``.

    The factors of :func:`_swept_observables` on the fixed state's basis,
    each mode's raised to that mode's degree (:func:`_common_degree`), are
    contracted with the state pairwise (:func:`_bilinear_coefficients`), so
    ``D`` is the sum of the two modes' degrees and
    ``bernstein_weights(v, D) @ W`` is the CHSH of :func:`_state_chsh` at v
    on the grid, up to rounding.  With a mode filter ``f`` it is the
    unnormalized ``Tr(rho L_v^dag(F B F))``.
    """
    fixed = _fixed_state(state)
    Xa, Xb, Na, Nb = (s.reshape(len(s), -1, *s.shape[-2:])
                      for s in _swept_observables(fixed.basis, alice, bob, sweeps, deltas, f))
    Xa, Na = _common_degree(Xa, Na)
    Xb, Nb = _common_degree(Xb, Nb)
    return _bilinear_coefficients(fixed.Q, _observable_terms(Xa, Xb, Na, Nb))


def _block_tops(basis: ModeBasis, terms, layout: _Layout) -> np.ndarray:
    """Top eigenvalue of ``sum a (x) b`` on a grid: the largest of the layout's blocks'.

    The blocks take :func:`_top_values`; a NaN in any block makes the top NaN.
    """
    tops = [_top_values(block) for block in _sector_blocks(basis, terms, layout)]
    return np.concatenate(tops, axis=-1).max(axis=-1)


def _top_eigenvalue(basis: ModeBasis, alice: PartyConditions, bob: PartyConditions):
    """Top eigenvalue of the Bell operator as a function of the bin half-widths.

    Returns ``top(deltas)`` and ``top_and_slope(deltas)``.  B is block-diagonal
    in the photon-parity sectors, and for symmetric parties also in their
    swap-adapted halves (:func:`_layout`), so its top eigenvalue is the
    largest of the blocks' (:func:`_block_tops`).  The slope is ``v^T dB v``
    with v the top eigenvector of the winning block and dB that block of the
    slope (Hellmann-Feynman).
    """
    layout = _layout(basis, alice, bob)

    def top(deltas):
        return _block_tops(basis, _mode_observables(basis, alice, bob, deltas), layout)

    def top_and_slope(deltas):
        values, slopes = _mode_slopes(basis, alice, bob, deltas)
        tops, derivatives = [], []
        for B, dB in zip(_sector_blocks(basis, values, layout),
                         _sector_blocks(basis, slopes, layout)):
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

    The eigenvector is the top one of the block with the largest top
    eigenvalue (:func:`_layout`), embedded in the capped basis.  Its global
    phase is fixed so that its largest-magnitude coefficient is real
    positive.
    """
    basis = shared_basis((cutoff, cutoff), total_cap)
    layout = _layout(basis, scenario.alice, scenario.bob)
    terms = _mode_observables(basis, scenario.alice, scenario.bob, [scenario.delta])
    pairs = [_top_pairs(block[0]) for block in _sector_blocks(basis, terms, layout)]
    tops = np.concatenate([w for w, _ in pairs])
    vectors = [vector[:, 0] for _, v in pairs for vector in v]
    best = int(np.argmax(tops))
    if not np.isfinite(tops[best]):
        raise ValueError("Bell operator is not finite")
    rows, columns, coefficients = layout.states[best]
    amplitudes = np.zeros(basis.dimension, dtype=vectors[best].dtype)
    amplitudes[rows] = coefficients * vectors[best][columns]
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
    delta, the two bracket ends included; it is 0 when the refine did not
    run, as at a grid maximum at delta = 0, where the slope cannot be
    positive (:func:`_search_grid`).  ``unimodal`` is False when the grid
    maximum is interior, off a plateau, but the slope does not fall from
    positive to negative across its bracket: the objective then has more
    than one critical point there, and the grid maximum is returned.
    ``refined`` is False when the grid maximum already exceeded the
    ``stop_above`` of :func:`_search_grid`: the refine did not run, and
    ``value`` is the grid maximum, a lower bound on the optimum.
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
) -> DeltaSearch:
    """The delta search of :func:`optimize_delta`, with its record."""
    if state is None:
        basis = shared_basis((cutoff, cutoff), total_cap)
        objective, value_and_slope = _top_eigenvalue(basis, alice, bob)
    else:
        objective, value_and_slope = _state_chsh(state, alice, bob)
    grid = delta_grid(grid_points)
    return _search_grid(grid, objective(grid), lambda: value_and_slope, tol)


def _search_grid(grid, values, slope_objective, tol: float = DELTA_REFINE_TOL,
                stop_above: float | None = None) -> DeltaSearch:
    """The delta search on an evaluated grid: the refine and the record.

    ``values`` is the objective on the increasing ``grid`` of bin
    half-widths, and ``slope_objective()`` returns its ``value_and_slope``
    (:func:`refine_slope_root`); it is called only when the refine runs.  A
    maximum at delta = 0 is returned as it stands.  There ``X = -1`` exactly,
    ``dX/d(delta)`` is positive semidefinite (the bin projector grows, and
    the adjoint loss keeps positivity) and ``N <= 1``, so

        dB/d(delta) = dXa (x) (Nb - 1) + (Na - 1) (x) dXb <= 0:

    the slope cannot be positive at the grid's left end, for any state.  The
    search never returns less than its grid maximum, so when that exceeds
    ``stop_above`` the refine cannot change whether the optimum does, and the
    grid point is returned unrefined: the threshold steps pass their
    violation bound here.
    """
    k = int(np.argmax(values))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    keep_grid = DeltaSearch(float(grid[k]), float(values[k]), k, (float(lo), float(hi)), 0)
    if stop_above is not None and values[k] > stop_above:
        return replace(keep_grid, refined=False)
    if k == 0:
        return keep_grid
    delta_star, best, evaluations = refine_slope_root(slope_objective(), lo, hi, tol)
    keep_grid = replace(keep_grid, evaluations=evaluations)
    if delta_star is None:
        # At the right end of the grid the maximum may sit on the edge, and on
        # a plateau the argmax is decided by rounding.  Otherwise a bracket
        # without a root breaks the unimodality the grid relies on.
        edge = k == len(grid) - 1
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
) -> tuple[float, float]:
    """Best bin half-width and the CHSH value it achieves.

    With ``state=None`` the objective at each delta is the top eigenvalue of
    the Bell operator on the photon-capped subspace; otherwise it is the
    CHSH expectation of the fixed (pure or mixed) state.  The whole grid is
    evaluated in one batched call.  Between the best grid point's neighbours
    a safeguarded root search on the objective's delta-derivative
    (:func:`refine_slope_root`) refines to ``tol``; where the slope has no
    root there, the grid maximizer is kept.  :func:`search_delta` returns
    the same search with its record.
    """
    search = search_delta(alice, bob, state, cutoff, total_cap, grid_points, tol)
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

    Every per-mode factor that the swept efficiency enters is expanded once
    per solve as a polynomial in it (:func:`_swept_observables`).  A fixed
    state is contracted with the products once (:func:`_swept_state_chsh`),
    so a step's grid is one polynomial evaluation; without a state a step
    evaluates the factors and solves the sector blocks (:func:`_block_tops`).
    A refine, when it runs, reads the one-value slope objective.
    """
    if target not in ("eta_t", "eta_d"):
        raise ValueError("target must be 'eta_t' or 'eta_d'")
    scenario, base, sweeps = _sweep(target, symmetry, eta_t, eta_d, eta_h)
    grid = delta_grid(241)
    if state is not None:
        state = _fixed_state(state)
        chsh = _swept_state_chsh(state, base.alice, base.bob, sweeps, grid)

        def step(value, scen):
            return (bernstein_weights(value, len(chsh) - 1) @ chsh,
                    lambda: _state_chsh(state, scen.alice, scen.bob)[1])
    else:
        basis = shared_basis((cutoff, cutoff), total_cap)
        factors = _swept_observables(basis, base.alice, base.bob, sweeps, grid)

        def step(value, scen):
            terms = _observable_terms(*_swept_at(factors, value))
            return (_block_tops(basis, terms, _layout(basis, scen.alice, scen.bob)),
                    lambda: _top_eigenvalue(basis, scen.alice, scen.bob)[1])

    def max_chsh(value):
        values, slope_objective = step(value, scenario(value))
        return _search_grid(grid, values, slope_objective, stop_above=VIOLATION_BOUND).value

    return bisect_threshold(max_chsh, tol=tol)
