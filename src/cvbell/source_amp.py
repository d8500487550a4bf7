"""Photon-pair source with a heralded quantum-scissor amplifier on one arm.

Circuit (all beam splitters in the convention of :mod:`cvbell.fock`):

1. A parametric down-conversion source emits the two-mode squeezed state
   ``sqrt(1 - lam^2) sum_n lam^n |n>|n>`` on modes (arm1, arm2); each output
   passes a coupling loss ``eta_c``.  Arm 1's loss commutes with step 2,
   which never touches arm 1, so it is applied after the heralds, before step 3.
2. An ancilla single photon (ideal, or heralded from a second weak
   down-converter read out by bucket detector D0) is split on a beam
   splitter of transmission ``t``; the transmitted part interferes with
   arm2 on a 50/50 splitter whose outputs feed bucket detectors D1 and D2.
   Success means exactly one of D1/D2 clicks, which teleports the 0/1-photon
   content of arm2 onto the reflected ancilla mode with the vacuum amplitude
   scaled by sqrt(t) and the one-photon amplitude by sqrt(1 - t): heralded
   noiseless amplification of gain ``g = sqrt((1 - t)/t)``.
3. The surviving mode pair is recombined on a 50/50 splitter.

The two clicks prepare the same state, so the circuit conditions on the D2
click alone and doubles the result.  That is exact under two conditions:
the interference splitter is 50/50, and D1 and D2 have one efficiency.
Then swapping the splitter's two outputs is the parity flip ``(-1)^n`` on
the ancilla's b mode, and the two detectors weigh the swapped rows alike.
In each ancilla branch b and c hold a fixed total photon number, so after
the feed-forward plate ``(-1)^n`` on the amplified mode c, applied for a
D1 click, each D1 branch is the D2 branch of the mirrored row times one
sign per ancilla branch: the two clicks' Gram arrays are equal.  A fixed
output phase plate then casts the leading component into the all-real sign
pattern ``c00 |00> - c2 (|20> + |02>)`` that the measurement convention of
:mod:`cvbell.measurement` favours.  With bucket detectors every conditional
branch stays pure, so the simulation propagates weighted pure branches and
assembles the conditional density operator only at the end.  A branch is a
``(dim, P)`` block: one column for one input state, or the images of P basis
inputs.  The source sweeps fold those images once into their Hankel sums
over the squeezing powers, from which they evaluate every (squeezing,
transmission) point without running the circuit again (:func:`_source_stack`).
Each stage holds its branches as one ``(B, dim, P)`` stack and acts only on
its own axes of the stack's mode tensor (:func:`_modes`), in order: arm 2's
loss (:func:`_loss_branches`), the D2 click, arm 1's loss and the output
splitter (:func:`_split`); the heralds carry one branch per arm 2 Kraus
operator.  The D2 click is one contraction (:func:`_heralded_gram`): the
heard rows of the interference splitter, each scaled by the square root of
its detector weight, are Kraus operators ``K[r, m, n]`` on the scissor arm
and the ancilla's b mode (:func:`_herald_kraus`; 7 x 7 x 2 at source cutoff
6 with ideal detectors), contracted with every input branch and then with
every D0-click ancilla branch, with no joint input x ancilla array.
All stages are real, so the stacks are float64 (a complex input runs complex
through the same code) and the output plate ``i^n`` acts once, on the summed
Gram array (:func:`_output_gram`).
No operator over the joint basis is built: each splitter is filled only on
its input columns from the pair amplitudes (:func:`_cached_bs`) and computes
only the rows that are read, the herald rows the D2 click hears and the
photon-capped output rows; ``fock.beam_splitter`` and
``fock.embed_single_mode`` over the joint basis are the tests' references.
The source sweeps build only the photon-parity sector entries of the output,
one real Gram array per sector (:func:`_source_stack`).  Both ancillas are
one model: a photon-number mixture per D0 outcome in closed form
(:func:`_ancilla_distribution`), of which the single photon is the point of
one photon and a D0 click; the heralded-PDC ancilla's coupling loss and D0
detector are diagonal in photon number.  The circuit's ancilla branches are
its D0-click photon numbers, split on the ancilla splitter
(:func:`_ancilla_branches`).  The herald distribution needs only the
photon-number distributions of the two modes that meet on the interference
splitter, both in closed form (:func:`herald_probabilities`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import (
    DensityOperator,
    ModeBasis,
    StateVector,
    _bs_pair_coefficient,
    _product_index,
    anchor_phase,
    loss_kraus,
    shared_basis,
)
from .measurement import bernstein_weights, delta_grid, photodetection_povm
from .bell import (
    PartyConditions,
    _mode_observables,
    _observable_terms,
    _packed_kron,
    _parity_sectors,
    _search_grid,
    _sweep,
    _swept_at,
    _swept_observables,
    _threshold,
    golden_section_max,
    optimize_delta,
)
from .local_amp import _filtered_slopes, _mode_filter, _swept_squares

#: Branches with squared norm below this are dropped.  The cut is absolute
#: (the circuit's input is normalized), although outputs are renormalized by
#: success probabilities that can be small.  Measured on the heralded-PDC
#: ancilla (squeezing 0.2, t = 0.3, chi = 0.2, coupling 0.95) at cutoffs 3 to
#: 5, a cut of 0 moves the normalized states by at most 2.1e-13, the success
#: probabilities by at most 3.5e-15 and the herald probabilities by 1.1e-16.
#: A cut relative to the success probability would need that probability
#: before the circuit has run.
BRANCH_TOL = 1e-16


@dataclass(frozen=True)
class SourceConfig:
    """Parameters of the amplified source.

    squeezing: down-conversion amplitude ratio lam in [0, 1).
    amp_transmission: ancilla splitter transmission t in (0, 1]; the
        amplifier gain is sqrt((1 - t)/t).
    coupling: efficiency of collecting each down-converter output.
    ancilla_model: "single-photon" (ideal) or "heralded-pdc" (second weak
        down-converter of amplitude ``ancilla_squeezing`` read out by D0).
    herald_efficiency: efficiency of the bucket detectors D0/D1/D2.
    cutoff: per-arm photon cutoff for the down-conversion expansion.
    """

    squeezing: float
    amp_transmission: float
    coupling: float = 1.0
    ancilla_model: str = "single-photon"
    ancilla_squeezing: float = 0.1
    herald_efficiency: float = 1.0
    cutoff: int = 6

    def __post_init__(self):
        if not 0.0 <= self.squeezing < 1.0:
            raise ValueError("squeezing must lie in [0, 1)")
        if not 0.0 < self.amp_transmission <= 1.0:
            raise ValueError("amp_transmission must lie in (0, 1]")
        if not 0.0 <= self.coupling <= 1.0:
            raise ValueError("coupling must lie in [0, 1]")
        if self.ancilla_model not in ("single-photon", "heralded-pdc"):
            raise ValueError(f"unknown ancilla model {self.ancilla_model!r}")
        if not 0.0 <= self.ancilla_squeezing < 1.0:
            raise ValueError("ancilla_squeezing must lie in [0, 1)")
        if not 0.0 <= self.herald_efficiency <= 1.0:
            raise ValueError("herald_efficiency must lie in [0, 1]")
        if self.cutoff < 1:
            raise ValueError("cutoff must be at least 1")


@dataclass
class HeraldedOutcome:
    """Conditional output of a post-selected circuit.

    The state is normalized; ``success_probability`` is its
    pre-normalization weight, that of exactly one of D1 and D2 clicking.
    When no herald can fire (success probability 0, e.g. dead detectors)
    there is nothing to normalize: the state is the zero matrix, which the
    CHSH evaluation rejects (:func:`cvbell.bell.chsh_value`).
    """

    state: DensityOperator
    success_probability: float


def two_mode_squeezed(lam: float, cutoff: int) -> StateVector:
    """Two-mode squeezed vacuum, truncated at ``cutoff`` photons per arm.

    Amplitudes are proportional to lam^n on |n>|n>; the truncated vector is
    renormalized.  The discarded weight of the untruncated state is
    ``lam^(2 cutoff + 2)`` (see :func:`tmsv_truncation_weight`).
    """
    return StateVector(shared_basis((cutoff, cutoff)), _tmsv_column(lam, cutoff)[:, 0])


def _tmsv_column(lam: float, cutoff: int) -> np.ndarray:
    """The real ``(d, 1)`` column of :func:`two_mode_squeezed`: ``|nn>`` is row n (cutoff + 2)."""
    if not 0.0 <= lam < 1.0:
        raise ValueError("squeezing must lie in [0, 1)")
    amps = lam ** np.arange(cutoff + 1, dtype=float)
    column = np.zeros(((cutoff + 1) ** 2, 1))
    column[::cutoff + 2, 0] = amps / np.linalg.norm(amps)
    return column


def tmsv_truncation_weight(lam: float, cutoff: int) -> float:
    """Probability weight of the untruncated state beyond the cutoff."""
    return lam ** (2 * cutoff + 2)


@lru_cache(maxsize=64)
def _cached_bs(cutoffs: tuple, t: float, in_cutoffs: tuple) -> np.ndarray:
    """Two-mode splitter of transmission ``t`` onto the mode pair's ``cutoffs``.

    Only the columns of input occupations inside ``in_cutoffs`` are built (no
    padding), each from the real pair amplitudes of
    ``fock._bs_pair_coefficient``: the float64 columns of ``fock.beam_splitter``,
    whose imaginary part is exactly zero.
    """
    (c0, c1), (i0, i1) = cutoffs, in_cutoffs
    U = np.zeros((c0 + 1, c1 + 1, i0 + 1, i1 + 1))
    for m in range(i0 + 1):
        for n in range(i1 + 1):
            # Photon number is conserved: |m, n> goes to |k, m + n - k> only.
            for k in range(max(0, m + n - c1), min(c0, m + n) + 1):
                U[k, m + n - k, m, n] = _bs_pair_coefficient(k, m + n - k, m, n, t)
    U = U.reshape((c0 + 1) * (c1 + 1), (i0 + 1) * (i1 + 1))
    U.setflags(write=False)
    return U


def _modes(stack: np.ndarray, cutoffs) -> np.ndarray:
    """A ``(B, D, W)`` stack over ``cutoffs`` as the mode tensor ``(B, d_0, ..., W)``.

    The sizes are explicit, so an empty stack (no branch survived) works too.
    """
    return stack.reshape(len(stack), *(c + 1 for c in cutoffs), stack.shape[-1])


def _split(stack: np.ndarray, cutoffs: tuple, mode: int, t: float,
           out_cutoffs: tuple | None = None, rows=None) -> np.ndarray:
    """Beam splitter of transmission ``t`` on modes ``(mode, mode + 1)`` of a stack's blocks.

    ``stack`` is ``(B, D, W)``: B branch blocks of W columns over the uncapped
    basis of ``cutoffs``.  The pair's axes of the mode tensor (:func:`_modes`)
    are adjacent, so the stack is viewed as ``(B pre, d_i d_j, post W)`` and
    contracted with the two-mode unitary in one batched product, whose result
    is the ``(B, D', W)`` stack as it stands: the input is not copied.
    ``out_cutoffs`` (default ``cutoffs``) may enlarge the pair.  ``rows``
    (default: all) are the rows of the two-mode unitary to compute, flat
    indices ``k (c_j + 1) + l`` of the pair's output occupations ``(k, l)``
    over ``out_cutoffs``; the result then holds the pair's axes as one axis
    of those rows, in their order, ``(B, pre R post, W)``.
    """
    out_cutoffs = tuple(cutoffs) if out_cutoffs is None else tuple(out_cutoffs)
    U = _cached_bs(out_cutoffs[mode:mode + 2], t, tuple(cutoffs[mode:mode + 2]))
    if rows is not None:
        U = U[rows]
    B, _, W = stack.shape
    # Explicit sizes: an empty stack (no branch survived) keeps its shape.
    pre, post = (math.prod(c + 1 for c in cut) for cut in (cutoffs[:mode], cutoffs[mode + 2:]))
    T = U @ stack.reshape(B * pre, U.shape[1], post * W)
    return T.reshape(B, pre * len(U) * post, W)


def _norms2(blocks: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of the blocks on the last two axes."""
    parts = (blocks.real, blocks.imag) if np.iscomplexobj(blocks) else (blocks,)
    return sum(np.einsum("...ij,...ij->...", part, part) for part in parts)


def _kept(stack: np.ndarray) -> np.ndarray:
    """The blocks of a ``(B, D, W)`` stack whose squared norm exceeds ``BRANCH_TOL``, copied."""
    return stack[_norms2(stack) > BRANCH_TOL]


def _cached(cache: dict, size: int, key, build):
    """``cache[key]``, built on a miss; keeps the ``size`` most recently used.

    The dict is ordered least recently used first.
    """
    value = cache.pop(key, None)
    if value is None:
        value = build()
    cache[key] = value  # re-inserted as the most recently used
    if len(cache) > size:
        del cache[next(iter(cache))]
    return value


#: Single-mode loss Kraus stacks ``(K, n, n)`` by (eta, cutoff), for the
#: coupling loss of the down-converters' arms (:func:`_loss_branches`);
#: bounded, as each coupling efficiency adds entries.  The entries are not
#: photon-capped; the name stays because perfbench reads it.
_CAPPED_LOSS_CACHE: dict = {}
_LOSS_CACHE_SIZE = 16


def _loss_branches(cutoffs, branches: np.ndarray, mode: int, eta: float) -> np.ndarray:
    """Every loss Kraus operator on ``mode`` of every block of a ``(B, D, W)`` stack.

    The single-mode Kraus stack ``(K, n, n)`` is contracted with the mode's
    axis of the mode tensor (:func:`_modes`); ``fock.embed_single_mode`` is
    the tests' dense reference.  The result is ordered Kraus operator first;
    blocks with squared norm at or below ``BRANCH_TOL`` are dropped.
    """
    if eta == 1.0:
        return branches

    def build():
        ops = np.stack(loss_kraus(eta, cutoffs[mode]))
        ops.setflags(write=False)
        return ops

    kraus = _cached(_CAPPED_LOSS_CACHE, _LOSS_CACHE_SIZE, (float(eta), int(cutoffs[mode])), build)
    T = np.tensordot(kraus, _modes(branches, cutoffs), axes=([2], [mode + 1]))
    return _kept(np.moveaxis(T, 1, mode + 2).reshape(len(kraus) * len(branches),
                                                     *branches.shape[1:]))


def _binomial_loss(eta: float, cutoff: int) -> np.ndarray:
    """``B[n, m] = Bin(m; n, eta)``: m of n photons survive a loss of efficiency ``eta``."""
    counts = range(cutoff + 1)
    return np.array([[math.comb(n, m) * eta ** m * (1.0 - eta) ** (n - m) if m <= n else 0.0
                      for m in counts] for n in counts])


def _detector_diags(eta: float, cutoff: int):
    no_click, click, _ = photodetection_povm(eta, cutoff)
    return np.diag(click).copy(), np.diag(no_click).copy()


def _ancilla_distribution(config: SourceConfig, c_cutoff: int) -> np.ndarray:
    """Joint distribution of the D0 outcome and the ancilla's signal photons.

    Returns ``p[o, m]``: o = 0 for a D0 click and 1 for none, m = 0 ...
    ``c_cutoff`` photons in the signal.  The single photon is the point
    ``p[click, 1] = 1``.  The heralded-PDC ancilla's weak down-converter
    emits n pairs with probability ``c_n^2``, the truncated and renormalized
    squeezed vacuum of :func:`_tmsv_column`.  Each arm's coupling loss keeps
    each photon with probability eta_c, so the signal keeps m of the n photons
    with probability ``Bin(m; n, eta_c)``, and D0 (efficiency eta_h) misses
    every idler photon with probability ``(1 - eta_c eta_h)^n``:

        p[none, m]  = sum_n c_n^2 Bin(m; n, eta_c) (1 - eta_c eta_h)^n
        p[click, m] = sum_n c_n^2 Bin(m; n, eta_c) (1 - (1 - eta_c eta_h)^n)

    The loss and the bucket detector are diagonal in photon number, so the
    signal of each D0 outcome is the mixture ``sum_m p[o, m] |m><m|``.
    """
    if config.ancilla_model == "single-photon":
        p = np.zeros((2, c_cutoff + 1))
        p[0, 1] = 1.0
        return p
    pairs = _tmsv_column(config.ancilla_squeezing, c_cutoff)[::c_cutoff + 2, 0] ** 2
    binomial = _binomial_loss(config.coupling, c_cutoff)
    missed = (1.0 - config.coupling * config.herald_efficiency) ** np.arange(c_cutoff + 1)
    return np.stack([(pairs * (1.0 - missed)) @ binomial, (pairs * missed) @ binomial])


def _ancilla_branches(config: SourceConfig, c_cutoff: int) -> np.ndarray:
    """The D0-click branches of the split ancilla on modes (b, c), a ``(J, dim, 1)`` stack.

    Mode b goes to the interference splitter, mode c is the amplifier
    output.  Each block is ``sqrt(p[click, m]) |m, 0>`` through the ancilla
    splitter, one per photon number m with ``p[click, m]`` above
    ``BRANCH_TOL`` (:func:`_ancilla_distribution`), in ascending m.  A D0
    outcome of no click is never heralded, so it has no branch.
    """
    p = _ancilla_distribution(config, c_cutoff)[0]
    photons = np.flatnonzero(p > BRANCH_TOL)
    signal = np.zeros((len(photons), c_cutoff + 1, 1))
    signal[np.arange(len(photons)), photons, 0] = np.sqrt(p[photons])
    # The signal enters mode b with mode c empty.
    return _split(signal, (c_cutoff, 0), 0, config.amp_transmission, (c_cutoff, c_cutoff))


#: The heralded-PDC ancilla's per-mode cutoff: its pair distribution is
#: truncated here, or at a smaller source cutoff (:func:`_ancilla_cutoff`).
_PAIR_CUTOFF = 3

#: The single photon's two basis inputs ``|10>`` and ``|01>`` on the ancilla
#: modes (b, c), rows 2 and 1 of their basis, one column each, as an ancilla
#: stack of :func:`_heralded_gram`: the source sweeps' stand-in for the split
#: photon (:func:`_source_stack`).
_PHOTON_INPUTS = np.eye(4)[None, :, [2, 1]]
_PHOTON_INPUTS.setflags(write=False)


def _ancilla_cutoff(config: SourceConfig) -> int:
    """Per-mode cutoff of the split ancilla's modes (b, c)."""
    return 1 if config.ancilla_model == "single-photon" else min(_PAIR_CUTOFF, config.cutoff)


def _heralded_gram(config: SourceConfig, inputs, input_cutoffs, gram=None, ancilla=None):
    """The heralded circuit: one contraction of the inputs and the ancilla with the herald.

    ``inputs`` is a ``(B, d, P)`` stack over ``input_cutoffs``, whose last
    mode a is the scissor arm; ``ancilla`` (default: the D0-click branches of
    :func:`_ancilla_branches`) is a ``(J, d', Q)`` stack over the ancilla's
    modes (b, c).  The D2 click's Kraus operators ``K[r, m, n]`` on (a, b)
    (:func:`_herald_kraus`) are contracted with mode a of every input block
    and then with mode b of every ancilla block, two ``tensordot`` products
    and no joint input x ancilla array.  Branch ``(j, k, r)`` holds the kept
    modes (those before a, then c) in its rows and column ``p Q + q``;
    branches whose squared norm is at or below ``BRANCH_TOL`` are dropped.
    ``gram`` (default :func:`_gram`) maps the heralded branches to an array,
    which is returned doubled: the D1 click, after its feed-forward plate,
    prepares the same branches up to one sign each, so its array equals D2's
    (module docstring).  Doubling is exact in floating point.
    """
    c_cutoff = _ancilla_cutoff(config)
    if ancilla is None:
        ancilla = _ancilla_branches(config, c_cutoff)
    kraus = _herald_kraus(config.herald_efficiency, input_cutoffs[-1], c_cutoff)
    (n_in, d, P), (J, _, Q) = inputs.shape, ancilla.shape
    a, b = input_cutoffs[-1] + 1, c_cutoff + 1
    # (k, pre, p, r, n) and then (k, pre, p, r, j, c, q), reordered to the
    # branches (j, k, r); neither product is named, so both are freed
    # before the output stage.
    total = (gram or _gram)(_kept(np.tensordot(
        np.tensordot(inputs.reshape(n_in, d // a, a, P), kraus, ([2], [1])),
        ancilla.reshape(J, b, b, Q), ([4], [1]),
    ).transpose(4, 0, 3, 1, 5, 2, 6).reshape(J * n_in * len(kraus), d // a * b, P * Q)))
    total *= 2.0  # the D1 click's share
    return total


def _herald_detectors(eta: float, a_cutoff: int, b_cutoff: int) -> dict:
    """The (D1, D2) diagonal weights of each herald pattern: d1, d2, both, none.

    D1 counts the photons of mode a (the scissor arm), D2 those of the
    ancilla's b mode; ``eta`` is their efficiency.
    """
    click_a, no_click_a = _detector_diags(eta, a_cutoff)
    click_b, no_click_b = _detector_diags(eta, b_cutoff)
    return {"d1": (click_a, no_click_b), "d2": (no_click_a, click_b),
            "both": (click_a, click_b), "none": (no_click_a, no_click_b)}


def _herald_weights(eta: float, a_cutoff: int, b_cutoff: int):
    """The herald rows that the D2 click hears, and its D1/D2 weights on them.

    Row ``na (b_cutoff + 1) + nb`` holds na photons on mode a and nb on mode
    b; ``eta`` is the detectors' efficiency.  Returns the rows where the
    weight of D2 clicking with D1 dark exceeds ``BRANCH_TOL``, ascending,
    and the weights on them, ``(R,)``.  No other row is computed: with ideal
    detectors 7 of the 64 rows are heard at source cutoff 6.
    """
    weights = np.outer(*_herald_detectors(eta, a_cutoff, b_cutoff)["d2"]).ravel()
    rows = np.flatnonzero(weights > BRANCH_TOL)
    return rows, weights[rows]


@lru_cache(maxsize=64)
def _herald_kraus(eta: float, a_cutoff: int, b_cutoff: int) -> np.ndarray:
    """Kraus operators ``K[r, m, n]`` of the D2 click on the input pair (a, b).

    The 50/50 interference splitter from modes a (cutoff ``a_cutoff``) and b
    (``b_cutoff``) onto the pair enlarged to ``a_cutoff + b_cutoff`` photons
    each, so that it conserves photon number, read on its heard rows r
    (:func:`_herald_weights`), each scaled by the square root of its detector
    weight: ``(R, a_cutoff + 1, b_cutoff + 1)``, read-only, 7 x 7 x 2 at
    source cutoff 6 with ideal detectors.
    """
    big = a_cutoff + b_cutoff
    rows, weights = _herald_weights(eta, big, big)
    U = _cached_bs((big, big), 0.5, (a_cutoff, b_cutoff))[rows]
    kraus = (np.sqrt(weights)[:, None] * U).reshape(len(rows), a_cutoff + 1, b_cutoff + 1)
    kraus.setflags(write=False)
    return kraus


def _outcome(basis: ModeBasis, gram: np.ndarray) -> HeraldedOutcome:
    """The output of one normalized input column from its :func:`_gram` array.

    The success probability is the trace of the unnormalized output: the
    heralded branches' squared norms, which neither the output plate nor
    the photon cap changes.  When no herald fires (a trace at most
    :data:`BRANCH_TOL`) the state is the zero matrix and the success
    probability 0.  A herald that always fires can sum to one ulp above 1
    by rounding; the reported probability is capped at 1.
    """
    total = float(np.trace(gram[:, 0, :, 0]).real)
    if total <= BRANCH_TOL:
        matrix, total = np.zeros((basis.dimension,) * 2), 0.0
    else:
        matrix = gram[:, 0, :, 0] / total
    return HeraldedOutcome(DensityOperator(basis, matrix), min(total, 1.0))


def qscissor_amplify(state, t: float, herald_efficiency: float = 1.0,
                     ancilla_model: str = "single-photon",
                     ancilla_squeezing: float = 0.1) -> HeraldedOutcome:
    """Run a single-mode state through the heralded amplifier.

    On a 0/1-photon input ``c0|0> + c1|1>`` the conditional output is
    proportional to ``sqrt(t) c0 |0> + sqrt(1-t) c1 |1>``; components with
    two or more photons are truncated by the scissor (they can only reach
    the detectors, never the output mode).  Returns the conditional output
    state and the success probability: exactly one of D1 and D2 clicks.
    The heralded-PDC ancilla keeps its own truncation, ``_PAIR_CUTOFF``
    photons, whatever the input's, so padding the input changes nothing.
    """
    if isinstance(state, StateVector):
        branches = state.normalize().amplitudes[None, :, None]
    elif isinstance(state, DensityOperator):
        w, vecs = np.linalg.eigh(state.normalize().matrix)
        keep = w > BRANCH_TOL
        branches = (np.sqrt(w[keep]) * vecs[:, keep]).T[:, :, None]
    else:
        raise TypeError("state must be a StateVector or DensityOperator")
    cutoffs = state.basis.cutoffs
    if len(cutoffs) != 1:
        raise ValueError("the amplifier acts on a single-mode state")
    config = SourceConfig(
        squeezing=0.0,
        amp_transmission=t,
        ancilla_model=ancilla_model,
        ancilla_squeezing=ancilla_squeezing,
        herald_efficiency=herald_efficiency,
        cutoff=_PAIR_CUTOFF,  # the ancilla's own truncation, not the input's
    )
    gram = _heralded_gram(config, branches, cutoffs)
    return _outcome(shared_basis((_ancilla_cutoff(config),)), gram)


def _gram(stack: np.ndarray) -> np.ndarray:
    """``M[:, p, :, q] = sum_b w_b[:, p] w_b[:, q]^dag`` over a ``(B, d, P)`` stack.

    Returned as a ``(d, P, d, P)`` array, real for a real stack; for P = 1,
    ``M[:, 0, :, 0]`` is the unnormalized density matrix of the branches.
    """
    flat = stack.reshape(len(stack), math.prod(stack.shape[1:]))
    return (flat.T @ flat.conj()).reshape(stack.shape[1:] * 2)


def _output_gram(config: SourceConfig, inputs: np.ndarray, ancilla=None):
    """The source circuit on a ``(d, P)`` block of inputs on the two arms.

    Returns the photon-capped output basis, the :func:`_gram` array of the
    output branches, ``(d_out, P Q, d_out, P Q)`` with Q columns of the
    ``ancilla`` stack (default: :func:`_ancilla_branches`), summed over all
    of its branches (:func:`_heralded_gram`).  Arm 2's
    coupling loss acts on the inputs and arm 1's on the heralded branches.
    The output splitter computes only the photon-capped rows.  The branches stay
    real: the output plate ``ph = i^n`` on the second mode scales the sum
    once by ``ph[x] conj(ph[y])``.
    """
    c_cutoff = _ancilla_cutoff(config)
    out_cut = config.cutoff + c_cutoff
    full = (out_cut, out_cut)
    capped = shared_basis(full, out_cut)
    cap_idx = _product_index(capped)

    kept = (config.cutoff, c_cutoff)

    def output_gram(branches):
        branches = _loss_branches(kept, branches, 0, config.coupling)
        return _gram(_split(branches, kept, 0, 0.5, full, cap_idx))

    arms = _loss_branches((config.cutoff,) * 2, inputs[None], 1, config.coupling)
    gram = _heralded_gram(config, arms, (config.cutoff,) * 2, output_gram, ancilla)
    # Fixes the documented c00 >= 0, c2 <= 0 sign pattern; every factor is ±1 or ±i.
    ph = np.array([1j ** n for n in range(out_cut + 1)])[capped.occupations[:, 1]]
    return capped, gram * np.multiply.outer(ph, ph.conj())[:, None, :, None]


def amplified_source(config: SourceConfig) -> HeraldedOutcome:
    """Conditional two-mode output of the amplified source.

    The returned state lives on a photon-capped two-mode basis (the kept
    modes' total photon number is conserved downstream of the heralds).
    The success probability is that of exactly one of D1 and D2 clicking;
    for the heralded-pdc ancilla it includes the D0 click.
    """
    inputs = _tmsv_column(config.squeezing, config.cutoff)
    return _outcome(*_output_gram(config, inputs))


def herald_probabilities(config: SourceConfig) -> dict:
    """Joint probability of every detector outcome combination.

    Keys are D1/D2 pattern labels ("d1", "d2", "both", "none") for the
    ideal ancilla; the heralded-pdc model prefixes the D0 outcome as
    ``(d0_label, pattern)``.  Values sum to one.

    D1 and D2 count the photons of the two modes that meet on the 50/50
    splitter U.  Both modes' reduced states are diagonal in photon number:
    the scissor arm's weights are the TMSV's ``c_n^2`` through ``Bin(m; n,
    eta_c)``, and the b mode keeps k of the ancilla's m photons with
    probability ``Bin(k; m, t)``, so its weights for D0 outcome o are
    ``p[o] @ Bin(t)`` (:func:`_ancilla_distribution`).  The count
    distribution of one D0 outcome is then ``|U|^2 (p_1 (x) p_b)``; no
    branch of the circuit is built.  A D0 outcome is reported when some
    ``p[o, m]`` exceeds ``BRANCH_TOL``.
    """
    c_cutoff = _ancilla_cutoff(config)
    big = config.cutoff + c_cutoff  # both herald modes, enlarged to conserve photon number
    U = _cached_bs((big, big), 0.5, (config.cutoff, c_cutoff))
    pairs = _tmsv_column(config.squeezing, config.cutoff)[::config.cutoff + 2, 0] ** 2
    p_1 = pairs @ _binomial_loss(config.coupling, config.cutoff)  # arm 2 after its loss
    p = _ancilla_distribution(config, c_cutoff)
    p_b = p @ _binomial_loss(config.amp_transmission, c_cutoff)  # b keeps k of the m photons

    with_d0 = config.ancilla_model == "heralded-pdc"
    detectors = _herald_detectors(config.herald_efficiency, big, big)
    probs: dict = {}
    for o in np.flatnonzero((p > BRANCH_TOL).any(axis=1)):  # the D0 outcomes that occur
        # Photon-count distribution on the herald modes for this D0 outcome.
        counts = ((U * U) @ np.kron(p_1, p_b[o])).reshape(big + 1, big + 1)
        for name, (d1, d2) in detectors.items():
            probs[(("click", "none")[o], name) if with_d0 else name] = float(d1 @ counts @ d2)
    return probs


@dataclass
class SourceParams:
    """Result of inverting the source map onto a target state."""

    reachable: bool
    squeezing: float | None = None
    amp_transmission: float | None = None
    fidelity: float | None = None
    reason: str | None = None


def solve_source_params(target: StateVector, lam: float = 0.02,
                        cutoff: int = 6) -> SourceParams:
    """Squeezing and splitter transmission that produce a target state.

    Only targets supported on {|00>, |20>, |02>} with equal-magnitude
    two-photon coefficients are reachable; the leading-order output has
    vacuum amplitude sqrt(t) against two-photon amplitudes
    lam sqrt(1-t)/sqrt(2), so for a given small ``lam`` the coefficient
    ratio fixes ``t``.  The fidelity of the full circuit output against the
    target (in the output sign convention c00 >= 0, c2 <= 0) is returned.
    """
    basis = target.basis
    amps = target.normalize().amplitudes
    support = {}
    for idx, a in enumerate(amps):
        if abs(a) > 1e-9:
            support[basis.occupation_of(idx)] = complex(a)
    if not set(support) <= {(0, 0), (2, 0), (0, 2)}:
        return SourceParams(reachable=False, reason="support outside {00, 20, 02}")
    c20 = abs(support.get((2, 0), 0.0))
    c02 = abs(support.get((0, 2), 0.0))
    c00 = abs(support.get((0, 0), 0.0))
    if abs(c20 - c02) > 1e-6:
        return SourceParams(
            reachable=False, reason="unequal |20> and |02> weights are not producible"
        )
    if c20 < 1e-12:
        return SourceParams(
            reachable=True, squeezing=0.0, amp_transmission=1.0, fidelity=None
        )
    if c00 < 1e-12:
        return SourceParams(
            reachable=False, reason="vanishing vacuum weight requires t -> 0"
        )
    ratio = c20 / c00
    t = lam**2 / (lam**2 + 2.0 * ratio**2)
    config = SourceConfig(squeezing=lam, amp_transmission=t, cutoff=cutoff)
    outcome = amplified_source(config)
    out_basis = outcome.state.basis
    vec = np.zeros(out_basis.dimension, dtype=complex)
    gauge = support.get((0, 0), 1.0)
    gauge = gauge / abs(gauge)  # rotate target so c00 is real positive
    for occ, a in support.items():
        vec[out_basis.index_of(occ)] = a / gauge
    fid = float((vec.conj() @ outcome.state.matrix @ vec).real)
    return SourceParams(
        reachable=True, squeezing=lam, amp_transmission=t, fidelity=fid
    )


def dominant_component(rho: DensityOperator) -> tuple[StateVector, float]:
    """Largest-weight pure component of a density operator.

    The vector's global phase is fixed so its largest coefficient is real
    positive.
    """
    w, v = np.linalg.eigh(rho.matrix)
    return StateVector(rho.basis, anchor_phase(v[:, -1])), float(w[-1].real)


# ---------------------------------------------------------------------------
# Sweeps over the source parameters


def default_squeezing_grid(points: int = 40) -> tuple:
    """Squeezing from 0 to 0.4."""
    return tuple(np.linspace(0.0, 0.4, points))


def default_transmission_grid(points: int = 60) -> tuple:
    """Log-spaced splitter transmissions from 3e-5 to 0.99; small t realizes large gains."""
    return tuple(np.geomspace(3e-5, 0.99, points))


#: Packed output images of the single-photon circuit by (eta_c, cutoff), least
#: recently used first (see :func:`_source_stack`).  perfbench reads this name.
_STACK_CACHE: dict = {}
_STACK_CACHE_SIZE = 4


def _fold(blocks: np.ndarray) -> np.ndarray:
    """The Hankel sums of a real Gram array over the squeezing powers.

    ``blocks`` is a ``(n, P, n, P)`` :func:`_gram` array of the images of
    the basis inputs, ``P = 2 N`` with input ``2m + j`` weighted by
    ``lam^m phi_j(t)``.  Returns the sums
    ``H[s, j, k] = sum_{m + m' = s} M[:, 2m + j, :, 2m' + k]``,
    s = 0 ... 2N - 2, as a ``(4 (2N - 1), n^2)`` array whose row
    ``4 s + 2 j + k`` is the raveled transpose of ``H[s, j, k]``.  The sums
    are added from views of ``blocks``, so no second unfolded copy is made.
    """
    n, P = blocks.shape[:2]
    terms = P // 2
    # V[m, m', j, k] is the transpose of the block M[:, 2m + j, :, 2m' + k].
    V = blocks.reshape(n, terms, 2, n, terms, 2).transpose(1, 4, 2, 5, 3, 0)
    H = np.zeros((2 * terms - 1, 2, 2, n, n))
    for m in range(terms):
        H[m:m + terms] += V[m]
    return H.reshape(-1, n * n)


#: The largest number ``d P`` of (output state, basis input) pairs of
#: :func:`_source_stack`, with ``d = (c + 2)(c + 3) / 2`` output states and
#: ``P = 2 (c + 1)`` basis inputs at cutoff c, so ``d P = (c + 1)(c + 2)(c + 3)``
#: (:func:`_gram_side`): 504 at c = 6, 4080 at c = 14, the largest cutoff
#: admitted, which the refusal takes from this bound alone.  The Gram arrays
#: are built per parity sector, about a quarter of ``(d P)^2`` entries in all
#: (:func:`_gram_bytes`, in closed form): at c = 14 a fresh build took 0.30 s
#: and its process peaked at 111 MiB RSS on a 2-core Xeon VM, one BLAS thread
#: (1.22 s and 429 MiB with the whole Gram array).  Cutoff 40 would need
#: 10.2 GiB of them.
MAX_GRAM_SIDE = 4096


def _gram_side(cutoff: int) -> int:
    """The number of (output state, basis input) pairs at a source cutoff."""
    return (cutoff + 2) * (cutoff + 3) // 2 * 2 * (cutoff + 1)


def _gram_bytes(cutoff: int) -> int:
    """The bytes of the parity-sector Gram arrays of :func:`_source_stack` at a cutoff.

    The output basis holds the ``(a, b)`` with ``a + b <= c + 1``.  Its
    sector of photon parities ``(p_a, p_b)`` holds the ``a = p_a + 2i``,
    ``b = p_b + 2j`` with ``i + j <= M = (c + 1 - p_a - p_b) // 2``, which
    are ``(M + 1)(M + 2) / 2``; each sector's Gram array is the square of
    that times ``2 (c + 1)`` basis inputs, in float64.  Python integers, so
    no cutoff overflows the count and nothing is enumerated.
    """
    cap = cutoff + 1
    tops = [(cap - p) // 2 for p in (0, 1, 1, 2)]  # M of the sectors, by p_a + p_b
    return sum(((m + 1) * (m + 2) // 2 * 2 * cap) ** 2 for m in tops) * 8


def _source_stack(eta_c: float, cutoff: int):
    """Packed images of the single-photon circuit, one run per (eta_c, cutoff), cached.

    With the single-photon ancilla the circuit is linear in its input
    ``sum_n lam^n |nn> (x) (sqrt(t) |10> + sqrt(1 - t) |01>)``, so it runs
    once on the P = 2 (cutoff + 1) basis inputs ``|nn> (x) |10>`` (column
    2n) and ``|nn> (x) |01>`` (column 2n + 1).  The unnormalized output for
    the image weights ``x[2n + j] = lam^n phi_j(t)``,
    ``phi(t) = (sqrt(t), sqrt(1 - t))``, is ``sum_pq x_p x_q M_pq`` over the
    blocks ``M_pq`` of :func:`_gram`.  The weights are a product, so that sum
    is ``sum_s lam^s sum_jk phi_j(t) phi_k(t) H[s, j, k]`` over the Hankel
    sums of :func:`_fold`, s = 0 ... 2 cutoff.

    Every quantity the sweeps read is a form of an operator that keeps each
    mode's photon parity (:func:`_pair_forms`), so only the photon-parity
    sector entries of the sums are built (:func:`cvbell.bell._parity_sectors`).
    The output splitter computes only the capped output rows, sector by
    sector, and each sector gets its own real Gram array.  Within a sector
    the output plate's factor ``i^(n - n')`` on the second mode is
    ``s_n s_n'`` with ``s_n = (-1)^(n // 2)``, so the plate is the real sign
    ``s_n`` on the sector's rows.  Returns the capped output basis, the
    packed rows, ``(4 (2 cutoff + 1), sum n^2)`` (52 x 336 at cutoff 6), and
    the identity's sums ``T``, both read-only.  The output state's sector
    part is one product of the weights ``lam^s phi_j phi_k`` with the packed
    rows (:func:`_image_state`); the sums of ``Tr(M_pq O)`` for a whole stack
    of operators are one product with them (:func:`_pair_forms`).  A cutoff
    whose pair count exceeds :data:`MAX_GRAM_SIDE` is rejected before any
    allocation: the count, the bytes and the largest admitted cutoff are
    closed forms, so the refusal costs the same at every cutoff.
    """
    side = _gram_side(cutoff)
    if side > MAX_GRAM_SIDE:
        largest = next(c for c in range(MAX_GRAM_SIDE) if _gram_side(c + 1) > MAX_GRAM_SIDE)
        size = _gram_bytes(cutoff)
        unit, name = (2**30, "GiB") if size >= 2**30 else (2**20, "MiB")
        tenths = (20 * size // unit + 1) // 2  # in integers: a float overflows past 1e308
        raise ValueError(
            f"source cutoff {cutoff} has {side} (output state, basis input) pairs, whose "
            f"parity-sector Gram arrays need {tenths // 10}.{tenths % 10} {name}; the "
            f"largest source cutoff is {largest} (MAX_GRAM_SIDE = {MAX_GRAM_SIDE})"
        )

    def build():
        # The basis inputs stand in for the squeezing and the transmission.
        config = SourceConfig(squeezing=0.0, amp_transmission=1.0, coupling=eta_c,
                              cutoff=cutoff)
        arms = shared_basis((cutoff, cutoff))
        inputs = np.zeros((arms.dimension, cutoff + 1))
        for n in range(cutoff + 1):
            inputs[arms.index_of((n, n)), n] = 1.0
        full = (cutoff + 1,) * 2
        basis = shared_basis(full, cutoff + 1)
        sectors, cap_idx = _parity_sectors(basis), _product_index(basis)
        # The output plate i^n within a sector: the sign (-1)^(n // 2) per row.
        plates = [(-1.0) ** (basis.occupations[p, 1] // 2) for p in sectors.positions]

        def packed_rows(branches):
            # The heralded branches live on (arm1, amplified mode): (cutoff, 1).
            branches = _loss_branches((cutoff, 1), branches, 0, eta_c)
            folded = []
            for positions, plate in zip(sectors.positions, plates):
                out = _split(branches, (cutoff, 1), 0, 0.5, full, cap_idx[positions])
                out *= plate[:, None]
                folded.append(_fold(_gram(out)))
            return np.concatenate(folded, axis=1)

        arms = _loss_branches((cutoff, cutoff), inputs[None], 1, eta_c)
        packed = _heralded_gram(config, arms, (cutoff, cutoff), packed_rows, _PHOTON_INPUTS)
        identity = np.eye(basis.dimension).ravel()[sectors.entries]
        trace_form = _pair_forms(packed, identity[None])[0]
        for array in (packed, trace_form):
            array.setflags(write=False)
        return basis, packed, trace_form

    return _cached(_STACK_CACHE, _STACK_CACHE_SIZE, (float(eta_c), int(cutoff)), build)


def _sweep_grid(grid, name: str) -> np.ndarray:
    """A sweep grid as a 1-D float array of at least two points."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError(f"{name} must be a 1-D sequence of at least 2 points, "
                         f"got shape {grid.shape}")
    return grid


def _weight_factors(lams, ts, degree: int):
    """The factors of the image weights: squeezing powers and photon pairs.

    Returns ``lam^s`` for ``s <= degree``, ``(L, degree + 1)``, and the
    pairs ``phi_j(t) phi_k(t)`` of ``phi(t) = (sqrt(t), sqrt(1 - t))``,
    ``(4, T)`` with row ``2 j + k``.
    """
    lams, ts = np.asarray(lams, dtype=float), np.asarray(ts, dtype=float)
    if not (((lams >= 0.0) & (lams < 1.0)).all() and ((ts > 0.0) & (ts <= 1.0)).all()):
        raise ValueError("squeezing must lie in [0, 1) and transmission in (0, 1]")
    photon = np.sqrt(np.array([ts, 1.0 - ts]).T)
    pairs = (photon[:, :, None] * photon[:, None, :]).reshape(len(photon), 4).T
    return lams[:, None] ** np.arange(degree + 1), pairs


def _image_weights(lam: float, t: float, degree: int) -> np.ndarray:
    """The weights ``lam^s phi_j(t) phi_k(t)`` of the folded rows, s <= ``degree``."""
    powers, pairs = _weight_factors([lam], [t], degree)
    return (powers[0][:, None] * pairs[:, 0]).ravel()


def _image_state(basis: ModeBasis, packed: np.ndarray, lam: float, t: float) -> DensityOperator:
    """The normalized output's parity-sector part at squeezing ``lam``, transmission ``t``.

    ``packed`` holds the rows of :func:`_source_stack`.  One product of the
    weights ``lam^s phi_j(t) phi_k(t)`` with them gives the sector entries of
    the raveled transpose of the unnormalized output, which are scattered
    into place; the entries between sectors stay zero.  Every Bell operator
    keeps each mode's photon parity, so it reads the same CHSH value from
    this part as from the whole state (:func:`_pair_forms`).
    """
    weights = _image_weights(lam, t, len(packed) // 4 - 1)
    d = basis.dimension
    rho = np.zeros(d * d)
    rho[_parity_sectors(basis).entries] = weights @ packed
    rho = rho.reshape(d, d).T
    return DensityOperator(basis, rho / np.trace(rho))


def _pair_forms(packed: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """``F[g, s, j, k] = Re Tr(H[s, j, k] O_g)`` for a real stack of operators ``O``.

    ``ops`` is ``(G, sum n^2)``, packed on the photon-parity sectors
    (:func:`cvbell.bell._packed_kron`), and ``packed`` the rows of
    :func:`_source_stack` on the same entries.  That is exact: every operator the
    sweeps contract keeps each mode's parity (the bin is symmetric, detection
    and filter are diagonal, the adjoint loss takes ``(m, n)`` from
    ``(m - k, n - k)``), so it has no entry between sectors.  Then
    ``Tr(rho O_g) = sum_s lam^s sum_jk phi_j phi_k F[g, s, j, k]`` over the
    same sums of the identity (:func:`_grid_chsh`).
    """
    return (ops @ packed.T).reshape(len(ops), -1, 2, 2)


def _grid_chsh(hankels: np.ndarray, trace: np.ndarray, lams, ts) -> np.ndarray:
    """CHSH values ``x R_g x / x T x`` on the full ``lams`` x ``ts`` grid.

    ``hankels`` and ``trace`` are the :func:`_pair_forms` sums of the Bell
    operators and of the identity, ``(G, S, 2, 2)`` and ``(S, 2, 2)``.  Each
    quadratic form is a polynomial in lam contracted with the photon pair
    ``phi_j(t) phi_k(t)``, ``phi(t) = (sqrt(t), sqrt(1 - t))``: the lam
    powers times the sums, then times the pairs, ``O(G L (S + T))`` work
    against ``O(G L T P^2)`` for the dense forms over the P image weights.
    The two contractions factor only over the full product of ``lams`` and
    ``ts``.  Returns ``(G, L, T)``, in row-major (g, lam, t) order.
    """
    powers, pairs = _weight_factors(lams, ts, trace.shape[0] - 1)

    def forms(h):
        return powers @ h.reshape(*h.shape[:-2], 4) @ pairs

    values = forms(hankels)
    values /= forms(trace)  # in place: no second grid-sized array per threshold step
    return values


def _section_objectives(forms: np.ndarray):
    """The CHSH value along lam at a fixed t, and along log t at a fixed lam.

    ``forms`` stacks the sums of one Bell operator and of the identity,
    ``(2, S, 2, 2)``.  Each value contracts them with the lam powers into two
    2 x 2 forms in the photon pair, then with the pair ``phi_j(t) phi_k(t)``.
    Returns ``along_lam(t)`` and ``along_log_t(lam)``, which contract their
    fixed half once and return the objective of the other coordinate.  Equal
    to :func:`_grid_chsh` on a 1 x 1 grid up to rounding.
    """
    coefs = forms.reshape(2, -1, 4)
    exponents = np.arange(coefs.shape[1])

    def pair(t):
        root = (math.sqrt(t), math.sqrt(1.0 - t))
        return np.array([a * b for a in root for b in root])

    def ratio(value_and_norm):
        value, norm = value_and_norm
        return float(value / norm)

    def along_lam(t):
        fixed = pair(t)
        return lambda lam: ratio((lam ** exponents @ coefs) @ fixed)

    def along_log_t(lam):
        fixed = lam ** exponents @ coefs
        return lambda log_t: ratio(fixed @ pair(math.exp(log_t)))

    return along_lam, along_log_t


@dataclass
class SourceOptimum:
    chsh_value: float
    squeezing: float
    amp_transmission: float
    delta: float


def max_source_chsh(
    alice: PartyConditions,
    bob: PartyConditions,
    eta_c: float = 1.0,
    cutoff: int = 6,
    lam_grid: tuple | None = None,
    t_grid: tuple | None = None,
) -> SourceOptimum:
    """Maximize the CHSH value of the source output over (lam, t, delta).

    The optimum that ``cvbell source-amp`` reports; the thresholds do not
    call it (:func:`_source_threshold`).  Coarse grid scan over the circuit
    images, then coordinate refinement (golden sections in lam and log t,
    then the delta search of :func:`optimize_delta` on the output's
    parity-sector part, :func:`_image_state`) around the best grid point.
    ``lam_grid`` and ``t_grid`` are 1-D sequences of at least two points;
    ``None`` selects the default grid.  At fixed delta every (lam, t) is a
    quadratic form in the image weights, so no step runs the circuit again.
    The grid scan evaluates the forms factored (:func:`_grid_chsh`) at 81
    deltas; of equal grid values the first in (delta, lam, t) order is
    taken.  The golden sections read row g* of the grid's sums, the Bell
    form at the grid's delta, and contract each section's fixed coordinate
    once (:func:`_section_objectives`).
    """
    lam_grid = _sweep_grid(default_squeezing_grid() if lam_grid is None else lam_grid,
                           "lam_grid")
    t_grid = _sweep_grid(default_transmission_grid() if t_grid is None else t_grid,
                         "t_grid")
    basis, packed, trace = _source_stack(eta_c, cutoff)

    deltas = delta_grid(81)
    bells = _packed_kron(basis, _mode_observables(basis, alice, bob, deltas))
    hankels = _pair_forms(packed, bells)
    values = _grid_chsh(hankels, trace, lam_grid, t_grid)
    g, i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    lam, t = float(lam_grid[i]), float(t_grid[j])

    along_lam, along_log_t = _section_objectives(np.stack([hankels[g], trace]))
    lam_step = lam_grid[1] - lam_grid[0]
    lam, _ = golden_section_max(along_lam(t), max(0.0, lam - lam_step),
                                min(lam_grid[-1], lam + lam_step), 1e-4)
    log_step = math.log(t_grid[1] / t_grid[0])
    logt, _ = golden_section_max(along_log_t(lam), math.log(t) - log_step,
                                 min(math.log(t_grid[-1]), math.log(t) + log_step), 1e-4)
    t = math.exp(logt)
    delta, value = optimize_delta(alice, bob, state=_image_state(basis, packed, lam, t),
                                  grid_points=61)
    return SourceOptimum(value, lam, t, delta)


def _filtered_at(basis: ModeBasis, factors, squares, value: float) -> np.ndarray:
    """``L^dag(F B F)`` on the delta grid and then ``L^dag(F^2)``, packed, at a transmission.

    ``factors`` are the filtered :func:`cvbell.bell._swept_observables` and
    ``squares`` the :func:`cvbell.local_amp._swept_squares` of the capped
    output ``basis``, both read at the swept transmission ``value``
    (:func:`cvbell.bell._swept_at`) and gathered on the photon-parity sector
    entries (:func:`cvbell.bell._packed_kron`): ``(G + 1, sum n^2)``.
    """
    squares = tuple(np.tensordot(bernstein_weights(value, len(s) - 1), s, 1) for s in squares)
    return np.concatenate([_packed_kron(basis, _observable_terms(*_swept_at(factors, value))),
                           _packed_kron(basis, (squares,))[None]])


def _source_threshold(gain: float, applications: int, symmetry: str, eta_d: float,
                      eta_c: float, cutoff: int, tol: float, lam_grid, t_grid) -> float | None:
    """Critical transmission of the source output: the step of both source thresholds.

    The output suffers the transmission loss explicitly, on the modes that
    ``symmetry`` puts it on (:func:`cvbell.bell._sweep`), is filtered on both
    modes (at gain 1 the filter is the identity) and is measured with
    detector efficiency ``eta_d``.  ``Tr(F L(rho) F B) = Tr(rho L^dag(F B
    F))``, and likewise for ``F^2``, the trace of the filtered state.  The
    filtered factors and squares are expanded through the loss once per
    solve (:func:`cvbell.bell._swept_observables`,
    :func:`cvbell.local_amp._swept_squares`), after the filter check at
    ``cutoff`` (:func:`cvbell.local_amp._mode_filter`); each step reads them
    at its transmission onto the photon-parity sector entries of the capped
    output basis (:func:`_filtered_at`), the only entries the forms read
    (:func:`_pair_forms`).  The forms give CHSH on the whole (delta, lam, t)
    grid, and the delta grid at the best (lam, t) is the chosen output's.
    The bisection is :func:`cvbell.bell._threshold`, which runs no step at
    zero transmission.  A step whose grid already violates is decided there
    (``stop_above`` of :func:`cvbell.bell._search_grid`); a refine reads its
    slopes at the step's loss, contracted with the chosen output
    (:func:`cvbell.local_amp._filtered_slopes`), which is built only then.
    """
    lam_grid, t_grid = _sweep_grid(lam_grid, "lam_grid"), _sweep_grid(t_grid, "t_grid")
    basis, packed, _ = _source_stack(eta_c, cutoff)
    f = _mode_filter(basis, gain, applications, cutoff)
    scenario, base, sweeps = _sweep("eta_t", symmetry, 1.0, eta_d, 1.0)
    deltas = delta_grid(61)
    factors = _swept_observables(basis, base.alice, base.bob, sweeps, deltas, f)
    squares = _swept_squares(basis, f, sweeps)

    def search(eta_t, stop_above):
        hankels = _pair_forms(packed, _filtered_at(basis, factors, squares, eta_t))
        values = _grid_chsh(hankels[:-1], hankels[-1], lam_grid, t_grid)
        _, i, j = np.unravel_index(int(np.argmax(values)), values.shape)

        def slope_objective():
            # The packed, unnormalized output at (lam, t): raveled transposes,
            # which the symmetric forms read as they are.
            rho = _image_weights(lam_grid[i], t_grid[j], len(packed) // 4 - 1) @ packed
            scen = scenario(eta_t)
            return _filtered_slopes(basis, base.alice, f, (scen.alice.eta_t, scen.bob.eta_t), rho)

        return _search_grid(deltas, values[:, i, j], slope_objective, stop_above=stop_above)

    return _threshold(search, tol)


def source_critical_transmission(
    eta_d: float = 1.0,
    eta_c: float = 1.0,
    symmetry: str = "symmetric",
    cutoff: int = 6,
    tol: float = 1e-3,
    lam_grid: tuple | None = None,
    t_grid: tuple | None = None,
) -> float | None:
    """Critical transmission for the amplified source at a given eta_d.

    :func:`_source_threshold` at filter gain 1, on a 40 x 60 (lam, t) grid by default.
    """
    return _source_threshold(1.0, 1, symmetry, eta_d, eta_c, cutoff, tol,
                             default_squeezing_grid() if lam_grid is None else lam_grid,
                             default_transmission_grid() if t_grid is None else t_grid)


def amplified_source_threshold_with_filters(
    gain: float,
    applications: int = 1,
    eta_d: float = 1.0,
    eta_c: float = 1.0,
    cutoff: int = 6,
    tol: float = 1e-3,
    lam_grid: tuple | None = None,
    t_grid: tuple | None = None,
) -> float | None:
    """Critical transmission when the source feeds the local filters.

    :func:`_source_threshold`, symmetric, on a 20 x 30 (lam, t) grid by default.
    """
    return _source_threshold(gain, applications, "symmetric", eta_d, eta_c, cutoff, tol,
                             default_squeezing_grid(20) if lam_grid is None else lam_grid,
                             default_transmission_grid(30) if t_grid is None else t_grid)
