"""The heralded circuit's stages on mode axes against the dense reference.

The circuit applies each beam splitter as the two-mode unitary contracted
with an adjacent mode pair of a whole stack of branch blocks
(``source_amp._split``) and each coupling loss as the single-mode Kraus
stack on one mode's axis (``source_amp._loss_branches``).
``fock.beam_splitter`` and ``fock.embed_single_mode`` over the full joint
basis are the slow references they must reproduce.  Every stage before the
output plate ``i^n`` is real, so the circuit runs in float64 and applies
that plate once, to the summed Gram array; the plate built over the joint
basis's occupations, per branch, is its reference.  (The source sweeps'
stack never applies it as a complex factor: within a photon-parity sector it
is a real sign, ``tests/test_source_images.py``.)  The circuit conditions on
the D2 click alone and doubles its Gram array; the reference conditions the
full split on both clicks, plating the D1 branches with the feed-forward
parity (:func:`two_click_gram`).  The interference splitter computes only
the herald rows the D2 click hears; the full split followed by the
detectors' drop is its bitwise reference.  The pinned
outputs guard the wiring of the circuit: which modes each splitter acts on
and which are heralded.
The circuit applies arm 1's coupling loss after the heralds; its outputs
are held to the circuit with both arms' loss before them
(:func:`loss_before_heralds`).
The herald distribution, which the circuit takes from the photon-number
distributions of the two herald modes, is held to the joint stack of every
input branch, both arms' loss applied, times every ancilla branch
(:func:`joint_stack_herald_probabilities`).  The
heralded-PDC ancilla's closed-form photon-number distribution is held to the
dense squeezed vacuum through the loss Kraus operators and the D0 POVM
(:func:`dense_ancilla_distribution`).
"""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cvbell.source_amp as sa
from cvbell.fock import (
    DensityOperator,
    ModeBasis,
    beam_splitter,
    embed_single_mode,
    embedding_indices,
    loss_kraus,
)
from cvbell.measurement import photodetection_povm

PINS = json.loads((Path(__file__).parent / "data" / "direct_circuit_pins.json").read_text())


def random_stack(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def dense_reference(stack, cutoffs, mode, t, out_cutoffs):
    """Embed every block in the enlarged basis, then apply the full-basis splitter."""
    small, big = ModeBasis(cutoffs), ModeBasis(out_cutoffs)
    embedded = np.zeros((len(stack), big.dimension, stack.shape[2]), dtype=complex)
    embedded[:, embedding_indices(small, big)] = stack
    return beam_splitter(big, t, (mode, mode + 1)) @ embedded


@st.composite
def split_cases(draw):
    cutoffs = draw(st.lists(st.integers(0, 3), min_size=3, max_size=4))
    mode = draw(st.integers(0, len(cutoffs) - 2))
    out_cutoffs = list(cutoffs)
    for m in (mode, mode + 1):
        out_cutoffs[m] += draw(st.integers(0, 2))
    return tuple(cutoffs), mode, tuple(out_cutoffs)


@settings(max_examples=60, deadline=None)
@given(
    case=split_cases(),
    t=st.floats(min_value=0.0, max_value=1.0),
    branches=st.integers(0, 3),
    width=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
)
# The circuit's pairs: (0, 1) for the ancilla, the PDC signal and the output,
# (1, 2) for the interference; and an empty stack on the last pair.
@example(case=((2, 1, 3), 0, (3, 3, 3)), t=0.5, branches=2, width=2, seed=1, real=True)
@example(case=((2, 1, 3, 1), 1, (2, 2, 5, 1)), t=0.3, branches=3, width=1, seed=2, real=False)
@example(case=((1, 2, 0, 3), 2, (1, 2, 2, 3)), t=0.8, branches=0, width=3, seed=3, real=True)
def test_split_matches_dense_beam_splitter(case, t, branches, width, seed, real):
    cutoffs, mode, out_cutoffs = case
    stack = random_stack(seed, (branches, ModeBasis(cutoffs).dimension, width))
    if real:
        stack = stack.real.copy()
    fast = sa._split(stack, cutoffs, mode, t, out_cutoffs)
    reference = dense_reference(stack, cutoffs, mode, t, out_cutoffs)
    # An empty stack (every branch dropped) keeps its shape.
    assert fast.shape == reference.shape
    assert fast.dtype == stack.dtype  # a real stack stays real
    assert np.all(np.abs(fast - reference) < 1e-12)


@settings(max_examples=30, deadline=None)
@given(case=split_cases(), t=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_split_of_a_block_without_enlargement(case, t, seed):
    cutoffs, mode, _ = case
    block = random_stack(seed, (ModeBasis(cutoffs).dimension, 4))
    fast = sa._split(block[None], cutoffs, mode, t)[0]
    reference = beam_splitter(ModeBasis(cutoffs), t, (mode, mode + 1)) @ block
    assert np.abs(fast - reference).max() < 1e-12


@st.composite
def loss_cases(draw):
    cutoffs = tuple(draw(st.lists(st.integers(0, 5), min_size=2, max_size=3)))
    return cutoffs, draw(st.integers(0, len(cutoffs) - 1))


@settings(max_examples=60, deadline=None)
@given(
    case=loss_cases(),
    eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    branches=st.integers(0, 3),
    width=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(case=((3, 2, 1), 1), eta=0.9, branches=2, width=3, seed=4)
@example(case=((0, 4), 0), eta=0.5, branches=1, width=1, seed=5)
def test_loss_on_a_mode_axis_equals_the_dense_embedding(case, eta, branches, width, seed):
    """Bitwise: each output entry is one product of a Kraus element and an amplitude."""
    cutoffs, mode = case
    basis = ModeBasis(cutoffs)
    stack = random_stack(seed, (branches, basis.dimension, width))
    dense = np.stack([embed_single_mode(basis, A, mode) for A in loss_kraus(eta, cutoffs[mode])])
    reference = (dense[:, None] @ stack[None]).reshape(-1, basis.dimension, width)
    reference = reference[sa._norms2(reference) > sa.BRANCH_TOL]
    fast = sa._loss_branches(cutoffs, stack, mode, eta)
    assert fast.shape == reference.shape
    assert np.array_equal(fast, reference)


def occupation_plate(cutoffs, phase):
    """The plate ``phase^n`` on the last mode, over the joint basis one occupation at a time."""
    return np.array([phase ** int(occ[-1]) for occ in ModeBasis(cutoffs).occupations])


@settings(max_examples=40, deadline=None)
@given(
    cutoff=st.integers(1, 4),
    ancilla=st.sampled_from(["single-photon", "heralded-pdc"]),
    branches=st.integers(0, 3),
    width=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(cutoff=3, ancilla="single-photon", branches=0, width=2, seed=8)  # nothing heralded
def test_output_plate_on_the_gram_equals_the_per_branch_plate(cutoff, ancilla, branches,
                                                              width, seed):
    """``_output_gram`` plates the summed Gram array once; the reference plates each branch.

    Random real branches over the kept modes stand in for the heralded ones.
    """
    config = sa.SourceConfig(squeezing=0.0, amp_transmission=0.5, ancilla_model=ancilla,
                             cutoff=cutoff)
    kept = (cutoff, sa._ancilla_cutoff(config))
    stack = random_stack(seed, (branches, ModeBasis(kept).dimension, width)).real.copy()

    def heralded_gram(config, arms, cutoffs, mode, gram, photon):
        return gram(stack)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sa, "_heralded_gram", heralded_gram)
        basis, gram = sa._output_gram(config, sa._tmsv_column(0.0, cutoff))
    full = (cutoff + kept[1],) * 2
    plated = occupation_plate(full, 1j)[:, None] * sa._split(stack, kept, 0, 0.5, full)
    reference = sa._gram(plated[:, sa._product_index(basis)])
    assert gram.shape == reference.shape
    assert np.abs(gram - reference).max() <= 1e-14 * np.sum(stack**2)


@settings(max_examples=30, deadline=None)
@given(
    cutoffs=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    smaller=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    t=st.floats(0.0, 1.0),
)
def test_cached_splitter_is_the_real_part_of_the_dense_one(cutoffs, smaller, t):
    in_cutoffs = tuple(max(c - s, 0) for c, s in zip(cutoffs, smaller))
    U = sa._cached_bs(cutoffs, t, in_cutoffs)
    dense = beam_splitter(ModeBasis(cutoffs), t, (0, 1))
    assert U.dtype == np.float64 and not U.flags.writeable
    assert np.all(dense.imag == 0.0)  # the part it drops is exactly zero
    (d0, d1), (e0, e1) = ((c + 1 for c in cut) for cut in (cutoffs, in_cutoffs))
    columns = dense.real.reshape(d0, d1, d0, d1)[:, :, :e0, :e1]
    assert np.array_equal(U, columns.reshape(d0 * d1, e0 * e1))


def complex_matrix(entry):
    return np.array(entry["real"]) + 1j * np.array(entry["imag"])


class TestPinnedDirectCircuit:
    """Heralded-PDC source and mixed-input scissor against the dense-splitter values."""

    @pytest.fixture(scope="class")
    def pdc(self):
        pins = PINS["heralded_pdc"]
        return pins, sa.SourceConfig(**pins["config"])

    def test_herald_probabilities(self, pdc):
        pins, config = pdc
        probs = sa.herald_probabilities(config)
        assert {"/".join(key) for key in probs} == set(pins["herald_probabilities"])
        for key, value in probs.items():
            assert value == pytest.approx(pins["herald_probabilities"]["/".join(key)], abs=1e-12)

    def test_amplified_source(self, pdc):
        pins, config = pdc
        out = sa.amplified_source(config)
        basis = pins["state_basis"]
        assert out.state.basis == ModeBasis(basis["cutoffs"], basis["total_cap"])
        assert out.success_probability == pytest.approx(pins["success_probability"], abs=1e-12)
        assert np.abs(out.state.matrix - complex_matrix(pins["state"])).max() < 1e-12

    @pytest.mark.parametrize("ancilla", ["single-photon", "heralded-pdc"])
    def test_scissor_on_mixed_input(self, ancilla, stack_dtypes):
        pins = PINS["qscissor_mixed_input"]
        rho = DensityOperator(ModeBasis((2,)), complex_matrix(pins["input"]))
        expected = pins["outputs"][ancilla]
        out = sa.qscissor_amplify(rho, **expected["kwargs"])
        # A complex input runs complex through the same stages.
        assert np.dtype(complex) in stack_dtypes["_split"] & stack_dtypes["_gram"]
        assert out.success_probability == pytest.approx(expected["success_probability"], abs=1e-12)
        assert np.abs(out.state.matrix - complex_matrix(expected["state"])).max() < 1e-12


@pytest.fixture
def stack_dtypes(monkeypatch):
    """The dtypes of the stacks that reach the circuit's stages, by stage name."""
    seen = {}
    for name in ("_split", "_gram", "_detected"):
        def spy(stack, *args, _stage=getattr(sa, name), _name=name, **kwargs):
            seen.setdefault(_name, set()).add(stack.dtype)
            return _stage(stack, *args, **kwargs)
        monkeypatch.setattr(sa, name, spy)
    monkeypatch.setattr(sa, "_STACK_CACHE", {})  # so that _source_stack runs the circuit
    return seen


PDC = sa.SourceConfig(**PINS["heralded_pdc"]["config"])
REAL_RUNS = {
    "amplified_source-single-photon": (
        lambda: sa.amplified_source(sa.SourceConfig(squeezing=0.2, amp_transmission=0.3,
                                                    coupling=0.9, cutoff=3)),
        {"_split", "_gram", "_detected"}),
    "amplified_source-heralded-pdc": (lambda: sa.amplified_source(PDC),
                                      {"_split", "_gram", "_detected"}),
    "herald_probabilities": (lambda: sa.herald_probabilities(PDC), {"_split"}),
    "_source_stack": (lambda: sa._source_stack(0.9, 3), {"_split", "_gram", "_detected"}),
}


@pytest.mark.parametrize("run, stages", list(REAL_RUNS.values()), ids=list(REAL_RUNS))
def test_circuit_runs_in_real_arithmetic(run, stages, stack_dtypes):
    """Every stack before the output plate is float64: no complex GEMM, no complex Gram.

    The source sweeps' stack applies no complex plate at all: its sector
    Grams take the plate as a real sign on their rows.
    """
    run()
    assert set(stack_dtypes) == stages
    assert all(dtypes == {np.dtype(np.float64)} for dtypes in stack_dtypes.values())


def both_arms_lossy(config, inputs):
    """Both arms' coupling loss on a ``(d, P)`` input block, arm 1 first.

    One block per pair of Kraus operators that ``sa._loss_branches`` keeps.
    """
    cutoffs, branches = (config.cutoff,) * 2, inputs[None]
    for mode in (0, 1):
        branches = sa._loss_branches(cutoffs, branches, mode, config.coupling)
    return branches


@pytest.fixture
def loss_before_heralds(monkeypatch):
    """Run the circuit with both arms' coupling loss in front of the heralds.

    The circuit applies arm 2's loss (mode 1) to its input block and arm 1's
    (mode 0) to the heralded branches.  Here the first becomes the loss on
    both arms (:func:`both_arms_lossy`) and the second the identity.  Returns
    the modes of the patched calls, so a test can check that both were made.
    """
    loss, modes = sa._loss_branches, []

    def loss_first(cutoffs, branches, mode, eta):
        modes.append(mode)
        if mode == 0:
            return branches
        return loss(cutoffs, loss(cutoffs, branches, 0, eta), 1, eta)

    monkeypatch.setattr(sa, "_loss_branches", loss_first)
    monkeypatch.setattr(sa, "_STACK_CACHE", {})
    return modes


#: The largest entry difference between arm 1's loss after the heralds and
#: both losses before them, for eta_c in {0.8, 0.9, 0.95} and cutoffs 2 to 6:
#: the same terms summed in another order (2.2e-16 measured, on entries of at
#: most 1).
LOSS_ORDER_TOL = 1e-15


def loss_order_runs(eta_c, cutoff):
    """The outputs that pass the coupling loss, by name, as arrays."""
    def source(model):
        out = sa.amplified_source(sa.SourceConfig(
            squeezing=0.2, amp_transmission=0.3, coupling=eta_c, ancilla_model=model,
            ancilla_squeezing=0.2, herald_efficiency=0.9, cutoff=cutoff))
        return np.append(out.state.matrix.ravel(), out.success_probability)

    return {"packed": np.concatenate([a.ravel() for a in sa._source_stack(eta_c, cutoff)[1:]]),
            "single-photon": source("single-photon"), "heralded-pdc": source("heralded-pdc")}


@pytest.mark.parametrize("cutoff", range(2, 7))
@pytest.mark.parametrize("eta_c", [0.8, 0.9, 0.95, 1.0])
def test_arm_one_loss_after_the_heralds_equals_the_loss_before_them(eta_c, cutoff, request):
    """Arm 1 is a spectator of the interference splitter and the detectors.

    Its Kraus operators commute with them, so moving them behind the heralds
    only reorders the sums; at eta_c = 1 no loss is applied and the outputs
    are equal bit for bit.
    """
    moved = loss_order_runs(eta_c, cutoff)
    modes = request.getfixturevalue("loss_before_heralds")
    first = loss_order_runs(eta_c, cutoff)
    assert set(modes) == {0, 1}  # the patch replaced both losses
    for name, value in moved.items():
        assert value.shape == first[name].shape, name
        if eta_c == 1.0:
            assert np.array_equal(value, first[name]), name
        else:
            assert np.abs(value - first[name]).max() <= LOSS_ORDER_TOL, name


@pytest.mark.parametrize("cutoff", range(2, 7))
@pytest.mark.parametrize("eta_c", [0.8, 0.9, 0.95, 1.0])
def test_herald_probabilities_keep_the_loss_before_the_heralds(eta_c, cutoff):
    """Arm 2's closed-form weights against the joint stack with both losses applied.

    The two sum the same terms in another order, so they agree to rounding
    only, at eta_c = 1 too.
    """
    config = sa.SourceConfig(squeezing=0.2, amp_transmission=0.3, coupling=eta_c,
                             herald_efficiency=0.9, cutoff=cutoff)
    probs, oracle = sa.herald_probabilities(config), joint_stack_herald_probabilities(config)
    assert list(probs) == list(oracle)
    assert all(abs(value - oracle[key]) <= LOSS_ORDER_TOL for key, value in probs.items())


def joint_stack_herald_probabilities(config):
    """Herald distribution from the full joint stack, the oracle of the photon-number path.

    Both arms pass their coupling loss before the heralds
    (:func:`both_arms_lossy`).  Every lossy input branch joins every ancilla
    branch (both D0 outcomes), the whole stack passes the 50/50 interference
    splitter, and the photon counts on the herald modes are summed per D0
    outcome.
    """
    c = config.cutoff
    c_anc = 1 if config.ancilla_model == "single-photon" else min(3, c)
    anc_basis, anc, labels = sa._ancilla_branches(config, c_anc)
    inputs = both_arms_lossy(config, sa._tmsv_column(config.squeezing, config.cutoff))
    small, big = (c, c) + anc_basis.cutoffs, (c, c + c_anc, c_anc + c, c_anc)
    (n_in, d, P), (n_anc, d_anc, Q) = inputs.shape, anc.shape
    joint = inputs[:, None, :, None, :, None] * anc[None, :, None, :, None, :]
    joint = sa._split(joint.reshape(n_in * n_anc, d * d_anc, P * Q), small, 1, 0.5, big)
    labels = np.tile(labels, n_in)

    detectors = {}
    for mode in (1, 2):
        click, no_click = sa._detector_diags(config.herald_efficiency, big[mode])
        detectors[mode] = {"click": click, "none": no_click}
    names = {("click", "none"): "d1", ("none", "click"): "d2",
             ("click", "click"): "both", ("none", "none"): "none"}
    d_a, d_b = big[1] + 1, big[2] + 1
    norms2 = sa._norms2(sa._herald_blocks(joint, big, 1, d_a * d_b)).reshape(-1, d_a, d_b)
    probs = {}
    for d0_label in dict.fromkeys(labels):
        counts = norms2[labels == d0_label].sum(axis=0)
        for (la, lb), name in names.items():
            key = (str(d0_label), name) if config.ancilla_model == "heralded-pdc" else name
            probs[key] = float(detectors[1][la] @ counts @ detectors[2][lb])
    return probs


def click_weights(eta, a_cutoff, b_cutoff, click):
    """The D1/D2 weights of ``click`` ("d1" or "d2") on every row of the interference splitter."""
    return np.outer(*sa._herald_detectors(eta, a_cutoff, b_cutoff)[click]).ravel()


def every_row(eta, a_cutoff, b_cutoff):
    """The D2 click's weights on every row of the interference splitter, heard or not."""
    weights = click_weights(eta, a_cutoff, b_cutoff, "d2")
    return np.arange(len(weights)), weights


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("eta_h", [1.0, 0.7, 0.0])
@pytest.mark.parametrize("ancilla", ["single-photon", "heralded-pdc"])
@pytest.mark.parametrize("cutoff", range(1, 7))
def test_heralded_rows_equal_the_full_split_then_drop(cutoff, ancilla, eta_h, real):
    """Bitwise: the rows the D2 click does not hear are dropped by the detectors."""
    config = sa.SourceConfig(squeezing=0.0, amp_transmission=0.3, ancilla_model=ancilla,
                             herald_efficiency=eta_h, cutoff=cutoff)
    c_anc = sa._ancilla_cutoff(config)
    small, big, _ = sa._interference_cutoffs((cutoff, cutoff), 1, c_anc)
    rows, weights = sa._herald_weights(eta_h, big[1], big[2])
    _, full = every_row(eta_h, big[1], big[2])
    assert np.array_equal(rows, np.flatnonzero(full > sa.BRANCH_TOL))
    assert np.array_equal(weights, full[rows])

    inputs = random_stack(cutoff, (2, (cutoff + 1) ** 2, 2))
    if real:
        inputs = inputs.real.copy()
    _, anc, labels = sa._ancilla_branches(config, c_anc)
    for block in anc[labels == "click"]:
        joint = (inputs[:, :, None, :, None] * block[None, None, :, None, :]).reshape(
            2, -1, 2 * block.shape[1])
        heard = sa._split(joint, small, 1, 0.5, big, rows)
        assert heard.shape[1] == (cutoff + 1) * len(rows) * (c_anc + 1)
        fast = sa._condition_on_heralds(big, heard, 1, weights)
        slow = sa._condition_on_heralds(big, sa._split(joint, small, 1, 0.5, big), 1, full)
        assert fast.dtype == inputs.dtype
        assert fast.shape == slow.shape
        assert np.array_equal(fast, slow)


def test_ideal_heralds_hear_seven_of_sixty_four_rows_at_cutoff_six():
    """D1 dark and D2 clicking: no photon on mode a, one to seven on mode b."""
    rows, weights = sa._herald_weights(1.0, 7, 7)
    assert np.array_equal(rows, np.arange(1, 8)) and weights.shape == (7,)


SCISSOR_INPUT = DensityOperator(ModeBasis((2,)),
                                complex_matrix(PINS["qscissor_mixed_input"]["input"]))
END_TO_END = {
    "single-photon": lambda eta_h: sa.amplified_source(sa.SourceConfig(
        squeezing=0.2, amp_transmission=0.3, coupling=0.9, herald_efficiency=eta_h, cutoff=4)),
    "heralded-pdc": lambda eta_h: sa.amplified_source(sa.SourceConfig(
        **{**PINS["heralded_pdc"]["config"], "herald_efficiency": eta_h})),
    "scissor-mixed-input": lambda eta_h: sa.qscissor_amplify(
        SCISSOR_INPUT, 0.3, herald_efficiency=eta_h),
    "scissor-mixed-input-heralded-pdc": lambda eta_h: sa.qscissor_amplify(
        SCISSOR_INPUT, 0.3, herald_efficiency=eta_h, ancilla_model="heralded-pdc"),
}


@pytest.mark.parametrize("eta_h", [1.0, 0.7])
@pytest.mark.parametrize("run", list(END_TO_END.values()), ids=list(END_TO_END))
def test_circuit_outputs_equal_the_full_split_bitwise(run, eta_h, monkeypatch):
    fast = run(eta_h)
    monkeypatch.setattr(sa, "_herald_weights", every_row)
    slow = run(eta_h)
    assert np.array_equal(fast.state.matrix, slow.state.matrix)
    assert fast.success_probability == slow.success_probability


def click_gram(config, inputs, input_cutoffs, scissor_mode, gram=None, photon=None, *, click):
    """``sa._heralded_gram`` on the full split, conditioned on ``click`` ("d1" or "d2") alone.

    The D1 click's branches get the feed-forward parity ``(-1)^n`` on the
    amplified mode (the last kept mode), built over the occupations
    (:func:`occupation_plate`).  ``gram`` (default ``sa._gram``) maps each
    ancilla block's branches to an array; the arrays are summed, from the
    array of no branch so that an ancilla that never clicks gives zeros, and
    not doubled.
    """
    gram = gram or sa._gram
    c_anc = sa._ancilla_cutoff(config)
    small, big, b_mode = sa._interference_cutoffs(input_cutoffs, scissor_mode, c_anc)
    kept = tuple(c for m, c in enumerate(big) if m not in (scissor_mode, b_mode))
    plate = occupation_plate(kept, -1.0 if click == "d1" else 1.0)[:, None]
    weights = click_weights(config.herald_efficiency, big[scissor_mode], big[b_mode], click)
    _, anc, labels = sa._ancilla_branches(config, c_anc, photon)
    (n_in, d, P), Q = inputs.shape, anc.shape[2]
    total = gram(np.zeros((0, math.prod(c + 1 for c in kept), P * Q), dtype=inputs.dtype))
    for block in anc[labels == "click"]:
        joint = (inputs[:, :, None, :, None] * block[None, None, :, None, :]).reshape(
            n_in, d * len(block), P * Q)
        joint = sa._split(joint, small, scissor_mode, 0.5, big)
        total = total + gram(plate * sa._condition_on_heralds(big, joint, scissor_mode, weights))
    return total


def two_click_gram(*args):
    """Both clicks of :func:`click_gram` summed: the reference of ``sa._heralded_gram``."""
    return click_gram(*args, click="d1") + click_gram(*args, click="d2")


#: The largest entry difference between the doubled D2 click and both clicks,
#: relative to the largest entry: the mirrored rows' splitter amplitudes are
#: equal up to rounding (2.2e-16 measured).
MIRROR_RTOL = 1e-15


def assert_mirrored(value, reference):
    assert value.shape == reference.shape
    assert np.abs(value - reference).max() <= MIRROR_RTOL * np.abs(reference).max()


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("eta_h", [1.0, 0.7, 0.0])
@pytest.mark.parametrize("ancilla", ["single-photon", "heralded-pdc"])
@pytest.mark.parametrize("cutoff", range(1, 7))
def test_the_plated_d1_click_mirrors_the_d2_click(cutoff, ancilla, eta_h, real):
    """Gram(D1, plated) = Gram(D2), and the circuit is their sum.

    The 50/50 splitter maps the D1 rows onto the D2 rows up to the parity of
    the ancilla's b mode, and the detectors share one efficiency.
    """
    config = sa.SourceConfig(squeezing=0.0, amp_transmission=0.3, ancilla_model=ancilla,
                             herald_efficiency=eta_h, cutoff=cutoff)
    inputs = random_stack(cutoff, (2, (cutoff + 1) ** 2, 2))
    args = (config, inputs.real.copy() if real else inputs, (cutoff, cutoff), 1)
    d1, d2 = (click_gram(*args, click=click) for click in ("d1", "d2"))
    assert_mirrored(d1, d2)
    assert_mirrored(sa._heralded_gram(*args), d1 + d2)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("eta_h", [1.0, 0.7, 0.0])
@pytest.mark.parametrize("ancilla", ["single-photon", "heralded-pdc"])
@pytest.mark.parametrize("cutoff", range(1, 7))
def test_each_plated_d1_branch_is_a_signed_d2_branch(cutoff, ancilla, eta_h, real):
    """Branch by branch, before the detectors drop any row.

    On the full split of an ancilla branch of m photons, the D1 click's
    weighted block on row (na, nb), plated with ``(-1)^n`` on the amplified
    mode, is ``(-1)^m`` times the D2 click's weighted block on row (nb, na).
    The two clicks' weights are mirror images, bitwise.  This is the
    per-branch sign that leaves the Gram arrays equal.
    """
    config = sa.SourceConfig(squeezing=0.0, amp_transmission=0.3, ancilla_model=ancilla,
                             herald_efficiency=eta_h, cutoff=cutoff)
    c_anc = sa._ancilla_cutoff(config)
    small, big, b_mode = sa._interference_cutoffs((cutoff, cutoff), 1, c_anc)
    assert big[1] == big[b_mode]  # the mirrored rows exist
    n_rows = big[1] + 1
    d1, d2 = (np.sqrt(click_weights(eta_h, big[1], big[b_mode], click)).reshape(n_rows, n_rows)
              for click in ("d1", "d2"))
    assert np.array_equal(d1, d2.T)

    kept = (big[0], big[3])
    plate = occupation_plate(kept, -1.0).reshape(big[0] + 1, big[3] + 1, 1)
    inputs = random_stack(cutoff, (2, (cutoff + 1) ** 2, 2))
    if real:
        inputs = inputs.real.copy()
    anc_basis, anc, _ = sa._ancilla_branches(config, c_anc)
    for block in anc:
        (photons,) = {sum(occ) for occ, row in zip(anc_basis.occupations, block) if row.any()}
        joint = (inputs[:, :, None, :, None] * block[None, None, :, None, :]).reshape(
            2, -1, 2 * block.shape[1])
        joint = sa._split(joint, small, 1, 0.5, big)
        rows = sa._herald_blocks(joint, big, 1, n_rows**2).reshape(
            2, n_rows, n_rows, big[0] + 1, big[3] + 1, -1)
        d1_click = d1[:, :, None, None, None] * rows * plate
        d2_click = d2[:, :, None, None, None] * rows
        assert_mirrored(d1_click, (-1) ** photons * d2_click.transpose(0, 2, 1, 3, 4, 5))


@pytest.mark.parametrize("ancilla", ["single-photon", "heralded-pdc"])
def test_scissor_output_is_the_two_click_sum(ancilla, monkeypatch):
    """``qscissor_amplify`` of the pinned complex mixed input, end to end."""
    expected = PINS["qscissor_mixed_input"]["outputs"][ancilla]["kwargs"]
    fast = sa.qscissor_amplify(SCISSOR_INPUT, **expected)
    monkeypatch.setattr(sa, "_heralded_gram", two_click_gram)
    slow = sa.qscissor_amplify(SCISSOR_INPUT, **expected)
    assert_mirrored(fast.state.matrix, slow.state.matrix)
    assert abs(fast.success_probability - slow.success_probability) <= MIRROR_RTOL


@st.composite
def source_configs(draw):
    return sa.SourceConfig(
        squeezing=draw(st.floats(0.0, 0.5)),
        amp_transmission=draw(st.floats(0.01, 1.0)),
        coupling=draw(st.floats(0.8, 1.0)),
        ancilla_model=draw(st.sampled_from(["single-photon", "heralded-pdc"])),
        ancilla_squeezing=draw(st.floats(0.0, 0.4)),
        herald_efficiency=draw(st.floats(0.0, 1.0)),
        cutoff=draw(st.integers(1, 4)),
    )


@settings(max_examples=60, deadline=None)
@given(config=source_configs())
@example(config=sa.SourceConfig(**PINS["heralded_pdc"]["config"]))
@example(config=sa.SourceConfig(squeezing=0.1, amp_transmission=0.3, herald_efficiency=0.0,
                                ancilla_model="heralded-pdc", cutoff=3))
def test_herald_probabilities_match_the_joint_stack(config):
    probs = sa.herald_probabilities(config)
    oracle = joint_stack_herald_probabilities(config)
    assert list(probs) == list(oracle)
    for key, value in probs.items():
        assert abs(value - oracle[key]) < 1e-12
        assert -1e-12 <= value <= 1.0 + 1e-12  # rounding: 1 + 2e-16 occurs
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    accepted = [("click", p) if config.ancilla_model == "heralded-pdc" else p
                for p in ("d1", "d2")]
    heralded = sum(probs.get(key, 0.0) for key in accepted)
    assert abs(heralded - sa.amplified_source(config).success_probability) < 1e-12


@pytest.mark.parametrize("run", [sa.herald_probabilities, sa.amplified_source],
                         ids=["herald_probabilities", "amplified_source"])
def test_heralded_pdc_circuit_stays_small(run):
    """No joint stack of every input branch times every ancilla branch is built.

    That stack held 63 MiB (herald probabilities) and 42 MiB (source) at
    cutoff 5; the streamed circuit peaks near 0.02 and 0.2 MiB.
    """
    config = sa.SourceConfig(squeezing=0.2, amp_transmission=0.3, coupling=0.95,
                             ancilla_model="heralded-pdc", ancilla_squeezing=0.2, cutoff=5)
    run(config)  # fill the splitter and loss caches outside the measurement
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def dense_ancilla_distribution(config, c_cutoff):
    """``p[o, m]`` from the density matrix of the heralded-PDC pair, one Kraus sum per arm.

    The truncated squeezed vacuum on (signal, idler) passes the coupling loss
    on both arms; the signal's photon number m and the idler's D0 outcome o
    (click, none) are then read off the dense two-mode state.
    """
    psi = sa.two_mode_squeezed(config.ancilla_squeezing, c_cutoff).amplitudes.real
    rho = np.outer(psi, psi)
    eye = np.eye(c_cutoff + 1)
    for mode in (0, 1):
        ops = [np.kron(A, eye) if mode == 0 else np.kron(eye, A)
               for A in loss_kraus(config.coupling, c_cutoff)]
        rho = sum(A @ rho @ A.T for A in ops)
    no_click, click, _ = photodetection_povm(config.herald_efficiency, c_cutoff)
    return np.array([[np.trace(np.kron(np.diag(eye[m]), povm) @ rho) for m in range(c_cutoff + 1)]
                     for povm in (click, no_click)])


@settings(max_examples=80, deadline=None)
@given(
    lam=st.floats(0.0, 0.95),
    eta_c=st.floats(0.0, 1.0),
    eta_h=st.floats(0.0, 1.0),
    c_cutoff=st.integers(1, 3),
)
@example(lam=0.3, eta_c=0.0, eta_h=0.7, c_cutoff=3)
@example(lam=0.3, eta_c=1.0, eta_h=0.7, c_cutoff=3)
@example(lam=0.3, eta_c=0.8, eta_h=0.0, c_cutoff=2)
@example(lam=0.3, eta_c=0.8, eta_h=1.0, c_cutoff=2)
@example(lam=0.0, eta_c=0.8, eta_h=0.9, c_cutoff=1)
@example(lam=0.9, eta_c=1.0, eta_h=1.0, c_cutoff=3)
def test_ancilla_distribution_matches_the_dense_state(lam, eta_c, eta_h, c_cutoff):
    config = sa.SourceConfig(squeezing=0.0, amp_transmission=0.5, coupling=eta_c,
                             ancilla_model="heralded-pdc", ancilla_squeezing=lam,
                             herald_efficiency=eta_h)
    p = sa._ancilla_distribution(config, c_cutoff)
    assert p.shape == (2, c_cutoff + 1)
    assert np.abs(p - dense_ancilla_distribution(config, c_cutoff)).max() < 1e-14
    assert abs(p.sum() - 1.0) < 1e-14


def test_ancilla_branches_are_one_block_per_kept_photon_number():
    """Each block is sqrt(p[o, m]) |m, 0> through the ancilla splitter, clicks first."""
    config = sa.SourceConfig(**{**PINS["heralded_pdc"]["config"], "coupling": 0.9})
    c_cutoff = sa._ancilla_cutoff(config)
    p = sa._ancilla_distribution(config, c_cutoff)
    basis, anc, labels = sa._ancilla_branches(config, c_cutoff)
    outcome, photons = np.nonzero(p > sa.BRANCH_TOL)
    assert list(labels) == [("click", "none")[o] for o in outcome]
    assert list(labels).index("none") == int((outcome == 0).sum())
    U = beam_splitter(basis, config.amp_transmission, (0, 1))
    for block, o, m in zip(anc, outcome, photons):
        expected = np.sqrt(p[o, m]) * U[:, basis.index_of((m, 0))]
        assert np.abs(block[:, 0] - expected).max() < 1e-15


def test_heralded_pdc_source_runs_one_pass_per_clicked_photon_number(monkeypatch):
    """At cutoff 5 the ancilla carries 0 ... 3 photons: four passes, not one per Kraus branch."""
    config = sa.SourceConfig(squeezing=0.2, amp_transmission=0.3, coupling=0.95,
                             ancilla_model="heralded-pdc", ancilla_squeezing=0.2, cutoff=5)
    passes = []

    def condition(*args, _stage=sa._condition_on_heralds):
        passes.append(args)
        return _stage(*args)

    monkeypatch.setattr(sa, "_condition_on_heralds", condition)
    sa.amplified_source(config)
    p = sa._ancilla_distribution(config, sa._ancilla_cutoff(config))
    assert len(passes) == int((p[0] > sa.BRANCH_TOL).sum()) <= 4
