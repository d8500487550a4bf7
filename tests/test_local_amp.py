import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvbell.local_amp as la
import cvbell.measurement as measurement
import cvbell.reproduce
import cvbell.source_amp as sa
from cvbell.bell import (
    PartyConditions,
    _parity_sectors,
    _state_chsh,
    critical_efficiency,
    optimize_delta,
)
from cvbell.fock import LossChannel, apply_channel, shared_basis
from cvbell.local_amp import (
    apply_filters,
    filter_diagonal,
    filter_operator,
    filtered_chsh,
    filtered_critical_transmission,
    filtered_state,
    log_linear_fit,
    lossy_psi2,
    psi2_state,
)
from cvbell.measurement import DELTA_MAX
from cvbell.source_amp import amplified_source_threshold_with_filters


class TestFilterOperator:
    def test_unit_gain_is_identity(self):
        assert np.allclose(filter_operator(1.0, 4).matrix, np.eye(5))

    def test_gain_two_is_photon_number_plus_one(self):
        assert np.allclose(np.diag(filter_operator(2.0, 4).matrix), [1, 2, 3, 4, 5])

    def test_gain_three_two_photons(self):
        assert filter_operator(3.0, 3).matrix[2, 2] == pytest.approx(5.0)


#: Every public way into the filter, called with a gain and a number of applications.
FILTER_ENTRY_POINTS = {
    "filter_diagonal": lambda g, m: filter_diagonal(shared_basis((2, 2)), g, m),
    "filter_operator": lambda g, m: filter_operator(g, 4),
    "apply_filters": lambda g, m: apply_filters(lossy_psi2(0.8), g, m),
    "filtered_state": lambda g, m: filtered_state(0.8, g, m),
    "filtered_chsh": lambda g, m: filtered_chsh(0.8, g, m),
    "filtered_critical_transmission": lambda g, m: filtered_critical_transmission(g, m),
    "amplified_source_threshold_with_filters":
        lambda g, m: amplified_source_threshold_with_filters(g, m, cutoff=2),
}


class TestFilterArguments:
    """The filter's gain and applications are checked once, in ``filter_diagonal``."""

    @pytest.mark.parametrize("entry", FILTER_ENTRY_POINTS)
    @pytest.mark.parametrize("gain", [float("nan"), float("inf"), -1.0, 0.5])
    def test_gain_below_one_or_not_finite_is_named(self, entry, gain):
        message = re.escape(f"filter gain must be finite and at least 1, got {gain}")
        with pytest.raises(ValueError, match=message):
            FILTER_ENTRY_POINTS[entry](gain, 1)

    @pytest.mark.parametrize("entry", [name for name in FILTER_ENTRY_POINTS
                                       if name != "filter_operator"])
    @pytest.mark.parametrize("applications", [0, -2])
    def test_fewer_than_one_application_is_named(self, entry, applications):
        message = f"filter applications must be at least 1, got {applications}"
        with pytest.raises(ValueError, match=message):
            FILTER_ENTRY_POINTS[entry](2.0, applications)


class TestLossyPsi2:
    def test_unit_transmission(self):
        rho = lossy_psi2(1.0)
        psi = psi2_state().amplitudes
        assert np.abs(rho.matrix - np.outer(psi, psi.conj())).max() < 1e-14

    def test_zero_transmission(self):
        rho = lossy_psi2(0.0)
        assert rho.matrix[0, 0] == pytest.approx(1.0)

    def test_half_transmission_weights(self):
        rho = lossy_psi2(0.5)
        b = rho.basis
        two_photon = (
            rho.matrix[b.index_of((2, 0)), b.index_of((2, 0))]
            + rho.matrix[b.index_of((0, 2)), b.index_of((0, 2))]
        ).real
        one_photon = (
            rho.matrix[b.index_of((0, 1)), b.index_of((0, 1))]
            + rho.matrix[b.index_of((1, 0)), b.index_of((1, 0))]
        ).real
        vac = rho.matrix[0, 0].real
        assert two_photon == pytest.approx(0.25)
        assert one_photon == pytest.approx(0.5)
        assert vac == pytest.approx(0.25)

    @pytest.mark.parametrize("eta", [0.2, 0.5, 0.84, 0.0, 1.0])
    def test_matches_loss_channel(self, eta):
        # The closed form against the generic per-mode Kraus channel.
        for cutoff in (2, 6):
            direct = lossy_psi2(eta, cutoff)
            channel = psi2_state(cutoff).to_density()
            for mode in (0, 1):
                channel = apply_channel(channel, LossChannel(eta), mode)
            assert np.abs(direct.matrix - channel.matrix).max() < 1e-12

    def test_trace_one(self):
        assert lossy_psi2(0.37).trace() == pytest.approx(1.0, abs=1e-12)


class TestApplyFilters:
    def test_unit_gain_identity(self):
        rho = lossy_psi2(0.6)
        for m in (1, 3):
            out = apply_filters(rho, 1.0, m)
            assert np.abs(out.matrix - rho.matrix).max() < 1e-14

    def test_component_weights_gain_two(self):
        # Conjugation multiplies the sectors by (2g-1)^2, g^2 and 1.
        rho = apply_filters(lossy_psi2(0.5), 2.0)
        b = rho.basis
        norm = 9 * 0.25 + 4 * 0.5 + 0.25
        two_photon = (
            rho.matrix[b.index_of((2, 0)), b.index_of((2, 0))]
            + rho.matrix[b.index_of((0, 2)), b.index_of((0, 2))]
        ).real
        assert two_photon == pytest.approx(9 * 0.25 / norm, abs=1e-12)
        one_photon = 2 * rho.matrix[b.index_of((0, 1)), b.index_of((0, 1))].real
        assert one_photon == pytest.approx(4 * 0.5 / norm, abs=1e-12)
        assert rho.matrix[0, 0].real == pytest.approx(0.25 / norm, abs=1e-12)

    def test_two_photon_weight_increases_with_gain(self):
        b = lossy_psi2(0.5).basis
        i, j = b.index_of((2, 0)), b.index_of((0, 2))
        weights = []
        for g in (1.0, 1.5, 2.0, 3.0, 4.0):
            rho = apply_filters(lossy_psi2(0.5), g)
            weights.append((rho.matrix[i, i] + rho.matrix[j, j]).real)
        assert np.all(np.diff(weights) > 0)

    def test_repeated_equals_powered_diagonal(self):
        rho = lossy_psi2(0.7)
        g, m = 2.0, 3
        repeated = rho
        for _ in range(m):
            repeated = apply_filters(repeated, g, 1)
        direct = apply_filters(rho, g, m)
        assert np.abs(repeated.matrix - direct.matrix).max() < 1e-12

    def test_trace_formula(self):
        # Computed trace of the conjugated state, used as the normalizer.
        g, eta = 2.0, 0.5
        rho = lossy_psi2(eta)
        diag = np.array([1.0, g, 2 * g - 1.0])
        full = np.array([diag[o[0]] * diag[o[1]] for o in rho.basis.occupations])
        trace = float(np.trace(full[:, None] * rho.matrix * full[None, :]).real)
        expected = (2 * g - 1) ** 2 * eta**2 + 2 * g**2 * eta * (1 - eta) + (1 - eta) ** 2
        assert trace == pytest.approx(expected, abs=1e-12)
        assert abs(trace - 1.0) > 0.1  # filtering is not trace preserving
        g1 = np.ones(3)
        full1 = np.array([g1[o[0]] * g1[o[1]] for o in rho.basis.occupations])
        trace1 = float(np.trace(full1[:, None] * rho.matrix * full1[None, :]).real)
        assert trace1 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gain, applications, one_mode_overflows", [
        (1e200, 1, False),  # only the two-mode product overflows
        (1e308, 1, True),
        (2.0, 10**8, True),
    ])
    def test_overflowing_filter_is_named(self, gain, applications, one_mode_overflows):
        """The filter diagonal, and every path through it, rejects an infinite entry."""
        message = re.escape(f"filter of gain {gain} applied {applications} times overflows")
        with pytest.raises(ValueError, match=message):
            apply_filters(lossy_psi2(0.8), gain, applications)
        one_mode = partial(filter_diagonal, shared_basis((2,)), gain, applications)
        if one_mode_overflows:
            with pytest.raises(ValueError, match=message):
                one_mode()
        else:
            assert np.isfinite(one_mode()).all()
        # The solvers' mode filter checks the two-mode diagonal at the caller's cutoff.
        with pytest.raises(ValueError, match=message + ".* at cutoff 2$"):
            la._mode_filter(shared_basis((2, 2), 2), gain, applications, 2)

    def test_positivity_preserved(self):
        rho = apply_filters(lossy_psi2(0.4), 3.0, 2)
        assert np.linalg.eigvalsh(rho.matrix).min() > -1e-10
        assert np.abs(rho.matrix - rho.matrix.conj().T).max() < 1e-10


class TestFilteredThresholds:
    def test_no_filter_baseline(self):
        thr = filtered_critical_transmission(1.0)
        assert thr == pytest.approx(0.8374, abs=0.002)

    def test_gain_two(self):
        # Printed-model value; the 0.62 reference is checked in acceptance.
        thr = filtered_critical_transmission(2.0)
        assert thr == pytest.approx(0.6527, abs=0.002)

    def test_gain_three(self):
        thr = filtered_critical_transmission(3.0)
        assert thr == pytest.approx(0.5601, abs=0.002)

    def test_threshold_decreases_with_gain(self):
        t1 = filtered_critical_transmission(1.0)
        t2 = filtered_critical_transmission(2.0)
        t3 = filtered_critical_transmission(3.0)
        assert t1 > t2 > t3

    def test_coupling_composes_with_transmission(self):
        # eta_c folds into eta_t ahead of the filters.
        thr = filtered_critical_transmission(2.0, eta_c=0.9)
        base = filtered_critical_transmission(2.0)
        assert thr == pytest.approx(base / 0.9, abs=0.002)

    def test_no_violation_at_low_detection(self):
        assert filtered_critical_transmission(2.0, eta_d=0.3) is None


def filter_curve(applications) -> list:
    """``(m, eta_t*)`` of gain-2 filters for each number m of applications."""
    return [(m, filtered_critical_transmission(2.0, m)) for m in applications]


class TestMultiFilter:
    def test_curve_monotone_decreasing(self):
        thresholds = [thr for _, thr in filter_curve(range(1, 5))]
        assert all(t is not None for t in thresholds)
        assert np.all(np.diff(thresholds) < 0)

    def test_middle_point_between_neighbours(self):
        curve = dict(filter_curve(range(1, 4)))
        assert curve[3] < curve[2] < curve[1]

    def test_log_linear_fit_quality(self):
        slope, _, r2 = log_linear_fit(filter_curve(range(1, 5)))
        assert slope < 0
        assert r2 >= 0.98


class TestCombinedScheme:
    def test_source_feed_never_worse_than_psi2(self):
        # The source family contains the bare two-photon state as a limit,
        # so feeding the filters from it cannot raise the threshold.
        from cvbell.source_amp import amplified_source_threshold_with_filters

        threshold_psi2 = filtered_critical_transmission(2.0, tol=2e-3)
        threshold_source = amplified_source_threshold_with_filters(2.0, tol=2e-3)
        assert threshold_psi2 == pytest.approx(0.6527, abs=5e-3)
        assert threshold_source is not None
        assert threshold_source <= threshold_psi2 + 2e-3

    def test_vacuum_source_slice_has_no_violation(self):
        from cvbell.bell import PartyConditions, optimize_delta
        from cvbell.fock import LossChannel, apply_channel
        from cvbell.source_amp import SourceConfig, amplified_source

        out = amplified_source(SourceConfig(squeezing=0.0, amp_transmission=0.3, cutoff=3))
        rho = out.state
        for mode in (0, 1):
            rho = apply_channel(rho, LossChannel(0.9), mode)
        rho = apply_filters(rho, 2.0)
        _, value = optimize_delta(PartyConditions(), PartyConditions(), state=rho, grid_points=61)
        assert value <= 2.0 + 1e-9

    def test_report_symmetric_in_party_exchange(self):
        # The pipeline is party symmetric: swapping the two output modes of
        # the filtered lossy state leaves the optimized CHSH unchanged.
        from cvbell.bell import PartyConditions, optimize_delta
        from cvbell.fock import DensityOperator

        rho = filtered_state(0.7, 2.0)
        b = rho.basis
        perm = [b.index_of(tuple(reversed(occ))) for occ in b.occupations]
        swapped = DensityOperator(b, rho.matrix[np.ix_(perm, perm)])
        p = PartyConditions()
        _, v1 = optimize_delta(p, p, state=rho, grid_points=61)
        _, v2 = optimize_delta(p, p, state=swapped, grid_points=61)
        assert v1 == pytest.approx(v2, abs=1e-12)


class TestFilteredChsh:
    def test_two_applications_help_at_feasibility_point(self):
        _, v1 = filtered_chsh(0.8, 2.0, 1, eta_d=0.8)
        _, v2 = filtered_chsh(0.8, 2.0, 2, eta_d=0.8)
        assert v2 > v1 - 1e-9
        assert v2 > 2.0

    @pytest.mark.parametrize("cutoff", [0, 1])
    @pytest.mark.parametrize("solve", [
        lambda cutoff: filtered_chsh(0.8, 2.0, cutoff=cutoff),
        lambda cutoff: filtered_critical_transmission(2.0, cutoff=cutoff),
        psi2_state,
        lambda cutoff: lossy_psi2(0.8, cutoff),
        lambda cutoff: filtered_state(0.8, 2.0, cutoff=cutoff),
    ], ids=["filtered_chsh", "filtered_critical_transmission", "psi2_state", "lossy_psi2",
            "filtered_state"])
    def test_a_cutoff_below_two_is_rejected(self, solve, cutoff):
        # psi2 holds two photons in a mode.
        with pytest.raises(ValueError, match=f"cutoff of at least 2, got {cutoff}$"):
            solve(cutoff)

    def test_cutoff_independent(self):
        _, v2 = filtered_chsh(0.7, 2.0, 1, cutoff=2)
        _, v6 = filtered_chsh(0.7, 2.0, 1, cutoff=6)
        assert v2 == pytest.approx(v6, abs=1e-9)

    def test_filtered_state_hermitian(self):
        rho = filtered_state(0.5, 2.0, 2)
        assert np.abs(rho.matrix - rho.matrix.conj().T).max() < 1e-12

    def test_refine_matches_the_forward_state(self):
        # An interior optimum off the grid: the refine runs on the pulled-back slopes.
        delta, value = filtered_chsh(0.8, 2.0, 2, eta_d=0.8)
        party = PartyConditions(eta_d=0.8)
        reference = optimize_delta(party, party, state=filtered_state(0.8, 2.0, 2))
        assert delta == pytest.approx(0.7935, abs=1e-4)
        assert abs(delta - reference[0]) <= 1e-9
        assert abs(value - reference[1]) <= 1e-12

    def test_row_seven_passes_only_above_the_violation_bound(self, monkeypatch):
        # A value at 2 up to rounding is the constant-observable corner, no violation.
        monkeypatch.setattr(cvbell.reproduce, "filtered_chsh",
                            lambda *args, **kwargs: (0.0, 2.0 + 1e-12))
        rows = cvbell.reproduce.reproduce_all(include_source=False).rows
        row = next(row for row in rows if row.name.startswith("7."))
        assert row.target == "CHSH > 2"
        assert not row.passed


def packed_psi2(basis):
    """(|20> + |02>)(<20| + <02|) on the photon-parity sector entries of ``basis``."""
    v = np.zeros(basis.dimension)
    v[[basis.index_of((2, 0)), basis.index_of((0, 2))]] = 1.0
    return np.outer(v, v).ravel()[_parity_sectors(basis).entries]


def assert_close_to_reference(found, reference):
    """Values and slopes within 1e-13 of the largest reference value."""
    scale = max(np.abs(r).max() for r in reference)
    for f, r in zip(found, reference, strict=True):
        assert np.abs(f - r).max() <= 1e-13 * scale


below_one = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
delta_arrays = st.lists(st.floats(min_value=0.0, max_value=DELTA_MAX), min_size=1,
                        max_size=5).map(np.array)


class TestPulledBackForms:
    """The filtered solvers' values and slopes against states sent forward."""

    @settings(max_examples=40, deadline=None)
    @given(cutoff=st.sampled_from([2, 6]), applications=st.integers(1, 4),
           gain=st.floats(min_value=1.0, max_value=4.0), eta_t=st.floats(0.0, 1.0),
           eta_c=below_one, eta_d=below_one, deltas=delta_arrays)
    def test_local_psi2(self, cutoff, applications, gain, eta_t, eta_c, eta_d, deltas):
        party = PartyConditions(eta_d=eta_d)
        rho = filtered_state(eta_t, gain, applications, eta_c, cutoff)
        reference = _state_chsh(rho, party, party)[1](deltas)
        # The capped basis at the caller's cutoff, and the psi2 refine's own (2, 2).
        for basis in (shared_basis((cutoff, cutoff), 2), shared_basis((2, 2))):
            f = la._mode_filter(basis, gain, applications, cutoff)
            found = la._filtered_slopes(basis, party, f, (eta_t * eta_c,) * 2,
                                        packed_psi2(basis))(deltas)
            assert_close_to_reference(found, reference)

    @settings(max_examples=30, deadline=None)
    @given(cutoff=st.integers(2, 4), eta_c=st.sampled_from([1.0, 0.9]),
           applications=st.integers(1, 4), gain=st.floats(min_value=1.0, max_value=4.0),
           eta=st.floats(0.0, 1.0), eta_d=below_one, lam=st.floats(0.0, 0.9),
           t=st.floats(0.01, 1.0), deltas=delta_arrays)
    def test_filtered_source(self, cutoff, eta_c, applications, gain, eta, eta_d, lam, t,
                             deltas):
        basis, packed, _ = sa._source_stack(eta_c, cutoff)
        party = PartyConditions(eta_d=eta_d)
        f = la._mode_filter(basis, gain, applications, cutoff)
        rho = sa._image_weights(lam, t, len(packed) // 4 - 1) @ packed
        found = la._filtered_slopes(basis, party, f, (eta, eta), rho)(deltas)
        state = sa._image_state(basis, packed, lam, t)
        for mode in (0, 1):
            state = apply_channel(state, LossChannel(eta), mode)
        state = apply_filters(state, gain, applications)
        assert_close_to_reference(found, _state_chsh(state, party, party)[1](deltas))

    def test_psi2_grid_steps_read_only_the_expansion(self, monkeypatch):
        # After the set-up a grid step applies no loss; only the refine, when
        # it runs, pulls the factors back through the step's loss.
        search = la._psi2_search(2.0, 2, 0.8, 1.0, 2)

        def pulled(*args, **kwargs):
            raise AssertionError("a psi2 grid step applied a loss")

        with monkeypatch.context() as patch:
            for module, name in ((measurement, "_loss_channel"), (measurement, "_through_loss"),
                                 (la, "_through_loss"), (la, "_filtered_slopes")):
                patch.setattr(module, name, pulled)
            for eta_t in (0.6, 0.8, 1.0):
                assert not search(eta_t, -math.inf).refined
        etas, slopes = [], la._filtered_slopes
        monkeypatch.setattr(la, "_filtered_slopes",
                            lambda *args: etas.append(args[3]) or slopes(*args))
        refined = search(0.8)
        assert refined.evaluations > 0 and etas == [(0.8, 0.8)]
        assert filtered_chsh(0.8, 2.0, 2, eta_d=0.8) == (refined.delta, refined.value)

    @pytest.mark.parametrize("solve", [
        lambda: filtered_chsh(0.8, 2.0, 2, eta_d=0.8),  # with a refine
        lambda: filtered_critical_transmission(2.0, 3, cutoff=6),
        lambda: amplified_source_threshold_with_filters(2.0, cutoff=4),
        lambda: sa.source_critical_transmission(eta_c=0.9, symmetry="asymmetric"),
    ], ids=["filtered_chsh", "filtered_critical_transmission",
            "amplified_source_threshold_with_filters", "source_critical_transmission"])
    def test_a_solve_builds_the_filter_once(self, monkeypatch, solve):
        # One check of the one occupation (cutoff, cutoff), then one mode
        # filter for both modes, however many steps and refines follow.
        calls, entries = [], la._filter_entries

        def counted(occupations, *args):
            calls.append(occupations.shape)
            return entries(occupations, *args)

        monkeypatch.setattr(la, "_filter_entries", counted)
        solve()
        assert len(calls) == 2 and calls[0] == (1, 2) and calls[1][1] == 1

    def test_source_refines_build_no_filter(self, monkeypatch):
        basis, packed, _ = sa._source_stack(0.9, 4)
        f = la._mode_filter(basis, 2.0, 2, 4)
        rho = sa._image_weights(0.1, 0.01, len(packed) // 4 - 1) @ packed
        slopes = la._filtered_slopes(basis, PartyConditions(eta_d=0.9), f, (0.8, 0.7), rho)
        monkeypatch.setattr(la, "filter_diagonal", None)  # any call would fail
        for delta in (0.5, 0.6, 0.7):
            slopes(np.array([delta]))

    def test_no_solver_sends_a_filtered_state_forward(self, monkeypatch):
        def forward(*args, **kwargs):
            raise AssertionError("a solver built a filtered state")

        for name in ("filtered_state", "apply_filters", "lossy_psi2"):
            monkeypatch.setattr(la, name, forward)
        assert filtered_critical_transmission(2.0) is not None
        assert filtered_chsh(0.8, 2.0, 2, eta_d=0.8)[1] > 2.0
        assert amplified_source_threshold_with_filters(2.0, cutoff=4) is not None


def overflow_boundary(applications: int, cutoff: int) -> tuple[float, float]:
    """The largest gain whose two-mode filter diagonal at ``cutoff`` is finite, and the next."""
    basis = shared_basis((cutoff, cutoff))
    lo, hi = 1.0, 1e308
    while True:
        mid = math.sqrt(lo * hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi
        try:
            filter_diagonal(basis, mid, applications)
            lo = mid
        except ValueError:
            hi = mid


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cutoff", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("solve", [filtered_critical_transmission,
                                   amplified_source_threshold_with_filters],
                         ids=["local", "source"])
def test_overflow_boundary_is_the_two_mode_diagonal(solve, cutoff):
    below, above = overflow_boundary(1, cutoff)
    found = solve(below, 1, cutoff=cutoff)
    assert found is None or 0.0 <= found <= 1.0
    message = (f"the filter of gain {above} applied 1 times overflows the float range "
               f"at cutoff {cutoff}")
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        solve(above, 1, cutoff=cutoff)


@pytest.mark.parametrize("solve", [
    lambda cutoff: critical_efficiency("eta_t", state=psi2_state(cutoff), cutoff=cutoff),
    lambda cutoff: filtered_critical_transmission(2.0, cutoff=cutoff),
], ids=["critical_efficiency", "filtered_critical_transmission"])
def test_psi2_solves_do_not_grow_with_the_cutoff(solve):
    """psi2 is trimmed to its support before it is densified.

    Densifying the padded state first peaked near 130 MiB at cutoff 40; the
    trimmed state peaks near 0.5 MiB.
    """
    expected = solve(2)  # fills the caches outside the measurement
    tracemalloc.start()
    try:
        value = solve(40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == expected
    assert peak < 2 * 2**20


def test_a_filtered_sweep_over_cutoffs_holds_no_cutoff_sized_basis():
    """The cutoff reaches only the closed-form filter check, so a sweep over it stays small.

    Checking on the two-mode basis held about 88 MiB of bases at the first
    three cutoffs; checking on the one-mode basis peaked at 80 MiB RSS at
    300 000 and refused 10^9 at the dense-storage guard.
    """
    expected = filtered_critical_transmission(2.0)  # fills the caches outside the measurement
    cutoffs = (100, 400, 700, 300_000, 10**9)
    tracemalloc.start()
    try:
        values = [filtered_critical_transmission(2.0, cutoff=c) for c in cutoffs]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values == [expected] * len(cutoffs)
    assert peak < 2 * 2**20


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cutoff", [0, 1, 2, 3, 6, 17, 100, 641, 999, 2048, 9999, 10_000])
def test_the_filter_check_reads_the_enumerated_corner(cutoff, monkeypatch):
    """The check's one entry is the two-mode diagonal's largest, bit for bit.

    That entry is the square of the last entry of the one-mode diagonal
    enumerated at the cutoff; where that square overflows, the check raises
    the :func:`filter_diagonal` error naming the cutoff.
    """
    checked, entries = [], la._filter_entries
    monkeypatch.setattr(la, "_filter_entries",
                        lambda *args: checked.append(entries(*args)) or checked[-1])
    basis = shared_basis((0, 0))  # a mode filter of ones after the check
    for gain in (1.0, 1.0 + 2.0**-40, 1.1, 1.5, 2.0, 3.0, 7.3, 1e3, 1e50, 1e150):
        for applications in (1, 2, 3, 5, 8, 40):
            try:
                top = float(filter_diagonal(shared_basis((cutoff,)), gain, applications)[-1])
            except ValueError:
                top = math.inf
            checked.clear()
            if math.isfinite(top * top):
                la._mode_filter(basis, gain, applications, cutoff)
                assert checked[0].tolist() == [top * top]
            else:
                message = (f"the filter of gain {gain} applied {applications} times overflows "
                           f"the float range at cutoff {cutoff}")
                with pytest.raises(ValueError, match=re.escape(message) + "$"):
                    la._mode_filter(basis, gain, applications, cutoff)
    if cutoff <= 100:
        assert entries(np.full((1, 2), cutoff, dtype=float), 3.0, 2, cutoff)[0] == (
            filter_diagonal(shared_basis((cutoff, cutoff)), 3.0, 2)[-1])
