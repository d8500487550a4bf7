import numpy as np
import pytest

from cvbell.bell import (
    ASYMMETRIC,
    SYMMETRIC,
    TSIRELSON,
    VIOLATION_BOUND,
    BellScenario,
    PartyConditions,
    bell_matrix,
    bisect_threshold,
    chsh_value,
    critical_efficiency,
    golden_section_max,
    optimal_state,
    optimize_delta,
)
from cvbell.cli import main
from cvbell.fock import ModeBasis, fock_state, shared_basis
from cvbell.local_amp import filtered_critical_transmission, psi2_state


def subspace_top(scenario, cutoff=2):
    basis = ModeBasis((cutoff, cutoff), total_cap=2)
    return np.linalg.eigvalsh(bell_matrix(basis, scenario))[-1]


class TestBellOperator:
    def test_real_symmetric(self):
        scen = BellScenario.symmetric(eta_t=0.9, eta_d=0.8, delta=0.7)
        B = bell_matrix(ModeBasis((2, 2)), scen)
        assert np.abs(B.imag).max() < 1e-12
        assert np.abs(B - B.T).max() < 1e-12

    def test_blind_photodetectors_are_local(self):
        # eta_d = 0 turns N into a constant observable; no violation exists.
        scen = BellScenario.symmetric(eta_d=0.0, delta=0.9)
        assert subspace_top(scen) <= 2.0 + 1e-9

    def test_zero_bin_width_is_local(self):
        scen = BellScenario.symmetric(delta=0.0)
        assert subspace_top(scen) <= 2.0 + 1e-9

    def test_two_photon_state_violates_at_unit_efficiency(self):
        _, value = optimize_delta(
            PartyConditions(), PartyConditions(), state=psi2_state()
        )
        assert value > 2.2

    def test_capped_matrix_is_submatrix(self):
        scen = BellScenario.symmetric(eta_t=0.77, delta=0.8)
        full = ModeBasis((2, 2))
        capped = ModeBasis((2, 2), total_cap=2)
        B_full = bell_matrix(full, scen)
        B_cap = bell_matrix(capped, scen)
        idx = [full.index_of(occ) for occ in capped.occupations]
        assert np.allclose(B_cap, B_full[np.ix_(idx, idx)])


class TestOptimizeDelta:
    def test_positive_optimum_when_violating(self):
        delta, value = optimize_delta(PartyConditions(), PartyConditions())
        assert value > 2.3
        assert 0.1 < delta < 2.0

    def test_saturation_at_wide_bins(self):
        scen = BellScenario.symmetric(delta=6.0)
        basis = ModeBasis((2, 2), total_cap=2)
        top6 = np.linalg.eigvalsh(bell_matrix(basis, scen))[-1]
        # Constant-observable limit: X -> +1.
        assert top6 == pytest.approx(2.0, abs=1e-6)

    def test_stable_under_grid_refinement(self):
        p = PartyConditions()
        d1, v1 = optimize_delta(p, p, grid_points=241)
        d2, v2 = optimize_delta(p, p, grid_points=2401)
        assert v1 == pytest.approx(v2, abs=1e-6)
        assert d1 == pytest.approx(d2, abs=1e-4)

    def test_accepts_fixed_mixed_state(self):
        rho = psi2_state().to_density()
        _, value = optimize_delta(PartyConditions(), PartyConditions(), state=rho)
        assert value == pytest.approx(2.2495, abs=1e-3)

    @pytest.mark.parametrize("cutoffs", [(2,), (2, 2, 2)])
    def test_rejects_a_state_that_is_not_two_mode(self, cutoffs):
        state = fock_state(ModeBasis(cutoffs), (0,) * len(cutoffs))
        match = f"expected a two-mode state, got mode count {len(cutoffs)}"
        with pytest.raises(ValueError, match=match):
            chsh_value(state, BellScenario.symmetric(delta=0.5))
        with pytest.raises(ValueError, match=match):
            optimize_delta(PartyConditions(), PartyConditions(), state=state.to_density())

    def test_golden_section(self):
        x, v = golden_section_max(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, 1e-8)
        assert x == pytest.approx(0.3, abs=1e-6)
        assert v == pytest.approx(0.0, abs=1e-12)


class TestOptimalState:
    def test_even_sector_support(self):
        scen = BellScenario.symmetric(eta_t=0.9, delta=0.8)
        state, value = optimal_state(scen)
        basis = state.basis
        for occ in ((0, 1), (1, 0), (1, 1)):
            assert abs(state.amplitudes[basis.index_of(occ)]) < 1e-12
        assert value > 2.0

    def test_matches_expectation(self):
        scen = BellScenario.symmetric(eta_t=0.85, delta=0.75)
        state, value = optimal_state(scen)
        assert chsh_value(state, scen) == pytest.approx(value, abs=1e-12)

    def test_tsirelson_bound(self):
        for eta_t in (0.7, 0.85, 1.0):
            for delta in (0.3, 0.8, 1.5):
                scen = BellScenario.symmetric(eta_t=eta_t, delta=delta)
                _, value = optimal_state(scen)
                assert value <= TSIRELSON + 1e-9

    def test_lossless_optimum(self):
        p = PartyConditions()
        delta, value = optimize_delta(p, p)
        assert value == pytest.approx(2.3137, abs=2e-3)
        assert 0.5 < delta < 1.0
        state, top = optimal_state(BellScenario(alice=p, bob=p, delta=delta))
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert top == pytest.approx(value, abs=1e-12)


class TestMonotonicity:
    def test_chsh_nondecreasing_in_efficiencies(self):
        # Fixed state and delta: more transmission or detection never hurts.
        state = psi2_state()
        for target in ("eta_t", "eta_d"):
            values = []
            for eta in np.linspace(0.3, 1.0, 8):
                kwargs = {target.replace("eta_", "eta_"): eta}
                scen = BellScenario.symmetric(delta=0.83, **{target: eta})
                values.append(chsh_value(state, scen))
            diffs = np.diff(values)
            assert np.all(diffs > -1e-9)

    def test_optimal_dominates_fixed_state(self):
        for eta_d in (0.8, 0.9, 1.0):
            scen_kwargs = dict(eta_d=eta_d)
            p = BellScenario.symmetric(**scen_kwargs)
            _, v_opt = optimize_delta(p.alice, p.bob)
            _, v_fixed = optimize_delta(p.alice, p.bob, state=psi2_state())
            assert v_opt >= v_fixed - 1e-9


class TestThresholds:
    def test_bisect_threshold_simple(self):
        assert bisect_threshold(lambda x: 4 * x, tol=1e-6) == pytest.approx(0.5, abs=1e-5)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan"), float("inf")])
    def test_bisect_threshold_rejects_a_tol_it_cannot_reach(self, tol):
        calls = []
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            bisect_threshold(lambda x: calls.append(x) or 4 * x, tol=tol)
        assert not calls  # rejected before any evaluation

    def test_bisect_threshold_ends_below_the_float_spacing(self):
        # The bracket stops halving at adjacent floats, above any tol below their gap.
        value = bisect_threshold(lambda x: 4 * x, tol=1e-300)
        assert value == pytest.approx(VIOLATION_BOUND / 4, abs=1e-15)

    def test_no_violation_reported(self):
        assert bisect_threshold(lambda x: 1.0) is None

    @pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (0.5, 0.5), (float("nan"), 1.0),
                                        (0.0, float("nan")), (0.0, float("inf")),
                                        (float("-inf"), 1.0)])
    def test_bisect_threshold_rejects_a_bracket_it_cannot_walk(self, lo, hi):
        # A reversed bracket used to evaluate its lower end as the "upper" one.
        calls = []
        with pytest.raises(ValueError, match="bracket must be finite with lo < hi"):
            bisect_threshold(lambda x: calls.append(x) or 4 * x, lo=lo, hi=hi)
        assert not calls  # rejected before any evaluation

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("at", [1.0, 0.0, 0.5])
    def test_bisect_threshold_rejects_a_non_finite_objective(self, bad, at):
        # NaN compares False, so it would read as "no violation" below the
        # bound test and as a violation in the "<=" test at the upper end.
        def max_chsh(x):
            return bad if x == at else 4 * x

        with pytest.raises(ValueError, match="max CHSH is not finite"):
            bisect_threshold(max_chsh, tol=1e-3)

    def test_a_solve_builds_each_basis_once(self, monkeypatch):
        # The delta searches of a threshold solve share their bases.
        built = []
        init = ModeBasis.__init__

        def recording_init(self, cutoffs, total_cap=None):
            built.append((tuple(cutoffs), total_cap))
            init(self, cutoffs, total_cap)

        shared_basis.cache_clear()
        monkeypatch.setattr(ModeBasis, "__init__", recording_init)
        filtered_critical_transmission(2.0, cutoff=6, tol=1e-3)
        critical_efficiency("eta_t", state=psi2_state(6), cutoff=6, tol=1e-3)
        critical_efficiency("eta_d", cutoff=6, tol=1e-3)
        assert built and len(built) == len(set(built)) <= 6
        built.clear()
        filtered_critical_transmission(3.0, cutoff=6, tol=1e-3)
        assert built == []

    def test_symmetric_transmission(self):
        thr = critical_efficiency("eta_t", SYMMETRIC)
        assert thr == pytest.approx(0.805, abs=0.005)

    def test_detection(self):
        thr = critical_efficiency("eta_d", SYMMETRIC)
        assert thr == pytest.approx(0.648, abs=0.005)

    def test_asymmetric_transmission(self):
        thr = critical_efficiency("eta_t", ASYMMETRIC)
        assert thr == pytest.approx(0.667, abs=0.005)

    def test_rejects_unknown_target(self):
        with pytest.raises(ValueError):
            critical_efficiency("eta_h", SYMMETRIC)

    @pytest.mark.parametrize("target, held", [("eta_t", {"eta_t": 0.5}),
                                              ("eta_d", {"eta_d": 0.3})])
    def test_rejects_a_value_for_the_swept_efficiency(self, target, held):
        """The swept efficiency has no held value; a solve would ignore one."""
        with pytest.raises(ValueError, match=f"{target} is the efficiency the threshold sweeps"):
            critical_efficiency(target, SYMMETRIC, **held)


class TestRegionBoundary:
    """The boundary eta_t*(eta_d): one transmission threshold per eta_d."""

    def test_monotone_boundary(self):
        thresholds = [critical_efficiency("eta_t", SYMMETRIC, eta_d=e) for e in (0.85, 0.9, 1.0)]
        assert all(t is not None for t in thresholds)
        assert thresholds[0] >= thresholds[1] >= thresholds[2]

    def test_no_violation_marked(self, tmp_path):
        assert critical_efficiency("eta_t", SYMMETRIC, eta_d=0.3) is None
        out = tmp_path / "region.csv"
        assert main(["region", "--eta-d-grid", "0.3", "--output", str(out)]) == 0
        header, row = (line.split(",") for line in out.read_text().split("\n")[:2])
        row = dict(zip(header, row))
        assert row["eta_t_star"] == "" and row["no_violation"] == "true"

    def test_endpoint_matches_threshold(self):
        assert critical_efficiency("eta_t", SYMMETRIC, eta_d=1.0) == pytest.approx(0.805, abs=0.005)

    def test_fixed_state_boundary_endpoint(self):
        thr = critical_efficiency("eta_t", SYMMETRIC, eta_d=1.0, state=psi2_state())
        assert thr == pytest.approx(0.84, abs=0.01)


class TestScenario:
    def test_asymmetric_source_at_alice(self):
        scen = BellScenario.asymmetric(eta_t=0.7, eta_d=0.9)
        assert scen.alice.eta_t == 1.0
        assert scen.bob.eta_t == 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            PartyConditions(eta_t=1.4)
        with pytest.raises(ValueError):
            BellScenario.symmetric(delta=-0.1)


#: ``critical_efficiency(target, cutoff=c, total_cap=c)``, symmetric, optimal
#: state, tol 1e-4: the photon-cap ladder's first rungs (ROADMAP direction 4).
CAP_LADDER = {"eta_d": {2: 0.648040771484375, 4: 0.447601318359375, 6: 0.342315673828125},
              "eta_t": {2: 0.804901123046875, 4: 0.797698974609375, 6: 0.762481689453125}}


@pytest.mark.parametrize("cap", [2, 4, 6])
@pytest.mark.parametrize("target", ["eta_d", "eta_t"])
def test_cap_ladder(target, cap):
    assert critical_efficiency(target, cutoff=cap, total_cap=cap) == CAP_LADDER[target][cap]
