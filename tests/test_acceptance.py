"""Acceptance gate: every headline reference value at its stated tolerance.

The consolidated report is computed once per session; each criterion is a
separate test that prints its pass/fail line.  Property-style invariants
(POVM completeness, loss composition, the quantum bound, solver residuals)
run directly.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
line per criterion.
"""

import math
import time

import numpy as np
import pytest

from cvbell.bell import BellScenario, bell_matrix
from cvbell.fock import (
    DensityOperator,
    LossChannel,
    ModeBasis,
    apply_channel,
    hermitian_eig,
    loss_kraus,
)
from cvbell.measurement import lossy_binned_homodyne, photodetection_povm
from cvbell.reproduce import reproduce_all
from cvbell.source_amp import SourceConfig, herald_probabilities



@pytest.fixture(scope="session")
def report():
    rep = reproduce_all()
    print()
    for line in rep.lines():
        print(line)
    return rep


def _row(report, prefix):
    for row in report.rows:
        if row.name.startswith(prefix):
            return row
    raise AssertionError(f"no report row with prefix {prefix!r}")


def _assert_row(report, prefix):
    row = _row(report, prefix)
    print(row.line())
    assert row.passed, row.line()


class TestCriterion1SymmetricTransmission:
    def test_threshold_and_runtime(self, report):
        _assert_row(report, "1.")


class TestCriterion2Detection:
    def test_symmetric(self, report):
        _assert_row(report, "2a.")

    def test_asymmetric(self, report):
        _assert_row(report, "2b.")


class TestCriterion3AsymmetricTransmission:
    def test_threshold(self, report):
        _assert_row(report, "3.")


class TestCriterion4OptimalStates:
    def test_symmetric_transmission_state(self, report):
        _assert_row(report, "4a.")

    def test_detection_state(self, report):
        _assert_row(report, "4b.")

    def test_asymmetric_transmission_state(self, report):
        _assert_row(report, "4c.")


class TestCriterion5FixedStateBaselines:
    def test_transmission(self, report):
        _assert_row(report, "5a.")

    def test_detection(self, report):
        _assert_row(report, "5b.")


class TestCriterion6FilteredThresholds:
    def test_gain_two(self, report):
        _assert_row(report, "6a.")

    def test_gain_three(self, report):
        _assert_row(report, "6b.")

    def test_three_applications(self, report):
        _assert_row(report, "6c.")

    def test_exponential_decay(self, report):
        _assert_row(report, "6d.")


class TestCriterion7FeasibilityPoint:
    def test_violation_at_eighty_percent(self, report):
        _assert_row(report, "7.")


class TestCriterion8CutoffRobustness:
    def test_thresholds_unchanged(self, report):
        _assert_row(report, "8.")


class TestCriterion9CombinedScheme:
    def test_no_improvement(self, report):
        _assert_row(report, "9.")


class TestCriterion10SourceRegion:
    def test_boundary_meets_optimal_states(self, report):
        _assert_row(report, "10a.")

    def test_coupling_composition_and_dominance(self, report):
        _assert_row(report, "10b.")


class TestReportBudget:
    def test_total_runtime_under_ten_minutes(self, report):
        assert report.total_seconds < 600.0

    def test_timings_read_the_monotonic_clock(self, monkeypatch):
        """A wall-clock step (NTP, a suspended VM) cannot make a timing negative."""
        monkeypatch.setattr(time, "time", lambda: pytest.fail("read the wall clock"))
        report = reproduce_all(include_source=False)
        assert report.total_seconds >= 0 and all(row.seconds >= 0 for row in report.rows)


# --------------------------------------------------------------------------
# Property suites (criterion 10): invariants, not reference numbers.


class TestPovmProperties:
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.648, 0.8, 1.0])
    @pytest.mark.parametrize("delta", [0.0, 0.5, 1.0, 3.0, 6.0])
    def test_homodyne_completeness_and_positivity(self, eta, delta):
        inner, outer, _ = lossy_binned_homodyne(eta, delta, 6)
        assert np.abs(inner + outer - np.eye(7)).max() < 1e-10
        assert np.linalg.eigvalsh(inner).min() > -1e-10
        assert np.linalg.eigvalsh(outer).min() > -1e-10

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.648, 0.8, 1.0])
    def test_photodetection_completeness(self, eta):
        n0, n1, _ = photodetection_povm(eta, 6)
        assert np.abs(n0 + n1 - np.eye(7)).max() < 1e-12
        assert np.diag(n0).min() >= 0.0 and np.diag(n1).min() >= 0.0


class TestLossProperties:
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.648, 1.0])
    def test_kraus_completeness(self, eta):
        total = sum(A.T @ A for A in loss_kraus(eta, 6))
        assert np.abs(total - np.eye(7)).max() < 1e-10

    def test_semigroup_identity(self):
        rng = np.random.default_rng(42)
        basis = ModeBasis((2,))
        mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        mat = mat @ mat.conj().T
        rho = DensityOperator(basis, mat / np.trace(mat))
        for eta1, eta2 in [(0.9, 0.72), (0.62, 0.5)]:
            seq = apply_channel(
                apply_channel(rho, LossChannel(eta2), 0), LossChannel(eta1), 0
            )
            direct = apply_channel(rho, LossChannel(eta1 * eta2), 0)
            assert np.abs(seq.matrix - direct.matrix).max() < 1e-12

    def test_state_loss_equals_measurement_loss(self):
        rng = np.random.default_rng(1)
        cutoff, eta_t, delta = 3, 0.805, 0.83
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        mat = mat @ mat.conj().T
        rho = mat / np.trace(mat)
        lossy_rho = sum(A @ rho @ A.T for A in loss_kraus(eta_t, cutoff))
        degraded = lossy_binned_homodyne(eta_t, delta, cutoff)[0]
        ideal = lossy_binned_homodyne(1.0, delta, cutoff)[0]
        assert np.trace(degraded @ rho) == pytest.approx(
            np.trace(ideal @ lossy_rho), abs=1e-12
        )


class TestHeraldNormalization:
    @pytest.mark.parametrize("coupling", [1.0, 0.9])
    def test_probabilities_sum_to_one(self, coupling):
        config = SourceConfig(
            squeezing=0.2, amp_transmission=0.25, coupling=coupling
        )
        probs = herald_probabilities(config)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)


class TestQuantumBound:
    def test_tsirelson_on_sweep_grid(self):
        bound = 2.0 * math.sqrt(2.0) + 1e-9
        basis = ModeBasis((2, 2), total_cap=2)
        for eta_t in (0.5, 0.805, 1.0):
            for eta_d in (0.648, 1.0):
                for delta in (0.1, 0.59, 0.83, 2.0, 6.0):
                    scen = BellScenario.symmetric(eta_t=eta_t, eta_d=eta_d, delta=delta)
                    top = np.linalg.eigvalsh(bell_matrix(basis, scen))[-1]
                    assert top <= bound


class TestEigensolverResiduals:
    def test_bell_operator_spectra(self):
        basis = ModeBasis((2, 2), total_cap=2)
        for delta in (0.3, 0.83, 1.5):
            scen = BellScenario.symmetric(eta_t=0.9, delta=delta)
            B = bell_matrix(basis, scen)
            w, v = hermitian_eig(B)
            scale = np.linalg.norm(B)
            for i in range(len(w)):
                residual = np.linalg.norm(B @ v[:, i] - w[i] * v[:, i])
                assert residual <= 1e-10 * scale
            assert np.abs(v.conj().T @ v - np.eye(len(w))).max() < 1e-10
