import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvbell.bell import BellScenario, PartyConditions, chsh_value, optimize_delta
from cvbell import source_amp
from cvbell.fock import ModeBasis, StateVector, fidelity, partial_trace
from cvbell.source_amp import (
    SourceConfig,
    amplified_source,
    amplified_source_threshold_with_filters,
    default_squeezing_grid,
    default_transmission_grid,
    dominant_component,
    herald_probabilities,
    max_source_chsh,
    qscissor_amplify,
    solve_source_params,
    tmsv_truncation_weight,
    two_mode_squeezed,
)

UNIT = PartyConditions()


def single_mode_state(amps):
    v = np.asarray(amps, dtype=complex)
    return StateVector(ModeBasis((len(v) - 1,)), v / np.linalg.norm(v))


class TestTwoModeSqueezed:
    def test_zero_squeezing_is_vacuum(self):
        state = two_mode_squeezed(0.0, 4)
        assert state.amplitudes[state.basis.index_of((0, 0))] == pytest.approx(1.0)

    def test_amplitude_ratio(self):
        lam = 0.2
        state = two_mode_squeezed(lam, 6)
        b = state.basis
        ratio = state.amplitudes[b.index_of((1, 1))] / state.amplitudes[b.index_of((0, 0))]
        assert ratio.real == pytest.approx(lam, abs=1e-12)

    def test_schmidt_coefficients_geometric(self):
        lam = 0.35
        red = partial_trace(two_mode_squeezed(lam, 6).to_density(), keep=(0,))
        w = np.sort(np.linalg.eigvalsh(red.matrix))[::-1]
        ratios = w[1:5] / w[:4]
        assert np.allclose(ratios, lam**2, rtol=1e-9)

    def test_truncation_weight(self):
        assert tmsv_truncation_weight(0.3, 6) == pytest.approx(0.3**14)

    def test_rejects_unit_squeezing(self):
        with pytest.raises(ValueError):
            two_mode_squeezed(1.0, 4)


class TestQuantumScissor:
    def test_vacuum_fixed_point(self):
        for t in (0.2, 0.5, 0.9):
            out = qscissor_amplify(single_mode_state([1.0, 0.0]), t)
            target = StateVector(out.state.basis, np.eye(out.state.basis.dimension)[0])
            assert fidelity(out.state, target) == pytest.approx(1.0, abs=1e-12)
            assert out.success_probability == pytest.approx(t, abs=1e-12)

    def test_unit_gain_truncates(self):
        # t = 1/2: gain one, the output is the renormalized 0/1-photon
        # content (exact in the weak-excitation limit; higher Fock
        # components only contaminate at their own weight).
        state = single_mode_state([0.8, 0.5, 0.33])
        out = qscissor_amplify(state, 0.5)
        expected = np.array([0.8, 0.5], dtype=complex) / np.linalg.norm([0.8, 0.5])
        assert fidelity(out.state, StateVector(out.state.basis, expected)) > 0.95
        weak = single_mode_state([1.0, 0.01, 0.005])
        vec, _ = dominant_component(qscissor_amplify(weak, 0.5).state)
        ratio = abs(vec.amplitudes[1] / vec.amplitudes[0])
        assert ratio == pytest.approx(0.01, rel=1e-2)

    def test_quoted_amplification_action(self):
        # (|0> + 0.3|1>)/norm at t = 0.2 -> sqrt(t)|0> + 0.3 sqrt(1-t)|1>.
        out = qscissor_amplify(single_mode_state([1.0, 0.3]), 0.2)
        expected = np.array([math.sqrt(0.2), 0.3 * math.sqrt(0.8)])
        expected /= np.linalg.norm(expected)
        target = StateVector(out.state.basis, expected.astype(complex))
        assert fidelity(out.state, target) > 0.98
        # success probability ~ t at leading order in the one-photon amplitude
        assert out.success_probability == pytest.approx(0.2, abs=0.09)

    def test_gain_law_weak_input(self):
        # One-photon/vacuum amplitude ratio is multiplied by sqrt(r/t).
        alpha, t = 1e-5, 0.2
        out = qscissor_amplify(single_mode_state([1.0, alpha]), t)
        vec, _ = dominant_component(out.state)
        ratio = abs(vec.amplitudes[1] / vec.amplitudes[0])
        gain = math.sqrt((1 - t) / t)
        assert abs(ratio / (alpha * gain) - 1.0) < 1e-9

    def test_dead_detectors_never_herald(self):
        out = qscissor_amplify(single_mode_state([1.0, 0.3]), 0.2, herald_efficiency=0.0)
        assert out.success_probability == 0.0

    def test_output_confined_to_one_photon(self):
        out = qscissor_amplify(single_mode_state([0.5, 0.5, 0.5, 0.5]), 0.3)
        assert out.state.basis.cutoffs == (1,)


class TestAmplifiedSource:
    def test_vacuum_squeezing(self):
        out = amplified_source(SourceConfig(squeezing=0.0, amp_transmission=0.25))
        basis = out.state.basis
        target = StateVector(basis, np.eye(basis.dimension)[basis.index_of((0, 0))])
        assert fidelity(out.state, target) == pytest.approx(1.0, abs=1e-12)
        assert out.success_probability == pytest.approx(0.25, abs=1e-12)

    def test_leading_order_amplitude_ratio(self):
        # Full circuit against the closed form lam sqrt(r/t)/sqrt(2).
        lam, t = 0.1, 0.3
        out = amplified_source(SourceConfig(squeezing=lam, amp_transmission=t))
        vec, weight = dominant_component(out.state)
        b = out.state.basis
        c00 = vec.amplitudes[b.index_of((0, 0))].real
        c20 = vec.amplitudes[b.index_of((2, 0))].real
        c02 = vec.amplitudes[b.index_of((0, 2))].real
        predicted = lam * math.sqrt((1 - t) / t) / math.sqrt(2)
        assert c00 > 0 and c20 < 0 and c02 < 0
        assert c20 == pytest.approx(c02, abs=1e-12)
        assert -c20 / c00 == pytest.approx(predicted, rel=1e-6)
        assert weight > 0.98

    def test_success_probability_approaches_t(self):
        t = 0.17
        for lam in (0.0, 0.02, 0.05):
            out = amplified_source(SourceConfig(squeezing=lam, amp_transmission=t))
            assert out.success_probability == pytest.approx(t, abs=5 * lam**2 + 1e-12)

    def test_pure_output_in_weak_squeezing_limit(self):
        out = amplified_source(SourceConfig(squeezing=1e-5, amp_transmission=0.4))
        assert out.state.purity() >= 1.0 - 1e-9

    def test_herald_probabilities_sum_to_one(self):
        config = SourceConfig(squeezing=0.25, amp_transmission=0.3, coupling=0.9)
        probs = herald_probabilities(config)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)
        assert set(probs) == {"d1", "d2", "both", "none"}

    @pytest.mark.parametrize("eta_h", [1.0, 0.7])
    @pytest.mark.parametrize("ancilla", ["single-photon", "heralded-pdc"])
    def test_pattern_probabilities_split_evenly(self, ancilla, eta_h):
        """D1 and D2 click alike, and the circuit's doubled D2 click is their sum."""
        config = SourceConfig(squeezing=0.2, amp_transmission=0.3, coupling=0.9, cutoff=4,
                              ancilla_model=ancilla, herald_efficiency=eta_h)
        probs = herald_probabilities(config)
        d1, d2 = (probs[("click", p) if ancilla == "heralded-pdc" else p] for p in ("d1", "d2"))
        assert d1 == pytest.approx(d2, rel=1e-12)
        assert amplified_source(config).success_probability == pytest.approx(2 * d2, rel=1e-12)

    def test_herald_probabilities_pdc_ancilla(self):
        config = SourceConfig(
            squeezing=0.2,
            amp_transmission=0.3,
            ancilla_model="heralded-pdc",
            ancilla_squeezing=0.2,
            coupling=0.95,
            cutoff=4,
        )
        probs = herald_probabilities(config)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)
        # the heralded success probability matches the conditional pipeline
        out = amplified_source(config)
        expected = probs[("click", "d1")] + probs[("click", "d2")]
        assert out.success_probability == pytest.approx(expected, abs=1e-10)

    def test_pdc_ancilla_rate_scales_with_its_squeezing(self):
        base = dict(squeezing=0.0, amp_transmission=0.3, cutoff=3,
                    ancilla_model="heralded-pdc")
        p_small = amplified_source(
            SourceConfig(ancilla_squeezing=0.1, **base)
        ).success_probability
        p_large = amplified_source(
            SourceConfig(ancilla_squeezing=0.2, **base)
        ).success_probability
        # D0 click probability grows roughly with chi^2
        assert p_large / p_small == pytest.approx(4.0, rel=0.1)

    def test_truncation_stability(self):
        kwargs = dict(squeezing=0.3, amp_transmission=0.1)
        out6 = amplified_source(SourceConfig(cutoff=6, **kwargs))
        out8 = amplified_source(SourceConfig(cutoff=8, **kwargs))
        assert abs(out6.success_probability - out8.success_probability) < 1e-6
        _, v6 = optimize_delta(UNIT, UNIT, state=out6.state, grid_points=61)
        _, v8 = optimize_delta(UNIT, UNIT, state=out8.state, grid_points=61)
        assert abs(v6 - v8) < 1e-6

    @pytest.mark.parametrize("ancilla_model", ["single-photon", "heralded-pdc"])
    def test_dead_detectors_never_herald(self, ancilla_model):
        config = SourceConfig(squeezing=0.1, amp_transmission=0.3, herald_efficiency=0.0,
                              ancilla_model=ancilla_model, cutoff=3)
        assert amplified_source(config).success_probability == 0.0

    def test_chsh_of_a_source_that_never_heralds_is_rejected(self):
        config = SourceConfig(squeezing=0.1, amp_transmission=0.3, herald_efficiency=0.0,
                              cutoff=3)
        state = amplified_source(config).state
        with pytest.raises(ValueError, match="non-positive trace"):
            chsh_value(state, BellScenario.symmetric(delta=0.5))

    def test_coupling_loss_mixes_output(self):
        pure = amplified_source(
            SourceConfig(squeezing=0.2, amp_transmission=0.3, coupling=1.0)
        )
        lossy = amplified_source(
            SourceConfig(squeezing=0.2, amp_transmission=0.3, coupling=0.8)
        )
        assert lossy.state.purity() < pure.state.purity() - 1e-3


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(min_value=0.0, max_value=0.5, exclude_max=True),
       t=st.floats(min_value=1e-4, max_value=1.0),
       eta_c=st.floats(min_value=0.5, max_value=1.0),
       cutoff=st.integers(min_value=1, max_value=4))
@example(lam=0.0, t=1.0, eta_c=1.0, cutoff=1)  # the heralds sum to 1 + 2e-16
def test_amplified_source_is_physical(lam, t, eta_c, cutoff):
    out = amplified_source(SourceConfig(squeezing=lam, amp_transmission=t, coupling=eta_c,
                                        cutoff=cutoff))
    rho = out.state.matrix
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert 0.0 < out.success_probability <= 1.0


class TestSolveSourceParams:
    def _target(self, c00, c20, c02):
        basis = ModeBasis((2, 2))
        v = np.zeros(basis.dimension, dtype=complex)
        v[basis.index_of((0, 0))] = c00
        v[basis.index_of((2, 0))] = c20
        v[basis.index_of((0, 2))] = c02
        return StateVector(basis, v).normalize()

    def test_detection_optimal_state_reachable(self, monkeypatch):
        def no_circuit(*args, **kwargs):
            raise AssertionError("solve_source_params ran the circuit")

        monkeypatch.setattr(source_amp, "_heralded_gram", no_circuit)
        params = solve_source_params(self._target(0.22, -0.69, -0.69))
        assert params.reachable
        assert params.r == pytest.approx(2.0 * (0.69 / 0.22) ** 2, rel=1e-12)

    @pytest.mark.parametrize("t", [1e-3, 1e-4, 1e-5])
    def test_circuit_reaches_the_target_along_the_ridge(self, t):
        # On lam^2 = r t the circuit's infidelity is O(t): 10.31 t measured.
        target = self._target(0.22, -0.69, -0.69)
        r = solve_source_params(target).r
        out = amplified_source(SourceConfig(squeezing=math.sqrt(r * t), amp_transmission=t))
        basis = out.state.basis
        v = np.zeros(basis.dimension, dtype=complex)
        for occ in ((0, 0), (2, 0), (0, 2)):
            v[basis.index_of(occ)] = target.amplitudes[target.basis.index_of(occ)]
        assert 0.0 < 1.0 - fidelity(out.state, StateVector(basis, v)) <= 20.0 * t

    def test_vacuum_target_boundary(self):
        params = solve_source_params(self._target(1.0, 0.0, 0.0))
        assert params.reachable
        assert params.r == 0.0

    @pytest.mark.parametrize("c20, c02", [(-0.69, 0.69), (0.69, 0.69), (0.69j, 0.69j)])
    def test_only_real_non_positive_balanced_amplitudes_are_reachable(self, c20, c02):
        # Equal magnitudes are not enough: the amplitudes must be equal, with a
        # real non-positive ratio to the vacuum amplitude.
        assert not solve_source_params(self._target(0.22, c20, c02)).reachable

    def test_global_phase_does_not_matter(self):
        params = solve_source_params(self._target(-0.22j, 0.69j, 0.69j))
        assert params.r == pytest.approx(2.0 * (0.69 / 0.22) ** 2, rel=1e-12)

    def test_imbalanced_target_unreachable(self):
        params = solve_source_params(self._target(0.13, -0.86, -0.49))
        assert not params.reachable
        assert "unequal" in params.reason

    def test_support_outside_sector_unreachable(self):
        basis = ModeBasis((2, 2))
        v = np.zeros(basis.dimension, dtype=complex)
        v[basis.index_of((1, 1))] = 1.0
        params = solve_source_params(StateVector(basis, v))
        assert not params.reachable
        assert "support" in params.reason


class TestSourceOptimization:
    def test_unit_efficiency_reaches_optimal_family(self):
        # Coarse grids still get within a few thousandths of the optimal
        # two-photon-subspace violation.
        opt = max_source_chsh(
            UNIT,
            UNIT,
            lam_grid=default_squeezing_grid(12),
            t_grid=default_transmission_grid(18),
        )
        assert opt.chsh_value > 2.30
        assert opt.chsh_value <= 2.3137 + 1e-6


class TestFilteredSourceThreshold:
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning precedes the error
    @pytest.mark.parametrize("gain", [1e80, 1e100, 1e200])
    def test_overflowing_filter_is_named(self, gain):
        # Applied so that the single-mode diagonal is finite and the two-mode
        # diagonal at the caller's cutoff is not: the two-mode entries grow as
        # gain^(2 applications), so twice below about 1e154 and once above.
        applications = 1 if gain > 1e154 else 2
        message = re.escape(f"the filter of gain {gain} applied {applications} times overflows")
        with pytest.raises(ValueError, match=message):
            amplified_source_threshold_with_filters(gain, applications, cutoff=2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gain, applications", [(1e200, 1), (1e200, 2), (1e308, 1)])
    @pytest.mark.parametrize("cutoff", [2, 4])
    def test_overflow_error_names_the_callers_cutoff(self, gain, applications, cutoff):
        """Not the per-mode cutoff of the circuit's output basis, which is one larger.

        Gain 1e200 applied once overflows only in the two-mode products, twice
        and 1e308 already in the single-mode diagonal.
        """
        message = re.escape(f"overflows the float range at cutoff {cutoff}") + "$"
        with pytest.raises(ValueError, match=message):
            amplified_source_threshold_with_filters(gain, applications, cutoff=cutoff)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_finite_filter_still_solves(self):
        # The largest single-mode entry to the fourth power overflows from about
        # 1e77; only the two-mode diagonal at cutoff 2 (about 6.7e153) bounds the gain.
        for gain in (1e70, 1e80, 1e100):
            assert amplified_source_threshold_with_filters(gain, 1, cutoff=2) is None
