import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cvbell.fock import loss_kraus
from cvbell.measurement import (
    DELTA_MAX,
    _ideal_binned_cached,
    binned_homodyne_povms,
    delta_grid,
    hermite_functions,
    ideal_binned_homodyne,
    lossy_binned_homodyne,
    photodetection_povm,
)

ERF_1 = 0.8427007929497149  # math.erf(1.0)


def oscillator_psi(n, x):
    """Independent oracle: explicit Hermite-polynomial eigenfunctions."""
    herm = np.polynomial.hermite.Hermite([0.0] * n + [1.0])(x)
    norm = (2.0**n * math.factorial(n)) ** -0.5 * np.pi**-0.25
    return norm * herm * np.exp(-0.5 * x**2)


def overlap_oracle(n, m, delta):
    """Quadrature-library integral of psi_n psi_m over [-delta, delta]."""
    val, err = quad(lambda x: oscillator_psi(n, x) * oscillator_psi(m, x),
                    -delta, delta, epsabs=1e-14, limit=200)
    assert err < 5e-11  # oracle accuracy bounds the comparison tolerance
    return val


def phase_sign(n, m):
    return -1.0 if (m - n) % 4 == 2 else 1.0


def quadrature_stack(delta, cutoff):
    """Independent oracle: the inner element by Gauss-Legendre quadrature.

    The integrand is a polynomial of degree <= 2 cutoff times a Gaussian; the
    node count doubles until two orders agree to 1e-13.
    """
    n = np.arange(cutoff + 1)
    even = (n[:, None] + n[None, :]) % 2 == 0
    signs = np.array([[phase_sign(i, j) for j in n] for i in n])
    previous = None
    for order in (64, 128, 256, 512, 1024):
        nodes, weights = np.polynomial.legendre.leggauss(order)
        x = 0.5 * delta * (nodes + 1.0)  # [0, delta]; the even integrand is doubled
        psi = np.array([oscillator_psi(k, x) for k in n])
        M = np.where(even, (psi * weights) @ psi.T * delta * signs, 0.0)
        if previous is not None and np.abs(M - previous).max() < 1e-13:
            return M
        previous = M
    raise AssertionError(f"quadrature oracle did not converge at delta={delta}")


class TestPhotodetection:
    def test_perfect_detector(self):
        n0, n1, _ = photodetection_povm(1.0, 3)
        assert np.allclose(n0, np.diag([1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(n0 + n1, np.eye(4))

    def test_half_efficiency_entries(self):
        n0, _, _ = photodetection_povm(0.5, 2)
        assert np.allclose(np.diag(n0), [1.0, 0.5, 0.25])

    def test_blind_detector_never_clicks(self):
        _, _, n_obs = photodetection_povm(0.0, 4)
        assert np.allclose(n_obs, -np.eye(5))

    def test_entries_decrease_with_efficiency(self):
        etas = np.linspace(0.1, 1.0, 10)
        previous = None
        for eta in etas:
            entries = np.diag(photodetection_povm(eta, 4)[0])[1:]
            if previous is not None:
                assert np.all(entries < previous + 1e-12)
            previous = entries

    def test_range_check(self):
        with pytest.raises(ValueError):
            photodetection_povm(1.2, 2)


class TestHermiteFunctions:
    @pytest.mark.parametrize("n", range(8))
    def test_matches_explicit_polynomials(self, n):
        x = np.linspace(-4, 4, 41)
        assert np.abs(hermite_functions(n, x)[n] - oscillator_psi(n, x)).max() < 1e-12

    def test_orthonormality(self):
        # Quadrature convention: X = (a + a^dag)/sqrt(2), vacuum variance 1/2.
        x = np.linspace(-10, 10, 4001)
        psi = hermite_functions(5, x)
        gram = psi @ psi.T * (x[1] - x[0])
        assert np.abs(gram - np.eye(6)).max() < 1e-6

    def test_position_matrix_element(self):
        # <n|X|m> from the moment integral equals (a + a^dag)/sqrt(2).
        val, _ = quad(lambda x: x * oscillator_psi(0, x) * oscillator_psi(1, x), -12, 12)
        assert val == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)


class TestIdealBinnedHomodyne:
    def test_zero_width_is_zero(self):
        assert np.allclose(ideal_binned_homodyne(0.0, 3), 0.0)

    def test_parity_zeros(self):
        M = ideal_binned_homodyne(1.3, 5)
        n = np.arange(6)
        odd = (n[:, None] + n[None, :]) % 2 == 1
        assert np.abs(M[odd]).max() == 0.0

    def test_vacuum_entry_is_erf(self):
        M = ideal_binned_homodyne(1.0, 2)
        assert M[0, 0] == pytest.approx(ERF_1, abs=1e-12)

    @pytest.mark.parametrize("delta", [0.3, 0.85, 2.0])
    @pytest.mark.parametrize("pair", [(0, 0), (1, 1), (0, 2), (2, 2), (1, 3), (2, 4)])
    def test_against_quadrature_oracle(self, delta, pair):
        n, m = pair
        M = ideal_binned_homodyne(delta, 4)
        expected = phase_sign(n, m) * overlap_oracle(n, m, delta)
        assert M[n, m] == pytest.approx(expected, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(ds=st.lists(st.floats(min_value=0.0, max_value=8.0), min_size=1, max_size=4),
           cutoff=st.integers(min_value=0, max_value=14))
    def test_closed_form_stack_against_quadrature(self, ds, cutoff):
        stack = binned_homodyne_povms(1.0, ds, cutoff)[0]
        for delta, element in zip(ds, stack):
            assert np.abs(element - quadrature_stack(delta, cutoff)).max() <= 1e-12
            assert np.array_equal(ideal_binned_homodyne(delta, cutoff), element)

    def test_closed_forms(self):
        # (0,0): erf(d); (1,1): erf(d) - 2d e^{-d^2}/sqrt(pi);
        # (0,2): +d e^{-d^2} sqrt(2/pi) after the Fock phase convention.
        for d in (0.5, 1.0, 1.7):
            M = ideal_binned_homodyne(d, 2)
            assert M[0, 0] == pytest.approx(math.erf(d), abs=1e-12)
            assert M[1, 1] == pytest.approx(
                math.erf(d) - 2 * d * math.exp(-d * d) / math.sqrt(math.pi), abs=1e-12
            )
            assert M[0, 2] == pytest.approx(
                d * math.exp(-d * d) * math.sqrt(2 / math.pi), abs=1e-12
            )

    def test_monotone_in_delta(self):
        deltas = np.linspace(0.05, 4.0, 40)
        values = [ideal_binned_homodyne(d, 2)[0, 0] for d in deltas]
        assert np.all(np.diff(values) > 0)

    def test_wide_bin_is_identity(self):
        M = ideal_binned_homodyne(8.0, 6)
        assert np.abs(M - np.eye(7)).max() < 1e-9

    def test_positivity_and_completeness(self):
        for d in (0.2, 1.0, 3.0):
            inner, outer, _ = lossy_binned_homodyne(1.0, d, 6)
            assert np.allclose(inner + outer, np.eye(7))
            for element in (inner, outer):
                w = np.linalg.eigvalsh(element)
                assert w.min() > -1e-12 and w.max() < 1 + 1e-12

    def test_delta_domain_sanity(self):
        assert DELTA_MAX == 6.0


class TestLossyBinnedHomodyne:
    def test_lossless_limit(self):
        ideal = ideal_binned_homodyne(0.9, 4)
        inner, _, _ = lossy_binned_homodyne(1.0, 0.9, 4)
        assert np.array_equal(inner, ideal)

    def test_full_loss_sees_vacuum(self):
        inner, _, _ = lossy_binned_homodyne(0.0, 1.2, 4)
        expected = ideal_binned_homodyne(1.2, 4)[0, 0] * np.eye(5)
        assert np.abs(inner - expected).max() < 1e-12

    def test_matches_index_shifted_sum(self):
        # Oracle: explicit binomial sum with the ideal element indices
        # shifted by the number of lost photons.
        eta, delta, cutoff = 0.7, 1.0, 2
        ideal = ideal_binned_homodyne(delta, cutoff)
        expected = np.zeros_like(ideal)
        for n in range(cutoff + 1):
            for m in range(cutoff + 1):
                for k in range(min(n, m) + 1):
                    nu = math.sqrt(math.comb(n, k) * math.comb(m, k))
                    expected[n, m] += (
                        (1 - eta) ** k
                        * eta ** ((n + m) / 2.0 - k)
                        * nu
                        * ideal[n - k, m - k]
                    )
        inner, _, _ = lossy_binned_homodyne(eta, delta, cutoff)
        assert np.abs(inner - expected).max() < 1e-12

    def test_observable_orientation(self):
        # +1 on the inner bin: at large delta the observable approaches +1.
        _, _, X = lossy_binned_homodyne(1.0, 8.0, 3)
        assert np.abs(X - np.eye(4)).max() < 1e-8

    @pytest.mark.parametrize("eta", [0.3, 0.648, 0.9])
    def test_povm_positivity(self, eta):
        inner, outer, _ = lossy_binned_homodyne(eta, 0.8, 6)
        assert np.allclose(inner + outer, np.eye(7), atol=1e-10)
        assert np.linalg.eigvalsh(inner).min() > -1e-10
        assert np.linalg.eigvalsh(outer).min() > -1e-10

    def test_state_loss_equals_measurement_loss(self):
        # Measuring a transmitted state with an ideal POVM equals measuring
        # the source state with the transmission folded into the efficiency.
        rng = np.random.default_rng(12)
        eta, eta_t, delta, cutoff = 0.9, 0.75, 1.1, 3
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        mat = mat @ mat.conj().T
        rho = mat / np.trace(mat)
        lossy_rho = sum(
            A @ rho @ A.T for A in loss_kraus(eta_t, cutoff)
        )
        for element in range(2):
            meas_src = lossy_binned_homodyne(eta * eta_t, delta, cutoff)[element]
            meas_dst = lossy_binned_homodyne(eta, delta, cutoff)[element]
            lhs = np.trace(meas_src @ rho)
            rhs = np.trace(meas_dst @ lossy_rho)
            assert lhs == pytest.approx(rhs, abs=1e-12)
        n_src = photodetection_povm(eta * eta_t, cutoff)[0]
        n_dst = photodetection_povm(eta, cutoff)[0]
        assert np.trace(n_src @ rho) == pytest.approx(
            np.trace(n_dst @ lossy_rho), abs=1e-12
        )


def test_delta_grids_are_built_once_and_read_only():
    for points in (61, 81, 241):
        grid = delta_grid(points)
        assert grid is delta_grid(points)
        assert np.array_equal(grid, np.linspace(0.0, DELTA_MAX, points))
        assert not grid.flags.writeable


def test_ideal_stacks_are_kept_per_grid():
    """A repeated grid, as the shared array or as equal values, hits the cache."""
    grid = delta_grid(241)
    first = binned_homodyne_povms(0.9, grid, 3)
    hits = _ideal_binned_cached.cache_info().hits
    again = binned_homodyne_povms(0.9, list(np.linspace(0.0, DELTA_MAX, 241)), 3)
    assert _ideal_binned_cached.cache_info().hits == hits + 1
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
    other = binned_homodyne_povms(0.9, grid[:7], 3)
    assert _ideal_binned_cached.cache_info().hits == hits + 1
    assert np.array_equal(other[2], first[2][:7])
