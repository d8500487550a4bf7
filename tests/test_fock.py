import math

import numpy as np
import pytest

import cvbell.fock
from cvbell.fock import (
    DensityOperator,
    HermitianOperator,
    LossChannel,
    ModeBasis,
    StateVector,
    annihilation,
    apply_channel,
    beam_splitter,
    embedding_indices,
    enumerate_basis,
    expectation,
    fock_state,
    hermitian_eig,
    hermitian_eigvals,
    loss_kraus,
    partial_trace,
    shared_basis,
    tensor,
    vacuum,
)


def psi2(cutoff=2):
    basis = ModeBasis((cutoff, cutoff))
    v = np.zeros(basis.dimension, dtype=complex)
    v[basis.index_of((2, 0))] = 1 / math.sqrt(2)
    v[basis.index_of((0, 2))] = 1 / math.sqrt(2)
    return StateVector(basis, v)


class TestBasis:
    def test_capped_two_mode_count(self):
        basis = enumerate_basis(2, [2, 2], total_cap=2)
        assert basis.dimension == 6
        occ = {tuple(o) for o in basis.occupations}
        assert occ == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}

    def test_single_mode_count(self):
        assert enumerate_basis(1, [6]).dimension == 7

    def test_two_mode_uncapped_count(self):
        assert enumerate_basis(2, [6, 6]).dimension == 49

    def test_cap_bounds_the_enumeration_not_the_cutoffs(self):
        huge = ModeBasis((10**6, 10**6), total_cap=2)
        small = ModeBasis((2, 2), total_cap=2)
        assert huge.cutoffs == (10**6, 10**6)
        assert np.array_equal(huge.occupations, small.occupations)
        for occ in small.occupations:
            assert huge.index_of(occ) == small.index_of(occ)

    def test_a_basis_beyond_the_guard_is_refused_before_it_is_enumerated(self, monkeypatch):
        """The count is ``prod(min(c, cap) + 1)``: a cap keeps huge cutoffs small."""
        monkeypatch.setattr(cvbell.fock, "MAX_TENSOR_DIMENSION", 100)
        assert ModeBasis((9, 9)).dimension == 100
        assert ModeBasis((10**6, 10**6), total_cap=8).dimension == 45
        with pytest.raises(ValueError, match=r"cutoffs \(10, 9\) enumerates 110 occupations"):
            ModeBasis((10, 9))

    def test_shared_basis_is_one_read_only_basis_per_key(self):
        basis = shared_basis((3, 3), 2)
        assert basis is shared_basis((3, 3), 2) and basis == ModeBasis((3, 3), total_cap=2)
        assert basis is not shared_basis((3, 3))
        assert np.array_equal(basis.occupations, ModeBasis((3, 3), total_cap=2).occupations)
        with pytest.raises(ValueError, match="read-only"):
            basis.occupations[0, 0] = 1

    def test_round_trip_bijection(self):
        basis = enumerate_basis(3, [2, 3, 1], total_cap=4)
        for i in range(basis.dimension):
            assert basis.index_of(basis.occupation_of(i)) == i

    def test_lexicographic_order(self):
        basis = enumerate_basis(2, [1, 1])
        assert [basis.occupation_of(i) for i in range(4)] == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            enumerate_basis(0, [])

    def test_rejects_negative_cutoff(self):
        with pytest.raises(ValueError):
            enumerate_basis(1, [-1])


class TestTensor:
    def test_vacuum_tensor(self):
        one = ModeBasis((2,))
        joint = tensor(fock_state(one, (0,)), fock_state(one, (0,)))
        assert joint.basis.index_of((0, 0)) == np.argmax(np.abs(joint.amplitudes))
        assert joint.norm() == pytest.approx(1.0)

    def test_identity_tensor(self):
        one = ModeBasis((2,))
        eye = HermitianOperator(one, np.eye(3))
        joint = tensor(eye, eye)
        assert np.allclose(joint.matrix, np.eye(9))

    def test_psi2_from_single_mode_states(self):
        one = ModeBasis((2,))
        two0 = tensor(fock_state(one, (2,)), fock_state(one, (0,)))
        zero2 = tensor(fock_state(one, (0,)), fock_state(one, (2,)))
        combo = StateVector(two0.basis, (two0.amplitudes + zero2.amplitudes) / math.sqrt(2))
        assert np.allclose(combo.amplitudes, psi2().amplitudes)

    def test_kron_order_matches_basis_order(self):
        a, b = ModeBasis((1,)), ModeBasis((2,))
        va = StateVector(a, [1.0, 2.0])
        vb = StateVector(b, [3.0, 5.0, 7.0])
        joint = tensor(va, vb)
        for (na,), (nb,) in [((0,), (2,)), ((1,), (1,))]:
            idx = joint.basis.index_of((na, nb))
            assert joint.amplitudes[idx] == va.amplitudes[na] * vb.amplitudes[nb]

    def test_capped_operands_rejected(self):
        capped = ModeBasis((2,), total_cap=1)
        with pytest.raises(ValueError):
            tensor(fock_state(capped, (0,)), fock_state(capped, (0,)))


class TestBeamSplitter:
    def test_full_transmission_is_identity(self):
        basis = ModeBasis((3, 3))
        assert np.allclose(beam_splitter(basis, 1.0, (0, 1)), np.eye(basis.dimension))

    def test_hong_ou_mandel(self):
        basis = ModeBasis((2, 2))
        U = beam_splitter(basis, 0.5, (0, 1))
        out = U @ fock_state(basis, (1, 1)).amplitudes
        expected = np.zeros(basis.dimension, dtype=complex)
        expected[basis.index_of((0, 2))] = 1 / math.sqrt(2)
        expected[basis.index_of((2, 0))] = -1 / math.sqrt(2)
        assert np.allclose(out, expected, atol=1e-12)

    def test_unitarity_on_conserving_subspace(self):
        basis = ModeBasis((3, 3), total_cap=3)
        U = beam_splitter(basis, 0.37, (0, 1))
        assert np.abs(U @ U.conj().T - np.eye(basis.dimension)).max() < 1e-10

    def test_photon_number_conservation(self):
        basis = ModeBasis((3, 3), total_cap=3)
        U = beam_splitter(basis, 0.5, (0, 1))
        n_total = np.diag([sum(occ) for occ in basis.occupations]).astype(complex)
        assert np.abs(U @ n_total - n_total @ U).max() < 1e-12

    def test_rejects_bad_transmission(self):
        with pytest.raises(ValueError):
            beam_splitter(ModeBasis((1, 1)), 1.2, (0, 1))


class TestLossChannel:
    def test_perfect_transmission_single_kraus(self):
        ops = loss_kraus(1.0, 4)
        assert len(ops) == 1
        assert np.allclose(ops[0], np.eye(5))

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.648, 1.0])
    def test_completeness(self, eta):
        ops = loss_kraus(eta, 6)
        total = sum(A.T @ A for A in ops)
        assert np.abs(total - np.eye(7)).max() < 1e-10

    def test_single_photon_loss(self):
        basis = ModeBasis((1,))
        rho = fock_state(basis, (1,)).to_density()
        eta = 0.37
        out = apply_channel(rho, LossChannel(eta), 0)
        expected = np.diag([1 - eta, eta])
        assert np.allclose(out.matrix, expected, atol=1e-14)

    def test_psi2_two_mode_loss_closed_form(self):
        # eta^2 on the two-photon part, eta(1-eta) per one-photon state,
        # (1-eta)^2 on vacuum.
        eta = 0.53
        rho = psi2().to_density()
        for mode in (0, 1):
            rho = apply_channel(rho, LossChannel(eta), mode)
        basis = rho.basis
        expected = eta**2 * np.outer(psi2().amplitudes, psi2().amplitudes.conj())
        for occ, w in (
            ((0, 1), eta * (1 - eta)),
            ((1, 0), eta * (1 - eta)),
            ((0, 0), (1 - eta) ** 2),
        ):
            i = basis.index_of(occ)
            expected[i, i] += w
        assert np.abs(rho.matrix - expected).max() < 1e-12

    def test_identity_channel_preserves_state(self):
        rho = psi2().to_density()
        out = apply_channel(rho, LossChannel(1.0), 0)
        assert np.allclose(out.matrix, rho.matrix)

    def test_full_loss_gives_vacuum(self):
        basis = ModeBasis((3,))
        rho = fock_state(basis, (3,)).to_density()
        out = apply_channel(rho, LossChannel(0.0), 0)
        assert out.matrix[0, 0] == pytest.approx(1.0)

    def test_composition_semigroup(self):
        # Two consecutive losses equal one loss with the product transmission.
        rng = np.random.default_rng(7)
        basis = ModeBasis((2,))
        for eta1, eta2 in [(0.9, 0.8), (0.5, 0.7), (0.3, 0.99)]:
            mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            mat = mat @ mat.conj().T
            rho = DensityOperator(basis, mat / np.trace(mat))
            seq = apply_channel(apply_channel(rho, LossChannel(eta2), 0), LossChannel(eta1), 0)
            combined = apply_channel(rho, LossChannel(eta1 * eta2), 0)
            assert np.abs(seq.matrix - combined.matrix).max() < 1e-12

    def test_trace_preserved(self):
        rho = psi2().to_density()
        out = apply_channel(rho, LossChannel(0.42), 1)
        assert out.trace() == pytest.approx(1.0, abs=1e-12)


class TestPartialTrace:
    def test_vacuum(self):
        basis = ModeBasis((1, 1))
        rho = vacuum(basis).to_density()
        red = partial_trace(rho, keep=(0,))
        assert np.allclose(red.matrix, np.diag([1.0, 0.0]))

    def test_psi2_schmidt_form(self):
        red = partial_trace(psi2().to_density(), keep=(1,))
        expected = np.zeros((3, 3))
        expected[0, 0] = expected[2, 2] = 0.5
        assert np.abs(red.matrix - expected).max() < 1e-12

    def test_reduced_squeezed_state_is_mixed(self):
        lam = 0.4
        basis = ModeBasis((5, 5))
        v = np.zeros(basis.dimension, dtype=complex)
        amps = lam ** np.arange(6)
        amps /= np.linalg.norm(amps)
        for n in range(6):
            v[basis.index_of((n, n))] = amps[n]
        red = partial_trace(StateVector(basis, v).to_density(), keep=(0,))
        assert red.purity() < 1.0
        # Schmidt weights are geometric with ratio lam^2.
        w = np.sort(np.linalg.eigvalsh(red.matrix))[::-1]
        assert w[1] / w[0] == pytest.approx(lam**2, rel=1e-9)

    def test_trace_preserved(self):
        red = partial_trace(psi2().to_density(), keep=(0,))
        assert red.trace() == pytest.approx(1.0, abs=1e-12)


class TestEigensolver:
    def test_diagonal(self):
        w, _ = hermitian_eig(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(w, [-1.0, 2.0, 3.0])

    def test_pauli_x(self):
        w, _ = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(11)
        mat = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        H = mat + mat.conj().T
        w, v = hermitian_eig(H)
        assert np.abs(v @ np.diag(w) @ v.conj().T - H).max() < 1e-10 * np.abs(H).max()
        assert np.abs(v.conj().T @ v - np.eye(6)).max() < 1e-10

    def test_residuals(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(9, 9))
        H = mat + mat.T
        w, v = hermitian_eig(H)
        scale = np.linalg.norm(H)
        for i in range(9):
            assert np.linalg.norm(H @ v[:, i] - w[i] * v[:, i]) <= 1e-10 * scale

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("solve", [hermitian_eig, hermitian_eigvals])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
    def test_rejects_non_finite_entries(self, solve, bad):
        # A NaN asymmetry compares False with the tolerance; it must still fail.
        with pytest.raises(ValueError, match="not Hermitian or not finite"):
            solve(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="not Hermitian or not finite"):
            solve(np.array([[0.0, bad], [0.0, 0.0]]))  # inf asymmetry under an inf scale
        stack = np.stack([np.eye(2), np.eye(2)])
        stack[1, 0, 1] = stack[1, 1, 0] = bad  # symmetric, but not finite
        with pytest.raises(ValueError, match="not Hermitian or not finite"):
            solve(stack)


class TestExpectation:
    def test_vacuum_photon_number(self):
        basis = ModeBasis((2,))
        n_op = HermitianOperator(basis, np.diag([0.0, 1.0, 2.0]))
        assert expectation(vacuum(basis), n_op) == 0.0

    def test_psi2_total_photon_number(self):
        state = psi2()
        n1 = np.kron(np.diag([0.0, 1.0, 2.0]), np.eye(3))
        n2 = np.kron(np.eye(3), np.diag([0.0, 1.0, 2.0]))
        total = HermitianOperator(state.basis, n1 + n2)
        assert expectation(state, total) == pytest.approx(2.0)

    def test_eigenvector_consistency(self):
        rng = np.random.default_rng(5)
        basis = ModeBasis((1, 1))
        mat = rng.normal(size=(4, 4))
        H = HermitianOperator(basis, mat + mat.T)
        w, v = hermitian_eig(H)
        state = StateVector(basis, v[:, -1])
        assert expectation(state, H) == pytest.approx(w[-1], abs=1e-12)

    def test_imaginary_residue_small(self):
        rng = np.random.default_rng(8)
        basis = ModeBasis((2,))
        mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        H = HermitianOperator(basis, mat + mat.conj().T)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        state = StateVector(basis, v / np.linalg.norm(v))
        raw = np.vdot(state.amplitudes, H.matrix @ state.amplitudes)
        assert abs(raw.imag) < 1e-12 * max(1.0, abs(raw.real))


class TestStateInvariants:
    def test_normalize(self):
        basis = ModeBasis((2,))
        state = StateVector(basis, [3.0, 4.0, 0.0]).normalize()
        assert state.norm() == pytest.approx(1.0, abs=1e-12)

    def test_density_rejects_non_hermitian(self):
        basis = ModeBasis((1,))
        with pytest.raises(ValueError):
            DensityOperator(basis, np.array([[1.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
    def test_density_rejects_non_finite_entries(self, bad):
        basis = ModeBasis((1,))
        with pytest.raises(ValueError, match="not finite"):
            DensityOperator(basis, np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="not finite"):
            DensityOperator(basis, np.array([[0.5, bad], [bad, 0.5]]))

    def test_embedding_indices(self):
        sub = ModeBasis((2, 2), total_cap=2)
        full = ModeBasis((2, 2))
        idx = embedding_indices(sub, full)
        for i, j in enumerate(idx):
            assert full.occupation_of(j) == sub.occupation_of(i)

    def test_channels_preserve_positivity(self):
        rho = psi2().to_density()
        for mode in (0, 1):
            rho = apply_channel(rho, LossChannel(0.4), mode)
        assert np.linalg.eigvalsh(rho.matrix).min() > -1e-10

    def test_annihilation_matrix(self):
        a = annihilation(3)
        assert a[0, 1] == pytest.approx(1.0)
        assert a[2, 3] == pytest.approx(math.sqrt(3))
