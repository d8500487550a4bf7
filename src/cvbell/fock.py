"""Multimode truncated Fock-space algebra.

States and operators live on a :class:`ModeBasis`: the set of photon
occupation tuples ``(n_0, ..., n_{M-1})`` with ``n_i <= cutoffs[i]`` and,
optionally, ``sum(n_i) <= total_cap``.  Tuples are enumerated in
lexicographic order; this ordering is part of the public contract
(regression values and result files depend on it).

Beam-splitter convention, for transmission ``t`` on the mode pair ``(i, j)``::

    a_i^dag -> sqrt(t) a_i^dag + sqrt(1-t) a_j^dag
    a_j^dag -> -sqrt(1-t) a_i^dag + sqrt(t) a_j^dag

Transmitted amplitudes are real positive; the single reflection sign sits on
the j -> i path.  Physical quantities computed downstream are convention
independent, intermediate state signs are not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

#: Largest entry of ``H - H^dag`` accepted as rounding noise, relative to
#: ``max(1, max |H|)`` over the whole matrix or stack.
HERMITICITY_RTOL = 1e-10

# Joint dimensions beyond this are almost certainly a caller error
# (dense storage would exceed memory long before physics becomes interesting).
MAX_TENSOR_DIMENSION = 4_000_000


class ModeBasis:
    """Ordered enumeration of Fock occupation tuples for a set of modes."""

    def __init__(self, cutoffs, total_cap: int | None = None):
        cutoffs = tuple(int(c) for c in cutoffs)
        if len(cutoffs) == 0:
            raise ValueError("at least one mode is required")
        if any(c < 0 for c in cutoffs):
            raise ValueError(f"cutoffs must be non-negative, got {cutoffs}")
        if total_cap is not None:
            total_cap = int(total_cap)
            if total_cap < 0:
                raise ValueError("total_cap must be non-negative")
        self.cutoffs = cutoffs
        self.total_cap = total_cap
        # No mode holds more photons than the cap, so each is enumerated only
        # up to min(cutoff, cap): a capped basis costs nothing for huge cutoffs.
        reach = cutoffs if total_cap is None else tuple(min(c, total_cap) for c in cutoffs)
        occupations = [
            occ
            for occ in product(*(range(c + 1) for c in reach))
            if total_cap is None or sum(occ) <= total_cap
        ]
        self.occupations = np.array(occupations, dtype=np.int64)
        self._index = {occ: i for i, occ in enumerate(occupations)}

    @property
    def mode_count(self) -> int:
        return len(self.cutoffs)

    @property
    def dimension(self) -> int:
        return len(self._index)

    def index_of(self, occupation) -> int:
        occ = tuple(int(n) for n in occupation)
        try:
            return self._index[occ]
        except KeyError:
            raise ValueError(f"occupation {occ} is not in this basis") from None

    def occupation_of(self, index: int) -> tuple[int, ...]:
        return tuple(int(n) for n in self.occupations[index])

    def contains(self, occupation) -> bool:
        return tuple(int(n) for n in occupation) in self._index

    def __eq__(self, other):
        return (
            isinstance(other, ModeBasis)
            and self.cutoffs == other.cutoffs
            and self.total_cap == other.total_cap
        )

    def __hash__(self):
        return hash((self.cutoffs, self.total_cap))

    def __repr__(self):
        cap = "" if self.total_cap is None else f", total_cap={self.total_cap}"
        return f"ModeBasis(cutoffs={self.cutoffs}{cap})"


@lru_cache(maxsize=256)
def shared_basis(cutoffs: tuple, total_cap: int | None = None) -> ModeBasis:
    """One :class:`ModeBasis` per ``(cutoffs, total_cap)``, shared by its callers.

    Its ``occupations`` are read-only, so no caller can change another's basis.
    """
    basis = ModeBasis(cutoffs, total_cap)
    basis.occupations.setflags(write=False)
    return basis


def _product_index(basis: ModeBasis) -> np.ndarray:
    """Where each element of a two-mode basis sits in the uncapped product basis."""
    alpha, beta = basis.occupations.T
    return alpha * (basis.cutoffs[1] + 1) + beta


def _product_tensor(basis: ModeBasis, matrix: np.ndarray) -> np.ndarray:
    """A matrix on a (capped) two-mode basis, padded as the ``(a, b, a', b')`` tensor.

    Entries outside the basis are zero.
    """
    ca, cb = basis.cutoffs
    idx = _product_index(basis)
    full = np.zeros(((ca + 1) * (cb + 1),) * 2, dtype=matrix.dtype)
    full[np.ix_(idx, idx)] = matrix
    return full.reshape(ca + 1, cb + 1, ca + 1, cb + 1)


def enumerate_basis(mode_count: int, cutoffs, total_cap: int | None = None) -> ModeBasis:
    """Build the lexicographically ordered occupation basis.

    ``cutoffs`` may be a single integer (applied to every mode) or one value
    per mode.
    """
    if mode_count < 1:
        raise ValueError("mode_count must be at least 1")
    if np.isscalar(cutoffs):
        cutoffs = (int(cutoffs),) * mode_count
    else:
        cutoffs = tuple(int(c) for c in cutoffs)
        if len(cutoffs) != mode_count:
            raise ValueError(
                f"expected {mode_count} cutoffs, got {len(cutoffs)}"
            )
    return ModeBasis(cutoffs, total_cap)


class StateVector:
    """Pure state: complex amplitudes over a :class:`ModeBasis`."""

    def __init__(self, basis: ModeBasis, amplitudes):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (basis.dimension,):
            raise ValueError(
                f"amplitude vector has shape {amplitudes.shape}, "
                f"basis dimension is {basis.dimension}"
            )
        self.basis = basis
        self.amplitudes = amplitudes

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalize(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.basis, self.amplitudes / n)

    def to_density(self) -> "DensityOperator":
        v = self.amplitudes
        return DensityOperator(self.basis, np.outer(v, v.conj()))

    def overlap(self, other: "StateVector") -> complex:
        if other.basis != self.basis:
            raise ValueError("states live on different bases")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


class DensityOperator:
    """Mixed state: Hermitian, unit-trace matrix over a :class:`ModeBasis`."""

    def __init__(self, basis: ModeBasis, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (basis.dimension, basis.dimension):
            raise ValueError("matrix shape does not match basis dimension")
        _check_hermitian(matrix, "density matrix")
        self.basis = basis
        self.matrix = matrix

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def normalize(self) -> "DensityOperator":
        tr = self.trace()
        if tr <= 0.0:
            raise ValueError("cannot normalize a non-positive-trace operator")
        return DensityOperator(self.basis, self.matrix / tr)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


class HermitianOperator:
    """Dense self-adjoint operator over a :class:`ModeBasis`."""

    def __init__(self, basis: ModeBasis, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (basis.dimension, basis.dimension):
            raise ValueError("matrix shape does not match basis dimension")
        _check_hermitian(matrix, "operator")
        self.basis = basis
        self.matrix = matrix


@dataclass(frozen=True)
class LossChannel:
    """Pure photon-loss channel with power transmission ``transmission``.

    Models a fictitious beam splitter routing a fraction ``1 - transmission``
    of the light into an unobserved mode that is traced out.
    """

    transmission: float

    def __post_init__(self):
        if not 0.0 <= self.transmission <= 1.0:
            raise ValueError("transmission must lie in [0, 1]")

    def kraus(self, cutoff: int) -> list[np.ndarray]:
        return loss_kraus(self.transmission, cutoff)


def fock_state(basis: ModeBasis, occupation) -> StateVector:
    v = np.zeros(basis.dimension, dtype=complex)
    v[basis.index_of(occupation)] = 1.0
    return StateVector(basis, v)


def vacuum(basis: ModeBasis) -> StateVector:
    return fock_state(basis, (0,) * basis.mode_count)


def annihilation(cutoff: int) -> np.ndarray:
    """Single-mode annihilation operator on the ``cutoff + 1`` Fock levels."""
    return np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=float)), k=1)


def embedding_indices(sub: ModeBasis, full: ModeBasis) -> np.ndarray:
    """Indices of ``sub``'s occupation tuples inside ``full``.

    Raises if any tuple of ``sub`` is missing from ``full``.
    """
    if sub.mode_count != full.mode_count:
        raise ValueError("bases have different mode counts")
    return np.array([full.index_of(occ) for occ in sub.occupations], dtype=np.int64)


def tensor(a, b):
    """Tensor product of two states or two operators of the same kind.

    The joint object lives on the concatenated basis (first operand's modes
    first).  Kronecker ordering coincides with lexicographic ordering of the
    concatenated occupation tuples, which requires both operands to be free
    of a total-photon cap.
    """
    if type(a) is not type(b):
        raise TypeError("tensor operands must be of the same kind")
    if a.basis.total_cap is not None or b.basis.total_cap is not None:
        raise ValueError(
            "tensor of capped bases is ambiguous; tensor uncapped objects "
            "and project afterwards"
        )
    joint_dim = a.basis.dimension * b.basis.dimension
    if joint_dim > MAX_TENSOR_DIMENSION:
        raise ValueError(f"joint dimension {joint_dim} exceeds the dense-storage guard")
    basis = ModeBasis(a.basis.cutoffs + b.basis.cutoffs)
    if isinstance(a, StateVector):
        return StateVector(basis, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityOperator):
        return DensityOperator(basis, np.kron(a.matrix, b.matrix))
    if isinstance(a, HermitianOperator):
        return HermitianOperator(basis, np.kron(a.matrix, b.matrix))
    raise TypeError(f"cannot tensor objects of type {type(a).__name__}")


def _bs_pair_coefficient(k: int, l: int, m: int, n: int, t: float) -> float:
    """Amplitude <k,l|U(t)|m,n> for the documented beam-splitter convention.

    Nonzero only when k + l == m + n (photon-number conservation).
    """
    if k + l != m + n:
        return 0.0
    pref = math.sqrt(
        math.factorial(k) * math.factorial(l) / (math.factorial(m) * math.factorial(n))
    )
    acc = 0.0
    for q in range(max(0, k - m), min(k, n) + 1):
        p = k - q
        acc += (
            (-1.0) ** q
            * math.comb(m, p)
            * math.comb(n, q)
            * t ** ((p + n - q) / 2.0)
            * (1.0 - t) ** ((m - p + q) / 2.0)
        )
    return pref * acc


def beam_splitter(basis: ModeBasis, t: float, modes: tuple[int, int]) -> np.ndarray:
    """Beam-splitter unitary of transmission ``t`` acting on ``modes``.

    The matrix is unitary on the subspace of basis states whose photon
    content fits inside the cutoffs of both modes; amplitudes scattering
    beyond a cutoff are dropped.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("beam-splitter transmission must lie in [0, 1]")
    i, j = modes
    if i == j:
        raise ValueError("beam splitter needs two distinct modes")
    for mode in (i, j):
        if not 0 <= mode < basis.mode_count:
            raise ValueError(f"mode index {mode} out of range")
    dim = basis.dimension
    U = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        occ = basis.occupation_of(col)
        m, n = occ[i], occ[j]
        total = m + n
        for k in range(total + 1):
            l = total - k
            target = list(occ)
            target[i], target[j] = k, l
            if not basis.contains(target):
                continue
            row = basis.index_of(target)
            U[row, col] = _bs_pair_coefficient(k, l, m, n, t)
    return U


def loss_kraus(eta: float, cutoff: int) -> list[np.ndarray]:
    """Kraus operators of the single-mode loss channel with transmission eta.

    A_k |n> = sqrt(C(n, k)) eta^((n-k)/2) (1-eta)^(k/2) |n-k>, with k photons
    lost.  All-zero elements (e.g. every k >= 1 at eta = 1) are dropped.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("transmission must lie in [0, 1]")
    ops = []
    for k in range(cutoff + 1):
        A = np.zeros((cutoff + 1, cutoff + 1))
        for n in range(k, cutoff + 1):
            A[n - k, n] = math.sqrt(math.comb(n, k)) * eta ** ((n - k) / 2.0) * (
                1.0 - eta
            ) ** (k / 2.0)
        if np.any(A != 0.0):
            ops.append(A)
    return ops


def embed_single_mode(basis: ModeBasis, op: np.ndarray, mode: int) -> np.ndarray:
    """Embed a single-mode operator into the multimode basis.

    Matrix elements connect occupations that differ only in ``mode``; target
    occupations outside the basis (cutoff or cap violations) are dropped,
    which is exact for photon-number-non-increasing operators.
    """
    if not 0 <= mode < basis.mode_count:
        raise ValueError(f"mode index {mode} out of range")
    if op.shape != (basis.cutoffs[mode] + 1, basis.cutoffs[mode] + 1):
        raise ValueError("single-mode operator does not match the mode cutoff")
    dim = basis.dimension
    out = np.zeros((dim, dim), dtype=complex)
    rows, cols = np.nonzero(op)
    for col in range(dim):
        occ = basis.occupation_of(col)
        n = occ[mode]
        sel = cols == n
        for n_out in rows[sel]:
            target = list(occ)
            target[mode] = int(n_out)
            if basis.contains(target):
                out[basis.index_of(target), col] = op[n_out, n]
    return out


def apply_channel(rho: DensityOperator, channel: LossChannel, mode: int) -> DensityOperator:
    """Apply a loss channel to one mode of a density operator."""
    basis = rho.basis
    if not 0 <= mode < basis.mode_count:
        raise ValueError(f"mode index {mode} out of range")
    out = np.zeros_like(rho.matrix)
    for A in channel.kraus(basis.cutoffs[mode]):
        E = embed_single_mode(basis, A, mode)
        out += E @ rho.matrix @ E.conj().T
    return DensityOperator(basis, out)


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out every mode not listed in ``keep``."""
    basis = rho.basis
    keep = tuple(sorted(int(m) for m in keep))
    if len(keep) == 0:
        raise ValueError("must keep at least one mode")
    if any(not 0 <= m < basis.mode_count for m in keep) or len(set(keep)) != len(keep):
        raise ValueError(f"invalid mode selection {keep}")
    traced = tuple(m for m in range(basis.mode_count) if m not in keep)
    kept_basis = ModeBasis(
        tuple(basis.cutoffs[m] for m in keep), total_cap=basis.total_cap
    )
    if not traced:
        return DensityOperator(kept_basis, rho.matrix.copy())

    kept_index = np.array(
        [kept_basis.index_of(tuple(occ[list(keep)])) for occ in basis.occupations]
    )
    traced_sig = [tuple(occ[list(traced)]) for occ in basis.occupations]
    groups: dict[tuple, list[int]] = {}
    for idx, sig in enumerate(traced_sig):
        groups.setdefault(sig, []).append(idx)

    out = np.zeros((kept_basis.dimension, kept_basis.dimension), dtype=complex)
    for indices in groups.values():
        rows = kept_index[indices]
        out[np.ix_(rows, rows)] += rho.matrix[np.ix_(indices, indices)]
    return DensityOperator(kept_basis, out)


def _check_hermitian(matrix: np.ndarray, what: str = "matrix") -> None:
    """Reject a matrix, or a stack of matrices, that is not Hermitian or not finite.

    A NaN entry makes the asymmetry NaN and an inf entry makes the bound
    inf, and either fails the one chained comparison.
    """
    scale = max(1.0, float(np.abs(matrix).max()))
    bound = HERMITICITY_RTOL * scale
    if not np.abs(matrix - matrix.conj().swapaxes(-1, -2)).max() <= bound < math.inf:
        raise ValueError(f"{what} is not Hermitian or not finite")


def _hermitian_input(H) -> np.ndarray:
    """The checked, symmetrized matrix or stack of a Hermitian operator."""
    matrix = H.matrix if isinstance(H, HermitianOperator) else np.asarray(H)
    matrix = matrix.astype(complex if np.iscomplexobj(matrix) else float, copy=False)
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2]:
        raise ValueError("expected a square matrix")
    _check_hermitian(matrix)
    return (matrix + matrix.conj().swapaxes(-1, -2)) / 2.0


def hermitian_eig(H) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    Accepts a :class:`HermitianOperator`, a bare square ndarray, or a stack
    ``(..., d, d)`` of them (one eigensystem per matrix).  Real input stays
    real (real symmetric solver, real eigenvectors).  Rejects non-Hermitian
    input; the returned pairs satisfy ``||H v - w v|| <= 1e-10 ||H||``.
    """
    return np.linalg.eigh(_hermitian_input(H))


def hermitian_eigvals(H) -> np.ndarray:
    """Eigenvalues (ascending) of a Hermitian matrix or stack, without eigenvectors.

    Takes the input of :func:`hermitian_eig` and rejects the same matrices.
    LAPACK's values-only routine skips the eigenvectors; the values agree
    with those of :func:`hermitian_eig` to rounding, not bit for bit.
    """
    return np.linalg.eigvalsh(_hermitian_input(H))


def anchor_phase(vec: np.ndarray) -> np.ndarray:
    """Fix a vector's global phase: its largest-magnitude entry becomes real positive."""
    anchor = vec[np.argmax(np.abs(vec))]
    if abs(anchor) > 0:
        vec = vec * (anchor.conjugate() / abs(anchor))
    return vec


def expectation(state, H) -> float:
    """Real expectation value of a Hermitian operator in a pure or mixed state."""
    matrix = H.matrix if isinstance(H, HermitianOperator) else np.asarray(H)
    if isinstance(state, StateVector):
        if matrix.shape[0] != state.basis.dimension:
            raise ValueError("operator and state dimensions differ")
        value = np.vdot(state.amplitudes, matrix @ state.amplitudes)
    elif isinstance(state, DensityOperator):
        if matrix.shape[0] != state.basis.dimension:
            raise ValueError("operator and state dimensions differ")
        value = np.trace(state.matrix @ matrix)
    else:
        raise TypeError("state must be a StateVector or DensityOperator")
    return float(value.real)


def fidelity(state, target: StateVector) -> float:
    """Overlap fidelity <target| rho |target> (pure target)."""
    if isinstance(state, StateVector):
        return float(abs(state.overlap(target)) ** 2)
    if isinstance(state, DensityOperator):
        v = target.amplitudes
        return float((v.conj() @ state.matrix @ v).real)
    raise TypeError("state must be a StateVector or DensityOperator")
