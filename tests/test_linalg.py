import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qcoherence.linalg
from qcoherence import (
    ConvergenceFailureError,
    DensityMatrix,
    DimensionMismatchError,
    HermitianObservable,
    NotFiniteError,
    NotHermitianError,
    NotOrthonormalError,
    NotPSDError,
    OrthonormalBasis,
    Subspace,
    TraceNotOneError,
    fourier_basis,
    hermitian_eigendecomposition,
    purity,
    random_basis,
    rewrite_in_basis,
    sample_haar_unitary,
    validate_density,
)
from qcoherence.linalg import RECON_SCALE, TOL_HERM, checked_eigh, entropies, orthonormality_defect
from qcoherence.measures import worst_deviations

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _random_hermitian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def _random_state(n, rng, rank=None):
    rank = rank or n
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    w = g @ g.conj().T
    return w / np.trace(w).real


@pytest.mark.parametrize("vector", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 0.0]],
                         ids=["zero", "nan", "inf"])
def test_pure_rejects_vector_without_finite_nonzero_norm(vector):
    # was an all-NaN state with a RuntimeWarning
    with pytest.raises(ValueError, match="nonzero finite norm"):
        DensityMatrix.pure(vector)


class TestValidateDensity:
    def test_maximally_mixed_qubit(self):
        rho = validate_density(np.eye(2) / 2)
        assert rho.dim == 2

    def test_offdiagonal_family_is_valid(self):
        eps = 0.1
        rho = validate_density([[0.5, 0.5 * eps], [0.5 * eps, 0.5]])
        assert rho.dim == 2

    def test_trace_failure_names_magnitude(self):
        with pytest.raises(TraceNotOneError, match="1.000e-01"):
            validate_density(np.diag([1.0, 0.1]))

    def test_not_hermitian(self):
        with pytest.raises(NotHermitianError):
            validate_density([[0.5, 0.5], [0.0, 0.5]])

    def test_not_psd(self):
        with pytest.raises(NotPSDError):
            validate_density(np.diag([1.5, -0.5]))

    def test_non_square(self):
        with pytest.raises(DimensionMismatchError):
            validate_density(np.zeros((2, 3)))

    def test_zero_dimension(self):
        # numpy's zero-size reduction ValueError escaped both checks
        for check in (validate_density, OrthonormalBasis.from_columns):
            with pytest.raises(DimensionMismatchError, match=r"n >= 1, got shape \(0, 0\)"):
                check(np.zeros((0, 0)))

    def test_matrix_is_read_only(self):
        rho = validate_density(np.eye(3) / 3)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


class TestEigendecomposition:
    def test_diagonal_matrix(self):
        w, basis = hermitian_eigendecomposition(np.diag([1.0, 2.0, 3.0]).astype(complex))
        assert_allclose(w, [1.0, 2.0, 3.0])
        # standard basis up to phase
        assert_allclose(np.abs(basis.vectors), np.eye(3), atol=1e-12)

    def test_pauli_x(self):
        w, basis = hermitian_eigendecomposition(PAULI_X)
        assert_allclose(w, [-1.0, 1.0])
        for j in range(2):
            assert_allclose(PAULI_X @ basis.vectors[:, j], w[j] * basis.vectors[:, j], atol=1e-12)
        assert_allclose(np.abs(basis.vectors), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12)

    def test_reconstruction_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(2, 33))
            a = _random_hermitian(n, rng)
            w, basis = hermitian_eigendecomposition(a)
            v = basis.vectors
            recon = (v * w) @ v.conj().T
            assert np.abs(recon - a).max() < RECON_SCALE * n
            assert orthonormality_defect(v) < 1e-12

    def test_observable_caches_decomposition(self):
        rng = np.random.default_rng(5)
        obs = HermitianObservable.from_matrix(_random_hermitian(6, rng))
        w, basis = hermitian_eigendecomposition(obs)
        assert w is obs.spectrum
        assert basis is obs.eigenbasis
        assert np.all(np.diff(obs.spectrum) >= 0)

    def test_state_caches_its_eigensystem(self):
        rho = DensityMatrix(_random_state(5, np.random.default_rng(6)))
        w, basis = rho.eigensystem()
        assert rho.eigensystem()[1] is basis
        w2, basis2 = hermitian_eigendecomposition(rho.matrix)
        assert (w == w2).all() and (basis.vectors == basis2.vectors).all()

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            HermitianObservable.from_matrix([[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("scale", [1e8, 1e12])
    def test_checks_scale_with_the_largest_entry(self, scale):
        # a well-conditioned operator of large norm, Hermitian up to
        # roundoff relative to its entries, is accepted; one whose
        # hermiticity defect is large relative to its entries is not
        rng = np.random.default_rng(8)
        v = sample_haar_unitary(8, rng)
        a = (v * (rng.standard_normal(8) * scale)) @ v.conj().T
        assert np.abs(a - a.conj().T).max() > TOL_HERM  # an absolute check rejects it
        obs = HermitianObservable.from_matrix(a)
        v = obs.eigenbasis.vectors
        assert np.abs((v * obs.spectrum) @ v.conj().T - a).max() <= RECON_SCALE * 8 * np.abs(a).max()
        skewed = a.copy()
        skewed[0, 1] += 1e-8 * scale
        with pytest.raises(NotHermitianError):
            HermitianObservable.from_matrix(skewed)

    def test_reconstruction_tolerance_is_per_matrix(self, monkeypatch):
        # a small operator stacked with a large one keeps its own tolerance
        rng = np.random.default_rng(12)
        stack = np.stack([_random_hermitian(4, rng) * 1e8, _random_hermitian(4, rng) * 0.1])
        checked_eigh(stack)
        eigh = qcoherence.linalg._eigh

        def perturbed(m):
            w, v = eigh(m)
            w[1] += 1e-6
            return w, v

        monkeypatch.setattr(qcoherence.linalg, "_eigh", perturbed)
        with pytest.raises(ConvergenceFailureError, match="exceeds 4.0e-09"):
            checked_eigh(stack)

    def test_state_eigensystem_checks_its_reconstruction(self, monkeypatch):
        # a density eigensystem goes through the same checked decomposition
        eigh = qcoherence.linalg._eigh

        def perturbed(m):
            w, v = eigh(m)
            w[0] += 1e-6
            return w, v

        monkeypatch.setattr(qcoherence.linalg, "_eigh", perturbed)
        rho = DensityMatrix(_random_state(3, np.random.default_rng(13)))
        with pytest.raises(ConvergenceFailureError, match="spectral reconstruction error"):
            rho.eigensystem()


def _power_iteration_norm(m, rng, starts=10_000, iters=500):
    """Independent largest-singular-value oracle: best of `starts` random unit
    vectors, then power iteration on M^H M."""
    n = m.shape[0]
    xs = rng.standard_normal((starts, n)) + 1j * rng.standard_normal((starts, n))
    xs /= np.linalg.norm(xs, axis=1)[:, None]
    gains = np.linalg.norm(xs @ m.T, axis=1)
    sampled_max = float(gains.max())
    v = xs[int(gains.argmax())]
    h = m.conj().T @ m
    for _ in range(iters):
        v = h @ v
        v /= np.linalg.norm(v)
    return sampled_max, float(np.sqrt(np.vdot(v, h @ v).real))


def _q_norm(rho, basis) -> float:
    """||Q||_op of rho rewritten in basis, as worst_deviations computes it."""
    return float(worst_deviations(rewrite_in_basis(rho, basis)))


class TestOperatorNorm:
    """The operator norm of a state's off-diagonal part Q, the one the
    subspace bound is checked against (measures.worst_deviations)."""

    def test_zero_matrix(self):
        # a diagonal state in the standard basis has Q = 0 exactly
        rho = validate_density(np.diag([0.5, 0.3, 0.2, 0.0]))
        assert _q_norm(rho, OrthonormalBasis.standard(4)) == 0.0

    def test_unbiased_pure_state_has_norm_one_minus_one_over_n(self):
        # rep = J/n, so Q = (J - I)/n has eigenvalues (n-1)/n and -1/n
        for n in (2, 5, 8):
            rho = DensityMatrix.pure(np.ones(n))
            assert abs(_q_norm(rho, OrthonormalBasis.standard(n)) - (n - 1) / n) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_random_vector_oracle(self, n):
        rng = np.random.default_rng(n)
        rho, basis = validate_density(_random_state(n, rng)), random_basis(n, rng)
        q = rewrite_in_basis(rho, basis).offdiag
        sampled_max, oracle = _power_iteration_norm(q, rng)
        norm = _q_norm(rho, basis)
        assert norm >= sampled_max - 1e-12
        assert abs(norm - oracle) < 1e-6
        assert abs(norm - np.linalg.norm(q, 2)) < 1e-12

    def test_unitary_invariance(self):
        # relabelling the basis conjugates Q by a permutation times phases
        rng = np.random.default_rng(9)
        rho, basis = validate_density(_random_state(6, rng)), random_basis(6, rng)
        base = _q_norm(rho, basis)
        for _ in range(10):
            relabelled = OrthonormalBasis(
                basis.vectors[:, rng.permutation(6)] * np.exp(2j * np.pi * rng.random(6))
            )
            assert abs(_q_norm(rho, relabelled) - base) < 1e-10


def _entropy(rho) -> float:
    """The von Neumann entropy in nats, on the spectrum path s_rel takes."""
    return float(entropies(rho.eigensystem()[0]))


class TestEntropyAndPurity:
    def test_pure_state(self):
        rho = DensityMatrix.pure(np.array([1.0, 1.0j]) / np.sqrt(2))
        assert _entropy(rho) < 1e-12
        assert abs(purity(rho) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_maximally_mixed(self, n):
        rho = DensityMatrix.maximally_mixed(n)
        assert abs(_entropy(rho) - np.log(n)) < 1e-12
        assert abs(purity(rho) - 1.0 / n) < 1e-12

    def test_binary_entropy_value(self):
        # -0.55 ln 0.55 - 0.45 ln 0.45, evaluated directly
        rho = validate_density(np.diag([0.55, 0.45]))
        assert abs(_entropy(rho) - 0.6881388137135884) < 1e-12

    def test_purity_by_hand(self):
        assert abs(purity(validate_density(np.diag([0.7, 0.3]))) - 0.58) < 1e-14

    def test_ranges_on_random_states(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 17))
            rho = validate_density(_random_state(n, rng))
            p = purity(rho)
            s = _entropy(rho)
            assert 1.0 / n - 1e-12 <= p <= 1.0 + 1e-12
            assert -1e-12 <= s <= np.log(n) + 1e-12


class TestBasesAndSubspaces:
    def test_standard_basis(self):
        b = OrthonormalBasis.standard(4)
        assert b.dim == 4
        assert_allclose(b.vectors[:, 2], np.eye(4)[:, 2])

    def test_from_columns_rejects_non_orthonormal(self):
        with pytest.raises(NotOrthonormalError):
            OrthonormalBasis.from_columns([[1.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_fourier_basis_is_orthonormal(self, n):
        assert orthonormality_defect(fourier_basis(n).vectors) < 1e-12

    def test_subspace_projector_idempotent(self):
        rng = np.random.default_rng(3)
        u = sample_haar_unitary(6, rng)
        f = Subspace.from_vectors(u[:, :3])
        assert f.dim == 3 and f.ambient_dim == 6
        p = f.frame @ f.frame.conj().T
        assert np.abs(p @ p - p).max() < 1e-12

    def test_subspace_rejects_skewed_frame(self):
        with pytest.raises(NotOrthonormalError):
            Subspace.from_vectors(np.array([[1.0, 0.9], [0.0, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_subspace_rejects_non_finite_frame(self, bad):
        # a NaN frame passed the orthonormality check, and tpf_deviation gave nan
        with pytest.raises(NotFiniteError, match="frame has 2 NaN or infinite entries"):
            Subspace.from_vectors(np.full((2, 1), bad))

    def test_nan_orthonormality_defect_fails(self):
        with pytest.raises(NotOrthonormalError, match="nan"):
            qcoherence.linalg._check_orthonormal(np.full((2, 1), np.nan))

    @pytest.mark.parametrize("shape", [(2, 2, 1), (2, 0), (1, 2), ()],
                             ids=["3-axes", "no-vector", "too-many", "scalar"])
    def test_subspace_rejects_frame_shape(self, shape):
        # a 3-axis frame raised numpy's matmul ValueError, and a scalar was
        # reported as shape (1,)
        with pytest.raises(DimensionMismatchError,
                           match=re.escape(f"1 <= k <= n vectors of dimension n, got shape {shape}")):
            Subspace.from_vectors(np.zeros(shape))

    def test_single_vector_frame(self):
        f = Subspace.from_vectors(np.array([1.0, 1.0]) / np.sqrt(2))
        assert f.dim == 1 and f.ambient_dim == 2
