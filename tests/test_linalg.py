import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qcoherence.linalg
from qcoherence import (
    CoherenceError,
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
    s_rel,
    sample_haar_unitary,
    validate_density,
)
from qcoherence.cli import main
from qcoherence.distance import (
    basis_distance,
    commutator_upper_bound,
    is_mutually_unbiased,
    overlap_matrix,
)
from qcoherence.experiments import check_subspace_bound, random_density_matrix, random_hermitian
from qcoherence.haar import (
    SeededGenerator,
    exact_expected_eta2_sq,
    monomial_moment,
    overlap_moment_check,
    sample_haar_unitaries,
)
from qcoherence.io import write_matrix
from qcoherence.linalg import RECON_SCALE, TOL_HERM, checked_eigh, orthonormality_defect
from qcoherence.measures import check_axiom1, tpf_deviation, worst_deviations

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

    @pytest.mark.parametrize("m", [[[0.5, 0.5], [0.0, 0.5]], [[np.nan, 0.0], [0.0, 1.0]]],
                             ids=["not-hermitian", "nan"])
    def test_trusted_state_eigensystem_rejects_an_invalid_matrix(self, m):
        # the constructor trusts its input; the eigensystem's reconstruction
        # check still refuses a matrix that is not Hermitian or not finite
        with pytest.raises(CoherenceError):
            DensityMatrix(np.array(m)).eigensystem()

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

    def test_solver_failure_is_a_convergence_failure(self, monkeypatch, tmp_path, capsys):
        # numpy's LinAlgError becomes ConvergenceFailureError, a validation
        # error: the CLI's E_VALIDATION, exit 3
        def failing(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        path = tmp_path / "state.txt"
        write_matrix(path, np.eye(2) / 2)
        monkeypatch.setattr(np.linalg, "eigh", failing)
        message = "eigh failed to converge: Eigenvalues did not converge"
        with pytest.raises(ConvergenceFailureError, match=f"^{message}$"):
            validate_density(np.eye(2) / 2)
        assert main(["measure", str(path)]) == 3
        assert capsys.readouterr().err.splitlines() == ["E_VALIDATION", message]


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


def _fourier_srel(p) -> float:
    """s_rel of diag(p) in the Fourier basis, which dephases it to the
    maximally mixed state: ln n - S(diag(p)), so entropies are checked through s_rel."""
    p = np.asarray(p, dtype=np.float64)
    return s_rel(rewrite_in_basis(validate_density(np.diag(p)), fourier_basis(p.size)), 1.0)


class TestEntropyAndPurity:
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_pure_state(self, n):
        # S = 0
        assert abs(_fourier_srel(np.eye(n)[0]) - np.log(n)) < 1e-12
        rho = DensityMatrix.pure(np.array([1.0, 1.0j]) / np.sqrt(2))
        assert abs(purity(rho) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_maximally_mixed(self, n):
        # S = ln n
        assert 0.0 <= _fourier_srel(np.full(n, 1.0 / n)) < 1e-12
        rho = DensityMatrix.maximally_mixed(n)
        assert abs(purity(rho) - 1.0 / n) < 1e-12
        # built from its eigensystem (1/n, I), which it keeps: no eigh runs
        assert (rho.matrix == np.eye(n) / n).all()
        lam, basis = rho.eigensystem()
        assert (lam == 1.0 / n).all() and (basis.vectors == np.eye(n)).all()

    def test_binary_entropy_value(self):
        # S = -0.55 ln 0.55 - 0.45 ln 0.45, evaluated directly
        assert abs(_fourier_srel([0.55, 0.45]) - (np.log(2.0) - 0.6881388137135884)) < 1e-12

    def test_purity_by_hand(self):
        assert abs(purity(validate_density(np.diag([0.7, 0.3]))) - 0.58) < 1e-14

    def test_ranges_on_random_states(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 17))
            rho = validate_density(_random_state(n, rng))
            p = purity(rho)
            s = np.log(n) - _fourier_srel(rho.eigensystem()[0])  # S(rho), from its spectrum
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


@pytest.mark.parametrize("wrap, read, given", [
    (validate_density, lambda r: r.matrix, lambda: np.eye(2, dtype=complex) / 2),
    (DensityMatrix, lambda r: r.matrix, lambda: np.eye(2, dtype=complex) / 2),
    (OrthonormalBasis.from_columns, lambda b: b.vectors, lambda: np.eye(2, dtype=complex)),
    (OrthonormalBasis, lambda b: b.vectors, lambda: np.eye(2, dtype=complex)),
    (HermitianObservable.from_matrix, lambda a: a.matrix, PAULI_X.copy),
    (lambda w: HermitianObservable(PAULI_X, w, OrthonormalBasis.standard(2)),
     lambda a: a.spectrum, lambda: np.array([-1.0, 1.0])),
    (Subspace.from_vectors, lambda f: f.frame, lambda: np.array([[1.0], [0.0]], dtype=complex)),
    (Subspace, lambda f: f.frame, lambda: np.array([[1.0], [0.0]], dtype=complex)),
], ids=["validate_density", "DensityMatrix", "from_columns", "OrthonormalBasis", "from_matrix",
        "spectrum", "from_vectors", "Subspace"])
def test_domain_types_copy_the_callers_array(wrap, read, given):
    # a complex128 C-contiguous input was wrapped as it was, so wrapping
    # froze the caller's array: m[0, 0] = 1 raised "assignment destination
    # is read-only" after validate_density(m)
    a = given()
    wrapped = read(wrap(a))
    want = wrapped.copy()
    assert a.flags.writeable and not wrapped.flags.writeable
    a[...] = 7.0
    assert (wrapped == want).all()


@pytest.mark.parametrize("n", [0, -1, 2.5, True])
@pytest.mark.parametrize("call", [
    lambda n: sample_haar_unitaries(n, 1, 0),
    lambda n: monomial_moment([1], n),
    lambda n: check_subspace_bound(n, range(1), SeededGenerator(0), 0),
    lambda n: random_density_matrix(n, 0),
    lambda n: random_hermitian(n, 0),
    lambda n: overlap_moment_check(n, 0, 0, 0, 2, 0),
    DensityMatrix.maximally_mixed,
    OrthonormalBasis.standard,
    fourier_basis,
], ids=["sample_haar_unitaries", "monomial_moment", "check_subspace_bound",
        "random_density_matrix", "random_hermitian", "overlap_moment_check", "maximally_mixed",
        "standard", "fourier_basis"])
def test_every_dimension_entry_point_rejects_n_below_one_or_not_an_integer(call, n):
    # maximally_mixed, standard and fourier_basis built 0 x 0 objects,
    # random_density_matrix raised an untyped ValueError, a float n reached
    # numpy's TypeError, and True passed as 1 or reached that TypeError
    with pytest.raises(DimensionMismatchError, match=f"^dimension must be >= 1, got {n}$"):
        call(n)


def test_no_zero_dimensional_state_or_basis_reaches_a_formula():
    # the first returned -1.0, the second raised ZeroDivisionError
    with pytest.raises(DimensionMismatchError):
        exact_expected_eta2_sq(DensityMatrix.maximally_mixed(0))
    with pytest.raises(DimensionMismatchError):
        is_mutually_unbiased(fourier_basis(0), OrthonormalBasis.standard(0))


def _standard_state(n):
    return rewrite_in_basis(DensityMatrix.maximally_mixed(n), OrthonormalBasis.standard(n))


@pytest.mark.parametrize("call, sizes", [
    (lambda: overlap_matrix(OrthonormalBasis.standard(2), OrthonormalBasis.standard(3)), "2 vs 3"),
    (lambda: basis_distance(OrthonormalBasis.standard(3), OrthonormalBasis.standard(2)), "3 vs 2"),
    (lambda: commutator_upper_bound(np.eye(2), np.eye(3)), "2 vs 3"),
    (lambda: rewrite_in_basis(DensityMatrix.maximally_mixed(2), OrthonormalBasis.standard(3)),
     "(3, 3) vs (2, 2)"),
    (lambda: tpf_deviation(_standard_state(2), Subspace(np.eye(3)[:, :1])), "3 vs 2"),
    (lambda: check_axiom1(DensityMatrix.maximally_mixed(2), ["eta1"], np.zeros((2, 3, 3))),
     "(3, 3) vs (2, 2)"),
    (lambda: monomial_moment([1, 1, 1], 2), "(3,) vs (2,)"),
], ids=["overlap_matrix", "basis_distance", "commutator_bounds", "rewrite_in_basis",
        "tpf_deviation", "check_axiom1", "monomial_moment"])
def test_every_size_match_names_both_sizes(call, sizes):
    with pytest.raises(DimensionMismatchError, match=re.escape(f": {sizes}")):
        call()
