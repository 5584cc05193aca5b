import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qcoherence.linalg
from qcoherence import (
    DELTA,
    ETA1,
    ETA2,
    ETA_INF,
    CounterexampleNotFoundError,
    DensityMatrix,
    DimensionMismatchError,
    NotFiniteError,
    NotOrthonormalError,
    NotPSDError,
    OrthonormalBasis,
    SeededGenerator,
    Subspace,
    approach_path,
    basis_distance,
    check_axiom1,
    check_axiom2,
    delta,
    diagonal_part,
    eta1,
    eta2,
    eta_inf,
    evaluate_measure,
    fourier_basis,
    off_diagonal_part,
    purity,
    random_basis,
    rewrite_in_basis,
    s_rel,
    sample_haar_unitary,
    srel_counterexample,
    srel_family_state,
    tpf_deviation,
    validate_density,
)
from qcoherence.cli import DEFAULT_MEASURES
from qcoherence.distance import overlap_tables
from qcoherence.experiments import (
    THEOREM42_MEASURES,
    _draw_chunk,
    random_density_matrix,
    run_theorem42_suite,
)
from qcoherence.linalg import checked_eigh
from qcoherence.measures import (
    MEASURE_CODES,
    MEASURES,
    StateBatch,
    adversarial_subspaces,
    worst_deviations,
)

EPS = 0.1
STANDARD2 = OrthonormalBasis.standard(2)


def _eps_state(eps=EPS):
    return rewrite_in_basis(srel_family_state(eps), STANDARD2)


def _plus_projector_subspace():
    return Subspace.from_vectors(np.array([1.0, 1.0]) / np.sqrt(2))


# closed form for the counterexample family, evaluated independently:
# ln 2 + (1+e)/2 ln((1+e)/2) + (1-e)/2 ln((1-e)/2), with 0 ln 0 = 0
def _srel_closed_form(eps, c=1.0):
    total = np.log(2.0)
    for p in ((1 + eps) / 2, (1 - eps) / 2):
        if p > 0:
            total += p * np.log(p)
    return c * total


class TestRewrite:
    def test_diagonal_state_in_standard_basis(self):
        rho = validate_density(np.diag([0.7, 0.3]))
        s = rewrite_in_basis(rho, STANDARD2)
        assert_allclose(s.rep, rho.matrix)

    def test_eigenbasis_diagonalizes(self):
        rng = np.random.default_rng(2)
        rho = random_density_matrix(5, rng)
        w, eigenbasis = rho.eigensystem()
        s = rewrite_in_basis(rho, eigenbasis)
        assert_allclose(np.diag(np.diag(s.rep)), s.rep, atol=1e-12)
        assert_allclose(np.sort(np.diag(s.rep).real), w, atol=1e-12)

    def test_trace_and_hermiticity_preserved(self):
        for seed in range(100):
            n = 2 + seed % 7
            rho = random_density_matrix(n, np.random.default_rng(seed))
            s = rewrite_in_basis(rho, random_basis(n, seed))
            assert abs(np.trace(s.rep) - 1.0) < 1e-12
            assert np.abs(s.rep - s.rep.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(s.rep).min() > -1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            rewrite_in_basis(DensityMatrix.maximally_mixed(2), OrthonormalBasis.standard(3))

    @pytest.mark.parametrize("m, error", [
        (np.full((2, 2), np.nan), NotFiniteError),
        (np.diag([2.0, -1.0]), NotPSDError),
        (np.ones((2, 3)) / 2, DimensionMismatchError),
    ], ids=["nan", "not-psd", "not-square"])
    def test_raw_array_is_validated(self, m, error):
        # a raw array was wrapped unchecked: eta1 of the NaN state was nan
        with pytest.raises(error):
            rewrite_in_basis(m, OrthonormalBasis.standard(2))
        with pytest.raises(error):
            check_axiom1(m, [ETA1], [OrthonormalBasis.standard(2)])

    @pytest.mark.parametrize("evaluate", [
        eta1, eta2, eta_inf, delta, lambda s: s_rel(s, 1.0), lambda s: check_axiom2(s, MEASURES),
    ], ids=["eta1", "eta2", "eta_inf", "delta", "s_rel", "check_axiom2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_basis_is_rejected(self, evaluate, bad):
        # the trusting constructor let a NaN basis through: eta1, eta2,
        # eta_inf and check_axiom2 gave NaN, while delta raised
        basis = OrthonormalBasis(np.full((2, 2), bad))
        with pytest.raises(NotFiniteError, match="basis has 4 NaN or infinite entries"):
            evaluate(rewrite_in_basis(DensityMatrix.maximally_mixed(2), basis))


class TestParts:
    def test_plus_state_in_z_basis(self):
        rho = DensityMatrix.pure(np.array([1.0, 1.0]) / np.sqrt(2))
        s = rewrite_in_basis(rho, STANDARD2)
        assert_allclose(diagonal_part(s).matrix, np.eye(2) / 2, atol=1e-14)
        assert_allclose(off_diagonal_part(s), np.array([[0, 0.5], [0.5, 0]]), atol=1e-14)

    def test_maximally_mixed_has_no_offdiagonal(self):
        s = rewrite_in_basis(DensityMatrix.maximally_mixed(4), random_basis(4, 8))
        assert np.abs(off_diagonal_part(s)).max() < 1e-14

    def test_parts_recompose_exactly(self):
        for seed in range(30):
            n = 2 + seed % 6
            s = rewrite_in_basis(
                random_density_matrix(n, np.random.default_rng(seed)), random_basis(n, seed)
            )
            d = diagonal_part(s)
            q = off_diagonal_part(s)
            assert (d.matrix + q == s.rep).all()
            assert abs(np.trace(d.matrix) - 1.0) < 1e-12
            assert np.abs(np.diag(q)).max() == 0.0

    def test_parts_are_read_only(self):
        # off_diagonal_part hands out the cached Q that the measures,
        # tpf_deviation and adversarial_subspaces read
        s = _eps_state()
        before = eta1(s)
        for part in (s.rep, off_diagonal_part(s)):
            with pytest.raises(ValueError, match="read-only"):
                part[0, 1] = 1.0
        assert eta1(s) == before == EPS


class TestMeasureValues:
    def test_zero_in_eigenbasis(self):
        rho = random_density_matrix(4, np.random.default_rng(10))
        s = rewrite_in_basis(rho, rho.eigensystem()[1])
        assert eta1(s) < 1e-12
        assert eta2(s) < 1e-12
        assert eta_inf(s) < 1e-12
        assert delta(s) < 1e-12
        assert s_rel(s, 1.0) < 1e-12

    def test_counterexample_family_values(self):
        s = _eps_state()
        assert abs(eta1(s) - EPS) < 1e-14
        assert abs(eta2(s) - EPS / np.sqrt(2)) < 1e-14
        assert abs(eta_inf(s) - EPS) < 1e-14

    def test_uniform_superposition_eta1(self):
        for n in [3, 5, 8]:
            rho = DensityMatrix.pure(np.ones(n) / np.sqrt(n))
            s = rewrite_in_basis(rho, OrthonormalBasis.standard(n))
            assert abs(eta1(s) - (n - 1)) < 1e-12

    def test_pure_state_in_unbiased_basis_eta2(self):
        for n in [2, 4, 8]:
            rho = DensityMatrix.pure(np.eye(n)[:, 0])
            s = rewrite_in_basis(rho, fourier_basis(n))
            assert abs(eta2(s) - np.sqrt(1.0 - 1.0 / n)) < 1e-12

    def test_plus_state_eta_inf(self):
        rho = DensityMatrix.pure(np.array([1.0, 1.0]) / np.sqrt(2))
        s = rewrite_in_basis(rho, STANDARD2)
        assert abs(eta_inf(s) - 1.0) < 1e-14

    def test_delta_for_unbiased_qubit_pair(self):
        rho = validate_density(np.diag([0.7, 0.3]))
        x_basis = OrthonormalBasis.from_columns(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        s = rewrite_in_basis(rho, x_basis)
        assert abs(delta(s) - 1.0) < 1e-12

    def test_srel_closed_form_value(self):
        s = _eps_state()
        assert abs(s_rel(s, 1.0) - 0.005008366846356804) < 1e-12
        assert abs(s_rel(s, 1.0) - _srel_closed_form(EPS)) < 1e-12

    def test_srel_plus_state(self):
        rho = DensityMatrix.pure(np.array([1.0, 1.0]) / np.sqrt(2))
        s = rewrite_in_basis(rho, STANDARD2)
        assert abs(s_rel(s, 1.0) - np.log(2.0)) < 1e-12

    def test_eta2_purity_identity(self):
        for seed in range(50):
            n = 2 + seed % 8
            rho = random_density_matrix(n, np.random.default_rng(seed))
            s = rewrite_in_basis(rho, random_basis(n, seed))
            diag_sq = float((np.abs(np.diag(s.rep)) ** 2).sum())
            assert abs(eta2(s) ** 2 + diag_sq - purity(rho)) < 1e-12

    def test_srel_nonnegative(self):
        for seed in range(50):
            n = 2 + seed % 6
            rho = random_density_matrix(n, np.random.default_rng(seed))
            s = rewrite_in_basis(rho, random_basis(n, seed))
            assert s_rel(s, 0.5) >= 0.0


class TestOrderingProperties:
    def test_sandwich_inequalities(self):
        for seed in range(100):
            n = 2 + seed % 9
            rho = random_density_matrix(n, np.random.default_rng(seed))
            s = rewrite_in_basis(rho, random_basis(n, seed))
            qnorm = np.linalg.norm(off_diagonal_part(s), 2)
            e1, e2, einf, d = eta1(s), eta2(s), eta_inf(s), delta(s)
            assert qnorm <= e2 + 1e-12
            assert qnorm <= einf + 1e-12
            assert e2 <= d + 1e-12
            assert e1 <= n * e2 + 1e-12
            assert einf <= n * e2 + 1e-12

    def test_invariance_under_basis_relabelling(self):
        rng = np.random.default_rng(23)
        rho = random_density_matrix(5, rng)
        b = random_basis(5, rng)
        shuffled = b.permuted(rng.permutation(5), np.exp(2j * np.pi * rng.random(5)))
        s1, s2 = rewrite_in_basis(rho, b), rewrite_in_basis(rho, shuffled)
        for m in (ETA1, ETA2, ETA_INF, DELTA, "s_rel"):
            assert abs(evaluate_measure(s1, m) - evaluate_measure(s2, m)) < 1e-10


class TestTpfDeviation:
    def test_counterexample_subspace(self):
        assert abs(tpf_deviation(_eps_state(), _plus_projector_subspace()) - EPS / 2) < 1e-14

    def test_whole_space_gives_zero(self):
        s = _eps_state()
        f = Subspace.from_vectors(np.eye(2))
        assert tpf_deviation(s, f) < 1e-14

    def test_basis_aligned_subspace_gives_zero(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(4, rng)
        b = random_basis(4, rng)
        s = rewrite_in_basis(rho, b)
        f = Subspace.from_vectors(b.vectors[:, :2])
        assert tpf_deviation(s, f) < 1e-12

    def test_agrees_with_trace_difference(self):
        rng = np.random.default_rng(19)
        for seed in range(50):
            n = 2 + seed % 6
            rho = random_density_matrix(n, rng)
            b = random_basis(n, rng)
            s = rewrite_in_basis(rho, b)
            k = int(rng.integers(1, n + 1))
            f = Subspace.from_vectors(random_basis(n, rng).vectors[:, :k])
            p = f.projector()
            u = b.vectors
            d_op = u @ diagonal_part(s).matrix @ u.conj().T
            direct = abs(np.trace(rho.matrix @ p) - np.trace(d_op @ p))
            assert abs(tpf_deviation(s, f) - direct) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            tpf_deviation(_eps_state(), Subspace.from_vectors(np.eye(3)[:, :1]))


class TestAxiomHarness:
    def test_axiom2_eta2_random_states(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            n = 2 + 2 * seed
            rho = random_density_matrix(n, rng)
            s = rewrite_in_basis(rho, random_basis(n, rng))
            assert check_axiom2(s, (ETA2,))[ETA2].satisfied

    def test_axiom2_catches_srel_counterexample(self):
        # the adversarial line here is exactly the plus-state projector
        report = check_axiom2(_eps_state(), ("s_rel",))["s_rel"]
        assert abs(report.lhs - EPS / 2) < 1e-14
        assert not report.satisfied

    def test_axiom2_maximally_mixed_all_zero(self):
        s = rewrite_in_basis(DensityMatrix.maximally_mixed(4), random_basis(4, 2))
        report = check_axiom2(s, (ETA_INF,))[ETA_INF]
        assert report.lhs < 1e-12
        assert report.satisfied

    def test_axiom1_at_t_zero(self):
        rho = random_density_matrix(3, np.random.default_rng(4))
        path = approach_path(rho.eigensystem()[1], [0.0], 11)
        ds, values = check_axiom1(rho, (ETA2,), path)
        vals = values[ETA2]
        assert ds[0] < 1e-12 and vals[0] < 1e-12

    def test_axiom1_empty_and_one_point_paths(self):
        measures = (ETA1, ETA2, ETA_INF, DELTA, "s_rel")
        rho = random_density_matrix(3, np.random.default_rng(5))
        ds, values = check_axiom1(rho, measures, [])
        assert ds.shape == (0,) and all(values[m].shape == (0,) for m in measures)
        b = random_basis(3, 6)
        ds, values = check_axiom1(rho, measures, [b])
        assert ds.tolist() == [basis_distance(rho.eigensystem()[1], b)]
        for m in measures:
            assert values[m].tolist() == [evaluate_measure(rewrite_in_basis(rho, b), m)]
        with pytest.raises(DimensionMismatchError):
            check_axiom1(rho, measures, [b, random_basis(2, 7)])

    def test_axiom1_rejects_a_nan_path_basis(self):
        # the NaN overlap table passed the doubly-stochastic check, so ds and
        # every value came out NaN
        rho = random_density_matrix(2, np.random.default_rng(5))
        path = approach_path(OrthonormalBasis.standard(2), [np.nan, 1e-3], 0)
        with pytest.raises(NotOrthonormalError, match="doubly stochastic"):
            check_axiom1(rho, (ETA2, DELTA), path)

    def test_axiom1_eta2_below_distance(self):
        rng = np.random.default_rng(6)
        ts = np.geomspace(0.2, 1e-8, 8)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            rho = random_density_matrix(n, rng)
            path = approach_path(rho.eigensystem()[1], ts, rng)
            ds, values = check_axiom1(rho, (ETA2,), path)
            vals = values[ETA2]
            assert (vals <= ds + 1e-12).all()
            assert vals[-1] < 1e-7
            assert (np.diff(vals) < 0).all()

    def test_harnesses_equal_scalar_definitions_bit_for_bit(self):
        rng = np.random.default_rng(21)
        measures = (ETA1, ETA2, ETA_INF, DELTA, "s_rel")
        ts = np.geomspace(0.1, 1e-7, 5)
        for n in (1, 2, 3, 5, 8):
            rho = random_density_matrix(n, rng)
            s = rewrite_in_basis(rho, random_basis(n, rng))
            reports = check_axiom2(s, measures)
            line = adversarial_subspaces(s)
            for m in measures:
                assert reports[m].rhs == evaluate_measure(s, m)
                # The deviation is an eigenvalue, not a frame contraction.
                assert abs(reports[m].lhs - tpf_deviation(s, line)) <= 1e-12
                assert abs(reports[m].lhs - np.linalg.norm(off_diagonal_part(s), 2)) <= 1e-12
            path = approach_path(rho.eigensystem()[1], ts, rng)
            ds, values = check_axiom1(rho, measures, path)
            eigenbasis = rho.eigensystem()[1]
            assert ds.tolist() == [basis_distance(eigenbasis, b) for b in path]
            for m in measures:
                want = [evaluate_measure(rewrite_in_basis(rho, b), m) for b in path]
                assert values[m].tolist() == want

    def test_axiom1_diagonalises_rho_once(self, monkeypatch):
        # delta at every path point reuses the state's cached eigensystem
        calls = []
        real = qcoherence.linalg.hermitian_eigendecomposition

        def counting(a, *args, **kwargs):
            calls.append(a)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(qcoherence.linalg, "hermitian_eigendecomposition", counting)
        rho = random_density_matrix(4, np.random.default_rng(2))
        path = approach_path(OrthonormalBasis.standard(4), np.geomspace(0.1, 1e-9, 9), 3)
        check_axiom1(rho, (ETA1, ETA2, ETA_INF, DELTA), path)
        assert len(calls) == 1

    def test_axiom2_accepts_dimension_one(self):
        s = rewrite_in_basis(DensityMatrix.maximally_mixed(1), OrthonormalBasis.standard(1))
        reports = check_axiom2(s, (ETA1, ETA2, ETA_INF, DELTA))
        assert list(reports) == [ETA1, ETA2, ETA_INF, DELTA]
        assert all(r.lhs == 0.0 and r.satisfied for r in reports.values())

    def test_axiom1_eta1_below_n_eta2(self):
        rng = np.random.default_rng(8)
        ts = np.geomspace(0.2, 1e-6, 6)
        n = 5
        rho = random_density_matrix(n, rng)
        path = approach_path(rho.eigensystem()[1], ts, rng)
        _, values = check_axiom1(rho, (ETA1, ETA2), path)
        assert (values[ETA1] <= n * values[ETA2] + 1e-12).all()


def _state_of_kind(kind, n, rng):
    if kind == "wishart":
        return random_density_matrix(n, rng)
    if kind == "pure":  # n - 1 zero eigenvalues
        return random_density_matrix(n, rng, rank=1)
    if kind == "degenerate":  # eigenvalues repeated in pairs
        p = np.repeat(rng.random((n + 1) // 2) + 0.1, 2)[:n]
        v = random_basis(n, rng).vectors
        return DensityMatrix((v * (p / p.sum())) @ v.conj().T)
    return DensityMatrix.maximally_mixed(n)


def _random_subspace(n, rng, k):
    """The span of the first k columns of a Haar unitary."""
    return Subspace(sample_haar_unitary(n, rng)[:, :k])


def _ky_fan_sums(s):
    """D_k for k = 1..n: the largest |tr(Q P_F)| over dim(F) = k, the larger
    in magnitude of the sums of the k largest and the k smallest eigenvalues
    of Q (Ky Fan, PNAS 35, 1949)."""
    w = np.linalg.eigvalsh(off_diagonal_part(s))
    return np.maximum(np.cumsum(w[::-1]), -np.cumsum(w))


def _checked_batch(states, bases) -> StateBatch:
    """The StateBatch of states[t] in bases[t], eigensystems from checked_eigh."""
    rho, basis = np.stack([r.matrix for r in states]), np.stack([b.vectors for b in bases])
    rep = np.stack([rewrite_in_basis(r, b).rep for r, b in zip(states, bases)])
    w, v = checked_eigh(rho)
    return StateBatch(rep, (w, overlap_tables(v, basis)))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    kinds=st.lists(st.sampled_from(["wishart", "pure", "degenerate", "mixed"]), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, kinds=["mixed", "wishart"], seed=0)
@example(n=4, kinds=["degenerate", "pure", "mixed", "wishart"], seed=1)
def test_batched_kernel_equals_scalar_harness(n, kinds, seed):
    rng = np.random.default_rng(seed)
    states = [_state_of_kind(kind, n, rng) for kind in kinds]
    bases = [random_basis(n, rng) for _ in kinds]
    batch = _checked_batch(states, bases)
    worst = worst_deviations(batch)
    assert worst.shape == (len(kinds),)
    for m in (ETA1, ETA2, ETA_INF, DELTA, "s_rel"):
        values = MEASURES[m](batch)
        for t, (rho, b) in enumerate(zip(states, bases)):
            s = rewrite_in_basis(rho, b)
            assert abs(values[t] - evaluate_measure(s, m)) <= 1e-12
            report = check_axiom2(s, (m,))[m]
            assert abs(report.lhs - worst[t]) <= 1e-12
            assert abs(report.slack - (values[t] - worst[t])) <= 1e-12


def test_kernels_take_any_leading_shape():
    # a StateInBasis is the batch with no leading axis, and a (2, 2) grid
    # of states gives the values of the flat stack
    rng = np.random.default_rng(5)
    states = [_state_of_kind(k, 4, rng) for k in ("wishart", "pure", "degenerate", "mixed")]
    bases = [random_basis(4, rng) for _ in states]
    flat = _checked_batch(states, bases)
    grid = StateBatch(flat.rep.reshape(2, 2, 4, 4),
                      tuple(a.reshape(2, 2, *a.shape[1:]) for a in flat.eigen))
    for kernel in (*MEASURES.values(), worst_deviations):
        want = kernel(flat)
        assert np.abs(kernel(grid) - want.reshape(2, 2)).max() <= 1e-14
        for t, (rho, b) in enumerate(zip(states, bases)):
            got = kernel(rewrite_in_basis(rho, b))
            assert got.shape == () and abs(got - want[t]) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 8),
    kind=st.sampled_from(["wishart", "pure", "degenerate", "mixed"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, kind="mixed", seed=0)
@example(n=8, kind="degenerate", seed=1)
@example(n=3, kind="pure", seed=2)
def test_spectral_adversarial_deviations_equal_frame_contractions(n, kind, seed):
    # the adversarial line attains the worst deviation through the frame
    rng = np.random.default_rng(seed)
    s = rewrite_in_basis(_state_of_kind(kind, n, rng), random_basis(n, rng))
    worst = worst_deviations(s)
    line = adversarial_subspaces(s)
    assert (line.ambient_dim, line.dim) == (n, 1)
    assert abs(tpf_deviation(s, line) - worst) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    kind=st.sampled_from(["wishart", "pure", "degenerate", "mixed"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, kind="wishart", seed=0)
@example(n=8, kind="degenerate", seed=1)
@example(n=3, kind="pure", seed=2)
def test_no_subspace_deviates_beyond_the_ky_fan_sum(n, kind, seed):
    # D_k <= k * D_1, so the k = 1 check decides every dimension; D_k bounds
    # random subspaces of dimension k, and D_1 small rotations of the line
    rng = np.random.default_rng(seed)
    s = rewrite_in_basis(_state_of_kind(kind, n, rng), random_basis(n, rng))
    worst = worst_deviations(s)
    ky_fan = _ky_fan_sums(s)
    dims = np.arange(1, n + 1)
    assert ky_fan[0] == worst
    assert (ky_fan <= dims * worst + 1e-12).all()
    for m in (ETA1, ETA2, ETA_INF, DELTA):
        value = evaluate_measure(s, m)
        assert abs((dims * value - ky_fan).min() - (value - worst)) <= 1e-12
    for k in dims:
        for _ in range(20):
            dev = tpf_deviation(s, _random_subspace(n, rng, k))
            assert dev <= ky_fan[k - 1] + 1e-12 and dev <= k * worst + 1e-12
    line = adversarial_subspaces(s)
    for u in approach_path(OrthonormalBasis.standard(n), [1e-2, 1e-5], rng):
        assert tpf_deviation(s, Subspace(u.vectors @ line.frame)) <= worst + 1e-12


def _entropy_reference(m):
    """The per-state entropy: eigvalsh, clamp to [0, 1], drop zeros."""
    w = np.clip(np.linalg.eigvalsh(m), 0.0, 1.0)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum())


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    kinds=st.lists(st.sampled_from(["wishart", "pure", "degenerate", "mixed"]), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, kinds=["mixed"], seed=0)
@example(n=5, kinds=["pure", "mixed", "degenerate"], seed=3)
@example(n=6, kinds=["wishart", "pure"], seed=572538652)  # erred 1.1e-13 scaled by c = 7
def test_batched_srel_equals_per_state_formula(n, kinds, seed):
    # the c = 1 value; test_srel_constant_is_a_scale checks the scaling by c
    rng = np.random.default_rng(seed)
    states = [_state_of_kind(kind, n, rng) for kind in kinds]
    bases = [random_basis(n, rng) for _ in kinds]
    batch = _checked_batch(states, bases)
    got = MEASURES["s_rel"](batch)
    for t, rho in enumerate(states):
        dephased = np.diag(np.diag(batch.rep[t]))
        want = max(_entropy_reference(dephased) - _entropy_reference(rho.matrix), 0.0)
        assert abs(got[t] - want) <= 1e-13


@pytest.mark.parametrize("n", [2, 5, 16])
def test_srel_of_a_drawn_chunk_equals_the_per_state_formula(n):
    # the batch reads the drawn spectrum, so every measure works on it
    # (s_rel raised LinAlgError when the batch held no density matrices)
    lam, w, batch = _draw_chunk(n, range(0, 12), SeededGenerator(6), 1)
    got = MEASURES["s_rel"](batch)
    for t in range(12):
        dephased = np.diag(np.diag(w[t].conj().T @ np.diag(lam[t]) @ w[t]))
        want = max(_entropy_reference(dephased) - _entropy_reference(np.diag(lam[t])), 0.0)
        assert abs(got[t] - want) <= 1e-13


class TestSrelCounterexample:
    def test_c_one(self):
        found = srel_counterexample(1.0)
        assert found.margin > 1e-12
        assert abs(found.deviation - found.epsilon / 2) < 1e-14
        assert abs(found.bound - _srel_closed_form(found.epsilon)) < 1e-12
        # eps = 1 itself must not qualify for c = 1: ln 2 > 1/2
        assert _srel_closed_form(1.0) > 0.5
        assert found.epsilon < 1.0

    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0, 100.0, 1000.0])
    def test_found_for_wide_c_range(self, c):
        found = srel_counterexample(c)
        assert found.margin > 1e-12
        assert found.deviation > _srel_closed_form(found.epsilon, c)

    def test_scan_bound_reported_when_unreachable(self):
        with pytest.raises(CounterexampleNotFoundError, match="1e"):
            srel_counterexample(1e18)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            srel_counterexample(0.0)

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_rejects_non_finite_c(self, c):
        with pytest.raises(ValueError, match="finite"):
            srel_counterexample(c)


class TestMeasureId:
    """A measure is its name in MEASURES; s_rel's constant c is a scale."""

    def test_srel_requires_constant(self):
        s = _eps_state()
        for c in (None, 0.0, -1.0):
            with pytest.raises(ValueError):
                s_rel(s, c)

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_srel_rejects_non_finite_constant(self, c):
        s = rewrite_in_basis(DensityMatrix.maximally_mixed(2), OrthonormalBasis.standard(2))
        with pytest.raises(ValueError, match="finite"):
            s_rel(s, c)

    def test_srel_constant_is_a_scale(self):
        s = _eps_state()
        one = s_rel(s, 1.0)
        assert one == evaluate_measure(s, "s_rel") > 0.0
        for c in (1e-3, 0.1, 0.5, 2.0, 3.7, 1e6):
            assert s_rel(s, c) == c * one

    def test_unknown_name(self):
        s = _eps_state()
        with pytest.raises(KeyError):
            evaluate_measure(s, "eta3")
        with pytest.raises(KeyError):
            check_axiom2(s, ("eta3",))

    def test_registry_drives_names_and_codes(self):
        assert list(MEASURES) == ["eta1", "eta2", "eta_inf", "delta", "s_rel"]
        assert [ETA1, ETA2, ETA_INF, DELTA] == list(MEASURES)[:4]
        assert MEASURE_CODES == dict(zip(MEASURES, (1.0, 2.0, 3.0, 4.0, 5.0)))
        s = _eps_state()
        assert evaluate_measure(s, ETA1) == eta1(s)
        assert 2.0 * evaluate_measure(s, "s_rel") == s_rel(s, 2.0)

    def test_labels(self):
        # reports and the CLI default name the four proven measures by name
        assert THEOREM42_MEASURES == (ETA1, ETA2, ETA_INF, DELTA)
        assert DEFAULT_MEASURES == "eta1,eta2,eta_inf,delta"
        report = run_theorem42_suite(n_list=(2,), trials=1, seed=0)
        assert report.parameters["measures"] == ["eta1", "eta2", "eta_inf", "delta"]


def test_basis_distance_equals_delta_of_pure_probe():
    # delta is literally the distance from the solver eigenbasis
    rng = np.random.default_rng(33)
    rho = random_density_matrix(4, rng)
    b = random_basis(4, rng)
    s = rewrite_in_basis(rho, b)
    assert abs(delta(s) - basis_distance(rho.eigensystem()[1], b)) < 1e-14
