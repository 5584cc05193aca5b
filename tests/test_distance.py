import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qcoherence import (
    BoundReport,
    DegenerateSpectrumError,
    DimensionMismatchError,
    HermitianObservable,
    NotFiniteError,
    NotOrthonormalError,
    OrthonormalBasis,
    PointsNotDistinctError,
    WeightsNotNormalizedError,
    basis_distance,
    commutator_lower_bound,
    commutator_upper_bound,
    fourier_basis,
    is_mutually_unbiased,
    is_relabelling,
    jensen_gap_bound,
    overlap_matrix,
    quadratic_jensen_gap,
    random_basis,
)
from qcoherence.distance import (
    GAP_SCALE,
    _doubly_stochastic,
    basis_distances,
    commutator_terms,
    reduce_checks,
)
from qcoherence.haar import _hermitian, sample_haar_unitaries
from qcoherence.linalg import checked_eigh

Z_BASIS = OrthonormalBasis.standard(2)
X_BASIS = OrthonormalBasis.from_columns(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2))


def _distance_by_summation(b1, b2):
    # oracle: the defining double sum, written out directly
    o = np.abs(b1.vectors.conj().T @ b2.vectors) ** 2
    total = 0.0
    for i in range(o.shape[0]):
        for j in range(o.shape[1]):
            total += o[i, j] * (1.0 - o[i, j])
    return np.sqrt(max(total, 0.0))


class TestOverlapMatrix:
    def test_same_basis_gives_identity(self):
        o = overlap_matrix(Z_BASIS, Z_BASIS)
        assert_allclose(o, np.eye(2), atol=1e-14)
        assert is_relabelling(o)
        assert not o.flags.writeable

    def test_unbiased_qubit_pair_gives_half(self):
        o = overlap_matrix(Z_BASIS, X_BASIS)
        assert_allclose(o, np.full((2, 2), 0.5), atol=1e-14)
        assert not is_relabelling(o)

    def test_random_pairs_doubly_stochastic(self):
        for seed in range(20):
            n = 2 + seed % 7
            o = overlap_matrix(random_basis(n, 2 * seed), random_basis(n, 2 * seed + 1))
            assert np.abs(o.sum(axis=0) - 1.0).max() < 1e-9
            assert np.abs(o.sum(axis=1) - 1.0).max() < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            overlap_matrix(Z_BASIS, OrthonormalBasis.standard(3))


class TestBasisDistance:
    def test_relabelling_gives_zero(self):
        rng = np.random.default_rng(7)
        b = random_basis(5, rng)
        phases = np.exp(2j * np.pi * rng.random(5))
        relabelled = b.permuted(rng.permutation(5), phases)
        assert basis_distance(b, relabelled) < 1e-12
        assert is_relabelling(overlap_matrix(b, relabelled))

    def test_nan_basis_raises(self):
        # a NaN overlap table passed the doubly-stochastic check (NaN fails
        # every comparison), and the distance came out NaN
        nan = OrthonormalBasis(np.full((2, 2), np.nan))
        with pytest.raises(NotOrthonormalError, match="doubly stochastic"):
            basis_distance(nan, OrthonormalBasis.standard(2))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_fourier_vs_standard_is_maximal(self, n):
        d = basis_distance(OrthonormalBasis.standard(n), fourier_basis(n))
        assert abs(d - np.sqrt(n - 1)) < 1e-9

    def test_rotated_qubit_closed_form(self):
        # closed form |sin 2theta| for a real rotation, against the oracle sum
        for theta in np.linspace(0.05, 1.5, 20):
            c, s = np.cos(theta), np.sin(theta)
            rotated = OrthonormalBasis.from_columns(np.array([[c, -s], [s, c]]))
            d = basis_distance(Z_BASIS, rotated)
            assert abs(d - _distance_by_summation(Z_BASIS, rotated)) < 1e-12
            assert abs(d - abs(np.sin(2 * theta))) < 1e-12

    def test_matches_summation_oracle_on_random_pairs(self):
        for seed in range(20):
            n = 2 + seed % 9
            b1, b2 = random_basis(n, 3 * seed), random_basis(n, 3 * seed + 1)
            assert abs(basis_distance(b1, b2) - _distance_by_summation(b1, b2)) < 1e-12

    def test_symmetry_and_range(self):
        for seed in range(30):
            n = 2 + seed % 9
            b1, b2 = random_basis(n, 5 * seed), random_basis(n, 5 * seed + 2)
            d = basis_distance(b1, b2)
            assert abs(d - basis_distance(b2, b1)) < 1e-12
            assert -1e-12 <= d <= np.sqrt(n - 1) + 1e-12

    def test_invariant_under_relabelling_one_side(self):
        rng = np.random.default_rng(13)
        b1, b2 = random_basis(6, rng), random_basis(6, rng)
        d = basis_distance(b1, b2)
        shuffled = b2.permuted(rng.permutation(6), np.exp(2j * np.pi * rng.random(6)))
        assert abs(basis_distance(b1, shuffled) - d) < 1e-12

    def test_accurate_for_nearby_bases(self):
        # small rotations must not hit a cancellation floor
        for t in [1e-5, 1e-7, 1e-9]:
            c, s = np.cos(t), np.sin(t)
            rotated = OrthonormalBasis.from_columns(np.array([[c, -s], [s, c]]))
            d = basis_distance(Z_BASIS, rotated)
            assert abs(d - abs(np.sin(2 * t))) < 1e-6 * abs(np.sin(2 * t))


def _per_entry_distances(u1, u2):
    # reference: the rewrite of 1 - o_ij one overlap entry at a time
    o = _doubly_stochastic(np.abs(np.swapaxes(u1.conj(), -1, -2) @ u2) ** 2)
    one_minus = 1.0 - o
    for *t, i, j in zip(*np.nonzero(o > 0.5)):
        row = o[(*t, i)]
        one_minus[(*t, i, j)] = float(row[:j].sum() + row[j + 1:].sum())
    return np.sqrt(np.sum(o * one_minus, axis=(-2, -1)))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 9, 16, 17, 32, 64])
def test_stacked_distances_equal_per_entry_rewrite_bit_for_bit(n):
    rng = np.random.default_rng(n)
    u1 = sample_haar_unitaries(n, 7, rng)
    # random pairs, and pairs within exp(i eps H) of a relabelling of u1
    pairs = [(u1, sample_haar_unitaries(n, 7, rng))]
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, v = np.linalg.eigh(g + g.conj().T)
    eps = np.geomspace(1e-1, 1e-9, 7)[:, None]
    flows = (v * np.exp(1j * eps[:, None] * w)) @ v.conj().T
    pairs.append((u1, (u1 @ flows)[..., rng.permutation(n)]))
    pairs.append((u1[:1], pairs[-1][1][-1:]))
    for a, b in pairs:
        assert (basis_distances(a, b) == _per_entry_distances(a, b)).all()
        assert (basis_distances(a[0], b[0]) == _per_entry_distances(a[0], b[0])).all()


class TestMutuallyUnbiased:
    def test_qubit_zx(self):
        assert is_mutually_unbiased(Z_BASIS, X_BASIS)

    def test_same_basis_is_not(self):
        for n in [2, 3, 5]:
            b = OrthonormalBasis.standard(n)
            assert not is_mutually_unbiased(b, b)

    @pytest.mark.parametrize("tol", [np.nan, -1e-9, np.inf])
    def test_rejects_tolerance_that_decides_nothing(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            is_mutually_unbiased(Z_BASIS, X_BASIS, tol)

    def test_dim4_fourier_vs_standard(self):
        f = fourier_basis(4)
        # oracle: every squared overlap with the standard basis is exactly 1/4
        assert np.abs(np.abs(f.vectors) ** 2 - 0.25).max() < 1e-12
        assert is_mutually_unbiased(OrthonormalBasis.standard(4), f)


class TestBoundReport:
    def test_slack_tolerance_borderline(self):
        rhs = 10.0
        inside = BoundReport.check(rhs + 0.5e-9 * rhs, rhs)
        outside = BoundReport.check(rhs + 2e-9 * rhs, rhs)
        assert inside.satisfied and inside.slack < 0
        assert not outside.satisfied

    def test_fields(self):
        r = BoundReport.check(1.0, 3.0)
        assert (r.lhs, r.rhs, r.slack, r.satisfied) == (1.0, 3.0, 2.0, True)


class TestReduceChecks:
    def test_no_checks_fail(self):
        assert reduce_checks(np.empty(0), 1e-9) == (np.inf, 0, False)

    def test_nan_slack_fails(self):
        low, count, ok = reduce_checks([1.0, np.nan, 2.0], 1e-9)
        assert np.isnan(low) and count == 3 and not ok

    def test_slack_of_exactly_minus_tol_passes(self):
        assert reduce_checks([-1e-9, 2.0], 1e-9) == (-1e-9, 2, True)
        assert reduce_checks([-1.1e-9, 2.0], 1e-9)[2] is False


class TestCommutatorUpperBound:
    def test_commuting_diagonals(self):
        a = HermitianObservable.from_matrix(np.diag([1.0, 2.0, 3.0]).astype(complex))
        b = HermitianObservable.from_matrix(np.diag([0.0, 5.0, 1.0]).astype(complex))
        r = commutator_upper_bound(a, b)
        assert r.lhs < 1e-14 and r.satisfied

    def test_qubit_z_vs_x(self):
        a = HermitianObservable.from_matrix(np.diag([0.0, 1.0]).astype(complex))
        b = HermitianObservable.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        # [A, X] = [[0, -1], [1, 0]] has operator norm 1, by hand
        r = commutator_upper_bound(a, b)
        assert abs(r.lhs - 1.0) < 1e-12
        assert abs(r.rhs - np.sqrt(2.0)) < 1e-12
        assert r.satisfied

    def test_random_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 17))
            g1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            g2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            r = commutator_upper_bound((g1 + g1.conj().T) / 2, (g2 + g2.conj().T) / 2)
            assert r.satisfied

    def test_shift_invariance(self):
        rng = np.random.default_rng(17)
        g1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        g2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = (g1 + g1.conj().T) / 2
        b = (g2 + g2.conj().T) / 2
        r = commutator_upper_bound(a, b)
        shifted = commutator_upper_bound(a, b + 0.7 * np.eye(4))
        assert abs(r.lhs - shifted.lhs) < 1e-10
        assert abs(r.rhs - shifted.rhs) < 1e-10


class TestCommutatorLowerBound:
    def test_equal_operators(self):
        a = HermitianObservable.from_matrix(np.diag([0.0, 1.0, 2.5]).astype(complex))
        r = commutator_lower_bound(a, a)
        assert r.lhs < 1e-12 and r.rhs < 1e-12 and r.satisfied

    def test_qubit_z_vs_x_is_tight(self):
        a = np.diag([0.0, 1.0]).astype(complex)
        b = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        # gaps 1 and 2, ||[A,B]|| = 1, so rhs = sqrt(4)/2 = 1 = d(Z, X)
        r = commutator_lower_bound(a, b)
        assert abs(r.lhs - 1.0) < 1e-12
        assert abs(r.rhs - 1.0) < 1e-12
        assert r.satisfied

    def test_degenerate_spectrum_rejected(self):
        a = np.diag([1.0, 1.0, 2.0]).astype(complex)
        b = np.diag([0.0, 1.0, 2.0]).astype(complex)
        with pytest.raises(DegenerateSpectrumError, match="gap"):
            commutator_lower_bound(a, b)

    def test_random_nondegenerate_pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(2, 17))
            g1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            g2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            r = commutator_lower_bound((g1 + g1.conj().T) / 2, (g2 + g2.conj().T) / 2)
            assert r.satisfied


class TestJensenGapBound:
    def test_point_mass_equality(self):
        r = jensen_gap_bound([1.0, 0.0, 0.0], [0.0, 1.0, 2.0], 0.0)
        assert r.lhs == 0.0 and r.satisfied

    def test_two_point_tight_case(self):
        r = jensen_gap_bound([0.5, 0.5], [0.0, 1.0], 0.25)
        assert abs(r.lhs - 0.5) < 1e-14
        assert abs(r.rhs - 0.5) < 1e-14
        assert r.satisfied

    def test_random_instances_with_exact_gap(self):
        rng = np.random.default_rng(53)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            w = rng.random(n)
            w /= w.sum()
            x = np.cumsum(0.1 + rng.random(n))  # distinct by construction
            r = jensen_gap_bound(w, x, quadratic_jensen_gap(w, x))
            assert r.satisfied

    def test_bad_weights(self):
        with pytest.raises(WeightsNotNormalizedError):
            jensen_gap_bound([0.5, 0.6], [0.0, 1.0], 0.1)
        with pytest.raises(WeightsNotNormalizedError):
            jensen_gap_bound([1.5, -0.5], [0.0, 1.0], 0.1)

    def test_coincident_points(self):
        with pytest.raises(PointsNotDistinctError):
            jensen_gap_bound([0.5, 0.25, 0.25], [0.0, 1.0, 1.0], 0.1)

    @pytest.mark.parametrize("weights, points, epsilon", [
        ([0.5, 0.5], [0.0, np.nan], 0.1),
        ([0.5, 0.5], [0.0, 1.0], np.nan),
        ([0.5, 0.5], [0.0, np.inf], 0.1),
        ([np.nan, 0.5], [0.0, 1.0], 0.1),
    ], ids=["nan-point", "nan-epsilon", "inf-point", "nan-weight"])
    def test_non_finite_input(self, weights, points, epsilon):
        with pytest.raises(NotFiniteError):
            jensen_gap_bound(weights, points, epsilon)


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
    offsets=st.lists(st.floats(0.1, 2.0), min_size=2, max_size=6),
)
def test_gap_identity_pairwise_form(weights, offsets):
    # sum(w x^2) - (sum(w x))^2 == sum_{i<j} w_i w_j (x_i - x_j)^2
    n = min(len(weights), len(offsets))
    w = np.asarray(weights[:n])
    if w.sum() < 1e-3:
        w = w + 1.0
    w = w / w.sum()
    x = np.cumsum(np.asarray(offsets[:n]))
    gap = quadratic_jensen_gap(w, x)
    pairwise = sum(
        w[i] * w[j] * (x[i] - x[j]) ** 2 for i in range(n) for j in range(i + 1, n)
    )
    assert abs(gap - pairwise) < 1e-10


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 8))
def test_distance_zero_implies_relabelling(seed, n):
    b = random_basis(n, seed)
    rng = np.random.default_rng(seed)
    relabelled = b.permuted(rng.permutation(n), np.exp(2j * np.pi * rng.random(n)))
    assert basis_distance(b, relabelled) < 1e-12
    assert is_relabelling(overlap_matrix(b, relabelled))


def test_upper_bound_with_degenerate_spectra_still_holds():
    # the upper bound is valid for any eigenbasis choice, degenerate or not
    rng = np.random.default_rng(61)
    for _ in range(20):
        v = random_basis(4, rng).vectors
        a = (v * np.array([1.0, 1.0, 2.0, 3.0])) @ v.conj().T
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        r = commutator_upper_bound(a, (g + g.conj().T) / 2)
        assert r.satisfied


def test_norm_never_below_commutator_over_unbiased_pair():
    # spot check the upper bound at the maximal-distance configuration
    a = np.diag(np.arange(4.0)).astype(complex)
    f = fourier_basis(4).vectors
    b = (f * np.arange(4.0)) @ f.conj().T
    r = commutator_upper_bound(a, b)
    assert r.satisfied
    assert np.linalg.norm(a @ b - b @ a, 2) == pytest.approx(r.lhs)


def _scalar_reference(a, b):
    """(upper lhs, upper rhs, lower (lhs, rhs) or None when degenerate): the
    per-pair Proposition 3.1 bounds written out on one pair of observables."""
    n = a.dim
    norm = float(np.linalg.norm(a.matrix @ b.matrix - b.matrix @ a.matrix, 2))
    spreads, gaps = [], []
    for obs in (a, b):
        w = obs.spectrum
        spread = float(w.max() - w.min())
        gap = float(np.diff(np.sort(w)).min()) if n > 1 else np.inf
        scale = max(spread, float(np.abs(w).max()))
        spreads.append(spread)
        gaps.append(None if gap <= GAP_SCALE * scale or scale == 0.0 else gap)
    d = basis_distance(a.eigenbasis, b.eigenbasis)
    upper = (norm, 0.5 * np.sqrt(n) * (spreads[0] * spreads[1]) * d)
    if n == 1:
        return (*upper, (0.0, 0.0))
    if None in gaps:
        return (*upper, None)
    return (*upper, (d, np.sqrt(2.0 * n) / (gaps[0] * gaps[1]) * norm))


def _observable_stack(rng, trials, n, kinds):
    """(trials, 2, n, n) Hermitian pairs; kinds picks each operand's family."""
    m = _hermitian(rng.standard_normal((trials, 2, 2, n, n)))
    for t, kind in enumerate(kinds[:2 * trials]):
        slot = m[t // 2, t % 2]
        if kind == "repeated" and n > 1:  # one eigenvalue of multiplicity 2
            w = np.sort(rng.standard_normal(n))
            w[1] = w[0]
            v = random_basis(n, rng).vectors
            slot[:] = (v * w) @ v.conj().T
        elif kind == "scalar":
            slot[:] = rng.standard_normal() * np.eye(n)
        elif kind == "zero":
            slot[:] = 0.0
    return m


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 7),
    trials=st.integers(0, 5),
    kinds=st.lists(st.sampled_from(["random", "repeated", "scalar", "zero"]), max_size=10),
)
def test_commutator_kernel_equals_scalar_bounds_bit_for_bit(seed, n, trials, kinds):
    rng = np.random.default_rng(seed)
    m = _observable_stack(rng, trials, n, kinds)
    norm, upper, d, lower, degenerate = commutator_terms(m, *checked_eigh(m))
    assert norm.shape == upper.shape == d.shape == lower.shape == (trials,)
    assert degenerate.shape == (trials, 2)
    for t in range(trials):
        a, b = (HermitianObservable.from_matrix(x) for x in m[t])
        ref_norm, ref_upper, ref_lower = _scalar_reference(a, b)
        assert (norm[t], upper[t]) == (ref_norm, ref_upper)
        r = commutator_upper_bound(a, b)
        assert (r.lhs, r.rhs) == (ref_norm, ref_upper)
        assert bool(degenerate[t].any()) == (ref_lower is None)
        if ref_lower is None:
            with pytest.raises(DegenerateSpectrumError, match="gap"):
                commutator_lower_bound(a, b)
        else:
            assert (d[t], lower[t]) == ref_lower
            r = commutator_lower_bound(a, b)
            assert (r.lhs, r.rhs) == ref_lower


def test_lower_bound_is_an_identity_at_dimension_two():
    # for 2 x 2 pairs both sides equal sin(theta), theta the angle between
    # the Bloch vectors, so the bound must hold with equality, not just hold
    m = _hermitian(np.random.default_rng(2024).standard_normal((2000, 2, 2, 2, 2)))
    _, _, d, lower, degenerate = commutator_terms(m, *checked_eigh(m))
    assert not degenerate.any()
    assert np.abs(d - lower).max() <= 1e-14
