import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

import qcoherence.haar as haar_mod
from qcoherence import (
    DensityMatrix,
    DimensionMismatchError,
    MonteCarloEstimate,
    NotFiniteError,
    NotHermitianError,
    NotPSDError,
    SeededGenerator,
    TraceNotOneError,
    estimate_diag_square_sum,
    estimate_expected_eta2_sq,
    exact_expected_diag_square_sum,
    exact_expected_eta2_sq,
    hermitian_eigendecomposition,
    monomial_moment,
    overlap_moment_check,
    random_basis,
    sample_haar_unitaries,
    sample_haar_unitary,
    validate_density,
)
from qcoherence.experiments import random_density_matrix
from qcoherence.linalg import orthonormality_defect


class TestSampling:
    def test_unitarity(self):
        us = sample_haar_unitaries(8, 100, 1)
        for u in us:
            assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-12

    def test_seed_reproducibility(self):
        a = sample_haar_unitaries(5, 10, SeededGenerator(99))
        b = sample_haar_unitaries(5, 10, SeededGenerator(99))
        assert (a == b).all()

    def test_substreams_differ_from_root_and_each_other(self):
        g = SeededGenerator(7)
        u0 = sample_haar_unitary(4, g.substream(0))
        u1 = sample_haar_unitary(4, g.substream(1))
        ur = sample_haar_unitary(4, g)
        assert np.abs(u0 - u1).max() > 1e-3
        assert np.abs(u0 - ur).max() > 1e-3

    def test_substream_keys(self):
        # substream(i) is spawn key (i,); a key tuple is a spawn key as is
        g = SeededGenerator(7)
        draw = lambda key: g.substream(key).standard_normal(4)
        assert (draw(3) == draw((3,))).all()
        want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7, spawn_key=(3, 1))))
        assert (draw((3, 1)) == want.standard_normal(4)).all()
        assert np.abs(draw((3, 1)) - draw((3, 0))).max() > 1e-3
        assert np.abs(draw((3, 0)) - draw(3)).max() > 1e-3

    def test_chunking_matches_single_batch(self, monkeypatch):
        import qcoherence.haar as haar_mod

        full = sample_haar_unitaries(3, 50, SeededGenerator(5))
        monkeypatch.setattr(haar_mod, "_CHUNK_ENTRIES", 9 * 7)
        chunked = sample_haar_unitaries(3, 50, SeededGenerator(5))
        # chunk boundaries change how the stream is consumed, but every
        # sample must still be a valid unitary and the set deterministic
        assert chunked.shape == full.shape
        for u in chunked:
            assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-12
        again = sample_haar_unitaries(3, 50, SeededGenerator(5))
        assert (chunked == again).all()

    @pytest.mark.parametrize("entries", [9 * 7, 2_000_000], ids=["chunked", "one-chunk"])
    def test_stream_layout_across_chunks(self, monkeypatch, entries):
        # per chunk: all real parts, then all imaginary parts, then QR with
        # the phase fix; every sampler consumes the stream this way, and
        # the estimator's closed form for r <= 2 reads the same normals
        monkeypatch.setattr(haar_mod, "_CHUNK_ENTRIES", entries)

        def reference(seed, n, cols, count):
            rng, step = SeededGenerator(seed).generator(), max(1, entries // (n * cols))
            out = []
            for start in range(0, count, step):
                shape = (min(step, count - start), n, cols)
                z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
                q, r = np.linalg.qr(z)
                d = np.einsum("...ii->...i", r)
                out.append(q * (d.conj() / np.abs(d))[..., None, :])
            return np.concatenate(out)

        assert (sample_haar_unitaries(3, 50, SeededGenerator(5)) == reference(5, 3, 3, 50)).all()
        # r levels above the lowest: each sample draws the n x r isometry of
        # the top levels; for r <= 2 its moduli come from Gram-Schmidt on the
        # same normals, equal to the QR's up to rounding
        for r, top, ns in ((1, [0.75], (2, 3, 8, 32, 64)), (2, [0.3, 0.5], (3, 8, 32, 64))):
            for n in ns:
                lam0 = (1.0 - sum(top)) / (n - r)
                rho = DensityMatrix(np.diag([lam0] * (n - r) + top).astype(complex))
                w = reference(6, n, r, 40)
                want = ((lam0 + np.abs(w) ** 2 @ (np.array(top) - lam0)) ** 2).sum(axis=-1)
                got = haar_mod._diag_square_sum_samples(rho, 40, SeededGenerator(6))
                assert np.abs(got - want).max() <= 1e-14 * want.min(), (r, n)
        u = reference(7, 3, 3, 40)
        xs = np.abs(u[:, 0, 1]) ** 2 * np.abs(u[:, 0, 2]) ** 2
        check = overlap_moment_check(3, 0, 1, 2, 40, SeededGenerator(7))
        assert check.estimate == MonteCarloEstimate.from_samples(xs)

    def test_zero_count_is_an_empty_stack(self, monkeypatch):
        for entries in (9 * 7, 2_000_000):
            monkeypatch.setattr(haar_mod, "_CHUNK_ENTRIES", entries)
            us = sample_haar_unitaries(3, 0, SeededGenerator(5))
            assert us.shape == (0, 3, 3) and us.dtype == np.complex128

    def test_random_basis_is_orthonormal(self):
        b = random_basis(6, 3)
        assert orthonormality_defect(b.vectors) < 1e-12

    def test_first_column_moment(self):
        # E|u_11|^2 = 1/n with a = (1, 0, ..., 0)
        n = 4
        us = sample_haar_unitaries(n, 100_000, 11)
        xs = np.abs(us[:, 0, 0]) ** 2
        est = MonteCarloEstimate.from_samples(xs)
        assert abs(est.z_score(1.0 / n)) <= 3.0

    def test_trace_distribution_invariant_under_left_rotation(self):
        # Haar: tr(VU) must be distributed like tr(U); fails without the
        # QR phase correction
        n = 4
        v = sample_haar_unitary(n, 2024)
        u1 = sample_haar_unitaries(n, 10_000, 1)
        u2 = sample_haar_unitaries(n, 10_000, 2)
        t1 = np.einsum("sii->s", u1)
        t2 = np.einsum("ij,sji->s", v, u2)
        assert ks_2samp(t1.real, t2.real).pvalue > 0.05
        assert ks_2samp(t1.imag, t2.imag).pvalue > 0.05


def test_import_loads_no_scipy():
    # scipy is a test dependency only; the package must import without it
    env = {**os.environ, "PYTHONPATH": str(Path(haar_mod.__file__).parents[1])}
    code = "import sys, qcoherence; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestMonomialMoment:
    @pytest.mark.parametrize("n", [2, 3, 8, 50])
    def test_single_power(self, n):
        a = np.zeros(n, dtype=int)
        a[0] = 1
        assert abs(monomial_moment(a, n) - 1.0 / n) < 1e-15

    def test_second_moments(self):
        n = 4
        assert abs(monomial_moment([2, 0, 0, 0], n) - 2.0 / (n * (n + 1))) < 1e-15
        assert abs(monomial_moment([1, 1, 0, 0], n) - 1.0 / (n * (n + 1))) < 1e-15

    def test_total_mass(self):
        assert monomial_moment([0, 0, 0], 3) == 1.0

    def test_no_overflow_at_large_dimension(self):
        a = np.zeros(300, dtype=int)
        a[:4] = [3, 2, 1, 1]
        value = monomial_moment(a, 300)
        assert 0.0 < value < 1.0 and np.isfinite(value)

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            monomial_moment([-1, 1], 2)
        # n = 0 raised lgamma's untyped "math domain error"
        with pytest.raises(DimensionMismatchError, match="dimension must be >= 1, got 0"):
            monomial_moment([], 0)

    @pytest.mark.parametrize("a", [(4, 0, 0, 0), (2, 1, 1, 0), (1, 1, 1, 1)])
    def test_against_monte_carlo(self, a):
        n = 4
        us = sample_haar_unitaries(n, 100_000, hash(a) % 2**31)
        xs = np.prod(np.abs(us[:, 0, :]) ** (2 * np.asarray(a)), axis=1)
        est = MonteCarloEstimate.from_samples(xs)
        assert abs(est.z_score(monomial_moment(a, n))) <= 4.0


class TestExactFormulas:
    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_pure_state_diag_square_sum(self, n):
        rho = DensityMatrix.pure(np.eye(n)[:, 0])
        assert abs(exact_expected_diag_square_sum(rho) - 2.0 / (n + 1)) < 1e-14

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_maximally_mixed(self, n):
        rho = DensityMatrix.maximally_mixed(n)
        assert abs(exact_expected_diag_square_sum(rho) - 1.0 / n) < 1e-14
        assert abs(exact_expected_eta2_sq(rho)) < 1e-14

    def test_trivial_dimension(self):
        rho = DensityMatrix.maximally_mixed(1)
        assert abs(exact_expected_diag_square_sum(rho) - 1.0) < 1e-14

    def test_pure_state_eta2_sq(self):
        for n in [2, 8, 64]:
            rho = DensityMatrix.pure(np.eye(n)[:, 0])
            assert abs(exact_expected_eta2_sq(rho) - (n - 1.0) / (n + 1.0)) < 1e-14

    def test_qubit_mixture_by_hand(self):
        rho = validate_density(np.diag([0.7, 0.3]))
        assert abs(exact_expected_eta2_sq(rho) - (2 * 0.58 - 1) / 3) < 1e-14

    def test_nonnegative_for_random_states(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            assert exact_expected_eta2_sq(random_density_matrix(n, rng)) >= -1e-14

    @pytest.mark.parametrize("m, error", [
        (np.diag([2.0, -1.0]), NotPSDError),
        (np.array([[0.5, 1.0], [0.0, 0.5]]), NotHermitianError),
        (np.diag([0.5, 0.4]), TraceNotOneError),
        (np.full((2, 2), np.nan), NotFiniteError),
    ], ids=["not-psd", "not-hermitian", "trace", "nan"])
    def test_raw_non_states_are_rejected(self, m, error):
        # only shape and finiteness were checked: E eta2^2 of diag(2, -1)
        # was 3.0, and the estimators averaged a non-Hermitian matrix
        for f in (exact_expected_eta2_sq, exact_expected_diag_square_sum,
                  lambda rho: estimate_diag_square_sum(rho, 100, 0),
                  lambda rho: estimate_expected_eta2_sq(rho, 100, 0)):
            with pytest.raises(error):
                f(m)


class TestMonteCarloEstimate:
    def test_from_samples(self):
        est = MonteCarloEstimate.from_samples([1.0, 2.0, 3.0, 4.0])
        assert est.mean == 2.5
        assert abs(est.std_error - np.std([1, 2, 3, 4], ddof=1) / 2.0) < 1e-15
        assert est.samples == 4

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            MonteCarloEstimate.from_samples([1.0])

    def test_z_score_floor_for_deterministic_samples(self):
        est = MonteCarloEstimate(mean=0.25 + 1e-16, std_error=1e-18, samples=100)
        assert est.z_score(0.25) == 0.0
        assert MonteCarloEstimate(1.0, 0.0, 10).z_score(0.0) == np.inf


class TestEta2Estimates:
    def test_matches_exact_within_4_sigma(self):
        rho = random_density_matrix(16, np.random.default_rng(8))
        est = estimate_expected_eta2_sq(rho, 2000, 5)
        assert abs(est.z_score(exact_expected_eta2_sq(rho))) <= 4.0

    def test_maximally_mixed_samples_vanish(self):
        est = estimate_expected_eta2_sq(DensityMatrix.maximally_mixed(6), 100, 3)
        assert abs(est.mean) < 1e-12
        assert est.std_error < 1e-12

    def test_diag_square_sum_complements_eta2(self):
        rho = random_density_matrix(8, np.random.default_rng(12))
        t = estimate_diag_square_sum(rho, 400, 9)
        e = estimate_expected_eta2_sq(rho, 400, 9)
        # same seed, same bases: the two estimates split tr(rho^2) exactly
        from qcoherence import purity

        assert abs((t.mean + e.mean) - purity(rho)) < 1e-12

    def test_concentration_with_dimension(self):
        # qualitative concentration check at fixed (unit) purity: both the
        # mean deviation and the sample spread of eta2^2 shrink with n
        means, stds = [], []
        for n in [4, 8, 16, 32]:
            rho = DensityMatrix.pure(np.eye(n)[:, 0])
            est = estimate_expected_eta2_sq(rho, 800, n)
            means.append(1.0 - est.mean)  # E|eta2^2 - purity|
            stds.append(est.std_error * np.sqrt(est.samples))
        assert all(a > b for a, b in zip(means, means[1:]))
        assert all(a > b for a, b in zip(stds, stds[1:]))


class TestOverlapMomentCheck:
    def test_equal_indices(self):
        check = overlap_moment_check(4, 0, 1, 1, 50_000, 21)
        assert abs(check.exact - 0.1) < 1e-15
        assert check.agrees

    def test_distinct_indices(self):
        check = overlap_moment_check(4, 0, 0, 1, 50_000, 22)
        assert abs(check.exact - 0.05) < 1e-15
        assert check.agrees

    def test_row_index_irrelevant(self):
        a = overlap_moment_check(4, 0, 1, 2, 20_000, 31)
        b = overlap_moment_check(4, 3, 1, 2, 20_000, 32)
        assert a.exact == b.exact
        assert a.agrees and b.agrees

    def test_index_out_of_range(self):
        with pytest.raises(DimensionMismatchError):
            overlap_moment_check(3, 3, 0, 0, 10, 1)


def _direct_diag_square_sums(rho, us):
    """sum_i diag(U^H rho U)_i^2 for each full unitary in the stack: the
    reference the isometry estimator replaces."""
    diag = np.einsum("sai,sai->si", us.conj(), rho @ us).real
    return (diag**2).sum(axis=1)


def _state(kind, n, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "pure":
        return random_density_matrix(n, rng, rank=1)
    if kind == "rank2":
        return random_density_matrix(n, rng, rank=2)
    return random_density_matrix(n, rng)


class TestIsometryEstimator:
    @pytest.mark.parametrize("rho, r", [
        (_state("pure", 6), 1),
        (_state("rank2", 6), 2),
        (_state("full", 6), 5),
        (_state("full", 5).matrix, 4),  # a plain array is accepted too
        (DensityMatrix(np.diag([0.4, 0.3, 0.3]).astype(complex)), 1),
        (DensityMatrix.maximally_mixed(5), 0),
        (DensityMatrix.maximally_mixed(1), 0),
    ], ids=["pure", "rank2", "full", "array", "two-level", "maximally-mixed", "n1"])
    def test_shifted_spectrum_identity(self, rho, r):
        # for a fixed Haar U the top r rows of V^H U give the direct value
        lam, got_r = haar_mod._excited_levels(rho)
        assert got_r == r
        matrix = rho.matrix if isinstance(rho, DensityMatrix) else rho
        n = lam.size
        v = hermitian_eigendecomposition(matrix)[1].vectors
        us = sample_haar_unitaries(n, 5, 17)
        w = np.swapaxes(us, 1, 2) @ v.conj()
        got = haar_mod._diag_square_sums(lam, np.abs(w[:, :, n - r:]) ** 2)
        assert np.abs(got - _direct_diag_square_sums(matrix, us)).max() < 1e-12

    @pytest.mark.parametrize("rho", [DensityMatrix.maximally_mixed(4),
                                     DensityMatrix.maximally_mixed(1)], ids=["n4", "n1"])
    def test_multiple_of_identity_draws_nothing(self, rho):
        g = np.random.default_rng(3)
        before = g.bit_generator.state
        xs = haar_mod._diag_square_sum_samples(rho, 50, g)
        assert g.bit_generator.state == before
        assert np.abs(xs - 1.0 / rho.dim).max() < 1e-15

    @pytest.mark.parametrize("samples", [-1, 0, 1, 2])
    @pytest.mark.parametrize("rho, r", [
        (DensityMatrix.maximally_mixed(4), 0),
        (_state("pure", 4), 1),
        (_state("rank2", 4), 2),
        (_state("full", 4), 3),
    ], ids=["r0", "r1", "r2", "r3"])
    def test_sample_count_edges_agree_across_paths(self, rho, r, samples):
        # no draw, closed form, QR and the unitary samplers treat a sample
        # count alike
        assert haar_mod._excited_levels(rho)[1] == r
        if samples < 0:
            for sample in (lambda: haar_mod._diag_square_sum_samples(rho, samples, 3),
                           lambda: sample_haar_unitaries(4, samples, 3),
                           lambda: overlap_moment_check(4, 0, 0, 1, samples, 3)):
                with pytest.raises(ValueError, match="samples must be nonnegative, got -1"):
                    sample()
            return
        xs = haar_mod._diag_square_sum_samples(rho, samples, 3)
        assert xs.shape == (samples,) and xs.dtype == np.float64
        assert sample_haar_unitaries(4, samples, 3).shape == (samples, 4, 4)
        if samples < 2:
            for estimate in (lambda: estimate_diag_square_sum(rho, samples, 3),
                             lambda: overlap_moment_check(4, 0, 0, 1, samples, 3)):
                with pytest.raises(ValueError, match=f"need at least 2 samples, got {samples}"):
                    estimate()
        else:
            assert estimate_diag_square_sum(rho, samples, 3).samples == 2

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("kind", ["pure", "rank2", "full"])
    def test_same_law_as_full_unitaries(self, kind, n):
        rho = _state(kind, n, seed=n)
        reduced = haar_mod._diag_square_sum_samples(rho, 4000, 41)
        full = _direct_diag_square_sums(rho.matrix, sample_haar_unitaries(n, 4000, 42))
        assert ks_2samp(reduced, full).pvalue > 0.01
