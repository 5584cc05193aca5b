import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

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
        # the phase fix; every unitary sampler consumes the stream this way,
        # while the estimator's closed form for r <= 2 draws its own chunks
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

        def moduli_reference(seed, n, cols, count):
            # the closed form's chunks: column 1 is n standard exponentials
            # over their sum, p; column 2 takes a (real | imag, sample, row)
            # normal block g after them and is the normalized |g - a a^T g|^2
            # of the complex g, a = sqrt(p)
            rng, step = SeededGenerator(seed).generator(), max(1, entries // (n * cols))
            out = []
            for start in range(0, count, step):
                m = min(step, count - start)
                e = rng.standard_exponential((m, n))
                p = e / e.sum(axis=1, keepdims=True)
                if cols == 2:
                    a = np.sqrt(p)
                    re, im = rng.standard_normal((2, m, n))
                    g = re + 1j * im
                    q = np.abs(g - a * (a * g).sum(axis=1, keepdims=True)) ** 2
                    p = np.stack([p, q / q.sum(axis=1, keepdims=True)], axis=-1)
                out.append(p.reshape(m, n, cols))
            return np.concatenate(out)

        assert (sample_haar_unitaries(3, 50, SeededGenerator(5)) == reference(5, 3, 3, 50)).all()
        # r levels above the lowest: each sample draws the moduli of the
        # n x r isometry of the top levels
        for r, top, ns in ((1, [0.75], (2, 3, 8, 32, 64)), (2, [0.3, 0.5], (3, 8, 32, 64))):
            for n in ns:
                lam0 = (1.0 - sum(top)) / (n - r)
                rho = DensityMatrix(np.diag([lam0] * (n - r) + top).astype(complex))
                p = moduli_reference(6, n, r, 40)
                want = ((lam0 + p @ (np.array(top) - lam0)) ** 2).sum(axis=-1)
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

    @pytest.mark.parametrize("entries", [9 * 7, None], ids=["tiny", "default"])
    def test_every_chunk_fits_the_cap(self, monkeypatch, entries):
        # every chunk _haar_samples hands to a draw holds at most
        # _CHUNK_ENTRIES complex entries, or is one sample when one is larger
        if entries:
            monkeypatch.setattr(haar_mod, "_CHUNK_ENTRIES", entries)
        entries = haar_mod._CHUNK_ENTRIES
        real, shapes = haar_mod._haar_samples, []

        def spying(f, draw, n, cols, count, g):
            def counted(rng, shape):
                shapes.append(shape)
                return draw(rng, shape)
            return real(f, counted, n, cols, count, g)

        monkeypatch.setattr(haar_mod, "_haar_samples", spying)
        for sample, count in [
            *((lambda c, kind=kind: estimate_diag_square_sum(_state(kind, 32), c, 1), 2000)
              for kind in ("pure", "rank2", "full")),
            (lambda c: sample_haar_unitaries(200, c, 1), 3),
            (lambda c: sample_haar_unitaries(5, c, 1), 3000),
            (lambda c: overlap_moment_check(4, 0, 1, 2, c, 1), 5000),
        ]:
            shapes.clear()
            sample(count)
            assert sum(m for m, _, _ in shapes) == count
            assert all(m * n * cols <= entries or m == 1 for m, n, cols in shapes), shapes

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


def test_as_generator_rejects_a_bool():
    # True seeded 1
    with pytest.raises(ValueError, match="^seed must be an integer, got True$"):
        haar_mod.as_generator(True)


def test_as_generator_rejects_a_float():
    with pytest.raises(TypeError, match="^cannot interpret float as a random generator$"):
        haar_mod.as_generator(1.5)


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

    @pytest.mark.parametrize("a", [[0.5, 1], [1, 2.25], [np.nan, 1], [np.inf, 0]],
                             ids=["half", "quarter", "nan", "inf"])
    def test_rejects_exponents_that_are_not_integers(self, a):
        # [0.5, 1] returned 0.5, the moment of [0, 1]
        with pytest.raises(ValueError, match="exponents must be nonnegative integers"):
            monomial_moment(a, 2)

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

    @pytest.mark.parametrize("idx, message", [
        (True, "must be an integer, got True"),
        (0.5, "must be an integer, got 0.5"),
        (-1, "must be nonnegative, got -1"),
    ])
    def test_index_must_be_a_nonnegative_integer(self, monkeypatch, idx, message):
        # True was taken as 1, and 0.5 failed with numpy's IndexError after every draw
        monkeypatch.setattr(haar_mod, "_haar_samples", None)  # no draw is made
        for args in ((idx, 0, 0), (0, idx, 0), (0, 0, idx)):
            with pytest.raises(ValueError, match=message):
                overlap_moment_check(3, *args, 10, 1)


def _direct_diag_square_sums(rho, us):
    """sum_i diag(U^H rho U)_i^2 for each full unitary in the stack: the
    reference the isometry estimator replaces."""
    diag = np.einsum("sai,sai->si", us.conj(), rho @ us).real
    return (diag**2).sum(axis=1)


def _moduli(seed, shape):
    """|W|^2 for a `shape` stack of the draw's isometries W: column k is
    _diagonals at mu = e_k, each from the same seed, so from the same
    variates and the joint law of the columns is the draw's."""
    r = shape[-1]
    return np.stack([haar_mod._diagonals(SeededGenerator(seed).generator(), shape, 0.0, mu)
                     for mu in np.eye(r)], axis=-1)


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
    def test_shifted_spectrum_identity(self, monkeypatch, rho, r):
        # for a fixed Haar U the top r rows of V^H U give the direct value:
        # handed those rows as its QR isometries, the draw sums to it (at
        # least 3 columns take the QR path; the extra ones have gap 0)
        lam, got_r = haar_mod._excited_levels(rho)
        assert got_r == r
        matrix = rho.matrix if isinstance(rho, DensityMatrix) else rho
        n = lam.size
        v = hermitian_eigendecomposition(matrix)[1].vectors
        us = sample_haar_unitaries(n, 5, 17)
        w = np.swapaxes(us, 1, 2) @ v.conj()
        cols = min(max(r, 3), n)
        monkeypatch.setattr(haar_mod, "_haar_chunk", lambda rng, shape: w[:, :, n - cols:])
        diag = haar_mod._diagonals(np.random.default_rng(0), (5, n, cols), lam[0], lam[n - cols:] - lam[0])
        got = np.einsum("si,si->s", diag, diag)
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
                with pytest.raises(ValueError, match=f"^samples must be at least 2, got {samples}$"):
                    estimate()
        else:
            assert estimate_diag_square_sum(rho, samples, 3).samples == 2

    def test_a_raw_state_is_diagonalised_once(self, monkeypatch):
        # _excited_levels ran an eigvalsh of its own after validate_density's
        # eigh; now it reads the kept spectrum, which a drawn state carries
        rho = random_density_matrix(5, np.random.default_rng(4))
        calls = []

        def spy(name, real):
            def counting(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return counting

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
        estimate_diag_square_sum(rho, 50, 1)
        assert calls == []
        estimate_diag_square_sum(rho.matrix.copy(), 50, 1)
        assert calls == ["eigh"]

    @pytest.mark.parametrize("r, n", [(r, n) for n in (2, 3, 32) for r in (1, 2, 3) if r <= n])
    def test_moduli_moments(self, r, n):
        # E p_ik = 1/n and E p_ik p_il = (delta_kl + 1) / (n (n + 1)), the
        # oracle of overlap_moment_check, for each column and pair in row 0
        p = _moduli(60 + n, (20_000, n, r))
        for k in range(r):
            mean = MonteCarloEstimate.from_samples(p[:, 0, k])
            assert abs(mean.z_score(1.0 / n)) <= haar_mod.Z_MAX, (k, mean)
            for l in range(k, r):
                pair = MonteCarloEstimate.from_samples(p[:, 0, k] * p[:, 0, l])
                exact = (2.0 if k == l else 1.0) / (n * (n + 1.0))
                assert abs(pair.z_score(exact)) <= haar_mod.Z_MAX, (k, l, pair)

    def test_one_column_of_two_is_uniform(self):
        # n = 2: |u_11|^2 of a Haar unitary is Uniform(0, 1)
        p = _moduli(62, (5000, 2, 1))
        assert kstest(p[:, 0, 0], "uniform").pvalue > 0.01

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_two_columns_match_the_qr_moduli(self, n):
        # two-sample KS of the closed form's two columns against the moduli
        # of _haar_chunk's isometries: every entry, each row's product
        # p_i1 p_i2 and the second column's sum_i p_i2^2.  Projecting along
        # p instead of sqrt(p), or not projecting, fails here
        count = 20_000
        got = _moduli(66 + n, (count, n, 2))
        want = np.abs(haar_mod._haar_chunk(SeededGenerator(67 + n).generator(), (count, n, 2))) ** 2

        def statistics(p):
            return [*(p[:, i, k] for i in range(n) for k in range(2)),
                    *(p[:, i, 0] * p[:, i, 1] for i in range(n)),
                    (p[:, :, 1] ** 2).sum(axis=1)]

        pvalues = [ks_2samp(a, b).pvalue for a, b in zip(statistics(got), statistics(want))]
        assert min(pvalues) > 1e-4, pvalues

    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_moduli_are_an_isometry(self, n):
        # columns are unit vectors and rows of orthonormal columns have norm
        # at most 1 (exactly 1 when there are n columns): a broken
        # projection fails these
        for r in (1, 2, 3)[:n]:
            p = _moduli(63, (500, n, r))
            assert p.shape == (500, n, r) and (p >= 0).all()
            assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12
            rows = p.sum(axis=2)
            assert rows.max() <= 1.0 + 1e-12
            if r == n:
                assert np.abs(rows - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("kind, mib", [("pure", 1), ("rank2", 1), ("full", 4)])
    def test_estimator_working_set(self, kind, mib):
        # 2000 samples at n = 32 hold about one cache-sized chunk; a chunk
        # of the whole run with an (m, n, r) moduli table peaked at 3.5 MB
        # at rank 2 and 121 MB at full rank
        rho = _state(kind, 32)
        tracemalloc.start()
        try:
            estimate_diag_square_sum(rho, 2000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20, peak

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("kind", ["pure", "rank2", "full"])
    def test_same_law_as_full_unitaries(self, kind, n):
        rho = _state(kind, n, seed=n)
        reduced = haar_mod._diag_square_sum_samples(rho, 4000, 41)
        full = _direct_diag_square_sums(rho.matrix, sample_haar_unitaries(n, 4000, 42))
        assert ks_2samp(reduced, full).pvalue > 0.01
