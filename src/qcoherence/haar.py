"""Haar-distributed unitaries and the moment machinery around them.

Sampling uses the standard exact construction: a complex Ginibre matrix
(i.i.d. standard complex Gaussians) is QR-factored and column j of Q is
multiplied by conj(r_jj)/|r_jj|.  Without that phase correction Q is not
Haar-distributed, which the invariance tests detect immediately.

The exact monomial moments over the unitary group,

    E prod_k |u_ik|^(2 a_k) = (n-1)! / (m+n-1)! * prod_k a_k!,   m = sum a_k,

serve as the analytic anchor for all Monte Carlo estimates, in particular

    E sum_i rho_ii^2 = (tr(rho^2) + 1) / (n + 1)

for the diagonal of a state rewritten in a Haar-random basis, and hence
E eta2^2 = (n tr(rho^2) - 1) / (n + 1).

The Monte Carlo estimates of sum_i rho_ii^2 use unitary invariance: the
statistic depends on the basis only through the r rows of V^H U that belong
to eigenvalues above the lowest, so each sample draws just the n x r Haar
isometry (Mezzadri, Notices AMS 2007) instead of a full unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import OrthonormalBasis, _matrix_of, purity

# Chunk cap for batched sampling, in complex entries; bounds peak memory.
_CHUNK_ENTRIES = 2_000_000
Z_ATOL = 1e-12  # |mean - expected| that MonteCarloEstimate.z_score scores as 0


@dataclass(frozen=True)
class SeededGenerator:
    """Reproducible PCG64 randomness root: same seed => same stream.

    Worker substream i is derived as SeedSequence(seed, spawn_key=(i,)), so
    fanning trials out over workers cannot change results: they depend only
    on the seed and the (fixed) substream indexing.
    """

    seed: int

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def substream(self, index: int) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=(index,))
        return np.random.Generator(np.random.PCG64(seq))


def as_generator(g) -> np.random.Generator:
    """Accept a SeededGenerator, a numpy Generator, or a plain int seed."""
    if isinstance(g, np.random.Generator):
        return g
    if isinstance(g, SeededGenerator):
        return g.generator()
    if isinstance(g, (int, np.integer)):
        return SeededGenerator(int(g)).generator()
    raise TypeError(f"cannot interpret {type(g).__name__} as a random generator")


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean with its standard error (unbiased variance / sqrt(count))."""

    mean: float
    std_error: float
    samples: int

    @classmethod
    def from_samples(cls, xs) -> "MonteCarloEstimate":
        xs = np.asarray(xs, dtype=np.float64)
        if xs.size < 2:
            raise ValueError(f"need at least 2 samples, got {xs.size}")
        return cls(float(xs.mean()), float(xs.std(ddof=1) / math.sqrt(xs.size)), int(xs.size))

    def z_score(self, expected: float) -> float:
        """(mean - expected) / std_error.

        When the mean agrees with `expected` to within Z_ATOL the score is 0:
        families whose samples are deterministic up to roundoff (for example
        the maximally mixed state) would otherwise divide noise by noise.
        """
        diff = self.mean - expected
        if abs(diff) <= Z_ATOL:
            return 0.0
        if self.std_error == 0.0:
            return math.inf if diff > 0 else -math.inf
        return diff / self.std_error


def _haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """The first k columns of Haar unitaries from a (count, n, k) stack of
    re + 1j * im standard Gaussian draws, which is overwritten: one stacked
    QR, then the phase fix.

    Callers that interleave other draws can fill the stack one unitary at a
    time and still factor it in one call.
    """
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.einsum("sii->si", r)
    q *= (d.conj() / np.abs(d))[:, None, :]
    return q


def _haar_chunk(n: int, cols: int, count: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((count, n, cols)) + 1j * rng.standard_normal((count, n, cols))
    return _haar_from_ginibre(z)


def _haar_chunks(n: int, cols: int, count: int, rng: np.random.Generator):
    """Yield (start, isometries) chunks covering `count` Haar draws of the
    first `cols` columns of an n x n unitary (all of it at cols = n), in order.

    Drawing in _haar_chunk frees its work arrays before the caller uses a chunk.
    """
    step = max(1, _CHUNK_ENTRIES // (n * cols))
    for start in range(0, count, step):
        yield start, _haar_chunk(n, cols, min(step, count - start), rng)


def sample_haar_unitaries(n: int, count: int, g) -> np.ndarray:
    """Stack of `count` independent Haar unitaries, shape (count, n, n)."""
    if n < 1:
        raise DimensionMismatchError(f"dimension must be >= 1, got {n}")
    out = np.empty((count, n, n), dtype=np.complex128)
    for start, u in _haar_chunks(n, n, count, as_generator(g)):
        out[start:start + len(u)] = u
    return out


def sample_haar_unitary(n: int, g) -> np.ndarray:
    """One Haar-distributed n x n unitary."""
    return sample_haar_unitaries(n, 1, g)[0]


def random_basis(n: int, g) -> OrthonormalBasis:
    """Haar-random orthonormal basis: the reference basis rotated by a Haar unitary."""
    return OrthonormalBasis(sample_haar_unitary(n, g))


def monomial_moment(a, n: int) -> float:
    """Exact Haar moment E prod_k |u_ik|^(2 a_k) for one row i of a unitary.

    Evaluated in log space so factorials stay finite for n in the hundreds.
    """
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 1 or a.size != n:
        raise DimensionMismatchError(f"need {n} exponents, got shape {a.shape}")
    if (a < 0).any():
        raise ValueError("exponents must be nonnegative")
    m = int(a.sum())
    log_value = math.lgamma(n) - math.lgamma(m + n) + sum(math.lgamma(k + 1) for k in a.tolist())
    return math.exp(log_value)


def exact_expected_diag_square_sum(rho) -> float:
    """E sum_i rho_ii^2 over Haar-random bases: (tr(rho^2) + 1) / (n + 1)."""
    m = _matrix_of(rho)
    return (purity(m) + 1.0) / (m.shape[0] + 1.0)


def exact_expected_eta2_sq(rho) -> float:
    """E eta2^2 over Haar-random bases: (n tr(rho^2) - 1) / (n + 1)."""
    m = _matrix_of(rho)
    n = m.shape[0]
    return (n * purity(m) - 1.0) / (n + 1.0)


def _excited_levels(rho) -> tuple[np.ndarray, int]:
    """Ascending spectrum of rho and the number r of its levels above the
    lowest by more than eigh's own error, n * eps * max |lam|.

    The eigenvectors are not needed: the sampled law depends on lam alone.
    """
    lam = np.linalg.eigvalsh(_matrix_of(rho))
    tol = lam.size * np.finfo(np.float64).eps * np.abs(lam).max()
    return lam, int((lam - lam[0] > tol).sum())


def _diag_square_sums(lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i (lam_0 + sum_k mu_k |w_ik|^2)^2 for each n x r isometry in the
    stack w, where mu holds the r top gaps lam_k - lam_0."""
    mu = lam[lam.size - w.shape[-1]:] - lam[0]
    diag = lam[0] + (np.abs(w) ** 2) @ mu
    return (diag**2).sum(axis=-1)


def _diag_square_sum_samples(rho, samples: int, g) -> np.ndarray:
    """Per-sample sum_i rho_ii^2 with rho rewritten in a Haar-random basis.

    With rho = V diag(lam) V^H, lam ascending, and U the basis,
    (U^H rho U)_ii = lam_0 + sum_k (lam_k - lam_0) |(V^H U)_ki|^2.  V^H U
    and its transpose are Haar, so the r rows with lam_k > lam_0 have the
    law of the first r columns of a Haar unitary: only that n x r isometry
    is drawn.  r = 0 (rho a multiple of the identity) needs no draw.
    """
    lam, r = _excited_levels(rho)
    if r == 0:
        return np.full(samples, lam.size * lam[0] ** 2)
    out = np.empty(samples, dtype=np.float64)
    for start, w in _haar_chunks(lam.size, r, samples, as_generator(g)):
        out[start:start + len(w)] = _diag_square_sums(lam, w)
    return out


def estimate_diag_square_sum(rho, samples: int, g) -> MonteCarloEstimate:
    """Monte Carlo estimate of E sum_i rho_ii^2 over Haar-random bases."""
    return MonteCarloEstimate.from_samples(_diag_square_sum_samples(rho, samples, g))


def estimate_expected_eta2_sq(rho, samples: int, g) -> MonteCarloEstimate:
    """Monte Carlo estimate of E eta2(B, rho)^2 over Haar-random bases B.

    Uses eta2^2 = tr(rho^2) - sum_i rho_ii^2 per sample.
    """
    t = _diag_square_sum_samples(rho, samples, g)
    return MonteCarloEstimate.from_samples(purity(rho) - t)


@dataclass(frozen=True)
class MomentCheck:
    """A Monte Carlo moment next to its exact value."""

    estimate: MonteCarloEstimate
    exact: float
    z_score: float
    agrees: bool  # |z| <= 4


def overlap_moment_check(n: int, i: int, k: int, l: int, samples: int, g) -> MomentCheck:
    """Compare the MC mean of |u_ik|^2 |u_il|^2 with (delta_kl + 1)/(n(n+1))."""
    for name, idx in (("i", i), ("k", k), ("l", l)):
        if not 0 <= idx < n:
            raise DimensionMismatchError(f"index {name}={idx} out of range for dimension {n}")
    rng = as_generator(g)
    exact = (2.0 if k == l else 1.0) / (n * (n + 1.0))
    xs = np.empty(samples, dtype=np.float64)
    for start, u in _haar_chunks(n, n, samples, rng):
        xs[start:start + len(u)] = (np.abs(u[:, i, k]) ** 2) * (np.abs(u[:, i, l]) ** 2)
    est = MonteCarloEstimate.from_samples(xs)
    z = est.z_score(exact)
    return MomentCheck(est, exact, z, bool(abs(z) <= 4.0))
