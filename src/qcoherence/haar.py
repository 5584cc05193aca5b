"""Haar-distributed unitaries and the moment machinery around them.

Sampling uses the standard exact construction: a complex Ginibre matrix
(i.i.d. standard complex Gaussians) is QR-factored and column j of Q is
multiplied by conj(r_jj)/|r_jj|.  Without that phase correction Q is not
Haar-distributed, which the invariance tests detect immediately.  Every
complex array of Gaussians in the package is one _ginibre draw: a
(2, *shape) standard-normal block, all real parts then all imaginary parts;
_hermitian takes the Hermitian part of such a stack.  Batched samplers map
a statistic over _haar_samples, at most _CHUNK_ENTRIES complex entries a
chunk, each chunk drawn as Haar isometries or, for the estimator below,
straight as the diagonal their moduli give.  The cap is a cache size, not
only a memory bound: a chunk's draw and scratch stay in cache across passes.

The exact monomial moments over the unitary group,

    E prod_k |u_ik|^(2 a_k) = (n-1)! / (m+n-1)! * prod_k a_k!,   m = sum a_k,

serve as the analytic anchor for all Monte Carlo estimates, in particular

    E sum_i rho_ii^2 = (tr(rho^2) + 1) / (n + 1)

for the diagonal of a state rewritten in a Haar-random basis, and hence
E eta2^2 = (n tr(rho^2) - 1) / (n + 1).  A state argument enters through
linalg.as_density, so a raw array is validated as a density matrix.

The Monte Carlo estimates of sum_i rho_ii^2 read the spectrum the state
keeps (a drawn state carries it: no eigh) and use unitary invariance: the
statistic depends on the basis only through the r rows of V^H U that belong
to eigenvalues above the lowest, so each sample draws just the moduli of
the n x r Haar isometry (Mezzadri, Notices AMS 2007), summed into the
diagonal by _diagonals: Dirichlet(1, ..., 1) for r = 1, standard
exponentials over their sum (Bengtsson and Zyczkowski, Geometry of Quantum
States, ch. 7); for r = 2 a second column from 2n real normals projected
off the square root of the first, n exponentials and 2n normals in all;
the stacked QR for r >= 3, which beats a numpy Gram-Schmidt at r = n - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import OrthonormalBasis, _check_dim, _check_same_dim, as_density, purity

# Chunk cap for batched sampling, in complex entries: cache-sized, which caps memory too.
_CHUNK_ENTRIES = 32_768
Z_ATOL = 1e-12  # |mean - expected| that MonteCarloEstimate.z_score scores as 0
Z_MAX = 4.0  # largest |z| a Monte Carlo check accepts


def _check_count(name: str, count: int, least: int = 0) -> None:
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):  # one rule, before any draw
        raise ValueError(f"{name} must be an integer, got {count!r}")
    if count < least:
        raise ValueError(f"{name} must be {f'at least {least}' if least else 'nonnegative'}, got {count}")


@dataclass(frozen=True)
class SeededGenerator:
    """Reproducible PCG64 randomness root: same seed => same stream.

    Substream i is derived as SeedSequence(seed, spawn_key=(i,)), and a key
    tuple (i, j, ...) as SeedSequence(seed, spawn_key=(i, j, ...)), so
    splitting trials into blocks and chunks cannot change results: they
    depend only on the seed and the (fixed) substream indexing.
    """

    seed: int

    def __post_init__(self):
        _check_count("seed", self.seed)

    def generator(self) -> np.random.Generator:
        return self.substream(())  # SeedSequence(seed) has spawn key ()

    def substream(self, key: int | tuple[int, ...]) -> np.random.Generator:
        spawn_key = key if isinstance(key, tuple) else (key,)
        seq = np.random.SeedSequence(self.seed, spawn_key=spawn_key)
        return np.random.Generator(np.random.PCG64(seq))


def as_generator(g) -> np.random.Generator:
    """Accept a SeededGenerator, a numpy Generator, or a plain int seed."""
    if isinstance(g, np.random.Generator):
        return g
    if isinstance(g, SeededGenerator):
        return g.generator()
    if isinstance(g, (int, np.integer)):
        return SeededGenerator(g).generator()
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
        _check_count("samples", xs.size, 2)
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


def _ginibre(rng: np.random.Generator, shape) -> np.ndarray:
    """A `shape` stack of standard complex Gaussians: one (2, *shape)
    standard-normal draw, all real parts then all imaginary parts, written
    into one complex array.  This is the package's one Ginibre stream layout."""
    z = np.empty(shape, dtype=np.complex128)
    z.real, z.imag = rng.standard_normal((2, *shape))
    return z


def _hermitian(z: np.ndarray) -> np.ndarray:
    """(z + z^H) / 2 over any leading axes, for a _ginibre stack z."""
    return (z + np.swapaxes(z.conj(), -1, -2)) / 2.0


def _haar_from_ginibre(z: np.ndarray, mode: str = "reduced") -> np.ndarray:
    """The first k columns of Haar unitaries from a (..., n, k) _ginibre
    stack, which is overwritten: one stacked QR, then the phase fix.  mode
    "complete" returns the whole n x n factor, its first k columns fixed."""
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z, mode=mode)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q[..., :d.shape[-1]] *= (d.conj() / np.abs(d))[..., None, :]
    return q


def _haar_chunk(rng: np.random.Generator, shape) -> np.ndarray:
    """A `shape` stack of Haar isometries from one _ginibre draw."""
    return _haar_from_ginibre(_ginibre(rng, shape))


def _haar_samples(f, draw, n: int, cols: int, count: int, g) -> np.ndarray:
    """f of `count` Haar draws of the first `cols` columns of an n x n
    unitary, stacked.  draw(rng, shape) turns one chunk of shape (m, n, cols)
    into what f takes (_haar_chunk: the isometries), drawing its Gaussians
    itself, so they are freed before f sees it; chunks come in order, each
    at most _CHUNK_ENTRIES complex entries (or one sample), so their passes
    run in cache.  count = 0 maps one empty chunk: f's trailing shape stays."""
    _check_count("samples", count)
    rng = as_generator(g)
    step = max(1, _CHUNK_ENTRIES // (n * cols))
    return np.concatenate([
        f(draw(rng, (min(step, count - start), n, cols)))
        for start in range(0, max(count, 1), step)
    ])


def sample_haar_unitaries(n: int, count: int, g) -> np.ndarray:
    """Stack of `count` independent Haar unitaries, shape (count, n, n)."""
    _check_dim(n)
    return _haar_samples(lambda u: u, _haar_chunk, n, n, count, g)


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
    _check_dim(n)
    a = np.asarray(a, dtype=np.float64)
    _check_same_dim(a.shape, (n,), "exponent shape vs (n,)")
    if not (np.isfinite(a) & (a >= 0) & (a == np.round(a))).all():
        raise ValueError(f"exponents must be nonnegative integers, got {a.tolist()}")
    m = int(a.sum())
    log_value = math.lgamma(n) - math.lgamma(m + n) + sum(math.lgamma(k + 1) for k in a.tolist())
    return math.exp(log_value)


def exact_expected_diag_square_sum(rho) -> float:
    """E sum_i rho_ii^2 over Haar-random bases: (tr(rho^2) + 1) / (n + 1)."""
    rho = as_density(rho)
    return (purity(rho) + 1.0) / (rho.dim + 1.0)


def exact_expected_eta2_sq(rho) -> float:
    """E eta2^2 over Haar-random bases: (n tr(rho^2) - 1) / (n + 1)."""
    rho = as_density(rho)
    return (rho.dim * purity(rho) - 1.0) / (rho.dim + 1.0)


def _excited_levels(rho) -> tuple[np.ndarray, int]:
    """The ascending spectrum rho keeps (its eigensystem) and the number r of
    its levels above the lowest by more than eigh's own error, n * eps * max
    |lam|.  The eigenvectors are not needed: the sampled law depends on lam
    alone.
    """
    lam = as_density(rho).eigensystem()[0]
    tol = lam.size * np.finfo(np.float64).eps * np.abs(lam).max()
    return lam, int((lam - lam[0] > tol).sum())


def _diagonals(rng: np.random.Generator, shape, lam0: float, mu: np.ndarray) -> np.ndarray:
    """lam0 + sum_k mu_k |W_ik|^2, shape (m, n), for an (m, n, r) `shape`
    stack of Haar isometries W, in place: each column normalized, scaled by
    mu_k and added in turn (mu = e_k and lam0 = 0 give column k from the same
    variates).  r >= 3 adds _haar_chunk's QR moduli.  Column 1 is
    Dirichlet(1, ..., 1): n standard exponentials over their sum, p.  Column
    2, from a (real | imaginary, sample, row) normal block g drawn next, is
    |g - a (a^T g)|^2 normalized, a = sqrt(p).

    Why that is the second column's law: write column 1 as D a, D =
    diag(e^{i phi}) with phases phi uniform and independent of p.  Column 2
    is the normalized projection of a CN(0, I) vector g off D a, g - D a
    (a^T D^H g).  g' = D^H g is again CN(0, I) and independent of (p, phi),
    and the projection equals D (g' - a (a^T g')), whose moduli are those of
    g' - a (a^T g'): neither phi nor complex arithmetic is needed, and a
    real a projects the real and imaginary parts of g' alike.
    """
    m, n, r = shape
    if r >= 3:
        w, diag = _haar_chunk(rng, shape), np.full((m, n), lam0)
        for k in range(r):
            diag += mu[k] * np.abs(w[..., k]) ** 2
        return diag
    diag = rng.standard_exponential((m, n))
    diag /= diag.sum(axis=-1, keepdims=True)
    a = np.sqrt(diag) if r == 2 else None
    diag *= mu[0]
    diag += lam0
    if r == 2:
        g, scratch = rng.standard_normal((2, m, n)), np.empty((m, n))
        for gk, c in zip(g, np.einsum("kmi,mi->km", g, a)):
            gk -= np.multiply(a, c[:, None], out=scratch)
        q = np.einsum("kmi,kmi->mi", g, g, out=scratch)
        q /= q.sum(axis=-1, keepdims=True)
        diag += np.multiply(q, mu[1], out=q)
    return diag


def _diag_square_sum_samples(rho, samples: int, g) -> np.ndarray:
    """Per-sample sum_i rho_ii^2 with rho rewritten in a Haar-random basis.

    With rho = V diag(lam) V^H, lam ascending, and U the basis,
    (U^H rho U)_ii = lam_0 + sum_k (lam_k - lam_0) |(V^H U)_ki|^2.  V^H U
    and its transpose are Haar, so the r rows with lam_k > lam_0 have the
    law of the first r columns of a Haar unitary: only that n x r isometry's
    moduli enter, by _diagonals, which returns the diagonal itself.  r = 0
    (rho a multiple of the identity) needs no draw.
    """
    lam, r = _excited_levels(rho)
    if r == 0:
        _check_count("samples", samples)
        return np.full(samples, lam.size * lam[0] ** 2)
    return _haar_samples(lambda d: np.einsum("...i,...i->...", d, d),
                         lambda rng, shape: _diagonals(rng, shape, lam[0], lam[-r:] - lam[0]), lam.size, r, samples, g)


def estimate_diag_square_sum(rho, samples: int, g) -> MonteCarloEstimate:
    """Monte Carlo estimate of E sum_i rho_ii^2 over Haar-random bases."""
    return MonteCarloEstimate.from_samples(_diag_square_sum_samples(rho, samples, g))


def estimate_expected_eta2_sq(rho, samples: int, g) -> MonteCarloEstimate:
    """Monte Carlo estimate of E eta2(B, rho)^2 over Haar-random bases B.

    Uses eta2^2 = tr(rho^2) - sum_i rho_ii^2 per sample.
    """
    rho = as_density(rho)
    t = _diag_square_sum_samples(rho, samples, g)
    return MonteCarloEstimate.from_samples(purity(rho) - t)


@dataclass(frozen=True)
class MomentCheck:
    """A Monte Carlo moment next to its exact value."""

    estimate: MonteCarloEstimate
    exact: float
    z_score: float
    agrees: bool  # |z| <= Z_MAX


def overlap_moment_check(n: int, i: int, k: int, l: int, samples: int, g) -> MomentCheck:
    """Compare the MC mean of |u_ik|^2 |u_il|^2 with (delta_kl + 1)/(n(n+1))."""
    _check_dim(n)
    for name, idx in (("i", i), ("k", k), ("l", l)):
        _check_count(name, idx)
        if idx >= n:
            raise DimensionMismatchError(f"index {name}={idx} out of range for dimension {n}")
    exact = (2.0 if k == l else 1.0) / (n * (n + 1.0))
    xs = _haar_samples(lambda u: np.abs(u[:, i, k]) ** 2 * np.abs(u[:, i, l]) ** 2,
                       _haar_chunk, n, n, samples, g)
    est = MonteCarloEstimate.from_samples(xs)
    z = est.z_score(exact)
    return MomentCheck(est, exact, z, bool(abs(z) <= Z_MAX))
