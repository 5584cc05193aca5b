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
straight as their moduli.

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
the n x r Haar isometry (Mezzadri, Notices AMS 2007), by _moduli for every
r: Dirichlet(1, ..., 1) for r = 1, standard exponentials over their sum
(Bengtsson and Zyczkowski, Geometry of Quantum States, ch. 7); for r = 2
a second column from 2n real normals projected off the square root of the
first, n exponentials and 2n normals in all; the stacked QR for r >= 3,
which beats a numpy Gram-Schmidt loop at full rank (r = n - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import OrthonormalBasis, _check_dim, _check_same_dim, as_density, purity

# Chunk cap for batched sampling, in complex entries; bounds peak memory.
_CHUNK_ENTRIES = 2_000_000
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
    itself, so they are freed before f sees it; chunks come in order, at most
    _CHUNK_ENTRIES complex entries each.  count = 0 maps one empty chunk, so
    the result keeps f's trailing shape."""
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


def _moduli(rng: np.random.Generator, shape) -> np.ndarray:
    """|W|^2 for a `shape` stack of Haar isometries W.  Three or more
    columns come from _haar_chunk's stacked QR; one or two as a view whose
    columns are contiguous.  One column's are Dirichlet(1, ..., 1): n standard
    exponentials over their sum, p.  A second column takes one (real |
    imaginary, sample, row) normal block g after them and is
    |g - a (a^T g)|^2 normalized, a = sqrt(p) real.

    Why that is the second column's law: write column 1 as D a, D =
    diag(e^{i phi}) with phases phi uniform and independent of p.  Column 2
    is the normalized projection of a CN(0, I) vector g off D a, g - D a
    (a^T D^H g).  g' = D^H g is again CN(0, I) and independent of (p, phi),
    and the projection equals D (g' - a (a^T g')), whose moduli are those of
    g' - a (a^T g'): neither phi nor complex arithmetic is needed, and a
    real a projects the real and imaginary parts of g' alike.
    """
    m, n, cols = shape
    if cols >= 3:
        return np.abs(_haar_chunk(rng, shape)) ** 2
    p = np.empty((cols, m, n))
    p[0] = rng.standard_exponential((m, n))
    p[0] /= p[0].sum(axis=-1, keepdims=True)
    if cols == 2:
        a = np.sqrt(p[0])
        g = rng.standard_normal((2, m, n))
        g -= a * np.einsum("kmi,mi->km", g, a)[..., None]
        np.einsum("kmi,kmi->mi", g, g, out=p[1])
        p[1] /= p[1].sum(axis=-1, keepdims=True)
    return np.moveaxis(p, 0, -1)


def _diag_square_sums(lam: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_i (lam_0 + sum_k mu_k p_ik)^2 for each n x r moduli table
    p = |w|^2 of an isometry w in the stack, where mu holds the r top gaps
    lam_k - lam_0; built column by column, so r = 0 gives n lam_0^2."""
    diag = np.full(p.shape[:-1], lam[0])
    for k, mu in enumerate(lam[lam.size - p.shape[-1]:] - lam[0]):
        diag += mu * p[..., k]
    return np.einsum("...i,...i->...", diag, diag)


def _diag_square_sum_samples(rho, samples: int, g) -> np.ndarray:
    """Per-sample sum_i rho_ii^2 with rho rewritten in a Haar-random basis.

    With rho = V diag(lam) V^H, lam ascending, and U the basis,
    (U^H rho U)_ii = lam_0 + sum_k (lam_k - lam_0) |(V^H U)_ki|^2.  V^H U
    and its transpose are Haar, so the r rows with lam_k > lam_0 have the
    law of the first r columns of a Haar unitary: only that n x r isometry's
    moduli are drawn, by _moduli.  r = 0 (rho a multiple of the identity)
    needs no draw.
    """
    lam, r = _excited_levels(rho)
    if r == 0:
        _check_count("samples", samples)
        return np.full(samples, lam.size * lam[0] ** 2)
    return _haar_samples(lambda p: _diag_square_sums(lam, p), _moduli, lam.size, r, samples, g)


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
