"""Distance between orthonormal bases and commutator bound checks.

The squared distance between bases (|e_i|) and (|f_j|) is

    d^2 = sum_ij |<e_i|f_j>|^2 (1 - |<e_i|f_j>|^2),

zero exactly when one basis is a relabelling (permutation + phases) of the
other, and maximal at sqrt(n-1) exactly for mutually unbiased pairs.  Two
inequalities tie this distance to the commutator of observables:

    ||[A,B]|| <= (sqrt(n)/2) * spread(A) * spread(B) * d(B_A, B_B)
    d(B_A, B_B) <= sqrt(2n) / (gap(A) * gap(B)) * ||[A,B]||   (non-degenerate)

where spread is the full width of the spectrum and gap the smallest spacing
between distinct eigenvalues.  The second rests on a near-equality condition
for the quadratic Jensen inequality, checked by :func:`jensen_gap_bound`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    NotFiniteError,
    NotOrthonormalError,
    PointsNotDistinctError,
    WeightsNotNormalizedError,
)
from .linalg import (
    TOL_ORTHO,
    HermitianObservable,
    OrthonormalBasis,
    operator_norm,
)

# Degenerate-spectrum detection threshold, relative to the spectral spread:
# separates true degeneracy from eigen-solver jitter at double precision.
GAP_SCALE = 1e-8
# BoundReport slack tolerance, relative to max(1, rhs): both sides of the
# checked inequalities scale with the operators.
REPORT_SCALE = 1e-9

MUB_DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class OverlapMatrix:
    """Table o_ij = |<e_i|f_j>|^2 for a pair of bases.

    Unitarity of the change of basis makes the table doubly stochastic; the
    constructor checks row and column sums within tol_ortho * n.
    """

    entries: np.ndarray

    def __post_init__(self):
        o = _doubly_stochastic(np.asarray(self.entries, dtype=np.float64))
        o.setflags(write=False)
        object.__setattr__(self, "entries", o)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_relabelling(self, tol_ortho: float = TOL_ORTHO) -> bool:
        """True when every row has a single entry >= 1 - n * tol_ortho,
        i.e. the table is a permutation matrix up to tolerance."""
        n = self.dim
        return bool((self.entries.max(axis=1) >= 1.0 - n * tol_ortho).all())


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality lhs <= rhs.

    satisfied <=> slack >= -tol where tol = REPORT_SCALE * max(1, rhs).
    """

    lhs: float
    rhs: float
    slack: float
    satisfied: bool

    @classmethod
    def check(cls, lhs: float, rhs: float) -> "BoundReport":
        lhs = float(lhs)
        rhs = float(rhs)
        slack = rhs - lhs
        return cls(lhs, rhs, slack, bool(slack >= -REPORT_SCALE * max(1.0, rhs)))

    @property
    def relative_slack(self) -> float:
        return self.slack / max(1.0, self.rhs)


def _doubly_stochastic(o: np.ndarray) -> np.ndarray:
    """Check overlap tables (..., n, n) for unit row and column sums within
    tol_ortho * n; return them clipped to [0, 1]."""
    tol = TOL_ORTHO * o.shape[-1]
    defect = max(float(np.abs(o.sum(axis=axis) - 1.0).max(initial=0.0)) for axis in (-1, -2))
    if defect > tol:
        raise NotOrthonormalError(
            f"overlap table not doubly stochastic: worst sum defect {defect:.3e} exceeds {tol:.1e}"
        )
    return np.clip(o, 0.0, 1.0)  # roundoff can push |.|^2 a hair outside [0, 1]


def _check_same_dim(a, b):
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")


def overlap_matrix(b1: OrthonormalBasis, b2: OrthonormalBasis) -> OverlapMatrix:
    """Squared-overlap table between two bases of equal dimension."""
    _check_same_dim(b1, b2)
    return OverlapMatrix(np.abs(b1.vectors.conj().T @ b2.vectors) ** 2)


def basis_distances(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Distances between stacked bases: u1 and u2 of shape (..., n, n) hold
    basis vectors as columns; the result has the leading shape."""
    o = _doubly_stochastic(np.abs(np.swapaxes(u1.conj(), -1, -2) @ u2) ** 2)
    one_minus = 1.0 - o
    # An entry near 1 makes 1 - o cancel catastrophically, which floors the
    # distance at ~sqrt(n)*1e-8 for nearby bases.  Row sums equal 1, so
    # rewrite 1 - o_ij as the sum of the other (small, accurate) row entries.
    # At most one entry per row exceeds 1/2; rows are grouped by its column.
    big = o > 0.5
    for j in np.flatnonzero(big.any(axis=tuple(range(o.ndim - 1)))):
        rows = o[big[..., j]]
        one_minus[..., j][big[..., j]] = rows[:, :j].sum(-1) + rows[:, j + 1:].sum(-1)
    return np.sqrt(np.sum(o * one_minus, axis=(-2, -1)))


def basis_distance(b1: OrthonormalBasis, b2: OrthonormalBasis) -> float:
    """Distance between two orthonormal bases, in [0, sqrt(n-1)]."""
    _check_same_dim(b1, b2)
    return float(basis_distances(b1.vectors, b2.vectors))


def is_mutually_unbiased(
    b1: OrthonormalBasis, b2: OrthonormalBasis, tol: float = MUB_DEFAULT_TOL
) -> bool:
    """True when every squared overlap equals 1/n within tol."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    o = overlap_matrix(b1, b2).entries
    return bool(np.abs(o - 1.0 / b1.dim).max() <= tol)


def spectral_spread(spectrum) -> float:
    w = np.asarray(spectrum, dtype=np.float64)
    return float(w.max() - w.min())


def min_spectral_gap(spectrum) -> float:
    """Smallest spacing between consecutive sorted eigenvalues."""
    w = np.sort(np.asarray(spectrum, dtype=np.float64))
    if w.size < 2:
        return np.inf
    return float(np.diff(w).min())


def _as_observable(a) -> HermitianObservable:
    if isinstance(a, HermitianObservable):
        return a
    return HermitianObservable.from_matrix(a)


def commutator_upper_bound(a, b) -> BoundReport:
    """Check ||[A,B]|| <= (sqrt(n)/2) * spread(A) * spread(B) * d(B_A, B_B).

    Holds for any choice of eigenbases, so degenerate spectra are fine: the
    solver's returned bases are used.
    """
    a = _as_observable(a)
    b = _as_observable(b)
    _check_same_dim(a, b)
    n = a.dim
    lhs = operator_norm(a.matrix @ b.matrix - b.matrix @ a.matrix)
    c = spectral_spread(a.spectrum) * spectral_spread(b.spectrum)
    d = basis_distance(a.eigenbasis, b.eigenbasis)
    return BoundReport.check(lhs, 0.5 * np.sqrt(n) * c * d)


def _min_gap_nondegenerate(obs: HermitianObservable, label: str) -> float:
    spread = spectral_spread(obs.spectrum)
    gap = min_spectral_gap(obs.spectrum)
    # Eigenvector noise grows like machine epsilon * ||A|| / gap, so the
    # degeneracy scale must track the operator size, not just the spread
    # (a two-level operator w0*I + tiny*P has spread == gap but unresolvable
    # eigenvectors whenever tiny << |w0|).
    scale = max(spread, float(np.abs(obs.spectrum).max()))
    if gap <= GAP_SCALE * scale or scale == 0.0:
        raise DegenerateSpectrumError(
            f"{label} has spectral gap {gap:.3e} (scale {scale:.3e}); "
            f"two eigenvalues coincide within {GAP_SCALE:.0e} * scale"
        )
    return gap


def commutator_lower_bound(a, b) -> BoundReport:
    """Check d(B_A, B_B) <= sqrt(2n) / (gap(A) * gap(B)) * ||[A,B]||.

    Requires both spectra non-degenerate; raises DegenerateSpectrumError
    naming the offending gap otherwise.
    """
    a = _as_observable(a)
    b = _as_observable(b)
    _check_same_dim(a, b)
    n = a.dim
    if n == 1:
        return BoundReport.check(0.0, 0.0)
    c = _min_gap_nondegenerate(a, "first operand") * _min_gap_nondegenerate(b, "second operand")
    lhs = basis_distance(a.eigenbasis, b.eigenbasis)
    rhs = np.sqrt(2.0 * n) / c * operator_norm(a.matrix @ b.matrix - b.matrix @ a.matrix)
    return BoundReport.check(lhs, rhs)


def quadratic_jensen_gap(weights, points) -> float:
    """sum(w x^2) - (sum(w x))^2, the gap in the quadratic Jensen inequality."""
    w = np.asarray(weights, dtype=np.float64)
    x = np.asarray(points, dtype=np.float64)
    return float(np.sum(w * x**2) - np.sum(w * x) ** 2)


def jensen_gap_bound(weights, points, epsilon: float, tol_norm: float = 1e-10) -> BoundReport:
    """Check sum(w_i (1 - w_i)) <= 2 eps / min_{i != j} |x_i - x_j|^2.

    Valid whenever eps bounds the quadratic Jensen gap of (weights, points)
    from above; the caller passes the actual gap or anything larger.
    """
    w = np.asarray(weights, dtype=np.float64)
    x = np.asarray(points, dtype=np.float64)
    if w.shape != x.shape or w.ndim != 1:
        raise DimensionMismatchError(
            f"weights and points must be equal-length vectors, got {w.shape} and {x.shape}"
        )
    for name, v in (("weights", w), ("points", x), ("epsilon", np.float64(epsilon))):
        bad = int(np.size(v) - np.isfinite(v).sum())
        if bad:
            raise NotFiniteError(f"{name} has {bad} NaN or infinite entries")
    if w.min() < 0.0:
        raise WeightsNotNormalizedError(f"weight {w.min():.3e} is negative")
    norm_defect = abs(w.sum() - 1.0)
    if norm_defect > tol_norm:
        raise WeightsNotNormalizedError(
            f"|sum(weights) - 1| = {norm_defect:.3e} exceeds {tol_norm:.1e}"
        )
    xs = np.sort(x)
    gap = float(np.diff(xs).min()) if xs.size > 1 else np.inf
    spread = float(xs[-1] - xs[0]) if xs.size > 1 else 0.0
    if xs.size > 1 and gap <= GAP_SCALE * spread:
        raise PointsNotDistinctError(
            f"two points are only {gap:.3e} apart (spread {spread:.3e})"
        )
    lhs = float(np.sum(w * (1.0 - w)))
    rhs = 2.0 * epsilon / gap**2 if np.isfinite(gap) else 0.0
    return BoundReport.check(lhs, rhs)
