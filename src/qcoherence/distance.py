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
    NotOrthonormalError,
    PointsNotDistinctError,
    WeightsNotNormalizedError,
)
from .linalg import (TOL_ORTHO, OrthonormalBasis, _check_finite, _check_same_dim, _freeze, as_observable,
                     operator_norms)

# Degenerate-spectrum detection threshold, relative to the spectral spread:
# separates true degeneracy from eigen-solver jitter at double precision.
GAP_SCALE = 1e-8
# BoundReport slack tolerance, relative to max(1, rhs): both sides of the
# checked inequalities scale with the operators.
REPORT_SCALE = 1e-9

MUB_TOL = 1e-9  # allowed |overlap^2 - 1/n| in is_mutually_unbiased
WEIGHT_SUM_TOL = 1e-10  # allowed |sum(weights) - 1| in jensen_gap_bound


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality lhs <= rhs.

    satisfied <=> slack / max(1, rhs) >= -REPORT_SCALE (reduce_checks).
    """

    lhs: float
    rhs: float
    slack: float
    satisfied: bool

    @classmethod
    def check(cls, lhs: float, rhs: float) -> "BoundReport":
        lhs, rhs = float(lhs), float(rhs)
        return cls(lhs, rhs, rhs - lhs, reduce_checks(relative_slacks(lhs, rhs), REPORT_SCALE)[2])

    @property
    def relative_slack(self) -> float:
        return float(relative_slacks(self.lhs, self.rhs))


def reduce_checks(slack, tol: float) -> tuple[float, int, bool]:
    """(min slack, count, ok) of a stack of checks, one slack each: ok needs
    at least one check and every slack at least -tol, so a NaN slack fails."""
    slack = np.asarray(slack, dtype=np.float64)
    low = float(slack.min(initial=np.inf))  # NaN propagates through min
    return low, slack.size, bool(slack.size and low >= -tol)


def relative_slacks(lhs, rhs):
    """Slacks of stacked checks lhs <= rhs relative to their size,
    (rhs - lhs) / max(1, rhs), elementwise."""
    return np.subtract(rhs, lhs) / np.maximum(1.0, rhs)


def _doubly_stochastic(o: np.ndarray) -> np.ndarray:
    """Check overlap tables (..., n, n) for unit row and column sums within
    tol_ortho * n; return them clipped to [0, 1]."""
    tol = TOL_ORTHO * o.shape[-1]
    defect = max(float(np.abs(o.sum(axis=axis) - 1.0).max(initial=0.0)) for axis in (-1, -2))
    if not defect <= tol:  # a NaN table fails every comparison
        raise NotOrthonormalError(
            f"overlap table not doubly stochastic: worst sum defect {defect:.3e} exceeds {tol:.1e}"
        )
    return np.clip(o, 0.0, 1.0)  # roundoff can push |.|^2 a hair outside [0, 1]


def overlap_matrix(b1: OrthonormalBasis, b2: OrthonormalBasis) -> np.ndarray:
    """Read-only table o_ij = |<e_i|f_j>|^2 of two bases of equal dimension, clipped
    to [0, 1]; checked doubly stochastic, as unitarity makes it, within tol_ortho * n."""
    _check_same_dim(b1.dim, b2.dim)
    return _freeze(_doubly_stochastic(overlap_tables(b1.vectors, b2.vectors)))


def overlap_tables(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Squared-overlap tables |u1^H u2|^2 of stacked bases (..., n, n)."""
    return np.abs(np.swapaxes(u1.conj(), -1, -2) @ u2) ** 2


def overlap_distances(o: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """d^2 = sum_Ej p_Ej (1 - p_Ej) from stacked squared-overlap tables o
    (..., n, n) of rows with basis vectors; the result has the leading shape.

    Without spectra each row is its own E and p = o: the distance between
    two bases.  Given ascending spectra w (..., n) of the rows' eigenvectors,
    eigenvalues within GAP_SCALE * scale (_spectral_scales) of a neighbour
    share E, and p_Ej = sum_{k in E} o_kj: the distance from the eigenspace
    decomposition, whichever eigenbasis o holds (no degenerate gap: p = o).
    """
    p = _doubly_stochastic(o)
    same = False if w is None else np.diff(w, axis=-1) <= GAP_SCALE * _spectral_scales(w)[2][..., None]
    if np.any(same):
        space = np.cumsum(np.insert(~same, 0, True, axis=-1), axis=-1)  # eigenspace labels, from 1
        p = (space[..., None, :] == np.arange(1, p.shape[-1] + 1)[:, None]) @ p
    # 1 - p_Ej as the sum of the other rows of column j, which sums to 1:
    # nothing cancels near a relabelling, so d has no ~sqrt(n) * 1e-8 floor.
    return np.sqrt((p * ((1.0 - np.eye(p.shape[-1])) @ p)).sum(axis=(-2, -1)))


def basis_distances(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Distances between stacked bases: u1 and u2 of shape (..., n, n) hold
    basis vectors as columns; the result has the leading shape."""
    return overlap_distances(overlap_tables(u1, u2))


def basis_distance(b1: OrthonormalBasis, b2: OrthonormalBasis) -> float:
    """Distance between two orthonormal bases, in [0, sqrt(n-1)]."""
    _check_same_dim(b1.dim, b2.dim)
    return float(basis_distances(b1.vectors, b2.vectors))


def is_mutually_unbiased(b1: OrthonormalBasis, b2: OrthonormalBasis) -> bool:
    """True when every squared overlap equals 1/n within MUB_TOL."""
    return bool(np.abs(overlap_matrix(b1, b2) - 1.0 / b1.dim).max() <= MUB_TOL)


def _spectral_scales(w: np.ndarray):
    """(spread, smallest gap (inf for n = 1), degeneracy scale) of ascending
    spectra w (..., n).  Eigenvector noise grows like machine epsilon *
    ||A|| / gap, so the scale tracks the operator size, not just the spread
    (w0*I + tiny*P has spread == gap but unresolvable eigenvectors whenever
    tiny << |w0|)."""
    spread = w[..., -1] - w[..., 0]
    gap = np.diff(w, axis=-1).min(axis=-1, initial=np.inf)
    return spread, gap, np.maximum(spread, np.abs(w).max(axis=-1))


def commutator_terms(m: np.ndarray, w: np.ndarray, v: np.ndarray):
    """Both sides of both Proposition 3.1 bounds for stacked operator pairs.

    m holds T pairs (A, B) as a (T, 2, n, n) stack; w (T, 2, n) and v
    (T, 2, n, n) are their ascending spectra and eigenbases (columns).
    Returns (||[A,B]||, upper rhs, d(B_A, B_B), lower rhs, degenerate), the
    first four (T,); degenerate (T, 2) flags spectra with a gap below
    GAP_SCALE * scale, which void the lower rhs.
    """
    n = m.shape[-1]
    a, b = m[:, 0], m[:, 1]
    norm = operator_norms(1j * (a @ b - b @ a))  # i[A,B] is Hermitian
    spread, gap, scale = _spectral_scales(w)
    d = basis_distances(v[:, 0], v[:, 1])
    upper = 0.5 * np.sqrt(n) * (spread[:, 0] * spread[:, 1]) * d
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate gaps
        lower = np.sqrt(2.0 * n) / (gap[:, 0] * gap[:, 1]) * norm
    return norm, upper, d, lower, gap <= GAP_SCALE * scale


def _pair_terms(a, b):
    """commutator_terms of the batch of one (A, B), and the two spectra."""
    a, b = as_observable(a), as_observable(b)
    _check_same_dim(a.dim, b.dim)
    m, w = np.stack([a.matrix, b.matrix]), np.stack([a.spectrum, b.spectrum])
    v = np.stack([a.eigenbasis.vectors, b.eigenbasis.vectors])
    return [t[0] for t in commutator_terms(m[None], w[None], v[None])], w


def commutator_upper_bound(a, b) -> BoundReport:
    """Check ||[A,B]|| <= (sqrt(n)/2) * spread(A) * spread(B) * d(B_A, B_B).

    Holds for any choice of eigenbases, so degenerate spectra are fine: the
    solver's returned bases are used.
    """
    (norm, upper, *_), _ = _pair_terms(a, b)
    return BoundReport.check(norm, upper)


def commutator_lower_bound(a, b) -> BoundReport:
    """Check d(B_A, B_B) <= sqrt(2n) / (gap(A) * gap(B)) * ||[A,B]||.

    Requires both spectra non-degenerate; raises DegenerateSpectrumError
    naming the offending gap otherwise.  At n = 1 both sides are 0.
    """
    (_, _, d, lower, degenerate), w = _pair_terms(a, b)
    for label, spectrum, bad in zip(("first operand", "second operand"), w, degenerate):
        if bad:
            _, gap, scale = _spectral_scales(spectrum)
            raise DegenerateSpectrumError(
                f"{label} has spectral gap {gap:.3e} (scale {scale:.3e}); "
                f"two eigenvalues coincide within {GAP_SCALE:.0e} * scale"
            )
    return BoundReport.check(d, lower)


def _distribution(weights, points) -> tuple[np.ndarray, np.ndarray]:
    """(w, x) as float vectors, checked: equal lengths, finite entries, and
    weights nonnegative summing to 1 within WEIGHT_SUM_TOL."""
    w = np.asarray(weights, dtype=np.float64)
    x = np.asarray(points, dtype=np.float64)
    if w.shape != x.shape or w.ndim != 1:
        raise DimensionMismatchError(
            f"weights and points must be equal-length vectors, got {w.shape} and {x.shape}"
        )
    _check_finite(w, "weights")
    _check_finite(x, "points")
    if (least := w.min(initial=0.0)) < 0.0:  # an empty vector sums to 0: the sum check rejects it
        raise WeightsNotNormalizedError(f"weight {least:.3e} is negative")
    if (norm_defect := abs(w.sum() - 1.0)) > WEIGHT_SUM_TOL:
        raise WeightsNotNormalizedError(
            f"|sum(weights) - 1| = {norm_defect:.3e} exceeds {WEIGHT_SUM_TOL:.1e}"
        )
    return w, x


def quadratic_jensen_gap(weights, points) -> float:
    """sum(w x^2) - (sum(w x))^2, the gap in the quadratic Jensen inequality."""
    w, x = _distribution(weights, points)
    return float(np.sum(w * x**2) - np.sum(w * x) ** 2)


def jensen_gap_bound(weights, points, epsilon: float) -> BoundReport:
    """Check sum(w_i (1 - w_i)) <= 2 eps / min_{i != j} |x_i - x_j|^2.

    Valid whenever eps bounds the quadratic Jensen gap of (weights, points)
    from above; the caller passes the actual gap or anything larger.
    """
    w, x = _distribution(weights, points)
    _check_finite(np.float64(epsilon), "epsilon")
    spread, gap, _ = map(float, _spectral_scales(np.sort(x)))
    if gap <= GAP_SCALE * spread:
        raise PointsNotDistinctError(f"two points are only {gap:.3e} apart (spread {spread:.3e})")
    lhs = float(np.sum(w * (1.0 - w)))
    rhs = 2.0 * epsilon / gap**2 if np.isfinite(gap) else 0.0
    return BoundReport.check(lhs, rhs)
