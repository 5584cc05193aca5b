"""Basis-relative coherence measures and the axiom-checking harness.

A state rho rewritten in a basis B splits into a diagonal part D (the
classical probabilities) and an off-diagonal part Q (the interferences).
The candidate measures quantify Q:

    eta1    = sum_{i != j} |rep_ij|
    eta2    = (sum_{i != j} |rep_ij|^2)^(1/2)
    eta_inf = n * max_{i != j} |rep_ij|
    delta   = distance between an eigenbasis of rho and B
    s_rel   = c * [S(D) - S(rho)]   (relative entropy of coherence)

A genuine measure must (1) vanish continuously as B approaches an eigenbasis
of rho and (2) bound the deviation from classical total-probability
statistics: |tr(rho P_F) - tr(D P_F)| <= dim(F) * measure for every subspace
F.  The first four satisfy both; s_rel fails (2) for every constant c, and
:func:`srel_counterexample` exhibits a violating instance.  So c is only a
positive scale: a measure is its name in MEASURES, and s_rel's entry is the
c = 1 value, which s_rel(s, c) multiplies by c.

The measures and the subspace-bound kernel compute on a StateBatch, states
rewritten in bases on any leading axes; the scalar state StateInBasis is
the batch with no leading axis, and a state argument enters through
linalg.as_density.  The kernel needs no subspace at all: |tr(Q P_F)| <=
dim(F) * ||Q||_op, with equality on a line through an extreme eigenvector
of Q, so (2) holds for every F exactly when measure >= ||Q||_op: one check
per state.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .distance import BoundReport, overlap_distances, overlap_tables
from .errors import CounterexampleNotFoundError, DimensionMismatchError
from .haar import _hermitian, as_generator
from .linalg import (
    DensityMatrix,
    OrthonormalBasis,
    Subspace,
    _freeze,
    _square_complex,
    as_density,
    entropies,
)


def _rewrite(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u^H rho u over any leading axes."""
    return np.swapaxes(u.conj(), -1, -2) @ rho @ u


class StateBatch:
    """States rewritten in bases, stacked on any leading axes; with no
    leading axis it is one state (StateInBasis).

    `rep` is the (..., n, n) stack of rewrites.  `eigen` is the pair
    (spectra, overlaps): the (..., n) ascending spectra of the states, and
    the (..., n, n) tables |<v_i|b_j>|^2 for their eigenvectors v_i and
    basis vectors b_j, checked ones that the caller holds: the batch runs
    no eigh.  The off-diagonal parts (read-only) are computed once, when
    first needed.  The batch trusts its input.
    """

    def __init__(self, rep: np.ndarray, eigen: tuple[np.ndarray, np.ndarray]):
        self.rep, self.eigen = rep, eigen

    @property
    def dim(self) -> int:
        return self.rep.shape[-1]

    @cached_property
    def offdiag(self) -> np.ndarray:
        """rep with each diagonal zeroed: the interference parts Q."""
        q = self.rep.copy()
        i = np.arange(self.dim)
        q[..., i, i] = 0.0
        return _freeze(q)


class StateInBasis(StateBatch):
    """rho in a basis, rep_ij = <e_i|rho|e_j> read-only: the batch with no
    leading axis, and the one state whose `eigen` is deferred, to its first
    read, from rho's cached eigensystem.  The change of basis is unitary, so
    rep inherits hermiticity, unit trace and positivity from rho;
    diagonal_part(s) + off_diagonal_part(s) == rep exactly.
    """

    def __init__(self, rho: DensityMatrix, basis: OrthonormalBasis, rep: np.ndarray):
        self.rho, self.basis, self.rep = rho, basis, _freeze(rep)

    @cached_property
    def eigen(self) -> tuple[np.ndarray, np.ndarray]:
        w, v = self.rho.eigensystem()
        return w, overlap_tables(v.vectors, self.basis.vectors)


def rewrite_in_basis(rho, basis: OrthonormalBasis) -> StateInBasis:
    """Express rho in the given basis; rho goes through as_density.
    A NaN or infinite basis entry raises NotFiniteError."""
    rho = as_density(rho)
    _square_complex(basis.vectors, "basis")
    if rho.dim != basis.dim:
        raise DimensionMismatchError(f"state dim {rho.dim} vs basis dim {basis.dim}")
    return StateInBasis(rho, basis, _rewrite(rho.matrix, basis.vectors))


def diagonal_part(s: StateInBasis) -> DensityMatrix:
    """The diagonal of rep as a density matrix (expressed in the same basis)."""
    return DensityMatrix(np.diag(np.diag(s.rep)))


def off_diagonal_part(s: StateInBasis) -> np.ndarray:
    """rep with its diagonal zeroed; Hermitian, traceless and read-only."""
    return s.offdiag


# Evaluators: StateBatch -> one value per state, in its leading shape.

def _eta1(b: StateBatch) -> np.ndarray:
    return np.abs(b.offdiag).sum(axis=(-2, -1))


def _eta2(b: StateBatch) -> np.ndarray:
    q = b.offdiag
    q = q.reshape(*q.shape[:-2], 1, q.shape[-1] ** 2)
    # One BLAS dot q^H q per state, as np.vdot computes it.
    return np.sqrt((q.conj() @ np.swapaxes(q, -1, -2))[..., 0, 0].real)


def _eta_inf(b: StateBatch) -> np.ndarray:
    q = b.offdiag
    return q.shape[-1] * np.abs(q).max(axis=(-2, -1))


def _delta(b: StateBatch) -> np.ndarray:
    return overlap_distances(b.eigen[1])


def _s_rel(b: StateBatch) -> np.ndarray:
    """S(D) - S(rho), s_rel at c = 1; s_rel(s, c) scales it by c."""
    # The dephased state is diagonal, so its spectrum is rep's diagonal.
    dephased = entropies(np.diagonal(b.rep, axis1=-2, axis2=-1).real)
    # Dephasing cannot lower entropy; clip the roundoff-negative case.
    return np.maximum(dephased - entropies(b.eigen[0]), 0.0)


MEASURES = {"eta1": _eta1, "eta2": _eta2, "eta_inf": _eta_inf, "delta": _delta, "s_rel": _s_rel}
ETA1, ETA2, ETA_INF, DELTA = "eta1", "eta2", "eta_inf", "delta"

# CSV code = position in MEASURES + 1, so reordering MEASURES changes reports.
MEASURE_CODES = {name: float(code) for code, name in enumerate(MEASURES, 1)}


def _check_srel_constant(c) -> None:
    # NaN fails every comparison, so test the range positively.
    if c is None or not 0.0 < c < np.inf:
        raise ValueError(f"s_rel requires a positive finite constant c, got {c}")


def evaluate_measure(s: StateInBasis, measure: str) -> float:
    """MEASURES[measure] of s; s_rel at c = 1."""
    return float(MEASURES[measure](s))


def eta1(s: StateInBasis) -> float:
    """l1 coherence: sum of |rep_ij| over i != j."""
    return evaluate_measure(s, ETA1)


def eta2(s: StateInBasis) -> float:
    """l2 coherence: sqrt(sum of |rep_ij|^2 over i != j)."""
    return evaluate_measure(s, ETA2)


def eta_inf(s: StateInBasis) -> float:
    """n times the largest off-diagonal magnitude (the decoherence-factor scale)."""
    return evaluate_measure(s, ETA_INF)


def delta(s: StateInBasis) -> float:
    """Distance from an eigenbasis of rho to the basis of interest.

    With a degenerate rho the eigenbasis is not unique; the value at the
    solver's returned eigenbasis is used.
    """
    return evaluate_measure(s, DELTA)


def s_rel(s: StateInBasis, c: float) -> float:
    """Relative entropy of coherence c * [S(diagonal part) - S(rho)], in nats."""
    _check_srel_constant(c)
    return c * evaluate_measure(s, "s_rel")


def tpf_deviation(s: StateInBasis, f: Subspace) -> float:
    """|tr(rho P_F) - tr(D P_F)|, the deviation from total-probability statistics.

    Computed as |sum_k <pi_k| Q |pi_k>| with the frame vectors rewritten in
    the basis of s; agrees with the trace difference to 1e-12.
    """
    if f.ambient_dim != s.dim:
        raise DimensionMismatchError(
            f"subspace ambient dim {f.ambient_dim} vs state dim {s.dim}"
        )
    w = s.basis.vectors.conj().T @ f.frame
    return float(abs(((s.offdiag @ w) * w.conj()).real.sum(axis=0).sum()))


def worst_deviations(b: StateBatch) -> np.ndarray:
    """||Q||_op per state, of b's leading shape: the largest deviation per
    dimension of F.

    tr(Q P_F) is a sum of dim(F) Rayleigh quotients of Q, each between its
    extreme eigenvalues, so |tr(Q P_F)| <= dim(F) * ||Q||_op; a line through
    the eigenvector of the eigenvalue largest in magnitude attains it.
    """
    w = np.linalg.eigvalsh(b.offdiag)
    return np.maximum(w[..., -1], -w[..., 0])


def adversarial_subspaces(s: StateInBasis) -> Subspace:
    """The line attaining worst_deviations: the eigenvector of Q whose
    eigenvalue is largest in magnitude, mapped to ambient coordinates."""
    w, v = np.linalg.eigh(s.offdiag)
    top = -1 if w[-1] >= -w[0] else 0
    return Subspace(s.basis.vectors @ v[:, [top]])


def check_axiom2(s: StateInBasis, measures) -> dict:
    """Check tpf_deviation <= dim(F) * measure over every subspace F.

    The check is exact and one per measure name: deviation ||Q||_op against
    the measure (worst_deviations).  Returns {measure: BoundReport}.
    """
    worst = worst_deviations(s)
    return {m: BoundReport.check(worst, MEASURES[m](s)) for m in measures}


def approach_path(target: OrthonormalBasis, ts, rng) -> list[OrthonormalBasis]:
    """Bases exp(t K) applied to `target` for a fixed random anti-Hermitian K.

    The generator K = iH with H a normalized random Hermitian matrix; as
    t -> 0 the path converges to `target` in basis distance.
    """
    n = target.dim
    h = _hermitian(as_generator(rng).standard_normal((2, n, n)))
    h /= np.linalg.norm(h, 2)
    w, v = np.linalg.eigh(h)
    out = []
    for t in ts:
        flow = (v * np.exp(1j * t * w)) @ v.conj().T
        out.append(OrthonormalBasis(flow @ target.vectors))
    return out


def check_axiom1(rho, measures, path) -> tuple[np.ndarray, dict]:
    """(ds, {measure: values}): d(B_rho, B_t) and measure(rho, B_t) along a path.

    `measures` are names in MEASURES; rho goes through as_density.
    The path is one StateBatch: rho's eigensystem broadcast over the stacked
    path bases.  The caller asserts the continuity claims: values tend to 0
    with d, and for eta2 the pointwise bound eta2 <= d.
    """
    rho = as_density(rho)
    if any(b.dim != rho.dim for b in path):
        raise DimensionMismatchError(f"path bases must have the state dim {rho.dim}")
    bases = np.array([b.vectors for b in path], dtype=np.complex128).reshape(-1, rho.dim, rho.dim)
    w, v = rho.eigensystem()
    eigen = np.broadcast_to(w, bases.shape[:-1]), overlap_tables(v.vectors, bases)
    b = StateBatch(_rewrite(rho.matrix, bases), eigen)
    ds = _delta(b)  # delta's values, computed once
    return ds, {m: ds if m == DELTA else MEASURES[m](b) for m in measures}


SREL_MAX_HALVINGS = 80  # srel_counterexample scans eps = 1, 1/2, ..., 2^-79
SREL_MARGIN_TOL = 1e-12


class SrelCounterexample(NamedTuple):
    epsilon: float
    deviation: float
    bound: float
    margin: float


def srel_family_state(epsilon: float) -> DensityMatrix:
    """The 2x2 family [[1/2, eps/2], [eps/2, 1/2]] used against s_rel."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    return DensityMatrix(np.array([[0.5, 0.5 * epsilon], [0.5 * epsilon, 0.5]]))


def _family_srel(epsilon: float, c: float) -> float:
    """c * [S(D) - S(rho)] for the family state, evaluated without cancellation.

    Equal to c * [ln 2 + sum_pm (1 +- eps)/2 ln((1 +- eps)/2)], rewritten as
    (c/2) [(1+eps) ln(1+eps) + (1-eps) ln(1-eps)]; the naive form loses all
    precision below eps ~ 1e-8, which would fake counterexamples at large c.
    """
    lo = 0.0 if epsilon >= 1.0 else (1.0 - epsilon) * np.log1p(-epsilon)
    return c * 0.5 * ((1.0 + epsilon) * np.log1p(epsilon) + lo)


def srel_counterexample(c: float) -> SrelCounterexample:
    """Find eps in (0, 1] where the total-probability deviation beats c * s_rel.

    On the 2x2 family above with F spanned by (e1 + e2)/sqrt(2), the
    deviation is eps/2 while s_rel grows only like eps^2/2, so halving eps
    from 1 must succeed; the first eps with margin above SREL_MARGIN_TOL is
    returned.  Raises CounterexampleNotFoundError with the scan bound if
    SREL_MAX_HALVINGS halvings never clear it (astronomically large c).
    """
    _check_srel_constant(c)
    basis = OrthonormalBasis.standard(2)
    f = Subspace.from_vectors(np.array([1.0, 1.0]) / np.sqrt(2.0))
    eps = 1.0
    for _ in range(SREL_MAX_HALVINGS):
        s = rewrite_in_basis(srel_family_state(eps), basis)
        deviation = tpf_deviation(s, f)
        bound = _family_srel(eps, c)
        margin = deviation - bound
        if margin > SREL_MARGIN_TOL:
            return SrelCounterexample(eps, deviation, bound, margin)
        eps /= 2.0
    raise CounterexampleNotFoundError(
        f"no epsilon in (0, 1] down to {eps:.3e} gives margin > {SREL_MARGIN_TOL:g} for c = {c:g}"
    )
