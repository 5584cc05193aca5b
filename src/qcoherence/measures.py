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
:func:`srel_counterexample` exhibits a violating instance.

The measures and the subspace-bound kernel compute on a StateBatch, T
states rewritten in T bases stacked on a leading axis.  The scalar API
(eta1(s), check_axiom2, ...) evaluates a batch of one.  The kernel needs no
subspace at all: |tr(Q P_F)| <= dim(F) * ||Q||_op, with equality on a line
through an extreme eigenvector of Q, so (2) holds for every F exactly when
measure >= ||Q||_op: one check per state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .distance import BoundReport, overlap_distances, overlap_tables
from .errors import CounterexampleNotFoundError, DimensionMismatchError
from .haar import as_generator, sample_haar_unitary
from .linalg import (
    DensityMatrix,
    OrthonormalBasis,
    Subspace,
    _freeze,
    entropies,
)

@dataclass(frozen=True)
class StateInBasis:
    """A density matrix together with its representation rep_ij = <e_i|rho|e_j>.

    The change of basis is unitary, so rep inherits hermiticity, unit trace
    and positivity from rho.  diagonal_part(s) + off_diagonal_part(s) == rep
    exactly (entrywise, same storage).
    """

    rho: DensityMatrix
    basis: OrthonormalBasis
    rep: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rep", _freeze(np.asarray(self.rep, dtype=np.complex128)))

    @property
    def dim(self) -> int:
        return self.rep.shape[0]


def _rewrite(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u^H rho u over any leading axes."""
    return np.swapaxes(u.conj(), -1, -2) @ rho @ u


def _off_diagonal(rep: np.ndarray) -> np.ndarray:
    q = rep.copy()
    i = np.arange(rep.shape[-1])
    q[..., i, i] = 0.0
    return q


def rewrite_in_basis(rho, basis: OrthonormalBasis) -> StateInBasis:
    """Express rho in the given basis."""
    rho = rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)
    if rho.dim != basis.dim:
        raise DimensionMismatchError(f"state dim {rho.dim} vs basis dim {basis.dim}")
    return StateInBasis(rho, basis, _rewrite(rho.matrix, basis.vectors))


class StateBatch:
    """T states rewritten in T bases, stacked on a leading axis.

    `rho` and `basis` are (T, n, n) stacks of density matrices and of
    unitaries whose columns are the basis vectors; `rep` is their rewrite,
    computed here if None.  `overlaps`, a zero-argument callable, returns
    the (T, n, n) squared overlaps between eigenbases of rho that the
    caller holds (checked ones) and the bases: the batch runs no eigh.  The
    off-diagonal parts and the overlaps are computed once, when first
    needed.  Given rep, rho may be None if s_rel is not read.  The batch
    trusts its input.
    """

    def __init__(self, rho: np.ndarray, basis: np.ndarray, rep, overlaps):
        self.rho, self.basis, self._overlaps = rho, basis, overlaps
        self.rep = _rewrite(rho, basis) if rep is None else rep

    @classmethod
    def of(cls, s: StateInBasis) -> "StateBatch":
        """The batch of one holding s; its eigenbasis is s.rho's cached one."""
        return cls(
            s.rho.matrix[None], s.basis.vectors[None], s.rep[None],
            lambda: overlap_tables(s.rho.eigensystem()[1].vectors[None], s.basis.vectors[None]),
        )

    @cached_property
    def offdiag(self) -> np.ndarray:
        """rep with each diagonal zeroed: the interference parts Q."""
        return _off_diagonal(self.rep)

    @cached_property
    def overlaps(self) -> np.ndarray:
        """|<v_i|b_j>|^2 for eigenvectors v_i of rho and basis vectors b_j."""
        return self._overlaps()


def diagonal_part(s: StateInBasis) -> DensityMatrix:
    """The diagonal of rep as a density matrix (expressed in the same basis)."""
    return DensityMatrix(np.diag(np.diag(s.rep)))


def off_diagonal_part(s: StateInBasis) -> np.ndarray:
    """rep with its diagonal zeroed; Hermitian and traceless."""
    return _off_diagonal(s.rep)


# Batched evaluators: StateBatch (and s_rel's constant) -> one value per state.

def _eta1(b: StateBatch) -> np.ndarray:
    return np.abs(b.offdiag).sum(axis=(-2, -1))


def _eta2(b: StateBatch) -> np.ndarray:
    q = b.offdiag
    q = q.reshape(len(q), 1, q.shape[-1] ** 2)
    # One BLAS dot q^H q per state, as np.vdot computes it.
    return np.sqrt((q.conj() @ np.swapaxes(q, -1, -2))[:, 0, 0].real)


def _eta_inf(b: StateBatch) -> np.ndarray:
    q = b.offdiag
    return q.shape[-1] * np.abs(q).max(axis=(-2, -1))


def _delta(b: StateBatch) -> np.ndarray:
    return overlap_distances(b.overlaps)


def _s_rel(b: StateBatch, c: float) -> np.ndarray:
    # The dephased state is diagonal, so its spectrum is rep's diagonal.
    dephased = entropies(np.diagonal(b.rep, axis1=-2, axis2=-1).real)
    # Dephasing cannot lower entropy; clip the roundoff-negative case.
    return np.maximum(c * (dephased - entropies(np.linalg.eigvalsh(b.rho))), 0.0)


MEASURES = {"eta1": _eta1, "eta2": _eta2, "eta_inf": _eta_inf, "delta": _delta, "s_rel": _s_rel}

# CSV code = position in MEASURES + 1, so reordering MEASURES changes reports.
MEASURE_CODES = {name: float(code) for code, name in enumerate(MEASURES, 1)}


def _check_srel_constant(c) -> None:
    # NaN fails every comparison, so test the range positively.
    if c is None or not 0.0 < c < np.inf:
        raise ValueError(f"s_rel requires a positive finite constant c, got {c}")


@dataclass(frozen=True)
class MeasureId:
    """Names one entry of MEASURES (hashable); s_rel carries its constant."""

    name: str
    c: float | None = None

    def __post_init__(self):
        if self.name not in MEASURES:
            raise ValueError(f"unknown measure {self.name!r}")
        if self.name == "s_rel":
            _check_srel_constant(self.c)
        elif self.c is not None:
            raise ValueError(f"{self.name} takes no constant")

    def label(self) -> str:
        return f"s_rel(c={self.c:g})" if self.name == "s_rel" else self.name


ETA1 = MeasureId("eta1")
ETA2 = MeasureId("eta2")
ETA_INF = MeasureId("eta_inf")
DELTA = MeasureId("delta")


def srel_id(c: float) -> MeasureId:
    return MeasureId("s_rel", c)


def measure_values(b: StateBatch, measure: MeasureId) -> np.ndarray:
    """The measure of every state in the batch, shape (T,)."""
    evaluator = MEASURES[measure.name]
    return evaluator(b) if measure.c is None else evaluator(b, measure.c)


def evaluate_measure(s: StateInBasis, measure: MeasureId) -> float:
    return float(measure_values(StateBatch.of(s), measure)[0])


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
    return evaluate_measure(s, srel_id(c))


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
    return float(abs(((off_diagonal_part(s) @ w) * w.conj()).real.sum(axis=0).sum()))


def random_subspace(n: int, rng, k: int | None = None) -> Subspace:
    """Random subspace: dimension k in 1..n (ValueError otherwise), uniform
    unless given, frame from the leading columns of a Haar unitary."""
    rng = as_generator(rng)
    if k is None:
        k = int(rng.integers(1, n + 1))
    elif not 1 <= k <= n:
        raise ValueError(f"subspace dimension must lie in 1..{n}, got {k}")
    u = sample_haar_unitary(n, rng)
    return Subspace(u[:, :k])


def worst_deviations(b: StateBatch) -> np.ndarray:
    """||Q||_op per state, (T,): the largest deviation per dimension of F.

    tr(Q P_F) is a sum of dim(F) Rayleigh quotients of Q, each between its
    extreme eigenvalues, so |tr(Q P_F)| <= dim(F) * ||Q||_op; a line through
    the eigenvector of the eigenvalue largest in magnitude attains it.
    """
    w = np.linalg.eigvalsh(b.offdiag)
    return np.maximum(w[..., -1], -w[..., 0])


def adversarial_subspaces(s: StateInBasis) -> Subspace:
    """The line attaining worst_deviations: the eigenvector of Q whose
    eigenvalue is largest in magnitude, mapped to ambient coordinates."""
    w, v = np.linalg.eigh(off_diagonal_part(s))
    top = -1 if w[-1] >= -w[0] else 0
    return Subspace(s.basis.vectors @ v[:, [top]])


def check_axiom2(s: StateInBasis, measures) -> dict:
    """Check tpf_deviation <= dim(F) * measure over every subspace F.

    The check is exact and one per measure: deviation ||Q||_op against the
    measure (worst_deviations).  Returns {measure: BoundReport}.
    """
    b = StateBatch.of(s)
    worst = worst_deviations(b)[0]
    return {m: BoundReport.check(worst, measure_values(b, m)[0]) for m in measures}


def approach_path(target: OrthonormalBasis, ts, rng) -> list[OrthonormalBasis]:
    """Bases exp(t K) applied to `target` for a fixed random anti-Hermitian K.

    The generator K = iH with H a normalized random Hermitian matrix; as
    t -> 0 the path converges to `target` in basis distance.
    """
    rng = as_generator(rng)
    n = target.dim
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2.0
    h /= np.linalg.norm(h, 2)
    w, v = np.linalg.eigh(h)
    out = []
    for t in ts:
        flow = (v * np.exp(1j * t * w)) @ v.conj().T
        out.append(OrthonormalBasis(flow @ target.vectors))
    return out


def check_axiom1(rho, measures, path) -> tuple[np.ndarray, dict]:
    """(ds, {measure: values}): d(B_rho, B_t) and measure(rho, B_t) along a path.

    The path is one StateBatch: rho and its eigenbasis broadcast over the
    stacked path bases.  The caller asserts the continuity claims: values
    tend to 0 with d, and for eta2 the pointwise bound eta2 <= d.
    """
    rho = rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)
    if any(b.dim != rho.dim for b in path):
        raise DimensionMismatchError(f"path bases must have the state dim {rho.dim}")
    bases = np.array([b.vectors for b in path], dtype=np.complex128).reshape(-1, rho.dim, rho.dim)
    eigenbasis = rho.eigensystem()[1].vectors
    b = StateBatch(np.broadcast_to(rho.matrix, bases.shape), bases, None,
                   lambda: overlap_tables(np.broadcast_to(eigenbasis, bases.shape), bases))
    ds = measure_values(b, DELTA)  # delta's values, computed once
    return ds, {m: ds if m == DELTA else measure_values(b, m) for m in measures}


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
