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
(eta1(s), tpf_deviation(s, f), check_axiom2, ...) evaluates a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .distance import BoundReport, basis_distances
from .errors import CounterexampleNotFoundError, DimensionMismatchError
from .haar import _haar_from_ginibre, as_generator, sample_haar_unitary
from .linalg import (
    DensityMatrix,
    OrthonormalBasis,
    Subspace,
    _freeze,
    von_neumann_entropy,
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
    unitaries whose columns are the basis vectors; `rep` defaults to their
    rewrite.  The off-diagonal parts and the eigenbases of rho are computed
    once, when first needed; `eigenbases`, a zero-argument callable returning
    the (T, n, n) eigenbases, replaces the batched eigh when they are known.
    The batch trusts its input, like the DensityMatrix constructor.
    """

    def __init__(self, rho: np.ndarray, basis: np.ndarray, rep=None, eigenbases=None):
        self.rho, self.basis = rho, basis
        self.rep = _rewrite(rho, basis) if rep is None else rep
        self._eigenbases = eigenbases or (lambda: np.linalg.eigh(rho)[1])

    @classmethod
    def of(cls, s: StateInBasis) -> "StateBatch":
        """The batch of one holding s; its eigenbasis is s.rho's cached one."""
        return cls(
            s.rho.matrix[None], s.basis.vectors[None], s.rep[None],
            lambda: s.rho.eigensystem()[1].vectors[None],
        )

    @cached_property
    def offdiag(self) -> np.ndarray:
        """rep with each diagonal zeroed: the interference parts Q."""
        return _off_diagonal(self.rep)

    @cached_property
    def eigenbases(self) -> np.ndarray:
        return self._eigenbases()


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
    return basis_distances(b.eigenbases, b.basis)


def _s_rel(b: StateBatch, c: float) -> np.ndarray:
    # Dephasing cannot lower entropy; clip the roundoff-negative case.
    return np.array([
        max(c * (von_neumann_entropy(np.diag(np.diag(rep))) - von_neumann_entropy(rho)), 0.0)
        for rep, rho in zip(b.rep, b.rho)
    ])


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


def _deviations(b: StateBatch, frames: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """|tr(rho P_F) - tr(D P_F)| for S subspaces per state, shape (T, S).

    frames[t, s] is an ambient n x n frame whose first dims[t, s] columns
    span subspace s of state t; its other columns are ignored.  Computed as
    |sum_k <pi_k| Q |pi_k>| with the frame vectors rewritten in the basis.
    """
    w = np.swapaxes(b.basis.conj(), -1, -2)[:, None] @ frames
    qw = b.offdiag[:, None] @ w
    qw *= np.conj(w, out=w)
    per_column = qw.real.sum(axis=-2)
    used = np.arange(w.shape[-1]) < dims[..., None]
    return np.abs(np.where(used, per_column, 0.0).sum(axis=-1))


def tpf_deviation(s: StateInBasis, f: Subspace) -> float:
    """|tr(rho P_F) - tr(D P_F)|, the deviation from total-probability statistics.

    Computed as |sum_k <pi_k| Q |pi_k>| with the frame vectors rewritten in
    the basis of s; agrees with the trace difference to 1e-12.
    """
    if f.ambient_dim != s.dim:
        raise DimensionMismatchError(
            f"subspace ambient dim {f.ambient_dim} vs state dim {s.dim}"
        )
    frame = np.zeros((s.dim, s.dim), dtype=np.complex128)
    frame[:, :f.dim] = f.frame
    return float(_deviations(StateBatch.of(s), frame[None, None], np.array([[f.dim]]))[0, 0])


def random_subspace(n: int, rng, k: int | None = None) -> Subspace:
    """Random subspace: dimension uniform on 1..n unless given, frame from
    the leading columns of a Haar unitary."""
    rng = as_generator(rng)
    if k is None:
        k = int(rng.integers(1, n + 1))
    u = sample_haar_unitary(n, rng)
    return Subspace(u[:, :k])


def draw_subspace(n: int, rng: np.random.Generator, out: np.ndarray) -> int:
    """random_subspace's draws, in its stream order: return the dimension and
    write the frame's Gaussians (re, im) into `out`, shape (2, n, n), for
    haar._haar_from_ginibre."""
    k = int(rng.integers(1, n + 1))
    rng.standard_normal(out=out)
    return k


def _sign_eigenspaces(w: np.ndarray) -> np.ndarray:
    """Masks (..., 3, n) over an ascending spectrum w (..., n) of Q: its
    positive eigenvalues, its negative ones, and its top-|eigenvalue| one."""
    mag = np.abs(w)
    cut = 1e-12 * np.maximum(1.0, mag.max(axis=-1, keepdims=True))
    top = np.arange(w.shape[-1]) == mag.argmax(axis=-1)[..., None]
    return np.stack([w > cut, w < -cut, top], axis=-2)


def adversarial_subspaces(s: StateInBasis) -> list[Subspace]:
    """Worst-case candidates for the total-probability bound.

    Q is Hermitian, so tr(Q P_F) is extremal over subspaces of fixed
    dimension on its sign eigenspaces: the spans of the positive and of the
    negative eigenvectors, plus the single top-|eigenvalue| eigenvector.
    Frames are mapped back to ambient coordinates, in eigenvalue order.
    """
    w, v = np.linalg.eigh(off_diagonal_part(s))
    frame = s.basis.vectors @ v
    return [Subspace(frame[:, chosen]) for chosen in _sign_eigenspaces(w) if chosen.any()]


def subspace_deviations(b: StateBatch, frames: np.ndarray, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dims, deviations), each (T, 3 + R), for the subspace-bound check.

    Per state: the three adversarial_subspaces candidates (dim 0 where one
    is empty), then R random subspaces, spanned by the first ks[t, r]
    columns of the Haar unitaries frames[t, r]; frames is (T, R, n, n).
    A candidate spanned by eigenvectors of Q deviates by |sum of their
    eigenvalues|, so those need only Q's spectrum.
    """
    w = np.linalg.eigvalsh(b.offdiag)
    chosen = _sign_eigenspaces(w)
    adversarial = np.abs(np.where(chosen, w[:, None], 0.0).sum(axis=-1))
    dims = np.concatenate([chosen.sum(axis=-1), ks], axis=1)
    return dims, np.concatenate([adversarial, _deviations(b, frames, ks)], axis=1)


def check_axiom2(s: StateInBasis, measures, trials: int, rng) -> dict:
    """Check tpf_deviation <= dim(F) * measure over random and adversarial F.

    Randomized coverage of the universal quantifier over subspaces, plus the
    deterministic sign-eigenspace candidates of Q; a sound but necessarily
    incomplete check.  Returns {measure: [BoundReport per subspace]}; each
    deviation is computed once, and the draws from `rng` ignore `measures`.
    """
    rng = as_generator(rng)
    n = s.dim
    gauss = np.empty((max(trials, 0), 2, n, n))
    ks = np.array([draw_subspace(n, rng, g) for g in gauss], dtype=np.int64)
    frames = _haar_from_ginibre(gauss[:, 0] + 1j * gauss[:, 1])
    b = StateBatch.of(s)
    dims, devs = subspace_deviations(b, frames[None], ks[None])
    checks = [(int(k), float(dev)) for k, dev in zip(dims[0], devs[0]) if k]
    values = {m: float(measure_values(b, m)[0]) for m in measures}
    return {m: [BoundReport.check(dev, k * value) for k, dev in checks] for m, value in values.items()}


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
    b = StateBatch(np.broadcast_to(rho.matrix, bases.shape), bases,
                   eigenbases=lambda: np.broadcast_to(eigenbasis, bases.shape))
    ds = basis_distances(b.eigenbases, bases)  # delta's values, computed once
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
