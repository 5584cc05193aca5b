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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distance import BoundReport, basis_distance
from .errors import CounterexampleNotFoundError, DimensionMismatchError
from .haar import as_generator, sample_haar_unitary
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


def rewrite_in_basis(rho, basis: OrthonormalBasis) -> StateInBasis:
    """Express rho in the given basis."""
    rho = rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)
    if rho.dim != basis.dim:
        raise DimensionMismatchError(f"state dim {rho.dim} vs basis dim {basis.dim}")
    u = basis.vectors
    return StateInBasis(rho, basis, u.conj().T @ rho.matrix @ u)


def diagonal_part(s: StateInBasis) -> DensityMatrix:
    """The diagonal of rep as a density matrix (expressed in the same basis)."""
    return DensityMatrix(np.diag(np.diag(s.rep)))


def off_diagonal_part(s: StateInBasis) -> np.ndarray:
    """rep with its diagonal zeroed; Hermitian and traceless."""
    q = s.rep.copy()
    np.fill_diagonal(q, 0.0)
    return q


def eta1(s: StateInBasis) -> float:
    """l1 coherence: sum of |rep_ij| over i != j."""
    return float(np.abs(off_diagonal_part(s)).sum())


def eta2(s: StateInBasis) -> float:
    """l2 coherence: sqrt(sum of |rep_ij|^2 over i != j)."""
    q = off_diagonal_part(s)
    return float(np.sqrt(np.vdot(q, q).real))


def eta_inf(s: StateInBasis) -> float:
    """n times the largest off-diagonal magnitude (the decoherence-factor scale)."""
    if s.dim == 1:
        return 0.0
    return float(s.dim * np.abs(off_diagonal_part(s)).max())


def delta(s: StateInBasis) -> float:
    """Distance from an eigenbasis of rho to the basis of interest.

    With a degenerate rho the eigenbasis is not unique; the value at the
    solver's returned eigenbasis is used.
    """
    _, eigenbasis = s.rho.eigensystem()
    return basis_distance(eigenbasis, s.basis)


def s_rel(s: StateInBasis, c: float) -> float:
    """Relative entropy of coherence c * [S(diagonal part) - S(rho)], in nats."""
    if c <= 0:
        raise ValueError(f"constant c must be positive, got {c}")
    value = c * (von_neumann_entropy(diagonal_part(s)) - von_neumann_entropy(s.rho))
    # Dephasing cannot lower entropy; clip the roundoff-negative case.
    return max(value, 0.0)


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
    q = off_diagonal_part(s)
    return float(abs(np.einsum("ak,ab,bk->", w.conj(), q, w).real))


MEASURES = {"eta1": eta1, "eta2": eta2, "eta_inf": eta_inf, "delta": delta, "s_rel": s_rel}

# CSV code = position in MEASURES + 1, so reordering MEASURES changes reports.
MEASURE_CODES = {name: float(code) for code, name in enumerate(MEASURES, 1)}


@dataclass(frozen=True)
class MeasureId:
    """Names one entry of MEASURES (hashable); s_rel carries its constant."""

    name: str
    c: float | None = None

    def __post_init__(self):
        if self.name not in MEASURES:
            raise ValueError(f"unknown measure {self.name!r}")
        if self.name == "s_rel":
            if self.c is None or self.c <= 0:
                raise ValueError("s_rel requires a positive constant c")
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


def evaluate_measure(s: StateInBasis, measure: MeasureId) -> float:
    evaluator = MEASURES[measure.name]
    return evaluator(s) if measure.c is None else evaluator(s, measure.c)


def random_subspace(n: int, rng, k: int | None = None) -> Subspace:
    """Random subspace: dimension uniform on 1..n unless given, frame from
    the leading columns of a Haar unitary."""
    rng = as_generator(rng)
    if k is None:
        k = int(rng.integers(1, n + 1))
    u = sample_haar_unitary(n, rng)
    return Subspace(u[:, :k])


def adversarial_subspaces(s: StateInBasis) -> list[Subspace]:
    """Worst-case candidates for the total-probability bound.

    Q is Hermitian, so tr(Q P_F) is extremal over subspaces of fixed
    dimension on its sign eigenspaces: the spans of the positive and of the
    negative eigenvectors, plus the single top-|eigenvalue| eigenvector.
    Frames are mapped back to ambient coordinates.
    """
    q = off_diagonal_part(s)
    w, v = np.linalg.eigh(q)
    u = s.basis.vectors
    cut = 1e-12 * max(1.0, float(np.abs(w).max()))
    frames = []
    pos = v[:, w > cut]
    neg = v[:, w < -cut]
    if pos.shape[1]:
        frames.append(pos)
    if neg.shape[1]:
        frames.append(neg)
    frames.append(v[:, [int(np.abs(w).argmax())]])
    return [Subspace(u @ f) for f in frames]


def check_axiom2(s: StateInBasis, measures, trials: int, rng) -> dict:
    """Check tpf_deviation <= dim(F) * measure over random and adversarial F.

    Randomized coverage of the universal quantifier over subspaces, plus the
    deterministic sign-eigenspace candidates of Q; a sound but necessarily
    incomplete check.  Returns {measure: [BoundReport per subspace]}; each
    deviation is computed once, and the draws from `rng` ignore `measures`.
    """
    rng = as_generator(rng)
    values = {m: evaluate_measure(s, m) for m in measures}
    subspaces = adversarial_subspaces(s)
    subspaces += [random_subspace(s.dim, rng) for _ in range(trials)]
    deviations = [(f.dim, tpf_deviation(s, f)) for f in subspaces]
    return {
        m: [BoundReport.check(dev, k * value) for k, dev in deviations]
        for m, value in values.items()
    }


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

    One rewrite and one distance per path point.  The caller asserts the
    continuity claims: values tend to 0 with d, and for eta2 the pointwise
    bound eta2 <= d.
    """
    rho = rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)
    _, eigenbasis = rho.eigensystem()
    ds, values = [], {m: [] for m in measures}
    for b in path:
        ds.append(basis_distance(eigenbasis, b))
        s = rewrite_in_basis(rho, b)
        for m, vals in values.items():
            vals.append(evaluate_measure(s, m))
    return np.asarray(ds), {m: np.asarray(vals) for m, vals in values.items()}


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


def srel_counterexample(
    c: float, max_halvings: int = 80, margin_tol: float = 1e-12
) -> SrelCounterexample:
    """Find eps in (0, 1] where the total-probability deviation beats c * s_rel.

    On the 2x2 family above with F spanned by (e1 + e2)/sqrt(2), the
    deviation is eps/2 while s_rel grows only like eps^2/2, so halving eps
    from 1 must succeed; the first eps with margin above `margin_tol` is
    returned.  Raises CounterexampleNotFoundError with the scan bound if
    the margin never clears the tolerance (astronomically large c).
    """
    if c <= 0:
        raise ValueError(f"constant c must be positive, got {c}")
    basis = OrthonormalBasis.standard(2)
    f = Subspace.from_vectors(np.array([1.0, 1.0]) / np.sqrt(2.0))
    eps = 1.0
    for _ in range(max_halvings):
        s = rewrite_in_basis(srel_family_state(eps), basis)
        deviation = tpf_deviation(s, f)
        bound = _family_srel(eps, c)
        margin = deviation - bound
        if margin > margin_tol:
            return SrelCounterexample(eps, deviation, bound, margin)
        eps /= 2.0
    raise CounterexampleNotFoundError(
        f"no epsilon in (0, 1] down to {eps:.3e} gives margin > {margin_tol:g} for c = {c:g}"
    )
