"""Basis-relative coherence measures and the axiom-checking kernels.

A state rho rewritten in a basis B splits into a diagonal part D (the
classical probabilities) and an off-diagonal part Q (the interferences).
The candidate measures quantify Q:

    eta1    = sum_{i != j} |rep_ij|
    eta2    = (sum_{i != j} |rep_ij|^2)^(1/2)
    eta_inf = n * max_{i != j} |rep_ij|
    delta   = distance between rho's eigenspace decomposition and B
    s_rel   = c * [S(D) - S(rho)] = c * sum_ki o_ki d_i phi(lam_k / d_i - 1)
(the relative entropy of coherence; lam_k is rho's spectrum, d_i = rep_ii,
o_ki = |<v_k|b_i>|^2, phi(u) = (1 + u) ln(1 + u) - u and 0 ln 0 = 0).

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

import numbers
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .distance import overlap_distances, overlap_tables
from .errors import CounterexampleNotFoundError
from .haar import _haar_chunk, as_generator
from .linalg import (
    DensityMatrix,
    OrthonormalBasis,
    Subspace,
    _check_finite,
    _check_same_dim,
    _freeze,
    as_density,
    checked_eigh,
    operator_norms,
)


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


def _in_bases(rho, bases, name: str) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """(rep, eigen) of rho, through as_density, in each basis B of a
    (..., n, n) stack, rep = B^H rho B: the one builder of a state in bases.
    Errors for a NaN or infinite entry or any other shape name the stack `name`."""
    rho = as_density(rho)
    bases = np.asarray(bases, dtype=np.complex128)
    _check_finite(bases, name)
    _check_same_dim(bases.shape[-2:], (rho.dim, rho.dim), f"{name} shape vs state shape")
    w, v = rho.eigensystem()
    eigen = np.broadcast_to(w, bases.shape[:-1]), overlap_tables(v.vectors, bases)
    return _freeze(np.swapaxes(bases.conj(), -1, -2) @ rho.matrix @ bases), eigen


class StateInBasis(StateBatch):
    """rho in a basis, rep_ij = <e_i|rho|e_j> read-only: the batch with no
    leading axis, built by _in_bases.  The change of basis is unitary, so
    rep inherits hermiticity, unit trace and positivity from rho;
    np.diag(np.diag(s.rep)) + s.offdiag == rep exactly.
    """

    def __init__(self, rho, basis: OrthonormalBasis):
        self.basis = basis
        super().__init__(*_in_bases(rho, basis.vectors, "basis"))


def rewrite_in_basis(rho, basis: OrthonormalBasis) -> StateInBasis:
    """Express rho in the given basis, with rho's eigensystem: StateInBasis."""
    return StateInBasis(rho, basis)


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
    w, o = b.eigen
    return overlap_distances(o, w)


_PHI_SERIES = 1.0 / np.arange(25.0, 2.0, -2.0)  # 1 / (2j + 3), j = 11..0: S below, for np.polyval


def _s_rel(b: StateBatch) -> np.ndarray:
    """s_rel at c = 1 from the spectra lam_k, overlaps o_ki and diagonals d_i = rep_ii.

    d_i = sum_k o_ki lam_k and o sums to 1 over k and over i, so S(D) - S(rho)
    = sum_ki o_ki d_i phi(lam_k / d_i - 1), a sum of nonnegative terms: nothing
    cancels near incoherence.  Where |t| < 1/4, t = u / (2 + u), phi(u) = u t [1 +
    (1 + t) t S(t^2)], S(x) = sum_j x^j / (2j + 3) cut after j = 11 (error < 1e-16).
    """
    # Solver jitter within the PSD tolerance is clamped; lam <= 1 keeps r finite.
    lam = np.maximum(b.eigen[0], 0.0)[..., :, None]
    d = np.maximum(np.diagonal(b.rep, axis1=-2, axis2=-1).real, 0.0)[..., None, :]
    r = lam / np.maximum(d, np.finfo(float).tiny)
    terms = lam * np.log(np.where(r > 0.0, r, 1.0)) - lam + d  # 0 ln 0 = 0
    u = r - 1.0
    t = u / (1.0 + r)
    near = np.flatnonzero(np.abs(t) < 0.25)  # the series only there, put over the far form
    du, t = (d * u).take(near), t.take(near)
    np.put(terms, near, du * t * (1.0 + (1.0 + t) * t * np.polyval(_PHI_SERIES, t * t)))
    return (b.eigen[1] * terms).sum(axis=(-2, -1))


MEASURES = {"eta1": _eta1, "eta2": _eta2, "eta_inf": _eta_inf, "delta": _delta, "s_rel": _s_rel}
ETA1, ETA2, ETA_INF, DELTA = "eta1", "eta2", "eta_inf", "delta"

# CSV code = position in MEASURES + 1, so reordering MEASURES changes reports.
MEASURE_CODES = {name: float(code) for code, name in enumerate(MEASURES, 1)}


def _check_srel_constant(c) -> None:
    # NaN fails every comparison, so test the range positively, once c is real.
    if not isinstance(c, numbers.Real) or not 0.0 < c < np.inf:
        raise ValueError(f"s_rel requires a positive finite constant c, got {c}")


def _evaluator(name: str):
    """MEASURES[name], the one lookup of a measure name: ValueError if unknown."""
    if name not in MEASURES:
        raise ValueError(f"unknown measure {name!r}")
    return MEASURES[name]


def evaluate_measure(s: StateInBasis, measure: str) -> float:
    """MEASURES[measure] of s; s_rel at c = 1."""
    return float(_evaluator(measure)(s))


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
    """Distance from rho's eigenspace decomposition to the basis
    (distance.overlap_distances with rho's spectrum): 0 exactly when each
    basis vector lies in an eigenspace, whichever eigenbasis rho keeps.  Its
    degeneracy rule makes it jump in rho at the GAP_SCALE threshold; axiom 1
    holds rho fixed.

    eta2 <= delta / sqrt(2), with equality for pure states: with p_Ej from
    overlap_distances, K = diag(dim E) and lam_E the distinct eigenvalues,
    eta2^2 = lam^T (K - p p^T) lam, PSD by Jensen over each column of p, so
    convex on the simplex sum_E dim(E) lam_E = 1.  It peaks at a vertex
    lam = e_E / dim(E), at sum_j p_Ej (1 - p_Ej) / dim(E)^2 <= delta^2 / 2,
    as p_Ej <= 1 - p_Fj for F != E.
    """
    return evaluate_measure(s, DELTA)


def s_rel(s: StateInBasis, c: float) -> float:
    """Relative entropy of coherence c * sum_ki o_ki d_i phi(lam_k / d_i - 1), in nats."""
    _check_srel_constant(c)
    return c * evaluate_measure(s, "s_rel")


def tpf_deviation(s: StateInBasis, f: Subspace) -> float:
    """|tr(rho P_F) - tr(D P_F)|, the deviation from total-probability statistics.

    Computed as |sum_k <pi_k| Q |pi_k>| with the frame vectors rewritten in
    the basis of s; agrees with the trace difference to 1e-12.
    """
    _check_same_dim(f.ambient_dim, s.dim, "subspace ambient dim vs state dim")
    w = s.basis.vectors.conj().T @ f.frame
    return float(abs(((s.offdiag @ w) * w.conj()).real.sum(axis=0).sum()))


def worst_deviations(b: StateBatch) -> np.ndarray:
    """||Q||_op per state, of b's leading shape: the largest deviation per
    dimension of F.

    tr(Q P_F) is a sum of dim(F) Rayleigh quotients of Q, each between its
    extreme eigenvalues, so |tr(Q P_F)| <= dim(F) * ||Q||_op; a line through
    the eigenvector of the eigenvalue largest in magnitude attains it.
    """
    return operator_norms(b.offdiag)


def adversarial_subspaces(s: StateInBasis) -> Subspace:
    """The line attaining worst_deviations: the eigenvector of Q whose
    eigenvalue is largest in magnitude, mapped to ambient coordinates."""
    w, v = checked_eigh(s.offdiag)
    top = -1 if w[-1] >= -w[0] else 0
    return Subspace(s.basis.vectors @ v[:, [top]])


def check_axiom2(b: StateBatch, measures) -> dict:
    """{measure: slacks}, measure - ||Q||_op (worst_deviations) per state of b
    in its leading shape, for names in MEASURES: tpf_deviation <= dim(F) *
    measure holds for every subspace F exactly where the slack is >= 0.
    As for check_axiom1, the caller judges roundoff in the slacks.
    """
    evaluators = {m: _evaluator(m) for m in measures}
    worst = worst_deviations(b)
    return {m: f(b) - worst for m, f in evaluators.items()}


def approach_path(target: OrthonormalBasis, ts, rng) -> np.ndarray:
    """The (T, n, n) stack of bases exp(i t H) target, one per t in `ts`, for
    a fixed random H = W diag(h) W^H: W Haar, h uniform on [-1, 1] scaled to
    max |h| = ||H||_op = 1; no t gives an empty (0, n, n) stack.  As t -> 0
    the path converges to `target` in basis distance, and exp(i t H) = W
    diag(e^{i t h}) W^H runs no eigh.
    """
    rng = as_generator(rng)
    w = _haar_chunk(rng, (target.dim, target.dim))
    h = rng.uniform(-1.0, 1.0, target.dim)
    phases = np.exp(1j * np.outer(ts, h / np.abs(h).max()))
    return (w * phases[:, None, :]) @ w.conj().T @ target.vectors


def check_axiom1(rho, measures, path) -> tuple[np.ndarray, dict]:
    """(ds, {measure: values}): delta(rho, B_t), the distance d from rho's
    eigenspaces, and measure(rho, B_t) along a path.

    `measures` are names in MEASURES.  `path` is a (T, n, n) stack of basis
    matrices, as approach_path returns it; rho in it is one _in_bases batch.
    The caller asserts the continuity claims: values tend to 0 with d, and
    for eta2 the pointwise bound eta2 <= d / sqrt(2) (proved at delta).
    """
    evaluators = {m: _evaluator(m) for m in measures}
    b = StateBatch(*_in_bases(rho, path, "path"))
    ds = _delta(b)  # delta's values, computed once
    return ds, {m: ds if m == DELTA else f(b) for m, f in evaluators.items()}


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
        bound = s_rel(s, c)
        margin = deviation - bound
        if margin > SREL_MARGIN_TOL:
            return SrelCounterexample(eps, deviation, bound, margin)
        eps /= 2.0
    raise CounterexampleNotFoundError(
        f"no epsilon in (0, 1] down to {eps:.3e} gives margin > {SREL_MARGIN_TOL:g} for c = {c:g}"
    )
