"""Scripted reproductions of the library's verifiable claims.

Each suite returns an :class:`ExperimentReport` whose rows are purely
numeric records; the verdict is pass exactly when there are rows and every
row's `ok` flag is set.  Reports serialize to CSV: a header row, numeric
data rows, then trailing metadata lines prefixed with `#` carrying the
experiment id, parameters (as JSON), seed and verdict.  Identical
parameters and seed reproduce byte-identical files.

Row encodings (CSV cells are numbers only):
  measure: MEASURE_CODES, the 1-based position in measures.MEASURES
  kind (theorem42): 1 = subspace-bound check, 2 = decay path
  family (prop31): 1 = random, 2 = commuting, 3 = unbiased eigenbases, 4 = near-degenerate
  bound (prop31): 1 = upper, 2 = lower
  family (purity): 1 = pure, 2 = mixed of fixed rank, 3 = maximally mixed
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .distance import REPORT_SCALE, commutator_terms, reduce_checks, relative_slacks
from .haar import (
    Z_MAX,
    SeededGenerator,
    _ginibre,
    _haar_from_ginibre,
    _hermitian,
    as_generator,
    estimate_diag_square_sum,
    exact_expected_diag_square_sum,
    exact_expected_eta2_sq,
    random_basis,
)
from .linalg import DensityMatrix, HermitianObservable, checked_eigh, fourier_basis, purity
from .measures import (
    DELTA,
    ETA1,
    ETA2,
    ETA_INF,
    MEASURE_CODES,
    MEASURES,
    StateBatch,
    approach_path,
    check_axiom1,
    srel_counterexample,
    worst_deviations,
)

DEFAULT_N_LIST = (2, 4, 8, 16, 32)
DECAY_TS = tuple(np.geomspace(1e-1, 1e-9, 9))
THEOREM42_MEASURES = (ETA1, ETA2, ETA_INF, DELTA)
PATHS_PER_N = 5

# Absolute slack tolerance for the subspace-bound checks.
AXIOM_SLACK_TOL = 1e-10

# Complex entries per chunk (4096 trials at n = 2, 16 at n = 32), the one
# unit of the subspace-bound check: one substream draw and one stacked check,
# so its size keys the stream and the reports and bounds the peak memory.
_CHUNK_ENTRIES = 16384


@dataclass
class ExperimentReport:
    """Numeric rows plus the parameters and seed that reproduce them."""

    experiment_id: str
    parameters: dict
    rows: list[dict]
    verdict: bool
    seed: int = 0

    @classmethod
    def from_rows(cls, experiment_id, parameters, rows, seed) -> "ExperimentReport":
        return cls(experiment_id, parameters, rows, bool(rows) and all(r["ok"] for r in rows), seed)

    @property
    def columns(self) -> list[str]:
        return list(self.rows[0].keys()) if self.rows else []


def write_report(report: ExperimentReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow(f"{float(row[c]):.17g}" for c in report.columns)
        fh.write(f"# experiment = {report.experiment_id}\n")
        fh.write(f"# parameters = {json.dumps(report.parameters, sort_keys=True)}\n")
        fh.write(f"# seed = {report.seed}\n")
        fh.write(f"# verdict = {'pass' if report.verdict else 'fail'}\n")


def load_report(path) -> ExperimentReport:
    """The report written to path; ValueError unless its verdict line
    matches the verdict of its rows."""
    rows, meta = [], {}
    with open(path, newline="") as fh:
        header = None
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            elif line:
                cells = line.split(",")
                if len(cells) != len(header):
                    raise ValueError(f"{path}:{lineno}: {len(cells)} cells, header has {len(header)}")
                rows.append(dict(zip(header, map(float, cells))))
    if rows and "ok" not in header:
        raise ValueError(f"{path}: the header has no ok column")
    params = json.loads(meta.get("parameters", "{}"))
    report = ExperimentReport.from_rows(meta.get("experiment", ""), params, rows, int(meta.get("seed", 0)))
    word = "pass" if report.verdict else "fail"
    if meta.get("verdict") != word:
        raise ValueError(f"{path}: the rows {word}, but the verdict line reads {meta.get('verdict')!r}")
    return report


def random_hermitian(n: int, rng) -> HermitianObservable:
    return HermitianObservable.from_matrix(_hermitian(as_generator(rng).standard_normal((2, n, n))))


def random_density_matrix(n: int, rng, rank: int | None = None) -> DensityMatrix:
    """Normalized Wishart state G G^H / tr with controllable rank (default full)."""
    rng = as_generator(rng)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if rank is not None and rank < 1:
        raise ValueError(f"rank must be at least 1, got {rank}")
    rank = n if rank is None else min(rank, n)
    g = _ginibre(rng, (n, rank))
    w = g @ g.conj().T
    return DensityMatrix(w / np.trace(w).real)


def _chunk_trials(n: int) -> int:
    """Trials per chunk of the subspace-bound checks at dimension n."""
    return max(1, _CHUNK_ENTRIES // (n * n))


def _laguerre_spectra(chi: np.ndarray) -> np.ndarray:
    """Ascending spectra of normalized full-rank n x n Wishart states.

    chi (..., 2n - 1) holds the lower bidiagonal B of the beta = 2 Laguerre
    model (Dumitriu & Edelman, J. Math. Phys. 43, 2002): its diagonal
    chi_{2n}, chi_{2n-2}, ..., chi_2, then its subdiagonal chi_{2(n-1)},
    ..., chi_2.  The tridiagonal B B^T has the spectrum of G G^H for an
    n x n complex Ginibre G.
    """
    n = (chi.shape[-1] + 1) // 2
    d, e = chi[..., :n], chi[..., n:]
    i = np.arange(n)
    t = np.zeros(chi.shape[:-1] + (n, n))
    t[..., i, i] = d**2
    t[..., i[1:], i[1:]] += e**2
    t[..., i[1:], i[:-1]] = t[..., i[:-1], i[1:]] = d[..., :-1] * e
    lam = np.linalg.eigvalsh(t)
    return lam / lam.sum(axis=-1, keepdims=True)


def _draw_chunk(n: int, trials: range, root: SeededGenerator, block: int):
    """(lam, w, batch) of consecutive subspace-bound trials of one chunk:
    the spectra (T, n), the bases (T, n, n) and their StateBatch; trial 0 is
    the maximally mixed state.

    A Wishart state's eigenvectors are Haar and independent of its spectrum
    lam, so (rho, B) is drawn in rho's eigenframe: rho = diag(lam), the
    basis W Haar, rep = W^H diag(lam) W, and the batch's eigensystem is lam
    with the eigenbasis overlaps |W|^2.
    Chunk c covers trials [c * step, (c + 1) * step) and draws all of them
    from root.substream((block, c)), whatever part is asked for, so it
    replays alone: chi variates, then the (re, im) Gaussians of W.  A range
    that is empty or crosses a chunk edge raises ValueError.
    """
    step = _chunk_trials(n)
    c = trials.start // step
    if not trials or trials.step != 1 or trials.start < 0 or trials[-1] // step != c:
        raise ValueError(f"trials {trials} are not a nonempty run within one chunk of {step}")
    rng = root.substream((block, c))
    df = np.concatenate([np.arange(2 * n, 0, -2), np.arange(2 * n - 2, 0, -2)])
    chi = rng.chisquare(df, size=(step, 2 * n - 1))
    local = slice(trials.start - c * step, trials.stop - c * step)
    lam = _laguerre_spectra(np.sqrt(chi[local]))
    if trials.start == 0:
        lam[0] = 1.0 / n
    w = _haar_from_ginibre(_ginibre(rng, (step, n, n))[local])
    rep = (np.swapaxes(w.conj(), -1, -2) * lam[:, None, :]) @ w
    return lam, w, StateBatch(rep, (lam, np.abs(w) ** 2))


def check_subspace_bound(n: int, trials: range, root: SeededGenerator, block: int) -> dict:
    """{measure: (min slack, checks, ok)} of the subspace bound over `trials`.

    `trials` is a range of consecutive trial indices of block `block` of
    the stream `root`: trial 0 is the maximally mixed state, every other
    trial a Wishart state, each in a Haar-random basis.  Each trial is one
    check per measure of THEOREM42_MEASURES, measure >= ||Q||_op
    (worst_deviations), exact for every subspace.  The min slack is over
    the Wishart trials (inf if none), as trial 0's Q is roundoff; ok needs
    checks and every slack, trial 0's too, to be at least -AXIOM_SLACK_TOL.
    Each chunk, clipped to `trials`, is drawn and checked as one stack; an
    empty range draws nothing.
    """
    if trials.step != 1 or trials.start < 0:
        raise ValueError(f"trials {trials} are not a run of consecutive nonnegative indices")
    slacks = np.empty((len(THEOREM42_MEASURES), len(trials)))
    step = _chunk_trials(n)
    for start in range(trials.start // step * step, trials.stop, step) if trials else ():
        chunk = range(max(trials.start, start), min(trials.stop, start + step))
        batch = _draw_chunk(n, chunk, root, block)[2]
        worst = worst_deviations(batch)
        local = slice(chunk.start - trials.start, chunk.stop - trials.start)
        for row, m in zip(slacks, THEOREM42_MEASURES):
            row[local] = MEASURES[m](batch) - worst
        del batch  # before the next chunk is drawn, to bound the peak memory
    wishart = slacks[:, 1:] if trials.start == 0 else slacks  # trial 0's Q is roundoff
    return {m: (float(w.min(initial=np.inf)), *reduce_checks(row, AXIOM_SLACK_TOL)[1:])
            for m, row, w in zip(THEOREM42_MEASURES, slacks, wishart)}


_THEOREM42_COLUMNS = "kind n measure count min_slack final_d final_value monotone ok".split()


def _theorem42_row(kind, n, m: str, **cells) -> dict:
    """One theorem42 row in column order, as floats; cells not given are NaN."""
    row = dict.fromkeys(_THEOREM42_COLUMNS, np.nan)
    row.update(kind=kind, n=n, measure=MEASURE_CODES[m], **cells)
    return {k: float(v) for k, v in row.items()}


def run_theorem42_suite(n_list=DEFAULT_N_LIST, trials: int = 500, seed: int = 0) -> ExperimentReport:
    """Subspace-bound and decay checks for THEOREM42_MEASURES.

    Per dimension: check_subspace_bound on `trials` random (state, basis)
    pairs plus the maximally mixed state, one ||Q||_op check per state, so
    a bound row counts trials + 1; then check_axiom1 along PATHS_PER_N
    random basis paths.  Block b (the b-th n) draws chunk c of its bound
    trials (chunk_trials per chunk) from spawn key (b, c) alone, and its
    paths from root.substream(b).  A bound row with zero checks fails.
    s_rel is not checked here: run_srel_demo reports its counterexample.
    Every n must be at least 2: at n = 1 the decay path is constant 0, so
    it cannot decrease.
    """
    if any(n < 2 for n in n_list):
        raise ValueError(f"theorem42 needs every n >= 2, got {list(n_list)}")
    root = SeededGenerator(seed)
    rows = []
    for block, n in enumerate(n_list):
        # Trial 0 exercises the degenerate maximally mixed state.
        checked = check_subspace_bound(n, range(trials + 1), root, block)
        for m, (slack, count, ok) in checked.items():
            rows.append(_theorem42_row(1, n, m, count=count, min_slack=slack, ok=ok))
        rng = root.substream(block)
        for _ in range(PATHS_PER_N):
            rho = random_density_matrix(n, rng)
            path = approach_path(rho.eigensystem()[1], DECAY_TS, rng)
            ds, values = check_axiom1(rho, THEOREM42_MEASURES, path)
            for m in THEOREM42_MEASURES:
                vals = values[m]
                # Pointwise envelopes from the continuity argument:
                # eta2 <= d, delta = d, and eta1, eta_inf <= n * eta2.
                bound = ds if m in (ETA2, DELTA) else n * values[ETA2]
                slack, count, ok = reduce_checks(bound - vals, AXIOM_SLACK_TOL)
                monotone = bool((np.diff(vals) < 0).all())
                ok = ok and monotone and ds[-1] < 1e-6 and vals[-1] < 1e-6
                rows.append(_theorem42_row(
                    2, n, m, count=count, min_slack=slack, final_d=ds[-1],
                    final_value=vals[-1], monotone=monotone, ok=ok,
                ))
    parameters = {
        "n_list": list(n_list), "trials": trials, "paths_per_n": PATHS_PER_N,
        "measures": list(THEOREM42_MEASURES),
        "chunk_trials": [_chunk_trials(n) for n in n_list],
    }
    return ExperimentReport.from_rows("theorem42", parameters, rows, seed)


def _commuting_pair(n, rng):
    a = np.sort(rng.standard_normal(n)) * 2.0
    b = rng.permutation(np.linspace(-1.0, 1.0, n)) + 0.01 * rng.standard_normal(n)
    return np.diag(a).astype(complex), np.diag(b).astype(complex)


def _unbiased_eigenbasis_pair(n, rng):
    f = fourier_basis(n).vectors
    return np.diag(np.arange(n, dtype=complex)), (f * rng.standard_normal(n)) @ f.conj().T


def _near_degenerate_pair(n, rng):
    w = np.sort(rng.standard_normal(n))
    w[1] = w[0] + 1e-13  # gap far below the degeneracy threshold
    v = random_basis(n, rng).vectors
    return (v * w) @ v.conj().T, _hermitian(rng.standard_normal((2, n, n)))


def _prop31_row(n, family, bound, lhs, rhs) -> dict:
    """One prop31 row over the checks lhs <= rhs; no checks fail the row."""
    min_rel_slack, count, ok = reduce_checks(relative_slacks(lhs, rhs), REPORT_SCALE)
    return {"n": float(n), "family": family, "bound": bound, "count": float(count),
            "min_rel_slack": min_rel_slack, "ok": float(ok)}


def run_proposition31_suite(
    n_list=DEFAULT_N_LIST, trials: int = 200, seed: int = 0
) -> ExperimentReport:
    """Commutator bound checks on random and hand-built Hermitian pairs.

    Random Gaussian pairs have non-degenerate spectra almost surely and
    exercise both bounds; the near-degenerate family exercises only the
    upper bound (the lower one's precondition fails by construction, so it
    writes no lower row).  Each family is one commutator_terms stack.
    Every n must be at least 2, the smallest dimension with a spectral gap.
    """
    if any(n < 2 for n in n_list):
        raise ValueError(f"prop31 needs every n >= 2, got {list(n_list)}")
    root = SeededGenerator(seed)
    rows = []
    for block, n in enumerate(n_list):
        rng = root.substream(block)
        # random_hermitian's stream: (re, im) of A, then of B, pair by pair.
        families = {
            1.0: _hermitian(rng.standard_normal((max(trials, 0), 2, 2, n, n))),
            2.0: np.array([_commuting_pair(n, rng)]),
            3.0: np.array([_unbiased_eigenbasis_pair(n, rng)]),
            4.0: np.array([_near_degenerate_pair(n, rng)]),
        }
        for family, pairs in families.items():
            norm, upper, d, lower, degenerate = commutator_terms(pairs, *checked_eigh(pairs))
            rows.append(_prop31_row(n, family, 1.0, norm, upper))
            valid = ~degenerate.any(axis=-1)
            if valid.any():
                rows.append(_prop31_row(n, family, 2.0, d[valid], lower[valid]))
    parameters = {"n_list": list(n_list), "trials": trials}
    return ExperimentReport.from_rows("prop31", parameters, rows, seed)


_FAMILY_CODES = {"pure": 1.0, "mixed": 2.0, "maximally_mixed": 3.0}
PURITY_FAMILIES = tuple(_FAMILY_CODES)


def run_purity_sweep(
    n_list=(4, 8, 16, 32),
    samples: int = 2000,
    seed: int = 0,
    rank: int = 2,
) -> ExperimentReport:
    """Monte Carlo eta2^2 over Haar-random bases against the exact formulas.

    Per (dimension, state family): sample mean of eta2^2 and of the
    deviation |eta2^2 - tr(rho^2)|, their exact predictions and z-scores.
    A row passes when both |z| <= Z_MAX and the deviation has not increased
    from the previous dimension of the same family.  n_list must strictly
    increase, so that the previous dimension is the smaller one.
    """
    if any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"purity needs a strictly increasing n list, got {list(n_list)}")
    root = SeededGenerator(seed)
    rows = []
    last_dev: dict[str, float] = {}
    for block, n in enumerate(n_list):
        rng = root.substream(block)
        ranks = {"pure": 1, "mixed": min(rank, n), "maximally_mixed": n}
        for family in PURITY_FAMILIES:
            if family == "maximally_mixed":
                rho = DensityMatrix.maximally_mixed(n)
            else:
                rho = random_density_matrix(n, rng, rank=ranks[family])
            p = purity(rho)
            dev = estimate_diag_square_sum(rho, samples, rng)
            dev_exact = exact_expected_diag_square_sum(rho)
            z = dev.z_score(dev_exact)
            nonincreasing = dev.mean <= last_dev.get(family, np.inf)
            last_dev[family] = dev.mean
            rows.append({
                "n": float(n), "family": _FAMILY_CODES[family], "rank": float(ranks[family]),
                "purity": p,
                "eta2sq_mean": p - dev.mean,
                "eta2sq_exact": exact_expected_eta2_sq(rho),
                "eta2sq_z": -z,  # eta2^2 = purity - T per sample: same error, flipped sign
                "dev_mean": dev.mean,
                "dev_se": dev.std_error,
                "dev_exact": dev_exact,
                "dev_z": z,
                "nonincreasing": float(nonincreasing),
                "ok": float(abs(z) <= Z_MAX and nonincreasing),
            })
    parameters = {"n_list": list(n_list), "samples": samples, "states": list(PURITY_FAMILIES),
                  "rank": rank}
    return ExperimentReport.from_rows("purity", parameters, rows, seed)


def run_srel_demo(c_list=(0.1, 1.0, 10.0, 100.0), seed: int = 0) -> ExperimentReport:
    """Counterexample search for the relative entropy of coherence at each c."""
    rows = []
    for c in c_list:
        found = srel_counterexample(c)
        rows.append({
            "c": float(c),
            "epsilon": found.epsilon,
            "deviation": found.deviation,
            "bound": found.bound,
            "margin": found.margin,
            "ok": float(found.margin > 0.0),
        })
    return ExperimentReport.from_rows("srel", {"c_list": list(c_list)}, rows, seed)
