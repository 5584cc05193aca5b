"""Scripted reproductions of the library's verifiable claims.

Each suite returns an :class:`ExperimentReport` whose rows are purely
numeric records; the verdict is pass exactly when every row's `ok` flag is
set.  Reports serialize to CSV: a header row, numeric data rows, then
trailing metadata lines prefixed with `#` carrying the experiment id,
parameters (as JSON), seed and verdict.  Identical parameters and seed
reproduce byte-identical files.

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
from dataclasses import dataclass, field

import numpy as np

from .distance import commutator_terms, relative_slacks
from .haar import (
    SeededGenerator,
    _haar_from_ginibre,
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
    MeasureId,
    StateBatch,
    approach_path,
    check_axiom1,
    measure_values,
    srel_counterexample,
    worst_deviations,
)

DEFAULT_N_LIST = (2, 4, 8, 16, 32)
DECAY_TS = tuple(np.geomspace(1e-1, 1e-9, 9))
THEOREM42_MEASURES = (ETA1, ETA2, ETA_INF, DELTA)
PATHS_PER_N = 5

# Absolute slack tolerance for the subspace-bound checks.
AXIOM_SLACK_TOL = 1e-10

# Complex entries per chunk, the unit of the subspace-bound stream (1024
# trials at n = 2, 4 at n = 32): its size keys the stream and the reports.
_STACK_ENTRIES = 4096
# Complex entries per group, the run of chunks checked as one stack (16
# trials at n = 32): it bounds peak memory and leaves the reports unchanged.
_GROUP_ENTRIES = 16384


@dataclass
class ExperimentReport:
    """Numeric rows plus the parameters and seed that reproduce them."""

    experiment_id: str
    parameters: dict
    rows: list[dict] = field(default_factory=list)
    verdict: bool = True
    seed: int = 0

    @classmethod
    def from_rows(cls, experiment_id, parameters, rows, seed) -> "ExperimentReport":
        return cls(experiment_id, parameters, rows, all(bool(r["ok"]) for r in rows), seed)

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
    rows, meta = [], {}
    with open(path, newline="") as fh:
        header = None
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(dict(zip(header, (float(x) for x in line.split(",")))))
    return ExperimentReport(
        experiment_id=meta.get("experiment", ""),
        parameters=json.loads(meta.get("parameters", "{}")),
        rows=rows,
        verdict=meta.get("verdict") == "pass",
        seed=int(meta.get("seed", 0)),
    )


def _hermitian(gauss: np.ndarray) -> np.ndarray:
    """(G + G^H) / 2 over any leading axes, where
    G = gauss[..., 0, :, :] + 1j * gauss[..., 1, :, :]."""
    g = gauss[..., 0, :, :] + 1j * gauss[..., 1, :, :]
    return (g + np.swapaxes(g.conj(), -1, -2)) / 2.0


def random_hermitian(n: int, rng) -> HermitianObservable:
    return HermitianObservable.from_matrix(_hermitian(as_generator(rng).standard_normal((2, n, n))))


def random_density_matrix(n: int, rng, rank: int | None = None) -> DensityMatrix:
    """Normalized Wishart state G G^H / tr with controllable rank (default full)."""
    rng = as_generator(rng)
    if rank is not None and rank < 1:
        raise ValueError(f"rank must be at least 1, got {rank}")
    rank = n if rank is None else min(rank, n)
    gauss = rng.standard_normal((2, n, rank))
    g = gauss[0] + 1j * gauss[1]
    w = g @ g.conj().T
    return DensityMatrix(w / np.trace(w).real)


def _chunk_trials(n: int) -> int:
    """Trials per chunk of the subspace-bound checks at dimension n."""
    return max(1, _STACK_ENTRIES // (n * n))


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


def _draw_group(n: int, trials: range, root: SeededGenerator, block: int):
    """The spectra lam (T, n) and the StateBatch, without rho, of consecutive
    subspace-bound trials; trial 0 is the maximally mixed state.

    A Wishart state's eigenvectors are Haar and independent of its spectrum
    lam, so (rho, B) is drawn in rho's eigenframe: rho = diag(lam), the
    basis W Haar, rep = W^H diag(lam) W, and the eigenbasis overlaps |W|^2.
    Chunk c covers trials [c * step, (c + 1) * step) and draws all of them
    from root.substream((block, c)), whatever part is asked for, so it
    replays alone: chi variates, then the (re, im) Gaussians of W.
    """
    step = _chunk_trials(n)
    chunks = range(trials.start // step, (trials.stop - 1) // step + 1)
    df = np.concatenate([np.arange(2 * n, 0, -2), np.arange(2 * n - 2, 0, -2)])
    chi = np.empty((len(chunks) * step, 2 * n - 1))
    z = np.empty((len(chunks) * step, n, n), dtype=np.complex128)
    for i, chunk in enumerate(chunks):
        rng, part = root.substream((block, chunk)), slice(i * step, (i + 1) * step)
        chi[part] = rng.chisquare(df, size=(step, 2 * n - 1))
        z.real[part], z.imag[part] = rng.standard_normal((2, step, n, n))
    local = slice(trials.start - chunks[0] * step, trials.stop - chunks[0] * step)
    lam = _laguerre_spectra(np.sqrt(chi[local]))
    if trials.start == 0:
        lam[0] = 1.0 / n
    w = _haar_from_ginibre(z[local])
    rep = (np.swapaxes(w.conj(), -1, -2) * lam[:, None, :]) @ w
    return lam, StateBatch(None, w, rep, lambda: np.abs(w) ** 2)


def check_subspace_bound(n: int, trials: range, root: SeededGenerator, block: int, measures) -> dict:
    """{measure: (min slack, checks, ok)} of the subspace bound over `trials`.

    `trials` is a range of consecutive trial indices of block `block` of
    the stream `root`: trial 0 is the maximally mixed state, every other
    trial a Wishart state, each in a Haar-random basis.  Each trial is one
    check, measure >= ||Q||_op (worst_deviations), exact for every subspace.
    The min slack is over the Wishart trials (inf if none), as trial 0's Q
    is roundoff; ok needs checks and every slack, trial 0's too, to be at
    least -AXIOM_SLACK_TOL.  Each group of whole chunks (clipped to
    `trials`) is drawn and checked as one stack; all three are exact, so
    grouping cannot change the result.  s_rel is rejected: the batch holds no rho.
    """
    if any(m.name == "s_rel" for m in measures):
        raise ValueError("check_subspace_bound cannot check s_rel: its eigenframe batch holds no rho")
    min_slack = dict.fromkeys(measures, np.inf)
    passed = dict.fromkeys(measures, len(trials) > 0)
    step = _chunk_trials(n)
    span = step * max(1, _GROUP_ENTRIES // (step * n * n))  # trials per group
    for start in range(trials.start // step * step, trials.stop, span) if trials else ():
        group = range(max(trials.start, start), min(trials.stop, start + span))
        batch = _draw_group(n, group, root, block)[1]
        worst = worst_deviations(batch)
        for m in measures:
            slack = measure_values(batch, m) - worst
            passed[m] = passed[m] and bool(slack.min() >= -AXIOM_SLACK_TOL)
            wishart = slack[1:] if group.start == 0 else slack
            min_slack[m] = min(min_slack[m], float(wishart.min(initial=np.inf)))
        del batch  # before the next group is drawn, to bound the peak memory
    return {m: (min_slack[m], len(trials), passed[m]) for m in measures}


_THEOREM42_COLUMNS = "kind n measure count min_slack final_d final_value monotone ok".split()


def _theorem42_row(kind, n, m: MeasureId, **cells) -> dict:
    """One theorem42 row in column order, as floats; cells not given are NaN."""
    row = dict.fromkeys(_THEOREM42_COLUMNS, np.nan)
    row.update(kind=kind, n=n, measure=MEASURE_CODES[m.name], **cells)
    return {k: float(v) for k, v in row.items()}


def run_theorem42_suite(n_list=DEFAULT_N_LIST, trials: int = 500, seed: int = 0) -> ExperimentReport:
    """Subspace-bound and decay checks for THEOREM42_MEASURES.

    Per dimension: check_subspace_bound on `trials` random (state, basis)
    pairs plus the maximally mixed state, one ||Q||_op check per state, so
    a bound row counts trials + 1; then check_axiom1 along PATHS_PER_N
    random basis paths.  Block b (the b-th n) draws its bound trials chunk
    by chunk from spawn keys (b, chunk) and its paths from
    root.substream(b).  A bound row with zero checks fails.  s_rel is not
    checked here: run_srel_demo reports its counterexample.  Every n must
    be at least 2: at n = 1 the decay path is constant 0, so it cannot
    decrease.
    """
    if any(n < 2 for n in n_list):
        raise ValueError(f"theorem42 needs every n >= 2, got {list(n_list)}")
    root = SeededGenerator(seed)
    rows = []
    for block, n in enumerate(n_list):
        # Trial 0 exercises the degenerate maximally mixed state.
        checked = check_subspace_bound(n, range(trials + 1), root, block, THEOREM42_MEASURES)
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
                bound = ds if m.name in ("eta2", "delta") else n * values[ETA2]
                slack = float((bound - vals).min())
                monotone = bool((np.diff(vals) < 0).all())
                ok = slack >= -AXIOM_SLACK_TOL and monotone and ds[-1] < 1e-6 and vals[-1] < 1e-6
                rows.append(_theorem42_row(
                    2, n, m, count=len(DECAY_TS), min_slack=slack, final_d=ds[-1],
                    final_value=vals[-1], monotone=monotone, ok=ok,
                ))
    parameters = {
        "n_list": list(n_list), "trials": trials, "paths_per_n": PATHS_PER_N,
        "measures": [m.label() for m in THEOREM42_MEASURES],
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
    rel, satisfied = relative_slacks(lhs, rhs)
    return {
        "n": float(n), "family": family, "bound": bound, "count": float(len(lhs)),
        "min_rel_slack": float(rel.min(initial=np.inf)),
        "ok": float(len(lhs) > 0 and bool(satisfied.all())),
    }


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
    A row passes when both |z| <= 4 and the deviation has not increased
    from the previous dimension of the same family.
    """
    root = SeededGenerator(seed)
    rows = []
    last_dev: dict[str, float] = {}
    for block, n in enumerate(n_list):
        rng = root.substream(block)
        for family in PURITY_FAMILIES:
            if family == "pure":
                rho = random_density_matrix(n, rng, rank=1)
            elif family == "mixed":
                rho = random_density_matrix(n, rng, rank=min(rank, n))
            else:
                rho = DensityMatrix.maximally_mixed(n)
            p = purity(rho)
            dev = estimate_diag_square_sum(rho, samples, rng)
            eta2sq_mean = p - dev.mean
            z = dev.z_score(exact_expected_diag_square_sum(rho))
            eta2sq_z = -z  # eta2^2 = purity - T per sample: same error, flipped sign
            nonincreasing = dev.mean <= last_dev.get(family, np.inf)
            last_dev[family] = dev.mean
            rows.append({
                "n": float(n), "family": _FAMILY_CODES[family],
                "rank": float(min(rank, n) if family == "mixed" else (1 if family == "pure" else n)),
                "purity": p,
                "eta2sq_mean": eta2sq_mean,
                "eta2sq_exact": exact_expected_eta2_sq(rho),
                "eta2sq_z": eta2sq_z,
                "dev_mean": dev.mean,
                "dev_se": dev.std_error,
                "dev_exact": exact_expected_diag_square_sum(rho),
                "dev_z": z,
                "nonincreasing": float(nonincreasing),
                "ok": float(abs(z) <= 4.0 and nonincreasing),
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
