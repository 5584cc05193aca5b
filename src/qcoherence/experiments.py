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

import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from .distance import REPORT_SCALE, commutator_terms, reduce_checks, relative_slacks
from .haar import (
    Z_MAX,
    SeededGenerator,
    _check_count,
    _ginibre,
    _haar_chunk,
    _haar_from_ginibre,
    _hermitian,
    as_generator,
    estimate_diag_square_sum,
    exact_expected_diag_square_sum,
    exact_expected_eta2_sq,
)
from .linalg import DensityMatrix, HermitianObservable, _check_dim, checked_eigh, fourier_basis, purity
from .measures import (
    DELTA,
    ETA1,
    ETA2,
    ETA_INF,
    MEASURE_CODES,
    StateBatch,
    approach_path,
    check_axiom1,
    check_axiom2,
    srel_counterexample,
)

DEFAULT_N_LIST = (2, 4, 8, 16, 32)
DECAY_TS = tuple(np.geomspace(1e-1, 1e-9, 9))
THEOREM42_MEASURES = (ETA1, ETA2, ETA_INF, DELTA)
PATHS_PER_N = 5

# Absolute slack tolerance for the subspace-bound checks.
AXIOM_SLACK_TOL = 1e-10

# Complex entries per chunk (4096 trials at n = 2, 16 at n = 32), the one
# unit of the subspace-bound check: one substream draw and one stacked check,
# so its size keys the stream and the reports.  A theorem42 run puts every
# block's chunks and decay paths on one pool, so peak memory is still about
# one chunk per thread, and reports do not depend on the thread count.
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
        return cls(experiment_id, parameters, rows, bool(rows) and all(r["ok"] == 1.0 for r in rows), seed)

    @property
    def columns(self) -> list[str]:
        return list(self.rows[0].keys()) if self.rows else []


def write_report(report: ExperimentReport, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(report.columns) + "\n")
        for row in report.rows:
            fh.write(",".join(f"{float(row[c]):.17g}" for c in report.columns) + "\n")
        fh.write(f"# experiment = {report.experiment_id}\n")
        fh.write(f"# parameters = {json.dumps(report.parameters, sort_keys=True)}\n")
        fh.write(f"# seed = {report.seed}\n")
        fh.write(f"# verdict = {'pass' if report.verdict else 'fail'}\n")


def load_report(path) -> ExperimentReport:
    """The report written to path; ValueError naming path:line for a line it
    cannot read, and unless its verdict line matches the verdict of its rows."""
    rows, meta = [], {"experiment": "", "parameters": {}, "seed": 0}
    with open(path, newline="") as fh:
        header = None
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\r\n")
            try:
                if line.startswith("#"):
                    key, _, value = line[1:].partition("=")
                    key = key.strip()
                    meta[key] = {"parameters": json.loads, "seed": int}.get(key, str)(value.strip())
                elif header is None:
                    header = line.split(",")
                elif line:
                    cells = line.split(",")
                    if len(cells) != len(header):
                        raise ValueError(f"{len(cells)} cells, header has {len(header)}")
                    rows.append(dict(zip(header, map(float, cells))))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if rows and "ok" not in header:
        raise ValueError(f"{path}: the header has no ok column")
    report = ExperimentReport.from_rows(meta["experiment"], meta["parameters"], rows, meta["seed"])
    word = "pass" if report.verdict else "fail"
    if meta.get("verdict") != word:
        raise ValueError(f"{path}: the rows {word}, but the verdict line reads {meta.get('verdict')!r}")
    return report


def random_hermitian(n: int, rng) -> HermitianObservable:
    _check_dim(n)
    return HermitianObservable.from_matrix(_hermitian(_ginibre(as_generator(rng), (n, n))))


def random_density_matrix(n: int, rng, rank: int | None = None) -> DensityMatrix:
    """A normalized Wishart state of rank min(rank, n), default n, that keeps
    the spectrum and eigenbasis _wishart drew as its eigensystem."""
    _check_dim(n)
    if rank is not None:
        _check_count("rank", rank, 1)
    return DensityMatrix.from_eigensystem(*_wishart(as_generator(rng), n, min(rank or n, n), 1, 0))


def _chunk_trials(n: int) -> int:
    """Trials per chunk of the subspace-bound checks at dimension n."""
    return max(1, _CHUNK_ENTRIES // (n * n))


def _wishart(rng: np.random.Generator, n: int, r: int, count: int, keep):
    """(lam, w) of the states `keep` indexes (an int: one, unbatched) among
    `count` normalized rank-r Wishart states G G^H / tr, G an n x r complex
    Ginibre matrix (the induced measure; Zyczkowski & Sommers, J. Phys. A
    34, 7111, 2001): lam (..., n) ascending with its n - r zeros exact and
    first, w (..., n, n) an eigenbasis whose last r columns, those of the
    nonzero levels, are a Haar isometry independent of lam.  All `count`
    draw, in order: the chi variates of the r x r lower bidiagonal B of the
    beta = 2 Laguerre model (Dumitriu & Edelman, J. Math. Phys. 43, 2002),
    diagonal chi_{2n}, ..., chi_{2(n-r+1)}, subdiagonal chi_{2(r-1)}, ...,
    chi_2, whose B B^T has the nonzero spectrum of G G^H; then the frames,
    an (n, r) Ginibre block each.  The first r columns of its complete QR,
    phase-fixed, are the reduced QR's up to rounding, so a Haar isometry;
    they go last, and the other n - r complete the zero eigenspace, whose
    basis no quantity reads.  At r = n the frame is a Haar unitary.
    """
    df = np.concatenate([np.arange(2 * n, 2 * (n - r), -2), np.arange(2 * r - 2, 0, -2)])
    chi = np.sqrt(rng.chisquare(df, size=(count, 2 * r - 1))[keep])
    d, e = chi[..., :r], chi[..., r:]
    i = np.arange(r)
    t = np.zeros(chi.shape[:-1] + (r, r))
    t[..., i, i] = d**2
    t[..., i[1:], i[1:]] += e**2
    t[..., i[1:], i[:-1]] = t[..., i[:-1], i[1:]] = d[..., :-1] * e
    lam = np.concatenate([np.zeros(chi.shape[:-1] + (n - r,)), np.linalg.eigvalsh(t)], axis=-1)
    w = _haar_from_ginibre(_ginibre(rng, (count, n, r))[keep], "complete")
    return lam / lam.sum(axis=-1, keepdims=True), np.roll(w, -r, axis=-1) if r < n else w


def _draw_chunk(n: int, trials: range, root: SeededGenerator, block: int):
    """(lam, w, batch) of consecutive subspace-bound trials of one chunk:
    the spectra (T, n), the bases (T, n, n) and their StateBatch; trial 0 is
    the maximally mixed state.

    (rho, B) is drawn in rho's eigenframe: _wishart's Haar frame W is the
    basis, rho = diag(lam), rep = W^H diag(lam) W, and the batch's
    eigensystem is lam with the eigenbasis overlaps |W|^2.  Chunk c covers
    trials [c * step, (c + 1) * step) and draws all of them from
    root.substream((block, c)), whatever part is asked for, so it replays
    alone.  A range that is empty or crosses a chunk edge raises ValueError.
    """
    step = _chunk_trials(n)
    c = trials.start // step
    if not trials or trials.step != 1 or trials.start < 0 or trials[-1] // step != c:
        raise ValueError(f"trials {trials} are not a nonempty run within one chunk of {step}")
    local = slice(trials.start - c * step, trials.stop - c * step)
    lam, w = _wishart(root.substream((block, c)), n, n, step, local)
    if trials.start == 0:
        lam[0] = 1.0 / n
    rep = (np.swapaxes(w.conj(), -1, -2) * lam[:, None, :]) @ w
    return lam, w, StateBatch(rep, (lam, np.abs(w) ** 2))


def _threads(tasks: int) -> int:
    """Threads for `tasks` tasks: one per usable CPU, at most one per task."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, tasks))


def _run_tasks(tasks: list) -> list:
    """The results of the zero-argument `tasks` in order, from one pool of
    _threads(len(tasks)) threads that starts them in order.  A failed task
    cancels every task not yet started, and the exception of the first
    failed task in order reaches the caller unchanged."""
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait  # not at module load: it imports logging
    with ThreadPoolExecutor(_threads(len(tasks))) as pool:
        futures = [pool.submit(task) for task in tasks]
        for future in wait(futures, return_when=FIRST_EXCEPTION).not_done:
            future.cancel()  # no-op on a running task
        return [future.result() for future in futures if not future.cancelled()]


def _bound_tasks(n: int, trials: range, root: SeededGenerator, block: int) -> list:
    """check_subspace_bound's argument checks, then its chunks' tasks in order."""
    _check_dim(n)
    if trials.step != 1 or trials.start < 0:
        raise ValueError(f"trials {trials} are not a run of consecutive nonnegative indices")
    step = _chunk_trials(n)

    def check(start: int) -> list[np.ndarray]:
        chunk = range(max(start, trials.start), min(start + step, trials.stop))
        return list(check_axiom2(_draw_chunk(n, chunk, root, block)[2], THEOREM42_MEASURES).values())

    starts = range(trials.start // step * step, trials.stop, step) if trials else range(0)
    return [functools.partial(check, start) for start in starts]


def _reduce_bound(chunks: list, trials: range) -> dict:
    """check_subspace_bound's result from its chunks' slacks in order."""
    slacks = np.concatenate([np.empty((len(THEOREM42_MEASURES), 0)), *chunks], axis=1)
    wishart = slacks[:, 1:] if trials.start == 0 else slacks  # trial 0's Q is roundoff
    return {m: (float(w.min(initial=np.inf)), *reduce_checks(row, AXIOM_SLACK_TOL)[1:])
            for m, row, w in zip(THEOREM42_MEASURES, slacks, wishart)}


def check_subspace_bound(n: int, trials: range, root: SeededGenerator, block: int) -> dict:
    """{measure: (min slack, checks, ok)} of the subspace bound over `trials`.

    `trials` is a range of consecutive trial indices of block `block` of
    the stream `root`: trial 0 is the maximally mixed state, every other
    trial a Wishart state, each in a Haar-random basis.  Each chunk, clipped
    to `trials`, is drawn and gets its slacks from check_axiom2 for
    THEOREM42_MEASURES, one exact check per trial and measure, on a pool of
    up to one thread per CPU (_threads), so peak memory is about one chunk
    per thread; the slacks are reduced in chunk order after all of them, so
    the thread count and the order chunks finish change nothing, and an
    empty range draws nothing.  The min slack is over the Wishart trials
    (inf if none), as trial 0's Q is roundoff; ok needs checks and every
    slack, trial 0's too, to be at least -AXIOM_SLACK_TOL.
    """
    return _reduce_bound(_run_tasks(_bound_tasks(n, trials, root, block)), trials)


_THEOREM42_COLUMNS = "kind n measure count min_slack final_d final_value monotone ok".split()


def _theorem42_row(kind, n, m: str, **cells) -> dict:
    """One theorem42 row in column order, as floats; cells not given are NaN."""
    row = dict.fromkeys(_THEOREM42_COLUMNS, np.nan)
    row.update(kind=kind, n=n, measure=MEASURE_CODES[m], **cells)
    return {k: float(v) for k, v in row.items()}


def _decay_rows(n: int, rng) -> list[dict]:
    """One block's kind-2 rows: check_axiom1 along PATHS_PER_N paths from rng."""
    rows = []
    for _ in range(PATHS_PER_N):
        rho = random_density_matrix(n, rng)
        path = approach_path(rho.eigensystem()[1], DECAY_TS, rng)
        ds, values = check_axiom1(rho, THEOREM42_MEASURES, path)
        for m in THEOREM42_MEASURES:
            vals = values[m]
            # Pointwise envelopes.  Only eta2 <= d / sqrt(2) (proved at
            # measures.delta) tests the path: delta = d and eta1, eta_inf
            # <= n * eta2 are identities (ds are delta's own values;
            # Cauchy-Schwarz), so those rows gate on decay and the final
            # value (ROADMAP item 4).
            bound = {ETA2: ds / np.sqrt(2.0), DELTA: ds}.get(m, n * values[ETA2])
            slack, count, ok = reduce_checks(bound - vals, AXIOM_SLACK_TOL)
            monotone = bool((np.diff(vals) < 0).all())
            ok = ok and monotone and ds[-1] < 1e-6 and vals[-1] < 1e-6
            rows.append(_theorem42_row(
                2, n, m, count=count, min_slack=slack, final_d=ds[-1],
                final_value=vals[-1], monotone=monotone, ok=ok,
            ))
    return rows


def run_theorem42_suite(n_list=DEFAULT_N_LIST, trials: int = 500, seed: int = 0) -> ExperimentReport:
    """Subspace-bound and decay checks for THEOREM42_MEASURES.

    Per dimension: check_subspace_bound on `trials` random (state, basis)
    pairs plus the maximally mixed state, one ||Q||_op check per state, so
    a bound row counts trials + 1; then check_axiom1 along PATHS_PER_N
    random basis paths.  Block b (the b-th n) draws chunk c of its bound
    trials (chunk_trials per chunk) from spawn key (b, c) alone, and its
    paths from root.substream(b).  One pool serves the run: every block's
    chunks and decay paths, largest n first, on up to one thread per CPU,
    so peak memory is still about one chunk per thread.  Rows are built in
    block order after every task, so the thread count and the order tasks
    finish change nothing.  A bound row with zero checks fails.  s_rel is
    not checked here: run_srel_demo reports its counterexample.  Every n
    must be at least 2: at n = 1 the decay path is constant 0, so it
    cannot decrease.
    """
    for n in (n_list := tuple(n_list)):  # read once: an iterator is not used up here
        _check_count("n", n, 2)
    _check_count("trials", trials)
    root = SeededGenerator(seed)
    bound = range(trials + 1)  # trial 0 exercises the degenerate maximally mixed state
    tasks = {b: [*_bound_tasks(n, bound, root, b), functools.partial(_decay_rows, n, root.substream(b))]
             for b, n in sorted(enumerate(n_list), key=lambda bn: -bn[1])}  # largest n first
    results = iter(_run_tasks([task for block in tasks.values() for task in block]))
    done = {b: [next(results) for _ in block] for b, block in tasks.items()}
    rows = []
    for block, n in enumerate(n_list):
        *chunks, decay = done[block]
        for m, (slack, count, ok) in _reduce_bound(chunks, bound).items():
            rows.append(_theorem42_row(1, n, m, count=count, min_slack=slack, ok=ok))
        rows.extend(decay)
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
    v = _haar_chunk(rng, (n, n))
    return (v * w) @ v.conj().T, _hermitian(_ginibre(rng, (n, n)))


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
    writes no lower row).  One stack per block; a family labels its rows.
    Every n must be at least 2, the smallest dimension with a spectral gap.
    """
    for n in (n_list := tuple(n_list)):  # read once: an iterator is not used up here
        _check_count("n", n, 2)
    _check_count("trials", trials)
    root = SeededGenerator(seed)
    codes = (1.0, 2.0, 3.0, 4.0)
    rows = []
    for block, n in enumerate(n_list):
        rng = root.substream(block)
        pairs = np.concatenate([
            _hermitian(_ginibre(rng, (trials, 2, n, n))),
            [_commuting_pair(n, rng), _unbiased_eigenbasis_pair(n, rng), _near_degenerate_pair(n, rng)],
        ])
        family = np.repeat(codes, (trials, 1, 1, 1))
        norm, upper, d, lower, degenerate = commutator_terms(pairs, *checked_eigh(pairs))
        valid = ~degenerate.any(axis=-1)
        for code in codes:
            rows.append(_prop31_row(n, code, 1.0, norm[family == code], upper[family == code]))
            if (both := valid & (family == code)).any():
                rows.append(_prop31_row(n, code, 2.0, d[both], lower[both]))
    parameters = {"n_list": list(n_list), "trials": trials}
    return ExperimentReport.from_rows("prop31", parameters, rows, seed)


PURITY_FAMILIES = ("pure", "mixed", "maximally_mixed")


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
    increase from n >= 1, so that the previous dimension is the smaller one.
    """
    for n in (n_list := tuple(n_list)):  # read once: an iterator is not used up here
        _check_count("n", n, -np.inf)  # integers, before they are ordered
    if any(a >= b for a, b in zip((0, *n_list), n_list)):
        raise ValueError(f"purity needs a strictly increasing list of n >= 1, got {list(n_list)}")
    _check_count("samples", samples, 2)
    _check_count("rank", rank, 1)
    root = SeededGenerator(seed)
    rows = []
    last_dev: dict[str, float] = {}
    for block, n in enumerate(n_list):
        rng = root.substream(block)
        for code, (family, r) in enumerate(zip(PURITY_FAMILIES, (1, min(rank, n), n)), 1):
            rho = (DensityMatrix.maximally_mixed(n) if family == "maximally_mixed"
                   else random_density_matrix(n, rng, r))
            p = purity(rho)
            dev = estimate_diag_square_sum(rho, samples, rng)
            dev_exact = exact_expected_diag_square_sum(rho)
            z = dev.z_score(dev_exact)
            nonincreasing = dev.mean <= last_dev.get(family, np.inf)
            last_dev[family] = dev.mean
            rows.append({
                "n": float(n), "family": float(code), "rank": float(r),
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
    _check_count("seed", seed)  # nothing is drawn, but the seed is checked as in every suite
    rows = []
    for c in (c_list := tuple(c_list)):  # read once, for the rows and the parameters
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
