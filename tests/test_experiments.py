import hashlib

import numpy as np
import pytest

from qcoherence import experiments
from qcoherence import (
    DELTA,
    ETA1,
    ETA2,
    ETA_INF,
    DensityMatrix,
    ExperimentReport,
    MonteCarloEstimate,
    OrthonormalBasis,
    SeededGenerator,
    evaluate_measure,
    load_report,
    random_basis,
    rewrite_in_basis,
    run_proposition31_suite,
    run_purity_sweep,
    run_srel_demo,
    run_theorem42_suite,
    srel_id,
    tpf_deviation,
    write_report,
)
from qcoherence.cli import main as cli_main
from qcoherence.distance import basis_distances, overlap_tables
from qcoherence.experiments import (
    AXIOM_SLACK_TOL,
    MEASURE_CODES,
    _GROUP_ENTRIES,
    _chunk_trials,
    _draw_group,
    check_subspace_bound,
    random_density_matrix,
)
from qcoherence.measures import adversarial_subspaces, measure_values, worst_deviations


def test_theorem42_passes_for_genuine_measures():
    report = run_theorem42_suite(n_list=(2, 4, 8), trials=100, seed=5)
    assert report.verdict
    assert all(row["ok"] == 1.0 for row in report.rows)
    # one ||Q||_op check for each of the 101 trials, whatever n
    assert all(row["count"] == 101 for row in report.rows if row["kind"] == 1.0)
    # both the subspace-bound rows and the decay rows are present per n
    kinds = {row["kind"] for row in report.rows}
    assert kinds == {1.0, 2.0}


def test_theorem42_decay_rows_carry_small_final_values():
    report = run_theorem42_suite(n_list=(4,), trials=20, seed=1)
    decay = [r for r in report.rows if r["kind"] == 2.0]
    assert decay
    for row in decay:
        assert row["final_d"] < 1e-6
        assert row["final_value"] < 1e-6
        assert row["monotone"] == 1.0


def test_prop31_suite_passes():
    report = run_proposition31_suite(n_list=(2, 4, 8), trials=100, seed=7)
    assert report.verdict
    families = {row["family"] for row in report.rows}
    assert families == {1.0, 2.0, 3.0, 4.0}
    # near-degenerate pairs contribute no lower-bound row
    assert not [r for r in report.rows if r["family"] == 4.0 and r["bound"] == 2.0]
    assert [r for r in report.rows if r["family"] == 4.0 and r["bound"] == 1.0]
    assert all(row["min_rel_slack"] >= -1e-9 for row in report.rows)


@pytest.mark.parametrize("rank", [0, -1])
def test_random_density_matrix_rejects_rank_below_one(rank):
    # rank 0 gave an all-NaN state and -1 numpy's "negative dimensions"
    with pytest.raises(ValueError, match="rank must be at least 1"):
        random_density_matrix(3, np.random.default_rng(0), rank=rank)


def test_purity_sweep_rejects_rank_zero():
    # was a LinAlgError from the NaN state
    with pytest.raises(ValueError, match="rank must be at least 1"):
        run_purity_sweep(n_list=(4,), samples=10, seed=0, rank=0)


def test_purity_sweep_matches_exact_rows():
    report = run_purity_sweep(n_list=(4, 8, 16), samples=500, seed=11)
    assert report.verdict
    pure_rows = [r for r in report.rows if r["family"] == 1.0]
    for row in pure_rows:
        n = row["n"]
        assert abs(row["dev_exact"] - 2.0 / (n + 1)) < 1e-12
        assert abs(row["eta2sq_exact"] - (n - 1.0) / (n + 1.0)) < 1e-12
        assert abs(row["dev_z"]) <= 4.0
    mm_rows = [r for r in report.rows if r["family"] == 3.0]
    for row in mm_rows:
        assert abs(row["eta2sq_mean"]) < 1e-10
        assert row["dev_z"] == 0.0
    # deviation column non-increasing within each family
    for family in (1.0, 2.0, 3.0):
        devs = [r["dev_mean"] for r in report.rows if r["family"] == family]
        assert all(a >= b for a, b in zip(devs, devs[1:]))


def test_srel_demo_margins():
    report = run_srel_demo((0.5, 1.0, 1000.0))
    assert report.verdict
    by_c = {row["c"]: row for row in report.rows}
    assert by_c[0.5]["margin"] > by_c[1.0]["margin"] > 0
    assert by_c[1000.0]["epsilon"] < 1e-2
    for row in report.rows:
        assert abs(row["deviation"] - row["epsilon"] / 2) < 1e-14


def test_srel_linearity_in_c_at_fixed_epsilon():
    # halving c at the same epsilon doubles the headroom under the deviation
    from qcoherence import OrthonormalBasis, rewrite_in_basis, s_rel, srel_family_state

    s = rewrite_in_basis(srel_family_state(0.1), OrthonormalBasis.standard(2))
    margin_half = 0.05 - s_rel(s, 0.5)
    margin_one = 0.05 - s_rel(s, 1.0)
    assert margin_half > margin_one > 0


def test_report_verdict_is_function_of_rows():
    rows = [{"x": 1.0, "ok": 1.0}, {"x": 2.0, "ok": 0.0}]
    report = ExperimentReport.from_rows("demo", {}, rows, seed=0)
    assert not report.verdict
    report = ExperimentReport.from_rows("demo", {}, rows[:1], seed=0)
    assert report.verdict


def test_csv_round_trip(tmp_path):
    report = run_srel_demo((1.0, 2.0), seed=4)
    path = tmp_path / "srel.csv"
    write_report(report, path)
    loaded = load_report(path)
    assert loaded.experiment_id == report.experiment_id
    assert loaded.verdict == report.verdict
    assert loaded.seed == report.seed
    assert loaded.parameters == {"c_list": [1.0, 2.0]}
    assert len(loaded.rows) == len(report.rows)
    for got, want in zip(loaded.rows, report.rows):
        for key, value in want.items():
            assert got[key] == pytest.approx(value, abs=0, rel=0, nan_ok=True)


def test_csv_metadata_lines_trail_the_rows(tmp_path):
    path = tmp_path / "report.csv"
    write_report(run_srel_demo((1.0,)), path)
    lines = path.read_text().splitlines()
    assert not lines[0].startswith("#")
    hashes = [i for i, line in enumerate(lines) if line.startswith("#")]
    assert hashes == list(range(len(lines) - 4, len(lines)))
    assert lines[-1] == "# verdict = pass"


def test_reports_reproducible_from_seed(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report(run_purity_sweep(n_list=(4, 8), samples=200, seed=13), a)
    write_report(run_purity_sweep(n_list=(4, 8), samples=200, seed=13), b)
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    write_report(run_purity_sweep(n_list=(4, 8), samples=200, seed=14), c)
    assert a.read_bytes() != c.read_bytes()


def test_theorem42_includes_maximally_mixed_trial():
    # trial 0 is the degenerate state; the suite must still pass with it
    report = run_theorem42_suite(n_list=(3,), trials=0, seed=9)
    bound_rows = [r for r in report.rows if r["kind"] == 1.0]
    assert bound_rows and all(r["ok"] == 1.0 for r in bound_rows)
    # it is checked, but the min slack is over the Wishart trials: none here
    assert all(r["count"] == 1.0 and r["min_slack"] == np.inf for r in bound_rows)


# The n = 2 bound rows of `theorem42 --n 2,4 --trials 20 --seed 42`: the min
# slack over Wishart trials 1..20, which the Ky Fan sweep over every
# subspace dimension gives too.
SEED42_N2_MIN_SLACK = {ETA1: 0.04253399020082805, ETA2: 0.017618155603027305,
                       ETA_INF: 0.04253399020082806}


def test_theorem42_fails_when_only_trial_zero_fails(monkeypatch):
    # a fake deviation on trial 0 alone fails every bound row, and the min
    # slack, over the Wishart trials, does not move (one group per n here)
    real = experiments.worst_deviations

    def bumped(batch):
        worst = real(batch)
        worst[0] += 10.0  # above every measure of trial 0, delta included
        return worst

    def bound_rows(report):
        return {(r["n"], r["measure"]): r for r in report.rows if r["kind"] == 1.0}

    clean = bound_rows(run_theorem42_suite(n_list=(2, 4), trials=20, seed=42))
    monkeypatch.setattr(experiments, "worst_deviations", bumped)
    report = run_theorem42_suite(n_list=(2, 4), trials=20, seed=42)
    assert not report.verdict
    failed = bound_rows(report)
    assert failed.keys() == clean.keys()
    for key, row in failed.items():
        assert row["ok"] == 0.0 and clean[key]["ok"] == 1.0
        assert row["min_slack"] == clean[key]["min_slack"] and row["count"] == 21.0
    for m, slack in SEED42_N2_MIN_SLACK.items():
        assert clean[(2.0, MEASURE_CODES[m.name])]["min_slack"] == slack
    assert all(r["ok"] == 1.0 for r in report.rows if r["kind"] == 2.0)


def test_theorem42_rejects_dimension_one():
    # at n = 1 the decay path is constant 0 and cannot decrease
    with pytest.raises(ValueError, match="n >= 2"):
        run_theorem42_suite(n_list=(2, 1), trials=1, seed=0)


def test_prop31_rejects_dimension_one():
    # n = 1 has no spectral gap, so the near-degenerate family cannot be built
    with pytest.raises(ValueError, match="n >= 2"):
        run_proposition31_suite(n_list=(2, 1), trials=3, seed=0)


def test_prop31_zero_trials_writes_failing_zero_check_rows():
    report = run_proposition31_suite(n_list=(2,), trials=0, seed=0)
    random_rows = [r for r in report.rows if r["family"] == 1.0]
    assert random_rows == [{"n": 2.0, "family": 1.0, "bound": 1.0, "count": 0.0,
                            "min_rel_slack": float("inf"), "ok": 0.0}]
    assert not report.verdict


def _scalar_min_slacks(n, trials, root, block, measures):
    """{measure: (min slack, checks, ok)} of the drawn pairs through the
    scalar API: rewrite_in_basis, adversarial_subspaces, tpf_deviation, one
    trial at a time; the min is over the Wishart trials."""
    want = {m: (np.inf, 0, True) for m in measures}
    for trial in trials:
        lam, batch = _draw_group(n, range(trial, trial + 1), root, block)
        s = rewrite_in_basis(DensityMatrix(np.diag(lam[0])), OrthonormalBasis(batch.basis[0]))
        dev = tpf_deviation(s, adversarial_subspaces(s))
        for m in measures:
            slack = evaluate_measure(s, m) - dev
            least, count, ok = want[m]
            want[m] = (min(least, slack) if trial else least, count + 1,
                       ok and slack >= -AXIOM_SLACK_TOL)
    return want


def test_subspace_bound_chunks_equal_the_scalar_loop():
    # the stacked slacks against the scalar API on the same drawn triples,
    # across chunk edges (1024 trials per chunk at n = 2, 455 at n = 3)
    measures = (ETA1, ETA2, ETA_INF, DELTA)
    root = SeededGenerator(11)
    for n, trials in ((2, range(1020, 1030)), (3, range(0, 6)), (3, range(450, 460))):
        got = check_subspace_bound(n, trials, root, 1, measures)
        want = _scalar_min_slacks(n, trials, root, 1, measures)
        for m in measures:
            assert got[m][1:] == want[m][1:] == (len(trials), True)
            assert abs(got[m][0] - want[m][0]) <= 1e-12


def test_chunk_replays_alone():
    # chunk c of block b draws from spawn key (b, c) whatever part of it is
    # requested, so any part redraws bit for bit and chunks combine exactly
    root, block, n = SeededGenerator(21), 3, 4
    step = _chunk_trials(n)
    assert step == 256
    lam, whole = _draw_group(n, range(step, 2 * step), root, block)
    part_lam, part = _draw_group(n, range(step + 10, step + 30), root, block)
    assert (part_lam == lam[10:30]).all()
    for name in ("basis", "rep", "overlaps"):
        assert (getattr(part, name) == getattr(whole, name)[10:30]).all()
    measures = (ETA1, ETA2, ETA_INF, DELTA)
    full = check_subspace_bound(n, range(3 * step + 7), root, block, measures)
    chunks = [range(0, step), range(step, 2 * step), range(2 * step, 3 * step),
              range(3 * step, 3 * step + 7)]
    alone = [check_subspace_bound(n, c, root, block, measures) for c in chunks]
    for m in measures:
        assert full[m][0] == min(a[m][0] for a in alone)
        assert full[m][1] == sum(a[m][1] for a in alone)
        assert full[m][2] == all(a[m][2] for a in alone)
    # other blocks and chunks draw other triples
    other = _draw_group(n, range(step + 10, step + 30), root, block + 1)[1]
    assert np.abs(other.basis - part.basis).max() > 1e-3
    first = _draw_group(n, range(10, 30), root, block)[1]
    assert np.abs(first.basis - part.basis).max() > 1e-3


def _spy_groups(monkeypatch) -> list:
    """The trial ranges that check_subspace_bound draws as groups, appended
    as it draws them."""
    groups, draw = [], experiments._draw_group
    monkeypatch.setattr(experiments, "_draw_group",
                        lambda n, group, *rest: groups.append(group) or draw(n, group, *rest))
    return groups


@pytest.mark.parametrize("n, trials", [
    (2, range(5, 4100)), (3, range(5, 2000)), (16, range(5, 137)), (32, range(5, 137)),
])
def test_groups_equal_chunks_checked_alone(monkeypatch, n, trials):
    # the ranges start and stop mid-chunk and span several groups; min and
    # count are exact, so grouping must not move them by a single bit
    measures = (ETA1, ETA2, ETA_INF, DELTA)
    root, block, step = SeededGenerator(17), 2, _chunk_trials(n)
    groups = _spy_groups(monkeypatch)
    got = check_subspace_bound(n, trials, root, block, measures)
    monkeypatch.undo()
    assert len(groups) > 1
    want = dict.fromkeys(measures, (np.inf, 0, True))
    for c in range(trials.start // step, (trials.stop - 1) // step + 1):
        chunk = range(max(trials.start, c * step), min(trials.stop, (c + 1) * step))
        batch = _draw_group(n, chunk, root, block)[1]
        slack = {m: measure_values(batch, m) - worst_deviations(batch) for m in measures}
        want = {m: (min(least, float(slack[m].min())), count + len(chunk),
                    ok and bool(slack[m].min() >= -AXIOM_SLACK_TOL))
                for m, (least, count, ok) in want.items()}
    assert got == want


@pytest.mark.parametrize("n, trials", [
    (2, range(5, 4100)), (3, range(0, 2000)), (16, range(5, 137)), (32, range(5, 137)),
    (32, range(7, 8)), (64, range(1, 6)), (128, range(0, 3)), (200, range(0, 2)),
])
def test_groups_cover_the_trials_within_the_cap(monkeypatch, n, trials):
    # each group is a run of whole chunks (clipped to the trials) within the
    # cap, or a single chunk larger than the cap (at n = 200)
    groups = _spy_groups(monkeypatch)
    check_subspace_bound(n, trials, SeededGenerator(3), 0, (ETA2,))
    step = _chunk_trials(n)
    assert [t for g in groups for t in g] == list(trials)
    for g in groups:
        assert g.start == trials.start or g.start % step == 0
        one_chunk = g.start // step == (g.stop - 1) // step
        assert len(g) * n * n <= _GROUP_ENTRIES or one_chunk
    if step * n * n > _GROUP_ENTRIES:
        assert [len(g) for g in groups] == [1] * len(trials)


def test_trial_zero_is_the_maximally_mixed_state():
    lam = _draw_group(3, range(0, 2), SeededGenerator(4), 0)[0]
    assert (lam[0] == 1 / 3).all()
    assert np.abs(lam[1] - 1 / 3).max() > 1e-3


def test_eigenframe_overlaps_equal_the_identity_overlaps():
    # rho is diagonal, so its eigenbasis overlaps with W are |W|^2 bit for bit
    batch = _draw_group(8, range(0, 40), SeededGenerator(5), 2)[1]
    eye = np.broadcast_to(np.eye(8, dtype=np.complex128), batch.basis.shape)
    assert (batch.overlaps == overlap_tables(eye, batch.basis)).all()
    assert (measure_values(batch, DELTA) == basis_distances(eye, batch.basis)).all()


def _wishart_groups(n, count, root):
    """(spectra, StateBatch) of trials 1..count of block 0, one per chunk."""
    step = _chunk_trials(n)
    for c in range(-(-(count + 1) // step)):
        yield _draw_group(n, range(max(1, c * step), min(count + 1, (c + 1) * step)), root, 0)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_laguerre_purity_anchor(n):
    # E tr(rho^2) = 2n / (n^2 + 1) for a normalized n x n complex Wishart state
    lam = np.concatenate([lam for lam, _ in _wishart_groups(n, 4000, SeededGenerator(30 + n))])
    assert lam.shape == (4000, n)
    assert np.abs(lam.sum(axis=-1) - 1.0).max() < 1e-14
    assert (np.diff(lam, axis=-1) >= 0).all() and lam.min() > -1e-15
    est = MonteCarloEstimate.from_samples((lam**2).sum(axis=-1))
    assert abs(est.z_score(2.0 * n / (n * n + 1.0))) <= 4.0


@pytest.mark.parametrize("n", [4, 8])
def test_basis_frame_draws_match_the_wishart_path(n):
    # two-sample KS on eta2 and delta: drawn in rho's eigenframe against
    # random_density_matrix in a random_basis, sampled one at a time
    from scipy.stats import ks_2samp

    samples = 1500
    rng = SeededGenerator(60 + n).generator()
    states = [rewrite_in_basis(random_density_matrix(n, rng), random_basis(n, rng))
              for _ in range(samples)]
    batches = [b for _, b in _wishart_groups(n, samples, SeededGenerator(70 + n))]
    for m in (ETA2, DELTA):
        old = [evaluate_measure(s, m) for s in states]
        new = np.concatenate([measure_values(b, m) for b in batches])
        assert ks_2samp(old, new).pvalue > 0.01


def test_theorem42_bound_rows_fail_without_checks():
    # negative trials run no bound check at all: that must not read as a pass
    report = run_theorem42_suite(n_list=(2,), trials=-5, seed=9)
    bound = [r for r in report.rows if r["kind"] == 1.0]
    assert [r["count"] for r in bound] == [0.0] * 4
    assert all(r["ok"] == 0.0 for r in bound)
    assert not report.verdict


def test_check_subspace_bound_rejects_srel():
    # was numpy's LinAlgError: the eigenframe batch has no rho for s_rel's entropy
    with pytest.raises(ValueError, match="s_rel"):
        check_subspace_bound(2, range(3), SeededGenerator(0), 0, (ETA2, srel_id(1.0)))


# sha256 of small seeded reports; a change here must be deliberate and
# explained in CHANGES.md.
GOLDEN = {
    ("theorem42", "--n", "2,4", "--trials", "20"):
        "37e70b2bd9d0a524a8d0b12d60fa438b19c7092d813a52c56b3eaca7faab72f4",
    ("prop31", "--n", "2,4", "--trials", "30"):
        "148cbc28def9fae066c90a4a277823e0653bc1a219cae9998fd7cd8e82290231",
    ("purity", "--n", "4,8", "--samples", "300"):
        "a4e91c40051cae63940e7ae243ad1af5b24033d812581482dad70d86c5b60272",
    ("srel",):
        "12ce540ec1cc9fdaf00aff72fb7bb8e0326f600af65e98db50c074e4d60f6a7a",
    # several chunks per group at both n
    ("theorem42", "--n", "16,32", "--trials", "100"):
        "fbf00f9f5569763f7edbeef4ac1d60186168277a918789707b8dd49ec35c3ea8",
}


def _golden_id(args):
    """The suite name; a suite's later goldens add their --n list."""
    first = next(a for a in GOLDEN if a[0] == args[0])
    return args[0] if args == first else f"{args[0]}-n{args[args.index('--n') + 1]}"


@pytest.mark.parametrize("args", list(GOLDEN), ids=_golden_id)
def test_golden_report_hashes(tmp_path, args):
    assert cli_main(["experiment", *args, "--seed", "42", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / f"{args[0]}.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[args]
