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
    tpf_deviation,
    write_report,
)
from qcoherence.cli import main as cli_main
from qcoherence.distance import basis_distances, commutator_terms, overlap_tables
from qcoherence.experiments import (
    AXIOM_SLACK_TOL,
    MEASURE_CODES,
    THEOREM42_MEASURES,
    _chunk_trials,
    _draw_chunk,
    _prop31_row,
    check_subspace_bound,
    random_density_matrix,
    random_hermitian,
)
from qcoherence.haar import _ginibre, _hermitian, as_generator
from qcoherence.linalg import checked_eigh
from qcoherence.measures import MEASURES, adversarial_subspaces


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


@pytest.mark.parametrize("n, rank, match", [
    pytest.param(3, 0, "rank must be at least 1", id="0"),
    pytest.param(3, -1, "rank must be at least 1", id="-1"),
    pytest.param(0, None, "n must be at least 1", id="n0"),
    pytest.param(-1, 1, "n must be at least 1", id="n-1"),
])
def test_random_density_matrix_rejects_rank_below_one(n, rank, match):
    # rank 0 gave an all-NaN state, -1 numpy's "negative dimensions", and
    # n = 0 a 0 x 0 "state"
    with pytest.raises(ValueError, match=match):
        random_density_matrix(n, np.random.default_rng(0), rank=rank)


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
    # no rows checked nothing: that must not read as a pass
    assert not ExperimentReport.from_rows("demo", {}, [], seed=0).verdict
    # nor may a report built without rows and verdict (they defaulted to a pass)
    with pytest.raises(TypeError):
        ExperimentReport("theorem42", {})


@pytest.mark.parametrize("row", ["1,2", "1,2,1,7"], ids=["short", "long"])
def test_load_report_rejects_a_row_that_does_not_fit_the_header(tmp_path, row):
    # a short row loaded without its ok cell, a long one dropped its extra
    path = tmp_path / "report.csv"
    path.write_text(f"a,b,ok\n1,2,1\n{row}\n# experiment = demo\n# verdict = pass\n")
    with pytest.raises(ValueError, match="report.csv:3"):
        load_report(path)


@pytest.mark.parametrize("text", [
    "a,ok\n1,1\n2,0\n# experiment = demo\n# verdict = pass\n",
    "a,ok\n# experiment = demo\n# verdict = pass\n",
    "a,ok\n1,1\n# experiment = demo\n",
    "a\n1\n# experiment = demo\n# verdict = pass\n",
], ids=["failing-row", "no-rows", "no-verdict", "no-ok-column"])
def test_load_report_recomputes_the_verdict(tmp_path, text):
    # the first two loaded as a pass from the verdict line alone
    path = tmp_path / "report.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="report.csv"):
        load_report(path)


def test_load_report_reads_a_failing_report(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text("a,ok\n1,1\n2,0\n# experiment = demo\n# verdict = fail\n")
    assert not load_report(path).verdict


@pytest.mark.parametrize("trials", [range(0, 10, 2), range(-3, 2)], ids=["strided", "negative"])
def test_subspace_bound_rejects_a_strided_or_negative_range(trials):
    # strided checked all 10 trials but counted 5; negative failed inside
    # numpy's SeedSequence
    with pytest.raises(ValueError, match="consecutive nonnegative"):
        check_subspace_bound(4, trials, SeededGenerator(0), 0)


@pytest.mark.parametrize("n_list", [(8, 4), (4, 4)], ids=["decreasing", "repeated"])
def test_purity_sweep_rejects_a_list_that_does_not_increase(n_list):
    with pytest.raises(ValueError, match="strictly increasing"):
        run_purity_sweep(n_list=n_list, samples=10)


@pytest.mark.parametrize("run", [
    lambda: run_theorem42_suite(n_list=()),
    lambda: run_proposition31_suite(n_list=()),
    lambda: run_purity_sweep(n_list=()),
    lambda: run_srel_demo(c_list=()),
], ids=["theorem42", "prop31", "purity", "srel"])
def test_runners_fail_an_empty_list(run):
    # the CLI rejects an empty list; the Python API reports it as a failure
    report = run()
    assert report.rows == [] and not report.verdict


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
# slack over Wishart trials 1..20, all drawn from chunk (0, 0).
SEED42_N2_MIN_SLACK = {ETA1: 0.10598253352378599, ETA2: 0.04389940276021338,
                       ETA_INF: 0.10598253352378602}


def test_theorem42_fails_when_only_trial_zero_fails(monkeypatch):
    # a fake deviation on trial 0 alone fails every bound row, and the min
    # slack, over the Wishart trials, does not move (one chunk per n here)
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
        assert clean[(2.0, MEASURE_CODES[m])]["min_slack"] == slack
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


def test_prop31_random_family_is_one_ginibre_draw():
    # block b's random pairs are the Hermitian parts of one
    # _ginibre(substream(b), (trials, 2, n, n)) stack, drawn first
    report = run_proposition31_suite(n_list=(2, 4), trials=30, seed=5)
    want = []
    for block, n in enumerate((2, 4)):
        m = _hermitian(_ginibre(SeededGenerator(5).substream(block), (30, 2, n, n)))
        norm, upper, d, lower, degenerate = commutator_terms(m, *checked_eigh(m))
        assert not degenerate.any()
        want += [_prop31_row(n, 1.0, 1.0, norm, upper), _prop31_row(n, 1.0, 2.0, d, lower)]
    assert [r for r in report.rows if r["family"] == 1.0] == want


@pytest.mark.parametrize("n", [1, 3])
def test_random_hermitian_is_the_hermitian_part_of_one_ginibre_draw(n):
    z = _ginibre(as_generator(11), (n, n))
    assert np.array_equal(random_hermitian(n, 11).matrix, (z + z.conj().T) / 2)


@pytest.mark.parametrize("run", [run_theorem42_suite, run_proposition31_suite],
                         ids=["theorem42", "prop31"])
def test_runners_reject_negative_trials_before_any_draw(monkeypatch, run):
    def substream(self, key):
        raise AssertionError(f"substream {key} opened")

    monkeypatch.setattr(SeededGenerator, "substream", substream)
    with pytest.raises(ValueError, match=r"^trials must be nonnegative, got -5$"):
        run(n_list=(2,), trials=-5, seed=9)


def _scalar_min_slacks(n, trials, root, block):
    """{measure: (min slack, checks, ok)} of the drawn pairs through the
    scalar API: rewrite_in_basis, adversarial_subspaces, tpf_deviation, one
    trial at a time; the min is over the Wishart trials."""
    want = {m: (np.inf, 0, True) for m in THEOREM42_MEASURES}
    for trial in trials:
        lam, w, _ = _draw_chunk(n, range(trial, trial + 1), root, block)
        s = rewrite_in_basis(DensityMatrix(np.diag(lam[0])), OrthonormalBasis(w[0]))
        dev = tpf_deviation(s, adversarial_subspaces(s))
        for m in THEOREM42_MEASURES:
            slack = evaluate_measure(s, m) - dev
            least, count, ok = want[m]
            want[m] = (min(least, slack) if trial else least, count + 1,
                       ok and slack >= -AXIOM_SLACK_TOL)
    return want


def test_subspace_bound_chunks_equal_the_scalar_loop():
    # the stacked slacks against the scalar API on the same drawn triples,
    # across chunk edges (4096 trials per chunk at n = 2, 1820 at n = 3)
    root = SeededGenerator(11)
    for n, trials in ((2, range(4090, 4100)), (3, range(0, 6)), (3, range(1815, 1825))):
        got = check_subspace_bound(n, trials, root, 1)
        want = _scalar_min_slacks(n, trials, root, 1)
        for m in THEOREM42_MEASURES:
            assert got[m][1:] == want[m][1:] == (len(trials), True)
            assert abs(got[m][0] - want[m][0]) <= 1e-12


def test_chunk_replays_alone():
    # chunk c of block b draws from spawn key (b, c) whatever part of it is
    # requested, so any part redraws bit for bit and chunks combine exactly
    root, block, n = SeededGenerator(21), 3, 4
    step = _chunk_trials(n)
    assert step == 1024
    lam, w, whole = _draw_chunk(n, range(step, 2 * step), root, block)
    part_lam, part_w, part = _draw_chunk(n, range(step + 10, step + 30), root, block)
    assert (part_lam == lam[10:30]).all() and (part_w == w[10:30]).all()
    assert (part.rep == whole.rep[10:30]).all()
    for got, want in zip(part.eigen, whole.eigen):
        assert (got == want[10:30]).all()
    full = check_subspace_bound(n, range(3 * step + 7), root, block)
    chunks = [range(0, step), range(step, 2 * step), range(2 * step, 3 * step),
              range(3 * step, 3 * step + 7)]
    alone = [check_subspace_bound(n, c, root, block) for c in chunks]
    for m in THEOREM42_MEASURES:
        assert full[m][0] == min(a[m][0] for a in alone)
        assert full[m][1] == sum(a[m][1] for a in alone)
        assert full[m][2] == all(a[m][2] for a in alone)
    # other blocks and chunks draw other triples
    other = _draw_chunk(n, range(step + 10, step + 30), root, block + 1)[1]
    assert np.abs(other - part_w).max() > 1e-3
    first = _draw_chunk(n, range(10, 30), root, block)[1]
    assert np.abs(first - part_w).max() > 1e-3


@pytest.mark.parametrize("n, trials", [
    (2, range(4090, 4097)), (3, range(1819, 1821)), (32, range(15, 17)), (128, range(0, 2)),
    (4, range(5, 5)), (4, range(0, 10, 2)), (4, range(-3, -1)),
])
def test_draw_chunk_rejects_a_run_outside_one_chunk(n, trials):
    # across an edge, slicing one chunk would return fewer trials than asked
    # for; an empty, strided or negative range is no run of trials either
    with pytest.raises(ValueError, match="within one chunk"):
        _draw_chunk(n, trials, SeededGenerator(0), 0)


def _spy(monkeypatch) -> tuple[list, list]:
    """The trial ranges check_subspace_bound draws as chunks and the keys of
    the substreams it opens, appended as it opens them."""
    chunks, keys = [], []
    draw, substream = experiments._draw_chunk, SeededGenerator.substream
    monkeypatch.setattr(experiments, "_draw_chunk",
                        lambda n, chunk, *rest: chunks.append(chunk) or draw(n, chunk, *rest))
    monkeypatch.setattr(SeededGenerator, "substream",
                        lambda self, key: keys.append(key) or substream(self, key))
    return chunks, keys


@pytest.mark.parametrize("n, trials", [
    (2, range(5, 4100)), (3, range(0, 2000)), (16, range(5, 137)), (32, range(5, 137)),
    (32, range(7, 8)), (64, range(1, 6)), (128, range(0, 3)), (200, range(0, 2)),
])
def test_chunks_cover_the_trials_once(monkeypatch, n, trials):
    # each chunk, clipped to the trials, is drawn once from its own
    # substream; one trial fills a chunk when it exceeds _CHUNK_ENTRIES
    chunks, keys = _spy(monkeypatch)
    check_subspace_bound(n, trials, SeededGenerator(3), 5)
    step = _chunk_trials(n)
    assert [t for c in chunks for t in c] == list(trials)
    assert keys == [(5, c.start // step) for c in chunks]
    assert all(c.start // step == (c.stop - 1) // step for c in chunks)
    assert len(set(keys)) == len(keys) == -(-trials.stop // step) - trials.start // step


def test_empty_range_opens_no_substream(monkeypatch):
    chunks, keys = _spy(monkeypatch)
    got = check_subspace_bound(4, range(5, 5), SeededGenerator(3), 0)
    assert got == dict.fromkeys(THEOREM42_MEASURES, (np.inf, 0, False))
    assert chunks == keys == []


def test_trial_zero_is_the_maximally_mixed_state():
    lam = _draw_chunk(3, range(0, 2), SeededGenerator(4), 0)[0]
    assert (lam[0] == 1 / 3).all()
    assert np.abs(lam[1] - 1 / 3).max() > 1e-3


def test_eigenframe_overlaps_equal_the_identity_overlaps():
    # rho is diagonal, so its eigenbasis overlaps with W are |W|^2 bit for bit
    lam, w, batch = _draw_chunk(8, range(0, 40), SeededGenerator(5), 2)
    eye = np.broadcast_to(np.eye(8, dtype=np.complex128), w.shape)
    assert batch.eigen[0] is lam
    assert (batch.eigen[1] == overlap_tables(eye, w)).all()
    assert (MEASURES[DELTA](batch) == basis_distances(eye, w)).all()


def _wishart_chunks(n, count, root):
    """(spectra, bases, StateBatch) of trials 1..count of block 0, one per chunk."""
    step = _chunk_trials(n)
    for c in range(-(-(count + 1) // step)):
        yield _draw_chunk(n, range(max(1, c * step), min(count + 1, (c + 1) * step)), root, 0)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_laguerre_purity_anchor(n):
    # E tr(rho^2) = 2n / (n^2 + 1) for a normalized n x n complex Wishart state
    lam = np.concatenate([lam for lam, *_ in _wishart_chunks(n, 4000, SeededGenerator(30 + n))])
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
    batches = [b for *_, b in _wishart_chunks(n, samples, SeededGenerator(70 + n))]
    for m in (ETA2, DELTA):
        old = [evaluate_measure(s, m) for s in states]
        new = np.concatenate([MEASURES[m](b) for b in batches])
        assert ks_2samp(old, new).pvalue > 0.01


# sha256 of small seeded reports; a change here must be deliberate and
# explained in CHANGES.md.
GOLDEN = {
    ("theorem42", "--n", "2,4", "--trials", "20"):
        "253a5b6d08e476d04657cb687f2f05a04c24d91d7f8a0d632a81a237447daede",
    ("prop31", "--n", "2,4", "--trials", "30"):
        "f3a7fdc4b6ccb2d8a4c76d9b764fff4c6d9c3068aa5dd669b0b1bb382a68f418",
    ("purity", "--n", "4,8", "--samples", "300"):
        "e7528b2508f378c65a763490c71c280bb0640c6dac7f209d221869b3d193b904",
    ("srel",):
        "12ce540ec1cc9fdaf00aff72fb7bb8e0326f600af65e98db50c074e4d60f6a7a",
    # several chunks at both n
    ("theorem42", "--n", "16,32", "--trials", "100"):
        "0662845574e1afa5dd33666b4d7f6998d6156a3609b85667c83f1c0f2d148fef",
    # r = 3 levels above the lowest: the QR moduli path
    ("purity", "--n", "4,8", "--samples", "300", "--rank", "3"):
        "6adc7c0f258e9906db9b18c33eae8a814e700c3e91494f19a3d5062117bfde19",
    # the default runs
    ("theorem42",):
        "fcb698af5ed4f152edb9ea6fcf02eae30a2fa084e714fb28ac217f377064431b",
    ("prop31",):
        "c963be963f2ed147eaff48c9480687e6b08fe06fb434867ca9bebacd4ee99131",
    ("purity",):
        "8369031db69132c75bc745c83fb58c7d738455425b1f9d3bc94c2ac7ec13b632",
}


def _golden_id(args):
    """The suite name; a suite's later goldens add their --n list, or
    "default" when they have none."""
    first = next(a for a in GOLDEN if a[0] == args[0])
    if args == first:
        return args[0]
    return f"{args[0]}-n{args[args.index('--n') + 1]}" if "--n" in args else f"{args[0]}-default"


@pytest.mark.parametrize("args", list(GOLDEN), ids=_golden_id)
def test_golden_report_hashes(tmp_path, args):
    assert cli_main(["experiment", *args, "--seed", "42", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / f"{args[0]}.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[args]
