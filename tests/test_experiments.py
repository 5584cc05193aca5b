import hashlib
import math
import os
import sys
import threading
import time
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from qcoherence import experiments, haar, measures
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
from qcoherence.errors import DimensionMismatchError
from qcoherence.experiments import (
    AXIOM_SLACK_TOL,
    MEASURE_CODES,
    THEOREM42_MEASURES,
    _chunk_trials,
    _commuting_pair,
    _draw_chunk,
    _prop31_row,
    _threads,
    _unbiased_eigenbasis_pair,
    check_subspace_bound,
    random_density_matrix,
    random_hermitian,
)
from qcoherence.haar import _ginibre, _hermitian, as_generator, sample_haar_unitaries
from qcoherence.linalg import checked_eigh
from qcoherence.measures import MEASURES, adversarial_subspaces, worst_deviations


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


@pytest.mark.parametrize("n, rank, error, match", [
    pytest.param(3, 0, ValueError, "rank must be at least 1", id="0"),
    pytest.param(3, -1, ValueError, "rank must be at least 1", id="-1"),
    pytest.param(0, None, DimensionMismatchError, "dimension must be >= 1", id="n0"),
    pytest.param(-1, 1, DimensionMismatchError, "dimension must be >= 1", id="n-1"),
])
def test_random_density_matrix_rejects_rank_below_one(n, rank, error, match):
    # rank 0 gave an all-NaN state, -1 numpy's "negative dimensions", and
    # n = 0 a 0 x 0 "state"
    with pytest.raises(error, match=match):
        random_density_matrix(n, np.random.default_rng(0), rank=rank)


def _never(*args, **kwargs):
    raise AssertionError("drawn before the parameters were checked")


def test_purity_sweep_rejects_rank_zero(monkeypatch):
    # was a LinAlgError from the NaN state, and then a ValueError raised
    # after the pure state was drawn
    monkeypatch.setattr(experiments, "random_density_matrix", _never)
    with pytest.raises(ValueError, match="^rank must be at least 1, got 0$"):
        run_purity_sweep(n_list=(4,), samples=10, seed=0, rank=0)


@pytest.mark.parametrize("run", [
    run_theorem42_suite, run_proposition31_suite, run_purity_sweep, run_srel_demo,
    lambda seed: as_generator(seed),
], ids=["theorem42", "prop31", "purity", "srel", "as_generator"])
def test_a_negative_seed_is_rejected_before_any_draw(monkeypatch, run):
    # srel recorded seed = -1, the others raised numpy's unnamed
    # "expected non-negative integer"
    monkeypatch.setattr(SeededGenerator, "substream", _never)
    monkeypatch.setattr(experiments, "srel_counterexample", _never)
    with pytest.raises(ValueError, match=r"^seed must be nonnegative, got -1$"):
        run(seed=-1)


def test_generator_is_the_empty_spawn_key():
    ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(42)))
    assert SeededGenerator(42).generator().bit_generator.state == ref.bit_generator.state


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


@pytest.mark.parametrize("row", ["1,2", "1,2,1,7", "1,x,1"], ids=["short", "long", "not-a-number"])
def test_load_report_rejects_a_row_that_does_not_fit_the_header(tmp_path, row):
    # a short row loaded without its ok cell, a long one dropped its extra;
    # a cell that is not a number raised float()'s error, with no place
    path = tmp_path / "report.csv"
    path.write_text(f"a,b,ok\n1,2,1\n{row}\n# experiment = demo\n# verdict = pass\n")
    with pytest.raises(ValueError, match="report.csv:3"):
        load_report(path)


@pytest.mark.parametrize("text, where", [
    ("a,ok\n1,1\n2,0\n# experiment = demo\n# verdict = pass\n", "report.csv: "),
    ("a,ok\n# experiment = demo\n# verdict = pass\n", "report.csv: "),
    ("a,ok\n1,1\n# experiment = demo\n", "report.csv: "),
    ("a\n1\n# experiment = demo\n# verdict = pass\n", "report.csv: "),
    ("a,ok\n1,1\n# seed = 1.5\n# verdict = pass\n", "report.csv:3: "),
    ("a,ok\n1,1\n# parameters = {n: 2}\n# verdict = pass\n", "report.csv:3: "),
], ids=["failing-row", "no-rows", "no-verdict", "no-ok-column", "bad-seed", "bad-parameters"])
def test_load_report_recomputes_the_verdict(tmp_path, text, where):
    # the first two loaded as a pass from the verdict line alone; a seed or
    # parameters line it cannot read raised int()'s or json's error, with no
    # path or line
    path = tmp_path / "report.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=where):
        load_report(path)


@pytest.mark.parametrize("ok", ["nan", "0.5", "-1"])
def test_a_row_passes_only_when_ok_is_one(tmp_path, ok):
    # ok was read as truthy: each of these rows passed, and so did the file
    assert not ExperimentReport.from_rows("demo", {}, [{"ok": float(ok)}], seed=0).verdict
    path = tmp_path / "report.csv"
    path.write_text(f"a,ok\n1,{ok}\n# experiment = demo\n# verdict = pass\n")
    with pytest.raises(ValueError, match="the rows fail, but the verdict line reads 'pass'"):
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


@pytest.mark.parametrize("n", [0, -1])
def test_subspace_bound_rejects_a_dimension_below_one(monkeypatch, n):
    # n = 0 raised ZeroDivisionError in _chunk_trials, n = -1 numpy's
    # "negative dimensions are not allowed"
    monkeypatch.setattr(SeededGenerator, "substream", _never)
    with pytest.raises(DimensionMismatchError, match=f"^dimension must be >= 1, got {n}$"):
        check_subspace_bound(n, range(5), SeededGenerator(0), 0)


@pytest.mark.parametrize("n_list", [(8, 4), (4, 4), (0, 4), (-2,)],
                         ids=["decreasing", "repeated", "zero", "negative"])
def test_purity_sweep_rejects_a_list_that_does_not_increase(monkeypatch, n_list):
    monkeypatch.setattr(SeededGenerator, "substream", _never)
    with pytest.raises(ValueError, match=r"strictly increasing list of n >= 1"):
        run_purity_sweep(n_list=n_list, samples=10)


@pytest.mark.parametrize("samples, message", [
    (-1, "samples must be at least 2, got -1"), (1, "samples must be at least 2, got 1"),
])
def test_purity_sweep_rejects_samples_before_any_draw(monkeypatch, samples, message):
    monkeypatch.setattr(experiments, "random_density_matrix", _never)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_purity_sweep(n_list=(4,), samples=samples)


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


@pytest.mark.parametrize("run, values", [
    (lambda v: run_theorem42_suite(n_list=v, trials=3), (2, 4)),
    (lambda v: run_proposition31_suite(n_list=v, trials=3), (2, 4)),
    (lambda v: run_purity_sweep(n_list=v, samples=10), (4, 8)),
    (lambda v: run_srel_demo(c_list=v), (1.0, 2.0)),
], ids=["theorem42", "prop31", "purity", "srel"])
def test_runners_read_a_one_shot_list_once(tmp_path, run, values):
    # the argument checks consumed an iterator: purity then ran no block
    # and failed, with n_list: [] in its report
    write_report(run(values), tmp_path / "tuple.csv")
    write_report(run(iter(values)), tmp_path / "iter.csv")
    assert (tmp_path / "iter.csv").read_bytes() == (tmp_path / "tuple.csv").read_bytes()


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_csv_round_trip(tmp_path, newline):
    report = run_srel_demo((1.0, 2.0), seed=4)
    path = tmp_path / "srel.csv"
    write_report(report, path)
    # a CRLF copy read "the header has no ok column": "ok\r" kept its \r
    path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
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
    # slack, over the Wishart trials, does not move (one chunk per n here);
    # the suite reaches worst_deviations through measures.check_axiom2
    real = measures.worst_deviations

    def bumped(batch):
        worst = real(batch)
        worst[0] += 10.0  # above every measure of trial 0, delta included
        return worst

    def bound_rows(report):
        return {(r["n"], r["measure"]): r for r in report.rows if r["kind"] == 1.0}

    clean = bound_rows(run_theorem42_suite(n_list=(2, 4), trials=20, seed=42))
    monkeypatch.setattr(measures, "worst_deviations", bumped)
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
    with pytest.raises(ValueError, match="^n must be at least 2, got 1$"):
        run_theorem42_suite(n_list=(2, 1), trials=1, seed=0)


def test_prop31_rejects_dimension_one():
    # n = 1 has no spectral gap, so the near-degenerate family cannot be built
    with pytest.raises(ValueError, match="^n must be at least 2, got 1$"):
        run_proposition31_suite(n_list=(2, 1), trials=3, seed=0)


def test_prop31_zero_trials_writes_failing_zero_check_rows():
    report = run_proposition31_suite(n_list=(2,), trials=0, seed=0)
    random_rows = [r for r in report.rows if r["family"] == 1.0]
    assert random_rows == [{"n": 2.0, "family": 1.0, "bound": 1.0, "count": 0.0,
                            "min_rel_slack": float("inf"), "ok": 0.0}]
    assert not report.verdict


def test_prop31_random_family_is_one_ginibre_draw(monkeypatch):
    # block b's random pairs are the Hermitian parts of one
    # _ginibre(substream(b), (trials, 2, n, n)) stack, drawn first, then the
    # commuting, unbiased and near-degenerate pairs; the block solves them as
    # one stack, and each family's rows equal a solve of that family alone
    calls = {"checked_eigh": 0, "commutator_terms": 0}

    def spy(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(experiments, name, counted)

    spy("checked_eigh", checked_eigh)
    spy("commutator_terms", commutator_terms)
    report = run_proposition31_suite(n_list=(2, 4), trials=30, seed=5)
    assert calls == {"checked_eigh": 2, "commutator_terms": 2}

    def near_degenerate_pair(n, rng):  # its frame drawn as a random_basis
        w = np.sort(rng.standard_normal(n))
        w[1] = w[0] + 1e-13
        v = random_basis(n, rng).vectors
        return (v * w) @ v.conj().T, _hermitian(_ginibre(rng, (n, n)))

    want = []
    for block, n in enumerate((2, 4)):
        rng = SeededGenerator(5).substream(block)
        families = [_hermitian(_ginibre(rng, (30, 2, n, n)))] + [
            np.array([pair(n, rng)])
            for pair in (_commuting_pair, _unbiased_eigenbasis_pair, near_degenerate_pair)
        ]
        for family, m in enumerate(families, 1):
            norm, upper, d, lower, degenerate = commutator_terms(m, *checked_eigh(m))
            assert degenerate.any() == (family == 4)
            want.append(_prop31_row(n, float(family), 1.0, norm, upper))
            if family != 4:
                want.append(_prop31_row(n, float(family), 2.0, d, lower))
    assert report.rows == want


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


@pytest.mark.parametrize("call, name, value", [
    (lambda: run_srel_demo(seed=1.5), "seed", 1.5),
    (lambda: run_theorem42_suite(n_list=(2,), trials=2.5), "trials", 2.5),
    (lambda: run_theorem42_suite(n_list=(2,), trials=2, seed=1.5), "seed", 1.5),
    (lambda: run_purity_sweep(n_list=(4,), samples=10.5), "samples", 10.5),
    (lambda: run_proposition31_suite(n_list=(2,), trials=2.5), "trials", 2.5),
    (lambda: sample_haar_unitaries(2, 1.5, 0), "samples", 1.5),
    (lambda: SeededGenerator(1.5), "seed", 1.5),
    (lambda: run_proposition31_suite(n_list=(2.5,)), "n", 2.5),
    (lambda: run_proposition31_suite(n_list=(4, 2.5)), "n", 2.5),
    (lambda: run_theorem42_suite(n_list=(4, 2.5)), "n", 2.5),
    (lambda: run_purity_sweep(n_list=(4, 8.5), samples=10), "n", 8.5),
    (lambda: run_purity_sweep(n_list=(4,), samples=10, rank=2.5), "rank", 2.5),
    (lambda: random_density_matrix(4, 0, rank=2.5), "rank", 2.5),
    (lambda: random_density_matrix(3, 0, rank=5.5), "rank", 5.5),
    (lambda: run_srel_demo(seed=True), "seed", True),
    (lambda: run_theorem42_suite(n_list=(2,), trials=True), "trials", True),
    (lambda: sample_haar_unitaries(2, True, 0), "samples", True),
    (lambda: random_density_matrix(3, 0, rank=True), "rank", True),
    (lambda: run_purity_sweep(n_list=("4",), samples=10), "n", "'4'"),
    (lambda: run_purity_sweep(n_list=(None,), samples=10), "n", None),
], ids=["srel-seed", "theorem42-trials", "theorem42-seed", "purity-samples", "prop31-trials",
        "sampler-count", "generator-seed", "prop31-n", "prop31-second-n", "theorem42-second-n",
        "purity-second-n", "purity-rank", "state-rank", "state-rank-above-n", "srel-seed-bool",
        "theorem42-trials-bool", "sampler-count-bool", "state-rank-bool", "purity-first-n",
        "purity-none-n"])
def test_a_count_that_is_not_an_integer_is_rejected_before_any_draw(monkeypatch, call, name,
                                                                    value):
    # srel wrote "# seed = 1.5"; the others raised an untyped TypeError, from
    # range() or from numpy, a DimensionMismatchError after a whole block was
    # drawn, or (rank 5.5 at n = 3) nothing, as rank 3.  True passed as 1:
    # srel wrote "# seed = True", which load_report could not read back
    monkeypatch.setattr(SeededGenerator, "substream", _never)
    monkeypatch.setattr(experiments, "_ginibre", _never)
    monkeypatch.setattr(haar, "_ginibre", _never)
    monkeypatch.setattr(experiments, "srel_counterexample", _never)
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
        call()


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
    """The (trial range, substream keys) of each chunk check_subspace_bound
    draws, each key recorded with the draw that opened it on its own thread,
    in completion order; and the keys opened outside any draw."""
    drawn, stray, local = [], [], threading.local()
    draw, substream = experiments._draw_chunk, SeededGenerator.substream

    def spy_draw(n, chunk, *rest):
        local.keys = keys = []
        try:
            return draw(n, chunk, *rest)
        finally:
            del local.keys
            drawn.append((chunk, keys))

    def spy_substream(self, key):
        getattr(local, "keys", stray).append(key)
        return substream(self, key)

    monkeypatch.setattr(experiments, "_draw_chunk", spy_draw)
    monkeypatch.setattr(SeededGenerator, "substream", spy_substream)
    return drawn, stray


@pytest.mark.parametrize("n, trials", [
    (2, range(5, 4100)), (3, range(0, 2000)), (16, range(5, 137)), (32, range(5, 137)),
    (32, range(7, 8)), (64, range(1, 6)), (128, range(0, 3)), (200, range(0, 2)),
])
def test_chunks_cover_the_trials_once(monkeypatch, n, trials):
    # each chunk, clipped to the trials, is drawn once from its own
    # substream; one trial fills a chunk when it exceeds _CHUNK_ENTRIES.
    # Threads draw chunks in any order, so the draws are compared sorted.
    drawn, stray = _spy(monkeypatch)
    check_subspace_bound(n, trials, SeededGenerator(3), 5)
    step = _chunk_trials(n)
    drawn.sort(key=lambda d: d[0].start)
    chunks = [c for c, _ in drawn]
    assert [t for c in chunks for t in c] == list(trials)
    assert [keys for _, keys in drawn] == [[(5, c.start // step)] for c in chunks]
    assert all(c.start // step == (c.stop - 1) // step for c in chunks)
    assert len(chunks) == -(-trials.stop // step) - trials.start // step
    assert stray == []


def test_empty_range_opens_no_substream(monkeypatch):
    drawn, stray = _spy(monkeypatch)
    got = check_subspace_bound(4, range(5, 5), SeededGenerator(3), 0)
    assert got == dict.fromkeys(THEOREM42_MEASURES, (np.inf, 0, False))
    assert drawn == stray == []


def test_threads_are_one_per_cpu_at_most_one_per_chunk():
    assert _threads(0) == _threads(1) == 1
    assert 1 <= _threads(10**6) <= (os.cpu_count() or 1)


def _serial_slacks(n, trials, root, block):
    """The subspace-bound slacks (measures x trials), one chunk after another."""
    step = _chunk_trials(n)
    parts = []
    for start in range(trials.start // step * step, trials.stop, step):
        batch = _draw_chunk(n, range(max(start, trials.start), min(start + step, trials.stop)),
                            root, block)[2]
        worst = worst_deviations(batch)
        parts.append([MEASURES[m](batch) - worst for m in THEOREM42_MEASURES])
    return np.concatenate(parts, axis=1)


def test_threads_over_chunks_match_the_chunk_by_chunk_results(monkeypatch):
    # more threads than cores and a switch every microsecond: a lost or
    # misplaced write into the shared slacks would change the rows reduced
    # (np.empty leaves unwritten columns as garbage) or the reduction
    cases = [(16, range(30, 600)), (32, range(5, 137)), (32, range(0, 90))]
    serial = {}
    for n, trials in cases:
        step = _chunk_trials(n)
        alone = [check_subspace_bound(n, range(max(s, trials.start), min(s + step, trials.stop)),
                                      SeededGenerator(8), 2)
                 for s in range(trials.start // step * step, trials.stop, step)]
        want = {m: (min(a[m][0] for a in alone), sum(a[m][1] for a in alone),
                    all(a[m][2] for a in alone)) for m in THEOREM42_MEASURES}
        serial[n, trials] = want, _serial_slacks(n, trials, SeededGenerator(8), 2)
    rows = []
    reduce = experiments.reduce_checks
    monkeypatch.setattr(experiments, "_threads", lambda chunks: 8)
    monkeypatch.setattr(experiments, "reduce_checks",
                        lambda slacks, tol: rows.append(slacks.copy()) or reduce(slacks, tol))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 20
        for _ in range(3):
            for (n, trials), (want, slacks) in serial.items():
                rows.clear()
                assert check_subspace_bound(n, trials, SeededGenerator(8), 2) == want
                assert (np.array(rows) == slacks).all()
            assert time.monotonic() < deadline
    finally:
        sys.setswitchinterval(interval)


def test_one_pool_per_theorem42_run_writes_the_same_bytes_at_any_thread_count(monkeypatch, tmp_path):
    # one pool runs every block's chunks and decay paths, largest n first;
    # the rows are built in block order after every task, so neither the
    # thread count nor a switch every microsecond reaches a byte
    draw, drawn, pools = experiments._draw_chunk, [], []
    monkeypatch.setattr(experiments, "_draw_chunk", lambda n, *rest: drawn.append(n) or draw(n, *rest))
    reports = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 8):
            monkeypatch.setattr(experiments, "_threads", lambda tasks, k=threads: pools.append(tasks) or k)
            drawn.clear()
            write_report(run_theorem42_suite(n_list=(2, 8, 16, 32), trials=100, seed=3), tmp_path / "t.csv")
            reports.append((tmp_path / "t.csv").read_bytes())
            if threads == 1:
                assert drawn == sorted(drawn, reverse=True)
    finally:
        sys.setswitchinterval(interval)
    assert reports[0] == reports[1] == reports[2]
    # 1 + 1 + 2 + 7 chunks and 4 decay tasks, all on one pool per run
    assert pools == [15, 15, 15]


def _theorem42_run():
    return run_theorem42_suite(n_list=(16, 32), trials=999, seed=1)


@pytest.mark.parametrize("run, chunks, failing", [
    (lambda: check_subspace_bound(32, range(5, 137), SeededGenerator(1), 0), 9, "chunk"),
    (_theorem42_run, 63 + 16, "chunk"),
    (_theorem42_run, 63 + 16, "decay"),
], ids=["check_subspace_bound", "run_theorem42_suite", "run_theorem42_suite-decay"])
def test_a_chunk_error_propagates_and_every_thread_ends(monkeypatch, run, chunks, failing):
    # each draw holds its thread for 5 ms, so the tasks queued behind the
    # failed one are still waiting when it fails, and must never start
    draw, drawn = experiments._draw_chunk, []

    def spy(n, chunk, *rest):
        drawn.append(chunk)
        if failing == "chunk" and n == 32 and chunk.start // _chunk_trials(n) == 3:
            raise RuntimeError(f"chunk {chunk} failed")
        time.sleep(0.005)
        return draw(n, chunk, *rest)

    def no_path(*args):
        raise RuntimeError("the decay path failed")

    before = set(threading.enumerate())
    monkeypatch.setattr(experiments, "_threads", lambda tasks: 4)
    monkeypatch.setattr(experiments, "_draw_chunk", spy)
    if failing == "decay":
        monkeypatch.setattr(experiments, "approach_path", no_path)
    message = {"chunk": r"^chunk range\(48, 64\) failed$", "decay": r"^the decay path failed$"}[failing]
    with pytest.raises(RuntimeError, match=message) as caught:
        run()
    assert caught.type is RuntimeError
    assert len(drawn) < chunks
    for thread in set(threading.enumerate()) - before:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert threading.active_count() == len(before)


def test_trial_zero_is_the_maximally_mixed_state():
    lam = _draw_chunk(3, range(0, 2), SeededGenerator(4), 0)[0]
    assert (lam[0] == 1 / 3).all()
    assert np.abs(lam[1] - 1 / 3).max() > 1e-3


def test_eigenframe_overlaps_equal_the_identity_overlaps():
    # rho is diagonal, so its eigenbasis overlaps with W are |W|^2 bit for bit;
    # delta is the distance from the identity on the non-degenerate Wishart
    # trials, and 0 at the maximally mixed trial 0, whose one eigenspace
    # holds every basis
    lam, w, batch = _draw_chunk(8, range(0, 40), SeededGenerator(5), 2)
    eye = np.broadcast_to(np.eye(8, dtype=np.complex128), w.shape)
    assert batch.eigen[0] is lam
    assert (batch.eigen[1] == overlap_tables(eye, w)).all()
    delta = MEASURES[DELTA](batch)
    assert (delta[1:] == basis_distances(eye[1:], w[1:])).all()
    assert delta[0] == 0.0


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


@pytest.mark.parametrize("n", range(2, 17))
def test_wishart_purity_law_at_every_rank(n):
    # E tr(rho^2) = (n + r) / (n r + 1) for G G^H / tr with G an n x r
    # Ginibre matrix, and the n - r smallest eigenvalues are exact zeros
    for r in sorted({1, 2, 3, n} & set(range(1, n + 1))):
        lam, w = experiments._wishart(SeededGenerator(n).substream(r), n, r, 2000, slice(None))
        assert lam.shape == (2000, n) and w.shape == (2000, n, n)
        assert (lam[:, :n - r] == 0.0).all() and (lam[:, n - r:] > 0.0).all()
        assert (np.diff(lam, axis=-1) >= 0.0).all() and np.abs(lam.sum(axis=-1) - 1.0).max() < 1e-14
        est = MonteCarloEstimate.from_samples((lam**2).sum(axis=-1))
        assert abs(est.z_score((n + r) / (n * r + 1.0))) <= haar.Z_MAX


@pytest.mark.parametrize("n, r", [(2, 1), (6, 2), (8, 3), (8, 8)])
def test_wishart_frames_are_unitary_with_a_haar_top(n, r):
    # the complete QR of the n x r block gives a unitary whose last r
    # columns are a Haar isometry: each modulus is Beta(1, n - 1).  The QR's
    # completion columns are not: they lean to their own unit vectors, so the
    # last row tells them apart (7 KS tests, so a family-wise bound)
    from scipy.stats import kstest

    w = experiments._wishart(SeededGenerator(40 + n + r).generator(), n, r, 4000, slice(None))[1]
    assert np.abs(np.swapaxes(w.conj(), -1, -2) @ w - np.eye(n)).max() < 1e-12
    for k in {n - r, n - 1}:
        assert kstest(np.abs(w[:, n - 1, k]) ** 2, "beta", args=(1, n - 1)).pvalue > 1e-3


@pytest.mark.parametrize("n, r", [(4, 1), (6, 2), (8, 3)])
def test_the_zero_eigenspace_basis_is_never_read(n, r):
    # a rank-r state is the same matrix, with the same delta and s_rel in
    # any basis, whichever basis of its zero eigenspace it keeps
    lam, w = experiments._wishart(SeededGenerator(50 + n).generator(), n, r, 1, 0)
    turned = w.copy()
    turned[:, :n - r] = w[:, :n - r] @ sample_haar_unitaries(n - r, 1, SeededGenerator(51 + n))[0]
    rho, other = DensityMatrix.from_eigensystem(lam, w), DensityMatrix.from_eigensystem(lam, turned)
    assert (rho.matrix == other.matrix).all()
    for basis in (random_basis(n, 52 + n), OrthonormalBasis(w), OrthonormalBasis(turned)):
        for m in (DELTA, "s_rel"):
            a, b = (evaluate_measure(rewrite_in_basis(s, basis), m) for s in (rho, other))
            assert abs(a - b) <= 1e-12, (m, a, b)


@pytest.mark.parametrize("rank", [1, 2])
def test_a_low_rank_state_at_n_256(rank):
    # the largest n a test draws: the state is its r top columns, and its
    # zero eigenspace is orthogonal to them
    n = 256
    rho = random_density_matrix(n, SeededGenerator(rank).generator(), rank)
    lam, basis = rho.eigensystem()
    v = basis.vectors
    assert (lam[:n - rank] == 0.0).all() and abs(lam.sum() - 1.0) < 1e-14
    assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-12
    assert np.abs(rho.matrix @ v[:, :n - rank]).max() < 1e-14
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-14


@pytest.mark.parametrize("n, r", [(8, 3), (8, 8), (16, 5), (6, 2)])
def test_wishart_spectrum_edges_match_dense_draws(n, r):
    # two-sample KS of the top and the smallest nonzero eigenvalue against
    # G G^H / tr built densely from an n x r Ginibre G
    from scipy.stats import ks_2samp

    count = 4000
    lam = experiments._wishart(SeededGenerator(90 + n).generator(), n, r, count, slice(None))[0]
    g = _ginibre(SeededGenerator(95 + n + r).generator(), (count, n, r))
    dense = np.linalg.eigvalsh(g @ np.swapaxes(g.conj(), -1, -2))
    dense /= dense.sum(axis=-1, keepdims=True)
    for k in (n - r, n - 1):
        assert ks_2samp(lam[:, k], dense[:, k]).pvalue > 0.01


@pytest.mark.parametrize("rank", [1, 2, None])
def test_a_random_state_keeps_its_drawn_eigensystem(monkeypatch, rank):
    n = 5
    lam, w = experiments._wishart(SeededGenerator(3).generator(), n, rank or n, 1, 0)
    monkeypatch.setattr(np.linalg, "eigh", None)  # neither the draw nor the read may run one
    rho = random_density_matrix(n, SeededGenerator(3).generator(), rank)
    got, basis = rho.eigensystem()
    assert (got == lam).all() and (basis.vectors == w).all()
    # the product runs over the r columns of the nonzero levels, which come last
    top = w[:, n - (rank or n):]
    assert (rho.matrix == (top * lam[n - (rank or n):]) @ top.conj().T).all()
    assert np.abs(np.linalg.eigvalsh(rho.matrix) - lam).max() < 1e-15


def test_a_default_theorem42_run_calls_no_eigh_and_no_svd(monkeypatch):
    # the decay stage reads each drawn state's eigensystem and builds its
    # path as W diag(e^{i t h}) W^H; the bound trials run only real eigvalsh.
    # A default prop31 run needs eigh for its pairs' bases, and takes each
    # ||[A,B]|| from eigvalsh, so it runs no svd either
    calls = []
    numpy_linalg = np.linalg.norm.__wrapped__.__globals__  # where norm finds its svd

    def spy(name, real):
        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counting

    for name in ("eigh", "svd"):
        counting = spy(name, getattr(np.linalg, name))
        monkeypatch.setattr(np.linalg, name, counting)
        monkeypatch.setitem(numpy_linalg, name, counting)
    assert run_theorem42_suite(seed=42).verdict
    assert calls == []
    assert run_proposition31_suite(seed=42).verdict
    assert set(calls) == {"eigh"}
    calls.clear()
    np.linalg.norm(np.eye(2), 2)  # the spies see the svd behind a matrix 2-norm
    assert calls == ["svd"]


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
# explained in CHANGES.md.  Each report is also stored in GOLDEN_DIR under
# its _golden_id, so a re-pin shows its changed cells in the diff.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = {
    ("theorem42", "--n", "2,4", "--trials", "20"):
        "9f56412997a2dd73900d8e5015a3ff2888b388b1644a61211f3c18f16e108455",
    ("prop31", "--n", "2,4", "--trials", "30"):
        "225e369b24c14e7c9be8b60151e0fcf87177e995ef0c3f072657813282ca696a",
    ("purity", "--n", "4,8", "--samples", "300"):
        "bfaa05cab3fc7c47925f2138e9e2a19f15a9d20f7b0a18e618f528fc99e57479",
    ("srel",):
        "294b7875475bbff4740aaa298ac260a670982a4c0854e10e62ca2b3c20c4bd57",
    # several chunks at both n
    ("theorem42", "--n", "16,32", "--trials", "100"):
        "33ffe84abfa2a62b9b1de474e3d7ae08d9d7836d833f7b6e1c9abe3c08a14bcc",
    # r = 3 levels above the lowest: the QR moduli path
    ("purity", "--n", "4,8", "--samples", "300", "--rank", "3"):
        "faa33cf02dd210c2cafc6100b86b715abc6c12e9a7335bd0f8d14301bf61075f",
    # the default runs
    ("theorem42",):
        "1addad0e18c4e328ec9071f46a9fc4535a142d0b236fcf79823e4df6db0be2fc",
    ("prop31",):
        "0e6b67e32776684370153e63d4c18f727bb8b2f0707abcd3aa2d2f99e5c355b3",
    ("purity",):
        "145d59f0dcc65d2b000dc547284f76dc6cf463abc3756b41605b076211672b39",
}


def _golden_id(args):
    """The suite name; a suite's later goldens add their --n list, or
    "default" when they have none."""
    first = next(a for a in GOLDEN if a[0] == args[0])
    if args == first:
        return args[0]
    return f"{args[0]}-n{args[args.index('--n') + 1]}" if "--n" in args else f"{args[0]}-default"


def _ulps(a: float, b: float) -> float:
    """Doubles between a and b, each counted once; inf unless both are finite."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    # Sign-magnitude bit patterns onto one ordered integer line; -0.0 == 0.0.
    a, b = (i if i >= 0 else -(i & (2**63 - 1)) for i in np.array([a, b]).view(np.int64).tolist())
    return abs(a - b)


def _cell_drift(stored: str, new: str) -> str:
    """Each cell where the report text `new` differs from `stored`: its row
    (1 = first data row), column, both values and their distance in ulps.
    A header, metadata or missing line that differs is shown whole."""
    header = stored.splitlines()[0].split(",")
    drift = []
    for i, (a, b) in enumerate(zip_longest(stored.splitlines(), new.splitlines(), fillvalue="")):
        if a == b:
            continue
        cells = a.split(","), b.split(",")
        ragged = not len(cells[0]) == len(cells[1]) == len(header)
        if i == 0 or a.startswith("#") or b.startswith("#") or ragged:
            drift.append(f"line {i + 1}: {a!r} -> {b!r}")
            continue
        drift += [f"row {i}, {col}: {x} -> {y} ({_ulps(float(x), float(y)):g} ulp)"
                  for col, x, y in zip(header, *cells) if x != y]
    return "\n".join(drift)


def test_cell_drift_names_each_changed_cell():
    stored = "n,bound,ok\n2,0.5,1\n4,-0,1\n# verdict = pass\n"
    new = "n,bound,ok\n2,0.50000000000000011,1\n4,5e-324,nan\n# verdict = fail\n"
    assert _cell_drift(stored, new).splitlines() == [
        "row 1, bound: 0.5 -> 0.50000000000000011 (1 ulp)",
        "row 2, bound: -0 -> 5e-324 (1 ulp)",
        "row 2, ok: 1 -> nan (inf ulp)",
        "line 4: '# verdict = pass' -> '# verdict = fail'",
    ]
    assert _cell_drift(stored, stored.replace("4,-0,1\n", "")).splitlines() == [
        "line 3: '4,-0,1' -> '# verdict = pass'", "line 4: '# verdict = pass' -> ''"]


@pytest.mark.parametrize("args", list(GOLDEN), ids=_golden_id)
def test_golden_report_hashes(tmp_path, args):
    stored = (GOLDEN_DIR / f"{_golden_id(args)}.csv").read_bytes()
    assert hashlib.sha256(stored).hexdigest() == GOLDEN[args], "the stored report is not the pinned one"
    assert cli_main(["experiment", *args, "--seed", "42", "--out", str(tmp_path)]) == 0
    new = (tmp_path / f"{args[0]}.csv").read_bytes()
    digest = hashlib.sha256(new).hexdigest()
    assert digest == GOLDEN[args], _cell_drift(stored.decode(), new.decode())
