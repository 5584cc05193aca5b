import hashlib

import numpy as np
import pytest

from qcoherence import (
    DELTA,
    ETA1,
    ETA2,
    ETA_INF,
    DensityMatrix,
    ExperimentReport,
    SeededGenerator,
    check_axiom2,
    load_report,
    random_basis,
    rewrite_in_basis,
    run_proposition31_suite,
    run_purity_sweep,
    run_srel_demo,
    run_theorem42_suite,
    srel_id,
    write_report,
)
from qcoherence.cli import main as cli_main
from qcoherence.experiments import MEASURE_CODES, check_subspace_bound, random_density_matrix


def test_theorem42_passes_for_genuine_measures():
    report = run_theorem42_suite(n_list=(2, 4, 8), trials=100, seed=5)
    assert report.verdict
    assert all(row["ok"] == 1.0 for row in report.rows)
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


def test_theorem42_fails_when_srel_injected():
    report = run_theorem42_suite(
        n_list=(2,), trials=10, seed=2, measures=(ETA2, srel_id(1.0))
    )
    assert not report.verdict
    cex = [r for r in report.rows if r["kind"] == 3.0]
    assert len(cex) == 1
    assert cex[0]["measure"] == MEASURE_CODES["s_rel"]
    assert cex[0]["min_slack"] < 0
    assert 0 < cex[0]["epsilon"] <= 1.0
    # the eta2 rows themselves still pass
    assert all(r["ok"] == 1.0 for r in report.rows if r["measure"] == MEASURE_CODES["eta2"])


def test_prop31_suite_passes():
    report = run_proposition31_suite(n_list=(2, 4, 8), trials=100, seed=7)
    assert report.verdict
    families = {row["family"] for row in report.rows}
    assert families == {1.0, 2.0, 3.0, 4.0}
    # near-degenerate pairs contribute no lower-bound row
    assert not [r for r in report.rows if r["family"] == 4.0 and r["bound"] == 2.0]
    assert [r for r in report.rows if r["family"] == 4.0 and r["bound"] == 1.0]
    assert all(row["min_rel_slack"] >= -1e-9 for row in report.rows)


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


def test_subspace_bound_chunks_equal_the_scalar_loop():
    # the stacked path against a loop over check_axiom2 on the same stream,
    # across chunk edges (1024 trials per chunk at n = 2)
    measures = (ETA1, ETA2, ETA_INF, DELTA)
    for n, trials in ((2, range(1030)), (3, range(5, 40))):
        got = check_subspace_bound(n, trials, 11, measures)
        rng = SeededGenerator(11).generator()
        want = {m: (np.inf, 0) for m in measures}
        for trial in trials:
            rho = random_density_matrix(n, rng) if trial else DensityMatrix.maximally_mixed(n)
            s = rewrite_in_basis(rho, random_basis(n, rng))
            for m, reports in check_axiom2(s, measures, 1, rng).items():
                slack, count = want[m]
                want[m] = (min([slack] + [r.slack for r in reports]), count + len(reports))
        for m in measures:
            assert got[m][1] == want[m][1]
            assert abs(got[m][0] - want[m][0]) <= 1e-12


def test_theorem42_bound_rows_fail_without_checks():
    # negative trials run no bound check at all: that must not read as a pass
    report = run_theorem42_suite(n_list=(2,), trials=-5, seed=9, paths_per_n=0)
    assert [r["count"] for r in report.rows] == [0.0] * 4
    assert all(r["ok"] == 0.0 for r in report.rows)
    assert not report.verdict


# sha256 of small seeded reports; a change here must be deliberate and
# explained in CHANGES.md.
GOLDEN = {
    ("theorem42", "--n", "2,4", "--trials", "20"):
        "16ec56d42cd1b396bca1da5efdb0480066fecca1bc1640d75c7ed6fddc7dfeb1",
    ("prop31", "--n", "2,4", "--trials", "30"):
        "148cbc28def9fae066c90a4a277823e0653bc1a219cae9998fd7cd8e82290231",
    ("purity", "--n", "4,8", "--samples", "300"):
        "a4e91c40051cae63940e7ae243ad1af5b24033d812581482dad70d86c5b60272",
    ("srel",):
        "12ce540ec1cc9fdaf00aff72fb7bb8e0326f600af65e98db50c074e4d60f6a7a",
}


@pytest.mark.parametrize("args", list(GOLDEN), ids=lambda a: a[0])
def test_golden_report_hashes(tmp_path, args):
    assert cli_main(["experiment", *args, "--seed", "42", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / f"{args[0]}.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[args]
