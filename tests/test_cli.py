import json

import numpy as np
import pytest

from qcoherence.cli import build_parser, main
from qcoherence.io import (
    format_matrix,
    parse_matrix,
    read_matrix,
    write_matrix,
)
from qcoherence.errors import MatrixParseError


@pytest.fixture
def eps_state_file(tmp_path):
    path = tmp_path / "eps.txt"
    write_matrix(path, np.array([[0.5, 0.05], [0.05, 0.5]], dtype=complex))
    return str(path)


@pytest.fixture
def basis_files(tmp_path):
    z = tmp_path / "z.txt"
    x = tmp_path / "x.txt"
    write_matrix(z, np.eye(2, dtype=complex))
    write_matrix(x, np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
    return str(z), str(x)


class TestMatrixFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert (parse_matrix(format_matrix(m)) == m).all()

    def test_plain_reals_accepted(self):
        m = parse_matrix("2\n0.5 0.05\n0.05 0.5\n")
        assert m.dtype == np.complex128
        assert m[0, 1] == 0.05

    def test_reports_offending_line(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix("2\n1+0j 0j\n1+0j\n")
        assert err.value.line == 3

    def test_bad_token(self):
        with pytest.raises(MatrixParseError, match="banana"):
            parse_matrix("1\nbanana\n")

    def test_row_count_mismatch(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("3\n1 0 0\n0 1 0\n")

    def test_tokens_parse_as_complex_does(self):
        # complex() is the token grammar: underscores, a capital J and a
        # bare j are accepted (np.loadtxt rejects them)
        rows = [["1_0", "2J", "j"], ["-1.5e-3-0.25j", "(3+4j)", "+inf"], ["0", "-0j", "1e-300j"]]
        m = parse_matrix("3\n" + "\n".join(" ".join(row) for row in rows) + "\n")
        assert m.tolist() == [[complex(t) for t in row] for row in rows]

    @pytest.mark.parametrize("text, message, line", [
        ("2\n1 2\n3 x4\n", "bad complex number 'x4'", 3),
        ("2\n1 1__0\n3 x4\n", "bad complex number '1__0'", 2),
        ("2\n\n1 2\n3\n", "expected 2 entries, found 1", 4),
    ], ids=["bad-token", "first-bad-row", "short-row"])
    def test_error_names_token_and_line(self, text, message, line):
        with pytest.raises(MatrixParseError, match=message) as err:
            parse_matrix(text)
        assert err.value.line == line

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "m.txt"
        m = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
        write_matrix(path, m)
        assert (read_matrix(path) == m).all()


class TestMeasureCommand:
    def test_default_text_output(self, eps_state_file, capsys):
        rc = main(["measure", eps_state_file, "--measures", "eta1,eta2,eta_inf"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = {k.strip(): float(v) for k, v in (line.split("=") for line in lines)}
        assert values["eta1"] == pytest.approx(0.1, abs=1e-12)
        assert values["eta2"] == pytest.approx(0.1 / np.sqrt(2), abs=1e-9)
        assert values["eta_inf"] == pytest.approx(0.1, abs=1e-12)

    def test_json_output_with_srel(self, eps_state_file, capsys):
        rc = main(["measure", eps_state_file, "--json", "--measures", "s_rel", "--c", "2"])
        assert rc == 0
        values = json.loads(capsys.readouterr().out)
        assert values["s_rel"] == pytest.approx(2 * 0.005008366846356804, abs=1e-9)

    def test_csv_output(self, eps_state_file, capsys):
        rc = main(["measure", eps_state_file, "--csv", "--measures", "eta1,delta"])
        assert rc == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header == "eta1,delta"
        assert [float(x) for x in row.split(",")] == pytest.approx([0.1, 1.0])

    def test_maximally_mixed_gives_zeros(self, tmp_path, basis_files, capsys):
        path = tmp_path / "mm.txt"
        write_matrix(path, np.eye(2, dtype=complex) / 2)
        # the off-diagonal measures vanish in any basis; delta is pinned to
        # the solver's eigenbasis, so it vanishes at the standard basis
        rc = main(["measure", str(path), "--basis", basis_files[1], "--json",
                   "--measures", "eta1,eta2,eta_inf,s_rel"])
        assert rc == 0
        values = json.loads(capsys.readouterr().out)
        assert all(abs(v) < 1e-12 for v in values.values())
        rc = main(["measure", str(path), "--json"])
        assert rc == 0
        values = json.loads(capsys.readouterr().out)
        assert all(abs(v) < 1e-12 for v in values.values())

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1+0j 0j\n")
        rc = main(["measure", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "E_PARSE"
        assert "line" in err[1]

    def test_validation_error_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "trace.txt"
        write_matrix(bad, np.diag([1.0, 0.1]).astype(complex))
        rc = main(["measure", str(bad)])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "E_VALIDATION"
        assert "tr" in err[1]

    def test_nan_state_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "nan.txt"
        bad.write_text("2\n0.5 nan\nnan 0.5\n")
        rc = main(["measure", str(bad), "--json"])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [
            "E_VALIDATION", "state has 2 NaN or infinite entries"
        ]

    def test_inf_basis_exit_3(self, eps_state_file, tmp_path, capsys):
        bad = tmp_path / "inf.txt"
        bad.write_text("2\n1 0\n0 inf\n")
        rc = main(["measure", eps_state_file, "--basis", str(bad)])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [
            "E_VALIDATION", "basis has 1 NaN or infinite entries"
        ]

    def test_missing_input_exit_4(self, tmp_path, capsys):
        rc = main(["measure", str(tmp_path / "absent.txt")])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "E_IO"
        assert "absent.txt" in err[1] and len(err) == 2

    @pytest.mark.parametrize("args", [
        ["--measures", ""],
        ["--measures", " , "],
        ["--measures", "s_rel", "--c", "nan"],
        ["--measures", "s_rel", "--c", "inf"],
        # --c is checked even when s_rel is not requested
        ["--measures", "eta1", "--c", "nan"],
        ["--measures", "eta1", "--c", "inf"],
        ["--measures", "eta1", "--c", "0"],
        ["--measures", "eta1", "--c", "-1"],
    ], ids=["empty", "blank", "nan-c", "inf-c", "eta1-nan-c", "eta1-inf-c", "eta1-zero-c",
            "eta1-negative-c"])
    def test_vacuous_or_non_finite_request_exit_2(self, eps_state_file, capsys, args):
        rc = main(["measure", eps_state_file, "--json", *args])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0] == "E_USAGE"

    def test_unknown_measure_exit_2(self, eps_state_file, capsys):
        rc = main(["measure", eps_state_file, "--measures", "eta7"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[0] == "E_USAGE"


class TestDistanceCommand:
    def test_same_file_twice(self, basis_files, capsys):
        z, _ = basis_files
        rc = main(["distance", z, z])
        assert rc == 0
        out = capsys.readouterr().out
        assert "distance = 0" in out
        assert "mutually_unbiased = false" in out

    def test_unbiased_pair(self, basis_files, capsys):
        z, x = basis_files
        rc = main(["distance", z, x])
        assert rc == 0
        out = capsys.readouterr().out
        assert "distance = 1" in out
        assert "mutually_unbiased = true" in out

    def test_dimension_mismatch_exit_3(self, basis_files, tmp_path, capsys):
        z, _ = basis_files
        other = tmp_path / "b3.txt"
        write_matrix(other, np.eye(3, dtype=complex))
        rc = main(["distance", z, str(other)])
        assert rc == 3
        assert capsys.readouterr().err.splitlines()[0] == "E_VALIDATION"

    def test_mub_tol_is_not_a_flag_exit_2(self, basis_files, capsys):
        # the tolerance is the constant distance.MUB_TOL
        z, x = basis_files
        with pytest.raises(SystemExit) as exc:
            main(["distance", z, x, "--mub-tol", "1e-6"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0] == "E_USAGE"


class TestRepeatedCalls:
    # the parser is built once per process; parsed values must not carry
    # over from one main() call to the next
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_flags_do_not_carry_over(self, tmp_path, capsys):
        out = ["--out", str(tmp_path)]
        assert main(["experiment", "theorem42", "--n", "2", "--trials", "3", *out]) == 0
        assert main(["experiment", "purity", "--trials", "3", *out]) == 2
        assert main(["experiment", "purity", "--n", "4", "--samples", "20", *out]) == 0

    def test_output_format_does_not_carry_over(self, eps_state_file, capsys):
        assert main(["measure", eps_state_file, "--json"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == {"eta1", "eta2", "eta_inf", "delta"}
        assert main(["measure", eps_state_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(" = ")[0] for line in lines] == ["eta1", "eta2", "eta_inf", "delta"]


class TestExperimentCommand:
    def test_purity_suite_writes_csv_and_passes(self, tmp_path, capsys):
        rc = main([
            "experiment", "purity", "--n", "4,8", "--samples", "300",
            "--seed", "7", "--out", str(tmp_path),
        ])
        assert rc == 0
        text = (tmp_path / "purity.csv").read_text()
        assert text.endswith("# verdict = pass\n")
        assert "# seed = 7" in text
        assert '"rank": 2' in text  # the default, with --rank left out

    def test_byte_identical_reruns(self, tmp_path):
        args = ["experiment", "srel", "--c", "0.5,2", "--seed", "3"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "srel.csv").read_bytes()
        b = (tmp_path / "b" / "srel.csv").read_bytes()
        assert a == b

    def test_theorem42_small(self, tmp_path):
        rc = main([
            "experiment", "theorem42", "--n", "2,4", "--trials", "20",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "theorem42.csv").exists()

    def test_prop31_small(self, tmp_path):
        rc = main([
            "experiment", "prop31", "--n", "2,4", "--trials", "30",
            "--out", str(tmp_path),
        ])
        assert rc == 0

    def test_unknown_suite_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "nope", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[0] == "E_USAGE"

    def test_missing_command_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args", [
        ["theorem42", "--n", "2", "--trials", "-5"],
        ["prop31", "--trials", "-1"],
        ["purity", "--samples", "-3"],
        ["purity", "--n", "0"],
        ["theorem42", "--n", "2,-4"],
        ["purity", "--rank", "0"],
        ["srel", "--seed", "-5"],
        ["theorem42", "--seed", "-1"],
        ["purity", "--samples", "1"],
        ["purity", "--samples", "0"],
    ], ids=["negative-trials", "negative-prop31-trials", "negative-samples",
            "zero-n", "negative-n", "zero-rank", "negative-srel-seed", "negative-theorem42-seed",
            "one-sample", "zero-samples"])
    def test_bad_parameter_exit_2(self, tmp_path, capsys, args):
        # rejected at parse time: --out is not created
        with pytest.raises(SystemExit) as exc:
            main(["experiment", *args, "--out", str(tmp_path / "reports")])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "E_USAGE"
        assert "must be >=" in err[1]
        assert not list(tmp_path.iterdir())

    def test_unwritable_out_exit_4(self, tmp_path, capsys):
        blocker = tmp_path / "file.txt"
        blocker.write_text("not a directory\n")
        rc = main(["experiment", "srel", "--c", "1", "--out", str(blocker / "reports")])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "E_IO"
        assert len(err) == 2

    def test_unwritable_out_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        import qcoherence.experiments

        def never(**kwargs):
            raise AssertionError("the suite ran before --out was checked")

        monkeypatch.setattr(qcoherence.experiments, "run_purity_sweep", never)
        blocker = tmp_path / "file.txt"
        blocker.write_text("not a directory\n")
        rc = main(["experiment", "purity", "--out", str(blocker)])
        assert rc == 4
        assert capsys.readouterr().err.splitlines()[0] == "E_IO"
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("args", [
        ["srel", "--c", "nan"],
        ["srel", "--c", "1,inf"],
        ["srel", "--c", "1,nan"],
        ["prop31", "--n", "1", "--trials", "3"],
    ], ids=["srel-nan-c", "srel-inf-c", "srel-later-nan-c", "prop31-dimension-one"])
    def test_runner_usage_error_exit_2(self, tmp_path, capsys, args):
        # the suite rejects its arguments after --out is made: it is removed again
        rc = main(["experiment", *args, "--out", str(tmp_path / "a" / "reports")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[0] == "E_USAGE"
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("args", [
        ["srel", "--c", ""],
        ["purity", "--n", ""],
        ["theorem42", "--n", ","],
        ["prop31", "--n", ""],
    ], ids=["srel-empty-c", "purity-empty-n", "theorem42-comma-n", "prop31-empty-n"])
    def test_empty_list_exit_2(self, tmp_path, capsys, args):
        # an empty list must not fall back to the default suite
        out = tmp_path / "reports"
        rc = main(["experiment", *args, "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["E_USAGE", f"{args[1]} names no value"]
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["theorem42", "--samples", "7"],
        ["purity", "--trials", "99"],
        ["srel", "--n", "4"],
        ["prop31", "--rank", "2"],
        ["theorem42", "--c", "1"],
    ], ids=["theorem42-samples", "purity-trials", "srel-n", "prop31-rank", "theorem42-c"])
    def test_flag_of_another_suite_exit_2(self, tmp_path, capsys, args):
        # a flag the suite would ignore is refused, before --out is created
        out = tmp_path / "reports"
        rc = main(["experiment", *args, "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "E_USAGE", f"{args[1]} does not apply to experiment {args[0]}"
        ]
        assert not out.exists()

    def test_theorem42_dimension_one_exit_2(self, tmp_path, capsys):
        rc = main(["experiment", "theorem42", "--n", "1", "--trials", "1",
                   "--out", str(tmp_path / "a" / "reports")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "E_USAGE"
        assert "n >= 2" in err[1]
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("n", ["8,4", "4,4"], ids=["decreasing", "repeated"])
    def test_purity_n_not_increasing_exit_2(self, tmp_path, capsys, n):
        # each n was compared with the previous one in the list, so these
        # wrote rows with nonincreasing = 0 and exited 1
        out = tmp_path / "a" / "reports"
        rc = main(["experiment", "purity", "--n", n, "--samples", "50", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "E_USAGE"
        assert "strictly increasing" in err[1]
        assert not (tmp_path / "a").exists()

    def test_zero_trials_reach_the_runner(self, tmp_path):
        # 0 is a legal count: only the maximally mixed trial runs, and passes
        rc = main(["experiment", "theorem42", "--n", "2", "--trials", "0",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert '"trials": 0' in (tmp_path / "theorem42.csv").read_text()
