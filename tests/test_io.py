"""Header errors of the matrix text format, through the CLI: each is
E_PARSE, exit 2, with the message naming line 1."""

import pytest

from qcoherence.cli import main


@pytest.mark.parametrize("text, message", [
    ("", "line 1: empty file"),
    ("  \n\n", "line 1: empty file"),
    ("two\n1 0\n0 1\n", "line 1: expected the dimension, found 'two'"),
    ("0\n", "line 1: expected a positive dimension, found 0"),
    ("-2\n1 0\n0 1\n", "line 1: expected a positive dimension, found -2"),
], ids=["empty", "blank", "not-an-integer", "zero", "negative"])
@pytest.mark.parametrize("command", ["measure", "distance"])
def test_header_errors_exit_2_with_e_parse(tmp_path, capsys, command, text, message):
    path = tmp_path / "matrix.txt"
    path.write_text(text)
    argv = ["measure", str(path)] if command == "measure" else ["distance", str(path), str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == ["E_PARSE", message]
