"""Header errors of the matrix text format, and bytes that are not UTF-8,
through the CLI: each is E_PARSE, exit 2, with the message naming its line."""

import pytest

from qcoherence.cli import main


@pytest.mark.parametrize("text, message", [
    ("", "line 1: empty file"),
    ("  \n\n", "line 1: empty file"),
    ("two\n1 0\n0 1\n", "line 1: expected the dimension, found 'two'"),
    ("0\n", "line 1: expected a positive dimension, found 0"),
    ("-2\n1 0\n0 1\n", "line 1: expected a positive dimension, found -2"),
    # not UTF-8 was E_USAGE, "'utf-8' codec can't decode byte 0xff", no line
    (b"2\n\xff\xfe 1\n1 1\n", "line 2: not UTF-8 text at byte 0xff (invalid start byte)"),
    (b"2\r\n1 0\r\n0 1\xc3\r\n", "line 3: not UTF-8 text at byte 0xc3 (invalid continuation byte)"),
], ids=["empty", "blank", "not-an-integer", "zero", "negative", "not-utf8", "not-utf8-crlf"])
@pytest.mark.parametrize("command", ["measure", "distance"])
def test_header_errors_exit_2_with_e_parse(tmp_path, capsys, command, text, message):
    path = tmp_path / "matrix.txt"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = ["measure", str(path)] if command == "measure" else ["distance", str(path), str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == ["E_PARSE", message]
