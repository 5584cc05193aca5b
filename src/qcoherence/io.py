"""Text format for matrices and bases.

First line: the dimension n.  Then n lines of n complex entries written as
`re+imj` / `re-imj` (plain reals allowed), separated by whitespace:

    2
    0.5+0j 0.05+0j
    0.05+0j 0.5+0j

The module holds the format alone, for text (parse_matrix, format_matrix)
and files (read_matrix, write_matrix); callers validate what a file holds.
"""

from __future__ import annotations

import numpy as np

from .errors import MatrixParseError


def parse_matrix(text: str) -> np.ndarray:
    stripped = [(no, line.strip()) for no, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not stripped:
        raise MatrixParseError("empty file", 1)
    header_no, header = stripped[0]
    try:
        n = int(header)
    except ValueError:
        raise MatrixParseError(f"expected the dimension, found {header!r}", header_no) from None
    if n < 1:
        raise MatrixParseError(f"expected a positive dimension, found {n}", header_no)
    body = stripped[1:]
    if len(body) != n:
        raise MatrixParseError(
            f"expected {n} matrix rows, found {len(body)}",
            body[-1][0] if body else header_no,
        )
    rows = []
    for no, line in body:
        tokens = line.split()
        if len(tokens) != n:
            raise MatrixParseError(f"expected {n} entries, found {len(tokens)}", no)
        try:
            rows.append(list(map(complex, tokens)))
        except ValueError:
            for token in tokens:  # name the first token complex() rejects
                try:
                    complex(token)
                except ValueError:
                    raise MatrixParseError(f"bad complex number {token!r}", no) from None
    return np.array(rows, dtype=np.complex128)


def format_matrix(m: np.ndarray) -> str:
    n = m.shape[0]
    rows = [str(n)]
    for r in range(n):
        rows.append(" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in m[r]))
    return "\n".join(rows) + "\n"


def read_matrix(path) -> np.ndarray:
    """parse_matrix of the file's UTF-8 text; a byte that does not decode is
    a MatrixParseError on its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(data[:exc.start + 1].splitlines())  # the lines up to the bad byte
        raise MatrixParseError(f"not UTF-8 text at byte {data[exc.start]:#04x} ({exc.reason})", line) from None
    return parse_matrix(text)


def write_matrix(path, m) -> None:
    with open(path, "w") as fh:
        fh.write(format_matrix(np.asarray(m, dtype=np.complex128)))

