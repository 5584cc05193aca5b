"""Text format for matrices and bases.

First line: the dimension n.  Then n lines of n complex entries written as
`re+imj` / `re-imj` (plain reals allowed), separated by whitespace:

    2
    0.5+0j 0.05+0j
    0.05+0j 0.5+0j

A state file holds a density matrix and a basis file the unitary whose
columns are the basis vectors.
"""

from __future__ import annotations

import numpy as np

from .errors import MatrixParseError
from .linalg import DensityMatrix, OrthonormalBasis, validate_density


def parse_matrix(text: str) -> np.ndarray:
    lines = text.splitlines()
    stripped = [(i + 1, line.strip()) for i, line in enumerate(lines)]
    stripped = [(no, line) for no, line in stripped if line]
    if not stripped:
        raise MatrixParseError("empty file", 1)
    header_no, header = stripped[0]
    try:
        n = int(header)
    except ValueError:
        raise MatrixParseError(f"expected the dimension, found {header!r}", header_no) from None
    if n < 1:
        raise MatrixParseError(f"dimension must be positive, found {n}", header_no)
    body = stripped[1:]
    if len(body) != n:
        raise MatrixParseError(
            f"expected {n} matrix rows, found {len(body)}",
            body[-1][0] if body else header_no,
        )
    out = np.empty((n, n), dtype=np.complex128)
    for r, (no, line) in enumerate(body):
        tokens = line.split()
        if len(tokens) != n:
            raise MatrixParseError(f"expected {n} entries, found {len(tokens)}", no)
        for c, token in enumerate(tokens):
            try:
                out[r, c] = complex(token)
            except ValueError:
                raise MatrixParseError(f"bad complex number {token!r}", no) from None
    return out


def format_matrix(m: np.ndarray) -> str:
    n = m.shape[0]
    rows = [str(n)]
    for r in range(n):
        rows.append(" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in m[r]))
    return "\n".join(rows) + "\n"


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return parse_matrix(fh.read())


def write_matrix(path, m) -> None:
    with open(path, "w") as fh:
        fh.write(format_matrix(np.asarray(m, dtype=np.complex128)))


def read_density(path) -> DensityMatrix:
    return validate_density(read_matrix(path))


def read_basis(path) -> OrthonormalBasis:
    return OrthonormalBasis.from_columns(read_matrix(path))

