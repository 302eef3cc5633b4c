"""Text matrix files: a 'rows cols' header, then one line per row.

Entries are serialized with 17 significant digits, which round-trips every
64-bit float bit-exactly. Files always use '.' decimals, single spaces, and
LF line endings, so rewriting a matrix reproduces the file byte for byte.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from .checks import real_array
from .errors import ConfigError, MatrixFormatError


FLOAT_FORMAT = "%.17g"


def format_float(v: float) -> str:
    return FLOAT_FORMAT % v


def write_matrix(path: str | os.PathLike, m: np.ndarray) -> None:
    try:
        m = real_array(m, 2, "matrix")
    except ConfigError as exc:
        raise MatrixFormatError(str(exc)) from exc
    if not np.all(np.isfinite(m)):
        raise MatrixFormatError("matrix entries must be finite")
    rows, cols = m.shape
    lines = [f"{rows} {cols}"]
    template = " ".join([FLOAT_FORMAT] * cols)
    lines.extend(template % tuple(row) for row in m.tolist())
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix(path: str | os.PathLike) -> np.ndarray:
    """The matrix in a file written by ``write_matrix``; MatrixFormatError otherwise.

    Blank lines are skipped. Entries are parsed by numpy's C reader, which
    accepts what ``write_matrix`` emits (and 'inf'/'nan', which the finiteness
    check then rejects) but not Python-only spellings such as '1_0'.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    break
            else:
                raise MatrixFormatError(f"{path}: empty matrix file")
            rows, cols = _parse_header(path, line.strip())
            with warnings.catch_warnings():
                # a header-only file is reported by the shape check below
                warnings.simplefilter("ignore", UserWarning)
                out = np.loadtxt(fh, dtype=float, comments=None, ndmin=2)
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: not a UTF-8 text file") from exc
    except ValueError as exc:
        # numpy's message names the row and entry; drop its hint about usecols
        raise MatrixFormatError(f"{path}: {str(exc).partition(';')[0]}") from exc
    if out.shape[0] != rows:
        raise MatrixFormatError(f"{path}: expected {rows} data rows, found {out.shape[0]}")
    if out.shape[1] != cols:
        raise MatrixFormatError(f"{path}: rows have {out.shape[1]} entries, expected {cols}")
    if not np.all(np.isfinite(out)):
        raise MatrixFormatError(f"{path}: matrix entries must be finite")
    return out


def _parse_header(path: str | os.PathLike, line: str) -> tuple[int, int]:
    header = line.split()
    if len(header) != 2:
        raise MatrixFormatError(f"{path}: header must be 'rows cols', got {line!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: non-integer header {line!r}") from exc
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"{path}: dimensions must be positive, got {rows}x{cols}")
    return rows, cols
