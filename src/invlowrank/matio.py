"""Text matrix files: a 'rows cols' header, then one line per row.

Entries are serialized with 17 significant digits, which round-trips every
64-bit float bit-exactly. Files always use '.' decimals, single spaces, and
LF line endings, so rewriting a matrix reproduces the file byte for byte.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import MatrixFormatError


FLOAT_FORMAT = "%.17g"


def format_float(v: float) -> str:
    return FLOAT_FORMAT % v


def write_matrix(path: str | os.PathLike, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise MatrixFormatError(f"expected a 2-d array, got ndim {m.ndim}")
    if not np.all(np.isfinite(m)):
        raise MatrixFormatError("matrix entries must be finite")
    rows, cols = m.shape
    lines = [f"{rows} {cols}"]
    template = " ".join([FLOAT_FORMAT] * cols)
    lines.extend(template % tuple(row) for row in m.tolist())
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix(path: str | os.PathLike) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: not a UTF-8 text file") from exc
    lines = [line for line in lines if line]
    if not lines:
        raise MatrixFormatError(f"{path}: empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise MatrixFormatError(f"{path}: header must be 'rows cols', got {lines[0]!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: non-integer header {lines[0]!r}") from exc
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"{path}: dimensions must be positive, got {rows}x{cols}")
    if len(lines) - 1 != rows:
        raise MatrixFormatError(f"{path}: expected {rows} data rows, found {len(lines) - 1}")
    out = np.empty((rows, cols))
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != cols:
            raise MatrixFormatError(f"{path}: row {i} has {len(parts)} entries, expected {cols}")
        try:
            out[i] = [float(p) for p in parts]
        except ValueError as exc:
            raise MatrixFormatError(f"{path}: row {i} has a non-numeric entry") from exc
    if not np.all(np.isfinite(out)):
        raise MatrixFormatError(f"{path}: matrix entries must be finite")
    return out
