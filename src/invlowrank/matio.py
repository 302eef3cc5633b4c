"""Text matrix files: a 'rows cols' header, then one line per row.

Entries are serialized with 17 significant digits, which round-trips every
64-bit float bit-exactly. Files always use '.' decimals, single spaces, and
LF line endings, so rewriting a matrix reproduces the file byte for byte.
Rows are written one at a time by numpy's ``savetxt``, so a write holds one
row of text, never the whole file.
A parsed file is kept in a per-user cache, which serves it only while the
file's bytes equal the cached copy, so a read returns what a parse would.
"""

from __future__ import annotations

import io
import os
import shutil
import stat
import tempfile
import warnings
import zlib

import numpy as np

from .checks import all_finite, real_array
from .errors import ConfigError, MatrixFormatError


FLOAT_FORMAT = "%.17g"

# Most files the read cache keeps; at paper scale an X.mat entry is ~5.5 MB.
CACHE_ENTRIES = 16

_CHUNK = 1 << 18


def format_float(v: float) -> str:
    return FLOAT_FORMAT % v


def write_matrix(path: str | os.PathLike, m: np.ndarray) -> None:
    try:
        m = real_array(m, 2, "matrix")
    except ConfigError as exc:
        raise MatrixFormatError(str(exc)) from exc
    if not all_finite(m):
        raise MatrixFormatError("matrix entries must be finite")
    rows, cols = m.shape
    with open(path, "w", newline="\n") as fh:
        np.savetxt(fh, m, fmt=FLOAT_FORMAT, delimiter=" ", header=f"{rows} {cols}", comments="")


def read_matrix(path: str | os.PathLike) -> np.ndarray:
    """The matrix in a file written by ``write_matrix``; MatrixFormatError otherwise.

    Blank lines are skipped. Entries are parsed by numpy's C reader, which
    accepts what ``write_matrix`` emits (and 'inf'/'nan', which the finiteness
    check then rejects) but not Python-only spellings such as '1_0'.

    A regular file whose bytes equal a cache entry's text is not parsed again:
    the entry's array is returned. Any other read parses the file and, if it
    is valid, stores the array with the exact bytes parsed. Errors from the
    cache only turn a hit into a parse.
    """
    try:
        with open(path, "rb") as raw:
            root = _cache_root() if stat.S_ISREG(os.fstat(raw.fileno()).st_mode) else None
            out = _cached(root, raw) if root else None
            if out is None:
                out = _parse_and_store(path, raw, root) if root else _parse(path, raw)
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: not a UTF-8 text file") from exc
    except ValueError as exc:
        # numpy's message names the row and entry; drop its hint about usecols
        raise MatrixFormatError(f"{path}: {str(exc).partition(';')[0]}") from exc
    return out


def _parse(path: str | os.PathLike, binary) -> np.ndarray:
    """The matrix in the UTF-8 text that ``binary`` reads, which is left open."""
    fh = io.TextIOWrapper(binary, encoding="utf-8")
    try:
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
    finally:
        fh.detach()
    if out.shape[0] != rows:
        raise MatrixFormatError(f"{path}: expected {rows} data rows, found {out.shape[0]}")
    if out.shape[1] != cols:
        raise MatrixFormatError(f"{path}: rows have {out.shape[1]} entries, expected {cols}")
    if not all_finite(out):
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


# ---------------------------------------------------------------- read cache
# An entry is one file: the .npy of the parsed array, the array's CRC-32 (4
# bytes, big-endian), then the text it was parsed from. Its name is only a
# lookup key; a hit needs the text to equal the file.

def _cache_root() -> str | None:
    """$XDG_CACHE_HOME/invlowrank, else ~/.cache/invlowrank, created 0o700; None if unusable.

    An existing root is used only while it is private: a directory this user
    owns that neither group nor others may write, so no one else can plant an
    entry. It is never chmod-ed.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        home = os.path.expanduser("~")
        if not os.path.isabs(home):
            return None
        base = os.path.join(home, ".cache")
    root = os.path.join(base, "invlowrank")
    try:
        os.makedirs(root, mode=0o700, exist_ok=True)
        info = os.stat(root)
    except OSError:
        return None
    if info.st_uid != os.geteuid() or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        return None
    return root


def _entry_name(crc: int, size: int) -> str:
    return f"{crc:08x}-{size}.npy"


def _crc(binary, copy=None) -> tuple[int, int]:
    """zlib.crc32 and length of the rest of ``binary``, read in chunks, each also written to copy."""
    crc = size = 0
    for chunk in iter(lambda: binary.read(_CHUNK), b""):
        crc, size = zlib.crc32(chunk, crc), size + len(chunk)
        if copy is not None:
            copy.write(chunk)
    return crc, size


def _cached(root: str, raw) -> np.ndarray | None:
    """The array cached for the bytes of ``raw``, or None; ``raw`` is rewound either way."""
    try:
        crc, size = _crc(raw)
        with open(os.path.join(root, _entry_name(crc, size)), "rb") as entry:
            if np.lib.format.read_magic(entry) != (1, 0):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(entry)
            if dtype != np.float64 or len(shape) != 2 or fortran_order:
                return None
            start = entry.tell()
            nbytes = 8 * shape[0] * shape[1]
            if start + nbytes + 4 + size != os.fstat(entry.fileno()).st_size:
                return None
            entry.seek(start + nbytes)
            array_crc = entry.read(4)
            raw.seek(0)
            if not _same_bytes(raw, entry) or _text_shape(raw) != shape:
                return None
            out = np.empty(shape)
            entry.seek(start)
            if (entry.readinto(out) != out.nbytes
                    or zlib.crc32(out).to_bytes(4, "big") != array_crc
                    or not all_finite(out)):
                return None
            return out
    except (OSError, ValueError):
        return None
    finally:
        raw.seek(0)


def _same_bytes(a, b) -> bool:
    """Whether the rest of ``a`` equals the rest of ``b``, compared chunk by chunk."""
    while True:
        chunk = a.read(_CHUNK)
        if chunk != b.read(_CHUNK):
            return False
        if not chunk:
            return True


def _text_shape(raw) -> tuple[int, ...]:
    """The integers on the first non-blank line of ``raw``."""
    raw.seek(0)
    for line in raw:
        if line.strip():
            return tuple(int(v) for v in line.split())
    return ()


def _parse_and_store(path: str | os.PathLike, raw, root: str) -> np.ndarray:
    """Parse ``raw`` from a copy of its bytes, then cache the array with that copy."""
    try:
        text = tempfile.TemporaryFile(dir=root)
    except OSError:
        return _parse(path, raw)
    with text:
        try:
            crc, size = _crc(raw, text)
            text.seek(0)
        except OSError:
            raw.seek(0)
            return _parse(path, raw)
        out = _parse(path, text)
        try:
            _store(root, _entry_name(crc, size), out, text)
        except (OSError, ValueError):
            pass
    return out


def _store(root: str, name: str, out: np.ndarray, text) -> None:
    """Write the entry ``name`` for ``out`` and its text in one os.replace, evicting the oldest."""
    fd, tmp = tempfile.mkstemp(dir=root, prefix=".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as entry:
            np.lib.format.write_array(entry, out, version=(1, 0), allow_pickle=False)
            entry.write(zlib.crc32(out).to_bytes(4, "big"))
            text.seek(0)
            shutil.copyfileobj(text, entry, _CHUNK)
        target = os.path.join(root, name)
        others = sorted((e.stat().st_mtime_ns, e.path) for e in os.scandir(root)
                        if e.is_file() and e.path not in (tmp, target))
        for _, old in others[:max(0, len(others) + 1 - CACHE_ENTRIES)]:
            os.unlink(old)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
