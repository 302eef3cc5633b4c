"""Matrix-file format: bit-exact round trips, error reporting and the read cache."""

import errno
import io
import tracemalloc
import zlib

import numpy as np
import pytest

from invlowrank import matio
from invlowrank.errors import MatrixFormatError
from invlowrank.matio import read_matrix, write_matrix


MALFORMED = {
    "empty.mat": "",
    "header.mat": "2\n1 2\n3 4\n",
    "count.mat": "3 2\n1 2\n3 4\n",
    "width.mat": "2 2\n1 2 3\n4 5\n",
    "alpha.mat": "1 2\n1 x\n",
    "header_only.mat": "1 2\n",
    # Python's float() accepts digit separators; the writer never emits them
    "underscore.mat": "1 1\n1_0\n",
    "comment.mat": "1 1\n#\n",
    "nan.mat": "1 1\nnan\n",
    "overflow.mat": "1 1\n1e999\n",
    "extra_row.mat": "1 2\n1 2\n3 4\n",
    "word_header.mat": "x 2\n1 2\n",
    "zero_rows.mat": "0 2\n",
    "narrow_rows.mat": "2 3\n1 2\n3 4\n",
}


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "m.mat"
    for trial in range(50):
        rows, cols = rng.integers(1, 12, size=2)
        m = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-12, 12)
        write_matrix(path, m)
        back = read_matrix(path)
        assert back.shape == m.shape
        assert np.array_equal(back, m)


def test_round_trip_special_values(tmp_path):
    path = tmp_path / "s.mat"
    m = np.array([[0.0, -0.0], [1e-308, -1.7976931348623157e308]])
    write_matrix(path, m)
    back = read_matrix(path)
    assert np.array_equal(back, m)
    assert np.signbit(back[0, 1])


def test_rewrite_is_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((5, 3))
    p1, p2 = tmp_path / "a.mat", tmp_path / "b.mat"
    write_matrix(p1, m)
    write_matrix(p2, read_matrix(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_write_rejects_non_finite(tmp_path):
    with pytest.raises(MatrixFormatError):
        write_matrix(tmp_path / "bad.mat", np.array([[np.nan]]))
    with pytest.raises(MatrixFormatError):
        write_matrix(tmp_path / "bad.mat", np.array([[np.inf]]))


# a matrix with no rows or no columns: the header the writer would give it is one the reader
# refuses, so the writer refuses the matrix with the reader's message and writes no file
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)], ids=["0x3", "3x0", "0x0"])
def test_write_refuses_what_the_reader_refuses(tmp_path, shape):
    text = tmp_path / "text.mat"
    text.write_text("%d %d\n" % shape)
    with pytest.raises(MatrixFormatError) as refused:
        read_matrix(text)
    path = tmp_path / "empty.mat"
    with pytest.raises(MatrixFormatError) as excinfo:
        write_matrix(path, np.zeros(shape))
    assert str(excinfo.value) == str(refused.value).replace("text.mat", "empty.mat")
    assert "dimensions must be positive" in str(excinfo.value)
    assert not path.exists()


# every sign, the extremes and the smallest subnormal, as the writer must spell them
EXTREMES = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, -1.7976931348623157e308]


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 3)])
def test_written_text_is_the_header_then_one_line_per_row(tmp_path, shape):
    rng = np.random.default_rng(sum(shape))
    rows, cols = shape
    matrices = [np.resize(np.roll(EXTREMES, -k), shape) for k in range(len(EXTREMES))]
    matrices.append(rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape))
    path = tmp_path / "m.mat"
    for m in matrices:
        write_matrix(path, m)
        reference = f"{rows} {cols}\n" + "".join(
            " ".join(["%.17g"] * cols) % tuple(row) + "\n" for row in m.tolist())
        assert path.read_bytes() == reference.encode()


def test_write_holds_no_whole_file_text(tmp_path):
    # the text of a 196 x 1000 matrix is ~4.5 MB; a write that also built it whole, from a
    # float object per entry, peaked at ~12 MB of traced allocations. The traced peak, not a
    # child's ru_maxrss: a child started by exec inherits its parent's peak resident set.
    m = np.random.default_rng(0).standard_normal((196, 1000))
    write_matrix(tmp_path / "m.mat", m[:2])  # what writing loads, outside the measured span
    tracemalloc.start()
    try:
        write_matrix(tmp_path / "m.mat", m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert np.array_equal(read_matrix(tmp_path / "m.mat"), m)


def test_read_rejects_malformed(tmp_path):
    for name, text in MALFORMED.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(MatrixFormatError, match=name):
            read_matrix(path)


def test_read_rejects_non_utf8(tmp_path):
    for where, data in [("header", b"\xff\xfe1 1\n1\n"), ("body", b"2 1\n1\n\xff\n")]:
        path = tmp_path / f"bad_{where}.mat"
        path.write_bytes(data)
        with pytest.raises(MatrixFormatError, match=f"bad_{where}.mat: not a UTF-8"):
            read_matrix(path)


def test_read_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.mat"
    path.write_text("\n2 2\n1 2\n\n   \n3 4\n\n")
    assert np.array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


# ---------------------------------------------------------------- read cache

@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache root for one test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "invlowrank"


def _entries(root):
    return sorted(p.name for p in root.iterdir()) if root.is_dir() else []


def _written(path, seed, shape=(7, 5)):
    write_matrix(path, np.random.default_rng(seed).standard_normal(shape))
    return path


def _count_parses(monkeypatch):
    parses = []
    parse = matio._parse
    monkeypatch.setattr(matio, "_parse", lambda *args: parses.append(args) or parse(*args))
    return parses


def test_cold_and_warm_reads_are_bit_identical(tmp_path, cache, monkeypatch):
    parses = _count_parses(monkeypatch)
    path = _written(tmp_path / "m.mat", 0)
    cold = read_matrix(path)
    assert len(_entries(cache)) == 1
    warm = read_matrix(path)
    assert len(parses) == 1
    assert warm.tobytes() == cold.tobytes() and warm.shape == cold.shape
    assert warm is not cold
    path.write_text(path.read_text().replace("\n", "\n\n"))  # same matrix, other bytes
    assert read_matrix(path).tobytes() == cold.tobytes()
    assert len(_entries(cache)) == 2


def test_files_sharing_an_entry_name_read_their_own_values(tmp_path, cache, monkeypatch):
    monkeypatch.setattr(matio, "_entry_name", lambda crc, size: "shared.npy")
    a, b = tmp_path / "a.mat", tmp_path / "b.mat"
    a.write_text("1 2\n1 2\n")
    b.write_text("1 2\n3 4\n")
    for _ in range(2):
        assert read_matrix(a).tolist() == [[1.0, 2.0]]
        assert read_matrix(b).tolist() == [[3.0, 4.0]]
    assert _entries(cache) == ["shared.npy"]


def test_truncated_or_corrupt_entry_falls_back_to_parsing(tmp_path, cache):
    path = _written(tmp_path / "m.mat", 1)
    want = read_matrix(path)
    [name] = _entries(cache)
    entry = cache / name
    good = entry.read_bytes()
    data_at = good.index(b"\n") + 1  # the .npy header ends with a newline

    def flip(i):
        return good[:i] + bytes([good[i] ^ 0x40]) + good[i + 1:]

    non_finite = np.full_like(want, np.inf)
    damaged = [good[:-1], good[:data_at + 3], good[:5], b"", good + b"\n",
               flip(3), flip(data_at), flip(data_at + want.nbytes), flip(len(good) - 2),
               good.replace(b"(7, 5)", b"(5, 7)", 1),  # the same bytes read as a 5 x 7 array
               good[:data_at] + non_finite.tobytes()  # with the CRC-32 of its data
               + zlib.crc32(non_finite).to_bytes(4, "big") + good[data_at + want.nbytes + 4:],
               good[:6] + b"\x02" + good[7:],  # .npy format version 2.0
               # headers that parse, of a float32, a 1-d and a Fortran-ordered array
               good.replace(b"'<f8'", b"'<f4'", 1), good.replace(b"(7, 5)", b"(35,) ", 1),
               good.replace(b"False", b"True ", 1)]
    for blob in damaged:
        entry.write_bytes(blob)
        assert read_matrix(path).tobytes() == want.tobytes()
        assert read_matrix(path).shape == want.shape


# root mode, and whether another user owns the root -> whether the root is private, so its
# entries are served; CI's read-only step (a-w) leaves the root private
@pytest.mark.parametrize("mode, other_owner, private", [
    (0o700, False, True), (0o500, False, True), (0o777, False, False), (0o720, False, False),
    (0o702, False, False), (0o700, True, False),
], ids=["0o700", "0o500", "0o777", "0o720", "0o702", "other_owner"])
def test_only_a_private_cache_root_serves_entries(tmp_path, cache, monkeypatch, mode,
                                                  other_owner, private):
    path = tmp_path / "m.mat"
    path.write_text("2 2\n1 2\n3 4\n")
    read_matrix(path)
    # plant an entry, valid in every field, that holds another matrix for the same text
    [name] = _entries(cache)
    forged = np.full((2, 2), 9.0)
    with open(cache / name, "wb") as entry:
        np.lib.format.write_array(entry, forged, version=(1, 0), allow_pickle=False)
        entry.write(zlib.crc32(forged).to_bytes(4, "big") + path.read_bytes())
    if other_owner:
        monkeypatch.setattr(matio.os, "geteuid", lambda: cache.stat().st_uid + 1)
    cache.chmod(mode)
    try:
        got = read_matrix(path).tolist()
        assert cache.stat().st_mode & 0o777 == mode  # an existing root is never chmod-ed
    finally:
        cache.chmod(0o700)
    assert got == (forged.tolist() if private else [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("where", ["regular_file", "relative"])
def test_unusable_cache_root_reads_the_same(tmp_path, monkeypatch, where):
    home = tmp_path / "home"
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.chdir(tmp_path)
    if where == "regular_file":
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    else:  # ignored, as the XDG spec says: the cache falls back to ~/.cache
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
    path = _written(tmp_path / "m.mat", 2)
    want = np.random.default_rng(2).standard_normal((7, 5))
    for _ in range(2):
        assert np.array_equal(read_matrix(path), want)
    for name, text in MALFORMED.items():
        (tmp_path / name).write_text(text)
        with pytest.raises(MatrixFormatError, match=name):
            read_matrix(tmp_path / name)
    assert not (tmp_path / "relative").exists()
    expected = 1 if where == "relative" else 0
    assert len(_entries(home / ".cache" / "invlowrank")) == expected


@pytest.mark.parametrize("failing", ["TemporaryFile", "mkstemp"])
def test_cache_that_cannot_be_written_reads_the_same(tmp_path, cache, monkeypatch, failing):
    cached = _written(tmp_path / "cached.mat", 4)
    want = read_matrix(cached)

    def read_only(*args, **kwargs):
        raise PermissionError("read-only cache")

    monkeypatch.setattr(matio.tempfile, failing, read_only)
    parses = _count_parses(monkeypatch)
    assert read_matrix(cached).tobytes() == want.tobytes()
    assert parses == []
    path = _written(tmp_path / "m.mat", 5)
    for _ in range(2):
        assert np.array_equal(read_matrix(path), np.random.default_rng(5).standard_normal((7, 5)))
    assert len(parses) == 2
    assert len(_entries(cache)) == 1


def _disk_full(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


def _interrupted(*args, **kwargs):
    raise KeyboardInterrupt


# a full disk turns the store into a parse; an interrupt reaches the caller
@pytest.mark.parametrize("failure", [_disk_full, _interrupted], ids=["disk_full", "interrupt"])
def test_failed_entry_write_leaves_no_temporary_file(tmp_path, cache, monkeypatch, failure):
    path = _written(tmp_path / "m.mat", 6)
    monkeypatch.setattr(np.lib.format, "write_array", failure)
    if failure is _interrupted:
        with pytest.raises(KeyboardInterrupt):
            read_matrix(path)
    else:
        assert np.array_equal(read_matrix(path), np.random.default_rng(6).standard_normal((7, 5)))
    assert _entries(cache) == []


def test_failed_clean_up_parses_and_the_cap_evicts_the_leftover(tmp_path, cache, monkeypatch):
    path = _written(tmp_path / "m.mat", 8)
    with monkeypatch.context() as patched:
        patched.setattr(np.lib.format, "write_array", _disk_full)
        patched.setattr(matio.os, "unlink", _disk_full)
        assert np.array_equal(read_matrix(path), np.random.default_rng(8).standard_normal((7, 5)))
    [leftover] = _entries(cache)
    assert leftover.endswith(".tmp")
    for i in range(matio.CACHE_ENTRIES):
        read_matrix(_written(tmp_path / f"n{i}.mat", 100 + i, (2, 2)))
    assert len(_entries(cache)) == matio.CACHE_ENTRIES
    assert not any(name.endswith(".tmp") for name in _entries(cache))


class _FullDiskStaging(io.BytesIO):
    """A staging file on a full disk: every write raises ENOSPC."""

    def write(self, data):
        _disk_full()


def test_failed_staging_write_parses_and_stores_nothing(tmp_path, cache, monkeypatch):
    monkeypatch.setattr(matio.tempfile, "TemporaryFile", lambda *args, **kwargs: (
        _FullDiskStaging()))
    parses = _count_parses(monkeypatch)
    path = _written(tmp_path / "m.mat", 7)
    for _ in range(2):
        assert np.array_equal(read_matrix(path), np.random.default_rng(7).standard_normal((7, 5)))
    assert len(parses) == 2
    assert _entries(cache) == []


def test_no_home_means_no_cache(tmp_path, monkeypatch):
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", "not-absolute")
    monkeypatch.chdir(tmp_path)
    path = _written(tmp_path / "m.mat", 3)
    assert np.array_equal(read_matrix(path), read_matrix(path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.mat"]


def test_entry_count_stays_within_the_cap(tmp_path, cache):
    paths = [_written(tmp_path / f"m{i}.mat", i, (2, 2)) for i in range(matio.CACHE_ENTRIES + 3)]
    for path in paths:
        read_matrix(path)
        assert len(_entries(cache)) <= matio.CACHE_ENTRIES
    assert len(_entries(cache)) == matio.CACHE_ENTRIES
    assert all(np.array_equal(read_matrix(p), np.random.default_rng(i).standard_normal((2, 2)))
               for i, p in enumerate(paths))


@pytest.mark.parametrize("shared_name", [False, True])
def test_malformed_files_still_rejected_after_a_good_file_is_cached(tmp_path, cache, monkeypatch,
                                                                    shared_name):
    messages = {}
    for name, text in MALFORMED.items():
        (tmp_path / name).write_text(text)
        with pytest.raises(MatrixFormatError) as excinfo:
            read_matrix(tmp_path / name)
        messages[name] = str(excinfo.value)
    if shared_name:  # every lookup finds the good file's entry
        monkeypatch.setattr(matio, "_entry_name", lambda crc, size: "shared.npy")
    good = tmp_path / "good.mat"
    good.write_text("1 2\n1 2\n")
    read_matrix(good)
    assert len(_entries(cache)) == 1
    for name in MALFORMED:
        with pytest.raises(MatrixFormatError) as excinfo:
            read_matrix(tmp_path / name)
        assert str(excinfo.value) == messages[name]
    assert read_matrix(good).tolist() == [[1.0, 2.0]]
