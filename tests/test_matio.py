"""Matrix-file format: bit-exact round trips and error reporting."""

import numpy as np
import pytest

from invlowrank.errors import MatrixFormatError
from invlowrank.matio import read_matrix, write_matrix


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


def test_read_rejects_malformed(tmp_path):
    cases = {
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
    }
    for name, text in cases.items():
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
