"""Unit and property tests for the dense linear-algebra kernels."""

import numpy as np
import pytest

from invlowrank import linalg
from invlowrank.errors import NotPositiveDefinite, NotSymmetric, RankOutOfRange

from oracles import loop_signed_svd, random_rank_r_matrices


def test_svd_diagonal():
    f = linalg.svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(f.sigma, [3.0, 2.0, 1.0])
    assert np.allclose(np.abs(f.u), np.eye(3))
    assert np.allclose(np.abs(f.v), np.eye(3))


def test_svd_zero_matrix():
    f = linalg.svd(np.zeros((3, 2)))
    assert np.all(f.sigma == 0.0)


def test_svd_reconstruction_and_orthogonality():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.standard_normal((6, 4))
        f = linalg.svd(m)
        scale = f.sigma[0] * max(m.shape)
        assert np.linalg.norm(f.reconstruct() - m) < 1e-10 * scale
        assert np.linalg.norm(f.u.T @ f.u - np.eye(6)) < 1e-10
        assert np.linalg.norm(f.v.T @ f.v - np.eye(4)) < 1e-10
        assert np.all(np.diff(f.sigma) <= 0)


def test_svd_sign_convention_deterministic():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5))
    f1, f2 = linalg.svd(m), linalg.svd(m.copy())
    assert np.array_equal(f1.u, f2.u) and np.array_equal(f1.v, f2.v)
    for i in range(5):
        j = np.argmax(np.abs(f1.u[:, i]))
        assert f1.u[j, i] > 0


def _svd_sign_cases():
    rng = np.random.default_rng(5)
    yield rng.standard_normal((7, 3))                                # tall
    yield rng.standard_normal((3, 7))                                # wide
    yield rng.standard_normal((5, 5))                                # square
    yield rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))  # rank-deficient
    yield np.ones((3, 4))                                            # magnitude ties
    yield -np.eye(3)
    yield np.zeros((4, 3))
    for shape in ((0, 3), (3, 0), (0, 0)):
        yield np.zeros(shape)


def test_svd_signs_bit_equal_to_column_loop():
    for m in _svd_sign_cases():
        f = linalg.svd(m)
        u, s, v = loop_signed_svd(m)
        assert f.u.shape == u.shape and f.v.shape == v.shape, m.shape
        assert np.array_equal(f.u, u) and np.array_equal(f.sigma, s), m.shape
        assert np.array_equal(f.v, v), m.shape


def test_svd_factors_tied_is_relative_to_sigma_max():
    def tied(sigma, i):
        sigma = np.asarray(sigma, dtype=float)
        eye = np.eye(sigma.size)
        return linalg.SvdFactors(u=eye, sigma=sigma, v=eye).tied(i)

    assert tied([2.0, 1.0, 1.0], 1)                        # exact tie
    assert not tied([2.0, 1.0, 1.0], 0)
    assert tied([1e4, 1.0, 1.0 - 0.9e-4], 1)               # gap just below 1e-8 sigma_max
    assert not tied([1e4, 1.0, 1.0 - 1.1e-4], 1)           # gap just above
    assert not tied([1.0, 0.5, 0.5 - 1.1e-8], 1)
    assert tied([1.0, 0.5, 0.5 - 0.9e-8], 1)
    zero = linalg.svd(np.zeros((3, 3)))
    assert all(zero.tied(i) for i in range(2))


def test_best_rank_r_diagonal():
    out = linalg.best_rank_r(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(out, np.diag([3.0, 2.0, 0.0]), atol=1e-12)


def test_best_rank_r_full_rank_is_identity_map():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 6))
    assert np.linalg.norm(linalg.best_rank_r(m, 4) - m) < 1e-10


def test_best_rank_r_zero_gives_zero():
    m = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(linalg.best_rank_r(m, 0), np.zeros((2, 3)))


def test_best_rank_r_out_of_range():
    with pytest.raises(RankOutOfRange):
        linalg.best_rank_r(np.eye(3), 4)
    with pytest.raises(RankOutOfRange):
        linalg.best_rank_r(np.eye(3), -1)


def test_best_rank_r_beats_random_search():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((5, 5))
    closed = np.linalg.norm(m - linalg.best_rank_r(m, 2))
    for b in random_rank_r_matrices((5, 5), 2, 1000, seed=11):
        assert closed <= np.linalg.norm(m - b) + 1e-12


def test_eckart_young_loss_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.standard_normal((6, 5))
        s = np.linalg.svd(m, compute_uv=False)
        for r in range(min(m.shape) + 1):
            err = np.linalg.norm(m - linalg.best_rank_r(m, r)) ** 2
            tail = float(np.sum(s[r:] ** 2))
            assert abs(err - tail) <= 1e-10 * max(1.0, tail)


def test_pd_sqrt_identity_and_diagonal():
    assert np.allclose(linalg.pd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)
    assert np.allclose(linalg.pd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)


def test_pd_sqrt_squares_back():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.standard_normal((5, 5))
        m = a @ a.T + np.eye(5)
        p = linalg.pd_sqrt(m)
        assert np.linalg.norm(p @ p - m) < 1e-10 * np.linalg.norm(m)
        assert np.linalg.norm(p - p.T) == 0.0


def test_pd_inv_sqrt_inverts():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4))
    m = a @ a.T + np.eye(4)
    q = linalg.pd_inv_sqrt(m)
    assert np.linalg.norm(q @ m @ q - np.eye(4)) < 1e-10


def test_pd_sqrt_rejects_nonsymmetric():
    with pytest.raises(NotSymmetric):
        linalg.pd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_pd_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        linalg.pd_sqrt(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefinite):
        linalg.pd_sqrt(np.diag([1.0, 0.0]))


def test_pinv_diagonal():
    assert np.allclose(linalg.pinv(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-14)


def test_pinv_zero_matrix_transposed_shape():
    out = linalg.pinv(np.zeros((3, 2)))
    assert out.shape == (2, 3)
    assert np.all(out == 0.0)


def test_pinv_swap_constraint():
    g = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(linalg.pinv(g), g / 4.0, atol=1e-14)


def test_pinv_penrose_identities():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = rng.standard_normal((5, 3))
        if rng.uniform() < 0.3:
            m[:, 2] = m[:, 0] + m[:, 1]  # rank deficient case
        p = linalg.pinv(m)
        assert np.linalg.norm(m @ p @ m - m) < 1e-8
        assert np.linalg.norm(p @ m @ p - p) < 1e-8
        assert np.linalg.norm((m @ p).T - m @ p) < 1e-8
        assert np.linalg.norm((p @ m).T - p @ m) < 1e-8


def test_pinv_is_involution_on_invertible():
    rng = np.random.default_rng(10)
    m = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    assert np.linalg.norm(linalg.pinv(linalg.pinv(m)) - m) < 1e-8


def test_left_null_projector_zero_constraint():
    assert np.allclose(linalg.left_null_projector(np.zeros((3, 3))), np.eye(3))


def test_left_null_projector_swap():
    g = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(linalg.left_null_projector(g), np.full((2, 2), 0.5), atol=1e-14)


def test_left_null_projector_properties():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = rng.standard_normal((5, 7))
        proj = linalg.left_null_projector(g)
        assert np.linalg.norm(proj @ g) < 1e-10 * max(1.0, np.linalg.norm(g))
        assert np.linalg.norm(proj @ proj - proj) < 1e-10
        assert np.linalg.norm(proj - proj.T) < 1e-12


def test_low_rank_truncation_preserves_annihilation():
    # A B = 0 implies best_rank_r(A) B = 0 for r <= rank(A)
    rng = np.random.default_rng(13)
    for _ in range(25):
        b = rng.standard_normal((6, 3))
        a = rng.standard_normal((5, 6)) @ (np.eye(6) - b @ linalg.pinv(b))
        rank_a = linalg.numerical_rank(a)
        for r in range(1, rank_a + 1):
            resid = np.linalg.norm(linalg.best_rank_r(a, r) @ b)
            assert resid < 1e-9 * max(1.0, np.linalg.norm(a) * np.linalg.norm(b))


def test_pd_sqrt_commutes_with_commuting_diagonalizable():
    # M G = G M implies sqrt(M) G = G sqrt(M)
    rng = np.random.default_rng(14)
    for _ in range(25):
        a = rng.standard_normal((5, 5))
        m = a @ a.T + np.eye(5)
        w, vecs = np.linalg.eigh(m)
        g = (vecs * rng.standard_normal(5)) @ vecs.T  # shares eigenvectors with m
        assert np.linalg.norm(m @ g - g @ m) < 1e-10 * np.linalg.norm(m)
        p = linalg.pd_sqrt(m)
        scale = max(1.0, np.linalg.norm(p) * np.linalg.norm(g))
        assert np.linalg.norm(p @ g - g @ p) < 1e-9 * scale


def test_numerical_rank():
    assert linalg.numerical_rank(np.zeros((3, 3))) == 0
    assert linalg.numerical_rank(np.zeros((0, 3))) == 0
    assert linalg.numerical_rank(np.eye(4)) == 4
    m = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
    assert linalg.numerical_rank(m) == 1


def test_svd_factors_rank():
    assert linalg.svd(np.zeros((3, 4))).rank == 0
    assert linalg.svd(np.eye(4)).rank == 4
    assert linalg.svd(np.outer([1.0, 2.0, 3.0], [4.0, 5.0])).rank == 1
    for shape, r in [((6, 4), 2), ((4, 7), 3), ((5, 5), 5)]:
        for m in random_rank_r_matrices(shape, r, count=5, seed=r):
            assert linalg.svd(m).rank == linalg.numerical_rank(m) == r


def test_svd_factors_pinv_inverts_the_k_largest():
    m = np.diag([4.0, 2.0, 1.0])
    f = linalg.svd(m)
    assert np.allclose(f.pinv(3), np.diag([0.25, 0.5, 1.0]))
    assert np.allclose(f.pinv(1), np.diag([0.25, 0.0, 0.0]))
    assert np.all(f.pinv(0) == 0.0)


def test_is_positive_definite():
    assert linalg.is_positive_definite(np.array([1.0, 2.0]))
    assert not linalg.is_positive_definite(np.array([0.0, 2.0]))
    assert not linalg.is_positive_definite(np.array([-1.0, -0.5]))
    assert not linalg.is_positive_definite(np.array([1e-13, 1.0]))
    with pytest.raises(NotPositiveDefinite):
        linalg.pd_inv_sqrt(np.diag([1e-13, 1.0]))
