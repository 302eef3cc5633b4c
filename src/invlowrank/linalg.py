"""Dense linear-algebra kernels shared by every solver.

Thin, contract-checked wrappers around LAPACK (via numpy): full SVD with a
reproducible sign convention, best rank-r truncation, positive definite
square roots and inverse square roots, Moore-Penrose pseudoinverses, and the
left-null-space projector I - G G^+. All arithmetic is float64; results are
deterministic for bit-identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import (NoConvergence, NotPositiveDefinite, NotSymmetric, RankOutOfRange,
                     ShapeMismatch)


@dataclass(frozen=True)
class SvdFactors:
    """Full SVD ``M = U diag(sigma) V^T`` with orthogonal U, V.

    ``sigma`` is nonincreasing with length min(rows, cols); U and V are
    square. Singular vectors are sign-normalized so the largest-magnitude
    entry of each left singular vector, and of each right one without a
    singular value, is positive.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def select(self, idx) -> np.ndarray:
        """Sum of sigma_i u_i v_i^T over ``idx``, a slice or a list of indices.

        A slice is clipped to the sigma.size singular triples, so
        ``select(slice(0, r))`` is the best rank-min(r, sigma.size) part of M.
        """
        if isinstance(idx, slice):
            idx = slice(*idx.indices(self.sigma.size))
        return (self.u[:, idx] * self.sigma[idx]) @ self.v[:, idx].T

    def reconstruct(self) -> np.ndarray:
        return self.select(slice(None))

    @property
    def rank(self) -> int:
        """Number of singular values above the shared rank cutoff."""
        shape = (self.u.shape[0], self.v.shape[0])
        return int(np.count_nonzero(self.sigma > rank_cutoff(self.sigma, shape)))

    def pinv(self, k: int) -> np.ndarray:
        """Pseudoinverse that inverts the k largest singular values and zeroes the rest."""
        inv = np.zeros_like(self.sigma)
        inv[:k] = 1.0 / self.sigma[:k]
        return (self.v[:, :inv.size] * inv) @ self.u[:, :inv.size].T

    def tied(self, i: int) -> bool:
        """True iff sigma_i - sigma_{i+1} <= SPECTRAL_GAP_REL * sigma_0 (the one tie rule)."""
        return bool(self.sigma[i] - self.sigma[i + 1] <= tol.SPECTRAL_GAP_REL * self.sigma[0])


def _largest_entry_signs(rows: np.ndarray) -> np.ndarray:
    """Per row, -1.0 if its first largest-magnitude entry is negative, else 1.0."""
    if rows.shape[1] == 0:
        return np.ones(rows.shape[0])
    top = rows[np.arange(rows.shape[0]), np.argmax(np.abs(rows), axis=1)]
    return np.where(top < 0, -1.0, 1.0)


def as_matrix(m) -> np.ndarray:
    """m as a float64 array; ShapeMismatch unless it is 2-d."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d matrix, got shape {m.shape}")
    return m


def check_chain(w, x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W, X, Y as float64 matrices; ShapeMismatch unless W X - Y is defined."""
    w, x, y = (np.asarray(a, dtype=float) for a in (w, x, y))
    if (any(a.ndim != 2 for a in (w, x, y))
            or w.shape[1] != x.shape[0] or w.shape[0] != y.shape[0] or x.shape[1] != y.shape[1]):
        raise ShapeMismatch(f"W {w.shape}, X {x.shape}, Y {y.shape} do not chain")
    return w, x, y


def svd(m: np.ndarray) -> SvdFactors:
    """Full SVD with deterministic signs.

    Raises ShapeMismatch unless m is 2-d, and NoConvergence if the underlying
    iteration fails (ill-conditioned input or an upstream bug); numpy's
    divide-and-conquer routine converges for all finite inputs in practice.
    """
    m = as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD did not converge for shape {m.shape}") from exc
    u_signs = _largest_entry_signs(u.T)
    v_signs = np.concatenate([u_signs[:s.size], _largest_entry_signs(vt[s.size:])])
    return SvdFactors(u=u * u_signs, sigma=s, v=(vt * v_signs[:, None]).T.copy())


def singular_values(m: np.ndarray) -> np.ndarray:
    m = as_matrix(m)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD did not converge for shape {m.shape}") from exc


def rank_cutoff(sigma: np.ndarray, shape: tuple[int, int]) -> float:
    """Threshold below which singular values count as zero."""
    if sigma.size == 0:
        return 0.0
    return tol.RANK_CUTOFF_REL * float(sigma[0]) * max(shape)


def numerical_rank(m: np.ndarray) -> int:
    m = as_matrix(m)
    if m.size == 0:
        return 0
    s = singular_values(m)
    return int(np.count_nonzero(s > rank_cutoff(s, m.shape)))


def best_rank_r(m: np.ndarray, r: int) -> np.ndarray:
    """Closest (Frobenius) matrix of rank <= r: keep the top r singular triples."""
    m = as_matrix(m)
    if r < 0 or r > min(m.shape):
        raise RankOutOfRange(f"rank {r} outside [0, {min(m.shape)}]")
    return svd(m).select(slice(0, r))


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.linalg.norm(m)))
    if np.linalg.norm(m - m.T) > tol.SYMMETRY * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    return m


def is_positive_definite(w: np.ndarray) -> bool:
    """True iff the ascending eigenvalues w of a symmetric matrix are all clearly positive."""
    return bool(w[-1] > 0 and w[0] > tol.PD_EIG_REL * w[-1])


def _pd_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = _check_symmetric(m)
    w, vecs = np.linalg.eigh((m + m.T) / 2.0)
    if not is_positive_definite(w):
        raise NotPositiveDefinite(
            f"eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}] fails the positive-definite check"
        )
    return w, vecs


def pd_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric positive definite square root P with P @ P = M."""
    w, vecs = _pd_eigh(m)
    p = (vecs * np.sqrt(w)) @ vecs.T
    return (p + p.T) / 2.0


def pd_inv_sqrt(m: np.ndarray) -> np.ndarray:
    """Inverse of the positive definite square root, M^(-1/2)."""
    w, vecs = _pd_eigh(m)
    p = (vecs / np.sqrt(w)) @ vecs.T
    return (p + p.T) / 2.0


def pinv(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD with the shared rank cutoff."""
    f = svd(m)
    return f.pinv(f.rank)


def left_null_projector(g: np.ndarray) -> np.ndarray:
    """Projector Pi = I - G G^+ onto the orthogonal complement of col(G).

    Any W satisfies (W @ Pi) @ G = 0; Pi is symmetric and idempotent.
    """
    g = np.asarray(g, dtype=float)
    proj = np.eye(g.shape[0]) - g @ pinv(g)
    return (proj + proj.T) / 2.0
