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
from .checks import all_finite, count, real_array
from .errors import (InvalidArgument, NoConvergence, NotPositiveDefinite, NotSymmetric,
                     RankOutOfRange, ShapeMismatch)


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
        return _rank(self.sigma, (self.u.shape[0], self.v.shape[0]))

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
    """m as a float64 array by ``real_array``; ShapeMismatch unless it is 2-d."""
    return real_array(m, 2, "matrix")


def check_chain(w, x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W, X, Y as float64 matrices by ``real_array``; ShapeMismatch unless W X - Y is defined.

    InvalidArgument for an X with no columns: a risk over no samples is undefined.
    """
    w, x, y = real_array(w, None, "W"), real_array(x, None, "X"), real_array(y, None, "Y")
    if (any(a.ndim != 2 for a in (w, x, y))
            or w.shape[1] != x.shape[0] or w.shape[0] != y.shape[0] or x.shape[1] != y.shape[1]):
        raise ShapeMismatch(f"W {w.shape}, X {x.shape}, Y {y.shape} do not chain")
    if x.shape[1] == 0:
        raise InvalidArgument("X has no samples")
    return w, x, y


def check_samples(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Data X, Y as float64 matrices with a shared sample axis and finite entries.

    Raises ShapeMismatch for the shapes and InvalidArgument for an entry that is
    not a finite real (``real_array``).
    """
    x, y = real_array(x, None, "X"), real_array(y, None, "Y")
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ShapeMismatch(f"X {x.shape} and Y {y.shape} must share a sample axis")
    if not (all_finite(x) and all_finite(y)):
        raise InvalidArgument("X and Y entries must be finite")
    return x, y


def _lapack_svd(m, **options):
    """numpy's SVD of m (``as_matrix``); NoConvergence for a non-finite entry or a failed solve."""
    m = as_matrix(m)
    if not all_finite(m):
        raise NoConvergence(f"SVD of a {m.shape} matrix with non-finite entries")
    try:
        return np.linalg.svd(m, **options)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD did not converge for shape {m.shape}") from exc


def svd(m: np.ndarray) -> SvdFactors:
    """Full SVD with deterministic signs.

    Raises ShapeMismatch unless m is 2-d, and NoConvergence for a non-finite
    entry or if the underlying iteration fails (ill-conditioned input or an
    upstream bug); numpy's divide-and-conquer routine converges for all finite
    inputs in practice.
    """
    u, s, vt = _lapack_svd(m, full_matrices=True)
    u_signs = _largest_entry_signs(u.T)
    v_signs = np.concatenate([u_signs[:s.size], _largest_entry_signs(vt[s.size:])])
    return SvdFactors(u=u * u_signs, sigma=s, v=(vt * v_signs[:, None]).T.copy())


def singular_values(m: np.ndarray) -> np.ndarray:
    return _lapack_svd(m, compute_uv=False)


def _rank(sigma: np.ndarray, shape: tuple[int, int]) -> int:
    """Count of the singular values sigma of a ``shape`` matrix above the shared rank cutoff."""
    if sigma.size == 0:
        return 0
    return int(np.count_nonzero(sigma > tol.RANK_CUTOFF_REL * float(sigma[0]) * max(shape)))


def numerical_rank(m: np.ndarray) -> int:
    m = as_matrix(m)
    return _rank(singular_values(m), m.shape)


def best_rank_r(m: np.ndarray, r: int) -> np.ndarray:
    """Closest (Frobenius) matrix of rank <= r: keep the top r singular triples."""
    m = as_matrix(m)
    if not (count(0).valid(r) and r <= min(m.shape)):
        raise RankOutOfRange(f"rank {r!r} is not an integer in [0, {min(m.shape)}]")
    return svd(m).select(slice(0, r))


def unit_scaled(*arrays: np.ndarray, floor: float = 0.0) -> tuple[int, list[np.ndarray]]:
    """(e, [a / 2**e for a in arrays]) for the least e with 2**e above ``floor`` and every |entry|.

    The arrays must be finite. Dividing by a power of two is exact barring
    underflow, so norms and their ratios taken of the scaled arrays equal the
    unscaled ones' bit for bit wherever those do not overflow, and they cannot
    overflow: every scaled entry is smaller than 1.
    """
    peak = max([floor] + [max(float(a.max()), -float(a.min())) for a in arrays if a.size])
    e = int(np.frexp(peak)[1])
    return e, [np.ldexp(a, -e) for a in arrays]


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    """m as a square float64 matrix, symmetric within tolerance (NotSymmetric) and finite.

    A non-finite entry raises NotPositiveDefinite: no eigenvalue of it can be trusted.
    """
    m = real_array(m, None, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {m.shape}")
    if not all_finite(m):
        raise NotPositiveDefinite(f"a {m.shape} matrix with non-finite entries is not positive "
                                  "definite")
    # ||M - M^T|| > SYMMETRY max(1, ||M||), both sides divided by 2**e, so no norm overflows
    e, (unit,) = unit_scaled(m, floor=1.0)
    scale = max(2.0 ** -e, float(np.linalg.norm(unit)))
    if np.linalg.norm(unit - unit.T) > tol.SYMMETRY * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    return m


def is_positive_definite(w: np.ndarray) -> bool:
    """True iff the ascending eigenvalues w of a symmetric matrix are all clearly positive."""
    return bool(w[-1] > 0 and w[0] > tol.PD_EIG_REL * w[-1])


def _pd_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of m; NotPositiveDefinite unless they pass."""
    m = _check_symmetric(m)
    try:
        w, vecs = np.linalg.eigh((m + m.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"eigendecomposition failed: {exc}") from exc
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


def pinv(m: np.ndarray, f: SvdFactors | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the shared rank cutoff, from m's SVD ``f`` if given."""
    f = svd(m) if f is None else f
    return f.pinv(f.rank)


def left_null_projector(g: np.ndarray, f: SvdFactors | None = None) -> np.ndarray:
    """Projector Pi = I - G G^+ onto the orthogonal complement of col(G).

    Any W satisfies (W @ Pi) @ G = 0; Pi is symmetric and idempotent. ``f`` is G's SVD if given.
    """
    g = as_matrix(g)
    proj = np.eye(g.shape[0]) - g @ pinv(g, f)
    return (proj + proj.T) / 2.0
