"""Independent optimization and differentiation oracles.

These deliberately avoid the library's closed forms: projected gradient
descent and factored gradient descent attack the same objectives from
random restarts, and the finite-difference helper perturbs one parameter
entry at a time. They exist to cross-check solver optimality and analytic
gradients, never to compute reference values from the code under test.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


def loop_signed_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, sigma, V) with linalg.svd's sign convention, one column at a time.

    Each left singular vector is flipped so its first largest-magnitude entry
    is positive, and its right partner flips with it; every column of U or V
    without a singular value is flipped by its own largest entry. A bit-exact
    reference for the vectorized sign pass.
    """
    u, s, vt = np.linalg.svd(np.asarray(m, dtype=float), full_matrices=True)
    u, v = u.copy(), vt.T.copy()
    for i in range(s.size):
        j = int(np.argmax(np.abs(u[:, i])))
        if u[j, i] < 0:
            u[:, i] = -u[:, i]
            v[:, i] = -v[:, i]
    for vecs in (u, v):
        for i in range(s.size, vecs.shape[1]):
            j = int(np.argmax(np.abs(vecs[:, i])))
            if vecs[j, i] < 0:
                vecs[:, i] = -vecs[:, i]
    return u, s, v


def _truncate_rank(m: np.ndarray, r: int) -> np.ndarray:
    """Best rank-r part of m, or of each matrix in a stack."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return (u[..., :r] * s[..., None, :r]) @ vt[..., :r, :]


# Each oracle runs its restarts as one stack: every start is drawn first, in
# the order a restart-by-restart loop would draw it, and the restarts never
# interact, so each restart follows the same iterates as when run alone.

def projected_gradient_constrained(x: np.ndarray, y: np.ndarray, g: np.ndarray,
                                   r: int, restarts: int = 20, iters: int = 1500,
                                   seed: int = 0) -> float:
    """Best (1/n)||WX - Y||^2 over {WG = 0, rank <= r} found by projected GD."""
    n = x.shape[1]
    proj = np.eye(g.shape[0]) - g @ np.linalg.pinv(g)
    step = 0.9 * n / (2.0 * np.linalg.eigvalsh(x @ x.T)[-1])
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((restarts, y.shape[0], x.shape[0]))
    w = _truncate_rank(w @ proj, r)
    for _ in range(iters):
        grad = (2.0 / n) * (w @ x - y) @ x.T
        w = _truncate_rank((w - step * grad) @ proj, r)
    return min(float(np.linalg.norm(wi @ x - y) ** 2) / n for wi in w)


def projected_gradient_augmented(x_aug: np.ndarray, y_aug: np.ndarray, r: int,
                                 restarts: int = 20, iters: int = 1500,
                                 seed: int = 0) -> float:
    """Best orbit-averaged risk over {rank <= r}; the feasible set has no
    invariance constraint, only the rank projection."""
    n_aug = x_aug.shape[1]
    step = 0.9 * n_aug / (2.0 * np.linalg.eigvalsh(x_aug @ x_aug.T)[-1])
    rng = np.random.default_rng(seed)
    w = _truncate_rank(rng.standard_normal((restarts, y_aug.shape[0], x_aug.shape[0])), r)
    for _ in range(iters):
        grad = (2.0 / n_aug) * (w @ x_aug - y_aug) @ x_aug.T
        w = _truncate_rank(w - step * grad, r)
    return min(float(np.linalg.norm(wi @ x_aug - y_aug) ** 2) / n_aug for wi in w)


def factored_gradient_descent(x: np.ndarray, y: np.ndarray, g: np.ndarray,
                              r: int, lam: float, restarts: int = 20,
                              iters: int = 3000, lr: float = 0.02,
                              seed: int = 0) -> float:
    """Best penalized risk over W = A B (A: dL x r, B: r x d0) found by Adam."""
    n = x.shape[1]
    ggt = g @ g.T
    rng = np.random.default_rng(seed)

    def objective(a, b):
        w = a @ b
        return float(np.linalg.norm(w @ x - y) ** 2) / n + lam * float(
            np.linalg.norm(w @ g) ** 2
        )

    starts = [(rng.standard_normal((y.shape[0], r)) / np.sqrt(r),
               rng.standard_normal((r, x.shape[0])) / np.sqrt(x.shape[0]))
              for _ in range(restarts)]
    a, b = (np.stack(s) for s in zip(*starts))
    ma, va = np.zeros_like(a), np.zeros_like(a)
    mb, vb = np.zeros_like(b), np.zeros_like(b)
    for t in range(1, iters + 1):
        w = a @ b
        dw = (2.0 / n) * (w @ x - y) @ x.T + 2.0 * lam * w @ ggt
        da, db = dw @ b.swapaxes(1, 2), a.swapaxes(1, 2) @ dw
        ma = 0.9 * ma + 0.1 * da
        va = 0.999 * va + 0.001 * da * da
        mb = 0.9 * mb + 0.1 * db
        vb = 0.999 * vb + 0.001 * db * db
        c1, c2 = 1 - 0.9 ** t, 1 - 0.999 ** t
        a = a - lr * (ma / c1) / (np.sqrt(va / c2) + 1e-8)
        b = b - lr * (mb / c1) / (np.sqrt(vb / c2) + 1e-8)
    return min(objective(ai, bi) for ai, bi in zip(a, b))


def finite_difference(objective: Callable[[Sequence[np.ndarray]], float],
                      params: Sequence[np.ndarray], h: float = 1e-6) -> list[np.ndarray]:
    """Central finite differences of a scalar objective w.r.t. each array."""
    grads = []
    work = [p.copy() for p in params]
    for idx, p in enumerate(work):
        grad = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            pos = it.multi_index
            orig = p[pos]
            p[pos] = orig + h
            plus = objective(work)
            p[pos] = orig - h
            minus = objective(work)
            p[pos] = orig
            grad[pos] = (plus - minus) / (2.0 * h)
            it.iternext()
        grads.append(grad)
    return grads


def random_rank_r_matrices(shape: tuple[int, int], r: int, count: int,
                           seed: int = 0):
    """Random rank-r matrices as Gaussian factor products."""
    rng = np.random.default_rng(seed)
    rows, cols = shape
    for _ in range(count):
        yield rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))


def tangent_residual(target: np.ndarray, point: np.ndarray, r: int) -> float:
    """Norm of the rank-r tangent-space projection of (target - point) at point.

    The projector comes from the thin SVD of the point: P(xi) = U U^T xi +
    xi V V^T - U U^T xi V V^T. Zero exactly at critical points.
    """
    if r == 0:
        return 0.0
    u, s, vt = np.linalg.svd(point, full_matrices=False)
    u, v = u[:, :r], vt[:r, :].T
    xi = target - point
    uu = u @ (u.T @ xi)
    proj = uu + (xi - uu) @ v @ v.T
    return float(np.linalg.norm(proj))


def factored_hessian_inertia(x: np.ndarray, y: np.ndarray, w: np.ndarray, r: int,
                             g: np.ndarray | None = None, lam: float = 0.0,
                             h: float = 1e-6, rel: float = 1e-6) -> tuple[int, int]:
    """(negative, zero) eigenvalue counts of the depth-2 factored objective's Hessian.

    The objective is f(L, R) = (1/n)||L R^T X - Y||^2, plus lam ||L R^T G||^2
    when G is given, at the balanced factorization L = U_r S_r^(1/2),
    R = V_r S_r^(1/2) of W. The Hessian is built by central differences of
    the analytic gradient; an eigenvalue counts as negative below
    -rel * max|eig| and as zero within +-rel * max|eig|.
    """
    n = x.shape[1]
    dl, d0 = w.shape
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    root = np.sqrt(s[:r])
    theta = np.concatenate([(u[:, :r] * root).ravel(), (vt[:r].T * root).ravel()])

    def grad(t):
        left, right = t[:dl * r].reshape(dl, r), t[dl * r:].reshape(d0, r)
        w_t = left @ right.T
        dw = (2.0 / n) * (w_t @ x - y) @ x.T
        if g is not None:
            dw = dw + 2.0 * lam * w_t @ g @ g.T
        return np.concatenate([(dw @ right).ravel(), (dw.T @ left).ravel()])

    hess = np.empty((theta.size, theta.size))
    for k in range(theta.size):
        step = np.zeros_like(theta)
        step[k] = h
        hess[:, k] = (grad(theta + step) - grad(theta - step)) / (2.0 * h)
    eig = np.linalg.eigvalsh((hess + hess.T) / 2.0)
    cutoff = rel * float(np.max(np.abs(eig)))
    return int(np.sum(eig < -cutoff)), int(np.sum(np.abs(eig) <= cutoff))
