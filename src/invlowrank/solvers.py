"""Closed-form global optimizers for invariant rank-bounded regression.

Three routes to an invariant low-rank map W minimizing (1/n)||WX - Y||_F^2
run one pipeline. Each mode builds a whitened target Zbar and a right
factor R; its optimum of rank <= r is the best rank-r part of Zbar (its top
r singular triples; a bound r >= min(d0, dL) keeps them all), times R. With
P = (X X^T)^(1/2), Z = Y X^T P^-1 and G~ = P^-1 G:

* hard-wired (W G = 0): Zbar = Z (I - A A^+) with A = P^-1 U_m, R = P^-1,
  where U_m spans col(G) by G's one cached SVD, so col(A) = col(G~);
* regularized (+ lambda ||W G||_F^2): Zbar = Z V D(lambda), R = D(lambda) V^T P^-1,
  with G~ G~^T = V diag(mu) V^T (the nullity(G) smallest mu set to exactly 0)
  and D(lambda) = diag((1 + n lambda mu)^(-1/2)). Only D depends on lambda: it
  runs from I (reduced-rank regression) to the 0/1 mask of the mu = 0
  eigenvectors, which span the complement of col(G~), so the penalized
  optimum tends to the hard-wired one at a distance O(1/lambda);
* data augmentation (risk averaged over the group orbit of X):
  Zbar = |G| Y X^T Gbar^T Q^-1, R = Q^-1, Q = (sum_g rho(g) X X^T rho(g)^T)^(1/2).

A RegressionProblem factors its data once: construction whitens X X^T, and
G~ G~^T is factored on first use, so every solver call on one problem
shares both. A regularization path sample is the regularized solution at
its lambda, at the cost of one diagonal scaling and one SVD. The critical
points of each problem on the rank-r variety select every size-r index set
of Zbar's singular triples instead of the top r. The module also computes
the invariant/non-invariant decomposition of an arbitrary W.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import linalg
from . import tolerances as tol
from .errors import (
    DegenerateSpectrum,
    InvalidArgument,
    InvalidGrid,
    NotPositiveDefinite,
    ShapeMismatch,
    SingularData,
    TooManySubsets,
)
from .groups import (ConstraintMatrix, GroupRep, check_acts_on, constraint_entries, elements,
                     group_average, invariance_constraint)

WARN_RANK_VACUOUS = "RankConstraintVacuous"
WARN_RANK_ASSUMPTION = "RankAssumptionViolated"
WARN_NON_UNIQUE = "NonUniqueOptimum"
FLAG_FILLING = "Filling"
FLAG_NON_FILLING = "NonFilling"


@dataclass(frozen=True)
class RegressionProblem:
    """Data (X, Y), a constraint (matrix G or group rep), a rank bound, and lambda.

    X and Y must be finite and X X^T positive definite (full-row-rank data).
    The problem owns everything computed from its data, each at most once:
    construction whitens X X^T, which is the positive-definite check, derives
    the constraint from the rep when only a rep is given, and attaches
    classification flags: Filling / NonFilling for the rank bound against
    min(d0, dL), and RankConstraintVacuous when r >= nullity(G). X and Y are
    not copied and must not change after construction.
    """

    x: np.ndarray
    y: np.ndarray
    r: int
    constraint: ConstraintMatrix | None = None
    rep: GroupRep | None = None
    lam: float = 0.0
    flags: tuple[str, ...] = field(init=False, default=())

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
            raise ShapeMismatch(f"X {x.shape} and Y {y.shape} must share a sample axis")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InvalidArgument("X and Y entries must be finite")
        if self.r < 0:
            raise InvalidArgument(f"rank bound must be >= 0, got {self.r}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise InvalidArgument(f"lambda must be a finite real >= 0, got {self.lam}")
        if self.constraint is None and self.rep is None:
            raise InvalidArgument("need a ConstraintMatrix or a GroupRep")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        self._whitened  # raises SingularData unless X X^T is positive definite
        constraint = self.constraint
        if constraint is None:
            constraint = invariance_constraint(self.rep)
            object.__setattr__(self, "constraint", constraint)
        if constraint.dim != x.shape[0]:
            raise ShapeMismatch(
                f"constraint dimension {constraint.dim} does not match d0 = {x.shape[0]}"
            )
        flags = [FLAG_NON_FILLING if self.r < min(self.d0, self.dl) else FLAG_FILLING]
        if self.r >= constraint.nullity:
            flags.append(WARN_RANK_VACUOUS)
        object.__setattr__(self, "flags", tuple(flags))

    @property
    def d0(self) -> int:
        return self.x.shape[0]

    @property
    def dl(self) -> int:
        return self.y.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @cached_property
    def _whitened(self) -> tuple[np.ndarray, np.ndarray]:
        """P^-1 and Z = Y X^T P^-1."""
        p_inv = _pd_inv_sqrt(self.x @ self.x.T)
        return p_inv, self.y @ self.x.T @ p_inv

    @cached_property
    def _penalty_eigenbasis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mu, Z V, V^T P^-1) with G~ G~^T = V diag(mu) V^T; the nullity(G) smallest mu are 0."""
        p_inv, z = self._whitened
        g_t = p_inv @ self.constraint.entries
        mu, v = np.linalg.eigh(g_t @ g_t.T)
        mu[:self.constraint.nullity] = 0.0
        return mu, z @ v, v.T @ p_inv

    def _target(self, mode: str, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """The whitened target Zbar and right factor R of ``mode`` at penalty ``lam``."""
        if mode == "augmented":
            if self.rep is None:
                raise InvalidArgument("augmented mode needs a GroupRep on the problem")
            xxt = self.x @ self.x.T
            q_inv = _pd_inv_sqrt(sum(g @ xxt @ g.T for g in elements(self.rep)))
            return self.rep.order * self.y @ self.x.T @ group_average(self.rep).T @ q_inv, q_inv
        p_inv, z = self._whitened
        if mode == "constrained":
            # col(G~) = P^-1 col(G) = P^-1 U_m, where U_m holds G's m = rank(G) leading left
            # singular vectors, so G's one SVD decides the subspace. pinv cannot drop any of
            # the m columns: U_m is orthonormal, so cond(P^-1 U_m) <= cond(P) <= 1e6 by the
            # PD check on X X^T, far inside the rank cutoff (about 2e-10 relative at d0 = 196).
            u_m = self.constraint.factors.u[:, :self.constraint.dim - self.constraint.nullity]
            return z @ linalg.left_null_projector(p_inv @ u_m), p_inv
        if mode == "regularized":
            mu, zv, vt_p_inv = self._penalty_eigenbasis
            d = 1.0 / np.sqrt(1.0 + self.n * lam * mu)
            return zv * d, d[:, None] * vt_p_inv
        raise InvalidArgument(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class RankBoundedSolution:
    """An end-to-end matrix with its objective value and diagnostics."""

    w: np.ndarray
    loss: float
    rank: int
    invariance_residual: float
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class CriticalPoint:
    """One critical point of the rank-constrained problem.

    ``loss`` is the transformed-space value sum_{i not in I} sigma_i^2 of the
    whitened target; ``index_set`` stores 0-based indices into its
    nonincreasing singular values.
    """

    w: np.ndarray
    index_set: tuple[int, ...]
    loss: float
    is_global_min: bool


@dataclass(frozen=True)
class PathSample(RankBoundedSolution):
    """The regularized solution at ``lam`` and its distance to the hard-constrained optimum."""

    lam: float
    distance_to_inv: float


def _pd_inv_sqrt(m: np.ndarray) -> np.ndarray:
    try:
        return linalg.pd_inv_sqrt(m)
    except NotPositiveDefinite as exc:
        raise SingularData(str(exc)) from exc


def _objective(problem: RegressionProblem, mode: str, lam: float, w: np.ndarray) -> float:
    """The objective ``mode`` minimizes at W: the orbit-averaged risk, or risk + lam ||W G||^2."""
    if mode == "augmented":
        return augmented_risk(w, problem.x, problem.y, problem.rep)
    return empirical_risk(w, problem.x, problem.y, g=problem.constraint, lam=lam)


def _solve(problem: RegressionProblem, mode: str, lam: float) -> RankBoundedSolution:
    """W = (best rank-r part of Zbar) R for ``mode`` at penalty ``lam``, and its diagnostics.

    A tie at r-1 flags NonUniqueOptimum only when sigma_{r-1} is nonzero: a
    target of rank below r is its own unique best rank-r approximation.
    """
    zbar, right = problem._target(mode, lam)
    f, r = linalg.svd(zbar), problem.r
    warnings = [WARN_RANK_VACUOUS] if WARN_RANK_VACUOUS in problem.flags else []
    if f.rank <= r:
        warnings.append(WARN_RANK_ASSUMPTION)
    if 0 < r <= f.rank and r < f.sigma.size and f.tied(r - 1):
        warnings.append(WARN_NON_UNIQUE)
    w = f.select(slice(0, r)) @ right
    return RankBoundedSolution(
        w=w,
        loss=_objective(problem, mode, lam, w),
        rank=linalg.numerical_rank(w),
        invariance_residual=float(np.linalg.norm(w @ problem.constraint.entries)),
        warnings=tuple(warnings),
    )


def solve_constrained(problem: RegressionProblem) -> RankBoundedSolution:
    """Global optimum of the hard-constrained problem (W G = 0, rank <= r)."""
    return _solve(problem, "constrained", 0.0)


def solve_regularized(problem: RegressionProblem) -> RankBoundedSolution:
    """Global optimum of the penalized problem (+ lambda ||W G||_F^2, rank <= r).

    The reported loss is the penalized objective. At lambda = 0 this is the
    plain reduced-rank regression solution.
    """
    return _solve(problem, "regularized", problem.lam)


def augmented_risk(w: np.ndarray, x: np.ndarray, y: np.ndarray, rep: GroupRep) -> float:
    """Orbit-averaged risk (1/(n|G|)) sum_g ||W rho(g) X - Y||_F^2."""
    check_acts_on(rep, x)
    w, x, y = linalg.check_chain(w, x, y)
    n = x.shape[1]
    total = sum(float(np.linalg.norm(w @ (g @ x) - y) ** 2) for g in elements(rep))
    return total / (n * rep.order)


def solve_augmented(problem: RegressionProblem) -> RankBoundedSolution:
    """Global optimum of the orbit-averaged (data augmentation) problem.

    For unitary representations the result is an invariant map and equals
    the hard-constrained optimum.
    """
    return _solve(problem, "augmented", 0.0)


def regularization_path(problem: RegressionProblem, lambdas) -> list[PathSample]:
    """Penalized optima along an increasing grid of positive lambdas.

    Each sample is ``solve_regularized`` at its lambda, with the same loss,
    invariance residual and solver warnings (NonUniqueOptimum marks a tied
    truncation), plus its Frobenius distance to the hard-constrained optimum;
    the path converges to it as lambda grows. The problem's own lambda is
    ignored.
    """
    lams = [float(v) for v in lambdas]
    if not lams:
        raise InvalidGrid("lambda grid is empty")
    if not all(math.isfinite(v) and v > 0 for v in lams):
        raise InvalidGrid("lambda grid entries must be finite reals > 0")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise InvalidGrid("lambda grid must be strictly increasing")
    w_inv = _solve(problem, "constrained", 0.0).w
    samples = []
    for lam in lams:
        solution = _solve(problem, "regularized", lam)
        samples.append(PathSample(**vars(solution), lam=lam,
                                  distance_to_inv=float(np.linalg.norm(solution.w - w_inv))))
    return samples


def enumerate_critical_points(problem: RegressionProblem, mode: str) -> list[CriticalPoint]:
    """All critical points of the chosen problem on the rank-r variety.

    One point per size-r subset of the whitened target's nonzero singular
    values, mapped back through the mode's right factor, sorted by loss
    ascending. Exactly one point (the subset of the r largest values) is the
    global minimum. Requires pairwise-distinct nonzero singular values;
    otherwise the critical set is not finite.
    """
    zbar, right = problem._target(mode, problem.lam)
    f = linalg.svd(zbar)
    k, r = f.rank, problem.r
    if r > k:
        raise DegenerateSpectrum(
            f"rank bound {r} exceeds the whitened target rank {k}; critical set degenerates"
        )
    count = math.comb(k, r)
    if count > tol.MAX_SUBSETS:
        raise TooManySubsets(f"binom({k}, {r}) = {count} exceeds the {tol.MAX_SUBSETS} guard")
    for i in range(k - 1):
        if f.tied(i):
            raise DegenerateSpectrum(
                f"singular values {i} and {i + 1} coincide within relative gap "
                f"{tol.SPECTRAL_GAP_REL:.0e}"
            )
    total_sq = float(np.sum(f.sigma[:k] ** 2))
    points = [
        CriticalPoint(
            w=f.select(list(subset)) @ right,
            index_set=subset,
            loss=total_sq - float(np.sum(f.sigma[list(subset)] ** 2)),
            is_global_min=subset == tuple(range(r)),
        )
        for subset in itertools.combinations(range(k), r)
    ]
    points.sort(key=lambda p: p.loss)
    return points


def empirical_risk(w: np.ndarray, x: np.ndarray, y: np.ndarray,
                   g=None, lam: float = 0.0) -> float:
    """(1/n)||W X - Y||_F^2, plus lambda ||W G||_F^2 when a constraint is given."""
    w, x, y = linalg.check_chain(w, x, y)
    risk = float(np.linalg.norm(w @ x - y) ** 2) / x.shape[1]
    if g is not None:
        entries = constraint_entries(g)
        if entries.shape[0] != w.shape[1]:
            raise ShapeMismatch(f"constraint rows {entries.shape[0]} != d0 {w.shape[1]}")
        risk += lam * float(np.linalg.norm(w @ entries) ** 2)
    return risk


def invariance_decomposition(w: np.ndarray, g) -> tuple[np.ndarray, np.ndarray, float]:
    """Split W = W_inv + W_perp along the invariant subspace of G.

    W_inv = W (I - G G^+) satisfies W_inv G = 0; the split is Frobenius-
    orthogonal, so ||W||^2 = ||W_inv||^2 + ||W_perp||^2. Returns
    (W_inv, W_perp, ratio) with ratio = ||W_inv||_F^2 / ||W||_F^2 (defined
    as 1 for W = 0).
    """
    w = np.asarray(w, dtype=float)
    entries = constraint_entries(g)
    if w.ndim != 2 or w.shape[1] != entries.shape[0]:
        raise ShapeMismatch(f"W {w.shape} does not act on the {entries.shape[0]} constraint rows")
    if isinstance(g, ConstraintMatrix):
        w_inv = w @ g.null_projector
    else:
        w_inv = w @ linalg.left_null_projector(entries)
    w_perp = w - w_inv
    total = float(np.linalg.norm(w) ** 2)
    ratio = 1.0 if total == 0.0 else float(np.linalg.norm(w_inv) ** 2) / total
    return w_inv, w_perp, ratio


def with_lambda(problem: RegressionProblem, lam: float) -> RegressionProblem:
    """A copy of the problem with a different penalty strength."""
    return replace(problem, lam=lam)
