"""Closed-form global optimizers for invariant rank-bounded regression.

Three routes to an invariant low-rank map W minimizing (1/n)||WX - Y||_F^2
run one pipeline. Each mode builds a whitened target Zbar and a right
factor R; its optimum of rank <= r is the best rank-r part of Zbar (its top
r singular triples; a bound r >= min(d0, dL) keeps them all), times R. With
P = (X X^T)^(1/2), Z = Y X^T P^-1, and the one SVD G~ = P^-1 G = U diag(sigma) V^T,
let mu hold sigma^2 for G's rank(G) directions and exactly 0 for the
nullity(G) others (which include U's columns past G's column count). Both
penalty modes scale the same basis by a diagonal D:

* regularized (+ lambda ||W G||_F^2): Zbar = Z U D(lambda), R = D(lambda) U^T P^-1
  with D(lambda) = diag((1 + n lambda mu)^(-1/2)). Only D depends on lambda: it
  runs from I (reduced-rank regression) towards the 0/1 mask of the mu = 0
  directions, which span the complement of col(G~), so the penalized optimum
  tends to the hard-wired one at a distance O(1/lambda);
* hard-wired (W G = 0): the same target at D(infinity), that 0/1 mask;
* data augmentation (risk averaged over the group orbit of X):
  Zbar = |G| Y X^T Gbar^T Q^-1, R = Q^-1, Q = (sum_g rho(g) X X^T rho(g)^T)^(1/2).

A RegressionProblem factors its data once: construction whitens X X^T, and
G~ and the orbit Gram matrix Q^2 are factored on first use, so every solver
call on one problem shares them. A regularization path sample is the
regularized solution at its lambda, at the cost of one diagonal scaling and
one SVD. The critical points of each problem on the rank-r variety select
every size-r index set of Zbar's singular triples instead of the top r. The
module also computes the invariant/non-invariant decomposition of an
arbitrary W.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from . import tolerances as tol
from .checks import NONNEGATIVE, POSITIVE, count, one_of
from .errors import (
    DegenerateSpectrum,
    InvalidArgument,
    InvalidGrid,
    NotPositiveDefinite,
    SingularData,
    TooManySubsets,
)
from .groups import (ConstraintMatrix, GroupRep, as_constraint, check_acts_on, constraint_entries,
                     elements, group_average)

WARN_RANK_VACUOUS = "RankConstraintVacuous"
WARN_RANK_ASSUMPTION = "RankAssumptionViolated"
WARN_NON_UNIQUE = "NonUniqueOptimum"
FLAG_FILLING = "Filling"
FLAG_NON_FILLING = "NonFilling"
MODES = ("constrained", "regularized", "augmented")


@dataclass(frozen=True)
class RegressionProblem:
    """Data (X, Y), a constraint (matrix G or group rep), a rank bound, and lambda.

    X and Y must be finite, X X^T positive definite (full-row-rank data), and a
    given rep must act on X's rows (``check_acts_on``). The problem owns
    everything computed from its data, each at most once: construction takes G
    by ``as_constraint`` (the given G, else the rep's), whitens X X^T, which is
    the positive-definite check, and attaches classification flags: Filling /
    NonFilling for the rank bound against min(d0, dL), and
    RankConstraintVacuous when r >= nullity(G). Augmented mode whitens the
    orbit Gram matrix on first use. X and Y are not copied and must not change
    after construction.
    """

    x: np.ndarray
    y: np.ndarray
    r: int
    constraint: ConstraintMatrix | np.ndarray | None = None
    rep: GroupRep | None = None
    lam: float = 0.0
    flags: tuple[str, ...] = field(init=False, default=())

    def __post_init__(self):
        x, y = linalg.check_samples(self.x, self.y)
        count(0).check(self.r, "rank bound")
        NONNEGATIVE.check(self.lam, "lambda")
        if self.rep is not None:
            check_acts_on(self.rep, x)
        constraint = as_constraint(self.constraint, x.shape[0], self.rep)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "constraint", constraint)
        self._whitened  # raises SingularData unless X X^T is positive definite
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
        return _whiten(self.x @ self.x.T, self.y @ self.x.T)

    @cached_property
    def _orbit_whitened(self) -> tuple[np.ndarray, np.ndarray]:
        """Q^-1 and the augmented target |G| Y X^T Gbar^T Q^-1."""
        if self.rep is None:
            raise InvalidArgument("augmented mode needs a GroupRep on the problem")
        xxt = self.x @ self.x.T
        return _whiten(sum(g @ xxt @ g.T for g in elements(self.rep)),
                       self.rep.order * self.y @ self.x.T @ group_average(self.rep).T)

    @cached_property
    def _penalty_basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mu, Z U, U^T P^-1) from the SVD G~ = P^-1 G = U diag(sigma) V^T.

        mu is sigma^2 in G's rank(G) directions and 0 in the d0 - rank(G) others.
        """
        p_inv, z = self._whitened
        f = linalg.svd(p_inv @ self.constraint.entries)
        rank = self.d0 - self.constraint.nullity
        mu = np.zeros(self.d0)
        mu[:rank] = f.sigma[:rank] ** 2
        return mu, z @ f.u, f.u.T @ p_inv

    def _target(self, mode: str, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """The whitened target Zbar and right factor R of ``mode`` at penalty ``lam``."""
        one_of(MODES).check(mode, "mode")
        if mode == "augmented":
            q_inv, zbar = self._orbit_whitened
            return zbar, q_inv
        mu, zu, ut_p_inv = self._penalty_basis
        if mode == "constrained":
            d = (mu == 0.0).astype(float)  # D(infinity): the 0/1 mask of the mu = 0 directions
        else:
            d = 1.0 / np.sqrt(1.0 + self.n * lam * mu)
        return zu * d, d[:, None] * ut_p_inv


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
    nonincreasing singular values. The points of one enumeration share the
    target's SVD and the mode's right factor; each forms its ``w`` only on
    first read, so an enumeration holds no dL x d0 matrix per index set.
    """

    index_set: tuple[int, ...]
    loss: float
    is_global_min: bool
    factors: linalg.SvdFactors = field(repr=False, compare=False)
    right: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def w(self) -> np.ndarray:
        """The target's singular triples in ``index_set``, times the right factor."""
        return self.factors.select(list(self.index_set)) @ self.right


@dataclass(frozen=True)
class PathSample(RankBoundedSolution):
    """The regularized solution at ``lam`` and its distance to the hard-constrained optimum."""

    lam: float
    distance_to_inv: float


def _whiten(gram: np.ndarray, cross: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gram^(-1/2) and cross gram^(-1/2); SingularData unless gram is positive definite."""
    try:
        inv_sqrt = linalg.pd_inv_sqrt(gram)
    except NotPositiveDefinite as exc:
        raise SingularData(str(exc)) from exc
    return inv_sqrt, cross @ inv_sqrt


def _solve(problem: RegressionProblem, mode: str, lam: float) -> RankBoundedSolution:
    """W = (best rank-r part of Zbar) R for ``mode`` at penalty ``lam``, and its diagnostics.

    The loss is the objective ``mode`` minimizes: the orbit-averaged risk, or
    the risk + lam ||W G||^2. A tie at r-1 flags NonUniqueOptimum only when
    sigma_{r-1} is nonzero: a target of rank below r is its own unique best
    rank-r approximation.
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
        loss=(augmented_risk(w, problem.x, problem.y, problem.rep) if mode == "augmented"
              else empirical_risk(w, problem.x, problem.y, g=problem.constraint, lam=lam)),
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
    try:
        lams = [float(v) for v in lambdas]
    except (TypeError, ValueError) as exc:
        raise InvalidGrid(f"lambda grid must be an iterable of reals, got {lambdas!r}") from exc
    if not lams:
        raise InvalidGrid("lambda grid is empty")
    if not all(map(POSITIVE.valid, lams)):
        raise InvalidGrid(f"lambda grid entries must each be {POSITIVE.phrase}")
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
    values, mapped back through the mode's right factor when its ``w`` is
    read, sorted by loss ascending. Exactly one point (the subset of the r
    largest values) is the global minimum. Requires pairwise-distinct nonzero singular values;
    otherwise the critical set is not finite.
    """
    zbar, right = problem._target(mode, problem.lam)
    f = linalg.svd(zbar)
    k, r = f.rank, problem.r
    if r > k:
        raise DegenerateSpectrum(
            f"rank bound {r} exceeds the whitened target rank {k}; critical set degenerates"
        )
    n_subsets = math.comb(k, r)
    if n_subsets > tol.MAX_SUBSETS:
        raise TooManySubsets(f"binom({k}, {r}) = {n_subsets} exceeds the {tol.MAX_SUBSETS} guard")
    for i in range(k - 1):
        if f.tied(i):
            raise DegenerateSpectrum(
                f"singular values {i} and {i + 1} coincide within relative gap "
                f"{tol.SPECTRAL_GAP_REL:.0e}"
            )
    total_sq = float(np.sum(f.sigma[:k] ** 2))
    points = [
        CriticalPoint(
            index_set=subset,
            loss=total_sq - float(np.sum(f.sigma[list(subset)] ** 2)),
            is_global_min=subset == tuple(range(r)),
            factors=f,
            right=right,
        )
        for subset in itertools.combinations(range(k), r)
    ]
    points.sort(key=lambda p: p.loss)
    return points


def penalty_entries(lam: float, g, d0: int) -> np.ndarray | None:
    """G's checked entries for a lambda ||W G||_F^2 penalty on d0 inputs, or None without a G.

    A nonzero lambda without a G raises InvalidArgument.
    """
    if g is None:
        if lam:
            raise InvalidArgument(f"lambda = {lam} needs a constraint G to penalize")
        return None
    return constraint_entries(g, d0)


def empirical_risk(w: np.ndarray, x: np.ndarray, y: np.ndarray,
                   g=None, lam: float = 0.0) -> float:
    """(1/n)||W X - Y||_F^2, plus lambda ||W G||_F^2 when lambda is nonzero."""
    w, x, y = linalg.check_chain(w, x, y)
    entries = penalty_entries(lam, g, w.shape[1])
    risk = float(np.linalg.norm(w @ x - y) ** 2) / x.shape[1]
    if lam:
        risk += lam * float(np.linalg.norm(w @ entries) ** 2)
    return risk


def invariance_decomposition(w: np.ndarray, g) -> tuple[np.ndarray, np.ndarray, float]:
    """Split W = W_inv + W_perp along the invariant subspace of G.

    W_inv = W (I - G G^+) satisfies W_inv G = 0; the split is Frobenius-
    orthogonal, so ||W||^2 = ||W_inv||^2 + ||W_perp||^2. Returns
    (W_inv, W_perp, ratio) with ratio = ||W_inv||_F^2 / ||W||_F^2 (defined
    as 1 for W = 0).
    """
    w = linalg.as_matrix(w)
    w_inv = w @ as_constraint(g, w.shape[1]).null_projector
    w_perp = w - w_inv
    total = float(np.linalg.norm(w) ** 2)
    ratio = 1.0 if total == 0.0 else float(np.linalg.norm(w_inv) ** 2) / total
    return w_inv, w_perp, ratio


def with_lambda(problem: RegressionProblem, lam: float) -> RegressionProblem:
    """A copy of the problem with a different penalty strength.

    The copy shares the problem's whitening and penalty basis, which do
    not depend on lambda, so a lambda sweep factors the data once.
    """
    NONNEGATIVE.check(lam, "lambda")
    other = copy.copy(problem)
    object.__setattr__(other, "lam", lam)
    return other
