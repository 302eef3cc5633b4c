"""Gradient-based training of deep linear networks under three invariance modes.

A linear net x -> W_L ... W_1 x is trained full-batch with Adam in one of
three modes: ``augmented`` (the risk is averaged over the group orbit of
the data), ``hardwired`` (inputs pass through an invariant basis B first, so
the end-to-end map W B is invariant for every parameter value), or
``regularized`` (the objective carries a lambda ||W G||_F^2 penalty). For
MSE, each mode's data (the n|G| orbit columns, B X, or X with the penalty
as one more block (sqrt(n lambda) G, 0)) is folded once, before the first
epoch, into the triangular QR factor of [X^T Y^T]: at most d0 + dL columns
with the same objective and gradient, so the objective and gradient cost the
same per epoch whatever n and |G| are, and no epoch multiplies by G. The
orbit is folded from the surrogate of (X, Y) itself, one group element at a
time, so each element costs a d0 x d0 x k product (k <= d0 + dL) and a QR of
at most 2(d0 + dL) rows. Every epoch logs the objective, the non-invariant
component ||W_perp||_F, the invariance ratio, and argmax accuracy on the n
raw columns. The objective is taken each epoch; the other metrics are taken
for a block of epochs at a time, from one product of the stacked end-to-end
maps with the projector and one with the n raw columns, so per epoch the
optimizer step is the only work left besides the objective.

Small two-layer nonlinear networks (scalar-scaled, bias-free) are provided
for the kernel experiments, together with the orbit-variance invariance
metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from . import linalg
from . import tolerances as tol
from .activations import get_activation
from .checks import NONNEGATIVE, POSITIVE, SEED, Kind, count, one_of, real_array
from .errors import (
    DivergenceDetected,
    InvalidArgument,
    InvalidConfig,
    NonOneHotTargets,
    OrbitMeanZero,
    ShapeMismatch,
)
from .groups import (ConstraintMatrix, GroupRep, as_constraint, check_acts_on, elements,
                     invariant_basis, orbit)
from .solvers import empirical_risk, invariance_decomposition, penalty_entries

MODES = ("augmented", "hardwired", "regularized")
LOSSES = ("mse", "cross_entropy")
_LOSS = one_of(LOSSES)
_BETA = Kind(lambda v: NONNEGATIVE.valid(v) and v < 1, "a real in [0, 1)")


@dataclass
class LinearNetParams:
    """Weight matrices W_1 ... W_L with chain-compatible shapes."""

    weights: list[np.ndarray]

    def __post_init__(self):
        self.weights = [real_array(w, 2, "layer weights") for w in self.weights]
        count(1).check(len(self.weights), "the number of layers")
        for a, b in zip(self.weights, self.weights[1:]):
            if b.shape[1] != a.shape[0]:
                raise ShapeMismatch(f"layer shapes {a.shape} -> {b.shape} do not chain")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run."""

    mode: str
    epochs: int
    seed: int
    loss: str = "mse"
    learning_rate: float = 1e-3
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    init_scale: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        one_of(MODES).check(self.mode, "mode", InvalidConfig)
        _LOSS.check(self.loss, "loss", InvalidConfig)
        for name in ("learning_rate", "adam_eps", "init_scale"):
            POSITIVE.check(getattr(self, name), name, InvalidConfig)
        betas = self.adam_betas
        if not (isinstance(betas, Sequence) and len(betas) == 2 and all(map(_BETA.valid, betas))):
            raise InvalidConfig(f"adam_betas must be two reals in [0, 1), got {betas!r}")
        count(1).check(self.epochs, "epochs", InvalidConfig)
        SEED.check(self.seed, "seed", InvalidConfig)
        NONNEGATIVE.check(self.lam, "lambda", InvalidConfig)


def _layer_widths(dims: Sequence[int]) -> tuple[int, ...]:
    """dims as a tuple; InvalidConfig unless it is a sequence of integers >= 1."""
    if not (isinstance(dims, (Sequence, np.ndarray)) and all(map(count(1).valid, dims))):
        raise InvalidConfig(f"layer widths must be a sequence of integers >= 1, got {dims!r}")
    return tuple(dims)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    objective: float
    w_perp_frob: float
    invariance_ratio: float
    accuracy: float


@dataclass(frozen=True)
class TrainLog:
    records: tuple[EpochRecord, ...]
    final_w: np.ndarray


@dataclass
class NonlinearNetParams:
    """Two-layer net (1/sqrt(d1)) * out @ sigma(hidden @ x), bias-free."""

    hidden: np.ndarray  # d1 x d0
    out: np.ndarray     # dL x d1
    activation: str

    def __post_init__(self):
        self.hidden = real_array(self.hidden, 2, "hidden weights")
        self.out = real_array(self.out, 2, "output weights")
        if self.out.shape[1] != self.hidden.shape[0]:
            raise ShapeMismatch(
                f"output cols {self.out.shape[1]} != hidden units {self.hidden.shape[0]}"
            )
        get_activation(self.activation)


def init_params(dims: Sequence[int], seed: int, init_scale: float = 1.0) -> LinearNetParams:
    """Seeded Gaussian init, std init_scale / sqrt(fan_in) per layer."""
    POSITIVE.check(init_scale, "init_scale", InvalidConfig)
    SEED.check(seed, "seed", InvalidConfig)
    count(2).check(len(_layer_widths(dims)), "the number of layer widths", InvalidConfig)
    rng = np.random.default_rng(seed)
    weights = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        std = init_scale / np.sqrt(fan_in)
        weights.append(rng.standard_normal((fan_out, fan_in)) * std)
    return LinearNetParams(weights=weights)


def end_to_end(params: LinearNetParams) -> np.ndarray:
    """The product W_L ... W_1."""
    out = params.weights[0]
    for w in params.weights[1:]:
        out = w @ out
    return out


def _check_one_hot(y: np.ndarray) -> None:
    if not np.all((y == 0.0) | (y == 1.0)) or not np.all(y.sum(axis=0) == 1.0):
        raise NonOneHotTargets("cross-entropy targets must be one-hot columns")


def _softmax_columns(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def mse_objective(w: np.ndarray, x: np.ndarray, y: np.ndarray,
                  lam: float = 0.0, g=None) -> float:
    """(1/n)||W X - Y||_F^2, plus lambda ||W G||_F^2 when lambda is nonzero."""
    return empirical_risk(w, x, y, g=g, lam=lam)


def cross_entropy_objective(w: np.ndarray, x: np.ndarray, y: np.ndarray,
                            lam: float = 0.0, g=None) -> float:
    w, x, y = linalg.check_chain(w, x, y)
    entries = penalty_entries(lam, g, w.shape[1])
    logits = w @ x
    shifted = logits - logits.max(axis=0, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=0))
    value = float(np.mean(log_z - np.sum(shifted * y, axis=0)))
    if lam:
        value += lam * float(np.linalg.norm(w @ entries) ** 2)
    return value


def gradient(params: LinearNetParams, x: np.ndarray, y: np.ndarray,
             loss: str = "mse", lam: float = 0.0, g=None) -> list[np.ndarray]:
    """Analytic per-layer gradients of the configured objective.

    For MSE the end-to-end gradient is (2/n)(W X - Y) X^T; cross-entropy
    replaces the residual by softmax(W X) - Y over n. The penalty adds
    2 lambda W G G^T. Layer j receives W_{L:j+1}^T (dF/dW) W_{j-1:1}^T.
    """
    _LOSS.check(loss, "loss")
    w_end, x, y = linalg.check_chain(end_to_end(params), x, y)
    entries = penalty_entries(lam, g, w_end.shape[1])
    n = x.shape[1]
    if loss == "mse":
        dw = (2.0 / n) * (w_end @ x - y) @ x.T
    else:
        _check_one_hot(y)
        dw = (_softmax_columns(w_end @ x) - y) @ x.T / n
    if lam:
        dw = dw + 2.0 * lam * w_end @ entries @ entries.T
    # below[j] = W_{j-1} ... W_1 and above[j] = W_L ... W_{j+1}; None stands
    # for the identity at either end of the chain, so no product with I is formed
    weights = params.weights
    below = [None, *accumulate(weights[:-1], lambda acc, w: w @ acc)]
    above = [*accumulate(reversed(weights[1:]), lambda acc, w: acc @ w)][::-1] + [None]
    grads = []
    for left, right in zip(above, below):
        grad = dw if left is None else left.T @ dw
        grads.append(grad if right is None else grad @ right.T)
    return grads


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, params: LinearNetParams) -> "AdamState":
        return cls(
            m=[np.zeros_like(w) for w in params.weights],
            v=[np.zeros_like(w) for w in params.weights],
            t=0,
        )


def adam_step(params: LinearNetParams, state: AdamState,
              grads: Sequence[np.ndarray], config: TrainConfig
              ) -> tuple[LinearNetParams, AdamState]:
    """One bias-corrected Adam update; deterministic and allocation-fresh."""
    b1, b2 = config.adam_betas
    t = state.t + 1
    new_m, new_v, new_w = [], [], []
    for w, m, v, grad in zip(params.weights, state.m, state.v, grads):
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad * grad
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        new_w.append(w - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps))
        new_m.append(m)
        new_v.append(v)
    return LinearNetParams(weights=new_w), AdamState(m=new_m, v=new_v, t=t)


def augment_dataset(x: np.ndarray, y: np.ndarray,
                    rep: GroupRep) -> tuple[np.ndarray, np.ndarray]:
    """Group-element-major stacking [rho(g^0)X | rho(g^1)X | ...], Y repeated."""
    x, y = linalg.check_samples(x, y)
    (x_orbit,) = orbit(rep, x)
    return np.hstack(x_orbit), np.hstack([y] * len(x_orbit))


def mse_surrogate(blocks: Iterable[tuple[np.ndarray, np.ndarray]], n: int | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Data (X~, Y~) of at most d0 + dL columns with the MSE geometry of the stacked blocks.

    The blocks (X_i, Y_i) stand for X = [X_1 X_2 ...] and Y = [Y_1 Y_2 ...];
    they are folded one at a time, so X is never formed. n, the sample count
    the objective divides by, defaults to the blocks' column count; a penalty
    lambda ||W G||_F^2 = (1/n)||W sqrt(n lambda) G - 0||_F^2 over n samples is
    one more block (sqrt(n lambda) G, 0) whose columns n does not count.
    R = [R_x R_y], the triangular QR factor of the n x (d0 + dL) matrix
    [X^T Y^T], satisfies ||W X - Y||_F^2 = ||R_x W^T - R_y||_F^2 for every W.
    With k rows in R and s = sqrt(k / n), X~ = s R_x^T and Y~ = s R_y^T make
    ``mse_objective`` and ``gradient`` return the same (1/n)||W X - Y||_F^2
    and (2/n)(W X X^T - Y X^T) as X and Y. No Gram matrix is formed, so no
    condition number is squared, and X may be rank-deficient or have fewer
    than d0 + dL columns.
    """
    r, columns = None, 0
    for x, y in blocks:
        x, y = linalg.check_samples(x, y)
        if r is None:
            d0, dl = x.shape[0], y.shape[0]
        elif (x.shape[0], y.shape[0]) != (d0, dl):
            raise ShapeMismatch(f"block X {x.shape}, Y {y.shape} do not have the first block's "
                                f"{d0} and {dl} rows")
        stacked = np.vstack([x, y]).T
        r = np.linalg.qr(stacked if r is None else np.vstack([r, stacked]), mode="r")
        columns += x.shape[1]
    if r is None:
        raise InvalidArgument("mse_surrogate needs at least one block")
    n = count(1).check(columns if n is None else n, "the sample count")
    scale = math.sqrt(r.shape[0] / n)
    return scale * r[:, :d0].T, scale * r[:, d0:].T


def hardwired_forward(params: LinearNetParams, basis: np.ndarray,
                      x: np.ndarray) -> np.ndarray:
    """Apply the invariant basis, then the linear net: W_L ... W_1 B x."""
    basis, x = real_array(basis, 2, "basis"), real_array(x, None, "X")
    if params.weights[0].shape[1] != basis.shape[0]:
        raise ShapeMismatch(
            f"first layer expects {params.weights[0].shape[1]} inputs, basis has {basis.shape[0]} rows"
        )
    if basis.shape[1:] != np.shape(x)[:1]:
        raise ShapeMismatch(f"basis {basis.shape} does not act on X {np.shape(x)}")
    return end_to_end(params) @ (basis @ x)


# epochs whose metrics share one invariance_decomposition call and one product with
# the n raw columns
_METRIC_BLOCK = 8


def _block_records(first_epoch: int, objectives: Sequence[float], maps: Sequence[np.ndarray],
                   basis: np.ndarray | None, constraint: ConstraintMatrix,
                   x_metric: np.ndarray, labels: np.ndarray) -> list[EpochRecord]:
    """The records of consecutive epochs, from their end-to-end maps stacked by rows.

    Each epoch's norms come from its own rows of the stacked products and its
    argmax from its own slice of the logits, so they are the metrics of that
    epoch's map alone.
    """
    rows = maps[0].shape[0]
    w = np.vstack(maps)
    w_full = w if basis is None else w @ basis
    w_inv, w_perp, _ = invariance_decomposition(w_full, constraint)
    # samples x epochs x outputs: argmax over the last, contiguous axis reads the logits in place
    logits = (x_metric.T @ w.T).reshape(x_metric.shape[1], len(maps), rows)
    accuracy = np.mean(np.argmax(logits, axis=2) == labels[:, None], axis=0)
    records = []
    for i, objective in enumerate(objectives):
        epoch_rows = slice(i * rows, (i + 1) * rows)
        total = float(np.linalg.norm(w_full[epoch_rows]) ** 2)
        ratio = 1.0 if total == 0.0 else float(np.linalg.norm(w_inv[epoch_rows]) ** 2) / total
        records.append(
            EpochRecord(
                epoch=first_epoch + i,
                objective=objective,
                w_perp_frob=float(np.linalg.norm(w_perp[epoch_rows])),
                invariance_ratio=ratio,
                accuracy=float(accuracy[i]),
            )
        )
    return records


def train(config: TrainConfig, hidden_dims: Sequence[int], x: np.ndarray, y: np.ndarray,
          rep: GroupRep | None = None, constraint: ConstraintMatrix | np.ndarray | None = None,
          basis: np.ndarray | None = None) -> TrainLog:
    """Full-batch Adam training in the configured mode.

    The invariance constraint G is ``constraint`` (a ConstraintMatrix or an
    array-like), or is built from ``rep``; before any fold or epoch,
    ``as_constraint`` checks G's d0 rows and ``check_acts_on`` a given rep
    against X. augmented needs ``rep`` (it trains on
    the group orbit of the data), hardwired trains on ``basis`` @ x (rows
    spanning the invariant subspace, by default ``invariant_basis(G)``), and
    regularized penalizes ``config.lam`` ||W G||_F^2. MSE training runs on ``mse_surrogate`` of the
    mode's data, folded once before the first epoch, with the regularized
    penalty folded in as the block (sqrt(n lambda) G, 0); cross-entropy runs on
    the data itself and adds the penalty each epoch. The objective is checked
    for divergence each epoch. The other metrics are computed on the
    end-to-end map (composed with the basis in hardwired mode), against G,
    for 8 epochs at a time from their stacked maps; accuracy is taken on
    the n raw columns, through B X, formed once, in hardwired mode. The
    records are those of a per-epoch computation, up to rounding in the
    w_perp_frob and invariance_ratio columns.
    """
    x, y = linalg.check_samples(x, y)
    hidden_dims = _layer_widths(hidden_dims)
    count(1).check(x.shape[1], "the sample count")
    if rep is not None:
        check_acts_on(rep, x)
    constraint = as_constraint(constraint, x.shape[0], rep)
    entries = constraint.entries
    if config.mode != "hardwired":
        basis = None  # only hardwired mode composes the net's map with a basis
    lam, g = 0.0, None
    x_metric = x  # the net's input on the n raw columns, for accuracy (B X in hardwired mode)
    if config.mode == "augmented":
        if rep is None:
            raise InvalidConfig("augmented mode needs a group representation")
        # [X^T rho^T Y^T] = [X^T Y^T] diag(rho^T, I), so the orbit folds from the
        # data's own R factor: each element multiplies k <= d0 + dL columns, not n
        x0, y0 = mse_surrogate([(x, y)]) if config.loss == "mse" else (x, y)
        blocks = ((mat @ x0, y0) for mat in elements(rep))
    elif config.mode == "hardwired":
        basis = invariant_basis(constraint) if basis is None else real_array(basis, 2, "basis")
        if basis.shape[1] != x.shape[0]:
            raise ShapeMismatch(f"basis {basis.shape} does not act on d0 = {x.shape[0]} inputs")
        x_metric = basis @ x
        blocks = [(x_metric, y)]
    else:
        lam, g = config.lam, constraint
        blocks = [(x, y)]
    if config.loss == "mse":
        samples = None
        if lam:
            # lam ||W G||^2 = (1/n)||W sqrt(n lam) G - 0||^2, so the penalty is one more
            # block over the n data samples and no epoch multiplies by G
            samples = x.shape[1]
            blocks.append((math.sqrt(samples * lam) * entries,
                           np.zeros((y.shape[0], entries.shape[1]))))
        x_train, y_train = mse_surrogate(blocks, samples)
        lam, g = 0.0, None
    else:
        x_train, y_train = (np.hstack(parts) for parts in zip(*blocks))
        _check_one_hot(y_train)

    dims = (x_train.shape[0], *hidden_dims, y.shape[0])
    params = init_params(dims, config.seed, config.init_scale)
    state = AdamState.zeros_like(params)
    objective_fn = mse_objective if config.loss == "mse" else cross_entropy_objective

    initial = objective_fn(end_to_end(params), x_train, y_train, lam, g)
    bound = tol.DIVERGENCE_FACTOR * max(initial, tol.SCALE_FLOOR)
    labels = np.argmax(y, axis=0)
    # G's projector is per-run work: factored here, its SVD workspace is freed before the
    # loop allocates its metric blocks instead of stacking on them (a lower peak RSS)
    constraint.null_projector
    records, objectives, maps = [], [], []
    for epoch in range(config.epochs):
        grads = gradient(params, x_train, y_train, loss=config.loss, lam=lam, g=g)
        params, state = adam_step(params, state, grads, config)
        w = end_to_end(params)
        objective = objective_fn(w, x_train, y_train, lam, g)
        if not np.isfinite(objective) or objective > bound:
            raise DivergenceDetected(
                f"objective {objective:.3e} exceeded {tol.DIVERGENCE_FACTOR:.0e} x initial at epoch {epoch}"
            )
        objectives.append(float(objective))
        maps.append(w)
        if len(maps) == _METRIC_BLOCK or epoch == config.epochs - 1:
            records += _block_records(epoch + 1 - len(maps), objectives, maps, basis, constraint,
                                      x_metric, labels)
            objectives, maps = [], []
    return TrainLog(records=tuple(records), final_w=w if basis is None else w @ basis)


def _net_inputs(params: NonlinearNetParams, x) -> np.ndarray:
    """x by ``real_array``; ShapeMismatch unless it has the d0 rows the hidden layer takes."""
    x = real_array(x, None, "x")
    if x.shape[:1] != params.hidden.shape[1:2]:
        raise ShapeMismatch(f"input {x.shape} lacks the {params.hidden.shape[1]} rows "
                            "the hidden layer takes")
    return x


def nonlinear_forward(params: NonlinearNetParams, x: np.ndarray) -> np.ndarray:
    """f(x) = (1/sqrt(d1)) * out @ sigma(hidden @ x)."""
    x = _net_inputs(params, x)
    act, _ = get_activation(params.activation)
    d1 = params.hidden.shape[0]
    return params.out @ act(params.hidden @ x) / np.sqrt(d1)


def nonlinear_gradient(params: NonlinearNetParams, x: np.ndarray,
                       y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of (1/n)||f(X) - Y||_F^2 w.r.t. (hidden, out) weights.

    X is d0 x n with n >= 1 (InvalidArgument otherwise) and Y has f(X)'s shape
    dL x n (ShapeMismatch otherwise).
    """
    x, y = _net_inputs(params, real_array(x, 2, "X")), real_array(y, None, "Y")
    count(1).check(x.shape[1], "the sample count")
    if y.shape != (params.out.shape[0], x.shape[1]):
        raise ShapeMismatch(f"Y {y.shape} does not have f(X)'s shape "
                            f"{(params.out.shape[0], x.shape[1])}")
    act, act_prime = get_activation(params.activation)
    d1 = params.hidden.shape[0]
    scale = 1.0 / np.sqrt(d1)
    pre = params.hidden @ x
    h = act(pre)
    resid = scale * (params.out @ h) - y
    n = x.shape[1]
    d_out = (2.0 / n) * scale * resid @ h.T
    d_h = scale * params.out.T @ resid * (2.0 / n)
    d_hidden = (d_h * act_prime(pre)) @ x.T
    return d_hidden, d_out


def epsilon_inv(predict: Callable[[np.ndarray], float], x: np.ndarray,
                rep: GroupRep) -> float:
    """Orbit-relative output variance E_g (1 - f(gx)/fbar(x))^2.

    Zero exactly for invariant predictors; undefined (OrbitMeanZero) when
    the orbit mean is numerically zero.
    """
    values = np.array([float(predict(gx)) for gx in orbit(rep, x)[0]])
    mean = float(values.mean())
    if abs(mean) < tol.ORBIT_MEAN_FLOOR:
        raise OrbitMeanZero(f"orbit mean {mean:.3e} below {tol.ORBIT_MEAN_FLOOR:.0e}")
    return float(np.mean((1.0 - values / mean) ** 2))


def epsilon_inv_median(predict: Callable[[np.ndarray], float], xs: np.ndarray,
                       rep: GroupRep) -> float:
    """Median of epsilon_inv over the columns of xs; xs needs at least one column."""
    xs = linalg.as_matrix(xs)
    count(1).check(xs.shape[1], "the point count")
    return float(np.median([epsilon_inv(predict, xs[:, i], rep) for i in range(xs.shape[1])]))
