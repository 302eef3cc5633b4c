"""Gradient-based training of deep linear networks under three invariance modes.

A linear net x -> W_L ... W_1 x is trained full-batch with Adam in one of
three modes: ``augmented`` (the dataset is replaced by its group orbit),
``hardwired`` (inputs pass through an invariant basis B first, so the
end-to-end map W B is invariant for every parameter value), or
``regularized`` (the objective carries a lambda ||W G||_F^2 penalty). Every
epoch logs the objective, the non-invariant component ||W_perp||_F, the
invariance ratio, and argmax accuracy.

Small two-layer nonlinear networks (scalar-scaled, bias-free) are provided
for the kernel experiments, together with the orbit-variance invariance
metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import linalg
from . import tolerances as tol
from .activations import get_activation
from .errors import (
    DivergenceDetected,
    InvalidArgument,
    InvalidConfig,
    NonOneHotTargets,
    OrbitMeanZero,
    ShapeMismatch,
)
from .groups import (ConstraintMatrix, GroupRep, check_acts_on, constraint_entries, elements,
                     invariance_constraint, invariant_basis)
from .solvers import empirical_risk, invariance_decomposition

MODES = ("augmented", "hardwired", "regularized")
LOSSES = ("mse", "cross_entropy")


@dataclass
class LinearNetParams:
    """Weight matrices W_1 ... W_L with chain-compatible shapes."""

    weights: list[np.ndarray]

    def __post_init__(self):
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
        if self.mode not in MODES:
            raise InvalidConfig(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.loss not in LOSSES:
            raise InvalidConfig(f"loss must be one of {LOSSES}, got {self.loss!r}")
        _check_positive("learning_rate", self.learning_rate)
        _check_positive("adam_eps", self.adam_eps)
        b1, b2 = self.adam_betas
        if not (0 <= b1 < 1 and 0 <= b2 < 1):
            raise InvalidConfig("adam betas must lie in [0, 1)")
        if self.epochs < 1:
            raise InvalidConfig("epochs must be >= 1")
        _check_positive("init_scale", self.init_scale)
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise InvalidConfig(f"lambda must be a finite real >= 0, got {self.lam}")


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise InvalidConfig(f"{name} must be a finite real > 0, got {value}")


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
        if self.out.shape[1] != self.hidden.shape[0]:
            raise ShapeMismatch(
                f"output cols {self.out.shape[1]} != hidden units {self.hidden.shape[0]}"
            )
        get_activation(self.activation)


def init_params(dims: Sequence[int], seed: int, init_scale: float = 1.0) -> LinearNetParams:
    """Seeded Gaussian init, std init_scale / sqrt(fan_in) per layer."""
    _check_positive("init_scale", init_scale)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise InvalidConfig(f"dims must be >= 2 positive integers, got {dims}")
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
    return empirical_risk(w, x, y, g=g if lam else None, lam=lam)


def cross_entropy_objective(w: np.ndarray, x: np.ndarray, y: np.ndarray,
                            lam: float = 0.0, g=None) -> float:
    w, x, y = linalg.check_chain(w, x, y)
    logits = w @ x
    shifted = logits - logits.max(axis=0, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=0))
    value = float(np.mean(log_z - np.sum(shifted * y, axis=0)))
    if g is not None and lam:
        value += lam * float(np.linalg.norm(w @ constraint_entries(g)) ** 2)
    return value


def gradient(params: LinearNetParams, x: np.ndarray, y: np.ndarray,
             loss: str = "mse", lam: float = 0.0, g=None) -> list[np.ndarray]:
    """Analytic per-layer gradients of the configured objective.

    For MSE the end-to-end gradient is (2/n)(W X - Y) X^T; cross-entropy
    replaces the residual by softmax(W X) - Y over n. The penalty adds
    2 lambda W G G^T. Layer j receives W_{L:j+1}^T (dF/dW) W_{j-1:1}^T.
    """
    if loss not in LOSSES:
        raise InvalidArgument(f"unknown loss {loss!r}")
    w_end, x, y = linalg.check_chain(end_to_end(params), x, y)
    n = x.shape[1]
    if loss == "mse":
        dw = (2.0 / n) * (w_end @ x - y) @ x.T
    else:
        _check_one_hot(y)
        dw = (_softmax_columns(w_end @ x) - y) @ x.T / n
    if g is not None and lam:
        entries = constraint_entries(g)
        dw = dw + 2.0 * lam * w_end @ entries @ entries.T
    weights = params.weights
    length = len(weights)
    rights = [np.eye(weights[0].shape[1])]
    for w in weights[:-1]:
        rights.append(w @ rights[-1])
    lefts = [np.eye(weights[-1].shape[0])]
    for w in reversed(weights[1:]):
        lefts.append(lefts[-1] @ w)
    lefts.reverse()
    return [lefts[j].T @ dw @ rights[j].T for j in range(length)]


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
    check_acts_on(rep, x)
    if np.shape(x)[1:] != np.shape(y)[1:]:
        raise ShapeMismatch(f"X {np.shape(x)} and Y {np.shape(y)} must share a sample axis")
    mats = elements(rep)
    x_aug = np.hstack([g @ x for g in mats])
    y_aug = np.hstack([y] * len(mats))
    return x_aug, y_aug


def hardwired_forward(params: LinearNetParams, basis: np.ndarray,
                      x: np.ndarray) -> np.ndarray:
    """Apply the invariant basis, then the linear net: W_L ... W_1 B x."""
    basis = np.asarray(basis, dtype=float)
    if params.weights[0].shape[1] != basis.shape[0]:
        raise ShapeMismatch(
            f"first layer expects {params.weights[0].shape[1]} inputs, basis has {basis.shape[0]} rows"
        )
    if basis.ndim != 2 or basis.shape[1:] != np.shape(x)[:1]:
        raise ShapeMismatch(f"basis {basis.shape} does not act on X {np.shape(x)}")
    return end_to_end(params) @ (basis @ x)


def _accuracy(pred: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.argmax(pred, axis=0) == np.argmax(y, axis=0)))


def train(config: TrainConfig, hidden_dims: Sequence[int], x: np.ndarray, y: np.ndarray,
          rep: GroupRep | None = None, constraint: ConstraintMatrix | None = None,
          basis: np.ndarray | None = None) -> TrainLog:
    """Full-batch Adam training in the configured mode.

    The invariance constraint G is ``constraint``, or is built from ``rep``.
    augmented needs ``rep`` (the dataset is expanded to its orbit),
    hardwired trains on ``basis`` @ x (rows spanning the invariant subspace,
    by default ``invariant_basis(G)``), and regularized penalizes
    ``config.lam`` ||W G||_F^2. Metrics are computed each epoch on the
    end-to-end map (composed with the basis in hardwired mode), against G.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if constraint is None:
        if rep is None:
            raise InvalidConfig("need a constraint or a rep for the invariance metrics")
        constraint = invariance_constraint(rep)
    x_train, y_train, lam, g = x, y, 0.0, None
    if config.mode == "augmented":
        if rep is None:
            raise InvalidConfig("augmented mode needs a group representation")
        x_train, y_train = augment_dataset(x, y, rep)
    elif config.mode == "hardwired":
        basis = invariant_basis(constraint) if basis is None else np.asarray(basis, dtype=float)
        if basis.ndim != 2 or basis.shape[1] != x.shape[0]:
            raise ShapeMismatch(f"basis {basis.shape} does not act on d0 = {x.shape[0]} inputs")
        x_train = basis @ x
    else:
        lam, g = config.lam, constraint

    dims = (x_train.shape[0], *hidden_dims, y.shape[0])
    params = init_params(dims, config.seed, config.init_scale)
    state = AdamState.zeros_like(params)
    objective_fn = mse_objective if config.loss == "mse" else cross_entropy_objective
    if config.loss == "cross_entropy":
        _check_one_hot(y_train)

    initial = objective_fn(end_to_end(params), x_train, y_train, lam, g)
    records = []
    for epoch in range(config.epochs):
        grads = gradient(params, x_train, y_train, loss=config.loss, lam=lam, g=g)
        params, state = adam_step(params, state, grads, config)
        w = end_to_end(params)
        objective = objective_fn(w, x_train, y_train, lam, g)
        if not np.isfinite(objective) or objective > tol.DIVERGENCE_FACTOR * max(initial, 1e-300):
            raise DivergenceDetected(
                f"objective {objective:.3e} exceeded {tol.DIVERGENCE_FACTOR:.0e} x initial at epoch {epoch}"
            )
        w_full = w @ basis if config.mode == "hardwired" else w
        _, w_perp, ratio = invariance_decomposition(w_full, constraint)
        records.append(
            EpochRecord(
                epoch=epoch,
                objective=float(objective),
                w_perp_frob=float(np.linalg.norm(w_perp)),
                invariance_ratio=float(ratio),
                accuracy=_accuracy(w_full @ x, y),
            )
        )
    return TrainLog(records=tuple(records), final_w=w_full)


def nonlinear_forward(params: NonlinearNetParams, x: np.ndarray) -> np.ndarray:
    """f(x) = (1/sqrt(d1)) * out @ sigma(hidden @ x)."""
    act, _ = get_activation(params.activation)
    d1 = params.hidden.shape[0]
    return params.out @ act(params.hidden @ x) / np.sqrt(d1)


def nonlinear_gradient(params: NonlinearNetParams, x: np.ndarray,
                       y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of (1/n)||f(X) - Y||_F^2 w.r.t. (hidden, out) weights."""
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
    check_acts_on(rep, x)
    values = np.array([float(predict(g @ x)) for g in elements(rep)])
    mean = float(values.mean())
    if abs(mean) < tol.ORBIT_MEAN_FLOOR:
        raise OrbitMeanZero(f"orbit mean {mean:.3e} below {tol.ORBIT_MEAN_FLOOR:.0e}")
    return float(np.mean((1.0 - values / mean) ** 2))


def epsilon_inv_median(predict: Callable[[np.ndarray], float], xs: np.ndarray,
                       rep: GroupRep) -> float:
    """Median of epsilon_inv over the columns of xs."""
    xs = linalg.as_matrix(xs)
    return float(np.median([epsilon_inv(predict, xs[:, i], rep) for i in range(xs.shape[1])]))
