"""Synthetic regression data: Y = W_true X + noise, optionally invariant W_true."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .checks import NONNEGATIVE
from .config import ExperimentConfig, resolve_group
from .errors import InvalidConfig
from .groups import GroupRep, invariance_constraint
from .matio import write_matrix


def generate_dataset(cfg: ExperimentConfig, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, GroupRep]:
    """Draw (X, Y, W_true) for the configured group preset.

    X is standard Gaussian d0 x n; W_true is Gaussian, projected onto the
    invariant subspace unless invariant_wtrue is false; Y = W_true X +
    noise_sigma * E. Requires n >= d0 so X X^T is generically full rank.
    """
    rep = resolve_group(cfg)
    d0 = rep.dim
    if cfg.d0 is not None and cfg.d0 != d0:
        raise InvalidConfig(f"d0 = {cfg.d0} does not match the group dimension {d0}")
    dl = cfg.require("dL")
    n = cfg.require("n")
    noise = cfg.noise_sigma if cfg.noise_sigma is not None else 0.0
    NONNEGATIVE.check(noise, "noise_sigma", InvalidConfig)
    if n < d0:
        raise InvalidConfig(f"n = {n} must be >= d0 = {d0} for full-row-rank data")
    invariant = cfg.invariant_wtrue if cfg.invariant_wtrue is not None else True
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d0, n))
    w_true = rng.standard_normal((dl, d0))
    if invariant:
        w_true = w_true @ invariance_constraint(rep).null_projector
    y = w_true @ x + noise * rng.standard_normal((dl, n))
    return x, y, w_true, rep


def write_dataset(cfg: ExperimentConfig, out_dir: Path, seed: int) -> tuple[Path, Path, Path]:
    x, y, w_true, _ = generate_dataset(cfg, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = (out_dir / "X.mat", out_dir / "Y.mat", out_dir / "Wtrue.mat")
    write_matrix(paths[0], x)
    write_matrix(paths[1], y)
    write_matrix(paths[2], w_true)
    return paths
