"""Command-line experiment harness.

Subcommands: gen-data, solve, path, critical-points, train, ntk-check, and
compare. Every command takes --config <file>, --out <dir>, and --seed <u64>
(seed overrides the config). Outputs are plain text (matrix files and CSV)
and byte-identical across reruns of the same config. Exit codes: 0 success,
1 usage/I-O/config error, 2 numerical/solver error.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import tolerances as tol
from .config import ExperimentConfig, load_config, resolve_group
from .datagen import write_dataset
from .errors import ConfigError, InvalidConfig, NotUnitary, NumericalError, ShapeMismatch
from .groups import GroupRep, elements, is_unitary
from .matio import format_float, read_matrix, write_matrix
from .ntk import (
    build_kernel_matrix,
    augmented_kernel,
    conv_empirical_ntk,
    empirical_ntk,
    empirical_ntk_terms,
    kernel_interpolate,
    kernel_predict,
    orbit_symmetrize,
    relu_limiting_ntk,
    sample_width_set,
)
from .solvers import (
    RegressionProblem,
    enumerate_critical_points,
    regularization_path,
    solve_augmented,
    solve_constrained,
    solve_regularized,
)
from .training import MODES as TRAIN_MODES, TrainConfig, augment_dataset, train

SOLVE_MODES = ("constrained", "regularized", "augmented")


@click.group()
def main():
    """Invariant rank-bounded regression experiment harness."""


def command(name: str):
    """Register ``body(cfg, out)`` as the config-driven subcommand ``name``.

    The subcommand takes --config, --out and --seed. It loads the config, lets
    --seed override the config seed, creates the output directory, runs the
    body, and logs the elapsed time to stderr when the body returns.
    """
    def register(body):
        @main.command(name)
        @click.option("--config", "config_path", default=None, help="Experiment config file.")
        @click.option("--out", "out_dir", default=".", help="Output directory.")
        @click.option("--seed", "seed_override", type=click.IntRange(min=0), default=None,
                      help="Override the config seed.")
        @functools.wraps(body)
        def run(config_path, out_dir, seed_override):
            started = time.monotonic()
            if config_path is None:
                raise InvalidConfig("missing required option --config")
            cfg = load_config(config_path)
            if seed_override is not None:
                cfg.seed = seed_override
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            body(cfg, out)
            click.echo(f"elapsed={time.monotonic() - started:.3f}s", err=True)

        return run

    return register


def _mode(cfg: ExperimentConfig, modes: tuple[str, ...]) -> tuple[str, float]:
    """The configured mode, one of ``modes``, and its lambda (0 unless regularized)."""
    mode = cfg.require("mode")
    if mode not in modes:
        raise InvalidConfig(f"mode must be one of {modes}, got {mode!r}")
    return mode, cfg.require("lambda") if mode == "regularized" else 0.0


def _read_data(cfg: ExperimentConfig, out: Path) -> tuple[np.ndarray, np.ndarray, GroupRep]:
    """X and Y (from x_file/y_file, default <out>/X.mat and <out>/Y.mat) and the group."""
    rep = resolve_group(cfg)
    x = read_matrix(_resolve_input(cfg, "x_file", out, "X.mat"))
    y = read_matrix(_resolve_input(cfg, "y_file", out, "Y.mat"))
    if x.shape[0] != rep.dim:
        raise InvalidConfig(f"X has {x.shape[0]} rows but the group acts on R^{rep.dim}")
    if x.shape[1] != y.shape[1]:
        raise ShapeMismatch(f"X {x.shape} and Y {y.shape} must share a sample axis")
    return x, y, rep


def _resolve_input(cfg: ExperimentConfig, key: str, out_dir: Path, default_name: str) -> Path:
    explicit = getattr(cfg, key)
    path = Path(cfg.base_dir) / explicit if explicit else out_dir / default_name
    if not path.is_file():
        raise InvalidConfig(f"input file not found: {path}")
    return path


def _load_problem(cfg: ExperimentConfig, out: Path, lam: float = 0.0) -> RegressionProblem:
    x, y, rep = _read_data(cfg, out)
    return RegressionProblem(x=x, y=y, r=cfg.require("r"), rep=rep, lam=lam)


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


@command("gen-data")
def gen_data_cmd(cfg: ExperimentConfig, out: Path):
    """Write synthetic X.mat, Y.mat, Wtrue.mat for the configured group."""
    seed = cfg.require("seed")
    paths = write_dataset(cfg, out, seed)
    click.echo(f"gen-data group={cfg.group} dL={cfg.dL} n={cfg.n} seed={seed} "
               f"files={','.join(p.name for p in paths)}")


@command("solve")
def solve_cmd(cfg: ExperimentConfig, out: Path):
    """Solve the configured mode in closed form and write W.mat."""
    mode, lam = _mode(cfg, SOLVE_MODES)
    solver = {"constrained": solve_constrained,
              "regularized": solve_regularized,
              "augmented": solve_augmented}[mode]
    solution = solver(_load_problem(cfg, out, lam))
    write_matrix(out / "W.mat", solution.w)
    warnings = ",".join(solution.warnings) if solution.warnings else "-"
    click.echo(f"mode={mode} loss={format_float(solution.loss)} rank={solution.rank} "
               f"invariance_residual={format_float(solution.invariance_residual)} "
               f"warnings={warnings}")


@command("path")
def path_cmd(cfg: ExperimentConfig, out: Path):
    """Sweep the lambda grid and write path.csv."""
    grid = cfg.require("lambda_grid")
    samples = regularization_path(_load_problem(cfg, out), grid)
    rows = [",".join(format_float(v) for v in (s.lam, s.loss, s.invariance_residual,
                                                s.distance_to_inv))
            for s in samples]
    _write_csv(out / "path.csv", "lambda,loss,invariance_residual,distance_to_inv", rows)
    click.echo(f"path points={len(samples)} "
               f"final_distance_to_inv={format_float(samples[-1].distance_to_inv)}")


@command("critical-points")
def critical_points_cmd(cfg: ExperimentConfig, out: Path):
    """Enumerate every critical point and write critical.csv (loss ascending)."""
    mode, lam = _mode(cfg, SOLVE_MODES)
    points = enumerate_critical_points(_load_problem(cfg, out, lam), mode)
    rows = []
    for p in points:
        index_set = "|".join(str(i) for i in p.index_set) if p.index_set else "-"
        rows.append(f"{index_set},{format_float(p.loss)},{'true' if p.is_global_min else 'false'}")
    _write_csv(out / "critical.csv", "index_set,loss,is_global_min", rows)
    click.echo(f"critical-points mode={mode} count={len(points)} "
               f"min_loss={format_float(points[0].loss)}")


@command("train")
def train_cmd(cfg: ExperimentConfig, out: Path):
    """Train a linear net in the configured mode; write trainlog.csv and Wfinal.mat."""
    mode, lam = _mode(cfg, TRAIN_MODES)
    x, y, rep = _read_data(cfg, out)
    optional = {key: getattr(cfg, key) for key in ("loss", "learning_rate", "init_scale")
                if getattr(cfg, key) is not None}
    train_config = TrainConfig(mode=mode, epochs=cfg.require("epochs"), seed=cfg.require("seed"),
                               lam=lam, **optional)
    log = train(train_config, cfg.require("hidden"), x, y, rep=rep)
    rows = [
        ",".join([
            str(rec.epoch),
            format_float(rec.objective),
            format_float(rec.w_perp_frob),
            format_float(rec.invariance_ratio),
            format_float(rec.accuracy),
        ])
        for rec in log.records
    ]
    _write_csv(out / "trainlog.csv", "epoch,objective,w_perp_frob,invariance_ratio,accuracy", rows)
    write_matrix(out / "Wfinal.mat", log.final_w)
    last = log.records[-1]
    click.echo(f"train mode={mode} epochs={len(log.records)} "
               f"final_objective={format_float(last.objective)} "
               f"final_w_perp={format_float(last.w_perp_frob)} "
               f"final_accuracy={format_float(last.accuracy)}")


def _ntk_suites(rep: GroupRep, width: int, trials: int, seed: int):
    """The four tangent-kernel property suites; yields (suite, trial, value, tol, ok)."""
    if not is_unitary(rep):
        raise NotUnitary("ntk-check requires a unitary group preset")
    rng = np.random.default_rng(seed)
    d0 = rep.dim
    mats = elements(rep)

    def unit(v):
        return v / np.linalg.norm(v)

    # equivariance of the closed-form kernel under simultaneous rotation
    for t in range(trials):
        x, xp = unit(rng.standard_normal(d0)), unit(rng.standard_normal(d0))
        base = relu_limiting_ntk(x, xp)
        value = max(abs(relu_limiting_ntk(g @ x, g @ xp) - base) for g in mats[1:]) if len(mats) > 1 else 0.0
        yield "equivariance", t, value, tol.KERNEL_IDENTITY, value < tol.KERNEL_IDENTITY

    # Monte-Carlo convergence of the finite-width kernel to the closed form
    samples = sample_width_set(d0, width, seed)
    for t in range(trials):
        x, xp = unit(rng.standard_normal(d0)), unit(rng.standard_normal(d0))
        emp = empirical_ntk(samples, "relu", x, xp)
        lim = relu_limiting_ntk(x, xp)
        terms = empirical_ntk_terms(samples, "relu", x, xp)
        bound = tol.MONTE_CARLO_SE * float(terms.std(ddof=1)) / np.sqrt(terms.size)
        value = abs(emp - lim)
        yield "monte_carlo", t, value, bound, value <= bound

    # exact identity: conv kernel == augmented kernel on orbit-closed samples
    sym = orbit_symmetrize(sample_width_set(d0, 32, seed + 1), rep)
    for t in range(trials):
        x, xp = unit(rng.standard_normal(d0)), unit(rng.standard_normal(d0))
        conv = conv_empirical_ntk(sym, "relu", rep, x, xp)
        aug = augmented_kernel(lambda a, b: empirical_ntk(sym, "relu", a, b), rep, x, xp)
        value = abs(conv - aug)
        yield "orbit_symmetrized", t, value, tol.KERNEL_IDENTITY, value < tol.KERNEL_IDENTITY

    # the limiting-kernel interpolant on augmented data is invariant
    n = 12
    pts = rng.standard_normal((d0, n))
    targets = rng.standard_normal(n)
    x_aug, y_aug = augment_dataset(pts, targets.reshape(1, -1), rep)
    km = build_kernel_matrix(relu_limiting_ntk, x_aug)
    coeffs = kernel_interpolate(km, y_aug.ravel())
    bound = tol.PREDICTOR_INVARIANCE_REL * float(np.max(np.abs(targets)))
    for t in range(20):
        xt = rng.standard_normal(d0)
        ref = kernel_predict(relu_limiting_ntk, x_aug, coeffs, xt)
        value = max(
            abs(kernel_predict(relu_limiting_ntk, x_aug, coeffs, g @ xt) - ref)
            for g in mats[1:]
        ) if len(mats) > 1 else 0.0
        yield "augmented_predictor", t, value, bound, value <= bound


@command("ntk-check")
def ntk_check_cmd(cfg: ExperimentConfig, out: Path):
    """Run the tangent-kernel property suites; write ntk.csv; exit 2 on failure."""
    rep = resolve_group(cfg)
    rows = []
    failed: dict[str, int] = {}
    worst: dict[str, float] = {}
    suites = _ntk_suites(rep, cfg.require("width"), cfg.require("trials"), cfg.require("seed"))
    for suite, trial, value, bound, ok in suites:
        rows.append(f"{suite},{trial},{format_float(value)},{format_float(bound)},"
                    f"{'pass' if ok else 'fail'}")
        worst[suite] = max(worst.get(suite, 0.0), value)
        if not ok:
            failed[suite] = failed.get(suite, 0) + 1
    _write_csv(out / "ntk.csv", "suite,trial,discrepancy,tolerance,status", rows)
    for suite in worst:
        status = "FAIL" if suite in failed else "PASS"
        click.echo(f"ntk suite={suite} max_discrepancy={format_float(worst[suite])} {status}")
    if failed:
        raise NumericalError(f"ntk suites failed: {', '.join(sorted(failed))}")


@main.command("compare")
@click.argument("file_a")
@click.argument("file_b")
@click.option("--tol", type=float, default=0.0, help="Relative Frobenius tolerance (>= 0).")
def compare_cmd(file_a, file_b, tol):
    """Compare two matrix files; exit 0 when equal within --tol, 2 otherwise."""
    if not tol >= 0.0:
        raise click.BadParameter(f"{tol} is not a number >= 0", param_hint="'--tol'")
    a = read_matrix(file_a)
    b = read_matrix(file_b)
    if a.shape != b.shape:
        raise NumericalError(f"shapes differ: {a.shape} vs {b.shape}")
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    distance = 0.0 if denom == 0.0 else float(np.linalg.norm(a - b)) / denom
    ok = distance <= tol
    click.echo(f"compare rel_distance={format_float(distance)} tol={format_float(tol)} "
               f"{'PASS' if ok else 'FAIL'}")
    if not ok:
        raise NumericalError(f"matrices differ: relative distance {distance:.3e} > {tol:.3e}")


def entry(argv=None) -> int:
    """Console entry point with the documented exit-code contract."""
    try:
        main.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(1)
    except (ConfigError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except NumericalError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    sys.exit(0)


if __name__ == "__main__":
    entry()
