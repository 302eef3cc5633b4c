"""Command-line experiment harness.

Subcommands: gen-data, solve, path, critical-points, train, ntk-check, and
compare. Every command but compare takes --config <file>, --out <dir>, and
--seed <integer >= 0> (seed overrides the config); compare takes two matrix
files and --tol. -h prints help; abbreviated options are refused. Outputs are
plain text (matrix files and CSV) and byte-identical across reruns of the same
config. Exit codes: 0 success, 1 usage/I-O/config error or a refused
allocation, 2 numerical/solver error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path
from typing import Iterable, NoReturn

import numpy as np

# modules, not names: the package loads each submodule on first use, so a command runs
# only the code of the modules it calls
from . import datagen, ntk, solvers, training
from .checks import SEED, one_of
from .config import ExperimentConfig, load_config, resolve_group
from .errors import ConfigError, InvalidConfig, NumericalError
from .groups import GroupRep
from .linalg import unit_scaled
from .matio import format_float, read_matrix, write_matrix


# numpy refuses an array of 2**63 bytes or more at once, with a ValueError in place of a
# MemoryError; its message starts with one of these
_NUMPY_REFUSALS = ("Maximum allowed dimension exceeded", "Maximum allowed size exceeded",
                   "array is too big")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise InvalidConfig, so they exit 1 on one line."""

    def error(self, message: str) -> NoReturn:
        raise InvalidConfig(message)


def _seed(text: str) -> int:
    """The --seed value, checked by the rule the config's seed key uses."""
    try:
        value = int(text)
    except ValueError:
        value = text
    return SEED.check(value, "--seed", InvalidConfig)


def _run(body, args: argparse.Namespace) -> None:
    """Load --config, apply --seed, create --out, run ``body(cfg, out)``, log the time taken."""
    started = time.monotonic()
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    body(cfg, out)
    print(f"elapsed={time.monotonic() - started:.3f}s", file=sys.stderr)


def _mode(cfg: ExperimentConfig, modes: tuple[str, ...]) -> tuple[str, float]:
    """The configured mode, one of ``modes``, and its lambda (0 unless regularized)."""
    mode = one_of(modes).check(cfg.require("mode"), "mode", InvalidConfig)
    return mode, cfg.require("lambda") if mode == "regularized" else 0.0


def _read_data(cfg: ExperimentConfig, out: Path) -> tuple[np.ndarray, np.ndarray, GroupRep]:
    """X and Y (from x_file/y_file, default <out>/X.mat and <out>/Y.mat) and the group."""
    rep = resolve_group(cfg)
    x = read_matrix(_resolve_input(cfg, "x_file", out, "X.mat"))
    y = read_matrix(_resolve_input(cfg, "y_file", out, "Y.mat"))
    return x, y, rep


def _resolve_input(cfg: ExperimentConfig, key: str, out_dir: Path, default_name: str) -> Path:
    explicit = getattr(cfg, key)
    path = Path(cfg.base_dir) / explicit if explicit else out_dir / default_name
    if not path.is_file():
        raise InvalidConfig(f"input file not found: {path}")
    return path


def _load_problem(cfg: ExperimentConfig, out: Path,
                  lam: float = 0.0) -> solvers.RegressionProblem:
    x, y, rep = _read_data(cfg, out)
    return solvers.RegressionProblem(x=x, y=y, r=cfg.require("r"), rep=rep, lam=lam)


def _write_csv(path: Path, header: str, rows: Iterable[tuple]) -> None:
    """The header, then one line per row: float fields by ``format_float``, others by str."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format_float(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def gen_data_cmd(cfg: ExperimentConfig, out: Path):
    """Write synthetic X.mat, Y.mat, Wtrue.mat for the configured group."""
    seed = cfg.require("seed")
    paths = datagen.write_dataset(cfg, out, seed)
    print(f"gen-data group={cfg.group} dL={cfg.dL} n={cfg.n} seed={seed} "
          f"files={','.join(p.name for p in paths)}")


def solve_cmd(cfg: ExperimentConfig, out: Path):
    """Solve the configured mode in closed form and write W.mat."""
    mode, lam = _mode(cfg, solvers.MODES)
    solver = {"constrained": solvers.solve_constrained,
              "regularized": solvers.solve_regularized,
              "augmented": solvers.solve_augmented}[mode]
    solution = solver(_load_problem(cfg, out, lam))
    write_matrix(out / "W.mat", solution.w)
    warnings = ",".join(solution.warnings) if solution.warnings else "-"
    print(f"mode={mode} loss={format_float(solution.loss)} rank={solution.rank} "
          f"invariance_residual={format_float(solution.invariance_residual)} "
          f"warnings={warnings}")


def path_cmd(cfg: ExperimentConfig, out: Path):
    """Sweep the lambda grid and write path.csv."""
    grid = cfg.require("lambda_grid")
    samples = solvers.regularization_path(_load_problem(cfg, out), grid)
    _write_csv(out / "path.csv", "lambda,loss,invariance_residual,distance_to_inv",
               ((s.lam, s.loss, s.invariance_residual, s.distance_to_inv) for s in samples))
    print(f"path points={len(samples)} "
          f"final_distance_to_inv={format_float(samples[-1].distance_to_inv)}")


def critical_points_cmd(cfg: ExperimentConfig, out: Path):
    """Enumerate every critical point and write critical.csv (loss ascending)."""
    mode, lam = _mode(cfg, solvers.MODES)
    points = solvers.enumerate_critical_points(_load_problem(cfg, out, lam), mode)
    _write_csv(out / "critical.csv", "index_set,loss,is_global_min",
               (("|".join(map(str, p.index_set)) or "-", p.loss,
                 "true" if p.is_global_min else "false") for p in points))
    print(f"critical-points mode={mode} count={len(points)} "
          f"min_loss={format_float(points[0].loss)}")


def train_cmd(cfg: ExperimentConfig, out: Path):
    """Train a linear net in the configured mode; write trainlog.csv and Wfinal.mat."""
    mode, lam = _mode(cfg, training.MODES)
    x, y, rep = _read_data(cfg, out)
    optional = {key: getattr(cfg, key) for key in ("loss", "learning_rate", "init_scale")
                if getattr(cfg, key) is not None}
    train_config = training.TrainConfig(mode=mode, epochs=cfg.require("epochs"),
                                        seed=cfg.require("seed"), lam=lam, **optional)
    log = training.train(train_config, cfg.require("hidden"), x, y, rep=rep)
    _write_csv(out / "trainlog.csv", "epoch,objective,w_perp_frob,invariance_ratio,accuracy",
               ((rec.epoch, rec.objective, rec.w_perp_frob, rec.invariance_ratio, rec.accuracy)
                for rec in log.records))
    write_matrix(out / "Wfinal.mat", log.final_w)
    last = log.records[-1]
    print(f"train mode={mode} epochs={len(log.records)} "
          f"final_objective={format_float(last.objective)} "
          f"final_w_perp={format_float(last.w_perp_frob)} "
          f"final_accuracy={format_float(last.accuracy)}")


def ntk_check_cmd(cfg: ExperimentConfig, out: Path):
    """Run the tangent-kernel property suites; write ntk.csv; exit 2 on failure."""
    rows = ntk.property_suites(resolve_group(cfg), cfg.require("width"), cfg.require("trials"),
                               cfg.require("seed"))
    _write_csv(out / "ntk.csv", "suite,trial,discrepancy,tolerance,status",
               (row[:4] + ("pass" if row[4] else "fail",) for row in rows))
    worst: dict[str, float] = {}
    for suite, _, value, _, _ in rows:
        worst[suite] = max(worst.get(suite, 0.0), value)
    failed = {row[0] for row in rows if not row[4]}
    for suite in worst:
        status = "FAIL" if suite in failed else "PASS"
        print(f"ntk suite={suite} max_discrepancy={format_float(worst[suite])} {status}")
    if failed:
        raise NumericalError(f"ntk suites failed: {', '.join(sorted(failed))}")


def compare_cmd(file_a, file_b, tol):
    """Compare two matrix files; exit 0 when equal within --tol, 2 otherwise."""
    if not tol >= 0.0:
        raise InvalidConfig(f"--tol must be a number >= 0, got {tol}")
    a = read_matrix(file_a)
    b = read_matrix(file_b)
    if a.shape != b.shape:
        raise NumericalError(f"shapes differ: {a.shape} vs {b.shape}")
    # scaled by one power of two: the ratio is exact, and no norm overflows from entries of ~1e154
    _, (a, b) = unit_scaled(a, b)
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    distance = 0.0 if denom == 0.0 else float(np.linalg.norm(a - b)) / denom
    ok = distance <= tol
    print(f"compare rel_distance={format_float(distance)} tol={format_float(tol)} "
          f"{'PASS' if ok else 'FAIL'}")
    if not ok:
        raise NumericalError(f"matrices differ: relative distance {distance:.3e} > {tol:.3e}")


def _parser() -> _Parser:
    parser = _Parser(prog="invlowrank", description=__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", metavar="command", required=True)
    add = functools.partial(commands.add_parser, allow_abbrev=False)
    for name, body in (("gen-data", gen_data_cmd), ("solve", solve_cmd), ("path", path_cmd),
                       ("critical-points", critical_points_cmd), ("train", train_cmd),
                       ("ntk-check", ntk_check_cmd)):
        sub = add(name, help=body.__doc__, description=body.__doc__)
        sub.add_argument("--config", required=True, help="Experiment config file.")
        sub.add_argument("--out", default=".", help="Output directory.")
        sub.add_argument("--seed", type=_seed, help="Override the config seed (an integer >= 0).")
        sub.set_defaults(run=functools.partial(_run, body))
    sub = add("compare", help=compare_cmd.__doc__, description=compare_cmd.__doc__)
    sub.add_argument("file_a")
    sub.add_argument("file_b")
    sub.add_argument("--tol", type=float, default=0.0, help="Relative Frobenius tolerance (>= 0).")
    sub.set_defaults(run=lambda args: compare_cmd(args.file_a, args.file_b, args.tol))
    return parser


def entry(argv: list[str] | None = None) -> NoReturn:
    """Console entry point with the documented exit-code contract.

    numpy's floating-point warnings are off: a breakdown they would announce is
    reported by the check that catches it, on one ``error:`` line. An allocation
    the machine refuses exits 1 too: the config asks for more than it grants.
    """
    try:
        args = _parser().parse_args(argv)
        with np.errstate(all="ignore"):
            args.run(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        sys.exit(1)
    except ValueError as exc:
        if not str(exc).startswith(_NUMPY_REFUSALS):
            raise
        print(f"error: cannot allocate: {exc}", file=sys.stderr)
        sys.exit(1)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(0)


if __name__ == "__main__":
    entry()
