"""Paper-scale benchmark of the invlowrank CLI.

Usage, from the repository root:

    python3 benchmarks/run.py --workload closed_form --seed 1 --seconds 30 --trace 0

Each workload runs its CLI commands one after another, each as its own
``python -m invlowrank.cli`` process with ``src`` on the path (a closed loop
with one client), repeating the command set for ``--seconds`` seconds. Every
command's outputs are checked. The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics (medians over the repeats), with
``--trace 1`` the per-layer metrics of one traced pass (see ``spans.py``).
Full records go to ``.bench/results/``. See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

# One BLAS thread per child: output bytes depend on the thread count, so it
# is fixed, and on a shared 2-core machine two threads make the 196x196
# LAPACK calls slower and add a cold-start stall to set-up.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
# every run must end within 180 s; children are killed past this deadline
RUN_DEADLINE_S = 170.0
COMPARE_TOL = 1e-8
# hardwired training keeps W_perp at rounding level relative to ||W||_F
W_PERP_REL = 1e-12


@dataclass(frozen=True)
class Scale:
    """Shared data config of every workload, plus per-command sizes."""

    group: str
    dL: int
    n: int
    r: int
    noise_sigma: float
    hidden: int
    lam: float
    grid_points: int
    epochs: int
    width: int
    trials: int


PAPER = Scale(group="c4_image:14", dL=10, n=1000, r=5, noise_sigma=0.5, hidden=10,
              lam=0.1, grid_points=100, epochs=300, width=65536, trials=50)


# ---------------------------------------------------------------- checks
# Each check returns None when the command's outputs are right, else a reason.

def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def _matrix(path: Path) -> list[list[float]]:
    lines = path.read_text().splitlines()
    rows, cols = (int(v) for v in lines[0].split())
    body = [[float(v) for v in line.split()] for line in lines[1:]]
    if len(body) != rows or any(len(row) != cols for row in body):
        raise ValueError(f"{path.name}: shape does not match its header")
    return body


def check_solve(out: Path, scale: Scale) -> str | None:
    w = _matrix(out / "W.mat")
    if len(w) != scale.dL or not all(math.isfinite(v) for row in w for v in row):
        return "W.mat is not a finite dL-row matrix"
    return None


def check_path(out: Path, scale: Scale) -> str | None:
    rows = _csv_rows(out / "path.csv")
    if len(rows) != scale.grid_points:
        return f"path.csv has {len(rows)} rows, expected {scale.grid_points}"
    first, last = float(rows[0][3]), float(rows[-1][3])
    if not last < first:
        return f"distance_to_inv did not shrink along the path: {first} -> {last}"
    return None


def check_critical(out: Path, scale: Scale) -> str | None:
    rows = _csv_rows(out / "critical.csv")
    expected = math.comb(scale.dL, scale.r)
    if len(rows) != expected:
        return f"critical.csv has {len(rows)} rows, expected C({scale.dL},{scale.r}) = {expected}"
    flags = [row[2] for row in rows]
    if flags.count("true") != 1 or flags[0] != "true":
        return "critical.csv must flag exactly one global minimum, on the first row"
    return None


def check_trainlog(out: Path, scale: Scale, hardwired: bool) -> str | None:
    rows = _csv_rows(out / "trainlog.csv")
    if len(rows) != scale.epochs:
        return f"trainlog.csv has {len(rows)} rows, expected {scale.epochs}"
    if not all(math.isfinite(float(v)) for row in rows for v in row):
        return "trainlog.csv has a non-finite entry"
    if hardwired:
        w_norm = math.sqrt(sum(v * v for row in _matrix(out / "Wfinal.mat") for v in row))
        w_perp = float(rows[-1][2])
        if w_perp > W_PERP_REL * max(1.0, w_norm):
            return f"hardwired final w_perp_frob {w_perp:.3e} is above rounding level"
    return None


def check_ntk(out: Path, scale: Scale) -> str | None:
    rows = _csv_rows(out / "ntk.csv")
    expected = 3 * scale.trials + 20
    if len(rows) != expected:
        return f"ntk.csv has {len(rows)} rows, expected 3*trials+20 = {expected}"
    # the Monte-Carlo suite is statistical and counted separately; the other
    # suites are exact identities and must always pass
    exact_fails = [row for row in rows if row[0] != "monte_carlo" and row[4] != "pass"]
    if exact_fails:
        return f"{len(exact_fails)} exact-identity ntk rows failed"
    return None


def monte_carlo_fail_trials(out: Path) -> int:
    path = out / "ntk.csv"
    if not path.is_file():
        return 0
    return sum(1 for row in _csv_rows(path) if row[0] == "monte_carlo" and row[4] == "fail")


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Command:
    """One timed CLI command: its name, metric, config extras and output check."""

    name: str
    metric: str
    verb: str
    extras: dict
    check: Callable[[Path, Scale], str | None]


def _solve_modes(verb: str, metric: str, check) -> list[Command]:
    return [Command(f"{metric[:-2]}_{mode}", metric, verb, {"mode": mode}, check)
            for mode in ("constrained", "regularized", "augmented")]


def _train(mode: str) -> Command:
    return Command(f"train_{mode}", f"train_{mode}_s", "train", {"mode": mode},
                   lambda out, scale: check_trainlog(out, scale, mode == "hardwired"))


WORKLOADS: dict[str, list[Command]] = {
    "closed_form": (
        _solve_modes("solve", "solve_s", check_solve)
        + [Command("path", "path_s", "path", {}, check_path)]
        + _solve_modes("critical-points", "critical_points_s", check_critical)
    ),
    "train": [_train(mode) for mode in ("augmented", "hardwired", "regularized")],
    "ntk_check": [Command("ntk_check", "ntk_check_s", "ntk-check", {}, check_ntk)],
}
# workloads whose commands read X.mat / Y.mat written by gen-data in set-up
NEEDS_DATA = {"closed_form", "train"}

END_TO_END = ("setup_s", "total_s", "peak_rss_mb")
COMMAND_METRICS = ("solve_s", "path_s", "critical_points_s", "train_augmented_s",
                   "train_hardwired_s", "train_regularized_s", "ntk_check_s")

# per-layer metrics: (name, unit); self seconds and call counts come from the
# traced pass, command times from the untraced pass of the same run
_SELF_S = (
    "cli.entry", "config.load_config", "config.resolve_group",
    "datagen.generate_dataset", "datagen.write_dataset",
    "matio.read_matrix", "matio.write_matrix",
    "groups.c4_image_rotation", "groups.rep_from_generator", "groups.elements",
    "groups.group_average", "groups.invariance_constraint", "groups.invariant_basis",
    "groups.is_unitary",
    "linalg.svd", "linalg.singular_values", "linalg.numerical_rank", "linalg.pinv",
    "linalg.left_null_projector", "linalg.pd_inv_sqrt",
    "solvers.RegressionProblem", "solvers.solve_constrained", "solvers.solve_regularized",
    "solvers.solve_augmented", "solvers.regularization_path",
    "solvers.enumerate_critical_points", "solvers.empirical_risk", "solvers.augmented_risk",
    "solvers.invariance_decomposition",
    "training.train", "training.gradient", "training.adam_step", "training.mse_objective",
    "training.augment_dataset", "training.end_to_end",
    "ntk.empirical_ntk", "ntk.empirical_ntk_terms", "ntk.sample_width_set",
    "ntk.relu_limiting_ntk", "ntk.build_kernel_matrix", "ntk.kernel_predict",
    "ntk.kernel_interpolate", "ntk.conv_empirical_ntk", "ntk.augmented_kernel",
    "ntk.orbit_symmetrize",
)
_CALLS = (
    "cli.entry", "matio.read_matrix", "matio.write_matrix", "groups.elements",
    "linalg.svd", "linalg.numerical_rank", "linalg.left_null_projector", "linalg.pd_inv_sqrt",
    "solvers.RegressionProblem", "solvers.empirical_risk", "solvers.invariance_decomposition",
    "training.gradient", "ntk.empirical_ntk", "ntk.relu_limiting_ntk",
)
_DISTINCT = ("linalg.svd", "linalg.pd_inv_sqrt", "linalg.left_null_projector")
PER_LAYER: tuple[tuple[str, str], ...] = (
    tuple((m, "s") for m in COMMAND_METRICS)
    + (("cli.import.s", "s"),)
    + tuple((f"{fn}.s", "s") for fn in _SELF_S)
    + tuple((f"{fn}.calls", "count") for fn in _CALLS)
    + tuple((f"{fn}.distinct_frac", "ratio") for fn in _DISTINCT)
    + (("matio.read_matrix.bytes", "B"), ("matio.write_matrix.bytes", "B"),
       ("ntk.empirical_ntk.bytes_computed", "B"),
       ("ntk.monte_carlo.fail_trials", "count"),
       ("trace.probe.s", "s"), ("trace.overhead_s", "s"))
)
UNITS = {"setup_s": "s", "total_s": "s", "peak_rss_mb": "MB", **dict(PER_LAYER)}


# ---------------------------------------------------------------- processes

@dataclass
class Outcome:
    """One finished child process."""

    seconds: float
    cpu_seconds: float
    exit_code: int
    max_rss_kb: int


class Runner:
    """Starts children one at a time, times them and reads their peak RSS."""

    def __init__(self, root: Path, work: Path, deadline: float, log: Path):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + os.environ["PYTHONPATH"]
                                        if os.environ.get("PYTHONPATH") else "")
        for var in THREAD_VARS:
            self.env[var] = str(BLAS_THREADS)
        self.log = log  # every child's argv, stdout and stderr

    def run(self, argv: list[str]) -> Outcome:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run deadline passed before a command could start")
        with open(self.log, "ab") as log:
            log.write(("$ " + " ".join(argv) + "\n").encode())
            log.flush()
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=log, stderr=log)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(seconds, usage.ru_utime + usage.ru_stime, proc.returncode, usage.ru_maxrss)

    def cli(self, *args: str) -> Outcome:
        return self.run([sys.executable, "-m", "invlowrank.cli", *args])


def digest_dir(path: Path) -> dict[str, str]:
    if not path.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


# ---------------------------------------------------------------- the run

@dataclass
class Tally:
    """Commands attempted and failed, and the reasons."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)   # output checks that failed
    errors: list[str] = field(default_factory=list)  # non-zero exits

    def record(self, label: str, outcome: Outcome, problem: str | None) -> bool:
        self.attempted += 1
        ok = outcome.exit_code == 0 and problem is None
        if outcome.exit_code != 0:
            self.errors.append(f"{label}: exit {outcome.exit_code}")
        if problem is not None:
            self.wrong.append(f"{label}: {problem}")
        if not ok:
            self.failed += 1
        return ok


def write_configs(work: Path, workload: str, scale: Scale) -> dict[str, Path]:
    """One config file per command, plus ``data`` for gen-data."""
    conf = work / "conf"
    conf.mkdir(parents=True)
    data = {"group": scale.group, "dL": scale.dL, "n": scale.n, "noise_sigma": scale.noise_sigma}
    solve = {**data, "r": scale.r, "lambda": scale.lam, "hidden": scale.hidden,
             "epochs": scale.epochs, "lambda_grid": f"geom:1e-3:1e6:{scale.grid_points}",
             "x_file": "../setup0/X.mat", "y_file": "../setup0/Y.mat"}
    ntk = {"group": scale.group, "width": scale.width, "trials": scale.trials}
    paths = {}
    for name, keys in [("data", data)] + [
            (c.name, {**(ntk if workload == "ntk_check" else solve), **c.extras})
            for c in WORKLOADS[workload]]:
        paths[name] = conf / f"{name}.conf"
        paths[name].write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return paths


def setup(runner: Runner, workload: str, seed: int, confs, repeats: int,
          tally: Tally) -> list[float]:
    """Fresh-interpreter import plus gen-data (import alone for ntk_check)."""
    times, digests = [], []
    for k in range(repeats):
        out = runner.work / f"setup{k}"
        if workload in NEEDS_DATA:
            outcome = runner.cli("gen-data", "--config", str(confs["data"]),
                                 "--out", str(out), "--seed", str(seed))
        else:
            outcome = runner.run([sys.executable, "-c", "import invlowrank.cli"])
        digests.append(digest_dir(out))
        problem = None if digests[k] == digests[0] else "gen-data bytes differ between set-ups"
        if not tally.record(f"setup{k}", outcome, problem) and k == 0:
            raise RuntimeError(f"set-up failed: exit {outcome.exit_code}, see {runner.log}")
        times.append(outcome.seconds)
    return times


def run_pass(runner: Runner, workload: str, seed: int, confs, scale: Scale, out_root: Path,
             tally: Tally, label: str, reference: dict | None) -> tuple[dict, dict, list[Outcome]]:
    """Run every command of the workload once; returns times, digests, outcomes.

    Commands that failed are left out of the digests.
    """
    times: dict[str, float] = {}
    digests: dict[str, dict] = {}
    outcomes = []
    for cmd in WORKLOADS[workload]:
        out = out_root / cmd.name
        outcome = runner.cli(cmd.verb, "--config", str(confs[cmd.name]),
                             "--out", str(out), "--seed", str(seed))
        digests[cmd.name] = digest_dir(out)
        try:
            problem = cmd.check(out, scale)
        except (OSError, ValueError, IndexError) as exc:
            problem = f"unreadable output: {exc}"
        if (problem is None and reference is not None
                and digests[cmd.name] != reference.get(cmd.name, digests[cmd.name])):
            problem = "artifacts differ from the first repeat"
        if not tally.record(f"{label}/{cmd.name}", outcome, problem):
            del digests[cmd.name]
        times[cmd.name] = outcome.seconds
        outcomes.append(outcome)
    return times, digests, outcomes


def compare_solutions(runner: Runner, out_root: Path, tally: Tally) -> None:
    """The paper's identity: augmented and constrained optima agree (untimed).

    A mismatch is a wrong answer of solve_augmented, so it turns that command
    (already counted as attempted and passed) into a failed one.
    """
    outcome = runner.cli("compare", str(out_root / "solve_constrained" / "W.mat"),
                         str(out_root / "solve_augmented" / "W.mat"), "--tol", str(COMPARE_TOL))
    if outcome.exit_code != 0:
        tally.failed += 1
        tally.wrong.append(f"solve_augmented: compare --tol {COMPARE_TOL} exit {outcome.exit_code}")


def metric_sums(workload: str, times: dict[str, float]) -> dict[str, float]:
    sums: dict[str, float] = {"total_s": sum(times.values())}
    for cmd in WORKLOADS[workload]:
        sums[cmd.metric] = sums.get(cmd.metric, 0.0) + times[cmd.name]
    return sums


def measure(runner: Runner, workload: str, seed: int, seconds: float, scale: Scale,
            confs, tally: Tally, record: dict) -> dict[str, float]:
    setup_times = setup(runner, workload, seed, confs, SETUP_REPEATS, tally)
    repeats, outcomes, reference = [], [], None
    started = time.monotonic()
    while True:
        times, digests, outs = run_pass(runner, workload, seed, confs, scale,
                                        runner.work / "out", tally, f"repeat{len(repeats)}",
                                        reference)
        if reference is None:
            reference = digests
            if {"solve_constrained", "solve_augmented"} <= digests.keys():
                compare_solutions(runner, runner.work / "out", tally)
        repeats.append(metric_sums(workload, times))
        repeats[-1]["cpu_s"] = sum(o.cpu_seconds for o in outs)
        outcomes += outs
        spent = time.monotonic() - started
        next_end = spent * (len(repeats) + 1) / len(repeats)
        if next_end > seconds or started + next_end > runner.deadline - 10.0:
            break
    record["setup_times"] = setup_times
    record["repeats"] = repeats
    record["fail_trials"] = monte_carlo_fail_trials(runner.work / "out" / "ntk_check")
    metrics = {name: statistics.median(r[name] for r in repeats) for name in repeats[0]}
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mb"] = max(o.max_rss_kb for o in outcomes) / 1024.0
    return metrics


def trace(runner: Runner, workload: str, seed: int, scale: Scale, confs, tally: Tally,
          record: dict, spans_dir: Path) -> dict[str, float]:
    """One untraced pass, then the same commands in-process under the tracer."""
    setup(runner, workload, seed, confs, 1, tally)
    plain, reference, _ = run_pass(runner, workload, seed, confs, scale,
                                   runner.work / "out", tally, "untraced", None)
    spans_dir.mkdir(parents=True, exist_ok=True)
    jobs = [(c.name, c.verb, confs[c.name]) for c in WORKLOADS[workload]]
    if workload in NEEDS_DATA:
        jobs.insert(0, ("gen_data", "gen-data", confs["data"]))
    summaries, traced, import_s = [], {}, []
    for name, verb, conf in jobs:
        out = runner.work / "traced" / name
        span_file = spans_dir / f"{name}.json"
        outcome = runner.run([sys.executable, str(HERE / "spans.py"), str(span_file), "--",
                              verb, "--config", str(conf), "--out", str(out), "--seed", str(seed)])
        expected = digest_dir(runner.work / "setup0") if name == "gen_data" else reference.get(name)
        problem = None if digest_dir(out) == expected else "traced artifacts differ from untraced"
        tally.record(f"traced/{name}", outcome, problem)
        if span_file.is_file():
            data = json.loads(span_file.read_text())
            summaries.append(data["summary"])
            import_s.append(data["import_s"])
        if name != "gen_data":
            traced[name] = outcome.seconds
    merged: dict[str, dict] = {}
    for summary in summaries:
        for label, rec in summary.items():
            into = merged.setdefault(label, {})
            for key, value in rec.items():
                into[key] = into.get(key, 0) + value
    record["trace_summary"] = merged
    record["untraced_times"] = plain
    record["traced_times"] = traced

    metrics = {m: 0.0 for m in COMMAND_METRICS}
    metrics.update(metric_sums(workload, plain))
    del metrics["total_s"]
    metrics["cli.import.s"] = statistics.median(import_s) if import_s else 0.0
    for fn in _SELF_S:
        metrics[f"{fn}.s"] = merged.get(fn, {}).get("self_s", 0.0)
    for fn in _CALLS:
        metrics[f"{fn}.calls"] = merged.get(fn, {}).get("calls", 0)
    for fn in _DISTINCT:
        rec = merged.get(fn, {})
        metrics[f"{fn}.distinct_frac"] = rec["distinct"] / rec["calls"] if rec else 0.0
    for fn, kind in (("matio.read_matrix", "bytes"), ("matio.write_matrix", "bytes"),
                     ("ntk.empirical_ntk", "bytes_computed")):
        metrics[f"{fn}.{kind}"] = merged.get(fn, {}).get(kind, 0)
    metrics["ntk.monte_carlo.fail_trials"] = monte_carlo_fail_trials(
        runner.work / "out" / "ntk_check")
    metrics["trace.probe.s"] = merged.get("trace.probe", {}).get("total_s", 0.0)
    metrics["trace.overhead_s"] = sum(traced.values()) - sum(plain.values())
    return metrics


def environment(root: Path, seed: int) -> dict:
    import numpy as np
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k)
                 for k in ("name", "version", "openblas configuration")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "child_thread_env": {var: str(BLAS_THREADS) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "loadavg_at_start": os.getloadavg(),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def run_benchmark(root: Path, workload: str, seed: int, seconds: float, traced: bool,
                  scale: Scale = PAPER) -> dict:
    """Run one workload; returns the full record (``result`` is the printed line)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    tag = f"{workload}-seed{seed}-trace{int(traced)}"
    results = root / ".bench" / "results"
    work = root / ".bench" / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
                    "scale": scale.__dict__, "env": environment(root, seed)}
    tally = Tally()
    try:
        log = results / f"{tag}.log"
        log.write_bytes(b"")
        runner = Runner(root, work, deadline, log)
        confs = write_configs(work, workload, scale)
        if traced:
            metrics = trace(runner, workload, seed, scale, confs, tally, record,
                            results / f"{tag}-spans")
            names = [name for name, _ in PER_LAYER]
        else:
            metrics = measure(runner, workload, seed, seconds, scale, confs, tally, record)
            names = list(END_TO_END)
            record["command_metrics"] = {m: metrics[m] for m in metrics if m not in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["failed_frac"] = tally.failed / tally.attempted
    record["wrong"] = tally.wrong
    record["errors"] = tally.errors
    record["result"] = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in names},
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    """Human-readable lines, then the result JSON as the last line."""
    print(f"workload={record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"repeats={len(record.get('repeats', [])) or 1} blas_threads={BLAS_THREADS}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    result = record["result"]
    shown = dict(result["metrics"])
    for name, value in record.get("command_metrics", {}).items():
        shown[name] = {"value": value, "unit": "s"}
    for name, m in shown.items():
        value = m["value"]
        print(f"{name} = {value if isinstance(value, int) else format(value, '.6g')} {m['unit']}")
    print(f"failed_frac = {record['failed_frac']:.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    for line in record["wrong"] + record["errors"]:
        print(f"failure: {line}")
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "invlowrank" / "cli.py").is_file():
        print(f"error: no invlowrank sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        record = run_benchmark(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
