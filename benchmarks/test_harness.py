"""Self-test of the benchmark harness at toy size.

    python -m pytest -q benchmarks/test_harness.py

Runs every workload end to end at a toy scale, untraced and traced, checks
that every declared metric is reported with its unit, that the output checks
fire on corrupted artifacts, and that the tracer records a span for every
function the per-layer metrics name.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

ROOT = run.HERE.parent
TOY = run.Scale(group="c4_image:3", dL=3, n=40, r=2, noise_sigma=0.5, hidden=3,
                lam=0.1, grid_points=5, epochs=5, width=256, trials=3)
SEED = 3


@pytest.fixture(scope="module")
def records():
    return {(w, traced): run.run_benchmark(ROOT, w, SEED, 0.0, traced, scale=TOY)
            for w in run.WORKLOADS for traced in (False, True)}


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, run.UNITS[name]) for name in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_every_metric_reported_with_unit(records, workload, traced):
    result = records[(workload, traced)]["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], records[(workload, traced)]["wrong"]
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if traced else [(n, run.UNITS[n]) for n in run.END_TO_END]
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == list(expected)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not traced:
        assert all(result["metrics"][n]["value"] > 0 for n in run.END_TO_END)


def test_traced_run_finds_every_named_function(records):
    seen = set()
    for workload in run.WORKLOADS:
        summary = records[(workload, True)]["trace_summary"]
        seen |= {label for label, rec in summary.items() if rec["calls"] > 0}
    assert set(run._SELF_S) <= seen
    assert set(run._CALLS) <= seen


def test_tracer_rebinds_direct_imports():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import spans\n"
        "t = spans.Tracer(); wrapped = t.install()\n"
        "import invlowrank.training as tr, invlowrank.solvers as so, invlowrank.ntk as nk\n"
        "assert tr.invariance_decomposition is wrapped['solvers.invariance_decomposition']\n"
        "assert so.elements is nk.elements is tr.elements is wrapped['groups.elements']\n"
        "import numpy as np\n"
        "tr.invariance_decomposition(np.eye(2), np.zeros((2, 2)))\n"
        "names = [s[0] for s in t.spans]\n"
        "assert names[0] == 'solvers.invariance_decomposition', names\n"
        "assert 'linalg.left_null_projector' in names, names\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, str(run.HERE)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Toy outputs of every checked command, written by the CLI."""
    base = tmp_path_factory.mktemp("artifacts")
    work = base / "work"
    work.mkdir()
    runner = run.Runner(ROOT, work, time.monotonic() + 600.0, work / "children.log")
    outs = {}
    for workload in run.WORKLOADS:
        confs = run.write_configs(work / workload, workload, TOY)
        if workload in run.NEEDS_DATA:
            runner.cli("gen-data", "--config", str(confs["data"]),
                       "--out", str(work / workload / "setup0"), "--seed", str(SEED))
        for cmd in run.WORKLOADS[workload]:
            out = base / cmd.name
            runner.cli(cmd.verb, "--config", str(confs[cmd.name]), "--out", str(out),
                       "--seed", str(SEED))
            assert cmd.check(out, TOY) is None
            outs[cmd.name] = out
    return outs, runner


def _rewrite_csv(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    rows = edit(rows)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def _corrupted(src: Path, tmp_path: Path, name: str, edit) -> Path:
    dst = tmp_path / src.name
    shutil.copytree(src, dst)
    _rewrite_csv(dst / name, edit)
    return dst


def _set(row_index: int, col: int, value: str):
    def edit(rows):
        rows[row_index][col] = value
        return rows
    return edit


@pytest.mark.parametrize("command, name, edit", [
    ("path", "path.csv", lambda rows: rows[::-1]),
    ("path", "path.csv", lambda rows: rows[:-1]),
    ("critical_points_constrained", "critical.csv", lambda rows: rows[:-1]),
    ("critical_points_constrained", "critical.csv", _set(0, 2, "false")),
    ("critical_points_augmented", "critical.csv", _set(1, 2, "true")),
    ("train_augmented", "trainlog.csv", _set(2, 1, "nan")),
    ("train_regularized", "trainlog.csv", lambda rows: rows[:-1]),
    ("train_hardwired", "trainlog.csv", _set(-1, 2, "1e-3")),
    ("ntk_check", "ntk.csv", lambda rows: rows[:-1]),
    ("ntk_check", "ntk.csv", _set(0, 4, "fail")),
])
def test_checks_fire_on_corrupted_artifacts(artifacts, tmp_path, command, name, edit):
    outs, _ = artifacts
    cmd = next(c for cs in run.WORKLOADS.values() for c in cs if c.name == command)
    assert cmd.check(_corrupted(outs[command], tmp_path, name, edit), TOY) is not None


def test_corrupted_solution_fails_compare(artifacts, tmp_path):
    outs, runner = artifacts
    for name in ("solve_constrained", "solve_augmented"):
        shutil.copytree(outs[name], tmp_path / name)
    w = tmp_path / "solve_augmented" / "W.mat"
    lines = w.read_text().splitlines()
    lines[1] = " ".join(["1"] * len(lines[1].split()))
    w.write_text("\n".join(lines) + "\n")
    tally = run.Tally(attempted=2)
    run.compare_solutions(runner, tmp_path, tally)
    assert tally.failed == 1 and tally.wrong


def test_changed_artifacts_between_repeats_fail(artifacts):
    outs, runner = artifacts
    confs = {"ntk_check": run.write_configs(runner.work / "repeat", "ntk_check", TOY)["ntk_check"]}
    tally = run.Tally()
    run.run_pass(runner, "ntk_check", SEED, confs, TOY, runner.work / "repeat-out", tally,
                 "repeat1", reference={"ntk_check": {"ntk.csv": "0" * 64}})
    assert tally.failed == 1 and "differ" in tally.wrong[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
