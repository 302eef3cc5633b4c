"""End-to-end CLI behavior and the exit-code contract."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from invlowrank import matio
from invlowrank import tolerances as tol
from invlowrank.cli import entry
from invlowrank.config import load_config, resolve_group
from invlowrank.matio import read_matrix, write_matrix
from invlowrank.solvers import RegressionProblem, enumerate_critical_points, regularization_path
from invlowrank.training import TrainConfig, train

from helpers import STANDARD_INSTANCE


def run_cli(args, capsys):
    with pytest.raises(SystemExit) as excinfo:
        entry(list(args))
    captured = capsys.readouterr()
    return excinfo.value.code, captured.out, captured.err


def write_config(path, **kv):
    lines = [f"{key} = {value}" for key, value in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


BASE = dict(group="c4_image:4", dL=4, n=64, noise_sigma=0.5, seed=1, r=3)


def test_gen_data_writes_and_is_reproducible(tmp_path, capsys):
    conf = write_config(tmp_path / "exp.conf", **BASE)
    code, out, _ = run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 0
    first = {name: (tmp_path / name).read_bytes() for name in ("X.mat", "Y.mat", "Wtrue.mat")}
    code, _, _ = run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 0
    for name, blob in first.items():
        assert (tmp_path / name).read_bytes() == blob
    x = read_matrix(tmp_path / "X.mat")
    assert x.shape == (16, 64)


def test_gen_data_noiseless_recovery(tmp_path, capsys):
    conf = write_config(tmp_path / "exp.conf", group="c4_image:3", dL=3, n=30,
                        noise_sigma=0.0, seed=4, r=3, mode="constrained",
                        invariant_wtrue="true")
    code, _, _ = run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 0
    code, out, _ = run_cli(["solve", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 0
    w = read_matrix(tmp_path / "W.mat")
    w_true = read_matrix(tmp_path / "Wtrue.mat")
    assert np.linalg.norm(w - w_true) / np.linalg.norm(w_true) < 1e-8


def test_solve_constrained_summary_and_invariance(tmp_path, capsys):
    conf = write_config(tmp_path / "exp.conf", mode="constrained", **BASE)
    run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    code, out, _ = run_cli(["solve", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 0
    fields = dict(part.split("=", 1) for part in out.split())
    assert fields["mode"] == "constrained"
    assert float(fields["invariance_residual"]) < 1e-9
    assert (tmp_path / "W.mat").is_file()


def test_solve_augmented_equals_constrained_via_compare(tmp_path, capsys):
    conf_c = write_config(tmp_path / "c.conf", mode="constrained", **BASE)
    run_cli(["gen-data", "--config", conf_c, "--out", str(tmp_path)], capsys)
    run_cli(["solve", "--config", conf_c, "--out", str(tmp_path)], capsys)
    (tmp_path / "W.mat").rename(tmp_path / "W_constrained.mat")
    conf_a = write_config(tmp_path / "a.conf", mode="augmented", **BASE)
    code, _, _ = run_cli(["solve", "--config", conf_a, "--out", str(tmp_path)], capsys)
    assert code == 0
    code, out, _ = run_cli(
        ["compare", str(tmp_path / "W.mat"), str(tmp_path / "W_constrained.mat"),
         "--tol", "1e-8"], capsys)
    assert code == 0
    assert "PASS" in out


def test_solve_missing_input_names_file(tmp_path, capsys):
    conf = write_config(tmp_path / "exp.conf", mode="constrained", **BASE)
    code, _, err = run_cli(["solve", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "X.mat" in err


def test_unknown_config_key_rejected(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text("group = c4_image:2\nwat = 7\n")
    code, _, err = run_cli(["gen-data", "--config", str(conf), "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "wat" in err


def test_repeated_config_key_exit_1(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text("group = c4_image:2\nseed = 1\ndL = 2\nn = 9\nseed = 2\n")
    code, _, err = run_cli(["gen-data", "--config", str(conf), "--out", str(tmp_path)], capsys)
    assert_config_error(code, err, "line 5: key seed is already set on line 2")
    assert not (tmp_path / "X.mat").exists()


@pytest.mark.parametrize("command, keys", [("solve", dict(mode="constrained")),
                                           ("train", dict(mode="hardwired", hidden=3, epochs=2))])
def test_data_rows_not_the_group_dimension_exit_1(tmp_path, capsys, command, keys):
    gen_data(tmp_path, capsys)
    conf = write_config(tmp_path / "exp.conf", **{**BASE, "group": "c4_image:3", **keys})
    code, _, err = run_cli([command, "--config", conf, "--out", str(tmp_path)], capsys)
    assert_config_error(code, err, "lacks the 9 rows the group acts on")


def test_gen_data_rejects_small_n(tmp_path, capsys):
    conf = write_config(tmp_path / "exp.conf", group="c4_image:4", dL=4, n=8, seed=0)
    code, _, err = run_cli(["gen-data", "--config", str(conf), "--out", str(tmp_path)], capsys)
    assert code == 1


def test_path_csv_shape_and_limits(tmp_path, capsys):
    conf = write_config(tmp_path / "exp.conf", lambda_grid="geom:1e-3:1e6:19", **BASE)
    run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    code, _, _ = run_cli(["path", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 0
    lines = (tmp_path / "path.csv").read_text().splitlines()
    assert lines[0] == "lambda,loss,invariance_residual,distance_to_inv"
    assert len(lines) == 20
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(last[3]) < float(first[3])
    lams = [float(line.split(",")[0]) for line in lines[1:]]
    assert lams == sorted(lams)


def test_gen_data_whitened_target_has_full_expected_rank(tmp_path, capsys):
    # with continuous noise the projected whitened target has rank min(d, dL)
    from invlowrank.config import parse_config_text
    from invlowrank.datagen import generate_dataset
    from invlowrank import groups, linalg

    cfg = parse_config_text(
        "group = custom:cycle8.mat+4\ndL = 5\nn = 40\nnoise_sigma = 0.5\n"
        "invariant_wtrue = false\n", base_dir=tmp_path)
    gen = np.eye(8)
    gen[:4, :4] = np.roll(np.eye(4), 1, axis=0)
    write_matrix(tmp_path / "cycle8.mat", gen)
    for seed in range(20):
        x, y, _, rep = generate_dataset(cfg, seed=seed)
        g = groups.invariance_constraint(rep)
        p_inv = linalg.pd_inv_sqrt(x @ x.T)
        zbar = y @ x.T @ p_inv @ linalg.left_null_projector(p_inv @ g.entries)
        assert linalg.numerical_rank(zbar) == min(g.nullity, 5)


def test_solve_rerun_byte_identical(tmp_path, capsys):
    conf = write_config(tmp_path / "exp.conf", mode="augmented", **BASE)
    run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    run_cli(["solve", "--config", conf, "--out", str(tmp_path)], capsys)
    first = (tmp_path / "W.mat").read_bytes()
    run_cli(["solve", "--config", conf, "--out", str(tmp_path)], capsys)
    assert (tmp_path / "W.mat").read_bytes() == first


def test_solve_cold_and_warm_matrix_cache_byte_identical(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "xdg" / "invlowrank"
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    data = tmp_path / "data"
    conf = write_config(tmp_path / "exp.conf", mode="constrained", **BASE)
    run_cli(["gen-data", "--config", conf, "--out", str(data)], capsys)
    runs, parses = [], []
    for _ in range(2):
        code, out, _ = run_cli(["solve", "--config", conf, "--out", str(data)], capsys)
        assert code == 0
        runs.append((out, (data / "W.mat").read_bytes()))
        assert len(list(cache.iterdir())) == 2  # X.mat and Y.mat, stored by the cold run
        monkeypatch.setattr(matio, "_parse", lambda *args: parses.append(args))
    assert runs[0] == runs[1]
    assert parses == []


def test_csv_hygiene(tmp_path, capsys):
    conf = write_config(tmp_path / "exp.conf", lambda_grid="geom:1e-2:1e4:7", **BASE)
    run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    run_cli(["path", "--config", conf, "--out", str(tmp_path)], capsys)
    raw = (tmp_path / "path.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    for line in raw.decode().splitlines():
        assert not line.endswith(",")
        assert line.count(",") == 3


def _csv_fields(path):
    """The header and the rows of a CSV output, after its byte-level hygiene checks."""
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    header, *rows = raw.decode().split("\n")[:-1]
    for line in rows:
        assert not line.endswith(",")
        assert line.count(",") == header.count(",")
    return header, [line.split(",") for line in rows]


def _assert_fields(rows, expected):
    """Each float field parses back bit-equal to the in-process value; others print as str."""
    assert len(rows) == len(expected)
    for row, values in zip(rows, expected):
        assert len(row) == len(values)
        for text, value in zip(row, values):
            if isinstance(value, float):
                assert float(text).hex() == float(value).hex(), (text, value)
            else:
                assert text == str(value)


def test_every_csv_is_well_formed_and_round_trips(tmp_path, capsys):
    conf = write_config(tmp_path / "exp.conf", mode="regularized", hidden=3, epochs=20,
                        lambda_grid="geom:1e-2:1e4:7", **{**BASE, "lambda": 0.1})
    run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    for command in ("path", "critical-points", "train"):
        code, _, _ = run_cli([command, "--config", conf, "--out", str(tmp_path)], capsys)
        assert code == 0
    ntk_conf = write_config(tmp_path / "ntk.conf", **NTK)
    code, _, _ = run_cli(["ntk-check", "--config", ntk_conf, "--out", str(tmp_path)], capsys)
    assert code == 0

    cfg = load_config(conf)
    x, y, rep = read_matrix(tmp_path / "X.mat"), read_matrix(tmp_path / "Y.mat"), resolve_group(cfg)
    samples = regularization_path(RegressionProblem(x=x, y=y, r=cfg.r, rep=rep), cfg.lambda_grid)
    points = enumerate_critical_points(
        RegressionProblem(x=x, y=y, r=cfg.r, rep=rep, lam=cfg.lam), "regularized")
    log = train(TrainConfig(mode="regularized", epochs=cfg.epochs, seed=cfg.seed, lam=cfg.lam),
                cfg.hidden, x, y, rep=rep)
    expected = {
        "path.csv": [(s.lam, s.loss, s.invariance_residual, s.distance_to_inv) for s in samples],
        "critical.csv": [("|".join(map(str, p.index_set)), p.loss,
                          "true" if p.is_global_min else "false") for p in points],
        "trainlog.csv": [(r.epoch, r.objective, r.w_perp_frob, r.invariance_ratio, r.accuracy)
                         for r in log.records],
    }
    for name, values in expected.items():
        _, rows = _csv_fields(tmp_path / name)
        _assert_fields(rows, values)
    header, rows = _csv_fields(tmp_path / "ntk.csv")
    assert header == "suite,trial,discrepancy,tolerance,status"
    assert rows and {row[4] for row in rows} == {"pass"}


def test_path_rejects_nonpositive_grid(tmp_path, capsys):
    conf = write_config(tmp_path / "exp.conf", lambda_grid="0,1.0", **BASE)
    run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    code, _, _ = run_cli(["path", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 1


def test_critical_points_csv(tmp_path, capsys):
    conf = write_config(tmp_path / "exp.conf", mode="constrained",
                        group="c4_image:4", dL=5, n=48, noise_sigma=0.5, seed=2, r=2)
    run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    code, _, _ = run_cli(["critical-points", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 0
    lines = (tmp_path / "critical.csv").read_text().splitlines()
    assert lines[0] == "index_set,loss,is_global_min"
    assert len(lines) == 1 + 6  # binom(4, 2)
    assert sum(line.endswith(",true") for line in lines[1:]) == 1
    assert lines[1].endswith(",true")
    losses = [float(line.split(",")[1]) for line in lines[1:]]
    assert losses == sorted(losses)


def test_critical_points_rank_zero_single_row(tmp_path, capsys):
    conf = write_config(tmp_path / "exp.conf", mode="constrained",
                        group="c4_image:4", dL=4, n=64, noise_sigma=0.5, seed=1, r=0)
    run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    code, _, _ = run_cli(["critical-points", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 0
    lines = (tmp_path / "critical.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("-,")


def test_critical_points_degenerate_spectrum_exit_2(tmp_path, capsys):
    write_matrix(tmp_path / "X.mat", np.eye(4))
    write_matrix(tmp_path / "Y.mat", np.diag([3.0, 3.0, 1.0, 0.5]))
    conf = write_config(tmp_path / "exp.conf", mode="regularized", group="cyclic_perm:4",
                        r=1, seed=0, **{"lambda": 0.0})
    code, _, err = run_cli(["critical-points", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 2


def test_train_csv_and_solver_agreement(tmp_path, capsys):
    base = dict(BASE)
    conf = write_config(tmp_path / "exp.conf", mode="augmented", hidden=3, epochs=600,
                        learning_rate=0.001, loss="mse", **base)
    run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    code, out, _ = run_cli(["train", "--config", conf, "--seed", "7",
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    lines = (tmp_path / "trainlog.csv").read_text().splitlines()
    assert lines[0] == "epoch,objective,w_perp_frob,invariance_ratio,accuracy"
    assert len(lines) == 601
    assert (tmp_path / "Wfinal.mat").is_file()


def test_train_single_epoch_single_row(tmp_path, capsys):
    conf = write_config(tmp_path / "exp.conf", mode="hardwired", hidden=3, epochs=1,
                        learning_rate=0.001, **BASE)
    run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    code, _, _ = run_cli(["train", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 0
    lines = (tmp_path / "trainlog.csv").read_text().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[2]) <= 1e-12  # hardwired w_perp


def test_train_divergence_exit_2(tmp_path, capsys):
    conf = write_config(tmp_path / "exp.conf", mode="augmented", hidden=3, epochs=4000,
                        learning_rate=2e5, **BASE)
    run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    code, _, _ = run_cli(["train", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 2


def test_ntk_check_small_width_passes(tmp_path, capsys):
    conf = write_config(tmp_path / "ntk.conf", group="c4_image:2", width=4096,
                        trials=10, seed=3)
    code, out, _ = run_cli(["ntk-check", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 0
    lines = (tmp_path / "ntk.csv").read_text().splitlines()
    assert lines[0] == "suite,trial,discrepancy,tolerance,status"
    suites = {line.split(",")[0] for line in lines[1:]}
    assert suites == {"equivariance", "monte_carlo", "orbit_symmetrized",
                      "augmented_predictor"}
    assert all(line.endswith(",pass") for line in lines[1:])


def test_ntk_check_monte_carlo_bound_reads_tolerances(tmp_path, capsys, monkeypatch):
    conf = write_config(tmp_path / "ntk.conf", group="c4_image:2", width=256, trials=3, seed=1)

    def monte_carlo_bounds(out):
        run_cli(["ntk-check", "--config", conf, "--out", str(out)], capsys)
        rows = [line.split(",") for line in (out / "ntk.csv").read_text().splitlines()[1:]]
        return [float(row[3]) for row in rows if row[0] == "monte_carlo"]

    base = monte_carlo_bounds(tmp_path / "base")
    monkeypatch.setattr(tol, "MONTE_CARLO_SE", 2.0 * tol.MONTE_CARLO_SE)
    doubled = monte_carlo_bounds(tmp_path / "doubled")
    assert len(base) == 3 and all(b > 0 for b in base)
    assert doubled == [2.0 * b for b in base]


def test_train_full_run_matches_solve(tmp_path, capsys):
    inst = STANDARD_INSTANCE
    conf = write_config(tmp_path / "exp.conf", mode="augmented", hidden=3,
                        epochs=inst["epochs"], learning_rate=inst["learning_rate"],
                        group="c4_image:4", dL=inst["dl"], n=inst["n"],
                        noise_sigma=inst["noise"], seed=inst["data_seed"],
                        r=inst["r"])
    run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    code, out, _ = run_cli(["solve", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 0
    solver_loss = float(dict(p.split("=", 1) for p in out.split())["loss"])
    code, _, _ = run_cli(["train", "--config", conf, "--seed", str(inst["train_seed"]),
                          "--out", str(tmp_path)], capsys)
    assert code == 0
    last = (tmp_path / "trainlog.csv").read_text().splitlines()[-1].split(",")
    assert abs(float(last[1]) - solver_loss) < 1e-4
    assert float(last[2]) < 1e-3


def test_ntk_check_full_width(tmp_path, capsys):
    conf = write_config(tmp_path / "ntk.conf", group="c4_image:2", width=65536,
                        trials=50, seed=3)
    code, out, _ = run_cli(["ntk-check", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out.count("PASS") == 4


def test_ntk_check_non_unitary_group_exit_2(tmp_path, capsys):
    write_matrix(tmp_path / "gen.mat", np.array([[0.0, 2.0], [0.5, 0.0]]))
    conf = write_config(tmp_path / "ntk.conf", group="custom:gen.mat+2", width=64,
                        trials=2, seed=0)
    code, _, err = run_cli(["ntk-check", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "unitary" in err.lower()


@pytest.mark.parametrize("command", ["gen-data", "ntk-check"])
def test_refused_allocation_exit_1_on_one_line(tmp_path, capsys, command):
    # a 2e8-dimensional group asks for a 3.2e17-byte matrix, past any 64-bit address
    # space: numpy refuses it at once, and no memory is touched
    conf = write_config(tmp_path / "big.conf", group="cyclic_perm:200000000", dL=3, n=40,
                        seed=1, width=64, trials=2)
    code, _, err = run_cli([command, "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    assert "allocate" in err


# each asks for 2**63 bytes or more, past any 64-bit address space: numpy refuses the
# array with a ValueError at once, and no memory is touched
_PAST_THE_ADDRESS_SPACE = [
    ("gen-data", dict(n=10 ** 20)),
    ("gen-data", dict(dL=10 ** 20)),
    ("gen-data", dict(group="cyclic_perm:100000000000")),
    ("gen-data", dict(group="c4_image:10000000000")),
    ("train", dict(hidden=10 ** 20)),
    ("ntk-check", dict(width=10 ** 20)),
]


@pytest.mark.parametrize("command, big", _PAST_THE_ADDRESS_SPACE,
                         ids=["n", "dL", "cyclic_perm", "c4_image", "hidden", "width"])
def test_allocation_past_the_address_space_exit_1_on_one_line(tmp_path, capsys, command, big):
    small = dict(group="cyclic_perm:2", dL=2, n=40, seed=1, mode="regularized", epochs=2,
                 hidden=3, width=64, trials=2, **{"lambda": 0.1})
    conf = write_config(tmp_path / "small.conf", **small)
    code, _, _ = run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 0
    conf = write_config(tmp_path / "big.conf", **{**small, **big})
    code, _, err = run_cli([command, "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    assert "allocate" in err


def test_plain_value_error_in_a_command_propagates(tmp_path, capsys, monkeypatch):
    from invlowrank import datagen

    def fail(*args):
        raise ValueError("not an allocation")

    monkeypatch.setattr(datagen, "write_dataset", fail)
    conf = write_config(tmp_path / "exp.conf", **BASE)
    with pytest.raises(ValueError, match="not an allocation"):
        entry(["gen-data", "--config", conf, "--out", str(tmp_path)])


def test_solve_singular_data_exit_2(tmp_path, capsys):
    x = np.random.default_rng(0).standard_normal((16, 64))
    x[3] = 0.0  # rank-deficient rows
    write_matrix(tmp_path / "X.mat", x)
    write_matrix(tmp_path / "Y.mat", np.ones((4, 64)))
    conf = write_config(tmp_path / "exp.conf", mode="constrained", **BASE)
    code, _, _ = run_cli(["solve", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 2


def test_compare_missing_file_exit_1(tmp_path, capsys):
    write_matrix(tmp_path / "a.mat", np.eye(2))
    code, _, _ = run_cli(["compare", str(tmp_path / "a.mat"), str(tmp_path / "b.mat")], capsys)
    assert code == 1


def test_compare_differing_exit_2(tmp_path, capsys):
    write_matrix(tmp_path / "a.mat", np.eye(2))
    write_matrix(tmp_path / "b.mat", 2 * np.eye(2))
    code, _, _ = run_cli(["compare", str(tmp_path / "a.mat"), str(tmp_path / "b.mat"),
                          "--tol", "1e-9"], capsys)
    assert code == 2


def test_compare_huge_entries_finite_distance(tmp_path, capsys):
    # a norm of entries from ~1e154 overflows; the power-of-two scaling keeps the ratio exact
    big = np.full((2, 2), 1e160)
    write_matrix(tmp_path / "a.mat", big)
    big[0, 0] = 1.5e160
    write_matrix(tmp_path / "b.mat", big)
    code, out, _ = run_cli(["compare", str(tmp_path / "a.mat"), str(tmp_path / "b.mat"),
                            "--tol", "0.5"], capsys)
    assert code == 0
    assert out.startswith("compare rel_distance=0.218") and out.rstrip().endswith("PASS"), out


def test_compare_tiny_entries_are_told_apart(tmp_path, capsys):
    # squares of entries below ~1e-162 underflow to 0; unscaled, both norms read 0 and so "equal"
    write_matrix(tmp_path / "a.mat", 1e-170 * np.eye(2))
    write_matrix(tmp_path / "b.mat", 2e-170 * np.eye(2))
    code, out, _ = run_cli(["compare", str(tmp_path / "a.mat"), str(tmp_path / "b.mat"),
                            "--tol", "1e-9"], capsys)
    assert code == 2
    assert out.startswith("compare rel_distance=0.5 "), out


def test_unknown_subcommand_exit_1(tmp_path, capsys):
    code, _, _ = run_cli(["frobnicate"], capsys)
    assert code == 1


def test_solve_bad_mode_exit_1(tmp_path, capsys):
    conf = write_config(tmp_path / "exp.conf", mode="sideways", **BASE)
    run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    code, _, err = run_cli(["solve", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "mode" in err


def test_custom_group_round_trip(tmp_path, capsys):
    gen = np.roll(np.eye(5), 1, axis=0)
    write_matrix(tmp_path / "gen.mat", gen)
    conf = write_config(tmp_path / "exp.conf", group="custom:gen.mat+5", dL=3, n=20,
                        noise_sigma=0.1, seed=6, r=1, mode="augmented")
    run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    code, out, _ = run_cli(["solve", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 0
    fields = dict(part.split("=", 1) for part in out.split())
    assert float(fields["invariance_residual"]) < 1e-9


def assert_config_error(code, err, name):
    """Exit 1 with exactly one ``error:`` line, naming the offending key or file."""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 1, err
    assert len(errors) == 1, err
    assert name in errors[0]
    assert "Traceback" not in err


def gen_data(tmp_path, capsys):
    conf = write_config(tmp_path / "data.conf", **BASE)
    code, _, _ = run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 0


@pytest.mark.parametrize("command", ["solve", "path", "critical-points"])
def test_negative_rank_exit_1(tmp_path, capsys, command):
    gen_data(tmp_path, capsys)
    conf = write_config(tmp_path / "exp.conf", mode="constrained",
                        lambda_grid="geom:1e-2:1e2:3", **{**BASE, "r": -1})
    code, _, err = run_cli([command, "--config", conf, "--out", str(tmp_path)], capsys)
    assert_config_error(code, err, "r")


@pytest.mark.parametrize("command", ["solve", "critical-points"])
@pytest.mark.parametrize("lam", ["-1", "inf"])
def test_bad_lambda_exit_1(tmp_path, capsys, command, lam):
    gen_data(tmp_path, capsys)
    conf = write_config(tmp_path / "exp.conf", mode="regularized", **{**BASE, "lambda": lam})
    code, _, err = run_cli([command, "--config", conf, "--out", str(tmp_path)], capsys)
    assert_config_error(code, err, "lambda")


NTK = dict(group="c4_image:2", width=64, trials=2, seed=3)


@pytest.mark.parametrize("command", ["gen-data", "train", "ntk-check"])
def test_negative_config_seed_exit_1(tmp_path, capsys, command):
    gen_data(tmp_path, capsys)
    keys = NTK if command == "ntk-check" else dict(BASE, mode="augmented", hidden=3, epochs=2)
    conf = write_config(tmp_path / "exp.conf", **{**keys, "seed": -5})
    code, _, err = run_cli([command, "--config", conf, "--out", str(tmp_path)], capsys)
    assert_config_error(code, err, "seed")


def test_negative_seed_option_exit_1(tmp_path, capsys):
    conf = write_config(tmp_path / "exp.conf", **BASE)
    code, _, err = run_cli(["gen-data", "--config", conf, "--out", str(tmp_path),
                            "--seed", "-5"], capsys)
    assert_config_error(code, err, "--seed")


def test_seed_option_is_checked_by_the_config_seed_rule_before_the_config(tmp_path, capsys):
    # the config file does not exist: --seed is refused while parsing, before it is read
    code, _, err = run_cli(["gen-data", "--config", str(tmp_path / "none.conf"),
                            "--seed", "-5"], capsys)
    # the phrase of checks.SEED, the rule of the config's seed key
    assert_config_error(code, err, "--seed must be an integer >= 0")


@pytest.mark.parametrize("argv, option", [
    (["solve", "--conf", "exp.conf"], "--config"),
    (["gen-data", "--config", "exp.conf", "--se", "3"], "--se"),
    (["gen-data", "--config", "exp.conf", "--ou", "elsewhere"], "--ou"),
    (["compare", "W.mat", "W.mat", "--to", "1"], "--to"),
])
def test_abbreviated_option_exit_1(tmp_path, capsys, monkeypatch, argv, option):
    # every argv would run if the abbreviation were taken for the option it begins
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "exp.conf", mode="constrained", **BASE)
    assert run_cli(["gen-data", "--config", "exp.conf"], capsys)[0] == 0
    assert run_cli(["solve", "--config", "exp.conf"], capsys)[0] == 0
    code, out, err = run_cli(argv, capsys)
    assert_config_error(code, err, option)
    assert out == ""
    assert not (tmp_path / "elsewhere").exists()


@pytest.mark.parametrize("key, value", [("width", 0), ("width", 1), ("trials", 0),
                                        ("group", "custom:gen.mat"),
                                        ("group", "custom:missing.mat+2"), ("group", "foo:3"),
                                        ("group", "c4_image:x"), ("group", "cyclic_perm:0")])
def test_ntk_check_degenerate_sizes_exit_1(tmp_path, capsys, key, value):
    conf = write_config(tmp_path / "ntk.conf", **{**NTK, key: value})
    code, _, err = run_cli(["ntk-check", "--config", conf, "--out", str(tmp_path)], capsys)
    assert_config_error(code, err, key)
    assert not (tmp_path / "ntk.csv").exists()


def test_gen_data_zero_outputs_exit_1(tmp_path, capsys):
    conf = write_config(tmp_path / "exp.conf", **{**BASE, "dL": 0})
    code, _, err = run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    assert_config_error(code, err, "dL")
    assert not (tmp_path / "Y.mat").exists()


def test_train_nan_learning_rate_exit_1(tmp_path, capsys):
    gen_data(tmp_path, capsys)
    conf = write_config(tmp_path / "exp.conf", mode="augmented", hidden=3, epochs=2,
                        learning_rate="nan", **BASE)
    code, _, err = run_cli(["train", "--config", conf, "--out", str(tmp_path)], capsys)
    assert_config_error(code, err, "learning_rate")


def test_non_utf8_matrix_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_bytes(b"\xff\xfe1 1\n1\n")
    code, _, err = run_cli(["compare", str(bad), str(bad)], capsys)
    assert_config_error(code, err, "bad.mat")


def test_non_utf8_config_exit_1(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_bytes(b"group = c4_image:2\n\xff\xfe = 1\n")
    code, _, err = run_cli(["gen-data", "--config", str(conf), "--out", str(tmp_path)], capsys)
    assert_config_error(code, err, "bad.conf")



# rotation by 2*pi: the identity group, under which every map is invariant
IDENTITY_GROUP = dict(group="rotation2d:1", dL=2, n=12, noise_sigma=0.5, seed=1, r=2,
                      hidden=3, epochs=20, x_file="X.mat", y_file="Y.mat")


def test_identity_group_constrained_equals_augmented(tmp_path, capsys):
    conf = write_config(tmp_path / "data.conf", **IDENTITY_GROUP)
    run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    for mode in ("constrained", "augmented"):
        conf = write_config(tmp_path / f"{mode}.conf", mode=mode, **IDENTITY_GROUP)
        code, _, _ = run_cli(["solve", "--config", conf, "--out", str(tmp_path / mode)], capsys)
        assert code == 0
    code, out, _ = run_cli(["compare", str(tmp_path / "constrained" / "W.mat"),
                            str(tmp_path / "augmented" / "W.mat"), "--tol", "1e-8"], capsys)
    assert code == 0, out


def test_identity_group_train_hardwired(tmp_path, capsys):
    conf = write_config(tmp_path / "hw.conf", mode="hardwired", **IDENTITY_GROUP)
    run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    code, out, err = run_cli(["train", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 0, err
    assert read_matrix(tmp_path / "Wfinal.mat").shape == (2, 2)


@pytest.mark.parametrize("mode", ["hardwired", "regularized"])
def test_train_cross_entropy_sample_mismatch_exit_1(tmp_path, capsys, mode):
    rng = np.random.default_rng(0)
    write_matrix(tmp_path / "X.mat", rng.standard_normal((4, 20)))
    write_matrix(tmp_path / "Y.mat", np.eye(2)[:, rng.integers(0, 2, 19)])
    conf = write_config(tmp_path / "exp.conf", group="c4_image:2", mode=mode, loss="cross_entropy",
                        hidden=2, epochs=2, seed=0, **{"lambda": 0.1})
    code, _, err = run_cli(["train", "--config", conf, "--out", str(tmp_path)], capsys)
    assert_config_error(code, err, "sample axis")


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_compare_tolerance_out_of_range_exit_1(tmp_path, capsys, value):
    write_matrix(tmp_path / "a.mat", np.eye(2))
    write_matrix(tmp_path / "b.mat", 2 * np.eye(2))
    code, _, err = run_cli(["compare", str(tmp_path / "a.mat"), str(tmp_path / "b.mat"),
                            "--tol", value], capsys)
    assert_config_error(code, err, "--tol")


def test_overflowing_custom_generator_exit_1(tmp_path, capsys):
    # generator**2 overflows to non-finite entries: one error line, no numpy warning
    (tmp_path / "gen.mat").write_text("2 2\n1e200 -1e200\n1e200 -1e200\n")
    conf = write_config(tmp_path / "exp.conf", group="custom:gen.mat+2", dL=2, n=4, seed=0, r=1,
                        mode="constrained")
    code, _, err = run_cli(["solve", "--config", conf, "--out", str(tmp_path)], capsys)
    assert_config_error(code, err, "generator**2")
    assert len(err.splitlines()) == 1, err


def _scaled_data(tmp_path, capsys, scale, **keys):
    """A config with ``keys`` over BASE, and its data with X scaled by ``scale``."""
    conf = write_config(tmp_path / "exp.conf", **keys, **BASE)
    run_cli(["gen-data", "--config", conf, "--out", str(tmp_path)], capsys)
    write_matrix(tmp_path / "X.mat", scale * read_matrix(tmp_path / "X.mat"))
    return conf


CLOSED_FORM_RUNS = [
    ("solve", dict(mode="constrained")),
    ("solve", dict(mode="regularized", **{"lambda": 0.1})),
    ("solve", dict(mode="augmented")),
    ("critical-points", dict(mode="constrained")),
    ("path", dict(lambda_grid="geom:1e-3:1e3:5")),
]


@pytest.mark.parametrize("command, keys", CLOSED_FORM_RUNS)
def test_overflowing_gram_matrix_exit_2(tmp_path, capsys, command, keys):
    # from ~1e154 on, X X^T overflows: SingularData on one error line, no traceback or warning
    conf = _scaled_data(tmp_path, capsys, 1e154, **keys)
    code, _, err = run_cli([command, "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "non-finite" in err
    assert len(err.splitlines()) == 1, err


@pytest.mark.parametrize("command, keys", CLOSED_FORM_RUNS)
def test_large_finite_gram_matrix_prints_no_warning(tmp_path, capsys, command, keys):
    # at 1e150 X X^T is finite but its norm overflows; the run succeeds without a numpy warning
    conf = _scaled_data(tmp_path, capsys, 1e150, **keys)
    code, _, err = run_cli([command, "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 0
    assert err.startswith("elapsed=") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("mode", ["augmented", "hardwired", "regularized"])
def test_overflowing_training_data_exit_2(tmp_path, capsys, mode):
    conf = _scaled_data(tmp_path, capsys, 1e200, mode=mode, hidden=3, epochs=5,
                        **{"lambda": 0.1})
    code, _, err = run_cli(["train", "--config", conf, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err


def _solve_child(conf, out, threads):
    """stdout and artifact bytes of ``solve`` run as a child process at ``threads`` BLAS threads."""
    src = str(Path(matio.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    child = subprocess.run([sys.executable, "-m", "invlowrank.cli", "solve", "--config", conf,
                            "--out", str(out)], env=env, capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stderr
    return child.stdout, {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_solve_bytes_hold_at_one_thread_count_and_agree_across_two(tmp_path, capsys):
    # byte identity is a promise for one BLAS build at one thread count; across thread
    # counts the summation order may change, so W agrees to rounding, not to the byte
    conf = write_config(tmp_path / "exp.conf", group="c4_image:8", dL=6, n=400,
                        noise_sigma=0.5, seed=3, r=3, mode="regularized", **{"lambda": 0.1})
    data = tmp_path / "data"
    assert run_cli(["gen-data", "--config", conf, "--out", str(data)], capsys)[0] == 0
    runs = {}
    for name, threads in (("one", 1), ("one_again", 1), ("two", 2)):
        shutil.copytree(data, tmp_path / name)
        runs[name] = _solve_child(conf, tmp_path / name, threads)
    assert runs["one"] == runs["one_again"]
    w_one, w_two = (read_matrix(tmp_path / name / "W.mat") for name in ("one", "two"))
    assert np.linalg.norm(w_one - w_two) <= 1e-13 * np.linalg.norm(w_one)
