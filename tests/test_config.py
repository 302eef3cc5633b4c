"""Config parsing: value syntax, comments, and each key's valid range."""

import math

import pytest

from invlowrank.config import KEYS, load_config, parse_config_text
from invlowrank.errors import InvalidConfig


def parse_one(key, raw):
    return parse_config_text(f"{key} = {raw}\n")


def test_every_key_parses_to_its_field():
    cfg = parse_config_text(
        "mode = augmented\ngroup = c4_image:3\nd0 = 9\ndL = 2\nhidden = 3, 4\nr = 0\n"
        "lambda = 0\nlambda_grid = 1e-2, 1, 1e2\nn = 40\nnoise_sigma = 0.5\nseed = 0\n"
        "epochs = 1\nlearning_rate = 1e-3\nloss = mse\ninvariant_wtrue = no\n"
        "x_file = X.mat\ny_file = Y.mat\nwidth = 2\ntrials = 1\ninit_scale = 2.5\n")
    assert (cfg.mode, cfg.group, cfg.loss, cfg.x_file, cfg.y_file) == (
        "augmented", "c4_image:3", "mse", "X.mat", "Y.mat")
    assert (cfg.d0, cfg.dL, cfg.r, cfg.n, cfg.seed, cfg.epochs, cfg.width, cfg.trials) == (
        9, 2, 0, 40, 0, 1, 2, 1)
    assert cfg.hidden == (3, 4)
    assert cfg.lambda_grid == (1e-2, 1.0, 1e2)
    assert (cfg.lam, cfg.noise_sigma, cfg.learning_rate, cfg.init_scale) == (0.0, 0.5, 1e-3, 2.5)
    assert cfg.invariant_wtrue is False
    assert cfg.require("lambda") == 0.0


def test_geometric_grid():
    grid = parse_one("lambda_grid", "geom:1e-3:1e3:7").lambda_grid
    assert len(grid) == 7
    assert grid[0] == 1e-3
    assert math.isclose(grid[-1], 1e3, rel_tol=1e-12)
    assert all(math.isclose(b / a, 10.0, rel_tol=1e-12) for a, b in zip(grid, grid[1:]))
    assert parse_one("lambda_grid", "geom:2:5:1").lambda_grid == (2.0,)


@pytest.mark.parametrize("raw, start, stop", [("geom:1e-3:1e6:100", 1e-3, 1e6),
                                               ("geom:1e-4:1e4:100", 1e-4, 1e4)])
def test_geometric_grid_ends_exactly_at_stop(raw, start, stop):
    # start * ratio**(count - 1) rounds to 999999.9999999993 and 10000.000000000073
    grid = parse_one("lambda_grid", raw).lambda_grid
    assert (len(grid), grid[0], grid[-1]) == (100, start, stop)
    assert all(a < b for a, b in zip(grid, grid[1:]))


@pytest.mark.parametrize("raw", ["geom:1:2", "geom:1:2:3:4", "geom:0:1:3", "geom:2:1:3",
                                 "geom:1:1:3", "geom:1:2:0", "geom:1:2:x", "geom:1:inf:3",
                                 "1, x", "1, nan", "1e400"])
def test_bad_grid_rejected(raw):
    with pytest.raises(InvalidConfig, match="lambda_grid"):
        parse_one("lambda_grid", raw)


def test_grid_order_and_sign_are_left_to_the_path():
    # regularization_path raises InvalidGrid for these
    assert parse_one("lambda_grid", "0, 1").lambda_grid == (0.0, 1.0)
    assert parse_one("lambda_grid", "1 0.5").lambda_grid == (1.0, 0.5)


@pytest.mark.parametrize("raw, value", [("true", True), ("YES", True), ("1", True),
                                        ("False", False), ("no", False), ("0", False)])
def test_bool_values(raw, value):
    assert parse_one("invariant_wtrue", raw).invariant_wtrue is value


def test_bad_bool_rejected():
    with pytest.raises(InvalidConfig, match="invariant_wtrue.*true or false"):
        parse_one("invariant_wtrue", "maybe")


def test_comments_and_blank_lines():
    cfg = parse_config_text("# header\n\n  seed = 4  # trailing\n# r = 9\n")
    assert cfg.seed == 4
    assert cfg.r is None


def test_unknown_key_rejected():
    with pytest.raises(InvalidConfig, match="line 2: unknown config key: wat"):
        parse_config_text("seed = 1\nwat = 7\n")


def test_repeated_key_rejected():
    with pytest.raises(InvalidConfig, match="line 3: key seed is already set on line 1"):
        parse_config_text("seed = 1\nr = 2\nseed = 3\n")


def test_empty_value_rejected():
    with pytest.raises(InvalidConfig, match="line 1: key seed has no value"):
        parse_config_text("seed =   # nothing\n")


def test_line_without_equals_rejected():
    with pytest.raises(InvalidConfig, match="line 1: expected 'key = value'"):
        parse_config_text("seed 1\n")


def test_missing_required_key():
    with pytest.raises(InvalidConfig, match="missing required config key: lambda"):
        parse_config_text("").require("lambda")


# key -> (smallest valid value, largest invalid value)
INTEGER_RANGES = {"d0": (1, 0), "dL": (1, 0), "n": (1, 0), "epochs": (1, 0),
                  "trials": (1, 0), "width": (2, 1), "r": (0, -1), "seed": (0, -1)}


def test_integer_ranges_cover_every_integer_key():
    assert set(INTEGER_RANGES) == {key for key, spec in KEYS.items() if spec.parse is int}


@pytest.mark.parametrize("key", sorted(INTEGER_RANGES))
def test_integer_range(key):
    low, below = INTEGER_RANGES[key]
    assert getattr(parse_one(key, low), key) == low
    for raw in (below, "1.5", "x"):
        with pytest.raises(InvalidConfig, match=f"key {key} must be an integer >= {low}"):
            parse_one(key, raw)


@pytest.mark.parametrize("key, strict", [("lambda", False), ("noise_sigma", False),
                                         ("learning_rate", True), ("init_scale", True)])
def test_real_range(key, strict):
    field = "lam" if key == "lambda" else key
    assert getattr(parse_one(key, "1e-300"), field) == 1e-300
    bad = ["-1e-300", "nan", "inf", "-inf", "1e400", "x"] + (["0"] if strict else [])
    if not strict:
        assert getattr(parse_one(key, "0"), field) == 0.0
    for raw in bad:
        with pytest.raises(InvalidConfig, match=f"key {key} must be a finite real"):
            parse_one(key, raw)


def test_hidden_entries_at_least_one():
    assert parse_one("hidden", "1").hidden == (1,)
    for raw in ("0", "3, 0", "-2", "2.5"):
        with pytest.raises(InvalidConfig, match="key hidden"):
            parse_one("hidden", raw)


def test_error_names_line_and_value():
    with pytest.raises(InvalidConfig, match=r"line 2: key r must be an integer >= 0, got '-1'"):
        parse_config_text("seed = 1\nr = -1\n")


def test_load_config_non_utf8(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_bytes(b"seed = \xff\n")
    with pytest.raises(InvalidConfig, match="bad.conf"):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(InvalidConfig, match="nope.conf"):
        load_config(tmp_path / "nope.conf")


def test_geometric_grid_whose_ratio_overflows():
    # stop / start is inf in floating point: each point is start**(1 - t) * stop**t instead
    grid = parse_one("lambda_grid", "geom:1e-300:1e300:3").lambda_grid
    assert (len(grid), grid[0], grid[-1]) == (3, 1e-300, 1e300)
    assert all(map(math.isfinite, grid))
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_benchmark_grid_keeps_its_points():
    # each point as the ratio form computes it, stop itself last
    ratio = (1e6 / 1e-3) ** (1.0 / 99)
    expected = tuple(1e-3 * ratio ** i for i in range(99)) + (1e6,)
    assert parse_one("lambda_grid", "geom:1e-3:1e6:100").lambda_grid == expected
