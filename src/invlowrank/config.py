"""Flat key-value experiment configs and named group presets.

One ``key = value`` per line, ``#`` comments, unknown and repeated keys
rejected. Group presets: ``c4_image:<p>`` (90-degree rotation of a p x p
image), ``cyclic_perm:<d>`` (full d-cycle on R^d), ``rotation2d:<k>``
(planar rotation by 2*pi/k), or ``custom:<matrix file>+<order>`` with the
file path resolved against the config file's directory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .checks import NONNEGATIVE, POSITIVE, REAL, SEED, Kind, count
from .errors import InvalidConfig
from .groups import GroupRep, c4_image_rotation, cyclic_permutation, rep_from_generator, rotation_2d
from .matio import read_matrix


@dataclass(frozen=True)
class _Key:
    """How one config key's value is parsed, and the kind of its valid parsed values."""

    parse: Callable[[str], object]
    kind: Kind


def _integer(low: int) -> _Key:
    return _Key(int, count(low))


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(p) for p in raw.replace(",", " ").split())


def _float_list(raw: str) -> tuple[float, ...]:
    if not raw.startswith("geom:"):
        return tuple(float(p) for p in raw.replace(",", " ").split())
    start, stop, points = raw[5:].split(":")  # ValueError unless exactly three parts
    start, stop, points = float(start), float(stop), int(points)
    if points < 1 or start <= 0 or stop <= start:
        raise ValueError(raw)
    if points == 1:
        return (start,)
    ratio = (stop / start) ** (1.0 / (points - 1))
    if REAL.valid(ratio):
        head = [start * ratio ** i for i in range(points - 1)]
    else:
        # stop / start overflows: each point as start**(1 - t) * stop**t, whose factors stay finite
        head = [start] + [start ** (1 - t) * stop ** t
                          for t in (i / (points - 1) for i in range(1, points - 1))]
    # the last point is stop itself: start * ratio**(points - 1) may miss it by rounding
    return tuple(head) + (stop,)


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_TEXT = _Key(str, Kind(lambda v: True, "text"))

# Every config key, its parser and its valid range. The lambda grid's
# positivity and order are checked by regularization_path (InvalidGrid).
KEYS: dict[str, _Key] = {
    "mode": _TEXT, "group": _TEXT, "loss": _TEXT, "x_file": _TEXT, "y_file": _TEXT,
    "d0": _integer(1), "dL": _integer(1), "n": _integer(1), "epochs": _integer(1),
    "trials": _integer(1), "r": _integer(0), "seed": _Key(int, SEED),
    # the Monte-Carlo bound needs a standard error over at least two units
    "width": _integer(2),
    "hidden": _Key(_int_list, Kind(lambda v: all(map(count(1).valid, v)),
                                   "a comma list of integers >= 1")),
    "lambda": _Key(float, NONNEGATIVE), "noise_sigma": _Key(float, NONNEGATIVE),
    "learning_rate": _Key(float, POSITIVE), "init_scale": _Key(float, POSITIVE),
    "lambda_grid": _Key(_float_list, Kind(lambda v: all(map(REAL.valid, v)),
                                          "a comma list of finite reals or geom:<start>:<stop>:"
                                          "<count> with 0 < start < stop and count >= 1")),
    "invariant_wtrue": _Key(lambda raw: _BOOLS[raw.lower()],
                            Kind(lambda v: True, "true or false")),
}


class ExperimentConfig:
    """Parsed experiment configuration: one attribute per ``KEYS`` entry, None until set."""

    def __init__(self, base_dir: Path = Path(".")):
        for key in KEYS:
            setattr(self, _attr(key), None)
        self.base_dir = base_dir

    def require(self, key: str):
        value = getattr(self, _attr(key))
        if value is None:
            raise InvalidConfig(f"missing required config key: {key}")
        return value


def _attr(key: str) -> str:
    """The ExperimentConfig attribute that holds a config key."""
    return "lam" if key == "lambda" else key


def parse_config_text(text: str, base_dir: Path | None = None) -> ExperimentConfig:
    cfg = ExperimentConfig(base_dir=base_dir or Path("."))
    set_on: dict[str, int] = {}  # key -> the line that set it
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in KEYS:
            raise InvalidConfig(f"line {lineno}: unknown config key: {key}")
        if key in set_on:
            raise InvalidConfig(f"line {lineno}: key {key} is already set on line {set_on[key]}")
        set_on[key] = lineno
        if not raw:
            raise InvalidConfig(f"line {lineno}: key {key} has no value")
        spec = KEYS[key]
        try:
            value = spec.parse(raw)
        except (ValueError, KeyError, OverflowError):
            ok = False
        else:
            ok = spec.kind.valid(value)
        if not ok:
            raise InvalidConfig(f"line {lineno}: key {key} must be {spec.kind.phrase}, got {raw!r}")
        setattr(cfg, _attr(key), value)
    return cfg


def load_config(path: str | os.PathLike) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise InvalidConfig(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"config file is not UTF-8 text: {path}") from exc
    return parse_config_text(text, base_dir=path.parent)


def resolve_group(cfg: ExperimentConfig) -> GroupRep:
    """Build the GroupRep named by the config's ``group`` preset."""
    preset = cfg.require("group")
    kind, _, arg = preset.partition(":")
    if not arg:
        raise InvalidConfig(f"group preset needs an argument: {preset!r}")
    if kind == "c4_image":
        return c4_image_rotation(_preset_int(preset, arg))
    if kind == "cyclic_perm":
        return cyclic_permutation(_preset_int(preset, arg))
    if kind == "rotation2d":
        return rotation_2d(_preset_int(preset, arg))
    if kind == "custom":
        file_part, sep, order_part = arg.rpartition("+")
        if not sep:
            raise InvalidConfig(f"custom group syntax is custom:<matrix file>+<order>: {preset!r}")
        gen_path = Path(cfg.base_dir) / file_part
        if not gen_path.is_file():
            raise InvalidConfig(f"group generator file not found: {gen_path}")
        return rep_from_generator(read_matrix(gen_path), _preset_int(preset, order_part))
    raise InvalidConfig(f"unknown group preset kind: {kind!r}")


def _preset_int(preset: str, arg: str) -> int:
    try:
        value = int(arg)
    except ValueError as exc:
        raise InvalidConfig(f"group preset argument must be an integer: {preset!r}") from exc
    if not count(1).valid(value):
        raise InvalidConfig(f"group preset argument must be >= 1: {preset!r}")
    return value
