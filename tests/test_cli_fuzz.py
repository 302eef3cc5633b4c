"""The CLI exit-code contract on generated configs, matrix files and arguments.

Whatever the input, ``entry()`` leaves only through ``SystemExit`` with code
0, 1 or 2, and a non-zero exit writes exactly one ``error:`` line.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from invlowrank.cli import entry

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

COMMANDS = ("gen-data", "solve", "path", "critical-points", "train", "ntk-check")


def ints(low, high):
    return st.integers(low, high).map(str)


def texts(*values):
    return st.sampled_from([str(v) for v in values])


# Valid values at bounded sizes: every generated run finishes in well under a
# second. custom:gen.mat+2 is the swap of R^2, written next to each config.
VALID = {
    "group": texts("c4_image:2", "c4_image:3", "cyclic_perm:3", "rotation2d:4",
                   "custom:gen.mat+2"),
    "dL": ints(1, 4), "n": ints(9, 40), "noise_sigma": texts(0, 0.5), "seed": ints(0, 5),
    "r": ints(0, 4), "lambda": texts(0, 0.1, 10), "hidden": texts("2", "2, 3"),
    "lambda_grid": texts("geom:1e-2:1e2:3", "0.1, 1", "geom:1:10:1"),
    "epochs": ints(1, 3), "learning_rate": texts(1e-3, 0.1), "init_scale": texts(1, 1e-3),
    "loss": texts("mse"), "invariant_wtrue": texts("true", "false"),
    "width": ints(2, 64), "trials": ints(1, 2),
}
MODES = {"solve": ("constrained", "regularized", "augmented"),
         "critical-points": ("constrained", "regularized", "augmented"),
         "train": ("augmented", "hardwired", "regularized")}
# values a key can be replaced with: out-of-range, malformed, or of another kind
BAD = {
    "group": texts("c4_image:0", "c4_image", "bogus:2", "custom:gen.mat", "custom:none.mat+2"),
    "mode": texts("up", "hardwired", "constrained"),
    "d0": ints(0, 9), "dL": ints(-1, 0), "n": ints(0, 8), "r": ints(-1, 9), "seed": ints(-2, -1),
    "epochs": ints(-1, 0), "width": ints(0, 1), "trials": ints(-1, 0),
    "hidden": texts("0", ",", "2, -1"), "lambda": texts(-1, 1e300),
    "noise_sigma": texts(-0.5), "learning_rate": texts(1e5, 0), "init_scale": texts(0),
    "loss": texts("cross_entropy", "hinge"),
    "lambda_grid": texts("1, 0.1", "0, 1", "-1", "geom:1:0:3"),
    "invariant_wtrue": texts("maybe"),
    "x_file": texts("Y.mat", "junk.mat", "missing.mat"), "y_file": texts("X.mat", "junk.mat"),
}
JUNK = texts("", "x", "1.5", "nan", "inf", "-inf", "1e400", "true", "3,,4", "é", "1 2")
EXTRA_LINES = texts("wat = 7", "no equals sign", "= 3", "# comment", "seed =",
                    "r = 1 # trailing comment", "ÿ = þ")
JUNK_MATRICES = st.sampled_from([b"", b"2 2\n1 2\n", b"1 1\nnan\n", b"1 2\n1 x\n",
                                 b"\xff\xfe1 1\n1\n", b"0 3\n", b"2 1\n1\n2\n"])


@st.composite
def configs(draw, command):
    """A valid config for ``command`` with up to two keys spoiled and an odd line or two."""
    values = {key: draw(strategy) for key, strategy in VALID.items()}
    if command in MODES:
        values["mode"] = draw(st.sampled_from(MODES[command]))
    spoiled = draw(st.sampled_from([0, 0, 0, 1, 1, 2]))
    for key in draw(st.lists(st.sampled_from(sorted(BAD)), min_size=spoiled,
                             max_size=spoiled, unique=True)):
        values[key] = draw(BAD[key] | JUNK)
    lines = [f"{key} = {value}" for key, value in values.items()]
    if draw(st.sampled_from([False, False, False, True])):
        lines.append(draw(EXTRA_LINES))
    return "\n".join(draw(st.permutations(lines))) + "\n"


def run(argv):
    """Run ``entry`` and return (exit code, stderr); any other exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as excinfo:
            entry(argv)
    code = excinfo.value.code
    stderr = err.getvalue()
    errors = [line for line in stderr.splitlines() if line.startswith("error:")]
    assert code in (0, 1, 2), (argv, code, stderr)
    assert len(errors) == (0 if code == 0 else 1), (argv, stderr)
    assert "Traceback" not in stderr
    return code, stderr


@pytest.mark.parametrize("command", COMMANDS)
@settings(derandomize=True, database=None, max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(),
       with_data=st.sampled_from([True, True, True, False]), junk_matrix=JUNK_MATRICES,
       seed=st.sampled_from([None, None, None, None, "0", "3", "-5", "x"]))
def test_config_commands_keep_exit_contract(data, command, with_data, junk_matrix, seed):
    config = data.draw(configs(command))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "exp.conf").write_text(config)
        (root / "junk.mat").write_bytes(junk_matrix)
        (root / "gen.mat").write_text("2 2\n0 1\n1 0\n")
        argv = ["--config", str(root / "exp.conf"), "--out", str(root)]
        argv += [] if seed is None else ["--seed", seed]
        if with_data:
            run(["gen-data", *argv])
        run([command, *argv])


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(first=JUNK_MATRICES | st.just(b"2 2\n1 0\n0 1\n"),
       second=st.sampled_from([None, b"2 2\n1 0\n0 1\n", b"2 2\n1 0\n0 2\n", b"1 1\n3\n"]),
       tol=st.none() | texts("0", "1e-8", "-1", "nan", "x"))
def test_compare_keeps_exit_contract(first, second, tol):
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a.mat", Path(tmp) / "b.mat"
        a.write_bytes(first)
        if second is not None:  # else b.mat is missing
            b.write_bytes(second)
        run(["compare", str(a), str(b)] + ([] if tol is None else ["--tol", tol]))


def test_unknown_command_and_missing_config_keep_exit_contract():
    assert run(["frobnicate"])[0] == 1
    assert run(["solve"])[0] == 1
    assert run(["--help"])[0] == 0
