"""Start-up: the package loads each submodule on first use, and each command executes only
the modules it calls. Every check runs in a fresh interpreter, since this one has long
executed them all."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import invlowrank

SRC = str(Path(invlowrank.__file__).resolve().parents[1])

# prints, after a CLI command, which invlowrank.* modules are still only registered: a module
# whose code has not run is not a plain module yet, and reading type() does not load it
PROBE = """
import json, sys, types
from invlowrank import cli
try:
    cli.entry(sys.argv[1:])
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(json.dumps(sorted(name.split(".", 1)[1] for name, mod in sys.modules.items()
                        if name.startswith("invlowrank.") and type(mod) is not types.ModuleType)))
"""

TOY = dict(group="c4_image:3", dL=3, n=40, noise_sigma=0.5, seed=1, r=2, mode="regularized",
           hidden=3, epochs=5, width=64, trials=2, **{"lambda": 0.1, "lambda_grid": "0.1,1"})


def python(*args, cwd=None):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def not_executed(tmp_path, command):
    child = python("-c", PROBE, command, "--config", str(tmp_path / "toy.conf"),
                   "--out", str(tmp_path))
    assert child.returncode == 0, child.stderr
    return set(json.loads(child.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    """A directory holding toy.conf and the data gen-data writes for it."""
    out = tmp_path_factory.mktemp("toy")
    (out / "toy.conf").write_text("".join(f"{k} = {v}\n" for k, v in TOY.items()))
    child = python("-m", "invlowrank.cli", "gen-data", "--config", str(out / "toy.conf"),
                   "--out", str(out))
    assert child.returncode == 0, child.stderr
    return out


def test_gen_data_executes_no_solver_trainer_or_kernel(toy_dir):
    assert not_executed(toy_dir, "gen-data") == {"solvers", "training", "ntk", "activations"}


@pytest.mark.parametrize("command", ["solve", "path", "critical-points"])
def test_closed_form_commands_execute_no_trainer_kernel_or_generator(toy_dir, command):
    assert not_executed(toy_dir, command) == {"training", "ntk", "activations", "datagen"}


def test_train_executes_no_kernel_or_generator(toy_dir):
    assert not_executed(toy_dir, "train") == {"ntk", "datagen"}


def test_ntk_check_executes_all_but_the_generator(toy_dir):
    assert not_executed(toy_dir, "ntk-check") == {"datagen"}


def test_importing_cli_imports_no_click():
    child = python("-c", "import sys, invlowrank.cli; print('click' in sys.modules)")
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["False"]


@pytest.mark.parametrize("command", ["gen-data", "solve", "path", "critical-points", "train",
                                     "ntk-check"])
def test_no_command_imports_click(toy_dir, command):
    child = python("-c", PROBE + "print('click' in sys.modules)\n", command,
                   "--config", str(toy_dir / "toy.conf"), "--out", str(toy_dir))
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "False"


def test_every_traced_layer_is_in_sys_modules_after_importing_cli():
    # the layers benchmarks/spans.py's Tracer.install looks up right after this import
    layers = ("config", "datagen", "matio", "groups", "linalg", "solvers", "training", "ntk")
    child = python("-c", "import sys, invlowrank.cli; "
                   "print(' '.join(n for n in sys.argv[1:] if 'invlowrank.' + n in sys.modules))",
                   *layers)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == list(layers)


def test_each_public_submodule_loads_on_attribute_access():
    attrs = {"activations": "get_activation", "errors": "NumericalError", "groups": "GroupRep",
             "linalg": "svd", "ntk": "property_suites", "solvers": "solve_constrained",
             "tolerances": "MONTE_CARLO_SE", "training": "train"}
    assert sorted(attrs) == sorted(invlowrank.__all__)
    child = python("-c", "import sys, invlowrank\n"
                   "for pair in sys.argv[1:]:\n"
                   "    name, attr = pair.split('.')\n"
                   "    getattr(getattr(invlowrank, name), attr)",
                   *(f"{name}.{attr}" for name, attr in attrs.items()))
    assert child.returncode == 0, child.stderr


def test_module_run_starts_without_a_warning(tmp_path):
    # runpy warns on stderr when the -m target is already in sys.modules
    child = python("-m", "invlowrank.cli", "--help", cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
    assert "ntk-check" in child.stdout
