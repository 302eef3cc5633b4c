"""The argument contract as one table, and the one module that owns its rules."""

import ast
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from invlowrank import checks, datagen, groups, linalg, matio, ntk, solvers, training
from invlowrank.config import parse_config_text, resolve_group
from invlowrank.errors import (HarnessError, IndexOutOfRange, InvalidArgument, InvalidConfig,
                               MatrixFormatError, NoConvergence, NonSquare, NotARepresentation,
                               NotPositiveDefinite, NotSymmetric, RankOutOfRange, ShapeMismatch,
                               SingularKernel)

from helpers import embedded_cycle_rep

COMPLEX = np.array([[1.0 + 1.0j, 0.0], [0.0, 1.0]])
OVERFLOWING = np.array([[1e200, -1e200], [1e200, -1e200]])
INFINITE = np.array([[np.inf, 0.0], [0.0, 1.0]])


def _data():
    x = np.random.default_rng(0).standard_normal((4, 12))
    return x, x[:2].copy()


def _problem(**kwargs):
    x, y = _data()
    return solvers.RegressionProblem(**{"x": x, "y": y, "r": 1, "rep": embedded_cycle_rep(4, 2),
                                        **kwargs})


def _train_config(**kwargs):
    return training.TrainConfig(mode="augmented", epochs=1, seed=0, **kwargs)


def _no_samples():
    """W (2 x 3), X (3 x 0) and Y (2 x 0): data with no samples."""
    return np.ones((2, 3)), np.ones((3, 0)), np.ones((2, 0))


def _nonlinear_gradient(x, y):
    """nonlinear_gradient of a tanh net 3 -> 2 -> 2."""
    params = training.NonlinearNetParams(np.ones((2, 3)), np.ones((2, 2)), "tanh")
    return training.nonlinear_gradient(params, x, y)


def _noise_config(noise):
    cfg = parse_config_text("group = c4_image:2\ndL = 2\nn = 8\n")
    cfg.noise_sigma = noise
    return cfg


# (entry point, malformed value) -> (the error its contract names, the call); only add rows
CONTRACT = {
    "linalg.as_matrix_complex": (InvalidArgument, lambda: linalg.as_matrix(COMPLEX)),
    "linalg.svd_complex": (InvalidArgument, lambda: linalg.svd(COMPLEX)),
    "solvers.problem_x_complex": (InvalidArgument, lambda: _problem(x=_data()[0] * (1 + 1j))),
    "ntk.relu_limiting_ntk_complex": (InvalidArgument, lambda: ntk.relu_limiting_ntk(
        np.ones(3) * 1j, np.ones(3))),
    "linalg.svd_text": (InvalidArgument, lambda: linalg.svd([["a", "b"]])),
    "linalg.svd_ragged": (InvalidArgument, lambda: linalg.svd([[1, 2], [3]])),
    "ntk.sample_width_set_seed_negative": (InvalidArgument, lambda: ntk.sample_width_set(
        3, 8, -1)),
    "ntk.sample_width_set_width_negative": (InvalidArgument, lambda: ntk.sample_width_set(
        3, -1, 0)),
    "ntk.sample_width_set_width_fraction": (InvalidArgument, lambda: ntk.sample_width_set(
        3, 1.5, 0)),
    "ntk.sample_width_set_dim_zero": (InvalidArgument, lambda: ntk.sample_width_set(0, 8, 0)),
    "groups.rep_from_generator_order_fraction": (InvalidArgument, lambda: (
        groups.rep_from_generator(np.eye(2), 1.5))),
    "groups.c4_image_rotation_fraction": (InvalidArgument, lambda: groups.c4_image_rotation(1.5)),
    "groups.cyclic_permutation_fraction": (InvalidArgument, lambda: (
        groups.cyclic_permutation(1.5))),
    "groups.rotation_2d_fraction": (InvalidArgument, lambda: groups.rotation_2d(1.5)),
    "groups.element_fraction": (IndexOutOfRange, lambda: groups.element(
        groups.rotation_2d(4), 1.5)),
    "linalg.best_rank_r_fraction": (RankOutOfRange, lambda: linalg.best_rank_r(np.eye(3), 1.5)),
    "training.mse_surrogate_fraction": (InvalidArgument, lambda: training.mse_surrogate(
        [(np.ones((2, 3)), np.ones((1, 3)))], 1.5)),
    "training.init_params_dims_scalar": (InvalidConfig, lambda: training.init_params(3, 0)),
    "training.train_hidden_scalar": (InvalidConfig, lambda: training.train(
        _train_config(), 3, *_data(), rep=embedded_cycle_rep(4, 2))),
    "ntk.build_kernel_matrix_no_points": (InvalidArgument, lambda: ntk.build_kernel_matrix(
        ntk.relu_limiting_ntk, np.ones((3, 0)))),
    "solvers.problem_lambda_array": (InvalidArgument, lambda: _problem(
        lam=np.array([1.0, 2.0]))),
    "training.learning_rate_text": (InvalidConfig, lambda: _train_config(learning_rate="a")),
    "training.adam_betas_scalar": (InvalidConfig, lambda: _train_config(adam_betas=0.9)),
    "training.adam_betas_text": (InvalidConfig, lambda: _train_config(adam_betas=(0.9, "a"))),
    "linalg.left_null_projector_scalar": (ShapeMismatch, lambda: linalg.left_null_projector(
        np.float64(1.0))),
    "groups.rep_from_generator_nan": (NotARepresentation, lambda: groups.rep_from_generator(
        np.full((2, 2), np.nan), 2)),
    "groups.rep_from_generator_overflow": (NotARepresentation, lambda: (
        groups.rep_from_generator(OVERFLOWING, 2))),
    "ntk.kernel_interpolate_nan_jitter": (SingularKernel, lambda: ntk.kernel_interpolate(
        ntk.KernelMatrix(entries=np.eye(3), jitter=np.nan), np.ones(3))),
    "ntk.kernel_interpolate_nan_entries": (SingularKernel, lambda: ntk.kernel_interpolate(
        ntk.KernelMatrix(entries=np.full((3, 3), np.nan), jitter=0.0), np.ones(3))),
    "matio.write_matrix_complex": (MatrixFormatError, lambda: matio.write_matrix(
        "W.mat", COMPLEX)),
    "ntk.build_kernel_matrix_nan_jitter": (InvalidArgument, lambda: ntk.build_kernel_matrix(
        ntk.relu_limiting_ntk, np.eye(3), jitter=np.nan)),
    "ntk.build_kernel_matrix_negative_jitter": (InvalidArgument, lambda: (
        ntk.build_kernel_matrix(ntk.relu_limiting_ntk, np.eye(3), jitter=-1.0))),
    "datagen.noise_sigma_nan": (InvalidConfig, lambda: datagen.generate_dataset(
        _noise_config(np.nan), 0)),
    "ntk.kernel_predict_complex_coeffs": (InvalidArgument, lambda: ntk.kernel_predict(
        ntk.relu_limiting_ntk, np.ones((3, 2)), np.ones(2) * 1j, np.ones(3))),
    "activations.unhashable_name": (InvalidArgument, lambda: ntk.empirical_ntk(
        ntk.sample_width_set(3, 8, 0), ["relu"], np.ones(3), np.ones(3))),
    "ntk.width_sample_set_weights_vector": (ShapeMismatch, lambda: ntk.WidthSampleSet(
        weights=np.ones(3), out_scales=np.ones(3), seed=0)),
    "ntk.width_sample_set_scales_column": (ShapeMismatch, lambda: ntk.WidthSampleSet(
        weights=np.ones((8, 3)), out_scales=np.ones((8, 1)), seed=0)),
    "ntk.width_sample_set_complex_weights": (InvalidArgument, lambda: ntk.WidthSampleSet(
        weights=np.ones((2, 3)) * 1j, out_scales=np.ones(2), seed=0)),
    "training.linear_net_params_vector_layer": (ShapeMismatch, lambda: (
        training.LinearNetParams([np.ones((2, 3)), np.ones(2)]))),
    "training.nonlinear_net_params_vector_out": (ShapeMismatch, lambda: (
        training.NonlinearNetParams(np.ones((2, 3)), np.ones(2), "relu"))),
    "training.nonlinear_net_params_complex_hidden": (InvalidArgument, lambda: (
        training.NonlinearNetParams(np.ones((2, 3)) * 1j, np.ones((1, 2)), "tanh"))),
    "training.augment_dataset_complex": (InvalidArgument, lambda: training.augment_dataset(
        np.ones((4, 5)) * 1j, np.ones((2, 5)), embedded_cycle_rep(4, 2))),
    "training.hardwired_forward_complex": (InvalidArgument, lambda: training.hardwired_forward(
        training.LinearNetParams([np.ones((1, 2))]), np.ones((2, 4)), np.ones(4) * 1j)),
    "training.nonlinear_forward_complex": (InvalidArgument, lambda: training.nonlinear_forward(
        training.NonlinearNetParams(np.ones((2, 3)), np.ones((1, 2)), "tanh"),
        np.ones(3) * 1j)),
    "training.nonlinear_gradient_complex": (InvalidArgument, lambda: (
        training.nonlinear_gradient(
            training.NonlinearNetParams(np.ones((2, 3)), np.ones((1, 2)), "tanh"),
            np.ones((3, 4)) * 1j, np.ones((1, 4))))),
    "training.epsilon_inv_complex": (InvalidArgument, lambda: training.epsilon_inv(
        lambda v: 1.0, np.ones(4) * 1j, embedded_cycle_rep(4, 2))),
    "ntk.conv_forward_complex": (InvalidArgument, lambda: ntk.conv_forward(
        ntk.sample_width_set(4, 8, 0), "relu", embedded_cycle_rep(4, 2), np.ones(4) * 1j)),
    "ntk.property_suites_trials_zero": (InvalidArgument, lambda: ntk.property_suites(
        embedded_cycle_rep(4, 2), 8, 0, 0)),
    "ntk.property_suites_width_one": (InvalidArgument, lambda: ntk.property_suites(
        groups.c4_image_rotation(2), 1, 2, 0)),
    "ntk.property_suites_seed_negative": (InvalidArgument, lambda: ntk.property_suites(
        embedded_cycle_rep(4, 2), 8, 1, -1)),
    "training.linear_net_params_no_layers": (InvalidArgument, lambda: (
        training.LinearNetParams([]))),
    "linalg.svd_inf": (NoConvergence, lambda: linalg.svd(INFINITE)),
    "linalg.singular_values_inf": (NoConvergence, lambda: linalg.singular_values(INFINITE)),
    "linalg.numerical_rank_inf": (NoConvergence, lambda: linalg.numerical_rank(-INFINITE)),
    "linalg.pinv_inf": (NoConvergence, lambda: linalg.pinv(INFINITE)),
    "linalg.pd_sqrt_inf": (NotPositiveDefinite, lambda: linalg.pd_sqrt(INFINITE)),
    "linalg.pd_inv_sqrt_inf": (NotPositiveDefinite, lambda: linalg.pd_inv_sqrt(-INFINITE)),
    "ntk.relu_limiting_ntk_nan": (InvalidArgument, lambda: ntk.relu_limiting_ntk(
        np.array([1.0, np.nan]), np.ones(2))),
    "ntk.relu_limiting_ntk_inf": (InvalidArgument, lambda: ntk.relu_limiting_ntk(
        np.ones(2), np.array([np.inf, 1.0]))),
    "ntk.empirical_ntk_terms_inf": (InvalidArgument, lambda: ntk.empirical_ntk_terms(
        ntk.sample_width_set(2, 8, 0), "relu", np.array([-np.inf, 1.0]), np.ones(2))),
    "solvers.empirical_risk_no_samples": (InvalidArgument, lambda: solvers.empirical_risk(
        *_no_samples())),
    "solvers.augmented_risk_no_samples": (InvalidArgument, lambda: solvers.augmented_risk(
        *_no_samples(), embedded_cycle_rep(3, 2))),
    "training.mse_objective_no_samples": (InvalidArgument, lambda: training.mse_objective(
        *_no_samples())),
    "training.cross_entropy_objective_no_samples": (InvalidArgument, lambda: (
        training.cross_entropy_objective(*_no_samples()))),
    "training.gradient_no_samples": (InvalidArgument, lambda: training.gradient(
        training.LinearNetParams([np.ones((2, 3))]), *_no_samples()[1:])),
    "training.gradient_cross_entropy_no_samples": (InvalidArgument, lambda: training.gradient(
        training.LinearNetParams([np.ones((2, 3))]), *_no_samples()[1:],
        loss="cross_entropy")),
    "training.nonlinear_gradient_no_samples": (InvalidArgument, lambda: _nonlinear_gradient(
        np.ones((3, 0)), np.ones((2, 0)))),
    "training.nonlinear_gradient_y_column": (ShapeMismatch, lambda: _nonlinear_gradient(
        np.ones((3, 4)), np.ones((2, 1)))),
    "training.nonlinear_gradient_y_row": (ShapeMismatch, lambda: _nonlinear_gradient(
        np.ones((3, 4)), np.ones((1, 4)))),
    "training.nonlinear_gradient_y_vector": (ShapeMismatch, lambda: _nonlinear_gradient(
        np.ones((3, 4)), np.ones(4))),
    "training.nonlinear_gradient_y_rows": (ShapeMismatch, lambda: _nonlinear_gradient(
        np.ones((3, 4)), np.ones((3, 4)))),
    "training.epsilon_inv_median_no_points": (InvalidArgument, lambda: (
        training.epsilon_inv_median(lambda v: 1.0, np.ones((4, 0)), embedded_cycle_rep(4, 2)))),
    "groups.orbit_complex": (InvalidArgument, lambda: groups.orbit(
        embedded_cycle_rep(4, 2), np.ones(4), np.ones(4) * 1j)),
    "groups.orbit_wrong_length": (ShapeMismatch, lambda: groups.orbit(
        embedded_cycle_rep(4, 2), np.ones(3))),
    "ntk.augmented_kernel_complex": (InvalidArgument, lambda: ntk.augmented_kernel(
        lambda a, b: 1.0, embedded_cycle_rep(4, 2), np.ones(4) * 1j, np.ones(4))),
    "linalg.pd_inv_sqrt_asymmetric_overflowing_norm": (NotSymmetric, lambda: linalg.pd_inv_sqrt(
        [[2e200, 0.0], [1e200, 2e200]])),
    "linalg.pd_inv_sqrt_not_square": (NotSymmetric, lambda: linalg.pd_inv_sqrt(np.ones((2, 3)))),
    "groups.rep_from_generators_dimensions": (NonSquare, lambda: groups.rep_from_generators(
        [np.eye(2), np.eye(3)], [1, 1])),
    "training.init_params_one_width": (InvalidConfig, lambda: training.init_params((3,), 0)),
    "training.train_augmented_constraint_without_rep": (InvalidConfig, lambda: training.train(
        _train_config(), (2,), *_data(),
        constraint=groups.invariance_constraint(embedded_cycle_rep(4, 2)))),
    "datagen.d0_not_the_group_dimension": (InvalidConfig, lambda: datagen.generate_dataset(
        parse_config_text("group = c4_image:3\nd0 = 5\ndL = 2\nn = 40\n"), 0)),
}


@pytest.mark.parametrize("error, call", list(CONTRACT.values()), ids=list(CONTRACT))
def test_malformed_argument_raises_its_contract_error(tmp_path, monkeypatch, error, call):
    monkeypatch.chdir(tmp_path)  # a row that writes a file writes it here
    with pytest.raises(HarnessError) as excinfo:
        call()
    assert isinstance(excinfo.value, error)


@pytest.mark.parametrize("noise", [np.nan, np.inf, -1.0])
def test_noise_sigma_error_names_the_key(noise):
    with pytest.raises(InvalidConfig, match="noise_sigma must be a finite real >= 0"):
        datagen.generate_dataset(_noise_config(noise), 0)


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "invlowrank"


def _isfinite_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "isfinite")


def _rule_restatements(tree: ast.AST) -> list[str]:
    """Uses of numbers.Integral, math.isfinite, np.asarray(..., dtype=...) and array reductions
    of np.isfinite (``np.all(np.isfinite(a))``, ``np.isfinite(a).all()``) in a module."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "all"
                and (_isfinite_call(node.func.value) or any(map(_isfinite_call, node.args)))):
            found.append(f"line {node.lineno}: an all() of isfinite")
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (node.value.id, node.attr) in {("numbers", "Integral"), ("math", "isfinite")}:
                found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module in ("numbers", "math"):
            found += [f"line {node.lineno}: from {node.module} import {alias.name}"
                      for alias in node.names if alias.name in ("Integral", "isfinite")]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "asarray"
              and (len(node.args) > 1 or any(kw.arg == "dtype" for kw in node.keywords))):
            found.append(f"line {node.lineno}: asarray with a dtype")
    return found


def test_only_checks_states_argument_rules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "checks.py" in modules
    offenders = {path.name: _rule_restatements(ast.parse(path.read_text()))
                 for path in modules if path.name != "checks.py"}
    assert {name: found for name, found in offenders.items() if found} == {}
    # the scan sees what it forbids
    assert _rule_restatements(ast.parse((PACKAGE / "checks.py").read_text()))


def test_rule_scan_sees_both_spellings_of_a_finiteness_reduction():
    source = "np.all(np.isfinite(a))\nnp.isfinite(b).all()\nnp.isfinite(c)\nnp.all(a > 0)\n"
    assert _rule_restatements(ast.parse(source)) == [
        "line 1: an all() of isfinite", "line 2: an all() of isfinite"]


def _count_operand(node: ast.AST) -> bool:
    """Whether node is ``<expr>.shape[i]`` or ``len(...)``."""
    return ((isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
             and node.value.attr == "shape")
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "len"))


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)


def _count_restatements(tree: ast.AST) -> list[str]:
    """``if`` statements that compare a shape entry or a len() with an integer literal and
    raise InvalidArgument or InvalidConfig: count rules that ``checks.count`` states."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and len(node.test.ops) == 1):
            continue
        sides = (node.test.left, node.test.comparators[0])
        if (any(isinstance(side, ast.Constant) and type(side.value) is int for side in sides)
                and any(map(_count_operand, sides))
                and any(isinstance(stmt, ast.Raise)
                        and _raised_name(stmt) in ("InvalidArgument", "InvalidConfig")
                        for stmt in node.body)):
            found.append(f"line {node.lineno}")
    return found


def test_only_checks_states_count_rules():
    offenders = {path.name: _count_restatements(ast.parse(path.read_text()))
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_count_scan_sees_what_it_forbids():
    source = ("if x.shape[1] == 0:\n    raise InvalidArgument('X has no samples')\n"
              "if len(dims) < 2:\n    raise errors.InvalidConfig(f'{dims!r}')\n"
              "if 1 > a.b.shape[0]:\n    raise InvalidArgument\n"
              # a compound rule, another error class, no literal, no raise: not count rules
              "if not (len(betas) == 2 and ok):\n    raise InvalidConfig('two reals')\n"
              "if len(header) != 2:\n    raise MatrixFormatError('rows cols')\n"
              "if x.shape[1] != y.shape[1]:\n    raise InvalidArgument('x, y')\n"
              "if len(maps) == 8:\n    flush()\n")
    assert _count_restatements(ast.parse(source)) == ["line 1", "line 3", "line 5"]


def _names_constraint_matrix(node: ast.AST) -> bool:
    if isinstance(node, ast.Tuple):
        return any(map(_names_constraint_matrix, node.elts))
    return getattr(node, "id", getattr(node, "attr", None)) == "ConstraintMatrix"


def _constraint_unwraps(tree: ast.AST, owner: str | None) -> list[str]:
    """``isinstance(<expr>, ConstraintMatrix)`` calls outside the function named ``owner``:
    places that unwrap G, which ``groups.as_constraint`` alone does."""
    owned = {id(node) for func in ast.walk(tree)
             if isinstance(func, ast.FunctionDef) and func.name == owner
             for node in ast.walk(func)}
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                   and len(node.args) == 2 and _names_constraint_matrix(node.args[1])
                   and id(node) not in owned)
    return [f"line {line}" for line in lines]


def test_only_as_constraint_unwraps_g():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        owner = "as_constraint" if path.name == "groups.py" else None
        offenders[path.name] = _constraint_unwraps(ast.parse(path.read_text()), owner)
    assert {name: found for name, found in offenders.items() if found} == {}


def test_unwrap_scan_sees_what_it_forbids():
    source = ("def constraint_entries(g):\n"
              "    return g.entries if isinstance(g, ConstraintMatrix) else g\n"
              "ok = isinstance(g, (np.ndarray, groups.ConstraintMatrix))\n"
              "def as_constraint(g):\n    given = isinstance(g, ConstraintMatrix)\n"
              # another class, another call, a bare name: not unwraps
              "if isinstance(rep, GroupRep) or type(g) is ConstraintMatrix:\n    pass\n"
              "def f(g):\n    return check(g, ConstraintMatrix)\n")
    tree = ast.parse(source)
    assert _constraint_unwraps(tree, "as_constraint") == ["line 2", "line 3"]
    assert _constraint_unwraps(tree, None) == ["line 2", "line 3", "line 5"]


# entry point -> (the error its contract names, the message, the call)
COUNT_MESSAGES = {
    "linalg.check_chain_no_samples": (
        InvalidArgument, "the sample count must be an integer >= 1, got 0",
        lambda: linalg.check_chain(*_no_samples())),
    "training.train_no_samples": (
        InvalidArgument, "the sample count must be an integer >= 1, got 0",
        lambda: training.train(_train_config(), (2,), *_no_samples()[1:],
                               rep=embedded_cycle_rep(3, 2))),
    "training.nonlinear_gradient_no_samples": (
        InvalidArgument, "the sample count must be an integer >= 1, got 0",
        lambda: _nonlinear_gradient(*_no_samples()[1:])),
    "training.init_params_one_width": (
        InvalidConfig, "the number of layer widths must be an integer >= 2, got 1",
        lambda: training.init_params((3,), 0)),
    "config.group_preset_zero": (
        InvalidConfig,
        "the argument of group preset 'cyclic_perm:0' must be an integer >= 1, got 0",
        lambda: resolve_group(parse_config_text("group = cyclic_perm:0\ndL = 2\nn = 8\n"))),
}


@pytest.mark.parametrize("error, message, call", list(COUNT_MESSAGES.values()),
                         ids=list(COUNT_MESSAGES))
def test_count_refusals_use_the_kind_phrase(error, message, call):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def _tiny_literals(tree: ast.AST) -> list[str]:
    """Float literals v with 0 < |v| <= 1e-12 in a module: numerical cutoffs."""
    return [f"line {node.lineno}: {node.value!r}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < abs(node.value) <= 1e-12]


def test_only_tolerances_states_numerical_cutoffs():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "tolerances.py" in modules
    offenders = {path.name: _tiny_literals(ast.parse(path.read_text()))
                 for path in modules if path.name != "tolerances.py"}
    assert {name: found for name, found in offenders.items() if found} == {}
    # the scan sees what it forbids, and a negative literal by its magnitude
    assert _tiny_literals(ast.parse((PACKAGE / "tolerances.py").read_text()))
    assert sorted(_tiny_literals(ast.parse("a = -1e-300\nb = 1e-12\nc = 2e-12\nd = 0.0\n"))) == [
        "line 1: 1e-300", "line 2: 1e-12"]


def _tolerances_read(tree: ast.AST) -> set[str]:
    """The names a module reads as ``tol.<NAME>`` or ``from .tolerances import <NAME>``."""
    read = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "tol"):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "tolerances":
            read.update(alias.name for alias in node.names)
    return read


def test_every_tolerance_is_read_by_a_library_module():
    tolerances = ast.parse((PACKAGE / "tolerances.py").read_text())
    defined = {target.id for node in tolerances.body if isinstance(node, ast.Assign)
               for target in node.targets if isinstance(target, ast.Name)}
    assert defined
    read = set().union(*(_tolerances_read(ast.parse(path.read_text()))
                         for path in PACKAGE.glob("*.py") if path.name != "tolerances.py"))
    assert defined - read == set()
    # the scan sees both spellings
    assert _tolerances_read(ast.parse(
        "from . import tolerances as tol\nx = tol.A\nfrom .tolerances import B\n")) == {"A", "B"}


def _rows(extra: int = 5) -> np.ndarray:
    """A C-ordered array of 196-entry rows spanning three blocks and a part."""
    return np.random.default_rng(0).standard_normal((3 * checks.FINITE_BLOCK // 196 + extra, 196))


def _with(a: np.ndarray, index, value) -> np.ndarray:
    a = a.copy()
    a[index] = value
    return a


def _normal(shape) -> np.ndarray:
    return np.random.default_rng(0).standard_normal(shape)


# strided views of C-ordered arrays: (base shape, view, an entry of the base that the
# view keeps, one that it skips)
STRIDED_VIEWS = {
    "3d_step_view": ((8, 400, 300), lambda a: a[:, ::2, ::3], (7, 398, 297), (7, 399, 299)),
    "2d_step_view": ((4000, 400), lambda a: a[::3, ::2], (3999, 398), (3998, 399)),
    "transpose_step_view": ((196, 4096), lambda a: a.T[::2], (195, 4094), (195, 4095)),
}


FINITENESS_CASES = {
    **{f"{value}_{where}_block": (lambda value=value, index=index: _with(_rows(), index, value))
       for value in (np.nan, np.inf, -np.inf)
       for where, index in (("first", (0, 0)), ("last", (-1, -1)))},
    "finite_rows": _rows,
    "overflowing_sum": lambda: np.full(4, 1e308),
    "empty": lambda: np.empty((0, 7)),
    "empty_rows": lambda: np.empty((3 * checks.FINITE_BLOCK, 0)),
    "zero_d": lambda: np.array(2.5),
    "zero_d_nan": lambda: np.array(np.nan),
    "vector_over_blocks": lambda: _with(np.ones(3 * checks.FINITE_BLOCK + 1), -1, np.inf),
    "row_over_a_block": lambda: _with(np.ones((2, checks.FINITE_BLOCK + 3)), (1, -1), np.nan),
    "transposed": lambda: _rows().T,
    "transposed_nan_last": lambda: _with(_rows(), (-1, -1), np.nan).T,
    "transposed_nan_first": lambda: _with(_rows(), (0, 0), np.nan).T,
    "step_3_view": lambda: _rows()[:, ::3],
    "step_3_view_nan_kept": lambda: _with(_rows(), (-1, 195), np.nan)[:, ::3],
    "step_3_view_nan_skipped": lambda: _with(_rows(), (-1, 194), np.nan)[:, ::3],
    "step_3_view_of_transpose": lambda: _with(_rows(), (3, -1), -np.inf).T[:, ::3],
    "integers": lambda: np.arange(12).reshape(3, 4),
    **{f"{name}{suffix}": (lambda shape=shape, view=view, index=index, value=value:
                           view(_with(_normal(shape), index, value)))
       for name, (shape, view, kept, skipped) in STRIDED_VIEWS.items()
       for suffix, index, value in (("", kept, 1.0), ("_nan_kept", kept, np.nan),
                                    ("_inf_skipped", skipped, np.inf))},
}


@pytest.mark.parametrize("make", list(FINITENESS_CASES.values()), ids=list(FINITENESS_CASES))
def test_all_finite_equals_the_whole_array_reduction(make):
    a = make()
    assert checks.all_finite(a) is bool(np.all(np.isfinite(a)))


def _peak_bytes(call) -> int:
    """The most memory ``call`` holds at once beyond what it started with, per tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_finiteness_checks_build_no_mask_of_the_array():
    rng = np.random.default_rng(0)
    weights, scales = rng.standard_normal((8192, 196)), rng.standard_normal(8192)
    x, y = rng.standard_normal((196, 8192))[:, ::2], rng.standard_normal((3, 4096))
    peaks = {"WidthSampleSet": _peak_bytes(lambda: ntk.WidthSampleSet(weights, scales, 0)),
             "check_samples": _peak_bytes(lambda: linalg.check_samples(x, y))}
    for name, (shape, view, _, _) in STRIDED_VIEWS.items():
        a = view(_normal(shape))
        peaks[name] = _peak_bytes(lambda: checks.all_finite(a))
    assert max(peaks.values()) <= 128 * 1024, peaks
