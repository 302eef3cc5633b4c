"""Every argument check raises a typed package error that is also a ValueError."""

import numpy as np
import pytest

from invlowrank import activations, groups, linalg, ntk, solvers, training
from invlowrank.errors import (ConfigError, HarnessError, InvalidArgument, InvalidConfig,
                               InvalidGrid, ShapeMismatch)

from helpers import embedded_cycle_rep

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def _two_generators():
    return groups.rep_from_generators([SWAP, np.eye(2)], [2, 1])


def _problem(**kwargs):
    x = np.random.default_rng(0).standard_normal((4, 12))
    return solvers.RegressionProblem(x=x, y=x[:2], **{"r": 1, **kwargs})


def _constraint_only_problem():
    return _problem(constraint=groups.invariance_constraint(embedded_cycle_rep(4, 2)))


BAD_CALLS = {
    "solvers.rank_bound": lambda: _problem(r=-1, rep=embedded_cycle_rep(4, 2)),
    "solvers.lambda": lambda: _problem(lam=-1.0, rep=embedded_cycle_rep(4, 2)),
    "solvers.no_constraint": lambda: _problem(),
    "solvers.augmented_without_rep": lambda: solvers.solve_augmented(_constraint_only_problem()),
    "solvers.unknown_mode": lambda: solvers.enumerate_critical_points(
        _constraint_only_problem(), "bogus"),
    "groups.order_of_multi_generator": lambda: _two_generators().order,
    "groups.generator_order": lambda: groups.rep_from_generator(np.eye(2), 0),
    "groups.orders_per_generator": lambda: groups.rep_from_generators([SWAP], [2, 2]),
    "groups.c4_grid_side": lambda: groups.c4_image_rotation(0),
    "groups.cyclic_dimension": lambda: groups.cyclic_permutation(0),
    "groups.rotation_order": lambda: groups.rotation_2d(0),
    "groups.element_multi_generator": lambda: groups.element(_two_generators(), 0),
    "groups.elements_multi_generator": lambda: groups.elements(_two_generators()),
    "training.unknown_loss": lambda: training.gradient(
        training.init_params((2, 1), seed=0), np.ones((2, 3)), np.ones((1, 3)), loss="bogus"),
    "activations.unknown": lambda: activations.get_activation("bogus"),
    "ntk.non_finite_samples": lambda: ntk.WidthSampleSet(
        weights=np.full((2, 3), np.nan), out_scales=np.ones(2), seed=0),
}


@pytest.mark.parametrize("call", list(BAD_CALLS.values()), ids=list(BAD_CALLS))
def test_bad_argument_raises_typed_error(call):
    with pytest.raises(HarnessError) as excinfo:
        call()
    assert isinstance(excinfo.value, InvalidArgument)
    assert isinstance(excinfo.value, ConfigError)
    assert isinstance(excinfo.value, ValueError)


def _data_with(which: str, bad: float):
    x = np.random.default_rng(0).standard_normal((4, 12))
    data = {"x": x, "y": x[:2].copy()}
    data[which][1, 2] = bad
    return solvers.RegressionProblem(**data, r=1, rep=embedded_cycle_rep(4, 2))


def _path_on_grid(grid):
    return solvers.regularization_path(_problem(rep=embedded_cycle_rep(4, 2)), grid)


def _train_config(**kwargs):
    return training.TrainConfig(mode="regularized", epochs=1, seed=0, **kwargs)


NON_FINITE_CALLS = {
    "solvers.x_nan": (InvalidArgument, lambda: _data_with("x", np.nan)),
    "solvers.x_inf": (InvalidArgument, lambda: _data_with("x", np.inf)),
    "solvers.y_nan": (InvalidArgument, lambda: _data_with("y", np.nan)),
    "solvers.lambda_nan": (InvalidArgument, lambda: _problem(lam=np.nan,
                                                              rep=embedded_cycle_rep(4, 2))),
    "solvers.lambda_inf": (InvalidArgument, lambda: _problem(lam=np.inf,
                                                              rep=embedded_cycle_rep(4, 2))),
    "solvers.grid_nan": (InvalidGrid, lambda: _path_on_grid([1.0, np.nan])),
    "solvers.grid_inf": (InvalidGrid, lambda: _path_on_grid([1.0, np.inf])),
    "training.learning_rate_nan": (InvalidConfig, lambda: _train_config(learning_rate=np.nan)),
    "training.lam_nan": (InvalidConfig, lambda: _train_config(lam=np.nan)),
    "training.init_scale_nan": (InvalidConfig, lambda: _train_config(init_scale=np.nan)),
    "training.adam_eps_nan": (InvalidConfig, lambda: _train_config(adam_eps=np.nan)),
    "training.adam_eps_negative": (InvalidConfig, lambda: _train_config(adam_eps=-1.0)),
    "training.init_params_nan": (InvalidConfig, lambda: training.init_params(
        (2, 1), seed=0, init_scale=np.nan)),
}


@pytest.mark.parametrize("error, call", list(NON_FINITE_CALLS.values()), ids=list(NON_FINITE_CALLS))
def test_non_finite_input_is_rejected_where_it_enters(error, call):
    with pytest.raises(error) as excinfo:
        call()
    assert isinstance(excinfo.value, ConfigError)


def _hardwired_with_basis(basis):
    x = np.random.default_rng(0).standard_normal((4, 8))
    return training.train(training.TrainConfig(mode="hardwired", epochs=1, seed=0), (2,),
                          x, x[:2], rep=embedded_cycle_rep(4, 2), basis=basis)


SHAPE_CALLS = {
    "training.augment_dataset_rows": lambda: training.augment_dataset(
        np.ones((3, 5)), np.ones((2, 5)), embedded_cycle_rep(4, 2)),
    "training.augment_dataset_samples": lambda: training.augment_dataset(
        np.ones((4, 5)), np.ones((2, 6)), embedded_cycle_rep(4, 2)),
    "solvers.augmented_risk_rows": lambda: solvers.augmented_risk(
        np.ones((2, 4)), np.ones((3, 5)), np.ones((2, 5)), embedded_cycle_rep(4, 2)),
    "training.epsilon_inv_rows": lambda: training.epsilon_inv(
        lambda v: 1.0, np.ones(3), embedded_cycle_rep(4, 2)),
    "training.hardwired_basis_columns": lambda: _hardwired_with_basis(np.ones((3, 5))),
    "solvers.invariance_decomposition_1d": lambda: solvers.invariance_decomposition(
        np.ones(2), SWAP),
    "solvers.empirical_risk_1d": lambda: solvers.empirical_risk(
        np.ones(2), np.ones((2, 3)), np.ones((1, 3))),
    "linalg.svd_1d": lambda: linalg.svd(np.ones(3)),
    "linalg.best_rank_r_1d": lambda: linalg.best_rank_r(np.ones(3), 1),
    "training.cross_entropy_objective_columns": lambda: training.cross_entropy_objective(
        np.ones((2, 3)), np.ones((4, 5)), np.ones((2, 5))),
    "training.cross_entropy_objective_targets": lambda: training.cross_entropy_objective(
        np.ones((2, 4)), np.ones((4, 5)), np.ones((3, 5))),
    "solvers.augmented_risk_columns": lambda: solvers.augmented_risk(
        np.ones((2, 3)), np.ones((4, 5)), np.ones((2, 5)), embedded_cycle_rep(4, 2)),
    "solvers.augmented_risk_outputs": lambda: solvers.augmented_risk(
        np.ones((2, 4)), np.ones((4, 5)), np.ones((3, 5)), embedded_cycle_rep(4, 2)),
    "training.hardwired_forward_basis_columns": lambda: training.hardwired_forward(
        training.init_params((3, 2), seed=0), np.ones((3, 5)), np.ones((4, 6))),
    "training.epsilon_inv_median_1d": lambda: training.epsilon_inv_median(
        lambda v: 1.0, np.ones(4), embedded_cycle_rep(4, 2)),
    "linalg.singular_values_1d": lambda: linalg.singular_values(np.ones(3)),
    "linalg.numerical_rank_1d": lambda: linalg.numerical_rank(np.ones(3)),
    "ntk.width_sample_scales": lambda: ntk.WidthSampleSet(
        weights=np.ones((2, 3)), out_scales=np.ones(3), seed=0),
    "ntk.relu_limiting_ntk_dims": lambda: ntk.relu_limiting_ntk(np.ones(3), np.ones(4)),
    "ntk.empirical_ntk_terms_dims": lambda: ntk.empirical_ntk_terms(
        ntk.sample_width_set(4, 8, seed=0), "relu", np.ones(3), np.ones(3)),
}


@pytest.mark.parametrize("call", list(SHAPE_CALLS.values()), ids=list(SHAPE_CALLS))
def test_bad_shape_raises_shape_mismatch(call):
    with pytest.raises(ShapeMismatch):
        call()
