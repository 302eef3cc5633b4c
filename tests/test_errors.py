"""Every argument check raises a typed package error that is also a ValueError."""

import numpy as np
import pytest

from invlowrank import activations, groups, linalg, ntk, solvers, training
from invlowrank.errors import (ConfigError, EmptyNullSpace, HarnessError, InvalidArgument,
                               InvalidConfig, InvalidGrid, ShapeMismatch)

from helpers import embedded_cycle_rep

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def _two_generators():
    return groups.rep_from_generators([SWAP, np.eye(2)], [2, 1])


def _problem(**kwargs):
    x = np.random.default_rng(0).standard_normal((4, 12))
    return solvers.RegressionProblem(x=x, y=x[:2], **{"r": 1, **kwargs})


def _constraint_only_problem():
    return _problem(constraint=groups.invariance_constraint(embedded_cycle_rep(4, 2)))


def _train(x, y, mode="augmented"):
    return training.train(training.TrainConfig(mode=mode, epochs=1, seed=0), (2,), x, y,
                          rep=embedded_cycle_rep(4, 2))


BAD_CALLS = {
    "solvers.rank_bound": lambda: _problem(r=-1, rep=embedded_cycle_rep(4, 2)),
    "solvers.rank_bound_fraction": lambda: _problem(r=1.5, rep=embedded_cycle_rep(4, 2)),
    "solvers.lambda": lambda: _problem(lam=-1.0, rep=embedded_cycle_rep(4, 2)),
    "solvers.no_constraint": lambda: _problem(),
    "solvers.with_lambda_negative": lambda: solvers.with_lambda(
        _problem(rep=embedded_cycle_rep(4, 2)), -1.0),
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
    "training.train_no_samples": lambda: _train(np.ones((4, 0)), np.ones((2, 0))),
    "training.mse_surrogate_no_blocks": lambda: training.mse_surrogate([]),
    "training.mse_surrogate_zero_samples": lambda: training.mse_surrogate(
        [(np.ones((2, 3)), np.ones((1, 3)))], 0),
    "training.mse_surrogate_empty_blocks": lambda: training.mse_surrogate(
        [(np.ones((2, 0)), np.ones((1, 0)))]),
    "solvers.empirical_risk_lam_without_g": lambda: solvers.empirical_risk(
        np.ones((1, 2)), np.ones((2, 3)), np.ones((1, 3)), lam=0.5),
    "training.mse_objective_lam_without_g": lambda: training.mse_objective(
        np.ones((1, 2)), np.ones((2, 3)), np.ones((1, 3)), lam=0.5),
    "training.cross_entropy_objective_lam_without_g": lambda: training.cross_entropy_objective(
        np.ones((2, 2)), np.ones((2, 3)), np.eye(2)[:, [0, 1, 0]], lam=0.5),
    "training.gradient_lam_without_g": lambda: training.gradient(
        training.init_params((2, 1), seed=0), np.ones((2, 3)), np.ones((1, 3)), lam=0.5),
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


def _bad_data(which: str, bad: float) -> dict:
    x = np.random.default_rng(0).standard_normal((4, 12))
    data = {"x": x, "y": x[:2].copy()}
    data[which][1, 2] = bad
    return data


def _data_with(which: str, bad: float):
    return solvers.RegressionProblem(**_bad_data(which, bad), r=1, rep=embedded_cycle_rep(4, 2))


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
    "solvers.with_lambda_nan": (InvalidArgument, lambda: solvers.with_lambda(
        _problem(rep=embedded_cycle_rep(4, 2)), np.nan)),
    "solvers.grid_nan": (InvalidGrid, lambda: _path_on_grid([1.0, np.nan])),
    "solvers.grid_inf": (InvalidGrid, lambda: _path_on_grid([1.0, np.inf])),
    "training.learning_rate_nan": (InvalidConfig, lambda: _train_config(learning_rate=np.nan)),
    "training.lam_nan": (InvalidConfig, lambda: _train_config(lam=np.nan)),
    "training.init_scale_nan": (InvalidConfig, lambda: _train_config(init_scale=np.nan)),
    "training.adam_eps_nan": (InvalidConfig, lambda: _train_config(adam_eps=np.nan)),
    "training.adam_eps_negative": (InvalidConfig, lambda: _train_config(adam_eps=-1.0)),
    "training.init_params_nan": (InvalidConfig, lambda: training.init_params(
        (2, 1), seed=0, init_scale=np.nan)),
    "training.train_x_nan": (InvalidArgument, lambda: _train(**_bad_data("x", np.nan))),
    "training.train_x_inf": (InvalidArgument, lambda: _train(**_bad_data("x", np.inf),
                                                             mode="hardwired")),
    "training.train_y_nan": (InvalidArgument, lambda: _train(**_bad_data("y", np.nan),
                                                             mode="regularized")),
    "training.train_y_inf": (InvalidArgument, lambda: _train(**_bad_data("y", -np.inf))),
}


@pytest.mark.parametrize("error, call", list(NON_FINITE_CALLS.values()), ids=list(NON_FINITE_CALLS))
def test_non_finite_input_is_rejected_where_it_enters(error, call):
    with pytest.raises(error) as excinfo:
        call()
    assert isinstance(excinfo.value, ConfigError)


# a value of the wrong kind: a fractional count, a grid that is not reals, an array G
WRONG_KIND_CALLS = {
    "training.epochs_fraction": (InvalidConfig, lambda: training.TrainConfig(
        mode="augmented", epochs=1.5, seed=0)),
    "training.init_params_fraction": (InvalidConfig, lambda: training.init_params((3, 2.5), 0)),
    "solvers.grid_text": (InvalidGrid, lambda: _path_on_grid(["a"])),
    "solvers.grid_none": (InvalidGrid, lambda: _path_on_grid(None)),
    "groups.invariant_basis_array": (EmptyNullSpace, lambda: groups.invariant_basis(np.eye(3))),
}


@pytest.mark.parametrize("error, call", list(WRONG_KIND_CALLS.values()),
                         ids=list(WRONG_KIND_CALLS))
def test_wrong_kind_of_value_raises_typed_error(error, call):
    with pytest.raises(error) as excinfo:
        call()
    assert isinstance(excinfo.value, HarnessError)


# a training seed that is not an integer >= 0: TrainConfig and init_params share one check
BAD_SEED_CALLS = {
    "training.config_seed_negative": lambda: training.TrainConfig(
        mode="augmented", epochs=1, seed=-1),
    "training.config_seed_fraction": lambda: training.TrainConfig(
        mode="hardwired", epochs=1, seed=1.5),
    "training.init_params_seed_negative": lambda: training.init_params((2, 1), seed=-1),
    "training.init_params_seed_fraction": lambda: training.init_params((2, 1), seed=1.5),
}


@pytest.mark.parametrize("call", list(BAD_SEED_CALLS.values()), ids=list(BAD_SEED_CALLS))
def test_bad_training_seed_raises_invalid_config(call):
    with pytest.raises(InvalidConfig):
        call()


def _hardwired_with_basis(basis):
    x = np.random.default_rng(0).standard_normal((4, 8))
    return training.train(training.TrainConfig(mode="hardwired", epochs=1, seed=0), (2,),
                          x, x[:2], rep=embedded_cycle_rep(4, 2), basis=basis)


def _train_with_constraint_rows(mode, loss, epochs=1):
    """Train with a genuine constraint on d0 + 1 = 5 inputs for data with d0 = 4."""
    x = np.random.default_rng(0).standard_normal((4, 8))
    config = training.TrainConfig(mode=mode, epochs=epochs, seed=0, loss=loss, lam=0.5)
    return training.train(config, (2,), x, np.eye(2)[:, np.arange(8) % 2],
                          rep=embedded_cycle_rep(4, 2),
                          constraint=groups.invariance_constraint(embedded_cycle_rep(5, 2)))


ONE_HOT_3 = np.eye(2)[:, [0, 1, 0]]


def _nonlinear_net():
    """A two-layer net on 4 inputs with 6 hidden units."""
    return training.NonlinearNetParams(hidden=np.ones((6, 4)), out=np.ones((1, 6)),
                                       activation="relu")

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
    **{f"training.train_samples_{mode}": (
        lambda mode=mode: _train(np.ones((4, 5)), np.ones((2, 6)), mode))
       for mode in training.MODES},
    "training.train_1d_y": lambda: _train(np.ones((4, 5)), np.ones(5)),
    "training.mse_surrogate_1d_x": lambda: training.mse_surrogate([(np.ones(3), np.ones((1, 3)))]),
    "training.mse_surrogate_1d_y": lambda: training.mse_surrogate([(np.ones((2, 3)), np.ones(3))]),
    "training.mse_surrogate_samples": lambda: training.mse_surrogate(
        [(np.ones((2, 3)), np.ones((1, 4)))]),
    "training.mse_surrogate_x_rows": lambda: training.mse_surrogate(
        [(np.ones((2, 3)), np.ones((1, 3))), (np.ones((3, 3)), np.ones((1, 3)))]),
    "training.mse_surrogate_y_rows": lambda: training.mse_surrogate(
        [(np.ones((2, 3)), np.ones((1, 3))), (np.ones((2, 3)), np.ones((2, 3)))]),
    "training.train_rows": lambda: _train(np.ones((3, 5)), np.ones((2, 5))),
    "training.gradient_penalty_rows": lambda: training.gradient(
        training.init_params((2, 1), seed=0), np.ones((2, 3)), np.ones((1, 3)), lam=0.5,
        g=np.ones((3, 2))),
    "training.gradient_cross_entropy_penalty_rows": lambda: training.gradient(
        training.init_params((2, 2), seed=0), np.ones((2, 3)), ONE_HOT_3,
        loss="cross_entropy", lam=0.5, g=np.ones((3, 2))),
    "training.cross_entropy_objective_penalty_rows": lambda: training.cross_entropy_objective(
        np.ones((2, 2)), np.ones((2, 3)), ONE_HOT_3, lam=0.5, g=np.ones((3, 2))),
    "solvers.problem_constraint_rows": lambda: _problem(
        constraint=groups.invariance_constraint(embedded_cycle_rep(5, 2))),
    "solvers.empirical_risk_penalty_rows": lambda: solvers.empirical_risk(
        np.ones((1, 2)), np.ones((2, 3)), np.ones((1, 3)), g=np.ones((3, 2)), lam=0.5),
    "training.train_cross_entropy_regularized_constraint_rows": lambda: (
        _train_with_constraint_rows("regularized", "cross_entropy")),
    "ntk.width_sample_scales": lambda: ntk.WidthSampleSet(
        weights=np.ones((2, 3)), out_scales=np.ones(3), seed=0),
    "ntk.relu_limiting_ntk_dims": lambda: ntk.relu_limiting_ntk(np.ones(3), np.ones(4)),
    "ntk.empirical_ntk_terms_dims": lambda: ntk.empirical_ntk_terms(
        ntk.sample_width_set(4, 8, seed=0), "relu", np.ones(3), np.ones(3)),
    "solvers.problem_rep_rows": lambda: _problem(
        constraint=groups.invariance_constraint(embedded_cycle_rep(4, 2)),
        rep=embedded_cycle_rep(5, 2)),
    "training.train_hardwired_rep_rows": lambda: training.train(
        training.TrainConfig(mode="hardwired", epochs=1, seed=0), (2,), np.ones((4, 5)),
        np.ones((2, 5)), rep=embedded_cycle_rep(5, 2),
        constraint=groups.invariance_constraint(embedded_cycle_rep(4, 2))),
    "ntk.relu_limiting_ntk_2d": lambda: ntk.relu_limiting_ntk(np.eye(2), np.eye(2)),
    "ntk.empirical_ntk_terms_2d": lambda: ntk.empirical_ntk_terms(
        ntk.sample_width_set(2, 8, seed=0), "relu", np.eye(2), np.eye(2)),
    "ntk.augmented_kernel_dims": lambda: ntk.augmented_kernel(
        ntk.relu_limiting_ntk, embedded_cycle_rep(4, 2), np.ones(3), np.ones(3)),
    "ntk.conv_forward_dims": lambda: ntk.conv_forward(
        ntk.sample_width_set(4, 8, seed=0), "relu", embedded_cycle_rep(4, 2), np.ones(3)),
    "ntk.conv_empirical_ntk_dims": lambda: ntk.conv_empirical_ntk(
        ntk.sample_width_set(4, 8, seed=0), "relu", embedded_cycle_rep(4, 2), np.ones(3),
        np.ones(3)),
    "ntk.orbit_symmetrize_dims": lambda: ntk.orbit_symmetrize(
        ntk.sample_width_set(3, 8, seed=0), embedded_cycle_rep(4, 2)),
    "ntk.build_kernel_matrix_1d": lambda: ntk.build_kernel_matrix(
        ntk.relu_limiting_ntk, np.ones(3)),
    "ntk.kernel_interpolate_targets": lambda: ntk.kernel_interpolate(
        ntk.KernelMatrix(entries=np.eye(3), jitter=0.0), np.ones(4)),
    "ntk.kernel_predict_extra_coeffs": lambda: ntk.kernel_predict(
        ntk.relu_limiting_ntk, np.ones((3, 2)), np.ones(3), np.ones(3)),
    "ntk.kernel_predict_missing_coeffs": lambda: ntk.kernel_predict(
        ntk.relu_limiting_ntk, np.ones((3, 2)), np.ones(1), np.ones(3)),
    "ntk.conv_forward_weights": lambda: ntk.conv_forward(
        ntk.sample_width_set(3, 8, seed=0), "relu", groups.rotation_2d(4), np.ones(2)),
    "ntk.conv_empirical_ntk_weights": lambda: ntk.conv_empirical_ntk(
        ntk.sample_width_set(3, 8, seed=0), "relu", groups.rotation_2d(4), np.ones(2),
        np.ones(2)),
    "training.nonlinear_forward_rows": lambda: training.nonlinear_forward(
        _nonlinear_net(), np.ones((3, 5))),
    "training.nonlinear_gradient_rows": lambda: training.nonlinear_gradient(
        _nonlinear_net(), np.ones((3, 5)), np.ones((1, 5))),
    "training.linear_net_params_chain": lambda: training.LinearNetParams(
        [np.ones((2, 3)), np.ones((1, 3))]),
    "training.nonlinear_net_params_out_columns": lambda: training.NonlinearNetParams(
        np.ones((6, 4)), np.ones((1, 5)), "relu"),
    "training.hardwired_forward_basis_rows": lambda: training.hardwired_forward(
        training.init_params((3, 2), seed=0), np.ones((4, 5)), np.ones((5, 6))),
}


@pytest.mark.parametrize("call", list(SHAPE_CALLS.values()), ids=list(SHAPE_CALLS))
def test_bad_shape_raises_shape_mismatch(call):
    with pytest.raises(ShapeMismatch):
        call()


@pytest.mark.parametrize("loss", training.LOSSES)
@pytest.mark.parametrize("mode", training.MODES)
def test_train_rejects_constraint_rows_before_the_first_gradient(monkeypatch, mode, loss):
    calls = []
    real_gradient = training.gradient

    def counted_gradient(*args, **kwargs):
        calls.append(1)
        return real_gradient(*args, **kwargs)

    monkeypatch.setattr(training, "gradient", counted_gradient)
    with pytest.raises(ShapeMismatch):
        _train_with_constraint_rows(mode, loss, epochs=20)
    assert not calls
