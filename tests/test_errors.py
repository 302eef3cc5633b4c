"""Every argument check raises a typed package error that is also a ValueError."""

import numpy as np
import pytest

from invlowrank import activations, groups, linalg, ntk, solvers, training
from invlowrank.errors import ConfigError, HarnessError, InvalidArgument, ShapeMismatch

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
}


@pytest.mark.parametrize("call", list(SHAPE_CALLS.values()), ids=list(SHAPE_CALLS))
def test_bad_shape_raises_shape_mismatch(call):
    with pytest.raises(ShapeMismatch):
        call()
