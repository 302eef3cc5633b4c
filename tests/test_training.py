"""Linear-net training, gradients, Adam, and the invariance metrics."""

import numpy as np
import pytest

from invlowrank import groups, linalg, training
from invlowrank.errors import (
    DivergenceDetected,
    InvalidConfig,
    NonOneHotTargets,
    OrbitMeanZero,
)
from invlowrank.training import (
    AdamState,
    LinearNetParams,
    NonlinearNetParams,
    TrainConfig,
    adam_step,
    augment_dataset,
    cross_entropy_objective,
    end_to_end,
    epsilon_inv,
    epsilon_inv_median,
    gradient,
    hardwired_forward,
    init_params,
    mse_objective,
    mse_surrogate,
    nonlinear_forward,
    nonlinear_gradient,
    train,
)

from helpers import embedded_cycle_rep, one_hot, skewed_cycle_rep, standard_instance, trivial_rep
from oracles import finite_difference

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


def test_init_params_deterministic():
    a = init_params((4, 3, 2), seed=5)
    b = init_params((4, 3, 2), seed=5)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    c = init_params((4, 3, 2), seed=6)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_params_rejects_zero_scale():
    with pytest.raises(InvalidConfig):
        init_params((4, 2), seed=0, init_scale=0.0)


def test_init_params_bottleneck_rank():
    params = init_params((4, 2, 3), seed=9)
    assert np.linalg.matrix_rank(end_to_end(params)) <= 2


def test_end_to_end_products():
    ident = LinearNetParams(weights=[np.eye(3), np.eye(3)])
    assert np.array_equal(end_to_end(ident), np.eye(3))
    two = LinearNetParams(weights=[np.diag([3.0, 3.0]), np.diag([2.0, 2.0])])
    assert np.array_equal(end_to_end(two), np.diag([6.0, 6.0]))
    rng = np.random.default_rng(0)
    ws = [rng.standard_normal((4, 5)), rng.standard_normal((3, 4)), rng.standard_normal((2, 3))]
    left = ws[2] @ (ws[1] @ ws[0])
    right = (ws[2] @ ws[1]) @ ws[0]
    assert np.linalg.norm(left - right) < 1e-12 * np.linalg.norm(left)
    assert np.allclose(end_to_end(LinearNetParams(weights=ws)), left)


def test_gradient_zero_at_filling_global_optimum():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 10))
    y = rng.standard_normal((3, 10))
    w_star = y @ x.T @ np.linalg.inv(x @ x.T)
    params = LinearNetParams(weights=[w_star, np.eye(3)])
    grads = gradient(params, x, y, loss="mse")
    assert all(np.linalg.norm(g) < 1e-8 for g in grads)


@pytest.mark.parametrize("dims", [(5, 3), (5, 4, 3), (5, 4, 4, 3)],
                         ids=["depth1", "depth2", "depth3"])
def test_gradient_matches_finite_differences_mse(dims):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 12))
    y = rng.standard_normal((3, 12))
    params = init_params(dims, seed=3)
    analytic = gradient(params, x, y, loss="mse")
    fd = finite_difference(lambda ws: mse_objective(end_to_end(LinearNetParams(list(ws))), x, y),
                           params.weights)
    for a, f in zip(analytic, fd):
        assert rel_err(a, f) < 1e-5


def test_gradient_penalty_term_isolated():
    # with Y = W X the residual vanishes and only the penalty gradient remains
    rng = np.random.default_rng(4)
    rep = embedded_cycle_rep(5, 3)
    g = groups.invariance_constraint(rep)
    x = rng.standard_normal((5, 10))
    params = init_params((5, 3, 2), seed=5)
    w = end_to_end(params)
    lam = 0.7
    grads = gradient(params, x, w @ x, loss="mse", lam=lam, g=g)
    ggt = g.entries @ g.entries.T
    w1, w2 = params.weights
    expected = [
        w2.T @ (2.0 * lam * w @ ggt),
        (2.0 * lam * w @ ggt) @ w1.T,
    ]
    for a, e in zip(grads, expected):
        assert np.linalg.norm(a - e) < 1e-10 * max(1.0, np.linalg.norm(e))


def test_gradient_cross_entropy_finite_differences():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 15))
    y = one_hot(rng.integers(0, 3, 15), 3)
    params = init_params((4, 3, 3), seed=7)
    analytic = gradient(params, x, y, loss="cross_entropy")
    fd = finite_difference(
        lambda ws: cross_entropy_objective(end_to_end(LinearNetParams(list(ws))), x, y),
        params.weights,
    )
    for a, f in zip(analytic, fd):
        assert rel_err(a, f) < 1e-5


def test_gradient_rejects_non_one_hot():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 6))
    params = init_params((4, 3), seed=0)
    with pytest.raises(NonOneHotTargets):
        gradient(params, x, rng.standard_normal((3, 6)), loss="cross_entropy")


def test_adam_first_step_is_signlike():
    params = LinearNetParams(weights=[np.zeros((2, 2))])
    state = AdamState.zeros_like(params)
    config = TrainConfig(mode="augmented", epochs=1, seed=0, learning_rate=0.01)
    grad = np.array([[3.0, -0.25], [1e-3, 5.0]])
    new, _ = adam_step(params, state, [grad], config)
    assert np.allclose(new.weights[0], -0.01 * np.sign(grad), rtol=1e-4)


def test_adam_zero_gradient_keeps_params():
    params = LinearNetParams(weights=[np.full((2, 3), 1.5)])
    state = AdamState.zeros_like(params)
    config = TrainConfig(mode="augmented", epochs=1, seed=0)
    new, _ = adam_step(params, state, [np.zeros((2, 3))], config)
    assert np.array_equal(new.weights[0], params.weights[0])


def test_adam_converges_on_scalar_quadratic():
    params = LinearNetParams(weights=[np.array([[1.0]])])
    state = AdamState.zeros_like(params)
    config = TrainConfig(mode="augmented", epochs=1, seed=0, learning_rate=0.15)
    for _ in range(100):
        grad = [2.0 * params.weights[0]]  # d/dx of x^2
        params, state = adam_step(params, state, grad, config)
    assert abs(params.weights[0][0, 0]) < 1e-3


def test_augment_dataset_trivial_group():
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal((3, 5)), rng.standard_normal((2, 5))
    xa, ya = augment_dataset(x, y, trivial_rep(3))
    assert np.array_equal(xa, x) and np.array_equal(ya, y)


def test_augment_dataset_matches_orbit_objective():
    from invlowrank.solvers import augmented_risk, empirical_risk

    rep = groups.c4_image_rotation(2)
    rng = np.random.default_rng(10)
    x, y = rng.standard_normal((4, 1)), rng.standard_normal((2, 1))
    xa, ya = augment_dataset(x, y, rep)
    assert xa.shape == (4, 4) and ya.shape == (2, 4)
    w = rng.standard_normal((2, 4))
    assert abs(empirical_risk(w, xa, ya) - augmented_risk(w, x, y, rep)) < 1e-14


def test_augment_dataset_invariant_columns_repeat():
    rep = groups.c4_image_rotation(2)
    x = np.full((4, 2), 1.3)  # rotation-fixed images
    y = np.ones((1, 2))
    xa, _ = augment_dataset(x, y, rep)
    for k in range(4):
        assert np.array_equal(xa[:, 2 * k:2 * k + 2], x)


def _assert_surrogate_exact(blocks, x, y, w_points=()):
    """mse_objective and gradient agree on the surrogate and on the raw data."""
    xs, ys = mse_surrogate(blocks)
    assert xs.shape[1] <= x.shape[0] + y.shape[0]
    rng = np.random.default_rng(0)
    scale = float(np.linalg.norm(y) ** 2) / x.shape[1]
    for w in [rng.standard_normal((y.shape[0], x.shape[0])), *w_points]:
        assert abs(mse_objective(w, xs, ys) - mse_objective(w, x, y)) <= 1e-12 * scale
    params = init_params((x.shape[0], 3, y.shape[0]), seed=1)
    for a, b in zip(gradient(params, xs, ys), gradient(params, x, y)):
        assert rel_err(a, b) <= 1e-12


@pytest.mark.parametrize("n", [4, 9, 400], ids=["n<d0+dL", "n=d0+dL", "n>>d0+dL"])
def test_mse_surrogate_matches_raw_data(n):
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal((6, n)), rng.standard_normal((3, n))
    _assert_surrogate_exact([(x, y)], x, y)


def test_mse_surrogate_rank_deficient_x():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 30))
    y = rng.standard_normal((3, 30))
    assert np.linalg.matrix_rank(x) == 2
    _assert_surrogate_exact([(x, y)], x, y)


def test_mse_surrogate_exact_fit_has_zero_residual_block():
    rng = np.random.default_rng(21)
    x, w_true = rng.standard_normal((6, 40)), rng.standard_normal((3, 6))
    y = w_true @ x
    xs, ys = mse_surrogate([(x, y)])
    # R's rows below d0 hold the least-squares residual, which is 0 for an exact fit
    assert np.linalg.norm(ys[:, 6:]) <= 1e-13 * np.linalg.norm(ys)
    assert mse_objective(w_true, xs, ys) <= 1e-26 * float(np.linalg.norm(y) ** 2)
    _assert_surrogate_exact([(x, y)], x, y, w_points=[w_true])


def test_mse_surrogate_folds_the_orbit_element_by_element():
    rep = groups.c4_image_rotation(3)
    rng = np.random.default_rng(22)
    x, y = rng.standard_normal((9, 25)), rng.standard_normal((2, 25))
    x_aug, y_aug = augment_dataset(x, y, rep)
    _assert_surrogate_exact([(g @ x, y) for g in groups.elements(rep)], x_aug, y_aug)


@pytest.mark.parametrize("n", [5, 40], ids=["n<d0+dL", "n>d0+dL"])
def test_mse_surrogate_folds_the_orbit_from_the_data_factor(n):
    # [X^T rho^T Y^T] = [X^T Y^T] diag(rho^T, I): the orbit folds from the data's
    # own surrogate, here under a non-orthogonal rep
    rep = skewed_cycle_rep(6, 3, seed=4)
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal((6, n)), rng.standard_normal((3, n))
    x0, y0 = mse_surrogate([(x, y)])
    x_aug, y_aug = augment_dataset(x, y, rep)
    _assert_surrogate_exact([(g @ x0, y0) for g in groups.elements(rep)], x_aug, y_aug)


@pytest.mark.parametrize("lam", [0.0, 0.01, 3.0])
@pytest.mark.parametrize("n", [5, 40], ids=["n<d0+dL", "n>d0+dL"])
def test_mse_surrogate_folds_the_penalty(n, lam):
    # lam ||W G||^2 = (1/n)||W sqrt(n lam) G - 0||^2: the penalty is one more block,
    # over the n data samples, and none is added for lam = 0
    g = groups.invariance_constraint(skewed_cycle_rep(6, 3, seed=5))
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal((6, n)), rng.standard_normal((3, n))
    blocks = [(x, y)]
    if lam:
        blocks.append((np.sqrt(n * lam) * g.entries, np.zeros((3, g.entries.shape[1]))))
    xs, ys = mse_surrogate(blocks, n)
    assert xs.shape[1] <= x.shape[0] + y.shape[0]
    for seed in range(3):
        w = rng.standard_normal((3, 6))
        expected = mse_objective(w, x, y, lam, g)
        assert abs(mse_objective(w, xs, ys) - expected) <= 1e-12 * expected
        params = init_params((6, 4, 3), seed=seed)
        for a, b in zip(gradient(params, xs, ys), gradient(params, x, y, lam=lam, g=g)):
            assert rel_err(a, b) <= 1e-12


def test_hardwired_forward_is_invariant():
    rep = embedded_cycle_rep(6, 3)
    g = groups.invariance_constraint(rep)
    basis = groups.invariant_basis(g)
    params = init_params((basis.shape[0], 3, 2), seed=11)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((6, 4))
    base = hardwired_forward(params, basis, x)
    for mat in groups.elements(rep):
        assert np.linalg.norm(hardwired_forward(params, basis, mat @ x) - base) < 1e-10


def test_hardwired_epsilon_inv_zero():
    rep = embedded_cycle_rep(6, 3)
    basis = groups.invariant_basis(groups.invariance_constraint(rep))
    params = init_params((basis.shape[0], 3, 1), seed=13)
    x = np.random.default_rng(14).standard_normal(6)
    eps = epsilon_inv(lambda v: float(hardwired_forward(params, basis, v.reshape(-1, 1))[0, 0]),
                      x, rep)
    assert eps <= 1e-24


def test_hardwired_gradient_finite_differences():
    rep = embedded_cycle_rep(6, 3)
    basis = groups.invariant_basis(groups.invariance_constraint(rep))
    rng = np.random.default_rng(15)
    x = rng.standard_normal((6, 9))
    y = rng.standard_normal((2, 9))
    bx = basis @ x
    params = init_params((basis.shape[0], 3, 2), seed=16)
    analytic = gradient(params, bx, y, loss="mse")
    fd = finite_difference(lambda ws: mse_objective(end_to_end(LinearNetParams(list(ws))), bx, y),
                           params.weights)
    for a, f in zip(analytic, fd):
        assert rel_err(a, f) < 1e-5


def test_train_hardwired_w_perp_identically_zero():
    x, y, rep = standard_instance()
    basis = groups.invariant_basis(groups.invariance_constraint(rep))
    config = TrainConfig(mode="hardwired", epochs=60, seed=3)
    log = train(config, (3,), x, y, rep=rep, basis=basis)
    assert len(log.records) == 60
    assert all(rec.w_perp_frob <= 1e-12 for rec in log.records)
    assert all(abs(rec.invariance_ratio - 1.0) < 1e-12 for rec in log.records)


@pytest.mark.parametrize("mode", ["hardwired", "regularized"])
def test_train_derives_basis_and_constraint_from_rep(mode):
    x, y, rep = standard_instance()
    g = groups.invariance_constraint(rep)
    config = TrainConfig(mode=mode, epochs=30, seed=4, lam=0.01)
    explicit = (dict(basis=groups.invariant_basis(g)) if mode == "hardwired"
                else dict(constraint=g))
    a = train(config, (3,), x, y, rep=rep)
    b = train(config, (3,), x, y, rep=rep, **explicit)
    assert np.array_equal(a.final_w, b.final_w)
    assert a.records == b.records


@pytest.mark.parametrize("mode", ["hardwired", "regularized"])
def test_train_takes_an_array_constraint(mode):
    x, y, rep = standard_instance()
    g = np.array(groups.invariance_constraint(rep).entries)
    config = TrainConfig(mode=mode, epochs=30, seed=4, lam=0.01)
    a = train(config, (3,), x, y, constraint=g)
    b = train(config, (3,), x, y, constraint=groups.ConstraintMatrix(g))
    assert np.array_equal(a.final_w, b.final_w)
    assert a.records == b.records


def test_train_deterministic():
    x, y, rep = standard_instance()
    config = TrainConfig(mode="augmented", epochs=40, seed=5)
    a = train(config, (3,), x, y, rep=rep)
    b = train(config, (3,), x, y, rep=rep)
    assert np.array_equal(a.final_w, b.final_w)
    for ra, rb in zip(a.records, b.records):
        assert (ra.objective, ra.w_perp_frob, ra.invariance_ratio, ra.accuracy) == (
            rb.objective, rb.w_perp_frob, rb.invariance_ratio, rb.accuracy)


def test_train_objective_settles_nonincreasing():
    x, y, rep = standard_instance()
    config = TrainConfig(mode="augmented", epochs=800, seed=7)
    log = train(config, (3,), x, y, rep=rep)
    objectives = [rec.objective for rec in log.records]
    for a, b in zip(objectives[50:], objectives[51:]):
        assert b <= a + 1e-7


def test_train_norm_split_identity_every_epoch():
    x, y, rep = standard_instance()
    config = TrainConfig(mode="regularized", epochs=50, seed=9, lam=0.01)
    g = groups.invariance_constraint(rep)
    log = train(config, (3,), x, y, constraint=g)
    # ratio + perp^2/total^2 = 1 since the split is orthogonal
    from invlowrank.solvers import invariance_decomposition

    w = log.final_w
    w_inv, w_perp, ratio = invariance_decomposition(w, g)
    total = np.linalg.norm(w) ** 2
    assert abs(np.linalg.norm(w_inv) ** 2 + np.linalg.norm(w_perp) ** 2 - total) < 1e-10 * total
    assert abs(log.records[-1].invariance_ratio - ratio) < 1e-12


def test_train_regularized_matches_solver():
    from invlowrank.solvers import RegressionProblem, solve_regularized

    x, y, rep = standard_instance()
    g = groups.invariance_constraint(rep)
    prob = RegressionProblem(x=x, y=y, r=3, constraint=g, lam=0.01)
    solver = solve_regularized(prob)
    config = TrainConfig(mode="regularized", epochs=5000, seed=7, lam=0.01)
    log = train(config, (3,), x, y, constraint=g)
    assert abs(log.records[-1].objective - solver.loss) < 1e-4
    assert log.records[-1].w_perp_frob > 1e-3  # finite penalty keeps a non-invariant part


def test_train_augmented_ties_orbit_columns():
    # after convergence the end-to-end columns agree within each pixel orbit
    x, y, rep = standard_instance()
    config = TrainConfig(mode="augmented", epochs=5000, seed=7)
    log = train(config, (3,), x, y, rep=rep)
    perm = rep.generators[0]
    w = log.final_w
    for j in range(16):
        orbit = {j}
        col = j
        for _ in range(3):
            col = int(np.argmax(perm[:, col]))
            orbit.add(col)
        cols = w[:, sorted(orbit)]
        spread = np.max(np.linalg.norm(cols - cols[:, :1], axis=0))
        assert spread < 1e-3


def test_norm_split_identity_every_epoch():
    # mirror a short run and verify the orthogonal split at each step
    x, y, rep = standard_instance()
    g = groups.invariance_constraint(rep)
    from invlowrank.solvers import invariance_decomposition

    config = TrainConfig(mode="augmented", epochs=30, seed=11)
    x_aug, y_aug = augment_dataset(x, y, rep)
    params = init_params((16, 3, 4), config.seed, config.init_scale)
    state = AdamState.zeros_like(params)
    for _ in range(config.epochs):
        grads = gradient(params, x_aug, y_aug, loss="mse")
        params, state = adam_step(params, state, grads, config)
        w = end_to_end(params)
        w_inv, w_perp, _ = invariance_decomposition(w, g)
        total = np.linalg.norm(w) ** 2
        parts = np.linalg.norm(w_inv) ** 2 + np.linalg.norm(w_perp) ** 2
        assert abs(total - parts) < 1e-10 * total


@pytest.mark.parametrize("mode", ["augmented", "hardwired", "regularized"])
def test_train_objective_matches_raw_data_loop_every_epoch(mode):
    # the folded data must reproduce a plain training loop on the mode's raw data
    from invlowrank.solvers import invariance_decomposition
    x, y, rep = standard_instance()
    g = groups.invariance_constraint(rep)
    basis = groups.invariant_basis(g)
    config = TrainConfig(mode=mode, epochs=30, seed=11, lam=0.01)
    x_raw, y_raw, lam, g_pen = {
        "augmented": (*augment_dataset(x, y, rep), 0.0, None),
        "hardwired": (basis @ x, y, 0.0, None),
        "regularized": (x, y, config.lam, g),
    }[mode]
    log = train(config, (3,), x, y, rep=rep)
    params = init_params((x_raw.shape[0], 3, 4), config.seed, config.init_scale)
    state = AdamState.zeros_like(params)
    for rec in log.records:
        grads = gradient(params, x_raw, y_raw, loss="mse", lam=lam, g=g_pen)
        params, state = adam_step(params, state, grads, config)
        expected = mse_objective(end_to_end(params), x_raw, y_raw, lam, g_pen)
        assert abs(rec.objective - expected) <= 1e-12 * expected
        w_full = end_to_end(params) @ basis if mode == "hardwired" else end_to_end(params)
        w_perp = np.linalg.norm(invariance_decomposition(w_full, g)[1])
        # hardwired W_perp is rounding noise, so it is measured against ||W||
        assert abs(rec.w_perp_frob - w_perp) <= 1e-12 * max(w_perp, np.linalg.norm(w_full))
        assert rec.accuracy == np.mean(np.argmax(w_full @ x, axis=0) == np.argmax(y, axis=0))


@pytest.mark.parametrize("epochs", [1, 7, 8, 9, 17])
@pytest.mark.parametrize("mode", ["augmented", "hardwired", "regularized"])
def test_train_block_metrics_match_a_per_epoch_loop(mode, epochs):
    # metrics are taken for blocks of epochs at once; every record, including those
    # of a partial last block, must be the one a per-epoch loop on the raw data logs
    from invlowrank.solvers import invariance_decomposition
    x, y, rep = standard_instance()
    g = groups.invariance_constraint(rep)
    basis = groups.invariant_basis(g)
    config = TrainConfig(mode=mode, epochs=epochs, seed=12, lam=0.05)
    x_raw, y_raw, lam, g_pen = {
        "augmented": (*augment_dataset(x, y, rep), 0.0, None),
        "hardwired": (basis @ x, y, 0.0, None),
        "regularized": (x, y, config.lam, g),
    }[mode]
    log = train(config, (3,), x, y, rep=rep)
    assert [rec.epoch for rec in log.records] == list(range(epochs))
    params = init_params((x_raw.shape[0], 3, 4), config.seed, config.init_scale)
    state = AdamState.zeros_like(params)
    for rec in log.records:
        grads = gradient(params, x_raw, y_raw, loss="mse", lam=lam, g=g_pen)
        params, state = adam_step(params, state, grads, config)
        w = end_to_end(params)
        expected = mse_objective(w, x_raw, y_raw, lam, g_pen)
        assert abs(rec.objective - expected) <= 1e-12 * expected
        w_full = w @ basis if mode == "hardwired" else w
        _, w_perp, ratio = invariance_decomposition(w_full, g)
        w_perp = np.linalg.norm(w_perp)
        assert abs(rec.w_perp_frob - w_perp) <= 1e-12 * max(w_perp, np.linalg.norm(w_full))
        assert abs(rec.invariance_ratio - ratio) <= 1e-12
        assert rec.accuracy == np.mean(np.argmax(w_full @ x, axis=0) == np.argmax(y, axis=0))
    assert rel_err(log.final_w, w_full) <= 1e-12


def test_train_divergence_detected():
    x, y, rep = standard_instance()
    config = TrainConfig(mode="augmented", epochs=4000, seed=1, learning_rate=2e5)
    with pytest.raises(DivergenceDetected):
        train(config, (3,), x, y, rep=rep)


def test_train_cross_entropy_smoke():
    x, y, rep = standard_instance()
    labels = np.argmax(np.vstack([y, -np.sum(y, axis=0, keepdims=True)]), axis=0) % y.shape[0]
    targets = one_hot(labels, y.shape[0])
    config = TrainConfig(mode="augmented", epochs=250, seed=2, loss="cross_entropy")
    log = train(config, (3,), x, targets, rep=rep)
    objectives = [rec.objective for rec in log.records]
    assert np.isfinite(objectives).all()
    assert objectives[-1] < objectives[0]


def test_train_config_validation():
    with pytest.raises(InvalidConfig):
        TrainConfig(mode="bogus", epochs=1, seed=0)
    with pytest.raises(InvalidConfig):
        TrainConfig(mode="augmented", epochs=0, seed=0)
    with pytest.raises(InvalidConfig):
        TrainConfig(mode="augmented", epochs=1, seed=0, learning_rate=0.0)
    with pytest.raises(InvalidConfig):
        TrainConfig(mode="augmented", epochs=1, seed=0, adam_betas=(1.0, 0.999))


def test_nonlinear_forward_examples():
    rng = np.random.default_rng(17)
    params = NonlinearNetParams(hidden=rng.standard_normal((8, 4)),
                                out=rng.standard_normal((1, 8)), activation="relu")
    assert np.allclose(nonlinear_forward(params, np.zeros((4, 1))), 0.0)
    odd = NonlinearNetParams(hidden=params.hidden, out=params.out, activation="tanh")
    x = rng.standard_normal((4, 3))
    assert np.allclose(nonlinear_forward(odd, -x), -nonlinear_forward(odd, x), atol=1e-12)


@pytest.mark.parametrize("activation", ["relu", "leaky_relu", "tanh", "sigmoid"])
def test_nonlinear_gradient_finite_differences(activation):
    rng = np.random.default_rng(18)
    x = rng.standard_normal((4, 10))
    y = rng.standard_normal((2, 10))
    hidden = rng.standard_normal((6, 4))
    # keep pre-activations away from the relu kink
    hidden[np.abs(hidden @ x).min(axis=1) < 1e-3] += 0.5
    out = rng.standard_normal((2, 6))
    params = NonlinearNetParams(hidden=hidden, out=out, activation=activation)

    def objective(ws):
        p = NonlinearNetParams(hidden=ws[0], out=ws[1], activation=activation)
        f = nonlinear_forward(p, x)
        return float(np.linalg.norm(f - y) ** 2) / x.shape[1]

    g_hidden, g_out = nonlinear_gradient(params, x, y)
    fd_hidden, fd_out = finite_difference(objective, [hidden, out])
    bound = 1e-4 if activation == "relu" else 1e-4
    assert rel_err(g_hidden, fd_hidden) < bound
    assert rel_err(g_out, fd_out) < bound


def test_epsilon_inv_examples():
    swap_rep = groups.rep_from_generator(SWAP, 2)
    assert epsilon_inv(lambda v: 2.5, np.array([1.0, 0.0]), swap_rep) == 0.0
    eps = epsilon_inv(lambda v: float(v[0]), np.array([1.0, 0.0]), swap_rep)
    assert abs(eps - 1.0) < 1e-14
    with pytest.raises(OrbitMeanZero):
        epsilon_inv(lambda v: 0.0, np.array([1.0, 0.0]), swap_rep)


def test_epsilon_inv_median():
    swap_rep = groups.rep_from_generator(SWAP, 2)
    xs = np.array([[1.0, 2.0, 3.0], [0.0, 2.0, 1.0]])
    med = epsilon_inv_median(lambda v: float(v[0] + v[1]), xs, swap_rep)
    assert med == 0.0  # the sum of coordinates is swap-invariant
