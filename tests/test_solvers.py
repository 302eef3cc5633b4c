"""Closed-form solvers, the regularization path, and critical points."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from invlowrank import groups, linalg, solvers
from invlowrank.errors import (
    DegenerateSpectrum,
    InvalidGrid,
    ShapeMismatch,
    SingularData,
    TooManySubsets,
)
from invlowrank.solvers import (
    RegressionProblem,
    augmented_risk,
    empirical_risk,
    enumerate_critical_points,
    invariance_decomposition,
    regularization_path,
    solve_augmented,
    solve_constrained,
    solve_regularized,
    with_lambda,
)
from invlowrank.training import augment_dataset

from helpers import embedded_cycle_rep, random_problem, skewed_cycle_rep, trivial_rep
from oracles import (
    factored_gradient_descent,
    factored_hessian_inertia,
    projected_gradient_augmented,
    projected_gradient_constrained,
)

SWAP_G = np.array([[1.0, -1.0], [-1.0, 1.0]])


def unconstrained_rrr(x, y, r):
    p_inv = linalg.pd_inv_sqrt(x @ x.T)
    return linalg.best_rank_r(y @ x.T @ p_inv, r) @ p_inv


def test_problem_takes_an_array_constraint():
    base = random_problem(3)
    g = np.array(base.constraint.entries)
    a, b = (solve_constrained(RegressionProblem(x=base.x, y=base.y, r=base.r, constraint=c))
            for c in (g, groups.ConstraintMatrix(g)))
    assert np.array_equal(a.w, b.w)
    assert (a.loss, a.rank, a.invariance_residual, a.warnings) == (
        b.loss, b.rank, b.invariance_residual, b.warnings)


def test_problem_validates_shapes_and_data():
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeMismatch):
        RegressionProblem(x=rng.standard_normal((3, 5)), y=rng.standard_normal((2, 4)),
                          r=1, rep=trivial_rep(3))
    with pytest.raises(SingularData):
        x = np.zeros((3, 6))
        RegressionProblem(x=x, y=rng.standard_normal((2, 6)), r=1, rep=trivial_rep(3))


def test_problem_flags():
    prob = random_problem(seed=0, d0=8, dl=5, order=4, r=2)
    assert "NonFilling" in prob.flags
    vac = random_problem(seed=0, d0=6, dl=5, order=5, r=3)  # d = 2 <= r
    assert "RankConstraintVacuous" in vac.flags
    full = random_problem(seed=0, d0=6, dl=3, order=2, r=3)
    assert "Filling" in full.flags


def test_constrained_trivial_constraint_is_reduced_rank_regression():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 15))
    y = rng.standard_normal((4, 15))
    prob = RegressionProblem(x=x, y=y, r=2, rep=trivial_rep(5))
    sol = solve_constrained(prob)
    assert np.linalg.norm(sol.w - unconstrained_rrr(x, y, 2)) < 1e-12


def test_constrained_recovers_invariant_low_rank_target():
    # X = I, Y invariant with rank <= r: zero-loss fixed point
    rep = embedded_cycle_rep(6, 3)
    g = groups.invariance_constraint(rep)
    basis = groups.invariant_basis(g)  # 4 x 6
    rng = np.random.default_rng(2)
    y = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4)) @ basis
    prob = RegressionProblem(x=np.eye(6), y=y, r=2, constraint=g)
    sol = solve_constrained(prob)
    assert np.linalg.norm(sol.w - y) < 1e-10
    assert sol.loss < 1e-20


def test_constrained_beats_projected_gradient_oracle():
    prob = random_problem(seed=3, d0=8, dl=5, order=4, r=2, n=20)
    sol = solve_constrained(prob)
    oracle = projected_gradient_constrained(
        prob.x, prob.y, prob.constraint.entries, prob.r, restarts=20, iters=800, seed=5
    )
    assert sol.loss <= oracle + 1e-9


def test_constrained_invariance_residual_scaled():
    for seed in range(5):
        prob = random_problem(seed=seed)
        sol = solve_constrained(prob)
        bound = 1e-9 * np.linalg.norm(sol.w) * np.linalg.norm(prob.constraint.entries)
        assert sol.invariance_residual < bound
        assert sol.rank <= prob.r


def test_regularized_lambda_zero_matches_unconstrained():
    prob = random_problem(seed=4, d0=7, dl=4, order=3, r=2)
    sol = solve_regularized(with_lambda(prob, 0.0))
    assert np.linalg.norm(sol.w - unconstrained_rrr(prob.x, prob.y, 2)) < 1e-12


def test_regularized_large_lambda_approaches_constrained():
    prob = random_problem(seed=5)
    w_inv = solve_constrained(prob).w
    scaled = {}
    for lam in (1e4, 1e8, 1e12):
        w_reg = solve_regularized(with_lambda(prob, lam)).w
        distance = np.linalg.norm(w_reg - w_inv) / np.linalg.norm(w_inv)
        assert distance < 1e-3
        scaled[lam] = lam * distance
    # the penalized optimum approaches the hard-wired one as 1/lambda
    for lam in (1e8, 1e12):
        assert abs(scaled[lam] - scaled[1e4]) <= 0.1 * scaled[1e4]


@pytest.mark.parametrize("lam", [1e-3, 0.1, 10.0, 1e4])
@pytest.mark.parametrize("seed, d0, dl, order, r", [
    (40, 6, 3, 3, 1), (41, 8, 5, 4, 2), (42, 7, 4, 2, 2), (43, 9, 6, 5, 3),
])
def test_regularized_is_rank_r_regression_on_the_penalized_gram(seed, d0, dl, order, r, lam):
    # independent form: W = best_rank_r(Y X^T S^-1/2, r) S^-1/2 with S = X X^T + n lambda G G^T
    prob = with_lambda(random_problem(seed=seed, d0=d0, dl=dl, order=order, r=r), lam)
    g = prob.constraint.entries
    s_inv = linalg.pd_inv_sqrt(prob.x @ prob.x.T + prob.n * lam * g @ g.T)
    target = prob.y @ prob.x.T @ s_inv
    expected = linalg.best_rank_r(target, r) @ s_inv
    w = solve_regularized(prob).w
    assert np.linalg.norm(w - expected) <= 1e-8 * np.linalg.norm(expected)
    sigma_sq = np.linalg.svd(target, compute_uv=False) ** 2
    points = enumerate_critical_points(prob, "regularized")
    assert len(points) == math.comb(dl, r)
    for point in points:
        left_out = sigma_sq.sum() - sigma_sq[list(point.index_set)].sum()
        assert abs(point.loss - left_out) <= 1e-8 * left_out


def test_regularized_beats_factored_descent_oracle():
    prob = with_lambda(random_problem(seed=6, d0=6, dl=4, order=3, r=2, n=18), 0.1)
    sol = solve_regularized(prob)
    oracle = factored_gradient_descent(
        prob.x, prob.y, prob.constraint.entries, prob.r, lam=0.1,
        restarts=10, iters=1500, seed=7,
    )
    assert sol.loss <= oracle + 1e-6


def test_regularized_finite_lambda_not_invariant():
    prob = with_lambda(random_problem(seed=7, invariant_wtrue=False), 0.01)
    sol = solve_regularized(prob)
    assert sol.invariance_residual > 1e-3  # finite penalty leaves a non-invariant part


def test_regularized_loss_is_penalized_objective():
    prob = with_lambda(random_problem(seed=8), 0.05)
    sol = solve_regularized(prob)
    direct = empirical_risk(sol.w, prob.x, prob.y, g=prob.constraint, lam=0.05)
    assert abs(sol.loss - direct) < 1e-12 * max(1.0, abs(direct))


def test_augmented_trivial_group_is_reduced_rank_regression():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 12))
    y = rng.standard_normal((3, 12))
    prob = RegressionProblem(x=x, y=y, r=2, rep=trivial_rep(5))
    sol = solve_augmented(prob)
    assert np.linalg.norm(sol.w - unconstrained_rrr(x, y, 2)) < 1e-12


def test_augmented_unitary_rep_is_invariant():
    for seed in range(5):
        prob = random_problem(seed=seed, d0=9, dl=4, order=5, r=2)
        sol = solve_augmented(prob)
        bound = 1e-9 * np.linalg.norm(sol.w) * np.linalg.norm(prob.constraint.entries)
        assert sol.invariance_residual < bound


def test_augmented_equals_constrained_for_unitary_reps():
    for seed in range(5):
        prob = random_problem(seed=seed + 20)
        w_da = solve_augmented(prob).w
        w_inv = solve_constrained(prob).w
        assert np.linalg.norm(w_da - w_inv) / np.linalg.norm(w_inv) < 1e-8


def test_augmented_valid_non_unitary_rep_still_invariant():
    # any exact finite-order generator is similar to an orthogonal one, and the
    # similarity can be absorbed into the data, so full-orbit augmentation still
    # lands on an invariant map even without unitarity
    rep = skewed_cycle_rep(8, 4, seed=1)
    assert not groups.is_unitary(rep, 1e-10)
    prob = random_problem(seed=11, d0=8, dl=5, order=4, r=2, rep=rep,
                          invariant_wtrue=False)
    sol = solve_augmented(prob)
    scale = np.linalg.norm(sol.w) * np.linalg.norm(prob.constraint.entries)
    assert sol.invariance_residual < 1e-9 * scale


def test_augmented_broken_order_axiom_not_invariant():
    # with a diag-scaled generator whose declared order is not exact the
    # averaged transforms no longer form a group, and the optimum of the
    # averaged objective is visibly non-invariant
    gen = np.diag([2.0, 0.5, 1.0, 1.0])
    rep = groups.GroupRep(generators=(gen,), orders=(2,))  # order check skipped
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 12))
    y = rng.standard_normal((3, 12))
    prob = RegressionProblem(x=x, y=y, r=1, rep=rep)
    sol = solve_augmented(prob)
    scale = np.linalg.norm(sol.w) * np.linalg.norm(prob.constraint.entries)
    assert sol.invariance_residual > 1e-3 * scale


def test_augmented_beats_projected_gradient_oracle():
    prob = random_problem(seed=12, d0=8, dl=5, order=4, r=2, n=20)
    sol = solve_augmented(prob)
    x_aug, y_aug = augment_dataset(prob.x, prob.y, prob.rep)
    oracle = projected_gradient_augmented(x_aug, y_aug, prob.r,
                                          restarts=20, iters=800, seed=13)
    assert sol.loss <= oracle + 1e-9


def test_augmented_loss_matches_orbit_average():
    prob = random_problem(seed=14)
    sol = solve_augmented(prob)
    assert abs(sol.loss - augmented_risk(sol.w, prob.x, prob.y, prob.rep)) < 1e-14


def test_rank_bound_above_min_dimension_is_inactive():
    # r > min(d0, dL) keeps every singular triple, exactly as r = dL does
    rng = np.random.default_rng(32)
    x = rng.standard_normal((6, 18))
    y = rng.standard_normal((3, 18))
    rep = groups.cyclic_permutation(6)
    at_dl = RegressionProblem(x=x, y=y, r=3, rep=rep, lam=0.1)
    above = RegressionProblem(x=x, y=y, r=4, rep=rep, lam=0.1)
    for solver in (solve_constrained, solve_regularized, solve_augmented):
        assert np.array_equal(solver(above).w, solver(at_dl).w)
    grid = [0.1, 1.0, 10.0]
    for a, b in zip(regularization_path(above, grid), regularization_path(at_dl, grid)):
        assert np.array_equal(a.w, b.w)


def test_path_rejects_bad_grids():
    prob = random_problem(seed=15)
    with pytest.raises(InvalidGrid):
        regularization_path(prob, [0.0])
    with pytest.raises(InvalidGrid):
        regularization_path(prob, [])
    with pytest.raises(InvalidGrid):
        regularization_path(prob, [1.0, 0.5])
    with pytest.raises(InvalidGrid):
        regularization_path(prob, [-1.0, 1.0])


def test_path_distance_decreases_along_geometric_grid():
    prob = random_problem(seed=16)
    grid = np.geomspace(1e-3, 1e6, 19)
    samples = regularization_path(prob, grid)
    assert len(samples) == 19
    dists = [s.distance_to_inv for s in samples]
    for a, b in zip(dists, dists[1:]):
        assert b <= a + 1e-9
    assert dists[-1] < dists[0]


def test_path_refinement_shrinks_jumps():
    prob = random_problem(seed=17)
    grid = np.geomspace(1e-3, 1e6, 19)
    samples = regularization_path(prob, grid)
    jumps = [np.linalg.norm(b.w - a.w) for a, b in zip(samples, samples[1:])]
    k = int(np.argmax(jumps))
    fine = np.geomspace(grid[k], grid[k + 1], 11)
    fine_samples = regularization_path(prob, fine)
    fine_jumps = [np.linalg.norm(b.w - a.w) for a, b in zip(fine_samples, fine_samples[1:])]
    assert max(fine_jumps) <= jumps[k] / 5.0


def test_critical_points_3_2_1_spectrum():
    # whitened target diag(3, 2, 1): losses 5, 10, 13, global min at 5
    prob = RegressionProblem(x=np.eye(3), y=np.diag([3.0, 2.0, 1.0]), r=1,
                             rep=trivial_rep(3))
    points = enumerate_critical_points(prob, "constrained")
    assert [p.index_set for p in points] == [(0,), (1,), (2,)]
    assert np.allclose([p.loss for p in points], [5.0, 10.0, 13.0])
    assert [p.is_global_min for p in points] == [True, False, False]
    assert np.allclose(points[0].w, np.diag([3.0, 0.0, 0.0]), atol=1e-12)


def test_critical_point_counts_by_mode():
    # d = 4 for C4 on a 4x4 grid; m = min(16, 5) = 5
    rep = groups.c4_image_rotation(4)
    prob = random_problem(seed=18, d0=16, dl=5, r=2, n=48, rep=rep)
    constrained = enumerate_critical_points(prob, "constrained")
    augmented = enumerate_critical_points(prob, "augmented")
    regularized = enumerate_critical_points(with_lambda(prob, 0.1), "regularized")
    assert len(constrained) == math.comb(4, 2) == 6
    assert len(augmented) == 6
    assert len(regularized) == math.comb(5, 2) == 10
    for points in (constrained, augmented, regularized):
        assert sum(p.is_global_min for p in points) == 1
        assert points[0].is_global_min
        losses = [p.loss for p in points]
        assert losses == sorted(losses)


def test_critical_point_loss_is_whitened_distance():
    # point.loss equals ||zbar - W P||^2 with the whitened target rebuilt here
    prob = random_problem(seed=31, d0=8, dl=5, order=4, r=2)
    p = linalg.pd_sqrt(prob.x @ prob.x.T)
    p_inv = linalg.pd_inv_sqrt(prob.x @ prob.x.T)
    z = prob.y @ prob.x.T @ p_inv
    zbar = z @ linalg.left_null_projector(p_inv @ prob.constraint.entries)
    for point in enumerate_critical_points(prob, "constrained"):
        direct = float(np.linalg.norm(zbar - point.w @ p) ** 2)
        assert abs(direct - point.loss) < 1e-9 * max(1.0, point.loss)


def test_critical_global_min_matches_solver():
    prob = random_problem(seed=19, d0=8, dl=5, order=4, r=2)
    assert np.linalg.norm(
        enumerate_critical_points(prob, "constrained")[0].w - solve_constrained(prob).w
    ) < 1e-9
    assert np.linalg.norm(
        enumerate_critical_points(prob, "augmented")[0].w - solve_augmented(prob).w
    ) < 1e-9
    reg = with_lambda(prob, 0.3)
    assert np.linalg.norm(
        enumerate_critical_points(reg, "regularized")[0].w - solve_regularized(reg).w
    ) < 1e-9


def test_critical_constrained_and_augmented_sets_coincide():
    prob = random_problem(seed=20, d0=8, dl=5, order=4, r=2)
    set_c = enumerate_critical_points(prob, "constrained")
    set_a = enumerate_critical_points(prob, "augmented")
    for pc in set_c:
        assert min(np.linalg.norm(pc.w - pa.w) for pa in set_a) < 1e-8


def test_critical_points_rank_zero():
    prob = random_problem(seed=21, r=0)
    points = enumerate_critical_points(prob, "constrained")
    assert len(points) == 1
    assert points[0].index_set == ()
    assert np.all(points[0].w == 0.0)
    assert points[0].is_global_min


def test_critical_points_degenerate_spectrum():
    prob = RegressionProblem(x=np.eye(3), y=np.diag([3.0, 3.0, 1.0]), r=1,
                             rep=trivial_rep(3))
    with pytest.raises(DegenerateSpectrum):
        enumerate_critical_points(prob, "constrained")


def test_one_tie_rule_for_solver_path_and_enumeration():
    # sigma = (1e4, 1, 1 - 1e-6): the gap 1e-6 is large against sigma_2 but
    # below 1e-8 sigma_max, so every reader calls sigma_2, sigma_3 tied
    prob = RegressionProblem(x=np.eye(3), y=np.diag([1e4, 1.0, 1.0 - 1e-6]), r=2,
                             rep=trivial_rep(3))
    assert "NonUniqueOptimum" in solve_constrained(prob).warnings
    assert "NonUniqueOptimum" in solve_regularized(with_lambda(prob, 0.5)).warnings
    samples = regularization_path(prob, [1e-3, 1.0, 1e3])
    assert all("NonUniqueOptimum" in s.warnings for s in samples)
    assert not any("SpectralGapSmall" in s.warnings for s in samples)
    with pytest.raises(DegenerateSpectrum):
        enumerate_critical_points(prob, "constrained")


# C(16, 7) = 11440 index sets of a 16 x 120 target: a W per index set would hold about 170 MB
# The child's own traced peak: its ru_maxrss would start at the peak of the process that
# started it, which Linux carries through exec.
_ENUMERATION_PEAK_CHILD = """
import tracemalloc
import numpy as np
from invlowrank import groups, solvers
rng = np.random.default_rng(0)
x = rng.standard_normal((120, 240))
y = rng.standard_normal((16, 120)) @ x + 0.5 * rng.standard_normal((16, 240))
problem = solvers.RegressionProblem(x=x, y=y, r=7, rep=groups.rep_from_generator(np.eye(120), 1))
solvers.solve_regularized(problem)  # the target and its SVD, outside the measured span
tracemalloc.start()
points = solvers.enumerate_critical_points(problem, "regularized")
grown = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(len(points), grown // 1024)
"""


def test_critical_point_enumeration_forms_no_map_per_index_set():
    src = str(Path(solvers.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    child = subprocess.run([sys.executable, "-c", _ENUMERATION_PEAK_CHILD], env=env,
                           capture_output=True, text=True, check=True, timeout=120)
    count, grown_kib = map(int, child.stdout.split())
    assert count == math.comb(16, 7)
    assert grown_kib < 32 * 1024


@pytest.mark.parametrize("mode", ["constrained", "regularized", "augmented"])
def test_critical_point_w_is_the_selected_triples_times_the_right_factor(mode):
    prob = with_lambda(random_problem(seed=31, d0=6, dl=4, order=3, r=2), 0.3)
    zbar, right = prob._target(mode, prob.lam)
    f = linalg.svd(zbar)
    points = enumerate_critical_points(prob, mode)
    assert len(points) == math.comb(f.rank, prob.r) > 1
    for point in points:
        assert np.array_equal(point.w, f.select(list(point.index_set)) @ right)


def test_critical_points_subset_guard():
    rng = np.random.default_rng(22)
    d = 44
    prob = RegressionProblem(x=np.eye(d), y=rng.standard_normal((d, d)), r=20,
                             rep=trivial_rep(d))
    with pytest.raises(TooManySubsets):
        enumerate_critical_points(prob, "constrained")


def test_empirical_risk_examples():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((4, 10))
    y = rng.standard_normal((3, 10))
    assert abs(empirical_risk(np.zeros((3, 4)), x, y) - np.linalg.norm(y) ** 2 / 10) < 1e-12
    w = rng.standard_normal((3, 4))
    assert empirical_risk(w, x, w @ x) == 0.0
    with pytest.raises(ShapeMismatch):
        empirical_risk(w, x, rng.standard_normal((3, 9)))


def test_solution_loss_reproducible():
    prob = random_problem(seed=24)
    sol = solve_constrained(prob)
    direct = empirical_risk(sol.w, prob.x, prob.y)
    assert abs(sol.loss - direct) <= 1e-12 * max(1.0, abs(direct))


def test_invariance_decomposition_invariant_map():
    rep = embedded_cycle_rep(6, 3)
    g = groups.invariance_constraint(rep)
    basis = groups.invariant_basis(g)
    w = np.random.default_rng(25).standard_normal((3, basis.shape[0])) @ basis
    w_inv, w_perp, ratio = invariance_decomposition(w, g)
    assert np.linalg.norm(w_perp) < 1e-12 * max(1.0, np.linalg.norm(w))
    assert abs(ratio - 1.0) < 1e-12


def test_invariance_decomposition_swap_example():
    w = np.array([[1.0, 0.0]])
    w_inv, w_perp, ratio = invariance_decomposition(w, SWAP_G)
    assert np.allclose(w_inv, [[0.5, 0.5]])
    assert np.allclose(w_perp, [[0.5, -0.5]])
    assert abs(ratio - 0.5) < 1e-14


def test_invariance_decomposition_pythagorean():
    rng = np.random.default_rng(26)
    rep = embedded_cycle_rep(7, 4)
    g = groups.invariance_constraint(rep)
    for _ in range(50):
        w = rng.standard_normal((4, 7))
        w_inv, w_perp, _ = invariance_decomposition(w, g)
        assert np.array_equal(w - w_inv, w_perp)  # exact complement by construction
        total = np.linalg.norm(w) ** 2
        parts = np.linalg.norm(w_inv) ** 2 + np.linalg.norm(w_perp) ** 2
        assert abs(total - parts) < 1e-10 * total


def test_invariance_decomposition_zero_ratio_defined():
    _, _, ratio = invariance_decomposition(np.zeros((2, 2)), SWAP_G)
    assert ratio == 1.0


def test_rank_warnings():
    prob = random_problem(seed=27, d0=6, dl=4, order=5, r=3)  # d = 2 <= r
    assert "RankConstraintVacuous" in solve_constrained(prob).warnings
    rng = np.random.default_rng(28)
    zero_target = RegressionProblem(x=rng.standard_normal((4, 12)),
                                    y=np.zeros((3, 12)), r=2, rep=trivial_rep(4))
    assert "RankAssumptionViolated" in solve_constrained(zero_target).warnings
    tied = RegressionProblem(x=np.eye(3), y=np.diag([3.0, 3.0, 1.0]), r=1,
                             rep=trivial_rep(3))
    assert "NonUniqueOptimum" in solve_constrained(tied).warnings


def _tied_problem() -> RegressionProblem:
    return RegressionProblem(x=np.eye(3), y=np.diag([3.0, 3.0, 1.0]), r=1, rep=trivial_rep(3))


def test_target_of_rank_below_r_is_a_unique_optimum():
    # sigma_{r-1} = sigma_r = 0 is no tie: the target is its own best rank-r approximation
    rng = np.random.default_rng(29)
    nullity_one = RegressionProblem(x=rng.standard_normal((6, 18)),
                                    y=rng.standard_normal((3, 18)), r=2,
                                    rep=groups.cyclic_permutation(6))
    assert nullity_one.constraint.nullity == 1
    assert "NonUniqueOptimum" not in solve_constrained(nullity_one).warnings
    zero_target = RegressionProblem(x=rng.standard_normal((4, 12)),
                                    y=np.zeros((3, 12)), r=1, rep=trivial_rep(4))
    assert "NonUniqueOptimum" not in solve_regularized(zero_target).warnings


def test_problem_whitens_its_data_once(monkeypatch):
    base = random_problem(seed=30, d0=8, dl=5, order=4, r=2)
    calls = []
    pd_inv_sqrt = linalg.pd_inv_sqrt
    monkeypatch.setattr(linalg, "pd_inv_sqrt", lambda m: calls.append(m) or pd_inv_sqrt(m))
    prob = RegressionProblem(x=base.x, y=base.y, r=base.r, rep=base.rep, lam=0.5)
    solve_constrained(prob)
    solve_regularized(prob)
    enumerate_critical_points(prob, "constrained")
    enumerate_critical_points(prob, "regularized")
    regularization_path(prob, [0.1, 1.0, 10.0])
    assert len(calls) == 1


def test_augmented_mode_whitens_the_orbit_once(monkeypatch):
    base = random_problem(seed=35, d0=8, dl=5, order=4, r=2)
    calls = []
    pd_inv_sqrt = linalg.pd_inv_sqrt
    monkeypatch.setattr(linalg, "pd_inv_sqrt", lambda m: calls.append(m) or pd_inv_sqrt(m))
    prob = RegressionProblem(x=base.x, y=base.y, r=base.r, rep=base.rep)
    first = solve_augmented(prob)
    enumerate_critical_points(prob, "augmented")
    again = solve_augmented(prob)
    assert len(calls) == 2  # X X^T, then the orbit Gram matrix
    assert np.all(first.w == again.w)


def test_lambda_sweep_whitens_once(monkeypatch):
    base = random_problem(seed=34, d0=8, dl=5, order=4, r=2)
    calls = []
    pd_inv_sqrt = linalg.pd_inv_sqrt
    monkeypatch.setattr(linalg, "pd_inv_sqrt", lambda m: calls.append(m) or pd_inv_sqrt(m))
    prob = RegressionProblem(x=base.x, y=base.y, r=base.r, rep=base.rep)
    sweep = [solve_regularized(with_lambda(prob, lam)) for lam in (1e-2, 0.1, 1.0, 10.0, 1e2)]
    assert len(calls) == 1
    assert prob.lam == 0.0
    fresh = RegressionProblem(x=base.x, y=base.y, r=base.r, rep=base.rep, lam=10.0)
    assert np.all(sweep[3].w == solve_regularized(fresh).w)


@pytest.mark.parametrize("prob", [random_problem(seed=s, d0=8, dl=5, order=4, r=2)
                                  for s in (31, 32, 33)] + [_tied_problem()])
def test_path_samples_are_regularized_solutions(prob):
    for sample in regularization_path(prob, [1e-2, 1.0, 1e2, 1e6]):
        solution = solve_regularized(with_lambda(prob, sample.lam))
        assert np.all(sample.w == solution.w)
        assert sample.loss == solution.loss
        assert sample.invariance_residual == solution.invariance_residual
        assert sample.warnings == solution.warnings

def _split_verdict_problem(g_small: float, x_small: float) -> RegressionProblem:
    # G = diag(1, g_small) and X = diag(1, x_small): whitening rescales G's small
    # singular value to g_small / x_small, across the rank cutoff
    return RegressionProblem(x=np.diag([1.0, x_small]), y=np.array([[1.0, 1.0]]), r=1,
                             constraint=groups.ConstraintMatrix(np.diag([1.0, g_small])))


def test_constrained_optimum_lives_on_the_invariant_basis():
    # G has nullity 1 (basis e2) although the whitened G~ = diag(1, 1e-10) has full rank
    prob = _split_verdict_problem(1e-13, 1e-3)
    basis = groups.invariant_basis(prob.constraint)
    bx = basis @ prob.x
    fit = np.linalg.lstsq(bx.T, prob.y.T, rcond=None)[0].T @ basis
    assert np.allclose(fit, [[0.0, 1000.0]], rtol=1e-12)
    assert np.linalg.norm(solve_constrained(prob).w - fit) <= 1e-12 * np.linalg.norm(fit)


def test_path_converges_to_the_constrained_optimum_of_the_same_verdict():
    prob = _split_verdict_problem(1e-13, 1e-3)
    dists = [s.distance_to_inv for s in regularization_path(prob, [1e2, 1e4, 1e6])]
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 1e-5


def test_constrained_critical_points_of_the_same_verdict():
    points = enumerate_critical_points(_split_verdict_problem(1e-13, 1e-3), "constrained")
    assert len(points) == 1 and points[0].is_global_min
    assert np.allclose(points[0].w, [[0.0, 1000.0]], rtol=1e-12)


def test_full_rank_constraint_leaves_only_the_zero_map():
    # G has nullity 0 although the whitened G~ = diag(1, 1e-13) falls below the cutoff
    prob = _split_verdict_problem(1e-10, 1e3)
    assert prob.constraint.nullity == 0
    assert np.linalg.norm(solve_constrained(prob).w) < 1e-12


SADDLE_INSTANCES = [(6, 5, 6, 1, 30), (6, 4, 3, 2, 30), (8, 6, 4, 2, 40), (8, 5, 4, 3, 40)]


@pytest.mark.parametrize("mode", ["constrained", "augmented", "regularized"])
@pytest.mark.parametrize("d0, dl, order, r, n", SADDLE_INSTANCES)
def test_critical_points_are_saddles_except_the_global_min(d0, dl, order, r, n, mode):
    # the abstract's claim: every critical point but the global optimum is a strict
    # saddle of the depth-2 factored loss, with the index the swapped pairs predict
    prob = random_problem(seed=0, d0=d0, dl=dl, order=order, r=r, n=n)
    x, y, coords, g, lam = prob.x, prob.y, lambda w: w, None, 0.0
    if mode == "constrained":
        basis = groups.invariant_basis(prob.constraint)
        x, coords = basis @ prob.x, lambda w: w @ basis.T
    elif mode == "augmented":
        x, y = augment_dataset(prob.x, prob.y, prob.rep)
    else:
        prob = with_lambda(prob, 0.1)
        g, lam = prob.constraint.entries, prob.lam
    for point in enumerate_critical_points(prob, mode):
        negative, zero = factored_hessian_inertia(x, y, coords(point.w), r, g=g, lam=lam)
        # a pair i in I, j not in I with sigma_j > sigma_i is one descent direction
        swaps = sum(1 for i in point.index_set for j in range(i) if j not in point.index_set)
        assert negative == swaps
        assert zero == r * r  # the GL(r) gauge of W = L R^T
        assert (negative == 0) == point.is_global_min


def _random_orthogonal_cycle_rep(rng, d0: int, k: int) -> groups.GroupRep:
    # Q C Q^T for a k-cycle C on the first k coordinates: unitary, but not a permutation
    q, _ = np.linalg.qr(rng.standard_normal((d0, d0)))
    cycle = np.eye(d0)
    cycle[:k, :k] = np.roll(np.eye(k), 1, axis=0)
    return groups.rep_from_generator(q @ cycle @ q.T, k)


@pytest.mark.parametrize("seed", range(20))
def test_paper_identities_on_random_orthogonal_reps(seed):
    rng = np.random.default_rng(seed)
    d0 = int(rng.integers(4, 9))
    k = int(rng.integers(2, min(4, d0 - 1) + 1))  # nullity d0 - k + 1 >= 2 >= r
    dl, r = int(rng.integers(2, 5)), int(rng.integers(1, 3))
    rep = _random_orthogonal_cycle_rep(rng, d0, k)
    prob = random_problem(seed=seed, d0=d0, dl=dl, r=r, n=5 * d0, rep=rep)
    w_inv = solve_constrained(prob).w
    assert np.linalg.norm(solve_augmented(prob).w - w_inv) <= 1e-8 * np.linalg.norm(w_inv)
    set_c = enumerate_critical_points(prob, "constrained")
    set_a = enumerate_critical_points(prob, "augmented")
    assert [p.index_set for p in set_c] == [p.index_set for p in set_a]
    for pc, pa in zip(set_c, set_a):
        assert np.linalg.norm(pc.w - pa.w) < 1e-8
    # the penalized optimum approaches the hard-wired one as 1/lambda
    near, far = (s.lam * s.distance_to_inv for s in regularization_path(prob, [1e4, 1e8]))
    assert abs(far - near) <= 0.1 * near


def _column(seed, d0=4):
    return np.random.default_rng(seed).standard_normal((d0, 1))


@pytest.mark.parametrize("g", [
    _column(1),
    np.hstack([_column(1), _column(2)]),
    np.hstack([_column(1), _column(2), _column(3)]),
    np.hstack([_column(1), _column(1), _column(2)]),
    np.hstack([_column(4), _column(4)]),
], ids=["4x1", "4x2", "4x3", "4x3_repeated", "4x2_repeated"])
def test_narrow_array_constraint_hard_wired_is_the_penalty_limit(g):
    # G with fewer columns than rows: G~ = P^-1 G has fewer singular values than d0
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 16))
    prob = RegressionProblem(x=x, y=rng.standard_normal((3, 16)), r=2, constraint=g)
    w = solve_constrained(prob).w
    assert np.linalg.norm(w @ g) <= 1e-9 * np.linalg.norm(w) * np.linalg.norm(g)
    w_reg = solve_regularized(with_lambda(prob, 1e9)).w
    assert np.linalg.norm(w_reg - w) <= 1e-6 * np.linalg.norm(w)


@pytest.mark.parametrize("rep", [groups.c4_image_rotation(3), skewed_cycle_rep(6, 3)],
                         ids=["c4_image_3", "skewed_cycle"])
def test_path_tail_decays_as_one_over_lambda(rep):
    # W(lambda) = W_con + W_1 / lambda + O(lambda^-2): lambda ||W(lambda) - W_con|| settles
    prob = random_problem(seed=21, d0=rep.dim, dl=4, r=2, rep=rep)
    near, far = (lam * s.distance_to_inv
                 for lam, s in zip((1e5, 1e6), regularization_path(prob, [1e5, 1e6])))
    assert near > 0.0
    assert abs(far - near) <= 1e-3 * near


def _ill_conditioned_problem(rep, seed):
    """cond(X X^T) = 1e11 with Y = W_0 X + 0.1 E for an invariant W_0; n = 4 d0, r = 2."""
    d0 = rep.dim
    n = 4 * d0
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((d0, d0)))[0]
    h = np.linalg.qr(rng.standard_normal((n, d0)))[0]
    x = q @ np.diag(np.logspace(0.0, -5.5, d0)) @ h.T * np.sqrt(n)
    w0 = rng.standard_normal((5, d0)) @ groups.invariance_constraint(rep).null_projector
    y = w0 @ x + 0.1 * rng.standard_normal((5, n))
    return RegressionProblem(x=x, y=y, r=2, rep=rep)


@pytest.mark.parametrize("rep", [groups.cyclic_permutation(7), groups.c4_image_rotation(3),
                                 groups.c4_image_rotation(5)],
                         ids=["cyclic_perm_7", "c4_image_3", "c4_image_5"])
@pytest.mark.parametrize("seed", range(5))
def test_hard_wired_stays_invariant_on_ill_conditioned_data(rep, seed):
    prob = _ill_conditioned_problem(rep, seed)
    g = prob.constraint.entries
    assert np.linalg.cond(prob.x @ prob.x.T) == pytest.approx(1e11, rel=1e-3)
    w = solve_constrained(prob).w
    assert np.linalg.norm(w @ g) <= 1e-9 * np.linalg.norm(w) * np.linalg.norm(g)
    w_aug = solve_augmented(prob).w
    assert np.linalg.norm(w - w_aug) <= 1e-8 * np.linalg.norm(w)
