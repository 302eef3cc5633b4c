"""Tangent-kernel closed forms, finite-width kernels, and interpolation."""

import numpy as np
import pytest

from invlowrank import groups, ntk
from invlowrank.cli import entry
from invlowrank.errors import (DimensionMismatch, NotUnitary, ShapeMismatch, SingularKernel,
                               ZeroVector)
from invlowrank.matio import format_float

from helpers import embedded_cycle_rep, skewed_cycle_rep


def unit(v):
    return v / np.linalg.norm(v)


def test_limiting_ntk_equal_inputs():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(5)
        assert abs(ntk.relu_limiting_ntk(x, x) - x @ x) < 1e-12


def test_limiting_ntk_orthogonal_inputs():
    x = np.array([2.0, 0.0, 0.0])
    y = np.array([0.0, 3.0, 0.0])
    assert abs(ntk.relu_limiting_ntk(x, y) - 6.0 / (2 * np.pi)) < 1e-12


def test_limiting_ntk_antipodal_inputs():
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(4)
        assert abs(ntk.relu_limiting_ntk(x, -x)) < 1e-12


def test_limiting_ntk_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        ntk.relu_limiting_ntk(np.zeros(3), np.ones(3))


def test_limiting_ntk_equivariant_under_rotations():
    rep = groups.rotation_2d(8)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        base = ntk.relu_limiting_ntk(x, y)
        for mat in groups.elements(rep):
            assert abs(ntk.relu_limiting_ntk(mat @ x, mat @ y) - base) < 1e-12


def test_limiting_ntk_not_equivariant_for_skewed_maps():
    rep = skewed_cycle_rep(4, 4, seed=3)
    mat = rep.generators[0]
    rng = np.random.default_rng(4)
    moved = [abs(ntk.relu_limiting_ntk(mat @ x, mat @ y) - ntk.relu_limiting_ntk(x, y))
             for x, y in (rng.standard_normal((2, 4)) for _ in range(20))]
    assert max(moved) > 1e-3


def test_empirical_ntk_single_identity_unit():
    w = np.array([[0.3, -1.2, 0.5]])
    samples = ntk.WidthSampleSet(weights=w, out_scales=np.array([1.0]), seed=0)
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    # identity activation: sigma(t) = t, sigma'(t) = 1
    from invlowrank import activations

    activations.ACTIVATIONS.setdefault("identity", (lambda t: t, lambda t: np.ones_like(t)))
    try:
        value = ntk.empirical_ntk(samples, "identity", x, y)
        assert abs(value - (x @ y + (w[0] @ x) * (w[0] @ y))) < 1e-12
    finally:
        activations.ACTIVATIONS.pop("identity")


def test_empirical_ntk_symmetry_exact():
    samples = ntk.sample_width_set(4, 64, seed=6)
    rng = np.random.default_rng(7)
    for act in ("relu", "tanh", "sigmoid", "leaky_relu"):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        assert ntk.empirical_ntk(samples, act, x, y) == ntk.empirical_ntk(samples, act, y, x)


def test_limiting_and_conv_kernels_symmetric_exact():
    rep = groups.c4_image_rotation(2)
    samples = ntk.sample_width_set(4, 16, seed=30)
    rng = np.random.default_rng(31)
    for _ in range(10):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        assert ntk.relu_limiting_ntk(x, y) == ntk.relu_limiting_ntk(y, x)
        assert ntk.conv_empirical_ntk(samples, "relu", rep, x, y) == \
            ntk.conv_empirical_ntk(samples, "relu", rep, y, x)


def test_empirical_ntk_dimension_mismatch():
    samples = ntk.sample_width_set(4, 8, seed=8)
    with pytest.raises(DimensionMismatch):
        ntk.empirical_ntk(samples, "relu", np.ones(3), np.ones(3))


def test_empirical_ntk_terms_dimension_mismatch():
    samples = ntk.sample_width_set(4, 8, seed=8)
    with pytest.raises(DimensionMismatch):
        ntk.empirical_ntk_terms(samples, "relu", np.ones(3), np.ones(3))
    with pytest.raises(DimensionMismatch):
        ntk.empirical_ntk_terms(samples, "relu", np.ones(4), np.ones(5))


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_empirical_ntk_is_the_mean_of_its_terms(activation):
    rng = np.random.default_rng(9)
    samples = ntk.sample_width_set(5, 257, seed=10)
    for _ in range(5):
        x, xp = rng.standard_normal(5), rng.standard_normal(5)
        terms = ntk.empirical_ntk_terms(samples, activation, x, xp)
        assert terms.shape == (257,)
        assert ntk.empirical_ntk(samples, activation, x, xp) == float(np.mean(terms))


def test_empirical_ntk_monte_carlo_convergence():
    samples = ntk.sample_width_set(6, 2 ** 14, seed=9)
    rng = np.random.default_rng(10)
    for _ in range(10):
        x, y = unit(rng.standard_normal(6)), unit(rng.standard_normal(6))
        emp = ntk.empirical_ntk(samples, "relu", x, y)
        lim = ntk.relu_limiting_ntk(x, y)
        terms = ntk.empirical_ntk_terms(samples, "relu", x, y)
        bound = 3.0 * terms.std(ddof=1) / np.sqrt(terms.size)
        assert abs(emp - lim) <= bound


def test_doubling_width_shrinks_rms_error():
    # RMS error over 50 pairs should drop by roughly sqrt(2) per doubling
    rng = np.random.default_rng(11)
    pairs = [(unit(rng.standard_normal(6)), unit(rng.standard_normal(6))) for _ in range(50)]

    def rms(width, seed):
        samples = ntk.sample_width_set(6, width, seed)
        errs = [ntk.empirical_ntk(samples, "relu", x, y) - ntk.relu_limiting_ntk(x, y)
                for x, y in pairs]
        return float(np.sqrt(np.mean(np.square(errs))))

    ratio = rms(2 ** 13, seed=12) / rms(2 ** 14, seed=13)
    assert 1.2 <= ratio <= 1.7


def test_augmented_kernel_trivial_and_invariant_inputs():
    rep_trivial = groups.rep_from_generator(np.eye(3), 1)
    rng = np.random.default_rng(14)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    assert ntk.augmented_kernel(ntk.relu_limiting_ntk, rep_trivial, x, y) == \
        ntk.relu_limiting_ntk(x, y)
    rep = groups.c4_image_rotation(2)
    fixed = np.full(4, 1.7)  # rotation-fixed image
    y4 = rng.standard_normal(4)
    assert abs(ntk.augmented_kernel(ntk.relu_limiting_ntk, rep, fixed, y4)
               - ntk.relu_limiting_ntk(fixed, y4)) < 1e-12


def test_augmented_kernel_invariant_in_first_argument():
    rep = groups.c4_image_rotation(2)
    rng = np.random.default_rng(15)
    for _ in range(10):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        base = ntk.augmented_kernel(ntk.relu_limiting_ntk, rep, x, y)
        for mat in groups.elements(rep)[1:]:
            moved = ntk.augmented_kernel(ntk.relu_limiting_ntk, rep, mat @ x, y)
            assert abs(moved - base) < 1e-12


def test_conv_ntk_trivial_group_matches_empirical():
    rep = groups.rep_from_generator(np.eye(4), 1)
    samples = ntk.sample_width_set(4, 32, seed=16)
    rng = np.random.default_rng(17)
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    assert abs(ntk.conv_empirical_ntk(samples, "relu", rep, x, y)
               - ntk.empirical_ntk(samples, "relu", x, y)) < 1e-14


def test_conv_ntk_orbit_symmetrized_equals_augmented():
    rep = groups.c4_image_rotation(2)
    base = ntk.sample_width_set(4, 24, seed=18)
    sym = ntk.orbit_symmetrize(base, rep)
    assert sym.width == 24 * 4
    rng = np.random.default_rng(19)
    for act in ("relu", "tanh", "sigmoid", "leaky_relu"):
        for _ in range(5):
            x, y = unit(rng.standard_normal(4)), unit(rng.standard_normal(4))
            conv = ntk.conv_empirical_ntk(sym, act, rep, x, y)
            aug = ntk.augmented_kernel(lambda a, b: ntk.empirical_ntk(sym, act, a, b), rep, x, y)
            assert abs(conv - aug) < 1e-12


def test_conv_forward_invariant():
    rep = groups.c4_image_rotation(2)
    samples = ntk.sample_width_set(4, 16, seed=20)
    rng = np.random.default_rng(21)
    x = rng.standard_normal(4)
    base = ntk.conv_forward(samples, "relu", rep, x)
    for mat in groups.elements(rep)[1:]:
        assert abs(ntk.conv_forward(samples, "relu", rep, mat @ x) - base) < 1e-12


def test_conv_ntk_requires_unitary():
    rep = skewed_cycle_rep(4, 4, seed=22)
    samples = ntk.sample_width_set(4, 8, seed=23)
    with pytest.raises(NotUnitary):
        ntk.conv_empirical_ntk(samples, "relu", rep, np.ones(4), np.ones(4))


def test_kernel_interpolate_identity():
    k = ntk.KernelMatrix(entries=np.eye(3), jitter=0.0)
    y = np.array([1.0, -2.0, 0.5])
    assert np.allclose(ntk.kernel_interpolate(k, y), y)


def test_kernel_interpolate_duplicate_point():
    x = np.array([1.0, 2.0])
    pts_dup = np.stack([x, x], axis=1)
    km = ntk.build_kernel_matrix(ntk.relu_limiting_ntk, pts_dup, jitter=0.0)
    y = np.array([3.0, 3.0])
    with pytest.raises(SingularKernel):
        ntk.kernel_interpolate(km, y)
    km_j = ntk.build_kernel_matrix(ntk.relu_limiting_ntk, pts_dup)
    coeffs = ntk.kernel_interpolate(km_j, y)
    single = 3.0 / ntk.relu_limiting_ntk(x, x)
    assert abs(coeffs[0] - coeffs[1]) < 1e-8
    assert abs(coeffs[0] - single / 2.0) < 1e-6 * abs(single)


def test_kernel_matrix_symmetric():
    rng = np.random.default_rng(24)
    pts = rng.standard_normal((3, 8))
    km = ntk.build_kernel_matrix(ntk.relu_limiting_ntk, pts)
    assert np.array_equal(km.entries, km.entries.T)


def test_interpolant_on_augmented_data_is_invariant():
    from invlowrank.training import augment_dataset

    rep = groups.c4_image_rotation(2)
    rng = np.random.default_rng(25)
    pts = rng.standard_normal((4, 10))
    targets = rng.standard_normal(10)
    x_aug, y_aug = augment_dataset(pts, targets.reshape(1, -1), rep)
    km = ntk.build_kernel_matrix(ntk.relu_limiting_ntk, x_aug)
    coeffs = ntk.kernel_interpolate(km, y_aug.ravel())
    bound = 1e-6 * np.max(np.abs(targets))
    for _ in range(20):
        xt = rng.standard_normal(4)
        ref = ntk.kernel_predict(ntk.relu_limiting_ntk, x_aug, coeffs, xt)
        for mat in groups.elements(rep)[1:]:
            value = ntk.kernel_predict(ntk.relu_limiting_ntk, x_aug, coeffs, mat @ xt)
            assert abs(value - ref) < bound


def test_width_sample_set_refuses_column_out_scales():
    # a d1 x 1 column broadcast against the d1 terms gave a d1 x d1 kernel sum
    samples = ntk.sample_width_set(3, 8, 0)
    with pytest.raises(ShapeMismatch):
        ntk.WidthSampleSet(weights=samples.weights, out_scales=samples.out_scales.reshape(-1, 1),
                           seed=0)
    rebuilt = ntk.WidthSampleSet(weights=samples.weights, out_scales=samples.out_scales, seed=0)
    assert rebuilt.weights is samples.weights and rebuilt.out_scales is samples.out_scales


def test_property_suites_rows_are_the_cli_csv(tmp_path):
    conf = tmp_path / "ntk.conf"
    conf.write_text("group = c4_image:2\nwidth = 256\ntrials = 3\nseed = 1\n")
    with pytest.raises(SystemExit):
        entry(["ntk-check", "--config", str(conf), "--out", str(tmp_path)])
    rows = ntk.property_suites(groups.c4_image_rotation(2), 256, 3, 1)
    lines = [f"{suite},{trial},{format_float(value)},{format_float(bound)},"
             f"{'pass' if ok else 'fail'}" for suite, trial, value, bound, ok in rows]
    assert (tmp_path / "ntk.csv").read_text().splitlines() == [
        "suite,trial,discrepancy,tolerance,status", *lines]
    assert len(rows) == 3 * 3 + 20


def test_property_suites_require_unitary():
    rep = groups.rep_from_generator(np.array([[0.0, 2.0], [0.5, 0.0]]), 2)
    with pytest.raises(NotUnitary):
        ntk.property_suites(rep, 64, 2, 0)
