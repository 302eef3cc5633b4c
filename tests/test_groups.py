"""Representations, constraint matrices, and invariant bases."""

import numpy as np
import pytest

from invlowrank import groups, linalg
from invlowrank.errors import (
    EmptyNullSpace,
    IndexOutOfRange,
    InvalidArgument,
    NonSquare,
    NotARepresentation,
    OrderMismatch,
    ShapeMismatch,
)

from helpers import embedded_cycle_rep, skewed_cycle_rep, trivial_rep

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def test_rep_from_generator_stores_orders_as_ints():
    rep = groups.rep_from_generator(np.roll(np.eye(4), 1, axis=0), np.int64(4))
    assert rep.orders == (4,)
    assert all(type(order) is int for order in rep.orders)


def test_rep_from_generator_identity():
    rep = groups.rep_from_generator(np.eye(3), 1)
    assert rep.order == 1 and rep.dim == 3


def test_rep_from_generator_swap():
    rep = groups.rep_from_generator(SWAP, 2)
    assert rep.order == 2


def test_rep_from_generator_rotations():
    groups.rep_from_generator(rotation(2 * np.pi / 3), 3)
    with pytest.raises(NotARepresentation):
        groups.rep_from_generator(rotation(np.pi / 3), 3)


def test_rep_from_generator_rejects_non_square():
    with pytest.raises(NonSquare):
        groups.rep_from_generator(np.ones((2, 3)), 2)


def test_c4_image_rotation_single_pixel():
    rep = groups.c4_image_rotation(1)
    assert rep.dim == 1 and rep.order == 4
    assert np.array_equal(rep.generators[0], np.eye(1))


def test_c4_image_rotation_two_by_two():
    rep = groups.c4_image_rotation(2)
    gen = rep.generators[0]
    assert sorted(np.nonzero(gen)[0].tolist()) == [0, 1, 2, 3]  # permutation
    for j in range(1, 4):
        assert not np.array_equal(np.linalg.matrix_power(gen, j), np.eye(4))
    assert np.array_equal(np.linalg.matrix_power(gen, 4), np.eye(4))


def test_c4_image_rotation_odd_grid_fixes_center():
    gen = groups.c4_image_rotation(3).generators[0]
    center = 1 * 3 + 1  # column-major index of pixel (1, 1)
    assert gen[center, center] == 1.0


def test_element_identity_and_powers():
    rep = groups.rep_from_generator(SWAP, 2)
    assert np.array_equal(groups.element(rep, 0), np.eye(2))
    assert np.array_equal(groups.element(rep, 1), SWAP)
    c4 = groups.c4_image_rotation(2)
    gen = c4.generators[0]
    assert np.array_equal(groups.element(c4, 2), gen @ gen)
    with pytest.raises(IndexOutOfRange):
        groups.element(c4, 4)
    with pytest.raises(IndexOutOfRange):
        groups.element(c4, -1)


def test_element_requires_single_generator():
    rep = groups.rep_from_generators([SWAP, np.eye(2)], [2, 1])
    with pytest.raises(ValueError):
        groups.element(rep, 0)
    with pytest.raises(ValueError):
        groups.group_average(rep)


def _dense_orthogonal_rep(d: int, seed: int = 0) -> groups.GroupRep:
    """The d-cycle conjugated by a random orthogonal Q: a unitary rep with dense elements."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return groups.rep_from_generator(q @ groups.cyclic_permutation(d).generators[0] @ q.T, d)


@pytest.mark.parametrize("make_rep", [lambda: groups.c4_image_rotation(3),
                                      lambda: groups.cyclic_permutation(5),
                                      lambda: _dense_orthogonal_rep(4)],
                         ids=["c4_image_3", "cyclic_perm_5", "dense_orthogonal_4"])
def test_orbit_is_the_per_element_products(make_rep):
    rep = make_rep()
    rng = np.random.default_rng(1)
    vector, matrix = rng.standard_normal(rep.dim), rng.standard_normal((rep.dim, 6))
    orbits = groups.orbit(rep, vector, matrix)
    assert len(orbits) == 2
    for point, point_orbit in zip((vector, matrix), orbits):
        assert point_orbit.shape == (rep.order, *point.shape)
        assert np.array_equal(point_orbit, np.stack([g @ point for g in groups.elements(rep)]))
    assert groups.orbit(rep) == []


def test_orbit_converts_its_points():
    rep = groups.cyclic_permutation(3)
    (point_orbit,) = groups.orbit(rep, [1, 2, 3])
    assert point_orbit.dtype == np.float64
    assert np.array_equal(point_orbit, [[1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 3.0, 1.0]])


def test_group_average_examples():
    assert np.array_equal(groups.group_average(trivial_rep(3)), np.eye(3))
    swap_rep = groups.rep_from_generator(SWAP, 2)
    assert np.allclose(groups.group_average(swap_rep), np.full((2, 2), 0.5))
    c4 = groups.c4_image_rotation(2)
    assert np.allclose(groups.group_average(c4), np.full((4, 4), 0.25))


def test_group_average_lemma_properties():
    # projector identities: Gbar rho(g^j) = Gbar, Gbar^2 = Gbar, symmetry when unitary
    rng = np.random.default_rng(0)
    for trial in range(25):
        d0 = int(rng.integers(3, 9))
        order = int(rng.integers(2, min(d0, 6) + 1))
        rep = embedded_cycle_rep(d0, order)
        gbar = groups.group_average(rep)
        for mat in groups.elements(rep):
            assert np.linalg.norm(gbar @ mat - gbar) < 1e-10
        assert np.linalg.norm(gbar @ gbar - gbar) < 1e-10
        assert np.linalg.norm(gbar - gbar.T) < 1e-10


def test_group_average_rotation_rep_idempotent():
    rep = groups.rotation_2d(5)
    gbar = groups.group_average(rep)
    assert np.linalg.norm(gbar @ gbar - gbar) < 1e-10
    assert np.linalg.norm(gbar) < 1e-10  # no fixed directions for a true rotation


def test_invariance_constraint_trivial():
    g = groups.invariance_constraint(trivial_rep(4))
    assert np.all(g.entries == 0.0)
    assert g.nullity == 4


def test_invariance_constraint_swap():
    g = groups.invariance_constraint(groups.rep_from_generator(SWAP, 2))
    assert np.allclose(g.entries, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert g.nullity == 1


def test_invariance_constraint_iff_on_random_maps():
    # W G = 0 exactly characterizes invariance under all powers
    rep = groups.rep_from_generator(np.roll(np.eye(6), 1, axis=0), 6)
    g = groups.invariance_constraint(rep)
    basis = groups.invariant_basis(g)
    proj = linalg.left_null_projector(g.entries)
    rng = np.random.default_rng(1)
    mats = groups.elements(rep)
    for _ in range(100):
        w = rng.standard_normal((3, 6)) @ proj  # annihilates G by construction
        for mat in mats:
            assert np.linalg.norm(w @ mat - w) < 1e-10 * max(1.0, np.linalg.norm(w))
        # converse: averaging over the orbit lands in the null space
        w0 = rng.standard_normal((3, 6))
        w_avg = sum(w0 @ mat for mat in mats) / len(mats)
        assert np.linalg.norm(w_avg @ g.entries) < 1e-10 * max(1.0, np.linalg.norm(w_avg))
        # a generic map is moved by the generator
        assert np.linalg.norm(w0 @ mats[1] - w0) > 1e-3


def test_multi_generator_constraint_stacks_blocks():
    rep = groups.rep_from_generators([SWAP, np.eye(2)], [2, 1])
    g = groups.invariance_constraint(rep)
    assert g.entries.shape == (2, 4)
    assert g.nullity == 1


def test_equivariance_constraint_trivial_output_matches_invariance():
    rep_x = embedded_cycle_rep(4, 4)
    rep_y = groups.rep_from_generator(np.eye(1), 4)
    eq = groups.equivariance_constraint(rep_x, rep_y)
    eq_basis = groups.equivariant_null_basis(eq)
    inv_basis = groups.invariant_basis(groups.invariance_constraint(rep_x))
    assert eq_basis.shape[0] == inv_basis.shape[0]
    # mutual containment: each basis row of one space lies in the other's span
    for row in eq_basis:
        coeffs = inv_basis @ row
        assert np.linalg.norm(inv_basis.T @ coeffs - row) < 1e-10
    for row in inv_basis:
        coeffs = eq_basis @ row
        assert np.linalg.norm(eq_basis.T @ coeffs - row) < 1e-10


def test_equivariance_constraint_swap_pair():
    rep = groups.rep_from_generator(SWAP, 2)
    eq = groups.equivariance_constraint(rep, rep)
    basis = groups.equivariant_null_basis(eq)
    assert basis.shape == (2, 4)
    span = np.vstack([np.eye(2).flatten(order="F"), SWAP.flatten(order="F")])
    for row in basis:
        coeff, *_ = np.linalg.lstsq(span.T, row, rcond=None)
        assert np.linalg.norm(span.T @ coeff - row) < 1e-10


def test_equivariance_constraint_sign_rep():
    rep_x = groups.rep_from_generator(SWAP, 2)
    rep_y = groups.rep_from_generator(-np.eye(1), 2)
    basis = groups.equivariant_null_basis(groups.equivariance_constraint(rep_x, rep_y))
    assert basis.shape == (1, 2)
    expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert np.allclose(basis[0], expected) or np.allclose(basis[0], -expected)


def test_equivariance_constraint_order_mismatch():
    with pytest.raises(OrderMismatch):
        groups.equivariance_constraint(
            groups.rep_from_generator(SWAP, 2), groups.rep_from_generator(np.eye(1), 1)
        )


def test_invariant_basis_trivial_rep():
    basis = groups.invariant_basis(groups.invariance_constraint(trivial_rep(5)))
    assert basis.shape == (5, 5)
    assert np.linalg.norm(basis @ basis.T - np.eye(5)) < 1e-10


def test_invariant_basis_swap():
    basis = groups.invariant_basis(groups.invariance_constraint(groups.rep_from_generator(SWAP, 2)))
    assert np.allclose(basis, np.array([[1.0, 1.0]]) / np.sqrt(2.0))


def test_invariant_basis_c4_image():
    basis = groups.invariant_basis(groups.invariance_constraint(groups.c4_image_rotation(2)))
    assert np.allclose(basis, np.full((1, 4), 0.5))


def test_invariant_basis_rows_orthonormal_and_annihilating():
    rng = np.random.default_rng(2)
    for _ in range(20):
        d0 = int(rng.integers(4, 10))
        order = int(rng.integers(2, min(d0, 5) + 1))
        rep = embedded_cycle_rep(d0, order)
        g = groups.invariance_constraint(rep)
        basis = groups.invariant_basis(g)
        assert basis.shape == (g.nullity, d0)
        assert np.linalg.norm(basis @ basis.T - np.eye(g.nullity)) < 1e-10
        assert np.linalg.norm(basis @ g.entries) < 1e-10


def test_invariant_basis_empty_null_space():
    rep = groups.rotation_2d(3)
    with pytest.raises(EmptyNullSpace):
        groups.invariant_basis(groups.invariance_constraint(rep))


def test_as_constraint_checks_and_wraps_g():
    g = groups.invariance_constraint(groups.c4_image_rotation(2))
    assert groups.as_constraint(g, 4) is g
    entries = np.array(g.entries)
    wrapped = groups.as_constraint(entries, 4)
    assert isinstance(wrapped, groups.ConstraintMatrix)
    assert np.array_equal(wrapped.entries, entries)
    assert wrapped.entries is not entries and not wrapped.entries.flags.writeable
    for bad in (g, entries, entries[0]):
        with pytest.raises(ShapeMismatch):
            groups.as_constraint(bad, 5)


def test_as_constraint_builds_g_from_the_rep_without_a_g():
    rep = groups.c4_image_rotation(2)
    built = groups.as_constraint(None, 4, rep)
    assert np.array_equal(built.entries, groups.invariance_constraint(rep).entries)
    given = groups.as_constraint(np.zeros((4, 4)), 4, rep)
    assert np.array_equal(given.entries, np.zeros((4, 4)))
    with pytest.raises(ShapeMismatch):
        groups.as_constraint(None, 5, rep)
    with pytest.raises(InvalidArgument):
        groups.as_constraint(None, 4)


def test_invariant_basis_takes_an_array_g():
    g = groups.invariance_constraint(groups.c4_image_rotation(3))
    assert np.array_equal(groups.invariant_basis(np.array(g.entries)), groups.invariant_basis(g))


@pytest.mark.parametrize("make_g", [
    lambda: groups.invariance_constraint(groups.c4_image_rotation(3)),
    lambda: groups.invariance_constraint(_two_generator_rep()),
    lambda: np.array(groups.invariance_constraint(groups.c4_image_rotation(3)).entries),
], ids=["c4_image_3", "two_generator", "array_g"])
def test_invariant_basis_is_the_null_columns_of_gs_cached_svd(make_g):
    g = make_g()
    c = groups.as_constraint(g, None)
    basis = groups.invariant_basis(g)
    assert np.array_equal(basis, c.factors.u[:, c.dim - c.nullity:].T)
    # linalg.svd's one sign rule: each row's first largest-magnitude entry is positive
    assert np.all(basis[np.arange(c.nullity), np.argmax(np.abs(basis), axis=1)] > 0)


def test_is_unitary():
    assert groups.is_unitary(groups.c4_image_rotation(3), 1e-10)
    assert groups.is_unitary(groups.rotation_2d(7), 1e-10)
    scaled = groups.GroupRep(generators=(np.diag([2.0, 0.5]),), orders=(1,))
    assert not groups.is_unitary(scaled, 1e-10)
    assert not groups.is_unitary(skewed_cycle_rep(4, 3), 1e-10)


def test_identity_generator_constrains_nothing():
    g = groups.invariance_constraint(groups.rotation_2d(1))
    assert np.all(g.entries == 0.0)
    assert g.nullity == 2
    assert np.array_equal(g.null_projector, np.eye(2))
    assert groups.invariant_basis(g).shape == (2, 2)
    # a numerically-identity generator beside a real one adds no constraint
    rep = groups.rep_from_generators([rotation(2 * np.pi), SWAP], [1, 2])
    assert groups.invariance_constraint(rep).nullity == 1


def _two_generator_rep() -> groups.GroupRep:
    # an order-3 cycle on coordinates 0-2 and a swap of coordinates 3-4 in R^6
    cycle, swap = np.eye(6), np.eye(6)
    cycle[:3, :3] = np.roll(np.eye(3), 1, axis=0)
    swap[3:5, 3:5] = SWAP
    return groups.rep_from_generators([cycle, swap], [3, 2])


SUBSPACE_REPS = (
    [(f"embedded_cycle_{d0}_{order}", lambda d0=d0, order=order: embedded_cycle_rep(d0, order))
     for d0, order in [(4, 2), (6, 3), (7, 7), (9, 4)]]
    + [(f"rotation_2d_{k}", lambda k=k: groups.rotation_2d(k)) for k in range(1, 9)]
    + [(f"c4_image_{p}", lambda p=p: groups.c4_image_rotation(p)) for p in range(2, 5)]
    + [("two_generator", _two_generator_rep)]
)


@pytest.mark.parametrize("make_rep", [make for _, make in SUBSPACE_REPS],
                         ids=[name for name, _ in SUBSPACE_REPS])
def test_invariant_basis_and_projector_share_the_nullity(make_rep):
    c = groups.invariance_constraint(make_rep())
    if c.nullity == 0:
        with pytest.raises(EmptyNullSpace):
            groups.invariant_basis(c)
        assert np.linalg.norm(c.null_projector) < 1e-10
        return
    basis = groups.invariant_basis(c)
    assert basis.shape == (c.nullity, c.dim)
    assert np.linalg.norm(basis.T @ basis - c.null_projector) < 1e-10
    assert np.linalg.norm(basis @ c.entries) < 1e-10


def test_constraint_factors_g_once(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    c = groups.invariance_constraint(groups.c4_image_rotation(3))
    assert c.nullity == 3
    groups.invariant_basis(c)
    groups.invariant_basis(c)
    c.null_projector
    assert calls == [(9, 9)]


def test_one_svd_decides_nullity_basis_and_projector(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    c = groups.invariance_constraint(groups.c4_image_rotation(3))
    assert c.nullity == 3
    groups.invariant_basis(c)
    c.null_projector
    assert calls == [((9, 9), True)]


def test_equivariance_constraint_is_invariance_of_the_tensor_rep():
    # a non-unitary order-3 output rep, where rho_Y(g^-1)^T differs from rho_Y(g):
    # Hom(regular + trivial, regular) of C3 has dimension 3 + 1
    rep_x, rep_y = embedded_cycle_rep(4, 3), skewed_cycle_rep(3, 3)
    constraint = groups.equivariance_constraint(rep_x, rep_y)
    assert isinstance(constraint, groups.ConstraintMatrix)
    basis = groups.equivariant_null_basis(constraint)
    assert basis.shape == (constraint.nullity, 12) == (4, 12)
    gx, gy = rep_x.generators[0], rep_y.generators[0]
    for row in basis:
        w = row.reshape((3, 4), order="F")
        assert np.linalg.norm(w @ gx - gy @ w) < 1e-10
