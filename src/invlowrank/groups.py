"""Finite group representations and the linear constraints they induce.

A representation is given by one or more generator matrices with declared
orders. A linear map W is invariant exactly when W G = 0 for the constraint
matrix G built from blocks I - rho(g_m); one cached SVD of G decides the
nullity, the invariant basis and the projector. Equivariance is invariance of
the tensor representation rho_X (x) rho_Y(g^-1)^T acting on vec(W).

Group elements, averages and orbits are only enumerated for single-generator
(cyclic) representations; multi-generator groups are supported through the
stacked constraint blocks alone. ``orbit`` is the one evaluation of points on
their orbit {rho(g) p}: the augmented data, the orbit-variance metric and the
augmented and group-convolutional kernels all take their orbits from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from . import tolerances as tol
from .checks import count, real_array
from .errors import (
    EmptyNullSpace,
    IndexOutOfRange,
    InvalidArgument,
    NonSquare,
    NotARepresentation,
    OrderMismatch,
    ShapeMismatch,
)


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GroupRep:
    """A finite group representation: generator matrices plus their orders."""

    generators: tuple[np.ndarray, ...]
    orders: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.generators[0].shape[0]

    @property
    def is_cyclic(self) -> bool:
        return len(self.generators) == 1

    @property
    def order(self) -> int:
        """Group order; defined for single-generator (cyclic) reps only."""
        if not self.is_cyclic:
            raise InvalidArgument("order of a multi-generator rep is not enumerated")
        return self.orders[0]


@dataclass(frozen=True)
class ConstraintMatrix:
    """Stacked blocks [I - rho(g_1), ..., I - rho(g_M)]; W G = 0 iff W invariant.

    It owns G's invariant subspace: its dimension and the one SVD of G behind it.
    """

    entries: np.ndarray  # d0 x (M * d0)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def nullity(self) -> int:
        """Dimension of the invariant subspace: d0 minus the rank of G's one cached SVD."""
        return self.dim - self.factors.rank

    @cached_property
    def factors(self) -> linalg.SvdFactors:
        """The SVD of G, computed on first use and kept."""
        return linalg.svd(self.entries)

    @cached_property
    def null_projector(self) -> np.ndarray:
        """I - G G^+ from the cached SVD, kept; W (I - G G^+) is the invariant part of W."""
        return _freeze(linalg.left_null_projector(self.entries, self.factors))


def constraint_entries(g: ConstraintMatrix | np.ndarray, d0: int | None) -> np.ndarray:
    """G (a ConstraintMatrix or an array-like) as a float matrix; ShapeMismatch unless d0 x k.

    A d0 of None checks only that G is 2-d.
    """
    entries = linalg.as_matrix(g.entries if isinstance(g, ConstraintMatrix) else g)
    if d0 is not None and entries.shape[0] != d0:
        raise ShapeMismatch(f"constraint G {entries.shape} does not have d0 = {d0} rows")
    return entries


def as_constraint(g: ConstraintMatrix | np.ndarray | None, d0: int | None,
                  rep: GroupRep | None = None) -> ConstraintMatrix:
    """G, checked by ``constraint_entries``, as a ConstraintMatrix; without a G, the rep's G."""
    if g is None:
        if rep is None:
            raise InvalidArgument("need a constraint G or a group rep")
        g = invariance_constraint(rep)
    entries = constraint_entries(g, d0)
    return g if isinstance(g, ConstraintMatrix) else ConstraintMatrix(entries=_freeze(entries))


def _validate_generator(gen: np.ndarray, order: int) -> np.ndarray:
    gen = real_array(gen, None, "generator")
    if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
        raise NonSquare(f"generator must be square, got shape {gen.shape}")
    count(1).check(order, "order")
    d = gen.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite power fails the test below
        power = np.linalg.matrix_power(gen, order)
    if not np.linalg.norm(power - np.eye(d)) <= tol.REP_VALIDATION * d:
        raise NotARepresentation(
            f"generator**{order} differs from the identity beyond {tol.REP_VALIDATION * d:.1e}"
        )
    return gen


def rep_from_generator(gen: np.ndarray, order: int) -> GroupRep:
    """Validate a single generator of a cyclic group of the given order."""
    return rep_from_generators([gen], [order])


def rep_from_generators(gens: Sequence[np.ndarray], orders: Sequence[int]) -> GroupRep:
    """Validate a finitely generated group given one matrix per generator."""
    if len(gens) != len(orders) or not gens:
        raise InvalidArgument("need one order per generator")
    validated = [_validate_generator(g, o) for g, o in zip(gens, orders)]
    d = validated[0].shape[0]
    for g in validated[1:]:
        if g.shape[0] != d:
            raise NonSquare("all generators must share the same dimension")
    return GroupRep(
        generators=tuple(_freeze(g) for g in validated), orders=tuple(int(o) for o in orders)
    )


def c4_image_rotation(p: int) -> GroupRep:
    """Order-4 permutation generator rotating a column-major p x p image by 90 degrees.

    Pixel convention: (row i, col j) -> (j, p-1-i).
    """
    count(1).check(p, "grid side")
    gen = np.zeros((p * p, p * p))
    i, j = np.divmod(np.arange(p * p), p)
    gen[(p - 1 - i) * p + j, j * p + i] = 1.0
    return rep_from_generator(gen, 4)


def cyclic_permutation(d: int) -> GroupRep:
    """The full d-cycle permutation rep on R^d (order d)."""
    count(1).check(d, "dimension")
    gen = np.roll(np.eye(d), 1, axis=0)
    return rep_from_generator(gen, d)


def rotation_2d(k: int) -> GroupRep:
    """Planar rotation by 2*pi/k, order k.

    Note: the rotation group of a regular k-gon is generated by the angle
    2*pi/k; that convention is used here.
    """
    count(1).check(k, "order")
    theta = 2.0 * np.pi / k
    c, s = np.cos(theta), np.sin(theta)
    gen = np.array([[c, -s], [s, c]])
    return rep_from_generator(gen, k)


def check_acts_on(rep: GroupRep, x: np.ndarray) -> None:
    """Raise ShapeMismatch unless x has rep.dim rows, so that rho(g) @ x is defined."""
    if np.ndim(x) == 0 or np.shape(x)[0] != rep.dim:
        raise ShapeMismatch(f"input {np.shape(x)} lacks the {rep.dim} rows the group acts on")


def element(rep: GroupRep, j: int) -> np.ndarray:
    """rho(g^j); cyclic reps only."""
    if not (count(0).valid(j) and j < rep.order):
        raise IndexOutOfRange(f"element index {j!r} is not an integer in [0, {rep.order})")
    return elements(rep)[j]


def elements(rep: GroupRep) -> list[np.ndarray]:
    """All group elements rho(g^0), ..., rho(g^(order-1)); cyclic reps only."""
    out = [np.eye(rep.dim)]
    for _ in range(rep.order - 1):
        out.append(rep.generators[0] @ out[-1])
    return out


def orbit(rep: GroupRep, *points) -> list[np.ndarray]:
    """Each point's orbit rho(g^0) p, ..., rho(g^(order-1)) p, stacked along a new first axis.

    Each point is converted by ``real_array`` and checked by ``check_acts_on``;
    the elements are built once for all points. Cyclic reps only.
    """
    points = [real_array(p, None, "point") for p in points]
    for p in points:
        check_acts_on(rep, p)
    mats = elements(rep)
    return [np.stack([g @ p for g in mats]) for p in points]


def group_average(rep: GroupRep) -> np.ndarray:
    """Mean of all group elements: an idempotent projector onto the fixed subspace."""
    mats = elements(rep)
    return sum(mats[1:], start=mats[0]) / len(mats)


def invariance_constraint(rep: GroupRep) -> ConstraintMatrix:
    """Constraint G = [I - rho(g_1), ..., I - rho(g_M)]."""
    d = rep.dim
    blocks = [np.eye(d) - g for g in rep.generators]
    # a generator within _validate_generator's tolerance of I is the identity: no constraint
    blocks = [np.zeros_like(b) if np.linalg.norm(b) <= tol.REP_VALIDATION * d else b
              for b in blocks]
    return ConstraintMatrix(entries=_freeze(np.hstack(blocks)))


def equivariance_constraint(rep_x: GroupRep, rep_y: GroupRep) -> ConstraintMatrix:
    """The invariance constraint of rho_X(g) (x) rho_Y(g^-1)^T on vec(W) (column-major).

    W rho_X(g) = rho_Y(g) W exactly when rho_X(g)^T (x) rho_Y(g^-1) fixes vec(W).
    """
    if rep_x.orders != rep_y.orders:
        raise OrderMismatch(f"group orders differ: {rep_x.orders} vs {rep_y.orders}")
    gens = tuple(_freeze(np.kron(gx, np.linalg.matrix_power(gy, order - 1).T))
                 for gx, gy, order in zip(rep_x.generators, rep_y.generators, rep_x.orders))
    return invariance_constraint(GroupRep(generators=gens, orders=rep_x.orders))


def invariant_basis(constraint: ConstraintMatrix | np.ndarray) -> np.ndarray:
    """Orthonormal rows B (d x d0) spanning the left null space of G: B G = 0.

    G is a ConstraintMatrix or an array-like (through ``as_constraint``). The
    rows are the null columns of G's one cached SVD, transposed, so they carry
    ``linalg.svd``'s sign convention: the first largest-magnitude entry of
    every left singular vector, null columns included, is positive.
    """
    constraint = as_constraint(constraint, None)
    if constraint.nullity == 0:
        raise EmptyNullSpace("constraint has full row rank: no invariant maps")
    return constraint.factors.u[:, constraint.dim - constraint.nullity:].T.copy()


# the rows of an equivariance constraint's invariant basis are vectorized equivariant maps
equivariant_null_basis = invariant_basis


def is_unitary(rep: GroupRep, tolerance: float = tol.ORTHOGONALITY) -> bool:
    """True iff every generator is orthogonal within the given tolerance."""
    d = rep.dim
    return all(np.linalg.norm(g.T @ g - np.eye(d)) <= tolerance for g in rep.generators)
