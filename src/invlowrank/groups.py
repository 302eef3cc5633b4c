"""Finite group representations and the linear constraints they induce.

A representation is given by one or more generator matrices with declared
orders. A linear map W is invariant exactly when W G = 0 for the constraint
matrix G built from blocks I - rho(g_m); one cached SVD of G decides the
nullity, the invariant basis and the projector. Equivariance is invariance of
the tensor representation rho_X (x) rho_Y(g^-1)^T acting on vec(W).

Group elements and averages are only enumerated for single-generator
(cyclic) representations; multi-generator groups are supported through the
stacked constraint blocks alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from . import tolerances as tol
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
        """I - G G^+, computed on first use and kept; W (I - G G^+) is the invariant part of W."""
        proj = np.eye(self.dim) - self.entries @ self.factors.pinv(self.dim - self.nullity)
        return _freeze((proj + proj.T) / 2.0)


def constraint_entries(g: ConstraintMatrix | np.ndarray) -> np.ndarray:
    """The matrix G of a ConstraintMatrix, or an array-like G as a float array."""
    return g.entries if isinstance(g, ConstraintMatrix) else np.asarray(g, dtype=float)


def _validate_generator(gen: np.ndarray, order: int) -> np.ndarray:
    gen = np.asarray(gen, dtype=float)
    if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
        raise NonSquare(f"generator must be square, got shape {gen.shape}")
    if order < 1:
        raise InvalidArgument(f"order must be >= 1, got {order}")
    d = gen.shape[0]
    power = np.linalg.matrix_power(gen, order)
    if np.linalg.norm(power - np.eye(d)) > tol.REP_VALIDATION * d:
        raise NotARepresentation(
            f"generator**{order} differs from the identity beyond {tol.REP_VALIDATION * d:.1e}"
        )
    return gen


def rep_from_generator(gen: np.ndarray, order: int) -> GroupRep:
    """Validate a single generator of a cyclic group of the given order."""
    gen = _validate_generator(gen, order)
    return GroupRep(generators=(_freeze(gen),), orders=(order,))


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
    if p < 1:
        raise InvalidArgument(f"grid side must be >= 1, got {p}")
    gen = np.zeros((p * p, p * p))
    i, j = np.divmod(np.arange(p * p), p)
    gen[(p - 1 - i) * p + j, j * p + i] = 1.0
    return rep_from_generator(gen, 4)


def cyclic_permutation(d: int) -> GroupRep:
    """The full d-cycle permutation rep on R^d (order d)."""
    if d < 1:
        raise InvalidArgument(f"dimension must be >= 1, got {d}")
    gen = np.roll(np.eye(d), 1, axis=0)
    return rep_from_generator(gen, d)


def rotation_2d(k: int) -> GroupRep:
    """Planar rotation by 2*pi/k, order k.

    Note: the rotation group of a regular k-gon is generated by the angle
    2*pi/k; that convention is used here.
    """
    if k < 1:
        raise InvalidArgument(f"order must be >= 1, got {k}")
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
    if j < 0 or j >= rep.order:
        raise IndexOutOfRange(f"element index {j} outside [0, {rep.order})")
    return elements(rep)[j]


def elements(rep: GroupRep) -> list[np.ndarray]:
    """All group elements rho(g^0), ..., rho(g^(order-1)); cyclic reps only."""
    out = [np.eye(rep.dim)]
    for _ in range(rep.order - 1):
        out.append(rep.generators[0] @ out[-1])
    return out


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


def invariant_basis(constraint: ConstraintMatrix) -> np.ndarray:
    """Orthonormal rows B (d x d0) spanning the left null space of G: B G = 0.

    Sign convention: the first nonzero entry of each row is positive, so the
    basis is reproducible across runs.
    """
    if constraint.nullity == 0:
        raise EmptyNullSpace("constraint has full row rank: no invariant maps")
    basis = constraint.factors.u[:, constraint.dim - constraint.nullity:].T.copy()
    for row in basis:
        floor = tol.BASIS_SIGN_FLOOR * max(1.0, float(np.max(np.abs(row))))
        nonzero = np.nonzero(np.abs(row) > floor)[0]
        if nonzero.size and row[nonzero[0]] < 0:
            row *= -1.0
    return basis


# the rows of an equivariance constraint's invariant basis are vectorized equivariant maps
equivariant_null_basis = invariant_basis


def is_unitary(rep: GroupRep, tolerance: float = tol.ORTHOGONALITY) -> bool:
    """True iff every generator is orthogonal within the given tolerance."""
    d = rep.dim
    return all(np.linalg.norm(g.T @ g - np.eye(d)) <= tolerance for g in rep.generators)
