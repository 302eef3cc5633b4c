"""Tangent kernels of shallow scalar networks and their group-averaged forms.

Finite-width empirical kernels of the bias-free two-layer net
f(x) = (1/sqrt(d1)) sum_d a_d sigma(w_d^T x), the closed-form infinite-width
ReLU kernel, the orbit-averaged kernel, the group-convolutional finite-width
kernel, and ridge-free kernel interpolation. Scalar outputs only.
``property_suites`` runs the four kernel property checks of ``ntk-check``
on a unitary group representation and returns their rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from . import tolerances as tol
from .activations import get_activation
from .checks import NONNEGATIVE, SEED, all_finite, count, real_array
from .errors import (DimensionMismatch, InvalidArgument, NotUnitary, ShapeMismatch, SingularKernel,
                     ZeroVector)
from .groups import GroupRep, check_acts_on, elements, is_unitary, orbit
from .training import augment_dataset


@dataclass(frozen=True)
class WidthSampleSet:
    """Sampled first-layer weights and output scales of a finite-width net."""

    weights: np.ndarray     # d1 x d0
    out_scales: np.ndarray  # d1
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "weights", real_array(self.weights, 2, "sample weights"))
        object.__setattr__(self, "out_scales", real_array(self.out_scales, 1, "output scales"))
        if self.weights.shape[0] != self.out_scales.shape[0]:
            raise DimensionMismatch("one output scale per weight vector required")
        if not (all_finite(self.weights) and all_finite(self.out_scales)):
            raise InvalidArgument("sample weights and scales must be finite")

    @property
    def width(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric kernel Gram matrix plus the diagonal jitter used in solves."""

    entries: np.ndarray
    jitter: float


def sample_width_set(dim: int, width: int, seed: int) -> WidthSampleSet:
    """a_d ~ N(0,1), w_d ~ N(0, I_dim), drawn from one seeded generator."""
    count(1).check(dim, "dim")
    count(1).check(width, "width")
    SEED.check(seed, "seed")
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((width, dim))
    out_scales = rng.standard_normal(width)
    return WidthSampleSet(weights=weights, out_scales=out_scales, seed=seed)


def orbit_symmetrize(samples: WidthSampleSet, rep: GroupRep) -> WidthSampleSet:
    """Close the weight set under w -> rho(g)^T w, replicating out scales.

    The exact conv-kernel = augmented-kernel identity holds on orbit-closed
    sets; expansion is sample-major (the full orbit of w_0 first).
    """
    check_acts_on(rep, samples.weights.T)
    mats = elements(rep)
    weights = np.vstack([
        np.stack([g.T @ w for g in mats]) for w in samples.weights
    ])
    out_scales = np.repeat(samples.out_scales, len(mats))
    return WidthSampleSet(weights=weights, out_scales=out_scales, seed=samples.seed)


def _input_pair(x: np.ndarray, xp: np.ndarray, dim: int | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """x and x' as finite float vectors of one length (``dim`` when given).

    DimensionMismatch for another shape, InvalidArgument for a non-finite entry.
    """
    x, xp = real_array(x, None, "x"), real_array(xp, None, "x'")
    if x.ndim != 1 or x.shape != xp.shape or dim not in (None, x.shape[0]):
        length = "one length" if dim is None else f"length {dim}"
        raise DimensionMismatch(f"inputs {x.shape}, {xp.shape} are not vectors of {length}")
    if not (all_finite(x) and all_finite(xp)):
        raise InvalidArgument("kernel inputs must be finite")
    return x, xp


def relu_limiting_ntk(x: np.ndarray, xp: np.ndarray) -> float:
    """Infinite-width tangent kernel of the two-layer ReLU net.

    K(x, x') = (x.x'/(2 pi)) (pi - theta)
             + (|x||x'|/(2 pi)) ((pi - theta) cos theta + sin theta),
    with theta the angle between x and x'. The angle comes from the
    two-argument arctangent of the unit-vector sum and difference, which is
    exact at the parallel and antipodal endpoints where arccos of a rounded
    cosine loses ~sqrt(eps) digits.
    """
    x, xp = _input_pair(x, xp)
    nx = float(np.linalg.norm(x))
    np_ = float(np.linalg.norm(xp))
    if nx == 0.0 or np_ == 0.0:
        raise ZeroVector("limiting kernel needs nonzero inputs")
    u = x / nx
    v = xp / np_
    theta = 2.0 * np.arctan2(np.linalg.norm(u - v), np.linalg.norm(u + v))
    dot = float(x @ xp)
    return dot * (np.pi - theta) / (2 * np.pi) + nx * np_ * (
        (np.pi - theta) * np.cos(theta) + np.sin(theta)
    ) / (2 * np.pi)


def empirical_ntk(samples: WidthSampleSet, activation: str,
                  x: np.ndarray, xp: np.ndarray) -> float:
    """Finite-width kernel
    (1/d1) sum_d [a_d^2 sigma'(w_d.x) sigma'(w_d.x') x.x' + sigma(w_d.x) sigma(w_d.x')].
    """
    return float(np.mean(empirical_ntk_terms(samples, activation, x, xp)))


def empirical_ntk_terms(samples: WidthSampleSet, activation: str,
                        x: np.ndarray, xp: np.ndarray) -> np.ndarray:
    """The d1 per-unit summands of the empirical kernel (for error bars)."""
    x, xp = _input_pair(x, xp, samples.weights.shape[1])
    act, act_prime = get_activation(activation)
    pre_x = samples.weights @ x
    pre_y = samples.weights @ xp
    grad_term = samples.out_scales ** 2 * act_prime(pre_x) * act_prime(pre_y) * float(x @ xp)
    return grad_term + act(pre_x) * act(pre_y)


def augmented_kernel(kernel: Callable[[np.ndarray, np.ndarray], float],
                     rep: GroupRep, x: np.ndarray, xp: np.ndarray) -> float:
    """Uniform group average E_g k(rho(g) x, x'); x is converted by ``orbit``."""
    return float(np.mean([kernel(gx, xp) for gx in orbit(rep, x)[0]]))


def _conv_orbits(samples: WidthSampleSet, rep: GroupRep, *points: np.ndarray
                 ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per point, its orbit (k x d0) and the pre-activations w_d^T rho(g) p (d1 x k)."""
    check_acts_on(rep, samples.weights.T)
    return [(p_orbit, samples.weights @ p_orbit.T) for p_orbit in orbit(rep, *points)]


def conv_forward(samples: WidthSampleSet, activation: str, rep: GroupRep,
                 x: np.ndarray) -> float:
    """Group-convolutional net (1/sqrt(d1)) sum_d a_d mean_g sigma(w_d^T rho(g) x)."""
    ((_, pre),) = _conv_orbits(samples, rep, x)
    act, _ = get_activation(activation)
    return float(samples.out_scales @ act(pre).mean(axis=1) / np.sqrt(samples.width))


def conv_empirical_ntk(samples: WidthSampleSet, activation: str, rep: GroupRep,
                       x: np.ndarray, xp: np.ndarray) -> float:
    """Finite-width kernel of the group-convolutional net.

    Both terms carry group-averaged features: the activation product of the
    pooled activations and the gradient product of the orbit-averaged
    sigma'-weighted inputs. Requires a unitary representation.
    """
    if not is_unitary(rep):
        raise NotUnitary("group-convolutional kernel requires a unitary representation")
    orbits = _conv_orbits(samples, rep, x, xp)
    act, act_prime = get_activation(activation)
    # per input: the pooled activations (d1) and the orbit-averaged sigma'-weighted input (d1 x d0)
    (s_x, g_x), (s_y, g_y) = ((act(pre).mean(axis=1), act_prime(pre) @ p_orbit / len(p_orbit))
                              for p_orbit, pre in orbits)
    act_term = s_x * s_y
    grad_term = samples.out_scales ** 2 * np.sum(g_x * g_y, axis=1)
    return float(np.mean(act_term + grad_term))


def build_kernel_matrix(kernel: Callable[[np.ndarray, np.ndarray], float],
                        points: np.ndarray, jitter: float | None = None) -> KernelMatrix:
    """Gram matrix over the columns of ``points``; default jitter KERNEL_JITTER_REL trace/n."""
    points = linalg.as_matrix(points)
    n = count(1).check(points.shape[1], "the point count")
    if jitter is not None:
        NONNEGATIVE.check(jitter, "jitter")
    k = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            k[i, j] = kernel(points[:, i], points[:, j])
            k[j, i] = k[i, j]
    if jitter is None:
        jitter = tol.KERNEL_JITTER_REL * float(np.trace(k)) / n
    return KernelMatrix(entries=k, jitter=float(jitter))


def kernel_interpolate(k: KernelMatrix, y: np.ndarray) -> np.ndarray:
    """Solve (K + jitter I) alpha = y, verifying the residual; y has one entry per point."""
    y = real_array(y, None, "targets")
    if y.shape[:1] != k.entries.shape[:1]:
        raise ShapeMismatch(f"targets {y.shape} lack one entry per kernel point "
                            f"({k.entries.shape[0]})")
    system = k.entries + k.jitter * np.eye(k.entries.shape[0])
    try:
        alpha = np.linalg.solve(system, y)
    except np.linalg.LinAlgError as exc:
        raise SingularKernel(f"kernel solve failed: {exc}") from exc
    residual = float(np.linalg.norm(system @ alpha - y))
    bound = tol.KERNEL_RESIDUAL * max(float(np.linalg.norm(y)), tol.SCALE_FLOOR)
    if not residual <= bound:  # a NaN residual fails too
        raise SingularKernel(f"solve residual {residual:.3e} exceeds {bound:.3e}")
    return alpha


def kernel_predict(kernel: Callable[[np.ndarray, np.ndarray], float],
                   centers: np.ndarray, coeffs: np.ndarray, x: np.ndarray) -> float:
    """sum_i coeffs[i] k(x, centers[:, i]); coeffs has one entry per center."""
    centers, coeffs = linalg.as_matrix(centers), real_array(coeffs, None, "coefficients")
    if coeffs.shape != centers.shape[1:]:
        raise ShapeMismatch(f"coefficients {coeffs.shape} are not one per center "
                            f"of {centers.shape}")
    return float(sum(coeffs[i] * kernel(x, centers[:, i]) for i in range(centers.shape[1])))


def _unit_pair(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Two standard normal draws of length ``dim``, each scaled to unit norm."""
    x, xp = rng.standard_normal(dim), rng.standard_normal(dim)
    return x / np.linalg.norm(x), xp / np.linalg.norm(xp)


def _orbit_spread(f: Callable[..., float], *orbits: np.ndarray) -> float:
    """max over g != e of |f(rho(g) p, ...) - f(p, ...)|, from the points' orbits; 0 for |G| = 1."""
    base = f(*(o[0] for o in orbits))
    return max((abs(f(*moved) - base) for moved in zip(*(o[1:] for o in orbits))), default=0.0)


def property_suites(rep: GroupRep, width: int, trials: int, seed: int
                    ) -> list[tuple[str, int, float, float, bool]]:
    """ntk-check's four suites as (suite, trial, discrepancy, tolerance, ok) rows; rep unitary.

    ``trials`` unit-vector pairs each for ``equivariance`` (the closed form is
    unchanged when both inputs move by one group element), ``monte_carlo``
    (the ``width``-unit kernel is within MONTE_CARLO_SE standard errors of the
    closed form) and ``orbit_symmetrized`` (conv kernel = augmented kernel on
    an orbit-closed 32-unit set); 20 test points for ``augmented_predictor``
    (the interpolant of 12 points augmented over the group is invariant). One
    generator seeded by ``seed`` draws every input, each suite's before that
    suite runs; the sample sets use seed and seed + 1.
    """
    count(2).check(width, "width")  # the Monte-Carlo bound needs a standard error
    count(1).check(trials, "trials")
    SEED.check(seed, "seed")
    if not is_unitary(rep):
        raise NotUnitary("the kernel property suites require a unitary representation")
    rng = np.random.default_rng(seed)
    d0 = rep.dim
    exact = tol.KERNEL_IDENTITY  # the bound of both exact identities
    rows = []

    orbits = orbit(rep, *(v for _ in range(trials) for v in _unit_pair(rng, d0)))
    for t, pair in enumerate(zip(orbits[::2], orbits[1::2])):
        value = _orbit_spread(relu_limiting_ntk, *pair)
        rows.append(("equivariance", t, value, exact, bool(value < exact)))
    del orbits  # not held under the width sample

    samples = sample_width_set(d0, width, seed)
    for t, (x, xp) in enumerate([_unit_pair(rng, d0) for _ in range(trials)]):
        value = abs(empirical_ntk(samples, "relu", x, xp) - relu_limiting_ntk(x, xp))
        terms = empirical_ntk_terms(samples, "relu", x, xp)
        bound = tol.MONTE_CARLO_SE * float(terms.std(ddof=1)) / np.sqrt(terms.size)
        rows.append(("monte_carlo", t, value, bound, bool(value <= bound)))

    sym = orbit_symmetrize(sample_width_set(d0, 32, seed + 1), rep)
    for t, (x, xp) in enumerate([_unit_pair(rng, d0) for _ in range(trials)]):
        value = abs(conv_empirical_ntk(sym, "relu", rep, x, xp)
                    - augmented_kernel(lambda a, b: empirical_ntk(sym, "relu", a, b), rep, x, xp))
        rows.append(("orbit_symmetrized", t, value, exact, bool(value < exact)))

    points, targets = rng.standard_normal((d0, 12)), rng.standard_normal(12)
    x_aug, y_aug = augment_dataset(points, targets.reshape(1, -1), rep)
    coeffs = kernel_interpolate(build_kernel_matrix(relu_limiting_ntk, x_aug), y_aug.ravel())
    bound = tol.PREDICTOR_INVARIANCE_REL * float(np.max(np.abs(targets)))
    test_orbits = orbit(rep, *(rng.standard_normal(d0) for _ in range(20)))
    for t, test_orbit in enumerate(test_orbits):
        value = _orbit_spread(lambda v: kernel_predict(relu_limiting_ntk, x_aug, coeffs, v),
                              test_orbit)
        rows.append(("augmented_predictor", t, value, bound, bool(value <= bound)))
    return rows
