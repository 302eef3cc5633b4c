"""Argument kinds: the one statement of what a count, a seed, a real or a mode may be.

A public entry point checks a count, a real or a mode through a ``Kind`` here,
converts a caller's array to float64 through ``real_array`` and tests its
entries with ``all_finite``, whose temporaries are bounded by FINITE_BLOCK
entries whatever the array's size; a new entry point does the same instead of
restating a rule, and passes the error class its documented contract names
(``InvalidArgument`` unless it names another).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import HarnessError, InvalidArgument, ShapeMismatch


@dataclass(frozen=True)
class Kind:
    """A predicate on values and the phrase messages use for them, e.g. "an integer >= 0"."""

    valid: Callable[[object], bool]
    phrase: str

    def check(self, value, name: str, error: type[HarnessError] = InvalidArgument):
        """value, unless it is not of this kind: then ``error`` naming ``name``."""
        if not self.valid(value):
            raise error(f"{name} must be {self.phrase}, got {value!r}")
        return value


def count(low: int) -> Kind:
    """Integers >= low; numpy integers (and bool) count."""
    return Kind(lambda v: isinstance(v, numbers.Integral) and v >= low, f"an integer >= {low}")


def one_of(options: tuple[str, ...]) -> Kind:
    return Kind(lambda v: isinstance(v, str) and v in options, f"one of {options}")


SEED = count(0)
REAL = Kind(lambda v: isinstance(v, numbers.Real) and math.isfinite(v), "a finite real")
NONNEGATIVE = Kind(lambda v: REAL.valid(v) and v >= 0, "a finite real >= 0")
POSITIVE = Kind(lambda v: REAL.valid(v) and v > 0, "a finite real > 0")

_FLOAT64 = np.dtype(np.float64)


def real_array(a, ndim: int | None, name: str) -> np.ndarray:
    """a as a float64 array, not copied if it is one, with ``ndim`` axes unless ndim is None.

    Raises InvalidArgument for complex, non-numeric or ragged entries and
    ShapeMismatch for another number of axes.
    """
    if type(a) is not np.ndarray or a.dtype is not _FLOAT64:
        try:
            a = np.asarray(a)
        except (TypeError, ValueError):  # ragged nesting
            a = np.array(None)
        if a.dtype.kind not in "biuf":  # bool, integer or real
            raise InvalidArgument(f"{name} must be an array of reals, got {a.dtype} entries")
        a = a.astype(_FLOAT64, copy=False)
    if ndim is not None and a.ndim != ndim:
        raise ShapeMismatch(f"{name} must be a {ndim}-d array, got shape {a.shape}")
    return a


FINITE_BLOCK = 1 << 13  # entries per ``all_finite`` block: a 64 KiB buffer of float64, an 8 KiB mask


def all_finite(a) -> bool:
    """Whether every entry of a is finite: ``np.all(np.isfinite(a))`` without a mask of a's size.

    numpy's buffered iterator walks a in memory order, whatever its shape and
    strides, in blocks of at most FINITE_BLOCK entries; it copies a block into
    its buffer only where a's strides need it. So no temporary exceeds one
    block and its mask (a ravel would copy a strided view whole).
    """
    blocks = np.nditer(np.asarray(a), flags=["external_loop", "buffered", "zerosize_ok"],
                       buffersize=FINITE_BLOCK)
    return all(np.isfinite(block).all() for block in blocks)
