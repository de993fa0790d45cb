"""Axis-aligned boxes over real vectors, and the activations they pass through.

All set propagation in this package runs on axis-aligned boxes, stored as
paired float64 arrays of lower and upper endpoints.  The one interval step
that moves a box through a layer, a sign-split affine enclosure followed by
a monotone activation, lives in ``bounds.enclose_affine``; this module holds
the box type and the elementwise activations.  Endpoints are plain binary64
without directed rounding; containment assertions in the test suite carry
a 1e-9 slack instead.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import DimensionError, ValidationError


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


class IntervalVector:
    """An axis-aligned box: one closed interval per dimension."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = _as_vector(lo, "lo")
        hi = _as_vector(hi, "hi")
        if lo.shape != hi.shape:
            raise DimensionError(f"endpoint arrays disagree: {lo.shape} vs {hi.shape}")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValidationError("interval endpoints must be finite")
        if np.any(lo > hi):
            bad = int(np.argmax(lo > hi))
            raise ValidationError(f"dimension {bad}: lower bound {lo[bad]} exceeds upper bound {hi[bad]}")
        lo = lo.copy()
        hi = hi.copy()
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def unit_box(cls, n: int) -> "IntervalVector":
        return cls(np.zeros(n), np.ones(n))

    def __len__(self) -> int:
        return self.lo.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalVector):
            return NotImplemented
        return np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)

    def __repr__(self) -> str:
        pairs = ", ".join(f"[{l:g},{h:g}]" for l, h in zip(self.lo, self.hi))
        return f"IntervalVector({pairs})"

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def contains_point(self, x, slack: float = 0.0) -> bool:
        arr = _as_vector(x, "x")
        if arr.shape != self.lo.shape:
            raise DimensionError(f"point has length {arr.shape[0]}, box has {len(self)}")
        return bool(np.all(self.lo - slack <= arr) and np.all(arr <= self.hi + slack))

    def fingerprint(self) -> str:
        digest = hashlib.sha256(self.lo.tobytes() + self.hi.tobytes())
        return digest.hexdigest()[:16]


def apply_activation(kind: str, values: np.ndarray) -> np.ndarray:
    """Apply a supported elementwise activation to an array."""
    if kind == "relu":
        return np.maximum(values, 0.0)
    if kind == "sigmoid":
        return _sigmoid(values)
    if kind == "tanh":
        return np.tanh(values)
    if kind == "identity":
        return np.asarray(values, dtype=np.float64)
    raise ValidationError(f"unsupported activation kind: {kind!r}")


def iv_subset(a: IntervalVector, b: IntervalVector, slack: float = 0.0) -> bool:
    """True iff box a is contained in box b, loosened by ``slack`` per side."""
    if len(a) != len(b):
        raise DimensionError(f"length mismatch: {len(a)} vs {len(b)}")
    if slack < 0:
        raise ValidationError("slack must be nonnegative")
    return bool(np.all(b.lo - slack <= a.lo) and np.all(a.hi <= b.hi + slack))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Branch on sign to avoid overflow in exp for large |z|.
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
