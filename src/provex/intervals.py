"""Axis-aligned boxes over real vectors, and the activations they pass through.

All set propagation in this package runs on axis-aligned boxes, stored as
paired float64 arrays of lower and upper endpoints.  The one interval step
that moves a box through a layer, an anchor-width affine enclosure and a
monotone activation, lives in ``bounds.enclose_affine``; this module holds
the box type and the activations.  A point box encloses its forward pass
bit for bit; wider boxes' endpoints are plain binary64 without directed
rounding, so containment tests on them carry a 1e-9 slack instead.

An activation returns a fresh array and never writes into its argument,
which may be a frozen enclosure endpoint, unless its caller hands it an
``out`` array; the forward pass and the bound kernel hand it the fresh
pre-activation they own, so no layer allocates a second full-size result.
The sigmoid is evaluated as ``max(e, z >= 0) / (1 + e)`` with
``e = exp(-|z|)``, computed in place.  Since 0 <= e <= 1, the numerator is
1 where z >= 0 and e elsewhere, so the result has the bits of
``where(z >= 0, 1, e) / (1 + e)``: 1 / (1 + exp(-z)) for z >= 0 and
exp(z) / (1 + exp(z)) below, with no overflow.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ValidationError, check_number


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
    def adopt(cls, lo: np.ndarray, hi: np.ndarray) -> "IntervalVector":
        """A box over endpoint vectors the caller owns and hands over, frozen in place, not copied.

        For the bound kernel's fresh output, whose shapes agree and whose
        endpoints are ordered by construction, so only finiteness is
        checked.  The caller must not keep a writable reference.
        """
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValidationError("interval endpoints must be finite")
        lo.setflags(write=False)
        hi.setflags(write=False)
        box = cls.__new__(cls)
        object.__setattr__(box, "lo", lo)
        object.__setattr__(box, "hi", hi)
        return box

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

    def contains_point(self, x) -> bool:
        arr = _as_vector(x, "x")
        if arr.shape != self.lo.shape:
            raise DimensionError(f"point has length {arr.shape[0]}, box has {len(self)}")
        return bool(np.all(self.lo <= arr) and np.all(arr <= self.hi))


def apply_activation(kind: str, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply a supported elementwise activation to an array.

    The result is a fresh array and ``values`` is left untouched, unless
    the caller passes ``out`` (which may be ``values`` itself, when the
    caller owns it) to receive the result.
    """
    if kind == "relu":
        return np.maximum(values, 0.0, out=out)
    if kind == "sigmoid":
        return _sigmoid(values, out)
    if kind == "tanh":
        return np.tanh(values, out=out)
    if kind == "identity":
        if out is None:
            return np.asarray(values, dtype=np.float64)
        out[...] = values
        return out
    raise ValidationError(f"unsupported activation kind: {kind!r}")


def iv_subset(a: IntervalVector, b: IntervalVector, slack: float = 0.0) -> bool:
    """True iff box a is contained in box b, loosened by ``slack`` per side."""
    if len(a) != len(b):
        raise DimensionError(f"length mismatch: {len(a)} vs {len(b)}")
    check_number("slack", slack, minimum=0)
    return bool(np.all(b.lo - slack <= a.lo) and np.all(a.hi <= b.hi + slack))


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # exp(-|z|) never overflows.  It is exp(-z) for z >= 0 and exp(z) below,
    # so the result is 1 / (1 + exp(-z)) or exp(z) / (1 + exp(z)) exactly.
    # The numerator is max(e, z >= 0): e <= 1, so the max is 1 where z >= 0
    # and e elsewhere, the bits of where(z >= 0, 1, e) without its cost.
    # The sign mask is taken first, so ``out`` may be z itself.
    z = np.asarray(z, dtype=np.float64)
    upper = z >= 0
    e = np.abs(z, out=np.empty_like(z) if out is None else out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denominator = e + 1.0
    np.maximum(e, upper, out=e)
    return np.divide(e, denominator, out=e)
