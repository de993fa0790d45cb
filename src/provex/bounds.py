"""Sound set propagation through concrete and reduced networks.

All box propagation in the package runs through one kernel,
``enclose_affine``: the sign-split enclosure of ``activation(W @ v + b)``
over a box, computed on raw endpoint arrays that hold one box or a batch
of boxes, one per row.  ``enclose_layer`` applies it to any layer of the
shared layer protocol (``weights_pos``, ``weights_neg``, ``bias_lo``,
``bias_hi``, ``activation``), which a concrete ``Layer`` answers with a
point bias and a reduced layer with an interval bias.  ``propagate_box``
records one enclosure per layer of a concrete network;
``propagate_abstract`` returns the output enclosure of a reduced one, and
``propagate_rows`` the output enclosures of a batch of boxes.  Every
reachable activation vector over the box is contained in the recorded
enclosures; the final entry encloses the output set.  A ``LayerBounds``
names the network it was computed for, and keeps the neuron ranking that
reductions against its box are built from once ``score_neurons`` has
computed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ValidationError
from .intervals import IntervalVector, apply_activation, iv_subset
from .network import ConcreteNetwork


@dataclass(frozen=True, eq=False)
class LayerBounds:
    """Per-layer post-activation enclosures for one (network, box) pair.

    ``net_fingerprint`` ties the bounds to the exact network they were
    computed for, so downstream consumers can reject stale bounds.
    ``_ranking`` is ``abstraction.score_neurons`` of these bounds, kept
    here the first time it is computed.
    """

    input_box: IntervalVector
    per_layer: tuple[IntervalVector, ...]
    net_fingerprint: str
    _ranking: tuple | None = field(default=None, init=False, repr=False)

    @property
    def final(self) -> IntervalVector:
        """Output enclosure: a superset of the network's image of the box."""
        return self.per_layer[-1]

    def matches(self, net: ConcreteNetwork) -> bool:
        return self.net_fingerprint == net.fingerprint


def enclose_affine(pos, neg, lo, hi, bias_lo, bias_hi, activation: str = "identity"):
    """Tightest box around ``activation(W @ v + b)`` for v in [lo, hi], b in [bias_lo, bias_hi].

    ``pos`` and ``neg`` are the nonnegative and nonpositive parts of W, so
    every output endpoint is attained at a corner of the input box.  The
    activation is monotone nondecreasing and maps endpoints to endpoints.
    ``lo`` and ``hi`` are one box of shape (n,) or a batch of shape (B, n),
    one box per row; the result has the same leading shape.  Each endpoint
    is ``lo @ pos.T + hi @ neg.T + bias_lo`` (and its mirror), summed left
    to right in place in the first product's fresh array, which then takes
    the activation in place too.
    """
    out_lo = lo @ pos.T
    out_lo += hi @ neg.T
    out_lo += bias_lo
    out_hi = hi @ pos.T
    out_hi += lo @ neg.T
    out_hi += bias_hi
    return apply_activation(activation, out_lo, out=out_lo), apply_activation(activation, out_hi, out=out_hi)


def enclose_layer(layer, lo, hi):
    """One layer of the layer protocol applied to the box [lo, hi]."""
    return enclose_affine(
        layer.weights_pos, layer.weights_neg, lo, hi, layer.bias_lo, layer.bias_hi, layer.activation.value
    )


def propagate_box(net: ConcreteNetwork, input_box: IntervalVector) -> LayerBounds:
    """Enclose the reachable set of every layer over ``input_box``."""
    if len(input_box) != net.input_dim:
        raise DimensionError(f"box has {len(input_box)} dimensions, network expects {net.input_dim}")
    if not iv_subset(input_box, net.input_domain, slack=1e-12):
        raise ValidationError("input box exceeds the network's input domain")
    lo, hi = input_box.lo, input_box.hi
    per_layer = []
    for layer in net.layers:
        lo, hi = enclose_layer(layer, lo, hi)
        per_layer.append(IntervalVector.adopt(lo, hi))
    return LayerBounds(input_box=input_box, per_layer=tuple(per_layer), net_fingerprint=net.fingerprint)


def propagate_abstract(anet, input_box: IntervalVector) -> IntervalVector:
    """Output enclosure of a reduced network over ``input_box``.

    ``anet`` is any object exposing ``input_dim`` and ``layers`` that follow
    the layer protocol.  The enclosure is valid for boxes contained in the
    box the reduction was built against.
    """
    if len(input_box) != anet.input_dim:
        raise DimensionError(f"box has {len(input_box)} dimensions, network expects {anet.input_dim}")
    return IntervalVector(*propagate_rows(anet.layers, input_box.lo, input_box.hi))


def propagate_rows(layers, lo, hi):
    """Output enclosures of a batch of boxes, one per row of ``lo`` and ``hi``.

    All boxes go through every layer together, one matrix product per
    endpoint and sign.  Unchecked: the caller keeps the boxes inside the
    input domain (and, for a reduced network, inside its build box).

    Row collapse: a layer with no inputs (``in_dim == 0``, because a
    reduction merged the whole layer before it) gives every box the same
    enclosure, its activated bias interval, whatever came before.  So the
    pass starts at the last such layer with one empty row, skips the layers
    before it, and repeats the one-row result once per box at the end.  A
    reduced check then costs the layers after its last fully merged layer,
    on one row: on the 784-input sigmoid net, every rate from 0.1 to 0.8
    reduces to this shape.  The one-row result has the bits of that row
    passed alone, which may differ in rounding from the same row inside a
    batch (the matrix product may take another kernel).
    """
    rows = None
    for k in range(len(layers) - 1, 0, -1):
        if layers[k].in_dim == 0:
            rows, layers = lo.shape[:-1], layers[k:]
            lo = hi = np.empty(0)
            break
    for layer in layers:
        lo, hi = enclose_layer(layer, lo, hi)
    if rows is not None:
        lo = np.broadcast_to(lo, rows + lo.shape).copy()
        hi = np.broadcast_to(hi, rows + hi.shape).copy()
    return lo, hi


def uniform_draw(lo, hi, shape, rng: np.random.Generator) -> np.ndarray:
    """``rng.uniform(lo, hi, shape)`` for endpoints that broadcast to ``shape``, in half the time.

    ``lo + (hi - lo) * rng.random(shape)`` is the formula numpy's
    ``uniform`` evaluates, so the draw has the same bits and leaves the
    generator in the same state; ``uniform`` spends the difference
    broadcasting its arguments element by element.
    """
    return lo + (hi - lo) * rng.random(shape)


def sample_box(box: IntervalVector, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of points from a box, one per row."""
    return uniform_draw(box.lo, box.hi, (count, len(box)), rng)
