"""Sound set propagation through concrete and reduced networks.

All box propagation in the package runs through one kernel,
``enclose_affine``: the anchor-width enclosure of ``activation(W @ v + b)``
over a box, computed on raw endpoint arrays that hold one box or a batch
of boxes, one per row.  ``enclose_layer`` applies it to any layer of the
shared layer protocol (``weights``, ``weights_neg``, ``bias_lo``,
``bias_hi``, ``activation``), which a concrete ``Layer`` answers with a
point bias and a reduced layer with an interval bias.  A point box (every
width zero) encloses exactly its own forward pass, bit for bit.
``propagate_box`` records one enclosure per layer of a concrete network;
``propagate_abstract`` returns the output enclosure of a reduced one, and
``propagate_rows`` the output enclosures of a batch of boxes.  Every
reachable activation vector over the box is contained in the recorded
enclosures; the final entry encloses the output set.  A ``LayerBounds``
names the network it was computed for, and keeps the one ranking of every
hidden neuron that reductions against its box merge from and refine by,
once ``score_neurons`` has computed it.
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
    here the first time it is computed: every hidden neuron's score by flat
    id, the flat ids in (score, layer, index) order, and the layer offsets.
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


def enclose_affine(w, neg, lo, hi, bias_lo, bias_hi, activation: str = "identity"):
    """Tightest box around ``activation(W @ v + b)`` for v in [lo, hi], b in [bias_lo, bias_hi].

    Anchor-width form, with ``w`` = W and ``neg`` its nonpositive part: the
    sign-split endpoints ``lo @ W⁺ᵀ + hi @ W⁻ᵀ`` and ``hi @ W⁺ᵀ + lo @ W⁻ᵀ``
    are ``lo @ Wᵀ + s`` and ``hi @ Wᵀ - s`` with ``s = (hi - lo) @ W⁻ᵀ``, in
    three products instead of four.  Each is summed left to right in place
    in its fresh product, bias last, so a zero width adds an exact zero and
    a point box's endpoints are its forward pass bit for bit.  The rounded
    anchors of a nearly flat box can cross by an ulp (in real arithmetic
    they never do), so their hull takes the monotone activation, in place.
    ``lo`` and ``hi`` hold one box, shape (n,), or one per row, (B, n).
    """
    s = (hi - lo) @ neg.T
    out_lo = lo @ w.T
    out_lo += s
    out_lo += bias_lo
    out_hi = hi @ w.T
    out_hi -= s
    out_hi += bias_hi
    hull_lo = np.minimum(out_lo, out_hi)
    np.maximum(out_hi, out_lo, out=out_hi)
    return apply_activation(activation, hull_lo, out=hull_lo), apply_activation(activation, out_hi, out=out_hi)


def enclose_layer(layer, lo, hi):
    """One layer of the layer protocol applied to the box [lo, hi]."""
    return enclose_affine(
        layer.weights, layer.weights_neg, lo, hi, layer.bias_lo, layer.bias_hi, layer.activation.value
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

    ``anet`` is any object exposing ``input_dim``, ``layers`` that follow
    the layer protocol, and ``build_box``, the box it was built against.
    The enclosure is valid only for boxes inside that box, so any other box
    is rejected.
    """
    if len(input_box) != anet.input_dim:
        raise DimensionError(f"box has {len(input_box)} dimensions, network expects {anet.input_dim}")
    if not iv_subset(input_box, anet.build_box):
        raise ValidationError("box is not inside the box the reduction was built against")
    return IntervalVector(*propagate_rows(anet.layers, input_box.lo, input_box.hi))


def propagate_rows(layers, lo, hi):
    """Output enclosures of a batch of boxes, one per row of ``lo`` and ``hi``.

    All boxes go through every layer together, three matrix products per
    layer.  Unchecked: the caller keeps the boxes inside the input domain
    (and, for a reduced network, inside its build box).

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


def sample_box(box: IntervalVector, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of points from a box, one per row.

    ``lo + width * rng.random(...)`` is the formula numpy's ``uniform``
    evaluates, so the draw has its bits and leaves the generator where it
    leaves it, in half the time.
    """
    return box.lo + box.width * rng.random((count, len(box)))
