"""Sound set propagation through concrete and reduced networks.

All box propagation in the package runs through one kernel,
``enclose_affine``: the sign-split enclosure of ``activation(W @ v + b)``
over a box, computed on raw endpoint arrays.  ``enclose_layer`` applies it
to any layer of the shared layer protocol (``weights_pos``,
``weights_neg``, ``bias_lo``, ``bias_hi``, ``activation``), which a
concrete ``Layer`` answers with a point bias and a reduced layer with an
interval bias.  ``propagate_box`` records one enclosure per layer of a
concrete network; ``propagate_abstract`` returns the output enclosure of a
reduced one.  Every reachable activation vector over the box is contained
in the recorded enclosures; the final entry encloses the output set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .intervals import IntervalVector, apply_activation, iv_subset
from .network import ConcreteNetwork


@dataclass(frozen=True, eq=False)
class LayerBounds:
    """Per-layer post-activation enclosures for one (network, box) pair.

    Fingerprints tie the bounds to the exact network and box they were
    computed for, so downstream consumers can reject stale bounds.
    """

    input_box: IntervalVector
    per_layer: tuple[IntervalVector, ...]
    net_fingerprint: str
    box_fingerprint: str

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
    """
    out_lo = pos @ lo + neg @ hi + bias_lo
    out_hi = pos @ hi + neg @ lo + bias_hi
    return apply_activation(activation, out_lo), apply_activation(activation, out_hi)


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
        per_layer.append(IntervalVector(lo, hi))
    return LayerBounds(
        input_box=input_box,
        per_layer=tuple(per_layer),
        net_fingerprint=net.fingerprint,
        box_fingerprint=input_box.fingerprint(),
    )


def propagate_abstract(anet, input_box: IntervalVector) -> IntervalVector:
    """Output enclosure of a reduced network over ``input_box``.

    ``anet`` is any object exposing ``input_dim`` and ``layers`` that follow
    the layer protocol.  The enclosure is valid for boxes contained in the
    box the reduction was built against.
    """
    if len(input_box) != anet.input_dim:
        raise DimensionError(f"box has {len(input_box)} dimensions, network expects {anet.input_dim}")
    lo, hi = input_box.lo, input_box.hi
    for layer in anet.layers:
        lo, hi = enclose_layer(layer, lo, hi)
    return IntervalVector(lo, hi)


def sample_box(box: IntervalVector, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of points from a box, one per row."""
    lo = np.broadcast_to(box.lo, (count, len(box)))
    hi = np.broadcast_to(box.hi, (count, len(box)))
    return rng.uniform(lo, hi)
