"""Network reduction by neuron merging, and its refinement.

A reduced network is built from a concrete one by deleting a set of hidden
neurons per layer and absorbing their bounded contribution to the next
layer into that layer's bias as an interval.  Deleted neurons are grouped
into buckets of overlapping activation ranges; each bucket contributes
through the interval hull of its members' ranges, with every outgoing
weight sign-split and the per-weight products Minkowski-summed.  Absorbing
a hull (rather than each member's own range) is what makes a coarse
reduction genuinely looser than the original network, so refinement has
observable effect; soundness is unaffected because the hull contains every
member range.

Refinement un-merges the highest-scored deleted neurons while preserving
the surviving bucket structure, which guarantees the refined enclosure is
nested inside the coarse one for the same query box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import LayerBounds, enclose_affine, enclose_layer
from .errors import DimensionError, ValidationError
from .network import ActivationKind, ConcreteNetwork

Buckets = tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False)
class MergeSpec:
    """Which hidden neurons were merged away, and for which query."""

    per_layer_merged: tuple[frozenset[int], ...]
    hidden_sizes: tuple[int, ...]
    source_net_id: str
    query_fingerprint: str

    def __post_init__(self):
        if len(self.per_layer_merged) != len(self.hidden_sizes):
            raise DimensionError("one merge set per hidden layer required")
        for k, (merged, size) in enumerate(zip(self.per_layer_merged, self.hidden_sizes)):
            if any(j < 0 or j >= size for j in merged):
                raise ValidationError(f"hidden layer {k}: merged indices out of range")

    @property
    def total_hidden(self) -> int:
        return sum(self.hidden_sizes)

    @property
    def merged_count(self) -> int:
        return sum(len(m) for m in self.per_layer_merged)

    @property
    def reduction_rate(self) -> float:
        """Fraction of hidden neurons that remain; 1.0 is the original net."""
        total = self.total_hidden
        if total == 0:
            return 1.0
        return (total - self.merged_count) / total


@dataclass(frozen=True, eq=False)
class AbstractLayer:
    """Dense layer with an interval bias, answering the layer protocol.

    Built directly rather than through ``Layer``: a reduction is rebuilt
    for every query, and ``Layer``'s validation and column statistics
    would cost more than the sign split below.
    """

    weights: np.ndarray
    bias_lo: np.ndarray
    bias_hi: np.ndarray
    activation: ActivationKind

    def __post_init__(self):
        W = np.ascontiguousarray(self.weights, dtype=np.float64)
        W.setflags(write=False)
        object.__setattr__(self, "weights", W)
        pos = np.clip(W, 0.0, None)
        neg = np.clip(W, None, 0.0)
        pos.setflags(write=False)
        neg.setflags(write=False)
        object.__setattr__(self, "weights_pos", pos)
        object.__setattr__(self, "weights_neg", neg)

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True, eq=False)
class AbstractNetwork:
    """A reduced network whose set-valued output encloses the original's.

    Layers with no merged neuron on either side are the source network's
    own ``Layer`` objects; the others are ``AbstractLayer``s.
    """

    layers: tuple
    spec: MergeSpec
    buckets: tuple[Buckets, ...]

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def reduction_rate(self) -> float:
        return self.spec.reduction_rate

    @property
    def neuron_count(self) -> int:
        return sum(layer.out_dim for layer in self.layers)


@dataclass(frozen=True)
class ReductionSchedule:
    """Strictly increasing reduction rates ending at 1.0."""

    rates: tuple[float, ...]

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates)
        if not rates:
            raise ValidationError("schedule must contain at least one rate")
        if rates[0] <= 0.0:
            raise ValidationError("schedule rates must be positive")
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValidationError("schedule rates must be strictly increasing")
        if rates[-1] != 1.0:
            raise ValidationError("schedule must end at 1.0")
        object.__setattr__(self, "rates", rates)

    @classmethod
    def default(cls) -> "ReductionSchedule":
        return cls(tuple(round(0.1 * k, 1) for k in range(1, 11)))

    @classmethod
    def from_string(cls, text: str) -> "ReductionSchedule":
        try:
            rates = tuple(float(part) for part in text.split(",") if part.strip())
        except ValueError as exc:
            raise ValidationError(f"could not parse schedule {text!r}") from exc
        return cls(rates)

    def next_after(self, rate: float) -> float | None:
        for r in self.rates:
            if r > rate:
                return r
        return None


def score_neurons(net: ConcreteNetwork, lb: LayerBounds) -> list[list[tuple[int, float]]]:
    """Rank hidden neurons by estimated enclosure damage if merged.

    The score of neuron j in hidden layer k is the width of its activation
    range times the largest outgoing weight magnitude: an upper bound on
    how much absorbing it can widen any single downstream pre-activation.
    Lowest first; ties break by neuron index.
    """
    _check_fresh(net, lb)
    ranked = []
    for k in range(len(net.layers) - 1):
        widths = lb.per_layer[k].width
        scores = widths * net.layers[k + 1].weights_abs_colmax
        order = sorted(range(len(scores)), key=lambda j: (scores[j], j))
        ranked.append([(j, float(scores[j])) for j in order])
    return ranked


def select_merge_sets(net: ConcreteNetwork, lb: LayerBounds, rate: float) -> tuple[frozenset[int], ...]:
    """Pick the globally lowest-scored hidden neurons to reach ``rate``."""
    ranked = score_neurons(net, lb)
    flat = [
        (score, k, j)
        for k, layer_scores in enumerate(ranked)
        for (j, score) in layer_scores
    ]
    flat.sort()
    total = len(flat)
    merged_count = int(round((1.0 - rate) * total))
    chosen = flat[:merged_count]
    sets = [set() for _ in ranked]
    for _, k, j in chosen:
        sets[k].add(j)
    return tuple(frozenset(s) for s in sets)


def build_abstract(net: ConcreteNetwork, lb: LayerBounds, rate: float) -> AbstractNetwork:
    """Reduce ``net`` toward ``rate`` against the box recorded in ``lb``."""
    if not 0.0 < rate <= 1.0:
        raise ValidationError(f"reduction rate must lie in (0, 1], got {rate}")
    _check_fresh(net, lb)
    return build_from_merge_sets(net, lb, select_merge_sets(net, lb, rate))


def build_from_merge_sets(
    net: ConcreteNetwork,
    lb: LayerBounds,
    merge_sets: tuple[frozenset[int], ...],
    buckets: tuple[Buckets, ...] | None = None,
) -> AbstractNetwork:
    """Construct the reduced network for an explicit choice of merge sets.

    When ``buckets`` is omitted, merged neurons within each layer are
    grouped by chaining overlapping activation ranges; passing buckets
    (as refinement does) preserves a previously chosen structure.
    """
    _check_fresh(net, lb)
    hidden = len(net.layers) - 1
    if len(merge_sets) != hidden:
        raise DimensionError(f"expected {hidden} merge sets, got {len(merge_sets)}")
    spec = MergeSpec(
        per_layer_merged=tuple(merge_sets),
        hidden_sizes=net.hidden_sizes,
        source_net_id=net.fingerprint,
        query_fingerprint=lb.box_fingerprint,
    )
    # Bounds are propagated at full width: a deleted neuron's coordinate is
    # overwritten with its bucket hull, which feeds the next layer exactly
    # what the absorbed bias interval contributes, without slicing weights.
    # An unreduced build reuses every layer and needs no bounds.
    needs_bounds = spec.merged_count > 0
    lo, hi = lb.input_box.lo, lb.input_box.hi
    keep_prev: np.ndarray | None = None  # None means every column survives
    absorbed = None  # this layer's bias interval, when the previous layer lost neurons
    out_layers = []
    out_buckets: list[Buckets] = []

    for k, layer in enumerate(net.layers):
        if needs_bounds:
            lo, hi = enclose_layer(layer, lo, hi)
        bias_lo, bias_hi = absorbed if absorbed is not None else (layer.bias_lo, layer.bias_hi)
        absorbed = None
        merged = merge_sets[k] if k < hidden else frozenset()
        if merged:
            if buckets is not None:
                layer_buckets = buckets[k]
            else:
                layer_buckets = _chain_buckets(lo, hi, merged)
            absorbed, (flat, hull_lo, hull_hi) = _absorb_buckets(net.layers[k + 1], lo, hi, layer_buckets)
            keep = np.array(sorted(set(range(layer.out_dim)) - merged), dtype=int)
            if keep_prev is None:
                W = layer.weights[keep, :]
            else:
                W = layer.weights[np.ix_(keep, keep_prev)]
            out_layers.append(AbstractLayer(W, bias_lo[keep], bias_hi[keep], layer.activation))
            # lo and hi are fresh arrays from the kernel, so they are overwritten in place.
            lo[flat] = hull_lo
            hi[flat] = hull_hi
            keep_prev = keep
        elif keep_prev is not None:
            W = layer.weights[:, keep_prev]
            out_layers.append(AbstractLayer(W, bias_lo, bias_hi, layer.activation))
            keep_prev = None
        else:
            out_layers.append(layer)
        if k < hidden:
            out_buckets.append(layer_buckets if merged else ())

    return AbstractNetwork(layers=tuple(out_layers), spec=spec, buckets=tuple(out_buckets))


def refine(net: ConcreteNetwork, prev: AbstractNetwork, lb: LayerBounds, rate: float) -> AbstractNetwork:
    """Un-merge the highest-scored deleted neurons until ``rate`` is reached.

    The new merge sets are a subset of the previous ones and surviving
    buckets keep their structure, so for any box inside the build box the
    refined enclosure is nested inside the previous one.
    """
    if rate <= prev.reduction_rate:
        raise ValidationError(
            f"refinement rate {rate} must exceed the current rate {prev.reduction_rate}"
        )
    if rate > 1.0:
        raise ValidationError(f"reduction rate must lie in (0, 1], got {rate}")
    _check_fresh(net, lb)
    if prev.spec.source_net_id != net.fingerprint:
        raise ValidationError("reduced network was built from a different network")

    ranked = score_neurons(net, lb)
    score_of = {}
    for k, layer_scores in enumerate(ranked):
        for j, score in layer_scores:
            score_of[(k, j)] = score
    merged_flat = [
        (k, j) for k, merged in enumerate(prev.spec.per_layer_merged) for j in sorted(merged)
    ]
    # Highest scores unmerge first; ties release the earliest neuron first.
    merged_flat.sort(key=lambda kj: (-score_of[kj], kj[0], kj[1]))
    total = prev.spec.total_hidden
    target_merged = int(round((1.0 - rate) * total))
    to_unmerge = set(merged_flat[: max(len(merged_flat) - target_merged, 0)])

    new_sets = tuple(
        frozenset(j for j in merged if (k, j) not in to_unmerge)
        for k, merged in enumerate(prev.spec.per_layer_merged)
    )
    new_buckets = tuple(
        tuple(
            kept
            for bucket in layer_buckets
            if (kept := tuple(j for j in bucket if (k, j) not in to_unmerge))
        )
        for k, layer_buckets in enumerate(prev.buckets)
    )
    return build_from_merge_sets(net, lb, new_sets, buckets=new_buckets)


def _check_fresh(net: ConcreteNetwork, lb: LayerBounds) -> None:
    if not lb.matches(net):
        raise ValidationError("stale layer bounds: computed for a different network")


def _chain_buckets(lo: np.ndarray, hi: np.ndarray, merged: frozenset[int]) -> Buckets:
    """Group merged neurons with pairwise-overlapping ranges into buckets.

    Walking the ranges by lower endpoint, a neuron joins the open bucket
    only while every member still shares a common point (its lower endpoint
    does not exceed the smallest upper endpoint seen).  Saturated clusters
    pool together while scattered ranges stay in their own buckets, keeping
    each absorbed hull close to its members.
    """
    order = sorted(merged, key=lambda j: (lo[j], hi[j], j))
    buckets: list[list[int]] = []
    min_hi = -np.inf
    for j in order:
        if buckets and lo[j] <= min_hi:
            buckets[-1].append(j)
            min_hi = min(min_hi, float(hi[j]))
        else:
            buckets.append([j])
            min_hi = float(hi[j])
    return tuple(tuple(sorted(b)) for b in buckets)


def _absorb_buckets(next_layer, lo: np.ndarray, hi: np.ndarray, layer_buckets: Buckets):
    """The next layer's bias interval once the deleted neurons are absorbed.

    Every deleted neuron contributes through its bucket's hull, so the sum
    collapses to one sign-split product against the hull endpoints gathered
    per neuron, added to the next layer's own bias.  Returns the bias
    interval together with the per-neuron hull arrays so the caller can
    reuse them.
    """
    sizes = np.array([len(b) for b in layer_buckets])
    flat = np.fromiter((j for b in layer_buckets for j in b), dtype=int, count=int(sizes.sum()))
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    bucket_lo = np.minimum.reduceat(lo[flat], starts)
    bucket_hi = np.maximum.reduceat(hi[flat], starts)
    member_of = np.repeat(np.arange(len(sizes)), sizes)
    hull_lo = bucket_lo[member_of]
    hull_hi = bucket_hi[member_of]
    bias = enclose_affine(
        next_layer.weights_pos[:, flat],
        next_layer.weights_neg[:, flat],
        hull_lo,
        hull_hi,
        next_layer.bias_lo,
        next_layer.bias_hi,
    )
    return bias, (flat, hull_lo, hull_hi)
