"""Network reduction by neuron merging, and its refinement.

A reduced network is built from a concrete one by deleting a set of hidden
neurons per layer and absorbing their bounded contribution to the next
layer into that layer's bias as an interval.  Deleted neurons are grouped
into buckets of overlapping activation ranges; each bucket contributes
through the interval hull of its members' ranges, its products with the
outgoing weights Minkowski-summed by the bound kernel.  Absorbing a hull
(rather than each member's own range) is what makes a coarse
reduction genuinely looser than the original network, so refinement has
observable effect; soundness is unaffected because the hull contains every
member range.

Every hidden neuron is ranked by (score, layer, index), one stable sort of
its scores by flat id, computed afresh for each build and each refinement.
A rate merges a prefix of that order.  Refinement un-merges the
highest-scored deleted neurons first while preserving the surviving bucket
structure, which guarantees the refined enclosure is nested inside the
coarse one for the same query box.

The ranking, merge sets and buckets are kept as index arrays and ordered
with numpy sorts whose keys reproduce the documented tie-breaking exactly;
a ``MergeSpec`` checks each merge set and keeps it as a frozenset.

Cost model.  A build costs what the reduction keeps.  Each layer with
merged neurons takes one full-width ``bounds.enclose_affine`` pass of the
next layer's weights against its hulled endpoints, masked to exact zeros
at the kept neurons, so no weight column is gathered for it.  When a layer
is merged whole, that pass is the next layer's pre-activation over the
hulled box, bit for bit, so the next layer's bounds are its activation and
no second pass runs.  Only a layer that keeps neurons, between the first
merged layer and the last, pays one ``enclose_layer`` more for the next
layer's bounds.  A reduced check of a network with a layer merged whole
carries one row from the last layer with no inputs on (see
``bounds.propagate_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import LayerBounds, enclose_affine, enclose_layer
from .errors import DimensionError, ValidationError, check_indices, check_number
from .intervals import IntervalVector, apply_activation
from .network import ActivationKind, ConcreteNetwork

# Every hidden neuron's score by flat id (its layer's offset plus its index),
# the flat ids in (score, layer, index) order, and the layer offsets: hidden
# layer k holds the flat ids from offsets[k] up to offsets[k + 1].
Ranking = tuple[np.ndarray, np.ndarray, tuple[int, ...]]
# Per hidden layer: the merged neurons bucket after bucket, each bucket in
# ascending index order, and the bucket sizes.  A layer with no merged
# neuron has two empty arrays.
Buckets = tuple[np.ndarray, np.ndarray]
_NO_NEURONS = np.empty(0, dtype=int)
_NO_NEURONS.setflags(write=False)
NO_BUCKETS: Buckets = (_NO_NEURONS, _NO_NEURONS)


@dataclass(frozen=True, eq=False)
class MergeSpec:
    """Which hidden neurons were merged away, and from which network.

    ``per_layer_merged`` takes one collection of neuron indices per hidden
    layer (an integer array, or any collection), each neuron once; each is
    checked as ``merge_sets[k]`` and kept as a frozenset.
    """

    per_layer_merged: tuple[frozenset[int], ...]
    hidden_sizes: tuple[int, ...]
    source_net_id: str

    def __post_init__(self):
        if len(self.per_layer_merged) != len(self.hidden_sizes):
            raise DimensionError("one merge set per hidden layer required")
        sets = []
        for k, (merged, size) in enumerate(zip(self.per_layer_merged, self.hidden_sizes)):
            check_indices(f"merge_sets[{k}]", merged, size, must="hold integer neuron indices", each="neuron")
            sets.append(frozenset(merged.tolist() if isinstance(merged, np.ndarray) else merged))
        object.__setattr__(self, "per_layer_merged", tuple(sets))

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
    would cost more than the layer itself.  ``weights_neg``, the
    nonpositive part the bound kernel reads beside ``weights``, is the
    same selection of the source layer's, so it is never recomputed.
    """

    weights: np.ndarray
    bias_lo: np.ndarray
    bias_hi: np.ndarray
    activation: ActivationKind
    weights_neg: np.ndarray

    def __post_init__(self):
        for name in ("weights", "weights_neg"):
            array = getattr(self, name)
            # A row selection arrives C-contiguous and is kept; a column
            # selection arrives Fortran-ordered and, like any other array,
            # is converted.
            if not (isinstance(array, np.ndarray) and array.dtype == np.float64 and array.flags.c_contiguous):
                array = np.ascontiguousarray(array, dtype=np.float64)
                object.__setattr__(self, name, array)
            array.setflags(write=False)

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
    own ``Layer`` objects; the others are ``AbstractLayer``s.  Its
    enclosures hold only for boxes inside ``build_box``, the box it was
    built against.
    """

    layers: tuple
    spec: MergeSpec
    buckets: tuple[Buckets, ...]
    build_box: IntervalVector

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
        if isinstance(self.rates, str) or not hasattr(self.rates, "__iter__"):
            raise ValidationError(
                f"schedule rates must be a sequence of numbers, got {self.rates!r}; "
                "ReductionSchedule.from_string parses text"
            )
        # NaN would pass every comparison below.
        rates = tuple(float(check_number("schedule rate", r)) for r in self.rates)
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


def score_neurons(net: ConcreteNetwork, lb: LayerBounds) -> Ranking:
    """Rank hidden neurons by estimated enclosure damage if merged.

    The score of neuron j in hidden layer k is the width of its activation
    range times the largest outgoing weight magnitude: an upper bound on
    how much absorbing it can widen any single downstream pre-activation.
    One stable sort of the scores by flat id orders every hidden neuron by
    score, then layer, then index.  Returns the scores by flat id, that
    order, and the layer offsets.
    """
    _check_fresh(net, lb)
    offsets = [0]
    for size in net.hidden_sizes:
        offsets.append(offsets[-1] + size)
    scores = np.empty(offsets[-1])
    for k, (start, end) in enumerate(zip(offsets, offsets[1:])):
        np.multiply(lb.per_layer[k].width, net.layers[k + 1].weights_abs_colmax, out=scores[start:end])
    return scores, np.argsort(scores, kind="stable"), tuple(offsets)


def select_merge_sets(ranked: Ranking, rate: float) -> tuple[np.ndarray, ...]:
    """The first neurons of a ``score_neurons`` ranking that reduce the network to ``rate``.

    They are returned as one sorted index array per hidden layer.
    """
    scores, order, offsets = ranked
    merged = np.zeros(scores.size, dtype=bool)
    merged[order[: int(round((1.0 - rate) * scores.size))]] = True
    return tuple(np.flatnonzero(merged[start:end]) for start, end in zip(offsets, offsets[1:]))


def build_abstract(net: ConcreteNetwork, lb: LayerBounds, rate: float) -> AbstractNetwork:
    """Reduce ``net`` toward ``rate`` against the box recorded in ``lb``."""
    check_number("reduction rate", rate, positive=True, maximum=1)
    return build_from_merge_sets(net, lb, select_merge_sets(score_neurons(net, lb), rate))


def build_from_merge_sets(
    net: ConcreteNetwork,
    lb: LayerBounds,
    merge_sets: tuple,
    buckets: tuple[Buckets, ...] | None = None,
) -> AbstractNetwork:
    """Construct the reduced network for an explicit choice of merge sets.

    ``merge_sets`` holds one set of neuron indices per hidden layer, as any
    collection or an integer array, each neuron once; the reduction's spec
    checks it and keeps it as a frozenset, and an integer array indexes the
    build as it is.  When ``buckets`` is omitted, merged
    neurons within each layer are grouped by chaining overlapping
    activation ranges; passing buckets (as refinement does) preserves a
    previously chosen structure.  Each layer's buckets must hold exactly
    its merge set, each neuron once, in buckets of positive size; they are
    kept as integer arrays.

    Bounds are propagated at full width, from the first merged layer to the
    last: a deleted neuron's coordinate is overwritten with its bucket hull.
    Up to the first merged layer nothing upstream is merged, so the build
    box's own bounds in ``lb`` hold there bit for bit and are copied rather
    than recomputed; an unreduced build reuses every layer and needs none.

    Cost: a layer with merged neurons takes one full-width kernel pass of
    the next layer against its hulled endpoints, with exact zeros at the
    kept neurons, so no weight column is gathered and only the order of
    summation differs from a pass over the merged columns alone.  A layer
    merged whole has no zeros, so that pass is the next layer's
    pre-activation over the hulled box, with ``enclose_layer``'s
    bits: the next layer's bounds are its activation, and no second pass
    runs.  A layer that keeps neurons pays one ``enclose_layer`` more for
    the next layer's bounds.  The reduced weights are row and column
    selections of the source layer's, and a fully merged layer's are
    empty.
    """
    _check_fresh(net, lb)
    hidden = len(net.layers) - 1
    if len(merge_sets) != hidden:
        raise DimensionError(f"expected {hidden} merge sets, got {len(merge_sets)}")
    spec = MergeSpec(per_layer_merged=tuple(merge_sets), hidden_sizes=net.hidden_sizes, source_net_id=net.fingerprint)
    # A checked integer array indexes as it is; any other merge set through its frozenset.
    indices = [
        merged if isinstance(merged, np.ndarray) and merged.dtype.kind in "iu" else _indices(as_set)
        for merged, as_set in zip(merge_sets, spec.per_layer_merged)
    ]
    if buckets is not None:
        buckets = _check_buckets(buckets, spec, merge_sets)
    merged_layers = [k for k, merged in enumerate(indices) if merged.size]
    first, last = (merged_layers[0], merged_layers[-1]) if merged_layers else (-1, -2)
    keep_prev: np.ndarray | None = None  # None means every column survives
    absorbed = None  # this layer's bias interval, when the previous layer lost neurons
    out_layers = []
    out_buckets: list[Buckets] = []

    for k, layer in enumerate(net.layers):
        if k == first:
            lo, hi = lb.per_layer[k].lo.copy(), lb.per_layer[k].hi.copy()
        bias_lo, bias_hi = absorbed if absorbed is not None else (layer.bias_lo, layer.bias_hi)
        absorbed = None
        merged = indices[k] if k < hidden else _NO_NEURONS
        layer_buckets = NO_BUCKETS
        whole = k < hidden and len(spec.per_layer_merged[k]) == layer.out_dim
        if merged.size:
            layer_buckets = buckets[k] if buckets is not None else _chain_buckets(lo, hi, merged)
            absorbed, (flat, hull_lo, hull_hi) = _absorb_buckets(net.layers[k + 1], lo, hi, layer_buckets)
            if whole:
                keep = _NO_NEURONS  # spares building and scanning a mask that keeps nothing
            else:
                survives = np.ones(layer.out_dim, dtype=bool)
                survives[merged] = False
                keep = np.flatnonzero(survives)
            out_layers.append(_reduced_layer(layer, keep, keep_prev, bias_lo[keep], bias_hi[keep]))
            # lo and hi are this build's own arrays, so they are overwritten in place.
            lo[flat] = hull_lo
            hi[flat] = hull_hi
            keep_prev = keep
        elif keep_prev is not None:
            out_layers.append(_reduced_layer(layer, None, keep_prev, bias_lo, bias_hi))
            keep_prev = None
        else:
            out_layers.append(layer)
        if k < hidden:
            out_buckets.append(layer_buckets)
        if first <= k < last:
            # The next layer's bounds over the hulled box.  Merged whole,
            # this layer feeds the next one only through the absorbed
            # interval, which is that layer's pre-activation.
            following = net.layers[k + 1]
            if whole:
                kind = following.activation.value
                lo = apply_activation(kind, absorbed[0], out=np.empty_like(absorbed[0]))
                hi = apply_activation(kind, absorbed[1], out=np.empty_like(absorbed[1]))
            else:
                lo, hi = enclose_layer(following, lo, hi)

    return AbstractNetwork(
        layers=tuple(out_layers), spec=spec, buckets=tuple(out_buckets), build_box=lb.input_box
    )


def refine(net: ConcreteNetwork, prev: AbstractNetwork, lb: LayerBounds, rate: float) -> AbstractNetwork:
    """Un-merge the highest-scored deleted neurons until ``rate`` is reached.

    The new merge sets are a subset of the previous ones and surviving
    buckets keep their structure, so for any box inside the build box the
    refined enclosure is nested inside the previous one.  The neurons are
    ranked by ``score_neurons(net, lb)``.
    """
    check_number("refinement rate", rate)
    if not rate > prev.reduction_rate:
        raise ValidationError(
            f"refinement rate {rate} must exceed the current rate {prev.reduction_rate}"
        )
    check_number("reduction rate", rate, positive=True, maximum=1)
    _check_fresh(net, lb)
    if prev.spec.source_net_id != net.fingerprint:
        raise ValidationError("reduced network was built from a different network")

    scores, _, offsets = score_neurons(net, lb)
    # A layer's buckets hold exactly its merged neurons.
    flat = np.concatenate([start + members for start, (members, _) in zip(offsets, prev.buckets)])
    # Highest scores unmerge first; ties release the lowest layer, then the lowest index, first.
    release = np.lexsort((flat, -scores[flat]))
    target_merged = int(round((1.0 - rate) * prev.spec.total_hidden))
    released = np.zeros(prev.spec.total_hidden, dtype=bool)
    released[flat[release[: max(flat.size - target_merged, 0)]]] = True

    new_buckets = []
    for start, (members, bucket_sizes) in zip(offsets, prev.buckets):
        stays = ~released[start + members]
        bucket_of = np.repeat(np.arange(bucket_sizes.size), bucket_sizes)
        left = np.bincount(bucket_of[stays], minlength=bucket_sizes.size)
        new_buckets.append((members[stays], left[left > 0]))
    new_sets = tuple(members for members, _ in new_buckets)
    return build_from_merge_sets(net, lb, new_sets, buckets=tuple(new_buckets))


def _reduced_layer(layer, rows, cols, bias_lo: np.ndarray, bias_hi: np.ndarray) -> AbstractLayer:
    """The ``rows`` and ``cols`` of a source layer (None keeps all), its ``weights_neg`` selected alike.

    Rows and columns are selected one after the other, which copies the
    same entries as one outer-product index in half the time.  When a
    layer merged whole leaves no rows or no columns, the selections are
    one shared empty array, and nothing is gathered: selected one after
    the other, the kept rows of the layer after it would be copied only
    for the empty column selection to drop them.
    """
    shape = (layer.out_dim if rows is None else rows.size, layer.in_dim if cols is None else cols.size)
    if 0 in shape:
        empty = np.empty(shape)
        return AbstractLayer(empty, bias_lo, bias_hi, layer.activation, weights_neg=empty)

    def select(matrix):
        if rows is not None:
            matrix = matrix[rows]
        return matrix if cols is None else matrix[:, cols]

    return AbstractLayer(
        select(layer.weights), bias_lo, bias_hi, layer.activation, weights_neg=select(layer.weights_neg)
    )


def _check_fresh(net: ConcreteNetwork, lb: LayerBounds) -> None:
    if not lb.matches(net):
        raise ValidationError("stale layer bounds: computed for a different network")


def _check_buckets(buckets, spec: MergeSpec, merge_sets) -> tuple[Buckets, ...]:
    """Each layer's buckets as integer arrays, once they split its merge set exactly.

    Every merged neuron appears once and no bucket is empty; members are
    checked as ``buckets[k]`` and sizes as ``buckets[k] sizes``.  Members
    that are the very object given as the layer's merge set, as
    ``refine`` gives them, were checked by ``spec`` already and are not
    checked again.  A build deletes every merged neuron but absorbs only
    the bucket members, so a merged neuron left out of its buckets would
    drop its contribution from the enclosure.
    """
    merged_sets = spec.per_layer_merged
    if len(buckets) != len(merged_sets):
        raise DimensionError(f"expected {len(merged_sets)} bucket layers, got {len(buckets)}")
    checked = []
    for k, ((members, sizes), given, merged, width) in enumerate(
        zip(buckets, merge_sets, merged_sets, spec.hidden_sizes)
    ):
        own = members is given and isinstance(members, np.ndarray)  # checked as merge_sets[k]
        if not own:
            check_indices(f"buckets[{k}]", members, width, must="hold integer neuron indices", each="neuron")
        check_indices(f"buckets[{k}] sizes", sizes, len(merged) + 1, must="hold integer bucket sizes")
        members, sizes = np.asarray(members, dtype=int), np.asarray(sizes, dtype=int)
        # Distinct members, as many as the merge set holds and all in it, are the merge set.
        fits = sizes.all() and sizes.sum() == members.size == len(merged)
        if not (fits and (own or not merged.difference(members.tolist()))):
            raise ValidationError(
                f"buckets[{k}] must split the merge set of hidden layer {k} into nonempty buckets, "
                "each merged neuron once"
            )
        checked.append((members, sizes))
    return tuple(checked)


def _indices(merged) -> np.ndarray:
    """A merge set's neuron indices as an integer array, in no particular order."""
    return np.fromiter(merged, dtype=int, count=len(merged))


def _chain_buckets(lo: np.ndarray, hi: np.ndarray, merged: np.ndarray) -> Buckets:
    """Group merged neurons with pairwise-overlapping ranges into buckets.

    Walking the ranges by lower endpoint (then upper endpoint, then index),
    a neuron joins the open bucket only while every member still shares a
    common point (its lower endpoint does not exceed the smallest upper
    endpoint seen).  Saturated clusters pool together while scattered
    ranges stay in their own buckets, keeping each absorbed hull close to
    its members.
    """
    order = merged[np.lexsort((merged, hi[merged], lo[merged]))]
    starts = []
    min_hi = -np.inf  # below every endpoint, so the first neuron opens a bucket
    for i, (l, h) in enumerate(zip(lo[order].tolist(), hi[order].tolist())):
        if l > min_hi:
            starts.append(i)
            min_hi = h
        elif h < min_hi:
            min_hi = h
    sizes = np.diff(starts + [order.size])
    bucket_of = np.repeat(np.arange(sizes.size), sizes)
    return order[np.lexsort((order, bucket_of))], sizes


def _absorb_buckets(next_layer, lo: np.ndarray, hi: np.ndarray, layer_buckets: Buckets):
    """The next layer's bias interval once the deleted neurons are absorbed.

    Every deleted neuron contributes through its bucket's hull, so the sum
    collapses to one kernel pass against the hull endpoints, added to the
    next layer's own bias.  The pass runs over the full width of
    the next layer's weights, against endpoint vectors that hold each
    deleted neuron's hull and exact zeros at the kept ones: no weight
    column is gathered, and a kept neuron adds an exact zero.  Returns the
    bias interval together with the per-neuron hull arrays so the caller
    can reuse them.
    """
    flat, sizes = layer_buckets
    starts = np.cumsum(sizes) - sizes
    hull_lo = np.repeat(np.minimum.reduceat(lo[flat], starts), sizes)
    hull_hi = np.repeat(np.maximum.reduceat(hi[flat], starts), sizes)
    masked_lo = np.zeros_like(lo)
    masked_hi = np.zeros_like(hi)
    masked_lo[flat] = hull_lo
    masked_hi[flat] = hull_hi
    weights, neg = next_layer.weights, next_layer.weights_neg
    bias = enclose_affine(weights, neg, masked_lo, masked_hi, next_layer.bias_lo, next_layer.bias_hi)
    return bias, (flat, hull_lo, hull_hi)
