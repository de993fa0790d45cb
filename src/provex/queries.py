"""Sufficiency checks, counterexample search, and a complete desk-scale oracle.

A query fixes a subset of input features to their values in x and lets the
rest range over a clamped epsilon-box.  A subset is sufficient when the
predicted class cannot change anywhere in that box.  Enclosure-based checks
are sound but incomplete: a failed separation yields either a concrete
counterexample (validated on the real network) or an Uncertain verdict.
Every such check that needs only the output asks ``enclosure_verdicts``:
``check_concrete``, each sub-box of ``oracle_check`` and each batch of the
greedy walk.  A query is checked against its network once, by
``_checked_box``, and every box asked after it lies inside its box.

Counterexample search draws every candidate through ``_Candidates``: each
box's center and gradient corners as exact rows, and random samples drawn
only over the features free in some box of the call, whose first layer is
the box's lower corner through the layer plus a low-rank update.  The
samples are drawn and multiplied in blocks of boxes and not kept; a flagged
sample is drawn again from the generator's state before the draw.  One pass
labels (for regression, measures) every candidate, and a flagged candidate
is kept only if a pass of its own row confirms it, so every witness is a
genuine counterexample.  On a network with more than one hidden layer
``find_witnesses`` screens each box first: where the interval pass of the
remaining layers over a hull of its candidates' first-layer activations
certifies the target, the box skips the rest of the pass.  The hull takes
the centers' and corners' activations exactly and bounds the samples' from
a float32 product, widened by a proven rounding bound; the samples' float64
activations are computed only in a call that leaves a box open, from a draw
repeated from the generator's state before the screen's.  The screen
changes no label, no witness and no draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .abstraction import AbstractNetwork
from .bounds import propagate_abstract, propagate_box, propagate_rows
from .errors import DimensionError, ValidationError, check_indices, check_number
from .intervals import IntervalVector, apply_activation, iv_subset
from .network import ConcreteNetwork, forward, forward_rows, gradient, gradients, predict


class VerdictKind(str, Enum):
    SUFFICIENT = "sufficient"
    UNCERTAIN = "uncertain"
    INSUFFICIENT = "insufficient"


@dataclass(frozen=True, eq=False)
class Verdict:
    """A check's outcome and margin; ``check_abstract`` adds the output enclosure."""

    kind: VerdictKind
    margin: float
    witness: np.ndarray | None = None
    enclosure: IntervalVector | None = None

    @property
    def is_sufficient(self) -> bool:
        return self.kind is VerdictKind.SUFFICIENT

    @property
    def is_insufficient(self) -> bool:
        return self.kind is VerdictKind.INSUFFICIENT


def _query_box(x: np.ndarray, fixed: frozenset[int], epsilon: float, domain: IntervalVector) -> IntervalVector:
    lo = np.maximum(domain.lo, x - epsilon)
    hi = np.minimum(domain.hi, x + epsilon)
    idx = np.fromiter(fixed, dtype=int, count=len(fixed)) if fixed else np.empty(0, dtype=int)
    lo[idx] = x[idx]
    hi[idx] = x[idx]
    return IntervalVector(lo, hi)


def _validate_instance(x, fixed_features, epsilon: float, domain: IntervalVector):
    """The instance as a vector and the fixed features as a set, once both are checked."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError(f"instance must be a vector, got shape {x.shape}")
    if len(domain) != x.shape[0]:
        raise DimensionError("instance and domain lengths disagree")
    check_number("epsilon", epsilon, minimum=0)
    # A repeated fixed feature is allowed: the features are kept as a set.
    fixed = frozenset(map(int, check_indices("fixed_features", fixed_features, x.shape[0])))
    if not domain.contains_point(x):
        raise ValidationError("instance lies outside the domain")
    return x, fixed


@dataclass(frozen=True, eq=False)
class SufficiencyQuery:
    """Is fixing ``fixed_features`` of x enough to pin the predicted class?"""

    x: np.ndarray
    fixed_features: frozenset[int]
    epsilon: float
    target: int
    domain: IntervalVector

    def __post_init__(self):
        x, fixed = _validate_instance(self.x, self.fixed_features, self.epsilon, self.domain)
        check_number("target", self.target, integer=True, minimum=0, must="be an integer class index")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "fixed_features", fixed)
        object.__setattr__(self, "target", int(self.target))

    def query_box(self) -> IntervalVector:
        """Fixed dimensions pin to x; free ones span the clamped epsilon range."""
        return _query_box(self.x, self.fixed_features, self.epsilon, self.domain)


@dataclass(frozen=True, eq=False)
class RegressionQuery:
    """Does fixing the subset keep a scalar output within ``delta`` of f(x)?"""

    x: np.ndarray
    fixed_features: frozenset[int]
    epsilon: float
    delta: float
    domain: IntervalVector

    def __post_init__(self):
        x, fixed = _validate_instance(self.x, self.fixed_features, self.epsilon, self.domain)
        check_number("delta", self.delta, positive=True)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "fixed_features", fixed)

    def query_box(self) -> IntervalVector:
        return _query_box(self.x, self.fixed_features, self.epsilon, self.domain)


def _separation(lo: np.ndarray, hi: np.ndarray, target: int):
    """Margin of the target class over the others, and whether it certifies the target.

    ``lo`` and ``hi`` are the output enclosure of one box, or of a batch
    with one box per row; margins and flags come back per box.  The margin
    is the target's lower bound minus the largest upper bound among the
    other classes.  ``predict`` breaks ties toward the lower index, so a
    class below the target must stay strictly under the target's lower
    bound, while a class above it may touch it.
    """
    target_lo = lo[..., target]
    # With no class on a side its maximum is -inf, so one class has margin +inf.
    below = hi[..., :target].max(axis=-1, initial=-np.inf)
    above = hi[..., target + 1 :].max(axis=-1, initial=-np.inf)
    margin = target_lo - np.maximum(below, above)
    return margin, (margin >= 0) & (below < target_lo)


def enclosure_verdicts(net, target: int, lo: np.ndarray, hi: np.ndarray):
    """Enclosure check of a batch of query boxes, one per row, in one bound pass.

    ``net`` is a concrete network or a reduction, whose enclosures hold for
    boxes inside its build box; a single box of shape (n,) gives scalar
    results.  Returns each box's margin, whether it certifies ``target``,
    and its output upper bounds, which rank runner-up classes for
    ``find_witnesses``.  The boxes are not validated: a caller checks its
    query once (``_checked_box``) and keeps every box it asks inside it.
    """
    out_lo, out_hi = propagate_rows(net.layers, lo, hi)
    margin, separated = _separation(out_lo, out_hi, target)
    return margin, separated, out_hi


def _check_target(target: int, classes: int) -> None:
    if not 0 <= target < classes:
        raise DimensionError(f"target {target} out of range for {classes} classes")


def _checked_box(net: ConcreteNetwork, q: SufficiencyQuery) -> IntervalVector:
    """The query's box, once its target is ``net``'s prediction for x and the box lies in its domain."""
    _check_target(q.target, net.output_dim)
    if predict(net, q.x) != q.target:
        raise ValidationError("target class does not match the network's prediction for x")
    box = q.query_box()
    if not iv_subset(box, net.input_domain, slack=1e-12):
        raise ValidationError("input box exceeds the network's input domain")
    return box


# Uniform samples per box of a witness search, unless told otherwise.
N_RANDOM = 64


def _generator(rng):
    """Check ``rng``; return a function that gives it, or a fresh generator seeded 0 when it is None.

    Called before any work, so a bad ``rng`` is named even where the
    enclosure decides the query; the default generator is made only when a
    witness search asks for it.
    """
    if rng is None:
        return lambda: np.random.default_rng(0)
    if not isinstance(rng, np.random.Generator):
        raise ValidationError(f"rng must be a numpy Generator or None, got {rng!r}")
    return lambda: rng


def _candidate_rows(lo: np.ndarray, hi: np.ndarray, toward_hi: np.ndarray) -> np.ndarray:
    """The exact witness candidates of a batch of boxes in one contiguous buffer.

    ``lo`` and ``hi`` hold one box per row and ``toward_hi`` one stack of
    corner masks per box.  Each box gets its center, then one corner per
    mask, taking the upper endpoint where the mask is set and the lower one
    elsewhere.  Fixed features need no pinning: a query box is already
    degenerate there.  The buffer holds the centers of all boxes, then
    their corners box after box; shape (boxes * (1 + corners), inputs).
    """
    boxes, inputs = lo.shape
    corners = toward_hi.shape[1]
    rows = np.empty((boxes * (1 + corners), inputs))
    centers = rows[:boxes]
    np.add(lo, hi, out=centers)
    centers *= 0.5
    corner_rows = rows[boxes:].reshape(boxes, corners, inputs)
    corner_rows[...] = lo[:, None, :]
    np.copyto(corner_rows, hi[:, None, :], where=toward_hi)
    return rows


def _gap_corners(net: ConcreteNetwork, target: int, lo: np.ndarray, hi: np.ndarray, out_hi: np.ndarray) -> np.ndarray:
    """Per box, the corner masks that maximize the linearized logit gap to the top-2 runner-ups.

    Runner-ups are ranked by the box's output upper bounds (a row of
    ``out_hi``); each gap is linearized at the box center.  One forward and
    one backward pass give every center's gradients for the target and its
    runner-ups.  Returns shape (boxes, runner-ups, inputs).
    """
    ranked = np.argsort(-out_hi, axis=1)
    runner_ups = ranked[ranked != target].reshape(lo.shape[0], -1)[:, :2]
    logits = np.concatenate([np.full((lo.shape[0], 1), target), runner_ups], axis=1)
    grads = gradients(net, 0.5 * (lo + hi), logits)
    return grads[:, 1:, :] - grads[:, :1, :] > 0


def find_witnesses(
    net: ConcreteNetwork,
    target: int,
    lo: np.ndarray,
    hi: np.ndarray,
    out_hi: np.ndarray,
    rng: np.random.Generator | None,
    n_random: int = N_RANDOM,
) -> list:
    """Search each box, one per row of ``lo``/``hi``, for a point not assigned to ``target``.

    Per box the candidates are those of ``_Candidates``: its center, then
    its ``_gap_corners`` (ranked by the box's output upper bounds, a row of
    ``out_hi``), then ``n_random`` uniform samples drawn over the features
    free in any box of the call.  The remaining layers label every
    candidate in one pass over their first-layer activations.  Every
    candidate labelled misclassified is rebuilt as an input row, in
    candidate order, and kept only if ``predict`` confirms it on that row
    alone (a batched row's bits may differ from its own pass), so every
    returned witness is a genuine counterexample.  A box's witness is its
    first confirmed candidate; a box without one gets None.

    A network with two or more layers after the first screens each box
    first (``_screen``): a box whose candidates' first-layer hull
    certifies ``target`` holds no witness, and its rows are left out of
    the label pass.  The screen drops a candidate only where an enclosure
    proves it is classified as ``target``, so no label changes.  It bounds
    the samples' activations from a float32 product (``_sample_bounds``);
    a call with a box left open draws the samples again, from the
    generator's state before the screen's draw, for the float64 pass.  The
    centers' and corners' activations and the anchors serve both passes.
    So the witnesses and the generator's final state are those of the
    unscreened search.  With one layer after the first the screen would
    cost the very layer it saves.
    """
    check_number("n_random", n_random, integer=True, minimum=0)
    boxes = lo.shape[0]
    if boxes == 0:
        return []
    toward_hi = _gap_corners(net, target, lo, hi, out_hi)
    candidates = _Candidates(net.layers[0], lo, hi, toward_hi, rng, n_random)
    closed = np.zeros(boxes, dtype=bool)
    if len(net.layers) > 2:
        closed = _screen(net, target, candidates)
        if closed.all():
            return [None] * boxes
    first_layer = candidates.first_layer()
    order = candidates.order
    open_rows = slice(None)
    if closed.any():
        # A closed box's candidates are all classified as the target.
        open_rows = np.zeros(first_layer.shape[0], dtype=bool)
        open_rows[order[~closed]] = True
    labels = np.full(first_layer.shape[0], target)
    labels[open_rows] = np.argmax(forward_rows(net.layers[1:], first_layer[open_rows]), axis=1)
    wrong = (labels != target)[order]
    witnesses = [None] * boxes
    for b in np.flatnonzero(wrong.any(axis=1)):
        witnesses[b] = _first_confirmed(candidates.candidate, b, wrong[b], lambda point: predict(net, point) != target)
    return witnesses


def _first_confirmed(candidate, b: int, flagged: np.ndarray, confirms):
    """Box b's first flagged candidate that ``confirms`` holds for on its own row, or None."""
    for j in np.flatnonzero(flagged):
        point = candidate(b, j)
        if confirms(point):
            return point
    return None


def _restored(rng: np.random.Generator, state: dict) -> np.random.Generator:
    """A fresh generator on a bit generator of ``rng``'s type, set to ``state``."""
    bit_generator = type(rng.bit_generator)()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


class _Candidates:
    """Every witness candidate of a batch of boxes, through ``layer``, the network's first.

    Per box the candidates are its center and one corner per mask of
    ``toward_hi`` (``_candidate_rows``), then ``n_random`` uniform samples.
    The samples are drawn only over the features free in any box of the
    call, box after box, as one ``rng.random((boxes, n_random, free))``
    draw would give them, and scaled by the boxes' widths there.  A fixed
    feature has zero width, so each sample is uniform over its own box, and
    sample j of box b is ``lo[b]`` plus row j of its offsets on those
    features, with the bits of ``rng.uniform`` there.  Each box takes
    ``n_random`` times ``free`` draws, so the stream depends on the call's
    boxes together.  With ``n_random`` 0, or no free feature in the call,
    nothing is drawn (``rng`` may then be None).

    The centers' and corners' first-layer activations (``exact``, with
    the bits of ``forward_rows``), the free features and each box's anchor
    are made once, for both passes over the samples: ``hull`` bounds their
    activations from a float32 product, and ``first_layer`` computes them
    in float64.  The first pass to draw draws from ``rng``; a later one
    draws the same again from a generator restored to ``rng``'s state
    before the first, so ``rng`` ends where one draw leaves it.
    ``order[b, j]`` is the row of ``first_layer()`` that holds box b's
    candidate j, and ``candidate(b, j)`` rebuilds that candidate as a fresh
    input row.  Neither the rows nor the offsets are kept: a center or
    corner is made again from its box, a sample by a restored generator,
    which draws again up to its row.  Only a flagged candidate is rebuilt.
    Keeping the 16 × 3 rows of a mnist784 call through the screen took
    about 550 page faults per call, as did making the screen's float32
    buffers before its draws' buffer (one BLAS thread, glibc malloc).
    """

    def __init__(self, layer, lo: np.ndarray, hi: np.ndarray, toward_hi: np.ndarray, rng, n_random: int):
        boxes = lo.shape[0]
        self.layer, self.lo, self.hi, self.toward_hi, self.rng = layer, lo, hi, toward_hi, rng
        self.exact = forward_rows((layer,), _candidate_rows(lo, hi, toward_hi))
        self.free = np.flatnonzero((hi > lo).any(axis=0))
        # With no free feature every box is a point, which its center already is.
        self.n_random = n_random if self.free.size else 0
        self.state = rng.bit_generator.state if self.n_random else None
        self.anchor = _anchors(layer, lo) if self.n_random else None
        self.drawn = False
        exact, self.corners = self.exact.shape[0], toward_hi.shape[1]
        self.order = np.concatenate(
            [
                np.arange(boxes)[:, None],
                boxes + np.arange(boxes * self.corners).reshape(boxes, self.corners),
                exact + np.arange(boxes * self.n_random).reshape(boxes, self.n_random),
            ],
            axis=1,
        )

    def _draw_from(self):
        """``rng`` for the call's first draw, a generator restored to its state before it for a later one."""
        if self.drawn:
            return _restored(self.rng, self.state)
        self.drawn = True
        return self.rng

    def hull(self):
        """Per box, bounds that hold the first-layer activation of each of its candidates, or None.

        The centers' and corners' activations are ``exact``; the samples'
        are bounded (``_sample_bounds``) and not computed.  Returns a pair
        of arrays of shape (boxes, width), or None where the sample bounds
        are not finite.
        """
        boxes = self.lo.shape[0]
        hull_lo = self.exact[:boxes].copy()
        hull_hi = hull_lo.copy()
        # With no runner-up class there are no corners.
        if self.corners:
            corners = self.exact[boxes:].reshape(boxes, self.corners, -1)
            np.minimum(hull_lo, corners.min(axis=1), out=hull_lo)
            np.maximum(hull_hi, corners.max(axis=1), out=hull_hi)
        if self.n_random:
            samples = _sample_bounds(
                self.layer, self.anchor, self.lo, self.hi, self.free, self._draw_from(), self.n_random
            )
            if samples is None:
                return None
            np.minimum(hull_lo, samples[0], out=hull_lo)
            np.maximum(hull_hi, samples[1], out=hull_hi)
        return hull_lo, hull_hi

    def first_layer(self) -> np.ndarray:
        """The first layer's activations of every candidate (``_first_layer``), in the rows ``order`` names."""
        rng = self._draw_from() if self.n_random else None
        return _first_layer(self.layer, self.exact, self.anchor, self.lo, self.hi, self.free, rng, self.n_random)

    def candidate(self, b: int, j: int) -> np.ndarray:
        """Box b's candidate j as a fresh input row."""
        if j <= self.corners:
            return _candidate_rows(self.lo[b : b + 1], self.hi[b : b + 1], self.toward_hi[b : b + 1])[j]
        lo, hi, free = self.lo, self.hi, self.free
        redraw = _restored(self.rng, self.state)
        for _ in range(b):
            redraw.random((self.n_random, free.size))
        point = lo[b].copy()
        point[free] += redraw.random((j - self.corners, free.size))[-1] * (hi[b, free] - lo[b, free])
        return point


# Most offsets a search draws into one block; the float64 pass
# (``_first_layer``) and the screen's float32 one (``_sample_bounds``) both
# draw through ``_draws``, the screen at most as many boxes at a time as fit
# with every input free.  It is one mnist784 box (64 samples over up to 784
# free features) or all 16 boxes of a relu100 call: drawing a call's 16
# mnist784 boxes at once took a 6.4 MB buffer, and two searches run at once
# there.
SAMPLE_BLOCK = 1 << 15


def _draw_size(lo: np.ndarray, n_random: int) -> int:
    """The offsets ``_draws`` holds at once: ``SAMPLE_BLOCK``, or one box's samples over every input if more."""
    return max(SAMPLE_BLOCK, n_random * lo.shape[1])


def _draws(lo: np.ndarray, free: np.ndarray, rng, n_random: int, most: int | None = None):
    """The bits of one ``rng.random((boxes, n_random, free))`` draw, block after block of boxes.

    Yields ``(start, end, draws)``, where ``draws`` holds the draws of
    boxes ``start`` to ``end``, shape (end - start, n_random, free).  They
    are drawn into one buffer of ``_draw_size`` offsets, as many boxes at a
    time as it holds, or at most ``most``, and the next block overwrites
    them.  The blocks follow one another in the generator's stream, so
    their bits are the one draw's however the boxes are split.  The
    buffer's size does not grow as a walk frees features, so the allocator
    reuses it; a growing one is mapped afresh, page faults and all, on
    every call.
    """
    boxes = lo.shape[0]
    size = _draw_size(lo, n_random)
    buffer = np.empty(size)
    block = min(size // (n_random * free.size), most or boxes)
    for start in range(0, boxes, block):
        end = min(start + block, boxes)
        draws = buffer[: (end - start) * n_random * free.size].reshape(end - start, n_random, free.size)
        rng.random(out=draws)
        yield start, end, draws


def _anchors(layer, lo: np.ndarray) -> np.ndarray:
    """Each box's lower corner through the layer's affine part: ``lo @ Wᵀ + b``."""
    anchor = lo @ layer.weights.T
    anchor += layer.bias
    return anchor


def _first_layer(
    layer, exact: np.ndarray, anchor, lo: np.ndarray, hi: np.ndarray, free: np.ndarray, rng, n_random: int
) -> np.ndarray:
    """The exact rows' activations ``exact``, then the first layer's of ``n_random`` samples per box, in one array.

    Sample j of box b is ``lo[b]`` plus ``offsets[b, j]`` on the features
    ``free`` (at least one when ``n_random`` is not 0), where ``offsets``
    holds the bits of one ``rng.random((boxes, n_random, free))`` draw
    scaled by the boxes' widths there.  Its pre-activation is the box's
    anchor, ``anchor[b]`` (``_anchors``), plus ``offsets[b, j] @ W[:,
    free]ᵀ``.

    Each block of ``_draws`` is scaled and multiplied into its boxes'
    rows, one product of shape (block boxes * n_random, free) by (free,
    width).  Returns shape (exact rows + boxes * n_random, width); the
    samples follow the rows box after box.
    """
    rows = exact.shape[0]
    boxes = lo.shape[0]
    out = np.empty((rows + boxes * n_random, layer.out_dim))
    out[:rows] = exact
    if n_random:
        weights = layer.weights.T[free]
        samples = out[rows:]
        per_box = samples.reshape(boxes, n_random, -1)
        for start, end, offsets in _draws(lo, free, rng, n_random):
            offsets *= (hi[start:end] - lo[start:end])[:, None, free]
            block = per_box[start:end]
            np.matmul(offsets.reshape(-1, free.size), weights, out=block.reshape(-1, layer.out_dim))
            block += anchor[start:end, None]
        apply_activation(layer.activation.value, samples, out=samples)
    return out


def _screen(net: ConcreteNetwork, target: int, candidates: _Candidates) -> np.ndarray:
    """Per box, whether the hull of its candidates' first-layer activations certifies ``target``.

    The hulls (``candidates.hull()``), one row per box, go through the
    remaining layers in one interval pass; where the output enclosure
    separates, every candidate of that box is classified as the target,
    ties included, as ``_separation`` decides.  Where there is no hull, no
    box closes.
    """
    hull = candidates.hull()
    if hull is None:
        return np.zeros(candidates.order.shape[0], dtype=bool)
    out_lo, out_hi = propagate_rows(net.layers[1:], *hull)
    return _separation(out_lo, out_hi, target)[1]


def _gamma(k: int, u: float) -> float:
    """γ_k = k·u / (1 - k·u), the relative error bound of a k-term dot product in precision u (inf where k·u ≥ 1)."""
    return k * u / (1 - k * u) if k * u < 1 else np.inf


def _sample_bounds(layer, anchor: np.ndarray, lo, hi, free, rng, n_random: int):
    """Per box, bounds that hold ``_first_layer``'s float64 activations of its samples, or None.

    Draws what ``_first_layer`` draws (``_draws``) and scales the draws by
    the widths in float64, so the offsets are the float64 pass's, o.  They are rounded to float32 and multiplied by the
    free columns of W, rounded to float32, in float32; each box keeps its
    samples' min and max, p_lo and p_hi, per neuron.  The draws come in
    blocks of at most as many boxes as ``_draw_size`` holds with every
    input free, so the float32 offsets and products fit buffers whose size
    does not grow as a walk frees features.

    Bound.  For one sample and neuron, with K free features, u = 2⁻²⁴,
    v = 2⁻⁵³ and η = 2⁻¹²⁶ (float32's least normal, so flushed subnormals
    are covered too), the float32 product p and the float64 product q of
    ``_first_layer`` satisfy (Higham, Accuracy and Stability of Numerical
    Algorithms, §3.1, in any summation order)
        |p - q| ≤ (γ_K(u)·(1 + u)² + 2u + u² + γ_K(v))·Σ|o_k||W_k|
                  + 2η·(Σ|o_k| + Σ|W_k| + K),
    from the float32 rounding of o and W (relative u, absolute η each),
    the float32 sum (γ_K(u), and η per product) and the float64 one
    (γ_K(v)).  A draw is below 1, so 0 ≤ o_k ≤ w_k, the box's width, and
    |W_k| is at most the column's largest weight c_k; so Σ|o_k||W_k| ≤
    Σ w_k c_k.  ``err`` is that bound with its coefficient raised by
    2⁻¹⁰, which covers the u² terms and the float64 rounding of ``err``
    itself.  So q lies in [p_lo - err, p_hi + err], each end rounded
    outward by one ulp.  The float64 pass adds ``anchor`` to q, and
    rounding is monotone, so adding it to both ends bounds the
    pre-activation with no further slack.

    The activation is monotone, but its computed value need not be, and
    numpy picks its exp and tanh kernels by CPU.  The bound assumes only
    that a computed value away from underflow is within a relative
    c ≤ 2⁻⁴² (2,048 ulps, far above any libm's error) of the true f.  For
    z in [a, b], the computed f(z) is then at most f(b) + c|f(b)|, which is
    below the computed f(b) plus 2c/(1 - c) < 2⁻⁴⁰ times its magnitude,
    and likewise above the computed f(a) less as much.  So each activated
    end is widened outward by 2⁻⁴⁰ of its magnitude, plus 16 ulps for
    results near underflow, whose error is absolute.

    Returns a pair of arrays of shape (boxes, width), or None where a
    bound is not finite (a float32 overflow, or K·u ≥ 1).
    """
    boxes = lo.shape[0]
    widths = (hi - lo)[:, free]
    u, v, eta = np.finfo(np.float32).eps / 2, np.finfo(np.float64).eps / 2, np.finfo(np.float32).tiny
    colmax = layer.weights_abs_colmax[free]
    p_lo = np.empty((boxes, layer.out_dim), dtype=np.float32)
    p_hi = np.empty_like(p_lo)
    most = _draw_size(lo, n_random) // (n_random * lo.shape[1])
    offsets = products = None
    # An overflow shows below, as an end that is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        coefficient = (_gamma(free.size, u) + 2 * u + _gamma(free.size, v)) * (1 + 2**-10)
        err = coefficient * (widths @ colmax) + 2 * eta * (widths.sum(axis=1) + colmax.sum() + free.size)
        weights = layer.weights[:, free].astype(np.float32)
        for start, end, draws in _draws(lo, free, rng, n_random, most):
            if offsets is None:
                # Made after the draws' buffer (see ``_Candidates``).
                offsets = np.empty(most * n_random * lo.shape[1], dtype=np.float32)
                products = np.empty((most * n_random, layer.out_dim), dtype=np.float32)
            draws *= widths[start:end, None]
            block = offsets[: draws.size].reshape(draws.shape)
            block[...] = draws
            sums = products[: (end - start) * n_random]
            np.matmul(block.reshape(-1, free.size), weights.T, out=sums)
            sums = sums.reshape(end - start, n_random, -1)
            sums.min(axis=1, out=p_lo[start:end])
            sums.max(axis=1, out=p_hi[start:end])
        ends = []
        for hull, outward in ((p_lo, -np.inf), (p_hi, np.inf)):
            pre = hull.astype(np.float64)
            pre += np.copysign(err, outward)[:, None]
            np.nextafter(pre, outward, out=pre)
            pre += anchor
            ends.append(pre)
    if not all(np.isfinite(pre).all() for pre in ends):
        return None
    for pre, outward in zip(ends, (-np.inf, np.inf)):
        apply_activation(layer.activation.value, pre, out=pre)
        magnitude = np.abs(pre)
        pre += np.copysign(2**-40 * magnitude + 16 * np.spacing(magnitude), outward)
    return ends


def check_abstract(anet: AbstractNetwork, q: SufficiencyQuery) -> Verdict:
    """Enclosure check on a reduced network: Sufficient or Uncertain.

    Witnesses are never produced here; they are only certified against the
    concrete network.  The verdict carries the output enclosure, so
    counterexample search can rank runner-ups without propagating again.
    """
    _check_target(q.target, anet.output_dim)
    out = propagate_abstract(anet, q.query_box())
    margin, separated = _separation(out.lo, out.hi, q.target)
    kind = VerdictKind.SUFFICIENT if separated else VerdictKind.UNCERTAIN
    return Verdict(kind, float(margin), enclosure=out)


def check_concrete(
    net: ConcreteNetwork,
    q: SufficiencyQuery,
    rng: np.random.Generator | None = None,
) -> Verdict:
    """Enclosure check plus candidate falsification on the concrete network."""
    generator = _generator(rng)
    box = _checked_box(net, q)
    margin, separated, out_hi = enclosure_verdicts(net, q.target, box.lo, box.hi)
    margin = float(margin)
    if separated:
        return Verdict(VerdictKind.SUFFICIENT, margin)
    witness = find_witnesses(net, q.target, box.lo[None], box.hi[None], out_hi[None], generator())[0]
    if witness is not None:
        return Verdict(VerdictKind.INSUFFICIENT, margin, witness=witness)
    return Verdict(VerdictKind.UNCERTAIN, margin)


def check_regression(
    net: ConcreteNetwork,
    q: RegressionQuery,
    rng: np.random.Generator | None = None,
) -> Verdict:
    """Sufficiency for scalar outputs: enclosure within f(x) +- delta.

    Failing that, the first ``_Candidates`` point that ``forward`` on its
    own row puts outside f(x) +- delta is a witness.
    """
    generator = _generator(rng)
    if net.output_dim != 1:
        raise ValidationError("regression queries require a single-output network")
    box = q.query_box()
    ref = float(forward(net, q.x)[0])
    out = propagate_box(net, box).final
    margin = float(q.delta - max(out.hi[0] - ref, ref - out.lo[0]))
    if margin >= 0:
        return Verdict(VerdictKind.SUFFICIENT, margin)
    up = gradient(net, box.midpoint, 0) > 0
    # The corners that maximize and minimize the linearized output, then the samples.
    corners = np.stack([up, ~up])[None]
    lo, hi = box.lo[None], box.hi[None]
    candidates = _Candidates(net.layers[0], lo, hi, corners, generator(), N_RANDOM)
    far = np.abs(forward_rows(net.layers[1:], candidates.first_layer())[candidates.order[0], 0] - ref) > q.delta
    witness = _first_confirmed(candidates.candidate, 0, far, lambda point: abs(forward(net, point)[0] - ref) > q.delta)
    if witness is not None:
        return Verdict(VerdictKind.INSUFFICIENT, margin, witness=witness)
    return Verdict(VerdictKind.UNCERTAIN, margin)


def gen_counterexample(
    net: ConcreteNetwork,
    enclosure: IntervalVector,
    q: SufficiencyQuery,
    rng: np.random.Generator | None = None,
) -> np.ndarray | None:
    """Search the query box for a point the concrete network misclassifies.

    Called after an Uncertain enclosure verdict, with the output enclosure
    that verdict was decided on (``Verdict.enclosure``); runner-up classes
    are ranked by its upper bounds.  The search is ``find_witnesses``, so
    a returned witness is a genuine counterexample.  Absence of a witness
    is a normal outcome.  The query is checked as ``check_concrete``
    checks it (``_checked_box``), so a witness lies in the network's domain,
    and the enclosure must bound one output per class.
    """
    generator = _generator(rng)
    if len(enclosure) != net.output_dim:
        raise DimensionError(f"enclosure has {len(enclosure)} outputs, network has {net.output_dim} classes")
    box = _checked_box(net, q)
    return find_witnesses(net, q.target, box.lo[None], box.hi[None], enclosure.hi[None], generator())[0]


# Splits the oracle may make before it reports a query exhausted, unless told otherwise.
ORACLE_BUDGET = 1 << 16


class OracleOutcome(str, Enum):
    PROVED_SUFFICIENT = "proved_sufficient"
    WITNESS = "witness"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True, eq=False)
class OracleResult:
    outcome: OracleOutcome
    witness: np.ndarray | None
    splits: int
    evaluations: int

    @property
    def proved(self) -> bool:
        return self.outcome is OracleOutcome.PROVED_SUFFICIENT

    @property
    def verdict(self) -> VerdictKind:
        """The outcome as the enclosure checks name it; an exhausted budget is uncertain."""
        return {
            OracleOutcome.PROVED_SUFFICIENT: VerdictKind.SUFFICIENT,
            OracleOutcome.WITNESS: VerdictKind.INSUFFICIENT,
            OracleOutcome.EXHAUSTED: VerdictKind.UNCERTAIN,
        }[self.outcome]


def oracle_check(net: ConcreteNetwork, q: SufficiencyQuery, budget: int = ORACLE_BUDGET) -> OracleResult:
    """Complete branch-and-bound decision for small free-feature counts.

    Bisects the widest free dimension depth-first.  A sub-box, a pair of
    endpoint arrays, is discharged when ``enclosure_verdicts`` certifies the
    target; its center and two top runner-up gradient-sign corners are
    evaluated exactly and any misclassification is returned as a witness.
    Exhausted means the split budget ran out with sub-boxes still open.
    """
    check_number("oracle split budget", budget, integer=True, minimum=0)
    box = _checked_box(net, q)
    stack = [(box.lo, box.hi)]
    splits = 0
    evaluations = 0
    while stack:
        lo, hi = stack.pop()
        _, separated, out_hi = enclosure_verdicts(net, q.target, lo, hi)
        evaluations += 1
        if separated:
            continue
        witness = find_witnesses(net, q.target, lo[None], hi[None], out_hi[None], None, 0)[0]
        if witness is not None:
            return OracleResult(OracleOutcome.WITNESS, witness, splits, evaluations)
        widths = hi - lo
        dim = int(np.argmax(widths))
        if widths[dim] <= 0.0:
            # The box is a single point, its center, which was just evaluated
            # exactly.  argmax breaks ties toward the lower index, as the
            # separation rule does, so the target holds there, ties included;
            # only rounding in the enclosure kept it from discharging.
            continue
        if splits >= budget:
            return OracleResult(OracleOutcome.EXHAUSTED, None, splits, evaluations)
        splits += 1
        mid = 0.5 * (lo[dim] + hi[dim])
        lo_hi = hi.copy()
        lo_hi[dim] = mid
        hi_lo = lo.copy()
        hi_lo[dim] = mid
        # Lower half is explored first for a deterministic witness order.
        stack.append((hi_lo, hi))
        stack.append((lo, lo_hi))
    return OracleResult(OracleOutcome.PROVED_SUFFICIENT, None, splits, evaluations)
