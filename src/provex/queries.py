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

Counterexample search draws every candidate through ``_candidates``: each
box's center and gradient corners as exact rows, and random samples drawn
only over the features free in some box of the call, whose first layer is
the box's lower corner through the layer plus a low-rank update.  The
samples are drawn and multiplied in blocks of boxes and not kept; a flagged
sample is drawn again from the generator's state before the draw.  One pass
labels (for regression, measures) every candidate, and a flagged candidate
is kept only if a pass of its own row confirms it, so every witness is a
genuine counterexample.  On a network with more than one hidden layer
``find_witnesses`` screens each box first: where the interval pass of the
remaining layers over the hull of its candidates' first-layer activations
certifies the target, the box skips the rest of the pass.  The screen
changes no label.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .abstraction import AbstractNetwork
from .bounds import propagate_abstract, propagate_box, propagate_rows
from .errors import DimensionError, ValidationError, check_indices, check_number
from .intervals import IntervalVector, apply_activation, iv_subset
from .network import ConcreteNetwork, forward, forward_rows, gradient, gradients, predict


# The variables that set a BLAS library's thread count, in the order the
# library reads them: the first one set to a positive count wins.
_BLAS_THREADS = {
    "openblas": ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
    "mkl": ("MKL_NUM_THREADS", "OMP_NUM_THREADS"),
}
# BLAS reads them once, when numpy loads, which is before this module loads;
# they are read here, at import, so a later change, which BLAS never sees
# (benchmark/run.py's import under pytest makes one), does not count either.
BLAS_ENV = {name: os.environ[name] for names in _BLAS_THREADS.values() for name in names if name in os.environ}
BLAS_NAME = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {}).get("name", "")


def one_blas_thread(env, blas: str) -> bool:
    """Whether ``blas``, the name of numpy's BLAS library, runs one thread under the environment ``env``.

    For a library not named in ``_BLAS_THREADS`` the variables of every
    library named there must read 1.
    """
    chains = [names for library, names in _BLAS_THREADS.items() if library in blas.lower()]
    return all(_thread_count(env, names) == 1 for names in chains or _BLAS_THREADS.values())


def _thread_count(env, names) -> int | None:
    """The count of the first of ``names`` that ``env`` sets to a positive integer, or None."""
    for name in names:
        try:
            count = int(env.get(name, ""))
        except ValueError:
            continue
        if count > 0:
            return count
    return None


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
    if hi.shape[-1] == 1:
        return np.full(lo.shape[:-1], np.inf), np.ones(lo.shape[:-1], dtype=bool)
    # The target's own upper bound is masked with -inf rather than deleted;
    # the other bounds are finite, so the maximum is theirs.
    others_hi = hi.copy()
    others_hi[..., target] = -np.inf
    target_lo = lo[..., target]
    margin = target_lo - np.max(others_hi, axis=-1)
    lower_touch = np.any(hi[..., :target] >= target_lo[..., None], axis=-1)
    return margin, (margin >= 0) & ~lower_touch


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

    Per box the candidates are those of ``_candidates``: its center, then
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
    proves it is classified as ``target``, so no label changes.  With one
    layer after the first it would cost the very layer it saves.
    """
    check_number("n_random", n_random, integer=True, minimum=0)
    boxes = lo.shape[0]
    if boxes == 0:
        return []
    toward_hi = _gap_corners(net, target, lo, hi, out_hi)
    first_layer, order, candidate = _candidates(net.layers[0], lo, hi, toward_hi, rng, n_random)
    rest = net.layers[1:]
    open_rows = slice(None)
    if len(rest) >= 2:
        closed = _screen(net, target, first_layer, boxes, toward_hi.shape[1])
        if closed.all():
            return [None] * boxes
        if closed.any():
            # A closed box's candidates are all classified as the target.
            open_rows = np.zeros(first_layer.shape[0], dtype=bool)
            open_rows[order[~closed]] = True
    labels = np.full(first_layer.shape[0], target)
    labels[open_rows] = np.argmax(forward_rows(rest, first_layer[open_rows]), axis=1)
    wrong = (labels != target)[order]
    return [
        _first_confirmed(candidate, b, wrong[b], lambda point: predict(net, point) != target) for b in range(boxes)
    ]


def _first_confirmed(candidate, b: int, flagged: np.ndarray, confirms):
    """Box b's first flagged candidate that ``confirms`` holds for on its own row, or None."""
    for j in np.flatnonzero(flagged):
        point = candidate(b, j)
        if confirms(point):
            return point
    return None


def _free_features(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The features free in any box of a call, the ones its samples are drawn over."""
    return np.flatnonzero((hi > lo).any(axis=0))


def sample_draws(lo: np.ndarray, hi: np.ndarray, n_random: int = N_RANDOM) -> int:
    """How many doubles ``find_witnesses`` draws from its generator for these boxes.

    Each box draws ``n_random`` samples over the features free in any box
    (``_candidates``); a call with none draws nothing.  ``Generator.random``
    takes one output of the bit generator per double, so a PCG64 that
    ``advance``s by this count ends where the search leaves it.
    """
    return lo.shape[0] * n_random * _free_features(lo, hi).size


def _restored(rng: np.random.Generator, state: dict) -> np.random.Generator:
    """A fresh generator on a bit generator of ``rng``'s type, set to ``state``."""
    bit_generator = type(rng.bit_generator)()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _candidates(layer, lo: np.ndarray, hi: np.ndarray, toward_hi: np.ndarray, rng, n_random: int):
    """Every witness candidate of a batch of boxes, through ``layer``, the network's first.

    Per box the candidates are its center and one corner per mask of
    ``toward_hi`` (``_candidate_rows``), then ``n_random`` uniform samples.
    The samples are drawn only over the features free in any box of the
    call, box after box, as one ``rng.random((boxes, n_random, free))``
    draw would give them, and scaled by the boxes' widths there
    (``_sample_offsets``).  A fixed feature has zero width, so each sample
    is uniform over its own box, and sample j of box b is ``lo[b]`` plus
    row j of its offsets on those features, with the bits of
    ``rng.uniform`` there.  Each box takes ``n_random`` times ``free``
    draws (``sample_draws``), so the stream depends on the call's boxes
    together.  With ``n_random`` 0, or no free feature in the call,
    nothing is drawn (``rng`` may then be None).

    Returns the first layer's activations of every candidate
    (``_first_layer``); ``order``, where ``order[b, j]`` is the row there
    of box b's candidate j; and ``candidate(b, j)``, which rebuilds that
    candidate as a fresh input row.  The offsets are not kept: a sample is
    rebuilt by a generator restored to ``rng``'s state before the draw,
    which draws again up to its row.  Only a flagged candidate is rebuilt.
    """
    boxes, inputs = lo.shape
    rows = _candidate_rows(lo, hi, toward_hi)
    free = _free_features(lo, hi)
    if free.size == 0:
        n_random = 0  # every box is a point, which its center already is
    state = rng.bit_generator.state if n_random else None
    first_layer = _first_layer(layer, rows, lo, free, _sample_offsets(rng, lo, hi, free, n_random), n_random)
    exact, corners = rows.shape[0], toward_hi.shape[1]
    order = np.concatenate(
        [
            np.arange(boxes)[:, None],
            boxes + np.arange(boxes * corners).reshape(boxes, corners),
            exact + np.arange(boxes * n_random).reshape(boxes, n_random),
        ],
        axis=1,
    )

    def candidate(b: int, j: int) -> np.ndarray:
        if j <= corners:
            return rows[order[b, j]].copy()
        redraw = _restored(rng, state)
        for _ in range(b):
            redraw.random((n_random, free.size))
        point = lo[b].copy()
        point[free] += redraw.random((j - corners, free.size))[-1] * (hi[b, free] - lo[b, free])
        return point

    return first_layer, order, candidate


# Most offsets ``_sample_offsets`` draws into one block, or None for one
# block per call.  Under a one-thread BLAS it is one mnist784 box (64 samples
# over up to 784 free features) or all 16 boxes of a relu100 call: drawing a
# call's 16 mnist784 boxes at once took a 6.4 MB buffer, and two searches
# run at once there.  A BLAS with threads runs one product of all the
# samples in parallel (a 16-box mnist784 search: 9.9 ms, against 12.4 ms in
# blocks, under two OpenBLAS threads), and its searches run one at a time.
SAMPLE_BLOCK = 1 << 15 if one_blas_thread(BLAS_ENV, BLAS_NAME) else None


def _sample_offsets(rng, lo: np.ndarray, hi: np.ndarray, free: np.ndarray, n_random: int):
    """The samples' offsets on the features ``free``, block after block of boxes.

    Each block has shape (block boxes, n_random, free), with as many boxes
    as fit in one buffer.  The buffer holds ``SAMPLE_BLOCK`` offsets or one
    box's samples over every input, whichever is more, or every box's when
    ``SAMPLE_BLOCK`` is None.  Its size does not grow as a walk frees
    features, so the allocator reuses it; a growing one is mapped afresh,
    page faults and all, on every call.  Every block is drawn into it and
    overwritten by the next, so a consumer uses a block before asking for
    the next.  The blocks follow one another in the generator's stream, so
    they hold the bits of one draw of shape (boxes, n_random, free), scaled
    by the boxes' widths.
    """
    if not n_random:
        return
    boxes, inputs = lo.shape
    size = boxes * n_random * inputs if SAMPLE_BLOCK is None else max(SAMPLE_BLOCK, n_random * inputs)
    buffer = np.empty(size)
    block = size // (n_random * free.size)
    for start in range(0, boxes, block):
        end = min(start + block, boxes)
        offsets = buffer[: (end - start) * n_random * free.size].reshape(end - start, n_random, free.size)
        rng.random(out=offsets)
        offsets *= (hi[start:end] - lo[start:end])[:, None, free]
        yield offsets


def _first_layer(layer, rows: np.ndarray, lo: np.ndarray, free: np.ndarray, offsets, n_random: int) -> np.ndarray:
    """The first layer's activations of the exact rows, then of the samples, in one array.

    ``rows`` go through ``rows @ Wᵀ + b``, with the bits of
    ``forward_rows``.  ``offsets`` yields the samples' offsets block after
    block of boxes, each of shape (block boxes, n_random, free), as
    ``_sample_offsets`` does; sample j of box b is ``lo[b]`` plus
    ``offsets[b, j]`` on the features ``free``, so its pre-activation is
    the box's anchor ``lo[b] @ Wᵀ + b`` plus ``offsets[b, j] @ W[:, free]ᵀ``:
    one product of shape (block boxes * n_random, free) by (free, width)
    per block, written into the block's rows.  Returns shape
    (exact rows + boxes * n_random, width); the samples follow the rows box
    after box.
    """
    exact = rows.shape[0]
    boxes = lo.shape[0]
    out = np.empty((exact + boxes * n_random, layer.out_dim))
    np.matmul(rows, layer.weights.T, out=out[:exact])
    out[:exact] += layer.bias
    if n_random:
        weights = layer.weights.T[free]
        anchor = lo @ layer.weights.T
        anchor += layer.bias
        per_box = out[exact:].reshape(boxes, n_random, -1)
        start = 0
        for block in offsets:
            end = start + block.shape[0]
            samples = per_box[start:end]
            np.matmul(block.reshape(-1, free.size), weights, out=samples.reshape(-1, layer.out_dim))
            samples += anchor[start:end, None]
            start = end
    return apply_activation(layer.activation.value, out, out=out)


def _screen(net: ConcreteNetwork, target: int, first_layer: np.ndarray, boxes: int, corners: int) -> np.ndarray:
    """Per box, whether the hull of its candidates' first-layer activations certifies ``target``.

    ``first_layer`` holds the first layer's output for every row of a
    ``_candidate_rows`` buffer of ``boxes`` boxes with ``corners`` corners
    each.  Its blocks reshape to views of shape (boxes, k, width), so each
    box's hull is a min and a max per block, with no gather.  The hulls,
    one row per box, go through the remaining layers in one interval pass;
    where the output enclosure separates, every candidate of that box is
    classified as the target, ties included, as ``_separation`` decides.
    """
    hull_lo = first_layer[:boxes].copy()
    hull_hi = hull_lo.copy()
    width = first_layer.shape[1]
    corner_end = boxes * (1 + corners)
    for block in (first_layer[boxes:corner_end], first_layer[corner_end:]):
        # With no runner-up class or no samples, a block is empty.
        if block.size:
            block = block.reshape(boxes, -1, width)
            np.minimum(hull_lo, block.min(axis=1), out=hull_lo)
            np.maximum(hull_hi, block.max(axis=1), out=hull_hi)
    out_lo, out_hi = propagate_rows(net.layers[1:], hull_lo, hull_hi)
    return _separation(out_lo, out_hi, target)[1]


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

    Failing that, the first ``_candidates`` point that ``forward`` on its
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
    first_layer, order, candidate = _candidates(net.layers[0], lo, hi, corners, generator(), N_RANDOM)
    far = np.abs(forward_rows(net.layers[1:], first_layer)[order[0], 0] - ref) > q.delta
    witness = _first_confirmed(candidate, 0, far, lambda point: abs(forward(net, point)[0] - ref) > q.delta)
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
