"""Greedy minimal-explanation searches.

Both searches start from the full feature set and walk the features in a
chosen order, dropping a feature whenever the remaining fixed set is still
verified sufficient.  Both run one body, ``_search``, on one walk,
``_enclosure_walk``, which asks its enclosure checks in speculative batches,
one ``enclosure_verdicts`` call per batch, which a full batch of nested
drops makes only if its last box alone does not separate; a large witness
search draws from a generator of its own and runs in a worker process,
forked from this one, beside the walk when the process runs one thread and
may use a second CPU (``_PinSearches``), with the same results either way.
The worker is forked with the network it searches and keeps it for its
life; a job sends only its boxes, their output bounds and its generator,
and a search on another network forks a new worker.  A process's ``ru_maxrss``
therefore counts the walk's buffers, not the searches' (those are the
worker's, in ``RUSAGE_CHILDREN`` once it has been joined).
The abstraction-refinement search is that walk, which decides every
feature with the concrete enclosure and so keeps the baseline's features,
plus one pass after it, ``_label_drops``, which labels each drop with the
coarsest scheduled rate whose reduction proves it; each reduction it
probes is bounded in one ``hull_pass``, with none built.  The baseline is that
search under the one-rate schedule (1.0,), which has no rate to label
with; under the complete oracle, a step the enclosure check cannot drop
goes to ``oracle_check``.  After every step the kept set is provably
sufficient, so the search can stop early at any time and still return a
valid (possibly non-minimal) explanation.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .abstraction import ReductionSchedule, hull_pass, score_neurons, select_merge_sets
from .bounds import propagate_box
from .errors import DimensionError, ValidationError, check_indices, check_number
from .intervals import IntervalVector
from .network import ConcreteNetwork, gradient, predict
from .queries import (
    N_RANDOM,
    ORACLE_BUDGET,
    SufficiencyQuery,
    VerdictKind,
    _separation,
    enclosure_verdicts,
    find_witnesses,
    oracle_check,
)

STATUS_MINIMAL = "MinimalSufficient"
STATUS_EARLY_STOP = "SufficientEarlyStop"

ORDERING_POLICIES = ("sensitivity", "in-order", "random")

# Most query boxes a batch of the enclosure walk puts in one bound pass.
MAX_BATCH = 16

# Smallest sample product, boxes × n_random × inputs × first-layer width, of a
# witness search that draws from its own generator and may go to the worker
# process.  A 16-box mnist784 call is about 1.6e8 (16·64·784·200), a relu100
# call at most 5.1e6 (16·64·100·50).  With every relu100 call handed to the
# process, its p50s moved within noise (baseline +4%, AR -2%, 3 pairs of
# 60 s runs; a worker thread had made them 25-50% slower).  The threshold
# stays: it decides which generator a call draws from, so moving it below
# relu100's calls would change relu100's samples and witnesses.
WORKER_PRODUCT = 1 << 24


def _may_fork() -> bool:
    """Whether this process may fork a worker process for large witness searches now.

    It may when it runs one thread, as ``/proc/self/task`` lists them, and
    may use at least two CPUs.  One thread means no other Python thread,
    which a fork would leave holding locks in the child, and no BLAS helper
    thread: those spin and fight the worker for the CPU (on a 2-vCPU VM
    under a two-thread OpenBLAS, a worker thread made the mnist784 baseline
    take 0.43-0.45 s instead of 0.23-0.25 s).  Where the threads cannot be
    listed, as off Linux, whose death signal the worker also takes
    (``_in_worker``), it may not.  Asked at each fork attempt, so it reads
    the process as it is then.
    """
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return False
    return threads == 1 and len(os.sched_getaffinity(0)) >= 2


_pool = None  # (forking pid, network fingerprint, pool) of the worker, once forked
_forked_net = None  # in the worker process, the network it was forked with


def _worker(net):
    """The pool of one process, forked with ``net``, that runs large witness searches on it; or None.

    The pool is made at the first large search on ``net`` at which
    ``_may_fork`` holds: the fork happens at its first job, before the
    pool's own threads start, and the child inherits ``net`` as its
    initializer's argument, never pickled.  A worker forked with another
    network is shut down first, and a pool that another process recorded,
    a forked child's copy of its parent's, is dropped; the gate is asked
    after that.  Where it does not hold, no pool is made yet, the search
    runs inline and the next large search asks again.  The shut-down
    pool's threads can stay listed for a few ms after they are joined, so
    the search that switches networks often runs inline and a later one
    forks.
    """
    global _pool
    if _pool is None or _pool[:2] != (os.getpid(), net.fingerprint):
        _shut_pool()
        if not _may_fork():
            return None
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pid, context = os.getpid(), multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(max_workers=1, mp_context=context, initializer=_in_worker, initargs=(pid, net))
        _pool = pid, net.fingerprint, pool
    return _pool[2]


def _in_worker(parent: int, net) -> None:
    """Set up the worker process: it keeps ``net`` for its searches, leaves Ctrl-C to its parent and dies with it."""
    import ctypes

    global _forked_net
    _forked_net = net
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(0)  # the parent died before the request took hold


def _forked_search(target, lo, hi, out_hi, rng):
    """In the worker process, ``_timed_search`` on the network it was forked with."""
    return _timed_search(_forked_net, target, lo, hi, out_hi, rng)


def _shut_pool() -> None:
    """Stop this process's worker and wait for it; the next large search forks a new one."""
    global _pool
    if _pool is not None and _pool[0] == os.getpid():
        _pool[2].shutdown(cancel_futures=True)
    _pool = None


@dataclass(frozen=True)
class FeatureGrouping:
    """A partition of the input dimensions into ordered, named groups."""

    groups: tuple[tuple[int, ...], ...]
    ids: tuple[str, ...]

    def __post_init__(self):
        if len(self.groups) != len(self.ids):
            raise DimensionError("one id per group required")
        named: set[str] = set()
        for gid in self.ids:
            # Reports, masks and snapshots name a group by its id alone.
            if not isinstance(gid, str):
                raise ValidationError(f"group id {gid!r} is not a string")
            if gid in named:
                raise ValidationError(f"group id {gid!r} names more than one group")
            named.add(gid)
        if not {tuple}.issuperset(map(type, self.groups)):
            k, group = next((k, group) for k, group in enumerate(self.groups) if type(group) is not tuple)
            raise ValidationError(f"groups[{k}] must be a tuple of feature indices, got {group!r}")
        if not all(self.groups):
            raise ValidationError("groups must be non-empty")
        # Every feature below the feature count, none twice: an exact partition.
        features = [i for group in self.groups for i in group]
        try:
            check_indices("groups", features, len(features), must="hold integer feature indices", each="feature")
        except ValidationError:
            # Name the group that holds the bad member; a feature in two groups keeps the message above.
            for k, group in enumerate(self.groups):
                check_indices(f"groups[{k}]", group, len(features), must="hold integer feature indices", each="feature")
            raise

    @classmethod
    def singletons(cls, n: int) -> "FeatureGrouping":
        """One group per dimension, named by one-based position."""
        check_number("n", n, integer=True, minimum=0)
        return cls(tuple((i,) for i in range(n)), tuple(str(i + 1) for i in range(n)))

    @classmethod
    def rgb_pixels(cls, n: int) -> "FeatureGrouping":
        """Bundle interleaved RGB channels so each pixel is kept or freed whole."""
        check_number("n", n, integer=True, minimum=0)
        if n % 3 != 0:
            raise ValidationError(f"rgb grouping needs a multiple of 3 features, got {n}")
        pixels = n // 3
        groups = tuple((3 * p, 3 * p + 1, 3 * p + 2) for p in range(pixels))
        return cls(groups, tuple(str(p + 1) for p in range(pixels)))

    @property
    def feature_count(self) -> int:
        return sum(len(g) for g in self.groups)

    def features_of(self, group_indices) -> frozenset[int]:
        check_indices("group_indices", group_indices, len(self.groups), must="hold integer group indices")
        return frozenset(i for g in group_indices for i in self.groups[g])

    def ids_of(self, group_indices) -> tuple[str, ...]:
        """The ids of the groups, in group order; each group once."""
        check_indices("group_indices", group_indices, len(self.groups), must="hold integer group indices", each="group")
        return self._ids_of(group_indices)

    def _ids_of(self, group_indices) -> tuple[str, ...]:
        """``ids_of`` without its check, for a walk's own kept sets, which hold valid group indices."""
        return tuple([self.ids[g] for g in sorted(group_indices)])


@dataclass(frozen=True)
class FeatureOrdering:
    """A resolved processing order over group indices."""

    resolved: tuple[int, ...]

    def __post_init__(self):
        # Every group below the group count, none twice: a permutation.
        check_indices("ordering", self.resolved, len(self.resolved), must="hold integer group indices", each="group")


def order_features(
    net: ConcreteNetwork,
    x,
    grouping: FeatureGrouping,
    policy: str = "sensitivity",
    seed: int = 0,
) -> FeatureOrdering:
    """Resolve a processing order for the groups.

    Sensitivity ordering sums the absolute gradient of the predicted logit
    over each group and visits the least sensitive groups first, since
    those are the most likely to be dropped.
    """
    check_number("seed", seed, integer=True, minimum=0)
    n_groups = len(grouping.groups)
    if policy == "in-order":
        return FeatureOrdering(tuple(range(n_groups)))
    if policy == "random":
        perm = np.random.default_rng(seed).permutation(n_groups)
        return FeatureOrdering(tuple(int(i) for i in perm))
    if policy == "sensitivity":
        g = np.abs(gradient(net, x, predict(net, x)))
        scores = [float(sum(g[i] for i in group)) for group in grouping.groups]
        order = sorted(range(n_groups), key=lambda k: (scores[k], k))
        return FeatureOrdering(tuple(order))
    raise ValidationError(f"unknown ordering policy {policy!r}")


@dataclass
class StepRecord:
    """One verification query issued during a search."""

    group_id: str
    rate: float
    verdict: str
    elapsed: float
    margin: float
    neuron_evals: int

    def to_dict(self) -> dict:
        return {
            "group": self.group_id,
            "rate": self.rate,
            "verdict": self.verdict,
            "elapsed": self.elapsed,
            "margin": self.margin,
            "neuron_evals": self.neuron_evals,
        }


@dataclass
class ExplanationTrace:
    """Everything observable about one search run."""

    steps: list[StepRecord] = field(default_factory=list)
    snapshots: dict[float, tuple[str, ...]] = field(default_factory=dict)
    final: tuple[str, ...] = ()
    status: str = STATUS_MINIMAL
    refinements: int = 0
    group_count: int = 0
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        return {
            "steps": [s.to_dict() for s in self.steps],
            "snapshots": [
                {"rate": rate, "explanation": list(ids)}
                for rate, ids in sorted(self.snapshots.items())
            ],
            "final": list(self.final),
            "status": self.status,
            "refinements": self.refinements,
            "group_count": self.group_count,
            "wall_time": self.wall_time,
        }


@dataclass
class WorkReport:
    """Machine-independent cost summary of a trace."""

    features: int
    refinements: int
    queries_by_rate: dict[float, int]
    neuron_evaluations: int
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "features": self.features,
            "refinements": self.refinements,
            "queries_by_rate": {f"{rate:g}": n for rate, n in sorted(self.queries_by_rate.items())},
            "neuron_evaluations": self.neuron_evaluations,
            "wall_time": self.wall_time,
        }


def count_work(trace: ExplanationTrace) -> WorkReport:
    """Aggregate query counts and neuron-evaluations from a completed trace."""
    by_rate: dict[float, int] = {}
    for step in trace.steps:
        by_rate[step.rate] = by_rate.get(step.rate, 0) + 1
    return WorkReport(
        features=trace.group_count,
        refinements=trace.refinements,
        queries_by_rate=by_rate,
        neuron_evaluations=sum(step.neuron_evals for step in trace.steps),
        wall_time=trace.wall_time,
    )


def _search(net, x, epsilon, grouping, ordering, seed, schedule, timeout=None, budget=None):
    """Both searches' body: ``_enclosure_walk``, then ``_label_drops`` under ``schedule``, timed after the setup."""
    check_number("seed", seed, integer=True, minimum=0)
    x = np.asarray(x, dtype=np.float64)
    if grouping is None:
        grouping = FeatureGrouping.singletons(net.input_dim)
    if grouping.feature_count != net.input_dim:
        raise DimensionError("grouping does not cover the network's input dimensions")
    if ordering is None:
        ordering = order_features(net, x, grouping, "sensitivity", seed=seed)
    elif len(ordering.resolved) != len(grouping.groups):
        raise DimensionError("ordering and grouping disagree on the number of groups")
    target = predict(net, x)
    box = SufficiencyQuery(x, frozenset(), epsilon, target, net.input_domain).query_box()  # every feature free
    trace = ExplanationTrace(group_count=len(grouping.groups))
    t0 = time.monotonic()
    deadline = None if timeout is None else t0 + timeout
    with _PinSearches(net, target, seed) as searches:
        kept, stopped, drops = _enclosure_walk(
            net, x, epsilon, box, target, grouping, ordering.resolved, searches, trace, deadline, budget
        )
        # A handed-off witness search runs on the worker meanwhile.
        _label_drops(net, x, box, target, grouping, drops, schedule, trace, deadline)
        searches.finish()
    trace.final = grouping._ids_of(kept)
    if trace.steps:
        trace.snapshots[1.0] = trace.final
    trace.status = STATUS_EARLY_STOP if stopped else STATUS_MINIMAL
    trace.wall_time = time.monotonic() - t0
    return frozenset(kept), trace


def explain_baseline(
    net: ConcreteNetwork,
    x,
    epsilon: float,
    grouping: FeatureGrouping | None = None,
    ordering: FeatureOrdering | None = None,
    backend: str = "enclosure",
    seed: int = 0,
    oracle_budget: int | None = None,
) -> tuple[frozenset[int], ExplanationTrace]:
    """Greedy search querying the original network for every candidate drop.

    It is the abstraction-refinement search under the schedule (1.0,), with
    no reduction.  With the ``oracle`` backend on small inputs the result is subset-minimal
    in the exact sense; with the ``enclosure`` backend minimality is
    relative to the incomplete enclosure verifier.  The oracle, with
    ``oracle_budget`` splits (default ``ORACLE_BUDGET``, and an error with the
    ``enclosure`` backend), decides every step the enclosure check cannot
    drop, one query per batch of ``_enclosure_walk``.
    """
    if backend not in ("enclosure", "oracle"):
        raise ValidationError(f"unknown backend {backend!r}")
    if backend == "enclosure" and oracle_budget is not None:
        raise ValidationError("oracle_budget does not apply to the enclosure backend")
    if backend == "oracle":
        oracle_budget = ORACLE_BUDGET if oracle_budget is None else oracle_budget
        check_number("oracle split budget", oracle_budget, integer=True, minimum=0)
    return _search(net, x, epsilon, grouping, ordering, seed, ReductionSchedule((1.0,)), budget=oracle_budget)


def _timed_search(net, target, lo, hi, out_hi, rng):
    """``find_witnesses`` on the boxes, and its wall time in the process that ran it."""
    t = time.monotonic()
    witnesses = find_witnesses(net, target, lo, hi, out_hi, rng)
    return witnesses, time.monotonic() - t


def _label(steps, witnesses, seconds: float) -> None:
    """Mark each pin step whose box holds a witness ``insufficient``; give each an equal share of the search."""
    for step, witness in zip(steps, witnesses):
        if witness is not None:
            step.verdict = VerdictKind.INSUFFICIENT.value
        step.elapsed += seconds / len(steps)


class _PinSearches:
    """The witness searches of one walk's pins, in step order.

    A large search, whose sample product with every feature free reaches
    ``WORKER_PRODUCT``, draws from a generator of its own: the next child
    of ``SeedSequence(seed)``, spawned here, on the walk's thread, in call
    order.  It goes to the worker process when ``_worker`` gives one (the
    process ran one thread and could use a second CPU when it forked) and
    runs at once otherwise, with the same samples either way.  Every other
    search runs at once on the walk's generator,
    ``default_rng(SeedSequence(seed))``.

    A job sent to the worker carries the target, the boxes, their output
    bounds and the child generator, and returns the witnesses and the
    seconds the search took there.  The network stays behind: the worker
    was forked with it and keeps it for its life.  Used as a context
    manager, it leaves no handed-off search running when the walk ends, by
    return or by exception; a broken pool is raised and then dropped, so
    the next large search forks a new one.
    """

    def __init__(self, net, target, seed: int):
        self.net, self.target = net, target
        self.seeds = np.random.SeedSequence(seed)
        self.rng = np.random.default_rng(self.seeds)
        self.handed = []  # (steps, job, future) per search on the worker, in step order

    def search(self, pins) -> float:
        """Search the boxes of ``pins``, (step, lo, hi, out_hi) each; return the seconds it took this thread."""
        steps, lo, hi, out_hi = zip(*pins)
        lo, hi, out_hi = np.stack(lo), np.stack(hi), np.stack(out_hi)
        rng, worker = self.rng, None
        if lo.size * N_RANDOM * self.net.layers[0].out_dim >= WORKER_PRODUCT:
            rng, worker = np.random.default_rng(self.seeds.spawn(1)[0]), _worker(self.net)
        job = partial(_timed_search, self.net, self.target, lo, hi, out_hi, rng)
        if worker is None:
            witnesses, seconds = job()
            _label(steps, witnesses, seconds)
            return seconds
        self.handed.append((steps, job, worker.submit(_forked_search, self.target, lo, hi, out_hi, rng)))
        return 0.0

    def finish(self) -> None:
        """Label the pins of the handed-off searches, in step order, once all have run.

        This thread runs the searches the worker has not started, from the
        back of the queue, while the worker takes them from the front.  A
        worker's exception is raised again here.
        """
        ran_here = [job() if future.cancel() else None for _, job, future in reversed(self.handed)][::-1]
        for (steps, _, future), result in zip(self.handed, ran_here):
            _label(steps, *(result or future.result()))

    def __enter__(self):
        return self

    def __exit__(self, kind, error, _) -> None:
        """Cancel the handed-off searches not yet started, wait for the rest, and drop a broken pool."""
        futures = [future for _, _, future in self.handed]
        for future in futures:
            future.cancel()
        errors = [error] + [future.exception() for future in futures if not future.cancelled()]
        if _pool:
            from concurrent.futures.process import BrokenProcessPool

            if any(isinstance(e, BrokenProcessPool) for e in errors):
                _shut_pool()


def _enclosure_walk(net, x, epsilon, box, target, grouping, order, searches, trace, deadline=None, budget=None):
    """The greedy walk on concrete enclosure checks, in speculative batches.

    ``box`` is the query box with every feature free; a query box takes
    its free features from it and the rest from ``x``.  The walk goes
    through the group indices in ``order`` from the full set and returns the
    kept set, whether the deadline stopped the walk before the end of
    ``order`` (it is checked before every batch), and the dropped groups in
    drop order, each with its step.  Every step is at rate 1.0.

    A batch takes the next groups g_1..g_B and guesses that the last
    verdict repeats.  After a drop, box i frees g_1..g_i on top of the
    groups already dropped (nested boxes); after a keep, it frees g_i alone
    on top of them.  Up to and including the first box that breaks the
    guess, every box is exactly the query the one-at-a-time walk asks at
    that step, so those steps are taken and the rest of the batch is
    discarded.  All B boxes share one bound pass, one ``enclosure_verdicts``
    call on the network.  B starts at 1, doubles after a batch that matches
    the guess throughout and halves after one that breaks it, within
    1..MAX_BATCH.

    A batch of MAX_BATCH boxes that guesses "drop" first asks its last box
    alone, which holds every box of the batch.  If that row separates, its
    sound enclosure proves every box, so the batch is taken whole and each
    drop records that row's margin, a lower bound on its own box's;
    otherwise the batch asks every row as above.  Only a full batch
    gallops: shorter drop runs often end inside the batch, where the extra
    row is wasted.

    A step that fails is a pin.  Its box joins a queue of witness
    searches, which is searched in calls of exactly MAX_BATCH boxes, and
    whatever remains is searched when the walk ends or stops.  The boxes
    are searched in step order, so every witness is that of one
    ``find_witnesses`` call per MAX_BATCH pins in step order, and one for
    the rest, each on the generator ``searches`` gives it; it is not that
    of one search per pin.  A pin is ``uncertain`` until its search
    returns and ``insufficient`` if the search confirms a witness; nothing
    else waits on its verdict.

    ``searches`` (a ``_PinSearches``) runs each call.  A large call, when
    the process runs one thread and may use a second CPU, goes to a worker
    process while the walk goes on; any other call runs at once.  The
    caller ends the searches (``_PinSearches.finish``).  A call in the
    worker runs on the worker's own copy of the module, so a tracer that
    wraps functions in this process sees none of it.

    With a split ``budget`` (the baseline under the complete oracle), B is
    capped at 1, so it never gallops: after a "keep" guess an oracle proof
    would change the boxes of the batch's later rows.  A pin goes to
    ``oracle_check`` on the same query instead of the queue: a proof drops
    its group, a witness makes it ``insufficient``, an exhausted budget
    leaves it ``uncertain``, and its ``neuron_evals`` count every box the
    oracle propagated.  A separated row is a drop with no split, as the
    oracle's root box would discharge it.

    A step's ``elapsed`` is its batch's wall time without the witness
    searches made during it on this thread, split evenly over the steps
    the batch recorded; a pin adds an equal share of the search that
    labels it, timed in the process that ran it.  When every search runs on
    this thread these intervals do not overlap, so the steps' times add up
    to no more than the walk's; a search in the worker overlaps the walk,
    so with one the sum can exceed it.
    """
    members = [np.asarray(group, dtype=int) for group in grouping.groups]
    neurons = net.neuron_count
    kept = set(range(len(grouping.groups)))
    dropped = np.zeros(net.input_dim, dtype=bool)  # features of the dropped groups
    drops = []  # (group, step) per drop, in drop order
    pending = []  # pins awaiting their witness search: (step, lo, hi, out_hi), in step order
    cap = MAX_BATCH if budget is None else 1
    start, size, guess, stopped = 0, 1, True, False

    def record(g, separated, margin, neuron_evals):
        step = StepRecord(
            group_id=grouping.ids[g],
            rate=1.0,
            verdict=(VerdictKind.SUFFICIENT if separated else VerdictKind.UNCERTAIN).value,
            elapsed=0.0,
            margin=float(margin),
            neuron_evals=neuron_evals,
        )
        trace.steps.append(step)
        if separated:
            kept.discard(g)
            dropped[members[g]] = True
            drops.append((g, step))
        return step

    def pin(g, margin, lo, hi, out_hi):
        """Keep g with its box queued for a witness search, or let the oracle decide it."""
        if budget is None:
            pending.append((record(g, False, margin, neurons), lo, hi, out_hi))
            return
        q = SufficiencyQuery(x, grouping.features_of(kept - {g}), epsilon, target, net.input_domain)
        result = oracle_check(net, q, budget)
        record(g, result.proved, margin, neurons * result.evaluations).verdict = result.verdict.value

    while start < len(order):
        if deadline is not None and time.monotonic() >= deadline:
            stopped = True
            break
        t1 = time.monotonic()
        walked = len(trace.steps)
        batch = order[start : start + size]
        free = np.repeat(dropped[None], len(batch), axis=0)
        for i, g in enumerate(batch):
            free[slice(i, None) if guess else i, members[g]] = True
        lo = np.where(free, box.lo, x)
        hi = np.where(free, box.hi, x)
        separated = None
        if guess and len(batch) == MAX_BATCH:
            # Every box of the batch lies inside the last: if it separates, all do.
            margin, proof, _ = enclosure_verdicts(net, target, lo[-1:], hi[-1:])
            if proof[0]:
                margins, separated = np.repeat(margin, len(batch)), np.repeat(proof, len(batch))
        if separated is None:
            margins, separated, out_hi = enclosure_verdicts(net, target, lo, hi)
        breaks = np.flatnonzero(separated != guess)
        broken = breaks.size > 0
        taken = int(breaks[0]) + 1 if broken else len(batch)
        for i, g in enumerate(batch[:taken]):
            if separated[i]:
                record(g, True, margins[i], neurons)
            else:
                pin(g, margins[i], lo[i], hi[i], out_hi[i])
        searched = 0.0
        while len(pending) >= MAX_BATCH:
            searched += searches.search(pending[:MAX_BATCH])
            del pending[:MAX_BATCH]
        share = (time.monotonic() - t1 - searched) / max(len(trace.steps) - walked, 1)
        for step in trace.steps[walked:]:
            step.elapsed += share
        start += taken
        guess = batch[taken - 1] not in kept
        size = max(size // 2, 1) if broken else min(2 * size, cap)
    if pending:
        searches.search(pending)
    return kept, stopped, drops


def _label_drops(net, x, box, target, grouping, drops, schedule, trace, deadline=None):
    """Label the walk's drops with the coarsest scheduled rates that prove them, in one pass.

    ``drops`` holds the walk's dropped groups in drop order, each with its
    step at rate 1.0, and box k is the query box that frees the first k + 1
    of them (its free features from ``box``, the rest from ``x``).  For
    each rate below 1.0, in schedule order, the pass starts where the
    previous rate's prefix ended and finds the last drop e whose reduction
    of its own box at that rate proves that box: it gallops from the
    previous prefix's length (MAX_BATCH at first), doubling after each
    proof, then bisects after the first failure.  A probe builds no
    reduction: it selects the merge sets at the rate, bounds the box with
    one ``hull_pass`` and reads its verdict and margin with ``_separation``;
    its neuron count is the network's less the merged neurons.  A box's
    ``propagate_box`` and ``score_neurons`` ranking are made at its first
    probe and kept for the rest of the pass, since a later rate may probe
    it again.  Only the label of the last proof is kept.
    The drops from the start to e take the rate, the neuron count of e's
    reduction and the margin of its probe.  Every such box lies inside box
    e, that reduction's build box, so the probe's proof proves each of them
    at that rate, and its margin is a lower bound on each one's own.  Where
    the boxes that a rate's own reductions prove form a prefix of the
    drops, these are the labels of asking each drop alone, from the rate
    the drop before it took.  Drops left after the last prefix keep their
    walk steps.

    A drop's step is rewritten in place.  Each rate's time, its probes, is
    split over the drops it labels; a rate that labels none hands its time
    on to the next one that does, and what is left goes to the drops left
    at rate 1.0.  A rate's snapshot, for each rate that
    labels a drop, is every group minus the drops labelled at or below it,
    and ``refinements`` is the schedule index of the last drop's rate (0
    with no drop).  The deadline is checked before every rate, so a walk
    the deadline stopped is labelled with nothing.  The pass runs on the
    walk's thread, as the walk does, while the worker process runs the
    queued witness searches.
    """
    rates = schedule.rates
    if not drops or len(rates) == 1:
        return  # no drop, or no rate below 1.0: every step stays the walk's
    n = len(drops)
    freed_at = np.full(net.input_dim, n)  # the position of the drop that frees each feature
    for k, (g, _) in enumerate(drops):
        freed_at[list(grouping.groups[g])] = k

    bounded = {}  # position -> (its LayerBounds, their ranking), for each box probed so far at or after start

    def check(k, rate):
        """Whether box k's reduction at ``rate`` proves it, and its label; box k is bounded and ranked once."""
        if k not in bounded:
            free = freed_at <= k
            lb = propagate_box(net, IntervalVector(np.where(free, box.lo, x), np.where(free, box.hi, x)))
            bounded[k] = lb, score_neurons(net, lb)
        lb, ranked = bounded[k]
        merged = select_merge_sets(ranked, rate)
        margin, separated = _separation(*hull_pass(net, lb, merged), target)
        return separated, (rate, float(margin), net.neuron_count - sum(m.size for m in merged))

    start, length, mark = 0, MAX_BATCH, time.monotonic()
    for rate in rates[:-1]:
        if start == n or deadline is not None and time.monotonic() >= deadline:
            break
        good, bad = start - 1, n  # the last drop proved and the first refuted
        probe = min(start + length, n) - 1
        while good + 1 < bad:
            separated, proved = check(probe, rate)
            if separated:
                good, label = probe, proved
            else:
                bad = probe
            probe = min(start + 2 * (good + 1 - start), n) - 1 if bad == n else (good + bad) // 2
        end = good + 1
        if end > start:
            now = time.monotonic()
            for _, step in drops[start:end]:
                step.rate, step.margin, step.neuron_evals = label
                step.elapsed += (now - mark) / (end - start)
            trace.snapshots[rate] = grouping._ids_of(set(range(len(grouping.groups))) - {g for g, _ in drops[:end]})
            start, length, mark = end, end - start, now
            bounded = {k: kept for k, kept in bounded.items() if k >= start}  # no later rate probes before start
    share = (time.monotonic() - mark) / max(n - start, 1)
    for _, step in drops[start:]:
        step.elapsed += share
    trace.refinements = rates.index(drops[-1][1].rate)


def explain_abstraction_refinement(
    net: ConcreteNetwork,
    x,
    epsilon: float,
    grouping: FeatureGrouping | None = None,
    ordering: FeatureOrdering | None = None,
    schedule: ReductionSchedule | None = None,
    timeout: float | None = None,
    seed: int = 0,
) -> tuple[frozenset[int], ExplanationTrace]:
    """Greedy search whose drops are labelled with the coarsest reduction that proves them.

    Every feature is decided by the concrete enclosure check, in the
    baseline's walk, so both searches keep the same features and ask the
    same steps: a feature the concrete check cannot drop is one step at
    rate 1.0 with its concrete margin and the full network's neuron count,
    ``insufficient`` when a counterexample was found and ``uncertain``
    otherwise.  After the walk, one pass (``_label_drops``) gives each drop
    the coarsest scheduled rate, at or above the rate of the drop before
    it, whose reduction proves it, and rewrites its step with that rate,
    the reduction's neuron count and the margin of its proof of the run's
    last box, which holds the drop's box; a drop no rate below 1.0
    proves keeps its concrete step.  So a trace has one step per group,
    labels never decrease along the drops, per-rate snapshots shrink as the
    rate grows, and ``trace.refinements`` is the schedule index of the
    last drop's rate.  With the schedule (1.0,) this search is the
    baseline.

    The deadline is checked before every batch of the walk and every rate
    of the pass.  On timeout the current kept set, which is sufficient
    after every step, is returned as an early stop; a drop the pass did not
    reach keeps its step at rate 1.0.
    """
    if timeout is not None:
        check_number("timeout", timeout, minimum=0)
    if schedule is None:
        schedule = ReductionSchedule.default()
    elif not isinstance(schedule, ReductionSchedule):
        raise ValidationError(f"schedule must be a ReductionSchedule, got {schedule!r}")
    return _search(net, x, epsilon, grouping, ordering, seed, schedule, timeout)
