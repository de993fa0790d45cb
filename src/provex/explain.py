"""Greedy minimal-explanation searches.

Both searches start from the full feature set and walk the features in a
chosen order, dropping a feature whenever the remaining fixed set is still
verified sufficient.  Both run on one walk, ``_enclosure_walk``, which asks
its enclosure checks in speculative batches.  The baseline asks every check
on the original network; under the complete oracle, a step the enclosure
check cannot drop goes to ``oracle_check``.  The abstraction-refinement
search decides every feature with the same concrete enclosure and uses
reductions only to label its drops: a run of drops below the schedule's
last rate is proved on one reduction built against the run's largest box,
and a drop that reduction cannot prove is labelled with the coarsest
scheduled rate whose reduction of its own box proves it.  A feature the
concrete enclosure does not drop is pinned at once, with no reduction and
no refinement, so both searches keep the same features.  After every step
the kept set is provably sufficient, so the search can stop early at any
time and still return a valid (possibly non-minimal) explanation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .abstraction import ReductionSchedule, build_abstract, refine
from .bounds import propagate_box
from .errors import DimensionError, ValidationError
from .intervals import IntervalVector
from .network import ConcreteNetwork, gradient, predict
from .queries import (
    OracleOutcome,
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


@dataclass(frozen=True)
class FeatureGrouping:
    """A partition of the input dimensions into ordered, named groups."""

    groups: tuple[tuple[int, ...], ...]
    ids: tuple[str, ...]

    def __post_init__(self):
        if len(self.groups) != len(self.ids):
            raise DimensionError("one id per group required")
        seen: set[int] = set()
        for group in self.groups:
            if not group:
                raise ValidationError("groups must be non-empty")
            for i in group:
                if i in seen:
                    raise ValidationError(f"feature {i} appears in more than one group")
                seen.add(i)
        if seen != set(range(len(seen))):
            raise ValidationError("groups must partition the feature indices exactly")

    @classmethod
    def singletons(cls, n: int) -> "FeatureGrouping":
        """One group per dimension, named by one-based position."""
        return cls(tuple((i,) for i in range(n)), tuple(str(i + 1) for i in range(n)))

    @classmethod
    def rgb_pixels(cls, n: int) -> "FeatureGrouping":
        """Bundle interleaved RGB channels so each pixel is kept or freed whole."""
        if n % 3 != 0:
            raise ValidationError(f"rgb grouping needs a multiple of 3 features, got {n}")
        pixels = n // 3
        groups = tuple((3 * p, 3 * p + 1, 3 * p + 2) for p in range(pixels))
        return cls(groups, tuple(str(p + 1) for p in range(pixels)))

    @property
    def feature_count(self) -> int:
        return sum(len(g) for g in self.groups)

    def features_of(self, group_indices) -> frozenset[int]:
        return frozenset(i for g in group_indices for i in self.groups[g])

    def ids_of(self, group_indices) -> tuple[str, ...]:
        return tuple(self.ids[g] for g in sorted(group_indices))


@dataclass(frozen=True)
class FeatureOrdering:
    """A resolved processing order over group indices."""

    policy: str
    resolved: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.resolved) != list(range(len(self.resolved))):
            raise ValidationError("resolved ordering must be a permutation of the groups")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")


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
    _check_seed(seed)
    n_groups = len(grouping.groups)
    if policy == "in-order":
        return FeatureOrdering(policy, tuple(range(n_groups)))
    if policy == "random":
        perm = np.random.default_rng(seed).permutation(n_groups)
        return FeatureOrdering(policy, tuple(int(i) for i in perm))
    if policy == "sensitivity":
        g = np.abs(gradient(net, x, predict(net, x)))
        scores = [float(sum(g[i] for i in group)) for group in grouping.groups]
        order = sorted(range(n_groups), key=lambda k: (scores[k], k))
        return FeatureOrdering(policy, tuple(order))
    raise ValidationError(f"unknown ordering policy {policy!r}")


@dataclass
class StepRecord:
    """One verification query issued during a search."""

    group_id: str
    rate: float
    verdict: str
    witness_used: bool
    elapsed: float
    margin: float
    neuron_evals: int

    def to_dict(self) -> dict:
        return {
            "group": self.group_id,
            "rate": self.rate,
            "verdict": self.verdict,
            "witness_used": self.witness_used,
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


def _prepare(net, x, grouping, ordering, seed):
    _check_seed(seed)
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
    return x, grouping, ordering, target


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

    With the ``oracle`` backend on small inputs the result is subset-minimal
    in the exact sense; with the ``enclosure`` backend minimality is
    relative to the incomplete enclosure verifier.  The oracle, with
    ``oracle_budget`` splits (default 65536, and an error with the
    ``enclosure`` backend), decides every step the enclosure check cannot
    drop, one query per batch of ``_enclosure_walk``.
    """
    if backend not in ("enclosure", "oracle"):
        raise ValidationError(f"unknown backend {backend!r}")
    if backend == "enclosure" and oracle_budget is not None:
        raise ValidationError("oracle_budget does not apply to the enclosure backend")
    if backend == "oracle":
        oracle_budget = 1 << 16 if oracle_budget is None else oracle_budget
        if oracle_budget < 0:
            raise ValidationError(f"oracle split budget must be nonnegative, got {oracle_budget}")
    x, grouping, ordering, target = _prepare(net, x, grouping, ordering, seed)
    rng = np.random.default_rng(seed)
    trace = ExplanationTrace(group_count=len(grouping.groups))
    t0 = time.monotonic()
    kept, _ = _enclosure_walk(net, x, epsilon, target, grouping, ordering.resolved, rng, trace, budget=oracle_budget)
    trace.final = grouping.ids_of(kept)
    trace.wall_time = time.monotonic() - t0
    return frozenset(kept), trace


def _enclosure_walk(net, x, epsilon, target, grouping, order, rng, trace, schedule=None, deadline=None, budget=None):
    """The greedy walk on concrete enclosure checks, in speculative batches.

    Walks the group indices in ``order`` from the full set and returns the
    kept set and whether the deadline stopped the walk before the end of
    ``order``; the deadline is checked before every batch and every
    refinement.

    A batch takes the next groups g_1..g_B and guesses that the last
    verdict repeats.  After a drop, box i frees g_1..g_i on top of the
    groups already dropped (nested boxes); after a keep, it frees g_i alone
    on top of them.  Up to and including the first box that breaks the
    guess, every box is exactly the query the one-at-a-time walk asks at
    that step, so those steps are taken and the rest of the batch is
    discarded.  All B boxes share one bound pass.  B starts at 1, doubles
    after a batch that matches the guess throughout and halves after one
    that breaks it, within 1..MAX_BATCH.

    A step that fails is a pin.  Its box joins a queue of witness
    searches, which is searched in calls of exactly MAX_BATCH boxes, and
    whatever remains is searched when the walk ends or stops.  The boxes
    are searched in step order, and the samples of a call come from one
    draw of ``rng`` over the features free in any of its boxes, so the
    stream, and every witness, is that of one ``find_witnesses`` call per
    MAX_BATCH pins in step order, and one for the rest; it is not the
    stream of one search per pin.  A pin's verdict and ``witness_used``
    are filled in when its search returns; nothing else waits on them.

    With a split ``budget`` (the baseline under the complete oracle), B is
    capped at 1: after a "keep" guess an oracle proof would change the
    boxes of the batch's later rows.  A pin goes to ``oracle_check`` on the
    same query instead of the queue: a proof drops its group, a witness
    makes it ``insufficient`` with ``witness_used``, an exhausted budget
    leaves it ``uncertain``, and its ``neuron_evals`` count every box the
    oracle propagated.  A separated row is a drop with no split, as the
    oracle's root box would discharge it.

    With no ``schedule`` (the baseline) every batch is checked on the
    network itself.  With one, the carried rate starts at the schedule's
    first rate, and while it is below 1.0 a batch that guesses "drop" is
    checked on one reduction, built against its last (largest) box at the
    carried rate.  Its leading separated rows are drops at the carried
    rate, with their margins on that reduction: a reduction encloses the
    concrete enclosure of every box inside its build box.  Its first
    failing row, and every row of any other batch, is decided by the
    concrete enclosure.  A row it does not separate is pinned at once:
    one step at rate 1.0 with its concrete margin, queued for the witness
    search like any other pin.  A row it separates below rate 1.0 goes to the
    reduction built against its own box at the carried rate, refined rate
    by rate until it separates, with one step per rate and no witness
    search (a concretely separated box has none); the rate that proves the
    drop becomes the carried rate.  A reduction at rate 1.0 is the network
    itself, so the chain ends there; a row still unseparated there by
    rounding is kept.  The kept set is therefore the baseline's.  A
    witnessed pin is ``insufficient`` in the baseline and ``uncertain``
    with ``witness_used`` under a schedule, whose steps record enclosure
    verdicts.

    A step's ``elapsed`` is its batch's wall time without the witness
    searches made during it, split evenly over the steps the batch
    recorded; a pin adds an equal share of the search that labels it.
    These intervals do not overlap, so the steps' times add up to no more
    than the walk's.  A rate's snapshot is the kept set after its
    last drop, so pins never move it; the snapshot at rate 1.0 is the kept
    set when the walk ends.
    """
    box = SufficiencyQuery(x, frozenset(), epsilon, target, net.input_domain).query_box()
    members = [np.asarray(group, dtype=int) for group in grouping.groups]
    neurons = net.neuron_count
    every = set(range(len(grouping.groups)))
    kept = set(every)
    dropped = np.zeros(net.input_dim, dtype=bool)  # features of the dropped groups
    drops: list[int] = []  # dropped groups, in the order they were dropped
    drops_at: dict[float, int] = {}  # per rate below 1.0, the drops made up to its last drop
    pending = []  # pins awaiting their witness search: (step, lo, hi, out_hi), in step order
    carried = 1.0 if schedule is None else schedule.rates[0]
    witnessed = VerdictKind.INSUFFICIENT if schedule is None else VerdictKind.UNCERTAIN
    cap = MAX_BATCH if budget is None else 1
    start, size, guess, stopped = 0, 1, True, False

    def record(g, rate, separated, margin, neuron_evals):
        if separated:
            kept.discard(g)
            dropped[members[g]] = True
            drops.append(g)
            if rate < 1.0:
                drops_at[rate] = len(drops)
        step = StepRecord(
            group_id=grouping.ids[g],
            rate=rate,
            verdict=(VerdictKind.SUFFICIENT if separated else VerdictKind.UNCERTAIN).value,
            witness_used=False,
            elapsed=0.0,
            margin=float(margin),
            neuron_evals=neuron_evals,
        )
        trace.steps.append(step)
        return step

    def pin(g, margin, lo, hi, out_hi):
        """Keep g at rate 1.0 with its box queued for a witness search, or let the oracle decide it."""
        if budget is None:
            pending.append((record(g, 1.0, False, margin, neurons), lo, hi, out_hi))
            return
        q = SufficiencyQuery(x, grouping.features_of(kept - {g}), epsilon, target, net.input_domain)
        result = oracle_check(net, q, budget)
        step = record(g, 1.0, result.proved, margin, neurons * result.evaluations)
        step.verdict = result.verdict.value
        step.witness_used = result.outcome is OracleOutcome.WITNESS

    def search(count):
        """Label the first ``count`` queued pins with one witness search; return its wall time."""
        t = time.monotonic()
        steps, lo, hi, out_hi = zip(*pending[:count])
        del pending[:count]
        witnesses = find_witnesses(net, target, np.stack(lo), np.stack(hi), np.stack(out_hi), rng)
        seconds = time.monotonic() - t
        for step, witness in zip(steps, witnesses):
            if witness is not None:
                step.verdict = witnessed.value
                step.witness_used = True
            step.elapsed += seconds / count
        return seconds

    def label(g, lb, lo, hi, anet=None):
        """Drop a concretely separated row at the coarsest rate its own box's reduction proves.

        ``lb`` holds the bounds of the row's own box; ``anet``, when given,
        is its reduction at the carried rate.
        """
        nonlocal carried, stopped
        rate = carried
        anet = anet if anet is not None else build_abstract(net, lb, rate)
        while True:
            margin, separated, _ = enclosure_verdicts(anet, target, lo, hi)
            record(g, rate, separated, margin, anet.neuron_count)
            if separated:
                carried = rate
                return
            rate = schedule.next_after(max(rate, anet.reduction_rate))
            if rate is None:
                return
            if deadline is not None and time.monotonic() >= deadline:
                stopped = True
                return
            anet = refine(net, anet, lb, rate)
            trace.refinements += 1

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
        if guess and carried < 1.0:
            lb = propagate_box(net, IntervalVector(lo[-1], hi[-1]))
            anet = build_abstract(net, lb, carried)
            margins, separated, _ = enclosure_verdicts(anet, target, lo, hi)
            taken = len(batch) if separated.all() else int(np.argmin(separated)) + 1
            broken = not separated[taken - 1]
            for i in range(taken - broken):
                record(batch[i], carried, True, margins[i], anet.neuron_count)
            if broken:
                f = taken - 1
                if f < len(batch) - 1:
                    lb, anet = propagate_box(net, IntervalVector(lo[f], hi[f])), None
                margin, concrete = _separation(lb.final.lo, lb.final.hi, target)
                if concrete:
                    label(batch[f], lb, lo[f], hi[f], anet)
                else:
                    pin(batch[f], margin, lo[f], hi[f], lb.final.hi)
        else:
            margins, separated, out_hi = enclosure_verdicts(net, target, lo, hi)
            breaks = np.flatnonzero(separated != guess)
            broken = breaks.size > 0
            taken = int(breaks[0]) + 1 if broken else len(batch)
            for i, g in enumerate(batch[:taken]):
                if not separated[i]:
                    pin(g, margins[i], lo[i], hi[i], out_hi[i])
                elif carried == 1.0:
                    record(g, 1.0, True, margins[i], neurons)
                else:
                    label(g, propagate_box(net, IntervalVector(lo[i], hi[i])), lo[i], hi[i])
        searched = 0.0
        while len(pending) >= MAX_BATCH:
            searched += search(MAX_BATCH)
        share = (time.monotonic() - t1 - searched) / max(len(trace.steps) - walked, 1)
        for step in trace.steps[walked:]:
            step.elapsed += share
        if stopped:
            break
        start += taken
        guess = batch[taken - 1] not in kept
        size = max(size // 2, 1) if broken else min(2 * size, cap)
    if pending:
        search(len(pending))

    # A rate's snapshot is the kept set after its last drop, rebuilt once
    # here from the drop order rather than stored after every step.
    for rate, count in drops_at.items():
        trace.snapshots[rate] = grouping.ids_of(every.difference(drops[:count]))
    if trace.steps:
        trace.snapshots[1.0] = grouping.ids_of(kept)
    return kept, stopped


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

    Every feature is decided by the concrete enclosure check, as in the
    baseline, so both searches keep the same features.  A feature the
    concrete check cannot drop is pinned at once: one ``uncertain`` step
    at rate 1.0 with its concrete margin, the full network's neuron count,
    and ``witness_used`` set when a counterexample was found.  A dropped
    feature is checked on a reduction of the network at the carried rate,
    which is refined to the next scheduled rate until it proves the drop;
    each rate tried is one step and each refinement counts in
    ``trace.refinements``.  The rate that proved a drop carries forward to
    later features and never decreases, so per-rate snapshots shrink as
    the rate grows.  Below rate 1.0, a run of drops shares one reduction
    built against the run's largest box (see ``_enclosure_walk``); from
    rate 1.0 on, every step is the baseline's.

    The deadline is checked before every batch and every refinement.  On
    timeout the current kept set, which is sufficient after every step, is
    returned as an early stop.
    """
    if timeout is not None and not timeout >= 0:  # NaN too
        raise ValidationError(f"timeout must be nonnegative, got {timeout}")
    x, grouping, ordering, target = _prepare(net, x, grouping, ordering, seed)
    if schedule is None:
        schedule = ReductionSchedule.default()
    rng = np.random.default_rng(seed)
    trace = ExplanationTrace(group_count=len(grouping.groups))
    t0 = time.monotonic()
    deadline = None if timeout is None else t0 + timeout
    kept, stopped = _enclosure_walk(
        net, x, epsilon, target, grouping, ordering.resolved, rng, trace, schedule, deadline
    )
    trace.final = grouping.ids_of(kept)
    trace.status = STATUS_EARLY_STOP if stopped else STATUS_MINIMAL
    trace.wall_time = time.monotonic() - t0
    return frozenset(kept), trace
