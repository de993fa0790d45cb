"""Greedy minimal-explanation searches.

Both searches start from the full feature set and walk the features in a
chosen order, dropping a feature whenever the remaining fixed set is still
verified sufficient.  The baseline search asks every question on the
original network, asking its enclosure checks in speculative batches (see
``_enclosure_walk``); the abstraction-refinement search asks it on a reduced
network first, falls back to concrete counterexample search when the
reduced check is inconclusive, and only then refines the reduction.  Below
the schedule's last rate it asks its steps in speculative windows that
share one reduction; once it carries that rate, its remaining questions
are the baseline's, and it hands them to the same batched walk.  After
every step the kept set is provably sufficient, so the search can stop
early at any time and still return a valid (possibly non-minimal)
explanation.
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
    enclosure_verdicts,
    find_witnesses,
    oracle_check,
)

STATUS_MINIMAL = "MinimalSufficient"
STATUS_EARLY_STOP = "SufficientEarlyStop"

ORDERING_POLICIES = ("sensitivity", "in-order", "random")

# Most query boxes a batch of the enclosure walk, or a window of the
# abstraction-refinement search, puts in one bound pass.
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
    margin: float | None
    queried_neurons: int
    neuron_evals: int

    def to_dict(self) -> dict:
        return {
            "group": self.group_id,
            "rate": self.rate,
            "verdict": self.verdict,
            "witness_used": self.witness_used,
            "elapsed": self.elapsed,
            "margin": self.margin,
            "queried_neurons": self.queried_neurons,
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
    oracle_budget: int = 1 << 16,
) -> tuple[frozenset[int], ExplanationTrace]:
    """Greedy search querying the original network for every candidate drop.

    With the ``oracle`` backend on small inputs the result is subset-minimal
    in the exact sense; with the ``enclosure`` backend minimality is
    relative to the incomplete enclosure verifier.
    """
    if backend not in ("enclosure", "oracle"):
        raise ValidationError(f"unknown backend {backend!r}")
    x, grouping, ordering, target = _prepare(net, x, grouping, ordering, seed)
    rng = np.random.default_rng(seed)
    trace = ExplanationTrace(group_count=len(grouping.groups))
    t0 = time.monotonic()
    if backend == "enclosure":
        kept = set(range(len(grouping.groups)))
        _enclosure_walk(net, x, epsilon, target, grouping, ordering.resolved, kept, rng, trace)
    else:
        kept = _oracle_walk(net, x, epsilon, target, grouping, ordering, oracle_budget, trace)
    trace.final = grouping.ids_of(kept)
    trace.wall_time = time.monotonic() - t0
    return frozenset(kept), trace


def _enclosure_walk(net, x, epsilon, target, grouping, order, kept, rng, trace, deadline=None) -> bool:
    """The greedy walk on concrete enclosure checks, in speculative batches.

    Walks the group indices in ``order`` starting from the kept set
    ``kept``, which it updates in place; the groups outside it are already
    dropped and stay free.  The baseline walks its whole order from the
    full set; the abstraction-refinement search hands over the rest of its
    order once it carries the schedule's last rate.

    A batch takes the next groups g_1..g_B and guesses that the last
    verdict repeats.  After a drop, box i frees g_1..g_i on top of the
    groups already dropped (nested boxes); after a keep, it frees g_i alone
    on top of them.  All B boxes share one bound pass.  Up to and including
    the first box that breaks the guess, every box is exactly the query the
    one-at-a-time walk asks at that step, so those steps are taken and the
    rest of the batch is discarded.  The steps that fail share one witness
    search, which draws from ``rng`` in step order.  B starts at 1, doubles
    after a batch that matches the guess throughout and halves after one
    that breaks it, within 1..MAX_BATCH.  A step's ``elapsed`` is its
    batch's wall time split evenly over the steps the batch took.  The
    snapshot at rate 1.0 is recorded once, when the walk ends.  The
    deadline is checked before every batch; returns whether it stopped the
    walk before the end of ``order``.
    """
    box = SufficiencyQuery(x, frozenset(), epsilon, target, net.input_domain).query_box()
    members = [np.asarray(group, dtype=int) for group in grouping.groups]
    dropped = np.zeros(net.input_dim, dtype=bool)  # features of the dropped groups
    for g in set(range(len(grouping.groups))) - kept:
        dropped[members[g]] = True
    start, size, guess, stopped = 0, 1, True, False
    while start < len(order):
        if deadline is not None and time.monotonic() >= deadline:
            stopped = True
            break
        t1 = time.monotonic()
        batch = order[start : start + size]
        free = np.repeat(dropped[None], len(batch), axis=0)
        for i, g in enumerate(batch):
            free[slice(i, None) if guess else i, members[g]] = True
        lo = np.where(free, box.lo, x)
        hi = np.where(free, box.hi, x)
        margins, separated, out_hi = enclosure_verdicts(net, target, lo, hi)
        broken = np.flatnonzero(separated != guess)
        taken = int(broken[0]) + 1 if broken.size else len(batch)
        failed = [i for i in range(taken) if not separated[i]]
        witnesses = dict(zip(failed, find_witnesses(net, target, lo[failed], hi[failed], out_hi[failed], rng)))
        for i, g in enumerate(batch[:taken]):
            if separated[i]:
                kept.discard(g)
                dropped[members[g]] = True
                verdict = VerdictKind.SUFFICIENT
            elif witnesses[i] is not None:
                verdict = VerdictKind.INSUFFICIENT
            else:
                verdict = VerdictKind.UNCERTAIN
            trace.steps.append(
                StepRecord(
                    group_id=grouping.ids[g],
                    rate=1.0,
                    verdict=verdict.value,
                    witness_used=verdict is VerdictKind.INSUFFICIENT,
                    elapsed=0.0,
                    margin=float(margins[i]),
                    queried_neurons=net.neuron_count,
                    neuron_evals=net.neuron_count,
                )
            )
        share = (time.monotonic() - t1) / taken
        for step in trace.steps[-taken:]:
            step.elapsed = share
        start += taken
        guess = bool(separated[taken - 1])
        size = max(size // 2, 1) if broken.size else min(2 * size, MAX_BATCH)
    if start:
        trace.snapshots[1.0] = grouping.ids_of(kept)
    return stopped


def _oracle_walk(net, x, epsilon, target, grouping, ordering, budget, trace) -> set[int]:
    """The baseline's greedy walk with the complete oracle, one query per step."""
    kept = set(range(len(grouping.groups)))
    for g in ordering.resolved:
        fixed = grouping.features_of(kept - {g})
        q = SufficiencyQuery(x, fixed, epsilon, target, net.input_domain)
        t1 = time.monotonic()
        result = oracle_check(net, q, budget=budget)
        if result.proved:
            kept.discard(g)
        verdict_name = {
            OracleOutcome.PROVED_SUFFICIENT: VerdictKind.SUFFICIENT.value,
            OracleOutcome.WITNESS: VerdictKind.INSUFFICIENT.value,
            OracleOutcome.EXHAUSTED: VerdictKind.UNCERTAIN.value,
        }[result.outcome]
        trace.steps.append(
            StepRecord(
                group_id=grouping.ids[g],
                rate=1.0,
                verdict=verdict_name,
                witness_used=result.outcome is OracleOutcome.WITNESS,
                elapsed=time.monotonic() - t1,
                margin=None,
                queried_neurons=net.neuron_count,
                neuron_evals=net.neuron_count * result.evaluations,
            )
        )
    if trace.steps:
        trace.snapshots[1.0] = grouping.ids_of(kept)
    return kept


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
    """Greedy search that verifies each drop on a reduced network first.

    Per feature: check the candidate drop on a reduction at the carried
    rate; a sufficient verdict drops the feature, a concrete counterexample
    pins it, and otherwise the feature's own reduction is refined to the
    next scheduled rate and retried.  At rate 1.0 the reduced check
    coincides with the concrete enclosure check, so an inconclusive verdict
    there pins the feature.  The rate a successful check was answered at
    carries forward to later features and never decreases.

    Below rate 1.0 the steps are asked in speculative windows that share
    one reduction.  A window takes the next groups g_1..g_B; its box i
    frees g_1..g_i on top of the groups already dropped, so its last box
    contains all the others.  The window propagates that box once, reduces
    the network against it once at the carried rate, and checks all B
    boxes on that reduction in one bound pass.  A reduction encloses the
    concrete enclosure of every box inside its build box, so each leading
    separated row is a sound drop, which the concrete walk makes too; the
    window takes those rows as ``sufficient`` steps at the carried rate,
    with margins on the window's reduction.  Its first failing row is asked
    again as a window of one, on its own box (reusing the build when that
    box is the build box): a separated verdict there drops it, and an
    inconclusive one goes on to counterexample search and the refinement
    chain.  B starts at 1, doubles after a window whose rows all separate,
    halves after one with a failing row and drops to 1 after a pin, within
    1..MAX_BATCH.  A window's wall time, build included, is split evenly
    over the steps it took, an inconclusive row asked alone counting as
    taken; a window that took none hands its time on to the next window.
    A step after a refinement times the refinement and its check.

    Once the carried rate is the schedule's last, 1.0, every later step is
    the concrete enclosure check of the baseline, so the rest of the order
    goes to ``_enclosure_walk`` with the kept set, the witness generator
    and the deadline: same queries, same verdicts, asked in batches.  Its
    steps record, like every step here, the enclosure verdict
    (``sufficient`` or ``uncertain``) with a found counterexample in
    ``witness_used``.

    The deadline is checked before every window and every refinement.  On
    timeout the current kept set, which is sufficient after every step, is
    returned as an early stop.
    """
    x, grouping, ordering, target = _prepare(net, x, grouping, ordering, seed)
    if schedule is None:
        schedule = ReductionSchedule.default()
    rng = np.random.default_rng(seed)
    kept = set(range(len(grouping.groups)))
    trace = ExplanationTrace(group_count=len(grouping.groups))
    t0 = time.monotonic()
    deadline = None if timeout is None else t0 + timeout
    carried = schedule.rates[0]
    stopped = False
    box = SufficiencyQuery(x, frozenset(), epsilon, target, net.input_domain).query_box()
    members = [np.asarray(group, dtype=int) for group in grouping.groups]
    dropped = np.zeros(net.input_dim, dtype=bool)  # features of the dropped groups
    order = ordering.resolved
    drops: list[int] = []  # dropped groups, in the order they were dropped
    drops_at: dict[float, int] = {}  # per rate, the drops made up to its last step
    position, size, reask, build = 0, 1, False, None

    def record(g, rate, verdict, witness_used, elapsed, margin, anet):
        if verdict is VerdictKind.SUFFICIENT:
            kept.discard(g)
            dropped[members[g]] = True
            drops.append(g)
        trace.steps.append(
            StepRecord(
                group_id=grouping.ids[g],
                rate=rate,
                verdict=verdict.value,
                witness_used=witness_used,
                elapsed=elapsed,
                margin=float(margin),
                queried_neurons=anet.neuron_count,
                neuron_evals=anet.neuron_count,
            )
        )
        drops_at[rate] = len(drops)

    while position < len(order) and carried != schedule.rates[-1]:
        if deadline is not None and time.monotonic() >= deadline:
            stopped = True
            break
        if not reask:
            t1 = time.monotonic()
        window = order[position : position + (1 if reask else size)]
        free = np.repeat(dropped[None], len(window), axis=0)
        for i, g in enumerate(window):
            free[i:, members[g]] = True
        lo = np.where(free, box.lo, x)
        hi = np.where(free, box.hi, x)
        if build is None:
            lb = propagate_box(net, IntervalVector(lo[-1], hi[-1]))
            build = lb, build_abstract(net, lb, carried)
        lb, anet = build
        margins, separated, out_hi = enclosure_verdicts(anet, target, lo, hi)
        taken = int(np.argmin(separated)) if not separated.all() else len(window)
        for i in range(taken):
            record(window[i], carried, VerdictKind.SUFFICIENT, False, 0.0, margins[i], anet)
        if taken:
            share = (time.monotonic() - t1) / taken
            for step in trace.steps[-taken:]:
                step.elapsed = share
            t1 = time.monotonic()
        position += taken
        if taken == len(window):
            size = size if reask else min(2 * size, MAX_BATCH)
            reask, build = False, None
            continue
        if len(window) > 1:
            # The failing row was checked on a larger box's reduction (or,
            # as the last row, in a batch): ask it again alone, on its own box.
            size, reask = max(size // 2, 1), True
            build = build if taken == len(window) - 1 else None
            continue

        # One row on its own box's reduction, inconclusive: counterexample
        # search, then refinement of the same reduction until a verdict.
        g, rate = window[0], carried
        elapsed = time.monotonic() - t1
        while True:
            verdict = VerdictKind.SUFFICIENT if separated[0] else VerdictKind.UNCERTAIN
            witness_used = False
            if separated[0]:
                carried = rate
            else:
                witness_used = find_witnesses(net, target, lo, hi, out_hi, rng)[0] is not None
            record(g, rate, verdict, witness_used, elapsed, margins[0], anet)
            if separated[0] or witness_used:
                break
            next_rate = schedule.next_after(max(rate, anet.reduction_rate))
            if next_rate is None:
                break  # inconclusive on the full network: the feature stays
            if deadline is not None and time.monotonic() >= deadline:
                stopped = True
                break
            t1 = time.monotonic()
            anet = refine(net, anet, lb, next_rate)
            trace.refinements += 1
            rate = next_rate
            margins, separated, out_hi = enclosure_verdicts(anet, target, lo, hi)
            elapsed = time.monotonic() - t1
        if stopped:
            break
        position += 1
        if not separated[0]:
            size = 1
        reask, build = False, None

    # A rate's snapshot is the kept set after its last step, rebuilt once
    # here from the drop order rather than stored after every step.
    every = set(range(len(grouping.groups)))
    for rate, count in drops_at.items():
        trace.snapshots[rate] = grouping.ids_of(every.difference(drops[:count]))
    if carried == schedule.rates[-1] and position < len(order) and not stopped:
        walked = len(trace.steps)
        stopped = _enclosure_walk(net, x, epsilon, target, grouping, order[position:], kept, rng, trace, deadline)
        for step in trace.steps[walked:]:
            if step.witness_used:
                step.verdict = VerdictKind.UNCERTAIN.value

    trace.final = grouping.ids_of(kept)
    trace.status = STATUS_EARLY_STOP if stopped else STATUS_MINIMAL
    trace.wall_time = time.monotonic() - t0
    return frozenset(kept), trace
