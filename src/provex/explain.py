"""Greedy minimal-explanation searches.

Both searches start from the full feature set and walk the features in a
chosen order, dropping a feature whenever the remaining fixed set is still
verified sufficient.  The baseline search asks every question on the
original network; the abstraction-refinement search asks it on a reduced
network first, falls back to concrete counterexample search when the
reduced check is inconclusive, and only then refines the reduction.  After
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
from .network import ConcreteNetwork, gradient, predict
from .queries import (
    OracleOutcome,
    SufficiencyQuery,
    VerdictKind,
    check_concrete,
    gen_counterexample,
    check_abstract,
    oracle_check,
)

STATUS_MINIMAL = "MinimalSufficient"
STATUS_EARLY_STOP = "SufficientEarlyStop"

ORDERING_POLICIES = ("sensitivity", "in-order", "random")


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
    kept = set(range(len(grouping.groups)))
    trace = ExplanationTrace(group_count=len(grouping.groups))
    t0 = time.monotonic()
    for g in ordering.resolved:
        fixed = grouping.features_of(kept - {g})
        q = SufficiencyQuery(x, fixed, epsilon, target, net.input_domain)
        t1 = time.monotonic()
        if backend == "enclosure":
            verdict = check_concrete(net, q, rng=rng)
            if verdict.is_sufficient:
                kept.discard(g)
            trace.steps.append(
                StepRecord(
                    group_id=grouping.ids[g],
                    rate=1.0,
                    verdict=verdict.kind.value,
                    witness_used=verdict.is_insufficient,
                    elapsed=time.monotonic() - t1,
                    margin=verdict.margin,
                    queried_neurons=net.neuron_count,
                    neuron_evals=net.neuron_count,
                )
            )
        else:
            result = oracle_check(net, q, budget=oracle_budget)
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
        trace.snapshots[1.0] = grouping.ids_of(kept)
    trace.final = grouping.ids_of(kept)
    trace.wall_time = time.monotonic() - t0
    return frozenset(kept), trace


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

    Per feature: check the candidate drop on the reduction at the carried
    rate; a sufficient verdict drops the feature, a concrete counterexample
    pins it, and otherwise the reduction is refined to the next scheduled
    rate and retried.  At rate 1.0 the reduced check coincides with the
    concrete enclosure check, so an inconclusive verdict there pins the
    feature.  The rate a successful check was answered at carries forward
    to later features and never decreases.  On timeout the current kept
    set, which is sufficient after every step, is returned as an early
    stop.
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

    for g in ordering.resolved:
        if deadline is not None and time.monotonic() >= deadline:
            stopped = True
            break
        fixed = grouping.features_of(kept - {g})
        q = SufficiencyQuery(x, fixed, epsilon, target, net.input_domain)
        lb = propagate_box(net, q.query_box())
        rate = carried
        anet = build_abstract(net, lb, rate)
        while True:
            t1 = time.monotonic()
            verdict = check_abstract(anet, q)
            elapsed = time.monotonic() - t1
            witness_used = False
            decided = verdict.is_sufficient
            if verdict.is_sufficient:
                kept.discard(g)
                carried = rate
            else:
                witness = gen_counterexample(net, verdict.enclosure, q, rng=rng)
                if witness is not None:
                    witness_used = True
                    decided = True
            trace.steps.append(
                StepRecord(
                    group_id=grouping.ids[g],
                    rate=rate,
                    verdict=verdict.kind.value,
                    witness_used=witness_used,
                    elapsed=elapsed,
                    margin=verdict.margin,
                    queried_neurons=anet.neuron_count,
                    neuron_evals=anet.neuron_count,
                )
            )
            trace.snapshots[rate] = grouping.ids_of(kept)
            if decided:
                break
            next_rate = schedule.next_after(max(rate, anet.reduction_rate))
            if next_rate is None:
                break  # inconclusive on the full network: the feature stays
            if deadline is not None and time.monotonic() >= deadline:
                stopped = True
                break
            anet = refine(net, anet, lb, next_rate)
            trace.refinements += 1
            rate = next_rate
        if stopped:
            break

    trace.final = grouping.ids_of(kept)
    trace.status = STATUS_EARLY_STOP if stopped else STATUS_MINIMAL
    trace.wall_time = time.monotonic() - t0
    return frozenset(kept), trace
