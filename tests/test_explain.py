"""Explanation searches: orderings, traces, equivalence, and early stop."""

import hashlib
import itertools
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import make_query, small_net_and_instance
from test_kernel_bits import reference_find_witnesses
from provex.abstraction import ReductionSchedule, build_abstract
from provex.bounds import propagate_box
from provex.errors import ValidationError
from provex.explain import (
    STATUS_EARLY_STOP,
    STATUS_MINIMAL,
    ExplanationTrace,
    FeatureGrouping,
    FeatureOrdering,
    StepRecord,
    count_work,
    explain_abstraction_refinement,
    explain_baseline,
    order_features,
)
from provex.fixtures import mnist_shape_network, random_network, uniform_instances
from provex import explain as explain_module
from provex.network import ConcreteNetwork, Layer, load_network, predict
from provex.queries import (
    OracleOutcome,
    SufficiencyQuery,
    VerdictKind,
    _candidate_rows,
    _gap_corners,
    check_abstract,
    check_concrete,
    enclosure_verdicts,
    find_witnesses,
    one_blas_thread,
    oracle_check,
)

SOURCES = Path(__file__).resolve().parent.parent / "src"

IDENTITY_DOC = json.dumps(
    {
        "input_dim": 3,
        "layers": [
            {
                "kind": "dense",
                "activation": "identity",
                "weights": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                "bias": [0, 0, 0],
            }
        ],
    }
)


class TestGrouping:
    def test_singletons(self):
        g = FeatureGrouping.singletons(4)
        assert g.groups == ((0,), (1,), (2,), (3,))
        assert g.ids == ("1", "2", "3", "4")

    def test_rgb_pixels(self):
        g = FeatureGrouping.rgb_pixels(6)
        assert g.groups == ((0, 1, 2), (3, 4, 5))
        assert g.feature_count == 6

    def test_rgb_needs_multiple_of_three(self):
        with pytest.raises(ValidationError):
            FeatureGrouping.rgb_pixels(7)

    def test_partition_enforced(self):
        with pytest.raises(ValidationError):
            FeatureGrouping(((0, 1), (1, 2)), ("a", "b"))
        with pytest.raises(ValidationError):
            FeatureGrouping(((0,), (2,)), ("a", "b"))

    @pytest.mark.parametrize(
        "groups, ids, message",
        [
            # Two groups named "a": the trace, its snapshots and report.json could not tell them apart.
            (((0,), (1,), (2,), (3,)), ("a", "a", "b", "c"), "group id 'a' names more than one group"),
            # Reports are read back by id, and a report's ids are strings.
            (((0,), (1,)), ("a", 2), "group id 2 is not a string"),
            (((0.0,), (1,)), ("a", "b"), "groups[0] must hold integer feature indices, got 0.0"),
            (((0,), (1, True)), ("a", "b"), "groups[1] must hold integer feature indices, got True"),
            (((0,), (-1, 1)), ("a", "b"), "groups[1] must be nonnegative, got -1"),
        ],
    )
    def test_ids_and_indices_are_named(self, groups, ids, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            FeatureGrouping(groups, ids)


def bad_scalar(search, message, **arguments):
    """A case of ``search`` called with ``arguments``, which must raise a ValidationError of ``message``."""
    return pytest.param(
        search, arguments, message, id=f"{search.__name__}-" + "-".join(f"{k}={v!r}" for k, v in arguments.items())
    )


class TestOrdering:
    def test_identity_network_puts_inactive_features_first(self):
        net = load_network(IDENTITY_DOC)
        x = np.array([0.9, 0.1, 0.2])  # predicts class 0
        ordering = order_features(net, x, FeatureGrouping.singletons(3), "sensitivity")
        assert ordering.resolved[-1] == 0
        assert set(ordering.resolved[:2]) == {1, 2}

    def test_in_order_identity_permutation(self, demo):
        net, x = demo
        ordering = order_features(net, x, FeatureGrouping.singletons(3), "in-order")
        assert ordering.resolved == (0, 1, 2)

    def test_random_is_deterministic_per_seed(self, demo):
        net, x = demo
        g = FeatureGrouping.singletons(3)
        a = order_features(net, x, g, "random", seed=7)
        b = order_features(net, x, g, "random", seed=7)
        assert a.resolved == b.resolved

    def test_demo_sensitivity_order(self, demo):
        net, x = demo
        ordering = order_features(net, x, FeatureGrouping.singletons(3), "sensitivity")
        assert ordering.resolved == (0, 1, 2)

    @pytest.mark.parametrize("search", ["order_features", "explain_baseline", "explain_abstraction_refinement"])
    def test_negative_seed_is_named(self, demo, search):
        net, x = demo
        call = {
            "order_features": lambda: order_features(net, x, FeatureGrouping.singletons(3), "random", seed=-1),
            "explain_baseline": lambda: explain_baseline(net, x, 0.5, seed=-1),
            "explain_abstraction_refinement": lambda: explain_abstraction_refinement(net, x, 0.5, seed=-1),
        }[search]
        with pytest.raises(ValidationError, match="seed must be nonnegative, got -1"):
            call()

    @pytest.mark.parametrize(
        "search, arguments, message",
        [
            bad_scalar(explain_abstraction_refinement, "timeout must be a number, got '1'", timeout="1"),
            bad_scalar(explain_abstraction_refinement, "timeout must be a number, got True", timeout=True),
            bad_scalar(explain_baseline, "epsilon must be a number, got '0.1'", epsilon="0.1"),
            bad_scalar(explain_baseline, "epsilon must be a number, got None", epsilon=None),
            bad_scalar(explain_abstraction_refinement, "epsilon must be a number, got True", epsilon=True),
            bad_scalar(explain_baseline, "seed must be an integer, got 1.5", seed=1.5),
            bad_scalar(explain_baseline, "seed must be an integer, got '3'", seed="3"),
            bad_scalar(explain_abstraction_refinement, "seed must be an integer, got True", seed=True),
            bad_scalar(
                explain_baseline, "oracle split budget must be an integer, got '8'", backend="oracle", oracle_budget="8"
            ),
            bad_scalar(
                explain_baseline, "oracle split budget must be an integer, got 2.5", backend="oracle", oracle_budget=2.5
            ),
            bad_scalar(
                explain_baseline, "oracle split budget must be an integer, got True", backend="oracle", oracle_budget=True
            ),
        ],
    )
    def test_scalar_of_the_wrong_type_is_named(self, demo, search, arguments, message):
        # A bare TypeError does not name the argument, and a bool or a
        # fraction taken as a number runs a search nobody asked for.
        net, x = demo
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            search(net, x, **{"epsilon": 0.5, **arguments})

    def test_resolved_must_be_permutation(self):
        with pytest.raises(ValidationError):
            FeatureOrdering((0, 0, 1))

    @pytest.mark.parametrize("resolved", [(True, 0, 2), (0.0, 1, 2), ("0", 1, 2)])
    def test_member_that_is_no_group_index_is_named(self, resolved):
        # True == 1 and 0.0 == 0, so the first two would pass the permutation check.
        message = f"ordering must hold integer group indices, got {resolved[0]!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            FeatureOrdering(resolved)


class TestBaseline:
    def test_zero_epsilon_empties_the_explanation(self):
        for seed in range(5):
            net, x = small_net_and_instance(seed)
            kept, trace = explain_baseline(net, x, 0.0)
            assert kept == frozenset()
            assert trace.final == ()

    def test_demo_explanation_is_third_feature(self, demo):
        net, x = demo
        kept, trace = explain_baseline(net, x, 1.0)
        assert trace.final == ("3",)
        assert trace.status == STATUS_MINIMAL

    def test_oracle_backend_result_is_subset_minimal(self):
        for seed in (3, 11, 19):
            net, x = small_net_and_instance(seed, input_dim=6, hidden=(8,), output_dim=3)
            kept, trace = explain_baseline(net, x, 0.25, backend="oracle")
            target = predict(net, x)
            fixed_all = frozenset(i for g in kept for i in FeatureGrouping.singletons(6).groups[g])
            assert oracle_check(net, make_query(net, x, fixed_all, 0.25)).proved
            for g in kept:
                reduced = fixed_all - frozenset(FeatureGrouping.singletons(6).groups[g])
                verdict = oracle_check(net, make_query(net, x, reduced, 0.25))
                assert verdict.outcome is OracleOutcome.WITNESS

    def test_explanation_sets_shrink_monotonically(self):
        net, x = small_net_and_instance(23)
        kept, trace = explain_baseline(net, x, 0.2)
        sizes = []
        current = trace.group_count
        for step in trace.steps:
            if step.verdict == "sufficient":
                current -= 1
            sizes.append(current)
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_unknown_backend(self, demo):
        net, x = demo
        with pytest.raises(ValidationError):
            explain_baseline(net, x, 0.1, backend="smt")


class TestAbstractionRefinement:
    def test_single_rate_schedule_matches_baseline(self):
        # The baseline is this search under the schedule (1.0,): same kept
        # set and same trace, field for field apart from the times.
        def untimed(trace):
            doc = trace.to_dict()
            del doc["wall_time"]
            for step in doc["steps"]:
                del step["elapsed"]
            return doc

        verdicts = set()
        for seed in range(60):
            act = ("relu", "sigmoid", "tanh")[seed % 3]
            net = random_network(7, (12, 10), 3, act, seed=seed + 300)
            x = uniform_instances(net, 1, seed=seed)[0]
            kept_a, trace_a = explain_abstraction_refinement(net, x, 0.1, schedule=ReductionSchedule((1.0,)), seed=seed)
            kept_b, trace_b = explain_baseline(net, x, 0.1, seed=seed)
            assert kept_a == kept_b
            assert untimed(trace_a) == untimed(trace_b)
            assert trace_a.refinements == 0
            verdicts.update(step.verdict for step in trace_a.steps)
        assert verdicts == {kind.value for kind in VerdictKind}

    def test_demo_trace_shows_refinement_progress(self, demo):
        # Feature 2's drop is proved at rate 0.4, not 0.1; feature 3 fails
        # the concrete check and is pinned in one step at rate 1.0.
        net, x = demo
        sched = ReductionSchedule((0.1, 0.4, 1.0))
        kept, trace = explain_abstraction_refinement(net, x, 1.0, schedule=sched)
        assert trace.final == ("3",)
        assert trace.status == STATUS_MINIMAL
        assert trace.snapshots[0.1] == ("2", "3")
        assert trace.snapshots[0.4] == ("3",)
        assert trace.snapshots[1.0] == ("3",)
        assert trace.refinements == 1
        assert [(s.group_id, s.rate, s.verdict) for s in trace.steps] == [
            ("1", 0.1, "sufficient"),
            ("2", 0.4, "sufficient"),
            ("3", 1.0, "uncertain"),
        ]
        assert trace.steps[-1].neuron_evals == net.neuron_count

    def test_matches_baseline_on_random_nets(self):
        for seed in range(30):
            act = "relu" if seed % 2 else "sigmoid"
            net, x = small_net_and_instance(seed, input_dim=7, hidden=(12, 10), output_dim=3, activation=act)
            kept_a, _ = explain_abstraction_refinement(net, x, 0.1, seed=seed)
            kept_b, _ = explain_baseline(net, x, 0.1, seed=seed)
            assert kept_a == kept_b

    def test_snapshots_shrink_with_refinement_order(self):
        for seed in range(10):
            net, x = small_net_and_instance(seed)
            _, trace = explain_abstraction_refinement(net, x, 0.2, seed=seed)
            sizes = [len(ids) for _, ids in sorted(trace.snapshots.items())]
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))
            for _, ids in trace.snapshots.items():
                assert set(trace.final) <= set(ids)

    def test_kept_set_remains_sufficient_after_every_step(self):
        # Loop invariant: the enclosure backend never certifies a witness
        # against the evolving kept set.
        for seed in (2, 9, 27):
            net, x = small_net_and_instance(seed)
            grouping = FeatureGrouping.singletons(net.input_dim)
            ordering = order_features(net, x, grouping)
            kept = set(range(len(grouping.groups)))
            _, trace = explain_abstraction_refinement(net, x, 0.15, grouping, ordering, seed=seed)
            dropped = iter(
                step.group_id for step in trace.steps if step.verdict == "sufficient"
            )
            for gid in dropped:
                kept.discard(int(gid) - 1)
                q = make_query(net, x, grouping.features_of(kept), 0.15)
                assert not check_concrete(net, q).is_insufficient

    def test_pinning_requires_witness_or_full_rate(self):
        for seed in range(10):
            net, x = small_net_and_instance(seed)
            _, trace = explain_abstraction_refinement(net, x, 0.2, seed=seed)
            last_step_per_group = {}
            for step in trace.steps:
                last_step_per_group[step.group_id] = step
            for gid in trace.final:
                step = last_step_per_group[gid]
                assert step.verdict == "insufficient" or step.rate == 1.0

    @pytest.mark.parametrize("schedule", [(0.5, 1.0), "0.5,1.0"])
    def test_schedule_that_is_no_reduction_schedule_is_named(self, demo, schedule):
        # A tuple raised a bare AttributeError ('tuple' object has no attribute 'rates').
        net, x = demo
        message = f"schedule must be a ReductionSchedule, got {schedule!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            explain_abstraction_refinement(net, x, 1.0, schedule=schedule)

    def test_timeout_zero_early_stops_with_all_groups(self, demo):
        net, x = demo
        kept, trace = explain_abstraction_refinement(net, x, 1.0, timeout=0.0)
        assert trace.status == STATUS_EARLY_STOP
        assert trace.final == ("1", "2", "3")
        assert trace.steps == []

    @pytest.mark.parametrize("timeout", [float("nan"), -1.0])
    def test_timeout_that_is_no_nonnegative_number_is_rejected(self, demo, timeout):
        # A NaN deadline is never reached, and a negative one stopped the
        # search before its first batch.
        net, x = demo
        with pytest.raises(ValidationError, match=f"timeout must be nonnegative, got {timeout}"):
            explain_abstraction_refinement(net, x, 1.0, timeout=timeout)

    def test_grouped_channels_move_together(self):
        net = random_network(6, (10,), 2, "relu", seed=5)
        x = uniform_instances(net, 1, seed=5)[0]
        grouping = FeatureGrouping.rgb_pixels(6)
        kept, trace = explain_abstraction_refinement(net, x, 0.1, grouping=grouping)
        assert set(trace.final) <= {"1", "2"}


class TestWorkReport:
    def test_single_rate_schedule_counts(self):
        net, x = small_net_and_instance(1)
        _, trace = explain_abstraction_refinement(net, x, 0.1, schedule=ReductionSchedule((1.0,)))
        work = count_work(trace)
        assert work.refinements == 0
        assert work.queries_by_rate == {1.0: net.input_dim}
        assert work.features == net.input_dim

    def test_query_counts_match_step_records(self):
        for seed in range(5):
            net, x = small_net_and_instance(seed)
            _, trace = explain_abstraction_refinement(net, x, 0.2, seed=seed)
            work = count_work(trace)
            assert sum(work.queries_by_rate.values()) == len(trace.steps)
            assert work.neuron_evaluations == sum(s.neuron_evals for s in trace.steps)

    def test_trace_roundtrips_to_dict(self):
        net, x = small_net_and_instance(3)
        _, trace = explain_abstraction_refinement(net, x, 0.15)
        doc = trace.to_dict()
        assert doc["final"] == list(trace.final)
        assert len(doc["steps"]) == len(trace.steps)
        rates = [snap["rate"] for snap in doc["snapshots"]]
        assert rates == sorted(rates)


def _replay(net, x, epsilon, grouping, seed, monkeypatch):
    """Run the batched walk, then ask every step again one at a time.

    The replay decides each step's query with the concrete enclosure check
    of its box alone, and checks step by step whether the step is
    sufficient and the kept set.  The walk's witnesses are recorded by
    wrapping the batched witness search.  They must be those of one
    ``find_witnesses`` call per ``MAX_BATCH`` of the replay's pins in step
    order, with a generator seeded like the walk's, and a pin is
    insufficient exactly where it has a witness.
    """
    found = []
    search = explain_module.find_witnesses

    def recording(*args, **kwargs):
        witnesses = search(*args, **kwargs)
        found.extend(witnesses)
        return witnesses

    monkeypatch.setattr(explain_module, "find_witnesses", recording)
    ordering = order_features(net, x, grouping, "sensitivity")
    kept, trace = explain_baseline(net, x, epsilon, grouping, ordering, seed=seed)
    monkeypatch.undo()

    target = predict(net, x)
    replay_kept = set(range(len(grouping.groups)))
    pins, boxes = [], []
    assert len(trace.steps) == len(ordering.resolved)
    for g, step in zip(ordering.resolved, trace.steps):
        q = SufficiencyQuery(x, grouping.features_of(replay_kept - {g}), epsilon, target, net.input_domain)
        box = q.query_box()
        _, separated, out_hi = enclosure_verdicts(net, target, box.lo, box.hi)
        assert step.group_id == grouping.ids[g]
        assert (step.verdict == VerdictKind.SUFFICIENT.value) == separated
        if separated:
            replay_kept.discard(g)
        else:
            pins.append(step)
            boxes.append((box.lo, box.hi, out_hi))
    assert kept == frozenset(replay_kept)

    rng = np.random.default_rng(seed)
    reference = []
    for start in range(0, len(boxes), explain_module.MAX_BATCH):
        lo, hi, out_hi = (np.stack(column) for column in zip(*boxes[start : start + explain_module.MAX_BATCH]))
        reference.extend(find_witnesses(net, target, lo, hi, out_hi, rng))
    assert len(found) == len(reference) == len(pins)
    for step, walked, want in zip(pins, found, reference):
        assert (walked is None) == (want is None)
        assert want is None or walked.tobytes() == want.tobytes()
        named = VerdictKind.UNCERTAIN if want is None else VerdictKind.INSUFFICIENT
        assert step.verdict == named.value
    return trace


def search_equivalence_nets():
    """The nets and instances of acceptance criterion c05."""
    for seed in range(100):
        act = "relu" if seed % 2 == 0 else "sigmoid"
        net = random_network(7, (12, 10), 3, act, seed=seed + 300)
        yield net, uniform_instances(net, 1, seed=seed)[0], 0.1, seed


class TestBatchedWalk:
    """The enclosure walk's speculative batches ask exactly the one-at-a-time queries."""

    def test_replay_on_the_search_equivalence_nets(self, monkeypatch):
        verdicts = set()
        for net, x, epsilon, seed in search_equivalence_nets():
            trace = _replay(net, x, epsilon, FeatureGrouping.singletons(7), seed, monkeypatch)
            verdicts.update(step.verdict for step in trace.steps)
        assert verdicts == {kind.value for kind in VerdictKind}

    def test_replay_on_the_tie_net(self, monkeypatch):
        # logits = (x, 1 - x) at x = 0.25: the box reaches the tie at 0.5.
        net = ConcreteNetwork((Layer(np.array([[1.0], [-1.0]]), np.array([0.0, 1.0]), "identity"),))
        trace = _replay(net, np.array([0.25]), 0.25, FeatureGrouping.singletons(1), 0, monkeypatch)
        assert [step.verdict for step in trace.steps] == ["insufficient"]

    def test_replay_with_rgb_groups(self, monkeypatch):
        net = random_network(48, (16,), 3, "relu", seed=21)
        x = uniform_instances(net, 1, seed=21)[0]
        trace = _replay(net, x, 0.2, FeatureGrouping.rgb_pixels(48), 21, monkeypatch)
        assert {step.verdict for step in trace.steps} == {kind.value for kind in VerdictKind}

    def test_long_walk_fills_whole_batches(self, monkeypatch):
        # 64 features give runs long enough for the largest batch.
        batches = []
        walk = explain_module.enclosure_verdicts

        def recording(net, target, lo, hi):
            batches.append(lo.shape[0])
            return walk(net, target, lo, hi)

        monkeypatch.setattr(explain_module, "enclosure_verdicts", recording)
        net = random_network(64, (32,), 4, "sigmoid", seed=5)
        x = uniform_instances(net, 1, seed=5)[0]
        explain_baseline(net, x, 0.05)
        monkeypatch.undo()
        assert max(batches) == explain_module.MAX_BATCH
        _replay(net, x, 0.05, FeatureGrouping.singletons(64), 0, monkeypatch)

    def test_step_times_share_out_the_batches(self):
        net, x = small_net_and_instance(6, input_dim=12, hidden=(10,))
        _, trace = explain_baseline(net, x, 0.2)
        assert all(step.elapsed > 0 for step in trace.steps)
        assert sum(step.elapsed for step in trace.steps) <= trace.wall_time


def one_drop_at_a_time(net, x, epsilon, grouping, ordering, schedule, seed):
    """The abstraction-refinement search asking every query alone.

    Kept as the reference for the walk and its labels.  Each step asks its
    query with ``check_concrete`` and the seeded generator, one step per
    group at rate 1.0 with the network's neuron count, named by that check.
    Then each drop, in drop order, is labelled with the first scheduled
    rate, from the rate the drop before it took, whose reduction of the
    drop's own box proves it; its step takes that rate, that reduction's
    margin and its neuron count.  A drop no rate below 1.0 proves keeps its
    step.  A rate's snapshot is every group minus the drops labelled at or
    below it, and the snapshot at rate 1.0 is the final set.
    """
    target = predict(net, x)
    rng = np.random.default_rng(seed)
    kept = set(range(len(grouping.groups)))
    trace = ExplanationTrace(group_count=len(grouping.groups))
    drops = []
    for g in ordering.resolved:
        q = SufficiencyQuery(x, grouping.features_of(kept - {g}), epsilon, target, net.input_domain)
        verdict = check_concrete(net, q, rng=rng)
        trace.steps.append(
            StepRecord(grouping.ids[g], 1.0, verdict.kind.value, 0.0, verdict.margin, net.neuron_count)
        )
        if verdict.is_sufficient:
            kept.discard(g)
            drops.append((g, q, trace.steps[-1]))
    rates, carried = schedule.rates, 0
    for k, (g, q, step) in enumerate(drops):
        lb = propagate_box(net, q.query_box())
        while rates[carried] < 1.0:
            anet = build_abstract(net, lb, rates[carried])
            verdict = check_abstract(anet, q)
            if verdict.is_sufficient:
                step.rate, step.margin, step.neuron_evals = rates[carried], verdict.margin, anet.neuron_count
                trace.snapshots[step.rate] = grouping.ids_of(kept.union(d for d, _, _ in drops[k + 1 :]))
                break
            carried += 1
    trace.refinements = rates.index(drops[-1][2].rate) if drops else 0
    if trace.steps:
        trace.snapshots[1.0] = grouping.ids_of(kept)
    trace.final = grouping.ids_of(kept)
    return frozenset(kept), trace


def record_reduced_checks(net, monkeypatch):
    """Wrap the search's reductions and reduced checks; return every reduced check made.

    Each check is (its reduction, its build box, lo, hi, margins,
    separated), its boxes one per row, and it must keep its rows inside its
    reduction's build box, which is what makes a separated row a sound
    drop.
    """
    built = {}  # id of a reduction -> (the reduction, its build box)
    checks = []
    build, verdicts = explain_module.build_from_merge_sets, explain_module.enclosure_verdicts

    def building(net_, lb, merge_sets):
        anet = build(net_, lb, merge_sets)
        built[id(anet)] = anet, lb.input_box
        return anet

    def checking(net_, target, lo, hi):
        margins, separated, out_hi = verdicts(net_, target, lo, hi)
        if net_ is not net:
            _, box = built[id(net_)]
            assert np.all(box.lo <= lo) and np.all(hi <= box.hi)
            checks.append(
                (net_, box, np.atleast_2d(lo), np.atleast_2d(hi), np.atleast_1d(margins), np.atleast_1d(separated))
            )
        return margins, separated, out_hi

    monkeypatch.setattr(explain_module, "build_from_merge_sets", building)
    monkeypatch.setattr(explain_module, "enclosure_verdicts", checking)
    return checks


def assert_same_labels(net, x, epsilon, schedule, seed, monkeypatch):
    """Run the search and its one-drop-at-a-time reference; return the trace and the count of labelled drops.

    Kept sets, finals, snapshots, refinements and every step's group,
    rate, verdict and neuron count must be the reference's, and the kept
    set must be the baseline's.  A step at rate 1.0 comes from a batched
    pass on the network, whose margin may differ from the reference's in
    the last bits.  A labelled drop, below rate 1.0, records the margin of
    its run's proving box: its margin and neuron count must be those of a
    separated one-row reduced check whose reduction's build box holds the
    drop's own box; it is re-certified by ``check_concrete`` with the kept
    set as of that step, and its margin lies between 0 and the concrete
    enclosure's of its own box.
    """
    checks = record_reduced_checks(net, monkeypatch)
    grouping = FeatureGrouping.singletons(net.input_dim)
    ordering = order_features(net, x, grouping, "sensitivity")
    kept, trace = explain_abstraction_refinement(net, x, epsilon, grouping, ordering, schedule, seed=seed)
    monkeypatch.undo()
    # (margin, neuron count) -> the build boxes of the separated one-row reduced checks that found it
    proved = {}
    for anet, built, lo, _, margins, separated in checks:
        if len(lo) == 1 and separated[0]:
            proved.setdefault((float(margins[0]), anet.neuron_count), []).append(built)
    ref_kept, ref = one_drop_at_a_time(net, x, epsilon, grouping, ordering, schedule, seed)
    assert kept == ref_kept
    assert kept == explain_baseline(net, x, epsilon, grouping, ordering, seed=seed)[0]
    assert trace.final == ref.final
    assert trace.status == STATUS_MINIMAL
    assert trace.refinements == ref.refinements
    assert trace.snapshots == ref.snapshots
    assert len(trace.steps) == len(ref.steps)
    target = predict(net, x)
    replay_kept = set(range(len(grouping.groups)))
    labelled = 0
    for got, want in zip(trace.steps, ref.steps):
        assert (got.group_id, got.rate, got.verdict, got.neuron_evals) == (
            want.group_id, want.rate, want.verdict, want.neuron_evals
        )
        g = grouping.ids.index(got.group_id)
        q = make_query(net, x, grouping.features_of(replay_kept - {g}), epsilon)
        if got.rate == 1.0:
            assert abs(got.margin - want.margin) <= 1e-12
        else:
            assert check_concrete(net, q).is_sufficient
            box = q.query_box()
            holders = proved[got.margin, got.neuron_evals]
            assert any(np.all(built.lo <= box.lo) and np.all(box.hi <= built.hi) for built in holders)
            concrete = explain_module.enclosure_verdicts(net, target, box.lo, box.hi)[0]
            assert 0.0 <= got.margin <= concrete + 1e-12
            labelled += 1
        if got.verdict == "sufficient":
            replay_kept.discard(g)
    return trace, labelled


def tail_net():
    """A 40-input sigmoid net whose drops climb every rate of the default schedule, ending in two at 1.0."""
    net = random_network(40, (30, 30), 3, "sigmoid", seed=1)
    return net, uniform_instances(net, 1, seed=1)[0], 0.2


def long_window_net():
    """A 64-input sigmoid net whose first 17 drops are all labelled at rate 0.1."""
    net = random_network(64, (32, 32), 4, "sigmoid", seed=3)
    return net, uniform_instances(net, 1, seed=3)[0], 0.1


def relu100_cases(count=4):
    """The network and epsilon of the relu100-boundary benchmark workload, on ``count`` instances."""
    net = random_network(100, (50,), 10, "relu", seed=4)
    for x in uniform_instances(net, count, seed=11):
        yield net, x, 0.3, 0


class TestRateOneTail:
    """The drops that no rate below 1.0 proves are a tail of the drop order, and keep the baseline's steps."""

    def test_same_trace_on_the_search_equivalence_nets(self, monkeypatch):
        # The default schedule, a short one that reaches 1.0 sooner, and
        # one whose coarsest rate is 0.3.  ``tails`` counts the runs that
        # leave a drop at rate 1.0.
        tails = {}
        labelled = 0
        for rates in ((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0), (0.5, 1.0), (0.3, 0.6, 1.0)):
            tails[rates] = 0
            for net, x, epsilon, seed in search_equivalence_nets():
                trace, count = assert_same_labels(net, x, epsilon, ReductionSchedule(rates), seed, monkeypatch)
                tails[rates] += any(s.rate == 1.0 and s.verdict == "sufficient" for s in trace.steps)
                labelled += count
        assert all(tails.values()) and labelled > 0

    def test_whole_walk_as_a_tail_keeps_the_search_verdict_names(self, monkeypatch):
        # With only rate 1.0 the whole walk is the baseline's, with no
        # reduction; a witnessed pin is insufficient, as in the baseline.
        witnessed = 0
        for net, x, epsilon, seed in search_equivalence_nets():
            checks = record_reduced_checks(net, monkeypatch)
            trace, _ = assert_same_labels(net, x, epsilon, ReductionSchedule((1.0,)), seed, monkeypatch)
            assert checks == []
            _, base = explain_baseline(net, x, epsilon, seed=seed)
            assert [(s.group_id, s.margin, s.verdict) for s in trace.steps] == [
                (s.group_id, s.margin, s.verdict) for s in base.steps
            ]
            witnessed += sum(step.verdict == "insufficient" for step in trace.steps)
        assert witnessed > 0


class TestWindows:
    """Below rate 1.0 a run of drops shares one reduction, built against the run's largest box.

    ``assert_same_labels`` checks every run: its label is a one-row check
    of a box that holds each of its drops, and each drop it labels is
    re-certified by the concrete check.
    """

    def test_long_runs_fill_whole_windows(self, monkeypatch):
        # Every reduced check is one probe row, and the 17 drops of the
        # first run all carry the margin of the one probe that proved it.
        net, x, epsilon = long_window_net()
        checks = record_reduced_checks(net, monkeypatch)
        _, trace = explain_abstraction_refinement(net, x, epsilon)
        monkeypatch.undo()
        assert {lo.shape[0] for _, _, lo, _, _, _ in checks} == {1}
        runs = Counter((s.rate, s.margin) for s in trace.steps if s.rate < 1.0)
        assert max(runs.values()) > explain_module.MAX_BATCH
        _, labelled = assert_same_labels(net, x, epsilon, ReductionSchedule.default(), 0, monkeypatch)
        assert labelled >= explain_module.MAX_BATCH

    def test_step_times_share_out_the_windows(self):
        net, x, epsilon = long_window_net()
        _, trace = explain_abstraction_refinement(net, x, epsilon)
        assert all(step.elapsed > 0 for step in trace.steps)
        assert sum(step.elapsed for step in trace.steps) <= trace.wall_time


def invariant_cases():
    """The c05 nets, the two wider sigmoid nets and relu100-boundary instances."""
    yield from search_equivalence_nets()
    yield (*tail_net(), 0)
    yield (*long_window_net(), 0)
    yield from relu100_cases()


class TestConcreteFirst:
    """The concrete enclosure decides every feature; reductions only label drops."""

    def test_pins_fail_concretely_and_carry_the_baseline_witnesses(self):
        pins = witnessed = 0
        for net, x, epsilon, seed in invariant_cases():
            grouping = FeatureGrouping.singletons(net.input_dim)
            ordering = order_features(net, x, grouping, "sensitivity")
            kept, trace = explain_abstraction_refinement(net, x, epsilon, grouping, ordering, seed=seed)
            _, base = explain_baseline(net, x, epsilon, grouping, ordering, seed=seed)
            base_verdict = {s.group_id: s.verdict for s in base.steps}
            target = predict(net, x)
            replay_kept = set(range(len(grouping.groups)))
            steps_of = {}
            for step in trace.steps:
                steps_of.setdefault(step.group_id, []).append(step)
                g = grouping.ids.index(step.group_id)
                if step.verdict == "sufficient":
                    replay_kept.discard(g)
                    continue
                if g not in kept:
                    continue  # a drop's step below the rate that proved it
                box = make_query(net, x, grouping.features_of(replay_kept - {g}), epsilon).query_box()
                margin, separated, _ = explain_module.enclosure_verdicts(net, target, box.lo, box.hi)
                assert not separated
                assert abs(step.margin - margin) <= 1e-12
                assert (step.rate, step.neuron_evals) == (1.0, net.neuron_count)
                assert step.verdict == base_verdict[step.group_id]
                pins += 1
                witnessed += step.verdict == "insufficient"
            assert all(len(steps_of[grouping.ids[g]]) == 1 for g in kept)
        assert pins > 0 and witnessed > 0

    def test_every_drop_is_certified_concretely(self):
        for net, x, epsilon, seed in invariant_cases():
            grouping = FeatureGrouping.singletons(net.input_dim)
            _, trace = explain_abstraction_refinement(net, x, epsilon, grouping, seed=seed)
            replay_kept = set(range(len(grouping.groups)))
            for step in trace.steps:
                if step.verdict == "sufficient":
                    replay_kept.discard(grouping.ids.index(step.group_id))
                    q = make_query(net, x, grouping.features_of(replay_kept), epsilon)
                    assert check_concrete(net, q).is_sufficient

    def test_no_witness_search_inside_a_drop_chain(self, monkeypatch):
        # Every kept feature is a pin, searched once; a drop chain that
        # searched a box would add one.
        searched = []
        search = explain_module.find_witnesses

        def counting(net_, target, lo, *rest):
            searched.append(lo.shape[0])
            return search(net_, target, lo, *rest)

        monkeypatch.setattr(explain_module, "find_witnesses", counting)
        chains = 0
        for net, x, epsilon, seed in invariant_cases():
            searched.clear()
            kept, trace = explain_abstraction_refinement(net, x, epsilon, seed=seed)
            assert sum(searched) == len(kept)
            chains += trace.refinements > 0
        assert chains > 0


class TestLabelPass:
    """After the walk, one pass labels the drops with the coarsest rates that prove them."""

    def test_same_labels_as_the_reference_on_the_invariant_cases(self, monkeypatch):
        # ``assert_same_labels`` also finds every label's row separated in a
        # reduced check whose rows lie inside its reduction's build box.
        labelled = 0
        for net, x, epsilon, seed in invariant_cases():
            labelled += assert_same_labels(net, x, epsilon, ReductionSchedule.default(), seed, monkeypatch)[1]
        assert labelled > 0

    def test_deadline_cuts_the_pass_between_rates(self, monkeypatch):
        # A fake clock that only builds advance, one second each, so the walk
        # takes no time and the deadline falls between two rates of the pass.
        # Each build selects its merge sets once, at its rate.
        net, x, epsilon = tail_net()
        clock = [0.0]
        rates = []  # the rate of every build
        select = explain_module.select_merge_sets

        def ticking(ranked, rate):
            clock[0] += 1.0
            rates.append(rate)
            return select(ranked, rate)

        monkeypatch.setattr(explain_module.time, "monotonic", lambda: clock[0])
        monkeypatch.setattr(explain_module, "select_merge_sets", ticking)
        kept_full, full = explain_abstraction_refinement(net, x, epsilon)
        probed = sorted(set(rates))
        cuts = {cut: sum(rate <= cut for rate in rates) for cut in probed[:-1]}  # the builds up to each rate
        _, base = explain_baseline(net, x, epsilon)
        untimed = [s.to_dict() | {"elapsed": 0} for s in full.steps]
        walked = [s.to_dict() | {"elapsed": 0} for s in base.steps]
        for cut, builds in cuts.items():
            clock[0] = 0.0
            kept, trace = explain_abstraction_refinement(net, x, epsilon, timeout=builds - 0.5)
            assert clock[0] == builds
            assert (kept, trace.status, trace.final) == (kept_full, full.status, full.final)
            steps = [s.to_dict() | {"elapsed": 0} for s in trace.steps]
            assert steps == [want if want["rate"] <= cut else step for want, step in zip(untimed, walked)]
            assert trace.refinements == len(ReductionSchedule.default().rates) - 1
            assert trace.snapshots == {r: ids for r, ids in full.snapshots.items() if r <= cut or r == 1.0}
        monkeypatch.undo()
        assert len(probed) == 9 and full.refinements == 9


def gallop_net():
    """A 64-input sigmoid net whose drops fill two ``MAX_BATCH``-row batches, and a third that ends in a pin."""
    net = random_network(64, (32,), 4, "sigmoid", seed=2)
    return net, uniform_instances(net, 1, seed=2)[0], 0.05


def walk_batches(drops, cap):
    """The walk's batches, from the one-at-a-time verdicts (True for a drop).

    One (first step, rows, steps taken, whether it gallops) per batch: the
    batch guesses the last verdict, breaks at its first row that differs,
    doubles its size after a batch that matches throughout and halves it
    after one that breaks, within 1..cap; a full batch that guesses "drop"
    gallops.
    """
    batches, start, size, guess = [], 0, 1, True
    while start < len(drops):
        rows = drops[start : start + size]
        breaks = [i for i, drop in enumerate(rows) if drop != guess]
        taken = breaks[0] + 1 if breaks else len(rows)
        batches.append((start, len(rows), taken, guess and len(rows) == explain_module.MAX_BATCH))
        start += taken
        guess = rows[taken - 1]
        size = max(size // 2, 1) if breaks else min(2 * size, cap)
    return batches


def network_checks(net, monkeypatch):
    """Record the margins of every ``enclosure_verdicts`` call on ``net`` itself, one array per call."""
    calls = []
    verdicts = explain_module.enclosure_verdicts

    def recording(net_, target, lo, hi):
        result = verdicts(net_, target, lo, hi)
        if net_ is net:
            calls.append(np.atleast_1d(result[0]).copy())
        return result

    monkeypatch.setattr(explain_module, "enclosure_verdicts", recording)
    return calls


def assert_walk_calls(net, x, epsilon, grouping, ordering, trace, calls, cap=None):
    """Match the walk's network calls to its batches; return the counts of galloped batches that held and failed.

    The batches come from ``walk_batches`` on the trace's verdicts.  A
    batch that gallops makes a one-row call on its last box first.  If
    that row separates, the batch is taken whole and each of its drops
    records that row's margin, which is at most the drop's own box's
    concrete margin.  Otherwise, and for a batch that does not gallop, one
    call asks every row, the batch's last step taken is a pin where it
    broke a "drop" guess, and each step records its own row's margin bit
    for bit.
    """
    cap = explain_module.MAX_BATCH if cap is None else cap
    target = predict(net, x)
    drops = [step.verdict == "sufficient" for step in trace.steps]
    replay_kept, own = set(range(len(grouping.groups))), []  # each step's own-box concrete margin
    for g, step in zip(ordering.resolved, trace.steps):
        box = make_query(net, x, grouping.features_of(replay_kept - {g}), epsilon).query_box()
        own.append(float(enclosure_verdicts(net, target, box.lo, box.hi)[0]))
        if step.verdict == "sufficient":
            replay_kept.discard(g)
    held = failed = 0
    calls = iter(calls)
    for start, rows, taken, gallops in walk_batches(drops, cap):
        steps = trace.steps[start : start + taken]
        margins = next(calls)
        if gallops:
            assert len(margins) == 1
            if taken == rows and all(drops[start : start + taken]):
                assert all(step.margin == margins[0] for step in steps)
                assert all(step.margin <= own[start + k] + 1e-12 for k, step in enumerate(steps))
                held += 1
                continue
            assert margins[0] <= 0.0
            assert steps[-1].verdict != "sufficient"
            failed += 1
            margins = next(calls)
        assert len(margins) == rows
        assert [repr(step.margin) for step in steps] == [repr(float(m)) for m in margins[:taken]]
    assert next(calls, None) is None
    return held, failed


class TestGallop:
    """A full batch that guesses "drop" asks its last box alone first, since it holds every box of the batch."""

    def test_one_row_decides_a_full_drop_batch(self, monkeypatch):
        net, x, epsilon = gallop_net()
        grouping = FeatureGrouping.singletons(net.input_dim)
        ordering = order_features(net, x, grouping, "sensitivity")
        calls = network_checks(net, monkeypatch)
        kept, trace = explain_baseline(net, x, epsilon, grouping, ordering)
        monkeypatch.undo()
        ref_kept, ref = one_drop_at_a_time(net, x, epsilon, grouping, ordering, ReductionSchedule((1.0,)), 0)
        assert (kept, trace.final, trace.snapshots) == (ref_kept, ref.final, ref.snapshots)
        assert [(s.group_id, s.rate, s.verdict) for s in trace.steps] == [
            (s.group_id, s.rate, s.verdict) for s in ref.steps
        ]
        assert assert_walk_calls(net, x, epsilon, grouping, ordering, trace, calls) == (2, 1)

    def test_labels_and_snapshots_are_the_reference_search(self, monkeypatch):
        net, x, epsilon = gallop_net()
        _, labelled = assert_same_labels(net, x, epsilon, ReductionSchedule.default(), 0, monkeypatch)
        assert labelled > explain_module.MAX_BATCH

    def test_the_oracle_backend_never_gallops(self, monkeypatch):
        # Its batches hold one row each, so no call can have fewer rows than its batch.
        net, x, epsilon = gallop_net()
        grouping = FeatureGrouping.singletons(net.input_dim)
        ordering = order_features(net, x, grouping, "sensitivity")
        calls = network_checks(net, monkeypatch)
        _, trace = explain_baseline(net, x, epsilon, grouping, ordering, backend="oracle", oracle_budget=0)
        monkeypatch.undo()
        assert sum(s.verdict == "sufficient" for s in trace.steps) > explain_module.MAX_BATCH
        assert assert_walk_calls(net, x, epsilon, grouping, ordering, trace, calls, cap=1) == (0, 0)
        assert len(calls) == len(trace.steps)

    def test_relu100_walks_are_unchanged(self, monkeypatch):
        # No relu100 drop run fills a batch, so every step keeps its own row's margin.
        for net, x, epsilon, seed in relu100_cases(16):
            grouping = FeatureGrouping.singletons(net.input_dim)
            ordering = order_features(net, x, grouping, "sensitivity")
            calls = network_checks(net, monkeypatch)
            _, trace = explain_baseline(net, x, epsilon, grouping, ordering, seed=seed)
            monkeypatch.undo()
            assert assert_walk_calls(net, x, epsilon, grouping, ordering, trace, calls) == (0, 0)


SEARCHES = (explain_baseline, explain_abstraction_refinement)


def pin_search_cases():
    """The c05 nets and 8 relu100-boundary instances."""
    yield from search_equivalence_nets()
    yield from relu100_cases(8)


def search_pins_per_batch(search, net, x, epsilon, seed, monkeypatch):
    """Run ``search``, then label its pins again with one witness search per batch.

    The walk queues its pins and searches them in calls of ``MAX_BATCH``
    boxes.  The reference searches the pins of each batch together, with
    the reference witness search and a generator seeded like the search's:
    a batch is told apart by the count of enclosure checks made before its
    pins were recorded.  Returns the trace, the walk's pin steps, the box
    count of each of its witness-search calls, its witnesses and the
    reference's, one per pin in step order.
    """
    checks = [0]
    batch_of = {}  # id of a step -> enclosure checks made before it was recorded
    calls, boxes, found = [], [], []
    verdicts, find = explain_module.enclosure_verdicts, explain_module.find_witnesses

    def checking(*args):
        checks[0] += 1
        return verdicts(*args)

    def recording(**kwargs):
        step = StepRecord(**kwargs)
        batch_of[id(step)] = checks[0]
        return step

    def searching(net_, target, lo, hi, out_hi, rng):
        calls.append(lo.shape[0])
        boxes.extend(zip(lo.copy(), hi.copy(), out_hi.copy()))
        witnesses = find(net_, target, lo, hi, out_hi, rng)
        found.extend(witnesses)
        return witnesses

    monkeypatch.setattr(explain_module, "enclosure_verdicts", checking)
    monkeypatch.setattr(explain_module, "StepRecord", recording)
    monkeypatch.setattr(explain_module, "find_witnesses", searching)
    kept, trace = search(net, x, epsilon, seed=seed)
    monkeypatch.undo()
    final = set(trace.final)
    pins = [step for step in trace.steps if step.group_id in final]
    assert len(pins) == len(boxes) == len(kept)
    rng = np.random.default_rng(seed)
    target = predict(net, x)
    reference = []
    for _, batch in itertools.groupby(range(len(pins)), key=lambda k: batch_of[id(pins[k])]):
        lo, hi, out_hi = (np.stack(column) for column in zip(*(boxes[k] for k in batch)))
        reference.extend(reference_find_witnesses(net, target, lo, hi, out_hi, rng))
    return trace, pins, calls, found, reference


class TestPinSearches:
    """Pins wait in a queue and are searched in calls of exactly MAX_BATCH boxes, plus the remainder."""

    @pytest.mark.parametrize("search", SEARCHES)
    def test_same_labels_as_one_search_per_batch(self, search, monkeypatch):
        witnessed = full_calls = 0
        for net, x, epsilon, seed in pin_search_cases():
            trace, pins, calls, found, reference = search_pins_per_batch(search, net, x, epsilon, seed, monkeypatch)
            for step, got, want in zip(pins, found, reference):
                assert (got is None) == (want is None)
                if want is not None:
                    assert got.tobytes() == want.tobytes()
                assert step.verdict == ("uncertain" if want is None else "insufficient")
                witnessed += want is not None
            assert all(count == explain_module.MAX_BATCH for count in calls[:-1])
            assert all(0 < count <= explain_module.MAX_BATCH for count in calls)
            full_calls += calls.count(explain_module.MAX_BATCH)
        assert witnessed > 0 and full_calls > 0

    @pytest.mark.parametrize("search", SEARCHES)
    def test_step_times_add_up_within_the_wall_time(self, search):
        for net, x, epsilon, seed in pin_search_cases():
            _, trace = search(net, x, epsilon, seed=seed)
            assert all(step.elapsed > 0 for step in trace.steps)
            assert sum(step.elapsed for step in trace.steps) <= trace.wall_time

    def test_timeout_still_labels_every_pin(self, monkeypatch):
        # A fake clock that only concrete checks advance, one second each.
        # With a timeout of k + 0.5 a run stops after k + 1 concrete checks
        # of the full run's n; the pins it queued before the stop are
        # searched and labelled as in the full run.  A stopped walk's drops
        # are not labelled, so its trace is a prefix of the baseline's.
        clock = [0.0]
        verdicts, find = explain_module.enclosure_verdicts, explain_module.find_witnesses
        searched = []

        def ticking(net_, target, lo, hi):
            if net_ is net:
                clock[0] += 1.0
            return verdicts(net_, target, lo, hi)

        def searching(net_, target, lo, *rest):
            searched.append(lo.shape[0])
            return find(net_, target, lo, *rest)

        monkeypatch.setattr(explain_module.time, "monotonic", lambda: clock[0])
        monkeypatch.setattr(explain_module, "enclosure_verdicts", ticking)
        monkeypatch.setattr(explain_module, "find_witnesses", searching)
        stops = witnessed = 0
        for net, x, epsilon, seed in itertools.islice(search_equivalence_nets(), 40):
            clock[0] = 0.0
            _, full = explain_baseline(net, x, epsilon, seed=seed)
            for k in range(int(clock[0]) - 1):
                clock[0] = 0.0
                searched.clear()
                _, trace = explain_abstraction_refinement(net, x, epsilon, timeout=k + 0.5, seed=seed)
                assert trace.status == STATUS_EARLY_STOP
                assert [s.to_dict() | {"elapsed": 0} for s in trace.steps] == [
                    s.to_dict() | {"elapsed": 0} for s in full.steps[: len(trace.steps)]
                ]
                pins = [s for s in trace.steps if s.group_id in full.final]
                assert sum(searched) == len(pins)
                stops += 1
                witnessed += any(s.verdict == "insufficient" for s in pins)
        monkeypatch.undo()
        assert stops > 0 and witnessed > 0


def oracle_one_query_per_step(net, x, epsilon, grouping, ordering, budget):
    """The oracle search asking every query alone with ``oracle_check``, no enclosure check first.

    Kept as the reference for the oracle search on the walk; returns the
    kept set, final, snapshots and every step's (group, rate, verdict,
    neuron_evals).
    """
    kept = set(range(len(grouping.groups)))
    steps = []
    for g in ordering.resolved:
        result = oracle_check(net, make_query(net, x, grouping.features_of(kept - {g}), epsilon), budget=budget)
        if result.proved:
            kept.discard(g)
        steps.append((grouping.ids[g], 1.0, result.verdict.value, net.neuron_count * result.evaluations))
    snapshots = {1.0: grouping.ids_of(kept)} if steps else {}
    return kept, grouping.ids_of(kept), snapshots, steps


def oracle_cases():
    """(net, x, epsilon, budget) cases for the oracle search.

    c06's first 40 nets and 2-hidden-layer nets of each activation, under a
    budget small enough that exhausted queries stay cheap, and one budget-0
    case.
    """
    for s in range(1, 41):
        net = random_network(6, (8,), 2, "relu", seed=s + 600)
        yield net, uniform_instances(net, 1, seed=s)[0], 0.15, 1 << 10
    for s, act in enumerate(("relu", "sigmoid", "tanh", "relu", "sigmoid", "tanh"), start=1):
        net = random_network(5, (7, 6), 3, act, seed=s + 2000)
        yield net, uniform_instances(net, 1, seed=s)[0], 0.25, 1 << 10
    net = random_network(6, (8,), 2, "relu", seed=601)
    yield net, uniform_instances(net, 1, seed=1)[0], 0.3, 0


class TestOracleWalk:
    """The oracle search runs on the enclosure walk, one query per batch."""

    def test_matches_one_query_per_step(self, monkeypatch):
        rows, searched = [], []
        verdicts = explain_module.enclosure_verdicts
        monkeypatch.setattr(
            explain_module, "enclosure_verdicts", lambda *a: rows.append(a[2].shape[0]) or verdicts(*a)
        )
        monkeypatch.setattr(explain_module, "find_witnesses", lambda *a: searched.append(a))
        seen = set()
        for net, x, epsilon, budget in oracle_cases():
            grouping = FeatureGrouping.singletons(net.input_dim)
            ordering = order_features(net, x, grouping)
            kept, trace = explain_baseline(
                net, x, epsilon, grouping, ordering, backend="oracle", oracle_budget=budget
            )
            ref_kept, final, snapshots, steps = oracle_one_query_per_step(net, x, epsilon, grouping, ordering, budget)
            assert kept == ref_kept
            assert trace.final == final
            assert trace.snapshots == snapshots
            assert [(s.group_id, s.rate, s.verdict, s.neuron_evals) for s in trace.steps] == steps
            # Every step records its root box's enclosure margin.
            target = predict(net, x)
            replay_kept = set(range(len(grouping.groups)))
            for step in trace.steps:
                g = grouping.ids.index(step.group_id)
                box = make_query(net, x, grouping.features_of(replay_kept - {g}), epsilon).query_box()
                assert abs(step.margin - verdicts(net, target, box.lo, box.hi)[0]) <= 1e-12
                if step.verdict == "sufficient":
                    replay_kept.discard(g)
                split = step.neuron_evals > net.neuron_count
                seen.add((step.verdict, split))
        assert set(rows) == {1} and not searched
        # Drops with and without splits, witnesses, and exhausted budgets all occur.
        assert {("sufficient", False), ("sufficient", True), ("insufficient", False), ("uncertain", False)} <= seen


@pytest.fixture
def on_worker(monkeypatch):
    """Call to send every later witness search of a walk to a worker process.

    The gate reads a spare CPU and the size threshold is 0; the pool is
    made, and its process forked, at the next search, so it runs whatever
    the test has patched by then.  The pool is shut down after the test.
    """

    def enable():
        monkeypatch.setattr(explain_module, "spare_cpu", lambda env, cpus, blas: True)
        monkeypatch.setattr(explain_module, "WORKER_PRODUCT", 0)
        monkeypatch.setattr(explain_module, "_pool", None)

    yield enable
    explain_module._shut_pool()


def observed(kept, trace):
    """Everything a search returns but its times."""
    steps = [(s.group_id, s.rate, s.verdict, repr(s.margin), s.neuron_evals) for s in trace.steps]
    return sorted(kept), steps, trace.final, trace.status, trace.refinements, trace.snapshots


def sample_witness_case():
    """A relu100-boundary instance with a pin whose only witness is a random sample."""
    net, x, epsilon, seed = list(relu100_cases(115))[-1]
    return net, x, epsilon, seed


def log_event(path, **event):
    """Append ``event`` and the pid of the process that made it to the JSON-lines file at ``path``."""
    with open(path, "a") as log:
        log.write(json.dumps({"pid": os.getpid(), **event}) + "\n")


def read_events(path):
    """The events ``log_event`` wrote to ``path``, in order."""
    return [json.loads(line) for line in path.read_text().splitlines()] if path.exists() else []


def recording_searches(monkeypatch, path, worker_delay=0.0):
    """Log every witness search to ``path``: its process, boxes, generator start and sample witnesses.

    A search that runs in a worker process logs there, so the log is a
    file.  Each event holds a digest of the search's boxes (``boxes``), its
    generator's state as it starts (``start``) and how many of its
    witnesses are samples (``samples``).  A search outside this process
    first sleeps ``worker_delay`` seconds, so that the walk's thread takes
    searches from the back of the queue.
    """
    find, parent = explain_module.find_witnesses, os.getpid()

    def searching(net, target, lo, hi, out_hi, rng):
        start = rng.bit_generator.state
        if os.getpid() != parent:
            time.sleep(worker_delay)
        witnesses = find(net, target, lo, hi, out_hi, rng)
        exact = {row.tobytes() for row in _candidate_rows(lo, hi, _gap_corners(net, target, lo, hi, out_hi))}
        samples = sum(w is not None and w.tobytes() not in exact for w in witnesses)
        boxes = hashlib.sha256(lo.tobytes() + hi.tobytes()).hexdigest()
        log_event(path, boxes=boxes, start=start, samples=samples)
        return witnesses

    monkeypatch.setattr(explain_module, "find_witnesses", searching)


def child_states(seed, count):
    """The starting states of the generators of the first ``count`` children of ``SeedSequence(seed)``."""
    return [np.random.default_rng(child).bit_generator.state for child in np.random.SeedSequence(seed).spawn(count)]


class TestWorkerSearches:
    """A large witness search draws from a child generator of its own, with the same results in either process."""

    @pytest.mark.parametrize("search", SEARCHES)
    def test_worker_traces_are_the_inline_traces(self, search, on_worker, monkeypatch, tmp_path):
        # Both runs make every call large; only the second has a spare CPU.
        cases = [*pin_search_cases(), sample_witness_case()]
        monkeypatch.setattr(explain_module, "WORKER_PRODUCT", 0)
        monkeypatch.setattr(explain_module, "_pool", False)
        recording_searches(monkeypatch, tmp_path / "inline")
        inline = []
        for net, x, epsilon, seed in cases:
            want = observed(*search(net, x, epsilon, seed=seed))
            calls = read_events(tmp_path / "inline")
            (tmp_path / "inline").unlink(missing_ok=True)
            inline.append((want, {call["boxes"]: call["start"] for call in calls}))
            # Call k drew from child k of SeedSequence(seed).
            assert [call["start"] for call in calls] == child_states(seed, len(calls))
        monkeypatch.undo()
        on_worker()
        recording_searches(monkeypatch, tmp_path / "handed", worker_delay=0.002)
        for k, ((net, x, epsilon, seed), (want, serial)) in enumerate(zip(cases, inline)):
            kept, trace = search(net, x, epsilon, seed=seed)
            assert observed(kept, trace) == want
            assert all(step.elapsed > 0 for step in trace.steps)
            # Every call drew from the child it drew from inline, in either process.
            calls = read_events(tmp_path / "handed")
            (tmp_path / "handed").touch()
            (tmp_path / "handed").rename(tmp_path / f"handed-{k}")
            assert {call["boxes"]: call["start"] for call in calls} == serial
        calls = [call for k in range(len(cases)) for call in read_events(tmp_path / f"handed-{k}")]
        # Both processes searched, and a sample's witness was confirmed in one of them.
        assert {os.getpid()} < {call["pid"] for call in calls}
        assert sum(call["samples"] for call in calls) > 0

    def test_full_mnist_calls_are_large(self, monkeypatch, tmp_path):
        # With no spare CPU every call runs at once, in call order.
        monkeypatch.setattr(explain_module, "_pool", False)
        recording_searches(monkeypatch, tmp_path / "calls")
        boxes = []
        find = explain_module.find_witnesses

        def counting(net_, target, lo, *rest):
            boxes.append(lo.shape[0])
            return find(net_, target, lo, *rest)

        monkeypatch.setattr(explain_module, "find_witnesses", counting)
        net = mnist_shape_network(seed=3)
        explain_baseline(net, uniform_instances(net, 1, seed=11)[0], 1e-4, seed=5)
        full = boxes.count(explain_module.MAX_BATCH)
        assert full > 0 and boxes[:full] == [explain_module.MAX_BATCH] * full
        # Each 16-box call drew from the next child of SeedSequence(seed).
        starts = [call["start"] for call in read_events(tmp_path / "calls")]
        assert starts[:full] == child_states(5, full)

    def test_small_searches_stay_inline(self, monkeypatch, tmp_path):
        # With a spare CPU, a relu100 search is far below the size threshold.
        monkeypatch.setattr(explain_module, "spare_cpu", lambda env, cpus, blas: True)
        monkeypatch.setattr(explain_module, "_pool", None)
        recording_searches(monkeypatch, tmp_path / "calls")
        for net, x, epsilon, seed in relu100_cases(4):
            explain_baseline(net, x, epsilon, seed=seed)
        calls = read_events(tmp_path / "calls")
        assert calls and {call["pid"] for call in calls} == {os.getpid()} and explain_module._pool is None

    def test_a_worker_exception_is_raised_again(self, on_worker, monkeypatch, tmp_path):
        find, parent, log = explain_module.find_witnesses, os.getpid(), tmp_path / "events"

        def failing(net, target, lo, hi, out_hi, rng):
            log_event(log, event="start")
            try:
                time.sleep(0.01)
                if os.getpid() != parent:
                    raise RuntimeError("search failed in the worker")
                return find(net, target, lo, hi, out_hi, rng)
            finally:
                log_event(log, event="end")

        on_worker()
        monkeypatch.setattr(explain_module, "find_witnesses", failing)
        net, x, epsilon, seed = next(relu100_cases(1))
        with pytest.raises(RuntimeError, match="search failed in the worker"):
            explain_baseline(net, x, epsilon, seed=seed)
        # No search is still running, and one ran in the worker.
        events = read_events(log)
        assert Counter(e["event"] for e in events) == {"start": len(events) // 2, "end": len(events) // 2}
        assert any(e["pid"] != parent for e in events)

    def test_no_search_runs_after_the_call_returns(self, on_worker, monkeypatch, tmp_path):
        # Every feature of this instance is a pin, so the walk has handed off
        # five searches of 50 ms each when it fails at its 10th batch.  The
        # worker has started one, and at most two more wait in its queue.
        find, verdicts = explain_module.find_witnesses, explain_module.enclosure_verdicts
        log, checks = tmp_path / "events", []

        def slow(net, target, lo, hi, out_hi, rng):
            log_event(log, event="start")
            try:
                time.sleep(0.05)
                return find(net, target, lo, hi, out_hi, rng)
            finally:
                log_event(log, event="end")

        def failing_late(*args):
            checks.append(1)
            if len(checks) == 10:
                raise RuntimeError("walk failed")
            return verdicts(*args)

        on_worker()
        monkeypatch.setattr(explain_module, "find_witnesses", slow)
        monkeypatch.setattr(explain_module, "enclosure_verdicts", failing_late)
        net, x, epsilon, seed = next(relu100_cases(1))
        with pytest.raises(RuntimeError, match="walk failed"):
            explain_baseline(net, x, epsilon, seed=seed)
        events = read_events(log)
        time.sleep(0.1)
        assert read_events(log) == events
        started = sum(e["event"] == "start" for e in events)
        assert 0 < started == len(events) // 2 < 5
        assert all(e["pid"] != os.getpid() for e in events)

    def test_a_broken_pool_is_raised_and_then_replaced(self, on_worker):
        # The worker process dies between two searches; the next search raises, and the one after makes a new pool.
        from concurrent.futures.process import BrokenProcessPool

        on_worker()
        net, x, epsilon, seed = next(relu100_cases(1))
        want = observed(*explain_baseline(net, x, epsilon, seed=seed))
        pool = explain_module._pool
        os.kill(pool.submit(os.getpid).result(timeout=30), signal.SIGKILL)
        with pytest.raises(BrokenProcessPool):
            pool.submit(os.getpid).result(timeout=30)
        with pytest.raises(BrokenProcessPool):
            explain_baseline(net, x, epsilon, seed=seed)
        assert explain_module._pool is None
        assert observed(*explain_baseline(net, x, epsilon, seed=seed)) == want
        assert explain_module._pool not in (None, pool)

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_a_forked_child_searches_on_its_own_worker(self, on_worker, monkeypatch, tmp_path):
        on_worker()
        recording_searches(monkeypatch, tmp_path / "parent")
        net, x, epsilon, seed = next(relu100_cases(1))
        want = observed(*explain_baseline(net, x, epsilon, seed=seed))
        workers = {call["pid"] for call in read_events(tmp_path / "parent")} - {os.getpid()}
        assert workers

        def child():
            # The parent's pool has no process here; a search on it would never run.
            assert explain_module._pool is None
            recording_searches(monkeypatch, tmp_path / "child")
            assert observed(*explain_baseline(net, x, epsilon, seed=seed)) == want
            explain_module._shut_pool()

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(timeout=60)
        if process.is_alive():
            process.kill()
        assert process.exitcode == 0
        searched = {call["pid"] for call in read_events(tmp_path / "child")}
        # The child's worker is its own, not its parent's.
        assert searched - {process.pid} and not searched & workers

    @pytest.mark.parametrize(
        "spare, methods, other_thread, made",
        [
            (False, ["fork", "spawn"], False, False),
            (True, ["fork", "spawn"], False, True),
            # No fork start method: never a pool.
            (True, ["spawn"], False, False),
            # Another thread runs: no pool yet, but one may be made later.
            (True, ["fork", "spawn"], True, None),
        ],
    )
    def test_a_pool_is_made_only_where_a_fork_is_safe(self, spare, methods, other_thread, made, monkeypatch, request):
        request.addfinalizer(explain_module._shut_pool)
        monkeypatch.setattr(explain_module, "spare_cpu", lambda env, cpus, blas: spare)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        monkeypatch.setattr(explain_module, "_pool", None)
        net = random_network(4, (3,), 2, "relu", seed=1)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if other_thread:
            thread.start()
        try:
            worker = explain_module._worker(net)
            # A pool when made; else False for good, or None to try again at the next search.
            assert explain_module._pool is (worker if made else made)
            assert (worker is not None) == bool(made)
        finally:
            release.set()
            if other_thread:
                thread.join()
        if made:
            assert list(explain_module._held.values()) == [net]
            assert worker.submit(os.getpid).result(timeout=30) != os.getpid()
        elif made is None:
            assert explain_module._worker(net) is not None


def test_the_worker_process_ends_with_its_parent():
    # A search handed to the worker process; the parent prints the worker's pid and exits.
    script = f"""
import sys
sys.path.insert(0, {str(SOURCES)!r})
from provex import explain
from provex.fixtures import random_network, uniform_instances
explain.spare_cpu = lambda env, cpus, blas: True
explain.WORKER_PRODUCT = 0
net = random_network(100, (50,), 10, "relu", seed=4)
explain.explain_baseline(net, uniform_instances(net, 1, seed=11)[0], 0.3)
print(*explain._pool._processes)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    (pid,) = map(int, proc.stdout.split())
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


@pytest.mark.parametrize(
    "env, cpus, blas, spare",
    [
        # Under pytest nothing is pinned; OpenBLAS then runs a thread per CPU.
        ({}, 2, "scipy-openblas", False),
        # benchmark/run.py pins every variable.
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 2, "scipy-openblas", True),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 1, "scipy-openblas", False),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, "scipy-openblas", True),
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, "openblas", True),
        ({"OMP_NUM_THREADS": "1"}, 2, "openblas", True),
        # OpenBLAS reads its own variable before OpenMP's.
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, "openblas", False),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, "openblas", True),
        ({"OPENBLAS_NUM_THREADS": "x"}, 2, "openblas", False),
        ({"MKL_NUM_THREADS": "1"}, 2, "mkl-sdl", True),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, "mkl", False),
        # A library not known here must be pinned by every known variable chain.
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, "", False),
        ({"OMP_NUM_THREADS": "1"}, 2, "accelerate", True),
    ],
)
def test_a_cpu_is_spare_only_beside_a_one_thread_blas(env, cpus, blas, spare):
    assert explain_module.spare_cpu(env, cpus, blas) is spare
    if cpus >= 2:
        assert one_blas_thread(env, blas) is spare
