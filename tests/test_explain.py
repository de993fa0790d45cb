"""Explanation searches: orderings, traces, equivalence, and early stop."""

import itertools
import json
import re

import numpy as np
import pytest

from conftest import make_query, small_net_and_instance
from test_kernel_bits import reference_find_witnesses
from provex.abstraction import ReductionSchedule, build_abstract, refine
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
from provex.fixtures import random_network, uniform_instances
from provex import explain as explain_module
from provex.network import ConcreteNetwork, Layer, load_network, predict
from provex.queries import (
    OracleOutcome,
    SufficiencyQuery,
    VerdictKind,
    check_abstract,
    check_concrete,
    enclosure_verdicts,
    find_witnesses,
    oracle_check,
)

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
        # Feature 2 needs one refinement to prove its drop; feature 3 fails
        # the concrete check and is pinned in one step, with no refinement.
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
            ("2", 0.1, "uncertain"),
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


def one_query_at_a_time(net, x, epsilon, grouping, ordering, schedule, seed):
    """The concrete-first abstraction-refinement search asking every query alone.

    Kept as the reference for the search.  Each step asks its query with
    ``check_concrete`` and the seeded generator.  A feature the check cannot
    drop is pinned with one step at rate 1.0, named by that check.  A
    dropped one is checked on the reduction of its own box at the carried
    rate, refined rate by rate until it proves the drop, with one step per
    rate; that rate is carried on.  A rate's snapshot is the kept set after its last drop, and the
    snapshot at rate 1.0 is the final set.
    """
    target = predict(net, x)
    rng = np.random.default_rng(seed)
    kept = set(range(len(grouping.groups)))
    trace = ExplanationTrace(group_count=len(grouping.groups))
    carried = schedule.rates[0]
    for g in ordering.resolved:
        q = SufficiencyQuery(x, grouping.features_of(kept - {g}), epsilon, target, net.input_domain)
        verdict = check_concrete(net, q, rng=rng)
        if not verdict.is_sufficient:
            trace.steps.append(
                StepRecord(grouping.ids[g], 1.0, verdict.kind.value, 0.0, verdict.margin, net.neuron_count)
            )
            continue
        lb = propagate_box(net, q.query_box())
        rate = carried
        anet = build_abstract(net, lb, rate)
        while True:
            verdict = check_abstract(anet, q)
            trace.steps.append(
                StepRecord(grouping.ids[g], rate, verdict.kind.value, 0.0, verdict.margin, anet.neuron_count)
            )
            if verdict.is_sufficient:
                kept.discard(g)
                carried = rate
                if rate < 1.0:
                    trace.snapshots[rate] = grouping.ids_of(kept)
                break
            rate = schedule.next_after(max(rate, anet.reduction_rate))
            if rate is None:
                break
            anet = refine(net, anet, lb, rate)
            trace.refinements += 1
    trace.snapshots[1.0] = grouping.ids_of(kept)
    trace.final = grouping.ids_of(kept)
    return frozenset(kept), trace


def record_reduced_checks(net, monkeypatch):
    """Wrap the search's reductions and reduced checks; return the row count of every batched reduced check.

    Every reduced check must keep its rows inside its reduction's build
    box, which is what makes a separated row a sound drop.
    """
    built = {}  # id of a reduction -> (the reduction, its build box)
    rows = []
    build, refine_, verdicts = explain_module.build_abstract, explain_module.refine, explain_module.enclosure_verdicts

    def building(net_, lb, rate):
        anet = build(net_, lb, rate)
        built[id(anet)] = anet, lb.input_box
        return anet

    def refining(net_, prev, lb, rate):
        anet = refine_(net_, prev, lb, rate)
        built[id(anet)] = anet, lb.input_box
        return anet

    def checking(net_, target, lo, hi):
        if net_ is not net:
            _, box = built[id(net_)]
            assert np.all(box.lo <= lo) and np.all(hi <= box.hi)
            if lo.ndim == 2:
                rows.append(lo.shape[0])
        return verdicts(net_, target, lo, hi)

    monkeypatch.setattr(explain_module, "build_abstract", building)
    monkeypatch.setattr(explain_module, "refine", refining)
    monkeypatch.setattr(explain_module, "enclosure_verdicts", checking)
    return rows


def assert_same_search(net, x, epsilon, schedule, seed, monkeypatch, exact=False):
    """Run the search and its one-query-at-a-time reference; return the trace and the windowed step count.

    Kept sets, finals, snapshots, refinements and every step's group,
    rate, verdict and neuron counts must be the reference's, and
    the kept set must be the baseline's.  A step asked alone on its own
    box has the reference's margin bit for bit (with ``exact``, every step
    must).  Otherwise the step is either a concrete step at rate 1.0 from
    a batched pass, whose margin may differ in the last bits, or a drop a
    window took on a larger box's reduction: a windowed step, which is
    re-certified by ``check_concrete`` with the kept set as of that step
    and whose margin lies between 0 and the concrete enclosure's.
    """
    record_reduced_checks(net, monkeypatch)
    grouping = FeatureGrouping.singletons(net.input_dim)
    ordering = order_features(net, x, grouping, "sensitivity")
    kept, trace = explain_abstraction_refinement(net, x, epsilon, grouping, ordering, schedule, seed=seed)
    monkeypatch.undo()
    ref_kept, ref = one_query_at_a_time(net, x, epsilon, grouping, ordering, schedule, seed)
    assert kept == ref_kept
    assert kept == explain_baseline(net, x, epsilon, grouping, ordering, seed=seed)[0]
    assert trace.final == ref.final
    assert trace.status == STATUS_MINIMAL
    assert trace.refinements == ref.refinements
    assert trace.snapshots == ref.snapshots
    assert len(trace.steps) == len(ref.steps)
    target = predict(net, x)
    replay_kept = set(range(len(grouping.groups)))
    windowed = 0
    for got, want in zip(trace.steps, ref.steps):
        assert (got.group_id, got.rate, got.verdict, got.neuron_evals) == (
            want.group_id, want.rate, want.verdict, want.neuron_evals
        )
        g = grouping.ids.index(got.group_id)
        if got.margin != want.margin:
            assert not exact
            q = make_query(net, x, grouping.features_of(replay_kept - {g}), epsilon)
            if got.rate == 1.0 and got.neuron_evals == net.neuron_count:
                assert abs(got.margin - want.margin) <= 1e-12
            else:
                assert got.verdict == "sufficient"
                assert check_concrete(net, q).is_sufficient
                box = q.query_box()
                concrete = explain_module.enclosure_verdicts(net, target, box.lo, box.hi)[0]
                assert 0.0 <= got.margin <= concrete + 1e-12
                windowed += 1
        if got.verdict == "sufficient":
            replay_kept.discard(g)
    return trace, windowed


def tail_net():
    """A 40-input sigmoid net whose carried rate reaches 1.0 at its 15th feature of 40."""
    net = random_network(40, (30, 30), 3, "sigmoid", seed=1)
    return net, uniform_instances(net, 1, seed=1)[0], 0.2


def long_window_net():
    """A 64-input sigmoid net whose windows reach MAX_BATCH before its carried rate reaches 1.0."""
    net = random_network(64, (32, 32), 4, "sigmoid", seed=3)
    return net, uniform_instances(net, 1, seed=3)[0], 0.1


def relu100_cases(count=4):
    """The network and epsilon of the relu100-boundary benchmark workload, on ``count`` instances."""
    net = random_network(100, (50,), 10, "relu", seed=4)
    for x in uniform_instances(net, count, seed=11):
        yield net, x, 0.3, 0


class TestRateOneTail:
    """Once the carried rate is 1.0, every later step is the baseline's concrete batch."""

    def test_same_trace_on_the_search_equivalence_nets(self, monkeypatch):
        # The default schedule, and a short one that reaches 1.0 sooner.
        # ``tails`` counts the runs that carry rate 1.0 into later features.
        tails = {}
        windowed = 0
        for rates in ((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0), (0.5, 1.0)):
            tails[rates] = 0
            for net, x, epsilon, seed in search_equivalence_nets():
                trace, count = assert_same_search(net, x, epsilon, ReductionSchedule(rates), seed, monkeypatch)
                drops = [k for k, s in enumerate(trace.steps) if s.rate == 1.0 and s.verdict == "sufficient"]
                tails[rates] += bool(drops) and drops[0] < len(trace.steps) - 1
                windowed += count
        assert tails == {(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0): 1, (0.5, 1.0): 28}
        assert windowed > 0

    def test_whole_walk_as_a_tail_keeps_the_search_verdict_names(self, monkeypatch):
        # With only rate 1.0 the whole walk is the baseline's, with no
        # reduction; a witnessed pin is insufficient, as in the baseline.
        witnessed = 0
        for net, x, epsilon, seed in search_equivalence_nets():
            rows = record_reduced_checks(net, monkeypatch)
            trace, _ = assert_same_search(net, x, epsilon, ReductionSchedule((1.0,)), seed, monkeypatch)
            assert rows == []
            _, base = explain_baseline(net, x, epsilon, seed=seed)
            assert [(s.group_id, s.margin, s.verdict) for s in trace.steps] == [
                (s.group_id, s.margin, s.verdict) for s in base.steps
            ]
            witnessed += sum(step.verdict == "insufficient" for step in trace.steps)
        assert witnessed > 0

    def test_wider_net_hands_off_before_its_last_feature(self, monkeypatch):
        # The carried rate reaches 1.0 at the 15th feature; the last 25
        # features are asked in concrete batches, with no reduction built
        # or refined after that drop.
        net, x, epsilon = tail_net()
        events = []
        build, refine_ = explain_module.build_abstract, explain_module.refine
        monkeypatch.setattr(explain_module, "build_abstract", lambda *a: events.append("build") or build(*a))
        monkeypatch.setattr(explain_module, "refine", lambda *a: events.append("refine") or refine_(*a))
        monkeypatch.setattr(
            explain_module, "StepRecord", lambda **kw: events.append((kw["rate"], kw["verdict"])) or StepRecord(**kw)
        )
        _, trace = explain_abstraction_refinement(net, x, epsilon)
        monkeypatch.undo()
        first = events.index((1.0, "sufficient"))
        assert "build" in events[:first] and not {"build", "refine"} & set(events[first:])
        steps = [(s.rate, s.verdict) for s in trace.steps]
        assert len({s.group_id for s in trace.steps[steps.index((1.0, "sufficient")) + 1 :]}) == 25
        _, windowed = assert_same_search(net, x, epsilon, ReductionSchedule.default(), 0, monkeypatch)
        assert windowed > 0

    def test_timeout_inside_the_tail(self, monkeypatch):
        # A fake clock that only concrete checks advance, one second each.
        # The timeout lets the walk ask two batches past the last reduction
        # of the full run, so it stops inside the rate-1.0 tail.
        net, x, epsilon = tail_net()
        clock = [0.0]
        events = []
        build, verdicts = explain_module.build_abstract, explain_module.enclosure_verdicts

        def ticking(net_, target, lo, hi):
            if net_ is net:
                clock[0] += 1.0
                events.append("concrete")
            return verdicts(net_, target, lo, hi)

        def building(*args):
            events.append("build")
            return build(*args)

        monkeypatch.setattr(explain_module.time, "monotonic", lambda: clock[0])
        monkeypatch.setattr(explain_module, "enclosure_verdicts", ticking)
        monkeypatch.setattr(explain_module, "build_abstract", building)
        _, full = explain_abstraction_refinement(net, x, epsilon)
        before_tail = events[: len(events) - events[::-1].index("build")].count("concrete")
        clock[0] = 0.0
        kept, trace = explain_abstraction_refinement(net, x, epsilon, timeout=before_tail + 1.5)
        monkeypatch.undo()
        assert clock[0] == before_tail + 2.0
        assert trace.status == STATUS_EARLY_STOP
        walked = len({step.group_id for step in trace.steps})
        assert 15 < walked < 40
        assert [s.to_dict() | {"elapsed": 0} for s in trace.steps] == [
            s.to_dict() | {"elapsed": 0} for s in full.steps[: len(trace.steps)]
        ]
        assert frozenset(kept) >= frozenset(int(i) - 1 for i in full.final)
        grouping = FeatureGrouping.singletons(40)
        q = make_query(net, x, grouping.features_of(kept), epsilon)
        assert check_concrete(net, q).is_sufficient


class TestWindows:
    """Below rate 1.0 a run of drops shares one reduction, built against the run's largest box.

    ``assert_same_search`` checks every window: its rows lie inside its
    build box, the steps it takes are re-certified by the concrete check,
    and every other step has the reference's margin.
    """

    def test_long_runs_fill_whole_windows(self, monkeypatch):
        net, x, epsilon = long_window_net()
        rows = record_reduced_checks(net, monkeypatch)
        explain_abstraction_refinement(net, x, epsilon)
        monkeypatch.undo()
        assert max(rows) == explain_module.MAX_BATCH
        _, windowed = assert_same_search(net, x, epsilon, ReductionSchedule.default(), 0, monkeypatch)
        assert windowed >= explain_module.MAX_BATCH

    def test_one_row_windows_are_the_reference_search(self, monkeypatch):
        # With batches of one row every step is asked on its own box, so
        # every margin is the reference's, bit for bit.
        cases = list(search_equivalence_nets()) + [(*tail_net(), 0), (*long_window_net(), 0)]
        for net, x, epsilon, seed in cases:
            monkeypatch.setattr(explain_module, "MAX_BATCH", 1)
            assert_same_search(net, x, epsilon, ReductionSchedule.default(), seed, monkeypatch, exact=True)

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
        # searched and labelled as in the full run.
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
            _, full = explain_abstraction_refinement(net, x, epsilon, seed=seed)
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
