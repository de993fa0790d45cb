"""Explanation searches: orderings, traces, equivalence, and early stop."""

import json

import numpy as np
import pytest

from conftest import make_query, small_net_and_instance
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
    gen_counterexample,
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

    def test_resolved_must_be_permutation(self):
        with pytest.raises(ValidationError):
            FeatureOrdering("in-order", (0, 0, 1))


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
        sched = ReductionSchedule((1.0,))
        for seed in range(10):
            net, x = small_net_and_instance(seed)
            kept_a, trace_a = explain_abstraction_refinement(net, x, 0.15, schedule=sched)
            kept_b, trace_b = explain_baseline(net, x, 0.15)
            assert kept_a == kept_b
            assert len(trace_a.steps) == len(trace_b.steps)
            assert trace_a.refinements == 0

    def test_demo_trace_shows_refinement_progress(self, demo):
        net, x = demo
        sched = ReductionSchedule((0.1, 0.4, 1.0))
        kept, trace = explain_abstraction_refinement(net, x, 1.0, schedule=sched)
        assert trace.final == ("3",)
        assert trace.status == STATUS_MINIMAL
        assert trace.snapshots[0.1] == ("2", "3")
        assert trace.snapshots[0.4] == ("3",)
        assert trace.snapshots[1.0] == ("3",)
        assert trace.refinements == 2

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
                assert step.witness_used or step.rate == 1.0

    def test_timeout_zero_early_stops_with_all_groups(self, demo):
        net, x = demo
        kept, trace = explain_abstraction_refinement(net, x, 1.0, timeout=0.0)
        assert trace.status == STATUS_EARLY_STOP
        assert trace.final == ("1", "2", "3")
        assert trace.steps == []

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

    The walk's witnesses are recorded by wrapping the batched witness
    search; the replay asks each step's query with ``check_concrete`` and
    one generator seeded like the walk's, and checks the verdict, the
    witness and the kept set step by step.
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

    rng = np.random.default_rng(seed)
    target = predict(net, x)
    replay_kept = set(range(len(grouping.groups)))
    witnesses = iter(found)
    assert len(trace.steps) == len(ordering.resolved)
    for g, step in zip(ordering.resolved, trace.steps):
        q = SufficiencyQuery(x, grouping.features_of(replay_kept - {g}), epsilon, target, net.input_domain)
        verdict = check_concrete(net, q, rng=rng)
        assert step.group_id == grouping.ids[g]
        assert step.verdict == verdict.kind.value
        assert step.witness_used == verdict.is_insufficient
        if verdict.is_sufficient:
            replay_kept.discard(g)
        else:
            walked = next(witnesses)
            if verdict.witness is None:
                assert walked is None
            else:
                assert walked.tobytes() == verdict.witness.tobytes()
    assert next(witnesses, "none left") == "none left"
    assert kept == frozenset(replay_kept)
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
    """The abstraction-refinement search asking every query alone, as it did before its tail was batched.

    Kept as the reference for the search: each step builds its query,
    propagates its box, reduces the network against it at the carried rate
    and refines until a verdict is reached.
    """
    target = predict(net, x)
    rng = np.random.default_rng(seed)
    kept = set(range(len(grouping.groups)))
    trace = ExplanationTrace(group_count=len(grouping.groups))
    carried = schedule.rates[0]
    for g in ordering.resolved:
        q = SufficiencyQuery(x, grouping.features_of(kept - {g}), epsilon, target, net.input_domain)
        lb = propagate_box(net, q.query_box())
        rate = carried
        anet = build_abstract(net, lb, rate)
        while True:
            verdict = check_abstract(anet, q)
            witness_used = False
            if verdict.is_sufficient:
                kept.discard(g)
                carried = rate
            else:
                witness_used = gen_counterexample(net, verdict.enclosure, q, rng=rng) is not None
            trace.steps.append(
                StepRecord(
                    grouping.ids[g], rate, verdict.kind.value, witness_used, 0.0,
                    verdict.margin, anet.neuron_count, anet.neuron_count,
                )
            )
            trace.snapshots[rate] = grouping.ids_of(kept)
            if verdict.is_sufficient or witness_used:
                break
            next_rate = schedule.next_after(max(rate, anet.reduction_rate))
            if next_rate is None:
                break
            anet = refine(net, anet, lb, next_rate)
            trace.refinements += 1
            rate = next_rate
    trace.final = grouping.ids_of(kept)
    return frozenset(kept), trace


def record_windows(net, monkeypatch):
    """Wrap the search's reductions and reduced checks; return how each step below the tail was answered.

    Every reduced check must keep its rows inside its reduction's build
    box.  A one-row check answers one step, on that step's own box (the
    row must be the build box itself).  A check of B > 1 rows is a window:
    it answers its leading separated rows, each on a larger box's
    reduction.  The returned list holds, step by step, whether the step
    was answered on its own box.
    """
    built = {}  # id of a reduction -> (the reduction, its build box)
    own_box = []
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
        margins, separated, out_hi = verdicts(net_, target, lo, hi)
        if net_ is not net:
            _, box = built[id(net_)]
            assert lo.ndim == 2
            assert np.all(box.lo <= lo) and np.all(hi <= box.hi)
            if lo.shape[0] == 1:
                assert lo[0].tobytes() == box.lo.tobytes() and hi[0].tobytes() == box.hi.tobytes()
                own_box.append(True)
            else:
                own_box.extend([False] * (int(np.argmin(separated)) if not separated.all() else len(lo)))
        return margins, separated, out_hi

    monkeypatch.setattr(explain_module, "build_abstract", building)
    monkeypatch.setattr(explain_module, "refine", refining)
    monkeypatch.setattr(explain_module, "enclosure_verdicts", checking)
    return own_box


def assert_same_search(net, x, epsilon, schedule, seed, monkeypatch):
    """Run the search and its one-query-at-a-time reference.

    Returns the tail lengths handed to the walk and, per step below the
    tail, whether it was answered on its own box.  A step a window took
    on a larger box's reduction is re-certified by ``check_concrete`` with
    the kept set as of that step, and its margin lies between 0 and the
    concrete enclosure's; every other step's margin is the reference's.
    """
    handed = []
    walk = explain_module._enclosure_walk

    def recording(net_, x_, epsilon_, target, grouping_, order, *rest, **kwargs):
        handed.append(len(order))
        return walk(net_, x_, epsilon_, target, grouping_, order, *rest, **kwargs)

    monkeypatch.setattr(explain_module, "_enclosure_walk", recording)
    own_box = record_windows(net, monkeypatch)
    grouping = FeatureGrouping.singletons(net.input_dim)
    ordering = order_features(net, x, grouping, "sensitivity")
    kept, trace = explain_abstraction_refinement(net, x, epsilon, grouping, ordering, schedule, seed=seed)
    monkeypatch.undo()
    ref_kept, ref = one_query_at_a_time(net, x, epsilon, grouping, ordering, schedule, seed)
    assert kept == ref_kept
    assert trace.final == ref.final
    assert trace.status == STATUS_MINIMAL
    assert trace.refinements == ref.refinements
    assert trace.snapshots == ref.snapshots
    assert len(trace.steps) == len(ref.steps)
    assert len(own_box) == len(trace.steps) - sum(handed)
    target = predict(net, x)
    replay_kept = set(range(len(grouping.groups)))
    for k, (got, want) in enumerate(zip(trace.steps, ref.steps)):
        assert (got.group_id, got.rate, got.verdict, got.witness_used, got.queried_neurons, got.neuron_evals) == (
            want.group_id, want.rate, want.verdict, want.witness_used, want.queried_neurons, want.neuron_evals
        )
        g = grouping.ids.index(got.group_id)
        if k >= len(own_box):
            # A batched tail sums its matrix products in another order.
            assert got.rate == 1.0
            assert abs(got.margin - want.margin) <= 1e-12
        elif own_box[k]:
            assert got.margin == want.margin
        else:
            assert got.verdict == "sufficient"
            q = make_query(net, x, grouping.features_of(replay_kept - {g}), epsilon)
            assert check_concrete(net, q).is_sufficient
            box = q.query_box()
            concrete = explain_module.enclosure_verdicts(net, target, box.lo, box.hi)[0]
            assert 0.0 <= got.margin <= concrete + 1e-12
        if got.verdict == "sufficient":
            replay_kept.discard(g)
    return handed, own_box


def tail_net():
    """A 40-input sigmoid net whose carried rate reaches 1.0 at its 15th feature of 40."""
    net = random_network(40, (30, 30), 3, "sigmoid", seed=1)
    return net, uniform_instances(net, 1, seed=1)[0], 0.2


def long_window_net():
    """A 64-input sigmoid net whose windows reach MAX_BATCH before its carried rate reaches 1.0."""
    net = random_network(64, (32, 32), 4, "sigmoid", seed=3)
    return net, uniform_instances(net, 1, seed=3)[0], 0.1


class TestRateOneTail:
    """The search's rate-1.0 tail runs on the batched walk and asks the same queries."""

    def test_same_trace_on_the_search_equivalence_nets(self, monkeypatch):
        # The default schedule, and a short one that reaches 1.0 sooner.
        tails = {}
        windowed = 0
        for rates in ((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0), (0.5, 1.0)):
            tails[rates] = 0
            for net, x, epsilon, seed in search_equivalence_nets():
                handed, own_box = assert_same_search(net, x, epsilon, ReductionSchedule(rates), seed, monkeypatch)
                tails[rates] += bool(handed)
                windowed += own_box.count(False)
        assert tails == {(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0): 1, (0.5, 1.0): 28}
        assert windowed > 0

    def test_whole_walk_as_a_tail_keeps_the_search_verdict_names(self, monkeypatch):
        # With only rate 1.0 the whole order is the tail; pinned features
        # show as uncertain with witness_used, as they do below rate 1.0.
        witnessed = 0
        for net, x, epsilon, seed in search_equivalence_nets():
            handed, _ = assert_same_search(net, x, epsilon, ReductionSchedule((1.0,)), seed, monkeypatch)
            assert handed == [7]
            _, trace = explain_abstraction_refinement(net, x, epsilon, schedule=ReductionSchedule((1.0,)), seed=seed)
            assert {step.verdict for step in trace.steps} <= {"sufficient", "uncertain"}
            witnessed += sum(step.witness_used for step in trace.steps)
        assert witnessed > 0

    def test_wider_net_hands_off_before_its_last_feature(self, monkeypatch):
        net, x, epsilon = tail_net()
        handed, own_box = assert_same_search(net, x, epsilon, ReductionSchedule.default(), 0, monkeypatch)
        assert handed == [25]
        assert not all(own_box)

    def test_timeout_inside_the_tail(self, monkeypatch):
        # A fake clock that only the tail's batches advance, one second each:
        # with a 1.5 s timeout the walk asks two batches and stops.  The
        # tail's checks are the only ones on the concrete network.
        net, x, epsilon = tail_net()
        _, full = explain_abstraction_refinement(net, x, epsilon)
        clock = [0.0]
        verdicts = explain_module.enclosure_verdicts

        def ticking(net_, target, lo, hi):
            if net_ is net:
                clock[0] += 1.0
            return verdicts(net_, target, lo, hi)

        monkeypatch.setattr(explain_module.time, "monotonic", lambda: clock[0])
        monkeypatch.setattr(explain_module, "enclosure_verdicts", ticking)
        kept, trace = explain_abstraction_refinement(net, x, epsilon, timeout=1.5)
        monkeypatch.undo()
        assert clock[0] == 2.0
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
    """Below rate 1.0 the search asks its steps in windows that share one reduction.

    ``assert_same_search`` checks every window: its rows lie inside its
    build box, the steps it takes are re-certified by the concrete check,
    and every step asked on its own box has the reference's margin.
    """

    def test_long_runs_fill_whole_windows(self, monkeypatch):
        net, x, epsilon = long_window_net()
        rows = []
        verdicts = explain_module.enclosure_verdicts

        def recording(net_, target, lo, hi):
            if net_ is not net:
                rows.append(lo.shape[0])
            return verdicts(net_, target, lo, hi)

        monkeypatch.setattr(explain_module, "enclosure_verdicts", recording)
        explain_abstraction_refinement(net, x, epsilon)
        monkeypatch.undo()
        assert max(rows) == explain_module.MAX_BATCH
        _, own_box = assert_same_search(net, x, epsilon, ReductionSchedule.default(), 0, monkeypatch)
        assert own_box.count(False) >= explain_module.MAX_BATCH

    def test_one_row_windows_are_the_reference_search(self, monkeypatch):
        # With windows of one row every step is asked on its own box, so
        # every margin below the tail is the reference's, bit for bit.
        cases = list(search_equivalence_nets()) + [(*tail_net(), 0), (*long_window_net(), 0)]
        for net, x, epsilon, seed in cases:
            monkeypatch.setattr(explain_module, "MAX_BATCH", 1)
            _, own_box = assert_same_search(net, x, epsilon, ReductionSchedule.default(), seed, monkeypatch)
            assert all(own_box)

    def test_step_times_share_out_the_windows(self):
        net, x, epsilon = long_window_net()
        _, trace = explain_abstraction_refinement(net, x, epsilon)
        assert all(step.elapsed > 0 for step in trace.steps)
        assert sum(step.elapsed for step in trace.steps) <= trace.wall_time
