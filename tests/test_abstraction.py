"""Neuron merging: scoring, construction, containment, and refinement nesting."""

import re

import numpy as np
import pytest

from conftest import make_query, random_subbox, small_net_and_instance
from provex import abstraction
from provex.abstraction import (
    AbstractLayer,
    ReductionSchedule,
    build_abstract,
    build_from_merge_sets,
    refine,
    score_neurons,
)
from provex.bounds import propagate_abstract, propagate_box, sample_box
from provex.errors import DimensionError, ValidationError
from provex.fixtures import random_network, uniform_instances
from provex.intervals import IntervalVector, iv_subset
from provex.network import ActivationKind, forward_batch
from provex.queries import OracleOutcome, check_abstract, check_concrete, enclosure_verdicts, oracle_check


def same_pairs(a, b):
    """Whether two rankings, or two per-layer bucket tuples, hold equal arrays."""
    return len(a) == len(b) and all(
        len(pa) == len(pb) and all(np.array_equal(x, y) for x, y in zip(pa, pb)) for pa, pb in zip(a, b)
    )


class TestScoring:
    def test_saturated_neuron_ranked_first(self):
        # A neuron whose activation range has near-zero width scores ~0.
        net = random_network(4, (6,), 2, "sigmoid", seed=1)
        lb = propagate_box(net, net.input_domain)
        widths = lb.per_layer[0].width.copy()
        _, order, _ = score_neurons(net, lb)  # one hidden layer: flat ids are neuron indices
        narrow = int(np.argmin(widths))
        head = order[:3].tolist()
        assert narrow in head

    def test_zero_outgoing_weight_scores_zero(self, demo):
        net, x = demo
        # Rebuild with the first hidden neuron disconnected downstream.
        from provex.network import ConcreteNetwork, Layer

        W2 = net.layers[1].weights.copy()
        W2[:, 0] = 0.0
        cut = ConcreteNetwork(
            (net.layers[0], Layer(W2, net.layers[1].bias, net.layers[1].activation)),
            net.input_domain,
        )
        lb = propagate_box(cut, cut.input_domain)
        scores, _, _ = score_neurons(cut, lb)  # one hidden layer: flat ids are neuron indices
        assert scores[0] == 0.0

    def test_scored_removal_beats_random_removal(self):
        # Removing the lowest-scored neurons gives an output enclosure no
        # wider than removing as many random neurons, on most seeds, under
        # query-shaped boxes (a few free features spanning an epsilon range).
        from provex.fixtures import uniform_instances

        wins = 0
        trials = 100
        for seed in range(trials):
            rng = np.random.default_rng(seed + 1000)
            net, _ = small_net_and_instance(seed, hidden=(14,), activation="sigmoid")
            x = uniform_instances(net, 1, seed=seed)[0]
            free = rng.choice(6, size=3, replace=False)
            lo, hi = x.copy(), x.copy()
            lo[free] = np.maximum(0.0, x[free] - 0.3)
            hi[free] = np.minimum(1.0, x[free] + 0.3)
            box = IntervalVector(lo, hi)
            lb = propagate_box(net, box)
            scored = build_abstract(net, lb, rate=0.5)
            random_set = frozenset(rng.choice(14, size=7, replace=False).tolist())
            randomly = build_from_merge_sets(net, lb, (random_set,))
            w_scored = propagate_abstract(scored, box).width.sum()
            w_random = propagate_abstract(randomly, box).width.sum()
            if w_scored <= w_random + 1e-12:
                wins += 1
        assert wins >= 0.8 * trials

    def test_stale_bounds_rejected(self):
        net_a, _ = small_net_and_instance(1)
        net_b, _ = small_net_and_instance(2)
        lb = propagate_box(net_a, net_a.input_domain)
        anet = build_abstract(net_a, lb, 0.5)
        with pytest.raises(ValidationError):
            score_neurons(net_b, lb)
        with pytest.raises(ValidationError):
            build_abstract(net_b, lb, 0.5)
        with pytest.raises(ValidationError):
            refine(net_b, anet, lb, 0.8)


class TestConstruction:
    def test_full_rate_is_structurally_identical(self, demo):
        net, x = demo
        lb = propagate_box(net, net.input_domain)
        anet = build_abstract(net, lb, 1.0)
        assert anet.reduction_rate == 1.0
        assert len(anet.layers) == len(net.layers)
        for al, cl in zip(anet.layers, net.layers):
            assert al is cl
            np.testing.assert_array_equal(al.bias_lo, cl.bias)
            np.testing.assert_array_equal(al.bias_hi, cl.bias)

    def test_layers_beside_a_layer_merged_whole_are_empty(self):
        net, _ = small_net_and_instance(5, hidden=(10, 8, 6))
        lb = propagate_box(net, net.input_domain)
        anet = build_from_merge_sets(net, lb, (frozenset(), frozenset(range(8)), frozenset({2})))
        shapes = [layer.weights.shape for layer in anet.layers]
        assert shapes == [(10, net.input_dim), (0, 10), (5, 0), (net.output_dim, 5)]
        for layer in anet.layers[1:3]:
            for array in (layer.weights, layer.weights_neg):
                assert array.dtype == np.float64 and array.flags.c_contiguous and not array.flags.writeable

    def test_abstract_layer_keeps_contiguous_float_arrays(self):
        w = np.arange(6.0).reshape(2, 3)
        bias = np.zeros(2)
        neg = np.clip(w, None, 0)
        layer = AbstractLayer(w, bias, bias, ActivationKind.RELU, neg)
        assert layer.weights is w and not w.flags.writeable
        assert layer.weights_neg is neg and not neg.flags.writeable
        fortran, as_list = np.asfortranarray(np.ones((2, 3))), [[-1, -1, -1], [-1, -1, -1]]
        other = AbstractLayer(fortran, bias, bias, ActivationKind.RELU, as_list)
        for array in (other.weights, other.weights_neg):
            assert array.dtype == np.float64 and array.flags.c_contiguous and not array.flags.writeable

    def test_untouched_layers_are_the_source_layers(self):
        # Only layers next to a merged layer are rebuilt; the rest are reused.
        net, _ = small_net_and_instance(5, hidden=(10, 8, 6))
        lb = propagate_box(net, net.input_domain)
        anet = build_from_merge_sets(net, lb, (frozenset(), frozenset({1, 4}), frozenset()))
        reused = [al is cl for al, cl in zip(anet.layers, net.layers)]
        assert reused == [True, False, False, True]
        assert (anet.input_dim, anet.output_dim) == (net.input_dim, net.output_dim)
        assert anet.reduction_rate == anet.spec.reduction_rate == 22 / 24

    def test_reduced_sign_split_is_the_clip_of_the_weights(self):
        # A reduced layer selects its source layer's nonpositive part; it
        # must be exactly the clip of its own weights, layer by layer.
        from provex.abstraction import AbstractLayer

        rebuilt = 0
        for seed in range(20):
            act = ("relu", "sigmoid", "tanh")[seed % 3]
            net, _ = small_net_and_instance(seed, hidden=(10, 8, 6), activation=act)
            lb = propagate_box(net, net.input_domain)
            for rate in (0.1, 0.4, 0.7, 0.95):
                for layer in build_abstract(net, lb, rate).layers:
                    if isinstance(layer, AbstractLayer):
                        rebuilt += 1
                        assert layer.weights_neg.tobytes() == np.clip(layer.weights, None, 0.0).tobytes()
                        assert layer.weights.flags.c_contiguous and layer.weights_neg.flags.c_contiguous
        assert rebuilt > 0

    def test_rate_out_of_range(self, demo):
        net, x = demo
        lb = propagate_box(net, net.input_domain)
        with pytest.raises(ValidationError):
            build_abstract(net, lb, 0.0)
        with pytest.raises(ValidationError):
            build_abstract(net, lb, 1.5)

    def test_merge_all_hidden_with_partially_fixed_box(self, demo):
        # Fixing the last two features and merging every hidden neuron
        # still separates the winning class.
        net, x = demo
        q = make_query(net, x, fixed={1, 2}, epsilon=1.0)
        lb = propagate_box(net, q.query_box())
        anet = build_from_merge_sets(net, lb, (frozenset({0, 1, 2}),))
        out = propagate_abstract(anet, q.query_box())
        np.testing.assert_allclose(out.lo, [15, 46], atol=1e-9)
        np.testing.assert_allclose(out.hi, [22, 55], atol=1e-9)
        assert out.lo[1] > out.hi[0]

    def test_merge_all_hidden_with_one_fixed_feature(self, demo):
        # With only the last feature fixed, the fully merged reduction pools
        # all three hidden ranges into one bucket and the classes overlap.
        net, x = demo
        q = make_query(net, x, fixed={2}, epsilon=1.0)
        lb = propagate_box(net, q.query_box())
        anet = build_from_merge_sets(net, lb, (frozenset({0, 1, 2}),))
        out = propagate_abstract(anet, q.query_box())
        np.testing.assert_allclose(out.lo, [4, 17], atol=1e-9)
        np.testing.assert_allclose(out.hi, [28, 59], atol=1e-9)
        assert out.hi[0] > out.lo[1]  # overlap: separation fails here

    def test_point_containment_across_rates(self):
        # Sampled network outputs always land inside the reduced enclosure.
        rng = np.random.default_rng(31)
        for seed in range(40):
            act = "relu" if seed % 2 else "sigmoid"
            net, _ = small_net_and_instance(seed, hidden=(10, 8), activation=act)
            lo, hi = random_subbox(net, rng)
            box = IntervalVector(lo, hi)
            lb = propagate_box(net, box)
            rate = float(rng.uniform(0.15, 1.0))
            anet = build_abstract(net, lb, rate)
            out = propagate_abstract(anet, box)
            logits = forward_batch(net, sample_box(box, 200, rng))
            assert np.all(logits >= out.lo - 1e-9)
            assert np.all(logits <= out.hi + 1e-9)

    def test_interval_bias_only_where_absorbed(self):
        net, _ = small_net_and_instance(7, hidden=(10, 8))
        lb = propagate_box(net, net.input_domain)
        anet = build_abstract(net, lb, 0.5)
        for k, layer in enumerate(anet.layers):
            merged_upstream = k > 0 and len(anet.spec.per_layer_merged[k - 1]) > 0
            degenerate = np.array_equal(layer.bias_lo, layer.bias_hi)
            assert degenerate != merged_upstream

    def test_determinism(self):
        net, _ = small_net_and_instance(21, hidden=(12, 9))
        lb = propagate_box(net, net.input_domain)
        a = build_abstract(net, lb, 0.4)
        b = build_abstract(net, lb, 0.4)
        assert a.spec.per_layer_merged == b.spec.per_layer_merged
        assert same_pairs(a.buckets, b.buckets)
        out_a = propagate_abstract(a, net.input_domain)
        out_b = propagate_abstract(b, net.input_domain)
        np.testing.assert_array_equal(out_a.lo, out_b.lo)

    def test_network_without_hidden_layer(self):
        # One identity layer: there is nothing to score, merge or refine.
        from provex.network import ConcreteNetwork, Layer

        weights = np.array([[1.0, -2.0], [0.5, 1.0], [-1.0, 0.0]])
        net = ConcreteNetwork((Layer(weights, np.array([0.1, 0.0, -0.2]), "identity"),))
        lb = propagate_box(net, net.input_domain)
        scores, order, _ = ranking = score_neurons(net, lb)
        assert scores.size == order.size == 0
        assert abstraction.select_merge_sets(ranking, 0.1) == ()
        q = make_query(net, np.array([0.9, 0.2]), fixed={0}, epsilon=0.3)
        anet = build_abstract(net, propagate_box(net, q.query_box()), 0.1)
        assert anet.reduction_rate == 1.0
        assert len(anet.layers) == 1 and anet.layers[0] is net.layers[0]
        assert check_abstract(anet, q).margin == check_concrete(net, q).margin

    def test_merge_rate_accounting(self):
        net, _ = small_net_and_instance(4, hidden=(10, 10))
        lb = propagate_box(net, net.input_domain)
        anet = build_abstract(net, lb, 0.4)
        assert anet.spec.merged_count == round(0.6 * 20)
        assert anet.reduction_rate == pytest.approx(1 - anet.spec.merged_count / 20)


class TestRefine:
    def test_full_refinement_restores_original_behaviour(self, demo):
        net, x = demo
        q = make_query(net, x, fixed={2}, epsilon=1.0)
        lb = propagate_box(net, q.query_box())
        coarse = build_from_merge_sets(net, lb, (frozenset({0, 1, 2}),))
        fine = refine(net, coarse, lb, 1.0)
        assert fine.spec.merged_count == 0
        out = propagate_abstract(fine, q.query_box())
        np.testing.assert_array_equal(out.lo, lb.final.lo)
        np.testing.assert_array_equal(out.hi, lb.final.hi)

    def test_pairwise_split_turns_verdict_sufficient(self, demo):
        # Un-merging the distinctive third neuron flips the one-fixed-feature
        # query from inconclusive to verified sufficient.
        net, x = demo
        q = make_query(net, x, fixed={2}, epsilon=1.0)
        lb = propagate_box(net, q.query_box())
        coarse = build_from_merge_sets(net, lb, (frozenset({0, 1, 2}),))
        assert not check_abstract(coarse, q).is_sufficient
        refined = refine(net, coarse, lb, 1.0 / 3.0)
        assert refined.spec.per_layer_merged == (frozenset({0, 1}),)
        out = propagate_abstract(refined, q.query_box())
        np.testing.assert_allclose(out.lo, [8, 37], atol=1e-9)
        np.testing.assert_allclose(out.hi, [22, 55], atol=1e-9)
        assert check_abstract(refined, q).is_sufficient

    def test_rate_must_increase(self):
        net, _ = small_net_and_instance(3)
        lb = propagate_box(net, net.input_domain)
        anet = build_abstract(net, lb, 0.5)
        with pytest.raises(ValidationError):
            refine(net, anet, lb, anet.reduction_rate)
        with pytest.raises(ValidationError, match="refinement rate nan"):
            refine(net, anet, lb, float("nan"))

    def test_refined_merge_sets_nest(self):
        net, _ = small_net_and_instance(11, hidden=(12, 12))
        lb = propagate_box(net, net.input_domain)
        coarse = build_abstract(net, lb, 0.3)
        fine = refine(net, coarse, lb, 0.6)
        for small, big in zip(fine.spec.per_layer_merged, coarse.spec.per_layer_merged):
            assert small <= big
        assert fine.spec.merged_count < coarse.spec.merged_count

    def test_refinement_reuses_the_build_ranking(self):
        # A chain against one bounds object refines by the ranking its build
        # merged by, to the merge sets and buckets of a chain that
        # propagates the same box afresh at every step.
        rng = np.random.default_rng(13)
        for seed in range(10):
            net, _ = small_net_and_instance(seed, hidden=(12, 10))
            box = IntervalVector(*random_subbox(net, rng))
            lb = propagate_box(net, box)
            shared = [build_abstract(net, lb, 0.2)]
            for rate in (0.5, 0.8, 1.0):
                shared.append(refine(net, shared[-1], lb, rate))
            fresh = [build_abstract(net, propagate_box(net, box), 0.2)]
            for rate in (0.5, 0.8, 1.0):
                fresh.append(refine(net, fresh[-1], propagate_box(net, box), rate))
            for a, b in zip(shared, fresh):
                assert a.spec.per_layer_merged == b.spec.per_layer_merged
                assert same_pairs(a.buckets, b.buckets)

    def test_ranking_of_another_box_is_not_reused(self):
        # Refining a reduction built against the whole domain against a
        # narrower box unmerges by the narrow box's ranking.
        net, x = small_net_and_instance(4, hidden=(12, 10))
        wide = propagate_box(net, net.input_domain)
        q = make_query(net, x, fixed={0, 1}, epsilon=0.2)
        narrow = propagate_box(net, q.query_box())
        built = build_abstract(net, wide, 0.3)
        refined = refine(net, built, narrow, 0.6)
        expected = {
            name: sorted_refine_sets(
                as_pairs(score_neurons(net, lb)), built.spec.per_layer_merged,
                [as_tuples(b) for b in built.buckets], built.spec.total_hidden, 0.6,
            )
            for name, lb in (("wide", wide), ("narrow", narrow))
        }
        assert expected["wide"] != expected["narrow"]
        assert refined.spec.per_layer_merged == expected["narrow"][0]
        assert tuple(as_tuples(b) for b in refined.buckets) == expected["narrow"][1]

    def test_enclosures_nest_along_chain(self):
        # Chain of refinements: enclosures shrink and still contain the
        # concrete output enclosure at every step.
        rng = np.random.default_rng(77)
        for seed in range(30):
            act = "relu" if seed % 2 else "sigmoid"
            net, _ = small_net_and_instance(seed, hidden=(12, 10), activation=act)
            lo, hi = random_subbox(net, rng)
            box = IntervalVector(lo, hi)
            lb = propagate_box(net, box)
            anet = build_abstract(net, lb, 0.3)
            prev_out = propagate_abstract(anet, box)
            for rate in (0.6, 1.0):
                anet = refine(net, anet, lb, rate)
                out = propagate_abstract(anet, box)
                assert iv_subset(out, prev_out, 1e-9)
                assert iv_subset(lb.final, out, 1e-9)
                prev_out = out


class TestSchedule:
    def test_default_schedule(self):
        sched = ReductionSchedule.default()
        assert sched.rates[0] == pytest.approx(0.1)
        assert sched.rates[-1] == 1.0
        assert len(sched.rates) == 10

    def test_validation(self):
        with pytest.raises(ValidationError):
            ReductionSchedule((0.0, 1.0))
        with pytest.raises(ValidationError):
            ReductionSchedule((0.5, 0.4, 1.0))
        with pytest.raises(ValidationError):
            ReductionSchedule((0.5, 0.9))

    @pytest.mark.parametrize("rates", [(0.5, float("nan"), 1.0), (float("nan"), 1.0), (0.5, float("inf"))])
    def test_non_finite_rates_rejected(self, rates):
        # NaN passes both the positivity and the increasing check.
        bad = next(r for r in rates if not np.isfinite(r))
        with pytest.raises(ValidationError, match=f"schedule rate {bad} is not a finite number"):
            ReductionSchedule(rates)
        with pytest.raises(ValidationError, match="not a finite number"):
            ReductionSchedule.from_string(",".join(str(r) for r in rates))

    def test_from_string(self):
        sched = ReductionSchedule.from_string("0.1,0.4,1.0")
        assert sched.rates == (0.1, 0.4, 1.0)

    @pytest.mark.parametrize("rates", ["0.5,1.0", "1", None, 1.0])
    def test_text_or_a_single_value_points_at_from_string(self, rates):
        # "1" was read as (1.0,), and the others raised a bare ValueError or TypeError.
        with pytest.raises(ValidationError, match=r"^schedule rates must be a sequence of numbers, .*from_string"):
            ReductionSchedule(rates)

    @pytest.mark.parametrize("rate", [True, "1", None])
    def test_rate_that_is_no_number_is_named(self, rate):
        # (True,) ran as (1.0,).
        with pytest.raises(ValidationError, match=f"^schedule rate must be a number, got {re.escape(repr(rate))}$"):
            ReductionSchedule((0.5, rate))


class TestBuildGuards:
    """A reduction answers only for boxes inside its build box, and takes only buckets that split its merge sets."""

    def test_boxes_outside_the_build_box_are_rejected(self):
        # Each reduction is built at rate 0.5 on the point box of x and then
        # asked about the all-free box.  The unchecked batched path still
        # answers, and on some nets it separates a box that holds a
        # counterexample; the checked forms refuse to answer at all.
        unsound = 0
        for s in range(300):
            net = random_network(6, (10,), 3, "relu", seed=s)
            x = uniform_instances(net, 1, seed=s)[0]
            anet = build_abstract(net, propagate_box(net, IntervalVector(x, x)), 0.5)
            assert anet.build_box == IntervalVector(x, x)
            point = make_query(net, x, set(range(6)), 0.5)
            assert check_abstract(anet, point).enclosure == propagate_abstract(anet, point.query_box())
            q = make_query(net, x, set(), 0.5)
            with pytest.raises(ValidationError, match="^box is not inside the box the reduction was built against$"):
                propagate_abstract(anet, q.query_box())
            with pytest.raises(ValidationError, match="not inside the box the reduction was built against"):
                check_abstract(anet, q)
            box = q.query_box()
            if not unsound and enclosure_verdicts(anet, q.target, box.lo, box.hi)[1]:
                unsound += oracle_check(net, q, budget=4096).outcome is OracleOutcome.WITNESS
        assert unsound

    def test_buckets_must_split_the_merge_sets(self):
        # Merge set {1, 2} with only neuron 1 in its buckets: the build would
        # delete neuron 2 without absorbing it.
        for s in range(20):
            net = random_network(4, (6,), 3, "sigmoid", seed=s)
            lb = propagate_box(net, net.input_domain)
            with pytest.raises(ValidationError, match=r"^buckets\[0\] must split the merge set of hidden layer 0"):
                build_from_merge_sets(net, lb, (frozenset({1, 2}),), buckets=((np.array([1]), np.array([1])),))
        net = random_network(4, (6, 5), 3, "sigmoid", seed=1)
        lb = propagate_box(net, net.input_domain)
        merge_sets = (frozenset({1, 2}), frozenset({0, 3}))
        good = build_from_merge_sets(net, lb, merge_sets).buckets
        wrong = [
            (0, (np.array([1, 2]), np.array([2, 0]))),  # an empty bucket
            (0, (np.array([1, 1]), np.array([2]))),  # a neuron twice
            (0, (np.array([1, 3]), np.array([1, 1]))),  # a neuron outside the merge set
            (0, (np.array([1, 2]), np.array([1]))),  # sizes that do not add up to the members
            (1, (np.array([3]), np.array([1]))),  # a merged neuron left out
        ]
        for k, layer_buckets in wrong:
            buckets = tuple(layer_buckets if j == k else b for j, b in enumerate(good))
            with pytest.raises(ValidationError, match=rf"^buckets\[{k}\]"):
                build_from_merge_sets(net, lb, merge_sets, buckets=buckets)
        with pytest.raises(DimensionError):
            build_from_merge_sets(net, lb, merge_sets, buckets=good[:1])
        rebuilt = build_from_merge_sets(net, lb, merge_sets, buckets=good)
        assert same_pairs(rebuilt.buckets, good)

    @pytest.mark.parametrize(
        "merged, shown",
        [
            (frozenset({0.5}), "0.5"),  # merged neuron 0
            (frozenset({True}), "True"),  # merged neuron 1
            (np.array([0.7]), "0.7"),  # a bare IndexError
            (np.array([True]), "True"),
            (frozenset({0, -1}), None),
        ],
    )
    def test_merge_set_members_must_be_neuron_indices(self, merged, shown):
        net = random_network(4, (6, 5), 3, "relu", seed=1)
        lb = propagate_box(net, net.input_domain)
        message = "must be nonnegative, got -1" if shown is None else f"must hold integer neuron indices, got {shown}"
        with pytest.raises(ValidationError, match=rf"^merge_sets\[1\] {re.escape(message)}$"):
            build_from_merge_sets(net, lb, (frozenset({0}), merged))
        # An integer array of any width is an index array.
        anet = build_from_merge_sets(net, lb, (np.array([0], dtype=np.int32), np.array([1], dtype=np.uint8)))
        assert anet.spec.per_layer_merged == (frozenset({0}), frozenset({1}))

    def test_merge_set_is_kept_as_a_set_of_distinct_neurons(self):
        net = random_network(4, (6,), 3, "relu", seed=1)
        lb = propagate_box(net, net.input_domain)
        # A list was kept as given, so its own buckets did not split it.
        anet = build_from_merge_sets(net, lb, ([0, 1],), buckets=((np.array([0, 1]), np.array([2])),))
        assert anet.spec.per_layer_merged == (frozenset({0, 1}),)
        assert type(anet.spec.per_layer_merged[0]) is frozenset
        # A repeated neuron was counted twice and bucketed twice.
        for merged in ([0, 0, 1], (1, 0, 1), np.array([0, 0, 1])):
            with pytest.raises(ValidationError, match=r"^merge_sets\[0\] must hold each neuron once, got [01] more"):
                build_from_merge_sets(net, lb, (merged,))


# The rankings and buckets of the ``sorted``-based forms the numpy ones
# replaced, kept as the reference for their order and tie-breaking.


def sorted_score_neurons(net, lb):
    ranked = []
    for k in range(len(net.layers) - 1):
        scores = lb.per_layer[k].width * net.layers[k + 1].weights_abs_colmax
        order = sorted(range(len(scores)), key=lambda j: (scores[j], j))
        ranked.append([(j, float(scores[j])) for j in order])
    return ranked


def as_sets(merged):
    """Index arrays, one per hidden layer, as frozensets."""
    return tuple(frozenset(m.tolist()) for m in merged)


def sorted_select_merge_sets(ranked, rate):
    flat = sorted((score, k, j) for k, layer_scores in enumerate(ranked) for (j, score) in layer_scores)
    sets = [set() for _ in ranked]
    for _, k, j in flat[: int(round((1.0 - rate) * len(flat)))]:
        sets[k].add(j)
    return tuple(frozenset(s) for s in sets)


def sorted_chain_buckets(lo, hi, merged):
    buckets = []
    min_hi = -np.inf
    for j in sorted(merged, key=lambda j: (lo[j], hi[j], j)):
        if buckets and lo[j] <= min_hi:
            buckets[-1].append(j)
            min_hi = min(min_hi, float(hi[j]))
        else:
            buckets.append([j])
            min_hi = float(hi[j])
    return tuple(tuple(sorted(b)) for b in buckets)


def sorted_refine_sets(ranked, merge_sets, buckets, total, rate):
    """Merge sets and buckets (as tuples) after ``refine``'s unmerge step."""
    score_of = {(k, j): score for k, layer_scores in enumerate(ranked) for j, score in layer_scores}
    merged_flat = [(k, j) for k, merged in enumerate(merge_sets) for j in sorted(merged)]
    merged_flat.sort(key=lambda kj: (-score_of[kj], kj[0], kj[1]))
    to_unmerge = set(merged_flat[: max(len(merged_flat) - int(round((1.0 - rate) * total)), 0)])
    new_sets = tuple(
        frozenset(j for j in merged if (k, j) not in to_unmerge) for k, merged in enumerate(merge_sets)
    )
    new_buckets = tuple(
        tuple(kept for bucket in layer if (kept := tuple(j for j in bucket if (k, j) not in to_unmerge)))
        for k, layer in enumerate(buckets)
    )
    return new_sets, new_buckets


def as_pairs(ranking):
    """A ``score_neurons`` ranking as per-layer (index, score) lists, in ranking order."""
    scores, order, offsets = ranking
    scores = scores.tolist()
    return [
        [(j - start, scores[j]) for j in order.tolist() if start <= j < end]
        for start, end in zip(offsets, offsets[1:])
    ]


def as_tuples(layer_buckets):
    members, sizes = layer_buckets
    ends = np.cumsum(sizes)
    return tuple(tuple(members[end - size : end].tolist()) for size, end in zip(sizes, ends))


def dead_relu_net(seed, hidden=(12, 12), dead=(True, True)):
    """A relu net whose chosen hidden layers never fire on the unit box: every score there is 0."""
    from provex.network import ConcreteNetwork, Layer

    base = random_network(6, hidden, 3, "relu", seed=seed)
    layers = tuple(
        Layer(layer.weights, layer.bias - 10.0, layer.activation) if k < len(dead) and dead[k] else layer
        for k, layer in enumerate(base.layers)
    )
    return ConcreteNetwork(layers, base.input_domain)


def ordering_cases():
    """(net, layer bounds) pairs: random sub-boxes of random nets, and dead-relu nets."""
    rng = np.random.default_rng(5)
    for seed in range(40):
        act = ("relu", "sigmoid", "tanh")[seed % 3]
        net, _ = small_net_and_instance(seed, hidden=(12, 10, 8), activation=act)
        lo, hi = random_subbox(net, rng)
        yield net, propagate_box(net, IntervalVector(lo, hi))
    for seed, dead in ((1, (True, True)), (2, (True, False)), (3, (False, True))):
        net = dead_relu_net(seed, dead=dead)
        yield net, propagate_box(net, net.input_domain)


class TestNumpyOrdering:
    """Numpy rankings and buckets reproduce the ``sorted`` forms, ties included."""

    def test_score_ranking(self):
        ties = 0
        for net, lb in ordering_cases():
            pairs = as_pairs(score_neurons(net, lb))
            assert pairs == sorted_score_neurons(net, lb)
            ties += sum(a == b for layer in pairs for (_, a), (_, b) in zip(layer, layer[1:]))
        assert ties > 20  # the dead layers' zero scores break by index

    def test_merge_selection(self):
        for net, lb in ordering_cases():
            ranking = score_neurons(net, lb)
            for rate in (0.1, 0.3, 0.5, 0.77, 0.9, 1.0):
                assert as_sets(abstraction.select_merge_sets(ranking, rate)) == sorted_select_merge_sets(
                    sorted_score_neurons(net, lb), rate
                )

    def test_equal_scores_across_layers_break_by_layer(self):
        # Both hidden layers dead: every score is 0, so layer 0 goes first.
        net = dead_relu_net(1)
        ranking = score_neurons(net, propagate_box(net, net.input_domain))
        sets = as_sets(abstraction.select_merge_sets(ranking, 0.75))
        assert sets == (frozenset(range(6)), frozenset())
        # Scores tied across layers by construction, beside distinct ones:
        # layer 0 scores (1.0, 1.0, 0.5), layer 1 (0.5, 0.5, 1.0).
        ranking = (np.array([1.0, 1.0, 0.5, 0.5, 0.5, 1.0]), np.array([2, 3, 4, 0, 1, 5]), (0, 3, 6))
        pairs = as_pairs(ranking)
        for rate in np.linspace(0.0, 1.0, 7)[1:]:
            assert as_sets(abstraction.select_merge_sets(ranking, rate)) == sorted_select_merge_sets(pairs, rate)

    def test_chain_buckets(self):
        rng = np.random.default_rng(9)
        for trial in range(200):
            n = int(rng.integers(1, 30))
            # Few distinct endpoints, so many ranges share a lower endpoint or both.
            lo = rng.choice([0.0, 0.25, 0.5, 0.75], n)
            hi = lo + rng.choice([0.0, 0.25, 0.5], n)
            merged = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            got = abstraction._chain_buckets(lo, hi, merged)
            assert as_tuples(got) == sorted_chain_buckets(lo, hi, frozenset(merged.tolist()))
        for net, lb in ordering_cases():
            for k, bounds in enumerate(lb.per_layer[:-1]):
                merged = np.arange(0, bounds.lo.size, 2)
                got = abstraction._chain_buckets(bounds.lo, bounds.hi, merged)
                assert as_tuples(got) == sorted_chain_buckets(bounds.lo, bounds.hi, frozenset(merged.tolist()))

    def test_refine_unmerge_order(self):
        for net, lb in ordering_cases():
            ranked = sorted_score_neurons(net, lb)
            anet = build_abstract(net, lb, 0.1)
            for rate in (0.3, 0.55, 0.8, 1.0):
                expected = sorted_refine_sets(
                    ranked, anet.spec.per_layer_merged, [as_tuples(b) for b in anet.buckets],
                    anet.spec.total_hidden, rate,
                )
                anet = refine(net, anet, lb, rate)
                assert anet.spec.per_layer_merged == expected[0]
                assert tuple(as_tuples(b) for b in anet.buckets) == expected[1]


def nonpositive(W):
    return np.clip(W, None, 0.0)


def rebuilt_from_the_input_box(net, lb, merge_sets):
    """The reduction with every bound re-propagated from ``lb.input_box``, as before builds started from ``lb``."""
    from provex.abstraction import AbstractLayer, _absorb_buckets, _chain_buckets
    from provex.bounds import enclose_layer

    lo, hi = lb.input_box.lo, lb.input_box.hi
    keep_prev, absorbed, layers, buckets = None, None, [], []
    for k, layer in enumerate(net.layers):
        lo, hi = enclose_layer(layer, lo, hi)
        bias_lo, bias_hi = absorbed if absorbed is not None else (layer.bias_lo, layer.bias_hi)
        absorbed = None
        merged = merge_sets[k] if k < len(merge_sets) else frozenset()
        if merged:
            layer_buckets = _chain_buckets(lo, hi, np.array(sorted(merged)))
            absorbed, (flat, hull_lo, hull_hi) = _absorb_buckets(net.layers[k + 1], lo, hi, layer_buckets)
            keep = np.array(sorted(set(range(layer.out_dim)) - merged), dtype=int)
            W = layer.weights[keep, :] if keep_prev is None else layer.weights[np.ix_(keep, keep_prev)]
            layers.append(AbstractLayer(W, bias_lo[keep], bias_hi[keep], layer.activation, nonpositive(W)))
            lo[flat], hi[flat] = hull_lo, hull_hi
            keep_prev = keep
            buckets.append(layer_buckets)
        else:
            if keep_prev is not None:
                W = layer.weights[:, keep_prev]
                layers.append(AbstractLayer(W, bias_lo, bias_hi, layer.activation, nonpositive(W)))
            else:
                layers.append(layer)
            keep_prev = None
            if k < len(merge_sets):
                buckets.append(None)
    return layers, buckets


class TestBuildFromBounds:
    """A build starts from the bounds in ``lb`` and matches one that re-propagates them."""

    @staticmethod
    def c07_cases():
        # The nets and boxes of acceptance criterion c07.
        from provex.fixtures import uniform_instances

        for seed in range(50):
            act = ("relu", "sigmoid", "tanh")[seed % 3]
            net = random_network(6, (10, 8), 3, act, seed=seed + 700)
            x = uniform_instances(net, 1, seed=seed)[0]
            rng = np.random.default_rng(seed)
            free = rng.choice(6, size=3, replace=False)
            lo, hi = x.copy(), x.copy()
            lo[free] = np.maximum(0.0, x[free] - 0.2)
            hi[free] = np.minimum(1.0, x[free] + 0.2)
            yield net, IntervalVector(lo, hi)

    @staticmethod
    def assert_same_build(net, lb, anet):
        layers, buckets = rebuilt_from_the_input_box(net, lb, anet.spec.per_layer_merged)
        assert len(layers) == len(anet.layers)
        for k, (got, want) in enumerate(zip(anet.layers, layers)):
            # A source layer is reused as it is; a rebuilt one has the same bytes.
            assert (got is net.layers[k]) == (want is net.layers[k])
            for name in ("weights", "bias_lo", "bias_hi"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        for got, want in zip(anet.buckets, buckets):
            if want is None:
                assert got[0].size == 0 and got[1].size == 0
            else:
                assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        out = propagate_abstract(anet, lb.input_box)
        ref = propagate_abstract(type(anet)(tuple(layers), anet.spec, anet.buckets, anet.build_box), lb.input_box)
        assert out.lo.tobytes() == ref.lo.tobytes() and out.hi.tobytes() == ref.hi.tobytes()

    def test_every_rate_on_the_c07_nets(self):
        for net, box in self.c07_cases():
            lb = propagate_box(net, box)
            for rate in np.round(np.arange(1, 11) / 10, 1):
                self.assert_same_build(net, lb, build_abstract(net, lb, float(rate)))

    def test_layer_zero_untouched(self):
        for net, box in self.c07_cases():
            lb = propagate_box(net, box)
            anet = build_from_merge_sets(net, lb, (frozenset(), frozenset({1, 3, 4, 6})))
            assert anet.layers[0] is net.layers[0]
            self.assert_same_build(net, lb, anet)


def gathered_absorb(next_layer, lo, hi, layer_buckets):
    """The absorbed bias interval as a product over the gathered merged columns alone.

    The reference for ``_absorb_buckets``' full-width product, which has
    exact zeros at the kept neurons: the two differ only in the order of
    summation.
    """
    from provex.bounds import enclose_affine

    flat, sizes = layer_buckets
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    member_of = np.repeat(np.arange(len(sizes)), sizes)
    hull_lo = np.minimum.reduceat(lo[flat], starts)[member_of]
    hull_hi = np.maximum.reduceat(hi[flat], starts)[member_of]
    bias = enclose_affine(
        next_layer.weights[:, flat], next_layer.weights_neg[:, flat],
        hull_lo, hull_hi, next_layer.bias_lo, next_layer.bias_hi,
    )
    return bias, (flat, hull_lo, hull_hi)


def gathered_build(net, lb, merge_sets, buckets=None):
    """A reduction built layer by layer with ``enclose_layer`` and gathered absorption.

    Returns the layers as (weights, weights_neg, bias_lo, bias_hi,
    absorbed) tuples, the buckets, and the bounds each merged
    layer is bucketed and absorbed from, before its hulls are written.
    """
    from provex.bounds import enclose_layer

    hidden = len(net.layers) - 1
    merged_layers = [k for k, merged in enumerate(merge_sets) if merged]
    first, last = (merged_layers[0], merged_layers[-1]) if merged_layers else (-1, -2)
    keep_prev, absorbed, layers, out_buckets, bounds = None, None, [], [], []
    for k, layer in enumerate(net.layers):
        if k == first:
            lo, hi = lb.per_layer[k].lo.copy(), lb.per_layer[k].hi.copy()
        elif first < k <= last:
            lo, hi = enclose_layer(layer, lo, hi)
        bias_lo, bias_hi = absorbed if absorbed is not None else (layer.bias_lo, layer.bias_hi)
        was_absorbed, absorbed = absorbed is not None, None
        merged = sorted(merge_sets[k]) if k < hidden else []
        rows = np.arange(layer.out_dim)
        layer_buckets = abstraction.NO_BUCKETS
        if merged:
            bounds.append((lo.copy(), hi.copy()))
            if buckets is not None:
                layer_buckets = buckets[k]
            else:
                layer_buckets = abstraction._chain_buckets(lo, hi, np.array(merged))
            absorbed, (flat, hull_lo, hull_hi) = gathered_absorb(net.layers[k + 1], lo, hi, layer_buckets)
            lo[flat], hi[flat] = hull_lo, hull_hi
            rows = np.setdiff1d(rows, merged)
        cols = np.arange(layer.in_dim) if keep_prev is None else keep_prev
        pick = np.ix_(rows, cols)
        layers.append((
            layer.weights[pick], layer.weights_neg[pick],
            bias_lo[rows], bias_hi[rows], was_absorbed,
        ))
        keep_prev = rows if merged else None
        if k < hidden:
            out_buckets.append(layer_buckets)
    return layers, out_buckets, bounds


def c03_cases():
    """The nets and boxes of acceptance criterion c03."""
    from provex.fixtures import uniform_instances

    rng = np.random.default_rng(2)
    for seed in range(200):
        act = "relu" if seed % 2 == 0 else "sigmoid"
        net = random_network(6, (12, 10), 3, act, seed=seed + 4000)
        x = uniform_instances(net, 1, seed=seed)[0]
        free = rng.choice(6, size=3, replace=False)
        lo, hi = x.copy(), x.copy()
        lo[free] = np.maximum(0.0, x[free] - 0.15)
        hi[free] = np.minimum(1.0, x[free] + 0.15)
        yield net, IntervalVector(lo, hi)


def mnist_cases():
    """Two boxes of the 784-input sigmoid net: every feature free, and about 30% free."""
    from provex.fixtures import mnist_shape_network, uniform_instances

    net = mnist_shape_network(seed=3)
    x = uniform_instances(net, 1, seed=11)[0]
    lo, hi = np.maximum(0.0, x - 1e-4), np.minimum(1.0, x + 1e-4)
    yield net, IntervalVector(lo, hi)
    fixed = np.random.default_rng(0).random(784) >= 0.3
    yield net, IntervalVector(np.where(fixed, x, lo), np.where(fixed, x, hi))


def reduction_cases():
    """(net, bounds, reductions): each scheduled rate built, and a refine chain from rate 0.1."""
    rates = ReductionSchedule.default().rates
    boxes = [*TestBuildFromBounds.c07_cases(), *c03_cases(), *mnist_cases()]
    for net, box in boxes:
        lb = propagate_box(net, box)
        built = [build_abstract(net, lb, rate) for rate in rates]
        chain = [built[0]]
        for rate in rates[1:]:
            chain.append(refine(net, chain[-1], lb, rate))
        yield net, lb, built, chain


def as_bucket_arrays(layer_buckets):
    """Bucket tuples in the (members, sizes) array form."""
    if not layer_buckets:
        return abstraction.NO_BUCKETS
    return np.array([j for b in layer_buckets for j in b], dtype=int), np.array([len(b) for b in layer_buckets])


class TestGatherFreeBuild:
    """Builds against the reference that gathers merged columns and propagates every layer."""

    @staticmethod
    def assert_matches_reference(net, lb, anet, merge_sets, buckets, monkeypatch):
        seen = []
        absorb = abstraction._absorb_buckets

        def spy(next_layer, lo, hi, layer_buckets):
            seen.append((lo.copy(), hi.copy()))
            return absorb(next_layer, lo, hi, layer_buckets)

        with monkeypatch.context() as patch:
            patch.setattr(abstraction, "_absorb_buckets", spy)
            rebuilt = build_from_merge_sets(net, lb, anet.spec.per_layer_merged, anet.buckets)
        layers, ref_buckets, ref_bounds = gathered_build(net, lb, merge_sets, buckets)
        assert anet.spec.per_layer_merged == merge_sets
        assert len(anet.buckets) == len(ref_buckets)
        for got, want in zip(anet.buckets, ref_buckets):
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        for built in (anet, rebuilt):
            for got, (W, neg, bias_lo, bias_hi, absorbed) in zip(built.layers, layers):
                for name, want in (("weights", W), ("weights_neg", neg)):
                    assert getattr(got, name).shape == want.shape
                    assert getattr(got, name).tobytes() == want.tobytes()
                if absorbed:
                    for have, want in ((got.bias_lo, bias_lo), (got.bias_hi, bias_hi)):
                        assert np.all(np.abs(have - want) <= 1e-12 * (1.0 + np.abs(want)))
                else:
                    assert got.bias_lo.tobytes() == bias_lo.tobytes()
                    assert got.bias_hi.tobytes() == bias_hi.tobytes()
        # Every merged layer is bucketed and absorbed from the reference's
        # bounds, bit for bit: after a fully merged layer these come from its
        # absorbed interval instead of a second pass.
        assert len(seen) == len(ref_bounds)
        for (lo, hi), (want_lo, want_hi) in zip(seen, ref_bounds):
            assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes()
        return len(ref_bounds)

    @staticmethod
    def assert_samples_inside(net, lb, anet, rng):
        """Sampled activations of the kept neurons lie in the reduction's enclosures of the build box."""
        from provex.bounds import enclose_layer
        from provex.intervals import apply_activation

        points = sample_box(lb.input_box, 16, rng)
        lo, hi = lb.input_box.lo, lb.input_box.hi
        merge_sets = anet.spec.per_layer_merged + (frozenset(),)
        for layer, source, merged in zip(anet.layers, net.layers, merge_sets):
            points = apply_activation(source.activation.value, points @ source.weights.T + source.bias)
            lo, hi = enclose_layer(layer, lo, hi)
            kept = points[:, np.setdiff1d(np.arange(source.out_dim), sorted(merged))]
            assert np.all(kept >= lo - 1e-9) and np.all(kept <= hi + 1e-9)

    def test_every_rate_and_refine_chain(self, monkeypatch):
        rng = np.random.default_rng(17)
        rates = ReductionSchedule.default().rates
        fused = 0
        for net, lb, built, chain in reduction_cases():
            ranked = sorted_score_neurons(net, lb)
            for rate, anet in zip(rates, built):
                expected = sorted_select_merge_sets(ranked, rate)
                self.assert_matches_reference(net, lb, anet, expected, None, monkeypatch)
                fused += sum(
                    layer.out_dim == 0 and k < len(anet.layers) - 1 for k, layer in enumerate(anet.layers)
                )
                self.assert_samples_inside(net, lb, anet, rng)
            for prev, anet, rate in zip(chain, chain[1:], rates[1:]):
                sets, buckets = sorted_refine_sets(
                    ranked, prev.spec.per_layer_merged, [as_tuples(b) for b in prev.buckets],
                    prev.spec.total_hidden, rate,
                )
                buckets = tuple(as_bucket_arrays(b) for b in buckets)
                self.assert_matches_reference(net, lb, anet, sets, buckets, monkeypatch)
        assert fused > 100  # layers merged whole, which take the fused path, are covered


class TestHullPass:
    """A hull pass bounds the reduction that a build makes of its box, without building it."""

    @staticmethod
    def cases():
        """c07's two-layer relu, sigmoid and tanh nets, three-layer ones, and the mnist boxes."""
        yield from TestBuildFromBounds.c07_cases()
        for seed in range(24):
            act = ("relu", "sigmoid", "tanh")[seed % 3]
            net = random_network(8, (7, 6, 5), 4, act, seed=seed + 7100)
            x = uniform_instances(net, 1, seed=seed)[0]
            free = np.random.default_rng(seed).random(8) < 0.5
            lo, hi = np.maximum(0.0, x - 0.25), np.minimum(1.0, x + 0.25)
            yield net, IntervalVector(np.where(free, lo, x), np.where(free, hi, x))
        yield from mnist_cases()

    def test_every_rate_against_the_built_reduction(self):
        from provex.abstraction import hull_pass, select_merge_sets
        from provex.network import predict
        from provex.queries import _separation

        def close(got, want):
            return np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))

        rng = np.random.default_rng(31)
        unreduced = whole = partial = separated = 0
        for net, box in self.cases():
            lb = propagate_box(net, box)
            ranked = score_neurons(net, lb)
            target = predict(net, (box.lo + box.hi) / 2)
            # The box itself and boxes inside it: each one's concrete enclosure.
            inner = [lb.final]
            for _ in range(3):
                a, b = sample_box(box, 2, rng)
                inner.append(propagate_box(net, IntervalVector(np.minimum(a, b), np.maximum(a, b))).final)
            for rate in ReductionSchedule.default().rates:
                merged = select_merge_sets(ranked, rate)
                lo, hi = hull_pass(net, lb, merged)
                anet = build_from_merge_sets(net, lb, merged)
                want = propagate_abstract(anet, box)
                assert close(lo, want.lo) and close(hi, want.hi)
                for got_lo, got_hi in ((lo, hi), (want.lo, want.hi)):
                    for enclosure in inner:
                        slack = 1e-12 * (1.0 + np.abs(enclosure.lo)), 1e-12 * (1.0 + np.abs(enclosure.hi))
                        assert np.all(got_lo <= enclosure.lo + slack[0]) and np.all(enclosure.hi <= got_hi + slack[1])
                assert net.neuron_count - sum(m.size for m in merged) == anet.neuron_count
                _, proved = _separation(lo, hi, target)
                want_margin, want_proved = _separation(want.lo, want.hi, target)
                assert proved == want_proved or abs(want_margin) <= 1e-12
                separated += bool(proved)
                sizes = [m.size for m in merged]
                unreduced += not any(sizes)
                whole += any(size == width for size, width in zip(sizes, net.hidden_sizes))
                partial += any(0 < size < width for size, width in zip(sizes, net.hidden_sizes))
                if not any(sizes):
                    assert lo.tobytes() == lb.final.lo.tobytes() and hi.tobytes() == lb.final.hi.tobytes()
        assert min(unreduced, whole, partial, separated) > 20

    def test_a_layer_merged_whole_keeps_the_build_bits(self):
        # Up to and after a layer merged whole, the hull pass is the build's
        # pass bit for bit: only a partly merged layer changes the rounding.
        from provex.abstraction import hull_pass

        checked = 0
        for net, box in TestBuildFromBounds.c07_cases():
            lb = propagate_box(net, box)
            merged = (np.arange(net.hidden_sizes[0]), np.empty(0, dtype=int))
            lo, hi = hull_pass(net, lb, merged)
            want = propagate_abstract(build_from_merge_sets(net, lb, merged), box)
            assert lo.tobytes() == want.lo.tobytes() and hi.tobytes() == want.hi.tobytes()
            checked += 1
        assert checked == 50
