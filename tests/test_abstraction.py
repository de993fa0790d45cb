"""Neuron merging: scoring, construction, containment, and refinement nesting."""

import numpy as np
import pytest

from conftest import make_query, random_subbox, small_net_and_instance
from provex.abstraction import (
    ReductionSchedule,
    build_abstract,
    build_from_merge_sets,
    refine,
    score_neurons,
)
from provex.bounds import propagate_abstract, propagate_box, sample_box
from provex.errors import ValidationError
from provex.fixtures import random_network
from provex.intervals import IntervalVector, iv_subset
from provex.network import forward_batch
from provex.queries import check_abstract


class TestScoring:
    def test_saturated_neuron_ranked_first(self):
        # A neuron whose activation range has near-zero width scores ~0.
        net = random_network(4, (6,), 2, "sigmoid", seed=1)
        lb = propagate_box(net, net.input_domain)
        widths = lb.per_layer[0].width.copy()
        ranked = score_neurons(net, lb)[0]
        narrow = int(np.argmin(widths))
        head = [j for j, _ in ranked[:3]]
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
        ranked = dict(score_neurons(cut, lb)[0])
        assert ranked[0] == 0.0

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
        with pytest.raises(ValidationError):
            score_neurons(net_b, lb)
        with pytest.raises(ValidationError):
            build_abstract(net_b, lb, 0.5)


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

    def test_untouched_layers_are_the_source_layers(self):
        # Only layers next to a merged layer are rebuilt; the rest are reused.
        net, _ = small_net_and_instance(5, hidden=(10, 8, 6))
        lb = propagate_box(net, net.input_domain)
        anet = build_from_merge_sets(net, lb, (frozenset(), frozenset({1, 4}), frozenset()))
        reused = [al is cl for al, cl in zip(anet.layers, net.layers)]
        assert reused == [True, False, False, True]
        assert (anet.input_dim, anet.output_dim) == (net.input_dim, net.output_dim)
        assert anet.reduction_rate == anet.spec.reduction_rate == 22 / 24

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
        assert a.buckets == b.buckets
        out_a = propagate_abstract(a, net.input_domain)
        out_b = propagate_abstract(b, net.input_domain)
        np.testing.assert_array_equal(out_a.lo, out_b.lo)

    def test_merge_rate_accounting(self):
        net, _ = small_net_and_instance(4, hidden=(10, 10))
        lb = propagate_box(net, net.input_domain)
        anet = build_abstract(net, lb, 0.4)
        assert anet.spec.merged_count == round(0.6 * 20)
        assert anet.reduction_rate == pytest.approx(1 - anet.spec.merged_count / 20)
        assert anet.spec.query_fingerprint == lb.box_fingerprint


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

    def test_refined_merge_sets_nest(self):
        net, _ = small_net_and_instance(11, hidden=(12, 12))
        lb = propagate_box(net, net.input_domain)
        coarse = build_abstract(net, lb, 0.3)
        fine = refine(net, coarse, lb, 0.6)
        for small, big in zip(fine.spec.per_layer_merged, coarse.spec.per_layer_merged):
            assert small <= big
        assert fine.spec.merged_count < coarse.spec.merged_count

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

    def test_next_after(self):
        sched = ReductionSchedule((0.25, 0.5, 1.0))
        assert sched.next_after(0.25) == 0.5
        assert sched.next_after(0.7) == 1.0
        assert sched.next_after(1.0) is None

    def test_from_string(self):
        sched = ReductionSchedule.from_string("0.1,0.4,1.0")
        assert sched.rates == (0.1, 0.4, 1.0)
