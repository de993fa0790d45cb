"""Sufficiency verdicts, counterexample search, and the branch-and-bound oracle."""

import tracemalloc

import numpy as np
import pytest

from conftest import make_query, small_net_and_instance
from test_kernel_bits import reference_candidates, reference_find_witnesses, screen_cases
from provex.abstraction import build_abstract, build_from_merge_sets, refine
from provex.bounds import propagate_abstract, propagate_box, propagate_rows, sample_box
from provex.errors import DimensionError, ValidationError
from provex.explain import explain_abstraction_refinement, explain_baseline
from provex.fixtures import random_network, uniform_instances
from provex.intervals import IntervalVector
from provex import queries
from provex.network import ConcreteNetwork, Layer, forward, forward_batch, gradient, predict
from provex.queries import (
    OracleOutcome,
    OracleResult,
    RegressionQuery,
    SufficiencyQuery,
    VerdictKind,
    _candidate_rows,
    _candidates,
    _gap_corners,
    _separation,
    check_abstract,
    check_concrete,
    check_regression,
    find_witnesses,
    gen_counterexample,
    oracle_check,
    sample_draws,
)


def reference_oracle(net, q, budget):
    """The oracle's plain form: a depth-first stack of boxes, each through ``propagate_box``."""
    stack = [q.query_box()]
    splits = evaluations = 0
    while stack:
        box = stack.pop()
        out = propagate_box(net, box).final
        evaluations += 1
        if _separation(out.lo, out.hi, q.target)[1]:
            continue
        witness = find_witnesses(net, q.target, box.lo[None], box.hi[None], out.hi[None], None, 0)[0]
        if witness is not None:
            return OracleResult(OracleOutcome.WITNESS, witness, splits, evaluations)
        dim = int(np.argmax(box.width))
        if box.width[dim] <= 0.0:
            continue
        if splits >= budget:
            return OracleResult(OracleOutcome.EXHAUSTED, None, splits, evaluations)
        splits += 1
        mid = 0.5 * (box.lo[dim] + box.hi[dim])
        lo_hi = box.hi.copy()
        lo_hi[dim] = mid
        hi_lo = box.lo.copy()
        hi_lo[dim] = mid
        stack.append(IntervalVector(hi_lo, box.hi))
        stack.append(IntervalVector(box.lo, lo_hi))
    return OracleResult(OracleOutcome.PROVED_SUFFICIENT, None, splits, evaluations)


class TestQueryBox:
    def test_fixed_dimensions_pin_to_instance(self, demo):
        net, x = demo
        q = make_query(net, x, fixed={1, 2}, epsilon=1.0)
        box = q.query_box()
        np.testing.assert_array_equal(box.lo, [0, 1, 1])
        np.testing.assert_array_equal(box.hi, [1, 1, 1])

    def test_free_dimensions_clamp_to_domain(self, demo):
        net, x = demo
        q = make_query(net, x, fixed=set(), epsilon=10.0)
        box = q.query_box()
        np.testing.assert_array_equal(box.lo, net.input_domain.lo)
        np.testing.assert_array_equal(box.hi, net.input_domain.hi)

    def test_small_epsilon_window(self, demo):
        net, x = demo
        q = make_query(net, x, fixed={1, 2}, epsilon=0.25)
        box = q.query_box()
        assert box.lo[0] == 0.0  # clamped at the domain floor
        assert box.hi[0] == 0.25

    def test_validation(self, demo):
        net, x = demo
        with pytest.raises(ValidationError):
            SufficiencyQuery(x, frozenset({7}), 0.1, 1, net.input_domain)
        with pytest.raises(ValidationError):
            SufficiencyQuery(x, frozenset(), -0.1, 1, net.input_domain)

    @pytest.mark.parametrize("epsilon", [float("nan"), -0.1])
    def test_epsilon_that_is_no_nonnegative_number_is_named(self, demo, epsilon):
        net, x = demo
        with pytest.raises(ValidationError, match=f"epsilon must be nonnegative, got {epsilon}"):
            SufficiencyQuery(x, frozenset(), epsilon, 1, net.input_domain)
        with pytest.raises(ValidationError, match="epsilon"):
            RegressionQuery(x, frozenset(), epsilon, 1.0, net.input_domain)

    @pytest.mark.parametrize("delta", [float("nan"), 0.0])
    def test_delta_that_is_no_positive_number_is_named(self, demo, delta):
        net, x = demo
        with pytest.raises(ValidationError, match=f"delta must be positive, got {delta}"):
            RegressionQuery(x, frozenset(), 0.1, delta, net.input_domain)

    def test_non_integer_fixed_feature_is_named(self, demo):
        # A float index was truncated to the feature below it.
        net, x = demo
        with pytest.raises(ValidationError, match="fixed_features must hold integer indices, got 1.5"):
            SufficiencyQuery(x, frozenset({0, 1.5}), 0.1, 1, net.input_domain)
        with pytest.raises(ValidationError, match="fixed_features"):
            RegressionQuery(x, frozenset({1.0}), 0.1, 1.0, net.input_domain)
        q = SufficiencyQuery(x, frozenset({np.int64(1), np.int32(2)}), 0.1, 1, net.input_domain)
        assert q.fixed_features == {1, 2} and all(type(i) is int for i in q.fixed_features)
        assert RegressionQuery(x, frozenset({np.int64(0)}), 0.1, 1.0, net.input_domain).fixed_features == {0}

    @pytest.mark.parametrize("target", [1.0, "1", True, None])
    def test_non_integer_target_is_named(self, demo, target):
        net, x = demo
        with pytest.raises(ValidationError, match="target must be an integer class index"):
            SufficiencyQuery(x, frozenset(), 0.1, target, net.input_domain)

    def test_numpy_integer_target_is_valid(self, demo):
        net, x = demo
        q = SufficiencyQuery(x, frozenset(), 0.1, np.int64(predict(net, x)), net.input_domain)
        assert type(q.target) is int
        assert check_concrete(net, q).kind is check_concrete(net, make_query(net, x, set(), 0.1)).kind

    def test_instance_outside_domain_rejected(self):
        net = ConcreteNetwork((Layer(np.array([[1.0], [-1.0]]), np.array([0.0, 1.0]), "identity"),))
        scalar = ConcreteNetwork((Layer(np.array([[1.0]]), np.zeros(1), "identity"),))
        with pytest.raises(ValidationError, match="outside the domain"):
            SufficiencyQuery(np.array([2.0]), frozenset(), 0.1, 0, net.input_domain)
        with pytest.raises(ValidationError, match="outside the domain"):
            RegressionQuery(np.array([2.0]), frozenset(), 0.1, 1.0, scalar.input_domain)
        with pytest.raises(ValidationError, match="outside the domain"):
            RegressionQuery(np.array([-1e-9]), frozenset(), 0.1, 1.0, scalar.input_domain)


class TestQueryCheck:
    """Every check of a sufficiency query rejects a box outside the network's domain."""

    @pytest.mark.parametrize(
        "check",
        [
            check_concrete,
            lambda net, q: gen_counterexample(net, IntervalVector(np.full(3, -9.0), np.full(3, 9.0)), q),
            oracle_check,
        ],
        ids=["check_concrete", "gen_counterexample", "oracle_check"],
    )
    def test_box_outside_the_network_domain_rejected(self, check):
        # The query's own domain, [-1, 2]^4, is wider than the network's [0, 1]^4.
        net, x = small_net_and_instance(1, input_dim=4, hidden=(6,), output_dim=3)
        wide = IntervalVector(np.full(4, -1.0), np.full(4, 2.0))
        q = SufficiencyQuery(x, frozenset(), 0.9, predict(net, x), wide)
        with pytest.raises(ValidationError, match="^input box exceeds the network's input domain$"):
            check(net, q)


class TestCheckConcrete:
    def test_demo_two_fixed_features_sufficient(self, demo):
        net, x = demo
        v = check_concrete(net, make_query(net, x, fixed={1, 2}, epsilon=1.0))
        assert v.is_sufficient
        assert v.margin == pytest.approx(46 - 22)

    def test_all_fixed_always_sufficient(self):
        for seed in range(5):
            net, x = small_net_and_instance(seed)
            q = make_query(net, x, fixed=set(range(net.input_dim)), epsilon=100.0)
            assert check_concrete(net, q).is_sufficient

    def test_zero_epsilon_always_sufficient(self):
        for seed in range(5):
            net, x = small_net_and_instance(seed)
            q = make_query(net, x, fixed=set(), epsilon=0.0)
            assert check_concrete(net, q).is_sufficient

    def test_target_mismatch_rejected(self, demo):
        net, x = demo
        q = SufficiencyQuery(x, frozenset(), 0.1, 0, net.input_domain)
        with pytest.raises(ValidationError):
            check_concrete(net, q)

    def test_witness_is_valid_when_produced(self):
        found = 0
        for seed in range(30):
            net, x = small_net_and_instance(seed, input_dim=5, hidden=(8,), output_dim=3)
            q = make_query(net, x, fixed=set(), epsilon=0.6)
            v = check_concrete(net, q, rng=np.random.default_rng(seed))
            if v.is_insufficient:
                found += 1
                assert q.query_box().contains_point(v.witness)
                assert predict(net, v.witness) != q.target
        assert found > 0

    def test_monotone_in_fixed_set(self):
        # Fixing more features shrinks the box, so an enclosure-sufficient
        # verdict survives growing the fixed set.
        rng = np.random.default_rng(0)
        for seed in range(20):
            net, x = small_net_and_instance(seed)
            all_feats = list(range(net.input_dim))
            base = set(rng.choice(all_feats, size=3, replace=False).tolist())
            q_small = make_query(net, x, fixed=base, epsilon=0.1)
            if check_concrete(net, q_small).is_sufficient:
                bigger = base | {int(rng.integers(net.input_dim))}
                q_big = make_query(net, x, fixed=bigger, epsilon=0.1)
                assert check_concrete(net, q_big).is_sufficient


class TestCheckAbstract:
    def test_fully_merged_overlap_is_uncertain(self, demo):
        net, x = demo
        q = make_query(net, x, fixed={2}, epsilon=1.0)
        lb = propagate_box(net, q.query_box())
        anet = build_from_merge_sets(net, lb, (frozenset({0, 1, 2}),))
        v = check_abstract(anet, q)
        assert v.kind is VerdictKind.UNCERTAIN
        assert v.margin == pytest.approx(17 - 28)

    def test_refined_is_sufficient(self, demo):
        net, x = demo
        q = make_query(net, x, fixed={2}, epsilon=1.0)
        lb = propagate_box(net, q.query_box())
        anet = build_from_merge_sets(net, lb, (frozenset({0, 1}),))
        v = check_abstract(anet, q)
        assert v.is_sufficient
        assert v.margin == pytest.approx(37 - 22)

    def test_unreduced_matches_concrete_enclosure_phase(self):
        for seed in range(10):
            net, x = small_net_and_instance(seed)
            q = make_query(net, x, fixed={0, 1, 2}, epsilon=0.2)
            lb = propagate_box(net, q.query_box())
            anet = build_abstract(net, lb, 1.0)
            abstract = check_abstract(anet, q)
            concrete = check_concrete(net, q)
            assert abstract.is_sufficient == concrete.is_sufficient
            if abstract.is_sufficient:
                assert abstract.margin == pytest.approx(concrete.margin, abs=1e-12)

    def test_never_returns_witness(self):
        for seed in range(10):
            net, x = small_net_and_instance(seed)
            q = make_query(net, x, fixed=set(), epsilon=0.5)
            lb = propagate_box(net, q.query_box())
            anet = build_abstract(net, lb, 0.5)
            assert check_abstract(anet, q).kind is not VerdictKind.INSUFFICIENT

    def test_target_out_of_range_is_named(self):
        net, x = small_net_and_instance(1)
        q = SufficiencyQuery(x, frozenset(), 0.3, 7, net.input_domain)
        anet = build_abstract(net, propagate_box(net, q.query_box()), 0.5)
        with pytest.raises(DimensionError, match="^target 7 out of range for 3 classes$"):
            check_abstract(anet, q)


class TestCheckRegression:
    def scalar_net(self, seed):
        return random_network(5, (8, 6), 1, "tanh", seed=seed)

    def test_wide_delta_sufficient(self):
        net = self.scalar_net(1)
        x = uniform_instances(net, 1, seed=1)[0]
        q = RegressionQuery(x, frozenset(), 0.05, 100.0, net.input_domain)
        assert check_regression(net, q).is_sufficient

    def test_all_fixed_sufficient(self):
        net = self.scalar_net(2)
        x = uniform_instances(net, 1, seed=2)[0]
        q = RegressionQuery(x, frozenset(range(5)), 1.0, 1e-6, net.input_domain)
        assert check_regression(net, q).is_sufficient

    def test_tiny_delta_wide_epsilon_yields_witness(self):
        found = 0
        for seed in range(20):
            net = self.scalar_net(seed)
            x = uniform_instances(net, 1, seed=seed)[0]
            q = RegressionQuery(x, frozenset(), 1.0, 1e-4, net.input_domain)
            v = check_regression(net, q, rng=np.random.default_rng(seed))
            if v.is_insufficient:
                found += 1
                ref = forward(net, x)[0]
                assert abs(forward(net, v.witness)[0] - ref) > q.delta
                assert q.query_box().contains_point(v.witness)
        assert found >= 15

    def test_a_candidate_forward_never_confirms_is_no_witness(self, monkeypatch):
        # A forward that gives every point the output of x: the pass of the
        # candidates still flags some, but none is confirmed on its own row.
        flagged = 0
        for seed in range(20):
            net = self.scalar_net(seed)
            x = uniform_instances(net, 1, seed=seed)[0]
            q = RegressionQuery(x, frozenset(), 1.0, 1e-4, net.input_domain)
            plain = check_regression(net, q, rng=np.random.default_rng(seed))
            monkeypatch.setattr(queries, "forward", lambda net_, point: forward(net_, x))
            v = check_regression(net, q, rng=np.random.default_rng(seed))
            monkeypatch.undo()
            assert v.kind is VerdictKind.UNCERTAIN and v.witness is None
            assert v.margin == plain.margin
            flagged += plain.is_insufficient
        assert flagged >= 15

    def test_the_draw_covers_only_the_free_features(self):
        witnessed = 0
        for seed in range(10):
            net = self.scalar_net(seed)
            x = uniform_instances(net, 1, seed=seed)[0]
            q = RegressionQuery(x, frozenset({0, 2}), 1.0, 1e-4, net.input_domain)
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            v = check_regression(net, q, rng=ours)
            assert not v.is_sufficient
            theirs.random((1, 64, 3))
            assert ours.bit_generator.state == theirs.bit_generator.state
            if v.is_insufficient:
                assert v.witness[[0, 2]].tobytes() == x[[0, 2]].tobytes()
                witnessed += 1
        assert witnessed > 0

    def test_multi_output_rejected(self, demo):
        net, x = demo
        q = RegressionQuery(x, frozenset(), 0.1, 1.0, net.input_domain)
        with pytest.raises(ValidationError):
            check_regression(net, q)

    def test_no_sufficient_verdict_contradicted_by_grid(self):
        # One-sided agreement with a dense-grid falsifier.
        for seed in range(15):
            net = self.scalar_net(seed + 50)
            x = uniform_instances(net, 1, seed=seed)[0]
            free = (0, 1)
            fixed = frozenset(range(5)) - frozenset(free)
            q = RegressionQuery(x, fixed, 0.4, 0.05, net.input_domain)
            v = check_regression(net, q)
            if v.is_sufficient:
                box = q.query_box()
                grid_pts = []
                for a in np.linspace(box.lo[0], box.hi[0], 17):
                    for b in np.linspace(box.lo[1], box.hi[1], 17):
                        p = x.copy()
                        p[0], p[1] = a, b
                        grid_pts.append(p)
                vals = forward_batch(net, np.asarray(grid_pts))[:, 0]
                ref = forward(net, x)[0]
                assert np.all(np.abs(vals - ref) <= q.delta + 1e-12)


class TestTieBreaking:
    """predict() breaks logit ties toward the lower index; verdicts must agree."""

    def tie_case(self):
        # logits = (x, 1 - x): at x = 0.25 class 1 wins, but x = 0.5 ties and
        # predict picks class 0, and x = 0.5 lies in the 0.25-box around 0.25.
        net = ConcreteNetwork((Layer(np.array([[1.0], [-1.0]]), np.array([0.0, 1.0]), "identity"),))
        x = np.array([0.25])
        return net, x, make_query(net, x, fixed=set(), epsilon=0.25)

    def test_tie_with_lower_class_is_not_sufficient(self):
        net, x, q = self.tie_case()
        assert q.target == 1 and predict(net, np.array([0.5])) == 0
        v = check_concrete(net, q)
        assert v.margin == 0.0
        assert v.is_insufficient
        assert predict(net, v.witness) == 0
        anet = build_abstract(net, propagate_box(net, q.query_box()), 1.0)
        assert not check_abstract(anet, q).is_sufficient

    def test_oracle_refutes_the_tie(self):
        net, x, q = self.tie_case()
        result = oracle_check(net, q)
        assert result.outcome is OracleOutcome.WITNESS
        assert predict(net, result.witness) == 0

    def test_searches_keep_the_feature(self):
        net, x, _ = self.tie_case()
        for search in (explain_baseline, explain_abstraction_refinement):
            kept, trace = search(net, x, 0.25)
            assert kept == frozenset({0})
            assert trace.final == ("1",)

    def test_tie_with_higher_class_is_sufficient(self):
        # Mirrored: logits = (1 - x, x) at x = 0.75, so the runner-up that
        # touches the target sits above it and predict keeps class 0.
        net = ConcreteNetwork((Layer(np.array([[-1.0], [1.0]]), np.array([1.0, 0.0]), "identity"),))
        x = np.array([0.25])
        q = make_query(net, x, fixed=set(), epsilon=0.25)
        assert q.target == 0 and predict(net, np.array([0.5])) == 0
        v = check_concrete(net, q)
        assert v.margin == 0.0 and v.is_sufficient
        assert oracle_check(net, q).proved


def rebuilt(candidate, order):
    """Every candidate of a ``_candidates`` call as an input row, shape (boxes, candidates, inputs)."""
    return np.array([[candidate(b, j) for j in range(order.shape[1])] for b in range(order.shape[0])])


class TestCandidates:
    def test_order_center_corners_then_samples(self):
        net, x = small_net_and_instance(3, input_dim=5, hidden=(8,), output_dim=3)
        q = make_query(net, x, fixed={1, 3}, epsilon=0.3)
        box = q.query_box()
        up = np.array([True, False, True, False, False])
        _, order, candidate = _candidates(
            net.layers[0], box.lo[None], box.hi[None], np.stack([up, ~up])[None], np.random.default_rng(5), 4
        )
        cands = rebuilt(candidate, order)[0]
        assert cands.shape == (7, 5)
        np.testing.assert_array_equal(cands[0], box.midpoint)
        for row, mask in zip(cands[1:3], (up, ~up)):
            expected = np.where(mask, box.hi, box.lo)
            expected[[1, 3]] = x[[1, 3]]
            np.testing.assert_array_equal(row, expected)
        # The samples are drawn over the free features alone; the fixed ones keep x.
        free = [0, 2, 4]
        sample = np.random.default_rng(5).uniform(box.lo[free], box.hi[free], (4, 3))
        np.testing.assert_array_equal(cands[3:][:, free], sample)
        np.testing.assert_array_equal(cands[3:][:, [1, 3]], np.tile(x[[1, 3]], (4, 1)))

    def test_one_draw_for_many_boxes_equals_one_draw_per_box(self):
        # Every feature is free in some box, so each box's samples are a whole-box draw of its own.
        net, x = small_net_and_instance(3, input_dim=5, hidden=(8,), output_dim=3)
        boxes = [make_query(net, x, fixed=fixed, epsilon=0.3).query_box() for fixed in ({1, 3}, set(), {0, 2, 4})]
        lo = np.stack([b.lo for b in boxes])
        hi = np.stack([b.hi for b in boxes])
        corners = np.zeros((3, 2, 5), dtype=bool)
        _, order, candidate = _candidates(net.layers[0], lo, hi, corners, np.random.default_rng(8), 6)
        cands = rebuilt(candidate, order)
        rng = np.random.default_rng(8)
        for b, box in enumerate(boxes):
            np.testing.assert_array_equal(cands[b, 3:], sample_box(box, 6, rng))

    @pytest.mark.parametrize("inputs", [100, 784])
    @pytest.mark.parametrize("boxes", [1, 16])
    def test_samples_are_numpys_uniform_draw(self, inputs, boxes):
        # The candidates' samples must be rng.uniform's bits over the
        # features free in some box, and leave the generator where that
        # draw leaves it; sample_box must be rng.uniform's bits over the
        # whole box, degenerate (fixed) features included.  If numpy
        # changes its formula, this fails.
        rng = np.random.default_rng(inputs + boxes)
        lo = rng.uniform(0.0, 0.9, (boxes, inputs))
        hi = lo + rng.uniform(0.0, 0.1, (boxes, inputs))
        hi[:, ::3] = lo[:, ::3]
        hi[1:2] = lo[1:2]  # with 16 boxes, one wholly degenerate box
        free = np.flatnonzero((hi > lo).any(axis=0))
        shape = (boxes, 64, free.size)
        ours, numpys = np.random.default_rng(7), np.random.default_rng(7)
        layer = Layer(np.ones((2, inputs)), np.zeros(2), "relu")
        _, order, candidate = _candidates(layer, lo, hi, np.zeros((boxes, 0, inputs), dtype=bool), ours, 64)
        cands = rebuilt(candidate, order)[:, 1:]
        want = numpys.uniform(np.broadcast_to(lo[:, None, free], shape), np.broadcast_to(hi[:, None, free], shape))
        assert cands[..., free].tobytes() == want.tobytes()
        fixed = np.setdiff1d(np.arange(inputs), free)
        assert cands[..., fixed].tobytes() == np.repeat(lo[:, None, fixed], 64, axis=1).tobytes()
        assert ours.bit_generator.state == numpys.bit_generator.state
        box = IntervalVector(lo[-1], hi[-1])
        got = sample_box(box, 5, ours)
        want = numpys.uniform(np.broadcast_to(box.lo, (5, inputs)), np.broadcast_to(box.hi, (5, inputs)))
        assert got.tobytes() == want.tobytes()
        assert ours.bit_generator.state == numpys.bit_generator.state

    def test_verdict_carries_the_enclosure_it_was_decided_on(self):
        net, x = small_net_and_instance(4)
        q = make_query(net, x, fixed={0, 1}, epsilon=0.3)
        lb = propagate_box(net, q.query_box())
        anet = build_abstract(net, lb, 0.5)
        out = check_abstract(anet, q).enclosure
        assert out == propagate_abstract(anet, q.query_box())


def bump_net(classes):
    """A net on two inputs whose output is a bump of height 0.1 at x0 = 0.3; x1 has no weight.

    With one output the output is the bump; with two, class 1's logit is
    the bump and class 0's is 0.05.  Over x0 in [0, 1] the center and the
    corners lie off the bump and the gradient at the center is zero, so
    only a random sample can be a witness.
    """
    first = Layer(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-0.3, 0.3]), "relu")
    bump = Layer(np.array([[-1.0, -1.0]]), np.array([0.1]), "relu")
    if classes == 1:
        return ConcreteNetwork((first, bump, Layer(np.array([[1.0]]), np.array([0.0]), "identity")))
    return ConcreteNetwork((first, bump, Layer(np.array([[0.0], [1.0]]), np.array([0.05, 0.0]), "identity")))


class TestSampleBlocks:
    """Samples are drawn and multiplied in blocks of boxes, and a flagged one is drawn again."""

    def test_a_search_moves_its_generator_by_its_draw_count(self):
        drawn = 0
        for seed, net, target, lo, hi, out_hi, n_random in screen_cases(30):
            for hi in (hi, lo):  # with free features, then point boxes
                ours, advanced = np.random.default_rng(seed), np.random.default_rng(seed)
                find_witnesses(net, target, lo, hi, out_hi, ours, n_random)
                draws = sample_draws(lo, hi, n_random)
                advanced.bit_generator.advance(draws)
                assert ours.bit_generator.state == advanced.bit_generator.state
                assert (draws == 0) == (hi is lo or n_random == 0)
                drawn += draws > 0
        assert drawn > 0

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
    def test_witnesses_rebuilt_from_samples_are_the_drawn_rows(self, bit_generator):
        x = np.array([0.5, 0.4])
        found = 0
        for seed in range(10):
            for classes in (1, 2):
                net = bump_net(classes)
                if classes == 1:
                    q = RegressionQuery(x, frozenset({1}), 0.5, 0.05, net.input_domain)
                    got = check_regression(net, q, np.random.Generator(bit_generator(seed))).witness
                else:
                    q = SufficiencyQuery(x, frozenset({1}), 0.5, 0, net.input_domain)
                    got = check_concrete(net, q, np.random.Generator(bit_generator(seed))).witness
                box = q.query_box()
                lo, hi = box.lo[None], box.hi[None]
                theirs = np.random.Generator(bit_generator(seed))
                if classes == 1:
                    # The regression candidates, every row evaluated whole.
                    up = gradient(net, box.midpoint, 0) > 0
                    cands = reference_candidates(lo, hi, np.stack([up, ~up])[None], theirs, 64, np.array([0]))[0]
                    far = [c for c in cands if abs(forward(net, c)[0] - forward(net, x)[0]) > q.delta]
                    want = far[0] if far else None
                else:
                    out_hi = propagate_rows(net.layers, lo, hi)[1]
                    want = reference_find_witnesses(net, 0, lo, hi, out_hi, theirs)[0]
                assert (got is None) == (want is None)
                if want is not None:
                    assert got.tobytes() == want.tobytes()
                    assert got.tobytes() not in {box.midpoint.tobytes(), box.lo.tobytes(), box.hi.tobytes()}
                    found += 1
        assert found >= 15

    @pytest.mark.parametrize("block", [1, 2000])
    def test_small_blocks_keep_the_witnesses_and_the_stream(self, block, monkeypatch):
        # Blocks of one box's samples over every input, and of 2000 offsets.
        monkeypatch.setattr(queries, "SAMPLE_BLOCK", block)
        found = 0
        for seed, net, target, lo, hi, out_hi, n_random in screen_cases(60):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = find_witnesses(net, target, lo, hi, out_hi, ours, n_random)
            want = reference_find_witnesses(net, target, lo, hi, out_hi, theirs, n_random)
            assert [g is None for g in got] == [w is None for w in want]
            assert all(w is None or g.tobytes() == w.tobytes() for g, w in zip(got, want))
            assert ours.bit_generator.state == theirs.bit_generator.state
            found += sum(w is not None for w in want)
        assert found > 100

    def test_a_search_holds_one_block_of_offsets(self, monkeypatch):
        # 16 mnist boxes, every feature free in some box: all their offsets
        # at once take 16 * 64 * 784 doubles, 6.4 MB, and blocks one box's.
        from provex.fixtures import mnist_shape_network

        net = mnist_shape_network(seed=3)
        x = uniform_instances(net, 1, seed=11)[0]
        free = np.random.default_rng(5).random((16, 784)) < 0.65
        lo, hi = np.where(free, np.maximum(0.0, x - 1e-4), x), np.where(free, np.minimum(1.0, x + 1e-4), x)
        out_hi = propagate_rows(net.layers, lo, hi)[1]
        target = predict(net, x)

        def peak():
            find_witnesses(net, target, lo, hi, out_hi, np.random.default_rng(0))
            tracemalloc.start()
            try:
                find_witnesses(net, target, lo, hi, out_hi, np.random.default_rng(0))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(queries, "SAMPLE_BLOCK", 1 << 15)
        blocked = peak()
        monkeypatch.setattr(queries, "SAMPLE_BLOCK", None)
        whole = peak()
        assert whole - blocked > 0.9 * 15 * 64 * 784 * 8


@pytest.mark.parametrize("rng", [5, "seed", np.random.RandomState(0)], ids=["int", "str", "RandomState"])
@pytest.mark.parametrize("epsilon", [0.9, 0.0], ids=["witness-search", "separated"])
def test_rng_that_is_no_generator_is_named(rng, epsilon):
    # It raised a bare AttributeError or TypeError inside the witness search,
    # or was accepted where the enclosure decided the query.
    net = random_network(4, (6,), 3, "relu", seed=1)
    x = np.full(4, 0.5)
    q = make_query(net, x, fixed=set(), epsilon=epsilon)
    scalar = random_network(4, (6,), 1, "relu", seed=1)
    calls = [
        lambda: check_concrete(net, q, rng=rng),
        lambda: gen_counterexample(net, propagate_box(net, q.query_box()).final, q, rng=rng),
        lambda: check_regression(scalar, RegressionQuery(x, frozenset(), epsilon, 1e-9, scalar.input_domain), rng=rng),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="^rng must be a numpy Generator or None, got "):
            call()


class TestGenCounterexample:
    def test_degenerate_box_never_yields_witness(self):
        for seed in range(5):
            net, x = small_net_and_instance(seed)
            q = make_query(net, x, fixed=set(), epsilon=0.0)
            lb = propagate_box(net, q.query_box())
            anet = build_abstract(net, lb, 0.5)
            assert gen_counterexample(net, check_abstract(anet, q).enclosure, q) is None

    def test_corner_candidate_is_optimal_for_linear_net(self):
        # For a linear two-class network, the gradient-sign corner attains
        # the exact maximum of the runner-up logit gap over the box.
        rng = np.random.default_rng(4)
        W = rng.normal(size=(2, 5))
        net = ConcreteNetwork((Layer(W, np.array([1.0, 0.0]), "identity"),))
        x = np.full(5, 0.5)
        q = make_query(net, x, fixed={0}, epsilon=0.3)
        box = q.query_box()
        out = propagate_box(net, box).final
        t = q.target
        j = 1 - t
        corners = _gap_corners(net, t, box.lo[None], box.hi[None], out.hi[None])
        cands = _candidate_rows(box.lo[None], box.hi[None], corners)
        gap = forward_batch(net, cands)[:, j] - forward_batch(net, cands)[:, t]
        d = W[j] - W[t]
        best = np.where(d > 0, box.hi, box.lo)
        best[0] = x[0]
        true_max = float((forward(net, best) @ np.eye(2))[j] - forward(net, best)[t])
        assert gap.max() == pytest.approx(true_max, abs=1e-12)

    def test_finds_witnesses_where_oracle_proves_insufficiency(self):
        cases = 0
        hits = 0
        seed = 0
        while cases < 200 and seed < 2000:
            seed += 1
            net, x = small_net_and_instance(seed, input_dim=4, hidden=(6,), output_dim=3)
            q = make_query(net, x, fixed={0}, epsilon=0.5)
            result = oracle_check(net, q, budget=2048)
            if result.outcome is not OracleOutcome.WITNESS:
                continue
            lb = propagate_box(net, q.query_box())
            anet = build_abstract(net, lb, 0.5)
            verdict = check_abstract(anet, q)
            if verdict.is_sufficient:
                continue
            cases += 1
            if gen_counterexample(net, verdict.enclosure, q, rng=np.random.default_rng(seed)) is not None:
                hits += 1
        assert cases == 200
        assert hits >= 0.7 * cases

    def test_target_is_checked_as_check_concrete_checks_it(self):
        net, x = small_net_and_instance(1)
        enclosure = propagate_box(net, make_query(net, x, set(), 0.5).query_box()).final
        with pytest.raises(DimensionError, match="target 7 out of range for 3 classes"):
            gen_counterexample(net, enclosure, SufficiencyQuery(x, frozenset(), 0.5, 7, net.input_domain))
        other = (predict(net, x) + 1) % net.output_dim
        with pytest.raises(ValidationError, match="does not match the network's prediction"):
            gen_counterexample(net, enclosure, SufficiencyQuery(x, frozenset(), 0.5, other, net.input_domain))

    @pytest.mark.parametrize("width", [1, 5])
    def test_enclosure_must_bound_every_class(self, width):
        # Width 5 raised a bare IndexError; width 1 ranked no runner-up and returned None.
        net, x = small_net_and_instance(1, input_dim=4, hidden=(6,), output_dim=3)
        enclosure = IntervalVector(np.zeros(width), np.arange(float(width)))
        with pytest.raises(DimensionError, match=f"^enclosure has {width} outputs, network has 3 classes$"):
            gen_counterexample(net, enclosure, make_query(net, x, set(), 0.5))

    def test_returned_witness_is_validated(self):
        for seed in range(50):
            net, x = small_net_and_instance(seed, input_dim=4, hidden=(6,), output_dim=3)
            q = make_query(net, x, fixed={0}, epsilon=0.5)
            lb = propagate_box(net, q.query_box())
            anet = build_abstract(net, lb, 0.5)
            verdict = check_abstract(anet, q)
            if verdict.is_sufficient:
                continue
            w = gen_counterexample(net, verdict.enclosure, q, rng=np.random.default_rng(seed))
            if w is not None:
                assert q.query_box().contains_point(w)
                assert predict(net, w) != q.target


class TestOracle:
    def test_root_discharge_when_enclosure_decides(self, demo):
        net, x = demo
        q = make_query(net, x, fixed={1, 2}, epsilon=1.0)
        assert check_concrete(net, q).is_sufficient
        result = oracle_check(net, q)
        assert result.proved
        assert result.splits == 0

    def test_demo_single_fixed_feature_proved(self, demo):
        net, x = demo
        result = oracle_check(net, make_query(net, x, fixed={2}, epsilon=1.0))
        assert result.proved

    def test_demo_empty_fixed_set_proved_with_splitting(self, demo):
        net, x = demo
        result = oracle_check(net, make_query(net, x, fixed=set(), epsilon=1.0))
        assert result.proved
        assert result.splits > 0

    def test_witness_outcomes_are_genuine(self):
        witnessed = 0
        for seed in range(40):
            net, x = small_net_and_instance(seed, input_dim=5, hidden=(8,), output_dim=3)
            q = make_query(net, x, fixed={0}, epsilon=0.5)
            result = oracle_check(net, q, budget=4096)
            if result.outcome is OracleOutcome.WITNESS:
                witnessed += 1
                assert q.query_box().contains_point(result.witness)
                assert predict(net, result.witness) != q.target
        assert witnessed > 0

    def test_no_split_changes_a_fixed_feature(self, monkeypatch):
        boxes = []
        verdicts = queries.enclosure_verdicts

        def recording(net_, target, lo, hi):
            boxes.append((lo, hi))
            return verdicts(net_, target, lo, hi)

        monkeypatch.setattr(queries, "enclosure_verdicts", recording)
        splits = 0
        for seed in range(30):
            net, x = small_net_and_instance(seed, input_dim=4, hidden=(6,), output_dim=3)
            fixed = [0, 2]
            boxes.clear()
            result = oracle_check(net, make_query(net, x, fixed=set(fixed), epsilon=0.5), budget=256)
            splits += result.splits
            assert len(boxes) == result.evaluations
            for lo, hi in boxes:
                assert lo[fixed].tobytes() == hi[fixed].tobytes() == x[fixed].tobytes()
        assert splits > 50

    def test_matches_the_per_sub_box_reference(self):
        outcomes = set()
        for seed in range(24):
            net, x = small_net_and_instance(seed, input_dim=5, hidden=(8,), output_dim=3)
            for fixed, budget in (({0}, 64), ({0}, 4096), (set(), 64)):
                q = make_query(net, x, fixed=fixed, epsilon=0.4)
                got, want = oracle_check(net, q, budget), reference_oracle(net, q, budget)
                assert (got.outcome, got.splits, got.evaluations) == (want.outcome, want.splits, want.evaluations)
                assert (got.witness is None) == (want.witness is None)
                if got.witness is not None:
                    assert got.witness.tobytes() == want.witness.tobytes()
                outcomes.add(got.outcome)
        assert outcomes == set(OracleOutcome)

    def test_exhausted_on_zero_budget(self):
        for seed in range(20):
            net, x = small_net_and_instance(seed, input_dim=5, hidden=(8,), output_dim=3)
            q = make_query(net, x, fixed=set(), epsilon=0.4)
            result = oracle_check(net, q, budget=0)
            assert result.outcome in (
                OracleOutcome.PROVED_SUFFICIENT,
                OracleOutcome.WITNESS,
                OracleOutcome.EXHAUSTED,
            )
            assert result.splits == 0

    def test_negative_budget_rejected(self):
        net, x = small_net_and_instance(0, input_dim=5, hidden=(8,), output_dim=3)
        q = make_query(net, x, fixed=set(), epsilon=0.4)
        with pytest.raises(ValidationError, match="split budget must be nonnegative, got -1"):
            oracle_check(net, q, budget=-1)
        with pytest.raises(ValidationError, match="oracle split budget must be nonnegative, got -1"):
            explain_baseline(net, x, 0.4, backend="oracle", oracle_budget=-1)

    @pytest.mark.parametrize("budget", [2.5, True, "8", None])
    def test_budget_that_is_no_integer_rejected(self, budget):
        net, x = small_net_and_instance(0, input_dim=5, hidden=(8,), output_dim=3)
        q = make_query(net, x, fixed=set(), epsilon=0.4)
        with pytest.raises(ValidationError, match=f"^oracle split budget must be an integer, got {budget!r}$"):
            oracle_check(net, q, budget=budget)

    @pytest.mark.parametrize("budget", [-1, 0, 1 << 16])
    def test_budget_rejected_with_the_enclosure_backend(self, budget):
        net, x = small_net_and_instance(0, input_dim=5, hidden=(8,), output_dim=3)
        with pytest.raises(ValidationError, match="^oracle_budget does not apply to the enclosure backend$"):
            explain_baseline(net, x, 0.4, backend="enclosure", oracle_budget=budget)

    def test_agrees_with_dense_grid(self):
        # Verdicts never contradict an exhaustive grid falsifier on nets
        # with four free features.
        proved_seen = refuted_seen = 0
        for seed in range(25):
            net, x = small_net_and_instance(seed, input_dim=4, hidden=(8,), output_dim=2)
            q = make_query(net, x, fixed=set(), epsilon=0.35)
            result = oracle_check(net, q, budget=1 << 16)
            box = q.query_box()
            axes = [np.linspace(box.lo[i], box.hi[i], 9) for i in range(4)]
            mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
            labels = np.argmax(forward_batch(net, mesh), axis=1)
            grid_violates = bool(np.any(labels != q.target))
            if result.proved:
                proved_seen += 1
                assert not grid_violates
            elif result.outcome is OracleOutcome.WITNESS:
                refuted_seen += 1
                assert predict(net, result.witness) != q.target
        assert proved_seen > 0 and refuted_seen > 0

    def test_soundness_vs_reduced_sufficiency(self):
        # Reduced-network sufficiency is never contradicted by the oracle.
        for seed in range(40):
            net, x = small_net_and_instance(seed, input_dim=5, hidden=(10,), output_dim=3)
            q = make_query(net, x, fixed={0, 1}, epsilon=0.15)
            lb = propagate_box(net, q.query_box())
            anet = build_abstract(net, lb, 0.3)
            if check_abstract(anet, q).is_sufficient:
                assert oracle_check(net, q, budget=4096).outcome is not OracleOutcome.WITNESS


class TestVerdictChain:
    def test_sufficiency_survives_refinement(self):
        # Once a reduction proves a query, every refinement of it agrees.
        for seed in range(25):
            net, x = small_net_and_instance(seed, hidden=(12, 10), activation="sigmoid")
            q = make_query(net, x, fixed={0, 1, 2}, epsilon=0.1)
            lb = propagate_box(net, q.query_box())
            anet = build_abstract(net, lb, 0.25)
            verdicts = [check_abstract(anet, q).is_sufficient]
            for rate in (0.5, 0.75, 1.0):
                anet = refine(net, anet, lb, rate)
                verdicts.append(check_abstract(anet, q).is_sufficient)
            for earlier, later in zip(verdicts, verdicts[1:]):
                assert (not earlier) or later
