"""Sufficiency verdicts, counterexample search, and the branch-and-bound oracle."""

import numpy as np
import pytest

from conftest import make_query, small_net_and_instance
from provex.abstraction import build_abstract, build_from_merge_sets, refine
from provex.bounds import propagate_abstract, propagate_box, sample_box
from provex.errors import ValidationError
from provex.explain import explain_abstraction_refinement, explain_baseline
from provex.fixtures import random_network, uniform_instances
from provex.network import ConcreteNetwork, Layer, forward, forward_batch, predict
from provex.queries import (
    OracleOutcome,
    RegressionQuery,
    SufficiencyQuery,
    VerdictKind,
    _candidates,
    _gap_corners,
    check_abstract,
    check_concrete,
    check_regression,
    gen_counterexample,
    oracle_check,
)


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

    def test_instance_outside_domain_rejected(self):
        net = ConcreteNetwork((Layer(np.array([[1.0], [-1.0]]), np.array([0.0, 1.0]), "identity"),))
        scalar = ConcreteNetwork((Layer(np.array([[1.0]]), np.zeros(1), "identity"),))
        with pytest.raises(ValidationError, match="outside the domain"):
            SufficiencyQuery(np.array([2.0]), frozenset(), 0.1, 0, net.input_domain)
        with pytest.raises(ValidationError, match="outside the domain"):
            RegressionQuery(np.array([2.0]), frozenset(), 0.1, 1.0, scalar.input_domain)
        with pytest.raises(ValidationError, match="outside the domain"):
            RegressionQuery(np.array([-1e-9]), frozenset(), 0.1, 1.0, scalar.input_domain)


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


class TestCandidates:
    def test_order_center_corners_then_samples(self):
        net, x = small_net_and_instance(3, input_dim=5, hidden=(8,), output_dim=3)
        q = make_query(net, x, fixed={1, 3}, epsilon=0.3)
        box = q.query_box()
        up = np.array([True, False, True, False, False])
        cands = _candidates(q, box, [up, ~up], np.random.default_rng(5), 4)
        assert cands.shape == (7, 5)
        np.testing.assert_array_equal(cands[0], box.midpoint)
        for row, mask in zip(cands[1:3], (up, ~up)):
            expected = np.where(mask, box.hi, box.lo)
            expected[[1, 3]] = x[[1, 3]]
            np.testing.assert_array_equal(row, expected)
        np.testing.assert_array_equal(cands[3:], sample_box(box, 4, np.random.default_rng(5)))

    def test_verdict_carries_the_enclosure_it_was_decided_on(self):
        net, x = small_net_and_instance(4)
        q = make_query(net, x, fixed={0, 1}, epsilon=0.3)
        lb = propagate_box(net, q.query_box())
        anet = build_abstract(net, lb, 0.5)
        out = check_abstract(anet, q).enclosure
        assert out == propagate_abstract(anet, q.query_box())


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
        cands = _candidates(q, box, _gap_corners(net, q, box, out))
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
