"""Box propagation: enclosure soundness, monotonicity, reduced-network containment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_query, random_subbox, small_net_and_instance
from provex.abstraction import AbstractLayer, build_abstract
from provex.bounds import enclose_layer, propagate_abstract, propagate_box, propagate_rows, sample_box
from provex.errors import DimensionError, ValidationError
from provex.fixtures import random_network
from provex.intervals import IntervalVector, iv_subset
from provex.network import ActivationKind, ConcreteNetwork, Layer, forward, forward_batch


class TestPropagateBox:
    def test_demo_enclosures(self, demo):
        net, x = demo
        q = make_query(net, x, fixed={1, 2}, epsilon=1.0)
        lb = propagate_box(net, q.query_box())
        np.testing.assert_allclose(lb.per_layer[0].lo, [3, 3, 6], atol=1e-9)
        np.testing.assert_allclose(lb.per_layer[0].hi, [5, 5, 7], atol=1e-9)
        np.testing.assert_allclose(lb.final.lo, [15, 46], atol=1e-9)
        np.testing.assert_allclose(lb.final.hi, [22, 55], atol=1e-9)
        # Class separation: the predicted class clears every other class.
        assert lb.final.lo[1] > lb.final.hi[0]

    def test_degenerate_box_matches_forward(self, demo):
        net, x = demo
        lb = propagate_box(net, IntervalVector(x, x))
        h = x
        for layer, layer_iv in zip(net.layers, lb.per_layer):
            from provex.intervals import apply_activation

            h = apply_activation(layer.activation.value, layer.weights @ h + layer.bias)
            np.testing.assert_allclose(layer_iv.lo, layer_iv.hi, atol=1e-12)
            np.testing.assert_allclose(layer_iv.lo, h, atol=1e-9)
        np.testing.assert_allclose(lb.final.lo, forward(net, x), atol=1e-9)

    def test_monte_carlo_containment(self):
        rng = np.random.default_rng(2024)
        net, _ = small_net_and_instance(0, hidden=(12, 10), activation="sigmoid")
        lo, hi = random_subbox(net, rng)
        lb = propagate_box(net, IntervalVector(lo, hi))
        pts = sample_box(lb.input_box, 10_000, rng)
        logits = forward_batch(net, pts)
        assert np.all(logits >= lb.final.lo - 1e-9)
        assert np.all(logits <= lb.final.hi + 1e-9)

    def test_per_layer_lengths(self):
        net, _ = small_net_and_instance(3, hidden=(9, 7))
        lb = propagate_box(net, net.input_domain)
        assert tuple(len(iv) for iv in lb.per_layer) == (9, 7, 3)

    def test_dimension_error(self, demo):
        net, _ = demo
        with pytest.raises(DimensionError):
            propagate_box(net, IntervalVector.unit_box(5))

    def test_box_outside_domain_rejected(self, demo):
        net, _ = demo
        with pytest.raises(ValidationError):
            propagate_box(net, IntervalVector([0, 0, 0], [2, 1, 1]))

    def test_monotone_in_box(self):
        # Shrinking the input box never widens any per-layer enclosure.
        rng = np.random.default_rng(55)
        for seed in range(20):
            net, _ = small_net_and_instance(seed, activation="relu" if seed % 2 else "tanh")
            lo, hi = random_subbox(net, rng)
            outer = IntervalVector(lo, hi)
            mid = 0.5 * (lo + hi)
            inner = IntervalVector(lo + 0.3 * (mid - lo), hi - 0.3 * (hi - mid))
            lb_outer = propagate_box(net, outer)
            lb_inner = propagate_box(net, inner)
            for a, b in zip(lb_inner.per_layer, lb_outer.per_layer):
                assert iv_subset(a, b, 1e-9)

    def test_layer_enclosures_are_the_kernel_output_frozen(self):
        # Each layer's enclosure holds the kernel's own arrays, read-only,
        # with the bits of the bare ``enclose_layer`` loop.
        for seed in range(10):
            net, _ = small_net_and_instance(seed, hidden=(9, 7), activation=("relu", "sigmoid", "tanh")[seed % 3])
            lo, hi = random_subbox(net, np.random.default_rng(seed))
            lb = propagate_box(net, IntervalVector(lo, hi))
            for layer, iv in zip(net.layers, lb.per_layer):
                lo, hi = enclose_layer(layer, lo, hi)
                assert iv.lo.tobytes() == lo.tobytes() and iv.hi.tobytes() == hi.tobytes()
                assert not (iv.lo.flags.writeable or iv.hi.flags.writeable)

    def test_overflowing_layer_rejected(self):
        big = np.full((2, 2), 1e200)
        net = ConcreteNetwork((Layer(big, np.zeros(2), "relu"), Layer(big, np.zeros(2), "identity")))
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="finite"):
            propagate_box(net, net.input_domain)

    def test_fingerprints_recorded(self, demo):
        net, x = demo
        box = IntervalVector(x, x)
        lb = propagate_box(net, box)
        assert lb.net_fingerprint == net.fingerprint
        assert lb.matches(net)


class TestPropagateAbstract:
    def test_unreduced_equals_concrete_final(self, demo):
        net, x = demo
        q = make_query(net, x, fixed={1, 2}, epsilon=1.0)
        lb = propagate_box(net, q.query_box())
        anet = build_abstract(net, lb, 1.0)
        out = propagate_abstract(anet, q.query_box())
        np.testing.assert_array_equal(out.lo, lb.final.lo)
        np.testing.assert_array_equal(out.hi, lb.final.hi)

    def test_reduced_encloses_concrete(self):
        # Containment oracle: the reduced network's output box contains the
        # concrete enclosure, hence every reachable output.
        rng = np.random.default_rng(99)
        for seed in range(30):
            net, _ = small_net_and_instance(seed, hidden=(10, 8), activation="sigmoid")
            lo, hi = random_subbox(net, rng)
            box = IntervalVector(lo, hi)
            lb = propagate_box(net, box)
            anet = build_abstract(net, lb, rate=float(rng.uniform(0.2, 0.9)))
            out = propagate_abstract(anet, box)
            assert iv_subset(lb.final, out, 1e-9)

    def test_dimension_error(self, demo):
        net, x = demo
        lb = propagate_box(net, IntervalVector(x, x))
        anet = build_abstract(net, lb, 1.0)
        with pytest.raises(DimensionError):
            propagate_abstract(anet, IntervalVector.unit_box(7))

    def test_sampled_points_land_inside_reduced_enclosure(self):
        rng = np.random.default_rng(123)
        for seed in range(10):
            net, _ = small_net_and_instance(seed, hidden=(12,), activation="relu")
            lo, hi = random_subbox(net, rng)
            box = IntervalVector(lo, hi)
            lb = propagate_box(net, box)
            anet = build_abstract(net, lb, 0.5)
            out = propagate_abstract(anet, box)
            logits = forward_batch(net, sample_box(box, 500, rng))
            assert np.all(logits >= out.lo - 1e-9)
            assert np.all(logits <= out.hi + 1e-9)


# Property tests of the single propagation kernel.  Every network and box is
# drawn by hypothesis; the containment slack is the suite's usual 1e-9.

unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def nets_and_boxes(draw):
    """A random network, a box in its domain, and a sub-box of that box."""
    n = draw(st.integers(1, 6))
    hidden = tuple(draw(st.lists(st.integers(1, 8), max_size=3)))
    activation = draw(st.sampled_from(["relu", "sigmoid", "tanh", "identity"]))
    net = random_network(n, hidden, draw(st.integers(1, 4)), activation, seed=draw(st.integers(0, 2**16)))
    pts = draw(arrays(np.float64, (4, n), elements=unit))
    lo, hi = np.minimum(pts[0], pts[1]), np.maximum(pts[0], pts[1])
    t = np.sort(pts[2:], axis=0)
    inner_lo = np.clip(lo + t[0] * (hi - lo), lo, hi)
    inner_hi = np.clip(lo + t[1] * (hi - lo), inner_lo, hi)
    return net, IntervalVector(lo, hi), IntervalVector(inner_lo, inner_hi)


def assert_contains(out, values):
    assert np.all(values >= out.lo - 1e-9)
    assert np.all(values <= out.hi + 1e-9)


class TestKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(nets_and_boxes(), st.integers(0, 2**16))
    def test_point_bias_enclosure_contains_samples(self, case, seed):
        net, box, _ = case
        out = propagate_box(net, box).final
        assert_contains(out, forward_batch(net, sample_box(box, 64, np.random.default_rng(seed))))

    @settings(max_examples=60, deadline=None)
    @given(nets_and_boxes(), st.floats(0.05, 1.0), st.integers(0, 2**16))
    def test_interval_bias_enclosure_contains_samples(self, case, rate, seed):
        # A reduction's enclosure holds for its build box and every box inside it.
        net, box, inner = case
        anet = build_abstract(net, propagate_box(net, box), rate)
        rng = np.random.default_rng(seed)
        for b in (box, inner):
            assert_contains(propagate_abstract(anet, b), forward_batch(net, sample_box(b, 64, rng)))

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, (3, 4, 5), elements=st.floats(-2, 2)), st.integers(0, 2**16))
    def test_kernel_encloses_every_bias_in_the_interval(self, params, seed):
        W, b1, b2 = params[0], params[1, :, 0], params[2, :, 0]
        bias_lo, bias_hi = np.minimum(b1, b2), np.maximum(b1, b2)
        lo, hi = np.minimum(params[1, 0], params[2, 0]), np.maximum(params[1, 0], params[2, 0])
        layer = AbstractLayer(W, bias_lo, bias_hi, ActivationKind.TANH, np.clip(W, None, 0.0))
        out = IntervalVector(*enclose_layer(layer, lo, hi))
        rng = np.random.default_rng(seed)
        xs = rng.uniform(lo, hi, size=(64, 5))
        bs = rng.uniform(bias_lo, bias_hi, size=(64, 4))
        assert_contains(out, np.tanh(xs @ W.T + bs))

    @settings(max_examples=60, deadline=None)
    @given(nets_and_boxes(), st.floats(0.05, 1.0))
    def test_subbox_enclosures_nest(self, case, rate):
        net, box, inner = case
        outer_lb = propagate_box(net, box)
        for a, b in zip(propagate_box(net, inner).per_layer, outer_lb.per_layer):
            assert iv_subset(a, b, 1e-9)
        anet = build_abstract(net, outer_lb, rate)
        assert iv_subset(propagate_abstract(anet, inner), propagate_abstract(anet, box), 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(nets_and_boxes())
    def test_unreduced_propagation_is_bit_identical(self, case):
        net, box, inner = case
        anet = build_abstract(net, propagate_box(net, box), 1.0)
        for b in (box, inner):
            want = propagate_box(net, b).final
            got = propagate_abstract(anet, b)
            assert got.lo.tobytes() == want.lo.tobytes()
            assert got.hi.tobytes() == want.hi.tobytes()


class TestBatchedKernel:
    """Many boxes in one pass through ``propagate_rows``."""

    @settings(max_examples=60, deadline=None)
    @given(nets_and_boxes(), st.integers(1, 16), st.integers(0, 2**16))
    def test_every_row_contains_its_samples(self, case, boxes, seed):
        net, box, _ = case
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(size=(2, boxes, len(box))), axis=0)
        lo = box.lo + t[0] * box.width
        hi = np.clip(box.lo + t[1] * box.width, lo, box.hi)
        out_lo, out_hi = propagate_rows(net.layers, lo, hi)
        assert out_lo.shape == out_hi.shape == (boxes, net.output_dim)
        for row in range(boxes):
            row_box = IntervalVector(lo[row], hi[row])
            out = IntervalVector(out_lo[row], out_hi[row])
            assert_contains(out, forward_batch(net, sample_box(row_box, 64, rng)))

    def test_one_row_is_bit_identical_to_propagate_box(self):
        # The nets of acceptance criterion c07.
        for seed in range(50):
            act = ("relu", "sigmoid", "tanh")[seed % 3]
            net = random_network(6, (10, 8), 3, act, seed=seed + 700)
            lo, hi = random_subbox(net, np.random.default_rng(seed))
            want = propagate_box(net, IntervalVector(lo, hi)).final
            for got_lo, got_hi in (propagate_rows(net.layers, lo, hi), propagate_rows(net.layers, lo[None], hi[None])):
                assert got_lo.reshape(-1).tobytes() == want.lo.tobytes()
                assert got_hi.reshape(-1).tobytes() == want.hi.tobytes()


def point_box_nets():
    """Relu, sigmoid and tanh nets of one to three hidden layers, and the 784-input sigmoid net."""
    from provex.fixtures import mnist_shape_network

    for depth in (1, 2, 3):
        for k, act in enumerate(("relu", "sigmoid", "tanh")):
            yield random_network(12, (16,) * depth, 5, act, seed=60 + 3 * depth + k)
    yield mnist_shape_network(seed=3)


class TestPointBoxes:
    """A point box encloses exactly its own forward pass, with zero slack."""

    @pytest.mark.parametrize("rows", [1, 16])
    def test_rows_are_the_forward_pass(self, rows):
        from provex.fixtures import uniform_instances
        from provex.network import forward_rows

        for net in point_box_nets():
            xs = uniform_instances(net, rows, seed=rows)
            lo, hi = propagate_rows(net.layers, xs, xs)
            want = forward_rows(net.layers, xs).tobytes()
            assert lo.tobytes() == want and hi.tobytes() == want

    def test_box_is_the_forward_pass(self):
        from provex.fixtures import uniform_instances
        from provex.network import forward_rows

        for net in point_box_nets():
            for x in uniform_instances(net, 3, seed=5):
                lb = propagate_box(net, IntervalVector(x, x))
                for k, layer_iv in enumerate(lb.per_layer):
                    want = forward_rows(net.layers[: k + 1], x[None])[0].tobytes()
                    assert layer_iv.lo.tobytes() == want and layer_iv.hi.tobytes() == want
                want = forward(net, x).tobytes()
                assert lb.final.lo.tobytes() == want and lb.final.hi.tobytes() == want

    def test_every_logit_lies_in_its_own_point_enclosure(self):
        # 200 random nets, 25 instances each: 25,000 logits, no slack.
        from provex.fixtures import uniform_instances

        outside = 0
        for seed in range(200):
            act = ("relu", "sigmoid", "tanh")[seed % 3]
            net = random_network(10, (12,) * (1 + seed % 3), 5, act, seed=2000 + seed)
            xs = uniform_instances(net, 25, seed=seed)
            logits = forward_batch(net, xs)
            lo, hi = propagate_rows(net.layers, xs, xs)
            outside += int(np.sum((logits < lo) | (logits > hi)))
            # One box alone holds the forward pass of its one input.
            lb = propagate_box(net, IntervalVector(xs[0], xs[0]))
            assert lb.final.contains_point(forward(net, xs[0]))
        assert outside == 0
