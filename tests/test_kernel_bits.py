"""The numeric kernels keep the bits of their plain forms.

Each kernel on the hot path computes in place, into its own temporaries.
The plain, one-expression forms are kept here as references, and every
kernel must return exactly their bits (``np.array_equal`` or byte
equality), leave the generator where they leave it, and never write into
its arguments.
"""

import numpy as np
import pytest

from provex.bounds import enclose_affine, propagate_rows
from provex.fixtures import mnist_shape_network, random_network, uniform_instances
from provex.intervals import apply_activation
from provex import queries
from provex.network import ConcreteNetwork, Layer, forward, forward_batch, forward_rows, gradients
from provex.errors import ValidationError
from provex.queries import (
    _Candidates,
    _anchors,
    _candidate_rows,
    _first_layer,
    _gap_corners,
    _screen,
    _separation,
    find_witnesses,
)

ACTIVATIONS = ("relu", "sigmoid", "tanh")


# ---------------------------------------------------------------------------
# Reference forms
# ---------------------------------------------------------------------------


def reference_sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def reference_activation(kind, values):
    if kind == "relu":
        return np.maximum(values, 0.0)
    if kind == "sigmoid":
        return reference_sigmoid(values)
    if kind == "tanh":
        return np.tanh(values)
    return values


def reference_forward(net, x):
    """The one-input form: ``W @ h + b`` on a vector, layer by layer."""
    h = np.asarray(x, dtype=np.float64)
    for layer in net.layers:
        h = reference_activation(layer.activation.value, layer.weights @ h + layer.bias)
    return h


def reference_forward_batch(net, xs):
    h = np.asarray(xs, dtype=np.float64)
    for layer in net.layers:
        h = reference_activation(layer.activation.value, h @ layer.weights.T + layer.bias)
    return h


def reference_enclose_affine(w, neg, lo, hi, bias_lo, bias_hi, activation="identity"):
    """The anchor-width form: each endpoint anchored on its own product, widened by the width's."""
    s = (hi - lo) @ neg.T
    out_lo = lo @ w.T + s + bias_lo
    out_hi = hi @ w.T - s + bias_hi
    hull = np.minimum(out_lo, out_hi), np.maximum(out_hi, out_lo)
    return reference_activation(activation, hull[0]), reference_activation(activation, hull[1])


def sign_split_enclose_affine(w, lo, hi, bias_lo, bias_hi, activation="identity"):
    """The four-product form the anchor-width kernel replaced: the same bounds in real arithmetic."""
    pos, neg = np.clip(w, 0.0, None), np.clip(w, None, 0.0)
    out_lo = lo @ pos.T + hi @ neg.T + bias_lo
    out_hi = hi @ pos.T + lo @ neg.T + bias_hi
    return reference_activation(activation, out_lo), reference_activation(activation, out_hi)


def reference_separation(lo, hi, target):
    others_hi = np.delete(hi, target, axis=-1)
    if others_hi.shape[-1] == 0:
        return np.full(lo.shape[:-1], np.inf), np.ones(lo.shape[:-1], dtype=bool)
    target_lo = lo[..., target]
    margin = target_lo - np.max(others_hi, axis=-1)
    lower_touch = np.any(hi[..., :target] >= target_lo[..., None], axis=-1)
    return margin, (margin >= 0) & ~lower_touch


def reference_candidates(lo, hi, toward_hi, rng=None, n_random=0, free=None):
    """Centers, corners, then ``n_random`` samples per box, drawn over the features ``free`` (default all).

    A sample is ``lo`` with ``(hi - lo) * r`` added on ``free``, r one draw
    of shape (boxes, n_random, len(free)).
    """
    free = np.arange(lo.shape[1]) if free is None else free
    lo, hi = lo[:, None, :], hi[:, None, :]
    parts = [0.5 * (lo + hi), np.where(toward_hi, hi, lo)]
    if n_random > 0:
        samples = np.repeat(lo, n_random, axis=1)
        samples[:, :, free] += (hi - lo)[:, :, free] * rng.random((lo.shape[0], n_random, free.size))
        parts.append(samples)
    return np.concatenate(parts, axis=1)


def reference_find_witnesses(net, target, lo, hi, out_hi, rng, n_random=64):
    """One candidate array per box, samples drawn over the call's free features, every row evaluated whole."""
    boxes = lo.shape[0]
    if boxes == 0:
        return []
    free = np.flatnonzero((hi > lo).any(axis=0))
    cands = reference_candidates(lo, hi, _gap_corners(net, target, lo, hi, out_hi), rng, n_random, free)
    labels = np.argmax(reference_forward_batch(net, cands.reshape(-1, lo.shape[1])), axis=1)
    wrong = labels.reshape(boxes, -1) != target
    return [cands[b, np.argmax(wrong[b])] if wrong[b].any() else None for b in range(boxes)]


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


def nets():
    """Relu, sigmoid and tanh nets of two depths, and a one-class net."""
    for k, act in enumerate(ACTIVATIONS):
        yield random_network(9, (12,), 3, act, seed=40 + k)
        yield random_network(20, (16, 12, 8), 5, act, seed=50 + k)
    rng = np.random.default_rng(3)
    yield ConcreteNetwork(
        (Layer(rng.normal(size=(6, 5)), rng.normal(size=6), "tanh"), Layer(rng.normal(size=(1, 6)), [0.3], "identity"))
    )


def screen_nets(count):
    """``count`` nets with 1-3 hidden layers whose class moves within the unit box.

    Relu, sigmoid and tanh in turn, 4-12 inputs, widths 4-16 and 2-5
    classes; the weights are scaled up from 1/sqrt(fan_in), by more for
    the flatter sigmoid, so that boxes of width 0.04-0.6 often hold
    points of another class.
    """
    for seed in range(count):
        rng = np.random.default_rng(seed)
        act = ACTIVATIONS[seed % 3]
        gain = 4.0 if act == "sigmoid" else 1.5
        inputs = int(rng.integers(4, 13))
        hidden = rng.integers(4, 17, size=1 + seed // 3 % 3)
        dims = [inputs, *hidden, int(rng.integers(2, 6))]
        layers = []
        for k in range(len(dims) - 1):
            weights = rng.normal(scale=gain / np.sqrt(dims[k]), size=(dims[k + 1], dims[k]))
            bias = rng.normal(scale=0.1, size=dims[k + 1])
            layers.append(Layer(weights, bias, act if k < len(dims) - 2 else "identity"))
        yield seed, ConcreteNetwork(tuple(layers))


def screen_cases(count):
    """Per net of ``screen_nets``, 1 and 16 boxes with ``n_random`` 0 and 64, and epsilons 0.02-0.3."""
    for seed, net in screen_nets(count):
        for boxes in (1, 16):
            for n_random in (0, 64):
                rng = np.random.default_rng(7 * seed + boxes + n_random)
                xs = rng.random((boxes, net.input_dim))
                half = rng.choice([0.02, 0.1, 0.3], size=(boxes, 1)) * np.ones(xs.shape)
                half[rng.random(xs.shape) < 0.3] = 0.0
                lo = np.maximum(0.0, xs - half)
                hi = np.minimum(1.0, xs + half)
                target = int(np.argmax(forward(net, xs[0])))
                out_hi = propagate_rows(net.layers, lo, hi)[1]
                yield seed, net, target, lo, hi, out_hi, n_random


def pin_boxes(xs, half):
    """Per instance, 8 boxes of half-width ``half`` that free a share of 0.75-1.0 of its features, as pins do."""
    rng = np.random.default_rng(5)
    lo, hi = [], []
    for x in xs:
        for share in np.linspace(0.75, 1.0, 8):
            free = rng.random(x.shape) < share
            lo.append(np.where(free, np.maximum(0.0, x - half), x))
            hi.append(np.where(free, np.minimum(1.0, x + half), x))
    return np.array(lo), np.array(hi)


def boxes_of(net, count, seed, width=0.5):
    """``count`` random boxes around the net's instances, some features fixed, inside the domain."""
    rng = np.random.default_rng(seed)
    xs = uniform_instances(net, count, seed=seed)
    half = width * rng.random(xs.shape)
    half[rng.random(xs.shape) < 0.3] = 0.0
    lo = np.maximum(net.input_domain.lo, xs - half)
    hi = np.minimum(net.input_domain.hi, xs + half)
    return xs, lo, hi


class TestActivationKernels:
    @pytest.mark.parametrize("shape", [(7,), (16, 200), (1072, 200)])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 40.0, 800.0])
    def test_sigmoid_has_the_where_forms_bits(self, shape, scale):
        z = np.random.default_rng(int(scale) + len(shape)).normal(scale=scale, size=shape)
        z.flat[:4] = (0.0, -0.0, 745.0, -745.0)
        with np.errstate(under="ignore"):
            assert np.array_equal(apply_activation("sigmoid", z), reference_sigmoid(z))

    @pytest.mark.parametrize("kind", ACTIVATIONS + ("identity",))
    def test_argument_is_left_untouched(self, kind):
        z = np.random.default_rng(1).normal(scale=5.0, size=(16, 30))
        z[0, :3] = (0.0, -0.0, -800.0)
        before = z.copy()
        with np.errstate(under="ignore"):
            out = apply_activation(kind, z)
            assert np.array_equal(out, reference_activation(kind, before))
        assert z.tobytes() == before.tobytes()
        if kind != "identity":
            assert not np.shares_memory(out, z)

    @pytest.mark.parametrize("kind", ACTIVATIONS + ("identity",))
    def test_in_place_result_has_the_same_bits(self, kind):
        # The forward pass and the bound kernel hand over their own fresh
        # pre-activations as ``out``.
        z = np.random.default_rng(2).normal(scale=5.0, size=(16, 30))
        z[0, :3] = (0.0, -0.0, -800.0)
        own = z.copy()
        with np.errstate(under="ignore"):
            out = apply_activation(kind, own, out=own)
            assert out is own
            assert np.array_equal(out, reference_activation(kind, z))
            other = np.empty_like(z)
            assert apply_activation(kind, z, out=other) is other
            assert np.array_equal(other, reference_activation(kind, z))

    @pytest.mark.parametrize("kind", ACTIVATIONS)
    def test_read_only_argument(self, kind):
        # Enclosure endpoints are frozen arrays.
        z = np.linspace(-5.0, 5.0, 11)
        z.setflags(write=False)
        assert np.array_equal(apply_activation(kind, z), reference_activation(kind, z))


class TestAffineKernels:
    @pytest.mark.parametrize("rows", [1, 16, 1072])
    def test_forward_batch_is_the_plain_product(self, rows):
        for net in nets():
            xs = np.random.default_rng(rows).random((rows, net.input_dim))
            assert np.array_equal(forward_batch(net, xs), reference_forward_batch(net, xs))

    def test_forward_is_the_plain_one_input_form(self):
        # ``forward`` evaluates a one-row batch; it keeps the bits of the vector form.
        cases = [(net, uniform_instances(net, 8, seed=net.input_dim)) for net in nets()]
        mnist = mnist_shape_network(seed=3)
        cases.append((mnist, uniform_instances(mnist, 4, seed=11)))
        for net, xs in cases:
            for x in xs:
                assert np.array_equal(forward(net, x), reference_forward(net, x))

    def test_a_split_stack_has_the_bits_of_one_pass(self):
        for net in nets():
            xs = np.random.default_rng(8).random((67, net.input_dim))
            for k in range(len(net.layers) + 1):
                split = forward_rows(net.layers[k:], forward_rows(net.layers[:k], xs))
                assert split.tobytes() == forward_batch(net, xs).tobytes()

    def test_gradients_forward_half_is_the_plain_product(self):
        # The backward pass reads the pre-activations, so equal gradients
        # against the plain forward below means equal pre-activations.
        for net in nets():
            xs = np.random.default_rng(5).random((4, net.input_dim))
            idx = np.zeros((4, 1), dtype=int)
            h, pres, posts = xs, [], []
            for layer in net.layers:
                pre = h @ layer.weights.T + layer.bias
                h = reference_activation(layer.activation.value, pre)
                pres.append(pre)
                posts.append(h)
            g = np.zeros((4, net.output_dim))
            g[:, 0] = 1.0
            for layer, pre, post in zip(reversed(net.layers), reversed(pres), reversed(posts)):
                kind = layer.activation.value
                slope = {
                    "relu": (pre > 0).astype(np.float64),
                    "sigmoid": post * (1.0 - post),
                    "tanh": 1.0 - post * post,
                }.get(kind, np.ones_like(pre))
                g = (g * slope) @ layer.weights
            assert np.array_equal(gradients(net, xs, idx)[:, 0], g)

    @pytest.mark.parametrize("batched", [False, True])
    def test_enclose_affine_is_the_plain_sum(self, batched):
        rng = np.random.default_rng(8)
        for net in nets():
            _, lo, hi = boxes_of(net, 16 if batched else 1, seed=9)
            if not batched:
                lo, hi = lo[0], hi[0]
            want_lo, want_hi = lo, hi
            for layer in net.layers:
                # A point bias, then an interval bias around it.
                spread = rng.random(layer.out_dim)
                for bias_lo, bias_hi in ((layer.bias, layer.bias), (layer.bias - spread, layer.bias + spread)):
                    args = (layer.weights, layer.weights_neg, want_lo, want_hi, bias_lo, bias_hi, layer.activation.value)
                    got, want = enclose_affine(*args), reference_enclose_affine(*args)
                    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
                want_lo, want_hi = want
            got_lo, got_hi = propagate_rows(net.layers, lo, hi)
            ref_lo, ref_hi = lo, hi
            for layer in net.layers:
                ref_lo, ref_hi = reference_enclose_affine(
                    layer.weights, layer.weights_neg, ref_lo, ref_hi, layer.bias, layer.bias, layer.activation.value
                )
            assert np.array_equal(got_lo, ref_lo) and np.array_equal(got_hi, ref_hi)


    def test_enclose_affine_is_the_sign_split_form_up_to_rounding(self):
        # Three products give the four-product form's bounds in real arithmetic.
        rng = np.random.default_rng(12)
        compared = 0
        for seed in range(60):
            act = ACTIVATIONS[seed % 3]
            net = random_network(10, (12,) * (1 + seed % 3), 4, act, seed=900 + seed)
            _, lo, hi = boxes_of(net, 16, seed=seed, width=(0.5, 1e-3, 1e-8)[seed % 3])
            for layer in net.layers:
                spread = rng.random(layer.out_dim)
                for bias_lo, bias_hi in ((layer.bias, layer.bias), (layer.bias - spread, layer.bias + spread)):
                    kind = layer.activation.value
                    got = enclose_affine(layer.weights, layer.weights_neg, lo, hi, bias_lo, bias_hi, kind)
                    want = sign_split_enclose_affine(layer.weights, lo, hi, bias_lo, bias_hi, kind)
                    for have, old in zip(got, want):
                        assert np.all(np.abs(have - old) <= 1e-12 * (1.0 + np.abs(old)))
                        compared += have.size
                lo, hi = got
        assert compared > 10_000

    def test_crossed_anchors_are_hulled(self):
        # Where a box is nearly a point, the two separately rounded anchors
        # can cross by an ulp; the kernel returns their hull, which is ordered.
        crossed = 0
        for seed in range(40):
            net = random_network(30, (30,), 3, "tanh", seed=seed)
            _, lo, hi = boxes_of(net, 16, seed=seed, width=3e-17)
            layer = net.layers[0]
            s = (hi - lo) @ layer.weights_neg.T
            raw_lo, raw_hi = lo @ layer.weights.T + s + layer.bias, hi @ layer.weights.T - s + layer.bias
            crossed += int(np.sum(raw_lo > raw_hi))
            got_lo, got_hi = enclose_affine(layer.weights, layer.weights_neg, lo, hi, layer.bias, layer.bias)
            assert np.all(got_lo <= got_hi)
            assert np.array_equal(got_lo, np.minimum(raw_lo, raw_hi)) and np.array_equal(got_hi, np.maximum(raw_lo, raw_hi))
        assert crossed > 0


class TestSeparationKernel:
    @pytest.mark.parametrize("classes", [1, 2, 5])
    @pytest.mark.parametrize("batched", [False, True])
    def test_masking_is_the_deletion(self, classes, batched):
        rng = np.random.default_rng(classes)
        for trial in range(50):
            shape = (16, classes) if batched else (classes,)
            lo = rng.normal(size=shape)
            hi = lo + rng.random(shape) * (trial % 3)
            if trial % 5 == 0:
                hi = np.round(hi, 1)  # ties between classes
                lo = np.minimum(lo, hi)
            for target in range(classes):
                got, want = _separation(lo, hi, target), reference_separation(lo, hi, target)
                assert got[0].tobytes() == np.asarray(want[0]).tobytes()
                assert np.array_equal(got[1], want[1])
                assert np.shape(got[0]) == np.shape(want[0])

    def test_arguments_are_left_untouched(self):
        lo = np.zeros((3, 4))
        hi = np.ones((3, 4))
        _separation(lo, hi, 2)
        assert np.array_equal(hi, np.ones((3, 4))) and np.array_equal(lo, np.zeros((3, 4)))


class TestWitnessSearchBits:
    @pytest.mark.parametrize("n_random", [0, 64])
    @pytest.mark.parametrize("boxes", [1, 16])
    def test_candidates_are_the_concatenation(self, boxes, n_random):
        # Every rebuilt candidate is the reference's row, in the reference's order.
        for net in nets():
            _, lo, hi = boxes_of(net, boxes, seed=boxes + n_random)
            corners = np.random.default_rng(4).random((boxes, 2, net.input_dim)) < 0.5
            free = np.flatnonzero((hi > lo).any(axis=0))
            ours, theirs = np.random.default_rng(6), np.random.default_rng(6)
            candidates = _Candidates(net.layers[0], lo, hi, corners, ours, n_random)
            first_layer, order = candidates.first_layer(), candidates.order
            want = reference_candidates(lo, hi, corners, theirs, n_random, free)
            assert order.shape == want.shape[:2] == (boxes, 3 + n_random)
            assert sorted(order.ravel()) == list(range(first_layer.shape[0]))
            got = np.array([[candidates.candidate(b, j) for j in range(order.shape[1])] for b in range(boxes)])
            assert got.tobytes() == want.tobytes()
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("n_random", [0, 64])
    @pytest.mark.parametrize("boxes", [1, 16])
    def test_same_witnesses_and_generator_state(self, boxes, n_random):
        found = missed = 0
        for k, net in enumerate(nets()):
            for width in (0.05, 0.5):
                xs, lo, hi = boxes_of(net, boxes, seed=10 * k + boxes, width=width)
                target = int(np.argmax(forward(net, xs[0])))
                out_hi = propagate_rows(net.layers, lo, hi)[1]
                ours, theirs = np.random.default_rng(k), np.random.default_rng(k)
                got = find_witnesses(net, target, lo, hi, out_hi, ours, n_random)
                want = reference_find_witnesses(net, target, lo, hi, out_hi, theirs, n_random)
                assert len(got) == len(want) == boxes
                for g, w in zip(got, want):
                    assert (g is None) == (w is None)
                    if w is not None:
                        assert g.tobytes() == w.tobytes()
                        found += 1
                    else:
                        missed += 1
                assert ours.bit_generator.state == theirs.bit_generator.state
        assert found > 0 and missed > 0

    def test_one_class_net_never_has_a_witness(self):
        net = list(nets())[-1]
        _, lo, hi = boxes_of(net, 16, seed=1)
        out_hi = propagate_rows(net.layers, lo, hi)[1]
        assert find_witnesses(net, 0, lo, hi, out_hi, np.random.default_rng(0)) == [None] * 16

    def test_arguments_are_left_untouched(self):
        net = random_network(9, (12,), 3, "sigmoid", seed=40)
        _, lo, hi = boxes_of(net, 16, seed=2)
        out_hi = propagate_rows(net.layers, lo, hi)[1]
        before = [a.copy() for a in (lo, hi, out_hi)]
        find_witnesses(net, 0, lo, hi, out_hi, np.random.default_rng(0))
        assert all(np.array_equal(a, b) for a, b in zip((lo, hi, out_hi), before))


class TestScreenedWitnessSearch:
    """Nets with a hidden layer after the first screen each box on its candidates' first-layer hull."""

    def test_same_witnesses_as_the_unscreened_search(self):
        found = deep_found = 0
        for seed, net, target, lo, hi, out_hi, n_random in screen_cases(300):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = find_witnesses(net, target, lo, hi, out_hi, ours, n_random)
            want = reference_find_witnesses(net, target, lo, hi, out_hi, theirs, n_random)
            assert [g is None for g in got] == [w is None for w in want]
            for g, w in zip(got, want):
                assert w is None or g.tobytes() == w.tobytes()
            assert ours.bit_generator.state == theirs.bit_generator.state
            hits = sum(w is not None for w in want)
            found += hits
            deep_found += hits if len(net.layers) > 2 else 0
        # 10,200 boxes in 1,200 calls; the counts keep the comparison from going vacuous.
        assert found > 2000 and deep_found > 1000

    def test_closed_boxes_hold_only_the_target(self):
        closed_boxes = partly_closed_calls = 0
        for seed, net, target, lo, hi, out_hi, n_random in screen_cases(150):
            if len(net.layers) < 3:
                continue
            toward_hi = _gap_corners(net, target, lo, hi, out_hi)
            free = np.flatnonzero((hi > lo).any(axis=0))
            candidates = _Candidates(net.layers[0], lo, hi, toward_hi, np.random.default_rng(seed), n_random)
            closed = _screen(net, target, candidates)
            # Every candidate as a whole row: center, corners, then lo plus the offsets on the free features.
            cands = reference_candidates(lo, hi, toward_hi, np.random.default_rng(seed), n_random, free)
            for b in np.flatnonzero(closed):
                assert (np.argmax(forward_batch(net, cands[b]), axis=1) == target).all()
            closed_boxes += int(closed.sum())
            partly_closed_calls += bool(closed.any() and not closed.all())
        assert closed_boxes > 500 and partly_closed_calls > 50

    def test_two_layer_net_makes_one_forward_pass(self, monkeypatch):
        # No screen: the output layer runs once on every candidate's first-layer activations.
        calls = count_passes(monkeypatch)
        net = random_network(9, (12,), 3, "relu", seed=40)
        _, lo, hi = boxes_of(net, 16, seed=2)
        out_hi = propagate_rows(net.layers, lo, hi)[1]
        find_witnesses(net, 0, lo, hi, out_hi, np.random.default_rng(0))
        # The centers' and corners' first layer, the samples' joined to it, then the output layer on every row.
        assert calls == [("forward_rows", 16 * 3), ("_first_layer", 16 * 67), ("forward_rows", 16 * 67)]

    def test_deeper_net_runs_the_first_layer_on_the_whole_buffer(self, monkeypatch):
        calls = count_passes(monkeypatch)
        _, net = list(screen_nets(4))[3]
        assert len(net.layers) == 3
        _, lo, hi = boxes_of(net, 16, seed=2)
        out_hi = propagate_rows(net.layers, lo, hi)[1]
        find_witnesses(net, 0, lo, hi, out_hi, np.random.default_rng(0))
        corners = min(2, net.output_dim - 1)
        # The screen's exact pass of the centers and corners, then, with a box left open, the float64 pass.
        assert calls[:2] == [("forward_rows", 16 * (1 + corners)), ("_first_layer", 16 * (1 + corners + 64))]
        assert all(name == "forward_rows" for name, _ in calls[2:])

    def test_mnist_pins_close_without_the_later_layers(self, monkeypatch):
        # The boxes' own enclosures do not separate, as for every pin; the
        # hull of their candidates' first-layer activations does.
        net = mnist_shape_network(seed=3)
        xs = uniform_instances(net, 2, seed=11)
        lo, hi = pin_boxes(xs, 1e-4)
        target = int(np.argmax(forward(net, xs[0])))
        assert all(int(np.argmax(forward(net, x))) == target for x in xs)
        out_lo, out_hi = propagate_rows(net.layers, lo, hi)
        assert not _separation(out_lo, out_hi, target)[1].any()
        calls = count_passes(monkeypatch)
        assert find_witnesses(net, target, lo, hi, out_hi, np.random.default_rng(0)) == [None] * 16
        # The screen's exact pass of the centers and corners only: no float64 sample pass, no later layer.
        assert calls == [("forward_rows", 16 * 3)]

    @pytest.mark.parametrize("n_random", [0, 64])
    def test_one_class_deep_net_never_has_a_witness(self, n_random):
        # No runner-up class leaves the corner block empty.
        net = random_network(9, (12, 8), 1, "tanh", seed=41)
        _, lo, hi = boxes_of(net, 16, seed=1)
        out_hi = propagate_rows(net.layers, lo, hi)[1]
        assert find_witnesses(net, 0, lo, hi, out_hi, np.random.default_rng(0), n_random) == [None] * 16


def hull_cases():
    """Calls whose first-layer hull is checked: ``screen_cases(300)``, then pin boxes on 784-input nets.

    Per activation, a net with the first layer's shape of the mnist784
    fixture takes the pin boxes of half-width 1e-4 (mnist784-sigmoid's),
    1e-13 and 1e-15, the 1e-4 boxes once more with one feature freed over
    a width below float32's least normal, 2⁻¹²⁶, and once more with every
    feature from 300 on fixed, where a float64 block holds two boxes and
    the screen's one.
    """
    for _, net, target, lo, hi, out_hi, n_random in screen_cases(300):
        yield net, target, lo, hi, out_hi, n_random
    for kind in ACTIVATIONS:
        net = random_network(784, (200, 200), 10, kind, seed=3)
        xs = uniform_instances(net, 2, seed=11)
        target = int(np.argmax(forward(net, xs[0])))
        boxes = [pin_boxes(xs, half) for half in (1e-4, 1e-13, 1e-15)]
        lo, hi = pin_boxes(xs, 1e-4)
        lo[:, 0], hi[:, 0] = 0.0, 1e-39
        boxes.append((lo, hi))
        lo, hi = pin_boxes(xs, 1e-4)
        hi[:, 300:] = lo[:, 300:]
        for lo, hi in [*boxes, (lo, hi)]:
            yield net, target, lo, hi, propagate_rows(net.layers, lo, hi)[1], 64


class TestBoundedScreen:
    """The screen bounds the samples' first-layer activations from a float32 product."""

    # Blocks of the default size, and of one box's samples over every input.
    @pytest.mark.parametrize("block", [1 << 15, 1])
    def test_hull_holds_every_first_layer_activation(self, block, monkeypatch):
        monkeypatch.setattr(queries, "SAMPLE_BLOCK", block)
        kinds = set()
        for net, target, lo, hi, out_hi, n_random in hull_cases():
            layer = net.layers[0]
            toward_hi = _gap_corners(net, target, lo, hi, out_hi)
            # The float64 pass draws after the screen, from the generator's state before it, as an open call does.
            candidates = _Candidates(layer, lo, hi, toward_hi, np.random.default_rng(1), n_random)
            hull_lo, hull_hi = candidates.hull()
            per_box = candidates.first_layer()[candidates.order]
            assert (hull_lo[:, None] <= per_box).all() and (per_box <= hull_hi[:, None]).all()
            kinds.add(layer.activation.value)
        assert kinds == set(ACTIVATIONS)

    def test_a_partly_closed_call_takes_the_float64_path(self, monkeypatch):
        calls = count_passes(monkeypatch)
        partly_closed = found = 0
        for seed, net, target, lo, hi, out_hi, n_random in screen_cases(150):
            if len(net.layers) < 3 or n_random == 0:
                continue
            toward_hi = _gap_corners(net, target, lo, hi, out_hi)
            candidates = _Candidates(net.layers[0], lo, hi, toward_hi, np.random.default_rng(seed), n_random)
            closed = _screen(net, target, candidates)
            if closed.all() or not closed.any():
                continue
            calls.clear()
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = find_witnesses(net, target, lo, hi, out_hi, ours, n_random)
            want = reference_find_witnesses(net, target, lo, hi, out_hi, theirs, n_random)
            # The screen's exact pass, then the float64 pass of the whole buffer, drawn again.
            assert calls[1] == ("_first_layer", lo.shape[0] * (1 + toward_hi.shape[1] + n_random))
            assert [g is None for g in got] == [w is None for w in want]
            assert all(w is None or g.tobytes() == w.tobytes() for g, w in zip(got, want))
            assert ours.bit_generator.state == theirs.bit_generator.state
            partly_closed += 1
            found += sum(w is not None for w in want)
        assert partly_closed > 50 and found > 50

    def test_a_float32_overflow_screens_nothing(self):
        # First-layer weights beyond float32's range give no hull, so every box takes the float64 path.
        base = random_network(9, (12, 8), 3, "tanh", seed=41)
        first = base.layers[0]
        net = ConcreteNetwork((Layer(first.weights * 1e39, first.bias, "tanh"), *base.layers[1:]))
        _, lo, hi = boxes_of(net, 16, seed=1)
        out_hi = propagate_rows(net.layers, lo, hi)[1]
        toward_hi = _gap_corners(net, 0, lo, hi, out_hi)
        candidates = _Candidates(net.layers[0], lo, hi, toward_hi, np.random.default_rng(0), 64)
        assert candidates.hull() is None
        assert not _screen(net, 0, candidates).any()
        ours, theirs = np.random.default_rng(0), np.random.default_rng(0)
        got = find_witnesses(net, 0, lo, hi, out_hi, ours)
        want = reference_find_witnesses(net, 0, lo, hi, out_hi, theirs)
        assert [g if g is None else g.tobytes() for g in got] == [w if w is None else w.tobytes() for w in want]
        assert ours.bit_generator.state == theirs.bit_generator.state


def exact_rows_of(net, target, lo, hi, out_hi):
    """Per box, the bytes of its center and corner rows."""
    toward_hi = _gap_corners(net, target, lo, hi, out_hi)
    rows = reference_candidates(lo, hi, toward_hi)
    return [{row.tobytes() for row in rows[b]} for b in range(lo.shape[0])]


class TestFreeFeatureSamples:
    """Samples are drawn over the call's free features and enter the first layer as a low-rank update."""

    def test_witnesses_are_counterexamples_inside_their_boxes(self):
        samples = 0
        for seed, net, target, lo, hi, out_hi, n_random in screen_cases(300):
            got = find_witnesses(net, target, lo, hi, out_hi, np.random.default_rng(seed), n_random)
            exact = exact_rows_of(net, target, lo, hi, out_hi)
            for b, witness in enumerate(got):
                if witness is None:
                    continue
                assert np.all(lo[b] <= witness) and np.all(witness <= hi[b])
                fixed = lo[b] == hi[b]
                assert witness[fixed].tobytes() == lo[b][fixed].tobytes()
                assert int(np.argmax(forward(net, witness))) != target
                samples += witness.tobytes() not in exact[b]
        # Witnesses that only a sample found keep the rebuilt samples in the check.
        assert samples > 10

    def test_a_flagged_sample_is_kept_only_if_predict_confirms_it(self, monkeypatch):
        cases = list(screen_cases(60))
        plain = [find_witnesses(*case[1:6], np.random.default_rng(case[0]), case[6]) for case in cases]
        # A predict that never confirms: no candidate is a witness, samples, centers and corners alike.
        target_of = [0]
        monkeypatch.setattr(queries, "predict", lambda net, x: target_of[0])
        dropped = exact_dropped = 0
        for case, want in zip(cases, plain):
            seed, net, target, lo, hi, out_hi, n_random = case
            target_of[0] = target
            got = find_witnesses(net, target, lo, hi, out_hi, np.random.default_rng(seed), n_random)
            assert all(g is None for g in got)
            exact = exact_rows_of(net, target, lo, hi, out_hi)
            dropped += sum(w is not None for w in want)
            exact_dropped += sum(w is not None and w.tobytes() in exact[b] for b, w in enumerate(want))
        assert exact_dropped > 0 and dropped > exact_dropped

    def test_the_draw_covers_only_the_features_free_in_some_box(self):
        net = random_network(100, (50,), 10, "relu", seed=4)
        xs = uniform_instances(net, 16, seed=4)
        rng = np.random.default_rng(9)
        free = rng.random(xs.shape) < 0.035
        lo, hi = np.where(free, np.maximum(0.0, xs - 0.3), xs), np.where(free, np.minimum(1.0, xs + 0.3), xs)
        union = int(free.any(axis=0).sum())
        assert 0 < union < 100
        out_hi = propagate_rows(net.layers, lo, hi)[1]
        ours, theirs = np.random.default_rng(2), np.random.default_rng(2)
        find_witnesses(net, int(np.argmax(forward(net, xs[0]))), lo, hi, out_hi, ours)
        theirs.random((16, 64, union))
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_nothing_is_drawn_without_free_features(self):
        # Point boxes: their samples would all be their centers.
        net = random_network(9, (12, 8), 3, "tanh", seed=41)
        _, lo, _ = boxes_of(net, 16, seed=1)
        out_hi = propagate_rows(net.layers, lo, lo)[1]
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        got = find_witnesses(net, 0, lo, lo, out_hi, rng, 64)
        assert rng.bit_generator.state == before
        want = find_witnesses(net, 0, lo, lo, out_hi, None, 64)
        assert [g if g is None else g.tobytes() for g in got] == [w if w is None else w.tobytes() for w in want]

    def test_no_samples_need_no_generator(self):
        net = random_network(9, (12, 8), 3, "tanh", seed=41)
        _, lo, hi = boxes_of(net, 16, seed=1)
        assert (hi > lo).any()
        find_witnesses(net, 0, lo, hi, propagate_rows(net.layers, lo, hi)[1], None, 0)

    def test_negative_sample_count_is_named(self):
        net = random_network(9, (12,), 3, "relu", seed=40)
        _, lo, hi = boxes_of(net, 4, seed=2)
        out_hi = propagate_rows(net.layers, lo, hi)[1]
        with pytest.raises(ValidationError, match="n_random must be nonnegative, got -1"):
            find_witnesses(net, 0, lo, hi, out_hi, np.random.default_rng(0), -1)

    def test_first_layer_of_the_samples_is_their_rows_up_to_rounding(self):
        for seed, net, target, lo, hi, out_hi, n_random in screen_cases(40):
            if n_random == 0:
                continue
            toward_hi = _gap_corners(net, target, lo, hi, out_hi)
            rows = _candidate_rows(lo, hi, toward_hi)
            free = np.flatnonzero((hi > lo).any(axis=0))
            first = net.layers[0]
            exact = forward_rows((first,), rows)
            got = _first_layer(first, exact, _anchors(first, lo), lo, hi, free, np.random.default_rng(seed), n_random)
            assert got[: len(rows)].tobytes() == exact.tobytes()
            cands = reference_candidates(lo, hi, toward_hi, np.random.default_rng(seed), n_random, free)
            whole = forward_rows((first,), cands[:, 1 + toward_hi.shape[1] :].reshape(-1, lo.shape[1]))
            assert np.allclose(got[len(rows) :], whole, rtol=1e-12, atol=1e-12)

def count_passes(monkeypatch):
    """Record the passes ``find_witnesses`` makes, by name and row count.

    ``_first_layer`` counts its exact rows and its samples.
    """
    calls = []

    def first_layer(layer, exact, anchor, lo, hi, free, rng, n_random):
        calls.append(("_first_layer", len(exact) + lo.shape[0] * n_random))
        return search_first_layer(layer, exact, anchor, lo, hi, free, rng, n_random)

    def recording(name, fn):
        def wrapped(first, xs):
            calls.append((name, len(xs)))
            return fn(first, xs)

        return wrapped

    search_first_layer = queries._first_layer
    monkeypatch.setattr(queries, "_first_layer", first_layer)
    monkeypatch.setattr(queries, "forward_rows", recording("forward_rows", queries.forward_rows))
    return calls
