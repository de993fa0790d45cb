"""Network model: evaluation, prediction, gradients, and serialization."""

import json

import numpy as np
import pytest

from provex.bounds import propagate_box
from provex.errors import DimensionError, SchemaError, ValidationError
from provex.fixtures import random_network, uniform_instances
from provex.intervals import IntervalVector, apply_activation
from provex.network import (
    ActivationKind,
    ConcreteNetwork,
    Layer,
    forward,
    forward_batch,
    gradient,
    load_network,
    predict,
    save_network,
)

IDENTITY_DOC = json.dumps(
    {
        "input_dim": 2,
        "layers": [
            {"kind": "dense", "activation": "identity", "weights": [[1, 0], [0, 1]], "bias": [0, 0]}
        ],
    }
)


def naive_forward(net, x):
    """Straight-line per-neuron re-implementation used as an oracle."""
    h = [float(v) for v in x]
    for layer in net.layers:
        out = []
        for i in range(layer.out_dim):
            acc = float(layer.bias[i])
            for j in range(layer.in_dim):
                acc += float(layer.weights[i, j]) * h[j]
            out.append(acc)
        h = [float(apply_activation(layer.activation.value, np.array([v]))[0]) for v in out]
    return np.array(h)


class TestLoader:
    def test_identity_document(self):
        net = load_network(IDENTITY_DOC)
        x = np.array([0.25, -0.5])
        np.testing.assert_array_equal(forward(net, x), x)

    def test_demo_shape_loads_and_evaluates(self, demo):
        net, x = demo
        reloaded = load_network(save_network(net))
        np.testing.assert_array_equal(forward(reloaded, x), [15.0, 46.0])

    def test_mismatched_bias_length(self):
        doc = json.loads(IDENTITY_DOC)
        doc["layers"][0]["bias"] = [0, 0, 0]
        with pytest.raises(SchemaError) as err:
            load_network(json.dumps(doc))
        assert "bias" in str(err.value)

    def test_shape_chain_violation_names_field(self):
        doc = {
            "input_dim": 2,
            "layers": [
                {"kind": "dense", "activation": "relu", "weights": [[1, 0], [0, 1]], "bias": [0, 0]},
                {"kind": "dense", "activation": "identity", "weights": [[1, 2, 3]], "bias": [0]},
            ],
        }
        with pytest.raises(SchemaError) as err:
            load_network(json.dumps(doc))
        assert "layers[1].weights" in str(err.value)

    def test_non_finite_rejected(self):
        doc = json.loads(IDENTITY_DOC)
        doc["layers"][0]["weights"][0][0] = 1e999  # becomes Infinity in JSON
        with pytest.raises(SchemaError):
            load_network(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            load_network("{not json")

    def test_softmax_head_stripped(self):
        doc = json.loads(IDENTITY_DOC)
        doc["layers"][0]["activation"] = "softmax"
        net = load_network(json.dumps(doc))
        assert net.layers[-1].activation is ActivationKind.IDENTITY

    def test_softmax_inside_rejected(self):
        doc = {
            "input_dim": 2,
            "layers": [
                {"kind": "dense", "activation": "softmax", "weights": [[1, 0], [0, 1]], "bias": [0, 0]},
                {"kind": "dense", "activation": "identity", "weights": [[1, 1]], "bias": [0]},
            ],
        }
        with pytest.raises(SchemaError):
            load_network(json.dumps(doc))

    def test_non_identity_head_rejected(self):
        doc = json.loads(IDENTITY_DOC)
        doc["layers"][0]["activation"] = "relu"
        with pytest.raises(SchemaError):
            load_network(json.dumps(doc))

    def test_custom_domain_roundtrip(self):
        doc = json.loads(IDENTITY_DOC)
        doc["input_domain"] = {"lo": [-1, -1], "hi": [2, 2]}
        net = load_network(json.dumps(doc))
        np.testing.assert_array_equal(net.input_domain.lo, [-1, -1])

    def test_save_load_roundtrips_weights_bit_identically(self):
        net = random_network(5, (7, 6), 3, "sigmoid", seed=9)
        reloaded = load_network(save_network(net))
        for a, b in zip(net.layers, reloaded.layers):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.bias, b.bias)
        assert save_network(net) == save_network(reloaded)
        assert net.fingerprint == reloaded.fingerprint


class TestForward:
    def test_demo_logits(self, demo):
        net, x = demo
        np.testing.assert_array_equal(forward(net, x), [15.0, 46.0])

    def test_matches_naive_evaluator(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            net = random_network(4, (6, 5, 4), 3, "tanh", seed=seed)
            x = rng.uniform(0, 1, 4)
            np.testing.assert_allclose(forward(net, x), naive_forward(net, x), atol=1e-12)

    def test_dimension_error(self, demo):
        net, _ = demo
        with pytest.raises(DimensionError):
            forward(net, np.zeros(4))

    def test_batch_agrees_with_single(self):
        net = random_network(4, (6,), 2, "sigmoid", seed=1)
        xs = uniform_instances(net, 8, seed=2)
        batch = forward_batch(net, xs)
        for row, x in zip(batch, xs):
            np.testing.assert_allclose(row, forward(net, x), atol=1e-12)


class TestPredict:
    def test_demo_class(self, demo):
        net, x = demo
        assert predict(net, x) == 1

    def test_tie_breaks_to_lowest_index(self):
        net = load_network(IDENTITY_DOC)
        assert predict(net, np.array([5.0, 5.0])) == 0

    def test_single_class(self):
        doc = {
            "input_dim": 2,
            "layers": [{"kind": "dense", "activation": "identity", "weights": [[1, 1]], "bias": [0]}],
        }
        net = load_network(json.dumps(doc))
        assert predict(net, np.array([0.3, 0.3])) == 0

    def test_invariant_under_logit_shift(self):
        # Appending an affine layer that adds a constant to all logits
        # leaves the argmax unchanged.
        rng = np.random.default_rng(17)
        for seed in range(5):
            net = random_network(4, (8,), 3, "relu", seed=seed)
            shift = Layer(np.eye(3), np.full(3, 7.5), ActivationKind.IDENTITY)
            shifted = ConcreteNetwork(net.layers + (shift,), net.input_domain)
            for _ in range(10):
                x = rng.uniform(0, 1, 4)
                assert predict(net, x) == predict(shifted, x)


class TestGradient:
    def test_identity_network_unit_vector(self):
        net = load_network(IDENTITY_DOC)
        np.testing.assert_array_equal(gradient(net, np.array([0.3, 0.4]), 0), [1.0, 0.0])

    def test_matches_finite_differences(self):
        h = 1e-5
        for seed in range(6):
            net = random_network(5, (8, 6), 3, "sigmoid", seed=seed)
            x = uniform_instances(net, 1, seed=seed + 100)[0]
            for out_index in range(3):
                g = gradient(net, x, out_index)
                fd = np.zeros_like(g)
                for i in range(5):
                    e = np.zeros(5)
                    e[i] = h
                    fd[i] = (forward(net, x + e)[out_index] - forward(net, x - e)[out_index]) / (2 * h)
                np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_relu_region_gives_weight_row(self):
        # A single ReLU layer at strictly positive pre-activation is locally
        # linear, so the gradient is the corresponding weight row.
        W = np.array([[1.0, -2.0, 0.5]])
        layers = (
            Layer(W, np.array([10.0]), ActivationKind.RELU),
            Layer(np.array([[1.0]]), np.array([0.0]), ActivationKind.IDENTITY),
        )
        net = ConcreteNetwork(layers)
        np.testing.assert_allclose(gradient(net, np.array([0.5, 0.1, 0.9]), 0), W[0])

    def test_out_index_validated(self, demo):
        net, x = demo
        with pytest.raises(DimensionError):
            gradient(net, x, 2)


class TestCrossChecks:
    def test_forward_inside_degenerate_box_propagation(self):
        for seed in range(8):
            net = random_network(5, (7, 7), 3, "relu" if seed % 2 else "sigmoid", seed=seed)
            x = uniform_instances(net, 1, seed=seed)[0]
            lb = propagate_box(net, IntervalVector(x, x))
            y = forward(net, x)
            assert np.all(y >= lb.final.lo - 1e-9)
            assert np.all(y <= lb.final.hi + 1e-9)

    def test_validation_rejects_bad_layer(self):
        with pytest.raises(ValidationError):
            Layer(np.zeros((0, 2)), np.zeros(0), ActivationKind.RELU)
        with pytest.raises(ValidationError):
            ConcreteNetwork(())
