"""Network model: evaluation, prediction, gradients, and serialization."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provex.bounds import propagate_box
from provex.errors import DimensionError, ProvexError, SchemaError, ValidationError
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


VALID_DOC = {
    "input_dim": 3,
    "input_domain": {"lo": [0, 0, -1], "hi": [1, 1.5, 1]},
    "layers": [
        {"kind": "dense", "activation": "relu", "weights": [[1, 0.5, -2], [0, 1, 3]], "bias": [0, 0.25]},
        {"kind": "dense", "activation": "identity", "weights": [[1, -1], [2, 0.5]], "bias": [0, 1]},
    ],
}


def _path(keys) -> str:
    """A field's keys as a SchemaError names them, such as ``layers[0].weights[1][2]``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


def _fields(value, keys=()):
    """Every field of a JSON document below its root, as (keys, value)."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield keys + (key,), item
        yield from _fields(item, keys + (key,))


def _load_with(keys, value):
    """Load VALID_DOC with one field replaced; return the SchemaError it raises."""
    doc = copy.deepcopy(VALID_DOC)
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    with pytest.raises(ProvexError) as err:
        load_network(json.dumps(doc))
    assert isinstance(err.value, SchemaError)
    return err.value


_JSON_KINDS = {
    "number": st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False)),
    "bool": st.booleans(),
    "null": st.none(),
    "string": st.text(max_size=4),
    "list": st.lists(st.one_of(st.text(max_size=2), st.booleans(), st.none()), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}


def _kind(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "list", dict: "object"}[type(value)]


def wrong_typed(value):
    """Any JSON value whose type differs from ``value``'s."""
    return st.one_of([strategy for kind, strategy in _JSON_KINDS.items() if kind != _kind(value)])


class TestSchemaRejection:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_wrong_typed_field_is_named(self, data):
        keys, value = data.draw(st.sampled_from(list(_fields(VALID_DOC))))
        field = _load_with(keys, data.draw(wrong_typed(value))).field
        assert field == _path(keys) or field.startswith((_path(keys) + "[", _path(keys) + "."))

    def test_valid_document_loads(self):
        net = load_network(json.dumps(VALID_DOC))
        np.testing.assert_array_equal(net.input_domain.hi, [1, 1.5, 1])

    @pytest.mark.parametrize("keys, value", [
        (("layers", 0, "weights", 1, 2), "a"),
        (("layers", 0, "weights", 0, 0), True),
        (("layers", 1, "bias", 1), False),
        (("layers", 1, "bias", 0), "0.5"),
        (("input_domain", "lo", 2), "a"),
        (("input_domain", "hi", 0), None),
        (("input_dim",), True),
    ])
    def test_strings_and_booleans_in_numbers(self, keys, value):
        assert _load_with(keys, value).field == _path(keys)

    @pytest.mark.parametrize("keys, value", [
        (("layers", 0, "bias", 0), 10**400),
        (("input_domain", "lo", 1), float("-inf")),
    ])
    def test_numbers_a_float_cannot_hold(self, keys, value):
        assert _load_with(keys, value).field == _path(keys[:-1])


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


class TestFingerprint:
    """The fingerprint tells apart networks that differ in any weight bit, activation or domain."""

    @staticmethod
    def rebuilt(net, layer_index=None, weights=None, activation=None, domain=None):
        layers = list(net.layers)
        if layer_index is not None:
            old = layers[layer_index]
            layers[layer_index] = Layer(
                old.weights if weights is None else weights, old.bias, activation or old.activation
            )
        return ConcreteNetwork(tuple(layers), domain or net.input_domain)

    def test_structurally_equal_networks_hash_equal(self):
        net = random_network(5, (7, 6), 3, "sigmoid", seed=9)
        assert self.rebuilt(net).fingerprint == net.fingerprint
        assert self.rebuilt(net, 1, weights=net.layers[1].weights.copy()).fingerprint == net.fingerprint

    def test_one_ulp_weight_change(self):
        net = random_network(5, (7, 6), 3, "sigmoid", seed=9)
        weights = net.layers[1].weights.copy()
        weights[2, 3] = np.nextafter(weights[2, 3], np.inf)
        assert self.rebuilt(net, 1, weights=weights).fingerprint != net.fingerprint

    def test_changed_activation(self):
        net = random_network(5, (7, 6), 3, "sigmoid", seed=9)
        assert self.rebuilt(net, 0, activation=ActivationKind.TANH).fingerprint != net.fingerprint

    def test_changed_domain(self):
        net = random_network(5, (7, 6), 3, "sigmoid", seed=9)
        hi = np.ones(5)
        hi[4] = 2.0
        assert self.rebuilt(net, domain=IntervalVector(np.zeros(5), hi)).fingerprint != net.fingerprint

    def test_fingerprint_is_not_a_constructor_argument(self):
        # A fingerprint passed in tied one network's bounds to another, whose
        # reductions were then built from the wrong ranges.
        net = random_network(4, (6,), 3, "relu", seed=1)
        other = random_network(4, (6,), 3, "relu", seed=2)
        lb = propagate_box(net, net.input_domain)
        with pytest.raises(TypeError):
            ConcreteNetwork(other.layers, None, net.fingerprint)
        assert not lb.matches(ConcreteNetwork(other.layers, None))


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
