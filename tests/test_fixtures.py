"""Fixture generation: determinism, shapes, and the bundled demo network."""

import numpy as np
import pytest

from provex.bounds import propagate_box
from provex.errors import ValidationError
from provex.fixtures import (
    SplitMix64,
    demo_network,
    mnist_shape_network,
    random_network,
    uniform_instances,
)
from provex.intervals import IntervalVector
from provex.network import ActivationKind, forward, load_network, predict, save_network


class TestDemoNetwork:
    def test_reference_logits_and_prediction(self):
        net, x = demo_network()
        np.testing.assert_array_equal(forward(net, x), [15.0, 46.0])
        assert predict(net, x) == 1

    def test_reference_enclosures_with_two_fixed_features(self):
        net, x = demo_network()
        box = IntervalVector([0, 1, 1], [1, 1, 1])
        lb = propagate_box(net, box)
        np.testing.assert_allclose(lb.per_layer[0].lo, [3, 3, 6], atol=1e-9)
        np.testing.assert_allclose(lb.per_layer[0].hi, [5, 5, 7], atol=1e-9)
        np.testing.assert_allclose(lb.final.lo, [15, 46], atol=1e-9)
        np.testing.assert_allclose(lb.final.hi, [22, 55], atol=1e-9)


class TestSplitMix:
    def test_deterministic_stream(self):
        a = SplitMix64(7).uniform(0, 1, 100)
        b = SplitMix64(7).uniform(0, 1, 100)
        np.testing.assert_array_equal(a, b)

    def test_sequential_draws_continue_the_stream(self):
        s = SplitMix64(7)
        first = s.uniform(0, 1, 60)
        second = s.uniform(0, 1, 40)
        whole = SplitMix64(7).uniform(0, 1, 100)
        np.testing.assert_array_equal(np.concatenate([first, second]), whole)

    def test_range_and_spread(self):
        u = SplitMix64(123).uniform(-1, 1, 10_000)
        assert np.all(u >= -1) and np.all(u < 1)
        assert abs(u.mean()) < 0.05


class TestRandomNetworks:
    def test_same_seed_same_serialized_bytes(self):
        a = random_network(8, (8, 8), 2, "relu", seed=1)
        b = random_network(8, (8, 8), 2, "relu", seed=1)
        assert save_network(a) == save_network(b)

    def test_different_seeds_differ(self):
        a = random_network(8, (8, 8), 2, "relu", seed=1)
        b = random_network(8, (8, 8), 2, "relu", seed=2)
        assert save_network(a) != save_network(b)

    def test_weight_and_bias_ranges(self):
        net = random_network(16, (32,), 4, "sigmoid", seed=5)
        for layer in net.layers:
            scale = 1.0 / np.sqrt(layer.in_dim)
            assert np.all(np.abs(layer.weights) <= scale)
            assert np.all(np.abs(layer.bias) <= 0.1)

    def test_generated_networks_validate_and_roundtrip(self):
        for seed in range(5):
            net = random_network(6, (9, 7), 3, "tanh", seed=seed)
            clone = load_network(save_network(net))
            assert clone.fingerprint == net.fingerprint

    def test_instances_live_in_domain(self):
        net = random_network(6, (9,), 3, "relu", seed=3)
        xs = uniform_instances(net, 50, seed=3)
        assert np.all(xs >= 0.0) and np.all(xs <= 1.0)
        np.testing.assert_array_equal(uniform_instances(net, 50, seed=3), xs)

    def test_negative_instance_count_rejected(self):
        net = random_network(6, (9,), 3, "relu", seed=3)
        assert uniform_instances(net, 0, seed=3).shape == (0, 6)
        with pytest.raises(ValidationError, match="instance count must be nonnegative, got -1"):
            uniform_instances(net, -1, seed=3)


class TestMnistShape:
    def test_architecture(self):
        net = mnist_shape_network(seed=3)
        assert net.input_dim == 784
        assert net.hidden_sizes == (200,) * 7
        assert net.output_dim == 10
        for layer in net.layers[:-1]:
            assert layer.activation is ActivationKind.SIGMOID
        assert net.layers[-1].activation is ActivationKind.IDENTITY

