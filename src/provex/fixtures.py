"""Deterministic test networks and instances.

Random fixtures are generated from a self-contained splitmix-style 64-bit
PRNG so that a seed pins every weight bit-exactly, independent of any
library's generator.  Constants:

    increment  0x9E3779B97F4A7C15
    mix 1      0xBF58476D1CE4E5B9  (xor-shift 30 before, 27 after)
    mix 2      0x94D049BB133111EB  (final xor-shift 31)

Weights draw from uniform[-1, 1] / sqrt(fan_in) and biases from
uniform[-0.1, 0.1], which keeps pre-activations in the informative range
of the activations so sufficiency queries are nontrivial.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError, check_number
from .network import ActivationKind, ConcreteNetwork, Layer

_INCREMENT = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SCALE = float(2.0**-53)


class SplitMix64:
    """Counter-based splitmix stream yielding float64 values in [0, 1)."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def _raw(self, count: int) -> np.ndarray:
        start = self._counter + 1
        self._counter += count
        with np.errstate(over="ignore"):
            z = self._seed + np.arange(start, start + count, dtype=np.uint64) * _INCREMENT
            z = (z ^ (z >> np.uint64(30))) * _MIX1
            z = (z ^ (z >> np.uint64(27))) * _MIX2
            z = z ^ (z >> np.uint64(31))
        return z

    def uniform(self, lo: float, hi: float, count: int) -> np.ndarray:
        u = (self._raw(count) >> np.uint64(11)).astype(np.float64) * _SCALE
        return lo + (hi - lo) * u


def demo_network() -> tuple[ConcreteNetwork, np.ndarray]:
    """A 3-input, 3-hidden-ReLU, 2-class toy with hand-picked weights.

    The first two hidden units are identical feature detectors and the
    third weighs the last input heavily, so reductions that merge similar
    units behave observably on it.  The bundled instance (0, 1, 1) yields
    logits (15, 46), predicting class index 1.
    """
    layers = (
        Layer(
            weights=np.array([[2.0, 2.0, 1.0], [2.0, 2.0, 1.0], [1.0, 1.0, 5.0]]),
            bias=np.zeros(3),
            activation=ActivationKind.RELU,
        ),
        Layer(
            weights=np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 5.0]]),
            bias=np.array([0.0, 10.0]),
            activation=ActivationKind.IDENTITY,
        ),
    )
    return ConcreteNetwork(layers), np.array([0.0, 1.0, 1.0])


def random_network(
    input_dim: int,
    hidden: tuple[int, ...],
    output_dim: int,
    activation: str = "relu",
    seed: int = 0,
) -> ConcreteNetwork:
    """Seed-determined dense network with the stated hidden widths."""
    act = ActivationKind(activation)
    check_number("seed", seed, integer=True, minimum=0)
    stream = SplitMix64(seed)
    dims = [input_dim, *hidden, output_dim]
    for width in dims:
        check_number("layer widths", width, integer=True)
    if min(dims) < 1:
        raise ValidationError(f"layer widths must be positive, got {dims}")
    layers = []
    for k in range(len(dims) - 1):
        fan_in, fan_out = dims[k], dims[k + 1]
        scale = 1.0 / np.sqrt(fan_in)
        weights = stream.uniform(-scale, scale, fan_out * fan_in).reshape(fan_out, fan_in)
        bias = stream.uniform(-0.1, 0.1, fan_out)
        kind = act if k < len(dims) - 2 else ActivationKind.IDENTITY
        layers.append(Layer(weights, bias, kind))
    return ConcreteNetwork(tuple(layers))


def mnist_shape_network(seed: int = 0) -> ConcreteNetwork:
    """A 784-input classifier with seven 200-wide sigmoid layers and 10 logits."""
    return random_network(784, (200,) * 7, 10, activation="sigmoid", seed=seed)


def uniform_instances(net: ConcreteNetwork, count: int, seed: int = 0) -> np.ndarray:
    """Instances drawn uniformly from the network's input domain, one per row."""
    check_number("instance count", count, integer=True, minimum=0)
    check_number("seed", seed, integer=True, minimum=0)
    stream = SplitMix64(seed ^ 0x5CA1AB1E)
    u = stream.uniform(0.0, 1.0, count * net.input_dim).reshape(count, net.input_dim)
    lo, hi = net.input_domain.lo, net.input_domain.hi
    return lo + (hi - lo) * u

