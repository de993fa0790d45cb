"""Feed-forward network model: evaluation, prediction, gradients, JSON I/O.

Networks are stacks of dense layers with monotone elementwise activations.
The final layer must be an identity head: classification properties are
decided on raw logits, and a trailing softmax is stripped at load time
because it never changes the argmax.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionError, SchemaError, ValidationError
from .intervals import IntervalVector, apply_activation


class ActivationKind(str, Enum):
    RELU = "relu"
    SIGMOID = "sigmoid"
    TANH = "tanh"
    IDENTITY = "identity"


@dataclass(frozen=True, eq=False)
class Layer:
    """One dense layer: ``activation(weights @ h + bias)``.

    Besides its parameters, a layer answers the layer protocol that box
    propagation reads (``weights_pos``, ``weights_neg``, ``bias_lo``,
    ``bias_hi``, ``activation``); a reduced network's layers answer the
    same attributes with an interval bias.
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: ActivationKind

    def __post_init__(self):
        W = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if W.ndim != 2:
            raise ValidationError(f"layer weights must be 2-D, got shape {W.shape}")
        if W.shape[0] < 1 or W.shape[1] < 1:
            raise ValidationError(f"layer must have positive dimensions, got {W.shape}")
        if b.shape != (W.shape[0],):
            raise DimensionError(f"bias has length {b.shape}, expected ({W.shape[0]},)")
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise ValidationError("layer parameters contain non-finite entries")
        W = W.copy()
        b = b.copy()
        W.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", W)
        object.__setattr__(self, "bias", b)
        object.__setattr__(self, "activation", ActivationKind(self.activation))
        # Sign-split halves are precomputed once; box propagation and
        # reduction building hit them on every query.
        pos = np.clip(W, 0.0, None)
        neg = np.clip(W, None, 0.0)
        pos.setflags(write=False)
        neg.setflags(write=False)
        object.__setattr__(self, "weights_pos", pos)
        object.__setattr__(self, "weights_neg", neg)
        colmax = np.max(np.abs(W), axis=0)
        colmax.setflags(write=False)
        object.__setattr__(self, "weights_abs_colmax", colmax)

    @property
    def bias_lo(self) -> np.ndarray:
        """Lower bias endpoint; a concrete layer's bias interval is a point."""
        return self.bias

    @property
    def bias_hi(self) -> np.ndarray:
        return self.bias

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True, eq=False)
class ConcreteNetwork:
    """A validated layered network together with its input clamp box."""

    layers: tuple[Layer, ...]
    input_domain: IntervalVector | None = None  # defaults to [0,1]^n
    _fingerprint: str = field(default="", repr=False)

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValidationError("network needs at least one layer")
        for k in range(1, len(layers)):
            if layers[k].in_dim != layers[k - 1].out_dim:
                raise ValidationError(
                    f"layer {k} expects {layers[k].in_dim} inputs "
                    f"but layer {k - 1} produces {layers[k - 1].out_dim}"
                )
        if layers[-1].activation is not ActivationKind.IDENTITY:
            raise ValidationError("final layer activation must be identity")
        domain = self.input_domain
        if domain is None:
            domain = IntervalVector.unit_box(layers[0].in_dim)
        if len(domain) != layers[0].in_dim:
            raise DimensionError(
                f"input domain has {len(domain)} dimensions, network expects {layers[0].in_dim}"
            )
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "input_domain", domain)

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def hidden_sizes(self) -> tuple[int, ...]:
        return tuple(layer.out_dim for layer in self.layers[:-1])

    @property
    def neuron_count(self) -> int:
        return sum(layer.out_dim for layer in self.layers)

    @property
    def fingerprint(self) -> str:
        """Stable content hash; identical for structurally equal networks."""
        if not self._fingerprint:
            digest = hashlib.sha256(save_network(self).encode("utf-8")).hexdigest()
            object.__setattr__(self, "_fingerprint", digest)
        return self._fingerprint


def forward(net: ConcreteNetwork, x) -> np.ndarray:
    """Evaluate the network layer by layer and return the logits."""
    h = np.asarray(x, dtype=np.float64)
    if h.shape != (net.input_dim,):
        raise DimensionError(f"input has shape {h.shape}, expected ({net.input_dim},)")
    for layer in net.layers:
        h = apply_activation(layer.activation.value, layer.weights @ h + layer.bias)
    return h


def forward_batch(net: ConcreteNetwork, xs) -> np.ndarray:
    """Evaluate a batch of inputs (rows) in one pass; returns rows of logits."""
    h = np.asarray(xs, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != net.input_dim:
        raise DimensionError(f"batch has shape {h.shape}, expected (*, {net.input_dim})")
    for layer in net.layers:
        h = apply_activation(layer.activation.value, h @ layer.weights.T + layer.bias)
    return h


def predict(net: ConcreteNetwork, x) -> int:
    """Argmax class of the logits; ties break toward the lowest index."""
    return int(np.argmax(forward(net, x)))


def _activation_derivative(kind: ActivationKind, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    if kind is ActivationKind.RELU:
        # Subgradient at exactly zero is taken as zero.
        return (pre > 0).astype(np.float64)
    if kind is ActivationKind.SIGMOID:
        return post * (1.0 - post)
    if kind is ActivationKind.TANH:
        return 1.0 - post * post
    return np.ones_like(pre)


def gradient(net: ConcreteNetwork, x, out_index: int) -> np.ndarray:
    """Reverse-mode gradient of one output logit with respect to the input."""
    if not 0 <= out_index < net.output_dim:
        raise DimensionError(f"output index {out_index} out of range for {net.output_dim} logits")
    h = np.asarray(x, dtype=np.float64)
    if h.shape != (net.input_dim,):
        raise DimensionError(f"input has shape {h.shape}, expected ({net.input_dim},)")
    pres, posts = [], []
    for layer in net.layers:
        pre = layer.weights @ h + layer.bias
        h = apply_activation(layer.activation.value, pre)
        pres.append(pre)
        posts.append(h)
    g = np.zeros(net.output_dim)
    g[out_index] = 1.0
    for layer, pre, post in zip(reversed(net.layers), reversed(pres), reversed(posts)):
        g = (g * _activation_derivative(layer.activation, pre, post)) @ layer.weights
    return g


# ---------------------------------------------------------------------------
# JSON serialization
#
# Schema (UTF-8):
#   {"input_dim": int,
#    "input_domain": {"lo": [...], "hi": [...]},          # optional, default [0,1]^n
#    "layers": [{"kind": "dense", "activation": "relu|sigmoid|tanh|identity",
#                "weights": [[row-major reals]], "bias": [reals]}]}
# A trailing "softmax" activation is accepted on the last layer and stripped.
# ---------------------------------------------------------------------------

_ACTIVATION_NAMES = {k.value for k in ActivationKind}


def network_to_dict(net: ConcreteNetwork) -> dict:
    return {
        "input_dim": net.input_dim,
        "input_domain": {
            "lo": [float(v) for v in net.input_domain.lo],
            "hi": [float(v) for v in net.input_domain.hi],
        },
        "layers": [
            {
                "kind": "dense",
                "activation": layer.activation.value,
                "weights": [[float(w) for w in row] for row in layer.weights],
                "bias": [float(b) for b in layer.bias],
            }
            for layer in net.layers
        ],
    }


def save_network(net: ConcreteNetwork) -> str:
    """Serialize to JSON with shortest round-trip float literals."""
    return json.dumps(network_to_dict(net))


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise SchemaError(f"{where}.{key}" if where else key, "missing required field")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"{where}.{key}" if where else key, f"expected {kind.__name__}")
    return value


def _parse_matrix(rows, field_name: str, expect_cols: int | None) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise SchemaError(field_name, "expected a non-empty list of rows")
    width = None
    for r, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{field_name}[{r}]", "expected a non-empty list of numbers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{field_name}[{r}]", f"expected {width} entries, got {len(row)}")
    arr = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise SchemaError(field_name, "contains non-finite numbers")
    if expect_cols is not None and arr.shape[1] != expect_cols:
        raise SchemaError(field_name, f"expected {expect_cols} columns, got {arr.shape[1]}")
    return arr


def network_from_dict(doc: dict) -> ConcreteNetwork:
    if not isinstance(doc, dict):
        raise SchemaError("document", "expected a JSON object")
    input_dim = _require(doc, "input_dim", int, "")
    if input_dim < 1:
        raise SchemaError("input_dim", f"must be positive, got {input_dim}")
    raw_layers = _require(doc, "layers", list, "")
    if not raw_layers:
        raise SchemaError("layers", "network needs at least one layer")

    layers = []
    prev_out = input_dim
    last = len(raw_layers) - 1
    for i, raw in enumerate(raw_layers):
        where = f"layers[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(where, "expected a JSON object")
        kind = raw.get("kind", "dense")
        if kind != "dense":
            raise SchemaError(f"{where}.kind", f"unsupported layer kind {kind!r}")
        act = _require(raw, "activation", str, where)
        if act == "softmax":
            if i != last:
                raise SchemaError(f"{where}.activation", "softmax is only accepted on the final layer")
            act = "identity"
        if act not in _ACTIVATION_NAMES:
            raise SchemaError(f"{where}.activation", f"unknown activation {act!r}")
        weights = _parse_matrix(_require(raw, "weights", list, where), f"{where}.weights", prev_out)
        bias_raw = _require(raw, "bias", list, where)
        bias = np.asarray(bias_raw, dtype=np.float64)
        if bias.ndim != 1 or bias.shape[0] != weights.shape[0]:
            raise SchemaError(f"{where}.bias", f"expected length {weights.shape[0]}, got {bias.shape}")
        if not np.isfinite(bias).all():
            raise SchemaError(f"{where}.bias", "contains non-finite numbers")
        layers.append(Layer(weights, bias, ActivationKind(act)))
        prev_out = weights.shape[0]

    if layers[-1].activation is not ActivationKind.IDENTITY:
        raise SchemaError(f"layers[{last}].activation", "final layer activation must be identity")

    domain = None
    if "input_domain" in doc:
        raw_dom = doc["input_domain"]
        if not isinstance(raw_dom, dict):
            raise SchemaError("input_domain", "expected an object with 'lo' and 'hi'")
        lo = _require(raw_dom, "lo", list, "input_domain")
        hi = _require(raw_dom, "hi", list, "input_domain")
        if len(lo) != input_dim or len(hi) != input_dim:
            raise SchemaError("input_domain", f"expected length {input_dim}")
        try:
            domain = IntervalVector(lo, hi)
        except (ValidationError, DimensionError) as exc:
            raise SchemaError("input_domain", str(exc)) from exc

    return ConcreteNetwork(tuple(layers), domain)


def load_network(data: str | bytes) -> ConcreteNetwork:
    """Parse and validate a serialized network document."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError("document", f"invalid JSON: {exc}") from exc
    return network_from_dict(doc)
