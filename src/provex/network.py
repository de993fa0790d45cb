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

from .errors import DimensionError, SchemaError, ValidationError, check_number
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
    propagation reads (``weights``, ``weights_neg``, ``bias_lo``,
    ``bias_hi``, ``activation``); a reduced network's layers answer the
    same attributes with an interval bias.  The bound kernel anchors on
    ``weights`` itself, so a point box encloses exactly the forward pass.
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
        # The nonpositive part is precomputed once; box propagation and
        # reduction building hit it on every query.
        neg = np.clip(W, None, 0.0)
        neg.setflags(write=False)
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
    # Computed from the layers on first use, never passed in: a given one
    # would tie bounds of another network to this one.
    _fingerprint: str = field(default="", init=False, repr=False)

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
        """Stable content hash; identical for structurally equal networks.

        SHA-256 over every layer's shape, activation, weight bytes and bias
        bytes, then the input domain's endpoint bytes.  A JSON round trip
        restores every float64 bit for bit, so it keeps the hash.
        """
        if not self._fingerprint:
            digest = hashlib.sha256()
            for layer in self.layers:
                digest.update(f"{layer.weights.shape} {layer.activation.value};".encode())
                digest.update(layer.weights.tobytes())
                digest.update(layer.bias.tobytes())
            digest.update(self.input_domain.lo.tobytes())
            digest.update(self.input_domain.hi.tobytes())
            object.__setattr__(self, "_fingerprint", digest.hexdigest())
        return self._fingerprint


def forward(net: ConcreteNetwork, x) -> np.ndarray:
    """The logits of one input: ``forward_batch`` of a one-row batch."""
    h = np.asarray(x, dtype=np.float64)
    if h.shape != (net.input_dim,):
        raise DimensionError(f"input has shape {h.shape}, expected ({net.input_dim},)")
    return forward_batch(net, h[None])[0]


def forward_batch(net: ConcreteNetwork, xs) -> np.ndarray:
    """Evaluate a batch of inputs (rows) in one pass; returns rows of logits."""
    h = np.asarray(xs, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != net.input_dim:
        raise DimensionError(f"batch has shape {h.shape}, expected (*, {net.input_dim})")
    return forward_rows(net.layers, h)


def forward_rows(layers, h: np.ndarray) -> np.ndarray:
    """Rows of ``h`` through a stack of layers, unchecked; ``h`` is never written.

    ``forward_batch`` runs it on a whole network.  Splitting the stack,
    ``forward_rows(layers[k:], forward_rows(layers[:k], h))``, gives the
    bits of one call.
    """
    for layer in layers:
        # The product is a fresh array, so the bias and the activation go
        # into it in place, and each layer holds one array of its width.
        h = h @ layer.weights.T
        h += layer.bias
        h = apply_activation(layer.activation.value, h, out=h)
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
    check_number("out_index", out_index, integer=True, minimum=0)
    if out_index >= net.output_dim:
        raise DimensionError(f"output index {out_index} out of range for {net.output_dim} logits")
    h = np.asarray(x, dtype=np.float64)
    if h.shape != (net.input_dim,):
        raise DimensionError(f"input has shape {h.shape}, expected ({net.input_dim},)")
    return gradients(net, h[None], [[out_index]])[0, 0]


def gradients(net: ConcreteNetwork, xs, out_indices) -> np.ndarray:
    """Input gradients of chosen logits at a batch of points.

    Row p of ``out_indices`` names the logits wanted at row p of ``xs``.
    One forward and one backward pass over all rows return an array of
    shape (points, logits per point, inputs).
    """
    h = np.asarray(xs, dtype=np.float64)
    idx = np.asarray(out_indices, dtype=int)
    if h.ndim != 2 or h.shape[1] != net.input_dim:
        raise DimensionError(f"batch has shape {h.shape}, expected (*, {net.input_dim})")
    if idx.ndim != 2 or idx.shape[0] != h.shape[0]:
        raise DimensionError(f"expected one row of logit indices per point, got shape {idx.shape}")
    pres, posts = [], []
    for layer in net.layers:
        pre = h @ layer.weights.T
        pre += layer.bias
        h = apply_activation(layer.activation.value, pre)
        pres.append(pre)
        posts.append(h)
    # One backward row per (point, logit), points outermost.
    per_point = idx.shape[1]
    g = np.zeros((idx.size, net.output_dim))
    g[np.arange(idx.size), idx.ravel()] = 1.0
    for layer, pre, post in zip(reversed(net.layers), reversed(pres), reversed(posts)):
        slope = _activation_derivative(layer.activation, pre, post)
        g = (g * np.repeat(slope, per_point, axis=0)) @ layer.weights
    return g.reshape(idx.shape[0], per_point, net.input_dim)


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


_NUMBER_TYPES = frozenset({int, float})


def _require(doc: dict, key: str, kind, where: str):
    if not isinstance(doc, dict):
        raise SchemaError(where or "document", "expected a JSON object")
    if key not in doc:
        raise SchemaError(f"{where}.{key}" if where else key, "missing required field")
    value = doc[key]
    # JSON true and false load as bool, a subclass of int; no field is boolean.
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise SchemaError(f"{where}.{key}" if where else key, f"expected {kind.__name__}")
    return value


def _numbers(values: list, field_name: str) -> np.ndarray:
    """A JSON list of finite numbers as a float vector; an entry of another type is named by its index."""
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        j = next(j for j, v in enumerate(values) if type(v) not in _NUMBER_TYPES)
        raise SchemaError(f"{field_name}[{j}]", f"expected a number, got {type(values[j]).__name__}")
    try:
        arr = np.asarray(values, dtype=np.float64)
    except OverflowError:
        raise SchemaError(field_name, "contains a number too large for a float") from None
    if not np.isfinite(arr).all():
        raise SchemaError(field_name, "contains non-finite numbers")
    return arr


def _parse_matrix(rows, field_name: str, expect_cols: int | None) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise SchemaError(field_name, "expected a non-empty list of rows")
    width = None
    parsed = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{field_name}[{r}]", "expected a non-empty list of numbers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{field_name}[{r}]", f"expected {width} entries, got {len(row)}")
        parsed.append(_numbers(row, f"{field_name}[{r}]"))
    arr = np.stack(parsed)
    if expect_cols is not None and arr.shape[1] != expect_cols:
        raise SchemaError(field_name, f"expected {expect_cols} columns, got {arr.shape[1]}")
    return arr


def network_from_dict(doc: dict) -> ConcreteNetwork:
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
        bias = _numbers(bias_raw, f"{where}.bias")
        if bias.shape[0] != weights.shape[0]:
            raise SchemaError(f"{where}.bias", f"expected length {weights.shape[0]}, got {bias.shape[0]}")
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
        lo = _numbers(lo, "input_domain.lo")
        hi = _numbers(hi, "input_domain.hi")
        try:
            domain = IntervalVector(lo, hi)
        except (ValidationError, DimensionError) as exc:
            raise SchemaError("input_domain", str(exc)) from exc

    return ConcreteNetwork(tuple(layers), domain)


def _load_json(data: str | bytes):
    """A parsed JSON document; undecodable bytes or invalid JSON raise a ``SchemaError``."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except ValueError as exc:
        raise SchemaError("document", f"invalid JSON: {exc}") from exc


def load_network(data: str | bytes) -> ConcreteNetwork:
    """Parse and validate a serialized network document."""
    return network_from_dict(_load_json(data))
