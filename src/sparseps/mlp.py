"""Minimal dense networks with exact backpropagation and Adam.

Layers hold float64 parameters; forward passes are batch-first matmuls.
Checkpoints use a small binary format (magic "SPLN"): version, layer count,
then per layer the shape, an activation code, and row-major float32 weights
followed by biases, all little-endian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .errors import ShapeError

MODEL_MAGIC = b"SPLN"
MODEL_VERSION = 1

_ACTIVATION_CODES = {"relu": 0, "sigmoid": 1, "linear": 2}
_ACTIVATION_NAMES = {code: name for name, code in _ACTIVATION_CODES.items()}


def _apply_activation(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if name == "linear":
        return z
    raise ValueError(f"unknown activation {name!r}")


def _activation_grad(name, z, a):
    """Derivative of the activation at pre-activation z (a is the output)."""
    if name == "relu":
        return (z > 0).astype(float)
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "linear":
        return np.ones_like(z)
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class DenseLayer:
    weights: np.ndarray   # (out_dim, in_dim)
    bias: np.ndarray      # (out_dim,)
    activation: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ShapeError("layer weights must be (out, in) with matching bias")
        if self.activation not in _ACTIVATION_CODES:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class MlpModel:
    layers: List[DenseLayer]

    def __post_init__(self):
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.weights.shape[1] != prev.weights.shape[0]:
                raise ShapeError("consecutive layer dimensions do not chain")

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[0]

    def forward(self, x):
        """Evaluate the network; x is (in,) or (batch, in)."""
        out, _ = self.forward_trace(x)
        return out

    def forward_trace(self, x):
        """Forward pass keeping intermediate values for backpropagation."""
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        a = x[None, :] if squeeze else x
        if a.shape[1] != self.input_dim:
            raise ShapeError(
                f"model expects input dim {self.input_dim}, got {a.shape[1]}"
            )
        cache = [(None, a)]
        for layer in self.layers:
            z = a @ layer.weights.T + layer.bias
            a = _apply_activation(layer.activation, z)
            cache.append((z, a))
        return (a[0] if squeeze else a), cache

    def restrict_inputs(self, cols):
        """The model on the input columns `cols` alone.

        The first layer keeps weights[:, cols] and the later layers are
        shared.  On inputs that are zero outside cols the result computes
        the same function, without the first layer's products with zeros;
        its sums skip the zero terms, so outputs may differ in the last ulps.
        """
        first = self.layers[0]
        return MlpModel([DenseLayer(first.weights[:, cols], first.bias,
                                    first.activation), *self.layers[1:]])

    def backward(self, cache, grad_out, want_param_grads=True,
                 want_input_grad=True):
        """Backpropagate grad_out (matching forward_trace's output shape).

        Returns (param_grads, grad_input) where param_grads is a list of
        (dW, db) per layer summed over the batch, or None when not requested,
        and grad_input is None when not requested (its product with the
        first layer's weights is then skipped).
        """
        grad_out = np.asarray(grad_out, dtype=float)
        squeeze = grad_out.ndim == 1
        g = grad_out[None, :] if squeeze else grad_out
        param_grads = [None] * len(self.layers) if want_param_grads else None
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            z, a = cache[i + 1]
            a_prev = cache[i][1]
            gz = g * _activation_grad(layer.activation, z, a)
            if want_param_grads:
                param_grads[i] = (gz.T @ a_prev, gz.sum(axis=0))
            if i == 0 and not want_input_grad:
                return param_grads, None
            g = gz @ layer.weights
        return param_grads, (g[0] if squeeze else g)


def init_model(dims, activations, rng) -> MlpModel:
    """Glorot-uniform initialization: weights in +-sqrt(6 / (fan_in + fan_out))."""
    if len(activations) != len(dims) - 1:
        raise ValueError("need one activation per layer")
    rng = np.random.default_rng(rng)
    layers = []
    for i, act in enumerate(activations):
        fan_in, fan_out = dims[i], dims[i + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append(DenseLayer(weights, np.zeros(fan_out), act))
    return MlpModel(layers)


@dataclass
class AdamState:
    """Per-model first/second moment accumulators."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    step: int = 0

    @classmethod
    def for_model(cls, model: MlpModel) -> "AdamState":
        state = cls()
        for layer in model.layers:
            state.m.append((np.zeros_like(layer.weights), np.zeros_like(layer.bias)))
            state.v.append((np.zeros_like(layer.weights), np.zeros_like(layer.bias)))
        return state


def adam_step(model: MlpModel, grads, state: AdamState, lr,
              beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update in place; grads is the list produced by backward.

    Computes param -= lr * (m / c1) / (sqrt(v / c2) + eps), with c1, c2 the
    bias corrections, in place through two buffers per parameter made for
    the call; each product and quotient is the one the textbook expression
    evaluates, in the same order, so parameters carry the same bits as
    without the buffers.
    """
    state.step += 1
    t = state.step
    correct1 = 1.0 - beta1 ** t
    correct2 = 1.0 - beta2 ** t
    for i, layer in enumerate(model.layers):
        for j, (param, grad) in enumerate(((layer.weights, grads[i][0]),
                                           (layer.bias, grads[i][1]))):
            m = state.m[i][j]
            v = state.v[i][j]
            a = grad * (1.0 - beta1)
            m *= beta1
            m += a
            v *= beta2
            np.multiply(grad, 1.0 - beta2, out=a)
            a *= grad
            v += a
            np.divide(v, correct2, out=a)
            np.sqrt(a, out=a)
            a += eps
            b = m / correct1
            b *= lr
            b /= a
            param -= b


def save_model(model: MlpModel, path):
    """Write the checkpoint: SPLN magic, version, layers as float32."""
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<II", MODEL_VERSION, len(model.layers)))
        for layer in model.layers:
            rows, cols = layer.weights.shape
            fh.write(struct.pack("<IIB", rows, cols,
                                 _ACTIVATION_CODES[layer.activation]))
            fh.write(layer.weights.astype("<f4").tobytes())
            fh.write(layer.bias.astype("<f4").tobytes())


def load_model(path) -> MlpModel:
    """Read a checkpoint written by save_model.

    Raises ValueError naming the file when it is not a checkpoint, is
    truncated or has an unknown activation code.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MODEL_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic")
    pos = 4

    def take(size, what):
        nonlocal pos
        if size > len(data) - pos:
            raise ValueError(f"{path}: truncated checkpoint, {what} needs "
                             f"{size} bytes and {len(data) - pos} are left")
        pos += size
        return data[pos - size:pos]

    version, n_layers = struct.unpack("<II", take(8, "the header"))
    if version != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    layers = []
    for k in range(n_layers):
        rows, cols, code = struct.unpack("<IIB", take(9, f"layer {k}'s shape"))
        if code not in _ACTIVATION_NAMES:
            raise ValueError(f"{path}: layer {k} has unknown activation code {code}")
        weights = np.frombuffer(take(4 * rows * cols, f"layer {k}'s weights"),
                                dtype="<f4")
        bias = np.frombuffer(take(4 * rows, f"layer {k}'s bias"), dtype="<f4")
        layers.append(DenseLayer(
            weights.reshape(rows, cols).astype(float),
            bias.astype(float),
            _ACTIVATION_NAMES[code],
        ))
    return MlpModel(layers)
