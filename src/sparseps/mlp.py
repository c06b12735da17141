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


def _activate(name, z):
    """Apply the activation to z in place.

    The sigmoid runs 1 / (1 + exp(-z)) operation by operation, in the same
    order, so z ends with the bits the expression gives.
    """
    if name == "relu":
        np.maximum(z, 0.0, out=z)
    elif name == "sigmoid":
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        np.divide(1.0, z, out=z)
    elif name != "linear":
        raise ValueError(f"unknown activation {name!r}")


def _activation_grad(name, a):
    """Derivative of the activation, from its output a.

    relu's output is positive exactly where its input is, so a alone
    suffices for every activation here.
    """
    if name == "relu":
        return (a > 0).astype(float)
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "linear":
        return np.ones_like(a)
    raise ValueError(f"unknown activation {name!r}")


def dense_layer(a, weights, bias, activation, out, start=0):
    """Evaluate one layer into out[:, start:] in place and return out.

    The product a @ weights.T goes straight into out[:, start:]; the bias
    and the activation then update it with the operations that
    activation(a @ weights.T + bias) performs, in the same order, so it
    carries the bits of that expression.  The bias and the activation run
    over out's whole rows, about twice as fast as over a column slice of a
    C-contiguous out; its first `start` columns end as activation(0), for
    the caller to fill.
    """
    np.matmul(a, weights.T, out=out[:, start:])
    if start:
        out[:, :start] = 0.0
        bias = np.concatenate([np.zeros(start), bias])
    out += bias
    _activate(activation, out)
    return out


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

    def forward(self, x):
        """Evaluate the network on a batch x (batch, in)."""
        out, _ = self.forward_trace(x)
        return out

    def forward_trace(self, x):
        """Forward pass keeping every layer's output for backpropagation.

        Returns (out, cache) where cache lists the input and each layer's
        output.
        """
        a = np.asarray(x, dtype=float)
        if a.ndim != 2 or a.shape[1] != self.input_dim:
            raise ShapeError(
                f"model expects (batch, {self.input_dim}) inputs, got {a.shape}"
            )
        cache = [a]
        for layer in self.layers:
            a = dense_layer(a, layer.weights, layer.bias, layer.activation,
                            np.empty((a.shape[0], layer.weights.shape[0])))
            cache.append(a)
        return a, cache

    def backward(self, cache, grad_out, want_param_grads=True,
                 want_input_grad=True):
        """Backpropagate grad_out (batch, out), shaped as forward_trace's output.

        Returns (param_grads, grad_input) where param_grads is a list of
        (dW, db) per layer summed over the batch, or None when not requested,
        and grad_input is None when not requested (its product with the
        first layer's weights is then skipped).
        """
        g = np.asarray(grad_out, dtype=float)
        param_grads = [None] * len(self.layers) if want_param_grads else None
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            a, a_prev = cache[i + 1], cache[i]
            gz = g * _activation_grad(layer.activation, a)
            if want_param_grads:
                param_grads[i] = (gz.T @ a_prev, gz.sum(axis=0))
            if i == 0 and not want_input_grad:
                return param_grads, None
            g = gz @ layer.weights
        return param_grads, g


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


# Elements per chunk of an Adam update, whose six float64 operands (768 KiB)
# then stay in cache; chosen by a sweep (README, "Performance").
ADAM_CHUNK = 16384

# Adam's moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(model: MlpModel, grads, state: AdamState, lr):
    """One Adam update in place; grads is the list produced by backward.

    Computes param -= lr * (m / c1) / (sqrt(v / c2) + eps), with c1, c2 the
    bias corrections, in place, ADAM_CHUNK elements of each flattened
    parameter at a time through two scratch buffers made once per call;
    each product and quotient is the one the textbook expression evaluates,
    in the same order, so parameters carry the same bits as without the
    buffers.  Raises ValueError, before updating anything, when a parameter
    or moment is not C-contiguous: its flattened chunks would be copies.
    """
    pairs = [(param, grad, state.m[i][j], state.v[i][j])
             for i, layer in enumerate(model.layers)
             for j, (param, grad) in enumerate(((layer.weights, grads[i][0]),
                                                (layer.bias, grads[i][1])))]
    if not all(x.flags.c_contiguous for param, _, m, v in pairs
               for x in (param, m, v)):
        raise ValueError("adam_step needs C-contiguous parameters and moments")
    state.step += 1
    t = state.step
    correct1 = 1.0 - ADAM_BETA1 ** t
    correct2 = 1.0 - ADAM_BETA2 ** t
    scratch = np.empty((2, ADAM_CHUNK))
    for param, grad, m, v in pairs:
        flat = [x.reshape(-1) for x in (param, grad, m, v)]
        for lo in range(0, param.size, ADAM_CHUNK):
            p, g, mc, vc = (x[lo:lo + ADAM_CHUNK] for x in flat)
            a, b = scratch[:, :p.size]
            np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            mc *= ADAM_BETA1
            mc += a
            vc *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=a)
            a *= g
            vc += a
            np.divide(vc, correct2, out=a)
            np.sqrt(a, out=a)
            a += ADAM_EPS
            np.divide(mc, correct1, out=b)
            b *= lr
            b /= a
            p -= b


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
