"""Minimal dense-network substrate: dense matrices, manual backprop, SGD.

Learning code follows the samples-as-columns convention: a batch of n inputs
to a layer with ``in_dim`` units is an ``(in_dim, n)`` array and the output is
``(out_dim, n)``. Dataset files store samples as rows; loaders and module
boundaries transpose.

Everything is plain numpy. The layers, the forward and backward passes and
the SGD step follow their input's dtype: float32 stays float32 (the phase-1
trainer runs its SGD loop in single precision) and anything else becomes
float64, the precision of every other path, the oracles included. There is
no autodiff graph: each public loss in the repository assembles its
gradient from the analytic layer-wise backward pass here, and is checked
against central finite differences (``verify.finite_diff_grad``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np


class NumericsError(RuntimeError):
    """A public operation produced or received non-finite values."""


def _as_float(x) -> np.ndarray:
    """``x`` as an array of the kernels' precision: float32 stays float32,
    anything else becomes float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericsError(f"non-finite values in {what}")
    return arr


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, with one
    # exponential of -|z|: never exponentiates a large positive argument.
    # minimum(z, -z) rather than -abs(z) keeps a NaN's sign bit
    e = np.exp(np.minimum(z, -z))
    # the numerator without a branch: max(e, 1) = 1 for z >= 0, where
    # e <= 1, and max(e, 0) = e below; a NaN stays NaN
    return np.maximum(e, z >= 0) / (1.0 + e)


def softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) without overflow for large z."""
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


# name -> (f(z), f'(z) expressed via pre-activation z and output a); the
# identity's f' = 1 is None: backward passes its upstream straight through
ACTIVATIONS: dict[str, tuple[Callable, Optional[Callable]]] = {
    "identity": (lambda z: z, None),
    "tanh": (np.tanh, lambda z, a: 1.0 - a * a),
}


@dataclass
class DenseLayer:
    weight: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray    # (out_dim,)
    activation: str = "identity"

    def __post_init__(self):
        self.weight = _as_float(self.weight)
        self.bias = _as_float(self.bias)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError("weight must be (out, in) with matching bias")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


@dataclass
class Mlp:
    layers: list[DenseLayer] = field(default_factory=list)

    def __post_init__(self):
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(
                    f"layer dims do not chain: {a.out_dim} -> {b.in_dim}")

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def width(self) -> int:
        """Units of the widest layer, the input included."""
        return max(self.in_dim, *(layer.out_dim for layer in self.layers))


def init_dense(in_dim: int, out_dim: int, activation: str,
               rng: np.random.Generator) -> DenseLayer:
    """Uniform init in [-a, a] with a = sqrt(6 / (in + out)); zero bias."""
    a = np.sqrt(6.0 / (in_dim + out_dim))
    w = rng.uniform(-a, a, size=(out_dim, in_dim))
    return DenseLayer(w, np.zeros(out_dim), activation)


def init_mlp(dims: Sequence[int], rng: np.random.Generator) -> Mlp:
    """Fully connected net over the dimension chain ``dims``: tanh hidden
    layers and an identity output layer."""
    acts = ["tanh"] * (len(dims) - 2) + ["identity"]
    return Mlp([init_dense(din, dout, act, rng)
                for din, dout, act in zip(dims, dims[1:], acts)])


def cast(mlp: Mlp, dtype) -> Mlp:
    """A copy of the net with its weights and biases in ``dtype``."""
    return Mlp([DenseLayer(layer.weight.astype(dtype),
                           layer.bias.astype(dtype), layer.activation)
                for layer in mlp.layers])


# the library's one block budget, in elements of one block (samples x units
# of the widest layer here); bounds the temporaries of every blocked loop,
# whatever the split size
BLOCK_ELEMS = 1 << 18
# a block of more rows than this is a whole number of them, a multiple of
# every BLAS tile height
BLOCK_ALIGN = 64


def row_blocks(n: int, *nets: Mlp) -> list[slice]:
    """Row slices that cover n samples in order, for a pass through
    ``nets``: about BLOCK_ELEMS / (widest layer) rows each, the last one
    taking the remainder (no slice for n = 0).

    A sample's BLAS products round as in one whole-split product only when
    the sample keeps its place in the kernel's tiles and the product keeps
    its kernel. So a block of more than BLOCK_ALIGN rows is rounded down to
    a whole number of them, and no block is shorter than the others: a
    product over a few columns takes another kernel (a matrix-vector one
    for a single sample). Blocks much smaller than the default also move
    OpenBLAS to its small-matrix kernels, so their float results can differ
    from a whole-split pass in the last bits.
    """
    rows = max(1, BLOCK_ELEMS // max(net.width for net in nets))
    if rows > BLOCK_ALIGN:
        rows -= rows % BLOCK_ALIGN
    edges = [*range(0, n, rows)][:max(1, n // rows)] + [n]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def forward(mlp: Mlp, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Run a batch through the net.

    ``x`` is (in_dim, n). Returns the (out_dim, n) output and a tape of
    per-layer (input, pre-activation, post-activation) triples for backward.
    """
    x = _as_float(x)
    if x.ndim != 2 or x.shape[0] != mlp.in_dim:
        raise ValueError(
            f"input has {x.shape[0] if x.ndim == 2 else '?'} rows, "
            f"net expects {mlp.in_dim}")
    tape = []
    for layer in mlp.layers:
        z = layer.weight @ x + layer.bias[:, None]
        a = ACTIVATIONS[layer.activation][0](z)
        tape.append((x, z, a))
        x = a
    check_finite(x, "forward output")
    return x, tape


def backward(mlp: Mlp, tape: list, upstream: np.ndarray,
             input_grad: bool = True
             ) -> tuple[list[tuple[np.ndarray, np.ndarray]],
                        Optional[np.ndarray]]:
    """Backprop an upstream d(loss)/d(output) through the net.

    Returns ([(dW, db) per layer, in layer order], d(loss)/d(input)); the
    input gradient is None, and its product is skipped, when ``input_grad``
    is False.
    """
    if len(tape) != len(mlp.layers):
        raise ValueError("tape does not match net depth")
    da = _as_float(upstream)
    if da.shape != tape[-1][2].shape:
        raise ValueError("upstream gradient shape does not match output")
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(mlp.layers)
    for i in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[i]
        x, z, a = tape[i]
        deriv = ACTIVATIONS[layer.activation][1]
        # dz is C-ordered, as a product with the C-ordered z is: its layout
        # sets the rounding of the BLAS products below
        dz = (np.ascontiguousarray(da) if deriv is None
              else da * deriv(z, a))
        grads[i] = (dz @ x.T, dz.sum(axis=1))
        if i or input_grad:
            da = layer.weight.T @ dz
    return grads, da if input_grad else None


def sgd_step(mlp: Mlp, grads: list, learning_rate: float) -> Mlp:
    """In-place p <- p - lr * g over every weight and bias.

    Raises NumericsError, before any parameter moves, if a gradient holds a
    non-finite value.
    """
    if learning_rate < 0:
        raise ValueError("learning rate must be non-negative")
    # one test per net: the sum of every gradient entry is finite unless an
    # entry is not, or unless finite entries overflow it, which the
    # per-array check then clears
    if not math.isfinite(sum(float(dw.sum()) + float(db.sum())
                             for dw, db in grads)):
        for dw, db in grads:
            check_finite(dw, "weight gradient")
            check_finite(db, "bias gradient")
    for layer, (dw, db) in zip(mlp.layers, grads):
        layer.weight -= learning_rate * dw
        layer.bias -= learning_rate * db
    return mlp
