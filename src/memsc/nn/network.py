"""Network container and the adopted CNN architecture.

The full network takes 28x28 grayscale inputs through
Conv(10,5x5) -> BN -> Pool -> ReLU -> Conv(20,5x5) -> BN -> Pool -> ReLU
-> Conv(50,4x4) -> BN -> ReLU -> FC(10), with intermediate shapes
(10,24,24), (10,12,12), (20,8,8), (20,4,4), (50,1,1), (10).
Each pool comes before its ReLU, which then runs on a quarter of the
elements. The order moves no bit: relu(max(a)) = max(relu(a)), a window
with a positive maximum sends its gradient to the same first maximal
cell either way, and one without sends none.
fc1, fully connected, is a bias-free convolution over pool2's whole map,
as is every layer that feeds a BatchNorm; only the classifier is a Linear.
fc2 reads fc1's (50, 1, 1) map directly.

A Network is the one place that converts layouts: it takes (B, C, H, W)
batches and (B, classes) logit gradients, and hands its layers the
batch-innermost (C, H, W, B) or (F, B) arrays they work on.
"""

from __future__ import annotations

import numpy as np

from ..rng import RngState
from .layers import BatchNorm, Conv2d, Linear, MaxPool2x2, ReLU

__all__ = ["Network", "table1_network", "reduced_network"]


def _to_batch_inner(x):
    """(B, ...) -> a C-contiguous (..., B) copy; a copy even when B = 1."""
    return np.moveaxis(x, 0, -1).copy()


def _to_batch_outer(a):
    """(..., B) -> C-contiguous (B, ...)."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


class Network:
    """An ordered stack of layers with dict-addressed trainable tensors."""

    def __init__(self, layers, input_shape):
        self.layers = layers
        self.input_shape = tuple(input_shape)  # (C, H, W) without batch

    def forward(self, x, training=False):
        """Run the stack on a (B, C, H, W) batch, B >= 1; returns (logits, caches).

        x is copied once into the batch-innermost (C, H, W, B) layout and
        never written to; each layer's forward then runs on the array the
        previous one returned. Training keeps every layer's cache for
        backward; in evaluation every cache is None. The (classes, B) logits
        are transposed back to (B, classes).
        """
        if x.ndim != 4 or x.shape[1:] != self.input_shape:
            raise ValueError(f"expected batch of shape (B, {self.input_shape}), got {x.shape}")
        if x.shape[0] == 0:
            raise ValueError("empty batch: B must be >= 1")
        a = _to_batch_inner(x)
        caches = []
        for layer in self.layers:
            a, cache = layer.forward(a, training)
            caches.append(cache)
        return _to_batch_outer(a), caches

    def backward(self, caches, dlogits):
        """Gradients for every trainable tensor, keyed '<layer>.<param>'.

        caches come from forward(x, training=True). dlogits (B, classes) is
        copied once into the (classes, B) layout and never written to; each
        layer's backward then runs in reverse order.
        """
        if len(caches) != len(self.layers):
            raise ValueError("cache does not match this network's layer stack")
        grads = {}
        da = _to_batch_inner(dlogits)
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            da, layer_grads = layer.backward(da, caches[i], need_dx=(i > 0))
            for key, g in layer_grads.items():
                grads[f"{layer.name}.{key}"] = g
        return grads

    def params(self):
        """Live parameter arrays keyed '<layer>.<param>' (update in place)."""
        out = {}
        for layer in self.layers:
            if hasattr(layer, "params"):
                for key, arr in layer.params().items():
                    out[f"{layer.name}.{key}"] = arr
        return out


def table1_network(rng: RngState, dtype=np.float32) -> Network:
    """The adopted 28x28 CNN."""
    return Network(
        [
            Conv2d("conv1", 1, 10, 5, rng.split("conv1"), dtype),
            BatchNorm("bn1", 10, dtype),
            MaxPool2x2("pool1"),
            ReLU("relu1"),
            Conv2d("conv2", 10, 20, 5, rng.split("conv2"), dtype),
            BatchNorm("bn2", 20, dtype),
            MaxPool2x2("pool2"),
            ReLU("relu2"),
            Conv2d("fc1", 20, 50, 4, rng.split("fc1"), dtype),
            BatchNorm("bn3", 50, dtype),
            ReLU("relu3"),
            Linear("fc2", 50, 10, rng.split("fc2"), dtype),
        ],
        input_shape=(1, 28, 28),
    )


def reduced_network(rng: RngState, dtype=np.float64) -> Network:
    """A 6x6-input miniature with every layer type, for gradient checking."""
    return Network(
        [
            Conv2d("conv1", 1, 3, 3, rng.split("conv1"), dtype),
            BatchNorm("bn1", 3, dtype),
            MaxPool2x2("pool1"),
            ReLU("relu1"),
            Conv2d("fc1", 3, 6, 2, rng.split("fc1"), dtype),
            BatchNorm("bn2", 6, dtype),
            ReLU("relu2"),
            Linear("fc2", 6, 3, rng.split("fc2"), dtype),
        ],
        input_shape=(1, 6, 6),
    )
