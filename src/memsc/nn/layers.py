"""Minimal tensor layers with exact analytic backprop.

Tensors are plain numpy arrays in row-major (B, C, H, W) layout. Each layer
exposes forward(x, training) -> (y, cache) and
backward(dy, cache, need_dx) -> (dx, grads); trainable layers publish their
parameter arrays through params(). The cache exists only for backward:
Conv2d and MaxPool2x2 return None in eval mode (training=False), so
inference holds no per-layer buffers. Convolutions are stride-1/no-padding
and pooling is 2x2/stride-2, which is all the adopted architecture needs.

Convolution is im2col + GEMM (Chellapilla et al. 2006) on channel-major
columns of shape (C*k*k, B*OH*OW), whose row (c, i, j) is channel c shifted
by kernel offset (i, j): forward is W(F, C*k*k) @ cols, dW is
dy(F, B*OH*OW) @ cols.T, and dX adds the k*k contiguous (B, OH, OW) blocks
of W.T @ dy back into place (col2im).
"""

from __future__ import annotations

import numpy as np

from ..rng import RngState

__all__ = ["Conv2d", "BatchNorm", "ReLU", "MaxPool2x2", "Flatten", "Linear"]


def _uniform_init(shape, fan_in, rng: RngState, dtype):
    # uniform in [-s, s] with s = sqrt(1/fan_in), clamped to the bipolar
    # storage range (a no-op at these scales, kept for the contract)
    s = np.sqrt(1.0 / fan_in)
    w = rng.generator.uniform(-s, s, size=shape)
    return np.clip(w, -1.0, 1.0).astype(dtype)


class Conv2d:
    """Stride-1 valid convolution (cross-correlation) with bias."""

    def __init__(self, name, in_ch, out_ch, kernel, rng: RngState, dtype=np.float32):
        self.name = name
        self.kernel = kernel
        self.w = _uniform_init((out_ch, in_ch, kernel, kernel), in_ch * kernel * kernel, rng, dtype)
        self.b = np.zeros(out_ch, dtype=dtype)

    def params(self):
        return {"w": self.w, "b": self.b}

    def forward(self, x, training=False):
        b, c, h, w = x.shape
        k = self.kernel
        oh, ow = h - k + 1, w - k + 1
        xt = x.transpose(1, 0, 2, 3)
        cols = np.empty((c, k, k, b, oh, ow), dtype=x.dtype)
        for i in range(k):
            for j in range(k):
                cols[:, i, j] = xt[:, :, i : i + oh, j : j + ow]
        cols = cols.reshape(c * k * k, b * oh * ow)
        y = self.w.reshape(self.w.shape[0], -1) @ cols  # (F, B*OH*OW)
        y = np.ascontiguousarray(y.reshape(-1, b, oh, ow).transpose(1, 0, 2, 3))
        y += self.b[None, :, None, None]
        return y, ((cols, x.shape) if training else None)

    def backward(self, dy, cache, need_dx=True):
        cols, (b, c, h, w) = cache
        k = self.kernel
        _, f, oh, ow = dy.shape
        dyt = dy.transpose(1, 0, 2, 3).reshape(f, -1)  # (F, B*OH*OW)
        dw = (dyt @ cols.T).reshape(self.w.shape)
        db = dy.sum(axis=(0, 2, 3))
        dx = None
        if need_dx:
            dcols = (self.w.reshape(f, -1).T @ dyt).reshape(c, k, k, b, oh, ow)
            dxt = np.zeros((c, b, h, w), dtype=dcols.dtype)
            for i in range(k):
                for j in range(k):
                    dxt[:, :, i : i + oh, j : j + ow] += dcols[:, i, j]
            dx = np.ascontiguousarray(dxt.transpose(1, 0, 2, 3))
        return dx, {"w": dw.astype(self.w.dtype), "b": db.astype(self.b.dtype)}


class BatchNorm:
    """Batch normalization over (B,) or (B, H, W) per channel.

    Training mode normalizes with batch statistics and folds them into the
    running estimates; evaluation mode uses the running statistics only.
    The t-th training batch is folded in with weight max(momentum, 1/t):
    for the first 1/momentum batches the running estimates are the
    cumulative average of the batch statistics (the population estimate
    of Ioffe & Szegedy 2015, with no weight left on the initial 0 and 1),
    and after that an exponential moving average with momentum 0.1.
    """

    def __init__(self, name, channels, dtype=np.float32, momentum=0.1, eps=1e-5):
        self.name = name
        self.momentum = momentum
        self.eps = eps
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.batches_seen = 0

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def _axes_shape(self, x):
        if x.ndim == 4:
            return (0, 2, 3), (1, -1, 1, 1)
        return (0,), (1, -1)

    def forward(self, x, training=False):
        axes, shape = self._axes_shape(x)
        if training:
            mu = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.batches_seen += 1
            m = max(self.momentum, 1.0 / self.batches_seen)
            self.running_mean[...] = (1 - m) * self.running_mean + m * mu
            self.running_var[...] = (1 - m) * self.running_var + m * var
        else:
            mu, var = self.running_mean, self.running_var
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mu.reshape(shape)) * inv.reshape(shape)
        y = self.gamma.reshape(shape) * xhat + self.beta.reshape(shape)
        return y, (xhat, inv, axes, shape)

    def backward(self, dy, cache, need_dx=True):
        xhat, inv, axes, shape = cache
        n = dy.size // dy.shape[1]
        dgamma = (dy * xhat).sum(axis=axes)
        dbeta = dy.sum(axis=axes)
        dxhat = dy * self.gamma.reshape(shape)
        dx = (inv.reshape(shape) / n) * (
            n * dxhat
            - dxhat.sum(axis=axes, keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True)
        )
        return dx.astype(dy.dtype), {
            "gamma": dgamma.astype(self.gamma.dtype),
            "beta": dbeta.astype(self.beta.dtype),
        }


class ReLU:
    def __init__(self, name="relu"):
        self.name = name

    def forward(self, x, training=False):
        mask = x > 0
        return x * mask, mask

    def backward(self, dy, cache, need_dx=True):
        return dy * cache, {}


class MaxPool2x2:
    """2x2 max pooling with stride 2 (even spatial dims required).

    The output is the elementwise maximum of the four stride-2 quadrants.
    Backward routes each window's gradient to its first maximal cell in
    row-major order, (0,0), (0,1), (1,0), (1,1), and to no other: ties, such
    as the all-zero windows left by ReLU, send the gradient to one cell only.
    """

    def __init__(self, name="pool"):
        self.name = name

    def forward(self, x, training=False):
        h, w = x.shape[2:]
        if h % 2 or w % 2:
            raise ValueError(f"pooling needs even spatial dims, got {h}x{w}")
        y = np.maximum(
            np.maximum(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2]),
            np.maximum(x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]),
        )
        return y, ((x, y) if training else None)

    def backward(self, dy, cache, need_dx=True):
        x, y = cache
        dx = np.empty(x.shape, dtype=dy.dtype)
        free = np.ones(y.shape, dtype=bool)  # windows whose maximum is unclaimed
        hit = np.empty(y.shape, dtype=bool)
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            np.equal(x[:, :, i::2, j::2], y, out=hit)
            hit &= free
            np.multiply(dy, hit, out=dx[:, :, i::2, j::2])
            free &= ~hit
        return dx, {}


class Flatten:
    def __init__(self, name="flatten"):
        self.name = name

    def forward(self, x, training=False):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dy, cache, need_dx=True):
        return dy.reshape(cache), {}


class Linear:
    def __init__(self, name, in_features, out_features, rng: RngState, dtype=np.float32):
        self.name = name
        self.w = _uniform_init((out_features, in_features), in_features, rng, dtype)
        self.b = np.zeros(out_features, dtype=dtype)

    def params(self):
        return {"w": self.w, "b": self.b}

    def forward(self, x, training=False):
        return x @ self.w.T + self.b, x

    def backward(self, dy, cache, need_dx=True):
        x = cache
        dw = dy.T @ x
        db = dy.sum(axis=0)
        dx = dy @ self.w if need_dx else None
        return dx, {"w": dw.astype(self.w.dtype), "b": db.astype(self.b.dtype)}
