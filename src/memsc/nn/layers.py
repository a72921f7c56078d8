"""Minimal tensor layers with exact analytic backprop.

Activations come in two layouts. Training uses row-major (B, C, H, W) or
(B, F) arrays: each layer exposes forward(x, training) -> (y, cache) and
backward(dy, cache, need_dx) -> (dx, grads), and trainable layers publish
their parameter arrays through params(). Evaluation runs batch-innermost,
(C, H, W, B) or (F, B) (the layout of Krizhevsky's cuda-convnet), through
each layer's infer(a), which maps one such array to the next and keeps no
cache. forward(x, training=False) is infer between the two layout
transposes, so every layer has one eval implementation. infer may
overwrite its input, so it is only handed arrays the pipeline owns: the
transpose into the batch-innermost layout always copies. Convolutions are
stride-1/no-padding and pooling is 2x2/stride-2, which is all the adopted
architecture needs.

Convolution is im2col + GEMM (Chellapilla et al. 2006) on channel-major
columns whose row (c, i, j) is channel c shifted by kernel offset (i, j).
In training the columns are (C*k*k, B*OH*OW): forward is W(F, C*k*k) @ cols,
dW is dy(F, B*OH*OW) @ cols.T, and dX adds the k*k contiguous (B, OH, OW)
blocks of W.T @ dy back into place (col2im). In infer they are
(C*k*k, OH*OW*B), copied as runs of OW*B floats from the (C, H, W*B) view,
and W @ cols is already the (F, OH, OW, B) output.
"""

from __future__ import annotations

import numpy as np

from ..rng import RngState

__all__ = ["Conv2d", "BatchNorm", "ReLU", "MaxPool2x2", "Flatten", "Linear"]


def _to_batch_inner(x):
    """(B, ...) -> a C-contiguous (..., B) copy; a copy even when B = 1."""
    return np.moveaxis(x, 0, -1).copy()


def _to_batch_outer(a):
    """(..., B) -> C-contiguous (B, ...)."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


def _eval_forward(layer, x):
    return _to_batch_outer(layer.infer(_to_batch_inner(x))), None


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

    def infer(self, a):
        c, h, w, b = a.shape
        k = self.kernel
        oh, ow = h - k + 1, w - k + 1
        rows = a.reshape(c, h, w * b)
        cols = np.empty((c, k, k, oh, ow * b), dtype=a.dtype)
        for i in range(k):
            for j in range(k):
                cols[:, i, j] = rows[:, i : i + oh, j * b : (j + ow) * b]
        y = self.w.reshape(self.w.shape[0], -1) @ cols.reshape(c * k * k, -1)
        y += self.b[:, None]
        return y.reshape(-1, oh, ow, b)

    def forward(self, x, training=False):
        if not training:
            return _eval_forward(self, x)
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
        return y, (cols, x.shape)

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

    Backward is the closed form over the n = B*H*W values of a channel,
    dx = gamma*inv * (dy - dbeta/n - xhat*dgamma/n) with dgamma = sum(dy*xhat)
    and dbeta = sum(dy), inv = 1/sqrt(var + eps); it sums to zero per
    channel, so a bias feeding batch normalization gets no gradient.
    Evaluation is the affine map x*s + t with s = gamma/sqrt(running_var + eps)
    and t = beta - running_mean*s.
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

    def infer(self, a):
        s = self.gamma / np.sqrt(self.running_var + self.eps)
        t = self.beta - self.running_mean * s
        shape = (-1,) + (1,) * (a.ndim - 1)
        # in place unless a's dtype is narrower than the statistics'
        y = np.multiply(a, s.reshape(shape), out=a if np.result_type(a, s) == a.dtype else None)
        y += t.reshape(shape)
        return y

    def forward(self, x, training=False):
        if not training:
            return _eval_forward(self, x)
        axes, shape = self._axes_shape(x)
        b, c = x.shape[:2]
        mu = x.mean(axis=axes)
        xhat = x - mu.reshape(shape)
        centred = xhat.reshape(b, c, -1)
        var = np.einsum("bcs,bcs->c", centred, centred) / (x.size // c)
        self.batches_seen += 1
        m = max(self.momentum, 1.0 / self.batches_seen)
        self.running_mean[...] = (1 - m) * self.running_mean + m * mu
        self.running_var[...] = (1 - m) * self.running_var + m * var
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv.reshape(shape)
        y = xhat * self.gamma.reshape(shape)
        y += self.beta.reshape(shape)
        return y, (xhat, inv, axes, shape)

    def backward(self, dy, cache, need_dx=True):
        xhat, inv, axes, shape = cache
        b, c = dy.shape[:2]
        n = dy.size // c
        dgamma = np.einsum("bcs,bcs->c", dy.reshape(b, c, -1), xhat.reshape(b, c, -1))
        dbeta = dy.sum(axis=axes)
        dx = xhat * (-dgamma / n).reshape(shape)
        dx += dy
        dx -= (dbeta / n).reshape(shape)
        dx *= (self.gamma * inv).reshape(shape)
        return dx.astype(dy.dtype, copy=False), {
            "gamma": dgamma.astype(self.gamma.dtype),
            "beta": dbeta.astype(self.beta.dtype),
        }


class ReLU:
    def __init__(self, name="relu"):
        self.name = name

    def infer(self, a):
        return np.maximum(a, 0, out=a)

    def forward(self, x, training=False):
        if not training:
            return _eval_forward(self, x)
        mask = x > 0
        return x * mask, mask

    def backward(self, dy, cache, need_dx=True):
        return dy * cache, {}


def _quadrant_max(x, axis):
    """Elementwise maximum of the four stride-2 quadrants of axes (axis, axis+1)."""
    h, w = x.shape[axis : axis + 2]
    if h % 2 or w % 2:
        raise ValueError(f"pooling needs even spatial dims, got {h}x{w}")
    lead = (slice(None),) * axis

    def quadrant(i, j):
        return x[lead + (slice(i, None, 2), slice(j, None, 2))]

    return np.maximum(np.maximum(quadrant(0, 0), quadrant(0, 1)),
                      np.maximum(quadrant(1, 0), quadrant(1, 1)))


class MaxPool2x2:
    """2x2 max pooling with stride 2 (even spatial dims required).

    The output is the elementwise maximum of the four stride-2 quadrants.
    Backward routes each window's gradient to its first maximal cell in
    row-major order, (0,0), (0,1), (1,0), (1,1), and to no other: ties, such
    as the all-zero windows left by ReLU, send the gradient to one cell only.
    """

    def __init__(self, name="pool"):
        self.name = name

    def infer(self, a):
        return _quadrant_max(a, 1)

    def forward(self, x, training=False):
        if not training:
            return _eval_forward(self, x)
        y = _quadrant_max(x, 2)
        return y, (x, y)

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

    def infer(self, a):
        return a.reshape(-1, a.shape[-1])  # rows in (c, h, w) order, as forward's columns

    def forward(self, x, training=False):
        if not training:
            return _eval_forward(self, x)
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

    def infer(self, a):
        # x @ w.T on the (B, in) copy, not w @ a: the GEMM with swapped
        # operands rounds differently
        return (np.ascontiguousarray(a.T) @ self.w.T + self.b).T

    def forward(self, x, training=False):
        if not training:
            return _eval_forward(self, x)
        return x @ self.w.T + self.b, x

    def backward(self, dy, cache, need_dx=True):
        x = cache
        dw = dy.T @ x
        db = dy.sum(axis=0)
        dx = dy @ self.w if need_dx else None
        return dx, {"w": dw.astype(self.w.dtype), "b": db.astype(self.b.dtype)}
