"""Minimal tensor layers with exact analytic backprop.

Activations live in one layout, batch-innermost: (C, H, W, B) or (F, B),
the layout of Krizhevsky's cuda-convnet. Every layer has two methods on
it: forward(a, training=False) -> (y, cache) and backward(da, cache,
need_dx=True) -> (dx, grads), which takes the cache of a training forward.
An evaluation forward returns cache None and may overwrite its input, so
it is only handed arrays the caller owns; a training forward writes to no
input, since its cache may hold it. Trainable layers publish their
parameter arrays through params(). Convolutions are stride-1/no-padding
and pooling is 2x2/stride-2, which is all the adopted architecture needs.

Convolution is im2col + GEMM (Chellapilla et al. 2006) on channel-major
columns (C*k*k, OH*OW*B), whose row (c, i, j) is channel c shifted by
kernel offset (i, j), copied as runs of OW*B floats from the (C, H, W*B)
view. W(F, C*k*k) @ cols is already the (F, OH, OW, B) output, and dX adds
the k*k runs of W.T @ dy back into place (col2im). A training forward
caches its input, not the columns, and backward rebuilds them (Chen et al.
2016): the columns hold k*k copies of the input, and in the adopted CNN
conv2's input is the array pool1 already caches. dW is summed over blocks
of DW_BLOCK columns, (cols_blk @ dy_blk.T).T, rather than taken as one
dy @ cols.T with a reduction as long as OH*OW*B.
"""

from __future__ import annotations

import numpy as np

from ..rng import RngState

__all__ = ["Conv2d", "BatchNorm", "ReLU", "MaxPool2x2", "Flatten", "Linear"]


def _uniform_init(shape, rng: RngState, dtype):
    # uniform in [-s, s] with s = sqrt(1/fan_in) <= 1, fan_in the product of
    # the input dimensions, so inside the bipolar storage range [-1, 1]
    s = np.sqrt(1.0 / np.prod(shape[1:]))
    return rng.generator.uniform(-s, s, size=shape).astype(dtype)


# Columns per dW block. One dy @ cols.T over conv1's 147456 columns took
# 4.1 ms and over conv2's 16384 took 2.8 ms; summed over 1024-column blocks
# they took 1.6 and 1.5 ms. Blocks of 512 to 2048 came within 25 % of that,
# while at 4096 conv1's sum took 3.0 ms (medians of 31 float32 calls on 2
# OpenBLAS threads, Haswell kernels).
DW_BLOCK = 1024


def _columns(a, k):
    """The (C*k*k, OH*OW*B) im2col columns of a (C, H, W, B) array."""
    c, h, w, b = a.shape
    oh, ow = h - k + 1, w - k + 1
    rows = a.reshape(c, h, w * b)
    cols = np.empty((c, k, k, oh, ow * b), dtype=a.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = rows[:, i : i + oh, j * b : (j + ow) * b]
    return cols.reshape(c * k * k, -1)


def _weight_grad(cols, dy):
    """dy @ cols.T as a sum over blocks of DW_BLOCK columns, the last one partial."""
    n = cols.shape[1]
    return sum(cols[:, lo : lo + DW_BLOCK] @ dy[:, lo : lo + DW_BLOCK].T
               for lo in range(0, n, DW_BLOCK)).T


class Conv2d:
    """Stride-1 valid convolution (cross-correlation) with bias."""

    def __init__(self, name, in_ch, out_ch, kernel, rng: RngState, dtype=np.float32):
        self.name = name
        self.kernel = kernel
        self.w = _uniform_init((out_ch, in_ch, kernel, kernel), rng, dtype)
        self.b = np.zeros(out_ch, dtype=dtype)

    def params(self):
        return {"w": self.w, "b": self.b}

    def forward(self, a, training=False):
        _, h, w, b = a.shape
        k = self.kernel
        y = self.w.reshape(self.w.shape[0], -1) @ _columns(a, k)
        y += self.b[:, None]
        return y.reshape(-1, h - k + 1, w - k + 1, b), (a if training else None)

    def backward(self, da, cache, need_dx=True):
        a = cache  # the forward's input
        c, h, w, b = a.shape
        k = self.kernel
        f, oh, ow, _ = da.shape
        dy = da.reshape(f, -1)  # (F, OH*OW*B)
        dw = _weight_grad(_columns(a, k), dy).reshape(self.w.shape)
        db = dy.sum(axis=1)
        dx = None
        if need_dx:
            dcols = (self.w.reshape(f, -1).T @ dy).reshape(c, k, k, oh, ow * b)
            dx = np.zeros((c, h, w * b), dtype=dcols.dtype)
            for i in range(k):
                for j in range(k):
                    dx[:, i : i + oh, j * b : (j + ow) * b] += dcols[:, i, j]
            dx = dx.reshape(c, h, w, b)
        return dx, {"w": dw.astype(self.w.dtype), "b": db.astype(self.b.dtype)}


class BatchNorm:
    """Batch normalization per channel over the batch and any spatial axes.

    Training mode normalizes with batch statistics and folds them into the
    running estimates; evaluation mode uses the running statistics only.
    The t-th training batch is folded in with weight max(momentum, 1/t):
    for the first 1/momentum batches the running estimates are the
    cumulative average of the batch statistics (the population estimate
    of Ioffe & Szegedy 2015, with no weight left on the initial 0 and 1),
    and after that an exponential moving average with momentum 0.1.

    The statistics are taken over the (C, N) view of the batch-innermost
    array, N = H*W*B. Backward is the closed form over those n values,
    dx = gamma*inv * (dy - dbeta/n - xhat*dgamma/n) with dgamma = sum(dy*xhat)
    and dbeta = sum(dy), inv = 1/sqrt(var + eps); it sums to zero per
    channel, so a bias feeding batch normalization gets no gradient.
    Evaluation is the affine map x*s + t with s = gamma/sqrt(running_var + eps)
    and t = beta - running_mean*s.
    """

    momentum = 0.1
    eps = 1e-5

    def __init__(self, name, channels, dtype=np.float32):
        self.name = name
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.batches_seen = 0

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def forward(self, a, training=False):
        c = a.shape[0]
        if not training:
            s = self.gamma / np.sqrt(self.running_var + self.eps)
            t = self.beta - self.running_mean * s
            shape = (-1,) + (1,) * (a.ndim - 1)
            # in place unless a's dtype is narrower than the statistics'
            y = np.multiply(a, s.reshape(shape), out=a if np.result_type(a, s) == a.dtype else None)
            y += t.reshape(shape)
            return y, None
        flat = a.reshape(c, -1)
        mu = flat.mean(axis=1)
        xhat = flat - mu[:, None]
        var = np.einsum("cn,cn->c", xhat, xhat) / flat.shape[1]
        self.batches_seen += 1
        m = max(self.momentum, 1.0 / self.batches_seen)
        self.running_mean[...] = (1 - m) * self.running_mean + m * mu
        self.running_var[...] = (1 - m) * self.running_var + m * var
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv[:, None]
        y = xhat * self.gamma[:, None]
        y += self.beta[:, None]
        return y.reshape(a.shape), (xhat, inv, a.shape)  # xhat is (C, N)

    def backward(self, da, cache, need_dx=True):
        xhat, inv, shape = cache
        dy = da.reshape(xhat.shape)
        n = xhat.shape[1]
        dgamma = np.einsum("cn,cn->c", dy, xhat)
        dbeta = dy.sum(axis=1)
        dx = xhat * (-dgamma / n)[:, None]
        dx += dy
        dx -= (dbeta / n)[:, None]
        dx *= (self.gamma * inv)[:, None]
        return dx.reshape(shape).astype(da.dtype, copy=False), {
            "gamma": dgamma.astype(self.gamma.dtype),
            "beta": dbeta.astype(self.beta.dtype),
        }


class ReLU:
    def __init__(self, name="relu"):
        self.name = name

    def forward(self, a, training=False):
        if not training:
            return np.maximum(a, 0, out=a), None
        mask = a > 0
        return a * mask, mask

    def backward(self, da, cache, need_dx=True):
        return da * cache, {}


class MaxPool2x2:
    """2x2 max pooling with stride 2 (even spatial dims required).

    The output is the elementwise maximum of the four stride-2 quadrants.
    Backward routes each window's gradient to its first maximal cell in
    row-major order, (0,0), (0,1), (1,0), (1,1), and to no other: ties, such
    as the all-zero windows left by ReLU, send the gradient to one cell only.
    """

    def __init__(self, name="pool"):
        self.name = name

    def forward(self, a, training=False):
        h, w = a.shape[1:3]
        if h % 2 or w % 2:
            raise ValueError(f"pooling needs even spatial dims, got {h}x{w}")
        y = np.maximum(np.maximum(a[:, 0::2, 0::2], a[:, 0::2, 1::2]),
                       np.maximum(a[:, 1::2, 0::2], a[:, 1::2, 1::2]))
        return y, ((a, y) if training else None)

    def backward(self, da, cache, need_dx=True):
        a, y = cache
        dx = np.empty(a.shape, dtype=da.dtype)
        hit = np.equal(a[:, 0::2, 0::2], y)
        np.multiply(da, hit, out=dx[:, 0::2, 0::2])
        free = ~hit  # windows whose maximum is unclaimed
        for i, j in ((0, 1), (1, 0), (1, 1)):
            np.equal(a[:, i::2, j::2], y, out=hit)
            hit &= free
            np.multiply(da, hit, out=dx[:, i::2, j::2])
            free ^= hit  # hit lies within free
        return dx, {}


class Flatten:
    def __init__(self, name="flatten"):
        self.name = name

    def forward(self, a, training=False):
        # rows in (c, h, w) order
        return a.reshape(-1, a.shape[-1]), (a.shape if training else None)

    def backward(self, da, cache, need_dx=True):
        return da.reshape(cache), {}


class Linear:
    def __init__(self, name, in_features, out_features, rng: RngState, dtype=np.float32):
        self.name = name
        self.w = _uniform_init((out_features, in_features), rng, dtype)
        self.b = np.zeros(out_features, dtype=dtype)

    def params(self):
        return {"w": self.w, "b": self.b}

    def forward(self, a, training=False):
        # x @ w.T on the (B, in) copy, not w @ a: the GEMM with swapped
        # operands rounds differently
        x = np.ascontiguousarray(a.T)
        return (x @ self.w.T + self.b).T, (x if training else None)

    def backward(self, da, cache, need_dx=True):
        x = cache
        dw = da @ x
        db = da.sum(axis=1)
        dx = (da.T @ self.w).T if need_dx else None
        return dx, {"w": dw.astype(self.w.dtype), "b": db.astype(self.b.dtype)}
