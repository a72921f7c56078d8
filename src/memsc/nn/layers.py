"""Minimal tensor layers with exact analytic backprop.

Activations live in one layout, batch-innermost: (C, H, W, B) or (F, B),
the layout of Krizhevsky's cuda-convnet. There are five layer types, and
each has two methods on it: forward(a, training=False) -> (y, cache) and
backward(da, cache, need_dx=True) -> (dx, grads), which takes the cache
of a training forward. BatchNorm aside, a forward computes the same
output in both modes, and only what it caches differs. Linear reads a
(C, H, W, B) map as (C*H*W, B) features in (c, h, w) order and returns
dX in the map's shape. An evaluation forward returns cache None and may
overwrite its input, so it is only handed arrays the caller owns; a
training forward writes to no input, since its cache may hold it.
Backward may overwrite da (ReLU and BatchNorm return dx in its buffer),
so it too is only handed arrays the caller owns, but never writes to its
cache: two backward calls on one cache with equal da give equal bits.
Trainable layers publish their parameter arrays through params().
Convolutions are stride-1/no-padding and pooling is 2x2/stride-2, which
is all the adopted architecture needs.

Convolution is im2col + GEMM (Chellapilla et al. 2006) on channel-major
columns (C*k*k, OH*OW*B), whose row (c, i, j) is channel c shifted by
kernel offset (i, j), a run of OW*B floats of the (C, H, W*B) view.
W(F, C*k*k) @ cols is already the (F, OH, OW, B) output, and dX adds the
k*k runs of W.T @ dy back into place (col2im). A training step holds
little beyond its activations (Chen et al. 2016): a training forward
caches its input, not the k*k copies of it in the columns, and forward,
dW and dX each build the columns of one band of output rows at a time.
dW is one running sum over blocks of DW_BLOCK columns, (cols_blk @
dy_blk.T).T, rather than one dy @ cols.T with a reduction as long as
OH*OW*B. dX runs col2im last band first, so every element of dX takes its
(i, j) terms in (i, j) order, as in one whole-array pass.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..rng import RngState

__all__ = ["Conv2d", "BatchNorm", "ReLU", "MaxPool2x2", "Linear"]


def _check_dtype(dtype):
    # an integer dtype would truncate the uniform init to all zeros
    if not np.issubdtype(dtype, np.floating):
        raise ValueError(f"dtype must be a floating type, got {dtype!r}")


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

# Bytes of temporary per band: a Conv2d band holds this many bytes of
# im2col columns (never less than one output row), a BatchNorm backward
# chunk this many bytes of its (C, N) gradient. At batch 256 conv1 runs in
# 3-row bands of 18432 columns and conv2 in 1-row bands of 2048, both
# multiples of DW_BLOCK.
BAND_BYTES = 2 << 20


def _columns(a, k):
    """The (C*k*k, OH*OW*B) im2col columns of a (C, H, W, B) array, in one strided copy."""
    c, h, w, b = a.shape
    window = (h - k + 1, (w - k + 1) * b)
    windows = sliding_window_view(a.reshape(c, h, w * b), window, axis=(1, 2))
    return windows[:, :, ::b].reshape(c * k * k, -1)  # (c, i, j, oh, ow*b)


class Conv2d:
    """Stride-1 valid convolution (cross-correlation), without bias.

    Every convolution here feeds a BatchNorm, whose batch mean cancels any
    per-channel shift, so a bias would get an exact gradient of 0 and beta
    does its job (Ioffe & Szegedy 2015, section 3.2). A kernel that spans
    its whole input map is a fully connected layer (LeNet-5's C5).
    """

    def __init__(self, name, in_ch, out_ch, kernel, rng: RngState, dtype=np.float32):
        _check_dtype(dtype)
        self.name = name
        self.kernel = kernel
        self.w = _uniform_init((out_ch, in_ch, kernel, kernel), rng, dtype)

    def params(self):
        return {"w": self.w}

    def _bands(self, a):
        """(first output row, row count) of each band of a (C, H, W, B) input, in order."""
        c, h, w, b = a.shape
        k = self.kernel
        oh, ow = h - k + 1, w - k + 1
        rows = max(1, BAND_BYTES // (c * k * k * ow * b * a.itemsize))
        return [(r, min(rows, oh - r)) for r in range(0, oh, rows)]

    def forward(self, a, training=False):
        _, h, w, b = a.shape
        k = self.kernel
        wm = self.w.reshape(len(self.w), -1)
        y = np.empty((len(wm), h - k + 1, (w - k + 1) * b), dtype=np.result_type(wm, a))
        for r, n in self._bands(a):
            rows = y[:, r : r + n].reshape(len(y), -1)  # a view of y
            np.matmul(wm, _columns(a[:, r : r + n + k - 1], k), out=rows)
        return y.reshape(-1, h - k + 1, w - k + 1, b), (a if training else None)

    def backward(self, da, cache, need_dx=True):
        a = cache  # the forward's input
        c, h, w, b = a.shape
        k = self.kernel
        f, oh, ow, _ = da.shape
        dy = da.reshape(f, oh, ow * b)
        bands = self._bands(a)
        # dy @ cols.T as one running sum over blocks of DW_BLOCK columns, in
        # column order; a band's last block may be partial
        dw = 0
        for r, n in bands:
            cols = _columns(a[:, r : r + n + k - 1], k)
            dy_band = dy[:, r : r + n].reshape(f, -1)
            for lo in range(0, cols.shape[1], DW_BLOCK):
                dw = dw + cols[:, lo : lo + DW_BLOCK] @ dy_band[:, lo : lo + DW_BLOCK].T
            del cols  # before the next band's are built
        dx = None
        if need_dx:
            wt = self.w.reshape(f, -1).T
            dx = np.zeros((c, h, w * b), dtype=np.result_type(wt, dy))
            for r, n in reversed(bands):
                dcols = (wt @ dy[:, r : r + n].reshape(f, -1)).reshape(c, k, k, n, ow * b)
                for i in range(k):
                    for j in range(k):
                        dx[:, r + i : r + i + n, j * b : (j + ow) * b] += dcols[:, i, j]
                del dcols  # likewise
            dx = dx.reshape(c, h, w, b)
        dw = dw.T.reshape(self.w.shape)
        return dx, {"w": dw.astype(self.w.dtype)}


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
        _check_dtype(dtype)
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
        # dx overwrites dy a chunk of columns at a time, each chunk computed
        # in one buffer
        scale, shift = (-dgamma / n)[:, None], (dbeta / n)[:, None]
        gain = (self.gamma * inv)[:, None]
        step = max(1, BAND_BYTES // (len(xhat) * xhat.itemsize))
        buf = np.empty((len(xhat), min(step, n)), dtype=np.result_type(xhat, scale))
        for lo in range(0, n, step):
            dx = buf[:, : n - lo]  # the last chunk may be partial
            np.multiply(xhat[:, lo : lo + step], scale, out=dx)
            dx += dy[:, lo : lo + step]
            dx -= shift
            np.multiply(dx, gain, out=dy[:, lo : lo + step])
        return dy.reshape(shape), {
            "gamma": dgamma.astype(self.gamma.dtype),
            "beta": dbeta.astype(self.beta.dtype),
        }


class ReLU:
    def __init__(self, name="relu"):
        self.name = name

    def forward(self, a, training=False):
        y = np.maximum(a, 0, out=None if training else a)
        return y, (y > 0 if training else None)

    def backward(self, da, cache, need_dx=True):
        return np.multiply(da, cache, out=da), {}


class MaxPool2x2:
    """2x2 max pooling with stride 2 (even spatial dims required).

    The output is the elementwise maximum of the four stride-2 quadrants.
    Backward routes each window's gradient to its first maximal cell in
    row-major order, (0,0), (0,1), (1,0), (1,1), and to no other: ties, such
    as the constant windows of a flat patch of image, send the gradient to
    one cell only.
    A training forward caches that cell as a one-byte code 0-3 per window,
    not its input and output.
    """

    quadrants = ((0, 0), (0, 1), (1, 0), (1, 1))

    def __init__(self, name="pool"):
        self.name = name

    def forward(self, a, training=False):
        h, w = a.shape[1:3]
        if h % 2 or w % 2:
            raise ValueError(f"pooling needs even spatial dims, got {h}x{w}")
        y = np.maximum(a[:, 0::2, 0::2], a[:, 0::2, 1::2])
        np.maximum(y, np.maximum(a[:, 1::2, 0::2], a[:, 1::2, 1::2]), out=y)
        if not training:
            return y, None
        # code = the number of leading quadrants below the maximum: a running
        # product of "below" flags, summed
        below = np.not_equal(a[:, 0::2, 0::2], y).view(np.uint8)
        code = below.copy()
        hit = np.empty(y.shape, dtype=bool)
        for i, j in self.quadrants[1:3]:
            below &= np.not_equal(a[:, i::2, j::2], y, out=hit)
            code += below
        return y, code

    def backward(self, da, cache, need_dx=True):
        code = cache
        c, h, w, b = code.shape
        dx = np.empty((c, 2 * h, 2 * w, b), dtype=da.dtype)
        hit = np.empty(code.shape, dtype=bool)
        for q, (i, j) in enumerate(self.quadrants):
            np.multiply(da, np.equal(code, q, out=hit), out=dx[:, i::2, j::2])
        return dx, {}


class Linear:
    def __init__(self, name, in_features, out_features, rng: RngState, dtype=np.float32):
        _check_dtype(dtype)
        self.name = name
        self.w = _uniform_init((out_features, in_features), rng, dtype)
        self.b = np.zeros(out_features, dtype=dtype)

    def params(self):
        return {"w": self.w, "b": self.b}

    def forward(self, a, training=False):
        # x @ w.T on the (B, in) copy, not w @ a: the GEMM with swapped
        # operands rounds differently
        x = np.ascontiguousarray(a.reshape(-1, a.shape[-1]).T)
        return (x @ self.w.T + self.b).T, ((x, a.shape) if training else None)

    def backward(self, da, cache, need_dx=True):
        x, shape = cache
        dw = da @ x
        db = da.sum(axis=1)
        dx = (da.T @ self.w).T.reshape(shape) if need_dx else None
        return dx, {"w": dw.astype(self.w.dtype), "b": db.astype(self.b.dtype)}
