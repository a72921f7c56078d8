"""Layer and full-network gradient checks against central finite differences.

The numeric oracle recomputes the loss at +/-h per element (h = 1e-4,
float64); analytic gradients must match within 1e-3 relative error in the
norm-ratio metric.
"""

import inspect
import tracemalloc

import numpy as np
import pytest

from memsc.nn import TrainProtocol, layers, synthetic_dataset, train
from memsc.nn.layers import DW_BLOCK, BatchNorm, Conv2d, Linear, MaxPool2x2, ReLU
from memsc.nn.loss import cross_entropy
from memsc.nn.network import Network, reduced_network, table1_network
from memsc.optimizer import OptimizerConfig
from memsc.rng import RngState


def numeric_grad(loss_fn, arr, h=1e-4):
    grad = np.zeros_like(arr)
    flat, gflat = arr.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        lp = loss_fn()
        flat[i] = saved - h
        lm = loss_fn()
        flat[i] = saved
        gflat[i] = (lp - lm) / (2 * h)
    return grad


def rel_error(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def row_major_forward(layer, x, training=False):
    """layer.forward on (B, ...) data: copied into (..., B), run, transposed back.

    The copy means the layer never writes to or returns x, even in
    evaluation, where a layer may overwrite the array it is handed.
    """
    y, cache = layer.forward(np.moveaxis(x, 0, -1).copy(), training)
    return np.ascontiguousarray(np.moveaxis(y, -1, 0)), cache


def row_major_backward(layer, dy, cache, need_dx=True):
    """layer.backward on (B, ...) data, with a cache from row_major_forward."""
    dx, grads = layer.backward(np.moveaxis(dy, 0, -1).copy(), cache, need_dx)
    return (None if dx is None else np.ascontiguousarray(np.moveaxis(dx, -1, 0))), grads


# ---------------------------------------------------------------------------
# single-layer checks: scalar loss = <projection, layer(x)>
# ---------------------------------------------------------------------------

def projected_loss(layer, x, proj, training=True):
    y, _ = row_major_forward(layer, x, training)
    return float((y * proj).sum())


def check_layer(layer, x, param_arrays):
    gen = np.random.default_rng(3)
    y, cache = row_major_forward(layer, x, training=True)
    proj = gen.normal(size=y.shape)
    dx, grads = row_major_backward(layer, proj, cache, need_dx=True)
    num_dx = numeric_grad(lambda: projected_loss(layer, x, proj), x)
    assert rel_error(dx, num_dx) <= 1e-3
    for key, arr in param_arrays.items():
        num = numeric_grad(lambda: projected_loss(layer, x, proj), arr)
        assert rel_error(grads[key], num) <= 1e-3, key


def test_conv2d_gradients():
    rng = RngState(11)
    layer = Conv2d("c", 2, 3, 3, rng.split("c"), dtype=np.float64)
    x = np.random.default_rng(0).normal(size=(2, 2, 6, 6))
    check_layer(layer, x, layer.params())


def conv_reference(x, w, dy):
    """float64 forward, dW and dX of a valid conv, one output pixel at a time."""
    x, w, dy = (a.astype(np.float64) for a in (x, w, dy))
    k = w.shape[-1]
    oh, ow = dy.shape[2:]
    y = np.empty(dy.shape)
    dw = np.zeros(w.shape)
    dx = np.zeros(x.shape)
    for r in range(oh):
        for s in range(ow):
            window = x[:, :, r : r + k, s : s + k]  # (B, C, k, k)
            y[:, :, r, s] = np.einsum("bcij,fcij->bf", window, w)
            dw += np.einsum("bf,bcij->fcij", dy[:, :, r, s], window)
            dx[:, :, r : r + k, s : s + k] += np.einsum("bf,fcij->bcij", dy[:, :, r, s], w)
    return y, dw, dx


def check_conv_against_reference(x, out_ch, kernel, dtype, rtol):
    gen = np.random.default_rng(13)
    layer = Conv2d("c", x.shape[1], out_ch, kernel, RngState(14).split("c"), dtype=dtype)
    y, cache = row_major_forward(layer, x, training=True)
    dy = gen.normal(size=y.shape).astype(dtype)
    dx, grads = row_major_backward(layer, dy, cache, need_dx=True)
    assert grads.keys() == {"w"}
    ref = conv_reference(x, layer.w, dy)
    for got, want in zip((y, grads["w"], dx), ref):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


@pytest.mark.parametrize("shape, full_blocks", [
    ((3, 4, 12, 9), 0),   # 8*5*3 = 120 columns: one partial dW block
    ((9, 2, 24, 20), 2),  # 20*16*9 = 2880 columns: two full dW blocks and a tail
], ids=["tail", "two-blocks-and-tail"])
def test_conv2d_layout_non_square_batched(shape, full_blocks):
    # distinct B, C, F, H and W catch an axis swap the square gradient check cannot
    b, _, h, w = shape
    columns = b * (h - 4) * (w - 4)
    assert columns // DW_BLOCK == full_blocks and columns % DW_BLOCK
    x = np.random.default_rng(15).normal(size=shape)
    check_conv_against_reference(x, out_ch=5, kernel=5, dtype=np.float64, rtol=1e-12)


def test_conv2d_float32_table1_conv2_shape():
    x = np.random.default_rng(16).normal(size=(256, 10, 12, 12)).astype(np.float32)
    check_conv_against_reference(x, out_ch=20, kernel=5, dtype=np.float32, rtol=1e-5)


def test_conv2d_float32_table1_fc1_shape():
    # fc1 is a convolution whose kernel spans pool2's whole 4x4 map
    x = np.random.default_rng(17).normal(size=(256, 20, 4, 4)).astype(np.float32)
    check_conv_against_reference(x, out_ch=50, kernel=4, dtype=np.float32, rtol=1e-5)


def test_linear_gradients():
    # a (C, H, W) map is read as C*H*W features, and dX comes back in its shape
    gen = np.random.default_rng(1)
    for shape in ((5, 7), (5, 3, 2, 2)):
        layer = Linear("l", np.prod(shape[1:]), 4, RngState(12).split("l"), dtype=np.float64)
        check_layer(layer, gen.normal(size=shape), layer.params())


def test_batchnorm_gradients_4d_and_2d():
    gen = np.random.default_rng(2)
    bn4 = BatchNorm("b4", 3, dtype=np.float64)
    check_layer(bn4, gen.normal(size=(4, 3, 5, 5)), bn4.params())
    bn2 = BatchNorm("b2", 6, dtype=np.float64)
    check_layer(bn2, gen.normal(size=(8, 6)), bn2.params())


def test_maxpool_gradients():
    x = np.random.default_rng(4).normal(size=(3, 2, 6, 6))
    check_layer(MaxPool2x2(), x, {})


def test_relu_gradients():
    x = np.random.default_rng(5).normal(size=(4, 9)) + 0.05  # keep off the kink
    check_layer(ReLU(), x, {})


def test_maxpool_constant_plane():
    x = np.full((1, 1, 4, 4), 0.7)
    y, _ = row_major_forward(MaxPool2x2(), x)
    assert np.allclose(y, 0.7)
    assert y.shape == (1, 1, 2, 2)


def test_maxpool_ties_route_to_first_maximum():
    # post-ReLU data is full of all-zero windows; add windows whose maximum
    # is shared by two cells in each arrangement
    gen = np.random.default_rng(17)
    x = np.maximum(gen.normal(size=(2, 3, 6, 8)), 0.0)
    x[0, 0, 0:2, 0:2] = 0.0
    x[0, 1, 0:2, 2:4] = [[0.5, 0.9], [0.9, 0.1]]  # (0,1) and (1,0)
    x[1, 2, 2:4, 4:6] = [[0.3, 0.2], [0.7, 0.7]]  # (1,0) and (1,1)
    x[1, 0, 4:6, 6:8] = [[0.4, 0.1], [0.2, 0.4]]  # (0,0) and (1,1)
    pool = MaxPool2x2()
    y, cache = row_major_forward(pool, x, training=True)
    dy = gen.integers(-9, 10, size=y.shape).astype(np.float64)
    dy[dy == 0] = 1.0  # a zero gradient would hide where it was routed
    dx, _ = row_major_backward(pool, dy, cache)
    expected = np.zeros_like(x)
    for b, c, r, s in np.ndindex(*y.shape):
        window = x[b, c, 2 * r : 2 * r + 2, 2 * s : 2 * s + 2]
        first = next(idx for idx in np.ndindex(2, 2) if window[idx] == window.max())
        expected[b, c, 2 * r + first[0], 2 * s + first[1]] = dy[b, c, r, s]
    assert np.array_equal(dx, expected)
    assert dx.sum() == dy.sum()
    assert np.count_nonzero(dx) == dy.size


def test_pool_requires_even_dims():
    with pytest.raises(ValueError):
        row_major_forward(MaxPool2x2(), np.zeros((1, 1, 5, 5)))


# ---------------------------------------------------------------------------
# batch-norm statistics invariant
# ---------------------------------------------------------------------------

def test_batchnorm_training_statistics():
    bn = BatchNorm("bn", 5, dtype=np.float64)
    x = np.random.default_rng(6).normal(2.0, 3.0, size=(16, 5, 7, 7))
    _, (xhat, _, _) = row_major_forward(bn, x, training=True)  # xhat is (C, N)
    assert np.all(np.abs(xhat.mean(axis=1)) <= 1e-6)
    assert np.all(np.abs(xhat.var(axis=1) - 1.0) <= 1e-4)


def test_batchnorm_running_statistics_converge():
    bn = BatchNorm("bn", 2, dtype=np.float64)
    gen = np.random.default_rng(7)
    for _ in range(200):
        row_major_forward(bn, gen.normal(1.5, 2.0, size=(64, 2)), training=True)
    assert np.allclose(bn.running_mean, 1.5, atol=0.2)
    assert np.allclose(bn.running_var, 4.0, atol=0.5)
    y, _ = row_major_forward(bn, np.full((4, 2), 1.5), training=False)
    assert np.all(np.abs(y) < 0.2)  # centered input maps near beta = 0


def test_batchnorm_running_statistics_warm_start():
    # the first 1/momentum batches average into the running estimates with
    # equal weight; the initial 0/1 values carry none, so after one batch
    # the estimates are that batch's statistics
    bn = BatchNorm("bn", 3, dtype=np.float64)
    gen = np.random.default_rng(12)
    batches = [gen.normal(-2.0 + t, 0.5 + t, size=(8, 3, 4, 4)) for t in range(10)]
    for t, x in enumerate(batches, start=1):
        row_major_forward(bn, x, training=True)
        means = [b.mean(axis=(0, 2, 3)) for b in batches[:t]]
        variances = [b.var(axis=(0, 2, 3)) for b in batches[:t]]
        assert np.allclose(bn.running_mean, np.mean(means, axis=0), rtol=1e-12, atol=1e-12)
        assert np.allclose(bn.running_var, np.mean(variances, axis=0), rtol=1e-12, atol=1e-12)


def test_batchnorm_eval_is_running_statistics_affine():
    bn = BatchNorm("bn", 4, dtype=np.float64)
    gen = np.random.default_rng(18)
    bn.gamma[...] = gen.uniform(0.5, 2.0, size=4)
    bn.beta[...] = gen.normal(size=4)
    for _ in range(3):
        row_major_forward(bn, gen.normal(1.0, 2.0, size=(8, 4, 5, 5)), training=True)
    x = gen.normal(1.0, 2.0, size=(6, 4, 5, 5))
    y, cache = row_major_forward(bn, x, training=False)
    shape = (1, -1, 1, 1)
    want = bn.gamma.reshape(shape) * (x - bn.running_mean.reshape(shape)) \
        / np.sqrt(bn.running_var.reshape(shape) + bn.eps) + bn.beta.reshape(shape)
    assert cache is None
    np.testing.assert_allclose(y, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("shape", [(6, 3, 5, 4), (16, 7)])
def test_batchnorm_input_gradient_sums_to_zero_per_channel(shape):
    # y is invariant to a per-channel shift of x, so sum(dx) over a channel
    # is 0: a bias feeding batch normalization has no gradient
    gen = np.random.default_rng(19)
    bn = BatchNorm("bn", shape[1], dtype=np.float64)
    bn.gamma[...] = gen.uniform(0.5, 2.0, size=shape[1])
    _, cache = row_major_forward(bn, gen.normal(0.5, 3.0, size=shape), training=True)
    dy = gen.normal(size=shape)
    dx, _ = row_major_backward(bn, dy, cache)
    axes = (0, 2, 3) if len(shape) == 4 else (0,)
    assert np.all(np.abs(dx.sum(axis=axes)) <= 1e-12 * np.linalg.norm(dy))


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_cross_entropy_uniform_logits():
    logits = np.zeros((4, 10))
    loss, _ = cross_entropy(logits, np.array([0, 3, 5, 9]))
    assert loss == pytest.approx(np.log(10.0), rel=1e-12)


def test_cross_entropy_confident_correct():
    logits = np.zeros((1, 10))
    logits[0, 2] = 50.0
    loss, _ = cross_entropy(logits, np.array([2]))
    assert loss < 1e-12


def test_cross_entropy_gradient_finite_differences():
    gen = np.random.default_rng(8)
    logits = gen.normal(size=(3, 10))
    labels = np.array([1, 4, 7])
    _, dlogits = cross_entropy(logits, labels)
    num = numeric_grad(lambda: cross_entropy(logits, labels)[0], logits)
    assert rel_error(dlogits, num) <= 1e-4


def test_cross_entropy_shape_check():
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((3, 10)), np.array([0, 1]))


@pytest.mark.parametrize("bad", [-1, 10])
def test_cross_entropy_labels_outside_classes_rejected(bad):
    # -1 was scored as the last class (loss 0.0134 on logits favouring
    # class 2), and 10 raised IndexError
    logits = np.zeros((3, 10))
    logits[:, 2] = 5.0
    with pytest.raises(ValueError, match=rf"labels \[{bad}\]"):
        cross_entropy(logits, np.array([2, bad, 2]))


@pytest.mark.parametrize("labels", [np.array([0.5, 1.0]), np.array([True, False]), [0, 1]])
def test_cross_entropy_non_integer_labels_rejected(labels):
    # floats and bools raised numpy's IndexError, a list AttributeError
    with pytest.raises(ValueError, match="labels must be an integer array"):
        cross_entropy(np.zeros((2, 3)), labels)


# ---------------------------------------------------------------------------
# network-level contracts
# ---------------------------------------------------------------------------

TABLE1_SHAPES = {
    "conv1": (10, 24, 24),
    "pool1": (10, 12, 12),
    "conv2": (20, 8, 8),
    "pool2": (20, 4, 4),
    "fc1": (50, 1, 1),
    "fc2": (10,),
}


def test_table1_intermediate_shapes():
    net = table1_network(RngState(0), dtype=np.float32)
    x = np.zeros((2, 1, 28, 28), dtype=np.float32)
    for layer in net.layers:
        x, _ = row_major_forward(layer, x, training=True)
        if layer.name in TABLE1_SHAPES:
            assert x.shape[1:] == TABLE1_SHAPES[layer.name], layer.name
    assert x.shape == (2, 10)


@pytest.mark.parametrize("build", [table1_network, reduced_network])
def test_initial_weights_lie_in_bipolar_range(build):
    # init draws from [-s, s] with s = sqrt(1/fan_in) <= 1, so every weight
    # starts inside the range a bipolar stream can carry
    for seed in range(5):
        for name, p in build(RngState(seed)).params().items():
            assert np.all(np.abs(p) <= 1.0), (seed, name)


LAYER_BUILDERS = {
    "Conv2d": lambda dtype: Conv2d("c", 1, 2, 3, RngState(0), dtype),
    "Linear": lambda dtype: Linear("l", 4, 2, RngState(0), dtype),
    "BatchNorm": lambda dtype: BatchNorm("b", 2, dtype),
    "table1_network": lambda dtype: table1_network(RngState(0), dtype),
    "reduced_network": lambda dtype: reduced_network(RngState(0), dtype),
}


@pytest.mark.parametrize("build", LAYER_BUILDERS.values(), ids=LAYER_BUILDERS.keys())
@pytest.mark.parametrize("dtype", [np.int32, bool], ids=["int32", "bool"])
def test_layers_reject_non_floating_dtype(build, dtype):
    # an integer dtype truncated the uniform init: table1's weights all read 0
    with pytest.raises(ValueError, match="dtype"):
        build(dtype)


@pytest.mark.parametrize("build", LAYER_BUILDERS.values(), ids=LAYER_BUILDERS.keys())
@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_layers_build_at_floating_dtypes(build, dtype):
    params = build(dtype).params().values()
    assert params and all(p.dtype == dtype for p in params)


def test_conv_pool_size_arithmetic():
    # stride-1 5x5 conv: out = in - 4; 2x2/2 pool halves spatial dims
    net = table1_network(RngState(1))
    x = np.zeros((1, 1, 28, 28), dtype=np.float32)
    y, _ = row_major_forward(net.layers[0], x)
    assert y.shape[-1] == 28 - 4
    pool1 = next(layer for layer in net.layers if layer.name == "pool1")
    p, _ = row_major_forward(pool1, y)
    assert p.shape[-1] == 12


def test_eval_mode_keeps_no_conv_or_pool_cache():
    # Network.forward holds every cache until it returns, so eval mode must
    # not keep im2col columns or pooling inputs alive
    net = table1_network(RngState(6))
    _, caches = net.forward(np.zeros((2, 1, 28, 28), dtype=np.float32), training=False)
    for layer, cache in zip(net.layers, caches):
        if isinstance(layer, (Conv2d, MaxPool2x2, BatchNorm, ReLU)):
            assert cache is None, layer.name


def test_forward_zero_image_finite_logits():
    net = table1_network(RngState(2))
    logits, caches = net.forward(np.zeros((1, 1, 28, 28), dtype=np.float32), training=True)
    assert logits.shape == (1, 10)
    assert np.all(np.isfinite(logits))
    assert len(caches) == len(net.layers)


def test_forward_shape_contract():
    net = table1_network(RngState(3))
    with pytest.raises(ValueError):
        net.forward(np.zeros((1, 1, 27, 27), dtype=np.float32))


@pytest.mark.parametrize("training", [False, True])
def test_forward_rejects_empty_batch(training):
    net = table1_network(RngState(3))
    with pytest.raises(ValueError, match="empty batch"):
        net.forward(np.zeros((0, 1, 28, 28), dtype=np.float32), training)


def test_zero_dlogits_give_zero_gradients():
    net = reduced_network(RngState(4))
    x = np.random.default_rng(9).normal(size=(2, 1, 6, 6))
    _, caches = net.forward(x, training=True)
    grads = net.backward(caches, np.zeros((2, 3)))
    assert all(np.all(g == 0) for g in grads.values())


def check_reduced_network_gradients(input_seed):
    """Analytic backward vs central differences on every tensor of the reduced net."""
    net = reduced_network(RngState(21), dtype=np.float64)
    x = np.random.default_rng(input_seed).normal(0.0, 1.0, size=(4, 1, 6, 6))
    labels = np.array([0, 1, 2, 1])

    def loss_fn():
        logits, _ = net.forward(x, training=True)
        return cross_entropy(logits, labels)[0]

    logits, caches = net.forward(x, training=True)
    _, dlogits = cross_entropy(logits, labels)
    grads = net.backward(caches, dlogits)
    for name, arr in net.params().items():
        num = numeric_grad(loss_fn, arr)
        assert rel_error(grads[name], num) <= 1e-3, name


# No tensor has an exact gradient of 0 (no bias feeds a BatchNorm), so a
# relative error is meaningful for every tensor on every input seed.
@pytest.mark.parametrize("seed", range(20))
def test_reduced_network_gradient_check_input_seeds(seed):
    check_reduced_network_gradients(seed)


@pytest.mark.parametrize("build", [table1_network, reduced_network])
def test_every_tensor_gets_a_gradient(build):
    # a tensor whose gradient is 0 on every batch, such as a bias feeding a
    # BatchNorm, would only carry update streams
    net = build(RngState(57))
    dtype = net.layers[0].w.dtype
    gen = np.random.default_rng(58)
    x = gen.uniform(0.0, 1.0, size=(16,) + net.input_shape).astype(dtype)
    logits, caches = net.forward(x, training=True)
    _, dlogits = cross_entropy(logits, gen.integers(0, logits.shape[1], size=16))
    grads = net.backward(caches, dlogits)
    assert grads.keys() == net.params().keys()
    small = {name: float(np.abs(g).max()) for name, g in grads.items() if np.abs(g).max() < 1e-6}
    assert not small, small


def test_backward_cache_mismatch():
    net = reduced_network(RngState(5))
    with pytest.raises(ValueError):
        net.backward([], np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# batch-innermost training and evaluation against the (B, C, H, W) kernels
# they replaced
# ---------------------------------------------------------------------------

def reference_train_forward(layer, x):
    """The row-major training forward each layer ran before its batch-innermost one."""
    if isinstance(layer, Conv2d):
        b, c, h, w = x.shape
        k = layer.kernel
        oh, ow = h - k + 1, w - k + 1
        xt = x.transpose(1, 0, 2, 3)
        cols = np.empty((c, k, k, b, oh, ow), dtype=x.dtype)
        for i in range(k):
            for j in range(k):
                cols[:, i, j] = xt[:, :, i : i + oh, j : j + ow]
        cols = cols.reshape(c * k * k, b * oh * ow)
        y = layer.w.reshape(layer.w.shape[0], -1) @ cols
        y = np.ascontiguousarray(y.reshape(-1, b, oh, ow).transpose(1, 0, 2, 3))
        return y, (cols, x.shape)
    if isinstance(layer, BatchNorm):
        axes, shape = ((0, 2, 3), (1, -1, 1, 1)) if x.ndim == 4 else ((0,), (1, -1))
        b, c = x.shape[:2]
        mu = x.mean(axis=axes)
        xhat = x - mu.reshape(shape)
        centred = xhat.reshape(b, c, -1)
        var = np.einsum("bcs,bcs->c", centred, centred) / (x.size // c)
        layer.batches_seen += 1
        m = max(layer.momentum, 1.0 / layer.batches_seen)
        layer.running_mean[...] = (1 - m) * layer.running_mean + m * mu
        layer.running_var[...] = (1 - m) * layer.running_var + m * var
        inv = 1.0 / np.sqrt(var + layer.eps)
        xhat *= inv.reshape(shape)
        y = xhat * layer.gamma.reshape(shape)
        y += layer.beta.reshape(shape)
        return y, (xhat, inv, axes, shape)
    if isinstance(layer, ReLU):
        mask = x > 0
        return x * mask, mask
    if isinstance(layer, MaxPool2x2):
        y = np.maximum(
            np.maximum(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2]),
            np.maximum(x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]),
        )
        return y, (x, y)
    flat = x.reshape(len(x), -1)  # features in (c, h, w) order
    return flat @ layer.w.T + layer.b, (flat, x.shape)


def reference_train_backward(layer, dy, cache):
    """The row-major backward each layer ran before its batch-innermost one."""
    if isinstance(layer, Conv2d):
        cols, (b, c, h, w) = cache
        k = layer.kernel
        _, f, oh, ow = dy.shape
        dyt = dy.transpose(1, 0, 2, 3).reshape(f, -1)
        dw = (dyt @ cols.T).reshape(layer.w.shape)
        dcols = (layer.w.reshape(f, -1).T @ dyt).reshape(c, k, k, b, oh, ow)
        dxt = np.zeros((c, b, h, w), dtype=dcols.dtype)
        for i in range(k):
            for j in range(k):
                dxt[:, :, i : i + oh, j : j + ow] += dcols[:, i, j]
        dx = np.ascontiguousarray(dxt.transpose(1, 0, 2, 3))
        return dx, {"w": dw.astype(layer.w.dtype)}
    if isinstance(layer, BatchNorm):
        xhat, inv, axes, shape = cache
        b, c = dy.shape[:2]
        n = dy.size // c
        dgamma = np.einsum("bcs,bcs->c", dy.reshape(b, c, -1), xhat.reshape(b, c, -1))
        dbeta = dy.sum(axis=axes)
        dx = xhat * (-dgamma / n).reshape(shape)
        dx += dy
        dx -= (dbeta / n).reshape(shape)
        dx *= (layer.gamma * inv).reshape(shape)
        return dx.astype(dy.dtype, copy=False), {
            "gamma": dgamma.astype(layer.gamma.dtype),
            "beta": dbeta.astype(layer.beta.dtype),
        }
    if isinstance(layer, ReLU):
        return dy * cache, {}
    if isinstance(layer, MaxPool2x2):
        x, y = cache
        dx = np.empty(x.shape, dtype=dy.dtype)
        free = np.ones(y.shape, dtype=bool)
        hit = np.empty(y.shape, dtype=bool)
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            np.equal(x[:, :, i::2, j::2], y, out=hit)
            hit &= free
            np.multiply(dy, hit, out=dx[:, :, i::2, j::2])
            free &= ~hit
        return dx, {}
    x, shape = cache
    dw = dy.T @ x
    db = dy.sum(axis=0)
    return (dy @ layer.w).reshape(shape), {"w": dw.astype(layer.w.dtype),
                                          "b": db.astype(layer.b.dtype)}


def reference_eval(layer, x):
    """The row-major eval forward each layer ran before its batch-innermost one (the oracle)."""
    if isinstance(layer, BatchNorm):
        shape = (1, -1, 1, 1) if x.ndim == 4 else (1, -1)
        s = layer.gamma / np.sqrt(layer.running_var + layer.eps)
        t = layer.beta - layer.running_mean * s
        y = x * s.reshape(shape)
        y += t.reshape(shape)
        return y
    if isinstance(layer, ReLU):
        return np.maximum(x, 0)
    return reference_train_forward(layer, x)[0]


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def trained_nets():
    """Briefly trained nets, so BatchNorm's running statistics are not 0 and 1."""
    nets = {}
    digits = synthetic_dataset(256, seed=30), synthetic_dataset(32, seed=31)
    for mode in ("float", "binomial"):
        net = table1_network(RngState(40))
        train(net, *digits, OptimizerConfig(exec_mode=mode, n_bit=4096),
              TrainProtocol(batch_size=128, seed=41, eval_every=0))
        nets[f"table1-{mode}"] = net
    shape = dict(classes=3, size=6)
    small = synthetic_dataset(256, seed=32, **shape), synthetic_dataset(32, seed=33, **shape)
    net = reduced_network(RngState(42), dtype=np.float64)
    train(net, *small, OptimizerConfig(exec_mode="float"),
          TrainProtocol(batch_size=64, seed=43, eval_every=0))
    nets["reduced-float64"] = net
    return nets


def eval_inputs(net, batch, seed):
    dtype = net.layers[0].w.dtype
    gen = np.random.default_rng([seed, batch])
    return gen.uniform(0.0, 1.0, size=(batch,) + net.input_shape).astype(dtype)


@pytest.mark.parametrize("batch", [1, 3, 32, 64, 100, 300])
@pytest.mark.parametrize("name", ["table1-float", "table1-binomial", "reduced-float64"])
def test_eval_forward_bit_identical_to_row_major(trained_nets, name, batch):
    net = trained_nets[name]
    for seed in range(3):
        x = eval_inputs(net, batch, seed)
        want = x
        for layer in net.layers:
            want = reference_eval(layer, want)
        logits, caches = net.forward(x, training=False)
        assert same_bits(logits, want) and logits.flags.c_contiguous
        assert caches == [None] * len(net.layers)
        y = x
        for layer in net.layers:
            y_ref = reference_eval(layer, y)
            y, cache = row_major_forward(layer, y, False)
            assert cache is None and same_bits(y, y_ref), layer.name
            assert y.flags.c_contiguous, layer.name


@pytest.mark.parametrize("x_dtype, bn_dtype", [
    (np.float32, np.float32), (np.float32, np.float64), (np.float64, np.float32),
])
def test_batchnorm_eval_dtype_as_row_major(x_dtype, bn_dtype):
    # the eval forward scales in place only when that keeps the row-major result dtype
    bn = BatchNorm("bn", 3, dtype=bn_dtype)
    gen = np.random.default_rng(19)
    row_major_forward(bn, gen.normal(1.0, 2.0, size=(8, 3, 4, 4)).astype(bn_dtype), training=True)
    for shape in ((5, 3, 4, 4), (5, 3)):
        x = gen.normal(size=shape).astype(x_dtype)
        y, _ = row_major_forward(bn, x, False)
        assert same_bits(y, reference_eval(bn, x))


@pytest.mark.parametrize("batch", [1, 3])
def test_eval_forward_leaves_input_unchanged(trained_nets, batch):
    # eval forwards work in place on the arrays they own; the copy into the
    # batch-innermost layout must happen even when B = 1 makes it a view
    net = trained_nets["table1-float"]
    x = eval_inputs(net, batch, 0) - 0.5
    saved = x.copy()
    net.forward(x, training=False)
    assert same_bits(x, saved)
    for layer in net.layers:
        layer_in = x.copy()
        y, _ = row_major_forward(layer, x, False)
        assert same_bits(x, layer_in), layer.name
        assert not np.shares_memory(x, y), layer.name
        x = y
    negative = -np.ones((batch, 4))
    row_major_forward(ReLU(), negative, False)
    row_major_forward(BatchNorm("bn", 4), negative, False)
    assert np.all(negative == -1.0)


def reference_step(net, x, labels):
    """Logits, loss and gradients of one row-major training step."""
    caches = []
    for layer in net.layers:
        x, cache = reference_train_forward(layer, x)
        caches.append(cache)
    loss, dy = cross_entropy(x, labels)
    grads = {}
    for layer, cache in zip(reversed(net.layers), reversed(caches)):
        dy, layer_grads = reference_train_backward(layer, dy, cache)
        grads.update({f"{layer.name}.{key}": g for key, g in layer_grads.items()})
    return x, loss, grads


@pytest.mark.parametrize("build, batch", [
    (table1_network, 1), (table1_network, 3), (table1_network, 8), (reduced_network, 4),
])
def test_training_step_matches_row_major(build, batch):
    net, ref = build(RngState(44), dtype=np.float64), build(RngState(44), dtype=np.float64)
    gen = np.random.default_rng([45, batch])
    classes = net.layers[-1].w.shape[0]
    for _ in range(2):  # the second step folds into warm running statistics
        x = gen.uniform(0.0, 1.0, size=(batch,) + net.input_shape)
        labels = gen.integers(0, classes, size=batch)
        logits, caches = net.forward(x, training=True)
        loss, dlogits = cross_entropy(logits, labels)
        grads = net.backward(caches, dlogits)
        want_logits, want_loss, want_grads = reference_step(ref, x, labels)
        np.testing.assert_allclose(logits, want_logits, rtol=1e-12,
                                   atol=1e-12 * np.abs(want_logits).max())
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert grads.keys() == want_grads.keys()
        for name, want in want_grads.items():
            got = grads[name]
            assert got.shape == want.shape and got.dtype == want.dtype, name
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max(),
                                       err_msg=name)
        for layer, ref_layer in zip(net.layers, ref.layers):
            if isinstance(layer, BatchNorm):
                assert layer.batches_seen == ref_layer.batches_seen
                for stat in ("running_mean", "running_var"):
                    np.testing.assert_allclose(getattr(layer, stat), getattr(ref_layer, stat),
                                               rtol=1e-12, atol=1e-12, err_msg=layer.name)


@pytest.mark.parametrize("in_ch, out_ch, kernel, size", [
    (1, 10, 5, 28), (10, 20, 5, 12), (20, 50, 4, 4),
], ids=["1-10-28", "10-20-12", "20-50-4"])
def test_conv2d_training_bits_as_row_major(in_ch, out_ch, kernel, size):
    # the table1 conv shapes at batch 256, fc1's kernel spanning its whole
    # map: same output and dX bits; dW reduces over B*OH*OW in another order
    gen = np.random.default_rng(46)
    layer = Conv2d("c", in_ch, out_ch, kernel, RngState(47).split("c"))
    x = gen.uniform(0.0, 1.0, size=(256, in_ch, size, size)).astype(np.float32)
    y, cache = row_major_forward(layer, x, training=True)
    want_y, want_cache = reference_train_forward(layer, x)
    assert same_bits(y, want_y)
    dy = gen.normal(size=y.shape).astype(np.float32)
    dx, grads = row_major_backward(layer, dy, cache)
    want_dx, want_grads = reference_train_backward(layer, dy, want_cache)
    assert same_bits(dx, want_dx)
    for key, want in want_grads.items():
        np.testing.assert_allclose(grads[key], want, rtol=1e-5, atol=1e-5 * np.abs(want).max())


@pytest.mark.parametrize("batch", [1, 3])
def test_training_leaves_inputs_unchanged(batch):
    # the copy into the batch-innermost layout must happen even when B = 1
    # makes np.moveaxis contiguous, so no output or cache aliases an input
    net = table1_network(RngState(48))
    x = eval_inputs(net, batch, 1) - 0.5
    saved = x.copy()
    logits, caches = net.forward(x, training=True)
    dlogits = np.random.default_rng(49).normal(size=logits.shape).astype(np.float32)
    saved_dlogits = dlogits.copy()
    net.backward(caches, dlogits)
    assert same_bits(x, saved) and same_bits(dlogits, saved_dlogits)
    for layer in net.layers:
        layer_in = x.copy()
        y, cache = row_major_forward(layer, x, True)
        assert same_bits(x, layer_in), layer.name
        assert not np.shares_memory(x, y), layer.name
        held = cache if isinstance(cache, tuple) else (cache,)
        assert not any(np.shares_memory(x, a) for a in held if isinstance(a, np.ndarray)), layer.name
        dy = np.random.default_rng(50).normal(size=y.shape).astype(np.float32)
        dy_in = dy.copy()
        dx, _ = row_major_backward(layer, dy, cache)
        assert same_bits(dy, dy_in), layer.name
        assert not np.shares_memory(dy, dx), layer.name
        x = y


# ---------------------------------------------------------------------------
# what a training step holds: backward leaves its cache intact, pooling
# caches a one-byte code, and a convolution builds its columns in bands
# ---------------------------------------------------------------------------

def cache_arrays(cache):
    return [a for a in (cache if isinstance(cache, tuple) else (cache,))
            if isinstance(a, np.ndarray)]


# one (layer, batch-innermost input shape) case per layer type and input rank
LAYER_CASES = {
    "conv": (Conv2d("conv", 2, 3, 5, RngState(51).split("conv")), (2, 16, 16, 256)),  # 4 bands
    "bn-4d": (BatchNorm("bn4", 3), (3, 6, 6, 8)),
    "bn-2d": (BatchNorm("bn2", 5), (5, 8)),
    "relu": (ReLU(), (3, 6, 6, 8)),
    "pool": (MaxPool2x2(), (3, 6, 6, 8)),
    "linear-map": (Linear("fc", 12, 4, RngState(52).split("fc")), (3, 2, 2, 8)),
    "linear": (Linear("fc", 12, 4, RngState(52).split("fc")), (12, 8)),
}


def test_every_layer_has_the_one_contract():
    # a second forward or backward signature would be a second path
    # through every stack of layers
    for name in layers.__all__:
        cls = getattr(layers, name)
        assert str(inspect.signature(cls.forward)) == "(self, a, training=False)", name
        assert str(inspect.signature(cls.backward)) == "(self, da, cache, need_dx=True)", name
    assert {type(layer).__name__ for layer, _ in LAYER_CASES.values()} == set(layers.__all__)


ONE_OUTPUT_CASES = {k: case for k, case in LAYER_CASES.items() if not k.startswith("bn")}


@pytest.mark.parametrize("layer, shape", ONE_OUTPUT_CASES.values(), ids=ONE_OUTPUT_CASES.keys())
def test_forward_computes_one_output_in_both_modes(layer, shape):
    # BatchNorm aside, the mode sets only what a forward caches; x holds
    # negatives, zeros of both signs, and ties in pooling windows
    x = np.random.default_rng(54).normal(size=shape).astype(np.float32)
    x.flat[::3] = 0.0
    x.flat[1::6] = -0.0
    y_train, _ = layer.forward(x.copy(), training=True)
    y_eval, _ = layer.forward(x.copy(), training=False)
    assert same_bits(y_train, y_eval)


@pytest.mark.parametrize("layer, shape", LAYER_CASES.values(), ids=LAYER_CASES.keys())
def test_backward_may_overwrite_da_but_not_its_cache(layer, shape):
    gen = np.random.default_rng(53)
    x = np.maximum(gen.normal(size=shape), 0.0).astype(np.float32)  # ReLU'd: ties in pooling
    y, cache = layer.forward(x, training=True)
    held = [a.copy() for a in cache_arrays(cache)]
    da = gen.normal(size=y.shape).astype(np.float32)
    first_dx, first_grads = layer.backward(da.copy(), cache)
    second_dx, second_grads = layer.backward(da.copy(), cache)
    assert same_bits(first_dx, second_dx)
    assert first_grads.keys() == second_grads.keys()
    assert all(same_bits(first_grads[k], second_grads[k]) for k in first_grads)
    assert all(same_bits(a, b) for a, b in zip(cache_arrays(cache), held))


@pytest.mark.parametrize("batch", [1, 3])
def test_maxpool_routes_quantized_relu_ties_to_first_maximum(batch):
    # three levels after ReLU make most windows tie, in every arrangement
    gen = np.random.default_rng([54, batch])
    x = (np.clip(np.round(gen.normal(size=(4, 8, 10, batch))), 0, 2) * 0.5).astype(np.float32)
    pool = MaxPool2x2()
    y, code = pool.forward(x, training=True)
    assert code.dtype == np.uint8 and code.shape == y.shape
    dy = (gen.integers(1, 10, size=y.shape) * gen.choice([-1, 1], y.shape)).astype(np.float32)
    dx, _ = pool.backward(dy.copy(), code)
    expected = np.empty_like(x)
    for c, r, s, b in np.ndindex(*y.shape):
        window = x[c, 2 * r : 2 * r + 2, 2 * s : 2 * s + 2, b]
        assert y[c, r, s, b] == window.max()
        first = next(idx for idx in np.ndindex(2, 2) if window[idx] == window.max())
        for i, j in np.ndindex(2, 2):
            # dy * 0 on the other cells: -0.0 where dy < 0, as the layer gives
            expected[c, 2 * r + i, 2 * s + j, b] = dy[c, r, s, b] * ((i, j) == first)
    assert same_bits(dx, expected)
    assert np.count_nonzero(dx) == dy.size


@pytest.mark.parametrize("in_ch, out_ch, size", [(1, 10, 28), (10, 20, 12)],
                         ids=["conv1", "conv2"])
def test_conv2d_call_holds_under_half_its_columns(in_ch, out_ch, size):
    # the table1 conv shapes at batch 256: beyond the arrays it returns, a
    # forward or backward call holds under half of the layer's whole
    # (C*k*k, OH*OW*B) float32 columns at its peak; building them whole
    # holds all of them
    gen = np.random.default_rng(55)
    layer = Conv2d("c", in_ch, out_ch, 5, RngState(56).split("c"))
    a = gen.uniform(0.0, 1.0, size=(in_ch, size, size, 256)).astype(np.float32)
    column_bytes = in_ch * 25 * (size - 4) ** 2 * 256 * 4

    def transient_peak(call):
        tracemalloc.start()
        try:
            out = call()
            returned, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, peak - returned

    (y, cache), forward_bytes = transient_peak(lambda: layer.forward(a, training=True))
    da = gen.normal(size=y.shape).astype(np.float32)
    _, backward_bytes = transient_peak(lambda: layer.backward(da, cache))
    assert forward_bytes < 0.5 * column_bytes
    assert backward_bytes < 0.5 * column_bytes


# ---------------------------------------------------------------------------
# pooling before ReLU: the builders' order gives the bits of ReLU before pooling
# ---------------------------------------------------------------------------

def relu_before_pool(net):
    """A Network over net's layer objects with each ReLU moved back in front of its pool."""
    order = list(net.layers)
    pools = [i for i, layer in enumerate(order) if isinstance(layer, MaxPool2x2)]
    for i in pools:
        assert isinstance(order[i + 1], ReLU)
        order[i], order[i + 1] = order[i + 1], order[i]
    return Network(order, net.input_shape)


def tie_windows(a):
    """Counts of 2x2 windows of a (C, H, W, B) map: all negative, maximum exactly 0,
    and a positive maximum held by more than one cell."""
    quads = np.stack([a[:, i::2, j::2] for i, j in MaxPool2x2.quadrants])
    top = quads.max(axis=0)
    repeated = (quads == top).sum(axis=0) > 1
    return (int((top < 0).sum()), int((top == 0).sum()), int((repeated & (top > 0)).sum()))


@pytest.mark.parametrize("build, batch", [(table1_network, 8), (reduced_network, 16)])
def test_pool_before_relu_gives_the_bits_of_relu_before_pool(build, batch):
    net = build(RngState(60))
    old = relu_before_pool(net)
    for layer in net.layers:
        if isinstance(layer, BatchNorm):
            # channel 0 is exactly 0, channel 1 negative, channel 2 positive
            layer.gamma[:3] = (0.0, 0.1, 0.1)
            layer.beta[:3] = (0.0, -1.0, 1.0)
    gen = np.random.default_rng([61, batch])
    dtype = net.layers[0].w.dtype
    x = gen.uniform(0.0, 1.0, size=(batch,) + net.input_shape).astype(dtype)
    x[: batch // 4] = 1.0  # flat images: every window of their maps ties
    x[batch // 4 : batch // 2] = 0.0
    labels = gen.integers(0, net.layers[-1].w.shape[0], size=batch)

    # every pool sees all three kinds of tie, in evaluation here
    a = np.moveaxis(x, 0, -1).copy()
    for layer in net.layers:
        if isinstance(layer, MaxPool2x2):
            assert min(tie_windows(a)) > 0, layer.name
        a, _ = layer.forward(a, training=False)

    assert same_bits(net.forward(x)[0], old.forward(x)[0])
    steps = []
    for stack in (net, old):  # BatchNorm's running statistics do not enter a training step
        logits, caches = stack.forward(x, training=True)
        grads = stack.backward(caches, cross_entropy(logits, labels)[1])
        steps.append((logits, grads))
    (logits, grads), (old_logits, old_grads) = steps
    assert same_bits(logits, old_logits)
    assert grads.keys() == old_grads.keys()
    assert all(same_bits(grads[k], old_grads[k]) for k in grads)


def test_batchnorm_backward_works_in_one_chunk_buffer():
    # three BAND_BYTES chunks of columns, the last one partial
    c = 3
    step = layers.BAND_BYTES // (c * 8)
    n = 2 * step + 37
    bn = BatchNorm("bn", c, dtype=np.float64)
    gen = np.random.default_rng(62)
    bn.gamma[...] = gen.uniform(0.5, 2.0, c)
    _, cache = bn.forward(gen.normal(1.0, 2.0, size=(c, n)), training=True)
    da = gen.normal(size=(c, n))
    xhat, inv, _ = cache
    # the closed form over the whole array, in the layer's operation order
    dgamma, dbeta = np.einsum("cn,cn->c", da, xhat), da.sum(axis=1)
    want = xhat * (-dgamma / n)[:, None]
    want += da
    want -= (dbeta / n)[:, None]
    want *= (bn.gamma * inv)[:, None]
    tracemalloc.start()
    try:
        dx, grads = bn.backward(da, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_bits(dx, want) and np.shares_memory(dx, da)
    assert same_bits(grads["gamma"], dgamma) and same_bits(grads["beta"], dbeta)
    assert peak <= 1.25 * c * step * 8
