"""Layer and full-network gradient checks against central finite differences.

The numeric oracle recomputes the loss at +/-h per element (h = 1e-4,
float64); analytic gradients must match within 1e-3 relative error in the
norm-ratio metric.
"""

import numpy as np
import pytest

from memsc.nn.layers import BatchNorm, Conv2d, Flatten, Linear, MaxPool2x2, ReLU
from memsc.nn.loss import cross_entropy
from memsc.nn.network import reduced_network, table1_network
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


# ---------------------------------------------------------------------------
# single-layer checks: scalar loss = <projection, layer(x)>
# ---------------------------------------------------------------------------

def projected_loss(layer, x, proj, training=True):
    y, _ = layer.forward(x, training)
    return float((y * proj).sum())


def check_layer(layer, x, param_arrays):
    gen = np.random.default_rng(3)
    y, cache = layer.forward(x, training=True)
    proj = gen.normal(size=y.shape)
    dx, grads = layer.backward(proj, cache, need_dx=True)
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


def conv_reference(x, w, b, dy):
    """float64 forward, dW, db and dX of a valid conv, one output pixel at a time."""
    x, w, dy = (a.astype(np.float64) for a in (x, w, dy))
    k = w.shape[-1]
    oh, ow = dy.shape[2:]
    y = np.empty(dy.shape)
    dw = np.zeros(w.shape)
    dx = np.zeros(x.shape)
    for r in range(oh):
        for s in range(ow):
            window = x[:, :, r : r + k, s : s + k]  # (B, C, k, k)
            y[:, :, r, s] = np.einsum("bcij,fcij->bf", window, w) + b
            dw += np.einsum("bf,bcij->fcij", dy[:, :, r, s], window)
            dx[:, :, r : r + k, s : s + k] += np.einsum("bf,fcij->bcij", dy[:, :, r, s], w)
    return y, dw, dy.sum(axis=(0, 2, 3)), dx


def check_conv_against_reference(x, out_ch, kernel, dtype, rtol):
    gen = np.random.default_rng(13)
    layer = Conv2d("c", x.shape[1], out_ch, kernel, RngState(14).split("c"), dtype=dtype)
    layer.b[...] = gen.normal(size=out_ch)
    y, cache = layer.forward(x, training=True)
    dy = gen.normal(size=y.shape).astype(dtype)
    dx, grads = layer.backward(dy, cache, need_dx=True)
    ref = conv_reference(x, layer.w, layer.b, dy)
    for got, want in zip((y, grads["w"], grads["b"], dx), ref):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


def test_conv2d_layout_non_square_batched():
    # distinct B, C, F, H and W catch an axis swap the square gradient check cannot
    x = np.random.default_rng(15).normal(size=(3, 4, 12, 9))
    check_conv_against_reference(x, out_ch=5, kernel=5, dtype=np.float64, rtol=1e-12)


def test_conv2d_float32_table1_conv2_shape():
    x = np.random.default_rng(16).normal(size=(256, 10, 12, 12)).astype(np.float32)
    check_conv_against_reference(x, out_ch=20, kernel=5, dtype=np.float32, rtol=1e-5)


def test_linear_gradients():
    layer = Linear("l", 7, 4, RngState(12).split("l"), dtype=np.float64)
    x = np.random.default_rng(1).normal(size=(5, 7))
    check_layer(layer, x, layer.params())


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
    y, _ = MaxPool2x2().forward(x)
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
    y, cache = pool.forward(x, training=True)
    dy = gen.integers(-9, 10, size=y.shape).astype(np.float64)
    dy[dy == 0] = 1.0  # a zero gradient would hide where it was routed
    dx, _ = pool.backward(dy, cache)
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
        MaxPool2x2().forward(np.zeros((1, 1, 5, 5)))


# ---------------------------------------------------------------------------
# batch-norm statistics invariant
# ---------------------------------------------------------------------------

def test_batchnorm_training_statistics():
    bn = BatchNorm("bn", 5, dtype=np.float64)
    x = np.random.default_rng(6).normal(2.0, 3.0, size=(16, 5, 7, 7))
    _, (xhat, _, axes, _) = bn.forward(x, training=True)
    assert np.all(np.abs(xhat.mean(axis=axes)) <= 1e-6)
    assert np.all(np.abs(xhat.var(axis=axes) - 1.0) <= 1e-4)


def test_batchnorm_running_statistics_converge():
    bn = BatchNorm("bn", 2, dtype=np.float64)
    gen = np.random.default_rng(7)
    for _ in range(200):
        bn.forward(gen.normal(1.5, 2.0, size=(64, 2)), training=True)
    assert np.allclose(bn.running_mean, 1.5, atol=0.2)
    assert np.allclose(bn.running_var, 4.0, atol=0.5)
    y, _ = bn.forward(np.full((4, 2), 1.5), training=False)
    assert np.all(np.abs(y) < 0.2)  # centered input maps near beta = 0


def test_batchnorm_running_statistics_warm_start():
    # the first 1/momentum batches average into the running estimates with
    # equal weight; the initial 0/1 values carry none, so after one batch
    # the estimates are that batch's statistics
    bn = BatchNorm("bn", 3, dtype=np.float64)
    gen = np.random.default_rng(12)
    batches = [gen.normal(-2.0 + t, 0.5 + t, size=(8, 3, 4, 4)) for t in range(10)]
    for t, x in enumerate(batches, start=1):
        bn.forward(x, training=True)
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
        bn.forward(gen.normal(1.0, 2.0, size=(8, 4, 5, 5)), training=True)
    x = gen.normal(1.0, 2.0, size=(6, 4, 5, 5))
    y, cache = bn.forward(x, training=False)
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
    _, cache = bn.forward(gen.normal(0.5, 3.0, size=shape), training=True)
    dy = gen.normal(size=shape)
    dx, _ = bn.backward(dy, cache)
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


# ---------------------------------------------------------------------------
# network-level contracts
# ---------------------------------------------------------------------------

TABLE1_SHAPES = {
    "conv1": (10, 24, 24),
    "pool1": (10, 12, 12),
    "conv2": (20, 8, 8),
    "pool2": (20, 4, 4),
    "fc1": (50,),
    "fc2": (10,),
}


def test_table1_intermediate_shapes():
    net = table1_network(RngState(0), dtype=np.float32)
    x = np.zeros((2, 1, 28, 28), dtype=np.float32)
    for layer in net.layers:
        x, _ = layer.forward(x, training=True)
        if layer.name in TABLE1_SHAPES:
            assert x.shape[1:] == TABLE1_SHAPES[layer.name], layer.name
    assert x.shape == (2, 10)


def test_conv_pool_size_arithmetic():
    # stride-1 5x5 conv: out = in - 4; 2x2/2 pool halves spatial dims
    net = table1_network(RngState(1))
    x = np.zeros((1, 1, 28, 28), dtype=np.float32)
    y, _ = net.layers[0].forward(x)
    assert y.shape[-1] == 28 - 4
    p, _ = net.layers[3].forward(y)
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


def test_zero_dlogits_give_zero_gradients():
    net = reduced_network(RngState(4))
    x = np.random.default_rng(9).normal(size=(2, 1, 6, 6))
    _, caches = net.forward(x, training=True)
    grads = net.backward(caches, np.zeros((2, 3)))
    assert all(np.all(g == 0) for g in grads.values())


def test_full_reduced_network_gradient_check():
    # end-to-end analytic backward vs central differences on every tensor
    net = reduced_network(RngState(21), dtype=np.float64)
    gen = np.random.default_rng(10)
    x = gen.normal(0.0, 1.0, size=(4, 1, 6, 6))
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


def test_backward_cache_mismatch():
    net = reduced_network(RngState(5))
    with pytest.raises(ValueError):
        net.backward([], np.zeros((1, 3)))
