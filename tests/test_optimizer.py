"""Stochastic update datapath checks against the exact float oracles.

The scalar float and binomial updates are ``update_tensor`` on 0-d arrays;
the bit-exact datapath ``sc_*_step`` is the independent reference that the
binomial law is KS-tested against, and at n_bit 16 its outputs are
chi^2-tested against the exact binomial pmf. ``update_tensor``'s bitexact mode is
``sc_*_step`` looped over the tensor in flattened order on its one stream;
the order in which a step draws its streams is pinned against the
datapath composed by hand from ``encode``, ``xnor_mul`` and ``scaled_add``.

Monte-Carlo tolerances come from the composed stream variance: the doubled
decode of a half-sum stream has sigma <= 2/sqrt(n_bit), so means over
hundreds of repetitions sit well inside the 0.05 bands used here.
"""

import collections
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from memsc.optimizer import (
    OptimizerConfig,
    clip_gradient,
    sc_momentum_step,
    sc_sgd_step,
    update_tensor,
)
from memsc.rng import RngState
from memsc.sc import Priori, decode, encode, negate, scaled_add, xnor_mul


def cfg(**kw):
    return OptimizerConfig(**kw)


def rng(*labels, seed=77):
    return RngState(seed).split(*labels)


def step0d(theta, g, c, r, velocity=None):
    """The scalar update: update_tensor on 0-d arrays.

    Returns theta, or (theta, velocity) when a velocity is passed in.
    """
    v = None if velocity is None else np.array(velocity)
    new_theta, new_v, _ = update_tensor(np.array(theta), np.array(g), c, r, velocity=v)
    return float(new_theta) if velocity is None else (float(new_theta), float(new_v))


# ---------------------------------------------------------------------------
# clipping and float baselines
# ---------------------------------------------------------------------------

def test_clip_gradient():
    assert clip_gradient(0.3) == 0.3
    assert clip_gradient(5.0) == 1.0
    assert clip_gradient(-2.0) == -1.0
    with pytest.raises(ValueError):
        clip_gradient(float("nan"))


def test_float_sgd_step():
    assert step0d(0.5, 0.2, cfg(eta=0.1, exec_mode="float"), rng("f")) == pytest.approx(0.48)
    assert step0d(0.1, 0.0, cfg(eta=0.5, exec_mode="float"), rng("f")) == 0.1


def test_float_momentum_step():
    c = cfg(mode="momentum", eta=0.5, exec_mode="float")
    theta, velocity = step0d(0.0, 0.2, c, rng("f"), velocity=0.1)
    assert velocity == pytest.approx(0.19)
    assert theta == pytest.approx(-0.19)
    idle = step0d(0.3, 0.0, c, rng("f"), velocity=0.0)
    assert idle == (0.3, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(eta=0.0)
    with pytest.raises(ValueError):
        cfg(gamma=1.0)
    with pytest.raises(ValueError):
        cfg(mode="adam")
    with pytest.raises(ValueError):
        cfg(exec_mode="quantum")
    # the clip range is the bipolar range a stream can carry, not a setting
    assert (OptimizerConfig.clip_lo, OptimizerConfig.clip_hi) == (-1.0, 1.0)
    assert [f.name for f in dataclasses.fields(OptimizerConfig)] == [
        "mode", "eta", "gamma", "n_bit", "exec_mode"]
    for clip in (dict(clip_lo=-0.5), dict(clip_hi=0.75)):
        with pytest.raises(TypeError):
            cfg(**clip)
    for bad_n_bit in (1.5, 16384.0, True):
        with pytest.raises(ValueError, match="n_bit"):
            cfg(n_bit=bad_n_bit)
    for name in ("eta", "gamma"):
        with pytest.raises(ValueError):
            cfg(**{name: float("nan")})


def test_config_is_frozen():
    # assignment would bypass __post_init__'s checks; replace re-runs them
    c = cfg()
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.eta = 7.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.n_bit = 0
    assert c == cfg()
    with pytest.raises(ValueError, match="eta"):
        dataclasses.replace(c, eta=7.0)
    with pytest.raises(ValueError, match="n_bit"):
        dataclasses.replace(c, n_bit=0)
    assert dataclasses.replace(c, exec_mode="float").exec_mode == "float"


# ---------------------------------------------------------------------------
# bit-exact SGD datapath
# ---------------------------------------------------------------------------

def mean_sc_sgd(theta, g, c, reps, tag):
    return np.mean([sc_sgd_step(theta, g, c, rng(tag, k)) for k in range(reps)])


def test_sc_sgd_zero_gradient_keeps_theta():
    c = cfg(eta=0.1, n_bit=16384)
    assert abs(mean_sc_sgd(0.3, 0.0, c, 200, "zg") - 0.3) <= 0.05


def test_sc_sgd_expectation():
    c = cfg(eta=0.1, n_bit=16384)
    assert abs(mean_sc_sgd(0.5, 0.2, c, 200, "e1") - 0.48) <= 0.05


def test_sc_sgd_full_scale():
    c = cfg(eta=0.5, n_bit=16384)
    assert abs(mean_sc_sgd(1.0, 1.0, c, 200, "fs") - 0.5) <= 0.05


def test_sc_sgd_theta_out_of_range():
    with pytest.raises(ValueError):
        sc_sgd_step(1.5, 0.0, cfg(), rng("oor"))


def test_sc_sgd_unbiased_on_randomized_grid():
    gen = np.random.default_rng(31)
    reps = 500
    for eta in (0.1, 0.5):
        c = cfg(eta=eta, n_bit=16384)
        c_float = cfg(eta=eta, exec_mode="float")
        for _ in range(4):
            theta = gen.uniform(-0.45, 0.45)
            g = gen.uniform(-0.9, 0.9)
            results = np.array(
                [sc_sgd_step(theta, g, c, rng("ub", eta, theta, k)) for k in range(reps)]
            )
            se = results.std(ddof=1) / np.sqrt(reps)
            assert abs(results.mean() - step0d(theta, g, c_float, rng("f"))) <= 4 * se


def test_sc_sgd_variance_scaling():
    # variance is proportional to 1/n_bit: each 4x length step shrinks it ~4x
    theta, g, reps = 0.2, 0.5, 500
    variances = {}
    for n_bit in (1024, 4096, 16384):
        c = cfg(eta=0.5, n_bit=n_bit)
        results = [sc_sgd_step(theta, g, c, rng("var", n_bit, k)) for k in range(reps)]
        variances[n_bit] = np.var(results, ddof=1)
    assert 3.0 <= variances[1024] / variances[4096] <= 5.5
    assert 3.0 <= variances[4096] / variances[16384] <= 5.5


def test_sc_outputs_stay_in_range():
    gen = np.random.default_rng(5)
    c = cfg(eta=1.0, n_bit=64)  # short noisy streams stress the clamp
    for k in range(300):
        theta = gen.uniform(-1, 1)
        g = gen.uniform(-3, 3)
        out = sc_sgd_step(theta, g, c, rng("rng", k))
        assert -1.0 <= out <= 1.0


# ---------------------------------------------------------------------------
# bit-exact momentum datapath
# ---------------------------------------------------------------------------

def test_sc_momentum_idle_state():
    c = cfg(mode="momentum", eta=0.5, n_bit=16384)
    thetas, vs = [], []
    for k in range(200):
        theta, velocity = sc_momentum_step(0.2, 0.0, 0.0, c, rng("mi", k))
        thetas.append(theta)
        vs.append(velocity)
    assert abs(np.mean(thetas) - 0.2) <= 0.05
    assert abs(np.mean(vs)) <= 0.05


def test_sc_momentum_expectation():
    # v = 0.9*0.1 + 0.5*0.2 = 0.19; theta = 0 - v
    c = cfg(mode="momentum", eta=0.5, gamma=0.9, n_bit=16384)
    states = [sc_momentum_step(0.0, 0.1, 0.2, c, rng("me", k)) for k in range(200)]
    assert abs(np.mean([v for _, v in states]) - 0.19) <= 0.05
    assert abs(np.mean([theta for theta, _ in states]) + 0.19) <= 0.05


def test_sc_momentum_gamma_zero_matches_sgd_in_expectation():
    c_m = cfg(mode="momentum", eta=0.3, gamma=0.0, n_bit=4096)
    c_s = cfg(mode="sgd", eta=0.3, n_bit=4096)
    theta, g = 0.25, 0.5
    m = np.mean(
        [sc_momentum_step(theta, 0.0, g, c_m, rng("g0m", k))[0] for k in range(500)]
    )
    s = np.mean([sc_sgd_step(theta, g, c_s, rng("g0s", k)) for k in range(500)])
    assert abs(m - s) <= 0.05


# ---------------------------------------------------------------------------
# binomial fast path
# ---------------------------------------------------------------------------

def test_binomial_composition_probability_algebra():
    # A MUX whose doubled output is x has half-sum one-probability (2+x)/4.
    # With a huge n_bit each draw concentrates on x clamped to [-1, 1], so
    # the binomial update is the float rule clamped at each MUX output,
    # including the grid points where a clamp binds or g is clipped.
    theta, v, g = (a.ravel() for a in np.meshgrid(
        [-1.0, -0.4, 0.0, 0.7, 1.0], [-1.0, -0.3, 0.0, 1.0],
        [-2.5, -1.0, -0.2, 0.0, 0.6, 1.0, 3.0], indexing="ij",
    ))
    g_c = np.clip(g, -1.0, 1.0)
    for eta in (0.1, 0.5, 1.0):
        c = cfg(eta=eta, n_bit=2**40)
        new, _, _ = update_tensor(theta, g, c, rng("alg", eta))
        np.testing.assert_allclose(new, np.clip(theta - eta * g_c, -1, 1), rtol=0, atol=1e-5)

        c = cfg(mode="momentum", eta=eta, gamma=0.9, n_bit=2**40)
        new, new_v, _ = update_tensor(theta, g, c, rng("alg", "m", eta), velocity=v)
        # theta's MUX sees the drawn v'; each draw is within 1e-5 (~5 sigma)
        # of its own law, so theta' is within 2e-5 of clip(theta - clip(gamma v + eta g))
        np.testing.assert_allclose(new_v, np.clip(0.9 * v + eta * g_c, -1, 1), rtol=0, atol=1e-5)
        np.testing.assert_allclose(new, np.clip(theta - new_v, -1, 1), rtol=0, atol=1e-5)


def test_binomial_degenerate_single_bit():
    c = cfg(eta=0.5, n_bit=1)
    outs = {step0d(0.0, 0.0, c, rng("one", k)) for k in range(50)}
    assert outs <= {-1.0, 1.0}


def ks_pvalue_sgd(theta, g):
    c = cfg(eta=0.5, n_bit=2048)
    bit = [sc_sgd_step(theta, g, c, rng("ksb", k)) for k in range(500)]
    bino = [step0d(theta, g, c, rng("ksn", k)) for k in range(500)]
    return stats.ks_2samp(bit, bino).pvalue


def ks_pvalue_momentum(theta, v, g):
    c = cfg(mode="momentum", eta=0.5, gamma=0.9, n_bit=2048)
    bit = [sc_momentum_step(theta, v, g, c, rng("kmb", k))[0] for k in range(500)]
    bino = [step0d(theta, g, c, rng("kmn", k), velocity=v)[0] for k in range(500)]
    return stats.ks_2samp(bit, bino).pvalue


def test_mode_equivalence_sgd():
    assert ks_pvalue_sgd(0.3, -0.4) > 0.01


def test_mode_equivalence_momentum():
    assert ks_pvalue_momentum(0.2, 0.1, 0.3) > 0.01


@pytest.mark.parametrize("theta, g", [(1.0, 0.0), (-1.0, 0.0), (1.0, -1.0), (-1.0, 1.0)])
def test_mode_equivalence_sgd_clamp_corners(theta, g):
    assert ks_pvalue_sgd(theta, g) > 0.01


@pytest.mark.parametrize("theta, v, g", [(1.0, 0.0, 0.0), (-1.0, 1.0, 1.0)])
def test_mode_equivalence_momentum_clamp_corners(theta, v, g):
    assert ks_pvalue_momentum(theta, v, g) > 0.01


# Exact law of a 16-bit step: each MUX output bit is Bernoulli(q), with q
# composed from encode's thresholds round(p * 2**32) / 2**32, so the
# popcount K is Binomial(16, q) and the output is clamp(4K/16 - 2). The 10 000
# draws of a point come one after another from one stream, as in a tensor.
PMF_N_BIT, PMF_DRAWS, PMF_ALPHA = 16, 10_000, 0.001


def _p_encoded(value):
    """One-probability of encode(value) as a bipolar stream."""
    return round((value + 1.0) / 2.0 * 2**32) / 2**32


def _p_xnor(a, b):
    return a * b + (1.0 - a) * (1.0 - b)


def _mux_law(q):
    """{doubled output: probability} of a 16-bit half-sum at one-probability q.

    The clamped popcounts merge into the outputs -1 and +1.
    """
    k = np.arange(PMF_N_BIT + 1)
    law = {}
    for x, p in zip(np.clip(2.0 * (2 * k - PMF_N_BIT) / PMF_N_BIT, -1.0, 1.0),
                    stats.binom.pmf(k, PMF_N_BIT, q)):
        law[float(x)] = law.get(float(x), 0.0) + p
    return law


def _chi2_pvalue(draws, law):
    """chi^2 of the draws' cell counts against the law; cells expecting < 5 are pooled."""
    counts = collections.Counter(draws)
    assert set(counts) <= {cell for cell, p in law.items() if p > 0}
    cells = sorted(law)
    probs = np.array([law[c] for c in cells])
    expected = probs / probs.sum() * len(draws)
    observed = np.array([counts[c] for c in cells])
    small = expected < 5
    if small.any():
        expected = np.append(expected[~small], expected[small].sum())
        observed = np.append(observed[~small], observed[small].sum())
    return stats.chisquare(observed, expected).pvalue


@pytest.mark.parametrize("theta, g, eta", [(0.3, -0.4, 0.5), (0.9, 0.8, 0.1), (-0.2, 1.0, 1.0)])
def test_sc_sgd_step_has_the_exact_binomial_law(theta, g, eta):
    c = cfg(eta=eta, n_bit=PMF_N_BIT)
    r = rng("pmf", "sgd", theta, g, eta)
    draws = [sc_sgd_step(theta, g, c, r) for _ in range(PMF_DRAWS)]
    # MUX of theta and the -eta * g product, select probability 1/2
    q = 0.5 * _p_encoded(theta) + 0.5 * _p_xnor(_p_encoded(g), _p_encoded(-eta))
    assert _chi2_pvalue(draws, _mux_law(q)) > PMF_ALPHA


def test_sc_momentum_step_has_the_exact_joint_binomial_law():
    theta, v, g, eta, gamma = 0.2, 0.1, 0.3, 0.5, 0.9
    c = cfg(mode="momentum", eta=eta, gamma=gamma, n_bit=PMF_N_BIT)
    r = rng("pmf", "momentum")
    draws = [sc_momentum_step(theta, v, g, c, r) for _ in range(PMF_DRAWS)]
    # v' = MUX(gamma * v, eta * g); theta' = MUX(theta, -v') given the drawn v'
    q_v = 0.5 * _p_xnor(_p_encoded(gamma), _p_encoded(v)) + 0.5 * _p_xnor(
        _p_encoded(eta), _p_encoded(g))
    law = {
        (theta_new, v_new): p_v * p_theta
        for v_new, p_v in _mux_law(q_v).items()
        for theta_new, p_theta in _mux_law(
            0.5 * _p_encoded(theta) + 0.5 * (1.0 - _p_encoded(v_new))).items()
    }
    assert _chi2_pvalue(draws, law) > PMF_ALPHA


# ---------------------------------------------------------------------------
# tensor-level updates
# ---------------------------------------------------------------------------

def test_update_tensor_float_exactness():
    params = np.array([0.1, -0.2, 0.3])
    grads = np.array([0.5, 2.0, -3.0])  # clips to 0.5, 1.0, -1.0
    c = cfg(eta=0.1, exec_mode="float")
    new, vel, e = update_tensor(params, grads, c, rng("uf"))
    assert np.allclose(new, params - 0.1 * np.array([0.5, 1.0, -1.0]))
    assert vel is None
    assert e == pytest.approx(np.mean((np.array([0.5, 1.0, -1.0]) + 1) / 2))


def test_update_tensor_momentum_velocity_carry():
    c = cfg(mode="momentum", eta=0.5, gamma=0.9, exec_mode="float")
    params = np.zeros(2)
    grads = np.array([0.2, -0.2])
    p1, v1, _ = update_tensor(params, grads, c, rng("uv"))
    p2, v2, _ = update_tensor(p1, grads, c, rng("uv2"), velocity=v1)
    assert np.allclose(v1, [0.1, -0.1])
    assert np.allclose(v2, 0.9 * v1 + 0.5 * grads)
    assert np.allclose(p2, p1 - v2)


def test_update_tensor_e_grad_stat_extremes():
    c = cfg(exec_mode="float")
    _, _, e0 = update_tensor(np.zeros(5), np.zeros(5), c, rng("e0"))
    assert e0 == 0.5
    _, _, e1 = update_tensor(np.zeros(5), np.ones(5), c, rng("e1"))
    assert e1 == 1.0


def test_update_tensor_shape_mismatch():
    with pytest.raises(ValueError):
        update_tensor(np.zeros(3), np.zeros(4), cfg(exec_mode="float"), rng("sm"))


def test_update_tensor_binomial_matches_float_in_expectation():
    c = cfg(eta=0.2, n_bit=16384, exec_mode="binomial")
    params = np.full(4096, 0.1)
    grads = np.full(4096, 0.5)
    new, _, _ = update_tensor(params, grads, c, rng("ubin"))
    # each element is an independent draw with mean 0.1 - 0.2*0.5 = 0.0
    assert abs(new.mean() - 0.0) <= 4 * 2 / np.sqrt(c.n_bit * params.size)
    assert np.all(np.abs(new) <= 1.0)


def test_update_tensor_bitexact_small():
    c = cfg(eta=0.5, n_bit=256, exec_mode="bitexact")
    params = np.array([0.0, 0.5])
    grads = np.array([0.0, 0.0])
    new, _, e = update_tensor(params, grads, c, rng("ube"))
    assert new.shape == params.shape
    assert np.all(np.abs(new - params) <= 0.5)  # wide bound, short streams
    assert e == 0.5


def test_update_tensor_bitexact_determinism():
    c = cfg(eta=0.5, n_bit=128, exec_mode="bitexact", mode="momentum")
    params = np.array([0.2, -0.3])
    grads = np.array([0.4, 0.1])
    a = update_tensor(params, grads, c, rng("ud"), velocity=np.zeros(2))
    b = update_tensor(params, grads, c, rng("ud"), velocity=np.zeros(2))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@pytest.mark.parametrize("n_bit", [1, 129])
@pytest.mark.parametrize("mode", ["sgd", "momentum"])
def test_update_tensor_bitexact_matches_per_element_steps(mode, n_bit):
    # every (theta, v) clamp corner, each with gradients beyond both clip bounds
    grid = np.array(list(itertools.product([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [-3.0, 0.2, 2.5])))
    theta, v, g = (grid[:, k].reshape(9, 3) for k in range(3))
    c = cfg(mode=mode, eta=0.5, gamma=0.6, n_bit=n_bit, exec_mode="bitexact")
    root = rng("per-element", mode, n_bit)
    new_theta, new_v, _ = update_tensor(theta, g, c, root,
                                        velocity=v if mode == "momentum" else None)
    # the reference: one fresh stream with the tensor's labels, drawn in flattened order
    stream = RngState(root.seed, root.labels)
    want_theta, want_v = np.empty(theta.size), np.empty(theta.size)
    for i, (t, vi, gi) in enumerate(zip(theta.ravel(), v.ravel(), g.ravel())):
        if mode == "sgd":
            want_theta[i] = sc_sgd_step(t, gi, c, stream)
        else:
            want_theta[i], want_v[i] = sc_momentum_step(t, vi, gi, c, stream)
    assert np.array_equal(new_theta, want_theta.reshape(theta.shape))
    if mode == "sgd":
        assert new_v is None
    else:
        assert np.array_equal(new_v, want_v.reshape(theta.shape))


@pytest.mark.parametrize("mode", ["sgd", "momentum"])
def test_bitexact_update_draws_from_one_stream(monkeypatch, mode):
    # a tensor's bit-exact update seeds one generator, the one of the rng it
    # is given, and opens no substream; so does a single sc_momentum_step
    made = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("bit-exact updates open no substream")

    tensor_rng, step_rng = rng("seeding"), rng("seeding-ref")
    monkeypatch.setattr(np.random, "SeedSequence", counting)
    monkeypatch.setattr(RngState, "split", refused)
    c = cfg(mode=mode, n_bit=64, exec_mode="bitexact")
    velocity = np.zeros((2, 3)) if mode == "momentum" else None
    update_tensor(np.zeros((2, 3)), np.full((2, 3), 0.1), c, tensor_rng, velocity=velocity)
    assert len(made) == 1
    made.clear()
    sc_momentum_step(0.0, 0.0, 0.1, cfg(mode="momentum", n_bit=64), step_rng)
    assert len(made) == 1


@pytest.mark.parametrize("n_bit", [1, 129])
@pytest.mark.parametrize("mode,streams", [("sgd", 4), ("momentum", 8)])
def test_sc_step_draws_ceil_half_n_bit_outputs_per_stream(mode, streams, n_bit):
    # each stream takes ceil(n_bit/2) PCG64 outputs, so the next output after
    # a step is output R*ceil(n_bit/2) of a fresh stream with the same labels;
    # the element-by-element update loop rests on this
    c = cfg(mode=mode, n_bit=n_bit)
    r = rng("draw-count", mode, n_bit)
    if mode == "sgd":
        sc_sgd_step(0.3, -0.4, c, r)
    else:
        sc_momentum_step(0.3, 0.2, -0.4, c, r)
    used = streams * -(-n_bit // 2)
    fresh = rng("draw-count", mode, n_bit).generator.bit_generator.random_raw(used + 1)
    assert r.generator.bit_generator.random_raw() == fresh[used]


def _by_hand(draws, r):
    """Encode (value, priori) pairs on ``r`` one after another, in the order given."""
    return [encode(value, 64, priori, r) for value, priori in draws]


def _doubled(half_sum):
    return float(np.clip(2.0 * decode(half_sum), -1.0, 1.0))


# At 64 bits one seed leaves a few other draw orders giving the same
# output; over these four only the documented order matches.
ORDER_SEEDS = [5, 6, 7, 8]


@pytest.mark.parametrize("seed", ORDER_SEEDS)
def test_sc_sgd_step_draw_order_is_pinned(seed):
    # g, -eta, theta, select, taken in turn from the one stream
    c = cfg(n_bit=64)
    g, neg_eta, theta, select = _by_hand(
        [(-0.4, Priori.BIPOLAR), (-c.eta, Priori.BIPOLAR), (0.3, Priori.BIPOLAR),
         (0.5, Priori.UNIPOLAR)], RngState(seed))
    want = _doubled(scaled_add(theta, xnor_mul(g, neg_eta), select))
    assert sc_sgd_step(0.3, -0.4, c, RngState(seed)) == want


@pytest.mark.parametrize("seed", ORDER_SEEDS)
def test_sc_momentum_step_draw_order_is_pinned(seed):
    # gamma, v, eta, g, v_select, theta, v_new, theta_select, taken in turn
    c = cfg(mode="momentum", eta=0.5, gamma=0.9, n_bit=64)
    r = RngState(seed)
    gamma, v, eta, g, v_select, theta = _by_hand(
        [(c.gamma, Priori.BIPOLAR), (0.2, Priori.BIPOLAR), (c.eta, Priori.BIPOLAR),
         (-0.4, Priori.BIPOLAR), (0.5, Priori.UNIPOLAR), (0.3, Priori.BIPOLAR)], r)
    want_v = _doubled(scaled_add(xnor_mul(gamma, v), xnor_mul(eta, g), v_select))
    v_new, theta_select = _by_hand([(want_v, Priori.BIPOLAR), (0.5, Priori.UNIPOLAR)], r)
    want_theta = _doubled(scaled_add(theta, negate(v_new), theta_select))
    assert sc_momentum_step(0.3, 0.2, -0.4, c, RngState(seed)) == (want_theta, want_v)


@pytest.mark.parametrize("exec_mode", ["float", "binomial", "bitexact"])
@pytest.mark.parametrize("mode", ["sgd", "momentum"])
@pytest.mark.parametrize("shape", [(0,), (2, 0)])
def test_update_tensor_empty_rejected(shape, mode, exec_mode):
    c = cfg(mode=mode, n_bit=64, exec_mode=exec_mode)
    velocity = np.zeros(shape) if mode == "momentum" else None
    with pytest.raises(ValueError, match="at least one element"):
        update_tensor(np.zeros(shape), np.zeros(shape), c, rng("empty"), velocity=velocity)


UNIT = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0))


@pytest.mark.parametrize("exec_mode", ["float", "binomial", "bitexact"])
@pytest.mark.parametrize("mode", ["sgd", "momentum"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_update_clamp_boundary_property(mode, exec_mode, data):
    # theta and v anywhere in [-1, 1], endpoints included, and any finite
    # gradient, most of them far beyond the clip range: the SC modes keep
    # theta and v in [-1, 1], and float is the exact rule on the clipped g
    rows = data.draw(st.lists(
        st.tuples(UNIT, UNIT, st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=4,
    ))
    theta, v, g = (np.array(col) for col in zip(*rows))
    c = cfg(
        mode=mode, exec_mode=exec_mode,
        eta=data.draw(st.floats(0.0, 1.0, exclude_min=True)),
        gamma=data.draw(st.floats(0.0, 1.0, exclude_max=True)),
        n_bit=data.draw(st.integers(1, 64 if exec_mode == "bitexact" else 2**20)),
    )
    r = RngState(data.draw(st.integers(0, 2**32)), ("clamp",))
    momentum = mode == "momentum"
    new, new_v, _ = update_tensor(theta, g, c, r, velocity=v if momentum else None)
    g_c = np.clip(g, -1.0, 1.0)
    if exec_mode == "float":
        want_v = c.gamma * v + c.eta * g_c
        if momentum:
            assert np.array_equal(new_v, want_v) and np.array_equal(new, theta - want_v)
        else:
            assert new_v is None and np.array_equal(new, theta - c.eta * g_c)
    else:
        assert np.all(np.abs(new) <= 1.0)
        assert not momentum or np.all(np.abs(new_v) <= 1.0)


def test_update_tensor_out_of_range_params_rejected():
    c = cfg(exec_mode="binomial")
    with pytest.raises(ValueError):
        update_tensor(np.array([1.5]), np.array([0.0]), c, rng("oorp"))


@pytest.mark.parametrize("exec_mode", ["float", "binomial", "bitexact"])
@pytest.mark.parametrize("where", ["params", "velocity"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_update_tensor_non_finite_state_rejected(exec_mode, where, bad):
    c = cfg(mode="momentum", n_bit=64, exec_mode=exec_mode)
    state = {"params": np.array([0.1, 0.2]), "velocity": np.zeros(2)}
    state[where][1] = bad
    with pytest.raises(ValueError, match="parameters and velocity must be finite"):
        update_tensor(state["params"], np.zeros(2), c, rng("nf"), velocity=state["velocity"])


# ---------------------------------------------------------------------------
# zero-gradient noise law
# ---------------------------------------------------------------------------

def _zero_gradient_law(theta, n_bit):
    """Mean and variance of one SGD step at g = 0.

    The product stream -eta*g has one-probability 1/2, so the half-sum has
    p = (theta+1)/4 + 1/4, and the doubled decode 4*popcount/n - 2 has mean
    theta and variance 16*p*(1-p)/n.
    """
    p = (theta + 1.0) / 4.0 + 0.25
    return theta, 16.0 * p * (1.0 - p) / n_bit


def _assert_noise_law(draws, theta, n_bit):
    # two-sided at p = 0.001: the mean against the normal, the sample
    # variance against chi-square with n - 1 degrees of freedom
    mean, var = _zero_gradient_law(theta, n_bit)
    n = draws.size
    assert 1.0 - theta >= 6 * np.sqrt(var) and 1.0 + theta >= 6 * np.sqrt(var)  # clamp idle
    z = stats.norm.ppf(1 - 0.0005)
    assert abs(draws.mean() - mean) <= z * np.sqrt(var / n)
    chi2 = (n - 1) * draws.var(ddof=1) / var
    assert stats.chi2.ppf(0.0005, n - 1) <= chi2 <= stats.chi2.ppf(1 - 0.0005, n - 1)


@pytest.mark.parametrize("n_bit", [1024, 16384])
@pytest.mark.parametrize("theta", [0.0, 0.3, -0.5])
def test_zero_gradient_noise_law_binomial(theta, n_bit):
    params = np.full(20_000, theta)
    new, _, _ = update_tensor(params, np.zeros_like(params), cfg(n_bit=n_bit),
                              rng("noise-law", n_bit, theta))
    _assert_noise_law(new, theta, n_bit)


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_zero_gradient_noise_law_bitexact(theta):
    c = cfg(n_bit=4096)
    draws = np.array([sc_sgd_step(theta, 0.0, c, rng("noise-law-bits", theta, k))
                      for k in range(600)])
    _assert_noise_law(draws, theta, 4096)
