"""Stochastic update datapath checks against the exact float oracles.

The scalar float and binomial updates are ``update_tensor`` on 0-d arrays;
the bit-exact datapath ``sc_*_step`` is the independent reference that the
binomial law is KS-tested against.

Monte-Carlo tolerances come from the composed stream variance: the doubled
decode of a half-sum stream has sigma <= 2/sqrt(n_bit), so means over
hundreds of repetitions sit well inside the 0.05 bands used here.
"""

import numpy as np
import pytest
from scipy import stats

from memsc.optimizer import (
    OptimizerConfig,
    clip_gradient,
    sc_momentum_step,
    sc_sgd_step,
    update_tensor,
)
from memsc.rng import RngState


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
    c = cfg()
    assert clip_gradient(0.3, c) == 0.3
    assert clip_gradient(5.0, c) == 1.0
    assert clip_gradient(-2.0, c) == -1.0
    with pytest.raises(ValueError):
        clip_gradient(float("nan"), c)


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
    with pytest.raises(ValueError):
        cfg(clip_lo=1.0, clip_hi=-1.0)


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
    # p_composed = 0.5*p_theta + 0.5*(p_g*p_ne + (1-p_g)(1-p_ne)); with a
    # huge n_bit the draw concentrates on the composed mean
    theta, g, eta = 0.5, 0.2, 0.1
    c = cfg(eta=eta, n_bit=2**22)
    out = step0d(theta, g, c, rng("alg"))
    assert out == pytest.approx(theta - eta * g, abs=5e-3)


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
