"""Stochastic-domain SGD and momentum parameter updates over bit streams.

The update datapath encodes the clipped gradient, the negated learning
rate, and the current parameter as independent bipolar streams; an XNOR
forms the -eta*g product and a 0.5-select multiplexer adds it to the
parameter. Scaled addition halves the sum, so the decoded result is
doubled and clamped back to [-1, 1]. In expectation the update equals the
exact rule theta - eta*g whenever no clamp binds.

``update_tensor`` is the one update kernel; called on 0-d arrays it is the
scalar update. Its exec modes are
  float     exact real arithmetic (the 32-bit baseline and oracle),
  binomial  popcount of the final stream drawn from its analytic
            Binomial(n_bit, p) law,
  bitexact  ``sc_sgd_step`` / ``sc_momentum_step`` per element.
The ``sc_*_step`` functions simulate the packed streams bit by bit; they
are the datapath itself and the independent reference that the binomial
law is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngState
from .sc import BitStream, Priori, decode, encode, negate, scaled_add, xnor_mul

__all__ = [
    "OptimizerConfig",
    "clip_gradient",
    "sc_sgd_step",
    "sc_momentum_step",
    "update_tensor",
    "MODES",
    "EXEC_MODES",
]

MODES = ("sgd", "momentum")
EXEC_MODES = ("float", "bitexact", "binomial")


@dataclass
class OptimizerConfig:
    mode: str = "sgd"
    eta: float = 0.5
    gamma: float = 0.9
    n_bit: int = 16384
    clip_lo: float = -1.0
    clip_hi: float = 1.0
    exec_mode: str = "binomial"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.exec_mode not in EXEC_MODES:
            raise ValueError(f"exec_mode must be one of {EXEC_MODES}, got {self.exec_mode!r}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if self.n_bit < 1:
            raise ValueError("n_bit must be >= 1")
        if self.clip_lo >= self.clip_hi:
            raise ValueError("clip_lo must be below clip_hi")


def clip_gradient(g, cfg: OptimizerConfig):
    """Clip a gradient (scalar or array) to [clip_lo, clip_hi]."""
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient contains non-finite values")
    clipped = np.clip(g, cfg.clip_lo, cfg.clip_hi)
    return float(clipped) if clipped.ndim == 0 else clipped


def _clamp_unit(x):
    return np.clip(x, -1.0, 1.0)


# ---------------------------------------------------------------------------
# Bit-exact stream datapaths.
# ---------------------------------------------------------------------------

def _bipolar(value: float, cfg: OptimizerConfig, rng: RngState, label: str) -> BitStream:
    return encode(value, cfg.n_bit, Priori.BIPOLAR, rng.split(label))


def _select(cfg: OptimizerConfig, rng: RngState, label: str) -> BitStream:
    return encode(0.5, cfg.n_bit, Priori.UNIPOLAR, rng.split(label))


def sc_sgd_step(theta: float, g: float, cfg: OptimizerConfig, rng: RngState) -> float:
    """One SGD update through the stream datapath (XNOR product, MUX add)."""
    g_c = clip_gradient(g, cfg)
    product = xnor_mul(
        _bipolar(g_c, cfg, rng, "g"),
        _bipolar(-cfg.eta, cfg, rng, "neg_eta"),
    )
    half_sum = scaled_add(
        _bipolar(theta, cfg, rng, "theta"), product, _select(cfg, rng, "select")
    )
    # Scaled addition halves the sum; double at decode and clamp to range.
    return float(_clamp_unit(2.0 * decode(half_sum)))


def sc_momentum_step(
    theta: float, velocity: float, g: float, cfg: OptimizerConfig, rng: RngState
) -> tuple[float, float]:
    """One momentum update, returning (theta, velocity) resolved in-stream.

    The velocity is decoded and re-encoded between its two uses; keeping it
    stream-resident across steps would correlate successive updates.
    """
    g_c = clip_gradient(g, cfg)
    v_half = scaled_add(
        xnor_mul(_bipolar(cfg.gamma, cfg, rng, "gamma"), _bipolar(velocity, cfg, rng, "v")),
        xnor_mul(_bipolar(cfg.eta, cfg, rng, "eta"), _bipolar(g_c, cfg, rng, "g")),
        _select(cfg, rng, "v_select"),
    )
    v_new = float(_clamp_unit(2.0 * decode(v_half)))
    theta_half = scaled_add(
        _bipolar(theta, cfg, rng, "theta"),
        negate(_bipolar(v_new, cfg, rng, "v_new")),
        _select(cfg, rng, "theta_select"),
    )
    return float(_clamp_unit(2.0 * decode(theta_half))), v_new


# ---------------------------------------------------------------------------
# The update kernel.
# ---------------------------------------------------------------------------

def _p_bipolar(value):
    return (np.asarray(value, dtype=float) + 1.0) / 2.0


def _p_xnor(p_a, p_b):
    return p_a * p_b + (1.0 - p_a) * (1.0 - p_b)


def _draw_bipolar_value(p_stream, n_bit: int, gen: np.random.Generator):
    popcount = gen.binomial(n_bit, p_stream)
    return 2.0 * (popcount / n_bit) - 1.0


def update_tensor(
    params: np.ndarray,
    grads: np.ndarray,
    cfg: OptimizerConfig,
    rng: RngState,
    velocity: np.ndarray | None = None,
):
    """Apply the configured step elementwise to a parameter tensor.

    Returns (new_params, new_velocity, e_grad_stat) where e_grad_stat is
    the mean on-cell probability (clip(g)+1)/2 of the encoded gradient
    array, feeding the crossbar power model. Velocity is carried only in
    momentum mode (pass the previous array back in, zeros to start).
    0-d arrays give the scalar update. Non-finite parameters or velocities
    raise ValueError in every exec mode; the SC modes also need them in
    [-1, 1].
    """
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if params.shape != grads.shape:
        raise ValueError(f"shape mismatch: params {params.shape} vs grads {grads.shape}")
    g_c = np.asarray(clip_gradient(grads, cfg), dtype=float)
    e_grad_stat = float(np.mean((g_c + 1.0) / 2.0))

    if cfg.mode == "momentum":
        v = np.zeros_like(params) if velocity is None else np.asarray(velocity, dtype=float)
        if v.shape != params.shape:
            raise ValueError("velocity shape does not match params")
    else:
        v = None
    if not np.all(np.isfinite(params)) or (v is not None and not np.all(np.isfinite(v))):
        raise ValueError("parameters and velocity must be finite")

    if cfg.exec_mode == "float":
        if cfg.mode == "sgd":
            new_params = params - cfg.eta * g_c
            new_v = None
        else:
            new_v = cfg.gamma * v + cfg.eta * g_c
            new_params = params - new_v
        return new_params, new_v, e_grad_stat

    if np.any(np.abs(params) > 1.0) or (v is not None and np.any(np.abs(v) > 1.0)):
        raise ValueError("stochastic updates require parameters in [-1, 1]")

    if cfg.exec_mode == "binomial":
        gen = rng.generator
        if cfg.mode == "sgd":
            p_prod = _p_xnor(_p_bipolar(g_c), _p_bipolar(-cfg.eta))
            p_half = 0.5 * _p_bipolar(params) + 0.5 * p_prod
            new_params = _clamp_unit(2.0 * _draw_bipolar_value(p_half, cfg.n_bit, gen))
            new_v = None
        else:
            p_v_half = 0.5 * _p_xnor(_p_bipolar(cfg.gamma), _p_bipolar(v)) \
                + 0.5 * _p_xnor(_p_bipolar(cfg.eta), _p_bipolar(g_c))
            new_v = _clamp_unit(2.0 * _draw_bipolar_value(p_v_half, cfg.n_bit, gen))
            # negate(encode(v_new)) has one-probability 1 - p(v_new)
            p_theta_half = 0.5 * _p_bipolar(params) + 0.5 * (1.0 - _p_bipolar(new_v))
            new_params = _clamp_unit(2.0 * _draw_bipolar_value(p_theta_half, cfg.n_bit, gen))
        return new_params, new_v, e_grad_stat

    # bitexact: per-element streams with (index, role) substream labels
    flat_p = params.reshape(-1)
    flat_g = g_c.reshape(-1)
    new_flat = np.empty_like(flat_p)
    if cfg.mode == "sgd":
        for i in range(flat_p.size):
            new_flat[i] = sc_sgd_step(float(flat_p[i]), float(flat_g[i]), cfg, rng.split(i))
        new_v = None
    else:
        flat_v = v.reshape(-1)
        new_v_flat = np.empty_like(flat_v)
        for i in range(flat_p.size):
            new_flat[i], new_v_flat[i] = sc_momentum_step(
                float(flat_p[i]), float(flat_v[i]), float(flat_g[i]), cfg, rng.split(i)
            )
        new_v = new_v_flat.reshape(params.shape)
    return new_flat.reshape(params.shape), new_v, e_grad_stat
