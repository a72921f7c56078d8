"""Stochastic-domain SGD and momentum parameter updates over bit streams.

The update datapath encodes the gradient clipped to the bipolar range
[-1, 1], the negated learning rate and the current parameter as
independent bipolar streams; an XNOR forms the -eta*g product and a
0.5-select multiplexer adds it to the parameter. Scaled addition halves
the sum, so the decoded result is doubled and clamped back to [-1, 1];
in expectation the update is theta - eta*g whenever no clamp binds.

``update_tensor`` is the one update kernel; called on 0-d arrays it is the
scalar update. It writes each rule once on exact values (SGD theta - eta*g;
momentum v' = gamma*v + eta*g, then theta - v'). ``exec_mode`` names a law
``law(x, n_bit, rng) -> x'`` of ``MUX_LAWS``, applied to each doubled MUX
output x, or the reference "bitexact". A new law is one table entry;
experiments add to the table instead of patching ``update_tensor``.
  float     the identity (the 32-bit baseline and oracle),
  binomial  clamp(4*k/n_bit - 2) for k ~ Binomial(n_bit, (2 + x)/4), the
            popcount of a MUX half-sum stream whose doubled decode is x,
  bitexact  ``sc_sgd_step`` / ``sc_momentum_step`` element by element in
            flattened order, all on the tensor's one stream ``rng``.
The ``sc_*_step`` functions simulate the streams bit by bit; they are the
independent reference that the binomial law is tested against. Each
draws its operand streams one after another from the one generator it is
given, in the order the ``encode`` calls appear in its datapath (SGD: g,
-eta, theta, select; momentum: gamma, v, eta, g, v_select, theta, v_new,
theta_select). Bit order carries no value and no stream is reused, so
successive draws of one PCG64 stream are as independent as separately
seeded substreams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ._checks import is_int, is_real
from .rng import RngState
from .sc import BitStream, Priori, decode, encode, negate, scaled_add, xnor_mul

__all__ = [
    "OptimizerConfig",
    "clip_gradient",
    "sc_sgd_step",
    "sc_momentum_step",
    "update_tensor",
    "MODES",
    "MUX_LAWS",
]

MODES = ("sgd", "momentum")


@dataclass(frozen=True)
class OptimizerConfig:
    mode: str = "sgd"
    eta: float = 0.5
    gamma: float = 0.9
    n_bit: int = 16384
    exec_mode: str = "binomial"
    # the bipolar range: gradients and doubled MUX outputs saturate to it
    clip_lo: ClassVar[float] = -1.0
    clip_hi: ClassVar[float] = 1.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.exec_mode not in (*MUX_LAWS, "bitexact"):
            raise ValueError(f"exec_mode must be in {(*MUX_LAWS, 'bitexact')}, got {self.exec_mode!r}")
        if not (is_real(self.eta) and 0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must be a real in (0, 1], got {self.eta!r}")
        if not (is_real(self.gamma) and 0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must be a real in [0, 1), got {self.gamma!r}")
        # the binomial law draws its popcount with an int64 trial count
        if not is_int(self.n_bit) or not 1 <= self.n_bit <= np.iinfo(np.int64).max:
            raise ValueError(f"n_bit must be an int in [1, 2**63 - 1], got {self.n_bit!r}")


def _clamp_unit(x):
    return np.clip(x, OptimizerConfig.clip_lo, OptimizerConfig.clip_hi)


def clip_gradient(g):
    """Clip a gradient (scalar or array) to the bipolar range [-1, 1]."""
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient contains non-finite values")
    clipped = _clamp_unit(g)
    return float(clipped) if clipped.ndim == 0 else clipped


# ---------------------------------------------------------------------------
# Bit-exact stream datapaths.
# ---------------------------------------------------------------------------

def _bipolar(value: float, cfg: OptimizerConfig, rng: RngState) -> BitStream:
    return encode(value, cfg.n_bit, Priori.BIPOLAR, rng)


def _select(cfg: OptimizerConfig, rng: RngState) -> BitStream:
    return encode(0.5, cfg.n_bit, Priori.UNIPOLAR, rng)


def _doubled(half_sum: BitStream) -> float:
    # Scaled addition halves the sum; double at decode and clamp to range.
    return float(_clamp_unit(2.0 * decode(half_sum)))


def sc_sgd_step(theta: float, g: float, cfg: OptimizerConfig, rng: RngState) -> float:
    """One SGD update through the stream datapath (XNOR product, MUX add).

    Its streams are drawn in turn from ``rng``: g, -eta, theta, select.
    """
    product = xnor_mul(_bipolar(clip_gradient(g), cfg, rng), _bipolar(-cfg.eta, cfg, rng))
    return _doubled(scaled_add(_bipolar(theta, cfg, rng), product, _select(cfg, rng)))


def sc_momentum_step(
    theta: float, velocity: float, g: float, cfg: OptimizerConfig, rng: RngState
) -> tuple[float, float]:
    """One momentum update, returning (theta, velocity) resolved in-stream.

    Its streams are drawn in turn from ``rng``: gamma, v, eta, g, v_select,
    theta, v_new, theta_select. The velocity is decoded and re-encoded
    between its two uses; keeping it stream-resident across steps would
    correlate successive updates.
    """
    g_c = clip_gradient(g)
    v_new = _doubled(scaled_add(
        xnor_mul(_bipolar(cfg.gamma, cfg, rng), _bipolar(velocity, cfg, rng)),
        xnor_mul(_bipolar(cfg.eta, cfg, rng), _bipolar(g_c, cfg, rng)),
        _select(cfg, rng),
    ))
    theta_new = _doubled(scaled_add(
        _bipolar(theta, cfg, rng), negate(_bipolar(v_new, cfg, rng)), _select(cfg, rng)
    ))
    return theta_new, v_new


# ---------------------------------------------------------------------------
# The update kernel.
# ---------------------------------------------------------------------------

def _binomial(x, n_bit: int, rng: RngState):
    popcount = rng.generator.binomial(n_bit, (2.0 + x) / 4.0)
    return _clamp_unit(4.0 * (popcount / n_bit) - 2.0)


MUX_LAWS = {"float": lambda x, n_bit, rng: x, "binomial": _binomial}


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
    0-d arrays give the scalar update. Empty tensors and non-finite
    parameters or velocities raise ValueError in every exec mode; the SC
    modes also need them in [-1, 1].
    """
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if params.shape != grads.shape:
        raise ValueError(f"shape mismatch: params {params.shape} vs grads {grads.shape}")
    if params.size == 0:
        raise ValueError("params must hold at least one element")
    g_c = np.asarray(clip_gradient(grads), dtype=float)
    e_grad_stat = float(np.mean((g_c + 1.0) / 2.0))

    if cfg.mode == "momentum":
        v = np.zeros_like(params) if velocity is None else np.asarray(velocity, dtype=float)
        if v.shape != params.shape:
            raise ValueError("velocity shape does not match params")
    else:
        v = None
    if not np.all(np.isfinite(params)) or (v is not None and not np.all(np.isfinite(v))):
        raise ValueError("parameters and velocity must be finite")

    if cfg.exec_mode != "float" and (
        np.any(np.abs(params) > 1.0) or (v is not None and np.any(np.abs(v) > 1.0))
    ):
        raise ValueError("stochastic updates require parameters in [-1, 1]")

    if cfg.exec_mode != "bitexact":
        law = MUX_LAWS[cfg.exec_mode]
        if cfg.mode == "sgd":
            return law(params - cfg.eta * g_c, cfg.n_bit, rng), None, e_grad_stat
        new_v = law(cfg.gamma * v + cfg.eta * g_c, cfg.n_bit, rng)
        return law(params - new_v, cfg.n_bit, rng), new_v, e_grad_stat

    # bitexact: sc_*_step element by element in flattened order, on rng's one stream
    flat_p, flat_g = params.reshape(-1), grads.reshape(-1)
    if cfg.mode == "sgd":
        new = [sc_sgd_step(float(t), float(g), cfg, rng) for t, g in zip(flat_p, flat_g)]
        return np.reshape(new, params.shape), None, e_grad_stat
    steps = np.array([
        sc_momentum_step(float(t), float(vi), float(g), cfg, rng)
        for t, vi, g in zip(flat_p, v.reshape(-1), flat_g)
    ])
    return steps[:, 0].reshape(params.shape), steps[:, 1].reshape(params.shape), e_grad_stat
