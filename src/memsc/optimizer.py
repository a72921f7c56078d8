"""Stochastic-domain SGD and momentum parameter updates over bit streams.

The update datapath encodes the clipped gradient, the negated learning
rate, and the current parameter as independent bipolar streams; an XNOR
forms the -eta*g product and a 0.5-select multiplexer adds it to the
parameter. Scaled addition halves the sum, so the decoded result is
doubled and clamped back to [-1, 1]. In expectation the update equals the
exact rule theta - eta*g whenever no clamp binds.

``update_tensor`` is the one update kernel; called on 0-d arrays it is the
scalar update. It writes each rule once on exact values (SGD theta - eta*g;
momentum v' = gamma*v + eta*g, then theta - v'). Its exec modes are
  float     the rule as written (the 32-bit baseline and oracle),
  binomial  the float rule with each doubled MUX output drawn from
            Binomial(n_bit, (2 + x)/4): a MUX whose doubled output is x
            has a half-sum stream of that one-probability, so x becomes
            clamp(4*k/n_bit - 2) for the popcount k,
  bitexact  the stream datapath per element, on the streams that
            ``sc_sgd_step`` / ``sc_momentum_step`` of ``rng.split(i)``
            would open, with the gradient clipped once per tensor.
The ``sc_*_step`` functions simulate the streams bit by bit; they are the
per-element reference, seeding each role's stream on its own, and the
independent reference that the binomial law is tested against. The
bitexact mode runs the same datapath but opens every (element, role)
substream of a tensor in one seeding pass (``RngState.splits``), which
gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import is_int
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


@dataclass(frozen=True)
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
        if not is_int(self.n_bit) or self.n_bit < 1:
            raise ValueError(f"n_bit must be an int >= 1, got {self.n_bit!r}")
        if not -1.0 <= self.clip_lo < self.clip_hi <= 1.0:
            raise ValueError("clip bounds must satisfy -1 <= clip_lo < clip_hi <= 1")


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

_SGD_ROLES = ("g", "neg_eta", "theta", "select")
_MOMENTUM_ROLES = ("gamma", "v", "eta", "g", "v_select", "theta", "v_new", "theta_select")


def _bipolar(value: float, cfg: OptimizerConfig, rng: RngState) -> BitStream:
    return encode(value, cfg.n_bit, Priori.BIPOLAR, rng)


def _select(cfg: OptimizerConfig, rng: RngState) -> BitStream:
    return encode(0.5, cfg.n_bit, Priori.UNIPOLAR, rng)


def _sgd_datapath(
    theta: float, g_c: float, cfg: OptimizerConfig, streams: dict[str, RngState]
) -> float:
    """SGD on a clipped gradient, with one substream per role of ``_SGD_ROLES``."""
    product = xnor_mul(
        _bipolar(g_c, cfg, streams["g"]),
        _bipolar(-cfg.eta, cfg, streams["neg_eta"]),
    )
    half_sum = scaled_add(
        _bipolar(theta, cfg, streams["theta"]), product, _select(cfg, streams["select"])
    )
    # Scaled addition halves the sum; double at decode and clamp to range.
    return float(_clamp_unit(2.0 * decode(half_sum)))


def _momentum_datapath(
    theta: float, velocity: float, g_c: float, cfg: OptimizerConfig, streams: dict[str, RngState]
) -> tuple[float, float]:
    """Momentum on a clipped gradient, with one substream per role of ``_MOMENTUM_ROLES``."""
    v_half = scaled_add(
        xnor_mul(
            _bipolar(cfg.gamma, cfg, streams["gamma"]), _bipolar(velocity, cfg, streams["v"])
        ),
        xnor_mul(_bipolar(cfg.eta, cfg, streams["eta"]), _bipolar(g_c, cfg, streams["g"])),
        _select(cfg, streams["v_select"]),
    )
    v_new = float(_clamp_unit(2.0 * decode(v_half)))
    theta_half = scaled_add(
        _bipolar(theta, cfg, streams["theta"]),
        negate(_bipolar(v_new, cfg, streams["v_new"])),
        _select(cfg, streams["theta_select"]),
    )
    return float(_clamp_unit(2.0 * decode(theta_half))), v_new


def sc_sgd_step(theta: float, g: float, cfg: OptimizerConfig, rng: RngState) -> float:
    """One SGD update through the stream datapath (XNOR product, MUX add)."""
    streams = {role: rng.split(role) for role in _SGD_ROLES}
    return _sgd_datapath(theta, clip_gradient(g, cfg), cfg, streams)


def sc_momentum_step(
    theta: float, velocity: float, g: float, cfg: OptimizerConfig, rng: RngState
) -> tuple[float, float]:
    """One momentum update, returning (theta, velocity) resolved in-stream.

    The velocity is decoded and re-encoded between its two uses; keeping it
    stream-resident across steps would correlate successive updates.
    """
    streams = {role: rng.split(role) for role in _MOMENTUM_ROLES}
    return _momentum_datapath(theta, velocity, clip_gradient(g, cfg), cfg, streams)


# ---------------------------------------------------------------------------
# The update kernel.
# ---------------------------------------------------------------------------

def _exact(x):
    return x


def _binomial_mux(n_bit: int, gen: np.random.Generator):
    def draw(x):
        popcount = gen.binomial(n_bit, (2.0 + x) / 4.0)
        return _clamp_unit(4.0 * (popcount / n_bit) - 2.0)

    return draw


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

    if cfg.exec_mode != "float" and (
        np.any(np.abs(params) > 1.0) or (v is not None and np.any(np.abs(v) > 1.0))
    ):
        raise ValueError("stochastic updates require parameters in [-1, 1]")

    if cfg.exec_mode != "bitexact":
        mux = _binomial_mux(cfg.n_bit, rng.generator) if cfg.exec_mode == "binomial" else _exact
        if cfg.mode == "sgd":
            return mux(params - cfg.eta * g_c), None, e_grad_stat
        new_v = mux(cfg.gamma * v + cfg.eta * g_c)
        return mux(params - new_v), new_v, e_grad_stat

    # bitexact: per-element streams labelled (index, role), all seeded in one pass
    roles = _SGD_ROLES if cfg.mode == "sgd" else _MOMENTUM_ROLES
    flat_p = params.reshape(-1)
    flat_g = g_c.reshape(-1)
    children = rng.splits([(i, role) for i in range(flat_p.size) for role in roles])
    streams = [
        dict(zip(roles, children[k : k + len(roles)]))
        for k in range(0, len(children), len(roles))
    ]
    new_flat = np.empty_like(flat_p)
    if cfg.mode == "sgd":
        for i, stream in enumerate(streams):
            new_flat[i] = _sgd_datapath(float(flat_p[i]), float(flat_g[i]), cfg, stream)
        new_v = None
    else:
        flat_v = v.reshape(-1)
        new_v_flat = np.empty_like(flat_v)
        for i, stream in enumerate(streams):
            new_flat[i], new_v_flat[i] = _momentum_datapath(
                float(flat_p[i]), float(flat_v[i]), float(flat_g[i]), cfg, stream
            )
        new_v = new_v_flat.reshape(params.shape)
    return new_flat.reshape(params.shape), new_v, e_grad_stat
