"""Probabilistic CBRAM switching model.

A device under a programming pulse of width t at voltage V turns on with

    P(t, V) = 1 - exp(-t * exp(V / V0) / tau0),

where V0 and tau0 are fitting parameters. Inverting the expression gives
the pulse width that realizes a target switching probability, which is how
bit streams are programmed in-memory. The time-to-switch follows the
exponential law of the same time constant, tau = tau0 * exp(-V / V0),
reported for a fabricated device at 4.5 V (tau = 0.38 ms) as the
histogram density P(t) = (DELTA_T / tau) * exp(-t / tau) with the fit's
bin constant DELTA_T = 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngState

__all__ = [
    "DeviceParams",
    "switch_probability",
    "pulse_width_for",
    "switching_time_density",
    "sample_switching_time",
]

# Default tau0 is pinned so that tau_eff at the 4.5 V programming voltage
# equals the measured 0.38 ms switching-time constant (with V0 = 0.4 V).
DEFAULT_V0 = 0.4
DEFAULT_V_PROG = 4.5
DEFAULT_TAU = 0.38e-3
DEFAULT_TAU0 = DEFAULT_TAU * math.exp(DEFAULT_V_PROG / DEFAULT_V0)
# Histogram bin constant of the reported density fit; it scales the density
# only, never sampling.
DELTA_T = 0.5


@dataclass(frozen=True)
class DeviceParams:
    """CBRAM fitting parameters and the switching-time statistics.

    Parameters
    ----------
    v0 : float
        Voltage fitting parameter (volts).
    tau0 : float
        Time fitting parameter (seconds).
    v_prog : float
        Applied programming voltage (volts).
    cell_jitter : float
        Optional per-cell multiplicative lognormal jitter on tau_eff
        (sigma of log); 0 disables it. ``generate_stream`` redraws the
        jitter on every call, so it models cycle-to-cycle rather than
        device-to-device variation.
    """

    v0: float = DEFAULT_V0
    tau0: float = DEFAULT_TAU0
    v_prog: float = DEFAULT_V_PROG
    cell_jitter: float = 0.0

    def __post_init__(self):
        for name in ("v0", "tau0", "v_prog"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not (self.cell_jitter >= 0 and math.isfinite(self.cell_jitter)):
            raise ValueError(f"cell_jitter must be finite and >= 0, got {self.cell_jitter!r}")
        self.tau_eff()

    def tau_eff(self, v: float | None = None) -> float:
        """Effective switching time constant at voltage v (default v_prog).

        Raises ValueError unless tau0 * exp(-v / v0) is positive and finite.
        """
        v = self.v_prog if v is None else v
        if not math.isfinite(v):
            raise ValueError(f"voltage must be finite, got {v!r}")
        try:
            scale = math.exp(-v / self.v0)
        except OverflowError:
            scale = math.inf
        tau = self.tau0 * scale
        if not (tau > 0 and math.isfinite(tau)):
            raise ValueError(f"time constant tau0 * exp(-v / v0) at v = {v!r} is {tau!r}, "
                             "not positive and finite")
        return tau


def switch_probability(t, v: float, params: DeviceParams):
    """Probability that a pulse of width t at voltage v switches the cell.

    Monotonically nondecreasing in both t and v. Accepts scalar or array t.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("pulse width must be >= 0 and not NaN")
    with np.errstate(over="ignore"):
        p = -np.expm1(t / -params.tau_eff(v))  # as -t / tau bit for bit, one pass fewer
    return float(p) if p.ndim == 0 else p


def pulse_width_for(p: float, v: float, params: DeviceParams) -> float:
    """Pulse width realizing switching probability p at voltage v.

    Exact inverse of :func:`switch_probability`; the round trip holds to
    ~1e-16 relative. p = 1 is unreachable in finite time.
    """
    if not p >= 0:
        raise ValueError(f"probability {p} is negative or not a number")
    if p >= 1:
        raise ValueError(f"probability {p} unreachable with a finite pulse")
    return -params.tau_eff(v) * math.log1p(-p)


def switching_time_density(t, params: DeviceParams):
    """Reported switching-time histogram density (DELTA_T/tau) e^(-t/tau), tau = tau_eff()."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("time must be >= 0 and not NaN")
    tau = params.tau_eff()
    d = (DELTA_T / tau) * np.exp(-t / tau)
    return float(d) if d.ndim == 0 else d


def sample_switching_time(params: DeviceParams, rng: RngState, size: int | None = None):
    """Draw switching times from the exponential law of mean tau_eff() by inverse transform."""
    u = rng.generator.random(size)
    return -params.tau_eff() * np.log1p(-u)
