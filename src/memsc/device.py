"""Probabilistic CBRAM switching model.

A device under a programming pulse of width t at voltage V turns on with

    P(t, V) = 1 - exp(-t * exp(V / V0) / tau0),

where V is ``DeviceParams.v_prog`` and V0 and tau0 are the published fit
of one fabricated device, the module constants DEFAULT_V0 and
DEFAULT_TAU0; the law at another voltage is the law of
``dataclasses.replace(params, v_prog=V)``. Inverting the expression gives
the pulse width that realizes a target switching probability, which is how
bit streams are programmed in-memory. P is the distribution function of
an exponential time-to-switch with time constant
tau = tau0 * exp(-V / V0) (``DeviceParams.tau_eff``), 0.38 ms for that
device at 4.5 V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import is_real

__all__ = ["DeviceParams", "switch_probability", "pulse_width_for"]

# tau0 is pinned so that tau_eff at the 4.5 V programming voltage equals the
# measured 0.38 ms switching-time constant (with V0 = 0.4 V).
DEFAULT_V0 = 0.4
DEFAULT_V_PROG = 4.5
DEFAULT_TAU = 0.38e-3
DEFAULT_TAU0 = DEFAULT_TAU * math.exp(DEFAULT_V_PROG / DEFAULT_V0)


@dataclass(frozen=True)
class DeviceParams:
    """Programming voltage and switching-time jitter of the fitted CBRAM device.

    Parameters
    ----------
    v_prog : float
        Applied programming voltage (volts).
    cell_jitter : float
        Optional per-cell multiplicative lognormal jitter on tau_eff
        (sigma of log); 0 disables it. ``generate_stream`` redraws the
        jitter on every call, so it models cycle-to-cycle rather than
        device-to-device variation.
    """

    v_prog: float = DEFAULT_V_PROG
    cell_jitter: float = 0.0

    def __post_init__(self):
        if not (is_real(self.v_prog) and 0 < self.v_prog < math.inf):
            raise ValueError(f"v_prog must be positive and finite, got {self.v_prog!r}")
        if not (is_real(self.cell_jitter) and 0 <= self.cell_jitter < math.inf):
            raise ValueError(f"cell_jitter must be finite and >= 0, got {self.cell_jitter!r}")
        if not self.tau_eff() > 0:  # v_prog / v0 > 0: exp can underflow, never overflow
            raise ValueError(f"time constant tau0 * exp(-v_prog / v0) underflows to 0 in {self!r}")

    def tau_eff(self) -> float:
        """Effective switching time constant tau0 * exp(-v_prog / v0)."""
        return DEFAULT_TAU0 * math.exp(-self.v_prog / DEFAULT_V0)


def switch_probability(t, params: DeviceParams):
    """Probability that a pulse of width t at ``params.v_prog`` switches the cell.

    Monotonically nondecreasing in t and in v_prog. Accepts scalar or array t.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("pulse width must be >= 0 and not NaN")
    with np.errstate(over="ignore"):
        p = -np.expm1(t / -params.tau_eff())  # as -t / tau bit for bit, one pass fewer
    return float(p) if p.ndim == 0 else p


def pulse_width_for(p: float, params: DeviceParams) -> float:
    """Pulse width realizing switching probability p at ``params.v_prog``.

    Exact inverse of :func:`switch_probability`; the round trip holds to
    ~1e-16 relative. p = 1 is unreachable in finite time.
    """
    if not (is_real(p) and p >= 0):
        raise ValueError(f"probability {p!r} is negative or not a number")
    if p >= 1:
        raise ValueError(f"probability {p} unreachable with a finite pulse")
    return -params.tau_eff() * math.log1p(-p)

