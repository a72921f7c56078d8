"""Correctness checks applied to the outputs of every benchmark run.

Each check returns a ``Check``; a run is correct only when all of its
checks pass, and every failed check counts as one failed operation.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Published per-stream read powers at the calibration point
# (16-Kbit streams, two arrays, E_grad = 0.5367, E_weight = 0.5).
CALIBRATION_E_GRAD = 0.5367
CALIBRATION_E_WEIGHT = 0.5
PUBLISHED_READ_POWER_W = {"p_read_gradient_w": 43.0e-6, "p_read_weight_w": 40.6e-6,
                          "total_power_w": 167e-6}
PUBLISHED_REL_TOL = 0.03

# Two-sided z for the on-fraction interval: a false alarm rate of ~7e-6 per
# stream keeps ten seeds of a 19-point grid far from a spurious failure.
ON_FRACTION_Z = 4.5

# The SC-minus-float RMS may exceed its binomial-law sigma by this factor;
# over >= 100 elements the RMS/sigma ratio has a spread of about 0.1.
UPDATE_SIGMA_FACTOR = 3.0


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


def finite_losses(losses) -> Check:
    losses = np.asarray(losses, dtype=float)
    bad = int((~np.isfinite(losses)).sum())
    return Check("finite_loss", losses.size > 0 and bad == 0,
                 f"{bad} non-finite of {losses.size}")


def params_in_unit_range(params: dict) -> Check:
    worst = max(float(np.abs(p).max()) for p in params.values())
    return Check("sc_params_in_unit_range", worst <= 1.0, f"max |theta| = {worst:.6g}")


def episodes_repeat(signatures: list) -> Check:
    """Every repeat of a seeded episode must reproduce the first bit for bit."""
    differing = sum(1 for s in signatures[1:] if s != signatures[0])
    return Check("episodes_repeat", differing == 0,
                 f"{differing} of {len(signatures) - 1} repeats differ")


def momentum_update_law(theta, v, g_c, eta, gamma, n_bit):
    """Mean and sigma of the stream momentum update, element by element.

    The datapath doubles and clamps two popcount draws: v' from
    Binomial(n, p_v) and theta' from Binomial(n, p_theta), whose
    probability moves by -1/4 per unit of v'. The mean is the clamped
    exact rule; the variance is 16/n * [p_theta(1-p_theta) + p_v(1-p_v)].
    """
    v_mean = np.clip(gamma * v + eta * g_c, -1.0, 1.0)
    mean = np.clip(theta - v_mean, -1.0, 1.0)
    p_v = 0.25 * (1 + gamma * v) + 0.25 * (1 + eta * g_c)
    p_theta = 0.25 * (1 + theta) + 0.25 * (1 - v_mean)
    var = 16.0 / n_bit * (p_theta * (1 - p_theta) + p_v * (1 - p_v))
    return mean, np.sqrt(var)


def update_rmse_bound(float_update, law_mean, law_sigma) -> float:
    """Largest acceptable RMS of (stream update - float update).

    The float rule does not clamp, so its distance to the clamped law mean
    is added to the sampling allowance (triangle inequality).
    """
    clamp_rms = math.sqrt(float(np.mean((law_mean - float_update) ** 2)))
    sigma_rms = math.sqrt(float(np.mean(law_sigma ** 2)))
    return clamp_rms + UPDATE_SIGMA_FACTOR * sigma_rms


def update_rmse_within_law(rmse: float, bound: float) -> Check:
    return Check("sc_update_rmse_within_law", math.isfinite(rmse) and rmse <= bound,
                 f"rmse {rmse:.6g} vs bound {bound:.6g}")


def on_fraction_within_binomial(on_counts, n_bit: int, targets) -> Check:
    """Ideal-cell popcounts must sit inside the Binomial(n, p) interval."""
    k = np.asarray(on_counts, dtype=float)
    p = np.asarray(targets, dtype=float)
    z = np.abs(k - n_bit * p) / np.sqrt(n_bit * p * (1 - p))
    worst = float(z.max())
    return Check("ideal_on_fraction_within_binomial", worst <= ON_FRACTION_Z,
                 f"max |z| = {worst:.3f} (limit {ON_FRACTION_Z})")


def power_at_calibration(report) -> Check:
    """power_report at the calibration point must give the published powers."""
    errors = {key: getattr(report, key) / want - 1.0
              for key, want in PUBLISHED_READ_POWER_W.items()}
    worst = max(abs(e) for e in errors.values())
    return Check("power_report_calibrated", worst <= PUBLISHED_REL_TOL,
                 ", ".join(f"{k} {e:+.4f}" for k, e in errors.items()))
