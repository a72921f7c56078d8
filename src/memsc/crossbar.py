"""Crossbar array planning, in-array stream generation, and the cost model.

A bit stream is striped across 128x128 tiles with one active row per tile,
so a stream of N_bit bits needs ceil(N_bit / 128) tiles. Tile counts are
doubled once for the reset ping-pong (half the tiles reset while the other
half generate) and once more per stream (gradient and weight each own an
array). Readout is time-multiplexed into two phases because each sense
amplifier borrows its reference from the adjacent column.

Power of one readout follows

    P_read = N_bit * [P_on * E + P_off * (1 - E)],

with E the mean on-cell probability of the array. Evaluated literally with
the published constants this yields ~399 uW per gradient stream, not the
published 43.0 uW; no bridging duty-cycle assumption is published. One
fixed calibration scalar, DEFAULT_KAPPA = 0.108, maps the raw value onto
the published per-stream powers, and reports always carry both the raw and
the calibrated powers.

The macro's areas and cell powers are the published 40 nm figures, module
constants rather than settings.

The paper puts its SC MAC (one XNOR and one MUX, 58 ps) at 1e5 times less
area and 1e2 times less delay than a 16-bit binary MAC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ._checks import is_int, is_real
from .device import DeviceParams, pulse_width_for, switch_probability
from .rng import RngState
from .sc import BitStream, Priori

__all__ = [
    "TileConfig",
    "ArrayPlan",
    "CostReport",
    "plan_array",
    "generate_stream",
    "power_report",
    "DEFAULT_KAPPA",
]

DEFAULT_KAPPA = 0.108
TILE_COLS = 128                 # bits one active row yields
TILE_AREA_UM2 = 2.77e3          # one TILE_COLS x TILE_COLS tile
P_ON_W = 45e-9                  # LDMOS on-cell draw at 4.5 V
P_OFF_W = 0.45e-9
XNOR_AREA_MM2 = 0.031           # full multiplier datapath
ADDER_REGISTER_AREA_MM2 = 0.0735
SENSE_AMP_AREA_MM2 = 0.0267


@dataclass(frozen=True)
class TileConfig:
    """The one RRAM tile design; its geometry is TILE_COLS and TILE_AREA_UM2."""


@dataclass(frozen=True)
class ArrayPlan:
    """Tiles for n_streams parallel streams of n_bit bits each.

    One active row per tile bounds a stream's per-tile contribution to
    TILE_COLS bits; the total is doubled for the reset ping-pong.
    """

    n_bit: int
    n_streams: int
    pingpong_factor: ClassVar[int] = 2  # reset tiles beside the generating ones
    time_mux_steps: ClassVar[int] = 2   # column-sharing sense phases

    def __post_init__(self):
        for name in ("n_bit", "n_streams"):
            value = getattr(self, name)
            if not is_int(value) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")

    @property
    def tiles_per_stream(self) -> int:
        return -(-self.n_bit // TILE_COLS)

    @property
    def total_tiles(self) -> int:
        return self.pingpong_factor * self.n_streams * self.tiles_per_stream


@dataclass(frozen=True)
class CostReport:
    """Areas (mm^2) and powers (W); calibrated powers sit beside raw Eq.-style values."""

    rram_area_mm2: float
    xnor_area_mm2: float
    adder_register_area_mm2: float
    sense_amp_area_mm2: float
    total_area_mm2: float
    p_read_gradient_raw_w: float
    p_read_weight_raw_w: float
    p_read_gradient_w: float
    p_read_weight_w: float
    total_power_w: float
    static_power_cap_w: float


def plan_array(n_bit: int, n_streams: int) -> ArrayPlan:
    """The plan for n_streams streams of n_bit bits each."""
    return ArrayPlan(n_bit, n_streams)


def generate_stream(
    target_p: float,
    n_bit: int,
    device: DeviceParams,
    tile: TileConfig,
    rng: RngState,
    priori: Priori = Priori.BIPOLAR,
) -> tuple[BitStream, float]:
    """Simulate in-array generation of an n_bit stream at on-probability target_p.

    Returns the stream and the pulse width in seconds.

    A fixed-voltage pulse of width pulse_width_for(target_p) is applied to
    one active row in each tile of ``plan_array(n_bit, 1)``; cells
    are read out in its ``time_mux_steps`` column-sharing phases. Every
    cell's probability comes from ``switch_probability``. With
    ``device.cell_jitter = 0`` the bits are i.i.d. Bernoulli(target_p).
    With jitter, each call redraws every cell's time constant, and a cell
    whose constant is scaled by s switches under the width t as a nominal
    cell does under t / s. The bits stay independent but their
    one-probability is the mean over the jitter, pulled towards 0.5: at
    cell_jitter = 0.6 the mean on-fraction of 20 streams of 16384 bits is
    0.116 / 0.513 / 0.858 at target_p = 0.1 / 0.5 / 0.9.

    The bits are fixed by one draw order from ``rng.generator``: first
    ``lognormal(n_bit)`` time constant scales when jitter > 0, then
    ``random(n_bit)`` uniforms, one per cell. Bit i is 1 iff its uniform
    lies below its cell's switching probability. Every cell switches
    independently, so the tiles and readout phases belong to the cost model
    (``ArrayPlan``, ``power_report``) only.
    """
    if not is_int(n_bit) or n_bit < 1:
        raise ValueError(f"n_bit must be an int >= 1, got {n_bit!r}")
    if not isinstance(tile, TileConfig):
        raise ValueError(f"tile must be a TileConfig, got {tile!r}")
    width = pulse_width_for(target_p, device)  # validates target_p
    gen = rng.generator
    if device.cell_jitter > 0:
        tau_scale = gen.lognormal(0.0, device.cell_jitter, size=n_bit)
        # In place: one more live n_bit-sized temporary makes glibc trim the
        # heap after each call, and the next call re-faults ~160 pages.
        t_cell = np.divide(width, tau_scale, out=tau_scale)
    else:
        t_cell = width
    u = gen.random(n_bit)
    p_cell = switch_probability(t_cell, device)
    return BitStream(u < p_cell, priori), width


def _p_read_raw(n_bit: int, e: float) -> float:
    # One readout of an n_bit stream at mean on-cell probability e.
    return n_bit * (P_ON_W * e + P_OFF_W * (1.0 - e))


def power_report(plan: ArrayPlan, e_grad: float, e_weight: float) -> CostReport:
    """Cost of a two-stream plan: areas plus calibrated and raw read powers.

    The plan's two streams are the gradient and the weight streams, read at
    on-cell probabilities e_grad and e_weight. The area is the RRAM tiles
    plus the fixed peripheral blocks. Reported per-stream powers are
    DEFAULT_KAPPA times the raw readout value; the total doubles their sum
    for the reset tiles, and time multiplexing halves the static-power
    ceiling.
    """
    if not isinstance(plan, ArrayPlan):
        raise ValueError(f"plan must be an ArrayPlan, got {plan!r}")
    if plan.n_streams != 2:
        raise ValueError(
            f"plan must have n_streams = 2 (gradient and weight), got {plan.n_streams}")
    for name, e in (("e_grad", e_grad), ("e_weight", e_weight)):
        if not (is_real(e) and 0.0 <= e <= 1.0):
            raise ValueError(f"{name} must be an on-cell probability in [0, 1], got {e!r}")
    areas = dict(  # summed in this order; the fixed blocks first move the total one ulp
        rram_area_mm2=plan.total_tiles * TILE_AREA_UM2 / 1e6,
        xnor_area_mm2=XNOR_AREA_MM2,
        adder_register_area_mm2=ADDER_REGISTER_AREA_MM2,
        sense_amp_area_mm2=SENSE_AMP_AREA_MM2,
    )
    raw_grad = _p_read_raw(plan.n_bit, e_grad)
    raw_weight = _p_read_raw(plan.n_bit, e_weight)
    p_grad, p_weight = DEFAULT_KAPPA * raw_grad, DEFAULT_KAPPA * raw_weight
    total = plan.pingpong_factor * (p_grad + p_weight)
    return CostReport(
        **areas,
        total_area_mm2=sum(areas.values()),
        p_read_gradient_raw_w=raw_grad,
        p_read_weight_raw_w=raw_weight,
        p_read_gradient_w=p_grad,
        p_read_weight_w=p_weight,
        total_power_w=total,
        static_power_cap_w=total / plan.time_mux_steps,
    )
