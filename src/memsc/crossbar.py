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
the published per-stream powers, and reports always carry both numbers.

A plan carries the tile it was sized on, so ``power_report`` reads the
geometry, the area constants and the cell powers from the plan alone.

The paper puts its SC MAC (one XNOR and one MUX, 58 ps) at 1e5 times less
area and 1e2 times less delay than a 16-bit binary MAC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ._checks import is_int
from .device import DeviceParams, pulse_width_for, switch_probability
from .rng import RngState
from .sc import BitStream, Priori

__all__ = [
    "TileConfig",
    "ArrayPlan",
    "GenerationStats",
    "CostReport",
    "plan_array",
    "generate_stream",
    "power_report",
    "DEFAULT_KAPPA",
]

DEFAULT_KAPPA = 0.108


@dataclass(frozen=True)
class TileConfig:
    """Geometry and electrical constants of the 40 nm RRAM macro."""

    cols: int = 128
    tile_area_um2: float = 2.77e3
    p_on_w: float = 45e-9        # LDMOS on-cell draw at 4.5 V
    p_off_w: float = 0.45e-9
    xnor_total_area_mm2: float = 0.031     # full multiplier datapath
    adder_register_area_mm2: float = 0.0735
    sense_amp_total_area_mm2: float = 0.0267

    def __post_init__(self):
        if not is_int(self.cols) or self.cols < 1:
            raise ValueError(f"cols must be an int >= 1, got {self.cols!r}")
        for name in (
            "tile_area_um2", "p_on_w", "p_off_w", "xnor_total_area_mm2",
            "adder_register_area_mm2", "sense_amp_total_area_mm2",
        ):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class ArrayPlan:
    """Tiles for n_streams parallel streams of n_bit bits each, on one tile design.

    One active row per tile bounds a stream's per-tile contribution to
    ``tile.cols`` bits; the total is doubled for the reset ping-pong. The
    tile counts derive from (n_bit, n_streams, tile), so they cannot
    disagree with the tile that ``power_report`` reads.
    """

    n_bit: int
    n_streams: int
    tile: TileConfig
    pingpong_factor: ClassVar[int] = 2  # reset tiles beside the generating ones
    time_mux_steps: ClassVar[int] = 2   # column-sharing sense phases

    def __post_init__(self):
        for name in ("n_bit", "n_streams"):
            value = getattr(self, name)
            if not is_int(value) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")

    @property
    def tiles_per_stream(self) -> int:
        return math.ceil(self.n_bit / self.tile.cols)

    @property
    def total_tiles(self) -> int:
        return self.pingpong_factor * self.n_streams * self.tiles_per_stream


@dataclass(frozen=True)
class GenerationStats:
    """Bookkeeping from one in-array stream generation."""

    on_count: int
    phases: int
    tiles: int
    pulse_width_s: float


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
    e_grad_stat: float
    e_weight_stat: float
    calibration_kappa: float


def plan_array(n_bit: int, n_streams: int, tile: TileConfig | None = None) -> ArrayPlan:
    """The plan for n_streams streams of n_bit bits on ``tile`` (default ``TileConfig()``)."""
    return ArrayPlan(n_bit, n_streams, tile if tile is not None else TileConfig())


def generate_stream(
    target_p: float,
    n_bit: int,
    device: DeviceParams,
    tile: TileConfig,
    rng: RngState,
    priori: Priori = Priori.BIPOLAR,
) -> tuple[BitStream, GenerationStats]:
    """Simulate in-array generation of an n_bit stream at on-probability target_p.

    A fixed-voltage pulse of width pulse_width_for(target_p) is applied to
    one active row in each tile of ``plan_array(n_bit, 1, tile)``; cells
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
    (``GenerationStats``, ``power_report``) only.
    """
    plan = plan_array(n_bit, 1, tile)  # validates n_bit
    width = pulse_width_for(target_p, device.v_prog, device)  # validates target_p
    gen = rng.generator
    if device.cell_jitter > 0:
        tau_scale = gen.lognormal(0.0, device.cell_jitter, size=n_bit)
        # In place: one more live n_bit-sized temporary makes glibc trim the
        # heap after each call, and the next call re-faults ~160 pages.
        t_cell = np.divide(width, tau_scale, out=tau_scale)
    else:
        t_cell = width
    u = gen.random(n_bit)
    p_cell = switch_probability(t_cell, device.v_prog, device)
    stream = BitStream(u < p_cell, priori)
    stats = GenerationStats(
        on_count=stream.popcount(), phases=plan.time_mux_steps,
        tiles=plan.tiles_per_stream, pulse_width_s=width,
    )
    return stream, stats


def _p_read_raw(n_bit: int, e: float, tile: TileConfig) -> float:
    # One readout of an n_bit stream at mean on-cell probability e.
    return n_bit * (tile.p_on_w * e + tile.p_off_w * (1.0 - e))


def power_report(plan: ArrayPlan, e_grad: float, e_weight: float) -> CostReport:
    """Cost of the plan on its tile: areas plus calibrated and raw read powers.

    The area is the RRAM tiles plus the fixed peripheral blocks. Reported
    per-stream powers are DEFAULT_KAPPA times the raw readout value; the
    total doubles their sum for the reset tiles, and time multiplexing
    halves the static-power ceiling.
    """
    if not 0.0 <= e_grad <= 1.0 or not 0.0 <= e_weight <= 1.0:
        raise ValueError("expected on-cell probabilities must lie in [0, 1]")
    tile = plan.tile
    areas = dict(  # summed in this order; the fixed blocks first move the total one ulp
        rram_area_mm2=plan.total_tiles * tile.tile_area_um2 / 1e6,
        xnor_area_mm2=tile.xnor_total_area_mm2,
        adder_register_area_mm2=tile.adder_register_area_mm2,
        sense_amp_area_mm2=tile.sense_amp_total_area_mm2,
    )
    raw_grad = _p_read_raw(plan.n_bit, e_grad, tile)
    raw_weight = _p_read_raw(plan.n_bit, e_weight, tile)
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
        e_grad_stat=e_grad,
        e_weight_stat=e_weight,
        calibration_kappa=DEFAULT_KAPPA,
    )
