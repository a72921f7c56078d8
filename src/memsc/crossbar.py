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
published 43.0 uW; no bridging duty-cycle assumption is published. A single
calibration scalar kappa (default 0.108) maps the raw value onto the
published per-stream powers, and reports always carry both numbers.

The paper puts its SC MAC (one XNOR and one MUX, 58 ps) at 1e5 times less
area and 1e2 times less delay than a 16-bit binary MAC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .device import DeviceParams, pulse_width_for, switch_probability
from .rng import RngState
from .sc import BitStream, Priori

__all__ = [
    "TileConfig",
    "ArrayPlan",
    "GenerationStats",
    "AreaReport",
    "CostReport",
    "plan_array",
    "generate_stream",
    "area_report",
    "power_report",
    "DEFAULT_KAPPA",
]

DEFAULT_KAPPA = 0.108


@dataclass
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
        for name in (
            "cols", "tile_area_um2", "p_on_w", "p_off_w", "xnor_total_area_mm2",
            "adder_register_area_mm2", "sense_amp_total_area_mm2",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ArrayPlan:
    """Tile allocation for a bit-stream configuration."""

    n_bit: int
    n_streams: int
    tiles_per_stream: int
    pingpong_factor: ClassVar[int] = 2  # reset tiles beside the generating ones
    time_mux_steps: ClassVar[int] = 2   # column-sharing sense phases

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
class AreaReport:
    """Silicon area of a plan, in mm^2."""

    rram_area_mm2: float
    xnor_area_mm2: float
    adder_register_area_mm2: float
    sense_amp_area_mm2: float
    total_area_mm2: float


@dataclass(frozen=True)
class CostReport(AreaReport):
    """Areas and powers; calibrated powers sit beside raw Eq.-style values."""

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
    """Tiles needed for n_streams parallel streams of n_bit bits each.

    One active row per tile bounds a stream's per-tile contribution to
    ``tile.cols`` bits; the total is doubled for the reset ping-pong.
    """
    tile = tile if tile is not None else TileConfig()
    if n_bit < 1:
        raise ValueError("n_bit must be >= 1")
    if n_streams < 1:
        raise ValueError("n_streams must be >= 1")
    tiles_per_stream = math.ceil(n_bit / tile.cols)
    return ArrayPlan(n_bit=n_bit, n_streams=n_streams, tiles_per_stream=tiles_per_stream)


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
    one active row in each of ceil(n_bit / cols) tiles; cells are read out
    in two column-sharing phases. With ``device.cell_jitter = 0`` the bits
    are i.i.d. Bernoulli(target_p): the tiling and phasing add structure,
    not bias. With jitter, each call redraws every cell's time constant,
    so the bits stay independent but their one-probability is the mean
    over the jitter, pulled towards 0.5: at cell_jitter = 0.6 the mean
    on-fraction of 20 streams of 16384 bits is 0.116 / 0.513 / 0.858 at
    target_p = 0.1 / 0.5 / 0.9.

    The bits are fixed by the per-tile draw order. Tile t draws from its
    own substream ``rng.split("tile", t)``: first ``lognormal(cells)`` time
    constant scales when jitter > 0, then ``random(cells)`` uniforms. The
    first ceil(cells / 2) uniforms are the even-column phase, the rest the
    odd-column phase, and bit i is 1 iff its uniform lies below its cell's
    switching probability. All tiles' substreams are seeded in one pass by
    ``rng.generators("tile", n_tiles)``, which gives the same bits as
    opening each ``split("tile", t).generator`` in turn.
    """
    if n_bit < 1:
        raise ValueError("n_bit must be >= 1")
    width = pulse_width_for(target_p, device.v_prog, device)  # validates target_p
    n_tiles = math.ceil(n_bit / tile.cols)
    jitter = device.cell_jitter > 0
    tau_scale = np.empty(n_bit) if jitter else None
    u = np.empty(n_bit)
    for t, gen in enumerate(rng.generators("tile", n_tiles)):
        lo = t * tile.cols
        cells = min(tile.cols, n_bit - lo)
        if jitter:
            tau_scale[lo : lo + cells] = gen.lognormal(0.0, device.cell_jitter, size=cells)
        draws = gen.random(cells)  # even-column phase first, then odd
        even = (cells + 1) // 2
        u[lo : lo + cells : 2] = draws[:even]
        u[lo + 1 : lo + cells : 2] = draws[even:]
    if jitter:
        p_cell = -np.expm1(np.log1p(-target_p) / tau_scale)
    else:
        p_cell = switch_probability(width, device.v_prog, device)
    stream = BitStream.from_bools(u < p_cell, priori)
    stats = GenerationStats(
        on_count=stream.popcount(), phases=2, tiles=n_tiles, pulse_width_s=width
    )
    return stream, stats


def area_report(plan: ArrayPlan, tile: TileConfig | None = None) -> AreaReport:
    """Silicon area of the plan: RRAM tiles plus the fixed peripheral blocks."""
    tile = tile if tile is not None else TileConfig()
    rram_mm2 = plan.total_tiles * tile.tile_area_um2 / 1e6
    total = (
        rram_mm2
        + tile.xnor_total_area_mm2
        + tile.adder_register_area_mm2
        + tile.sense_amp_total_area_mm2
    )
    return AreaReport(
        rram_area_mm2=rram_mm2,
        xnor_area_mm2=tile.xnor_total_area_mm2,
        adder_register_area_mm2=tile.adder_register_area_mm2,
        sense_amp_area_mm2=tile.sense_amp_total_area_mm2,
        total_area_mm2=total,
    )


def _p_read_raw(n_bit: int, e: float, tile: TileConfig) -> float:
    # One readout of an n_bit stream at mean on-cell probability e.
    return n_bit * (tile.p_on_w * e + tile.p_off_w * (1.0 - e))


def power_report(
    plan: ArrayPlan,
    e_grad: float,
    e_weight: float,
    tile: TileConfig | None = None,
    kappa: float = DEFAULT_KAPPA,
) -> CostReport:
    """Full cost report: areas plus calibrated and raw read powers.

    Reported per-stream powers are kappa times the raw readout value; the
    total doubles their sum for the reset tiles, and time multiplexing
    halves the static-power ceiling.
    """
    tile = tile if tile is not None else TileConfig()
    if not 0.0 <= e_grad <= 1.0 or not 0.0 <= e_weight <= 1.0:
        raise ValueError("expected on-cell probabilities must lie in [0, 1]")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    raw_grad = _p_read_raw(plan.n_bit, e_grad, tile)
    raw_weight = _p_read_raw(plan.n_bit, e_weight, tile)
    p_grad, p_weight = kappa * raw_grad, kappa * raw_weight
    total = 2.0 * (p_grad + p_weight)
    return CostReport(
        **vars(area_report(plan, tile)),
        p_read_gradient_raw_w=raw_grad,
        p_read_weight_raw_w=raw_weight,
        p_read_gradient_w=p_grad,
        p_read_weight_w=p_weight,
        total_power_w=total,
        static_power_cap_w=total / 2.0,
        e_grad_stat=e_grad,
        e_weight_stat=e_weight,
        calibration_kappa=kappa,
    )
