"""Array planning, in-array generation, and the area/power cost model.

The published configuration (16-Kbit streams, two arrays, ping-pong reset)
must land on 512 tiles, 1.42 mm^2 of RRAM, 1.55 mm^2 total, and the
calibrated powers 43.0 / 40.6 / 167 uW within 3%.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from memsc.crossbar import (
    DEFAULT_KAPPA,
    ArrayPlan,
    GenerationStats,
    TileConfig,
    generate_stream,
    plan_array,
    power_report,
)
from memsc.device import DeviceParams, pulse_width_for, switch_probability
from memsc.rng import RngState
from memsc.sc import BitStream, Priori, encode


def test_plan_published_configuration():
    plan = plan_array(16384, 2)
    assert plan.tiles_per_stream == 128  # 2^7 tiles per 16-Kbit stream
    assert plan.total_tiles == 512      # 2^9 with two streams and ping-pong
    assert plan.time_mux_steps == 2


def test_plan_small_cases():
    assert plan_array(128, 1).total_tiles == 2
    plan = plan_array(2048, 2)
    assert plan.tiles_per_stream == 16
    assert plan.total_tiles == 64


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_array(0, 2)
    with pytest.raises(ValueError):
        plan_array(128, 0)
    with pytest.raises(ValueError, match="n_bit"):
        plan_array(1.5, 2)
    with pytest.raises(ValueError, match="n_streams"):
        plan_array(128, 2.0)
    with pytest.raises(ValueError, match="n_bit"):
        ArrayPlan(0, 2, TileConfig())
    with pytest.raises(ValueError, match="cols"):
        TileConfig(cols=128.0)
    # an infinite power or area would make power_report's totals infinite
    for field in dataclasses.fields(TileConfig):
        if field.name != "cols":
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=field.name):
                    TileConfig(**{field.name: bad})


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=1 << 17), m=st.integers(min_value=1, max_value=4))
def test_plan_monotone_and_even(n, m):
    plan = plan_array(n, m)
    bigger = plan_array(n + 1, m)
    assert bigger.total_tiles >= plan.total_tiles
    assert plan.total_tiles % 2 == 0


def cost(plan, e_grad=0.5367, e_weight=0.5):
    return power_report(plan, e_grad=e_grad, e_weight=e_weight)


def test_area_published_figures():
    report = cost(plan_array(16384, 2))
    assert report.rram_area_mm2 == pytest.approx(1.42, rel=0.01)
    assert report.total_area_mm2 == pytest.approx(1.55, rel=0.02)


def test_area_two_tiles():
    report = cost(plan_array(128, 1))
    assert report.rram_area_mm2 == pytest.approx(2 * 2.77e3 / 1e6, rel=1e-12)


def test_area_linear_in_tiles():
    tile = TileConfig()
    r1 = cost(plan_array(16384, 1, tile))
    r2 = cost(plan_array(16384, 2, tile))
    fixed = tile.xnor_total_area_mm2 + tile.adder_register_area_mm2 + tile.sense_amp_total_area_mm2
    assert r2.rram_area_mm2 == pytest.approx(2 * r1.rram_area_mm2)
    assert r1.total_area_mm2 - r1.rram_area_mm2 == pytest.approx(fixed)
    assert r1.total_area_mm2 == (
        r1.rram_area_mm2 + r1.xnor_area_mm2 + r1.adder_register_area_mm2 + r1.sense_amp_area_mm2
    )


def test_report_reads_the_tile_the_plan_was_sized_on():
    # the report took the default tile unless it was passed a second time
    tile = TileConfig(cols=64, tile_area_um2=1e3, p_on_w=90e-9, xnor_total_area_mm2=0.062)
    plan = plan_array(16384, 2, tile)
    assert plan.tile is tile and plan == ArrayPlan(16384, 2, tile)
    assert plan_array(16384, 2).tile == TileConfig()
    report = cost(plan)
    assert (plan.tiles_per_stream, plan.total_tiles) == (256, 1024)
    assert report.rram_area_mm2 == pytest.approx(1.024, rel=1e-12)
    assert report.xnor_area_mm2 == 0.062
    assert report.p_read_gradient_raw_w == pytest.approx(
        16384 * (90e-9 * 0.5367 + 0.45e-9 * (1 - 0.5367)), rel=1e-12
    )


def test_power_raw_matches_literal_formula():
    # N_bit * [P_on*E + P_off*(1-E)] with the published constants: 399.1 uW
    report = cost(plan_array(16384, 2))
    expected = 16384 * (45e-9 * 0.5367 + 0.45e-9 * (1 - 0.5367))
    assert report.p_read_gradient_raw_w == pytest.approx(expected, rel=1e-12)
    assert report.p_read_gradient_raw_w == pytest.approx(399.1e-6, rel=1e-3)
    # the calibrated powers are the fixed kappa times the raw ones
    assert report.calibration_kappa == DEFAULT_KAPPA
    assert report.p_read_gradient_w == DEFAULT_KAPPA * report.p_read_gradient_raw_w
    assert report.p_read_weight_w == DEFAULT_KAPPA * report.p_read_weight_raw_w


def test_power_calibrated_matches_published_figures():
    report = cost(plan_array(16384, 2))
    assert report.p_read_gradient_w == pytest.approx(43.0e-6, rel=0.03)
    assert report.p_read_weight_w == pytest.approx(40.6e-6, rel=0.03)
    assert report.total_power_w == pytest.approx(167e-6, rel=0.03)
    assert report.static_power_cap_w == pytest.approx(83.5e-6, rel=0.03)
    # raw value always reported alongside
    assert report.p_read_gradient_raw_w == pytest.approx(399.1e-6, rel=1e-3)
    assert report.calibration_kappa == DEFAULT_KAPPA


def test_published_report_is_pinned_bit_for_bit():
    # the published configuration's report, bit for bit: a reordered sum or a
    # moved constant shows here first
    report = cost(plan_array(16384, 2))
    pinned = {
        "rram_area_mm2": "0x1.6b11c6d1e108cp+0",
        "total_area_mm2": "0x1.8ca8198f1d3ecp+0",
        "p_read_gradient_raw_w": "0x1.a28058d7999d3p-12",
        "p_read_weight_raw_w": "0x1.86699b620c32cp-12",
        "p_read_gradient_w": "0x1.6995cdc89d4c7p-15",
        "p_read_weight_w": "0x1.51510121835f1p-15",
        "total_power_w": "0x1.5d7367751055cp-13",
        "static_power_cap_w": "0x1.5d7367751055cp-14",
    }
    assert {name: getattr(report, name).hex() for name in pinned} == pinned


def test_power_validation():
    plan = plan_array(16384, 2)
    with pytest.raises(ValueError):
        cost(plan, e_grad=1.2)
    with pytest.raises(ValueError):
        cost(plan, e_weight=-0.1)
    with pytest.raises(ValueError):
        cost(plan, e_grad=float("nan"))


def test_plan_and_reports_are_frozen():
    plan = plan_array(16384, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.n_bit = 128
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.tile = TileConfig(cols=64)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cost(plan).total_area_mm2 = 0.0
    _, gen_stats = generate_stream(0.3, 256, DeviceParams(), TileConfig(), RngState(4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        gen_stats.on_count = 0
    # assignment would bypass __post_init__'s checks; replace re-runs them
    with pytest.raises(dataclasses.FrozenInstanceError):
        DeviceParams().cell_jitter = 0.6
    with pytest.raises(dataclasses.FrozenInstanceError):
        TileConfig().cols = 64
    with pytest.raises(ValueError, match="cell_jitter"):
        dataclasses.replace(DeviceParams(), cell_jitter=-0.1)
    with pytest.raises(ValueError, match="cols"):
        dataclasses.replace(TileConfig(), cols=0)


# ---------------------------------------------------------------------------
# in-array stream generation
# ---------------------------------------------------------------------------

def test_generate_stream_zero_probability():
    stream, stats_ = generate_stream(0.0, 512, DeviceParams(), TileConfig(), RngState(5))
    assert stream.popcount() == 0
    assert stats_.on_count == 0
    assert stats_.phases == 2


def test_generate_stream_on_count_within_binomial_bound():
    # E(grad) = 0.5367 at 16 Kbit: 4-sigma binomial bound ~ 255 around 8793
    p, n = 0.5367, 16384
    stream, stats_ = generate_stream(p, n, DeviceParams(), TileConfig(), RngState(17))
    bound = 4 * np.sqrt(n * p * (1 - p))
    assert abs(stats_.on_count - p * n) <= bound
    assert stats_.tiles == 128
    assert stats_.phases == 2
    assert len(stream) == n


def test_generate_stream_rejects_unreachable_probability():
    with pytest.raises(ValueError):
        generate_stream(1.0, 128, DeviceParams(), TileConfig(), RngState(1))
    with pytest.raises(ValueError, match="nan"):
        generate_stream(float("nan"), 128, DeviceParams(), TileConfig(), RngState(1))


def test_generate_stream_matches_encode_distribution():
    # the array simulation adds tiling structure but no bias: popcount
    # distributions of device-generated and directly encoded streams agree
    n, reps, p = 4096, 300, 0.41
    device, tile = DeviceParams(), TileConfig()
    value = 2 * p - 1  # bipolar value whose one-probability is p
    dev_counts = np.empty(reps)
    enc_counts = np.empty(reps)
    for k in range(reps):
        stream, _ = generate_stream(p, n, device, tile, RngState(900 + k))
        dev_counts[k] = stream.popcount()
        enc_counts[k] = encode(value, n, Priori.BIPOLAR, RngState(5000 + k)).popcount()
    ks = stats.ks_2samp(dev_counts, enc_counts)
    assert ks.pvalue > 0.01


def reference_generate_stream(target_p, n_bit, device, tile, rng, priori=Priori.BIPOLAR):
    """A per-cell comparator loop that spells out generate_stream's bits."""
    width = pulse_width_for(target_p, device.v_prog, device)
    gen = rng.generator
    if device.cell_jitter > 0:
        tau_scale = gen.lognormal(0.0, device.cell_jitter, size=n_bit)
        p_cell = -np.expm1(np.log1p(-target_p) / tau_scale)
    else:
        p_cell = np.full(n_bit, switch_probability(width, device.v_prog, device))
    bits = np.zeros(n_bit, dtype=bool)
    for cell in range(n_bit):
        bits[cell] = gen.random() < p_cell[cell]
    stream = BitStream(bits, priori)
    stats_ = GenerationStats(
        on_count=stream.popcount(), phases=2, tiles=math.ceil(n_bit / tile.cols),
        pulse_width_s=width,
    )
    return stream, stats_


@pytest.mark.parametrize("jitter", [0.0, 0.6])
@pytest.mark.parametrize("n_bit", [1, 127, 129, 16385])
@pytest.mark.parametrize("p", [0.0, 0.41, 0.95])
def test_generate_stream_bits_match_reference_loop(jitter, n_bit, p):
    device, tile = DeviceParams(cell_jitter=jitter), TileConfig()
    rng = RngState(31, ("pin", n_bit))
    stream, stats_ = generate_stream(p, n_bit, device, tile, rng)
    ref, ref_stats = reference_generate_stream(
        p, n_bit, device, tile, RngState(31, ("pin", n_bit))
    )
    assert stream.same_bits(ref)
    assert stats_ == ref_stats
    # the call draws lognormal(n_bit) when jittered, then random(n_bit), and
    # nothing more from the stream it is given
    fresh = RngState(31, ("pin", n_bit)).generator
    if jitter > 0:
        fresh.lognormal(0.0, jitter, size=n_bit)
    fresh.random(n_bit)
    assert rng.generator.bit_generator.state == fresh.bit_generator.state


@pytest.mark.parametrize("jitter, limit", [(0.0, 1.5), (0.6, 4.5)])
def test_generate_stream_temporaries_stay_few(jitter, limit):
    # one more n_bit float64 temporary makes glibc trim the heap after each
    # call, and the next call re-faults it. Peaks read 1.14x (u and the bits)
    # and 4.02x (four buffers in the switching pass).
    n_bit, device, tile = 16384, DeviceParams(cell_jitter=jitter), TileConfig()
    generate_stream(0.41, n_bit, device, tile, RngState(5, ("warm",)))
    tracemalloc.start()
    try:
        generate_stream(0.41, n_bit, device, tile, RngState(5, ("peak",)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit * 8 * n_bit
