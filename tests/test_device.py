"""CBRAM switching model checks.

The half-switching pulse width is frozen from direct analytic evaluation
of the switching law with the published fit constants (tau = 0.38 ms,
V0 = 0.4 V, V = 4.5 V).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsc.device import DeviceParams, pulse_width_for, switch_probability


def test_default_tau_eff_matches_measured_constant():
    params = DeviceParams()
    assert params.tau_eff() == pytest.approx(0.38e-3, rel=1e-12)


def test_switch_probability_boundaries():
    params = DeviceParams()
    assert switch_probability(0.0, params) == 0.0
    t_sat = 100 * params.tau_eff()
    assert switch_probability(t_sat, params) >= 1 - math.exp(-100) - 1e-15


def test_switch_probability_half_at_ln2():
    # tau0 = 0.38 ms * e^(4.5/0.4) makes tau_eff() = 0.38 ms at 4.5 V, so the
    # half-switching pulse is 0.38 ms * ln 2
    params = DeviceParams()
    t_half = 0.38e-3 * math.log(2)
    assert switch_probability(t_half, params) == pytest.approx(0.5, rel=1e-12)


def test_switch_probability_negative_t_rejected():
    with pytest.raises(ValueError):
        switch_probability(-1e-9, DeviceParams())


def test_pulse_width_trivials():
    params = DeviceParams()
    assert pulse_width_for(0.0, params) == 0.0
    assert pulse_width_for(0.5, params) == pytest.approx(
        params.tau_eff() * math.log(2), rel=1e-12
    )
    with pytest.raises(ValueError):
        pulse_width_for(1.0, params)
    with pytest.raises(ValueError):
        pulse_width_for(-0.1, params)
    with pytest.raises(ValueError, match="nan"):
        pulse_width_for(float("nan"), params)


@pytest.mark.parametrize("p", [False, True, "0.5", None])
def test_pulse_width_rejects_non_real_probability(p):
    # False would give a width of -0.0 s, a string fail in a comparison
    with pytest.raises(ValueError, match="not a number"):
        pulse_width_for(p, DeviceParams())


def test_round_trip_identity():
    params = DeviceParams()
    for p in (0.01, 0.5, 0.99):
        t = pulse_width_for(p, params)
        assert switch_probability(t, params) == pytest.approx(p, rel=1e-9)


@settings(max_examples=300, deadline=None)
@given(
    p=st.floats(min_value=0.0, max_value=1 - 1e-9),
    v=st.floats(min_value=0.1, max_value=10.0),
)
def test_round_trip_identity_property(p, v):
    params = DeviceParams(v_prog=v)
    back = switch_probability(pulse_width_for(p, params), params)
    assert back == pytest.approx(p, rel=1e-9, abs=1e-12)


def test_monotonicity_grid():
    # the law at voltage v is the law of the device programmed at v
    params = DeviceParams()
    gen = np.random.default_rng(7)
    ts = np.sort(gen.uniform(0, 5 * replace(params, v_prog=0.5).tau_eff(), 50))
    for v in gen.uniform(0.1, 10.0, 8):
        ps = switch_probability(ts, replace(params, v_prog=v))
        assert np.all(np.diff(ps) >= 0)
    # strict in voltage while the law is unsaturated (it reaches 1.0 exactly
    # in floating point once t >> tau_eff, where strictness cannot hold)
    t = 1e-3 * replace(params, v_prog=10.0).tau_eff()
    vs = np.sort(gen.uniform(0.1, 10.0, 50))
    ps = np.array([switch_probability(t, replace(params, v_prog=v)) for v in vs])
    assert np.all(np.diff(ps) > 0)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        DeviceParams(v_prog=0.0)
    # a bool passed as 1; a string raised a bare TypeError from ">"; an int
    # beyond the float range raised OverflowError or failed in generate_stream
    for name in ("v_prog", "cell_jitter"):
        for bad in (float("nan"), True, "4.5", 10**400):
            with pytest.raises(ValueError, match=name):
                DeviceParams(**{name: bad})
        DeviceParams(**{name: np.float32(0.5) if name == "cell_jitter" else np.float64(4.0)})


@pytest.mark.parametrize("name", ["v_prog", "cell_jitter"])
def test_infinite_params_rejected(name):
    # cell_jitter = inf made generate_stream divide by zero
    with pytest.raises(ValueError, match=name):
        DeviceParams(**{name: float("inf")})


def test_nan_times_rejected():
    # each of these returned NaN
    params, nan = DeviceParams(), float("nan")
    for t in (nan, np.array([1e-4, nan])):
        with pytest.raises(ValueError, match="NaN"):
            switch_probability(t, params)


@pytest.mark.parametrize("v_prog", [1000.0, 1e300])
def test_underflowing_time_constant_rejected(v_prog):
    # tau_eff() underflowed to 0.0: switch_probability divided by zero and
    # pulse_width_for returned 0 for every p
    with pytest.raises(ValueError, match="time constant"):
        DeviceParams(v_prog=v_prog)
