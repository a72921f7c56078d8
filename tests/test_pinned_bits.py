"""sha256 pins of every exec mode's updates, the initial weights and the
in-array streams.

These are the bits the four benchmark workloads start from and move
through, and every exec mode has its pin. A change that moves any of
them must say so. Each digest is taken over ``tobytes()`` of the arrays
in the order listed (pulse widths as ``float.hex``); no BLAS call sits in
the hashed paths, so the pins do not depend on the thread count. They do
depend on numpy's ``binomial``, ``uniform``, ``lognormal`` and ``random``
streams, which numpy keeps fixed across its releases only on a
best-effort basis; the digests were taken with numpy 2.4.
"""

import hashlib

import numpy as np
import pytest

from memsc.crossbar import TileConfig, generate_stream
from memsc.device import DeviceParams
from memsc.nn.data import synthetic_dataset
from memsc.nn.network import reduced_network, table1_network
from memsc.optimizer import MUX_LAWS, OptimizerConfig, update_tensor
from memsc.rng import RngState


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


UPDATE_PINS = {
    ("float", "sgd"): "c3a96220a9d48cc08271722e8ff3ad1fbc73ca5ec39748bdeeda6368991fcd82",
    ("float", "momentum"): "af6fa38ab7392a9aadaed63bc093deaa6590488d0250441e0529d559ae272dd4",
    ("binomial", "sgd"): "880234573a3f13d78ff0f00c683f94647561ddf2096314293a2f5b6bb7206bf1",
    ("binomial", "momentum"): "fad43cb67b8c29689764ce33f2b60229cbe5ad5c42821ded8fc866d069c5704e",
    ("bitexact", "sgd"): "fc2375816ee19ca412a27e263ff97120e4e1221c09acc4ee3341b2e18ff306dd",
    ("bitexact", "momentum"): "974fcca2d77e49e444743e3b561197af807e12a0916b2a274d8c3ce0155bccbb",
}


def test_every_exec_mode_is_pinned():
    assert tuple(dict.fromkeys(e for e, _ in UPDATE_PINS)) == (*MUX_LAWS, "bitexact")


@pytest.mark.parametrize("exec_mode, mode", list(UPDATE_PINS))
def test_update_bits_are_pinned(exec_mode, mode):
    want = UPDATE_PINS[exec_mode, mode]
    gen = np.random.default_rng(2024)
    params = gen.uniform(-1, 1, (7, 5))
    velocity = gen.uniform(-0.5, 0.5, (7, 5))
    grads = gen.normal(0, 1.5, (7, 5))  # about half beyond the clip range
    cfg = OptimizerConfig(mode=mode, eta=0.5, gamma=0.9, n_bit=16384, exec_mode=exec_mode)
    new, new_v, e = update_tensor(params, grads, cfg, RngState(5).split("pin", mode),
                                  velocity=velocity if mode == "momentum" else None)
    assert (digest(new) if new_v is None else digest(new, new_v)) == want
    assert e == 0.5367156064782226


@pytest.mark.parametrize("build, want", [
    (table1_network, "17d803194711a337dc14b320fbf9911b982210d028f57a532e55a60278f77756"),
    (reduced_network, "82805e9a8c7ce596566fe99a66e176a8f72e0c70f06d6ad7c882a19a75f4613b"),
], ids=["table1_network", "reduced_network"])
def test_initial_parameter_bits_are_pinned(build, want):
    assert digest(*build(RngState(1)).params().values()) == want


def test_synthetic_dataset_bits_are_pinned():
    ds = synthetic_dataset(4096, seed=3)
    assert digest(ds.images, ds.labels) == (
        "e6188170d7fb79f47687b44254bd2728831fcd24a9ae7bd2ca54ac68e648941d")


@pytest.mark.parametrize("jitter, want", [
    (0.0, "c5585a5b20d78f7253ea8839dd6d89ea637ab305932269a31a78a05de5c53ea8"),
    (0.6, "3484850eff89107c3f56bcfdb82c958393a142e8dbb7897ad0ecf7708913db5e"),
])
def test_in_array_stream_bits_are_pinned(jitter, want):
    h = hashlib.sha256()
    device, tile = DeviceParams(cell_jitter=jitter), TileConfig()
    for p in (0.0, 0.1, 0.41, 0.5, 0.9, 0.99):
        rng = RngState(17).split("array", jitter, p)
        stream, width = generate_stream(p, 16384, device, tile, rng)
        h.update(stream.bits.tobytes())
        h.update(width.hex().encode())
    assert h.hexdigest() == want
