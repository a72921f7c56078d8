"""sha256 pins of the ideal source's binomial updates and the initial weights.

These are the bits the ``cnn_binomial`` and ``cnn_float_eval`` benchmark
workloads start from and move through. A change that moves any of them
must say so. Each digest is taken over ``tobytes()`` of the arrays in the
order listed; no BLAS call sits in the hashed paths, so the pins do not
depend on the thread count. They do depend on numpy's ``binomial`` and
``uniform`` streams, which numpy keeps fixed across its releases only on
a best-effort basis; the digests were taken with numpy 2.4.
"""

import hashlib

import numpy as np
import pytest

from memsc.nn.network import reduced_network, table1_network
from memsc.optimizer import OptimizerConfig, update_tensor
from memsc.rng import RngState


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("mode, want", [
    ("sgd", "880234573a3f13d78ff0f00c683f94647561ddf2096314293a2f5b6bb7206bf1"),
    ("momentum", "fad43cb67b8c29689764ce33f2b60229cbe5ad5c42821ded8fc866d069c5704e"),
])
def test_binomial_update_bits_are_pinned(mode, want):
    gen = np.random.default_rng(2024)
    params = gen.uniform(-1, 1, (7, 5))
    velocity = gen.uniform(-0.5, 0.5, (7, 5))
    grads = gen.normal(0, 1.5, (7, 5))  # about half beyond the clip range
    cfg = OptimizerConfig(mode=mode, eta=0.5, gamma=0.9, n_bit=16384, exec_mode="binomial")
    new, new_v, e = update_tensor(params, grads, cfg, RngState(5).split("pin", mode),
                                  velocity=velocity if mode == "momentum" else None)
    assert (digest(new) if new_v is None else digest(new, new_v)) == want
    assert e == 0.5367156064782226


@pytest.mark.parametrize("build, want", [
    (table1_network, "6407e3fc14c6a029b5d4f1cfb608b5841e6f2b753c265e3dc9b0b1ed8cb7ef87"),
    (reduced_network, "4c7cd9820f593e245c77f93bf5a8f6a8043cac1948f2e8b5c5362424bcc4fc8e"),
])
def test_initial_parameter_bits_are_pinned(build, want):
    assert digest(*build(RngState(1)).params().values()) == want
