"""Deterministic, splittable random streams keyed by (seed, labels).

Every stochastic operation in the package draws from an explicitly passed
stream so that results depend only on the (seed, label) pair and never on
call order or scheduling.

A stream's entropy is the first 128 bits of sha256 over
``repr((seed, labels))``, fed to numpy's ``SeedSequence`` and PCG64. Labels
must be built-in ints, floats or strings, whose reprs do not depend on the
numpy version; numpy scalars are refused because theirs do
(``repr(np.int64(3))`` is ``'3'`` under numpy 1.x and ``'np.int64(3)'``
under numpy 2).

``split`` derives child streams and ``generator`` draws from one. A caller
that needs many draws takes them in turn from its one generator; draws
taken in turn from one PCG64 stream are as independent as separately
seeded ones.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ._checks import is_int

__all__ = ["RngState"]


def _check_labels(labels: tuple) -> None:
    for label in labels:
        if type(label) not in (int, float, str):
            raise TypeError(f"labels must be built-in ints, floats or strings, got {label!r}")


class RngState:
    """Opaque generator state, splittable into independent substreams.

    ``split(*labels)`` derives a child stream and ``generator`` is the
    stream's one numpy generator; identical (seed, labels) always reproduce
    the same bit sequence. Labels must be built-in ints, floats or strings;
    anything else raises ``TypeError``. The seed must be a Python or numpy
    int (stored as ``int``); anything else raises ``ValueError``.
    """

    __slots__ = ("seed", "labels", "_generator")

    def __init__(self, seed: int, labels: tuple = ()):
        if not is_int(seed):
            raise ValueError(f"seed must be an int, got {seed!r}")
        self.seed = int(seed)
        self.labels = tuple(labels)
        _check_labels(self.labels)
        self._generator = None

    def split(self, *labels) -> "RngState":
        """Derive an independent substream labelled by one or more ``labels``."""
        if not labels:
            raise ValueError("split needs a label: with none it returns this stream's own bits")
        return RngState(self.seed, self.labels + labels)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (created lazily, then stateful)."""
        if self._generator is None:
            # sha256 of the canonical repr gives a stable mapping across runs
            # and platforms (unlike hash(), which is salted per process).
            digest = hashlib.sha256(repr((self.seed, self.labels)).encode("utf-8")).digest()
            seed_seq = np.random.SeedSequence(int.from_bytes(digest[:16], "little"))
            self._generator = np.random.default_rng(seed_seq)
        return self._generator

    def __repr__(self):
        return f"RngState(seed={self.seed}, labels={self.labels!r})"
