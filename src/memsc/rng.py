"""Deterministic, splittable random streams keyed by (seed, labels).

Every stochastic operation in the package draws from an explicitly passed
stream so that results depend only on the (seed, label) pair and never on
call order or scheduling.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngState"]


def _label_entropy(seed: int, labels: tuple) -> int:
    # sha256 of the canonical repr gives a stable mapping across runs and
    # platforms (unlike hash(), which is salted per process).
    digest = hashlib.sha256(repr((seed, labels)).encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


class RngState:
    """Opaque generator state, splittable into independent substreams.

    ``split(*labels)`` derives a child stream; identical (seed, labels)
    always reproduce the same bit sequence. Labels may be ints or strings.
    """

    __slots__ = ("seed", "labels", "_generator")

    def __init__(self, seed: int, labels: tuple = ()):
        self.seed = int(seed)
        self.labels = tuple(labels)
        self._generator = None

    def split(self, *labels) -> "RngState":
        """Derive an independent substream labelled by ``labels``."""
        return RngState(self.seed, self.labels + labels)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (created lazily, then stateful)."""
        if self._generator is None:
            self._generator = np.random.default_rng(
                np.random.SeedSequence(_label_entropy(self.seed, self.labels))
            )
        return self._generator

    def __repr__(self):
        return f"RngState(seed={self.seed}, labels={self.labels!r})"
