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

``generators(label, count)`` seeds many generators at once, for callers
that open one stream per tile (``generate_stream``). Their seed words are
the rows of ``split(label)``'s own SeedSequence output,
``generate_state(4 * count, uint64)``, so each generator is its own PCG64
with its own state and increment. They are not the streams of
``split(label, t)``.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from ._checks import is_int

__all__ = ["RngState"]


class _PresetSeed(ISeedSequence):
    """Hands PCG64 seed words that were computed ahead of time."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("preset seed holds exactly 4 uint64 words")
        return self._words


def _check_labels(labels: tuple) -> None:
    for label in labels:
        if type(label) not in (int, float, str):
            raise TypeError(f"labels must be built-in ints, floats or strings, got {label!r}")


def _seed_sequence(seed: int, labels: tuple) -> np.random.SeedSequence:
    # sha256 of the canonical repr gives a stable mapping across runs and
    # platforms (unlike hash(), which is salted per process).
    digest = hashlib.sha256(repr((seed, labels)).encode("utf-8")).digest()
    return np.random.SeedSequence(int.from_bytes(digest[:16], "little"))


class RngState:
    """Opaque generator state, splittable into independent substreams.

    ``split(*labels)`` derives a child stream; identical (seed, labels)
    always reproduce the same bit sequence. Labels must be built-in ints,
    floats or strings; anything else raises ``TypeError``. The seed must be
    a Python or numpy int (stored as ``int``); anything else raises
    ``ValueError``.
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
        """Derive an independent substream labelled by ``labels``."""
        return RngState(self.seed, self.labels + labels)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (created lazily, then stateful)."""
        if self._generator is None:
            self._generator = np.random.default_rng(_seed_sequence(self.seed, self.labels))
        return self._generator

    def generators(self, label, count: int) -> list[np.random.Generator]:
        """``count`` fresh, independent generators drawn from ``split(label)``'s seed.

        Generator t is a PCG64 seeded with row t of the (count, 4) uint64
        words of ``split(label)``'s SeedSequence ``generate_state(4 * count,
        uint64)``. That output is prefix-consistent, so row 0 is the stream
        of ``split(label).generator``; no caller opens both.
        """
        _check_labels((label,))
        if not is_int(count) or count < 0:
            raise ValueError(f"count must be an int >= 0, got {count!r}")
        seed_seq = _seed_sequence(self.seed, self.labels + (label,))
        words = seed_seq.generate_state(4 * count, np.uint64)
        return [
            np.random.Generator(np.random.PCG64(_PresetSeed(row)))
            for row in words.reshape(-1, 4)
        ]

    def __repr__(self):
        return f"RngState(seed={self.seed}, labels={self.labels!r})"
