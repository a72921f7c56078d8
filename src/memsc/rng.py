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

``generators(label, count)`` builds ``count`` sibling streams at once, for
callers that open one per tile. It runs SeedSequence's entropy mixing and
``generate_state`` as uint32 array arithmetic over all the siblings and
hands each row of seed words to PCG64, so each generator is bit-identical
to ``split(label, t).generator``. On a single stream the array pass is
slower than numpy's own ``SeedSequence``, so ``generator`` keeps that one;
it is also the oracle the batch path is tested against.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RngState"]

_MASK32 = 0xFFFFFFFF
_XSHIFT = 16
# SeedSequence's hash constants (numpy/random/bit_generator.pyx, pool size 4).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_chain(init: int, mult: int, n: int) -> list[tuple[np.uint32, np.uint32]]:
    # Call k of a hashmix xors with init*mult^k and multiplies by init*mult^(k+1).
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return [(np.uint32(consts[k]), np.uint32(consts[k + 1])) for k in range(n)]


# Entropy of at most 4 words takes 4 + 4 * 3 hashmix calls; 4 uint64 words
# of output take 8 uint32 words.
_HASH_A = _hash_chain(_INIT_A, _MULT_A, 16)
_HASH_B = _hash_chain(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, consts: tuple[np.uint32, np.uint32]) -> np.ndarray:
    xor, mult = consts
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """PCG64 seed words of SeedSequence(e).generate_state(4, uint64), row by row.

    ``entropy`` is an (N, 4) uint32 array of little-endian entropy words;
    SeedSequence pads shorter entropies with zero words, which mix the same.
    """
    hash_a = iter(_HASH_A)
    mixer = [_hashmix(lane, next(hash_a)) for lane in np.asarray(entropy, np.uint32).T]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixer[dst] = _mix(mixer[dst], _hashmix(mixer[src], next(hash_a)))
    words = np.stack([_hashmix(mixer[i % 4], _HASH_B[i]) for i in range(8)], axis=1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


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


def _label_digest(seed: int, labels: tuple) -> bytes:
    # sha256 of the canonical repr gives a stable mapping across runs and
    # platforms (unlike hash(), which is salted per process).
    return hashlib.sha256(repr((seed, labels)).encode("utf-8")).digest()[:16]


class RngState:
    """Opaque generator state, splittable into independent substreams.

    ``split(*labels)`` derives a child stream; identical (seed, labels)
    always reproduce the same bit sequence. Labels must be built-in ints,
    floats or strings; anything else raises ``TypeError``.
    """

    __slots__ = ("seed", "labels", "_generator")

    def __init__(self, seed: int, labels: tuple = ()):
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
            entropy = int.from_bytes(_label_digest(self.seed, self.labels), "little")
            self._generator = np.random.default_rng(np.random.SeedSequence(entropy))
        return self._generator

    def generators(self, label, count: int) -> list[np.random.Generator]:
        """Fresh generators of ``split(label, t)`` for t in range(count), seeded in one pass."""
        _check_labels((label,))
        if count < 0:
            raise ValueError("count must be >= 0")
        digests = b"".join(
            _label_digest(self.seed, self.labels + (label, t)) for t in range(count)
        )
        entropy = np.frombuffer(digests, dtype="<u4").reshape(count, 4)
        return [
            np.random.Generator(np.random.PCG64(_PresetSeed(words)))
            for words in _seed_words(entropy)
        ]

    def __repr__(self):
        return f"RngState(seed={self.seed}, labels={self.labels!r})"
