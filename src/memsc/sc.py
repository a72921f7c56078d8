"""Stochastic number representation and combinational bit-stream arithmetic.

Numbers are carried as random bit streams, one bool per bit. The fraction
of ones, x = popcount/length, encodes the value: unipolar streams
represent x in [0, 1], bipolar streams represent 2x - 1 in [-1, 1]. Bit
order carries no value. Multiplication is a single XNOR per bit position
of two bipolar streams; scaled addition is a per-position multiplexer.

``encode`` is the comparator stream generator: an n-bit stream takes
ceil(n/2) raw PCG64 outputs, splits each into two 32-bit halves (low half
first, whatever the host's byte order) and sets bit i iff half-word i is
below T = round(p * 2**32). p = 0 and p = 1 are exact; at any other p the
bit probability is off by at most 2**-33, far below a stream's
1/sqrt(n) noise.

All operands of a multiply or add must come from independent substreams:
correlated inputs silently corrupt products (xnor_mul(a, a) decodes to +1,
not decode(a)**2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._checks import is_int
from .rng import RngState

__all__ = [
    "Priori",
    "BitStream",
    "LfsrState",
    "encode",
    "decode",
    "xnor_mul",
    "scaled_add",
    "negate",
    "lfsr_stream",
    "lfsr_period",
]


class Priori(enum.Enum):
    """Value range convention of a stream."""

    UNIPOLAR = "unipolar"  # [0, 1]
    BIPOLAR = "bipolar"    # [-1, 1]


@dataclass(frozen=True, eq=False)
class BitStream:
    """A stochastic bit stream: a non-empty 1-D bool array and its priori.

    The stream takes the array it is handed and makes it read-only; a view
    is copied first, since its base could still write the bits.
    """

    bits: np.ndarray
    priori: Priori

    def __post_init__(self):
        bits = self.bits
        if not isinstance(bits, np.ndarray) or bits.dtype != bool or bits.ndim != 1:
            raise ValueError("bit stream bits must be a 1-D bool array")
        if bits.size < 1:
            raise ValueError("bit stream length must be >= 1")
        if not isinstance(self.priori, Priori):
            raise ValueError(f"bit stream priori must be a Priori, got {self.priori!r}")
        if bits.base is not None:
            bits = bits.copy()
            object.__setattr__(self, "bits", bits)
        bits.flags.writeable = False

    @classmethod
    def zeros(cls, length: int, priori: Priori) -> "BitStream":
        return cls(np.zeros(length, dtype=bool), priori)

    @classmethod
    def ones(cls, length: int, priori: Priori) -> "BitStream":
        return cls(np.ones(length, dtype=bool), priori)

    def popcount(self) -> int:
        return int(np.count_nonzero(self.bits))

    def same_bits(self, other: "BitStream") -> bool:
        return self.priori is other.priori and np.array_equal(self.bits, other.bits)

    def __len__(self):
        return self.bits.size


def _priori_probability(value: float, priori: Priori) -> float:
    """Map a represented value to its per-bit one-probability."""
    if priori is Priori.UNIPOLAR:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"unipolar value {value} outside [0, 1]")
        return float(value)
    if not -1.0 <= value <= 1.0:
        raise ValueError(f"bipolar value {value} outside [-1, 1]")
    return (float(value) + 1.0) / 2.0


def encode(value: float, length: int, priori: Priori, rng: RngState) -> BitStream:
    """Encode a value as independent Bernoulli draws at the priori's probability.

    A comparator against 32-bit random words: the stream takes ceil(n/2)
    raw outputs of ``rng``'s PCG64 and splits each into its two 32-bit
    halves, low half first on any host; bit i is 1 iff half-word i is
    below T = round(p * 2**32). p = 0 and p = 1 give all zeros and all
    ones exactly, and the bit probability T / 2**32 is within 2**-33 of p.
    An odd n discards the last high half.
    """
    if not is_int(length) or length < 1:
        raise ValueError(f"length must be an int >= 1, got {length!r}")
    threshold = round(_priori_probability(value, priori) * (1 << 32))
    words = rng.generator.bit_generator.random_raw((length + 1) // 2)
    halves = words.astype("<u8", copy=False).view("<u4")
    return BitStream(halves[:length] < threshold, priori)


def decode(stream: BitStream) -> float:
    """Mean bit value for unipolar streams, 2x - 1 for bipolar.

    The bipolar value is formed as (2*popcount - N) / N so that
    complementary streams decode to exact floating-point negatives.
    """
    n = len(stream)
    if stream.priori is Priori.UNIPOLAR:
        return stream.popcount() / n
    return (2 * stream.popcount() - n) / n


def _check_pair(a: BitStream, b: BitStream, op: str, priori: Priori | None):
    if len(a) != len(b):
        raise ValueError(f"{op}: stream lengths differ ({len(a)} vs {len(b)})")
    if priori is not None and (a.priori is not priori or b.priori is not priori):
        raise ValueError(f"{op}: both operands must be {priori.value}")


def xnor_mul(a: BitStream, b: BitStream) -> BitStream:
    """Bipolar multiply: bitwise XNOR of two independent streams."""
    _check_pair(a, b, "xnor_mul", Priori.BIPOLAR)
    return BitStream(a.bits == b.bits, Priori.BIPOLAR)


def scaled_add(a: BitStream, b: BitStream, select: BitStream) -> BitStream:
    """Multiplexed add: take a's bit where select is 1, else b's bit.

    With an independent select stream of probability s the result decodes
    to s*decode(a) + (1-s)*decode(b); s = 0.5 gives (a + b) / 2.
    """
    _check_pair(a, b, "scaled_add", None)
    if a.priori is not b.priori:
        raise ValueError("scaled_add: operand prioris differ")
    if len(select) != len(a):
        raise ValueError(f"scaled_add: select length {len(select)} != operand length {len(a)}")
    s = select.bits  # logic, not np.where, which is ~17x slower on 16 Kbit streams
    return BitStream((s & a.bits) | (~s & b.bits), a.priori)


def negate(a: BitStream) -> BitStream:
    """Bipolar negation: bitwise NOT, exact (decode flips sign bit-exactly)."""
    if a.priori is not Priori.BIPOLAR:
        raise ValueError("negate: stream must be bipolar")
    return BitStream(~a.bits, Priori.BIPOLAR)


# ---------------------------------------------------------------------------
# Conventional-CMOS comparison generator: maximal-length LFSR + comparator.
# ---------------------------------------------------------------------------

# Width-16 feedback taps giving the full 2^16 - 1 period (XAPP052 tap table).
DEFAULT_LFSR_TAPS = (16, 15, 13, 4)


@dataclass
class LfsrState:
    """Fibonacci LFSR over ``width`` bits; taps are 1-indexed positions.

    Width, register and every tap must be Python or numpy ints; they are
    stored as Python ints.
    """

    width: int = 16
    taps: tuple = DEFAULT_LFSR_TAPS
    register: int = 0xACE1

    def __post_init__(self):
        fields = (self.width, self.register, *self.taps)
        if not all(is_int(f) for f in fields):
            raise ValueError(f"width, register and taps must be ints, got {self!r}")
        # numpy uint64 fields would not mix with words()'s int64 shift arrays
        self.width, self.register, *taps = (int(f) for f in fields)
        self.taps = tuple(taps)
        if not 1 <= self.width <= 63:
            raise ValueError(f"width must lie in [1, 63] so words fit int64, got {self.width}")
        mask = (1 << self.width) - 1
        self.register &= mask
        if self.register == 0:
            raise ValueError("LFSR register must not be all-zero")
        if not self.taps or any(t < 1 or t > self.width for t in self.taps):
            raise ValueError(f"taps must lie in [1, {self.width}]")

    def step(self) -> int:
        """Return the current register word, then advance one shift."""
        word = self.register
        feedback = 0
        for t in self.taps:
            feedback ^= (self.register >> (t - 1)) & 1
        self.register = ((self.register << 1) | feedback) & ((1 << self.width) - 1)
        return word

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` register words, as ``count`` calls of ``step()`` give them.

        Let a[0..w-1] be the register bits oldest first (a[w-1-b] is bit b).
        Each step shifts in a[j] = XOR_t a[j-t] for j >= w, and word i is
        the OR of a[w-1-b+i] << b. Over GF(2) the feedback polynomial obeys
        Q(x)^2 = Q(x^2), so by induction a[j] = XOR_t a[j - t*2^k] holds for
        j >= w + (2^k - 1)*max(taps); the start condition needs the width,
        not just 2^k*max(taps), whenever max(taps) < w. The sequence is
        filled in blocks of min(taps)*2^k bits, one XOR of slices each,
        raising k as soon as the condition allows. ``step()`` is the
        one-step reference. The register is left after ``count`` steps.
        """
        if not is_int(count) or count < 0:
            raise ValueError(f"count must be an int >= 0, got {count!r}")
        w, taps = self.width, self.taps
        n = count + w
        a = np.empty(n, dtype=np.int64)
        a[:w] = (self.register >> np.arange(w - 1, -1, -1)) & 1
        shortest, longest = min(taps), max(taps)
        j, k = w, 0
        while j < n:
            while j >= w + ((2 << k) - 1) * longest:
                k += 1
            end = min(n, j + (shortest << k))
            block = a[j - (taps[0] << k) : end - (taps[0] << k)].copy()
            for t in taps[1:]:
                block ^= a[j - (t << k) : end - (t << k)]
            a[j:end] = block
            j = end
        # count + 1 words: the last one is the register after count steps.
        out = np.zeros(count + 1, dtype=np.int64)
        for b in range(w):
            out |= a[w - 1 - b : n - b] << b
        self.register = int(out[-1])
        return out[:-1]


def lfsr_stream(value: float, length: int, priori: Priori, lfsr: LfsrState) -> BitStream:
    """Generate a stream by comparing LFSR words against the target probability.

    Bit i is 1 iff word_i / 2**width < p. Over one full period of a
    maximal-length LFSR the popcount is within one bit of p * (2**width - 1).
    """
    p = _priori_probability(value, priori)
    threshold = p * (1 << lfsr.width)
    return BitStream(lfsr.words(length) < threshold, priori)


def lfsr_period(lfsr: LfsrState) -> int:
    """Number of steps until the register state recurs (full period check).

    Maximal-length taps return 2**width - 1. Runs at most 2**width steps
    and returns 2**width if the start state never recurs.
    """
    probe = LfsrState(lfsr.width, lfsr.taps, lfsr.register)
    start = probe.register
    limit = 1 << lfsr.width
    for n in range(1, limit + 1):
        probe.step()
        if probe.register == start:
            return n
    return limit
