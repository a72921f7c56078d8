"""Bit-stream representation and arithmetic checks.

Expected values for the statistical cases come from the exact composed
Bernoulli probabilities (computed inline), with Monte-Carlo tolerances of
4 sigma unless stated otherwise.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from memsc.crossbar import TileConfig, generate_stream
from memsc.device import DeviceParams
from memsc.rng import RngState
from memsc.sc import (
    LFSR_TAPS,
    LFSR_WIDTH,
    BitStream,
    LfsrState,
    Priori,
    decode,
    encode,
    lfsr_stream,
    negate,
    scaled_add,
    xnor_mul,
)


def rng(*labels, seed=1234):
    return RngState(seed).split(*labels)


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

def test_decode_trivial_streams():
    assert decode(BitStream(np.ones(64, bool), Priori.BIPOLAR)) == 1.0
    assert decode(BitStream(np.zeros(64, bool), Priori.BIPOLAR)) == -1.0
    # 8-bit pattern 10110010: popcount 4 -> unipolar 0.5
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=bool)
    assert decode(BitStream(bits, Priori.UNIPOLAR)) == 0.5


@pytest.mark.parametrize("bits", [
    np.array([1, 0, 1], dtype=np.uint8),  # not bool
    np.zeros((2, 4), dtype=bool),         # not 1-D
    np.zeros(0, dtype=bool),              # empty
    [True, False],                        # not an array
])
def test_bitstream_rejects_malformed_bits(bits):
    with pytest.raises(ValueError):
        BitStream(bits, Priori.BIPOLAR)


@pytest.mark.parametrize("priori", ["unipolar", "bipolar", None, 0])
def test_bitstream_rejects_non_priori(priori):
    # a string would fall through to the bipolar law: encode(0.5, "unipolar")
    # drew at p = 0.75
    with pytest.raises(ValueError, match="priori"):
        BitStream(np.ones(4, dtype=bool), priori)
    with pytest.raises(ValueError, match="priori"):
        encode(0.5, 1000, priori, rng("priori"))
    with pytest.raises(ValueError, match="priori"):
        lfsr_stream(0.5, 16, priori, LfsrState())
    with pytest.raises(ValueError, match="priori"):
        generate_stream(0.5, 16, DeviceParams(), TileConfig(), rng("priori"), priori=priori)


def test_bitstream_is_frozen():
    s = BitStream(np.ones(8, bool), Priori.BIPOLAR)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.bits = np.zeros(8, dtype=bool)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.priori = Priori.UNIPOLAR


def _streams_of_every_producer():
    a = encode(0.0, 64, Priori.BIPOLAR, rng("ro", "a"))
    b = encode(0.3, 64, Priori.BIPOLAR, rng("ro", "b"))
    sel = encode(0.5, 64, Priori.UNIPOLAR, rng("ro", "s"))
    generated, _ = generate_stream(0.4, 64, DeviceParams(), TileConfig(), rng("ro", "gen"))
    return {
        "encode": a,
        "xnor_mul": xnor_mul(a, b),
        "scaled_add": scaled_add(a, b, sel),
        "negate": negate(a),
        "generate_stream": generated,
        "lfsr_stream": lfsr_stream(0.4, 64, Priori.UNIPOLAR, LfsrState()),
    }


@pytest.mark.parametrize(
    "producer",
    ["encode", "xnor_mul", "scaled_add", "negate", "generate_stream", "lfsr_stream"],
)
def test_stream_bits_are_read_only(producer):
    s = _streams_of_every_producer()[producer]
    before = s.popcount()
    with pytest.raises(ValueError):
        s.bits[:] = True
    with pytest.raises(ValueError):
        s.bits[0] = not s.bits[0]
    assert s.popcount() == before


def test_bitstream_owns_its_bits():
    handed = np.zeros(8, dtype=bool)
    s = BitStream(handed, Priori.UNIPOLAR)
    with pytest.raises(ValueError):
        handed[:] = True
    base = np.zeros(16, dtype=bool)
    view = BitStream(base[::2], Priori.UNIPOLAR)
    base[:] = True
    assert s.popcount() == view.popcount() == 0
    assert base.flags.writeable


def test_encode_bipolar_boundaries():
    assert encode(1.0, 64, Priori.BIPOLAR, rng("hi")).popcount() == 64
    assert encode(-1.0, 64, Priori.BIPOLAR, rng("lo")).popcount() == 0


def test_encode_bipolar_zero_is_half_probability():
    s = encode(0.0, 1 << 16, Priori.BIPOLAR, rng("zero"))
    assert abs(s.popcount() / len(s) - 0.5) < 4 * np.sqrt(0.25 / len(s))


def test_encode_out_of_range_raises():
    with pytest.raises(ValueError):
        encode(1.5, 16, Priori.UNIPOLAR, rng("bad"))
    with pytest.raises(ValueError):
        encode(-0.1, 16, Priori.UNIPOLAR, rng("bad"))
    with pytest.raises(ValueError):
        encode(-1.2, 16, Priori.BIPOLAR, rng("bad"))


def test_encode_decode_tolerance_unipolar_03():
    # 4-sigma Bernoulli bound at N=16384, checked over 200 trials
    n, p = 16384, 0.3
    tol = 4 * np.sqrt(p * (1 - p) / n)
    hits = sum(
        abs(decode(encode(p, n, Priori.UNIPOLAR, rng("t03", k))) - p) <= tol
        for k in range(200)
    )
    assert hits >= 198  # >= 99% of trials


def test_encode_decode_tolerance_grid():
    # spec invariant: grid over the priori range, 200 trials, >=99% within 4 sigma
    n = 16384
    for priori, grid in [
        (Priori.UNIPOLAR, np.linspace(0.05, 0.95, 7)),
        (Priori.BIPOLAR, np.linspace(-0.9, 0.9, 7)),
    ]:
        for v in grid:
            p = v if priori is Priori.UNIPOLAR else (v + 1) / 2
            tol = 4 * np.sqrt(p * (1 - p) / n)
            errors = [
                abs(decode(encode(v, n, priori, rng("grid", priori.value, float(v), k))) - v)
                for k in range(200)
            ]
            # bipolar decode error is twice the bit-probability error
            scale = 1.0 if priori is Priori.UNIPOLAR else 2.0
            hits = sum(e <= scale * tol for e in errors)
            assert hits >= 198, (priori, v, hits)


@pytest.mark.parametrize("value,priori,p", [
    (0.3, Priori.UNIPOLAR, 0.3),
    (-0.4, Priori.BIPOLAR, 0.3),
    (0.9, Priori.BIPOLAR, 0.95),
])
@pytest.mark.parametrize("n", [1, 13, 4096])
def test_encode_bits_are_32_bit_halves_below_threshold(value, priori, p, n):
    # bit i is 1 iff 32-bit half-word i of a fresh substream with the same
    # labels is below round(p * 2^32); each raw output gives its low half first
    r = rng("pin", n)
    s = encode(value, n, priori, r)
    assert s.priori is priori
    words = [int(w) for w in rng("pin", n).generator.bit_generator.random_raw(-(-n // 2))]
    halves = [h for w in words for h in (w & 0xFFFFFFFF, w >> 32)][:n]
    threshold = round(p * 2**32)
    assert s.bits.tolist() == [h < threshold for h in halves]
    # the stream used ceil(n/2) outputs: an odd n discards its last high half
    fresh = rng("pin", n).generator.bit_generator.random_raw(-(-n // 2) + 1)
    assert r.generator.bit_generator.random_raw() == fresh[-1]


@pytest.mark.parametrize("n", [1, 13])
def test_encode_probability_endpoints_are_exact(n):
    for k in range(50):
        assert encode(0.0, n, Priori.UNIPOLAR, rng("end", n, k)).popcount() == 0
        assert encode(1.0, n, Priori.UNIPOLAR, rng("end", n, k)).popcount() == n
        assert encode(-1.0, n, Priori.BIPOLAR, rng("end", n, k)).popcount() == 0
        assert encode(1.0, n, Priori.BIPOLAR, rng("end", n, k)).popcount() == n


@pytest.mark.parametrize("length", [0, -3, 2.5, 16.0, True, "16", None])
def test_encode_non_positive_int_length_rejected(length):
    with pytest.raises(ValueError, match="length"):
        encode(0.5, length, Priori.UNIPOLAR, rng("len"))


@pytest.mark.parametrize("value", [True, False, "0.5", None])
def test_stream_generators_reject_non_real_value(value):
    # a bool would encode as all ones or all zeros, a string fail in a comparison
    with pytest.raises(ValueError, match="value must be a real number"):
        encode(value, 8, Priori.BIPOLAR, rng("value"))
    with pytest.raises(ValueError, match="value must be a real number"):
        lfsr_stream(value, 8, Priori.BIPOLAR, LfsrState())


def test_encode_accepts_numpy_int_length():
    assert len(encode(0.5, np.int64(13), Priori.UNIPOLAR, rng("len"))) == 13


def test_determinism_same_seed_and_label():
    a = encode(0.37, 4096, Priori.UNIPOLAR, rng("det", 7))
    b = encode(0.37, 4096, Priori.UNIPOLAR, rng("det", 7))
    assert a.priori is b.priori and np.array_equal(a.bits, b.bits)
    c = encode(0.37, 4096, Priori.UNIPOLAR, rng("det", 8))
    assert not np.array_equal(a.bits, c.bits)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

def test_xnor_identity_and_negation():
    b = encode(0.3, 512, Priori.BIPOLAR, rng("xn"))
    ones = BitStream(np.ones(512, bool), Priori.BIPOLAR)
    zeros = BitStream(np.zeros(512, bool), Priori.BIPOLAR)
    same = xnor_mul(ones, b)
    assert same.priori is b.priori and np.array_equal(same.bits, b.bits)
    flipped = xnor_mul(zeros, b)
    assert decode(flipped) == -decode(b)
    assert flipped.priori is b.priori and np.array_equal(flipped.bits, negate(b).bits)


def test_xnor_expectation():
    # independent encodings of 0.5 and -0.4: exact expectation oracle
    # p_out = p_a*p_b + (1-p_a)(1-p_b) with p = (v+1)/2 -> decodes to a*b
    n = 16384
    a = encode(0.5, n, Priori.BIPOLAR, rng("xa"))
    b = encode(-0.4, n, Priori.BIPOLAR, rng("xb"))
    assert abs(decode(xnor_mul(a, b)) - (-0.20)) <= 0.05


def test_xnor_contract_errors():
    a = encode(0.5, 64, Priori.BIPOLAR, rng("c1"))
    b = encode(0.5, 128, Priori.BIPOLAR, rng("c2"))
    u = encode(0.5, 64, Priori.UNIPOLAR, rng("c3"))
    with pytest.raises(ValueError):
        xnor_mul(a, b)
    with pytest.raises(ValueError):
        xnor_mul(a, u)


def test_xnor_correlation_hazard():
    # xnor_mul(a, a) is all ones: the independence precondition matters
    a = encode(0.3, 2048, Priori.BIPOLAR, rng("hz"))
    assert decode(xnor_mul(a, a)) == 1.0


# ---------------------------------------------------------------------------
# scaled addition
# ---------------------------------------------------------------------------

def test_scaled_add_identical_inputs_exact():
    a = encode(0.2, 300, Priori.BIPOLAR, rng("sa"))
    sel = encode(0.5, 300, Priori.UNIPOLAR, rng("ss"))
    out = scaled_add(a, a, sel)
    assert out.priori is a.priori and np.array_equal(out.bits, a.bits)


def test_scaled_add_expectations():
    n = 16384
    ones = BitStream(np.ones(n, bool), Priori.BIPOLAR)
    zeros = BitStream(np.zeros(n, bool), Priori.BIPOLAR)
    sel = encode(0.5, n, Priori.UNIPOLAR, rng("sel1"))
    assert abs(decode(scaled_add(ones, zeros, sel)) - 0.0) <= 0.04
    a = encode(0.8, n, Priori.UNIPOLAR, rng("s8"))
    b = encode(0.2, n, Priori.UNIPOLAR, rng("s2"))
    sel2 = encode(0.5, n, Priori.UNIPOLAR, rng("sel2"))
    assert abs(decode(scaled_add(a, b, sel2)) - 0.5) <= 0.05


def test_scaled_add_rejects_mixed_priori():
    a = encode(0.5, 8, Priori.BIPOLAR, rng("mix", "a"))
    b = encode(0.5, 8, Priori.UNIPOLAR, rng("mix", "b"))
    with pytest.raises(ValueError, match="prioris differ"):
        scaled_add(a, b, encode(0.5, 8, Priori.UNIPOLAR, rng("mix", "s")))


def test_scaled_add_exhaustive_selection_small_n():
    # per-position multiplex semantics, exhaustive at N=4
    for abits, bbits, sbits in itertools.product(range(16), repeat=3):
        a, b, s = (
            BitStream(np.array([(v >> i) & 1 for i in range(4)], dtype=bool), Priori.UNIPOLAR)
            for v in (abits, bbits, sbits)
        )
        out = scaled_add(a, b, s).bits
        expect = np.where(s.bits, a.bits, b.bits)
        assert np.array_equal(out, expect)


def test_scaled_add_length_mismatch():
    a = encode(0.5, 64, Priori.BIPOLAR, rng("m1"))
    b = encode(0.5, 32, Priori.BIPOLAR, rng("m2"))
    sel = encode(0.5, 64, Priori.UNIPOLAR, rng("m3"))
    with pytest.raises(ValueError):
        scaled_add(a, b, sel)
    with pytest.raises(ValueError, match="select length 64 != operand length 32"):
        scaled_add(b, b, sel)


# ---------------------------------------------------------------------------
# negation
# ---------------------------------------------------------------------------

def test_negate_exact():
    assert negate(BitStream(np.ones(100, bool), Priori.BIPOLAR)).popcount() == 0
    for k in range(50):
        s = encode(np.sin(k), 257, Priori.BIPOLAR, rng("neg", k))
        assert decode(negate(s)) == -decode(s)
        twice = negate(negate(s))
        assert twice.priori is s.priori and np.array_equal(twice.bits, s.bits)
        assert negate(s).popcount() == len(s) - s.popcount()
    with pytest.raises(ValueError):
        negate(encode(0.5, 64, Priori.UNIPOLAR, rng("negu")))


@st.composite
def bool_triples(draw):
    n = draw(st.integers(min_value=1, max_value=200))
    same_length = st.lists(st.booleans(), min_size=n, max_size=n)
    return draw(same_length), draw(same_length), draw(same_length)


@settings(max_examples=200, deadline=None)
@given(bool_triples())
def test_negate_involution_property(triple):
    # lengths 1-200 take every residue mod 8 and mod 64, so partial words are covered
    bools, others, selects = triple
    s = BitStream(np.array(bools, dtype=bool), Priori.BIPOLAR)
    twice = negate(negate(s))
    assert twice.priori is s.priori and np.array_equal(twice.bits, s.bits)
    assert decode(negate(s)) == pytest.approx(-decode(s), abs=0)
    # every operation against its per-position truth table
    t = BitStream(np.array(others, dtype=bool), Priori.BIPOLAR)
    sel = BitStream(np.array(selects, dtype=bool), Priori.UNIPOLAR)
    assert s.popcount() == sum(bools)
    assert negate(s).bits.tolist() == [not x for x in bools]
    assert xnor_mul(s, t).bits.tolist() == [x == y for x, y in zip(bools, others)]
    assert scaled_add(s, t, sel).bits.tolist() == [
        x if c else y for x, y, c in zip(bools, others, selects)
    ]


# ---------------------------------------------------------------------------
# composition law
# ---------------------------------------------------------------------------

def test_composed_datapath_popcount_is_binomial():
    # scaled_add(xnor_mul(a, b), c, sel): output bits are i.i.d. with the
    # analytically composed probability; KS statistic of 500 popcounts
    # against Binomial(n, p) stays below the 1% critical value.
    n, reps = 256, 500
    va, vb, vc = 0.4, -0.6, 0.2
    pa, pb, pc = (va + 1) / 2, (vb + 1) / 2, (vc + 1) / 2
    p_prod = pa * pb + (1 - pa) * (1 - pb)
    p_out = 0.5 * p_prod + 0.5 * pc
    counts = np.empty(reps)
    for k in range(reps):
        r = rng("comp", k)
        a = encode(va, n, Priori.BIPOLAR, r.split("a"))
        b = encode(vb, n, Priori.BIPOLAR, r.split("b"))
        c = encode(vc, n, Priori.BIPOLAR, r.split("c"))
        sel = encode(0.5, n, Priori.UNIPOLAR, r.split("s"))
        counts[k] = scaled_add(xnor_mul(a, b), c, sel).popcount()
    ks = stats.ks_1samp(counts, stats.binom(n, p_out).cdf, alternative="two-sided")
    critical = 1.628 / np.sqrt(reps)  # two-sided 1% level
    assert ks.statistic < critical


# ---------------------------------------------------------------------------
# LFSR generator
# ---------------------------------------------------------------------------

def test_lfsr_boundary_values():
    assert lfsr_stream(1.0, 100, Priori.BIPOLAR, LfsrState()).popcount() == 100
    assert lfsr_stream(0.0, 100, Priori.UNIPOLAR, LfsrState()).popcount() == 0


def test_lfsr_full_period_half_probability():
    # full-period enumeration: all nonzero 16-bit words appear once, so the
    # popcount at p = 0.5 equals the count of words below 2^15 (= 32767)
    n = (1 << 16) - 1
    s = lfsr_stream(0.5, n, Priori.UNIPOLAR, LfsrState())
    assert abs(s.popcount() - n / 2) <= 1


def test_lfsr_default_taps_are_maximal():
    # one period visits every nonzero state once and comes back to the start;
    # a period count alone would not show that every state is visited
    lfsr = LfsrState()
    words = lfsr.words(2**16 - 1)
    assert np.array_equal(np.sort(words), np.arange(1, 2**16))
    assert lfsr.register == LfsrState().register


def test_lfsr_zero_register_rejected():
    with pytest.raises(ValueError, match=r"register must be an int in \[1, 65535\], got 0"):
        LfsrState(register=0)


@pytest.mark.parametrize("register", [-1, 0x10000, 0x1ACE1, np.int64(-1), np.uint64(0x10000)])
def test_lfsr_out_of_range_register_rejected(register):
    # these were masked: -1 ran as 0xFFFF, 0x1ACE1 as 0xACE1, and 0x10000
    # was called all-zero
    with pytest.raises(ValueError, match=r"register must be an int in \[1, 65535\]"):
        LfsrState(register)


@pytest.mark.parametrize("register", [np.uint64(0xFFFF), 1, 0xFFFF])
def test_lfsr_in_range_register_builds(register):
    lfsr = LfsrState(register)
    assert type(lfsr.register) is int and lfsr.register == int(register)


@pytest.mark.parametrize("register", [3.5, True])
def test_lfsr_non_int_register_rejected(register):
    # a float would fail later inside << or words(), and a bool pass as 1
    with pytest.raises(ValueError, match="register must be an int"):
        LfsrState(register)


@pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.uint64])
def test_lfsr_accepts_numpy_int_fields(dtype):
    # the register is stored as an int: uint64 does not mix with words()'s int64 arrays
    lfsr, ref = LfsrState(dtype(0xACE1)), LfsrState()
    assert np.array_equal(lfsr.words(64), ref.words(64))
    assert lfsr.register == ref.register


def test_lfsr_negative_count_rejected():
    with pytest.raises(ValueError, match="count"):
        LfsrState().words(-1)


@pytest.mark.parametrize("count", [True, 2.0, 0.5, "2", None])
def test_lfsr_non_int_count_rejected(count):
    # a bool length would give a 1-bit stream, a float one fail inside numpy
    with pytest.raises(ValueError, match="count"):
        LfsrState().words(count)
    with pytest.raises(ValueError, match="length"):
        lfsr_stream(0.5, count, Priori.UNIPOLAR, LfsrState())


@pytest.mark.parametrize("length", [0, -1])
def test_lfsr_stream_non_positive_length_rejected(length):
    with pytest.raises(ValueError, match=f"length must be an int >= 1, got {length}"):
        lfsr_stream(0.5, length, Priori.UNIPOLAR, LfsrState())


def stepped_words(lfsr, count):
    # the one-shift reference, worked out from LFSR_TAPS without words():
    # emit the register, XOR in bit t - 1 for each tap t, shift left and mask
    out = []
    for _ in range(count):
        out.append(lfsr.register)
        feedback = 0
        for t in LFSR_TAPS:
            feedback ^= (lfsr.register >> (t - 1)) & 1
        lfsr.register = ((lfsr.register << 1) | feedback) & ((1 << LFSR_WIDTH) - 1)
    return np.array(out, dtype=np.int64)


@st.composite
def lfsr_cases(draw):
    register = draw(st.integers(min_value=1, max_value=(1 << LFSR_WIDTH) - 1))
    count = draw(st.integers(min_value=0, max_value=4096))
    split = draw(st.integers(min_value=0, max_value=count))
    return register, count, split


@settings(max_examples=200, deadline=None)
@given(case=lfsr_cases())
def test_lfsr_words_match_repeated_step(case):
    register, count, split = case
    fast, slow = LfsrState(register), LfsrState(register)
    words = fast.words(count)
    assert words.dtype == np.int64
    assert np.array_equal(words, stepped_words(slow, count))
    assert fast.register == slow.register
    chained = LfsrState(register)
    parts = np.concatenate([chained.words(split), chained.words(count - split)])
    assert np.array_equal(parts, words)
    assert chained.register == fast.register


def test_lfsr_value_resolution():
    # one full period at p = 0.25 lands within one bit of the exact count
    n = (1 << 16) - 1
    s = lfsr_stream(0.25, n, Priori.UNIPOLAR, LfsrState())
    assert abs(s.popcount() - 0.25 * n) <= 1
