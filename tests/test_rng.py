"""Substream seeding: the batch path against numpy's SeedSequence, label checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsc.rng import RngState, _PresetSeed, _seed_words


def _entropy_words(e: int) -> np.ndarray:
    return np.frombuffer(e.to_bytes(16, "little"), dtype="<u4").reshape(1, 4)


def test_split_streams_are_pinned():
    # the (seed, labels) -> bits mapping must not move under any refactor
    assert RngState(7, ("tile", 3)).generator.integers(2**63, size=2).tolist() == [
        3894666938611780283, 4773846476143160907,
    ]
    assert RngState(2024).split("x", 0).generator.random() == 0.431461600215709


@pytest.mark.parametrize("count", [0, 1, 2, 127, 128, 129, 1000])
@pytest.mark.parametrize("seed, labels", [(0, ()), (31, ("pin", 16385)), (2**40 + 7, ("jitter", 3))])
def test_generators_match_split(seed, labels, count):
    root = RngState(seed, labels)
    gens = root.generators("tile", count)
    assert len(gens) == count
    for t, gen in enumerate(gens):
        ref = root.split("tile", t).generator
        assert gen.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(gen.random(3), ref.random(3))
        assert np.array_equal(gen.lognormal(0.0, 0.6, size=2), ref.lognormal(0.0, 0.6, size=2))


@pytest.mark.parametrize(
    "e", [0, 1, 2**32 - 1, 2**32, 2**64, 2**96 - 1, 2**96, 2**127 + 3, 2**128 - 1]
)
def test_seed_words_match_seed_sequence_on_short_entropies(e):
    # sha256 almost never yields an entropy under 4 words, which SeedSequence
    # pads with zeros; these hit each padding length directly
    want = np.random.SeedSequence(e).generate_state(4, np.uint64)
    assert np.array_equal(_seed_words(_entropy_words(e))[0], want)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**128 - 1), min_size=1, max_size=5))
def test_seed_words_match_seed_sequence(entropies):
    got = _seed_words(np.concatenate([_entropy_words(e) for e in entropies]))
    for row, e in zip(got, entropies):
        assert np.array_equal(row, np.random.SeedSequence(e).generate_state(4, np.uint64))


def test_generators_are_independent():
    gens = RngState(3).generators("tile", 4)
    before = [g.bit_generator.state for g in gens]
    gens[1].random(1000)
    after = [g.bit_generator.state for g in gens]
    assert after[1] != before[1]
    assert [after[i] for i in (0, 2, 3)] == [before[i] for i in (0, 2, 3)]


def test_preset_seed_rejects_other_requests():
    seed = _PresetSeed(np.arange(4, dtype=np.uint64))
    assert np.array_equal(seed.generate_state(4, np.uint64), np.arange(4))
    for n_words, dtype in [(2, np.uint64), (8, np.uint64), (4, np.uint32), (8, np.uint32)]:
        with pytest.raises(ValueError):
            seed.generate_state(n_words, dtype)
    with pytest.raises(ValueError):
        seed.generate_state(4)


def test_generators_rejects_negative_count():
    with pytest.raises(ValueError):
        RngState(0).generators("tile", -1)


def test_builtin_labels_accepted():
    root = RngState(0, (1, 0.5, "a"))
    assert root.split(-2, 1e-3, "b").labels == (1, 0.5, "a", -2, 1e-3, "b")
    assert len(root.generators(0.25, 2)) == 2


@pytest.mark.parametrize(
    "label", [np.int64(3), np.uint8(3), np.float64(3.0), np.float32(0.5), np.str_("tile"),
              True, (1, 2), ("tile", 3), None]
)
def test_non_builtin_labels_rejected(label):
    # repr(np.int64(3)) reads 'np.int64(3)' under numpy 2 and '3' under
    # numpy 1.x, so such a label would draw differently per numpy version
    with pytest.raises(TypeError):
        RngState(0, (label,))
    with pytest.raises(TypeError):
        RngState(0).split("a", label)
    with pytest.raises(TypeError):
        RngState(0).generators(label, 2)
