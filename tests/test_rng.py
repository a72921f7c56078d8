"""Substream seeding: the batch path against numpy's SeedSequence, seed and label checks."""

import numpy as np
import pytest

from memsc.rng import RngState, _PresetSeed


def test_split_streams_are_pinned():
    # the (seed, labels) -> bits mapping must not move under any refactor
    assert RngState(7, ("tile", 3)).generator.integers(2**63, size=2).tolist() == [
        3894666938611780283, 4773846476143160907,
    ]
    assert RngState(2024).split("x", 0).generator.random() == 0.431461600215709


def test_generators_are_pinned():
    # the (seed, labels) -> tile bits mapping must not move under any refactor
    gens = RngState(7, ("pin",)).generators("tile", 3)
    assert [g.integers(2**63, size=2).tolist() for g in gens] == [
        [6002198841097776680, 2063090667710380499],
        [3578247630450357525, 5822079857026953749],
        [9128006386512455326, 3909981165225614159],
    ]


@pytest.mark.parametrize("count", [0, 1, 2, 127, 128, 129, 1000])
@pytest.mark.parametrize("seed, labels", [(0, ()), (31, ("pin", 16385)), (2**40 + 7, ("jitter", 3))])
def test_generators_are_rows_of_split_seed_sequence(seed, labels, count):
    root = RngState(seed, labels)
    gens = root.generators("tile", count)
    assert len(gens) == count
    split_gen = root.split("tile").generator
    words = split_gen.bit_generator.seed_seq.generate_state(4 * count, np.uint64)
    for t, gen in enumerate(gens):
        ref = np.random.Generator(np.random.PCG64(_PresetSeed(words[4 * t : 4 * t + 4])))
        assert gen.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(gen.random(3), ref.random(3))
        assert np.array_equal(gen.lognormal(0.0, 0.6, size=2), ref.lognormal(0.0, 0.6, size=2))
    if count:
        # generate_state is prefix-consistent, so row 0 is split("tile")'s own stream
        row0 = root.generators("tile", count)[0]
        assert row0.bit_generator.state == split_gen.bit_generator.state
        assert np.array_equal(row0.random(5), split_gen.random(5))


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
    for count in (True, 2.0, "2", None):
        with pytest.raises(ValueError, match="count"):
            RngState(0).generators("tile", count)
    assert len(RngState(0).generators("tile", np.int64(2))) == 2


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


@pytest.mark.parametrize("seed", [1.5, 1.0, True, "3", None, np.float64(3.0)])
def test_non_int_seeds_rejected(seed):
    # int(1.5) and int(True) would alias RngState(1), and int("3") seed 3
    with pytest.raises(ValueError, match="seed"):
        RngState(seed)


def test_numpy_int_seed_is_stored_as_int():
    root = RngState(np.int64(3), ("a",))
    assert type(root.seed) is int and root.seed == 3
    assert root.generator.random() == RngState(3, ("a",)).generator.random()
