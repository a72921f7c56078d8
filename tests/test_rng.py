"""Substream seeding: pinned streams, seed and label checks."""

import numpy as np
import pytest

from memsc.rng import RngState


def test_split_streams_are_pinned():
    # the (seed, labels) -> bits mapping must not move under any refactor
    assert RngState(7, ("tile", 3)).generator.integers(2**63, size=2).tolist() == [
        3894666938611780283, 4773846476143160907,
    ]
    assert RngState(2024).split("x", 0).generator.random() == 0.431461600215709


def test_split_without_labels_rejected():
    # split() returned a stream with the parent's own (seed, labels), so the
    # "independent" child drew the parent's bits
    for root in (RngState(1), RngState(1, ("a",))):
        with pytest.raises(ValueError, match="label"):
            root.split()


def test_builtin_labels_accepted():
    root = RngState(0, (1, 0.5, "a"))
    assert root.split(-2, 1e-3, "b").labels == (1, 0.5, "a", -2, 1e-3, "b")


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


@pytest.mark.parametrize("seed", [1.5, 1.0, True, "3", None, np.float64(3.0)])
def test_non_int_seeds_rejected(seed):
    # int(1.5) and int(True) would alias RngState(1), and int("3") seed 3
    with pytest.raises(ValueError, match="seed"):
        RngState(seed)


def test_repr_names_seed_and_labels():
    assert repr(RngState(np.int64(3)).split("a", 2)) == "RngState(seed=3, labels=('a', 2))"


def test_numpy_int_seed_is_stored_as_int():
    root = RngState(np.int64(3), ("a",))
    assert type(root.seed) is int and root.seed == 3
    assert root.generator.random() == RngState(3, ("a",)).generator.random()
