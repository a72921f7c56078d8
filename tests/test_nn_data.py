"""IDX parsing against hand-built fixtures, plus the synthetic fallback."""

import struct

import numpy as np
import pytest

from memsc.nn.data import Dataset, load_idx, synthetic_dataset


def write_idx_pair(tmp_path, pixels, labels, image_magic=0x803, label_magic=0x801,
                   truncate_images=False):
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    img_path = tmp_path / "images-idx3-ubyte"
    payload = pixels.tobytes()
    if truncate_images:
        payload = payload[:-5]
    img_path.write_bytes(struct.pack(">4I", image_magic, n, rows, cols) + payload)
    lbl_path = tmp_path / "labels-idx1-ubyte"
    lbl_path.write_bytes(
        struct.pack(">2I", label_magic, len(labels)) + bytes(labels)
    )
    return img_path, lbl_path


def test_round_trip_fixture(tmp_path):
    pixels = np.arange(2 * 4 * 4, dtype=np.uint8).reshape(2, 4, 4)
    img, lbl = write_idx_pair(tmp_path, pixels, [3, 7])
    ds = load_idx(img, lbl)
    assert len(ds) == 2
    assert ds.images.shape == (2, 1, 4, 4)
    assert np.allclose(ds.images[:, 0] * 255.0, pixels)
    assert list(ds.labels) == [3, 7]
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_bad_magic_rejected(tmp_path):
    pixels = np.zeros((1, 2, 2), dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, pixels, [0], image_magic=0x999)
    with pytest.raises(ValueError, match="magic"):
        load_idx(img, lbl)
    img2, lbl2 = write_idx_pair(tmp_path, pixels, [0], label_magic=0x42)
    with pytest.raises(ValueError, match="magic"):
        load_idx(img2, lbl2)


def test_truncated_file_rejected(tmp_path):
    pixels = np.zeros((2, 3, 3), dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, pixels, [0, 1], truncate_images=True)
    with pytest.raises(OSError, match="truncated"):
        load_idx(img, lbl)


def test_count_mismatch_rejected(tmp_path):
    pixels = np.zeros((2, 3, 3), dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, pixels, [0, 1, 2])
    with pytest.raises(ValueError, match="mismatch"):
        load_idx(img, lbl)


def test_dataset_label_range():
    with pytest.raises(ValueError):
        Dataset(np.zeros((1, 1, 2, 2), dtype=np.float32), np.array([11]))


def test_dataset_subset():
    ds = synthetic_dataset(50, seed=1)
    assert len(ds.subset(10)) == 10
    assert len(ds.subset(np.int64(10))) == 10
    assert len(ds.subset(0)) == 0
    assert len(ds.subset(500)) == 50
    assert np.array_equal(ds.subset(10).labels, ds.labels[:10])
    for bad in (-1, 2.5, True, 10.0, None):
        with pytest.raises(ValueError, match="n must be an int >= 0"):
            ds.subset(bad)


def test_synthetic_dataset_deterministic():
    a = synthetic_dataset(20, seed=9)
    b = synthetic_dataset(20, seed=9)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    c = synthetic_dataset(20, seed=10)
    assert not np.array_equal(a.images, c.images)


def test_synthetic_dataset_classes_shared_across_seeds():
    # sets drawn with different seeds hold the same class templates, so
    # class means of one set classify the other by nearest mean
    train = synthetic_dataset(768, seed=100)
    test = synthetic_dataset(256, seed=101)
    means = np.stack([train.images[train.labels == c].mean(axis=0) for c in range(10)])
    dist = ((test.images[:, None] - means[None]) ** 2).sum(axis=(2, 3, 4))
    accuracy = np.mean(dist.argmin(axis=1) == test.labels)
    assert accuracy >= 0.9


def test_synthetic_dataset_contract():
    ds = synthetic_dataset(64, seed=3)
    assert ds.images.shape == (64, 1, 28, 28)
    assert ds.images.dtype == np.float32
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert ds.labels.min() >= 0 and ds.labels.max() <= 9


def test_mnist_corpus_if_available(mnist_dir):
    train = load_idx(
        mnist_dir / "train-images-idx3-ubyte", mnist_dir / "train-labels-idx1-ubyte"
    )
    assert len(train) == 60000
    assert train.images.shape == (60000, 1, 28, 28)
    test = load_idx(
        mnist_dir / "t10k-images-idx3-ubyte", mnist_dir / "t10k-labels-idx1-ubyte"
    )
    assert len(test) == 10000
