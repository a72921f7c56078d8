"""IDX-format ingestion and a synthetic fallback set.

IDX layout (big endian): images carry magic 0x00000803 followed by u32
count/rows/cols and raw bytes; labels carry magic 0x00000801 followed by
u32 count and one byte per label. Pixels are scaled to [0, 1] by /255.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .._checks import is_int

__all__ = ["Dataset", "load_idx", "synthetic_dataset", "IMAGE_MAGIC", "LABEL_MAGIC"]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

# seeds the synthetic class templates, which stay the same for every sample seed
_TEMPLATE_SEED = 0x5EED


@dataclass(frozen=True)
class Dataset:
    images: np.ndarray  # (N, 1, H, W) float32 in [0, 1]
    labels: np.ndarray  # (N,) int64 in [0, 9]

    def __post_init__(self):
        labels = self.labels
        if not (isinstance(labels, np.ndarray) and labels.ndim == 1
                and np.issubdtype(labels.dtype, np.integer)):
            raise ValueError("labels must be a 1-D integer array")
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"image/label count mismatch: {len(self.images)} vs {len(self.labels)}"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > 9):
            raise ValueError("labels must lie in [0, 9]")

    def __len__(self):
        return len(self.labels)

    def subset(self, n: int) -> "Dataset":
        """The first min(n, len(self)) examples; n must be an int >= 0."""
        if not is_int(n) or n < 0:
            raise ValueError(f"n must be an int >= 0, got {n!r}")
        return Dataset(self.images[:n], self.labels[:n])


def _read_header(f, n_fields, path):
    raw = f.read(4 * n_fields)
    if len(raw) != 4 * n_fields:
        raise OSError(f"{path}: truncated IDX header")
    return struct.unpack(f">{n_fields}I", raw)


def _read_payload(f, count, path):
    data = f.read(count)
    if len(data) != count:
        raise OSError(f"{path}: truncated IDX payload (wanted {count} bytes, got {len(data)})")
    return np.frombuffer(data, dtype=np.uint8)


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair into a Dataset."""
    with open(images_path, "rb") as f:
        magic, count, rows, cols = _read_header(f, 4, images_path)
        if magic != IMAGE_MAGIC:
            raise ValueError(f"{images_path}: bad IDX image magic 0x{magic:08x}")
        pixels = _read_payload(f, count * rows * cols, images_path)
    images = pixels.reshape(count, 1, rows, cols).astype(np.float32) / 255.0

    with open(labels_path, "rb") as f:
        magic, label_count = _read_header(f, 2, labels_path)
        if magic != LABEL_MAGIC:
            raise ValueError(f"{labels_path}: bad IDX label magic 0x{magic:08x}")
        labels = _read_payload(f, label_count, labels_path).astype(np.int64)

    return Dataset(images, labels)  # count mismatch rejected by Dataset


def synthetic_dataset(n: int, seed: int, classes: int = 10, size: int = 28) -> Dataset:
    """Seeded Gaussian-blob stand-in for tests without the real corpus.

    Each class is a fixed template of three blobs at class-specific
    positions. The templates depend only on ``classes`` and ``size``, not
    on ``seed``, so sets drawn with different seeds (a train and a test
    split, say) hold the same classes. ``seed`` draws the labels and each
    sample's intensity jitter and additive noise.
    """
    if not is_int(n) or n < 0:
        raise ValueError(f"n must be an int >= 0, got {n!r}")
    if not is_int(seed) or seed < 0:
        raise ValueError(f"seed must be an int >= 0, got {seed!r}")
    if not is_int(classes) or not 1 <= classes <= 10:
        raise ValueError(f"classes must be an int in [1, 10], got {classes!r}")
    if not is_int(size) or size < 1:
        raise ValueError(f"size must be an int >= 1, got {size!r}")
    template_gen = np.random.default_rng(_TEMPLATE_SEED)
    yy, xx = np.mgrid[0:size, 0:size]
    templates = np.zeros((classes, size, size))
    for c in range(classes):
        for _ in range(3):
            cy, cx = template_gen.uniform(size * 0.2, size * 0.8, 2)
            width = template_gen.uniform(1.5, 3.5)
            templates[c] += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width**2))
        templates[c] /= templates[c].max()
    gen = np.random.default_rng(seed)
    labels = gen.integers(0, classes, n)
    amplitude = gen.uniform(0.6, 1.0, n)[:, None, None]
    images = templates[labels]
    images *= amplitude
    images += gen.normal(0.0, 0.15, (n, size, size))
    np.clip(images, 0.0, 1.0, out=images)
    return Dataset(images[:, None, :, :].astype(np.float32), labels.astype(np.int64))
