"""Datasets: binary CIFAR-style files, deterministic splits, synthetic blobs.

Images are float32 in [0, 1], channel first. The binary reader understands
the classic record layouts: one label byte (or a coarse and a fine label
byte for the 100-class variant, where the fine label is kept) followed by
3072 pixel bytes stored as full red, green, blue planes of a 32x32 image.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataFormatError(ValueError):
    pass


@dataclass
class Dataset:
    images: np.ndarray  # (N, C, H, W) float32 in [0, 1]
    labels: np.ndarray  # (N,) integer class ids
    class_count: int

    def __post_init__(self):
        if self.images.ndim != 4:
            raise DataFormatError("images must be (N, C, H, W)")
        check_labels("Dataset", self.labels, self.images, self.class_count)
        if self.images.size and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise DataFormatError("images must lie in [0, 1]")

    def __len__(self):
        return self.images.shape[0]


def check_labels(where, labels, images, class_count):
    """Raise DataFormatError, its message prefixed with where, unless labels
    are integer class ids, one per image of images (shape (N,)), each in
    [0, class_count)."""
    labels = np.asarray(labels)
    n = images.shape[0]
    if labels.shape != (n,):
        raise DataFormatError(f"{where}: labels of shape {labels.shape} for images of shape "
                              f"{images.shape}; expected one class id per image, shape ({n},)")
    if not np.issubdtype(labels.dtype, np.integer):
        raise DataFormatError(f"{where}: labels of dtype {labels.dtype}; expected integer "
                              "class ids")
    outside = (labels < 0) | (labels >= class_count)
    if outside.any():
        raise DataFormatError(f"{where}: labels {np.unique(labels[outside]).tolist()} lie "
                              f"outside [0, {class_count})")


@dataclass
class DataBundle:
    """Train/validation/test arrays as the trainer consumes them."""

    train_images: np.ndarray
    train_labels: np.ndarray
    val_images: np.ndarray | None = None
    val_labels: np.ndarray | None = None
    test_images: np.ndarray | None = None
    test_labels: np.ndarray | None = None


_SIDE = 32
_PIXELS = 3 * _SIDE * _SIDE


def load_cifar_binary(path, variant=10):
    """Read one binary batch file. variant 10 has a single label byte per
    record; variant 100 has coarse then fine label bytes and the fine label
    is used. Pixels are scaled by 1/255."""
    if variant not in (10, 100):
        raise DataFormatError(f"variant must be 10 or 100, got {variant}")
    raw = np.frombuffer(Path(path).read_bytes(), dtype=np.uint8)
    label_bytes = 1 if variant == 10 else 2
    record = label_bytes + _PIXELS
    if raw.size == 0 or raw.size % record != 0:
        raise DataFormatError(
            f"file size {raw.size} is not a positive multiple of the record size {record}"
        )
    records = raw.reshape(-1, record)
    labels = records[:, label_bytes - 1].astype(np.int64)
    if labels.max(initial=0) >= variant:
        raise DataFormatError(f"label {labels.max()} out of range for {variant} classes")
    pixels = records[:, label_bytes:].reshape(-1, 3, _SIDE, _SIDE)
    images = pixels.astype(np.float32) / np.float32(255.0)
    return Dataset(images=images, labels=labels, class_count=variant)


def split_validation(dataset, per_class, seed=0):
    """Move exactly per_class randomly chosen images of every class into a
    validation set. Deterministic for a given seed. Returns (train, val).
    Raises DataFormatError on a negative per_class or a class with fewer
    than per_class images."""
    if per_class < 0:
        raise DataFormatError(f"per_class must be >= 0, got {per_class}")
    rng = np.random.default_rng(seed)
    val_idx = []
    for cls in range(dataset.class_count):
        members = np.flatnonzero(dataset.labels == cls)
        if members.size < per_class:
            raise DataFormatError(
                f"class {cls} has {members.size} examples, cannot reserve {per_class}"
            )
        chosen = rng.permutation(members)[:per_class]
        val_idx.append(chosen)
    val_idx = np.sort(np.concatenate(val_idx))
    mask = np.zeros(len(dataset), dtype=bool)
    mask[val_idx] = True
    train = Dataset(images=dataset.images[~mask], labels=dataset.labels[~mask],
                    class_count=dataset.class_count)
    val = Dataset(images=dataset.images[mask], labels=dataset.labels[mask],
                  class_count=dataset.class_count)
    return train, val


def make_synthetic(class_count, per_class, shape=(3, 8, 8), seed=0, noise=0.05):
    """Blob images: one random template per class plus pixel noise, clipped to
    [0, 1]. At small noise the classes are linearly separable."""
    rng = np.random.default_rng(seed)
    c, h, w = shape
    templates = rng.uniform(0.0, 1.0, size=(class_count, c, h, w)).astype(np.float32)
    images = np.empty((class_count * per_class, c, h, w), dtype=np.float32)
    labels = np.empty(class_count * per_class, dtype=np.int64)
    for cls in range(class_count):
        lo = cls * per_class
        jitter = rng.standard_normal((per_class, c, h, w)).astype(np.float32) * np.float32(noise)
        images[lo:lo + per_class] = np.clip(templates[cls] + jitter, 0.0, 1.0)
        labels[lo:lo + per_class] = cls
    order = rng.permutation(class_count * per_class)
    return Dataset(images=images[order], labels=labels[order], class_count=class_count)


def iter_batches(images, labels, batch_size, rng=None):
    """Yield (images, labels) batches; rng, when given, shuffles the order.
    The tail batch may be short."""
    n = images.shape[0]
    order = rng.permutation(n) if rng is not None else np.arange(n)
    for lo in range(0, n, batch_size):
        idx = order[lo:lo + batch_size]
        yield images[idx], labels[idx]


def bundle_from_datasets(train, val=None, test=None):
    return DataBundle(
        train_images=train.images, train_labels=train.labels,
        val_images=None if val is None else val.images,
        val_labels=None if val is None else val.labels,
        test_images=None if test is None else test.images,
        test_labels=None if test is None else test.labels,
    )
