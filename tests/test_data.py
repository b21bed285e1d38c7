"""Binary dataset parsing, split determinism, synthetic data separability."""

import numpy as np
import pytest

from pfqkit.data import (
    DataFormatError,
    Dataset,
    bundle_from_datasets,
    iter_batches,
    load_cifar_binary,
    make_synthetic,
    split_validation,
)

PIXELS = 3 * 32 * 32


def _record10(label, fill):
    return bytes([label]) + bytes([fill]) * PIXELS


def _record100(coarse, fine, fill):
    return bytes([coarse, fine]) + bytes([fill]) * PIXELS


class TestBinaryLoader:
    def test_hand_crafted_records(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(_record10(3, 0) + _record10(7, 255))
        ds = load_cifar_binary(path, variant=10)
        assert len(ds) == 2
        assert ds.labels.tolist() == [3, 7]
        # byte 0 -> 0.0, byte 255 -> 1.0 exactly
        assert ds.images[0].min() == 0.0 and ds.images[0].max() == 0.0
        assert ds.images[1].min() == 1.0 and ds.images[1].max() == 1.0
        assert ds.images.shape == (2, 3, 32, 32)
        assert ds.images.dtype == np.float32

    def test_pixel_plane_order(self, tmp_path):
        # red plane all 255, green and blue zero
        body = bytes([255]) * 1024 + bytes([0]) * 2048
        path = tmp_path / "batch.bin"
        path.write_bytes(bytes([0]) + body)
        ds = load_cifar_binary(path, variant=10)
        assert np.all(ds.images[0, 0] == 1.0)
        assert np.all(ds.images[0, 1:] == 0.0)

    def test_variant_100_keeps_fine_label(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(_record100(2, 41, 0))
        ds = load_cifar_binary(path, variant=100)
        assert ds.labels.tolist() == [41]
        assert ds.class_count == 100

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(_record10(0, 0)[:-1])
        with pytest.raises(DataFormatError):
            load_cifar_binary(path, variant=10)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(DataFormatError):
            load_cifar_binary(path, variant=10)

    def test_out_of_range_label_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(_record10(10, 0))
        with pytest.raises(DataFormatError):
            load_cifar_binary(path, variant=10)

    def test_unknown_variant_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_cifar_binary(tmp_path / "x.bin", variant=20)


class TestDatasetChecks:
    def test_rejects_out_of_range_pixels(self):
        with pytest.raises(DataFormatError):
            Dataset(images=np.full((1, 1, 2, 2), 1.5, dtype=np.float32),
                    labels=np.zeros(1, dtype=np.int64), class_count=2)

    def test_rejects_label_shape_mismatch(self):
        with pytest.raises(DataFormatError):
            Dataset(images=np.zeros((2, 1, 2, 2), dtype=np.float32),
                    labels=np.zeros(3, dtype=np.int64), class_count=2)


    def test_rejects_images_without_a_channel_axis(self):
        with pytest.raises(DataFormatError, match=r"^images must be \(N, C, H, W\)$"):
            Dataset(images=np.zeros((2, 2, 2), dtype=np.float32),
                    labels=np.zeros(2, dtype=np.int64), class_count=2)

    def test_rejects_a_label_at_class_count(self):
        with pytest.raises(DataFormatError, match=r"^Dataset: labels \[2\] lie outside \[0, 2\)$"):
            Dataset(images=np.zeros((2, 1, 2, 2), dtype=np.float32),
                    labels=np.array([0, 2], dtype=np.int64), class_count=2)

    def test_rejects_labels_that_are_not_integers(self):
        with pytest.raises(DataFormatError, match="^Dataset: labels of dtype float32; expected "
                                                  "integer class ids$"):
            Dataset(images=np.zeros((2, 1, 2, 2), dtype=np.float32),
                    labels=np.zeros(2, dtype=np.float32), class_count=2)


class TestSplit:
    def test_counts_per_class(self):
        ds = make_synthetic(4, 10, seed=1)
        train, val = split_validation(ds, 3, seed=0)
        assert len(val) == 12
        assert len(train) == 28
        for cls in range(4):
            assert int((val.labels == cls).sum()) == 3
            assert int((train.labels == cls).sum()) == 7

    def test_deterministic_per_seed(self):
        ds = make_synthetic(3, 8, seed=2)
        t1, v1 = split_validation(ds, 2, seed=5)
        t2, v2 = split_validation(ds, 2, seed=5)
        assert np.array_equal(v1.images, v2.images)
        assert np.array_equal(t1.labels, t2.labels)
        _, v3 = split_validation(ds, 2, seed=6)
        assert not np.array_equal(v1.images, v3.images)

    def test_disjoint_and_complete(self):
        ds = make_synthetic(3, 8, seed=3)
        train, val = split_validation(ds, 2, seed=0)
        assert len(train) + len(val) == len(ds)
        # every original image lands in exactly one side
        pool = np.concatenate([train.images, val.images])
        assert np.array_equal(np.sort(pool, axis=None), np.sort(ds.images, axis=None))

    def test_insufficient_class_members_rejected(self):
        ds = make_synthetic(2, 3, seed=0)
        with pytest.raises(DataFormatError):
            split_validation(ds, 4, seed=0)

    def test_negative_count_rejected(self):
        ds = make_synthetic(4, 6, seed=0)
        with pytest.raises(DataFormatError, match="^per_class must be >= 0, got -2$"):
            split_validation(ds, -2, seed=0)


class TestSynthetic:
    def test_shapes_and_range(self):
        ds = make_synthetic(5, 6, shape=(3, 10, 10), seed=7, noise=0.1)
        assert ds.images.shape == (30, 3, 10, 10)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        counts = np.bincount(ds.labels, minlength=5)
        assert counts.tolist() == [6] * 5

    def test_linearly_separable_at_low_noise(self):
        """A least-squares readout on raw pixels should classify the blobs
        perfectly when the noise is small against template spacing."""
        ds = make_synthetic(4, 15, shape=(3, 8, 8), seed=11, noise=0.02)
        flat = ds.images.reshape(len(ds), -1).astype(np.float64)
        onehot = np.eye(4)[ds.labels]
        w, *_ = np.linalg.lstsq(np.hstack([flat, np.ones((len(ds), 1))]), onehot, rcond=None)
        pred = np.argmax(np.hstack([flat, np.ones((len(ds), 1))]) @ w, axis=1)
        assert np.array_equal(pred, ds.labels)

    def test_seed_controls_content(self):
        a = make_synthetic(2, 4, seed=1)
        b = make_synthetic(2, 4, seed=1)
        c = make_synthetic(2, 4, seed=2)
        assert np.array_equal(a.images, b.images)
        assert not np.array_equal(a.images, c.images)


class TestBatches:
    def test_covers_everything_once(self):
        ds = make_synthetic(2, 8, seed=0)
        seen = []
        for bx, by in iter_batches(ds.images, ds.labels, 5):
            assert bx.shape[0] == by.shape[0]
            seen.append(by)
        labels = np.concatenate(seen)
        assert labels.shape[0] == len(ds)
        assert np.array_equal(labels, ds.labels)  # no rng: original order

    def test_shuffle_is_rng_driven(self):
        ds = make_synthetic(2, 10, seed=0)
        a = [by.tolist() for _, by in iter_batches(ds.images, ds.labels, 4,
                                                   np.random.default_rng(1))]
        b = [by.tolist() for _, by in iter_batches(ds.images, ds.labels, 4,
                                                   np.random.default_rng(1))]
        assert a == b

    def test_tail_batch_kept(self):
        ds = make_synthetic(1, 7, seed=0)
        sizes = [bx.shape[0] for bx, _ in iter_batches(ds.images, ds.labels, 3)]
        assert sizes == [3, 3, 1]


class TestBundle:
    def test_optional_splits(self):
        ds = make_synthetic(2, 6, seed=0)
        b = bundle_from_datasets(ds)
        assert b.val_images is None and b.test_images is None
        train, val = split_validation(ds, 2, seed=0)
        b2 = bundle_from_datasets(train, val, val)
        assert b2.val_images.shape[0] == 4
        assert b2.test_images.shape[0] == 4
