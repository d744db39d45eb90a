import io
import json
import struct
import tracemalloc

import numpy as np
import pytest

from blockwise_unlearn import datasets as ds
from blockwise_unlearn import engine as eng
from blockwise_unlearn import model as mdl
from blockwise_unlearn.errors import DomainError, FormatError


class TestBlobs:
    def test_deterministic(self):
        a = ds.generate_blobs(200, 3, 5, 2.0, seed=7)
        b = ds.generate_blobs(200, 3, 5, 2.0, seed=7)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_class_counts_near_equal(self):
        data = ds.generate_blobs(1001, 4, 3, 1.0, seed=0)
        counts = np.bincount(data.labels, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_zero_separation_chance_level(self):
        # identical class distributions: a trained classifier cannot beat
        # chance on held-out rows
        data = ds.generate_blobs(3000, 3, 6, 0.0, seed=1)
        split = ds.make_split(data, ds.RandomFraction(0.1), seed=2, test_fraction=0.3)
        arch = mdl.MlpSpec((6, 16, 3))
        params = eng.train(
            arch, data.subset(np.concatenate([split.retain_idx, split.forget_idx])).pair(),
            eng.Seeds(0, 1, 2), eng.TrainConfig(steps=300, lr=0.05),
        )
        test = data.subset(split.test_idx)
        acc = mdl.accuracy(params, test.inputs, test.labels)
        assert abs(acc - 1.0 / 3.0) < 0.12

    def test_high_separation_learnable(self):
        data = ds.generate_blobs(1200, 4, 16, 10.0, seed=3)
        split = ds.make_split(data, ds.RandomFraction(0.1), seed=4, test_fraction=0.25)
        arch = mdl.MlpSpec((16, 32, 4))
        params = eng.train(
            arch, data.subset(split.retain_idx).pair(), eng.Seeds(0, 1, 2),
            eng.TrainConfig(steps=500, lr=0.05),
        )
        test = data.subset(split.test_idx)
        assert mdl.accuracy(params, test.inputs, test.labels) > 0.95

    def test_bad_args(self):
        with pytest.raises(DomainError):
            ds.generate_blobs(1, 2, 3, 1.0, seed=0)

    @pytest.mark.parametrize("args,field", [
        ((10, 1, 3, 1.0), "classes"), ((2, 3, 3, 1.0), "n"), ((10, 2, 0, 1.0), "dim"),
        ((10, 2, 3, float("nan")), "separation"), ((10, 2, 3, float("inf")), "separation"),
    ])
    def test_field_out_of_range_is_named(self, args, field):
        # the config loader runs the same check, so it names the same field
        with pytest.raises(DomainError, match=f"^{field} must be"):
            ds.generate_blobs(*args, seed=0)


class TestSubset:
    DATA = ds.generate_blobs(50, classes=2, dim=3, separation=1.0, seed=0)

    # numpy raises a raw IndexError for 10**6 and wraps -1 to the last row
    @pytest.mark.parametrize("idx", [[10**6], [0, 50], [-1], [3, -50]])
    def test_index_outside_rows_rejected(self, idx):
        with pytest.raises(DomainError):
            self.DATA.subset(idx)
        assert len(self.DATA.subset([])) == 0


def write_idx_fixture(tmp_path, images, labels, image_magic=ds.IDX_IMAGE_MAGIC,
                      label_magic=ds.IDX_LABEL_MAGIC, truncate_images=0):
    """Raw big-endian IDX bytes, assembled by hand with struct."""
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    body = struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes()
    if truncate_images:
        body = body[:-truncate_images]
    img_path.write_bytes(body)
    lbl_path.write_bytes(struct.pack(">II", label_magic, len(labels)) + labels.tobytes())
    return img_path, lbl_path


def assert_allocates_little(fn, *args):
    """Call fn(*args) and fail when it allocated a megabyte or more at once,
    as a read of a forged size would; exceptions propagate."""
    tracemalloc.start()
    try:
        fn(*args)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2**20, f"peak allocation {peak} bytes"


class TestIdx:
    IMAGES = np.array(
        [[[0, 128], [255, 3]], [[7, 0], [1, 2]]], dtype=np.uint8
    )
    LABELS = np.array([4, 9], dtype=np.uint8)

    def test_round_trip_values(self, tmp_path):
        img, lbl = write_idx_fixture(tmp_path, self.IMAGES, self.LABELS)
        data = ds.load_idx(img, lbl)
        assert len(data) == 2
        assert data.num_classes == 10
        assert np.array_equal(data.labels, [4, 9])
        assert np.allclose(data.inputs[0], self.IMAGES[0].ravel() / 255.0)
        assert data.inputs[0][1] == 128 / 255.0

    def test_pixels_are_scaled_in_place(self, tmp_path):
        # 500 MNIST-sized rows: their float64 pixels take 3.1 MB, and a
        # second float64 copy would take as much again (CPython's numpy
        # elides the temporary of `astype(...) / 255.0`; the bound must not
        # rest on that)
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(500, 28, 28), dtype=np.uint8)
        img, lbl = write_idx_fixture(tmp_path, images, np.zeros(500, dtype=np.uint8))
        tracemalloc.start()
        try:
            data = ds.load_idx(img, lbl)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * data.inputs.nbytes
        assert np.array_equal(data.inputs, images.reshape(500, -1) / 255.0)

    def test_bad_magic(self, tmp_path):
        img, lbl = write_idx_fixture(tmp_path, self.IMAGES, self.LABELS,
                                     image_magic=0x00000802)
        with pytest.raises(FormatError):
            ds.load_idx(img, lbl)
        img, lbl = write_idx_fixture(tmp_path, self.IMAGES, self.LABELS,
                                     label_magic=0x00000803)
        with pytest.raises(FormatError):
            ds.load_idx(img, lbl)

    def test_truncated(self, tmp_path):
        img, lbl = write_idx_fixture(tmp_path, self.IMAGES, self.LABELS,
                                     truncate_images=3)
        with pytest.raises(FormatError):
            ds.load_idx(img, lbl)

    @pytest.mark.parametrize("header", [
        (ds.IDX_IMAGE_MAGIC, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF),
        (ds.IDX_IMAGE_MAGIC, 2, 0xFFFFFFFF, 1),
    ], ids=["all-max", "rows-max"])
    def test_oversized_declared_image_payload(self, tmp_path, header):
        img, lbl = write_idx_fixture(tmp_path, self.IMAGES, self.LABELS)
        img.write_bytes(struct.pack(">IIII", *header) + self.IMAGES.tobytes())
        with pytest.raises(FormatError, match="image payload"):
            ds.load_idx(img, lbl)

    def test_oversized_declared_label_count(self, tmp_path):
        img, lbl = write_idx_fixture(tmp_path, self.IMAGES, self.LABELS)
        lbl.write_bytes(struct.pack(">II", ds.IDX_LABEL_MAGIC, 0xFFFFFFFF) + b"\x01\x02")
        with pytest.raises(FormatError, match="label payload"):
            assert_allocates_little(ds.load_idx, img, lbl)

    def test_count_mismatch(self, tmp_path):
        img, _ = write_idx_fixture(tmp_path, self.IMAGES, self.LABELS)
        _, lbl = write_idx_fixture(tmp_path, self.IMAGES, np.array([1], dtype=np.uint8))
        with pytest.raises(FormatError):
            ds.load_idx(img, lbl)

    def test_label_out_of_range(self, tmp_path):
        img, lbl = write_idx_fixture(
            tmp_path, self.IMAGES, np.array([4, 11], dtype=np.uint8)
        )
        with pytest.raises(FormatError):
            ds.load_idx(img, lbl)


class TestSplits:
    DATA = ds.generate_blobs(1000, 4, 3, 2.0, seed=11)

    def test_random_fraction_exact_floor(self):
        split = ds.make_split(self.DATA, ds.RandomFraction(0.1), seed=0)
        assert len(split.forget_idx) == 100
        assert len(split.retain_idx) == 900
        assert len(split.test_idx) == 0

    def test_partition_and_disjointness(self):
        split = ds.make_split(self.DATA, ds.RandomFraction(0.25), seed=1,
                              test_fraction=0.2)
        union = np.sort(np.concatenate(
            [split.retain_idx, split.forget_idx, split.test_idx]))
        assert np.array_equal(union, np.arange(1000))
        assert len(split.test_idx) == 200
        assert len(split.forget_idx) == 200  # floor(0.25 * 800)

    def test_classwise(self):
        split = ds.make_split(self.DATA, ds.ClassWise(2), seed=2)
        assert np.all(self.DATA.labels[split.forget_idx] == 2)
        assert np.all(self.DATA.labels[split.retain_idx] != 2)

    @pytest.mark.parametrize("test_fraction", [-0.2, float("nan"), 1.0])
    def test_test_fraction_outside_unit_interval(self, test_fraction):
        # -0.2 used to hold out 80% of the rows, NaN to fail inside int()
        with pytest.raises(DomainError, match="test_fraction"):
            ds.make_split(self.DATA, ds.RandomFraction(0.1), seed=0,
                          test_fraction=test_fraction)

    def test_classwise_absent_class(self):
        with pytest.raises(DomainError):
            ds.make_split(self.DATA, ds.ClassWise(7), seed=2)

    def test_deterministic(self):
        a = ds.make_split(self.DATA, ds.RandomFraction(0.1), seed=3, test_fraction=0.1)
        b = ds.make_split(self.DATA, ds.RandomFraction(0.1), seed=3, test_fraction=0.1)
        assert np.array_equal(a.forget_idx, b.forget_idx)
        assert np.array_equal(a.retain_idx, b.retain_idx)
        assert np.array_equal(a.test_idx, b.test_idx)

    def test_save_load_round_trip(self, tmp_path):
        split = ds.make_split(self.DATA, ds.ClassWise(1), seed=5, test_fraction=0.1)
        path = tmp_path / "split.json"
        ds.save_split(split, path)
        loaded = ds.load_split(path)
        assert np.array_equal(loaded.retain_idx, split.retain_idx)
        assert np.array_equal(loaded.forget_idx, split.forget_idx)
        assert np.array_equal(loaded.test_idx, split.test_idx)
        assert loaded.seed == split.seed

    def test_saved_bytes_equal_json_dump(self, tmp_path):
        split = ds.make_split(self.DATA, ds.RandomFraction(0.1), seed=2, test_fraction=0.2)
        path = tmp_path / "split.json"
        ds.save_split(split, path)
        expected = io.StringIO()
        json.dump({"retain_idx": split.retain_idx.tolist(),
                   "forget_idx": split.forget_idx.tolist(),
                   "test_idx": split.test_idx.tolist(), "seed": split.seed}, expected)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_overlapping_sets_rejected(self):
        with pytest.raises(DomainError):
            ds.ScenarioSplit(
                retain_idx=np.array([0, 1]), forget_idx=np.array([1, 2]),
                test_idx=np.array([3]), seed=0,
            )

    def test_repeated_retain_index_rejected(self):
        # RA would count row 0 twice
        with pytest.raises(DomainError, match="overlap or repeat"):
            ds.ScenarioSplit(retain_idx=[0, 0, 1], forget_idx=[2], test_idx=[3], seed=0)


class TestLoadSplitFields:
    GOOD = {"retain_idx": [0, 2], "forget_idx": [1], "test_idx": [], "seed": 4}

    def write(self, tmp_path, **fields):
        path = tmp_path / "split.json"
        path.write_text(json.dumps({**self.GOOD, **fields}))
        return path

    def test_well_formed_fields_load(self, tmp_path):
        split = ds.load_split(self.write(tmp_path))
        assert split.retain_idx.dtype == np.int64 and split.retain_idx.tolist() == [0, 2]
        assert split.test_idx.dtype == np.int64 and split.test_idx.size == 0
        assert split.seed == 4

    @pytest.mark.parametrize("value", [
        ["a"], [1, "a"], [1.5], [True], [[1, 2]], [[1], [2, 3]], [[]],
        [-1], [0, -3], [2**63], [2**70], "abc", None, 5, {"a": 1},
    ])
    def test_bad_index_field(self, tmp_path, value):
        with pytest.raises(FormatError):
            ds.load_split(self.write(tmp_path, retain_idx=value))

    def test_repeated_retain_index(self, tmp_path):
        with pytest.raises(DomainError, match="overlap or repeat"):
            ds.load_split(self.write(tmp_path, retain_idx=[0, 0, 2]))

    @pytest.mark.parametrize("seed", ["x", 1.5, None, True, [0]])
    def test_bad_seed(self, tmp_path, seed):
        with pytest.raises(FormatError):
            ds.load_split(self.write(tmp_path, seed=seed))

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "split.json"
        path.write_text("[1, 2]")
        with pytest.raises(FormatError):
            ds.load_split(path)

    def test_non_utf8_bytes(self, tmp_path):
        path = tmp_path / "split.json"
        path.write_bytes(b'{"seed": "\xff\xfe"}')
        with pytest.raises(FormatError, match="split file"):
            ds.load_split(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "split.json"
        path.write_text(json.dumps({k: v for k, v in self.GOOD.items() if k != "seed"}))
        with pytest.raises(FormatError):
            ds.load_split(path)
