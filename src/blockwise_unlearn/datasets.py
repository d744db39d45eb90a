"""Datasets, deletion scenarios, retain/forget/test splits, and the checked
readers the package's file formats share."""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, FormatError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Rows of inputs and their class labels, checked at construction."""

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if inputs.ndim != 2 or labels.ndim != 1 or len(inputs) != len(labels):
            raise DomainError("dataset needs (n, dim) inputs and (n,) labels")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.inputs)

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):
            raise DomainError(f"row index outside [0, {len(self)})")
        return Dataset(self.inputs[idx], self.labels[idx], self.num_classes)

    def pair(self) -> tuple[np.ndarray, np.ndarray]:
        return self.inputs, self.labels


def check_blobs(n: int, classes: int, dim: int, separation: float) -> None:
    """DomainError naming the first of a blob mixture's fields out of range:
    classes >= 2, n >= classes, dim >= 1 and a finite separation."""
    for name, value, holds, rule in (
        ("classes", classes, classes >= 2, ">= 2"),
        ("n", n, n >= classes, f">= classes ({classes})"),
        ("dim", dim, dim >= 1, ">= 1"),
        ("separation", separation, math.isfinite(separation), "finite"),
    ):
        if not holds:
            raise DomainError(f"{name} must be {rule}, got {value}")


def generate_blobs(
    n: int, classes: int, dim: int, separation: float, seed: int = 0
) -> Dataset:
    """Seeded Gaussian mixture, one unit-covariance component per class.

    Class means are separation * random unit directions; separation 0 makes
    every class identically distributed, large separation makes the mixture
    linearly separable.  Rows are shuffled so class labels interleave.
    """
    check_blobs(n, classes, dim, separation)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((classes, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = separation * dirs
    counts = [n // classes + (1 if c < n % classes else 0) for c in range(classes)]
    xs, ys = [], []
    for c, cnt in enumerate(counts):
        xs.append(means[c] + rng.standard_normal((cnt, dim)))
        ys.append(np.full(cnt, c, dtype=np.int64))
    inputs = np.vstack(xs)
    labels = np.concatenate(ys)
    order = rng.permutation(n)
    return Dataset(inputs[order], labels[order], classes)


def read_exactly(fh, size: int, what: str) -> bytes:
    """The next `size` bytes of a binary file; FormatError naming `what` when
    fewer are left.  A declared size is checked against the bytes left before
    reading, so a forged one allocates nothing."""
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise FormatError(f"truncated file while reading {what}")
    return fh.read(size)


def read_json(path, what: str):
    """The JSON document in a file; FormatError naming `what` when its bytes
    are not UTF-8 JSON."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{what} is not valid JSON: {exc}") from exc


def write_json(path, doc) -> None:
    """Write `doc` as the package's JSON artifacts hold it: indent 2, keys sorted."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True))


def _read_be_u32(fh, what: str) -> int:
    return struct.unpack(">I", read_exactly(fh, 4, what))[0]


def load_idx(images_path, labels_path) -> Dataset:
    """Big-endian IDX image/label pair, pixels scaled to [0, 1]."""
    with open(images_path, "rb") as fh:
        magic = _read_be_u32(fh, "image magic")
        if magic != IDX_IMAGE_MAGIC:
            raise FormatError(f"bad image magic 0x{magic:08x}")
        count = _read_be_u32(fh, "image count")
        rows = _read_be_u32(fh, "row count")
        cols = _read_be_u32(fh, "column count")
        payload = read_exactly(fh, count * rows * cols, "image payload")
        images = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as fh:
        magic = _read_be_u32(fh, "label magic")
        if magic != IDX_LABEL_MAGIC:
            raise FormatError(f"bad label magic 0x{magic:08x}")
        label_count = _read_be_u32(fh, "label count")
        payload = read_exactly(fh, label_count, "label payload")
        labels = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
    if label_count != count:
        raise FormatError(f"image/label count mismatch: {count} vs {label_count}")
    if labels.size and labels.max() > 9:
        raise FormatError(f"label {labels.max()} out of range for 10 classes")
    # scaled in place, so one float64 copy of the pixels is made whether or
    # not numpy elides the temporary of `images.astype(np.float64) / 255.0`
    x = images.astype(np.float64)
    x /= 255.0
    return Dataset(x, labels, 10)


@dataclass(frozen=True)
class RandomFraction:
    """Delete a uniformly random fraction of the training rows."""

    fraction: float

    def __post_init__(self) -> None:
        if not 0 < self.fraction < 1:
            raise DomainError(f"fraction must be in (0,1), got {self.fraction}")


class ClassWise(NamedTuple):
    """Delete every training row of one class."""

    class_id: int


@dataclass(frozen=True)
class ScenarioSplit:
    """Disjoint retain, forget and test row indices of a dataset."""

    retain_idx: np.ndarray
    forget_idx: np.ndarray
    test_idx: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        r, f, t = (
            np.asarray(self.retain_idx, dtype=np.int64),
            np.asarray(self.forget_idx, dtype=np.int64),
            np.asarray(self.test_idx, dtype=np.int64),
        )
        object.__setattr__(self, "retain_idx", r)
        object.__setattr__(self, "forget_idx", f)
        object.__setattr__(self, "test_idx", t)
        # one sorted pass finds an index met twice, within a set or across sets
        every = np.sort(np.concatenate((r, f, t)))
        if np.any(every[1:] == every[:-1]):
            raise DomainError("split index sets overlap or repeat an index")


def save_split(split: ScenarioSplit, path) -> None:
    doc = {
        "retain_idx": split.retain_idx.tolist(),
        "forget_idx": split.forget_idx.tolist(),
        "test_idx": split.test_idx.tolist(),
        "seed": split.seed,
    }
    # the same bytes as json.dump, which always takes the slower chunked
    # pure-Python encoder
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def load_split(path) -> ScenarioSplit:
    doc = read_json(path, "split file")
    if not isinstance(doc, dict):
        raise FormatError("split file must hold a JSON object")
    try:
        indices = {name: doc[name] for name in ("retain_idx", "forget_idx", "test_idx")}
        seed = doc["seed"]
    except KeyError as exc:
        raise FormatError(f"split file missing field {exc}") from exc
    if type(seed) is not int:
        raise FormatError(f"split seed must be an integer, got {seed!r}")
    return ScenarioSplit(
        **{name: _index_array(name, value) for name, value in indices.items()}, seed=seed
    )


def _index_array(name: str, value) -> np.ndarray:
    """A split field as an int64 array: a flat list of non-negative integers."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise FormatError(f"split field {name} is not a flat index list") from exc
    if arr.ndim != 1:
        raise FormatError(f"split field {name} is not a flat index list")
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    if arr.dtype.kind != "i" or arr.min() < 0:
        raise FormatError(f"split field {name} must hold non-negative integers")
    return arr.astype(np.int64)


def make_split(
    dataset: Dataset, deletion, seed: int, test_fraction: float = 0.0
) -> ScenarioSplit:
    """Deterministic retain/forget/test split.

    A test_fraction > 0 first holds out a seeded random test set; the deletion
    request is then applied to the remaining training rows.  RandomFraction
    deletes floor(fraction * n_train) rows.
    """
    if not 0 <= test_fraction < 1:
        raise DomainError(f"test_fraction must be in [0, 1), got {test_fraction}")
    n = len(dataset)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_test = int(np.floor(test_fraction * n))
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])

    if isinstance(deletion, RandomFraction):
        n_forget = int(np.floor(deletion.fraction * len(train_idx)))
        pick = rng.permutation(len(train_idx))[:n_forget]
        mask = np.zeros(len(train_idx), dtype=bool)
        mask[pick] = True
    elif isinstance(deletion, ClassWise):
        labels = dataset.labels[train_idx]
        if deletion.class_id not in dataset.labels:
            raise DomainError(f"class {deletion.class_id} absent from the dataset")
        mask = labels == deletion.class_id
    else:
        raise DomainError(f"unknown deletion request {deletion!r}")

    return ScenarioSplit(
        retain_idx=train_idx[~mask],
        forget_idx=train_idx[mask],
        test_idx=test_idx,
        seed=seed,
    )
