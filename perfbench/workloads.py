"""Workload inputs: experiment configs and the MNIST-shaped IDX files.

Every input is a function of the workload seed.  The two blob workloads take
the shipped configs unchanged except for the dataset seed and the output
directory; the MNIST-shaped workload writes its own train and test IDX files
and a config that points at them.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# MNIST-shaped sizes: 28x28 pixels, 10 classes.  Rows are kept small enough
# that one grid takes a few seconds on one core.
MNIST_SIDE = 28
MNIST_CLASSES = 10
MNIST_TRAIN_ROWS = 2000
MNIST_TEST_ROWS = 500


@dataclass(frozen=True)
class Workload:
    name: str
    # number of timed calls of each short request per round; chosen so one
    # round spends a few tenths of a second on each
    unlearn_reps: int
    retrain_reps: int
    audit_reps: int
    gradient_check: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("blobs-random10", unlearn_reps=6, retrain_reps=3, audit_reps=20),
        Workload("blobs-classwise", unlearn_reps=1, retrain_reps=3, audit_reps=20),
        Workload("mnist-shape", unlearn_reps=1, retrain_reps=1, audit_reps=3,
                 gradient_check=True),
    )
}

_SHIPPED = {
    "blobs-random10": "configs/blobs_random10.json",
    "blobs-classwise": "configs/blobs_classwise.json",
}


def write_config(workload: Workload, root: Path, scratch: Path, seed: int) -> Path:
    """Write the workload's config (and data files) under scratch; return its path."""
    if workload.name in _SHIPPED:
        with open(root / _SHIPPED[workload.name]) as fh:
            doc = json.load(fh)
        doc["dataset"]["seed"] = seed
    else:
        doc = _mnist_config(scratch / "data", seed)
    doc["output_dir"] = str(scratch / "grid")
    path = scratch / "config.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return path


def _mnist_config(data_dir: Path, seed: int) -> dict:
    paths = write_mnist_shape(data_dir, seed)
    return {
        "dataset": {"kind": "mnist_idx", **{k: str(v) for k, v in paths.items()}},
        "deletion": {"kind": "random_fraction", "fraction": 0.1},
        "model": {"hidden": [256, 256]},
        "train": {"steps": 100, "lr": 0.05, "momentum": 0.9,
                  "weight_decay": 1e-5, "batch_size": 64},
        "budgets": [{"epsilon": 1.0, "delta": 1e-5}],
        "k_values": [1, 10],
        "method": "blockwise",
        "basis_strategy": "random_orthonormal",
        "unlearn": {"gamma": 0.02, "lam": 1.0, "c1": 1.0, "delta_rho": 0.05,
                    "steps": 2, "batch_size": 64},
        "finetune": {"steps": 6, "lr": 0.0025, "momentum": 0.9, "weight_decay": 0.0},
        "step_cap": 1000,
        "n_seeds": 1,
        "seed0": 0,
    }


def mnist_shape_arrays(seed: int):
    """Seeded MNIST-shaped images and labels: (train_x, train_y, test_x, test_y).

    Each class has a prototype made of a few Gaussian strokes on the 28x28
    grid; a row is its class prototype plus pixel noise, so the classes are
    learnable but not identical.  Pixels are uint8 as in the IDX format.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:MNIST_SIDE, 0:MNIST_SIDE]
    protos = np.zeros((MNIST_CLASSES, MNIST_SIDE * MNIST_SIDE))
    for c in range(MNIST_CLASSES):
        img = np.zeros((MNIST_SIDE, MNIST_SIDE))
        for _ in range(4):
            cy, cx = rng.uniform(4, MNIST_SIDE - 4, size=2)
            sy, sx = rng.uniform(1.5, 5.0, size=2)
            img += np.exp(-((yy - cy) ** 2) / (2 * sy**2) - ((xx - cx) ** 2) / (2 * sx**2))
        protos[c] = (img / img.max()).ravel()

    def draw(n):
        labels = rng.integers(0, MNIST_CLASSES, size=n)
        pixels = 200.0 * protos[labels] + rng.normal(0.0, 45.0, size=(n, protos.shape[1]))
        return np.clip(np.rint(pixels), 0, 255).astype(np.uint8), labels.astype(np.uint8)

    train_x, train_y = draw(MNIST_TRAIN_ROWS)
    test_x, test_y = draw(MNIST_TEST_ROWS)
    return train_x, train_y, test_x, test_y


def write_mnist_shape(data_dir: Path, seed: int) -> dict:
    """Write big-endian IDX image/label files for a train and a test set."""
    data_dir.mkdir(parents=True, exist_ok=True)
    train_x, train_y, test_x, test_y = mnist_shape_arrays(seed)
    paths = {
        "train_images": data_dir / "train-images.idx3-ubyte",
        "train_labels": data_dir / "train-labels.idx1-ubyte",
        "test_images": data_dir / "test-images.idx3-ubyte",
        "test_labels": data_dir / "test-labels.idx1-ubyte",
    }
    _write_idx_images(paths["train_images"], train_x)
    _write_idx_labels(paths["train_labels"], train_y)
    _write_idx_images(paths["test_images"], test_x)
    _write_idx_labels(paths["test_labels"], test_y)
    return paths


def _write_idx_images(path: Path, images: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, len(images), MNIST_SIDE, MNIST_SIDE))
        fh.write(images.tobytes())


def _write_idx_labels(path: Path, labels: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABEL_MAGIC, len(labels)))
        fh.write(labels.tobytes())
