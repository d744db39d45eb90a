"""Truncated and byte-mutated copies of every file format the package reads
(config, split, checkpoint, IDX pair, timings), and configs with one value
replaced by an arbitrary JSON value, fail with the package's typed errors:
nothing but an UnlearnError escapes a loader."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockwise_unlearn import datasets as ds
from blockwise_unlearn import harness
from blockwise_unlearn import model as mdl
from blockwise_unlearn.errors import UnlearnError

from test_datasets import write_idx_fixture
from test_harness import base_config_doc

FUZZ = settings(max_examples=150, derandomize=True, deadline=None)


@st.composite
def corrupted(draw, raw: bytes) -> bytes:
    """`raw` cut at a drawn length, then with up to four bytes replaced."""
    data = bytearray(raw[: draw(st.integers(0, len(raw)))])
    for _ in range(draw(st.integers(0, 4)) if data else 0):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


def read_config(path):
    config = harness.load_config(path)
    # the fields read after loading, short of building the dataset
    harness.train_config(config)
    harness.deletion_request(config)
    for epsilon, delta in config.budgets:
        harness.budget_spec(config, epsilon, delta)


def read_timings(path):
    harness._timed(str(path.parent), "retrain_seed0", int)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The bytes of one valid file of each format."""
    tmp = tmp_path_factory.mktemp("valid")
    data = ds.generate_blobs(60, classes=3, dim=2, separation=3.0, seed=0)
    ds.save_split(ds.make_split(data, ds.RandomFraction(0.1), seed=0, test_fraction=0.2),
                  tmp / "split.json")
    spec = mdl.MlpSpec((2, 3, 3))
    mdl.save_params(mdl.init_params(spec, seed=0), tmp / "model.ckpt")
    rng = np.random.default_rng(0)
    img, lbl = write_idx_fixture(tmp, rng.integers(0, 256, size=(3, 2, 2), dtype=np.uint8),
                                 np.array([1, 0, 9], dtype=np.uint8))
    return {
        "config": json.dumps(base_config_doc("out")).encode(),
        "split": (tmp / "split.json").read_bytes(),
        "checkpoint": (tmp / "model.ckpt").read_bytes(),
        "images": img.read_bytes(),
        "labels": lbl.read_bytes(),
        "timings": json.dumps({"retrain_seed0": 0.5, "nft_eps1_k1_seed0": 0.1}).encode(),
    }


@pytest.mark.parametrize("kind,name,read", [
    ("config", "config.json", read_config),
    ("split", "split.json", ds.load_split),
    ("checkpoint", "model.ckpt", mdl.load_params),
    ("timings", "timings.json", read_timings),
])
def test_corrupted_file_raises_only_typed_errors(tmp_path_factory, valid, kind, name, read):
    path = tmp_path_factory.mktemp(kind) / name

    @FUZZ
    @given(raw=corrupted(valid[kind]))
    def check(raw):
        path.write_bytes(raw)
        try:
            read(path)
        except UnlearnError:
            pass

    check()


def value_paths(node, prefix=()):
    """The key path of every value nested in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from value_paths(value, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@FUZZ
@given(path=st.sampled_from(list(value_paths(base_config_doc("out")))), value=JSON_VALUES)
def test_config_with_one_value_replaced_raises_only_typed_errors(path, value):
    doc = base_config_doc("out")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        harness.config_from_dict(doc)
    except UnlearnError:
        pass


def test_corrupted_idx_pair_raises_only_typed_errors(tmp_path_factory, valid):
    tmp = tmp_path_factory.mktemp("idx")
    img, lbl = tmp / "images.idx", tmp / "labels.idx"

    @FUZZ
    @given(images=corrupted(valid["images"]), labels=corrupted(valid["labels"]))
    def check(images, labels):
        img.write_bytes(images)
        lbl.write_bytes(labels)
        try:
            ds.load_idx(img, lbl)
        except UnlearnError:
            pass

    check()
