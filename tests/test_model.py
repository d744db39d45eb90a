import json
import struct
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockwise_unlearn import model as mdl
from blockwise_unlearn.errors import DomainError, FormatError, NumericalError

from test_datasets import assert_allocates_little


TINY = mdl.MlpSpec((2, 4, 2))


def dim(spec):
    """Length d of a spec's parameter vector."""
    return mdl.init_params(spec, seed=0).d


def hits(params, sets):
    """Hits in each (inputs, labels) set from a fresh scorer's direct pass."""
    return mdl.Scorer(params.layer_map, sets).hits(params)


def tiny_batch():
    rng = np.random.default_rng(99)
    return mdl.Batch(rng.standard_normal((3, 2)), np.array([0, 1, 0]))


def min_preactivation_gap(params, batch):
    """Smallest |pre-activation| across hidden layers (kink proximity)."""
    n_layers = len(params.layer_map) // 2
    h = batch.inputs
    gap = np.inf
    for i in range(n_layers - 1):
        z = h @ params.view(f"fc{i + 1}.w").T + params.view(f"fc{i + 1}.b")
        gap = min(gap, float(np.min(np.abs(z))))
        h = np.maximum(z, 0.0)
    return gap


def central_difference(params, batch, h=1e-6):
    """Finite-difference gradient oracle, one coordinate at a time."""
    base = params.values
    grad = np.empty_like(base)
    for j in range(base.size):
        plus, minus = base.copy(), base.copy()
        plus[j] += h
        minus[j] -= h
        _, lp = mdl.forward(mdl.ParamVector(plus, params.layer_map), batch)
        _, lm = mdl.forward(mdl.ParamVector(minus, params.layer_map), batch)
        grad[j] = (lp - lm) / (2 * h)
    return grad


class TestSpecs:
    def test_requires_hidden_layer(self):
        with pytest.raises(DomainError):
            mdl.MlpSpec((4, 2))
        with pytest.raises(DomainError):
            mdl.MlpSpec((4, 0, 2))

    def test_layer_map_contiguous(self):
        lm = mdl.layer_map(mdl.MlpSpec((3, 5, 2)))
        assert lm[0] == ("fc1.w", (5, 3), 0)
        assert lm[1] == ("fc1.b", (5,), 15)
        assert lm[2] == ("fc2.w", (2, 5), 20)
        assert lm[3] == ("fc2.b", (2,), 30)
        assert dim(mdl.MlpSpec((3, 5, 2))) == 32

    def test_init_deterministic(self):
        a = mdl.init_params(TINY, seed=3)
        b = mdl.init_params(TINY, seed=3)
        assert np.array_equal(a.values, b.values)
        c = mdl.init_params(TINY, seed=4)
        assert not np.array_equal(a.values, c.values)


class TestForward:
    def test_zero_params_uniform_loss(self):
        spec = mdl.MlpSpec((3, 6, 4))
        params = mdl.ParamVector(np.zeros(dim(spec)), mdl.layer_map(spec))
        batch = mdl.Batch(np.random.default_rng(0).standard_normal((8, 3)),
                          np.array([0, 1, 2, 3, 0, 1, 2, 3]))
        _, loss = mdl.forward(params, batch)
        assert loss == pytest.approx(np.log(4.0), rel=1e-12)

    def test_confident_logits_drive_loss_to_zero(self):
        spec = mdl.MlpSpec((1, 2, 2))
        params = mdl.init_params(spec, seed=0)
        # force a huge positive margin toward class 0 via the output bias
        params.view("fc2.b")[:] = [50.0, -50.0]
        params.view("fc2.w")[:] = 0.0
        params.view("fc1.w")[:] = 0.0
        _, loss = mdl.forward(params, mdl.Batch(np.zeros((1, 1)), np.array([0])))
        assert loss < 1e-12

    def test_golden_value_from_scalar_evaluation(self):
        # frozen from an independent per-sample pure-python evaluation of the
        # same parameters and batch
        params = mdl.init_params(TINY, seed=5)
        _, loss = mdl.forward(params, tiny_batch())
        assert loss == pytest.approx(0.5857551218140707, abs=1e-12)

    def test_nan_params_rejected(self):
        params = mdl.init_params(TINY, seed=5)
        params.values[3] = np.nan
        with pytest.raises(NumericalError):
            mdl.forward(params, tiny_batch())
        with pytest.raises(NumericalError):
            mdl.loss_and_grad(params, tiny_batch())

    def test_label_out_of_range(self):
        params = mdl.init_params(TINY, seed=5)
        with pytest.raises(DomainError):
            mdl.forward(params, mdl.Batch(np.zeros((1, 2)), np.array([2])))

    @pytest.mark.parametrize("label", [-1, 2])
    def test_label_range_checked_in_every_batch(self, label):
        params = mdl.init_params(TINY, seed=5)
        batch = mdl.Batch(np.zeros((2, 2)), np.array([0, label]))
        with pytest.raises(DomainError):
            mdl.forward(params, batch)
        with pytest.raises(DomainError):
            mdl.loss_and_grad(params, batch)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_loss_and_grad_rejects_non_finite_params(self, bad):
        params = mdl.init_params(TINY, seed=5)
        params.values[-1] = bad
        with pytest.raises(NumericalError):
            mdl.loss_and_grad(params, tiny_batch())

    def test_deterministic(self):
        params = mdl.init_params(TINY, seed=5)
        la, sa = mdl.forward(params, tiny_batch())
        lb, sb = mdl.forward(params, tiny_batch())
        assert np.array_equal(la, lb) and sa == sb


class TestLogSoftmax:
    def test_class_sum_is_the_row_major_pairwise_sum(self):
        # numpy sums each contiguous row of a (rows, classes) array pairwise;
        # the (classes, rows) sum must add the classes in that order.  The
        # transpose is copied: a reduction over the rows of a transposed
        # view would add the classes in plain order instead
        rng = np.random.default_rng(0)
        for classes in range(1, 301):
            e = rng.standard_normal((classes, 13)) * rng.uniform(1e-3, 1e3, (classes, 1))
            expected = np.add.reduce(np.ascontiguousarray(e.T), axis=1)
            assert np.array_equal(mdl._class_sum(e), expected), classes

    @pytest.mark.parametrize("classes", [1, 2, 4, 7, 8, 10, 129, 300])
    def test_equals_the_row_major_formula(self, classes):
        rng = np.random.default_rng(classes)
        z = 5.0 * rng.standard_normal((17, classes))
        shifted = z - z.max(axis=1, keepdims=True)
        expected = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = mdl.log_softmax(np.ascontiguousarray(z.T))
        assert np.array_equal(log_probs, expected.T)
        labels = rng.integers(0, classes, size=17)
        assert np.array_equal(log_probs.take(mdl.label_entries(log_probs, labels)),
                              expected[np.arange(17), labels])


class TestBackward:
    def test_matches_central_differences(self):
        params = mdl.init_params(TINY, seed=5)
        batch = tiny_batch()
        grad = mdl.loss_and_grad(params, batch)[1].values
        fd = central_difference(params, batch)
        scale = np.maximum(np.abs(fd), 1e-3)
        assert np.max(np.abs(grad - fd) / scale) <= 1e-5

    def test_matches_central_differences_random_configs(self):
        # resample configurations whose hidden pre-activations sit within the
        # finite-difference step of a ReLU kink (not differentiable there)
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 10:
            widths = (int(rng.integers(2, 5)), int(rng.integers(2, 6)),
                      int(rng.integers(2, 5)), int(rng.integers(2, 4)))
            spec = mdl.MlpSpec(widths)
            params = mdl.init_params(spec, seed=int(rng.integers(0, 10_000)))
            batch = mdl.Batch(
                rng.standard_normal((4, widths[0])),
                rng.integers(0, widths[-1], size=4),
            )
            if min_preactivation_gap(params, batch) < 1e-3:
                continue
            grad = mdl.loss_and_grad(params, batch)[1].values
            fd = central_difference(params, batch)
            scale = np.maximum(np.abs(fd), 1e-3)
            assert np.max(np.abs(grad - fd) / scale) <= 1e-5
            checked += 1

    def test_near_zero_at_minimum(self):
        # conflicting labels on identical inputs give an interior optimum
        # (equal logits), so descent drives the gradient to zero
        spec = mdl.MlpSpec((1, 3, 2))
        params = mdl.init_params(spec, seed=1)
        batch = mdl.Batch(np.array([[1.0], [1.0]]), np.array([0, 1]))
        for _ in range(4000):
            g = mdl.loss_and_grad(params, batch)[1]
            params = mdl.ParamVector(params.values - 0.5 * g.values, params.layer_map)
        assert np.linalg.norm(mdl.loss_and_grad(params, batch)[1].values) <= 1e-6
        _, loss = mdl.forward(params, batch)
        assert loss == pytest.approx(np.log(2.0), abs=1e-9)

    def test_duplicated_batch_same_mean_gradient(self):
        params = mdl.init_params(TINY, seed=5)
        batch = tiny_batch()
        doubled = mdl.Batch(
            np.vstack([batch.inputs, batch.inputs]),
            np.concatenate([batch.labels, batch.labels]),
        )
        g1 = mdl.loss_and_grad(params, batch)[1].values
        g2 = mdl.loss_and_grad(params, doubled)[1].values
        assert np.allclose(g1, g2, atol=1e-14)


class TestParamVector:
    def test_view_writes_through_for_every_entry(self):
        spec = mdl.MlpSpec((3, 5, 4, 2))
        params = mdl.ParamVector(np.zeros(dim(spec)), mdl.layer_map(spec))
        for i, (name, shape, offset) in enumerate(params.layer_map):
            view = params.view(name)
            assert view.shape == shape
            view[...] = i + 1.0
            size = int(np.prod(shape))
            assert np.all(params.values[offset : offset + size] == i + 1.0)
        assert np.all(params.values > 0.0)

    def test_view_unknown_name(self):
        params = mdl.init_params(TINY, seed=0)
        with pytest.raises(KeyError):
            params.view("nope")

    def test_length_must_match_layer_map(self):
        with pytest.raises(DomainError):
            mdl.ParamVector(np.zeros(dim(TINY) + 1), mdl.layer_map(TINY))

    @pytest.mark.parametrize("values,layer_map", [
        # the last entry ends where the vector does, but fc1.b aliases fc1.w
        ([1.0, 2.0], (("fc1.w", (1, 2), 0), ("fc1.b", (2,), 0))),
        # or nothing starts at offset 0
        ([1.0, 2.0, 3.0, 4.0], (("fc1.w", (1, 2), 1), ("fc1.b", (1,), 3))),
    ])
    def test_non_contiguous_layer_map_rejected(self, values, layer_map):
        # one extent rule with load_params: entries lie end to end from offset 0
        with pytest.raises(DomainError, match="contiguous"):
            mdl.ParamVector(values, layer_map)

    def test_view_on_loaded_params(self, tmp_path):
        params = mdl.init_params(mdl.MlpSpec((3, 7, 2)), seed=9)
        path = tmp_path / "model.ckpt"
        mdl.save_params(params, path)
        loaded = mdl.load_params(path)
        for name, shape, _ in params.layer_map:
            assert np.array_equal(loaded.view(name), params.view(name))
        loaded.view("fc2.b")[:] = 7.0
        assert np.all(loaded.values[-2:] == 7.0)
        batch = mdl.Batch(np.ones((2, 3)), np.array([0, 1]))
        assert mdl.forward(loaded, batch)[1] == mdl.forward(
            mdl.ParamVector(loaded.values.copy(), params.layer_map), batch
        )[1]


class TestClip:
    def test_inside_ball_untouched(self):
        v = np.array([3.0, 4.0])
        assert np.array_equal(mdl.clip(v, 10.0), v)

    def test_projection(self):
        assert np.allclose(mdl.clip(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])

    def test_zero_vector(self):
        assert np.array_equal(mdl.clip(np.zeros(4), 2.0), np.zeros(4))

    def test_nonpositive_radius(self):
        with pytest.raises(DomainError):
            mdl.clip(np.ones(2), 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            v = rng.standard_normal(6) * rng.uniform(0.1, 10)
            c = rng.uniform(0.1, 5)
            once = mdl.clip(v, c)
            assert np.array_equal(mdl.clip(once, c), once)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        v=hnp.arrays(np.float64, st.integers(1, 64),
                     elements=st.floats(-1e150, 1e150, allow_nan=False)),
        c=st.floats(1e-100, 1e100),
    )
    def test_idempotent_and_within_radius_property(self, v, c):
        # entries up to 1e150 keep the squared norm of 64 of them finite
        once = mdl.clip(v, c)
        assert np.linalg.norm(once) <= c
        assert mdl.clip(once, c).tobytes() == once.tobytes()

    def test_scale_equivariant(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            v = rng.standard_normal(5)
            c = rng.uniform(0.1, 3)
            alpha = rng.uniform(0.01, 20)
            assert np.allclose(
                mdl.clip(alpha * v, alpha * c), alpha * mdl.clip(v, c), atol=1e-12
            )


class TestAccuracy:
    def test_all_correct(self):
        spec = mdl.MlpSpec((1, 2, 2))
        params = mdl.init_params(spec, seed=0)
        params.view("fc1.w")[:] = [[1.0], [-1.0]]
        params.view("fc2.w")[:] = [[-1.0, 1.0], [1.0, -1.0]]
        x = np.array([[2.0], [-2.0]])
        # relu features (2,0)/(0,2) -> logits (-2,2)/(2,-2) -> classes 1,0
        assert mdl.accuracy(params, x, np.array([1, 0])) == 1.0
        assert mdl.accuracy(params, x, np.array([0, 1])) == 0.0

    def test_matches_per_sample_count(self):
        spec = mdl.MlpSpec((3, 8, 4))
        params = mdl.init_params(spec, seed=2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 3))
        y = rng.integers(0, 4, size=40)
        correct = sum(hits(params, [(x[i : i + 1], y[i : i + 1])])[0] for i in range(40))
        assert mdl.accuracy(params, x, y) == correct / 40

    def test_empty_set(self):
        params = mdl.init_params(TINY, seed=0)
        with pytest.raises(DomainError):
            mdl.accuracy(params, np.zeros((0, 2)), np.zeros(0, dtype=np.int64))

    def test_ties_go_to_lowest_class(self):
        spec = mdl.MlpSpec((1, 2, 3))
        params = mdl.ParamVector(np.zeros(dim(spec)), mdl.layer_map(spec))
        one = np.array([[1.0]])
        assert hits(params, [(one, [0]), (one, [1]), (one, [2])]) == [1, 0, 0]
        params.view("fc2.b")[:] = 0.7
        x = np.random.default_rng(0).standard_normal((6, 1))
        assert hits(params, [(x, np.full(6, c)) for c in range(3)]) == [6, 0, 0]
        assert hits(params, [(x, np.zeros(6)), (x[:2], np.ones(2))]) == [6, 0]

    # one label used to broadcast against the 5 rows, three to fail inside
    # numpy, a (5, 1) column to broadcast to (5, 5) and a scalar to fail in len()
    @pytest.mark.parametrize("labels", [np.zeros(1), np.zeros(3), np.zeros((5, 1)),
                                        np.int64(0)])
    def test_labels_must_match_rows(self, labels):
        params = mdl.init_params(TINY, seed=0)
        with pytest.raises(DomainError):
            mdl.accuracy(params, np.zeros((5, 2)), labels)

    @pytest.mark.parametrize("n", [1, 3, 7, 999])
    def test_equals_mean_of_hits(self, n):
        spec = mdl.MlpSpec((3, 8, 4))
        params = mdl.init_params(spec, seed=2)
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 3))
        for _ in range(5):
            y = rng.integers(0, 4, size=n)
            expected = float(np.mean(reference_predict(params, x) == y))
            got = mdl.accuracy(params, x, y)
            assert type(got) is float and got == expected

    @pytest.mark.parametrize("label", [-1, 4, 7])
    def test_label_out_of_range(self, label):
        # a label no class can predict would otherwise score as a plain miss
        params = mdl.init_params(mdl.MlpSpec((3, 8, 4)), seed=2)
        labels = np.array([0, 1, label, 3])
        with pytest.raises(DomainError):
            mdl.accuracy(params, np.zeros((4, 3)), labels)
        with pytest.raises(DomainError):
            hits(params, [(np.zeros((4, 3)), labels)])
        with pytest.raises(DomainError):
            mdl.Scorer(params.layer_map, [(np.zeros((2, 3)), [0, 1]),
                                          (np.zeros((4, 3)), labels)]).logits(params)


def reference_forward(params, x):
    """The forward pass written out of place, one fresh array per operation:
    the input of every layer and the logits."""
    n_layers = len(params.layer_map) // 2
    activations = [x]
    for i in range(1, n_layers):
        h = activations[-1] @ params.view(f"fc{i}.w").T + params.view(f"fc{i}.b")
        activations.append(np.maximum(h, 0.0))
    logits = activations[-1] @ params.view(f"fc{n_layers}.w").T
    return activations, logits + params.view(f"fc{n_layers}.b")


class TestInPlaceForward:
    @pytest.mark.parametrize("widths, rows", [
        ((3, 5, 2), 1), ((3, 5, 2), 17), ((8, 16, 5), 64),
        ((6, 9, 7, 4), 1), ((6, 9, 7, 4), 33), ((4, 1, 3), 5),
    ])
    def test_equals_out_of_place_chain(self, widths, rows):
        spec = mdl.MlpSpec(widths)
        rng = np.random.default_rng(sum(widths) + rows)
        params = mdl.ParamVector(rng.standard_normal(dim(spec)),
                                 mdl.layer_map(spec))
        x = rng.standard_normal((rows, widths[0]))
        activations, logits = mdl._forward_pass(mdl._weights(params), x)
        ref_activations, ref_logits = reference_forward(params, x)
        assert np.array_equal(logits, ref_logits)
        # the backward pass reads every layer's input after the whole forward
        # pass, so no later layer may have written into an earlier one
        assert activations[0] is x and len(activations) == len(ref_activations)
        for got, ref in zip(activations, ref_activations):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_caller_inputs_unmodified(self, dtype):
        spec = mdl.MlpSpec((3, 6, 5, 4))
        params = mdl.init_params(spec, seed=1)
        params.view("fc1.b")[:] = 0.5
        x = (np.random.default_rng(2).standard_normal((9, 3)) * 4).astype(dtype)
        labels = np.arange(9) % 4
        before = x.copy()
        hits(params, [(x, labels)])
        mdl.accuracy(params, x, labels)
        mdl.forward(params, mdl.Batch(x, labels))
        mdl.loss_and_grad(params, mdl.Batch(x, labels))
        assert x.dtype == dtype and np.array_equal(x, before)

    def test_scoring_peak_memory_below_two_hidden_arrays(self):
        # numpy reports its data buffers to tracemalloc, so the peak counts
        # every array the pass allocates; out of place it held three at once
        spec = mdl.MlpSpec((8, 16, 5))
        params = mdl.init_params(spec, seed=0)
        rng = np.random.default_rng(0)
        sets = [(rng.standard_normal((4000, 8)), rng.integers(0, 5, size=4000))]
        hits(params, sets)
        tracemalloc.start()
        try:
            hits(params, sets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 4000 * 16 * 8


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = mdl.init_params(mdl.MlpSpec((3, 7, 2)), seed=9)
        path = tmp_path / "model.ckpt"
        mdl.save_params(params, path)
        loaded = mdl.load_params(path)
        assert np.array_equal(loaded.values, params.values)
        assert loaded.layer_map == params.layer_map

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(FormatError):
            mdl.load_params(path)

    def test_truncated_payload(self, tmp_path):
        params = mdl.init_params(TINY, seed=9)
        path = tmp_path / "model.ckpt"
        mdl.save_params(params, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FormatError):
            mdl.load_params(path)


def write_checkpoint(path, header, payload=b""):
    """A checkpoint file with an arbitrary JSON header, in the documented layout."""
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(b"BWUNCKPT" + struct.pack("<II", 1, len(raw)) + raw + payload)


GOOD_HEADER = {"d": 4, "layer_map": [["fc1.w", [1, 2], 0], ["fc1.b", [2], 2]]}


class TestCheckpointHeader:
    def test_documented_layout_loads(self, tmp_path):
        path = tmp_path / "ok.ckpt"
        write_checkpoint(path, GOOD_HEADER, struct.pack("<4d", 1.0, 2.0, 3.0, 4.0))
        params = mdl.load_params(path)
        assert np.array_equal(params.view("fc1.b"), [3.0, 4.0])

    @pytest.mark.parametrize(
        "header",
        [
            {"layer_map": GOOD_HEADER["layer_map"]},
            {"d": 4},
            [4, GOOD_HEADER["layer_map"]],
            {"d": "4", "layer_map": GOOD_HEADER["layer_map"]},
            {"d": 4.0, "layer_map": GOOD_HEADER["layer_map"]},
            {"d": -1, "layer_map": GOOD_HEADER["layer_map"]},
            {"d": 4, "layer_map": 7},
            {"d": 4, "layer_map": []},
            {"d": 4, "layer_map": [["fc1.w", [1, 2]]]},
            {"d": 4, "layer_map": [["fc1.w", 2, 0]]},
            {"d": 4, "layer_map": [["fc1.w", ["1", 2], 0]]},
            {"d": 4, "layer_map": [[1, [1, 2], 0]]},
            {"d": 4, "layer_map": [["fc1.w", [1, 2], 0.5]]},
            {"d": 5, "layer_map": GOOD_HEADER["layer_map"]},
            # d agrees with the last entry's end, but the entries alias or skip
            # coordinates of the payload
            {"d": 2, "layer_map": [["fc1.w", [1, 2], 0], ["fc1.b", [2], 0]]},
            {"d": 5, "layer_map": [["fc1.w", [1, 2], 0], ["fc1.b", [2], 3]]},
        ],
        ids=[
            "missing-d", "missing-layer-map", "not-an-object", "d-string", "d-float",
            "d-negative", "layer-map-int", "layer-map-empty", "entry-short",
            "shape-int", "shape-string", "name-int", "offset-float", "d-mismatch",
            "entries-overlap", "entries-gap",
        ],
    )
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "bad.ckpt"
        write_checkpoint(path, header, b"\x00" * 64)
        with pytest.raises(FormatError):
            mdl.load_params(path)

    @pytest.mark.parametrize("header", [
        {"d": 2**61, "layer_map": [["fc1.w", [2**31, 2**30], 0]]},
        {"d": 2**40, "layer_map": [["fc1.w", [2**20, 2**20], 0]]},
    ], ids=["d-2-61", "d-2-40"])
    def test_oversized_declared_payload(self, tmp_path, header):
        path = tmp_path / "big.ckpt"
        write_checkpoint(path, header, b"\x00" * 64)
        with pytest.raises(FormatError, match="checkpoint payload"):
            mdl.load_params(path)

    def test_header_longer_than_the_file(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(b"BWUNCKPT" + struct.pack("<II", 1, 0xFFFFFFFF) + b"{}")
        with pytest.raises(FormatError, match="checkpoint header"):
            assert_allocates_little(mdl.load_params, path)


    def test_non_mlp_layer_map_loads_but_does_not_score(self, tmp_path):
        path = tmp_path / "odd.ckpt"
        write_checkpoint(path, {"d": 12, "layer_map": [["w", [3, 4], 0]]}, b"\x00" * 96)
        params = mdl.load_params(path)
        with pytest.raises(DomainError, match="no fc layers"):
            hits(params, [(np.zeros((2, 4)), np.zeros(2))])

    def test_layout_cache_is_bounded(self, tmp_path):
        path = tmp_path / "one.ckpt"
        for i in range(2000):
            write_checkpoint(path, {"d": 1, "layer_map": [[f"w{i}", [1], 0]]}, b"\x00" * 8)
            assert mdl.load_params(path).layer_map == ((f"w{i}", (1,), 0),)
        assert len(mdl._LAYOUTS) <= mdl._LAYOUT_CACHE_SIZE < 2000

def reference_predict(params, x):
    """Row-major argmax of the out-of-place chain."""
    return np.argmax(reference_forward(params, x)[1], axis=1)


def both_first_layer_paths(layer_map, sets):
    """Two scorers of `sets`: one that takes the first layer as one GEMM over
    its kept feature-major copy of the inputs, and one made to take the
    per-set path that wider first layers take."""
    folded, per_set = mdl.Scorer(layer_map, sets), mdl.Scorer(layer_map, sets)
    assert folded._xt1 is not None
    per_set._xt1 = None
    return folded, per_set


class TestScoring:
    @pytest.mark.parametrize("widths, sizes", [
        ((3, 5, 2), (1,)), ((3, 5, 2), (17, 1, 4)), ((8, 16, 5), (64, 1, 1)),
        ((6, 9, 7, 4), (1, 33)), ((4, 1, 3), (5, 2, 9)), ((784, 32, 10), (1, 40, 7)),
    ])
    def test_equals_row_major_argmax(self, widths, sizes):
        spec = mdl.MlpSpec(widths)
        rng = np.random.default_rng(sum(widths) + sum(sizes))
        params = mdl.ParamVector(rng.standard_normal(dim(spec)),
                                 mdl.layer_map(spec))
        sets = [(rng.standard_normal((n, widths[0])), rng.integers(0, widths[-1], size=n))
                for n in sizes]
        # BLAS may sum the first layer's products in another order than the
        # row-major pass (it does at 784 inputs), so logits agree to rounding
        scores = mdl.Scorer(params.layer_map, sets).logits(params)
        ref = np.concatenate([reference_forward(params, x)[1] for x, _ in sets])
        np.testing.assert_allclose(scores.T, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        expected = [reference_predict(params, x) for x, _ in sets]
        # with the reference predictions as labels, every row is a hit
        assert hits(params, [(x, ref) for (x, _), ref in zip(sets, expected)]) == list(sizes)
        assert hits(params, sets) == [
            int(np.count_nonzero(ref == y)) for (_, y), ref in zip(sets, expected)
        ]

    def test_tie_between_later_classes_goes_to_the_lower(self):
        spec = mdl.MlpSpec((2, 3, 4))
        params = mdl.ParamVector(np.zeros(dim(spec)), mdl.layer_map(spec))
        params.view("fc2.b")[:] = [0.0, 2.0, 1.0, 2.0]
        x = np.ones((3, 2))
        assert hits(params, [(x, np.full(3, c)) for c in range(4)]) == [0, 3, 0, 0]

    @pytest.mark.parametrize("nan_class", [0, 1, 2])
    def test_nan_logit_raises(self, nan_class):
        # np.argmax would return the NaN's class instead of failing
        spec = mdl.MlpSpec((2, 4, 3))
        params = mdl.init_params(spec, seed=0)
        params.view("fc2.b")[nan_class] = np.nan
        x = np.ones((4, 2))
        with pytest.raises(NumericalError):
            hits(params, [(x, np.zeros(4))])
        with pytest.raises(NumericalError):
            mdl.accuracy(params, x, np.zeros(4))

    def test_nan_in_one_row_raises(self):
        params = mdl.init_params(TINY, seed=0)
        x = np.ones((5, 2))
        x[3, 1] = np.nan
        with pytest.raises(NumericalError):
            hits(params, [(np.ones((2, 2)), np.zeros(2)), (x, np.zeros(5))])

    @pytest.mark.parametrize("bad", [
        (np.zeros((0, 2)), np.zeros(0)),       # no rows
        (np.zeros(2), np.zeros(2)),            # 1-D inputs
        (np.zeros((1, 1, 2)), np.zeros(1)),    # 3-D inputs
        (np.zeros((3, 5)), np.zeros(3)),       # wrong input width
        (np.zeros((3, 2)), np.zeros(2)),       # too few labels
        (np.zeros((3, 2)), np.zeros((3, 1))),  # a label column
    ])
    def test_empty_or_misshaped_set_rejected(self, bad):
        params = mdl.init_params(TINY, seed=0)
        good = (np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(DomainError):
            hits(params, [good, bad])
        with pytest.raises(DomainError):
            mdl.accuracy(params, *bad)

    @pytest.mark.parametrize("widths", [(3, 5, 2), (6, 9, 7, 4), (784, 32, 10)])
    def test_logits_and_hits_are_the_scoring_pass(self, widths):
        spec = mdl.MlpSpec(widths)
        rng = np.random.default_rng(sum(widths))
        params = mdl.ParamVector(rng.standard_normal(dim(spec)),
                                 mdl.layer_map(spec))
        sets = [(rng.standard_normal((n, widths[0])), rng.integers(0, widths[-1], size=n))
                for n in (7, 1, 30)]
        scorer = mdl.Scorer(params.layer_map, sets)
        logits = scorer.logits(params)
        counts = scorer.count(logits)
        assert counts == hits(params, sets)
        layers = mdl._weights(params)
        direct = mdl._later_layers(layers, scorer._product(*layers[0]))
        assert np.array_equal(logits, direct)
        # the kept first-layer buffer that `hits` writes into changes nothing
        assert scorer.hits(params) == counts
        assert np.array_equal(scorer.logits(params), direct)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_logits_and_hits_reject_non_finite_params(self, bad):
        params = mdl.init_params(TINY, seed=0)
        params.values[0] = bad
        with pytest.raises(NumericalError):
            mdl.Scorer(params.layer_map, [(np.ones((3, 2)), np.zeros(3))]).logits(params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["fc1.w", "fc1.b", "fc2.w", "fc2.b"])
    def test_every_scoring_call_rejects_non_finite_params(self, bad, name):
        # an infinite output bias yields no NaN logit, so only the parameter
        # check stops it from being scored
        spec = mdl.MlpSpec((2, 4, 3))
        params = mdl.init_params(spec, seed=0)
        bad_params = params.copy()
        bad_params.view(name)[0] = bad
        sets = [(np.ones((5, 2)), np.zeros(5))]
        span = np.eye(4)[:, :2]
        for scorer in both_first_layer_paths(params.layer_map, sets):
            scorer.step_hits(params, None)  # so the next step updates H1
            for score in (scorer.logits, scorer.hits,
                          lambda p: scorer.step_hits(p, span),
                          lambda p: scorer.step_hits(p, None)):
                with pytest.raises(NumericalError):
                    score(bad_params)

    def test_sets_are_scored_without_stacking_the_inputs(self):
        # the three inputs take 3 MB; a stacked or kept copy of them would too
        spec = mdl.MlpSpec((64, 8, 3))
        params = mdl.init_params(spec, seed=0)
        rng = np.random.default_rng(0)
        sets = [(rng.standard_normal((2000, 64)), rng.integers(0, 3, size=2000))
                for _ in range(3)]
        hits(params, sets)
        tracemalloc.start()
        try:
            # the prepared state stays alive through the call
            scorer = mdl.Scorer(params.layer_map, sets)
            scorer.hits(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert all(x is kept for (x, _), kept in zip(sets, scorer.inputs))

    def test_chunked_second_layer_equals_the_whole_product(self):
        # the first layer's pre-activations of a 784-256-256-10 model over
        # 2500 rows, kept while each 512-column chunk of their ReLU feeds the
        # second layer
        spec = mdl.MlpSpec((784, 256, 256, 10))
        params = mdl.init_params(spec, seed=0)
        rng = np.random.default_rng(0)
        layers = mdl._weights(params)
        h = mdl._first_layer(*layers[0], [rng.random((2500, 784))])
        kept = h.copy()
        chunked = mdl._later_layers(layers, h, np.empty((256, 512)))
        assert np.array_equal(h, kept)
        assert np.array_equal(chunked, mdl._later_layers(layers, kept))

    def test_step_hits_after_a_direct_pass_start_afresh(self):
        # hits runs the ReLU in place on the kept pre-activations, so the
        # noisy step after it must not update them from the step before
        spec = mdl.MlpSpec((6, 9, 4))
        rng = np.random.default_rng(7)
        sets = [(rng.standard_normal((n, 6)), rng.integers(0, 4, size=n)) for n in (30, 11)]
        p1, p2, p3 = (mdl.init_params(spec, seed=s) for s in (1, 2, 3))
        scorer = mdl.Scorer(p1.layer_map, sets)
        assert scorer.hits(p2) == hits(p2, sets)
        assert scorer._h1 is None  # only step_hits keeps a buffer
        assert scorer.step_hits(p1, None) == hits(p1, sets)
        assert scorer.hits(p2) == hits(p2, sets)
        # None claims that p3's first layer equals p1's; only a fresh start
        # scores p3 as it is
        assert scorer.step_hits(p3, None) == hits(p3, sets)
        w, b = mdl._weights(p3)[0]
        assert np.array_equal(scorer._h1, scorer._product(w, b))

    @pytest.mark.parametrize("widths, copied", [
        ((8, 16, 5), True), ((8, 12, 4), True), ((8, 9, 3), True), ((2, 3, 4), True),
        ((8, 8, 3), False), ((64, 8, 3), False), ((784, 256, 10), False),
    ])
    def test_inputs_are_copied_exactly_when_fan_in_plus_one_fits_the_hidden_width(
            self, widths, copied):
        rng = np.random.default_rng(sum(widths))
        sets = [(rng.standard_normal((n, widths[0])), rng.integers(0, widths[-1], size=n))
                for n in (3, 1, 5)]
        scorer = mdl.Scorer(mdl.layer_map(mdl.MlpSpec(widths)), sets)
        assert all(x is kept for (x, _), kept in zip(sets, scorer.inputs))
        if not copied:
            assert scorer._xt1 is None
            return
        # feature-major rows of every set in order, then a row of ones, in
        # no more bytes than the (hidden, rows) pre-activations
        stacked = np.concatenate([x for x, _ in sets])
        assert np.array_equal(scorer._xt1, np.vstack([stacked.T, np.ones((1, 9))]))
        assert scorer._xt1.flags.c_contiguous
        assert scorer._xt1.nbytes <= widths[1] * 9 * 8

    @pytest.mark.parametrize("widths", [(8, 16, 5), (8, 12, 4), (3, 5, 2), (6, 9, 7, 4)])
    def test_both_first_layer_paths_score_alike(self, widths):
        spec = mdl.MlpSpec(widths)
        rng = np.random.default_rng(sum(widths) + 1)
        params = mdl.ParamVector(rng.standard_normal(dim(spec)), mdl.layer_map(spec))
        sets = [(rng.standard_normal((n, widths[0])), rng.integers(0, widths[-1], size=n))
                for n in (40, 1, 17)]
        folded, per_set = both_first_layer_paths(params.layer_map, sets)
        # the folded bias is summed inside the product, so logits agree to rounding
        ref = per_set.logits(params)
        np.testing.assert_allclose(folded.logits(params), ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())
        counts = per_set.hits(params)
        assert folded.hits(params) == counts
        assert folded.step_hits(params, None) == counts
        assert counts == [int(np.count_nonzero(reference_predict(params, x) == y))
                          for x, y in sets]

    def test_both_first_layer_paths_break_ties_and_reject_nan_alike(self):
        spec = mdl.MlpSpec((2, 3, 4))
        params = mdl.ParamVector(np.zeros(dim(spec)), mdl.layer_map(spec))
        params.view("fc2.b")[:] = [0.0, 2.0, 1.0, 2.0]
        sets = [(np.ones((3, 2)), np.full(3, c)) for c in range(4)]
        for scorer in both_first_layer_paths(params.layer_map, sets):
            assert scorer.hits(params) == [0, 3, 0, 0]
        for name in ("fc1.w", "fc1.b"):
            bad = params.copy()
            bad.view(name)[0] = np.nan
            for scorer in both_first_layer_paths(bad.layer_map, sets):
                for score in (scorer.hits, scorer.logits,
                              lambda p: scorer.step_hits(p, None)):
                    with pytest.raises(NumericalError):
                        score(bad)

    def test_scorer_rejects_another_layer_map(self):
        scorer = mdl.Scorer(mdl.layer_map(TINY), [(np.ones((3, 2)), np.zeros(3))])
        other = mdl.init_params(mdl.MlpSpec((2, 5, 2)), seed=0)
        for score in (scorer.hits, scorer.logits, lambda p: scorer.step_hits(p, None)):
            with pytest.raises(DomainError):
                score(other)

    # few distinct values, so ties at, below and above the label are frequent
    TIE_PRONE = st.sampled_from([-np.inf, -1.0, 0.0, 0.5, np.inf])

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(data=st.data(), classes=st.integers(1, 6),
           sizes=st.lists(st.integers(1, 9), min_size=1, max_size=3))
    def test_hit_rule_equals_lowest_index_argmax(self, data, classes, sizes):
        rows = sum(sizes)
        logits = data.draw(hnp.arrays(np.float64, (classes, rows), elements=self.TIE_PRONE))
        labels = data.draw(hnp.arrays(np.int64, rows, elements=st.integers(0, classes - 1)))
        nan_at = data.draw(st.none() | st.tuples(st.integers(0, classes - 1),
                                                 st.integers(0, rows - 1)))
        bounds = np.cumsum([0, *sizes])
        sets = [(np.zeros((n, 1)), labels[a:b]) for n, a, b in zip(sizes, bounds, bounds[1:])]
        scorer = mdl.Scorer(mdl.layer_map(mdl.MlpSpec((1, 1, classes))), sets)
        if nan_at is not None:
            logits[nan_at] = np.nan
            with pytest.raises(NumericalError):
                scorer.count(logits)
            return
        hit = np.argmax(logits, axis=0) == labels
        assert scorer.count(logits) == [
            int(np.count_nonzero(hit[a:b])) for a, b in zip(bounds, bounds[1:])
        ]
