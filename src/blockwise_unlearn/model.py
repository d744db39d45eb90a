"""Small fully connected classifier with explicit forward/backward passes.

Parameters live in a flat float64 vector plus a layer map, so the subspace
and engine modules can treat the model as a point in R^d.  All arithmetic is
float64 and deterministic given the inputs.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .datasets import read_exactly
from .errors import DomainError, FormatError, NumericalError
from .subspace import layer_map_dim, vector_norm

_CKPT_MAGIC = b"BWUNCKPT"
_CKPT_VERSION = 1


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (input, hidden..., classes); ReLU activations,
    softmax cross-entropy loss."""

    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if len(self.widths) < 3:
            raise DomainError("need at least one hidden layer")
        if any(w < 1 for w in self.widths):
            raise DomainError(f"widths must be >= 1, got {self.widths}")


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if inputs.ndim != 2 or labels.ndim != 1 or inputs.shape[0] != labels.shape[0]:
            raise DomainError("batch needs (n, dim) inputs and (n,) labels")
        if inputs.shape[0] < 1:
            raise DomainError("batch must contain at least one sample")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.inputs.shape[0]


def layer_map(spec: MlpSpec):
    entries, offset = [], 0
    for i, (fan_in, fan_out) in enumerate(zip(spec.widths, spec.widths[1:])):
        entries.append((f"fc{i + 1}.w", (fan_out, fan_in), offset))
        offset += fan_out * fan_in
        entries.append((f"fc{i + 1}.b", (fan_out,), offset))
        offset += fan_out
    return tuple(entries)


class _Layout:
    """Where each entry of one layer map lives in the flat vector: `slots` maps
    a name to (start, stop, shape), `layers` holds the (weight, bias) slots of
    each fc layer, or None when the map is not an MLP's."""

    __slots__ = ("d", "slots", "layers")

    def __init__(self, lm: tuple) -> None:
        self.slots = {
            name: (offset, offset + math.prod(shape), tuple(shape))
            for name, shape, offset in lm
        }
        try:
            self.layers = tuple(
                (self.slots[f"fc{i + 1}.w"], self.slots[f"fc{i + 1}.b"])
                for i in range(len(lm) // 2)
            )
        except KeyError:
            self.layers = None
        self.d = layer_map_dim(lm)


# A run sees one or two layer maps; the bound keeps a process that loads many
# foreign checkpoints from growing.
_LAYOUT_CACHE_SIZE = 64
_LAYOUTS: dict[tuple, _Layout] = {}


def _layout(lm: tuple) -> _Layout:
    """The layout of a layer map, computed on its first use and cached by the
    map; a full cache drops its oldest entry."""
    layout = _LAYOUTS.get(lm)
    if layout is None:
        if len(_LAYOUTS) >= _LAYOUT_CACHE_SIZE:
            del _LAYOUTS[next(iter(_LAYOUTS))]
        layout = _LAYOUTS[lm] = _Layout(lm)
    return layout


@dataclass
class ParamVector:
    """Flat parameters with the layer map describing their structure."""

    values: np.ndarray
    layer_map: tuple

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        d = _layout(self.layer_map).d
        if self.values.shape != (d,):
            raise DomainError(
                f"parameter vector length {self.values.shape} does not match layer map ({d})"
            )

    @property
    def d(self) -> int:
        return self.values.shape[0]

    def view(self, name: str) -> np.ndarray:
        start, stop, shape = _layout(self.layer_map).slots[name]
        return self.values[start:stop].reshape(shape)

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.layer_map)


def init_params(spec: MlpSpec, seed: int) -> ParamVector:
    """He-style init for the weights, zero biases; deterministic in seed."""
    rng = np.random.default_rng(seed)
    chunks = []
    for fan_in, fan_out in zip(spec.widths, spec.widths[1:]):
        w = rng.standard_normal((fan_out, fan_in)) * np.sqrt(2.0 / fan_in)
        chunks.append(w.ravel())
        chunks.append(np.zeros(fan_out))
    return ParamVector(np.concatenate(chunks), layer_map(spec))


def _weights(params: ParamVector):
    layers = _layout(params.layer_map).layers
    if not layers:
        raise DomainError("layer map has no fc layers")
    v = params.values
    return [
        (v[ws:we].reshape(w_shape), v[bs:be])
        for (ws, we, w_shape), (bs, be, _) in layers
    ]


def _check_finite(params: ParamVector) -> None:
    if not np.isfinite(params.values).all():
        raise NumericalError("non-finite parameter values")


def _forward_pass(layers, inputs: np.ndarray):
    """Input of every layer and the logits.

    Each layer allocates one array: the bias add and the ReLU run in place on
    the matmul's result, the same operations in the same order as
    `np.maximum(h @ w.T + b, 0.0)`, so the values are identical.
    """
    activations = [inputs]
    h = inputs
    for w, b in layers[:-1]:
        h = h @ w.T
        h += b
        np.maximum(h, 0.0, out=h)
        activations.append(h)
    w, b = layers[-1]
    logits = h @ w.T
    logits += b
    return activations, logits


def _forward_cached(params: ParamVector, batch: Batch):
    """Layer views, every layer's input and the logits, after checking that
    the parameters are finite and every label lies in [0, classes)."""
    _check_finite(params)
    layers = _weights(params)
    labels = batch.labels
    # a Batch holds at least one int64 label, so both reductions are defined
    if np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= layers[-1][0].shape[0]:
        raise DomainError("label out of range for the output layer")
    activations, logits = _forward_pass(layers, batch.inputs)
    return layers, activations, logits


# numpy's pairwise sum keeps eight running sums over a run of at most this
# many elements, and splits a longer run in two
_PAIRWISE_BLOCK = 128


def _class_sum(e: np.ndarray) -> np.ndarray:
    """Sum over axis 0 of (classes, rows) `e`, adding the class rows in the
    order numpy's pairwise sum adds one contiguous row of a (rows, classes)
    array, so each column's sum is that row's sum bit for bit.

    Below 8 classes the rows are added in order.  Up to 128, eight running
    sums take the rows 8 apart, are combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and the rows past the
    last multiple of 8 are added in order.  Above 128 the rows split at half
    their count rounded down to a multiple of 8, and the two halves' sums are
    added.
    """
    n = e.shape[0]
    if n < 8:
        return np.add.reduce(e, axis=0)
    if n > _PAIRWISE_BLOCK:
        half = n // 2 - n // 2 % 8
        return _class_sum(e[:half]) + _class_sum(e[half:])
    stop = n - n % 8
    r = e[:8].copy()
    for s in range(8, stop, 8):
        r += e[s : s + 8]
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    total = r[0] + r[1]
    for c in range(stop, n):
        total += e[c]
    return total


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the classes of (classes, rows) logits, the layout
    `Scorer.logits` returns: each column equals the row-wise log-softmax of
    the (rows, classes) transpose bit for bit, without a per-row reduction."""
    # np.maximum.reduce is what `max` calls, minus its Python-level argument
    # handling; a maximum is exact in any order
    log_probs = logits - np.maximum.reduce(logits, axis=0)
    log_probs -= np.log(_class_sum(np.exp(log_probs)))
    return log_probs


def label_entries(log_probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Flat position of each row's label entry in (classes, rows) log_probs."""
    rows = log_probs.shape[1]
    return labels * rows + np.arange(rows)


def _mean_nll(log_probs: np.ndarray, at: np.ndarray) -> float:
    """Mean negative log-likelihood of the entries at flat positions `at`;
    `mean` is this sum divided by the count."""
    loss = -float(np.add.reduce(log_probs.take(at)) / len(at))
    if not math.isfinite(loss):
        raise NumericalError("non-finite loss")
    return loss


def forward(params: ParamVector, batch: Batch):
    """Logits and mean softmax cross-entropy loss."""
    _, _, logits = _forward_cached(params, batch)
    log_probs = log_softmax(np.ascontiguousarray(logits.T))
    return logits, _mean_nll(log_probs, label_entries(log_probs, batch.labels))


def loss_and_grad(params: ParamVector, batch: Batch) -> tuple[float, ParamVector]:
    """Mean loss and its gradient from a single forward/backward pass.

    The backward pass writes each layer's gradient straight into its slot of
    the flat result and reuses its intermediates in place; every value is
    computed by the same operations in the same order as the textbook
    `(delta @ w) * (a > 0)` chain, so the result is the same bit for bit.
    """
    layers, activations, logits = _forward_cached(params, batch)
    delta = log_softmax(np.ascontiguousarray(logits.T))
    at = label_entries(delta, batch.labels)
    loss = _mean_nll(delta, at)
    np.exp(delta, out=delta)  # softmax probabilities
    flat = delta.reshape(-1)  # a view: delta is C-contiguous
    flat[at] -= 1.0
    delta /= len(at)
    # back to (rows, classes): the bias gradient's reduction over axis 0 adds
    # the rows in order only on a row-major delta
    delta = np.ascontiguousarray(delta.T)

    grad = np.empty_like(params.values)
    layer_slots = _layout(params.layer_map).layers
    for i in range(len(layers) - 1, -1, -1):
        (ws, we, w_shape), (bs, be, _) = layer_slots[i]
        np.matmul(delta.T, activations[i], out=grad[ws:we].reshape(w_shape))
        np.add.reduce(delta, axis=0, out=grad[bs:be])
        if i > 0:
            delta = delta @ layers[i][0]
            delta *= activations[i] > 0.0
    return loss, ParamVector(grad, params.layer_map)


def clip(v: np.ndarray, c: float) -> np.ndarray:
    """Radial projection onto the ball of radius c; the zero vector stays 0.

    The computed norm of the result is <= c, so clipping twice returns the
    same array bit for bit.
    """
    if not c > 0:
        raise DomainError(f"clipping radius must be > 0, got {c}")
    v = np.asarray(v, dtype=np.float64)
    length = vector_norm(v)
    if length <= c:
        return v.copy()
    out = v * (c / length)
    # rounding can leave the scaled norm a few ulps above c
    for _ in range(4):
        length = vector_norm(out)
        if length <= c:
            return out
        out = out * (c / length)
    return out * (1.0 - 1e-15)


def _first_layer(w, b, inputs_list, out=None) -> np.ndarray:
    """(len(w), rows) products w x^T + b of every set's rows, in order,
    feature-major, written into `out` when it is given.

    Each set's product goes into that set's column range of one buffer, so
    the inputs are never stacked.  With the first layer's (w, b) these are its
    pre-activations.
    """
    if out is None:
        out = np.empty((w.shape[0], sum(len(x) for x in inputs_list)))
    start = 0
    for x in inputs_list:
        np.matmul(w, x.T, out=out[:, start : start + len(x)])
        start += len(x)
    out += b[:, None]
    return out


def _later_layers(layers, h, scratch=None) -> np.ndarray:
    """(classes, rows) logits from the first layer's (hidden, rows)
    pre-activations h: the ReLU and every layer after the first.  With few
    classes, `w @ h` into a (classes, rows) array is several times faster
    than the row-major `h @ w.T` of `_forward_pass`.

    Without `scratch` the ReLU runs in place on h.  With a (hidden, cols)
    scratch h is left as it is: the ReLU of each chunk of cols columns goes
    into the scratch and the second layer's product into that chunk's
    columns, so the activations never take a second (hidden, rows) array.
    At 256x256 @ 256x2500 the chunked product equals the whole one bit for
    bit (a test pins it); BLAS need not promise that at every shape.
    """
    for w, b in layers[1:]:
        if scratch is None:
            np.maximum(h, 0.0, out=h)
            h = w @ h
        else:
            out = np.empty((w.shape[0], h.shape[1]))
            for s in range(0, h.shape[1], scratch.shape[1]):
                e = min(s + scratch.shape[1], h.shape[1])
                relu = np.maximum(h[:, s:e], 0.0, out=scratch[:, : e - s])
                np.matmul(w, relu, out=out[:, s:e])
            h, scratch = out, None
        h += b[:, None]
    return h


# columns of the first layer's activations that one scratch chunk holds
_SCRATCH_COLUMNS = 512


class Scorer:
    """Correct predictions in fixed (inputs, labels) sets, counted under any
    parameters with one layer map.

    Preparing checks every set once: (n, input width) inputs with n >= 1, held
    as float64 (float64 input is not copied), and one label in [0, classes)
    per row.  It keeps each row's label position in the (classes, rows)
    logits, so a call costs one forward pass over the rows of all sets and
    one hit count.

    A row is a hit when its label's logit equals the column maximum and every
    lower class's logit is strictly below it: the argmax with ties going to
    the lowest class, without building the argmax.  `logits`, `hits` and
    `step_hits` raise on non-finite parameters, as `forward` does, and
    `count` on a NaN logit.

    `inputs` holds the caller's arrays.  When the first layer's fan-in + 1 is
    at most its width, as at the blob configs' 8-12 and 8-16 layers, the
    scorer also keeps one contiguous (fan-in + 1, rows) copy of every set's
    inputs, feature-major, with a final row of ones: the first layer's
    pre-activations H1 = W1 X^T + b1 are then one GEMM [W1 | b1] @ [X^T; 1].
    That is about twice as fast as one GEMM per set on transposed row-major
    inputs plus a pass adding b1, and the copy is never larger than H1.  A
    wider fan-in (784-256) takes the per-set path and no copy.

    `step_hits` keeps H1 (hidden, rows) in one buffer, which `hits` then
    writes into instead of allocating another.  Without it `hits` allocates
    H1 afresh, as `logits` always does: a buffer freed on every call keeps
    glibc serving the call's temporaries from its heap, where one kept from
    a cold start left them to mmap, with page faults on every call.
    """

    __slots__ = ("layer_map", "inputs", "_at", "_ends", "_xt1", "_h1", "_prev")

    def __init__(self, layer_map: tuple, sets) -> None:
        layers = _layout(layer_map).layers
        if not layers:
            raise DomainError("layer map has no fc layers")
        (_, _, (hidden, width)), _ = layers[0]
        (_, _, (classes, _)), _ = layers[-1]
        self.layer_map = layer_map
        self.inputs, labels = [], []
        for x, y in sets:
            x = np.asarray(x, dtype=np.float64)
            if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != width:
                raise DomainError(
                    f"scoring needs (n, {width}) inputs with at least one row, "
                    f"got shape {x.shape}"
                )
            y = np.asarray(y, dtype=np.int64)
            if y.shape != (len(x),):
                raise DomainError(
                    f"scoring needs one label per input row, got labels of shape "
                    f"{y.shape} for {len(x)} rows"
                )
            if y.min() < 0 or y.max() >= classes:
                raise DomainError("label out of range for the output layer")
            self.inputs.append(x)
            labels.append(y)
        self._ends = np.cumsum([len(y) for y in labels], dtype=np.int64).tolist()
        labels = np.concatenate(labels) if labels else np.empty(0, dtype=np.int64)
        # flat position of each row's label entry in (classes, rows) C order
        self._at = labels * len(labels) + np.arange(len(labels))
        self._xt1 = None
        if width + 1 <= hidden:
            self._xt1 = np.empty((width + 1, len(labels)))
            start = 0
            for x in self.inputs:
                self._xt1[:width, start : start + len(x)] = x.T
                start += len(x)
            self._xt1[width] = 1.0
        self._h1 = self._prev = None

    def _layers(self, params: ParamVector):
        """The layer views of `params`, which must have the scorer's layer map
        and be finite, as in `forward`."""
        if params.layer_map != self.layer_map:
            raise DomainError("parameters do not match the scorer's layer map")
        _check_finite(params)
        return _weights(params)

    def _product(self, w, b, out=None) -> np.ndarray:
        """(len(w), rows) products w x^T + b of every set's rows, in order,
        written into `out` when it is given: one GEMM over the kept copy of
        the inputs, or else one per set."""
        if self._xt1 is None:
            return _first_layer(w, b, self.inputs, out)
        return np.matmul(np.concatenate((w, b[:, None]), axis=1), self._xt1, out=out)

    def logits(self, params: ParamVector) -> np.ndarray:
        """(classes, rows) logits of every set's rows, in order."""
        layers = self._layers(params)
        return _later_layers(layers, self._product(*layers[0]))

    def count(self, logits: np.ndarray) -> list[int]:
        """Hits in each set, from the logits of `logits(params)`."""
        classes, rows = logits.shape
        # best[c] is the maximum over the classes below c; none lie below 0
        best = np.empty((classes + 1, rows))
        best[0] = np.nan
        np.copyto(best[1], logits[0])
        for c in range(1, classes):
            np.maximum(best[c], logits[c], out=best[c + 1])
        top = best[classes]
        # np.maximum carries a NaN of any class into the column maximum
        if np.isnan(top).any():
            raise NumericalError("non-finite logits")
        label = logits.take(self._at)
        hit = label == top
        # the label is the maximum, so a lower class ties it or lies below;
        # the NaN below class 0 is unequal to any logit
        hit &= best.take(self._at) != label
        counts, start = [], 0
        for end in self._ends:
            counts.append(int(np.count_nonzero(hit[start:end])))
            start = end
        return counts

    def hits(self, params: ParamVector) -> list[int]:
        """Hits in each set under `params`, from H1 computed afresh; the
        ReLU runs in place on H1, so the next `step_hits` starts afresh too."""
        layers = self._layers(params)
        self._prev = None
        # no name holds H1, so a fresh one is freed before the count
        return self.count(_later_layers(layers, self._product(*layers[0], out=self._h1)))

    def step_hits(self, params: ParamVector, span: np.ndarray | None) -> list[int]:
        """Hits in each set under `params`, the result of a noisy step from
        the parameters of the previous `step_hits` call that moved
        B1 = [W1 | b1] only inside the columns of `span` (None: not at all).

        Such a step moves H1 by span (D_W X^T + D_b) with
        D = span^T (B1_t - B1_{t-1}): a rank-r change for r columns, made per
        set into its column range.  The first call, and the first after a
        direct pass, compute H1 directly.  The previous parameters are kept
        by reference, so the caller must not write into a vector it passed.
        A (hidden, 512) scratch holds span @ T before it is added, and
        another the ReLU that feeds the second layer; each lives only while
        it is used, so a call takes at most one scratch more than `hits`.
        """
        layers = self._layers(params)
        w, b = layers[0]
        if self._prev is None:
            self._h1 = self._product(w, b, out=self._h1)
        elif span is not None:
            self._update(span, w - self._prev[0], b - self._prev[1])
        self._prev = w, b
        return self.count(_later_layers(layers, self._h1, self._scratch()))

    def _scratch(self) -> np.ndarray:
        hidden, rows = self._h1.shape
        return np.empty((hidden, min(_SCRATCH_COLUMNS, rows)))

    def _update(self, a: np.ndarray, dw: np.ndarray, db: np.ndarray) -> None:
        """H1 += a (a^T dw X^T + a^T db), one scratch of columns at a time."""
        h1, scratch = self._h1, self._scratch()
        t = self._product(a.T @ dw, a.T @ db)
        cols = scratch.shape[1]
        for s in range(0, h1.shape[1], cols):
            e = min(s + cols, h1.shape[1])
            h1[:, s:e] += np.matmul(a, t[:, s:e], out=scratch[:, : e - s])


def accuracy(params: ParamVector, inputs: np.ndarray, labels: np.ndarray) -> float:
    scorer = Scorer(params.layer_map, [(inputs, labels)])
    # the count of hits is exact, so this rounds count / n once, as the mean does
    return scorer.count(scorer.logits(params))[0] / len(inputs)


def save_params(params: ParamVector, path) -> None:
    """Versioned little-endian binary checkpoint."""
    header = json.dumps(
        {
            "d": params.d,
            "layer_map": [[n, list(s), o] for n, s, o in params.layer_map],
        }
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(header)))
        fh.write(header)
        fh.write(params.values.astype("<f8").tobytes())


def load_params(path) -> ParamVector:
    with open(path, "rb") as fh:
        magic = fh.read(len(_CKPT_MAGIC))
        if magic != _CKPT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}")
        version, header_len = struct.unpack("<II", read_exactly(fh, 8, "checkpoint header"))
        if version != _CKPT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        raw = read_exactly(fh, header_len, "checkpoint header")
        try:
            header = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise FormatError(f"corrupt checkpoint header: {exc}") from exc
        d, lm = _header_fields(header)
        payload = read_exactly(fh, d * 8, "checkpoint payload")
        values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
        return ParamVector(values, lm)


def _header_fields(header) -> tuple[int, tuple]:
    """`d` and the layer map of a checkpoint header, checked for shape, type and extent."""

    def is_count(x) -> bool:
        return type(x) is int and x >= 0

    try:
        d, entries = header["d"], header["layer_map"]
        lm = tuple((name, tuple(shape), offset) for name, shape, offset in entries)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed checkpoint header: {exc!r}") from exc
    if not (is_count(d) and lm and all(
        isinstance(name, str) and is_count(offset) and all(is_count(s) for s in shape)
        for name, shape, offset in lm
    )):
        raise FormatError("malformed checkpoint header: ill-typed d or layer_map")
    try:
        extent = layer_map_dim(lm)
    except DomainError as exc:
        raise FormatError(f"malformed checkpoint header: {exc}") from exc
    if extent != d:
        raise FormatError(f"checkpoint d = {d} does not match its layer map")
    return d, lm
