"""Orthogonal block decompositions of flattened parameter vectors.

A basis partitions R^d into k mutually orthogonal subspaces spanned by the
column groups of an implicit orthonormal matrix A = [A_1 ... A_k].  Every
strategy has one representation: per layer, an m x m rotation q (m = output
dimension) and k row groups that partition its m rows, so the global A is
never materialized.  A coordinate partition is the identity rotation
(q = None) with its rows split into groups; its block coordinates are the
chosen rows' flat coordinates in flat-vector order.

Layer maps are sequences of (name, shape, offset) entries covering a flat
float64 vector.  A 1-D entry whose length equals the leading dimension of the
immediately preceding 2-D entry is treated as that layer's bias and rotated
together with the weight rows; other entries form their own group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DomainError

RANDOM_ORTHONORMAL = "random_orthonormal"
PERMUTATION = "permutation"
LAYER_CYCLIC = "layer_cyclic"
HEAD_BODY = "head_body"

STRATEGIES = (RANDOM_ORTHONORMAL, PERMUTATION, LAYER_CYCLIC, HEAD_BODY)

LayerMap = tuple[tuple[str, tuple[int, ...], int], ...]


@dataclass(frozen=True)
class _Group:
    """One rotation unit: an (m, cols) view spliced out of the flat vector.

    parts are (flat_offset, col_start, col_end) spans; the weight matrix
    occupies columns [0, n) and an attached bias column n.
    """

    m: int
    cols: int
    parts: tuple[tuple[int, int, int], ...]

    def part(self, w: np.ndarray, offset: int, width: int) -> np.ndarray:
        """(m, width) view of one part of w: the weights or the bias."""
        return w[offset : offset + self.m * width].reshape(self.m, width)

    def gather(self, w: np.ndarray) -> np.ndarray:
        x = np.empty((self.m, self.cols), dtype=np.float64)
        for offset, cs, ce in self.parts:
            x[:, cs:ce] = self.part(w, offset, ce - cs)
        return x

    def scatter(self, w: np.ndarray, x: np.ndarray) -> None:
        for offset, cs, ce in self.parts:
            self.part(w, offset, ce - cs)[:] = x[:, cs:ce]


@dataclass(frozen=True)
class _Rotation:
    q: np.ndarray | None  # (m, m) orthonormal; None is the identity
    row_groups: tuple[np.ndarray, ...]  # k index arrays into the m rows of B


@dataclass(frozen=True)
class BlockBasis:
    """What `build_basis` chooses: one rotation per group of the layer map.
    The groups, d, the block sizes and the spans are derived from it once."""

    strategy: str
    k: int
    seed: int
    layer_map: LayerMap
    rotations: tuple[_Rotation, ...]
    groups: tuple[_Group, ...] = field(init=False)
    d: int = field(init=False)
    sizes: tuple[int, ...] = field(init=False)
    # per block, the work of project_block/lift_block, derived once from the
    # rotations so that each call does no indexing set-up
    _spans: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        derive = partial(object.__setattr__, self)
        derive("groups", tuple(_layer_groups(self.layer_map)))
        derive("d", layer_map_dim(self.layer_map))
        self._check_rotations()
        derive("_spans", tuple(self._block_spans(i) for i in range(self.k)))
        # a block's coordinates end where its last span stops
        derive("sizes", tuple(spans[-1][1] if spans else 0 for spans in self._spans))

    def _check_rotations(self) -> None:
        """One rotation per layer group, each the identity or an (m, m) matrix,
        whose k row groups partition range(m)."""
        if len(self.rotations) != len(self.groups):
            raise DomainError(f"{len(self.rotations)} rotations for {len(self.groups)} layer groups")
        for g, rot in zip(self.groups, self.rotations):
            if rot.q is not None and np.shape(rot.q) != (g.m, g.m):
                raise DomainError(f"rotation of shape {np.shape(rot.q)} for {g.m} rows")
            if len(rot.row_groups) != self.k or not np.array_equal(
                np.sort(np.concatenate(rot.row_groups)), np.arange(g.m)
            ):
                raise DomainError(f"row groups do not partition the {g.m} rows into k blocks")

    def _block_spans(self, i: int) -> tuple:
        """Block i's coordinates as consecutive spans (start, stop, group, a),
        one per group with rows in block i.

        A rotated group's span holds q[:, rows]^T B, with a = q[:, rows] (the
        same array the product used to index out on every call).  An identity
        group's span holds w[a], a being its chosen rows' flat coordinates in
        flat-vector order (the weight rows, then their biases); its group is
        None.
        """
        spans, pos = [], 0
        for g, rot in zip(self.groups, self.rotations):
            rows = rot.row_groups[i]
            if rows.size == 0:
                continue
            stop = pos + rows.size * g.cols
            if rot.q is not None:
                spans.append((pos, stop, g, rot.q[:, rows]))
            else:
                flat = np.concatenate([
                    (offset + rows[:, None] * (ce - cs) + np.arange(ce - cs)).ravel()
                    for offset, cs, ce in g.parts
                ])
                spans.append((pos, stop, None, flat))
            pos = stop
        return tuple(spans)


def layer_map_dim(layer_map) -> int:
    """The length of the flat vector a layer map covers; DomainError unless
    its entries lie contiguously from offset 0."""
    d = 0
    for name, shape, offset in layer_map:
        size = math.prod(shape)
        if offset != d:
            raise DomainError(f"layer map entry {name} is not contiguous")
        d += size
    return d


def _layer_groups(layer_map) -> list[_Group]:
    groups: list[_Group] = []
    entries = list(layer_map)
    i = 0
    while i < len(entries):
        name, shape, offset = entries[i]
        shape = tuple(int(s) for s in shape)
        if len(shape) == 2:
            m, n = shape
            parts = [(int(offset), 0, n)]
            cols = n
            if i + 1 < len(entries):
                nname, nshape, noffset = entries[i + 1]
                if len(nshape) == 1 and int(nshape[0]) == m:
                    parts.append((int(noffset), n, n + 1))
                    cols = n + 1
                    i += 1
            groups.append(_Group(m=m, cols=cols, parts=tuple(parts)))
        elif len(shape) == 1:
            groups.append(
                _Group(m=int(shape[0]), cols=1, parts=((int(offset), 0, 1),))
            )
        else:
            raise DomainError(
                f"unsupported parameter rank {len(shape)} for entry {name}"
            )
        i += 1
    return groups


def _split_counts(m: int, k: int) -> list[int]:
    # first (m mod k) groups take the extra coordinate
    base, rem = divmod(m, k)
    return [base + (1 if i < rem else 0) for i in range(k)]


def _orthonormalize(a: np.ndarray) -> np.ndarray:
    """Q of the Householder QR a = QR, with signs chosen so that diag(R) > 0.

    With a positive diagonal the factorization of a full-rank a is unique, so
    Q is the matrix Gram-Schmidt would give on the same columns.
    """
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    if np.any(np.abs(d) < 1e-12):
        raise DomainError("rank-deficient draw during orthogonalization")
    return q * np.sign(d)


def build_basis(strategy: str, layer_map, k: int, seed: int = 0) -> BlockBasis:
    """Construct a k-block basis over the layer map.

    Every strategy gives each layer a rotation q and k row groups; they differ
    only in how q and the rows are picked.  random_orthonormal: the Q factor,
    with diag(R) > 0, of the Householder QR of a seeded Gaussian draw, its rows
    split into nearly equal contiguous groups (sizes differ by at most one row
    per layer).  The coordinate partitions use the identity (q = None):
    permutation splits a seeded permutation of the rows into nearly equal
    groups, layer_cyclic gives layer l to block l mod k, and head_body (k = 2)
    gives the final layer (the head) to block 0 and every other layer to
    block 1.
    """
    if strategy not in STRATEGIES:
        raise DomainError(f"unknown strategy {strategy!r}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    layer_map = tuple((n, tuple(s), int(o)) for n, s, o in layer_map)
    d = layer_map_dim(layer_map)
    if k > d:
        raise DomainError(f"k={k} exceeds parameter dimension d={d}")
    groups = _layer_groups(layer_map)
    if strategy == LAYER_CYCLIC and k > len(groups):
        raise DomainError(f"layer_cyclic with k={k} but only {len(groups)} layers")
    if strategy == HEAD_BODY and k != 2:
        raise DomainError("head_body requires exactly k=2 blocks")
    if strategy == HEAD_BODY and len(groups) < 2:
        raise DomainError("head_body needs at least two layers")
    rng = np.random.default_rng(seed)
    rotations = []
    for layer, g in enumerate(groups):
        q, order = None, np.arange(g.m)
        if strategy == RANDOM_ORTHONORMAL:
            q = _orthonormalize(rng.standard_normal((g.m, g.m)))
        elif strategy == PERMUTATION:
            order = rng.permutation(g.m)
        if strategy in (RANDOM_ORTHONORMAL, PERMUTATION):
            counts = _split_counts(g.m, k)
        else:  # the whole layer goes to one block
            owner = layer % k if strategy == LAYER_CYCLIC else int(layer < len(groups) - 1)
            counts = [g.m if i == owner else 0 for i in range(k)]
        edges = np.cumsum([0] + counts)
        row_groups = tuple(np.sort(order[edges[i] : edges[i + 1]]) for i in range(k))
        rotations.append(_Rotation(q=q, row_groups=row_groups))
    return BlockBasis(strategy=strategy, k=k, seed=seed, layer_map=layer_map,
                      rotations=tuple(rotations))


def _check_dim(w: np.ndarray, basis: BlockBasis) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (basis.d,):
        raise DomainError(f"vector shape {w.shape} does not match d={basis.d}")
    return w


def _check_block(basis: BlockBasis, i: int) -> None:
    if not 0 <= i < basis.k:
        raise DomainError(f"block index {i} out of range")


def decompose(w, basis: BlockBasis) -> list[np.ndarray]:
    """Block coordinates [B_1, ..., B_k] with w = sum_i A_i B_i."""
    return [project_block(w, basis, i) for i in range(basis.k)]


def reconstruct(blocks, basis: BlockBasis) -> np.ndarray:
    """Inverse of decompose."""
    if len(blocks) != basis.k:
        raise DomainError(f"expected {basis.k} blocks, got {len(blocks)}")
    w = np.zeros(basis.d, dtype=np.float64)
    for i, b in enumerate(blocks):
        w += lift_block(b, basis, i)
    return w


def project_block(w, basis: BlockBasis, i: int) -> np.ndarray:
    """Block-i coordinates of w (the i-th entry of decompose).

    A rotated group contributes q[:, rows]^T B row by row; identity groups
    contribute their chosen rows' coordinates in flat-vector order (the weight
    rows, then their biases).
    """
    w = _check_dim(w, basis)
    _check_block(basis, i)
    out = np.empty(basis.sizes[i], dtype=np.float64)
    for start, stop, g, a in basis._spans[i]:
        if g is None:
            np.take(w, a, out=out[start:stop])
        else:
            np.matmul(a.T, g.gather(w), out=out[start:stop].reshape(-1, g.cols))
    return out


def lift_block(b, basis: BlockBasis, i: int) -> np.ndarray:
    """Map block-i coordinates back into R^d (A_i b)."""
    b = np.asarray(b, dtype=np.float64)
    _check_block(basis, i)
    if b.shape != (basis.sizes[i],):
        raise DomainError(f"block {i} has wrong size {b.shape}")
    w = np.zeros(basis.d, dtype=np.float64)
    for start, stop, g, a in basis._spans[i]:
        if g is None:
            w[a] = b[start:stop]
        else:
            g.scatter(w, a @ b[start:stop].reshape(-1, g.cols))
    return w


def vector_norm(x: np.ndarray) -> float:
    """`np.linalg.norm` of a real vector (the root of its dot product with
    itself), without the wrapper's argument handling."""
    return math.sqrt(x.dot(x))


def gap(w, w_other, basis: BlockBasis) -> np.ndarray:
    """Per-block Euclidean distances z_i = ||B_i - B_i'|| between two vectors."""
    w = _check_dim(w, basis)
    w_other = _check_dim(w_other, basis)
    diff = decompose(w - w_other, basis)
    return np.array([vector_norm(b) for b in diff])


def orthogonality_defect(basis: BlockBasis) -> float:
    """max |A^T A - I| computed per layer rotation (0 for the identity)."""
    return max(
        (float(np.max(np.abs(rot.q.T @ rot.q - np.eye(len(rot.q)))))
         for rot in basis.rotations if rot.q is not None),
        default=0.0,
    )


def as_dense(basis: BlockBasis) -> np.ndarray:
    """Materialize A = [A_1 ... A_k] as a (d, d) array; small d only."""
    a = np.empty((basis.d, basis.d), dtype=np.float64)
    col = 0
    for i in range(basis.k):
        eye = np.eye(basis.sizes[i])
        for j in range(basis.sizes[i]):
            a[:, col] = lift_block(eye[j], basis, i)
            col += 1
    return a
