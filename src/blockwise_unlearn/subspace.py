"""Orthogonal block decompositions of flattened parameter vectors.

A basis partitions R^d into k mutually orthogonal subspaces spanned by the
column groups of an implicit orthonormal matrix A = [A_1 ... A_k].  Matrix
strategies build one m x m rotation per layer (m = output dimension), so the
global A is never materialized; index strategies are coordinate partitions
and act as permutations.

Layer maps are sequences of (name, shape, offset) entries covering a flat
float64 vector.  A 1-D entry whose length equals the leading dimension of the
immediately preceding 2-D entry is treated as that layer's bias and rotated
together with the weight rows; other entries form their own group.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def gather(self, w: np.ndarray) -> np.ndarray:
        x = np.empty((self.m, self.cols), dtype=np.float64)
        for offset, cs, ce in self.parts:
            x[:, cs:ce] = w[offset : offset + self.m * (ce - cs)].reshape(
                self.m, ce - cs
            )
        return x

    def scatter(self, w: np.ndarray, x: np.ndarray) -> None:
        for offset, cs, ce in self.parts:
            w[offset : offset + self.m * (ce - cs)] = x[:, cs:ce].ravel()


@dataclass(frozen=True)
class _Rotation:
    q: np.ndarray  # (m, m) orthonormal
    row_groups: tuple[np.ndarray, ...]  # k index arrays into the m rows of B


@dataclass(frozen=True)
class BlockBasis:
    strategy: str
    d: int
    k: int
    seed: int | None
    sizes: tuple[int, ...]
    layer_map: LayerMap
    index_sets: tuple[np.ndarray, ...] | None = None
    groups: tuple[_Group, ...] | None = None
    rotations: tuple[_Rotation, ...] | None = None

    def __post_init__(self) -> None:
        if sum(self.sizes) != self.d:
            raise DomainError(
                f"block sizes {self.sizes} do not sum to d={self.d}"
            )
        if len(self.sizes) != self.k:
            raise DomainError("sizes/k mismatch")
        if self.index_sets is not None:
            merged = np.sort(np.concatenate([s for s in self.index_sets]))
            if merged.shape != (self.d,) or not np.array_equal(
                merged, np.arange(self.d)
            ):
                raise DomainError("index sets do not partition the coordinates")
        else:
            self._check_rotations()

    def _check_rotations(self) -> None:
        """The rotation groups tile the layer map exactly, and each rotation is
        an (m, m) matrix whose k row groups partition range(m)."""
        if (
            layer_map_dim(self.layer_map) != self.d
            or self.groups != tuple(_layer_groups(self.layer_map))
            or len(self.rotations) != len(self.groups)
        ):
            raise DomainError("rotation groups do not tile the layer map")
        sizes = np.zeros(self.k, dtype=np.int64)
        for g, rot in zip(self.groups, self.rotations):
            if np.shape(rot.q) != (g.m, g.m):
                raise DomainError(f"rotation of shape {np.shape(rot.q)} for {g.m} rows")
            if len(rot.row_groups) != self.k or not np.array_equal(
                np.sort(np.concatenate(rot.row_groups)), np.arange(g.m)
            ):
                raise DomainError(f"row groups do not partition the {g.m} rows into k blocks")
            sizes += [len(r) * g.cols for r in rot.row_groups]
        if tuple(sizes) != self.sizes:
            raise DomainError(f"block sizes {self.sizes} do not match the row groups")

    @property
    def is_index(self) -> bool:
        return self.index_sets is not None


def layer_map_dim(layer_map) -> int:
    d = 0
    for name, shape, offset in layer_map:
        size = int(np.prod(shape)) if len(shape) else 1
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
    """Right-looking modified Gram-Schmidt with one reorthogonalization pass."""
    q = np.array(a, dtype=np.float64, copy=True)
    m = q.shape[1]
    for _ in range(2):
        for i in range(m):
            norm = np.linalg.norm(q[:, i])
            if norm < 1e-12:
                raise DomainError("rank-deficient draw during orthogonalization")
            q[:, i] /= norm
            if i + 1 < m:
                q[:, i + 1 :] -= np.outer(q[:, i], q[:, i] @ q[:, i + 1 :])
    return q


def _group_coords(group: _Group, rows: np.ndarray) -> np.ndarray:
    """Flat coordinates covered by the given rows of a group."""
    coords = []
    for offset, cs, ce in group.parts:
        width = ce - cs
        base = offset + rows[:, None] * width
        coords.append((base + np.arange(width)[None, :]).ravel())
    return np.concatenate(coords) if coords else np.empty(0, dtype=np.int64)


def build_basis(strategy: str, layer_map, k: int, seed: int = 0) -> BlockBasis:
    """Construct a k-block basis over the layer map.

    random_orthonormal: per layer, a seeded Gaussian draw orthonormalized by
    modified Gram-Schmidt; column groups of nearly equal size (difference at
    most one row per layer).  permutation: per layer, a seeded permutation of
    the rows, split into nearly equal groups.  layer_cyclic: layer l goes to
    block l mod k.  head_body: k = 2, block 0 is the final layer (the head),
    block 1 everything else.
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
    rng = np.random.default_rng(seed)

    if strategy == RANDOM_ORTHONORMAL:
        rotations = []
        sizes = np.zeros(k, dtype=np.int64)
        for g in groups:
            q = _orthonormalize(rng.standard_normal((g.m, g.m)))
            counts = _split_counts(g.m, k)
            edges = np.cumsum([0] + counts)
            row_groups = tuple(
                np.arange(edges[i], edges[i + 1]) for i in range(k)
            )
            rotations.append(_Rotation(q=q, row_groups=row_groups))
            sizes += np.array(counts) * g.cols
        return BlockBasis(
            strategy=strategy, d=d, k=k, seed=seed, sizes=tuple(int(s) for s in sizes),
            layer_map=layer_map, groups=tuple(groups), rotations=tuple(rotations),
        )

    if strategy == PERMUTATION:
        sets: list[list[np.ndarray]] = [[] for _ in range(k)]
        for g in groups:
            perm = rng.permutation(g.m)
            counts = _split_counts(g.m, k)
            edges = np.cumsum([0] + counts)
            for i in range(k):
                rows = np.sort(perm[edges[i] : edges[i + 1]])
                sets[i].append(_group_coords(g, rows))
        index_sets = tuple(
            np.sort(np.concatenate(s)) if s else np.empty(0, dtype=np.int64)
            for s in sets
        )
        return BlockBasis(
            strategy=strategy, d=d, k=k, seed=seed,
            sizes=tuple(int(s.size) for s in index_sets),
            layer_map=layer_map, index_sets=index_sets,
        )

    if strategy == LAYER_CYCLIC:
        if k > len(groups):
            raise DomainError(
                f"layer_cyclic with k={k} but only {len(groups)} layers"
            )
        sets = [[] for _ in range(k)]
        for idx, g in enumerate(groups):
            rows = np.arange(g.m)
            sets[idx % k].append(_group_coords(g, rows))
        index_sets = tuple(np.sort(np.concatenate(s)) for s in sets)
        return BlockBasis(
            strategy=strategy, d=d, k=k, seed=seed,
            sizes=tuple(int(s.size) for s in index_sets),
            layer_map=layer_map, index_sets=index_sets,
        )

    # head_body
    if k != 2:
        raise DomainError("head_body requires exactly k=2 blocks")
    if len(groups) < 2:
        raise DomainError("head_body needs at least two layers")
    head = _group_coords(groups[-1], np.arange(groups[-1].m))
    body = np.sort(
        np.concatenate(
            [_group_coords(g, np.arange(g.m)) for g in groups[:-1]]
        )
    )
    index_sets = (np.sort(head), body)
    return BlockBasis(
        strategy=strategy, d=d, k=k, seed=seed,
        sizes=tuple(int(s.size) for s in index_sets),
        layer_map=layer_map, index_sets=index_sets,
    )


def basis_from_index_sets(layer_map, sets) -> BlockBasis:
    """Basis acting as a pure coordinate partition (A is a permutation)."""
    layer_map = tuple((n, tuple(s), int(o)) for n, s, o in layer_map)
    d = layer_map_dim(layer_map)
    index_sets = tuple(np.asarray(s, dtype=np.int64) for s in sets)
    return BlockBasis(
        strategy=PERMUTATION, d=d, k=len(index_sets), seed=None,
        sizes=tuple(int(s.size) for s in index_sets),
        layer_map=layer_map, index_sets=index_sets,
    )


def _check_dim(w: np.ndarray, basis: BlockBasis) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (basis.d,):
        raise DomainError(f"vector shape {w.shape} does not match d={basis.d}")
    return w


def decompose(w, basis: BlockBasis) -> list[np.ndarray]:
    """Block coordinates [B_1, ..., B_k] with w = sum_i A_i B_i."""
    w = _check_dim(w, basis)
    if basis.is_index:
        return [w[s].copy() for s in basis.index_sets]
    out = [np.empty(r, dtype=np.float64) for r in basis.sizes]
    pos = [0] * basis.k
    for g, rot in zip(basis.groups, basis.rotations):
        b = rot.q.T @ g.gather(w)
        for i, rows in enumerate(rot.row_groups):
            chunk = b[rows].ravel()
            out[i][pos[i] : pos[i] + chunk.size] = chunk
            pos[i] += chunk.size
    return out


def reconstruct(blocks, basis: BlockBasis) -> np.ndarray:
    """Inverse of decompose."""
    if len(blocks) != basis.k:
        raise DomainError(f"expected {basis.k} blocks, got {len(blocks)}")
    for i, b in enumerate(blocks):
        if np.asarray(b).shape != (basis.sizes[i],):
            raise DomainError(f"block {i} has wrong size")
    w = np.zeros(basis.d, dtype=np.float64)
    if basis.is_index:
        for s, b in zip(basis.index_sets, blocks):
            w[s] = b
        return w
    pos = [0] * basis.k
    for g, rot in zip(basis.groups, basis.rotations):
        b = np.zeros((g.m, g.cols), dtype=np.float64)
        for i, rows in enumerate(rot.row_groups):
            n = rows.size * g.cols
            b[rows] = np.asarray(blocks[i])[pos[i] : pos[i] + n].reshape(
                rows.size, g.cols
            )
            pos[i] += n
        g.scatter(w, rot.q @ b)
    return w


def project_block(w, basis: BlockBasis, i: int) -> np.ndarray:
    """Block-i coordinates of w (the i-th entry of decompose, computed alone)."""
    w = _check_dim(w, basis)
    if not 0 <= i < basis.k:
        raise DomainError(f"block index {i} out of range")
    if basis.is_index:
        return w[basis.index_sets[i]].copy()
    out = np.empty(basis.sizes[i], dtype=np.float64)
    pos = 0
    for g, rot in zip(basis.groups, basis.rotations):
        rows = rot.row_groups[i]
        chunk = (rot.q[:, rows].T @ g.gather(w)).ravel()
        out[pos : pos + chunk.size] = chunk
        pos += chunk.size
    return out


def lift_block(b, basis: BlockBasis, i: int) -> np.ndarray:
    """Map block-i coordinates back into R^d (A_i b)."""
    b = np.asarray(b, dtype=np.float64)
    if not 0 <= i < basis.k:
        raise DomainError(f"block index {i} out of range")
    if b.shape != (basis.sizes[i],):
        raise DomainError(f"block {i} has wrong size {b.shape}")
    w = np.zeros(basis.d, dtype=np.float64)
    if basis.is_index:
        w[basis.index_sets[i]] = b
        return w
    pos = 0
    for g, rot in zip(basis.groups, basis.rotations):
        rows = rot.row_groups[i]
        n = rows.size * g.cols
        g.scatter(w, rot.q[:, rows] @ b[pos : pos + n].reshape(rows.size, g.cols))
        pos += n
    return w


def gap(w, w_other, basis: BlockBasis) -> np.ndarray:
    """Per-block Euclidean distances z_i = ||B_i - B_i'|| between two vectors."""
    w = _check_dim(w, basis)
    w_other = _check_dim(w_other, basis)
    diff = decompose(w - w_other, basis)
    return np.array([np.linalg.norm(b) for b in diff])


def sample_block_noise(basis: BlockBasis, i: int, sigma2: float, rng) -> np.ndarray:
    """Gaussian noise supported on block i: A_i zeta, zeta ~ N(0, sigma2 I).

    sigma2 = 0 returns zeros without consuming the generator.
    """
    if sigma2 < 0:
        raise DomainError(f"sigma2 must be >= 0, got {sigma2}")
    if not 0 <= i < basis.k:
        raise DomainError(f"block index {i} out of range")
    if sigma2 == 0.0:
        return np.zeros(basis.d, dtype=np.float64)
    zeta = rng.standard_normal(basis.sizes[i]) * np.sqrt(sigma2)
    return lift_block(zeta, basis, i)


def orthogonality_defect(basis: BlockBasis) -> float:
    """max |A^T A - I| computed per layer rotation (0 for index strategies)."""
    if basis.is_index:
        return 0.0
    defect = 0.0
    for rot in basis.rotations:
        m = rot.q.shape[0]
        defect = max(defect, float(np.max(np.abs(rot.q.T @ rot.q - np.eye(m)))))
    return defect


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
