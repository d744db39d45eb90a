import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from blockwise_unlearn import engine as eng
from blockwise_unlearn import subspace as sub
from blockwise_unlearn.errors import DomainError


def mlp_like_map(widths):
    """(weight, bias) layer map matching the model module's layout."""
    entries, offset = [], 0
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        entries.append((f"fc{i + 1}.w", (fan_out, fan_in), offset))
        offset += fan_out * fan_in
        entries.append((f"fc{i + 1}.b", (fan_out,), offset))
        offset += fan_out
    return tuple(entries)


MAP_D8 = (("w", (2, 3), 0), ("b", (2,), 6))  # d = 8
MAP_D64 = mlp_like_map([3, 8, 4])  # 3*8+8 + 8*4+4 = 76... adjusted below
MAP_D64 = (("w1", (8, 4), 0), ("b1", (8,), 32), ("w2", (4, 5), 40), ("b2", (4,), 60))
MAP_D4096 = (("big", (64, 64), 0),)
INDEX_STRATEGIES = (sub.PERMUTATION, sub.LAYER_CYCLIC, sub.HEAD_BODY)


def block_support(basis, i):
    """Flat coordinates that block i's coordinates reach."""
    return np.flatnonzero(sub.lift_block(np.ones(basis.sizes[i]), basis, i))


def block_noise(basis, i, sigma2, rng):
    """The noise a noisy step adds in block i, lifted into R^d."""
    return sub.lift_block(eng.gaussian_noise(basis.sizes[i], sigma2, rng), basis, i)


def reference_index_sets(strategy, widths, k, seed):
    """Each block's sorted flat coordinates for a coordinate partition of
    mlp_like_map(widths), built from the (weight, bias) layout directly."""
    rng = np.random.default_rng(seed)
    sets = [[] for _ in range(k)]
    offset = 0
    layers = list(zip(widths, widths[1:]))
    for layer, (n, m) in enumerate(layers):
        if strategy == sub.PERMUTATION:
            perm = rng.permutation(m)
            base, rem = divmod(m, k)
            edges = np.cumsum([0] + [base + (i < rem) for i in range(k)])
            chosen = [perm[edges[i] : edges[i + 1]] for i in range(k)]
        else:
            owner = layer % k if strategy == sub.LAYER_CYCLIC else int(layer < len(layers) - 1)
            chosen = [np.arange(m if i == owner else 0) for i in range(k)]
        for i, rows in enumerate(chosen):
            sets[i] += [(offset + rows[:, None] * n + np.arange(n)).ravel(),
                        offset + m * n + rows]
        offset += m * (n + 1)
    return [np.sort(np.concatenate(s)) for s in sets]


def test_layer_map_dims():
    assert sub.layer_map_dim(MAP_D8) == 8
    assert sub.layer_map_dim(MAP_D64) == 64
    assert sub.layer_map_dim(MAP_D4096) == 4096
    with pytest.raises(DomainError):
        sub.layer_map_dim((("w", (2, 2), 1),))


class TestBuild:
    def test_single_column_blocks_are_orthonormal(self):
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, (("w", (2, 1), 0),), 2, seed=7)
        a = sub.as_dense(basis)
        assert np.max(np.abs(a.T @ a - np.eye(2))) <= 1e-12
        assert basis.sizes == (1, 1)

    def test_identity_partition_contiguous_slices(self):
        basis = sub.build_basis(sub.PERMUTATION, (("w", (4, 1), 0),), 2)
        basis = dataclasses.replace(basis, rotations=(
            sub._Rotation(q=None, row_groups=(np.arange(2), np.arange(2, 4))),))
        assert np.array_equal(sub.as_dense(basis), np.eye(4))
        w = np.array([1.0, 2.0, 3.0, 4.0])
        b1, b2 = sub.decompose(w, basis)
        assert np.array_equal(b1, [1.0, 2.0]) and np.array_equal(b2, [3.0, 4.0])

    def test_layer_cyclic_assignment(self):
        layer_map = mlp_like_map([2, 3, 3, 3, 3, 2])  # five layers
        basis = sub.build_basis(sub.LAYER_CYCLIC, layer_map, 2)
        groups = sub._layer_groups(layer_map)
        expected_even = sum(
            g.m * g.cols for i, g in enumerate(groups) if i % 2 == 0
        )
        assert basis.sizes[0] == expected_even
        # layers 0, 2, 4 (even) land in block 0
        first_layer_coords = np.arange(2 * 3 + 3)
        assert set(first_layer_coords) <= set(block_support(basis, 0))
        assert not set(first_layer_coords) & set(block_support(basis, 1))

    def test_head_body(self):
        layer_map = mlp_like_map([4, 6, 3])
        basis = sub.build_basis(sub.HEAD_BODY, layer_map, 2)
        # head = final layer (weights+bias): 6*3+3 = 21 coordinates at the end
        assert basis.sizes == (21, 30)
        assert np.array_equal(block_support(basis, 0), np.arange(30, 51))
        with pytest.raises(DomainError):
            sub.build_basis(sub.HEAD_BODY, layer_map, 3)

    def test_nearly_equal_sizes(self):
        for strategy in (sub.RANDOM_ORTHONORMAL, sub.PERMUTATION):
            basis = sub.build_basis(strategy, MAP_D4096, 7, seed=3)
            rows = [s // 64 for s in basis.sizes]  # 64 columns per row group
            assert max(rows) - min(rows) <= 1
            assert sum(basis.sizes) == 4096

    def test_determinism(self):
        for strategy in sub.STRATEGIES[:2]:
            a = sub.build_basis(strategy, MAP_D64, 4, seed=11)
            b = sub.build_basis(strategy, MAP_D64, 4, seed=11)
            for x, y in zip(a.rotations, b.rotations):
                assert (x.q is None) == (y.q is None)
                assert x.q is None or np.array_equal(x.q, y.q)
                assert all(np.array_equal(r, t) for r, t in zip(x.row_groups, y.row_groups))

    def test_k_larger_than_d_rejected(self):
        with pytest.raises(DomainError):
            sub.build_basis(sub.PERMUTATION, (("w", (2, 1), 0),), 3)

    def test_bad_strategy(self):
        with pytest.raises(DomainError):
            sub.build_basis("diagonal", MAP_D8, 2)


class TestCoordinatePartitions:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 12), min_size=2, max_size=4),
        strategy=st.sampled_from(INDEX_STRATEGIES),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_flat_index_sets(self, widths, strategy, k, seed):
        # an identity rotation's row groups act exactly as the sorted flat
        # coordinate sets of the chosen rows: projection gathers them, lifting
        # scatters into them, and block noise lands on them in that order
        try:
            basis = sub.build_basis(strategy, mlp_like_map(widths), k, seed=seed)
        except DomainError:
            assume(False)
        sets = reference_index_sets(strategy, widths, k, seed)
        assert basis.sizes == tuple(len(s) for s in sets)
        w = np.random.default_rng(seed).standard_normal(basis.d)
        for i, coords in enumerate(sets):
            assert np.array_equal(sub.project_block(w, basis, i), w[coords])
            b = np.arange(1.0, len(coords) + 1.0)
            expected = np.zeros(basis.d)
            expected[coords] = b
            assert np.array_equal(sub.lift_block(b, basis, i), expected)
            noise = block_noise(basis, i, 0.3, np.random.default_rng(i))
            expected = np.zeros(basis.d)
            expected[coords] = np.random.default_rng(i).standard_normal(len(coords)) * np.sqrt(0.3)
            assert np.array_equal(noise, expected)
        assert sub.orthogonality_defect(basis) == 0.0


class TestOrthogonality:
    @pytest.mark.parametrize("layer_map,k", [(MAP_D8, 2), (MAP_D64, 4), (MAP_D4096, 8)])
    def test_defect_small(self, layer_map, k):
        for strategy in (sub.RANDOM_ORTHONORMAL, sub.PERMUTATION):
            basis = sub.build_basis(strategy, layer_map, k, seed=5)
            assert sub.orthogonality_defect(basis) <= 1e-10

    def test_defect_matches_dense(self):
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, MAP_D64, 4, seed=9)
        a = sub.as_dense(basis)
        dense_defect = np.max(np.abs(a.T @ a - np.eye(64)))
        assert dense_defect <= 1e-10
        assert abs(dense_defect - sub.orthogonality_defect(basis)) <= 1e-10


def gram_schmidt(a):
    """Right-looking modified Gram-Schmidt with one reorthogonalization pass:
    the rotation's first form, kept as the reference for its sign convention."""
    q = np.array(a, dtype=np.float64, copy=True)
    m = q.shape[1]
    for _ in range(2):
        for i in range(m):
            q[:, i] /= np.linalg.norm(q[:, i])
            if i + 1 < m:
                q[:, i + 1 :] -= np.outer(q[:, i], q[:, i] @ q[:, i + 1 :])
    return q


class TestOrthonormalize:
    @pytest.mark.parametrize("m", [1, 12, 64, 256])
    def test_matches_gram_schmidt(self, m):
        a = np.random.default_rng(m).standard_normal((m, m))
        assert np.max(np.abs(sub._orthonormalize(a) - gram_schmidt(a))) <= 1e-12

    def test_mnist_shape_defect(self):
        layer_map = mlp_like_map([784, 256, 256, 10])
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, layer_map, 10, seed=0)
        assert [len(rot.q) for rot in basis.rotations] == [256, 256, 10]
        assert sub.orthogonality_defect(basis) <= 1e-10

    @pytest.mark.parametrize("column", ["repeated", "zero"])
    def test_rank_deficient_draw_raises(self, column):
        a = np.random.default_rng(3).standard_normal((12, 12))
        a[:, 7] = a[:, 2] if column == "repeated" else 0.0
        with pytest.raises(DomainError, match="rank-deficient"):
            sub._orthonormalize(a)


class TestRoundTrip:
    @pytest.mark.parametrize("layer_map,k", [(MAP_D8, 2), (MAP_D64, 4), (MAP_D4096, 16)])
    @pytest.mark.parametrize("strategy", [sub.RANDOM_ORTHONORMAL, sub.PERMUTATION])
    def test_reconstruct_decompose_identity(self, layer_map, k, strategy):
        d = sub.layer_map_dim(layer_map)
        rng = np.random.default_rng(42)
        basis = sub.build_basis(strategy, layer_map, k, seed=never_used(rng))
        for _ in range(5):
            w = rng.standard_normal(d)
            back = sub.reconstruct(sub.decompose(w, basis), basis)
            assert np.max(np.abs(back - w)) <= 1e-10 * (1 + np.max(np.abs(w)))

    def test_zero_vector(self):
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, MAP_D64, 4, seed=1)
        blocks = sub.decompose(np.zeros(64), basis)
        assert all(np.all(b == 0) for b in blocks)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, MAP_D64, 4, seed=2)
        for _ in range(20):
            w = rng.standard_normal(64)
            blocks = sub.decompose(w, basis)
            total = sum(float(np.linalg.norm(b)) ** 2 for b in blocks)
            assert total == pytest.approx(float(np.linalg.norm(w)) ** 2, rel=1e-8)

    def test_unit_blocks_reconstruct_to_norm_k(self):
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, MAP_D64, 4, seed=2)
        blocks = []
        for r in basis.sizes:
            e = np.zeros(r)
            e[0] = 1.0
            blocks.append(e)
        w = sub.reconstruct(blocks, basis)
        assert float(np.linalg.norm(w)) ** 2 == pytest.approx(4.0, rel=1e-10)

    def test_project_lift_consistency(self):
        rng = np.random.default_rng(4)
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, MAP_D64, 4, seed=8)
        w = rng.standard_normal(64)
        blocks = sub.decompose(w, basis)
        recon = np.zeros(64)
        for i in range(4):
            assert np.allclose(sub.project_block(w, basis, i), blocks[i], atol=1e-12)
            recon += sub.lift_block(blocks[i], basis, i)
        assert np.max(np.abs(recon - w)) <= 1e-10

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 12), min_size=2, max_size=4),
        strategy=st.sampled_from(sub.STRATEGIES),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_basis_round_trips(self, widths, strategy, k, seed):
        # over MLP layer maps, every strategy and k: decompose/reconstruct and
        # the per-block project/lift pairs both give w back
        try:
            basis = sub.build_basis(strategy, mlp_like_map(widths), k, seed=seed)
        except DomainError:
            assume(False)
        w = np.random.default_rng(seed).standard_normal(basis.d)
        tol = 1e-10 * (1 + np.max(np.abs(w)))
        back = sub.reconstruct(sub.decompose(w, basis), basis)
        assert np.max(np.abs(back - w)) <= tol
        lifted = sum(sub.lift_block(sub.project_block(w, basis, i), basis, i)
                     for i in range(k))
        assert np.max(np.abs(lifted - w)) <= tol

    def test_dimension_mismatch(self):
        basis = sub.build_basis(sub.PERMUTATION, MAP_D8, 2, seed=0)
        with pytest.raises(DomainError):
            sub.decompose(np.zeros(9), basis)
        with pytest.raises(DomainError):
            sub.gap(np.zeros(8), np.zeros(9), basis)


def never_used(rng):
    # fixed seed independent of the sampling rng
    return 1234


class TestGap:
    def test_identical_vectors(self):
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, MAP_D64, 4, seed=5)
        w = np.random.default_rng(0).standard_normal(64)
        assert np.all(sub.gap(w, w, basis) == 0)

    def test_single_block_difference(self):
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, MAP_D64, 4, seed=5)
        w = np.random.default_rng(1).standard_normal(64)
        bump = np.zeros(basis.sizes[2])
        bump[:3] = [1.0, -2.0, 2.0]
        w2 = w + sub.lift_block(bump, basis, 2)
        z = sub.gap(w, w2, basis)
        assert z[2] == pytest.approx(3.0, rel=1e-10)
        others = np.delete(z, 2)
        assert np.all(others <= 1e-9)

    def test_each_block_distance_is_the_numpy_norm_bit_for_bit(self):
        rng = np.random.default_rng(8)
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, MAP_D64, 4, seed=5)
        w, w2 = rng.standard_normal(64), rng.standard_normal(64)
        blocks = sub.decompose(w - w2, basis)
        assert sub.gap(w, w2, basis).tolist() == [np.linalg.norm(b) for b in blocks]

    def test_pythagoras(self):
        rng = np.random.default_rng(6)
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, MAP_D64, 4, seed=5)
        for _ in range(20):
            w, w2 = rng.standard_normal(64), rng.standard_normal(64)
            z = sub.gap(w, w2, basis)
            assert float(np.sum(z**2)) == pytest.approx(
                float(np.linalg.norm(w - w2)) ** 2, rel=1e-8
            )


class TestBlockNoise:
    def test_zero_variance(self):
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, MAP_D8, 2, seed=0)
        rng = np.random.default_rng(0)
        assert np.all(block_noise(basis, 0, 0.0, rng) == 0)

    def test_stays_in_block(self):
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, MAP_D64, 4, seed=3)
        rng = np.random.default_rng(10)
        for i in range(4):
            v = block_noise(basis, i, 2.0, rng)
            mag = np.linalg.norm(v)
            for j in range(4):
                if j != i:
                    leak = np.linalg.norm(sub.project_block(v, basis, j))
                    assert leak <= 1e-10 * mag

    def test_expected_squared_norm(self):
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, MAP_D64, 4, seed=3)
        rng = np.random.default_rng(11)
        sigma2, n = 0.7, 4000
        r = basis.sizes[1]
        norms2 = [
            float(np.sum(block_noise(basis, 1, sigma2, rng) ** 2))
            for _ in range(n)
        ]
        se = sigma2 * np.sqrt(2.0 * r) / np.sqrt(n)
        assert abs(np.mean(norms2) - sigma2 * r) <= 3 * se * np.sqrt(r)

    @pytest.mark.parametrize("strategy", [sub.RANDOM_ORTHONORMAL, sub.PERMUTATION])
    def test_summed_block_noise_is_isotropic(self, strategy):
        # Monte-Carlo covariance oracle: sum of independent per-block noise
        # must reproduce N(0, sigma2 I_d)
        layer_map = (("w", (8, 1), 0),)
        basis = sub.build_basis(strategy, layer_map, 4, seed=21)
        rng = np.random.default_rng(22)
        sigma2, n = 1.0, 20_000
        draws = np.empty((n, 8))
        for t in range(n):
            total = np.zeros(8)
            for i in range(4):
                total += block_noise(basis, i, sigma2, rng)
            draws[t] = total
        cov = draws.T @ draws / n
        dev = np.max(np.abs(cov - sigma2 * np.eye(8)))
        assert dev <= 3.0 * np.sqrt(2.0 / n) * sigma2

    def test_full_block_marginal_is_gaussian(self):
        # k = 1: the single block spans R^d, one coordinate must pass a KS
        # test against N(0, sigma)
        layer_map = (("w", (8, 1), 0),)
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, layer_map, 1, seed=23)
        rng = np.random.default_rng(24)
        sigma2 = 0.5
        draws = np.array(
            [block_noise(basis, 0, sigma2, rng)[3] for _ in range(5000)]
        )
        stat = stats.kstest(draws, "norm", args=(0.0, np.sqrt(sigma2)))
        assert stat.pvalue > 0.01


class TestSerialization:
    @pytest.mark.parametrize("strategy", sub.STRATEGIES)
    def test_round_trip(self, strategy):
        # a cell records its basis as (strategy, k, seed) next to the model's
        # layer map; rebuilding from that record gives the same basis
        k = 2 if strategy == sub.HEAD_BODY else 3
        layer_map = mlp_like_map([4, 6, 5, 3])
        basis = sub.build_basis(strategy, layer_map, k, seed=31)
        record = json.loads(json.dumps(
            {"basis_strategy": basis.strategy, "k": basis.k, "basis_seed": basis.seed}))
        loaded = sub.build_basis(record["basis_strategy"], layer_map, record["k"],
                                 seed=record["basis_seed"])
        assert loaded.strategy == basis.strategy
        assert loaded.sizes == basis.sizes
        assert loaded.layer_map == basis.layer_map
        w = np.random.default_rng(1).standard_normal(basis.d)
        for b1, b2 in zip(sub.decompose(w, basis), sub.decompose(w, loaded)):
            assert np.array_equal(b1, b2)

    @pytest.mark.parametrize("edit", ["deleted_group", "row_groups_missing_a_row"])
    def test_malformed_rotation_file(self, edit):
        # with a group missing, decompose would read uninitialised block memory;
        # a basis whose rotations were edited this way is rejected
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, mlp_like_map([5, 6, 4]), 4, seed=3)
        rotations = list(basis.rotations)
        if edit == "deleted_group":
            del rotations[0]
        else:
            rg = rotations[1].row_groups
            rotations[1] = dataclasses.replace(rotations[1], row_groups=(rg[1],) + rg[1:])
        with pytest.raises(DomainError):
            dataclasses.replace(basis, rotations=tuple(rotations))

    @pytest.mark.parametrize("name", ["groups", "d", "sizes"])
    def test_derived_fields_are_not_given(self, name):
        # the groups, d and the block sizes follow from the layer map and the
        # rotations, so no value can be given for them, not even their own
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, mlp_like_map([5, 6, 4]), 4, seed=3)
        with pytest.raises(ValueError, match=f"field {name} "):
            dataclasses.replace(basis, **{name: getattr(basis, name)})


class TestRotationChecks:
    BASIS = sub.build_basis(sub.RANDOM_ORTHONORMAL, mlp_like_map([5, 6, 4]), 4, seed=3)

    def rebuilt(self, **changes):
        return dataclasses.replace(self.BASIS, **changes)

    def test_groups_must_tile_the_layer_map(self):
        with pytest.raises(DomainError):
            self.rebuilt(rotations=self.BASIS.rotations + self.BASIS.rotations[-1:])
        with pytest.raises(DomainError):
            self.rebuilt(rotations=self.BASIS.rotations[:-1])

    def test_rotation_must_be_square_over_the_rows(self):
        rot = self.BASIS.rotations[0]
        bad = dataclasses.replace(rot, q=rot.q[:, :-1])
        with pytest.raises(DomainError):
            self.rebuilt(rotations=(bad,) + self.BASIS.rotations[1:])

    @pytest.mark.parametrize("row_groups", [
        lambda rg: rg[:-1],                              # k - 1 groups
        lambda rg: (rg[1],) + rg[1:],                    # a row twice, one missing
        lambda rg: rg[:-1] + (np.append(rg[-1], 99),),   # a row out of range
    ])
    def test_row_groups_must_partition_the_rows(self, row_groups):
        rot = self.BASIS.rotations[0]
        bad = dataclasses.replace(rot, row_groups=row_groups(rot.row_groups))
        with pytest.raises(DomainError):
            self.rebuilt(rotations=(bad,) + self.BASIS.rotations[1:])
