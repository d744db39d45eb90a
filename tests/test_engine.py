import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from blockwise_unlearn import datasets as ds
from blockwise_unlearn import engine as eng
from blockwise_unlearn import harness
from blockwise_unlearn import model as mdl
from blockwise_unlearn import subspace as sub
from blockwise_unlearn.accounting import BlockBudget, NoisePlan
from blockwise_unlearn.errors import DomainError

from test_benchmark_contract import counting
from test_model import dim, hits
from test_reference_step import spy_momentum_steps
from test_subspace import block_support


def toy_plan(k=1, sigma2=0.01, steps=2, gamma=0.05, lam=0.1, c1=1.0):
    return NoisePlan(
        budget=BlockBudget(gamma=gamma, lam=lam, c0=0.1, c1=c1, q=2.0, eps_renyi=0.5 / k),
        k=k,
        sigma2=sigma2,
        steps_per_block=steps,
        epsilon=1.0,
        delta=1e-5,
    )


ARCH = mdl.MlpSpec((4, 10, 3))
BLOBS = ds.generate_blobs(600, classes=3, dim=4, separation=4.0, seed=5)


class TestNftStep:
    def test_zero_gradient_fixed_point(self):
        # zero parameters with class-balanced labels give a gradient that is
        # zero up to rounding; with lam = 0 and sigma2 = 0 the step is a no-op
        params = mdl.ParamVector(np.zeros(dim(ARCH)), mdl.layer_map(ARCH))
        batch = mdl.Batch(np.ones((3, 4)), np.array([0, 1, 2]))
        assert np.max(np.abs(mdl.loss_and_grad(params, batch)[1].values)) <= 1e-15
        new, _, noise_norm, _, _ = eng.nft_step(
            params, batch, gamma=0.1, lam=0.0, c1=1.0, sigma2=0.0,
            rng=np.random.default_rng(0),
        )
        assert np.max(np.abs(new.values - params.values)) <= 1e-16
        assert noise_norm == 0.0

    def test_unclipped_step_is_sgd_with_decay(self):
        params = mdl.init_params(ARCH, seed=1)
        batch = mdl.Batch(BLOBS.inputs[:16], BLOBS.labels[:16])
        g = mdl.loss_and_grad(params, batch)[1].values
        c1 = 10.0 * np.linalg.norm(g)  # clip is the identity
        new, _, _, pre, post = eng.nft_step(
            params, batch, gamma=0.05, lam=0.2, c1=c1, sigma2=0.0,
            rng=np.random.default_rng(0),
        )
        expected = params.values - 0.05 * (g + 0.2 * params.values)
        assert np.allclose(new.values, expected, atol=1e-15)
        assert pre == post

    def test_clipping_engages(self):
        params = mdl.init_params(ARCH, seed=1)
        batch = mdl.Batch(BLOBS.inputs[:16], BLOBS.labels[:16])
        _, _, _, pre, post = eng.nft_step(
            params, batch, gamma=0.05, lam=0.0, c1=1e-4, sigma2=0.0,
            rng=np.random.default_rng(0),
        )
        assert post <= 1e-4
        assert pre > post

    def test_seeded_rerun_bit_identical(self):
        params = mdl.init_params(ARCH, seed=1)
        batch = mdl.Batch(BLOBS.inputs[:16], BLOBS.labels[:16])
        a, *_ = eng.nft_step(params, batch, 0.05, 0.1, 1.0, 0.3,
                             np.random.default_rng(123))
        b, *_ = eng.nft_step(params, batch, 0.05, 0.1, 1.0, 0.3,
                             np.random.default_rng(123))
        assert np.array_equal(a.values, b.values)

    def test_gaussian_noise(self):
        rng = np.random.default_rng(5)
        assert np.array_equal(eng.gaussian_noise(7, 0.0, rng), np.zeros(7))
        # a zero variance leaves the generator where it was
        draws = eng.gaussian_noise(7, 0.3, rng)
        assert np.array_equal(draws, np.random.default_rng(5).standard_normal(7) * np.sqrt(0.3))

    @pytest.mark.parametrize("sigma2", [float("nan"), -1.0])
    def test_sigma2_below_zero_or_nan_rejected(self, sigma2):
        params = mdl.init_params(ARCH, seed=1)
        batch = mdl.Batch(BLOBS.inputs[:16], BLOBS.labels[:16])
        with pytest.raises(DomainError, match="sigma2"):
            eng.gaussian_noise(3, sigma2, np.random.default_rng(0))
        with pytest.raises(DomainError, match="sigma2"):
            eng.nft_step(params, batch, 0.05, 0.1, 1.0, sigma2, np.random.default_rng(0))

    def test_block_step_freezes_complement(self):
        params = mdl.init_params(ARCH, seed=2)
        basis = sub.build_basis(sub.PERMUTATION, params.layer_map, 4, seed=3)
        batch = mdl.Batch(BLOBS.inputs[:16], BLOBS.labels[:16])
        new, *_ = eng.nft_step(
            params, batch, 0.05, 0.1, 1.0, 0.3, np.random.default_rng(4),
            basis=basis, block=2,
        )
        frozen = np.concatenate([block_support(basis, j) for j in (0, 1, 3)])
        assert np.max(np.abs(new.values[frozen] - params.values[frozen])) == 0.0

    def test_block_isolation_rotated_basis(self):
        params = mdl.init_params(ARCH, seed=2)
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, params.layer_map, 4, seed=3)
        batch = mdl.Batch(BLOBS.inputs[:16], BLOBS.labels[:16])
        new, *_ = eng.nft_step(
            params, batch, 0.05, 0.1, 1.0, 0.3, np.random.default_rng(4),
            basis=basis, block=1,
        )
        change = new.values - params.values
        mag = np.linalg.norm(change)
        for j in (0, 2, 3):
            leak = np.linalg.norm(sub.project_block(change, basis, j))
            assert leak <= 1e-10 * mag


def small_config(k=1, basis=None, **kw):
    defaults = dict(
        plan=toy_plan(k=k),
        basis=basis,
        batch_size=32,
        fine_tune_steps=5,
        fine_tune_lr=0.02,
        seeds=eng.Seeds(init=1, data_order=2, noise=3),
        step_cap=1000,
    )
    defaults.update(kw)
    return eng.RunConfig(**defaults)


class TestRuns:
    def test_k1_blockwise_equals_nft(self):
        # plain noisy fine-tuning (no basis) equals the k = 1 block schedule
        # over the identity basis
        params = mdl.init_params(ARCH, seed=1)
        retain = (BLOBS.inputs, BLOBS.labels)
        rec_nft = eng.run_blockwise(params, small_config(), retain)
        ident = sub.build_basis(sub.PERMUTATION, params.layer_map, 1)
        rec_ident = eng.run_blockwise(params, small_config(basis=ident), retain)
        assert np.array_equal(rec_nft.final_params.values, rec_ident.final_params.values)
        assert [r.loss for r in rec_nft.rows] == [r.loss for r in rec_ident.rows]

    def test_zero_noise_equals_clipped_finetuning(self):
        params = mdl.init_params(ARCH, seed=1)
        retain = (BLOBS.inputs, BLOBS.labels)
        plan = toy_plan(sigma2=0.0, steps=6)
        rec = eng.run_blockwise(params, small_config(plan=plan, fine_tune_steps=0), retain)
        # replay manually with the same batch order
        order_rng = np.random.default_rng(2)
        replay = params.copy()
        batcher = eng._Batcher(BLOBS.inputs, BLOBS.labels, 32, order_rng)
        for _ in range(6):
            batch = batcher.next()
            g = mdl.loss_and_grad(replay, batch)[1].values
            gc = mdl.clip(g, plan.budget.c1)
            delta = -plan.budget.gamma * (gc + plan.budget.lam * replay.values)
            replay = mdl.ParamVector(replay.values + delta, replay.layer_map)
        assert np.array_equal(rec.final_params.values, replay.values)

    def test_step_accounting_and_phases(self):
        params = mdl.init_params(ARCH, seed=1)
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, params.layer_map, 3, seed=7)
        cfg = small_config(k=3, basis=basis, fine_tune_steps=4)
        rec = eng.run_blockwise(params, cfg, (BLOBS.inputs, BLOBS.labels))
        phases = [r.phase for r in rec.rows]
        for i in (1, 2, 3):
            assert phases.count(f"unlearn_block_{i}") == cfg.plan.steps_per_block
        assert phases.count(eng.PHASE_FINETUNE) == 4
        assert [r.step for r in rec.rows] == list(range(1, len(rec.rows) + 1))

    def test_rerun_bit_identical(self):
        params = mdl.init_params(ARCH, seed=1)
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, params.layer_map, 2, seed=7)
        cfg = small_config(k=2, basis=basis)
        a = eng.run_blockwise(params, cfg, (BLOBS.inputs, BLOBS.labels))
        b = eng.run_blockwise(params, cfg, (BLOBS.inputs, BLOBS.labels))
        assert np.array_equal(a.final_params.values, b.final_params.values)
        assert a.rows == b.rows

    def test_noise_magnitude_matches_variance(self):
        params = mdl.init_params(ARCH, seed=1)
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, params.layer_map, 2, seed=7)
        sigma2 = 0.05
        plan = toy_plan(k=2, sigma2=sigma2, steps=60, gamma=1e-3, lam=1e-3)
        cfg = small_config(k=2, basis=basis, plan=plan, fine_tune_steps=0)
        rec = eng.run_blockwise(params, cfg, (BLOBS.inputs, BLOBS.labels))
        for i in (1, 2):
            r = basis.sizes[i - 1]
            sq = [
                row.noise_norm**2
                for row in rec.rows
                if row.phase == f"unlearn_block_{i}"
            ]
            se = sigma2 * np.sqrt(2.0 * r) / np.sqrt(len(sq))
            assert abs(np.mean(sq) - sigma2 * r) <= 3 * se

    @pytest.mark.parametrize("k", [1, 3])
    def test_nan_sigma2_plan_rejected(self, k):
        # a plan whose variance is NaN would otherwise add no noise at all;
        # the plan itself refuses it, before any run
        with pytest.raises(DomainError, match="sigma2"):
            toy_plan(k=k, sigma2=float("nan"))

    def test_noisy_steps_draw_through_gaussian_noise(self, monkeypatch):
        params = mdl.init_params(ARCH, seed=1)
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, params.layer_map, 3, seed=7)
        calls = counting(monkeypatch, eng, "gaussian_noise")
        rec = eng.run_blockwise(params, small_config(k=3, basis=basis),
                                (BLOBS.inputs, BLOBS.labels))
        assert [n for n, *_ in calls] == [basis.sizes[i] for i in range(3) for _ in range(2)]
        assert [r.noise_norm > 0 for r in rec.rows] == [True] * 6 + [False] * 5

    def test_cap_below_plan_rejected(self):
        params = mdl.init_params(ARCH, seed=1)
        cfg = small_config(plan=toy_plan(steps=30), step_cap=10, fine_tune_steps=None)
        with pytest.raises(DomainError):
            eng.run_blockwise(params, cfg, (BLOBS.inputs, BLOBS.labels))

    def test_negative_fine_tune_steps_rejected(self):
        params = mdl.init_params(ARCH, seed=1)
        with pytest.raises(DomainError, match="fine-tune steps"):
            eng.run_blockwise(params, small_config(fine_tune_steps=-1),
                              (BLOBS.inputs, BLOBS.labels))
        assert small_config(fine_tune_steps=0).resolved_fine_tune_steps() == 0

    def test_fine_tune_fills_cap(self):
        params = mdl.init_params(ARCH, seed=1)
        cfg = small_config(fine_tune_steps=None, step_cap=40)
        rec = eng.run_blockwise(params, cfg, (BLOBS.inputs, BLOBS.labels))
        assert len(rec.rows) == 40

    def test_basis_plan_mismatch(self):
        params = mdl.init_params(ARCH, seed=1)
        basis = sub.build_basis(sub.PERMUTATION, params.layer_map, 3, seed=1)
        with pytest.raises(DomainError):
            eng.run_blockwise(params, small_config(k=2, basis=basis),
                              (BLOBS.inputs, BLOBS.labels))

    def test_touched_rows_within_retain(self):
        params = mdl.init_params(ARCH, seed=1)
        retain = (BLOBS.inputs[:100], BLOBS.labels[:100])
        rec = eng.run_blockwise(params, small_config(), retain)
        assert rec.touched_rows.size > 0
        assert rec.touched_rows.min() >= 0 and rec.touched_rows.max() < 100


class TestEvaluation:
    def test_one_pass_equals_per_set_accuracy(self):
        params = mdl.init_params(ARCH, seed=1)
        sets = eng.EvalSets(test=(BLOBS.inputs[:50], BLOBS.labels[:50]),
                            retain=(BLOBS.inputs[50:451], BLOBS.labels[50:451]),
                            forget=(BLOBS.inputs[451:452], BLOBS.labels[451:452]))
        expected = tuple(mdl.accuracy(params, *pair)
                         for pair in (sets.test, sets.retain, sets.forget))
        assert eng._evaluator(params.layer_map, sets)(params) == expected

    def test_absent_and_empty_sets_score_none(self, monkeypatch):
        params = mdl.init_params(ARCH, seed=1)
        empty = (np.empty((0, 4)), np.empty(0, dtype=np.int64))
        retain = (BLOBS.inputs[:30], BLOBS.labels[:30])
        evaluate = eng._evaluator(params.layer_map,
                                  eng.EvalSets(test=None, retain=retain, forget=empty))
        assert evaluate(params) == (None, mdl.accuracy(params, *retain), None)
        calls = []
        monkeypatch.setattr(mdl, "Scorer", lambda *a: calls.append(a))
        for sets in (eng.EvalSets(forget=empty), eng.EvalSets()):
            assert eng._evaluator(params.layer_map, sets)(params) == (None, None, None)
        assert calls == []

    def test_one_scoring_pass_per_recorded_step(self, monkeypatch):
        params = mdl.init_params(ARCH, seed=1)
        basis = sub.build_basis(sub.PERMUTATION, params.layer_map, 2, seed=7)
        sets = eng.EvalSets(test=(BLOBS.inputs[:40], BLOBS.labels[:40]),
                            retain=(BLOBS.inputs[40:], BLOBS.labels[40:]),
                            forget=(BLOBS.inputs[:10], BLOBS.labels[:10]))
        calls = []
        hits = mdl.Scorer.hits

        def counting_hits(scorer, params):
            calls.append((id(scorer), len(scorer.inputs)))
            return hits(scorer, params)

        monkeypatch.setattr(mdl.Scorer, "hits", counting_hits)
        rec = eng.run_blockwise(params, small_config(k=2, basis=basis),
                                (BLOBS.inputs[40:], BLOBS.labels[40:]), sets)
        assert len(rec.rows) == 2 * 2 + 5
        # one scorer, prepared once for the run, scores all 3 sets per row
        assert [n for _, n in calls] == [3] * len(rec.rows)
        assert len({scorer for scorer, _ in calls}) == 1


def spy_step_params(monkeypatch) -> list:
    """The parameters after every step of a run, noisy or fine-tune, in
    order, while the patch holds."""
    params = []
    nft_step, momentum_step = eng.nft_step, eng._momentum_step

    def nft_spy(*args, **kwargs):
        out = nft_step(*args, **kwargs)
        params.append(out[0])
        return out

    def momentum_spy(*args):
        out = momentum_step(*args)
        params.append(out[0])
        return out

    monkeypatch.setattr(eng, "nft_step", nft_spy)
    monkeypatch.setattr(eng, "_momentum_step", momentum_spy)
    return params


# 100 inputs and 32 first-layer rows: rank-r updates are the cheaper way to
# score the noisy steps from k = 8 (r = 4) on; the 48-row second layer gives
# blocks beyond the 32nd rows there and none in the first layer
WIDE = mdl.MlpSpec((100, 32, 48, 4))
WIDE_DATA = ds.generate_blobs(900, classes=4, dim=100, separation=1.0, seed=11)
WIDE_SETS = eng.EvalSets(test=(WIDE_DATA.inputs[:300], WIDE_DATA.labels[:300]),
                         retain=(WIDE_DATA.inputs[300:], WIDE_DATA.labels[300:]),
                         forget=(WIDE_DATA.inputs[:37], WIDE_DATA.labels[:37]))
MNIST_SHAPE = mdl.MlpSpec((784, 256, 256, 10))
ROOT = Path(__file__).resolve().parents[1]


def blob_config_maps():
    """(layer map, k) of each cell of the shipped blob configs."""
    for name in ("blobs_random10", "blobs_classwise"):
        config = harness.load_config(ROOT / "configs" / f"{name}.json")
        spec = mdl.MlpSpec((config.dataset["dim"], *config.model_hidden,
                            config.dataset["classes"]))
        for k in config.k_values:
            yield mdl.layer_map(spec), k


class TestRankUpdates:
    @pytest.mark.parametrize("widths, k, updates", [
        ((784, 256, 256, 10), 10, True), ((784, 256, 256, 10), 4, False),
        ((100, 32, 4), 8, True), ((100, 32, 4), 10, True), ((100, 32, 4), 4, False),
        ((100, 32, 4), 1, False),
    ])
    def test_cost_rule(self, widths, k, updates):
        lm = mdl.layer_map(mdl.MlpSpec(widths))
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, lm, k, seed=0)
        assert (eng._first_layer_spans(basis, lm) is not None) == updates

    def test_shipped_blob_configs_take_the_direct_pass(self):
        cells = list(blob_config_maps())
        assert len(cells) == 4
        for lm, k in cells:
            basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, lm, k, seed=0)
            assert eng._first_layer_spans(basis, lm) is None

    def test_coordinate_partitions_and_no_basis_take_the_direct_pass(self):
        lm = mdl.layer_map(MNIST_SHAPE)
        assert eng._first_layer_spans(None, lm) is None
        for strategy in (sub.PERMUTATION, sub.LAYER_CYCLIC, sub.HEAD_BODY):
            basis = sub.build_basis(strategy, lm, 2, seed=0)
            assert eng._first_layer_spans(basis, lm) is None
        # a basis of another map with the same d is never read as this one's
        other = mdl.layer_map(mdl.MlpSpec((784, 256, 256, 10)))
        other = tuple((name + "'", shape, offset) for name, shape, offset in other)
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, other, 10, seed=0)
        assert eng._first_layer_spans(basis, lm) is None

    @pytest.mark.parametrize("strategy, k", [
        *((s, k) for s in (sub.RANDOM_ORTHONORMAL, sub.PERMUTATION)
          for k in (1, 2, 4, 8, 10, 32, 40)),
        (sub.LAYER_CYCLIC, 1), (sub.LAYER_CYCLIC, 2), (sub.LAYER_CYCLIC, 3),
        (sub.HEAD_BODY, 2),
    ])
    def test_every_row_scores_as_a_direct_pass(self, monkeypatch, strategy, k):
        params0 = mdl.init_params(WIDE, seed=2)
        basis = sub.build_basis(strategy, params0.layer_map, k, seed=5)
        updates = eng._first_layer_spans(basis, params0.layer_map)
        assert (updates is not None) == (
            strategy == sub.RANDOM_ORTHONORMAL and k >= 8)
        if k == 40 and updates is not None:
            assert updates[35] is None  # a block without first-layer rows
        stepped = spy_step_params(monkeypatch)
        rec = eng.run_blockwise(
            params0, small_config(k=k, basis=basis, plan=toy_plan(k=k, sigma2=0.02)),
            (WIDE_DATA.inputs[300:], WIDE_DATA.labels[300:]), WIDE_SETS,
        )
        assert len(stepped) == len(rec.rows) == 2 * k + 5
        sets = [WIDE_SETS.test, WIDE_SETS.retain, WIDE_SETS.forget]
        for row, params in zip(rec.rows, stepped):
            expected = [n / len(y) for n, (_, y) in zip(hits(params, sets), sets)]
            assert [row.test_acc, row.retain_acc, row.forget_acc] == expected

    def test_long_noisy_phase_tracks_the_direct_product(self, monkeypatch):
        params0 = mdl.init_params(mdl.MlpSpec((100, 32, 4)), seed=3)
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, params0.layer_map, 10, seed=1)
        stepped = spy_step_params(monkeypatch)
        config = small_config(k=10, basis=basis, fine_tune_steps=0,
                              plan=toy_plan(k=10, steps=21, sigma2=0.02))
        rec = eng.run_blockwise(params0, config,
                                (WIDE_DATA.inputs[300:], WIDE_DATA.labels[300:]))
        sets = [WIDE_SETS.test, WIDE_SETS.retain]
        scorer = mdl.Scorer(params0.layer_map, sets)
        spans = eng._first_layer_spans(basis, params0.layer_map)
        worst = 0.0
        for row, params in zip(rec.rows, stepped):
            counts = scorer.step_hits(params, spans[row.block - 1])
            assert counts == hits(params, sets)
            direct = mdl._first_layer(*mdl._weights(params)[0], scorer.inputs)
            worst = max(worst, np.abs(scorer._h1 - direct).max() / np.abs(direct).max())
        assert len(stepped) == 210  # one direct pass, then 209 updates
        assert 0.0 < worst <= 1e-12

    def test_memory_stays_within_one_scratch_of_the_direct_pass(self, monkeypatch):
        rng = np.random.default_rng(4)
        x = rng.random((2500, 784))
        y = rng.integers(0, 10, size=2500)
        sets = eng.EvalSets(test=(x[:500], y[:500]), retain=(x[500:2300], y[500:2300]),
                            forget=(x[2300:], y[2300:]))
        params0 = mdl.init_params(MNIST_SHAPE, seed=0)
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, params0.layer_map, 10, seed=0)
        config = small_config(k=10, basis=basis, fine_tune_steps=2)
        retain = (x[500:1000], y[500:1000])
        spans = eng._first_layer_spans(basis, params0.layer_map)
        assert spans is not None

        def peak(spans):
            monkeypatch.setattr(eng, "_first_layer_spans", lambda *args: spans)
            tracemalloc.start()
            try:
                rec = eng.run_blockwise(params0, config, retain, sets)
                return tracemalloc.get_traced_memory()[1], rec
            finally:
                tracemalloc.stop()

        direct_peak, direct = peak(None)
        update_peak, updated = peak(spans)
        assert [r[4:7] for r in updated.rows] == [r[4:7] for r in direct.rows]
        assert update_peak <= direct_peak + 256 * mdl._SCRATCH_COLUMNS * 8


class TestCsv:
    def test_header_and_determinism(self, tmp_path):
        params = mdl.init_params(ARCH, seed=1)
        eval_sets = eng.EvalSets(
            test=(BLOBS.inputs[:50], BLOBS.labels[:50]),
            retain=(BLOBS.inputs[50:100], BLOBS.labels[50:100]),
            forget=(BLOBS.inputs[100:120], BLOBS.labels[100:120]),
        )
        rec = eng.run_blockwise(params, small_config(), (BLOBS.inputs, BLOBS.labels), eval_sets)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rec.write_csv(p1)
        rec2 = eng.run_blockwise(params, small_config(), (BLOBS.inputs, BLOBS.labels), eval_sets)
        rec2.write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        first = p1.read_text().splitlines()[0]
        assert first == eng.CSV_HEADER

    def test_min_accuracy_helper(self):
        params = mdl.init_params(ARCH, seed=1)
        eval_sets = eng.EvalSets(test=(BLOBS.inputs[:50], BLOBS.labels[:50]))
        rec = eng.run_blockwise(params, small_config(), (BLOBS.inputs, BLOBS.labels), eval_sets)
        m = rec.min_accuracy("unlearn")
        assert 0.0 <= m <= 1.0
        with pytest.raises(DomainError):
            rec.min_accuracy("nonexistent_phase")


class TestTraining:
    def test_negative_steps_rejected(self):
        # steps=-3 used to train nothing and return the initial model
        with pytest.raises(DomainError, match="training steps"):
            eng.TrainConfig(steps=-3)
        params = eng.train(ARCH, (BLOBS.inputs, BLOBS.labels), eng.Seeds(0, 1, 2),
                           eng.TrainConfig(steps=0))
        assert np.array_equal(params.values, mdl.init_params(ARCH, seed=0).values)

    def test_batch_size_below_one_rejected(self):
        # a batch size below 1 is an error, not a one-row batch
        for size in (0, -1):
            with pytest.raises(DomainError, match="batch size"):
                eng.TrainConfig(steps=5, batch_size=size)
            with pytest.raises(DomainError, match="batch size"):
                small_config(batch_size=size)

    @pytest.mark.parametrize("name,value,match", [
        # a NaN lr trains into non-finite parameters, a negative one ascends the loss
        ("lr", float("nan"), "lr"), ("lr", -0.05, "lr"), ("lr", math.inf, "lr"),
        ("weight_decay", float("nan"), "weight decay"),
        ("weight_decay", -1e-5, "weight decay"), ("weight_decay", math.inf, "weight decay"),
        ("momentum", 1.5, "momentum"), ("momentum", 1.0, "momentum"),
        ("momentum", -0.1, "momentum"), ("momentum", float("nan"), "momentum"),
    ])
    def test_optimizer_settings_out_of_range_rejected(self, name, value, match):
        with pytest.raises(DomainError, match=f"training {match}"):
            eng.TrainConfig(steps=5, **{name: value})
        with pytest.raises(DomainError, match=f"fine-tune {match}"):
            small_config(**{f"fine_tune_{name}": value})

    def test_optimizer_settings_at_their_bounds_accepted(self):
        eng.TrainConfig(steps=5, lr=0.0, momentum=0.0, weight_decay=0.0)
        small_config(fine_tune_lr=0.0, fine_tune_momentum=0.0, fine_tune_weight_decay=0.0)

    def test_loss_decreases_on_blobs(self, monkeypatch):
        cfg = eng.TrainConfig(steps=300, lr=0.05, batch_size=64)
        steps = spy_momentum_steps(monkeypatch)
        eng.train(ARCH, (BLOBS.inputs, BLOBS.labels), eng.Seeds(0, 1, 2), cfg)
        losses = [loss for _, _, loss, _ in steps]
        assert len(losses) == 300
        first = np.mean(losses[:20])
        last = np.mean(losses[-20:])
        assert last < first

    def test_separable_blobs_reach_95_percent(self):
        data = ds.generate_blobs(1500, classes=4, dim=16, separation=10.0, seed=9)
        arch = mdl.MlpSpec((16, 32, 4))
        cfg = eng.TrainConfig(steps=500, lr=0.05, batch_size=64)
        params = eng.train(arch, data.pair(), eng.Seeds(0, 1, 2), cfg)
        assert mdl.accuracy(params, data.inputs, data.labels) >= 0.95

    def test_train_deterministic(self):
        cfg = eng.TrainConfig(steps=100, lr=0.05)
        p1 = eng.train(ARCH, (BLOBS.inputs, BLOBS.labels), eng.Seeds(3, 4, 5), cfg)
        p2 = eng.train(ARCH, (BLOBS.inputs, BLOBS.labels), eng.Seeds(3, 4, 5), cfg)
        assert np.array_equal(p1.values, p2.values)


class TestCoupledRetrain:
    def test_empty_forget_set_identity(self):
        cfg = eng.TrainConfig(steps=150, lr=0.05)
        seeds = eng.Seeds(10, 11, 12)
        full = eng.train(ARCH, (BLOBS.inputs, BLOBS.labels), seeds, cfg)
        retr = eng.coupled_retrain(ARCH, (BLOBS.inputs, BLOBS.labels), seeds, cfg)
        assert np.array_equal(full.values, retr.values)

    def test_shared_seeds_closer_than_disjoint(self):
        cfg = eng.TrainConfig(steps=200, lr=0.05)
        split = ds.make_split(BLOBS, ds.RandomFraction(0.1), seed=0)
        retain = BLOBS.subset(split.retain_idx).pair()
        shared, disjoint = [], []
        for s in range(5):
            seeds = eng.Seeds(s, 100 + s, 200 + s)
            full = eng.train(ARCH, BLOBS.pair(), seeds, cfg)
            coupled = eng.coupled_retrain(ARCH, retain, seeds, cfg)
            other = eng.coupled_retrain(
                ARCH, retain, eng.Seeds(1000 + s, 2000 + s, 3000 + s), cfg
            )
            shared.append(np.linalg.norm(full.values - coupled.values))
            disjoint.append(np.linalg.norm(full.values - other.values))
        assert np.mean(shared) < np.mean(disjoint)

    def test_deletion_distance_positive_and_finite(self):
        cfg = eng.TrainConfig(steps=200, lr=0.05)
        seeds = eng.Seeds(1, 2, 3)
        split = ds.make_split(BLOBS, ds.RandomFraction(0.1), seed=4)
        full = eng.train(ARCH, BLOBS.pair(), seeds, cfg)
        retr = eng.coupled_retrain(ARCH, BLOBS.subset(split.retain_idx).pair(), seeds, cfg)
        dist = np.linalg.norm(full.values - retr.values)
        assert np.isfinite(dist) and dist > 0
