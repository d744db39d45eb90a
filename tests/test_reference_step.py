"""The gradient step against its textbook formulation, bit for bit.

`model.loss_and_grad`, `engine._momentum_step`, `engine.nft_step` and
`subspace.project_block`/`lift_block` reuse buffers and skip per-call set-up,
and `model.Scorer` counts hits without building the argmax; each function
below computes the same values out of place, the plain way.  Every
comparison is exact: the same bytes, not a tolerance.
"""

import numpy as np
import pytest

from blockwise_unlearn import datasets as ds
from blockwise_unlearn import engine as eng
from blockwise_unlearn import model as mdl
from blockwise_unlearn import subspace as sub
from blockwise_unlearn.accounting import BlockBudget, NoisePlan
from blockwise_unlearn.errors import NumericalError


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# reference formulations
# ---------------------------------------------------------------------------

def ref_loss_and_grad(params, batch):
    if not np.all(np.isfinite(params.values)):
        raise NumericalError("non-finite parameter values")
    n_layers = len(params.layer_map) // 2
    layers = [(params.view(f"fc{i}.w"), params.view(f"fc{i}.b"))
              for i in range(1, n_layers + 1)]
    x, y = batch.inputs, batch.labels
    activations, h = [x], x
    for w, b in layers[:-1]:
        h = np.maximum(h @ w.T + b, 0.0)
        activations.append(h)
    w, b = layers[-1]
    logits = h @ w.T + b
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    n = len(y)
    loss = -float(log_probs[np.arange(n), y].mean())
    delta = np.exp(log_probs)
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grad = mdl.ParamVector(np.empty_like(params.values), params.layer_map)
    for i in range(n_layers - 1, -1, -1):
        grad.view(f"fc{i + 1}.w")[:] = delta.T @ activations[i]
        grad.view(f"fc{i + 1}.b")[:] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ layers[i][0]) * (activations[i] > 0.0)
    return loss, grad.values


def ref_momentum_step(params, velocity, batch, lr, momentum, weight_decay):
    loss, g = ref_loss_and_grad(params, batch)
    total = g + weight_decay * params.values
    velocity = momentum * velocity + total
    new = mdl.ParamVector(params.values - lr * velocity, params.layer_map)
    return new, velocity, loss, float(np.linalg.norm(g))


def ref_project(w, basis, i):
    out = np.empty(basis.sizes[i])
    pos = 0
    for g, rot in zip(basis.groups, basis.rotations):
        rows = rot.row_groups[i]
        if rot.q is None:
            chunks = [g.part(w, offset, ce - cs)[rows] for offset, cs, ce in g.parts]
        else:
            chunks = [rot.q[:, rows].T @ g.gather(w)]
        for chunk in chunks:
            out[pos : pos + chunk.size] = chunk.ravel()
            pos += chunk.size
    return out


def ref_lift(b, basis, i):
    w = np.zeros(basis.d)
    pos = 0
    for g, rot in zip(basis.groups, basis.rotations):
        rows = rot.row_groups[i]
        if rot.q is None:
            for offset, cs, ce in g.parts:
                n = rows.size * (ce - cs)
                g.part(w, offset, ce - cs)[rows] = b[pos : pos + n].reshape(rows.size, ce - cs)
                pos += n
        else:
            n = rows.size * g.cols
            g.scatter(w, rot.q[:, rows] @ b[pos : pos + n].reshape(rows.size, g.cols))
            pos += n
    return w


def ref_nft_step(params, batch, gamma, lam, c1, sigma2, rng, basis=None, block=None):
    loss, grad = ref_loss_and_grad(params, batch)
    if block is None:
        g, b = grad, params.values
    else:
        g = ref_project(grad, basis, block)
        b = ref_project(params.values, basis, block)
    pre = float(np.linalg.norm(g))
    clipped = mdl.clip(g, c1)
    post = float(np.linalg.norm(clipped))
    if sigma2 > 0:
        noise = rng.standard_normal(b.shape[0]) * np.sqrt(sigma2)
    else:
        noise = np.zeros(b.shape[0])
    delta = -gamma * (clipped + lam * b) + noise
    if block is not None:
        delta = ref_lift(delta, basis, block)
    new = mdl.ParamVector(params.values + delta, params.layer_map)
    return new, loss, (float(np.linalg.norm(noise)), pre, post)


def ref_accuracy(params, x, y):
    """Share of rows whose textbook argmax (ties to the lowest class) of the
    out-of-place logits is the label."""
    n_layers = len(params.layer_map) // 2
    h = x
    for i in range(1, n_layers):
        h = np.maximum(h @ params.view(f"fc{i}.w").T + params.view(f"fc{i}.b"), 0.0)
    logits = h @ params.view(f"fc{n_layers}.w").T + params.view(f"fc{n_layers}.b")
    return float(np.mean(np.argmax(logits, axis=1) == y))


def ref_train(arch, data, seeds, config):
    params = mdl.init_params(arch, seeds.init)
    batcher = eng._Batcher(data[0], data[1], config.batch_size,
                           np.random.default_rng(seeds.data_order))
    velocity = np.zeros(params.d)
    rows = []
    for _ in range(config.steps):
        params, velocity, loss, gnorm = ref_momentum_step(
            params, velocity, batcher.next(), config.lr, config.momentum,
            config.weight_decay,
        )
        rows.append((loss, gnorm))
    return params, rows


def ref_run_blockwise(params0, config, retain, eval_sets=()):
    """The block schedule: (final params, per-step (loss, noise norm, pre-clip
    norm, post-clip norm) followed by the accuracy on each (x, y) eval set)."""
    plan, basis = config.plan, config.basis
    noise_rng = np.random.default_rng(config.seeds.noise)
    batcher = eng._Batcher(retain[0], retain[1], config.batch_size,
                           np.random.default_rng(config.seeds.data_order))
    params, rows = params0.copy(), []
    for i in range(plan.k):
        for _ in range(plan.steps_per_block):
            params, loss, norms = ref_nft_step(
                params, batcher.next(), plan.budget.gamma, plan.budget.lam, plan.budget.c1,
                plan.sigma2, noise_rng, basis, None if basis is None else i,
            )
            rows.append((loss, *norms, *(ref_accuracy(params, *s) for s in eval_sets)))
    velocity = np.zeros(params.d)
    for _ in range(config.resolved_fine_tune_steps()):
        params, velocity, loss, gnorm = ref_momentum_step(
            params, velocity, batcher.next(), config.fine_tune_lr,
            config.fine_tune_momentum, config.fine_tune_weight_decay,
        )
        rows.append((loss, 0.0, gnorm, gnorm, *(ref_accuracy(params, *s) for s in eval_sets)))
    return params, rows


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

WIDTHS = [(8, 12, 4), (8, 16, 5), (6, 9, 7, 3), (784, 256, 256, 10)]
DATA = ds.generate_blobs(600, classes=4, dim=8, separation=3.0, seed=5)


def perturbed_params(widths, seed):
    params = mdl.init_params(mdl.MlpSpec(widths), seed)
    rng = np.random.default_rng(seed)
    # nonzero biases, so some ReLUs are off in every layer
    return mdl.ParamVector(params.values + 0.1 * rng.standard_normal(params.d),
                           params.layer_map)


def batches(widths, seed):
    """A 1-row batch, then a full 64-row batch and the partial 36-row last
    batch of one epoch over 100 rows."""
    rng = np.random.default_rng(seed)
    x = 3.0 * rng.standard_normal((100, widths[0]))
    y = rng.integers(0, widths[-1], 100)
    batcher = eng._Batcher(x, y, 64, rng)
    return [mdl.Batch(x[:1], y[:1]), batcher.next(), batcher.next()]


def toy_plan(k, sigma2=0.01):
    return NoisePlan(
        budget=BlockBudget(gamma=0.05, lam=0.1, c0=0.1, c1=0.5, q=2.0, eps_renyi=0.5 / k),
        k=k, sigma2=sigma2, steps_per_block=3, epsilon=1.0, delta=1e-5,
    )


def trained_8_12_4():
    return eng.train(mdl.MlpSpec((8, 12, 4)), (DATA.inputs, DATA.labels),
                     eng.Seeds(1, 2, 3), eng.TrainConfig(steps=30, lr=0.05))


def spy_momentum_steps(monkeypatch) -> list:
    """Every result (p', v, loss, ||g||) of `engine._momentum_step` while the
    patch holds: the per-step record that `engine.train` does not keep."""
    outputs = []
    momentum_step = eng._momentum_step

    def spy(*args):
        out = momentum_step(*args)
        outputs.append(out)
        return out

    monkeypatch.setattr(eng, "_momentum_step", spy)
    return outputs


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestLossAndGrad:
    @pytest.mark.parametrize("widths", WIDTHS, ids=lambda w: "-".join(map(str, w)))
    def test_equals_reference(self, widths):
        params = perturbed_params(widths, 0)
        for batch in batches(widths, 1):
            loss, grad = mdl.loss_and_grad(params, batch)
            ref_loss, ref_grad = ref_loss_and_grad(params, batch)
            assert same_bits(loss, ref_loss)
            assert same_bits(grad.values, ref_grad)
        assert [len(b) for b in batches(widths, 1)] == [1, 64, 36]

    @pytest.mark.parametrize("widths", WIDTHS[:3], ids=lambda w: "-".join(map(str, w)))
    def test_forward_loss_equals_reference(self, widths):
        params = perturbed_params(widths, 2)
        for batch in batches(widths, 3):
            assert same_bits(mdl.forward(params, batch)[1], ref_loss_and_grad(params, batch)[0])


class TestMomentumStep:
    @pytest.mark.parametrize("widths", WIDTHS, ids=lambda w: "-".join(map(str, w)))
    def test_equals_reference(self, widths):
        params = perturbed_params(widths, 4)
        velocity = np.random.default_rng(5).standard_normal(params.d)
        for batch in batches(widths, 6):
            new, v, loss, gnorm = eng._momentum_step(
                params, velocity.copy(), batch, 0.01, 0.9, 1e-5)
            ref_new, ref_v, ref_loss, ref_gnorm = ref_momentum_step(
                params, velocity, batch, 0.01, 0.9, 1e-5)
            assert same_bits(new.values, ref_new.values) and same_bits(v, ref_v)
            assert same_bits(loss, ref_loss) and same_bits(gnorm, ref_gnorm)

    @pytest.mark.parametrize("chunk", [1, 7, None], ids=["1", "7", "d"])
    @pytest.mark.parametrize("widths", WIDTHS, ids=lambda w: "-".join(map(str, w)))
    def test_any_chunk_length_equals_reference(self, monkeypatch, widths, chunk):
        params = perturbed_params(widths, 4)
        monkeypatch.setattr(eng, "_CHUNK", params.d if chunk is None else chunk)
        velocity = np.random.default_rng(5).standard_normal(params.d)
        batch = batches(widths, 6)[1]
        new, v, loss, gnorm = eng._momentum_step(params, velocity.copy(), batch, 0.01, 0.9, 1e-5)
        ref_new, ref_v, ref_loss, ref_gnorm = ref_momentum_step(
            params, velocity, batch, 0.01, 0.9, 1e-5)
        assert same_bits(new.values, ref_new.values) and same_bits(v, ref_v)
        assert same_bits(loss, ref_loss) and same_bits(gnorm, ref_gnorm)

    def test_inputs_kept_and_result_owns_its_memory(self):
        params = perturbed_params((8, 12, 4), 7)
        before = params.values.copy()
        velocity = np.ones(params.d)
        new, v, _, _ = eng._momentum_step(params, velocity, batches((8, 12, 4), 8)[1],
                                          0.01, 0.9, 1e-5)
        assert same_bits(params.values, before)
        assert not np.shares_memory(new.values, params.values)
        assert not np.shares_memory(new.values, v)


class TestTrain:
    def test_50_steps_equal_reference(self, monkeypatch):
        arch, data = mdl.MlpSpec((8, 12, 4)), (DATA.inputs, DATA.labels)
        seeds, config = eng.Seeds(1, 2, 3), eng.TrainConfig(steps=50, lr=0.05)
        steps = spy_momentum_steps(monkeypatch)
        params = eng.train(arch, data, seeds, config)
        ref_params, ref_rows = ref_train(arch, data, seeds, config)
        assert same_bits(params.values, ref_params.values)
        assert same_bits([(loss, gnorm) for _, _, loss, gnorm in steps], ref_rows)

    def test_several_chunks_equal_reference(self, monkeypatch):
        arch = mdl.MlpSpec((784, 64, 10))
        d = mdl.init_params(arch, 0).d  # 50,890: a full chunk and a partial one
        assert eng._CHUNK < d and d % eng._CHUNK
        rng = np.random.default_rng(14)
        data = (rng.standard_normal((200, 784)), rng.integers(0, 10, 200))
        seeds, config = eng.Seeds(1, 2, 3), eng.TrainConfig(steps=5, lr=0.05)
        steps = spy_momentum_steps(monkeypatch)
        params = eng.train(arch, data, seeds, config)
        ref_params, ref_rows = ref_train(arch, data, seeds, config)
        assert same_bits(params.values, ref_params.values)
        assert same_bits([(loss, gnorm) for _, _, loss, gnorm in steps], ref_rows)

    def test_inputs_kept_and_result_owns_its_memory(self, monkeypatch):
        steps = spy_momentum_steps(monkeypatch)
        x, y = DATA.inputs.copy(), DATA.labels.copy()
        params = eng.train(mdl.MlpSpec((8, 12, 4)), (x, y), eng.Seeds(1, 2, 3),
                           eng.TrainConfig(steps=5))
        assert same_bits(x, DATA.inputs) and np.array_equal(y, DATA.labels)
        velocities = [v for _, v, _, _ in steps]
        assert len(velocities) == 5
        for mem in (x, *velocities):
            assert not np.shares_memory(params.values, mem)


class TestNftStep:
    @pytest.mark.parametrize("block", [None, 2])
    @pytest.mark.parametrize("sigma2", [0.0, 0.01])
    def test_equals_reference(self, block, sigma2):
        params = perturbed_params((8, 12, 4), 9)
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, params.layer_map, 4, seed=1)
        for batch in batches((8, 12, 4), 10):
            new, loss, *norms = eng.nft_step(params, batch, 0.05, 0.1, 0.3, sigma2,
                                             np.random.default_rng(11), basis, block)
            ref_new, ref_loss, ref_norms = ref_nft_step(
                params, batch, 0.05, 0.1, 0.3, sigma2, np.random.default_rng(11), basis, block)
            assert same_bits(new.values, ref_new.values) and same_bits(loss, ref_loss)
            assert same_bits(norms, ref_norms)

    @pytest.mark.parametrize("block", [None, 1])
    def test_inputs_kept_and_result_owns_its_memory(self, block):
        params = perturbed_params((8, 12, 4), 12)
        before = params.values.copy()
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, params.layer_map, 2, seed=1)
        batch = batches((8, 12, 4), 13)[1]
        new, *_ = eng.nft_step(params, batch, 0.05, 0.1, 0.3, 0.01,
                               np.random.default_rng(0), basis, block)
        assert same_bits(params.values, before)
        assert not np.shares_memory(new.values, params.values)


class TestRunBlockwise:
    @pytest.mark.parametrize("k,strategy", [
        (1, None), (4, sub.RANDOM_ORTHONORMAL), (4, sub.PERMUTATION),
    ])
    def test_equals_reference(self, k, strategy):
        params0 = trained_8_12_4()
        basis = None if strategy is None else sub.build_basis(
            strategy, params0.layer_map, k, seed=7)
        config = eng.RunConfig(plan=toy_plan(k), basis=basis, fine_tune_steps=10,
                               fine_tune_weight_decay=1e-4, seeds=eng.Seeds(1, 2, 3))
        retain = (DATA.inputs[:500], DATA.labels[:500])
        record = eng.run_blockwise(params0, config, retain)
        ref_params, ref_rows = ref_run_blockwise(params0, config, retain)
        assert same_bits(record.final_params.values, ref_params.values)
        rows = [(r.loss, r.noise_norm, r.grad_norm_pre, r.grad_norm_post) for r in record.rows]
        assert len(rows) == 3 * k + 10 and same_bits(rows, ref_rows)

    @pytest.mark.parametrize("k,strategy", [
        (1, None), (4, sub.RANDOM_ORTHONORMAL), (4, sub.PERMUTATION),
    ])
    def test_recorded_accuracies_equal_reference(self, k, strategy):
        params0 = trained_8_12_4()
        basis = None if strategy is None else sub.build_basis(
            strategy, params0.layer_map, k, seed=7)
        config = eng.RunConfig(plan=toy_plan(k), basis=basis, fine_tune_steps=10,
                               fine_tune_weight_decay=1e-4, seeds=eng.Seeds(1, 2, 3))
        retain = (DATA.inputs[:500], DATA.labels[:500])
        test, forget = (DATA.inputs[500:], DATA.labels[500:]), (DATA.inputs[:60], DATA.labels[:60])
        record = eng.run_blockwise(params0, config, retain, eng.EvalSets(test, retain, forget))
        ref_params, ref_rows = ref_run_blockwise(params0, config, retain, (test, retain, forget))
        assert same_bits(record.final_params.values, ref_params.values)
        accuracies = [(r.test_acc, r.retain_acc, r.forget_acc) for r in record.rows]
        assert len(accuracies) == 3 * k + 10
        assert same_bits(accuracies, [row[4:] for row in ref_rows])

    def test_inputs_kept_and_result_owns_its_memory(self, monkeypatch):
        velocities = []
        momentum_step = eng._momentum_step

        def spy(*args):
            out = momentum_step(*args)
            velocities.append(out[1])
            return out

        params0 = trained_8_12_4()
        monkeypatch.setattr(eng, "_momentum_step", spy)
        before = params0.values.copy()
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, params0.layer_map, 4, seed=7)
        config = eng.RunConfig(plan=toy_plan(4), basis=basis, fine_tune_steps=3)
        record = eng.run_blockwise(params0, config, (DATA.inputs, DATA.labels))
        assert same_bits(params0.values, before)
        assert len(velocities) == 3
        for mem in (params0.values, *velocities):
            assert not np.shares_memory(record.final_params.values, mem)


class TestBlockMaps:
    # layer_cyclic needs a layer per block: k = 3 only on the 4-layer map
    CASES = [
        (widths, strategy, k)
        for widths in [(8, 12, 4), (8, 16, 5), (5, 3, 3, 3, 2)]
        for strategy, k in [
            (sub.RANDOM_ORTHONORMAL, 1), (sub.RANDOM_ORTHONORMAL, 3),
            (sub.RANDOM_ORTHONORMAL, 10), (sub.PERMUTATION, 1), (sub.PERMUTATION, 4),
            (sub.LAYER_CYCLIC, 2), (sub.LAYER_CYCLIC, 3), (sub.HEAD_BODY, 2),
        ]
        if not (strategy == sub.LAYER_CYCLIC and k > len(widths) - 1)
    ]

    @pytest.mark.parametrize("widths,strategy,k", CASES)
    def test_project_and_lift_equal_reference(self, widths, strategy, k):
        lm = mdl.layer_map(mdl.MlpSpec(widths))
        basis = sub.build_basis(strategy, lm, k, seed=3)
        w = np.random.default_rng(k).standard_normal(basis.d)
        for i in range(k):
            b = sub.project_block(w, basis, i)
            assert same_bits(b, ref_project(w, basis, i))
            assert same_bits(sub.lift_block(1.5 * b, basis, i), ref_lift(1.5 * b, basis, i))

    def test_mnist_shape_map(self):
        lm = mdl.layer_map(mdl.MlpSpec((784, 256, 256, 10)))
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, lm, 10, seed=3)
        w = np.random.default_rng(0).standard_normal(basis.d)
        for i in (0, 9):
            b = sub.project_block(w, basis, i)
            assert same_bits(b, ref_project(w, basis, i))
            assert same_bits(sub.lift_block(b, basis, i), ref_lift(b, basis, i))
