"""Unlearning and training loops.

A run is a strict recurrence over a flat parameter vector: noisy clipped
updates restricted to one block at a time (the block schedule), followed by
plain momentum fine-tuning on the full vector.  Gradients are only ever taken
on the data handed to the run; every consumed row index is recorded so
callers can assert that forget-set rows never fed a gradient.

All randomness flows through three named seeds (init, data_order, noise), so
a rerun with equal seeds reproduces the trajectory bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import model as mdl
from . import subspace as sub
from .accounting import NoisePlan
from .errors import DomainError

PHASE_FINETUNE = "finetune"


class Seeds(NamedTuple):
    init: int = 0
    data_order: int = 0
    noise: int = 0


class EvalSets(NamedTuple):
    """Datasets that score every step of a run, in order, after the steps of
    its batch are taken; any of them may be absent."""

    test: tuple[np.ndarray, np.ndarray] | None = None
    retain: tuple[np.ndarray, np.ndarray] | None = None
    forget: tuple[np.ndarray, np.ndarray] | None = None


def _check_optimizer(what: str, lr: float, momentum: float, weight_decay: float) -> None:
    """DomainError unless lr and weight_decay are finite and >= 0 and momentum
    lies in [0, 1)."""
    for name, value in (("lr", lr), ("weight decay", weight_decay)):
        if not 0 <= value < math.inf:
            raise DomainError(f"{what} {name} must be finite and >= 0, got {value}")
    if not 0 <= momentum < 1:
        raise DomainError(f"{what} momentum must be in [0, 1), got {momentum}")


@dataclass(frozen=True)
class TrainConfig:
    """Momentum SGD settings of a training run."""

    steps: int
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-5
    batch_size: int = 64

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise DomainError(f"training steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise DomainError(f"training batch size must be >= 1, got {self.batch_size}")
        _check_optimizer("training", self.lr, self.momentum, self.weight_decay)


@dataclass(frozen=True)
class RunConfig:
    """One unlearning run: its noise plan, basis, fine-tuning and seeds."""

    plan: NoisePlan
    basis: sub.BlockBasis | None
    batch_size: int = 64
    fine_tune_steps: int | None = None  # None fills the step cap
    fine_tune_lr: float = 0.01
    fine_tune_momentum: float = 0.9
    fine_tune_weight_decay: float = 0.0
    seeds: Seeds = field(default_factory=Seeds)
    step_cap: int = 1000

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise DomainError(f"batch size must be >= 1, got {self.batch_size}")
        if self.fine_tune_steps is not None and self.fine_tune_steps < 0:
            raise DomainError(f"fine-tune steps must be >= 0, got {self.fine_tune_steps}")
        _check_optimizer("fine-tune", self.fine_tune_lr, self.fine_tune_momentum,
                         self.fine_tune_weight_decay)

    def resolved_fine_tune_steps(self) -> int:
        noisy = self.plan.total_steps
        if self.step_cap < noisy:
            raise DomainError(
                f"step cap {self.step_cap} below the {noisy} noisy steps of the plan"
            )
        if self.fine_tune_steps is None:
            return self.step_cap - noisy
        return self.fine_tune_steps


class StepRow(NamedTuple):
    """One step of a run; the fields are the CSV columns, in order."""

    step: int
    phase: str
    block: int | None
    loss: float
    test_acc: float | None
    retain_acc: float | None
    forget_acc: float | None
    noise_norm: float
    grad_norm_pre: float
    grad_norm_post: float


CSV_HEADER = ",".join(StepRow._fields)


@dataclass
class RunRecord:
    """What a run did: its step rows, final parameters and gradient rows."""

    rows: list[StepRow]
    final_params: mdl.ParamVector
    touched_rows: np.ndarray  # sorted unique indices that fed a gradient

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([
                StepRow._fields,
                *(
                    (r.step, r.phase, "" if r.block is None else r.block,
                     *map(_fmt, r[3:]))
                    for r in self.rows
                ),
            ])

    def min_accuracy(self, phase_prefix: str) -> float:
        vals = [
            r.test_acc
            for r in self.rows
            if r.phase.startswith(phase_prefix) and r.test_acc is not None
        ]
        if not vals:
            raise DomainError(f"no rows with phase {phase_prefix!r}")
        return min(vals)


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


class _Batcher:
    """Epoch-shuffled minibatches of a stack of models over shared inputs:
    model j's epochs draw permutations of the positions of its rows
    `rows[j]` (all of them for None) from its own generator `rngs[j]`, as
    over a copy of those rows alone.  `ids` is a step's (models, batch) row
    indices, `next` a lone model's batch.  An empty map is a DomainError;
    maps of unequal lengths fail the first draw."""

    def __init__(self, inputs, labels, batch_size, rngs, rows=(None,)):
        self.inputs = np.asarray(inputs, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.rows = [np.arange(len(self.inputs)) if m is None else m for m in rows]
        if min(map(len, self.rows)) < 1:
            raise DomainError("empty dataset")
        self.batch_size = min(batch_size, len(self.rows[0]))
        self.rngs = rngs
        self._pos = len(self.rows[0])  # the first draw starts an epoch
        self.touched = np.zeros(len(self.inputs), dtype=bool)

    def ids(self) -> np.ndarray:
        if self._pos >= len(self.rows[0]):
            self._order = np.stack(
                [m[rng.permutation(len(m))] for m, rng in zip(self.rows, self.rngs)]
            )
            self._pos = 0
        ids = self._order[:, self._pos : self._pos + self.batch_size]
        self._pos += self.batch_size
        self.touched[ids] = True
        return ids

    def next(self) -> mdl.Batch:
        ids = self.ids()[0]
        return mdl.Batch(self.inputs[ids], self.labels[ids])


def _evaluator(layer_map: tuple, eval_sets: EvalSets, basis: sub.BlockBasis | None = None):
    """A function of the parameters and the step's block (1-based; None on a
    fine-tune step) that returns the test, retain and forget accuracy from one
    scoring pass over the present sets; an absent or empty set scores None.
    The sets are checked here, once.

    Where `_first_layer_spans` finds the basis's blocks cheap enough, a noisy
    step is scored by `Scorer.step_hits` from the span its block moved; every
    other step by a direct pass, `Scorer.hits`.
    """
    sets = (eval_sets.test, eval_sets.retain, eval_sets.forget)
    sizes = [0 if pair is None else len(pair[1]) for pair in sets]
    if not any(sizes):
        return lambda params, block=None: (None, None, None)
    scorer = mdl.Scorer(layer_map, [pair for pair, n in zip(sets, sizes) if n])
    spans = _first_layer_spans(basis, layer_map)

    def evaluate(params, block=None):
        if spans is None or block is None:
            counts = iter(scorer.hits(params))
        else:
            counts = iter(scorer.step_hits(params, spans[block - 1]))
        return tuple(next(counts) / n if n else None for n in sizes)

    return evaluate


def _first_layer_spans(basis: sub.BlockBasis | None, layer_map: tuple):
    """Per block, the span a = q[:, rows] of its first-layer rows (None for a
    block with none), when its noisy steps are scored by rank-r updates of
    the first layer; None when every step takes the direct pass.

    An update costs r(n_in + hidden) multiply-adds per row and the direct
    pass hidden*n_in.  The update is used only where the largest block's r
    brings it within a quarter of the direct pass: its per-step overhead made
    it slower on the 8-12 and 8-16 blob layers.  The rotation must be a real
    one (a coordinate partition has q = None) of the first layer's weights
    with their bias.
    """
    if basis is None or basis.layer_map != layer_map:
        return None
    group, rot = basis.groups[0], basis.rotations[0]
    if rot.q is None or len(group.parts) != 2 or (
        layer_map[0][0], layer_map[1][0]
    ) != ("fc1.w", "fc1.b"):
        return None
    hidden, n_in = group.m, group.cols - 1
    r = max(len(rows) for rows in rot.row_groups)
    if 4 * r * (n_in + hidden) > hidden * n_in:
        return None
    return tuple(rot.q[:, rows] if rows.size else None for rows in rot.row_groups)


def gaussian_noise(n: int, sigma2: float, rng) -> np.ndarray:
    """n draws of N(0, sigma2), the noise of a noisy step.  sigma2 = 0 returns
    zeros without consuming the generator; a sigma2 that is not finite and
    >= 0 is a DomainError."""
    if not 0 <= sigma2 < math.inf:
        raise DomainError(f"sigma2 must be finite and >= 0, got {sigma2}")
    if sigma2 == 0:
        return np.zeros(n)
    return rng.standard_normal(n) * np.sqrt(sigma2)


def nft_step(
    params: mdl.ParamVector,
    batch: mdl.Batch,
    gamma: float,
    lam: float,
    c1: float,
    sigma2: float,
    rng,
    basis: sub.BlockBasis | None = None,
    block: int | None = None,
):
    """One noisy fine-tuning update; returns (params', loss, ||noise||,
    ||g|| before clipping, ||g|| after clipping).

    Without a block: x' = x - gamma*(clip(g, c1) + lam*x) + xi with isotropic
    xi ~ N(0, sigma2 I).  With a block: the same update applied to the block
    coordinates (gradient projected, clipped at the per-block radius, decay on
    the block only, noise drawn in block coordinates); frozen coordinates are
    untouched.

    The update runs in place on its own temporaries, by the same operations
    as the formula (x + y == y + x exactly), so the result is the same bit
    for bit.  `params` is only read and the result is a fresh vector that
    nothing writes afterwards: `run_blockwise` scores it after later steps,
    and `Scorer.step_hits` keeps it by reference.
    """
    loss, grad = mdl.loss_and_grad(params, batch)
    if block is None:
        g = grad.values
        b = params.values
    else:
        if basis is None:
            raise DomainError("block update requires a basis")
        g = sub.project_block(grad.values, basis, block)
        b = sub.project_block(params.values, basis, block)
    pre = mdl.vector_norm(g)
    clipped = mdl.clip(g, c1)
    post = mdl.vector_norm(clipped)
    noise = gaussian_noise(b.shape[0], sigma2, rng)
    delta = np.multiply(b, lam)
    delta += clipped
    delta *= -gamma
    delta += noise
    if block is not None:
        delta = sub.lift_block(delta, basis, block)
    delta += params.values  # x' = x + delta, in delta's buffer
    return mdl.ParamVector(delta, params.layer_map), loss, mdl.vector_norm(noise), pre, post


# Elements per chunk of the momentum update: 256 KiB per array, so the
# chunks of p, g, v and the result (1 MiB together) stay in a 2 MiB L2 cache.
_CHUNK = 32_768


def _momentum_step(values, velocity, lm, inputs, labels, lr, momentum, weight_decay):
    """v = m*v + (g + wd*p), then p' = p - lr*v, of one model's (d,) values
    or a stack's (models, d); returns (p', loss, g).

    One model's gradient is `model.loss_and_grad`'s, a stack's
    `model.backprop`'s.  `velocity` is updated in place and p' is the one
    allocation (see `_momentum_update`).  `values` is only read, and p' is
    fresh and never written afterwards, as `run_blockwise` needs.
    """
    if values.ndim == 1:
        loss, grad = mdl.loss_and_grad(mdl.ParamVector(values, lm), mdl.Batch(inputs, labels))
        g = grad.values
    else:
        loss, g = mdl.backprop(values, lm, inputs, labels)
    new = _momentum_update(values.reshape(-1), g.reshape(-1), velocity.reshape(-1),
                           lr, momentum, weight_decay)
    return new.reshape(values.shape), loss, g


def _momentum_update(p, g, velocity, lr, momentum, weight_decay):
    """The momentum update of flat vectors: `velocity` in place, and p' in
    the one allocation, which holds wd*p, then lr*v, then p'.  Each value
    comes from the same operations as the out-of-place formula (x + y == y + x
    exactly), element by element, so a stack of models updates as one vector.
    The six operations run chunk by chunk, so each vector is streamed from
    memory once rather than once per operation."""
    new = np.empty(p.shape)
    for lo in range(0, p.size, _CHUNK):
        hi = lo + _CHUNK
        out, v, w = new[lo:hi], velocity[lo:hi], p[lo:hi]
        np.multiply(w, weight_decay, out=out)
        out += g[lo:hi]
        v *= momentum
        v += out
        np.multiply(v, lr, out=out)
        np.subtract(w, out, out=out)
    return new


def _momentum_steps(values, lm, batcher: _Batcher, steps, lr, momentum, weight_decay):
    """SGD with momentum from zero velocity, one batch per step, of one
    model's (d,) values or a stack's (models, d): yields (values, loss, g)
    after each of `steps` steps.  A caller drops g before the next step, as
    the loop does: a g kept through it is one more live vector."""
    velocity = np.zeros_like(values)
    for _ in range(steps):
        ids = batcher.ids().reshape(values.shape[:-1] + (-1,))
        values, loss, grad = _momentum_step(
            values, velocity, lm, batcher.inputs[ids], batcher.labels[ids],
            lr, momentum, weight_decay,
        )
        yield values, loss, grad
        del grad


def _schedule(params, batcher: _Batcher, config: RunConfig, ft_steps: int, rng):
    """The block schedule as one stream of steps: T noisy steps in each block
    in turn, then `ft_steps` fine-tuning steps from where they left off.
    Yields (params, phase, block, loss, noise_norm, grad_norm_pre,
    grad_norm_post) after each step."""
    plan, basis, budget = config.plan, config.basis, config.plan.budget
    for i in range(plan.k):
        phase, block = f"unlearn_block_{i + 1}", None if basis is None else i
        for _ in range(plan.steps_per_block):
            params, loss, noise, pre, post = nft_step(
                params, batcher.next(), budget.gamma, budget.lam, budget.c1,
                plan.sigma2, rng, basis, block,
            )
            yield params, phase, i + 1, loss, noise, pre, post
    lm = params.layer_map
    for values, loss, grad in _momentum_steps(
        params.values, lm, batcher, ft_steps, config.fine_tune_lr,
        config.fine_tune_momentum, config.fine_tune_weight_decay,
    ):
        params, gnorm = mdl.ParamVector(values, lm), mdl.vector_norm(grad)
        del grad
        yield params, PHASE_FINETUNE, None, loss, 0.0, gnorm, gnorm


# Steps are held and scored in batches of at most this many, and of at most
# this many bytes of parameter vectors (8 * d each, at least one step).  A
# gradient step and a scoring pass each evict the other's working set from
# the cache; held, the steps run back to back and so do the passes.  Blob
# widths hold 64 steps (117 KB at d = 229); above d = 131,072 each step is
# scored before the next is taken.  The byte budget also caps a lockstep
# stack of models (`train_lockstep`): above d = 65,536 each model trains alone.
_PENDING_STEPS = 64
_PENDING_BYTES = 1 << 20


def run_blockwise(
    params0: mdl.ParamVector,
    config: RunConfig,
    retain: tuple[np.ndarray, np.ndarray],
    eval_sets: EvalSets = EvalSets(),
) -> RunRecord:
    """Block schedule: T noisy steps per block in order, then fine-tuning.

    Only `retain` rows ever feed a gradient; accuracies in the record come
    from the read-only eval sets.  Every step is scored, in step order, once
    the steps of its batch are taken (see `_PENDING_STEPS`); the steps yield
    fresh vectors and never write one they yielded, so a held step scores
    as it would have at once.  If a step raises, the held steps are scored
    first, so an earlier step's scoring error is still the one raised.
    """
    plan = config.plan
    basis = config.basis
    if basis is None:
        if plan.k != 1:
            raise DomainError("a basis is required when the plan has k > 1 blocks")
    elif basis.k != plan.k:
        raise DomainError(f"basis has {basis.k} blocks but plan has {plan.k}")
    if basis is not None and basis.d != params0.d:
        raise DomainError("basis dimension does not match the model")
    ft_steps = config.resolved_fine_tune_steps()

    order_rng = np.random.default_rng(config.seeds.data_order)
    noise_rng = np.random.default_rng(config.seeds.noise)
    batcher = _Batcher(retain[0], retain[1], config.batch_size, [order_rng])
    evaluate = _evaluator(params0.layer_map, eval_sets, basis)

    params = params0.copy()
    rows: list[StepRow] = []
    pending: list[tuple] = []
    hold = max(1, min(_PENDING_STEPS, _PENDING_BYTES // params0.values.nbytes))

    def record():
        """Score the held steps in order; emptied first, so a scoring error
        that reaches the `except` below scores nothing twice."""
        held = pending.copy()
        pending.clear()
        for step, stepped, phase, block, loss, noise, pre, post in held:
            rows.append(
                StepRow(step, phase, block, loss, *evaluate(stepped, block), noise, pre, post)
            )

    try:
        for step, (params, *fields) in enumerate(
            _schedule(params, batcher, config, ft_steps, noise_rng), 1
        ):
            pending.append((step, params, *fields))
            if len(pending) == hold:
                record()
    except Exception:
        # a held step's scoring error came first, so it is the one raised
        record()
        raise
    record()
    return RunRecord(rows, params, np.flatnonzero(batcher.touched))


def train(
    arch: mdl.MlpSpec,
    data: tuple[np.ndarray, np.ndarray],
    seeds: Seeds,
    config: TrainConfig,
) -> mdl.ParamVector:
    """SGD-with-momentum training, deterministic in the seeds: the one-model
    case of `train_lockstep`."""
    (params,) = train_lockstep(arch, data, [(None, seeds)], config)
    if isinstance(params, Exception):
        raise params
    return params


def train_lockstep(arch: mdl.MlpSpec, data, runs, config: TrainConfig) -> list:
    """Per (rows, seeds) run, the model `train` gives on a copy of the rows
    `rows` of `data` (all of them for None), or the exception it raises.

    The runs train in lockstep, in stacks of at most as many models as fit
    in `_PENDING_BYTES` (8 * d bytes each): their parameters, velocities and
    batches gain a leading model axis, so a step pays numpy's per-call cost
    once rather than once per model.  A stack ignores floating-point errors.
    If it raises (a model fails `model.backprop`'s checks, or a row map is
    empty or unequal), and always for a stack of one, each model trains
    alone from the start on (d,) values, to its own result or exception.
    """
    lm = mdl.layer_map(arch)
    cap = max(1, _PENDING_BYTES // (8 * sub.layer_map_dim(lm)))

    def trained(stack):
        """The final values of the stack's models: (d,) for a stack of one."""
        values = [mdl.init_params(arch, seeds.init).values for _, seeds in stack]
        batcher = _Batcher(data[0], data[1], config.batch_size,
                           [np.random.default_rng(seeds.data_order) for _, seeds in stack],
                           [rows for rows, _ in stack])
        values = values[0] if len(stack) == 1 else np.stack(values)
        for values, _, grad in _momentum_steps(values, lm, batcher, config.steps, config.lr,
                                               config.momentum, config.weight_decay):
            del grad
        return values

    results = []
    for lo in range(0, len(runs), cap):
        stack = runs[lo : lo + cap]
        if len(stack) > 1:
            try:
                with np.errstate(all="ignore"):
                    results += [mdl.ParamVector(v.copy(), lm) for v in trained(stack)]
                continue
            except Exception:  # noqa: BLE001 - met again, or not, by each model alone
                pass
        for run in stack:
            try:
                results.append(mdl.ParamVector(trained([run]), lm))
            except Exception as exc:  # noqa: BLE001 - this run's result
                results.append(exc)
    return results


def coupled_retrain(
    arch: mdl.MlpSpec,
    retain: tuple[np.ndarray, np.ndarray],
    seeds: Seeds,
    config: TrainConfig,
) -> mdl.ParamVector:
    """Retraining on the retained rows under the same coupled seeds.

    The initialization and batch-order streams reuse the full run's seeds, so
    with an empty forget set the result is bit-identical to full training.
    """
    return train(arch, retain, seeds, config)
