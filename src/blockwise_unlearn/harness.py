"""Experiment orchestration: configs, cells, summaries, and reports.

A config describes one dataset, one deletion scenario, and a grid of
(budget, block count, seed) cells.  Each cell trains the full model, builds
the coupled retrain baseline, runs the selected unlearning method, audits the
result, and emits a per-step CSV plus a JSON manifest.  The summary JSON and
the per-run CSVs are byte-identical across reruns; wall-clock timings go to a
separate file so they never break determinism.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import accounting as acc
from . import audit
from . import datasets as ds
from . import engine as eng
from . import model as mdl
from . import subspace as sub
from .errors import DomainError, FormatError

ENV_OUTPUT_DIR = "BLOCKWISE_UNLEARN_OUTDIR"

METHOD_NFT = "nft"
METHOD_BLOCKWISE = "blockwise"
METHOD_RETRAIN = "retrain"
METHODS = (METHOD_NFT, METHOD_BLOCKWISE, METHOD_RETRAIN)

@dataclass(frozen=True)
class ExperimentConfig:
    dataset: dict
    deletion: dict
    model_hidden: tuple[int, ...]
    train: dict
    unlearn: dict
    finetune: dict
    budgets: tuple[tuple[float, float], ...]
    k_values: tuple[int, ...]
    method: str
    basis_strategy: str = "random_orthonormal"
    test_fraction: float = 0.2
    step_cap: int = 1000
    n_seeds: int = 5
    seed0: int = 0
    output_dir: str = "runs"

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise DomainError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.n_seeds < 1:
            raise DomainError("n_seeds must be >= 1")
        if self.seed0 < 0:
            raise DomainError(f"seed0 must be >= 0, got {self.seed0}")
        if self.basis_strategy not in sub.STRATEGIES:
            raise DomainError(f"unknown basis strategy {self.basis_strategy!r}")
        if not 0 <= self.test_fraction < 1:
            raise DomainError(f"test_fraction must be in [0, 1), got {self.test_fraction}")
        if any(k < 1 for k in self.k_values):
            raise DomainError("block counts must be >= 1")
        # a cell's key holds f"{epsilon:g}" and k, and nothing of delta
        if len({f"{eps:g}" for eps, _ in self.budgets}) < len(self.budgets):
            raise DomainError(f"budgets share an epsilon: {self.budgets}")
        if len(set(self.k_values)) < len(self.k_values):
            raise DomainError(f"k_values repeat a block count: {self.k_values}")


def load_config(path) -> ExperimentConfig:
    return config_from_dict(ds.read_json(path, "config"))


# The keys each config section may hold ("" is the top level; the dataset and
# deletion sections by their kind).  Any other key is a typo.
_KEYS = {
    "": "dataset deletion model train unlearn finetune budgets k_values method "
        "basis_strategy test_fraction step_cap n_seeds seed0 output_dir",
    "model": "hidden",
    "train": "steps lr momentum weight_decay batch_size",
    "unlearn": "gamma lam c1 c0 delta_rho q steps batch_size scale_c0",
    "finetune": "steps lr momentum weight_decay",
    "dataset.blobs": "kind n classes dim separation seed",
    "dataset.mnist_idx": "kind train_images train_labels test_images test_labels",
    "deletion.random_fraction": "kind fraction",
    "deletion.classwise": "kind class_id",
}


_REQUIRED = object()


def _field(section: dict, path: str, kind, default=_REQUIRED):
    """The config field `path` (its last dotted part keys `section`) converted
    by `kind`, or `default` when absent; FormatError naming the field when it
    is missing or does not convert."""
    key = path.rsplit(".", 1)[-1]
    if key not in section:
        if default is _REQUIRED:
            raise FormatError(f"config missing field {path}")
        return default
    try:
        return kind(section[key])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"config field {path} is malformed: {exc!r}") from exc


def _boolean(value) -> bool:
    """A JSON true or false; a string, a number or null is malformed."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _ints(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


def _budgets(values) -> tuple[tuple[float, float], ...]:
    return tuple((float(b["epsilon"]), float(b["delta"])) for b in values)


def config_from_dict(doc: dict) -> ExperimentConfig:
    """The config of a JSON document, read through the builders the cells use,
    so that a config error fails before any seed trains."""
    if not isinstance(doc, dict):
        raise FormatError(f"config must be a JSON object, got {type(doc).__name__}")
    model = _field(doc, "model", dict)
    config = ExperimentConfig(
        dataset=_field(doc, "dataset", dict),
        deletion=_field(doc, "deletion", dict),
        model_hidden=_field(model, "model.hidden", _ints),
        train=_field(doc, "train", dict),
        unlearn=_field(doc, "unlearn", dict),
        finetune=_field(doc, "finetune", dict, {}),
        budgets=_field(doc, "budgets", _budgets),
        k_values=_field(doc, "k_values", _ints, (1,)),
        method=doc.get("method", METHOD_BLOCKWISE),
        basis_strategy=doc.get("basis_strategy", "random_orthonormal"),
        test_fraction=_field(doc, "test_fraction", float, 0.2),
        step_cap=_field(doc, "step_cap", int, 1000),
        n_seeds=_field(doc, "n_seeds", int, 5),
        seed0=_field(doc, "seed0", int, 0),
        output_dir=_field(doc, "output_dir", str, "runs"),
    )
    for name, section in (("", doc), ("model", model), ("train", config.train),
                          ("unlearn", config.unlearn), ("finetune", config.finetune),
                          ("dataset", config.dataset), ("deletion", config.deletion)):
        keys = _KEYS.get(name) or _KEYS.get(f"{name}.{section.get('kind')}")
        if keys is None:
            raise DomainError(f"unknown {name} kind {section.get('kind')!r}")
        unknown = sorted(set(section) - set(keys.split()))
        if unknown:
            path = f"{name}.{unknown[0]}" if name else unknown[0]
            raise FormatError(f"config has unknown field {path}")
    train_config(config)
    deletion_request(config)
    for epsilon, delta in config.budgets:
        budget_spec(config, epsilon, delta)
    unlearn_settings(config)
    return config


def resolve_output_dir(config: ExperimentConfig, override: str | None = None) -> str:
    if override:
        return override
    return os.environ.get(ENV_OUTPUT_DIR, config.output_dir)


def load_dataset(config: ExperimentConfig) -> tuple[ds.Dataset, ds.Dataset | None]:
    """Returns (train pool, external test set or None)."""
    spec = config.dataset
    kind = spec.get("kind")
    if kind == "blobs":
        data = ds.generate_blobs(
            n=_field(spec, "dataset.n", int),
            classes=_field(spec, "dataset.classes", int),
            dim=_field(spec, "dataset.dim", int),
            separation=_field(spec, "dataset.separation", float),
            seed=_field(spec, "dataset.seed", int, 0),
        )
        return data, None
    if kind == "mnist_idx":
        train = ds.load_idx(_field(spec, "dataset.train_images", str),
                            _field(spec, "dataset.train_labels", str))
        test = None
        if "test_images" in spec:
            test = ds.load_idx(_field(spec, "dataset.test_images", str),
                               _field(spec, "dataset.test_labels", str))
        return train, test
    raise DomainError(f"unknown dataset kind {kind!r}")


def deletion_request(config: ExperimentConfig):
    spec = config.deletion
    kind = spec.get("kind")
    if kind == "random_fraction":
        return ds.RandomFraction(_field(spec, "deletion.fraction", float))
    if kind == "classwise":
        return ds.ClassWise(_field(spec, "deletion.class_id", int))
    raise DomainError(f"unknown deletion kind {kind!r}")


def architecture(config: ExperimentConfig, data: ds.Dataset) -> mdl.MlpSpec:
    return mdl.MlpSpec(
        (data.inputs.shape[1], *config.model_hidden, data.num_classes)
    )


def train_config(config: ExperimentConfig) -> eng.TrainConfig:
    t = config.train
    return eng.TrainConfig(
        steps=_field(t, "train.steps", int),
        lr=_field(t, "train.lr", float, 0.01),
        momentum=_field(t, "train.momentum", float, 0.9),
        weight_decay=_field(t, "train.weight_decay", float, 1e-5),
        batch_size=_field(t, "train.batch_size", int, 64),
    )


def budget_spec(config: ExperimentConfig, epsilon: float, delta: float) -> acc.BudgetSpec:
    u = config.unlearn
    if "c0" in u and "delta_rho" in u:
        raise DomainError("give either c0 or delta_rho, not both")
    if "c0" in u:
        c0 = _field(u, "unlearn.c0", float)
    elif "delta_rho" in u:
        c0 = _field(u, "unlearn.delta_rho", float) / 2.0
    else:
        raise DomainError("unlearn config needs c0 or delta_rho")
    return acc.BudgetSpec(
        epsilon=epsilon,
        delta=delta,
        gamma=_field(u, "unlearn.gamma", float),
        lam=_field(u, "unlearn.lam", float),
        c1=_field(u, "unlearn.c1", float),
        c0=c0,
        q=None if u.get("q") is None else _field(u, "unlearn.q", float),
    )


def unlearn_settings(config: ExperimentConfig) -> tuple[dict, dict]:
    """The cells' settings besides the budget: `make_plan`'s keyword
    arguments, and `RunConfig`'s other than the plan, basis and seeds."""
    u, f = config.unlearn, config.finetune
    steps = None if u.get("steps") is None else _field(u, "unlearn.steps", int)
    ft_steps = None if f.get("steps") is None else _field(f, "finetune.steps", int)
    return (
        {"steps": steps, "scale_c0": _field(u, "unlearn.scale_c0", _boolean, True)},
        {"batch_size": _field(u, "unlearn.batch_size", int, 64),
         "fine_tune_steps": ft_steps,
         "fine_tune_lr": _field(f, "finetune.lr", float, 0.01),
         "fine_tune_momentum": _field(f, "finetune.momentum", float, 0.9),
         "fine_tune_weight_decay": _field(f, "finetune.weight_decay", float, 0.0),
         "step_cap": config.step_cap},
    )


def cell_seeds(config: ExperimentConfig, seed_index: int) -> eng.Seeds:
    if seed_index < 0:
        raise DomainError(f"seed index must be >= 0, got {seed_index}")
    base = config.seed0 + seed_index
    return eng.Seeds(init=base, data_order=base + 10_000, noise=base + 20_000)


def basis_seed(config: ExperimentConfig, seed_index: int) -> int:
    return config.seed0 + seed_index + 30_000


def cell_key(method: str, epsilon: float, k: int, seed_index: int) -> str:
    return f"{method}_eps{epsilon:g}_k{k}_seed{seed_index}"


@dataclass
class CellResult:
    key: str
    method: str
    epsilon: float
    k: int
    seed_index: int
    report: audit.AuditReport
    min_unlearn_test_acc: float | None


@dataclass
class ExperimentResult:
    cells: list[CellResult] = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PreparedSeed:
    """One seed of the grid, split, and the output directory of its files."""

    config: ExperimentConfig
    out: str
    data: ds.Dataset
    index: int
    seeds: eng.Seeds
    split: ds.ScenarioSplit
    eval_sets: eng.EvalSets


def evaluation_sets(data, external_test, split) -> eng.EvalSets:
    """The test, retain and forget sets of a split; the test set is the
    external one when one was loaded, else the split's held-out rows."""
    test = external_test if external_test is not None else data.subset(split.test_idx)
    return eng.EvalSets(
        test=test.pair(),
        retain=data.subset(split.retain_idx).pair(),
        forget=data.subset(split.forget_idx).pair(),
    )


def prepare_seed(config, out, data, external_test, seed_index) -> PreparedSeed:
    """Split one seed and write its split under `out`.  Rows are held out for
    testing only when no external test set was loaded."""
    seeds = cell_seeds(config, seed_index)
    test_fraction = config.test_fraction if external_test is None else 0.0
    split = ds.make_split(
        data, deletion_request(config), seed=seeds.init, test_fraction=test_fraction
    )
    ds.save_split(split, os.path.join(out, f"split_seed{seed_index}.json"))
    return PreparedSeed(
        config, out, data, seed_index, seeds, split,
        evaluation_sets(data, external_test, split),
    )


def model_path(seed: PreparedSeed, name: str) -> str:
    """Where the seed's model `name` ("full" or "retrain") is saved."""
    return os.path.join(seed.out, f"model_{name}_seed{seed.index}.ckpt")


def _timed(out, key, fn, *args):
    """fn(*args) and its wall time in minutes, which is set as `key` in the
    timings file under `out` (this is that file's only writer).  The other
    entries there are kept: each key holds its latest measurement."""
    start = time.perf_counter()
    result = fn(*args)
    minutes = (time.perf_counter() - start) / 60.0
    path = os.path.join(out, "timings.json")
    timings = ds.read_json(path, "timings file") if os.path.exists(path) else {}
    if not isinstance(timings, dict):
        raise FormatError("timings file is not a JSON object")
    timings[key] = minutes
    with open(path, "w") as fh:
        json.dump(timings, fh, indent=2, sort_keys=True)
    return result, minutes


def train_full(seed: PreparedSeed) -> mdl.ParamVector:
    """Train the seed's full model on its retain and forget rows, in index
    order, and save it."""
    split = seed.split
    pool = seed.data.subset(np.sort(np.concatenate([split.retain_idx, split.forget_idx])))
    params = eng.train(
        architecture(seed.config, seed.data), pool.pair(), seed.seeds,
        train_config(seed.config),
    )
    mdl.save_params(params, model_path(seed, "full"))
    return params


def full_model(seed: PreparedSeed) -> mdl.ParamVector:
    """The seed's full model: its checkpoint, which must hold the config's
    architecture, or trained and saved when there is none."""
    path = model_path(seed, "full")
    if not os.path.exists(path):
        return train_full(seed)
    params = mdl.load_params(path)
    if params.layer_map != mdl.layer_map(architecture(seed.config, seed.data)):
        raise FormatError(f"{path} holds a model of another architecture than the config's")
    return params


def retrain(seed: PreparedSeed) -> tuple[mdl.ParamVector, float]:
    """The coupled retrain on the seed's retain rows, saved, and its wall time
    in minutes, recorded as `retrain_seed<n>`."""
    params, minutes = _timed(
        seed.out, f"retrain_seed{seed.index}", eng.coupled_retrain,
        architecture(seed.config, seed.data), seed.eval_sets.retain, seed.seeds,
        train_config(seed.config),
    )
    mdl.save_params(params, model_path(seed, "retrain"))
    return params, minutes


def run_cell(
    seed: PreparedSeed, full_params, *, method, epsilon, delta, k,
) -> tuple[eng.RunRecord, float]:
    """Unlearn one cell from the full model and write its CSV, checkpoint and
    manifest under the seed's output directory.

    Builds the plan and, for k > 1, the basis; runs the block schedule on the
    retain rows and checks that no forget row fed a gradient.  Returns the run
    record and the unlearning wall time in minutes, recorded under the
    cell's key.
    """
    config, out = seed.config, seed.out
    key = cell_key(method, epsilon, k, seed.index)
    plan_args, run_args = unlearn_settings(config)
    plan = acc.make_plan(budget_spec(config, epsilon, delta), k, **plan_args)
    basis = None
    if k > 1:
        basis = sub.build_basis(
            config.basis_strategy, full_params.layer_map, k,
            seed=basis_seed(config, seed.index),
        )
    run_cfg = eng.RunConfig(plan=plan, basis=basis, seeds=seed.seeds, **run_args)
    record, rte = _timed(
        out, key, eng.run_blockwise, full_params, run_cfg, seed.eval_sets.retain, seed.eval_sets
    )
    split = seed.split
    if np.intersect1d(split.retain_idx[record.touched_rows], split.forget_idx).size:
        raise DomainError("forget rows fed a gradient")

    record.write_csv(os.path.join(out, f"{key}.csv"))
    mdl.save_params(record.final_params, os.path.join(out, f"{key}.ckpt"))
    manifest = {
        "key": key,
        "method": method,
        "epsilon": epsilon,
        "delta": delta,
        "k": k,
        "seed_index": seed.index,
        "seeds": asdict(seed.seeds),
        "plan": plan.to_dict(),
        "checkpoint": f"{key}.ckpt",
        "csv": f"{key}.csv",
        "basis_strategy": None if basis is None else config.basis_strategy,
        "basis_seed": None if basis is None else basis.seed,
    }
    with open(os.path.join(out, f"{key}_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return record, rte


def run_experiment(
    config: ExperimentConfig, output_dir: str | None = None
) -> ExperimentResult:
    out = resolve_output_dir(config, output_dir)
    os.makedirs(out, exist_ok=True)
    data, external_test = load_dataset(config)
    result = ExperimentResult()
    k_values = config.k_values if config.method == METHOD_BLOCKWISE else (1,)

    for seed_index in range(config.n_seeds):
        try:
            seed = prepare_seed(config, out, data, external_test, seed_index)
            full_params = train_full(seed)
            retrain_params, retrain_minutes = retrain(seed)
        except Exception as exc:  # noqa: BLE001 - recorded, other seeds proceed
            result.errors[f"seed{seed_index}"] = f"{type(exc).__name__}: {exc}"
            continue

        audit_sets = (seed.eval_sets.retain, seed.eval_sets.forget, seed.eval_sets.test)
        baseline = audit.compute_metrics(
            retrain_params, *audit_sets, rte_minutes=retrain_minutes,
            mia_seed=seed.seeds.init,
        )
        result.cells.append(
            CellResult(
                key=cell_key(METHOD_RETRAIN, 0.0, 0, seed_index),
                method=METHOD_RETRAIN,
                epsilon=0.0,
                k=0,
                seed_index=seed_index,
                report=audit.against_baseline(baseline, baseline),
                min_unlearn_test_acc=None,
            )
        )
        if config.method == METHOD_RETRAIN:
            continue

        for epsilon, delta in config.budgets:
            for k in k_values:
                key = cell_key(config.method, epsilon, k, seed_index)
                try:
                    record, rte = run_cell(
                        seed, full_params,
                        method=config.method, epsilon=epsilon, delta=delta, k=k,
                    )
                    report = audit.against_baseline(
                        audit.compute_metrics(
                            record.final_params, *audit_sets,
                            rte_minutes=rte, mia_seed=seed.seeds.init,
                        ),
                        baseline,
                    )
                    result.cells.append(
                        CellResult(
                            key=key,
                            method=config.method,
                            epsilon=epsilon,
                            k=k,
                            seed_index=seed_index,
                            report=report,
                            min_unlearn_test_acc=100.0
                            * record.min_accuracy("unlearn"),
                        )
                    )
                except Exception as exc:  # noqa: BLE001
                    result.errors[key] = f"{type(exc).__name__}: {exc}"

    result.summary = summarize(result)
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write(format_report(result))
    return result


# audit metrics averaged per group; the first four are the report's columns
_METRICS = ("ua", "ra", "ta", "mia_efficacy", "ra_delta", "ta_delta")


def _groups(cells):
    """The cells grouped by (method, epsilon, k), in sorted key order."""
    groups: dict[tuple, list[CellResult]] = {}
    for cell in cells:
        groups.setdefault((cell.method, cell.epsilon, cell.k), []).append(cell)
    return sorted(groups.items())


def _stats(cells) -> dict:
    """Mean, std and count over the cells of each audit metric and of the
    minimum unlearning test accuracy; None values are left out."""
    columns = {m: [getattr(c.report, m) for c in cells] for m in _METRICS}
    columns["min_unlearn_test_acc"] = [c.min_unlearn_test_acc for c in cells]
    stats = {}
    for name, values in columns.items():
        vals = [v for v in values if v is not None]
        stats[name] = (
            {"mean": float(np.mean(vals)), "std": float(np.std(vals)), "n": len(vals)}
            if vals else {"mean": None, "std": None, "n": 0}
        )
    return stats


def summarize(result: ExperimentResult) -> dict:
    """Mean/std over seeds for every (method, epsilon, k) group.

    Timing fields are deliberately absent so the summary is byte-stable.
    """
    rows = {
        f"{method}_eps{epsilon:g}_k{k}": {
            "method": method,
            "epsilon": epsilon,
            "k": k,
            "seeds": [c.seed_index for c in cells],
            **_stats(cells),
        }
        for (method, epsilon, k), cells in _groups(result.cells)
    }
    return {"groups": rows, "errors": dict(sorted(result.errors.items()))}


def _cell_fmt(stats: dict) -> str:
    if stats["mean"] is None:
        return "    --    "
    return f"{stats['mean']:6.2f}±{stats['std']:4.2f}"


def format_report(result: ExperimentResult) -> str:
    """Text table in the UA / RA / TA / MIA / RTE column order; RTE is the
    mean wall time in seconds of the row's measured cells (unlearning, or
    retraining on the retrain row), and `--` when none was measured."""
    lines = [
        f"{'Method':28s} {'UA':>12s} {'RA':>12s} {'TA':>12s} {'MIA':>12s} {'RTE(s)':>9s}"
    ]
    for (method, epsilon, k), cells in _groups(result.cells):
        label = "retrain" if method == METHOD_RETRAIN else f"{method} eps={epsilon:g} k={k}"
        stats = _stats(cells)
        columns = " ".join(f"{_cell_fmt(stats[m]):>12s}" for m in _METRICS[:4])
        minutes = [c.report.rte_minutes for c in cells if c.report.rte_minutes is not None]
        rte = f"{60.0 * float(np.mean(minutes)):9.3f}" if minutes else f"{'--':>9s}"
        lines.append(f"{label:28s} {columns} {rte}")
    if result.errors:
        lines.append("")
        lines.append("errors:")
        for key, msg in sorted(result.errors.items()):
            lines.append(f"  {key}: {msg}")
    return "\n".join(lines) + "\n"
