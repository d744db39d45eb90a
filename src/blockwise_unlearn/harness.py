"""Experiment orchestration: configs, cells, summaries, and reports.

A config describes one dataset, one deletion scenario, and a grid of
(budget, block count, seed) cells.  Each cell trains the full model, builds
the coupled retrain baseline, runs the selected unlearning method, audits the
result, and emits a per-step CSV plus a JSON manifest.  The summary JSON and
the per-run CSVs are byte-identical across reruns; wall-clock timings go to a
separate file so they never break determinism.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import accounting as acc
from . import audit
from . import datasets as ds
from . import engine as eng
from . import model as mdl
from . import subspace as sub
from .errors import DomainError, FormatError, UnlearnError

METHOD_BLOCKWISE = "blockwise"
METHOD_RETRAIN = "retrain"
METHODS = (METHOD_BLOCKWISE, METHOD_RETRAIN)

@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config file: dataset, deletion, model and the cell grid."""

    dataset: dict
    deletion: dict
    model_hidden: tuple[int, ...]
    train: dict
    unlearn: dict
    budgets: tuple[tuple[float, float], ...]
    finetune: dict = field(default_factory=dict)
    k_values: tuple[int, ...] = (1,)
    method: str = METHOD_BLOCKWISE
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
        if self.step_cap < 0:
            raise DomainError(f"step_cap must be >= 0, got {self.step_cap}")
        if self.basis_strategy not in sub.STRATEGIES:
            raise DomainError(f"unknown basis strategy {self.basis_strategy!r}")
        if not 0 <= self.test_fraction < 1:
            raise DomainError(f"test_fraction must be in [0, 1), got {self.test_fraction}")
        for name in ("budgets", "k_values"):
            if not getattr(self, name):
                raise DomainError(f"config field {name} must not be empty")
        # a cell's key holds f"{epsilon:g}" and k, and nothing of delta
        if len({f"{eps:g}" for eps, _ in self.budgets}) < len(self.budgets):
            raise DomainError(f"budgets share an epsilon: {self.budgets}")
        if len(set(self.k_values)) < len(self.k_values):
            raise DomainError(f"k_values repeat a block count: {self.k_values}")


def load_config(path) -> ExperimentConfig:
    return config_from_dict(ds.read_json(path, "config"))


# Kinds: each reads one JSON type and no other (an integer is neither a float
# nor a bool, a number is not a string), raising TypeError for any other.
def _json(types, name, convert=None):
    def read(value):
        if not isinstance(value, types) or (type(value) is bool and types is not bool):
            raise TypeError(f"expected {name}, got {value!r}")
        return value if convert is None else convert(value)
    return read


_integer, _float = _json(int, "a JSON integer"), _json((int, float), "a JSON number", float)
_string = _json(str, "a JSON string")
_object, _array = _json(dict, "a JSON object"), _json(list, "a JSON array")


def _number(value) -> float:
    """A JSON number, as a float; NaN and the infinities, which Python's JSON
    reader accepts, are a DomainError."""
    x = _float(value)
    if not math.isfinite(x):
        raise DomainError(f"must be finite, got {value}")
    return x


def _raw(value):
    """Read as given; the record built from it checks it."""
    return value


def _at_least(floor: int):
    """A JSON integer >= floor; a count below it is a DomainError."""
    def read(value):
        if _integer(value) < floor:
            raise DomainError(f"must be >= {floor}, got {value}")
        return value
    return read


def _number_in(text: str, holds):
    """A JSON number x for which holds(x); any other number is a DomainError."""
    def read(value):
        x = _number(value)
        if not holds(x):
            raise DomainError(f"must be {text}, got {value}")
        return x
    return read


# an optimizer's step size and weight decay, and its momentum
_rate = _number_in(">= 0", lambda x: x >= 0)
_momentum = _number_in("in [0, 1)", lambda x: 0 <= x < 1)


def _counts(floor: int):
    """A JSON array of JSON integers >= floor, as a tuple."""
    return lambda value: tuple(map(_at_least(floor), _array(value)))


# The config format: per section ("" is the top level; each entry of
# `budgets` is read as section "budgets"; the dataset and deletion sections
# by their kind) its required keys, and the kind reading each key it may
# hold.  A key's default lives in the record the key builds.
_SECTIONS = {
    "": ("dataset deletion model train unlearn budgets", dict(
        dataset=_object, deletion=_object, model=_object, train=_object,
        unlearn=_object, finetune=_object, budgets=_array, k_values=_counts(1),
        method=_raw, basis_strategy=_raw, test_fraction=_number, step_cap=_integer,
        n_seeds=_integer, seed0=_integer, output_dir=_string)),
    "model": ("hidden", dict(hidden=_counts(1))),
    "budgets": ("epsilon delta", dict(epsilon=_number, delta=_number)),
    "train": ("steps", dict(steps=_integer, lr=_rate, momentum=_momentum,
                            weight_decay=_rate, batch_size=_at_least(1))),
    "unlearn": ("gamma lam c1 delta_rho", dict(
        gamma=_number, lam=_number, c1=_number, delta_rho=_number, q=_number,
        steps=_at_least(1), batch_size=_at_least(1))),
    "finetune": ("", dict(steps=_at_least(0), lr=_rate, momentum=_momentum,
                          weight_decay=_rate)),
    "dataset.blobs": ("n classes dim separation", dict(
        n=_integer, classes=_integer, dim=_integer, separation=_number,
        seed=_at_least(0))),
    "dataset.mnist_idx": ("train_images train_labels", dict(
        train_images=_string, train_labels=_string, test_images=_string,
        test_labels=_string)),
    "deletion.random_fraction": ("fraction", dict(fraction=_number)),
    "deletion.classwise": ("class_id", dict(class_id=_at_least(0))),
}


def _read(name: str, section) -> dict:
    """The keys present in config section `name`, each read by its kind (a
    kinded section's `kind` is left out).  FormatError naming the dotted key
    when one is unknown, missing or does not read; DomainError for an
    unknown kind or a count below its floor."""
    if not isinstance(section, dict):
        raise FormatError(f"config {name or 'document'} is not a JSON object")
    if name not in _SECTIONS:
        kind = section.get("kind")
        if f"{name}.{kind}" not in _SECTIONS:
            raise DomainError(f"unknown {name} kind {kind!r}")
        name = f"{name}.{kind}"
        section = {key: value for key, value in section.items() if key != "kind"}
    required, kinds = _SECTIONS[name]
    prefix = name.split(".")[0] + "." if name else ""
    unknown = sorted(set(section) - set(kinds))
    if unknown:
        raise FormatError(f"config has unknown field {prefix}{unknown[0]}")
    for key in required.split():
        if key not in section:
            raise FormatError(f"config missing field {prefix}{key}")
    fields = {}
    for key, value in section.items():
        try:
            fields[key] = kinds[key](value)
        except DomainError as exc:
            raise DomainError(f"config field {prefix}{key} {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"config field {prefix}{key} is malformed: {exc}") from exc
    return fields


def config_from_dict(doc: dict) -> ExperimentConfig:
    """The config of a JSON document, read through the builders the cells use,
    so that a config error fails before any seed trains.  A cell whose plan
    does not build is left to record that error when the grid runs; the plan
    of every other cell must fit in `step_cap`."""
    fields = _read("", doc)
    model = _read("model", fields.pop("model"))
    budgets = [_read("budgets", entry) for entry in fields["budgets"]]
    fields["budgets"] = tuple((b["epsilon"], b["delta"]) for b in budgets)
    config = ExperimentConfig(model_hidden=model["hidden"], **fields)
    classes = _dataset_fields(config).get("classes", math.inf)  # IDX: read with the data
    train_config(config)
    deletion = deletion_request(config)
    if isinstance(deletion, ds.ClassWise) and deletion.class_id >= classes:
        raise DomainError(f"config field deletion.class_id must be < dataset.classes "
                          f"({classes}), got {deletion.class_id}")
    plan_args, _ = unlearn_settings(config)
    for epsilon, delta in config.budgets:
        spec = budget_spec(config, epsilon, delta)
        for k in config.k_values:
            try:
                noisy = acc.make_plan(spec, k, **plan_args).total_steps
            except UnlearnError:
                continue
            if config.step_cap < noisy:
                raise DomainError(
                    f"step_cap {config.step_cap} is below the {noisy} noisy steps "
                    f"of the cells at epsilon {epsilon:g}, k = {k}")
    return config


def resolve_output_dir(config: ExperimentConfig, override: str | None = None) -> str:
    return override or config.output_dir


def _dataset_fields(config: ExperimentConfig) -> dict:
    fields = _read("dataset", config.dataset)
    if ("test_images" in fields) != ("test_labels" in fields):
        raise FormatError("config gives one of dataset.test_images and "
                          "dataset.test_labels without the other")
    if config.dataset["kind"] == "blobs":
        try:
            ds.check_blobs(fields["n"], fields["classes"], fields["dim"], fields["separation"])
        except DomainError as exc:
            raise DomainError(f"config field dataset.{exc}") from exc
    return fields


def load_dataset(config: ExperimentConfig) -> tuple[ds.Dataset, ds.Dataset | None]:
    """Returns (train pool, external test set or None)."""
    f = _dataset_fields(config)
    if config.dataset["kind"] == "blobs":
        return ds.generate_blobs(**f), None
    train = ds.load_idx(f["train_images"], f["train_labels"])
    test = ds.load_idx(f["test_images"], f["test_labels"]) if "test_images" in f else None
    return train, test


def deletion_request(config: ExperimentConfig):
    fields = _read("deletion", config.deletion)
    kinds = {"random_fraction": ds.RandomFraction, "classwise": ds.ClassWise}
    return kinds[config.deletion["kind"]](**fields)


def architecture(config: ExperimentConfig, data: ds.Dataset) -> mdl.MlpSpec:
    return mdl.MlpSpec(
        (data.inputs.shape[1], *config.model_hidden, data.num_classes)
    )


def train_config(config: ExperimentConfig) -> eng.TrainConfig:
    return eng.TrainConfig(**_read("train", config.train))


def budget_spec(config: ExperimentConfig, epsilon: float, delta: float) -> acc.BudgetSpec:
    u = _read("unlearn", config.unlearn)
    return acc.BudgetSpec(epsilon=epsilon, delta=delta, c0=u["delta_rho"] / 2.0, **{
        key: u[key] for key in ("gamma", "lam", "c1", "q") if key in u})


def unlearn_settings(config: ExperimentConfig) -> tuple[dict, dict]:
    """The cells' settings besides the budget: `make_plan`'s keyword
    arguments, and `RunConfig`'s other than the plan, basis and seeds."""
    u = _read("unlearn", config.unlearn)
    run_args = {f"fine_tune_{key}": value
                for key, value in _read("finetune", config.finetune).items()}
    if "batch_size" in u:
        run_args["batch_size"] = u["batch_size"]
    run_args["step_cap"] = config.step_cap
    return ({"steps": u["steps"]} if "steps" in u else {}), run_args


def cell_seeds(config: ExperimentConfig, seed_index: int) -> eng.Seeds:
    if seed_index < 0:
        raise DomainError(f"seed index must be >= 0, got {seed_index}")
    base = config.seed0 + seed_index
    return eng.Seeds(init=base, data_order=base + 10_000, noise=base + 20_000)


def basis_seed(config: ExperimentConfig, seed_index: int) -> int:
    return config.seed0 + seed_index + 30_000


def cell_key(method: str, epsilon: float, k: int, seed_index: int) -> str:
    return f"{method}_eps{epsilon:g}_k{k}_seed{seed_index}"


class CellResult(NamedTuple):
    key: str
    method: str
    epsilon: float
    k: int
    seed_index: int
    report: audit.AuditReport
    min_unlearn_test_acc: float | None


@dataclass
class ExperimentResult:
    """The cells of a grid, the errors of failed cells, and the summary."""

    cells: list[CellResult] = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)


class PreparedSeed(NamedTuple):
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


def split_seed(config, out, data, external_test, seed_index):
    """The coupled seeds and the split of one seed, with the split written
    under `out`.  Rows are held out for testing only when no external test
    set was loaded.  The test set, held out or external, needs at least one
    row."""
    seeds = cell_seeds(config, seed_index)
    test_fraction = config.test_fraction if external_test is None else 0.0
    split = ds.make_split(
        data, deletion_request(config), seed=seeds.init, test_fraction=test_fraction
    )
    if not (len(split.test_idx) if external_test is None else len(external_test)):
        source = ("dataset.test_images holds no row" if external_test is not None else
                  f"test_fraction {config.test_fraction} holds out no row of {len(data)}")
        raise DomainError(f"{source}; the test set needs at least one")
    ds.save_split(split, os.path.join(out, f"split_seed{seed_index}.json"))
    return seeds, split


def prepare_seed(config, out, data, external_test, seed_index) -> PreparedSeed:
    """One seed split by `split_seed`, with its evaluation sets."""
    seeds, split = split_seed(config, out, data, external_test, seed_index)
    return PreparedSeed(config, out, data, seed_index, seeds, split,
                        evaluation_sets(data, external_test, split))


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
    ds.write_json(path, timings)
    return result, minutes


def train_full_models(config, data, seeds_and_splits) -> list:
    """The full model of each (seeds, split) pair, trained on its retain and
    forget rows in index order, all in lockstep (`engine.train_lockstep`):
    the model, or the exception that failed it alone."""
    return eng.train_lockstep(
        architecture(config, data), data.pair(),
        [(np.sort(np.concatenate([split.retain_idx, split.forget_idx])), seeds)
         for seeds, split in seeds_and_splits],
        train_config(config),
    )


def train_full(seed: PreparedSeed) -> mdl.ParamVector:
    """Train the seed's full model (see `train_full_models`) and save it."""
    (params,) = train_full_models(seed.config, seed.data, [(seed.seeds, seed.split)])
    if isinstance(params, Exception):
        raise params
    mdl.save_params(params, model_path(seed, "full"))
    return params


def load_model(path, config: ExperimentConfig, data: ds.Dataset) -> mdl.ParamVector:
    """The checkpoint at `path`, which must hold the config's architecture on
    `data`: a map of no fc layers is a DomainError, any other a FormatError."""
    params = mdl.load_params(path)
    mdl.fc_layers(params.layer_map)
    if params.layer_map != mdl.layer_map(architecture(config, data)):
        raise FormatError(f"{path} holds a model of another architecture than the config's")
    return params


def full_model(seed: PreparedSeed) -> mdl.ParamVector:
    """The seed's full model: its checkpoint (see `load_model`), or trained
    and saved when there is none."""
    path = model_path(seed, "full")
    if not os.path.exists(path):
        return train_full(seed)
    return load_model(path, seed.config, seed.data)


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
    seed: PreparedSeed, full_params, *, epsilon, delta, k,
) -> tuple[eng.RunRecord, float]:
    """Unlearn one blockwise cell from the full model and write its CSV,
    checkpoint and manifest under the seed's output directory.

    Builds the plan and, for k > 1, the basis; runs the block schedule on the
    retain rows and checks that no forget row fed a gradient.  Returns the run
    record and the unlearning wall time in minutes, recorded under the
    cell's key.
    """
    config, out = seed.config, seed.out
    key = cell_key(METHOD_BLOCKWISE, epsilon, k, seed.index)
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
        "method": METHOD_BLOCKWISE,
        "epsilon": epsilon,
        "delta": delta,
        "k": k,
        "seed_index": seed.index,
        "seeds": seed.seeds._asdict(),
        "plan": plan.to_dict(),
        "checkpoint": f"{key}.ckpt",
        "csv": f"{key}.csv",
        "basis_strategy": None if basis is None else config.basis_strategy,
        "basis_seed": None if basis is None else basis.seed,
    }
    ds.write_json(os.path.join(out, f"{key}_manifest.json"), manifest)
    return record, rte


def run_experiment(
    config: ExperimentConfig, output_dir: str | None = None
) -> ExperimentResult:
    out = resolve_output_dir(config, output_dir)
    os.makedirs(out, exist_ok=True)
    data, external_test = load_dataset(config)
    result = ExperimentResult()

    splits = {}
    for seed_index in range(config.n_seeds):
        try:
            splits[seed_index] = split_seed(config, out, data, external_test, seed_index)
        except Exception as exc:  # noqa: BLE001 - recorded, other seeds proceed
            result.errors[f"seed{seed_index}"] = f"{type(exc).__name__}: {exc}"
    # every seed's full model first, in lockstep; then each seed in turn, its
    # evaluation sets alive only while it runs
    full_models = train_full_models(config, data, splits.values())
    for (seed_index, (seeds, split)), full_params in zip(splits.items(), full_models):
        try:
            if isinstance(full_params, Exception):
                raise full_params
            seed = PreparedSeed(config, out, data, seed_index, seeds, split,
                                evaluation_sets(data, external_test, split))
            mdl.save_params(full_params, model_path(seed, "full"))
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
            for k in config.k_values:
                key = cell_key(METHOD_BLOCKWISE, epsilon, k, seed_index)
                try:
                    record, rte = run_cell(
                        seed, full_params, epsilon=epsilon, delta=delta, k=k
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
                            method=METHOD_BLOCKWISE,
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
    ds.write_json(os.path.join(out, "summary.json"), result.summary)
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
