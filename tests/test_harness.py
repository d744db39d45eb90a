import inspect
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from blockwise_unlearn import accounting as acc
from blockwise_unlearn import audit, harness
from blockwise_unlearn import datasets as ds
from blockwise_unlearn import engine as eng
from blockwise_unlearn import model as mdl
from blockwise_unlearn import subspace as sub
from blockwise_unlearn.errors import DomainError, FormatError

from test_datasets import write_idx_fixture


def base_config_doc(output_dir):
    return {
        "output_dir": output_dir,
        "dataset": {"kind": "blobs", "n": 800, "classes": 3, "dim": 6,
                    "separation": 5.0, "seed": 1},
        "deletion": {"kind": "random_fraction", "fraction": 0.1},
        "test_fraction": 0.25,
        "model": {"hidden": [16]},
        "train": {"steps": 150, "lr": 0.05, "momentum": 0.9,
                  "weight_decay": 1e-5, "batch_size": 64},
        "budgets": [{"epsilon": 1.0, "delta": 1e-5}],
        "k_values": [1, 2],
        "method": "blockwise",
        "basis_strategy": "random_orthonormal",
        "unlearn": {"gamma": 0.01, "lam": 1.0, "c1": 1.0, "delta_rho": 0.05,
                    "steps": 2, "batch_size": 64},
        "finetune": {"steps": 20, "lr": 0.02, "momentum": 0.9, "weight_decay": 0.0},
        "step_cap": 1000,
        "n_seeds": 2,
        "seed0": 0,
    }


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestConfig:
    def test_load_round_trip(self, tmp_path):
        path = write_config(tmp_path, base_config_doc(str(tmp_path / "out")))
        config = harness.load_config(path)
        assert config.method == "blockwise"
        assert config.budgets == ((1.0, 1e-5),)
        assert config.k_values == (1, 2)

    def test_missing_field(self, tmp_path):
        doc = base_config_doc(str(tmp_path))
        del doc["train"]
        with pytest.raises(FormatError):
            harness.config_from_dict(doc)

    @pytest.mark.parametrize("edit,field", [
        (lambda doc: doc["model"].update(hidden="x"), "model.hidden"),
        (lambda doc: doc["model"].update(hidden=16), "model.hidden"),
        (lambda doc: doc["budgets"][0].pop("delta"), "budgets"),
        (lambda doc: doc.update(n_seeds="two"), "n_seeds"),
        # JSON reads 1e400 as an infinite float, which int() cannot convert
        (lambda doc: doc.update(step_cap=float("inf")), "step_cap"),
        (lambda doc: doc["train"].update(steps=float("inf")), "train.steps"),
        # none of these may be converted into another experiment: hidden (1, 6),
        # k_values (1, 4), hidden (16,), 150 or 1 training steps, lr 0.05, a dict
        (lambda doc: doc["model"].update(hidden="16"), "model.hidden"),
        (lambda doc: doc.update(k_values="14"), "k_values"),
        (lambda doc: doc["model"].update(hidden=[16.7]), "model.hidden"),
        (lambda doc: doc["train"].update(steps=150.9), "train.steps"),
        (lambda doc: doc["train"].update(steps=True), "train.steps"),
        (lambda doc: doc["train"].update(lr="0.05"), "train.lr"),
        (lambda doc: doc.update(train=[list(item) for item in doc["train"].items()]), "train"),
    ], ids=["hidden-string", "hidden-int", "budget-without-delta", "n-seeds-string",
            "step-cap-infinite", "train-steps-infinite", "hidden-digit-string",
            "k-values-digit-string", "hidden-float", "train-steps-float", "train-steps-bool",
            "train-lr-string", "train-list-of-pairs"])
    def test_malformed_field_is_named(self, edit, field):
        doc = base_config_doc("x")
        edit(doc)
        with pytest.raises(FormatError, match=field):
            harness.config_from_dict(doc)

    @pytest.mark.parametrize("section,key,value,read", [
        ("dataset", "n", None, harness.load_dataset),
        ("dataset", "separation", "wide", harness.load_dataset),
        ("deletion", "fraction", "tenth", harness.deletion_request),
    ])
    def test_malformed_dataset_or_deletion_field(self, section, key, value, read):
        doc = base_config_doc("x")
        if value is None:
            del doc[section][key]
        else:
            doc[section][key] = value
        with pytest.raises(FormatError, match=f"{section}.{key}"):
            read(harness.config_from_dict(doc))

    def test_non_utf8_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"method": "\xc3\x28"}')
        with pytest.raises(FormatError, match="config"):
            harness.load_config(path)

    def test_config_must_be_an_object(self):
        with pytest.raises(FormatError, match="JSON object"):
            harness.config_from_dict([base_config_doc("x")])

    def test_missing_train_steps(self):
        doc = base_config_doc("x")
        del doc["train"]["steps"]
        with pytest.raises(FormatError, match="train.steps"):
            harness.config_from_dict(doc)

    @pytest.mark.parametrize("name", ["gamma", "lam", "c1"])
    def test_missing_unlearn_field(self, name):
        doc = base_config_doc("x")
        del doc["unlearn"][name]
        with pytest.raises(FormatError, match=f"unlearn.{name}"):
            harness.config_from_dict(doc)

    @pytest.mark.parametrize("section,key", [
        (None, "n_seed"), ("train", "step"), ("unlearn", "scale_co"), ("finetune", "step"),
        ("model", "hiden"), ("dataset", "sep"), ("deletion", "class_id"),
        ("budgets", "detla"),
    ])
    def test_unknown_field_is_named(self, section, key):
        doc = base_config_doc("x")
        target = doc if section is None else doc[section]
        (target[0] if isinstance(target, list) else target)[key] = 12
        path = key if section is None else f"{section}.{key}"
        with pytest.raises(FormatError, match=f"unknown field {path}$"):
            harness.config_from_dict(doc)

    def test_dataset_fields_are_those_of_its_kind(self):
        doc = base_config_doc("x")
        doc["dataset"] = {"kind": "mnist_idx", "train_images": "a", "train_labels": "b",
                          "test_images": "c", "test_labels": "d"}
        harness.config_from_dict(doc)  # the files are not read at load
        doc["dataset"]["n"] = 800
        with pytest.raises(FormatError, match="unknown field dataset.n$"):
            harness.config_from_dict(doc)
        del doc["dataset"]["n"], doc["dataset"]["test_labels"]
        with pytest.raises(FormatError, match="dataset.test_labels"):
            harness.config_from_dict(doc)
        doc["dataset"] = {"kind": "gaussians", "n": 800}
        with pytest.raises(DomainError, match="unknown dataset kind 'gaussians'"):
            harness.config_from_dict(doc)

    @pytest.mark.parametrize("edit,error,field", [
        (lambda doc: doc["deletion"].update(fraction=1.5), DomainError, "fraction"),
        (lambda doc: doc["deletion"].update(kind="all"), DomainError, "deletion kind"),
        (lambda doc: doc["budgets"][0].update(epsilon=-1.0), DomainError, "epsilon"),
        (lambda doc: doc["unlearn"].update(c0=0.1), FormatError, "unlearn.c0"),
        (lambda doc: doc["unlearn"].update(steps="two"), FormatError, "unlearn.steps"),
        (lambda doc: doc["unlearn"].update(batch_size=None), FormatError, "unlearn.batch_size"),
        (lambda doc: doc["finetune"].update(lr="fast"), FormatError, "finetune.lr"),
        (lambda doc: doc["train"].update(steps=-1), DomainError, "training steps"),
        (lambda doc: doc["finetune"].update(steps=-1), DomainError, "finetune.steps"),
        (lambda doc: doc["unlearn"].update(steps=0), DomainError, "unlearn.steps"),
        (lambda doc: doc["train"].update(batch_size=0), DomainError, "train.batch_size"),
        (lambda doc: doc["unlearn"].update(batch_size=0), DomainError, "unlearn.batch_size"),
        # a negative seed fails at load, not as numpy's ValueError at data time
        (lambda doc: doc["dataset"].update(seed=-1), DomainError, "dataset.seed"),
        # a width of 0 fails at load, not in every seed
        (lambda doc: doc["model"].update(hidden=[16, 0]), DomainError, "model.hidden"),
        (lambda doc: doc.update(k_values=[1, 0]), DomainError, "k_values"),
        # NaN passes a `lam < 0` check, and an empty grid computes nothing
        (lambda doc: doc["unlearn"].update(lam=float("nan")), DomainError, "lam"),
        (lambda doc: doc.update(k_values=[]), DomainError, "k_values"),
        (lambda doc: doc.update(budgets=[]), DomainError, "budgets"),
        # a missing key is the only way to ask for a default
        (lambda doc: doc["unlearn"].update(q=None), FormatError, "unlearn.q"),
        (lambda doc: doc["unlearn"].update(steps=None), FormatError, "unlearn.steps"),
        (lambda doc: doc["finetune"].update(steps=None), FormatError, "finetune.steps"),
        # every cell splits c0 by sqrt(k)
        (lambda doc: doc["unlearn"].update(scale_c0=False), FormatError, "unlearn.scale_c0"),
        # a NaN lr trains into non-finite parameters, a negative one ascends
        # the loss, and a momentum of 1 or more never decays the velocity
        (lambda doc: doc["train"].update(lr=float("nan")), DomainError, "train.lr"),
        (lambda doc: doc["train"].update(lr=-0.05), DomainError, "train.lr"),
        (lambda doc: doc["train"].update(momentum=1.5), DomainError, "train.momentum"),
        (lambda doc: doc["train"].update(weight_decay=float("inf")), DomainError,
         "train.weight_decay"),
        (lambda doc: doc["finetune"].update(lr=float("-inf")), DomainError, "finetune.lr"),
        (lambda doc: doc["finetune"].update(momentum=1.0), DomainError, "finetune.momentum"),
        (lambda doc: doc["finetune"].update(weight_decay=-1e-4), DomainError,
         "finetune.weight_decay"),
        (lambda doc: doc.update(step_cap=-1), DomainError, "step_cap"),
        # the k = 2 cells take 2 noisy steps in each block
        (lambda doc: doc.update(step_cap=3), DomainError, "step_cap 3 .* 4 noisy steps"),
        # Python's JSON reader accepts Infinity and NaN; an infinite premise
        # gave every plan sigma2 = inf
        (lambda doc: doc["unlearn"].update(c1=float("inf")), DomainError,
         "unlearn.c1 must be finite"),
        (lambda doc: doc["unlearn"].update(delta_rho=float("inf")), DomainError,
         "unlearn.delta_rho must be finite"),
        (lambda doc: doc["unlearn"].update(q=float("inf")), DomainError,
         "unlearn.q must be finite"),
        (lambda doc: doc["budgets"][0].update(epsilon=float("inf")), DomainError,
         "budgets.epsilon must be finite"),
        (lambda doc: doc["unlearn"].update(gamma=float("-inf")), DomainError,
         "unlearn.gamma must be finite"),
        (lambda doc: doc.update(test_fraction=float("nan")), DomainError,
         "test_fraction must be finite"),
        # blob fields and the deleted class, which failed only in each seed
        (lambda doc: doc["dataset"].update(classes=1), DomainError,
         "dataset.classes must be >= 2"),
        (lambda doc: doc["dataset"].update(n=2), DomainError, "dataset.n must be >= classes"),
        (lambda doc: doc["dataset"].update(dim=0), DomainError, "dataset.dim must be >= 1"),
        (lambda doc: doc["dataset"].update(separation=float("nan")), DomainError,
         "dataset.separation must be finite"),
        (lambda doc: doc.update(deletion={"kind": "classwise", "class_id": 3}), DomainError,
         r"deletion.class_id must be < dataset.classes \(3\)"),
        (lambda doc: doc.update(deletion={"kind": "classwise", "class_id": -1}), DomainError,
         "deletion.class_id must be >= 0"),
    ], ids=["fraction-above-one", "deletion-kind", "negative-epsilon", "both-radii",
            "unlearn-steps", "unlearn-batch-size", "finetune-lr", "negative-train-steps",
            "negative-finetune-steps", "zero-unlearn-steps", "zero-train-batch-size",
            "zero-unlearn-batch-size", "negative-dataset-seed", "zero-width", "zero-blocks",
            "nan-lam", "empty-k-values", "empty-budgets", "null-unlearn-q",
            "null-unlearn-steps", "null-finetune-steps", "scale-c0", "nan-train-lr",
            "negative-train-lr", "train-momentum-above-one", "infinite-train-weight-decay",
            "infinite-finetune-lr", "finetune-momentum-one", "negative-finetune-weight-decay",
            "negative-step-cap", "step-cap-below-noisy-steps", "infinite-unlearn-c1",
            "infinite-unlearn-delta-rho", "infinite-unlearn-q", "infinite-budget-epsilon",
            "infinite-unlearn-gamma", "nan-test-fraction", "one-blob-class",
            "fewer-rows-than-classes", "zero-blob-dim", "nan-blob-separation",
            "class-id-past-the-classes", "negative-class-id"])
    def test_config_errors_fail_at_load(self, edit, error, field):
        doc = base_config_doc("x")
        edit(doc)
        with pytest.raises(error, match=field):
            harness.config_from_dict(doc)

    def test_negative_class_id_fails_at_load_for_any_dataset_kind(self):
        doc = base_config_doc("x")
        doc["dataset"] = {"kind": "mnist_idx", "train_images": "a", "train_labels": "b"}
        doc["deletion"] = {"kind": "classwise", "class_id": -1}
        with pytest.raises(DomainError, match="deletion.class_id must be >= 0"):
            harness.config_from_dict(doc)
        doc["deletion"]["class_id"] = 9  # IDX labels are read with the data
        harness.config_from_dict(doc)

    def test_step_cap_below_a_shipped_plan_fails_at_load(self):
        # at load, before any seed trains, not as an error in each cell
        path = Path(__file__).resolve().parents[1] / "configs" / "blobs_random10.json"
        doc = json.loads(path.read_text())
        doc["step_cap"] = 20  # the k = 10 cells: 10 blocks of 2 noisy steps
        harness.config_from_dict(doc)
        doc["step_cap"] = 5
        with pytest.raises(DomainError, match="^step_cap 5 is below the 8 noisy steps"):
            harness.config_from_dict(doc)

    def test_step_cap_ignores_cells_whose_plan_does_not_build(self):
        doc = base_config_doc("x")
        doc["unlearn"]["q"] = 1.5  # no Renyi budget remains: no plan builds
        doc["step_cap"] = 0
        harness.config_from_dict(doc)

    # what each section's keys are passed to, and the parameter a key becomes
    # where it is not the key's own name
    BUILDS = {
        "": ([harness.ExperimentConfig], {"model": "model_hidden"}),
        "model": ([harness.ExperimentConfig], {"hidden": "model_hidden"}),
        "budgets": ([acc.BudgetSpec], {}),
        "train": ([eng.TrainConfig], {}),
        "unlearn": ([acc.BudgetSpec, acc.make_plan, eng.RunConfig], {"delta_rho": "c0"}),
        "finetune": ([eng.RunConfig], {key: f"fine_tune_{key}"
                                       for key in ("steps", "lr", "momentum", "weight_decay")}),
        "dataset.blobs": ([ds.generate_blobs], {}),
        "dataset.mnist_idx": ([ds.load_idx], {"train_images": "images_path",
                                              "test_images": "images_path",
                                              "train_labels": "labels_path",
                                              "test_labels": "labels_path"}),
        "deletion.random_fraction": ([ds.RandomFraction], {}),
        "deletion.classwise": ([ds.ClassWise], {}),
    }

    def test_every_key_is_a_parameter_of_what_its_section_builds(self):
        # a key that is not would reach a constructor as an unexpected keyword
        assert set(harness._SECTIONS) == set(self.BUILDS)
        for section, (required, kinds) in harness._SECTIONS.items():
            targets, renamed = self.BUILDS[section]
            params = {p for t in targets for p in inspect.signature(t).parameters}
            assert {renamed.get(key, key) for key in kinds} <= params, section
            assert set(required.split()) <= set(kinds), section

    def test_readme_config_table_matches_the_sections(self):
        # a key removed from the config format must not stay in the docs
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = text.split("| Section | Required | Optional (default) |\n", 1)[1]
        documented = {}
        for row in table.split("\n\n", 1)[0].splitlines()[1:]:
            section, required, optional = (
                re.findall(r"`([^`]*)`", re.sub(r"\([^)]*\)", "", cell))
                for cell in row.strip("|").split("|"))
            name = ".".join(part.removeprefix("kind: ") for part in section)
            documented[name] = (set(required), set(optional))
        assert documented == {
            name: (set(required.split()), set(kinds) - set(required.split()))
            for name, (required, kinds) in harness._SECTIONS.items()}

    def test_required_keys_alone_build_the_defaults(self):
        doc = {
            "dataset": {"kind": "blobs", "n": 800, "classes": 3, "dim": 6, "separation": 5.0},
            "deletion": {"kind": "random_fraction", "fraction": 0.1},
            "model": {"hidden": [16]},
            "train": {"steps": 150},
            "unlearn": {"gamma": 0.01, "lam": 1.0, "c1": 1.0, "delta_rho": 0.05},
            "budgets": [{"epsilon": 1.0, "delta": 1e-5}],
        }
        config = harness.config_from_dict(doc)
        assert (config.k_values, config.step_cap, config.test_fraction) == ((1,), 1000, 0.2)
        assert (config.method, config.basis_strategy, config.finetune) == (
            "blockwise", "random_orthonormal", {})
        assert (config.n_seeds, config.seed0, config.output_dir) == (5, 0, "runs")
        assert harness.train_config(config) == eng.TrainConfig(
            steps=150, lr=0.01, momentum=0.9, weight_decay=1e-5, batch_size=64)
        spec = harness.budget_spec(config, 1.0, 1e-5)
        assert (spec.c0, spec.q) == (0.025, None)
        plan_args, run_args = harness.unlearn_settings(config)
        plan = acc.make_plan(spec, 2, **plan_args)
        assert plan.to_dict() == acc.make_plan(spec, 2, steps=None).to_dict()
        assert plan.budget.c0 == 0.025 / np.sqrt(2)
        run = eng.RunConfig(plan=plan, basis=None, **run_args)
        assert (run.batch_size, run.fine_tune_steps, run.step_cap) == (64, None, 1000)
        # fine-tuning has no weight decay by default, unlike training (1e-5)
        assert (run.fine_tune_lr, run.fine_tune_momentum, run.fine_tune_weight_decay) == (
            0.01, 0.9, 0.0)
        data, external_test = harness.load_dataset(config)
        seeded = ds.generate_blobs(800, 3, 6, 5.0, seed=0)
        assert external_test is None
        assert np.array_equal(data.inputs, seeded.inputs)
        assert np.array_equal(data.labels, seeded.labels)

    @pytest.mark.parametrize("method", ["gradient_ascent", "nft"])
    def test_bad_method(self, tmp_path, method):
        doc = base_config_doc(str(tmp_path))
        doc["method"] = method
        with pytest.raises(DomainError):
            harness.config_from_dict(doc)

    @pytest.mark.parametrize("strategy", sub.STRATEGIES)
    def test_every_basis_strategy_accepted(self, tmp_path, strategy):
        doc = base_config_doc(str(tmp_path))
        doc["basis_strategy"] = strategy
        assert harness.config_from_dict(doc).basis_strategy == strategy

    @pytest.mark.parametrize("strategy", ["qr", "RANDOM_ORTHONORMAL", ["permutation"]])
    def test_unknown_basis_strategy(self, tmp_path, strategy):
        doc = base_config_doc(str(tmp_path))
        doc["basis_strategy"] = strategy
        with pytest.raises(DomainError):
            harness.config_from_dict(doc)

    def test_negative_seeds_rejected(self):
        doc = base_config_doc("x")
        doc["seed0"] = -2
        with pytest.raises(DomainError):
            harness.config_from_dict(doc)
        config = harness.config_from_dict(base_config_doc("x"))
        with pytest.raises(DomainError):
            harness.cell_seeds(config, -1)

    @pytest.mark.parametrize("epsilons,deltas", [
        ((1.0, 1.0), (1e-5, 1e-6)),
        ((1.0, 1.0000001), (1e-5, 1e-5)),
    ], ids=["same-epsilon-other-delta", "epsilons-equal-as-printed"])
    def test_budgets_sharing_a_cell_key_rejected(self, epsilons, deltas):
        # both cells would write blockwise_eps1_k1_seed0.* and share a group
        doc = base_config_doc("x")
        doc["n_seeds"], doc["k_values"] = 1, [1]
        doc["budgets"] = [{"epsilon": e, "delta": d} for e, d in zip(epsilons, deltas)]
        with pytest.raises(DomainError, match="budgets"):
            harness.config_from_dict(doc)
        doc["budgets"][1]["epsilon"] = 2.0
        assert len(harness.config_from_dict(doc).budgets) == 2

    def test_repeated_block_count_rejected(self):
        doc = base_config_doc("x")
        doc["k_values"] = [4, 4]
        with pytest.raises(DomainError, match="k_values"):
            harness.config_from_dict(doc)

    def test_output_dir_override(self):
        config = harness.config_from_dict(base_config_doc("default_dir"))
        assert harness.resolve_output_dir(config, "explicit") == "explicit"
        assert harness.resolve_output_dir(config) == "default_dir"

    def test_budget_spec_requires_radius(self):
        doc = base_config_doc("x")
        del doc["unlearn"]["delta_rho"]
        with pytest.raises(FormatError, match="unlearn.delta_rho"):
            harness.config_from_dict(doc)

    def test_budget_spec_halves_proximity_bound(self):
        config = harness.config_from_dict(base_config_doc("x"))
        spec = harness.budget_spec(config, 1.0, 1e-5)
        assert spec.c0 == 0.025


def report_cell(method, k, rte_minutes):
    report = audit.AuditReport(
        ua=10.0, ra=90.0, ta=88.0, mia_efficacy=50.0, rte_minutes=rte_minutes
    )
    return harness.CellResult(
        key=harness.cell_key(method, 1.0, k, 0), method=method, epsilon=1.0,
        k=k, seed_index=0, report=report, min_unlearn_test_acc=None,
    )


class TestFormatReport:
    def test_rte_in_seconds_and_no_fake_retrain_zero(self):
        result = harness.ExperimentResult(cells=[
            report_cell("retrain", 0, None),
            report_cell("blockwise", 4, 0.0125 / 60.0),
            report_cell("blockwise", 4, 0.0375 / 60.0),
        ])
        # rows are sorted by method name
        header, blockwise, retrain = harness.format_report(result).splitlines()
        assert header.split()[-1] == "RTE(s)"
        assert retrain.startswith("retrain") and retrain.split()[-1] == "--"
        assert blockwise.split()[-1] == "0.025"
        assert len({len(header), len(retrain), len(blockwise)}) == 1

    def test_measured_retrain_time_in_seconds(self):
        result = harness.ExperimentResult(cells=[
            report_cell("retrain", 0, 0.010 / 60.0),
            report_cell("retrain", 0, 0.030 / 60.0),
        ])
        header, retrain = harness.format_report(result).splitlines()
        assert retrain.startswith("retrain") and retrain.split()[-1] == "0.020"
        assert len(header) == len(retrain)


class TestRunExperiment:
    def test_artifacts_and_summary(self, tmp_path):
        out = str(tmp_path / "out")
        config = harness.config_from_dict(base_config_doc(out))
        result = harness.run_experiment(config)
        assert not result.errors
        # cells: 2 seeds x (retrain baseline + 2 k values)
        assert len(result.cells) == 6
        for name in ("summary.json", "timings.json", "report.txt",
                     "model_full_seed0.ckpt", "model_retrain_seed1.ckpt",
                     "split_seed0.json", "blockwise_eps1_k2_seed1.csv",
                     "blockwise_eps1_k2_seed1_manifest.json"):
            assert os.path.exists(os.path.join(out, name)), name
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "blockwise_eps1_k2" in summary["groups"]
        group = summary["groups"]["blockwise_eps1_k2"]
        assert group["ta"]["n"] == 2
        assert 0 <= group["ua"]["mean"] <= 100

    def test_summary_matches_recomputation_from_cells(self, tmp_path):
        out = str(tmp_path / "out")
        config = harness.config_from_dict(base_config_doc(out))
        result = harness.run_experiment(config)
        summary = result.summary["groups"]["blockwise_eps1_k1"]
        tas = [c.report.ta for c in result.cells
               if c.method == "blockwise" and c.k == 1]
        assert summary["ta"]["mean"] == pytest.approx(float(np.mean(tas)))
        assert summary["ta"]["std"] == pytest.approx(float(np.std(tas)))

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        doc = base_config_doc(out1)
        config = harness.config_from_dict(doc)
        harness.run_experiment(config)
        harness.run_experiment(config, output_dir=out2)
        for name in ("summary.json", "blockwise_eps1_k1_seed0.csv",
                     "blockwise_eps1_k2_seed1.csv", "report.txt"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            if name == "report.txt":
                # timing column is excluded from the determinism contract
                a = b"\n".join(line[:-10] for line in a.split(b"\n"))
                b = b"\n".join(line[:-10] for line in b.split(b"\n"))
            assert a == b, name

    def test_summary_consistent_with_csv_trajectories(self, tmp_path):
        # the audited test accuracy must equal the last CSV row's test_acc
        out = str(tmp_path / "out")
        config = harness.config_from_dict(base_config_doc(out))
        result = harness.run_experiment(config)
        for cell in result.cells:
            if cell.method == harness.METHOD_RETRAIN:
                continue
            last = open(os.path.join(out, f"{cell.key}.csv")).read().splitlines()[-1].split(",")
            csv_test_acc = 100.0 * float(last[4])
            assert csv_test_acc == pytest.approx(cell.report.ta, abs=1e-9)

    def test_retrain_only_method(self, tmp_path):
        doc = base_config_doc(str(tmp_path / "out"))
        doc["method"] = "retrain"
        doc["n_seeds"] = 1
        config = harness.config_from_dict(doc)
        result = harness.run_experiment(config)
        assert len(result.cells) == 1
        assert result.cells[0].method == "retrain"
        assert result.cells[0].report.ua_delta == 0.0
        report_text = (tmp_path / "out" / "report.txt").read_text()
        assert report_text.splitlines()[1].startswith("retrain")

    def test_infeasible_cell_recorded_others_proceed(self, tmp_path):
        doc = base_config_doc(str(tmp_path / "out"))
        # q fixed too small for the budget: no Renyi budget remains
        doc["unlearn"]["q"] = 1.5
        doc["n_seeds"] = 1
        result = harness.run_experiment(harness.config_from_dict(doc))
        assert len(result.errors) == 2  # both k cells fail
        assert any("InfeasibleBudget" in v for v in result.errors.values())
        # the retrain baseline is still present
        assert any(c.method == "retrain" for c in result.cells)

    def test_test_fraction_outside_unit_interval_is_a_domain_error(self, tmp_path):
        doc = base_config_doc(str(tmp_path / "out"))
        doc["test_fraction"] = -0.2
        doc["n_seeds"] = 1
        with pytest.raises(DomainError, match="^test_fraction"):
            harness.config_from_dict(doc)
        # also with an external test set, whose split ignores test_fraction
        doc["dataset"] = {"kind": "mnist_idx", "train_images": "a", "train_labels": "b",
                          "test_images": "c", "test_labels": "d"}
        with pytest.raises(DomainError, match="^test_fraction"):
            harness.config_from_dict(doc)

    def test_empty_held_out_set_fails_before_training(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config_doc(str(out))
        doc["test_fraction"], doc["n_seeds"] = 0.0, 1
        result = harness.run_experiment(harness.config_from_dict(doc))
        assert not result.cells
        assert list(result.errors) == ["seed0"]
        assert result.errors["seed0"].startswith("DomainError: test_fraction")
        assert sorted(p.name for p in out.iterdir()) == ["report.txt", "summary.json"]

    def test_empty_external_test_set_fails_before_training(self, tmp_path):
        rng = np.random.default_rng(5)
        labels = np.repeat(np.arange(2, dtype=np.uint8), 100)
        train_img, train_lbl = write_idx_fixture(
            tmp_path, rng.integers(0, 256, size=(200, 2, 3), dtype=np.uint8), labels)
        test_dir = tmp_path / "test"
        test_dir.mkdir()
        test_img, test_lbl = write_idx_fixture(
            test_dir, np.zeros((0, 2, 3), dtype=np.uint8), np.zeros(0, dtype=np.uint8))
        out = tmp_path / "out"
        doc = base_config_doc(str(out))
        doc["dataset"] = {"kind": "mnist_idx", "train_images": str(train_img),
                          "train_labels": str(train_lbl), "test_images": str(test_img),
                          "test_labels": str(test_lbl)}
        result = harness.run_experiment(harness.config_from_dict(doc))
        assert not result.cells
        assert list(result.errors) == ["seed0", "seed1"]
        assert all(e.startswith("DomainError: dataset.test_images holds no row")
                   for e in result.errors.values())
        assert sorted(p.name for p in out.iterdir()) == ["report.txt", "summary.json"]

    def test_each_model_audited_once(self, tmp_path, monkeypatch):
        fits = []
        fit_logistic = audit._fit_logistic

        def counting_fit(x, *args, **kwargs):
            # the attacker's training features identify the audited model
            fits.append(x.tobytes())
            return fit_logistic(x, *args, **kwargs)

        monkeypatch.setattr(audit, "_fit_logistic", counting_fit)
        config = harness.config_from_dict(base_config_doc(str(tmp_path / "out")))
        result = harness.run_experiment(config)
        # 2 seeds x (retrain baseline + 2 unlearned models), one attacker fit each
        assert not result.errors and len(fits) == len(set(fits)) == 6

    def test_retrain_timed_per_seed(self, tmp_path):
        out = tmp_path / "out"
        result = harness.run_experiment(harness.config_from_dict(base_config_doc(str(out))))
        timings = json.loads((out / "timings.json").read_text())
        retrain_cells = [c for c in result.cells if c.method == "retrain"]
        assert [timings[f"retrain_seed{c.seed_index}"] for c in retrain_cells] == [
            c.report.rte_minutes for c in retrain_cells
        ]
        assert all(c.report.rte_minutes > 0 for c in retrain_cells)
        retrain_row = next(line for line in (out / "report.txt").read_text().splitlines()
                           if line.startswith("retrain"))
        assert float(retrain_row.split()[-1]) > 0
        summary = (out / "summary.json").read_text()
        assert "rte" not in summary and "retrain_seed" not in summary

    def test_timings_merged_into_the_existing_file(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "timings.json").write_text(json.dumps({"retrain_seed0": -1.0, "earlier": 2.0}))
        doc = base_config_doc(str(out))
        doc["method"], doc["n_seeds"] = "retrain", 1
        result = harness.run_experiment(harness.config_from_dict(doc))
        timings = json.loads((out / "timings.json").read_text())
        assert timings == {"retrain_seed0": result.cells[0].report.rte_minutes, "earlier": 2.0}
        assert timings["retrain_seed0"] > 0

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, 0.0, None, [False]],
                             ids=["string-false", "string-true", "zero", "one",
                                  "float-zero", "null", "list"])
    def test_scale_c0_must_be_a_json_boolean(self, tmp_path, value):
        doc = base_config_doc(str(tmp_path / "out"))
        doc["n_seeds"] = 1
        doc["unlearn"]["scale_c0"] = value
        # the config fails at load, with the field named, before any seed trains
        with pytest.raises(FormatError, match="unlearn.scale_c0"):
            harness.config_from_dict(doc)

    # c0 = delta_rho/2 = 0.025, split by sqrt(k) in every cell
    @pytest.mark.parametrize("c0_per_block", [0.025 / np.sqrt(2)], ids=["absent"])
    def test_scale_c0_boolean_sets_the_block_radius(self, tmp_path, c0_per_block):
        out = tmp_path / "out"
        doc = base_config_doc(str(out))
        doc["n_seeds"], doc["k_values"] = 1, [2]
        assert not harness.run_experiment(harness.config_from_dict(doc)).errors
        manifest = json.loads((out / "blockwise_eps1_k2_seed0_manifest.json").read_text())
        assert manifest["plan"]["c0_per_block"] == c0_per_block

    def test_a_seed_failing_full_training_fails_alone(self, tmp_path, monkeypatch):
        doc = base_config_doc(str(tmp_path / "clean"))
        doc["n_seeds"] = 3
        clean = harness.run_experiment(harness.config_from_dict(doc))
        assert not clean.errors
        init_params = mdl.init_params

        def nan_init(spec, seed):
            # seed 1's init: its full model fails in the lockstep stack
            params = init_params(spec, seed)
            if seed == 1:
                params.values[0] = np.nan
            return params

        monkeypatch.setattr(mdl, "init_params", nan_init)
        doc["output_dir"] = str(tmp_path / "failed")
        result = harness.run_experiment(harness.config_from_dict(doc))
        assert result.errors == {"seed1": "NumericalError: non-finite parameter values"}
        assert {c.seed_index for c in result.cells} == {0, 2}
        others = sorted(p.name for p in (tmp_path / "clean").iterdir()
                        if re.search(r"seed[02][._]", p.name))
        # the split, two models, and three files per cell
        assert len(others) == 2 * (3 + 3 * 2)
        for name in others:
            assert (tmp_path / "failed" / name).read_bytes() == \
                (tmp_path / "clean" / name).read_bytes(), name
        assert not (tmp_path / "failed" / "model_full_seed1.ckpt").exists()

    def test_forget_rows_never_fed_gradients(self, tmp_path):
        out = str(tmp_path / "out")
        config = harness.config_from_dict(base_config_doc(out))
        result = harness.run_experiment(config)
        assert not any("forget rows fed a gradient" in v
                       for v in result.errors.values())
