import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockwise_unlearn
from blockwise_unlearn import cli

from test_datasets import write_idx_fixture
from test_harness import base_config_doc, write_config
from test_model import GOOD_HEADER, write_checkpoint


def run_cli(*argv):
    return cli.main(list(argv))


class TestPlanCommand:
    def test_reference_plan(self, tmp_path, capsys):
        rc = run_cli(
            "plan", "--epsilon", "1.0", "--delta", "1e-5", "--gamma", "1e-4",
            "--lambda", "10", "--c1", "100", "--delta-rho", "0.01",
            "--blocks", "2", "--steps", "2",
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["steps_per_block"] == 2
        assert doc["total_steps"] == 4
        assert doc["q_used"] == pytest.approx(24.5, abs=0.1)
        assert doc["eps_renyi_per_block"][0] == pytest.approx(0.255, abs=1e-3)
        assert doc["c1_per_block"] == pytest.approx(70.71, abs=0.01)
        assert "aux" not in doc

    def test_min_noise_mode(self, capsys):
        rc = run_cli(
            "plan", "--epsilon", "2.0", "--delta", "1e-4", "--gamma", "0.1",
            "--lambda", "1.0", "--c1", "2.0", "--delta-rho", "2.0", "--q", "8",
            "--blocks", "1", "--min-noise",
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regime"] == "ClipDominant"
        assert doc["steps_per_block"] >= 1

    @pytest.mark.parametrize("flags", [["--c0", "1.0"], ["--delta-rho", "2.0", "--no-scale-c0"]],
                             ids=["c0", "no-scale-c0"])
    def test_removed_radius_flags_exit_2(self, capsys, flags):
        # the radius is given once, as --delta-rho, and always split by sqrt(k)
        with pytest.raises(SystemExit) as exc:
            run_cli("plan", "--epsilon", "1.0", "--delta", "1e-5", "--gamma", "1e-4",
                    "--lambda", "10", "--c1", "100", "--steps", "2", *flags)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_infeasible_budget_exit_code(self, capsys):
        rc = run_cli(
            "plan", "--epsilon", "1.0", "--delta", "1e-5", "--gamma", "1e-4",
            "--lambda", "10", "--c1", "100", "--delta-rho", "0.01",
            "--blocks", "1", "--steps", "2", "--q", "1.5",
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_plan_to_file(self, tmp_path):
        out = tmp_path / "plan.json"
        rc = run_cli(
            "plan", "--epsilon", "1.0", "--delta", "1e-5", "--gamma", "1e-4",
            "--lambda", "10", "--c1", "100", "--delta-rho", "0.01",
            "--blocks", "1", "--steps", "2", "--out", str(out),
        )
        assert rc == 0
        assert json.loads(out.read_text())["steps_per_block"] == 2


class TestPipelineCommands:
    def test_train_retrain_unlearn_audit(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = base_config_doc(str(out))
        doc["n_seeds"] = 1
        config_path = write_config(tmp_path, doc)

        assert run_cli("train", "--config", str(config_path), "--seed", "0") == 0
        assert (out / "model_full_seed0.ckpt").exists()
        assert (out / "split_seed0.json").exists()

        assert run_cli("retrain", "--config", str(config_path), "--seed", "0") == 0
        assert (out / "model_retrain_seed0.ckpt").exists()
        assert json.loads((out / "timings.json").read_text())["retrain_seed0"] > 0

        assert run_cli(
            "unlearn", "--config", str(config_path), "--seed", "0",
            "--blocks", "2",
        ) == 0
        assert (out / "blockwise_eps1_k2_seed0.ckpt").exists()
        assert (out / "blockwise_eps1_k2_seed0.csv").exists()
        manifest = json.loads((out / "blockwise_eps1_k2_seed0_manifest.json").read_text())
        assert manifest["plan"]["total_steps"] == 4
        capsys.readouterr()

        report_path = tmp_path / "audit.json"
        assert run_cli(
            "audit", "--config", str(config_path),
            "--checkpoint", str(out / "blockwise_eps1_k2_seed0.ckpt"),
            "--splits", str(out / "split_seed0.json"),
            "--retrain-checkpoint", str(out / "model_retrain_seed0.ckpt"),
            "--out", str(report_path),
        ) == 0
        report = json.loads(report_path.read_text())
        assert set(report) >= {"ua", "ra", "ta", "mia_efficacy"}
        assert report["ra_delta"] is not None

        # CSV rows: 2 blocks x 2 steps + 20 fine-tune steps + header
        lines = (out / "blockwise_eps1_k2_seed0.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 + 20
        assert lines[0].startswith("step,phase,block,loss")

    def test_unlearn_stage_uses_config_basis_strategy(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = base_config_doc(str(out))
        doc["n_seeds"] = 1
        doc["basis_strategy"] = "layer_cyclic"
        config_path = write_config(tmp_path, doc)
        assert run_cli(
            "unlearn", "--config", str(config_path), "--seed", "0",
            "--blocks", "2",
        ) == 0
        manifest = json.loads((out / "blockwise_eps1_k2_seed0_manifest.json").read_text())
        assert manifest["basis_strategy"] == "layer_cyclic"

    def test_stages_write_the_files_run_writes(self, tmp_path, capsys):
        doc = base_config_doc(str(tmp_path / "run"))
        doc["n_seeds"] = 1
        config_path = write_config(tmp_path, doc)
        stage = tmp_path / "stage"
        for argv in (["train"], ["retrain"],
                     *(["unlearn", "--blocks", str(k)] for k in doc["k_values"])):
            assert run_cli(*argv, "--config", str(config_path), "--out", str(stage)) == 0
        assert run_cli("run", "--config", str(config_path)) == 0
        grid = tmp_path / "run"
        run_only = {"summary.json", "report.txt"}
        names = sorted(p.name for p in stage.iterdir())
        assert names == sorted(p.name for p in grid.iterdir() if p.name not in run_only)
        for name in names:
            if name != "timings.json":
                assert (stage / name).read_bytes() == (grid / name).read_bytes(), name
        timings = json.loads((stage / "timings.json").read_text())
        assert set(timings) == set(json.loads((grid / "timings.json").read_text()))

    def test_unlearn_epsilon_selects_a_config_budget(self, tmp_path, capsys):
        # the second budget's cell, from the stage, is the one `run` writes
        doc = base_config_doc(str(tmp_path / "run"))
        doc["n_seeds"] = 1
        doc["budgets"] = [{"epsilon": 1.0, "delta": 1e-5}, {"epsilon": 2.0, "delta": 1e-3}]
        config_path = write_config(tmp_path, doc)
        stage = tmp_path / "stage"
        assert run_cli("unlearn", "--config", str(config_path), "--out", str(stage),
                       "--epsilon", "2", "--blocks", "2") == 0
        assert run_cli("run", "--config", str(config_path)) == 0
        for name in ("blockwise_eps2_k2_seed0.csv", "blockwise_eps2_k2_seed0.ckpt",
                     "blockwise_eps2_k2_seed0_manifest.json"):
            assert (stage / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name
        manifest = json.loads((stage / "blockwise_eps2_k2_seed0_manifest.json").read_text())
        assert (manifest["epsilon"], manifest["delta"]) == (2.0, 1e-3)

    def test_unlearn_epsilon_outside_the_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        config_path = write_config(tmp_path, base_config_doc(str(out)))
        assert run_cli("unlearn", "--config", str(config_path), "--epsilon", "0.5") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --epsilon 0.5 ") and "(epsilon 1)" in err
        assert "Traceback" not in err
        assert not out.exists()  # it failed before the seed was split

    def test_unlearn_has_no_delta_flag(self, tmp_path, capsys):
        # a delta other than the budget's would write over the budget's cell
        config_path = write_config(tmp_path, base_config_doc(str(tmp_path / "out")))
        with pytest.raises(SystemExit) as exc:
            run_cli("unlearn", "--config", str(config_path), "--delta", "0.001")
        assert exc.value.code == 2
        assert "--delta" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--seed", "-1"], ["retrain", "--seed", "-1"],
        ["unlearn", "--seed", "-1"],
        ["calibrate-delta", "--seed", "-5", "--runs", "2", "--rho", "0.5"],
        ["divergence-check", "--seed", "-1"],
        ["divergence-check", "--specs", "0"], ["divergence-check", "--specs", "-3"],
    ])
    def test_negative_seed_is_an_error_not_a_traceback(self, tmp_path, capsys, argv):
        if argv[0] != "divergence-check":
            config_path = write_config(tmp_path, base_config_doc(str(tmp_path / "out")))
            argv = [*argv, "--config", str(config_path)]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unlearn_rejects_a_full_model_of_another_architecture(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = base_config_doc(str(out))
        doc["n_seeds"], doc["model"]["hidden"] = 1, [32]
        assert run_cli("train", "--config", str(write_config(tmp_path, doc))) == 0
        doc["model"]["hidden"] = [16]
        config_path = write_config(tmp_path, doc)
        capsys.readouterr()
        assert run_cli("unlearn", "--config", str(config_path), "--blocks", "2") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "architecture" in err and "Traceback" not in err
        assert not list(out.glob("blockwise_*"))

    def test_negative_seed0_in_config_is_an_error(self, tmp_path, capsys):
        doc = base_config_doc(str(tmp_path / "out"))
        doc["seed0"] = -1
        config_path = write_config(tmp_path, doc)
        assert run_cli("run", "--config", str(config_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed0") and "Traceback" not in err

    def test_unlearn_nft_runs_stages_if_missing(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = base_config_doc(str(out))
        doc["n_seeds"] = 1
        config_path = write_config(tmp_path, doc)
        assert run_cli(
            "unlearn", "--config", str(config_path), "--seed", "0", "--blocks", "1",
        ) == 0
        assert (out / "blockwise_eps1_k1_seed0.ckpt").exists()

    def test_calibrate_delta(self, tmp_path, capsys):
        doc = base_config_doc(str(tmp_path / "out"))
        doc["train"]["steps"] = 60
        config_path = write_config(tmp_path, doc)
        out_file = tmp_path / "delta.json"
        assert run_cli(
            "calibrate-delta", "--config", str(config_path),
            "--runs", "3", "--rho", "0.5", "--frac", "0.1",
            "--out", str(out_file),
        ) == 0
        est = json.loads(out_file.read_text())
        # written as every JSON artifact is, by datasets.write_json
        assert out_file.read_text() == json.dumps(est, indent=2, sort_keys=True)
        assert est["n_runs"] == 3
        assert len(est["samples"]) == 3
        assert est["delta_rho"] >= 0

    def test_run_command(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = base_config_doc(str(out))
        doc["n_seeds"] = 1
        config_path = write_config(tmp_path, doc)
        assert run_cli("run", "--config", str(config_path)) == 0
        text = capsys.readouterr().out
        assert "retrain" in text and "blockwise" in text
        assert (out / "summary.json").exists()


class TestIdxStages:
    def test_stage_split_matches_run_without_test_files(self, tmp_path, capsys):
        # an IDX config with no test files holds out test rows from the train
        # file, in the stages as in `run`
        rng = np.random.default_rng(4)
        labels = np.repeat(np.arange(3, dtype=np.uint8), 80)
        images = rng.integers(0, 60, size=(240, 4, 4), dtype=np.uint8)
        images[np.arange(240), labels, labels] = 250
        img, lbl = write_idx_fixture(tmp_path, images, labels)
        doc = base_config_doc(str(tmp_path / "run"))
        doc["dataset"] = {"kind": "mnist_idx", "train_images": str(img),
                          "train_labels": str(lbl)}
        doc["n_seeds"] = 1
        doc["k_values"] = [1]
        config_path = write_config(tmp_path, doc)
        stage, grid = tmp_path / "stage", tmp_path / "run"

        assert run_cli("train", "--config", str(config_path), "--out", str(stage)) == 0
        assert run_cli("retrain", "--config", str(config_path), "--out", str(stage)) == 0
        assert run_cli("run", "--config", str(config_path)) == 0
        stage_split = json.loads((stage / "split_seed0.json").read_text())
        assert stage_split == json.loads((grid / "split_seed0.json").read_text())
        assert len(stage_split["test_idx"]) == 60

        report_path = tmp_path / "audit.json"
        assert run_cli(
            "audit", "--config", str(config_path),
            "--checkpoint", str(stage / "model_full_seed0.ckpt"),
            "--splits", str(stage / "split_seed0.json"),
            "--retrain-checkpoint", str(stage / "model_retrain_seed0.ckpt"),
            "--out", str(report_path),
        ) == 0
        assert json.loads(report_path.read_text())["ta"] is not None


class TestMalformedCheckpoint:
    def test_audit_exits_with_error_not_traceback(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = base_config_doc(str(out))
        doc["n_seeds"] = 1
        config_path = write_config(tmp_path, doc)
        assert run_cli("train", "--config", str(config_path)) == 0
        bad = tmp_path / "bad.ckpt"
        write_checkpoint(bad, {"layer_map": GOOD_HEADER["layer_map"]}, b"\x00" * 64)
        capsys.readouterr()
        rc = run_cli(
            "audit", "--config", str(config_path), "--checkpoint", str(bad),
            "--splits", str(out / "split_seed0.json"),
        )
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("error: malformed checkpoint header")
        assert "Traceback" not in err

    def test_audit_split_index_outside_dataset(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = base_config_doc(str(out))
        doc["n_seeds"] = 1
        config_path = write_config(tmp_path, doc)
        assert run_cli("train", "--config", str(config_path)) == 0
        split = json.loads((out / "split_seed0.json").read_text())
        split["retain_idx"].append(10**6)
        bad_split = tmp_path / "split.json"
        bad_split.write_text(json.dumps(split))
        capsys.readouterr()
        rc = run_cli(
            "audit", "--config", str(config_path),
            "--checkpoint", str(out / "model_full_seed0.ckpt"), "--splits", str(bad_split),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_audit_checkpoint_without_fc_layers(self, tmp_path, capsys):
        # load_params accepts any contiguous layer map; the model needs fc layers
        out = tmp_path / "out"
        doc = base_config_doc(str(out))
        doc["n_seeds"] = 1
        config_path = write_config(tmp_path, doc)
        assert run_cli("train", "--config", str(config_path)) == 0
        odd = tmp_path / "odd.ckpt"
        write_checkpoint(odd, {"d": 12, "layer_map": [["w", [3, 4], 0]]}, b"\x00" * 96)
        capsys.readouterr()
        rc = run_cli(
            "audit", "--config", str(config_path), "--checkpoint", str(odd),
            "--splits", str(out / "split_seed0.json"),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: layer map has no fc layers")
        assert "Traceback" not in err


def _drop_unlearn_gamma(doc):
    del doc["unlearn"]["gamma"]
    return doc


def _drop_train_steps(doc):
    del doc["train"]["steps"]
    return doc


def _scale_c0_string(doc):
    doc["unlearn"]["scale_c0"] = "false"
    return doc


def _hidden_not_a_list(doc):
    doc["model"]["hidden"] = "x"
    return doc


def _drop_unlearn_c1(doc):
    del doc["unlearn"]["c1"]
    return doc


def _finetune_typo(doc):
    doc["finetune"]["step"] = doc["finetune"].pop("steps")
    return doc


def _negative_finetune_steps(doc):
    doc["finetune"]["steps"] = -3
    return doc


def _nan_lam(doc):
    doc["unlearn"]["lam"] = float("nan")  # written as the JSON extension NaN
    return doc


def _nan_train_lr(doc):
    doc["train"]["lr"] = float("nan")
    return doc


def _step_cap_below_plan(doc):
    doc["step_cap"] = 3  # the k = 2 cells take 4 noisy steps
    return doc


def _empty(field):
    def edit(doc):
        doc[field] = []
        return doc
    return edit


class TestNonUtf8Files:
    def test_binary_config(self, tmp_path, capsys):
        config_path = tmp_path / "config.bin"
        config_path.write_bytes(bytes(range(256)))
        assert run_cli("run", "--config", str(config_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config is not valid JSON") and "Traceback" not in err

    def test_binary_timings_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "timings.json").write_bytes(b'{"retrain_seed0": 1.0, "\xff": 2}')
        doc = base_config_doc(str(out))
        doc["n_seeds"] = 1
        config_path = write_config(tmp_path, doc)
        assert run_cli("retrain", "--config", str(config_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: timings file is not valid JSON")
        assert "Traceback" not in err


class TestMissingFiles:
    def test_missing_config(self, tmp_path, capsys):
        assert run_cli("run", "--config", str(tmp_path / "missing.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.json" in err
        assert "Traceback" not in err


class TestMalformedConfig:
    @pytest.mark.parametrize("command,edit,field", [
        ("unlearn", _drop_unlearn_gamma, "unlearn.gamma"),
        ("train", _drop_train_steps, "train.steps"),
        ("train", _hidden_not_a_list, "model.hidden"),
        ("train", lambda doc: [doc], "JSON object"),
        ("unlearn", _scale_c0_string, "unlearn.scale_c0"),
        ("run", _drop_unlearn_c1, "unlearn.c1"),
        ("run", _finetune_typo, "finetune.step"),
        ("run", _negative_finetune_steps, "finetune.steps"),
        ("run", _nan_lam, "lam"),
        ("run", _empty("k_values"), "k_values"),
        ("run", _empty("budgets"), "budgets"),
        ("run", _nan_train_lr, "train.lr"),
        ("run", _step_cap_below_plan, "step_cap"),
    ], ids=["missing-unlearn-gamma", "missing-train-steps", "hidden-string", "list",
            "scale-c0-string", "run-missing-unlearn-c1", "run-finetune-typo",
            "run-negative-finetune-steps", "run-nan-lam", "run-empty-k-values",
            "run-empty-budgets", "run-nan-train-lr", "run-step-cap-below-plan"])
    def test_exits_2_naming_the_field(self, tmp_path, capsys, command, edit, field):
        doc = base_config_doc(str(tmp_path / "out"))
        doc["n_seeds"] = 1
        config_path = write_config(tmp_path, edit(doc))
        capsys.readouterr()
        assert run_cli(command, "--config", str(config_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()  # it failed before any seed trained


def test_package_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(blockwise_unlearn.__file__)))
    code = (
        "import sys, blockwise_unlearn; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.special') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def readme_commands() -> list[list[str]]:
    """The arguments of each `blockwise-unlearn` command in README's CLI
    block, with its backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("blockwise-unlearn ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_cli_examples_parse(argv):
    # a flag removed from the parser must not stay in the docs
    assert cli.build_parser().parse_args(argv).fn is not None


class TestDivergenceCheckCommand:
    def test_report_passes(self, tmp_path):
        out_file = tmp_path / "divergence.json"
        rc = run_cli(
            "divergence-check", "--specs", "10", "--seed", "3",
            "--out", str(out_file),
        )
        assert rc == 0
        doc = json.loads(out_file.read_text())
        assert doc["passed"] is True
        assert doc["trajectory_bounds"]["violations"] == 0
        assert doc["gaussian_shift_quadrature"]["passed"] is True
        for section in doc["block_noise_equivalence"].values():
            assert section["passed"] is True

    def test_minimal_noise_plans_checked(self, tmp_path):
        # each drawn budget's plan at the step count make_plan takes in
        # minimal-noise mode goes through the same trajectory bound
        out_file = tmp_path / "divergence.json"
        assert run_cli("divergence-check", "--specs", "10", "--seed", "3",
                       "--out", str(out_file)) == 0
        section = json.loads(out_file.read_text())["min_noise_trajectory_bounds"]
        assert section["specs"] == 10 and section["violations"] == 0
        assert section["passed"] is True and section["worst_margin"] <= section["tolerance"]

    def test_readme_arguments_pass(self, tmp_path):
        # `divergence-check --specs 50` at the default seed
        out_file = tmp_path / "divergence.json"
        assert run_cli("divergence-check", "--specs", "50", "--out", str(out_file)) == 0
        doc = json.loads(out_file.read_text())
        assert doc["passed"] is True and doc["trajectory_bounds"]["specs"] == 50
