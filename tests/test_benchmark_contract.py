"""The benchmark's span tracer wraps package functions by name
(perfbench/spans.py, TRACED); each of them must exist, or `--trace 1` fails,
and the package must call them through their module attributes, once per
step, or the per-layer counts are wrong.  The benchmark itself must run and
pass its correctness checks."""

import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blockwise_unlearn import datasets as ds
from blockwise_unlearn import engine as eng
from blockwise_unlearn import harness
from blockwise_unlearn import model as mdl
from blockwise_unlearn import subspace as sub
from blockwise_unlearn.accounting import BlockBudget, NoisePlan

ROOT = Path(__file__).resolve().parents[1]


def perfbench_module(name):
    """perfbench/<name>.py, imported by its path: perfbench is no package.
    The module is registered first, as its dataclasses need."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,func_name", perfbench_module("spans").TRACED)
def test_traced_function_exists(module_name, func_name):
    module = importlib.import_module(f"blockwise_unlearn.{module_name}")
    assert callable(getattr(module, func_name, None))


def counting(monkeypatch, module, name):
    """Replace module.name with a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def blobs():
    data = ds.generate_blobs(300, classes=3, dim=4, separation=4.0, seed=5)
    return data.inputs, data.labels


def toy_plan(k):
    return NoisePlan(
        budget=BlockBudget(gamma=0.05, lam=0.1, c0=0.1, c1=1.0, q=2.0, eps_renyi=0.5 / k),
        k=k, sigma2=0.01, steps_per_block=2, epsilon=1.0, delta=1e-5,
    )


ARCH = mdl.MlpSpec((4, 10, 3))


@pytest.mark.parametrize("entry", ["train", "coupled_retrain"])
def test_training_takes_one_gradient_per_step(monkeypatch, entry):
    calls = counting(monkeypatch, mdl, "loss_and_grad")
    getattr(eng, entry)(ARCH, blobs(), eng.Seeds(), eng.TrainConfig(steps=7))
    assert len(calls) == 7


@pytest.mark.parametrize("k", [1, 3])
def test_run_blockwise_takes_one_gradient_per_step(monkeypatch, k):
    params = mdl.init_params(ARCH, 0)
    basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, params.layer_map, k) if k > 1 else None
    calls = counting(monkeypatch, mdl, "loss_and_grad")
    config = eng.RunConfig(plan=toy_plan(k), basis=basis, fine_tune_steps=5)
    eng.run_blockwise(params, config, blobs())
    assert len(calls) == 2 * k + 5


def test_noisy_block_step_projects_twice_and_lifts_once(monkeypatch):
    params = mdl.init_params(ARCH, 0)
    basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, params.layer_map, 3)
    projects = counting(monkeypatch, sub, "project_block")
    lifts = counting(monkeypatch, sub, "lift_block")
    x, y = blobs()
    eng.nft_step(params, mdl.Batch(x[:8], y[:8]), 0.05, 0.1, 1.0, 0.01,
                 np.random.default_rng(0), basis, 1)
    assert (len(projects), len(lifts)) == (2, 1)
    # a whole run: the same per noisy step, none while fine-tuning
    projects.clear(), lifts.clear()
    eng.run_blockwise(params, eng.RunConfig(plan=toy_plan(3), basis=basis,
                                            fine_tune_steps=4), blobs())
    assert (len(projects), len(lifts)) == (2 * 6, 6)


def test_coupled_retrain_reaches_train_through_the_module(monkeypatch):
    calls = counting(monkeypatch, eng, "train")
    eng.coupled_retrain(ARCH, blobs(), eng.Seeds(), eng.TrainConfig(steps=3))
    assert len(calls) == 1


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")),
                         ids=lambda path: path.name)
def test_shipped_config_loads(path):
    harness.load_config(path)


@pytest.mark.parametrize("name", sorted(perfbench_module("workloads").WORKLOADS))
def test_benchmark_workload_config_loads(tmp_path, name):
    # the shipped configs as the benchmark edits them, and the MNIST-shaped
    # config it writes next to its IDX files
    workloads = perfbench_module("workloads")
    path = workloads.write_config(workloads.WORKLOADS[name], ROOT, tmp_path, seed=1)
    harness.load_config(path)


@pytest.mark.parametrize("name", sorted(perfbench_module("workloads").WORKLOADS))
def test_benchmark_runs_and_its_checks_pass(tmp_path, name):
    # one shortest run (two rounds) of each workload from a copy of the
    # checkout, as the benchmark is run: its own scratch files stay inside
    # the copy
    skip = shutil.ignore_patterns("__pycache__", "_scratch", "_out")
    for dirname in ("src", "perfbench", "configs"):
        shutil.copytree(ROOT / dirname, tmp_path / dirname, ignore=skip)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name,
         "--seed", "1", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
