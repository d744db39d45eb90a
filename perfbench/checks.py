"""Correctness checks on what the program computes and writes.

Each check recomputes a quantity independently or tests a property of the
method; none compares against a stored copy of earlier output.  Checkpoints
are parsed here from their documented binary layout and scored with a
forward pass written here, so a fault in the package's own loader or
forward pass cannot hide itself.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np
from scipy import stats

CKPT_MAGIC = b"BWUNCKPT"
CKPT_VERSION = 1

# Two-sided false-alarm rate of the chi-square test on the drawn noise.
NOISE_ALPHA = 1e-9
# Relative tolerance for identities that hold exactly in real arithmetic.
EXACT_RTOL = 1e-9


class Checks:
    """Counts checks run and collects the messages of those that failed."""

    def __init__(self) -> None:
        self.run = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.run += 1
        if not ok:
            self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures


# -- checkpoints and forward pass ---------------------------------------------

def read_checkpoint(path) -> tuple[list, np.ndarray]:
    """(layer_map, values) from a checkpoint: magic, <II version and header
    length, a JSON header with d and layer_map, then d little-endian f8."""
    raw = Path(path).read_bytes()
    if raw[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic")
    pos = len(CKPT_MAGIC)
    version, header_len = struct.unpack_from("<II", raw, pos)
    if version != CKPT_VERSION:
        raise ValueError(f"{path}: checkpoint version {version}")
    pos += 8
    header = json.loads(raw[pos : pos + header_len].decode("utf-8"))
    pos += header_len
    d = int(header["d"])
    values = np.frombuffer(raw, dtype="<f8", count=d, offset=pos).astype(np.float64)
    if pos + 8 * d != len(raw):
        raise ValueError(f"{path}: payload is not {d} values")
    return header["layer_map"], values


def predict(layer_map, values: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Argmax of a ReLU MLP whose layers are (fcN.w, fcN.b) entries in order."""
    tensors = {
        name: values[offset : offset + int(np.prod(shape))].reshape(shape)
        for name, shape, offset in layer_map
    }
    n_layers = len(layer_map) // 2
    h = inputs
    for i in range(1, n_layers + 1):
        z = h @ tensors[f"fc{i}.w"].T + tensors[f"fc{i}.b"]
        h = z if i == n_layers else np.maximum(z, 0.0)
    return np.argmax(h, axis=1)


def accuracy_pct(layer_map, values, inputs, labels) -> float:
    return 100.0 * float(np.mean(predict(layer_map, values, inputs) == labels))


# -- plan, basis, and unlearning record ---------------------------------------

def noise_budget(checks: Checks, plan: dict, k: int, c0: float, c1: float) -> None:
    """Composition identity and the sqrt(k)-scaled per-block radii."""
    eps = plan["eps_renyi_per_block"]
    total = math.fsum(eps) + math.log(1.0 / plan["delta"]) / (plan["q_used"] - 1.0)
    checks.expect(len(eps) == k, f"plan has {len(eps)} blocks, expected {k}")
    checks.expect(
        abs(total - plan["epsilon"]) <= EXACT_RTOL * plan["epsilon"],
        f"k={k}: sum(eps_i) + ln(1/delta)/(q-1) = {total!r} != epsilon {plan['epsilon']!r}",
    )
    for name, c in (("c0_per_block", c0), ("c1_per_block", c1)):
        want = c / math.sqrt(k)
        checks.expect(
            abs(plan[name] - want) <= EXACT_RTOL * want,
            f"k={k}: {name} = {plan[name]!r}, expected c/sqrt(k) = {want!r}",
        )


def basis_round_trip(checks: Checks, sub, basis, rng) -> None:
    """sum_i lift(project(w, i)) == w and the block energies add up."""
    w = rng.standard_normal(basis.d)
    total = np.zeros_like(w)
    energy = 0.0
    for i in range(basis.k):
        b = sub.project_block(w, basis, i)
        energy += float(b @ b)
        total += sub.lift_block(b, basis, i)
    norm2 = float(w @ w)
    err = float(np.linalg.norm(total - w))
    checks.expect(err <= EXACT_RTOL * math.sqrt(norm2),
                  f"k={basis.k}: lift/project round trip off by {err:.3e}")
    checks.expect(abs(energy - norm2) <= EXACT_RTOL * norm2,
                  f"k={basis.k}: block energies {energy!r} != ||w||^2 {norm2!r}")


def noisy_rows(rows: list[dict]) -> list[dict]:
    return [r for r in rows if r["phase"].startswith("unlearn_block_")]


def clipping(checks: Checks, rows: list[dict], c1_per_block: float, label: str) -> None:
    worst = max(float(r["grad_norm_post"]) for r in noisy_rows(rows))
    checks.expect(worst <= c1_per_block,
                  f"{label}: clipped gradient norm {worst!r} > c1_per_block {c1_per_block!r}")


def noise_drawn(checks: Checks, rows: list[dict], plan: dict, d: int, label: str) -> None:
    """Sum of noise_norm^2 over the noisy steps is sigma2 * chi2(T * d).

    The k blocks partition R^d and each gets steps_per_block draws, so the
    total number of Gaussian coordinates is steps_per_block * d.
    """
    noisy = noisy_rows(rows)
    checks.expect(len(noisy) == plan["total_steps"],
                  f"{label}: {len(noisy)} noisy rows, plan has {plan['total_steps']}")
    dof = plan["steps_per_block"] * d
    scaled = math.fsum(float(r["noise_norm"]) ** 2 for r in noisy) / plan["sigma2"]
    lo = stats.chi2.ppf(NOISE_ALPHA / 2, dof)
    hi = stats.chi2.isf(NOISE_ALPHA / 2, dof)
    checks.expect(lo <= scaled <= hi,
                  f"{label}: sum noise^2/sigma2 = {scaled:.1f} outside chi2({dof}) [{lo:.1f}, {hi:.1f}]")


def forget_untouched(checks: Checks, touched_rows, retain_idx, forget_idx, label: str) -> None:
    touched = np.asarray(retain_idx)[np.asarray(touched_rows, dtype=np.int64)]
    overlap = np.intersect1d(touched, forget_idx).size
    checks.expect(overlap == 0, f"{label}: {overlap} forget rows fed a gradient")


def record_rows(record) -> list[dict]:
    """StepRows of an engine record as CSV-like dicts."""
    return [
        {"phase": r.phase, "noise_norm": r.noise_norm, "grad_norm_post": r.grad_norm_post}
        for r in record.rows
    ]


def gradient(checks: Checks, mdl, params, inputs, labels, rng) -> None:
    """Central finite differences on two random coordinates of every weight
    and bias tensor agree with loss_and_grad.

    Rows whose hidden pre-activations come within 1e-4 of a ReLU kink are left
    out of the batch, so a +-1e-6 step cannot cross a kink; the comparison is
    then exact up to rounding.
    """
    layers = len(params.layer_map) // 2
    h, safe = inputs, np.ones(len(inputs), dtype=bool)
    for i in range(1, layers):
        z = h @ params.view(f"fc{i}.w").T + params.view(f"fc{i}.b")
        safe &= np.min(np.abs(z), axis=1) > 1e-4
        h = np.maximum(z, 0.0)
    rows = np.flatnonzero(safe)[:32]
    checks.expect(len(rows) >= 8, f"only {len(rows)} kink-free rows for the gradient check")
    if len(rows) == 0:
        return
    batch = mdl.Batch(inputs[rows], labels[rows])
    _, grad = mdl.loss_and_grad(params, batch)
    step = 1e-6
    coords = [
        offset + int(rng.integers(int(np.prod(shape))))
        for _, shape, offset in params.layer_map
        for _ in range(2)
    ]
    for j in coords:
        plus, minus = params.values.copy(), params.values.copy()
        plus[j] += step
        minus[j] -= step
        _, lp = mdl.forward(mdl.ParamVector(plus, params.layer_map), batch)
        _, lm = mdl.forward(mdl.ParamVector(minus, params.layer_map), batch)
        fd = (lp - lm) / (2 * step)
        g = float(grad.values[j])
        checks.expect(abs(fd - g) <= 1e-5 * max(abs(fd), 1e-3),
                      f"coordinate {j}: finite difference {fd!r} vs gradient {g!r}")


# -- grid artifacts -------------------------------------------------------------

def read_csv_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def grid_artifacts(checks: Checks, out: Path, data, external_test, config) -> None:
    """Summary accuracies against an independent forward pass, plan and
    noise checks on every cell, ranges, and the retrained model's accuracy."""
    summary = json.loads((out / "summary.json").read_text())
    checks.expect(not summary["errors"], f"grid errors: {summary['errors']}")
    c1 = float(config.unlearn["c1"])
    c0 = float(config.unlearn["delta_rho"]) / 2.0
    classes = data.num_classes
    for label, group in summary["groups"].items():
        method = group["method"]
        per_seed = {"ua": [], "ra": [], "ta": []}
        for s in group["seeds"]:
            split = json.loads((out / f"split_seed{s}.json").read_text())
            key = f"{label}_seed{s}"
            if method == "retrain":
                layer_map, values = read_checkpoint(out / f"model_retrain_seed{s}.ckpt")
            else:
                layer_map, values = read_checkpoint(out / f"{key}.ckpt")
                plan = json.loads((out / f"{key}_manifest.json").read_text())["plan"]
                rows = read_csv_rows(out / f"{key}.csv")
                noise_budget(checks, plan, group["k"], c0, c1)
                clipping(checks, rows, plan["c1_per_block"], key)
                noise_drawn(checks, rows, plan, values.size, key)
            x, y = data.inputs, data.labels
            if external_test is None:
                tx, ty = x[split["test_idx"]], y[split["test_idx"]]
            else:
                tx, ty = external_test.inputs, external_test.labels
            forget = split["forget_idx"]
            per_seed["ua"].append(100.0 - accuracy_pct(layer_map, values, x[forget], y[forget]))
            per_seed["ra"].append(accuracy_pct(layer_map, values, x[split["retain_idx"]],
                                               y[split["retain_idx"]]))
            per_seed["ta"].append(accuracy_pct(layer_map, values, tx, ty))
            if method == "retrain":
                ta = per_seed["ta"][-1]
                checks.expect(ta >= 200.0 / classes,
                              f"seed {s}: retrained test accuracy {ta:.1f}% is not above "
                              f"twice chance ({200.0 / classes:.1f}%)")
        for metric, values_ in per_seed.items():
            want = float(np.mean(values_))
            got = group[metric]["mean"]
            checks.expect(got is not None and abs(got - want) <= 1e-9,
                          f"{label}: summary {metric} {got!r} != forward pass {want!r}")
        for metric in ("ua", "ra", "ta", "mia_efficacy"):
            m = group[metric]["mean"]
            checks.expect(m is not None and 0.0 <= m <= 100.0,
                          f"{label}: {metric} {m!r} outside [0, 100]")
