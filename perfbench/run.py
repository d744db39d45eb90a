"""Benchmark of the blockwise-unlearn pipeline, one workload per run.

    python3 perfbench/run.py --workload blobs-random10 --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics from a traced run.
Every run checks the program's outputs (see checks.py) and exits 1 if a check
fails.  See README.md for the workloads, metrics and reference figures.
"""

import os

# One BLAS thread, set before numpy is imported: two-thread OpenBLAS matmuls
# stall whenever the other core is busy (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import checks as chk  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, mnist_shape_arrays, write_config  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PKG = "blockwise_unlearn"

SETUPS_PER_ROUND = 3  # timed set-ups at the start of each round; setup_s is their median
MIN_ROUNDS = 2  # rounds per run, at least: the repeat checks need a second round

# Machine-speed probe: a fixed kernel of Python integer arithmetic and BLAS
# matmuls, timed right before and after each group of timed operations.  The
# host's speed drifts by up to 1.5x over seconds to minutes (README.md), so
# every sample is reported in reference seconds: wall seconds scaled by
# PROBE_REF_S / (mean probe time around its group).  PROBE_REF_S is the
# probe's time on the reference host in its fast state.
PROBE_REF_S = 0.002
PROBE_REPS = 5
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((192, 192))

END_TO_END = {
    "setup_s": "s",
    "grid_s": "s",
    "unlearn_blockwise_s": "s",
    "unlearn_nft_s": "s",
    "retrain_s": "s",
    "audit_s": "s",
    "peak_rss_mb": "MB",
}


def _self_s(name):
    return lambda t, c: t[name]["self_s"]


def _total_s(name):
    return lambda t, c: t[name]["s"]


def _calls(name):
    return lambda t, c: t[name]["calls"]


def _ratio(num, den):
    return lambda t, c: c[num] / c[den] if c[den] else 0.0


# Per-layer metrics of one traced round: (unit, value from layer times t and counts c).
PER_LAYER = {
    "model.accuracy.s": ("s", _total_s("model.accuracy")),
    "model.accuracy.calls": ("calls", _calls("model.accuracy")),
    "model.accuracy.rows": ("rows", lambda t, c: c["model.accuracy.rows"]),
    "engine.eval_rows_per_grad_row": ("ratio", _ratio("engine.eval_rows", "engine.grad_rows")),
    "model.loss_and_grad.s": ("s", _total_s("model.loss_and_grad")),
    "model.loss_and_grad.calls": ("calls", _calls("model.loss_and_grad")),
    "model.loss_and_grad.rows": ("rows", lambda t, c: c["model.loss_and_grad.rows"]),
    "engine.train.self_s": ("s", _self_s("engine.train")),
    "engine.nft_step.self_s": ("s", _self_s("engine.nft_step")),
    "engine.run_blockwise.self_s": ("s", _self_s("engine.run_blockwise")),
    "subspace.build_basis.s": ("s", _total_s("subspace.build_basis")),
    "subspace.build_basis.calls": ("calls", _calls("subspace.build_basis")),
    "subspace.project_block.s": ("s", _total_s("subspace.project_block")),
    "subspace.project_block.calls": ("calls", _calls("subspace.project_block")),
    "subspace.lift_block.s": ("s", _total_s("subspace.lift_block")),
    "subspace.lift_block.calls": ("calls", _calls("subspace.lift_block")),
    "audit.compute_metrics.self_s": ("s", _self_s("audit.compute_metrics")),
    "audit.mia_efficacy.s": ("s", _total_s("audit.mia_efficacy")),
    "audit.mia_efficacy.calls": ("calls", _calls("audit.mia_efficacy")),
    "audit.mia_fits_per_model": (
        "ratio", lambda t, c: t["audit.mia_efficacy"]["calls"] / c["audit.models"]
    ),
    "datasets.load_idx.s": ("s", _total_s("datasets.load_idx")),
    "datasets.make_split.s": ("s", _total_s("datasets.make_split")),
    "model.save_params.s": ("s", _total_s("model.save_params")),
    "model.save_params.bytes": ("bytes", lambda t, c: c["model.save_params.bytes"]),
    "harness.run_experiment.self_s": ("s", _self_s("harness.run_experiment")),
    "accounting.make_plan.s": ("s", _total_s("accounting.make_plan")),
    "accounting.make_plan.calls": ("calls", _calls("accounting.make_plan")),
}


def probe_seconds() -> float:
    """Median time of PROBE_REPS runs of the speed-probe kernel."""
    times = []
    for _ in range(PROBE_REPS):
        start = time.perf_counter()
        acc = 0
        for i in range(15_000):
            acc += i * i
        for _ in range(4):
            _PROBE_MATRIX @ _PROBE_MATRIX
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    """One workload at one seed: timed set-ups, then timed rounds of operations."""

    def __init__(self, workload, seed: int, scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.config_path = write_config(workload, ROOT, scratch, seed)
        self.grid_dir = scratch / "grid"
        self.checks = chk.Checks()
        self.attempted = 0
        self.failed = 0
        # wall seconds as timed, and the same samples in reference seconds
        self.wall: dict[str, list[float]] = defaultdict(list)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.speed = 1.0  # PROBE_REF_S / probe time of the last group
        self.probes: list[float] = []
        self.env = None
        # models from the first round, rebound to each fresh import by _bind
        self._carried: dict[str, np.ndarray] = {}
        self._layer_map = None
        # first-round results that later rounds must reproduce bit for bit
        self._unlearn_values: dict[int, np.ndarray] = {}

    # -- set-up ---------------------------------------------------------------

    def setup(self, tracer: Tracer | None = None) -> float:
        """Fresh import of the package, its config, the dataset and seed 0's
        split: what `blockwise-unlearn run` pays before its first cell (with
        numpy and scipy already imported).  Returns the elapsed seconds."""
        for name in [m for m in sys.modules if m == PKG or m.startswith(PKG + ".")]:
            del sys.modules[name]
        gc.collect()
        start = time.perf_counter()
        pkg = importlib.import_module(PKG)
        if tracer is not None:
            tracer.install(pkg)
        config = pkg.harness.load_config(self.config_path)
        data, external_test = pkg.harness.load_dataset(config)
        seeds = pkg.harness.cell_seeds(config, 0)
        split = pkg.datasets.make_split(
            data, pkg.harness.deletion_request(config), seed=seeds.init,
            test_fraction=config.test_fraction if external_test is None else 0.0,
        )
        elapsed = time.perf_counter() - start
        self._bind(pkg, config, data, external_test, seeds, split)
        return elapsed

    def _bind(self, pkg, config, data, external_test, seeds, split) -> None:
        retain = data.subset(split.retain_idx)
        forget = data.subset(split.forget_idx)
        test = external_test if external_test is not None else data.subset(split.test_idx)
        self.env = SimpleNamespace(
            pkg=pkg, config=config, data=data, external_test=external_test,
            seeds=seeds, split=split, retain=retain, forget=forget, test=test,
            eval_sets=pkg.engine.EvalSets(
                test=test.pair(), retain=retain.pair(), forget=forget.pair()
            ),
            arch=pkg.harness.architecture(config, data),
            tcfg=pkg.harness.train_config(config),
            k_max=max(config.k_values),
            cells=config.n_seeds * (1 + len(config.budgets) * len(config.k_values)),
        )
        for name, values in self._carried.items():
            setattr(self.env, name, pkg.model.ParamVector(values, self._layer_map))

    # -- operations -------------------------------------------------------------

    def grid(self):
        return len(self.env.pkg.harness.run_experiment(self.env.config).cells)

    def unlearn(self, k: int):
        """One deletion request as the harness serves it: plan, basis, run."""
        env, pkg, config = self.env, self.env.pkg, self.env.config
        epsilon, delta = config.budgets[0]
        spec = pkg.harness.budget_spec(config, epsilon, delta)
        steps = config.unlearn.get("steps")
        plan = pkg.accounting.make_plan(
            spec, k, steps=None if steps is None else int(steps),
            scale_c0=bool(config.unlearn.get("scale_c0", True)),
        )
        basis = None
        if k > 1:
            basis = pkg.subspace.build_basis(
                config.basis_strategy, env.full.layer_map, k,
                seed=pkg.harness.basis_seed(config, 0),
            )
        f = config.finetune
        run_cfg = pkg.engine.RunConfig(
            plan=plan, basis=basis,
            batch_size=int(config.unlearn.get("batch_size", 64)),
            fine_tune_steps=None if f.get("steps") is None else int(f["steps"]),
            fine_tune_lr=float(f.get("lr", 0.01)),
            fine_tune_momentum=float(f.get("momentum", 0.9)),
            fine_tune_weight_decay=float(f.get("weight_decay", 0.0)),
            seeds=env.seeds, step_cap=config.step_cap,
        )
        record = pkg.engine.run_blockwise(env.full, run_cfg, env.retain.pair(), env.eval_sets)
        return plan, basis, record

    def retrain(self):
        env = self.env
        return env.pkg.engine.coupled_retrain(env.arch, env.retain.pair(), env.seeds, env.tcfg)

    def audit(self):
        env = self.env
        return env.pkg.audit.compute_metrics(
            env.unlearned, env.retain.pair(), env.forget.pair(), env.test.pair(),
            retrain_params=env.retrained, rte_minutes=self._rte_minutes,
            mia_seed=env.seeds.init,
        )

    def attempt(self, metric: str | None, op, ops: int = 1):
        """Run one operation, timing it into `metric` when given.  An
        exception counts the operation as failed and returns None."""
        self.attempted += ops
        gc.collect()
        start = time.perf_counter()
        try:
            value = op()
        except Exception:  # noqa: BLE001 - counted as a failed operation
            traceback.print_exc(file=sys.stderr)
            self.failed += ops
            return None
        if metric is not None:
            self.wall[metric].append(time.perf_counter() - start)
        return value

    @contextmanager
    def group(self):
        """Probe the machine's speed around a group of timed operations and
        add the group's samples to `samples` in reference seconds."""
        before = probe_seconds()
        marks = {name: len(v) for name, v in self.wall.items()}
        yield
        probe = (before + probe_seconds()) / 2
        self.probes.append(probe)
        self.speed = PROBE_REF_S / probe
        for name, values in self.wall.items():
            self.samples[name].extend(v * self.speed for v in values[marks.get(name, 0):])

    def attempt_grid(self, metric: str):
        cells = self.env.cells
        shutil.rmtree(self.grid_dir, ignore_errors=True)
        done = self.attempt(metric, self.grid, ops=cells)
        if done is not None and done < cells:
            self.failed += cells - done
        return done

    # -- rounds ----------------------------------------------------------------

    def timed_round(self, first: bool) -> None:
        """A grid, then each request `reps` times, all timed, each kind in its
        own probe group.  The first round's outputs go through every check;
        later rounds must reproduce them."""
        w, env, checks = self.workload, self.env, self.checks
        with self.group():
            grid_done = self.attempt_grid("grid_s") is not None
        if grid_done and first:
            chk.grid_artifacts(checks, self.grid_dir, env.data, env.external_test, env.config)
            self._grid_digests = self._grid_files()
            full = env.pkg.model.load_params(self.grid_dir / "model_full_seed0.ckpt")
            self._carried["full"], self._layer_map = full.values.copy(), full.layer_map
            env.full = full
        elif grid_done:
            checks.expect(self._grid_files() == self._grid_digests,
                          "repeated grid wrote different summary.json or CSVs")

        for metric, k in (("unlearn_blockwise_s", env.k_max), ("unlearn_nft_s", 1)):
            with self.group():
                outs = [self.attempt(metric, lambda k=k: self.unlearn(k))
                        for _ in range(w.unlearn_reps)]
            for rep, out in enumerate(outs):
                if out is None:
                    continue
                plan, basis, record = out
                if first and rep == 0:
                    self._check_unlearn(k, plan.to_dict(), basis, record)
                else:
                    checks.expect(
                        np.array_equal(record.final_params.values, self._unlearn_values[k]),
                        f"repeated unlearn at k={k} gave a different model",
                    )

        with self.group():
            outs = [self.attempt("retrain_s", self.retrain) for _ in range(w.retrain_reps)]
        for rep, out in enumerate(outs):
            if out is None:
                continue
            if first and rep == 0:
                self._check_retrained(out)
            else:
                checks.expect(np.array_equal(out.values, self._carried["retrained"]),
                              "repeated retrain gave a different model")

        with self.group():
            outs = [self.attempt("audit_s", self.audit) for _ in range(w.audit_reps)]
        for out in outs:
            self._check_report(out)

        if first and w.gradient_check:
            rng = np.random.default_rng([self.seed, 1])
            chk.gradient(checks, env.pkg.model, env.full, *env.retain.pair(), rng)
        if first and env.external_test is not None:
            self._check_idx_round_trip()

    def _check_unlearn(self, k, plan, basis, record) -> None:
        env, checks = self.env, self.checks
        label = f"unlearn k={k}"
        rows = chk.record_rows(record)
        chk.noise_budget(checks, plan, k, float(env.config.unlearn["delta_rho"]) / 2.0,
                         float(env.config.unlearn["c1"]))
        chk.clipping(checks, rows, plan["c1_per_block"], label)
        chk.noise_drawn(checks, rows, plan, record.final_params.d, label)
        chk.forget_untouched(checks, record.touched_rows, env.split.retain_idx,
                             env.split.forget_idx, label)
        if basis is not None:
            chk.basis_round_trip(checks, env.pkg.subspace, basis,
                                 np.random.default_rng([self.seed, 2]))
        if k in env.config.k_values:
            epsilon = env.config.budgets[0][0]
            stored = chk.read_checkpoint(
                self.grid_dir / f"{env.config.method}_eps{epsilon:g}_k{k}_seed0.ckpt")[1]
            checks.expect(np.array_equal(stored, record.final_params.values),
                          f"unlearn at k={k} differs from the grid's seed-0 cell")
        self._unlearn_values[k] = record.final_params.values.copy()
        if k == env.k_max:
            self._carried["unlearned"] = self._unlearn_values[k]
            self._rte_minutes = self.wall["unlearn_blockwise_s"][0] / 60.0
            env.unlearned = record.final_params

    def _check_retrained(self, retrained) -> None:
        env, checks = self.env, self.checks
        stored = chk.read_checkpoint(self.grid_dir / "model_retrain_seed0.ckpt")[1]
        checks.expect(np.array_equal(stored, retrained.values),
                      "coupled_retrain differs from the grid's seed-0 retrain model")
        layer_map = [[n, list(s), o] for n, s, o in retrained.layer_map]
        ta = chk.accuracy_pct(layer_map, retrained.values, *env.test.pair())
        checks.expect(ta >= 200.0 / env.data.num_classes,
                      f"retrained test accuracy {ta:.1f}% is not above twice chance")
        self._carried["retrained"] = retrained.values.copy()
        env.retrained = retrained

    def _check_report(self, report) -> None:
        if report is None:
            return
        for name in ("ua", "ra", "ta", "mia_efficacy"):
            value = getattr(report, name)
            self.checks.expect(value is not None and 0.0 <= value <= 100.0,
                               f"audit {name} {value!r} outside [0, 100]")

    def _check_idx_round_trip(self) -> None:
        train_x, train_y, test_x, test_y = mnist_shape_arrays(self.seed)
        env = self.env
        self.checks.expect(
            np.array_equal(env.data.inputs, train_x / 255.0)
            and np.array_equal(env.data.labels, train_y)
            and np.array_equal(env.external_test.inputs, test_x / 255.0)
            and np.array_equal(env.external_test.labels, test_y),
            "load_idx does not return the rows the IDX files were written from",
        )

    def _grid_files(self) -> dict[str, str]:
        files = sorted(self.grid_dir.glob("*.csv")) + [self.grid_dir / "summary.json"]
        return {p.name: _digest(p) for p in files}

    def traced_round(self, tracer: Tracer) -> dict[str, float]:
        """An untraced grid, then a traced set-up, grid and one of each request.
        Returns the round's per-layer values, times in reference seconds."""
        with self.group():
            self.attempt_grid("grid_s")
        tracer.reset()
        try:
            with self.group():
                self.setup(tracer)
                self.attempt_grid("traced_grid_s")
                self.attempt(None, lambda: self.unlearn(self.env.k_max))
                self.attempt(None, lambda: self.unlearn(1))
                self.attempt(None, self.retrain)
                self.attempt(None, self.audit)
        finally:
            tracer.uninstall()
        times, counts = tracer.layer_times(), tracer.counts
        return {
            name: float(value(times, counts)) * (self.speed if unit == "s" else 1.0)
            for name, (unit, value) in PER_LAYER.items()
        }

    # -- the run --------------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> dict:
        """Run whole rounds for about `seconds`; each starts with set-ups.

        With trace, the first (checked) round is followed by traced rounds and
        the result carries per-layer metrics instead of end-to-end ones.
        """
        self.setup()  # untimed: brings imports and the page cache to a steady state
        tracer = Tracer() if trace else None
        layer_rounds: list[dict[str, float]] = []
        spans: list = []
        start = time.perf_counter()
        rounds = 0
        while True:
            if tracer is None or rounds == 0:
                with self.group():
                    for _ in range(SETUPS_PER_ROUND):
                        self.wall["setup_s"].append(self.setup())
                self.timed_round(first=rounds == 0)
            else:
                layer_rounds.append(self.traced_round(tracer))
                spans.extend(tracer.spans)
            rounds += 1
            elapsed = time.perf_counter() - start
            if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
                break

        if tracer is None:
            values = {name: statistics.median(v) for name, v in self.samples.items()}
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
            counts = {name: len(v) for name, v in self.samples.items()}
        else:
            metrics = {
                name: {"value": statistics.median(r[name] for r in layer_rounds), "unit": unit}
                for name, (unit, _) in PER_LAYER.items()
            }
            overhead = (statistics.median(self.samples["traced_grid_s"])
                        - statistics.median(self.samples["grid_s"]))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            counts = dict.fromkeys(metrics, len(layer_rounds))
            out_dir = HERE / "_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{self.workload.name}-seed{self.seed}.json.gz", spans)

        for message in self.checks.failures:
            print(f"CHECK FAILED: {message}", file=sys.stderr)
        for name, m in metrics.items():
            wall = self.wall.get(name) if tracer is None else None
            wall_text = f"  wall median {statistics.median(wall):.6g} s" if wall else ""
            print(f"{name:32s} {m['value']:14.6g} {m['unit']:6s} "
                  f"n={counts.get(name, 1)}{wall_text}")
        print(f"rounds={rounds} checks={self.checks.run} "
              f"check_failures={len(self.checks.failures)} "
              f"probe median {statistics.median(self.probes) * 1e3:.3f} ms "
              f"(reference {PROBE_REF_S * 1e3:.3f} ms)")
        return {
            "correct": self.checks.ok,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / PKG / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / PKG}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch = HERE / "_scratch" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        result = Bench(WORKLOADS[args.workload], args.seed, scratch).run(
            args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
