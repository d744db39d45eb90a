"""Command-line interface.

Subcommands: plan (pure accounting), train / retrain / unlearn (one seed of
the grid, stage by stage, writing the files `run` writes for that seed),
audit, calibrate-delta, divergence-check, and run (the full experiment grid
from a config file).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import accounting as acc
from . import audit
from . import datasets as ds
from . import harness
from . import subspace as sub
from .errors import DomainError, UnlearnError


def _write_json(doc, path: str | None) -> None:
    """`doc` to the file at `path` as the package's JSON artifacts hold it, or
    else printed in the same form."""
    if path:
        ds.write_json(path, doc)
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))


def _add_plan_parser(sub_parsers) -> None:
    p = sub_parsers.add_parser("plan", help="compute a noise/step plan")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--c1", type=float, required=True)
    p.add_argument("--delta-rho", type=float, required=True,
                   help="proximity bound; c0 = delta_rho/2 is an assumed bound on "
                        "the initial distance, not enforced")
    p.add_argument("--blocks", type=int, default=1)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--steps", type=int, help="fixed per-block step count")
    mode.add_argument("--min-noise", action="store_true", help="minimal-noise mode")
    p.add_argument("--q", type=float, default=None, help="Renyi order (default: optimize)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_plan)


def _cmd_plan(args) -> int:
    spec = acc.BudgetSpec(
        epsilon=args.epsilon, delta=args.delta, gamma=args.gamma,
        lam=args.lam, c1=args.c1, c0=args.delta_rho / 2.0, q=args.q,
    )
    plan = acc.make_plan(spec, args.blocks, steps=None if args.min_noise else args.steps)
    _write_json(plan.to_dict(), args.out)
    return 0


def _stage_args(p) -> None:
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory override")
    p.add_argument("--seed", type=int, default=0, help="seed index within the grid")


def _stage_setup(args, config: harness.ExperimentConfig) -> harness.PreparedSeed:
    """The prepared seed of a stage, under its output directory."""
    out = harness.resolve_output_dir(config, args.out)
    os.makedirs(out, exist_ok=True)
    data, external_test = harness.load_dataset(config)
    return harness.prepare_seed(config, out, data, external_test, args.seed)


# the harness step of each model stage, and the name of the model it saves
_MODEL_STAGES = {"train": (harness.train_full, "full"), "retrain": (harness.retrain, "retrain")}


def _cmd_model_stage(args) -> int:
    step, name = _MODEL_STAGES[args.command]
    seed = _stage_setup(args, harness.load_config(args.config))
    step(seed)
    print(harness.model_path(seed, name))
    return 0


def _cmd_unlearn(args) -> int:
    config = harness.load_config(args.config)
    # the budget whose epsilon prints as --epsilon does, as in a cell's key
    budgets = {f"{eps:g}": (eps, delta) for eps, delta in config.budgets}
    name = next(iter(budgets)) if args.epsilon is None else f"{args.epsilon:g}"
    if name not in budgets:
        raise DomainError(f"--epsilon {name} matches none of the config's budgets "
                          f"(epsilon {', '.join(budgets)}); add the budget to the config")
    epsilon, delta = budgets[name]
    seed = _stage_setup(args, config)
    harness.run_cell(
        seed, harness.full_model(seed), epsilon=epsilon, delta=delta, k=args.blocks
    )
    key = harness.cell_key(harness.METHOD_BLOCKWISE, epsilon, args.blocks, args.seed)
    print(os.path.join(seed.out, f"{key}.ckpt"))
    return 0


def _cmd_audit(args) -> int:
    config = harness.load_config(args.config)
    data, external_test = harness.load_dataset(config)
    split = ds.load_split(args.splits)
    params = harness.load_model(args.checkpoint, config, data)
    retrain_params = None
    if args.retrain_checkpoint:
        retrain_params = harness.load_model(args.retrain_checkpoint, config, data)
    sets = harness.evaluation_sets(data, external_test, split)
    report = audit.compute_metrics(
        params, sets.retain, sets.forget, sets.test,
        retrain_params=retrain_params, mia_seed=split.seed,
    )
    _write_json(report._asdict(), args.out)
    ua = "--" if report.ua is None else f"{report.ua:.2f}"
    mia = "--" if report.mia_efficacy is None else f"{report.mia_efficacy:.2f}"
    print(
        f"{'UA':>8s} {'RA':>8s} {'TA':>8s} {'MIA':>8s}\n"
        f"{ua:>8s} {report.ra:8.2f} {report.ta:8.2f} {mia:>8s}",
        file=sys.stderr,
    )
    return 0


def _cmd_calibrate_delta(args) -> int:
    config = harness.load_config(args.config)
    data, _ = harness.load_dataset(config)
    arch = harness.architecture(config, data)
    est = audit.estimate_delta(
        arch, data,
        perturbation_frac=args.frac,
        n_runs=args.runs,
        rho=args.rho,
        seeds=harness.cell_seeds(config, args.seed),
        train_config=harness.train_config(config),
    )
    _write_json(est._asdict(), args.out)
    return 0


def _cmd_divergence_check(args) -> int:
    from . import divergence as dv  # loaded on first use: only this command needs it

    if args.seed < 0:
        raise DomainError(f"seed must be >= 0, got {args.seed}")
    if args.specs < 1:
        raise DomainError(f"specs must be >= 1, got {args.specs}")
    rng = np.random.default_rng(args.seed)
    report: dict = {}

    shift_errors = []
    for _ in range(20):
        q = float(rng.uniform(1.2, 8.0))
        a = float(rng.uniform(-2.0, 2.0))
        s2 = float(rng.uniform(0.1, 4.0))
        mu, nu = dv.gaussian_pair(a, 0.0, s2, order=q)
        shift_errors.append(
            abs(dv.numeric_renyi(mu, nu, q) - dv.renyi_gaussian_shift(q, a, s2))
        )
    report["gaussian_shift_quadrature"] = {
        "max_abs_error": max(shift_errors),
        "tolerance": 1e-4,
        "passed": max(shift_errors) <= 1e-4,
    }

    layer_map = (("w", (8, 1), 0),)
    noise_checks = {}
    for strategy in (sub.RANDOM_ORTHONORMAL, sub.PERMUTATION):
        basis = sub.build_basis(strategy, layer_map, 4, seed=args.seed)
        rep = dv.check_block_noise_equivalence(
            basis, 1.0, 20_000, np.random.default_rng(args.seed + 1)
        )
        noise_checks[strategy] = {
            "max_cov_deviation": rep.max_cov_deviation,
            "cov_threshold": rep.cov_threshold,
            "min_ks_pvalue": min(rep.ks_pvalues),
            "passed": rep.passed,
        }
    report["block_noise_equivalence"] = noise_checks

    fixed_steps, min_noise_plans = [], []
    for _ in range(args.specs):
        gamma = float(10.0 ** rng.uniform(-3, -0.5))
        lam = float(rng.uniform(5e-3, 0.8) / gamma)
        c1 = float(10.0 ** rng.uniform(-1, 1.5))
        c0 = float(rng.uniform(0.05, 0.9) * c1 / lam)
        q = float(rng.uniform(1.5, 30.0))
        er = float(10.0 ** rng.uniform(-1.2, 0.7))
        budget = acc.BlockBudget(gamma=gamma, lam=lam, c0=c0, c1=c1, q=q, eps_renyi=er)
        # a drawn step count, and the one a minimal-noise plan takes
        for reports, steps in ((fixed_steps, int(rng.integers(1, 12))),
                               (min_noise_plans, acc.min_noise_steps(budget))):
            sigma2 = acc.noise_for_steps(steps, budget)
            reports.append(dv.check_budget_bound_on_trajectories(budget, sigma2, steps))
    for key, reports in (("trajectory_bounds", fixed_steps),
                         ("min_noise_trajectory_bounds", min_noise_plans)):
        violations = sum(not rep.passed for rep in reports)
        report[key] = {
            "specs": args.specs,
            "violations": violations,
            "worst_margin": max(rep.numeric - rep.certified for rep in reports),
            "tolerance": reports[0].tolerance,
            "passed": violations == 0,
        }
    report["passed"] = all(
        section["passed"]
        for section in (
            report["gaussian_shift_quadrature"],
            *noise_checks.values(),
            report["trajectory_bounds"],
            report["min_noise_trajectory_bounds"],
        )
    )
    _write_json(report, args.out)
    return 0 if report["passed"] else 1


def _cmd_run(args) -> int:
    config = harness.load_config(args.config)
    result = harness.run_experiment(config, output_dir=args.out)
    out = harness.resolve_output_dir(config, args.out)
    print(harness.format_report(result), end="")
    print(f"artifacts: {out}")
    return 1 if result.errors else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockwise-unlearn",
        description="certified unlearning via block-wise noisy fine-tuning",
    )
    sub_parsers = parser.add_subparsers(dest="command", required=True)

    _add_plan_parser(sub_parsers)

    for name in _MODEL_STAGES:
        p = sub_parsers.add_parser(name, help=f"{name} one seed of the pipeline")
        _stage_args(p)
        p.set_defaults(fn=_cmd_model_stage)

    p = sub_parsers.add_parser("unlearn", help="unlearn from a trained checkpoint")
    _stage_args(p)
    p.add_argument("--blocks", type=int, default=1,
                   help="block count; 1 is plain noisy fine-tuning")
    p.add_argument("--epsilon", type=float, default=None,
                   help="epsilon of the config budget to unlearn under (default: the first)")
    p.set_defaults(fn=_cmd_unlearn)

    p = sub_parsers.add_parser("audit", help="evaluate a checkpoint against a split")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--retrain-checkpoint", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_audit)

    p = sub_parsers.add_parser("calibrate-delta", help="empirical proximity radius")
    p.add_argument("--config", required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--frac", type=float, default=0.1,
                   help="fraction of rows replaced per run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_calibrate_delta)

    p = sub_parsers.add_parser("divergence-check", help="numeric certificate checks")
    p.add_argument("--specs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_divergence_check)

    p = sub_parsers.add_parser("run", help="run the full experiment grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_run)

    parser.set_defaults(fn=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UnlearnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
