"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Every tolerance is pinned here; the behavioral criteria (10, 11) use frozen
seeded configurations whose runs are deterministic in this environment.
"""

import math

import numpy as np
import pytest

from blockwise_unlearn import accounting as acc
from blockwise_unlearn import audit
from blockwise_unlearn import datasets as ds
from blockwise_unlearn import divergence as dv
from blockwise_unlearn import engine as eng
from blockwise_unlearn import model as mdl
from blockwise_unlearn import subspace as sub
from blockwise_unlearn.errors import InfeasibleNoise


def report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {criterion:>2}] {status} {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# --- shared independent oracles -------------------------------------------

def disc_sign(sigma2, b):
    cb2 = 2.0 * b.eps_renyi * sigma2 / b.q
    zeta = 1.0 / (1.0 - (1.0 - b.gamma * b.lam) ** 2)
    b0sq = 4.0 * b.c1**2 / (b.lam**2 * cb2)
    b1sq = b0sq * (b.lam * b.c0 / b.c1 - 1.0) ** 2
    return zeta + b1sq - b0sq


def min_noise_bisect(b):
    lo, hi = 1e-12, 1e12
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if disc_sign(mid, b) >= 0:
            hi = mid
        else:
            lo = mid
    return hi


def scan_has_root(sigma2, b, n=100_001):
    """Dense x-grid: does the certification inequality hold anywhere in (0,1]?"""
    cb2 = 2.0 * b.eps_renyi * sigma2 / b.q
    zeta = 1.0 / (1.0 - (1.0 - b.gamma * b.lam) ** 2)
    x = np.linspace(1e-9, 1.0, n)
    z = 1.0 - b.lam * b.c0 / b.c1
    if 0.0 < z < 1.0:
        x = np.append(x, z)
    lhs = (2 * b.c0 * x + 2 * b.c1 * (1 - x) / b.lam) ** 2
    return bool(np.any(lhs <= cb2 * (1 - x * x) * zeta))


def random_budgets(seed, n):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        gamma = 10.0 ** rng.uniform(-4, -0.5)
        lam = rng.uniform(1e-3, 0.9) / gamma
        c1 = 10.0 ** rng.uniform(-1, 2)
        c0 = rng.uniform(0.02, 0.95) * c1 / lam
        q = rng.uniform(1.5, 50.0)
        er = 10.0 ** rng.uniform(-1.5, 0.8)
        out.append(acc.BlockBudget(gamma=gamma, lam=lam, c0=c0, c1=c1, q=q, eps_renyi=er))
    return out


# --- criteria 1..5: accounting --------------------------------------------

def test_criterion_01_rdp_conversion_tables():
    checks = [
        (abs(acc.dp_to_rdp(1.0, 24.50, 1e-5) - 0.510), 1e-3),
        (abs(acc.dp_to_rdp(5.0, 6.06, 1e-5) - 2.725), 2e-3),
        (abs(acc.dp_to_rdp(3.0, 9.10, 1e-5) - 1.579), 2e-3),
        (abs(acc.dp_to_rdp(10.0, 2.77, 1e-3) - 6.101), 5e-3),
    ]
    worst = max(err / tol for err, tol in checks)
    report(1, all(err <= tol for err, tol in checks),
           f"Renyi/(eps,delta) conversion vs reference tables (worst {worst:.2f}x tol)")


def test_criterion_02_order_optimization():
    refs = [(1.0, 1e-5, 24.50), (5.0, 1e-5, 6.06), (3.0, 1e-5, 9.10), (10.0, 1e-3, 2.77)]
    ok_refs = all(abs(acc.optimize_q(e, d) - q) <= 0.1 for e, d, q in refs)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        eps = 10.0 ** rng.uniform(-1, 1.3)
        delta = 10.0 ** rng.uniform(-8, -1)
        qs = np.arange(1.001, 500.001, 1e-3)
        er = eps - math.log(1.0 / delta) / (qs - 1.0)
        obj = np.where(er > 0, qs / np.maximum(er, 1e-300), np.inf)
        q_grid = float(qs[int(np.argmin(obj))])
        worst = max(worst, abs(acc.optimize_q(eps, delta) - q_grid))
    report(2, ok_refs and worst <= 0.05,
           f"closed-form order vs 4 reference values and grid search (worst dev {worst:.4f})")


def test_criterion_03_per_block_scaling_tables():
    er_mnist = acc.dp_to_rdp(1.0, 24.50, 1e-5)
    mnist_c1 = {2: 70.71, 4: 50.00, 7: 37.80, 10: 31.62, 13: 27.74}
    mnist_er = {2: 0.255, 4: 0.128, 7: 0.073, 10: 0.051, 13: 0.039}
    ok = True
    for k, c1_ref in mnist_c1.items():
        per_block, _, c1_b = acc.split_budget(er_mnist, 24.50, 1e-5, k, 0.005, 100.0)
        ok &= abs(c1_b - c1_ref) <= 0.01
        ok &= abs(per_block[0] - mnist_er[k]) <= 1e-3
    er_cifar = acc.dp_to_rdp(5.0, 6.06, 1e-5)
    for k, c1_ref in ((2, 38.891), (4, 27.500)):
        _, _, c1_b = acc.split_budget(er_cifar, 6.06, 1e-5, k, 0.005, 55.0)
        ok &= abs(c1_b - c1_ref) <= 0.01
    report(3, ok, "per-block radius and budget scaling tables reproduced")


def test_criterion_04_minimal_noise_consistency():
    budgets = random_budgets(102, 100)
    worst_rel = 0.0
    worst_t = 0.0
    ok = True
    for b in budgets:
        sigma2, regime = acc.min_noise(b)
        assert regime == acc.CLIP_DOMINANT
        bisected = min_noise_bisect(b)
        worst_rel = max(worst_rel, abs(sigma2 - bisected) / sigma2)
        t_closed = math.log(1.0 - b.ratio) / math.log(1.0 - b.gamma * b.lam)
        t_real = acc.steps_real(sigma2, b)
        worst_t = max(worst_t, abs(t_real - t_closed) / max(t_closed, 1e-12))
        ok &= not scan_has_root(0.999 * sigma2, b)
        try:
            acc.steps_for_noise(0.999 * sigma2, b)
            ok = False
        except InfeasibleNoise:
            pass
    ok &= worst_rel <= 1e-9 and worst_t <= 1e-6
    report(4, ok,
           f"minimal noise vs discriminant bisection (worst rel {worst_rel:.2e}), "
           f"step formula (worst rel {worst_t:.2e}), no root below threshold")


def test_criterion_05_noise_step_round_trip():
    rng = np.random.default_rng(103)
    ok = True
    checked_monotone = 0
    for b in random_budgets(104, 100):
        t = int(rng.integers(1, 30))
        sigma2 = acc.noise_for_steps(t, b)
        ok &= acc.steps_for_noise(sigma2, b) <= t
        sigma2_min, _ = acc.min_noise(b)
        t_star = acc.steps_real(sigma2_min, b)
        if t_star >= 2:
            ts = range(1, math.floor(t_star) + 1)
            noises = [acc.noise_for_steps(ti, b) for ti in ts]
            ok &= all(hi >= lo - 1e-12 * hi for hi, lo in zip(noises, noises[1:]))
            checked_monotone += 1
    report(5, ok and checked_monotone >= 30,
           f"round trip steps(noise(T)) <= T on 100 specs; monotone branch on {checked_monotone}")


# --- criteria 6..7: subspaces ---------------------------------------------

def test_criterion_06_subspace_suite():
    layer_maps = {
        8: (("w", (2, 3), 0), ("b", (2,), 6)),
        64: (("w1", (8, 4), 0), ("b1", (8,), 32), ("w2", (4, 5), 40), ("b2", (4,), 60)),
        4096: (("big", (64, 64), 0),),
    }
    rng = np.random.default_rng(105)
    worst_orth = worst_round = worst_pyth = 0.0
    for d, lm in layer_maps.items():
        for strategy in (sub.RANDOM_ORTHONORMAL, sub.PERMUTATION):
            basis = sub.build_basis(strategy, lm, 4, seed=d)
            worst_orth = max(worst_orth, sub.orthogonality_defect(basis))
            for _ in range(100 if d < 4096 else 10):
                w = rng.standard_normal(d)
                back = sub.reconstruct(sub.decompose(w, basis), basis)
                worst_round = max(
                    worst_round,
                    float(np.max(np.abs(back - w))) / (1 + float(np.max(np.abs(w)))),
                )
                w2 = rng.standard_normal(d)
                z = sub.gap(w, w2, basis)
                lhs = float(np.sum(z**2))
                rhs = float(np.linalg.norm(w - w2)) ** 2
                worst_pyth = max(worst_pyth, abs(lhs - rhs) / rhs)
    ok = worst_orth <= 1e-10 and worst_round <= 1e-10 and worst_pyth <= 1e-8
    report(6, ok,
           f"orthogonality {worst_orth:.1e}, round trip {worst_round:.1e}, "
           f"gap identity {worst_pyth:.1e} at d in (8, 64, 4096)")


def test_criterion_07_block_noise_isotropy():
    layer_map = (("w", (8, 1), 0),)
    ok = True
    details = []
    for strategy in (sub.RANDOM_ORTHONORMAL, sub.PERMUTATION):
        basis = sub.build_basis(strategy, layer_map, 4, seed=21)
        rep = dv.check_block_noise_equivalence(
            basis, 1.0, 20_000, np.random.default_rng(22)
        )
        ok &= rep.passed and rep.max_cov_deviation <= rep.cov_threshold
        details.append(f"{strategy}: {rep.max_cov_deviation:.4f}<={rep.cov_threshold:.4f}")
    report(7, ok, "summed block noise isotropic (" + "; ".join(details) + ")")


# --- criterion 8: divergence lab -------------------------------------------

def test_criterion_08_divergence_lab():
    rng = np.random.default_rng(106)
    worst_quad = 0.0
    for _ in range(20):
        q = float(rng.uniform(1.2, 8.0))
        a = float(rng.uniform(-2.0, 2.0))
        s2 = float(rng.uniform(0.1, 4.0))
        mu, nu = dv.gaussian_pair(a, 0.0, s2, order=q)
        worst_quad = max(
            worst_quad,
            abs(dv.numeric_renyi(mu, nu, q) - dv.renyi_gaussian_shift(q, a, s2)),
        )
    violations = 0
    for b in random_budgets(107, 50):
        t = int(rng.integers(1, 12))
        sigma2 = acc.noise_for_steps(t, b)
        rep = dv.check_budget_bound_on_trajectories(b, sigma2, t)
        if not rep.passed:
            violations += 1
    ok = worst_quad <= 1e-4 and violations == 0
    report(8, ok,
           f"quadrature vs closed form (worst {worst_quad:.2e}); "
           f"trajectory certificate violations: {violations}/50")


# --- criterion 9: gradients -------------------------------------------------

def test_criterion_09_gradient_finite_differences():
    rng = np.random.default_rng(108)
    checked = 0
    worst = 0.0
    while checked < 10:
        widths = (int(rng.integers(2, 6)), int(rng.integers(2, 7)),
                  int(rng.integers(2, 6)), int(rng.integers(2, 5)))
        spec = mdl.MlpSpec(widths)
        params = mdl.init_params(spec, seed=int(rng.integers(0, 10_000)))
        batch = mdl.Batch(rng.standard_normal((4, widths[0])),
                          rng.integers(0, widths[-1], size=4))
        # skip configurations within the step of a ReLU kink
        h = batch.inputs
        gap = np.inf
        for i in range(len(widths) - 2):
            z = h @ params.view(f"fc{i + 1}.w").T + params.view(f"fc{i + 1}.b")
            gap = min(gap, float(np.min(np.abs(z))))
            h = np.maximum(z, 0.0)
        if gap < 1e-3:
            continue
        grad = mdl.loss_and_grad(params, batch)[1].values
        fd = np.empty_like(grad)
        for j in range(grad.size):
            plus, minus = params.values.copy(), params.values.copy()
            plus[j] += 1e-6
            minus[j] -= 1e-6
            _, lp = mdl.forward(mdl.ParamVector(plus, params.layer_map), batch)
            _, lm = mdl.forward(mdl.ParamVector(minus, params.layer_map), batch)
            fd[j] = (lp - lm) / 2e-6
        scale = np.maximum(np.abs(fd), 1e-3)
        worst = max(worst, float(np.max(np.abs(grad - fd) / scale)))
        checked += 1
    report(9, worst <= 1e-5,
           f"backprop vs central differences on {checked} configs (worst rel {worst:.2e})")


# --- criteria 10, 11, 13: behavioral runs -----------------------------------

def _k_ordering_experiment():
    """Frozen configuration for the block-count ordering run."""
    data = ds.generate_blobs(5000, classes=4, dim=8, separation=3.0, seed=1)
    arch = mdl.MlpSpec((8, 12, 4))
    tcfg = eng.TrainConfig(steps=500, lr=0.05)
    spec = acc.BudgetSpec(epsilon=1.0, delta=1e-5, gamma=0.02, lam=1.0, c1=1.0,
                          c0=0.05 / 2.0)
    results = {k: {"final": [], "min": [], "csv": None} for k in (1, 4, 10)}
    for s in range(5):
        seeds = eng.Seeds(init=s, data_order=10_000 + s, noise=20_000 + s)
        split = ds.make_split(data, ds.RandomFraction(0.1), seed=s, test_fraction=0.2)
        test = data.subset(split.test_idx)
        retain = data.subset(split.retain_idx)
        pool = data.subset(np.sort(np.concatenate([split.retain_idx, split.forget_idx])))
        full = eng.train(arch, pool.pair(), seeds, tcfg)
        for k in (1, 4, 10):
            plan = acc.make_plan(spec, k, steps=2)
            basis = None if k == 1 else sub.build_basis(
                sub.RANDOM_ORTHONORMAL, full.layer_map, k, seed=30_000 + s
            )
            cfg = eng.RunConfig(plan=plan, basis=basis, batch_size=64,
                                fine_tune_steps=12, fine_tune_lr=0.0025,
                                seeds=seeds, step_cap=1000)
            rec = eng.run_blockwise(full, cfg, retain.pair(),
                                    eng.EvalSets(test=test.pair()))
            results[k]["final"].append(100.0 * rec.rows[-1].test_acc)
            results[k]["min"].append(100.0 * rec.min_accuracy("unlearn"))
            if s == 0:
                results[k]["record"] = (full, cfg, retain, test)
    return results


@pytest.fixture(scope="module")
def k_ordering():
    return _k_ordering_experiment()


def test_criterion_10_block_count_ordering(k_ordering):
    f = {k: float(np.mean(v["final"])) for k, v in k_ordering.items()}
    m = {k: float(np.mean(v["min"])) for k, v in k_ordering.items()}
    ok_final = f[10] >= f[4] >= f[1] - 1.0
    ok_min = m[1] <= m[10]
    report(10, ok_final and ok_min,
           f"post-fine-tune test acc k10={f[10]:.2f} >= k4={f[4]:.2f} >= k1-1={f[1] - 1:.2f}; "
           f"mid-run minimum k1={m[1]:.2f} <= k10={m[10]:.2f}")


def test_criterion_11_classwise_deletion():
    data = ds.generate_blobs(5000, classes=5, dim=8, separation=2.5, seed=1)
    arch = mdl.MlpSpec((8, 16, 5))
    tcfg = eng.TrainConfig(steps=600, lr=0.05)
    spec = acc.BudgetSpec(epsilon=1.0, delta=1e-5, gamma=0.02, lam=1.0, c1=1.0,
                          c0=0.1 / 2.0)
    uas, ras, ra_base, mias, mias_orig = [], [], [], [], []
    for s in range(5):
        seeds = eng.Seeds(init=s, data_order=10_000 + s, noise=20_000 + s)
        split = ds.make_split(data, ds.ClassWise(2), seed=s, test_fraction=0.2)
        test = data.subset(split.test_idx)
        retain = data.subset(split.retain_idx)
        forget = data.subset(split.forget_idx)
        pool = data.subset(np.sort(np.concatenate([split.retain_idx, split.forget_idx])))
        full = eng.train(arch, pool.pair(), seeds, tcfg)
        retr = eng.coupled_retrain(arch, retain.pair(), seeds, tcfg)
        plan = acc.make_plan(spec, 4, steps=2)
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, full.layer_map, 4,
                                seed=30_000 + s)
        cfg = eng.RunConfig(plan=plan, basis=basis, batch_size=64,
                            fine_tune_steps=700, fine_tune_lr=0.01,
                            fine_tune_weight_decay=1e-2, seeds=seeds, step_cap=1000)
        rec = eng.run_blockwise(full, cfg, retain.pair())
        rep = audit.compute_metrics(rec.final_params, retain.pair(), forget.pair(),
                                    test.pair(), retrain_params=retr, mia_seed=s)
        rep_orig = audit.compute_metrics(full, retain.pair(), forget.pair(),
                                         test.pair(), mia_seed=s)
        base = audit.compute_metrics(retr, retain.pair(), forget.pair(),
                                     test.pair(), mia_seed=s)
        uas.append(rep.ua)
        ras.append(rep.ra)
        ra_base.append(base.ra)
        mias.append(rep.mia_efficacy)
        mias_orig.append(rep_orig.mia_efficacy)
    ua_mean = float(np.mean(uas))
    ra_gap = abs(float(np.mean(ras)) - float(np.mean(ra_base)))
    mia_mean, mia_orig_mean = float(np.mean(mias)), float(np.mean(mias_orig))
    ok = ua_mean == 100.0 and mia_mean >= mia_orig_mean and ra_gap <= 5.0
    report(11, ok,
           f"UA={ua_mean:.2f} (per-seed {uas}); MIA {mia_mean:.1f} >= original "
           f"{mia_orig_mean:.1f}; |RA-retrain| = {ra_gap:.2f} <= 5")


# --- criterion 12: stability bound ------------------------------------------

def test_criterion_12_stability_bound():
    rng = np.random.default_rng(109)
    ok = True
    for _ in range(100):
        alpha = rng.uniform(0.01, 0.5)
        gamma_sc = rng.uniform(0.05, 0.95) / alpha
        lip = rng.uniform(0.1, 5.0)
        total = int(rng.integers(1, 40))
        n_diff = int(rng.integers(0, total + 1))
        b = rng.permutation(total)[:n_diff]
        bound = audit.stability_bound(alpha, gamma_sc, lip, b, total)
        worst = audit.stability_bound(alpha, gamma_sc, lip, range(n_diff), total)
        differ_at = {total - 1 - k for k in b}
        delta = 0.0
        for t in range(total):
            delta = (1.0 - alpha * gamma_sc) * delta
            if t in differ_at:
                delta += 2.0 * alpha * lip
            ok &= delta <= worst * (1 + 1e-12) + 1e-300
        ok &= delta <= bound * (1 + 1e-12) + 1e-300
    report(12, ok, "simulated deviation recursion never exceeds the closed form (100 instances)")


# --- criterion 13: determinism ----------------------------------------------

def test_criterion_13_rerun_determinism(k_ordering, tmp_path):
    full, cfg, retain, test = k_ordering[10]["record"]
    paths = []
    for i in (0, 1):
        rec = eng.run_blockwise(full, cfg, retain.pair(),
                                eng.EvalSets(test=test.pair()))
        p = tmp_path / f"run{i}.csv"
        rec.write_csv(p)
        paths.append(p)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    report(13, identical, "rerun of an experiment cell yields byte-identical CSVs")
