import math

import numpy as np
import pytest

from blockwise_unlearn import accounting as acc
from blockwise_unlearn import divergence as dv
from blockwise_unlearn import engine as eng
from blockwise_unlearn import subspace as sub
from blockwise_unlearn.errors import DomainError

from test_benchmark_contract import counting


def normalized_box(box_lo, box_hi, lo, hi, n=2048):
    x = np.linspace(lo, hi, n)
    values = ((x >= box_lo) & (x <= box_hi)).astype(np.float64)
    values /= np.trapezoid(values, dx=(hi - lo) / (n - 1))
    return dv.Density1D(lo=lo, hi=hi, values=values)


def random_clip_budgets(rng, n):
    out = []
    while len(out) < n:
        gamma = 10.0 ** rng.uniform(-3, -0.5)
        gl = rng.uniform(5e-3, 0.8)
        lam = gl / gamma
        c1 = 10.0 ** rng.uniform(-1, 1.5)
        ratio = rng.uniform(0.05, 0.9)
        c0 = ratio * c1 / lam
        q = rng.uniform(1.5, 30.0)
        er = 10.0 ** rng.uniform(-1.2, 0.7)
        out.append(acc.BlockBudget(gamma=gamma, lam=lam, c0=c0, c1=c1, q=q, eps_renyi=er))
    return out


class TestDensity1D:
    def test_rejects_unnormalized(self):
        x = np.linspace(-1, 1, 2048)
        with pytest.raises(DomainError):
            dv.Density1D(lo=-1, hi=1, values=np.ones_like(x))

    def test_rejects_coarse_grid(self):
        with pytest.raises(DomainError):
            dv.Density1D(lo=0, hi=1, values=np.ones(100))

    def test_gaussian_helper_normalized(self):
        den = dv.gaussian_density(0.3, 2.0, -15, 15)
        assert abs(np.trapezoid(den.values, dx=den.dx) - 1.0) <= 1e-9


class TestGaussianShift:
    def test_zero_shift(self):
        assert dv.renyi_gaussian_shift(5.0, 0.0, 1.0) == 0.0

    def test_direct_substitution(self):
        assert dv.renyi_gaussian_shift(2.0, 1.0, 1.0) == 1.0

    def test_matches_quadrature(self):
        mu, nu = dv.gaussian_pair(0.5, 0.0, 0.25)
        numeric = dv.numeric_renyi(mu, nu, 3.0)
        assert abs(numeric - dv.renyi_gaussian_shift(3.0, 0.5, 0.25)) <= 1e-4

    def test_scaling_identities(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = rng.uniform(1.1, 40)
            a = rng.uniform(-5, 5)
            s2 = rng.uniform(0.01, 10)
            base = dv.renyi_gaussian_shift(q, a, s2)
            assert dv.renyi_gaussian_shift(q, 2 * a, s2) == pytest.approx(4 * base)
            assert dv.renyi_gaussian_shift(q, a, 2 * s2) == pytest.approx(base / 2)

    def test_domain(self):
        with pytest.raises(DomainError):
            dv.renyi_gaussian_shift(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            dv.renyi_gaussian_shift(2.0, 1.0, 0.0)


class TestNumericRenyi:
    def test_identical_densities(self):
        den = dv.gaussian_density(0.0, 1.0, -10, 10)
        assert abs(dv.numeric_renyi(den, den, 2.0)) <= 1e-8

    def test_twenty_reference_triples(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = rng.uniform(1.2, 8.0)
            a = rng.uniform(-2.0, 2.0)
            s2 = rng.uniform(0.1, 4.0)
            mu, nu = dv.gaussian_pair(a, 0.0, s2, order=q)
            numeric = dv.numeric_renyi(mu, nu, q)
            assert abs(numeric - dv.renyi_gaussian_shift(q, a, s2)) <= 1e-4

    def test_tail_where_the_linear_density_underflows(self):
        # the tilted integrand peaks near q*a = 9.55, where nu's linear values
        # underflow to 0; the closed form is D_q = 54.5
        q, a, s2 = 7.558492481756824, 1.2634142164861286, 0.11068015066357757
        mu, nu = dv.gaussian_pair(a, 0.0, s2, order=q)
        assert nu.values[-1] == 0.0 and nu.log_values[-1] > -math.inf
        numeric = dv.numeric_renyi(mu, nu, q)
        assert abs(numeric - dv.renyi_gaussian_shift(q, a, s2)) <= 1e-4

    def test_disjoint_supports_infinite(self):
        mu = normalized_box(0.0, 1.0, 0.0, 3.0)
        nu = normalized_box(2.0, 3.0, 0.0, 3.0)
        assert dv.numeric_renyi(mu, nu, 2.0) == math.inf

    def test_monotone_in_order(self):
        mu, nu = dv.gaussian_pair(1.0, 0.0, 1.0)
        qs = np.linspace(1.2, 12, 15)
        vals = [dv.numeric_renyi(mu, nu, q) for q in qs]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_grid_mismatch(self):
        a = dv.gaussian_density(0, 1, -10, 10)
        b = dv.gaussian_density(0, 1, -11, 10)
        with pytest.raises(DomainError):
            dv.numeric_renyi(a, b, 2.0)


class TestBlockNoiseEquivalence:
    LAYER_MAP = (("w", (8, 1), 0),)

    def test_zero_variance(self):
        basis = sub.build_basis(sub.RANDOM_ORTHONORMAL, self.LAYER_MAP, 4, seed=1)
        rep = dv.check_block_noise_equivalence(basis, 0.0, 50, np.random.default_rng(0))
        assert rep.passed and rep.max_cov_deviation == 0.0

    @pytest.mark.parametrize("strategy", [sub.RANDOM_ORTHONORMAL, sub.PERMUTATION])
    def test_isotropy(self, strategy):
        basis = sub.build_basis(strategy, self.LAYER_MAP, 4, seed=2)
        rep = dv.check_block_noise_equivalence(
            basis, 1.0, 20_000, np.random.default_rng(3)
        )
        assert rep.passed
        assert rep.max_cov_deviation <= rep.cov_threshold
        assert all(p >= rep.ks_alpha for p in rep.ks_pvalues)

    def test_draws_the_engine_noise(self, monkeypatch):
        # the check samples the noise a noisy step adds, one draw per block
        # and sample, not a copy of it
        basis = sub.build_basis(sub.PERMUTATION, self.LAYER_MAP, 4, seed=2)
        calls = counting(monkeypatch, eng, "gaussian_noise")
        dv.check_block_noise_equivalence(basis, 1.0, 50, np.random.default_rng(3))
        assert [n for n, *_ in calls] == list(basis.sizes) * 50

    @pytest.mark.parametrize("sigma2", [float("nan"), -1.0])
    def test_sigma2_below_zero_or_nan_rejected(self, sigma2):
        basis = sub.build_basis(sub.PERMUTATION, self.LAYER_MAP, 4, seed=2)
        with pytest.raises(DomainError, match="sigma2"):
            dv.check_block_noise_equivalence(basis, sigma2, 50, np.random.default_rng(3))

    def test_large_dimension_rejected(self):
        layer_map = (("w", (40, 1), 0),)
        basis = sub.build_basis(sub.PERMUTATION, layer_map, 4, seed=0)
        with pytest.raises(DomainError):
            dv.check_block_noise_equivalence(basis, 1.0, 100, np.random.default_rng(0))


CANON = acc.BlockBudget(gamma=0.1, lam=1.0, c0=1.0, c1=2.0, q=2.0, eps_renyi=1.0)


class TestTrajectoryBound:
    def test_identical_initial_points_trivially_bounded(self):
        s2, _ = acc.min_noise(CANON)
        rep = dv.check_budget_bound_on_trajectories(CANON, s2, 7, initial_gap=0.0)
        assert rep.passed
        assert rep.numeric < rep.certified

    def test_canonical_spec_at_minimal_noise(self):
        s2, _ = acc.min_noise(CANON)
        rep = dv.check_budget_bound_on_trajectories(CANON, s2, 7)
        assert rep.passed
        assert rep.numeric <= 1.0 + 1e-3
        # integer step counts slightly overshoot the real-valued optimum
        assert rep.numeric == pytest.approx(1.0008143, abs=2e-5)

    def test_make_plan_minimal_noise_plan_meets_budget(self):
        # the plan make_plan takes at CANON's dynamics in minimal-noise mode:
        # 7 steps at more than the minimal noise, and no overshoot
        spec = acc.BudgetSpec(epsilon=1.0 + math.log(2.0), delta=0.5, gamma=0.1,
                              lam=1.0, c1=2.0, c0=1.0, q=2.0)
        plan = acc.make_plan(spec, 1)
        assert plan.budget.eps_renyi == pytest.approx(CANON.eps_renyi, rel=1e-15)
        assert plan.steps_per_block == 7
        assert plan.sigma2 > acc.min_noise(plan.budget)[0]
        rep = dv.check_budget_bound_on_trajectories(plan.budget, plan.sigma2, 7)
        assert rep.passed
        assert rep.closed_form <= plan.budget.eps_renyi * (1 + 1e-12)
        assert rep.numeric == pytest.approx(plan.budget.eps_renyi, abs=2e-5)

    def test_extra_noise_shrinks_divergence(self):
        s2, _ = acc.min_noise(CANON)
        tight = dv.check_budget_bound_on_trajectories(CANON, s2, 7)
        loose = dv.check_budget_bound_on_trajectories(CANON, 2 * s2, 7)
        assert loose.numeric < tight.numeric
        assert loose.passed

    def test_integer_step_pairs_meet_budget_with_equality(self):
        for t in (1, 2, 5, 9):
            s2 = acc.noise_for_steps(t, CANON)
            rep = dv.check_budget_bound_on_trajectories(CANON, s2, t)
            assert rep.passed
            assert rep.numeric == pytest.approx(CANON.eps_renyi, abs=1e-4)

    def test_no_violations_on_random_certified_pairs(self):
        rng = np.random.default_rng(7)
        for budget in random_clip_budgets(rng, 50):
            t = int(rng.integers(1, 12))
            s2 = acc.noise_for_steps(t, budget)
            rep = dv.check_budget_bound_on_trajectories(budget, s2, t)
            assert rep.passed, (budget, t, rep)

    def test_closed_form_matches_numeric(self):
        rng = np.random.default_rng(8)
        for budget in random_clip_budgets(rng, 10):
            t = int(rng.integers(1, 8))
            s2 = 1.5 * acc.noise_for_steps(t, budget)
            rep = dv.check_budget_bound_on_trajectories(budget, s2, t)
            assert rep.numeric == pytest.approx(rep.closed_form, abs=1e-4)

    def test_block_divergence_matches_the_recurrence(self):
        # the closed form against the lab's step-by-step gap and variance
        rng = np.random.default_rng(9)
        for budget in random_clip_budgets(rng, 40):
            t = int(rng.integers(1, 300))
            gap = float(rng.uniform(0.0, 4.0)) * budget.c0
            s2 = float(10.0 ** rng.uniform(-2, 2))
            rep = dv.check_budget_bound_on_trajectories(budget, s2, t, initial_gap=gap)
            assert acc.block_divergence(budget, s2, t, gap) == pytest.approx(
                rep.closed_form, rel=1e-12)
