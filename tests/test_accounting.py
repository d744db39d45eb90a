import dataclasses
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blockwise_unlearn import accounting as acc
from blockwise_unlearn import harness
from blockwise_unlearn.errors import (
    DomainError, InfeasibleBudget, InfeasibleNoise, UnlearnError,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def scan_feasible(sigma2, budget, n=200_001):
    """Dense x-grid feasibility oracle built from the raw certification
    inequality, independent of the quadratic machinery:

        (2 c0 x + 2 c1 (1-x)/lam)^2 <= (2 er sigma2 / q) (1-x^2) zeta

    for some x in (0, 1].  The grid includes z = 1 - lam*c0/c1, where the
    inequality is tightest in the clip-dominant regime.
    """
    cb2 = 2.0 * budget.eps_renyi * sigma2 / budget.q
    zeta = 1.0 / (1.0 - (1.0 - budget.gamma * budget.lam) ** 2)
    x = np.linspace(1e-9, 1.0, n)
    z = 1.0 - budget.lam * budget.c0 / budget.c1
    if 0.0 < z < 1.0:
        x = np.append(x, z)
    lhs = (2 * budget.c0 * x + 2 * budget.c1 * (1 - x) / budget.lam) ** 2
    rhs = cb2 * (1 - x * x) * zeta
    return bool(np.any(lhs <= rhs))


def disc_sign(sigma2, budget):
    """Sign of the step-count quadratic's discriminant, recomputed from
    scratch (not via the accounting module)."""
    cb2 = 2.0 * budget.eps_renyi * sigma2 / budget.q
    zeta = 1.0 / (1.0 - (1.0 - budget.gamma * budget.lam) ** 2)
    b0sq = 4.0 * budget.c1**2 / (budget.lam**2 * cb2)
    b1sq = b0sq * (budget.lam * budget.c0 / budget.c1 - 1.0) ** 2
    return zeta + b1sq - b0sq


def min_noise_by_bisection(budget, iters=200):
    lo, hi = 1e-12, 1e12
    assert disc_sign(lo, budget) < 0 and disc_sign(hi, budget) > 0
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if disc_sign(mid, budget) >= 0:
            hi = mid
        else:
            lo = mid
    return hi


def exact_divergence(b, sigma2, t, gap):
    """D_q in rational arithmetic, exact at the float inputs."""
    gamma, lam, c1 = Fraction(b.gamma), Fraction(b.lam), Fraction(b.c1)
    a = gamma * lam
    x = (1 - a) ** t
    g = x * Fraction(gap) + 2 * c1 * (1 - x) / lam
    return Fraction(b.q) * g * g * a * (2 - a) / (2 * Fraction(sigma2) * (1 - x * x))


def exact_noise(b, t):
    """sigma^2(T) = D_q(sigma2=1, gap=2*c0) / eps_renyi, exact."""
    return exact_divergence(b, 1.0, t, 2.0 * b.c0) / Fraction(b.eps_renyi)


def exact_argmin_steps(b, t_max):
    """The T in 1..t_max with the least exact sigma^2(T), the first on a tie.

    sigma^2(T) is a positive constant times (lam c0 x + c1 (1-x))^2 / (1-x^2);
    with x = (1 - gamma lam)^T = P/Q and the two coefficients scaled to
    integers that is (A P + B (Q-P))^2 / (Q^2 - P^2), compared across T by
    integer cross-multiplication.
    """
    step = 1 - Fraction(b.gamma) * Fraction(b.lam)
    head, tail = Fraction(b.lam) * Fraction(b.c0), Fraction(b.c1)
    a_int = head.numerator * tail.denominator
    b_int = tail.numerator * head.denominator
    p = q = 1
    best = None
    for t in range(1, t_max + 1):
        p, q = p * step.numerator, q * step.denominator
        num, den = (a_int * p + b_int * (q - p)) ** 2, q * q - p * p
        if best is None or num * best[2] < best[1] * den:
            best = (t, num, den)
    return best[0]


def grid_search_q(epsilon, delta, step=1e-3, hi=500.0):
    qs = np.arange(1.0 + step, hi + step, step)
    big_l = math.log(1.0 / delta)
    er = epsilon - big_l / (qs - 1.0)
    obj = np.where(er > 0, qs / np.maximum(er, 1e-300), np.inf)
    return float(qs[int(np.argmin(obj))])


def random_clip_budgets(rng, n):
    out = []
    while len(out) < n:
        gamma = 10.0 ** rng.uniform(-4, -0.5)
        gl = rng.uniform(1e-3, 0.9)
        lam = gl / gamma
        c1 = 10.0 ** rng.uniform(-1, 2)
        ratio = rng.uniform(0.02, 0.95)
        c0 = ratio * c1 / lam
        q = rng.uniform(1.5, 50.0)
        er = 10.0 ** rng.uniform(-1.5, 0.8)
        out.append(acc.BlockBudget(gamma=gamma, lam=lam, c0=c0, c1=c1, q=q, eps_renyi=er))
    return out


CANON = acc.BlockBudget(gamma=0.1, lam=1.0, c0=1.0, c1=2.0, q=2.0, eps_renyi=1.0)


@st.composite
def block_budgets(draw):
    """A block budget over wide ranges, ratio lam*c0/c1 exactly 1 about half
    the time."""
    gamma_lam = draw(st.floats(1e-3, 0.999))
    gamma = 10.0 ** draw(st.floats(-3.0, 0.0))
    lam = gamma_lam / gamma
    c0 = 10.0 ** draw(st.floats(-2.0, 2.0))
    ratio = draw(st.one_of(st.just(1.0), st.floats(0.05, 20.0)))
    return acc.BlockBudget(
        gamma=gamma, lam=lam, c0=c0, c1=lam * c0 / ratio,
        q=draw(st.floats(1.1, 100.0)), eps_renyi=10.0 ** draw(st.floats(-3.0, 1.0)),
    )


@st.composite
def clip_dominant_specs(draw):
    """A budget with gamma*lam in [1e-4, 0.99] whose blocks are clip-dominant,
    with T* = ln(1 - lam*c0/c1)/ln(1 - gamma*lam) drawn up to 300."""
    gamma_lam = draw(st.floats(1e-4, 0.99))
    gamma = 10.0 ** draw(st.floats(-3.0, 0.0))
    lam = gamma_lam / gamma
    t_star = draw(st.floats(0.05, 300.0))
    ratio = min(-math.expm1(t_star * math.log1p(-gamma_lam)), 1.0 - 1e-9)
    c1 = 10.0 ** draw(st.floats(-2.0, 2.0))
    return acc.BudgetSpec(
        epsilon=draw(st.floats(0.1, 10.0)), delta=10.0 ** draw(st.floats(-10.0, -2.0)),
        gamma=gamma, lam=lam, c1=c1, c0=ratio * c1 / lam,
    )


@st.composite
def plans_and_gap_splits(draw):
    """A make_plan plan with lam*c0/c1 in [0.01, 3], gamma*lam in [1e-4, 0.99],
    k in 1..32 and T in 1..300 or, where lam*c0/c1 < 1, the minimal-noise T;
    and per-block gaps g_i >= 0 scaled so that sum(g_i^2) = 4 c0^2, with c0
    the radius before the sqrt(k) split (as floats, within a few ulp)."""
    gamma_lam = draw(st.floats(1e-4, 0.99))
    gamma = 10.0 ** draw(st.floats(-3.0, 0.0))
    lam = gamma_lam / gamma
    ratio = draw(st.floats(0.01, 3.0))
    c1 = 10.0 ** draw(st.floats(-2.0, 2.0))
    spec = acc.BudgetSpec(
        epsilon=draw(st.floats(0.1, 10.0)), delta=10.0 ** draw(st.floats(-10.0, -2.0)),
        gamma=gamma, lam=lam, c1=c1, c0=ratio * c1 / lam,
    )
    k = draw(st.integers(1, 32))
    fixed = st.integers(1, 300)
    steps = draw(st.one_of(st.none(), fixed) if ratio < 1 - 1e-9 else fixed)
    weights = draw(st.lists(st.floats(0.0, 1.0, allow_subnormal=False),
                            min_size=k, max_size=k).filter(any))
    norm = math.hypot(*weights)
    return acc.make_plan(spec, k, steps=steps), spec.c0, [2 * spec.c0 * (w / norm)
                                                           for w in weights]


@st.composite
def budgets_and_steps(draw):
    """A block budget from block_budgets and a step count T with
    (1 - gamma*lam)^T > 1e-12."""
    b = draw(block_budgets())
    t_max = math.floor(math.log(1e-12) / math.log(1.0 - b.gamma * b.lam))
    return b, draw(st.integers(1, max(t_max, 1)))


def resolves_steps(b, t):
    """Whether a float64 sigma2(T) pins T within the 1e-6 T snap of
    steps_for_noise: over that many steps sigma2 must move by more than
    16 ulps, or its rounding alone carries the real step count past the snap.
    d ln sigma2 / dT follows from sigma2 = g K (1 - z x)^2 / (1 - x^2)."""
    x = (1.0 - b.gamma * b.lam) ** t
    z = 1.0 - b.ratio
    slope = abs(2 * x * x / (1 - x * x) - 2 * z * x / (1 - z * x)) * abs(
        math.log1p(-b.gamma * b.lam))
    return slope * 1e-6 * t >= 16 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

class TestConversions:
    @pytest.mark.parametrize(
        "er,q,delta,expected,tol",
        [
            (0.510, 24.50, 1e-5, 1.000, 1e-3),
            (2.725, 6.06, 1e-5, 5.000, 2e-3),
        ],
    )
    def test_rdp_to_dp_reference_values(self, er, q, delta, expected, tol):
        assert acc.rdp_to_dp(er, q, delta) == pytest.approx(expected, abs=tol)

    def test_rdp_to_dp_delta_one(self):
        assert acc.rdp_to_dp(0.7, 3.3, 1.0) == 0.7

    def test_rdp_to_dp_domain(self):
        with pytest.raises(DomainError):
            acc.rdp_to_dp(0.5, 1.0, 1e-5)
        with pytest.raises(DomainError):
            acc.rdp_to_dp(0.5, 2.0, 0.0)
        with pytest.raises(DomainError):
            acc.rdp_to_dp(0.5, 2.0, 1.5)

    @pytest.mark.parametrize(
        "eps,q,delta,expected,tol",
        [
            (3.0, 9.10, 1e-5, 1.579, 2e-3),
            (10.0, 2.77, 1e-3, 6.101, 5e-3),
        ],
    )
    def test_dp_to_rdp_reference_values(self, eps, q, delta, expected, tol):
        assert acc.dp_to_rdp(eps, q, delta) == pytest.approx(expected, abs=tol)

    def test_dp_to_rdp_delta_one(self):
        assert acc.dp_to_rdp(1.0, 2.0, 1.0) == 1.0

    def test_dp_to_rdp_infeasible(self):
        # ln(1e5) / (2 - 1) > 3, leaving no Renyi budget
        with pytest.raises(InfeasibleBudget):
            acc.dp_to_rdp(3.0, 2.0, 1e-5)

    def test_round_trip(self):
        er = acc.dp_to_rdp(2.5, 8.0, 1e-4)
        assert acc.rdp_to_dp(er, 8.0, 1e-4) == pytest.approx(2.5, rel=1e-15)


class TestOptimizeQ:
    @pytest.mark.parametrize(
        "eps,delta,expected",
        [(1.0, 1e-5, 24.50), (5.0, 1e-5, 6.06), (3.0, 1e-5, 9.10), (10.0, 1e-3, 2.77)],
    )
    def test_reference_orders(self, eps, delta, expected):
        assert acc.optimize_q(eps, delta) == pytest.approx(expected, abs=0.1)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            eps = 10.0 ** rng.uniform(-1, 1.3)
            delta = 10.0 ** rng.uniform(-8, -1)
            q_closed = acc.optimize_q(eps, delta)
            q_grid = grid_search_q(eps, delta)
            assert abs(q_closed - q_grid) <= 0.05, (eps, delta)

    def test_leaves_positive_budget(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            eps = 10.0 ** rng.uniform(-1, 1.3)
            delta = 10.0 ** rng.uniform(-8, -1)
            q = acc.optimize_q(eps, delta)
            assert acc.dp_to_rdp(eps, q, delta) > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            acc.optimize_q(1.0, 1.0)
        with pytest.raises(DomainError):
            acc.optimize_q(0.0, 1e-5)


# ---------------------------------------------------------------------------
# minimal noise
# ---------------------------------------------------------------------------

class TestMinNoise:
    def test_clip_dominant_example(self):
        sigma2, regime = acc.min_noise(CANON)
        assert regime == acc.CLIP_DOMINANT
        assert sigma2 == pytest.approx(0.1 * 1.9 * 4 * 1.5 * 2, rel=1e-12)
        assert sigma2 == pytest.approx(min_noise_by_bisection(CANON), rel=1e-9)

    def test_decay_dominant_example(self):
        b = acc.BlockBudget(gamma=0.1, lam=2.0, c0=2.0, c1=2.0, q=2.0, eps_renyi=1.0)
        sigma2, regime = acc.min_noise(b)
        assert regime == acc.DECAY_DOMINANT
        assert sigma2 == pytest.approx(0.1 * 1.8 * 4 * 2, rel=1e-12)
        # the bound is strict: no finite step count exists at the bound itself
        assert not scan_feasible(sigma2, b)
        assert scan_feasible(sigma2 * 1.01, b)

    def test_regime_boundary_continuity(self):
        # as lam*c0/c1 -> 1 both branch formulas coincide (lam*c0 == c1)
        b_clip = acc.BlockBudget(gamma=0.05, lam=2.0, c0=0.9999999 / 2.0, c1=1.0,
                                 q=3.0, eps_renyi=0.7)
        b_decay = acc.BlockBudget(gamma=0.05, lam=2.0, c0=1.0000001 / 2.0, c1=1.0,
                                  q=3.0, eps_renyi=0.7)
        s_clip, _ = acc.min_noise(b_clip)
        s_decay, _ = acc.min_noise(b_decay)
        assert s_clip == pytest.approx(s_decay, rel=1e-5)

    # Moving c1 by n ulps moves (2 - ratio)*c0*c1 and c1^2 by at most 2n eps
    # relative; each side rounds at most 4 c-dependent operations (the
    # prefactor is the same bits on both), 2 eps more per side.  At n <= 4
    # that is 12 eps; the test allows 16.  n >= 2 keeps lam*c0/c1 a
    # representable step away from 1.
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(block_budgets(), st.integers(2, 4))
    def test_continuous_at_ratio_one(self, b, n):
        at_one = dataclasses.replace(b, c1=b.lam * b.c0)
        assert at_one.ratio == 1.0
        sigma2, regime = acc.min_noise(at_one)
        assert regime == acc.DECAY_DOMINANT
        for direction, expected in ((math.inf, acc.CLIP_DOMINANT),
                                    (0.0, acc.DECAY_DOMINANT)):
            c1 = at_one.c1
            for _ in range(n):
                c1 = math.nextafter(c1, direction)
            near, near_regime = acc.min_noise(dataclasses.replace(at_one, c1=c1))
            assert near_regime == expected
            assert abs(near - sigma2) <= 16 * sys.float_info.epsilon * sigma2

    def test_matches_bisection_on_random_specs(self):
        rng = np.random.default_rng(11)
        for b in random_clip_budgets(rng, 100):
            sigma2, regime = acc.min_noise(b)
            assert regime == acc.CLIP_DOMINANT
            assert sigma2 == pytest.approx(min_noise_by_bisection(b), rel=1e-9)

    def test_scan_shows_root_above_not_below(self):
        rng = np.random.default_rng(12)
        for b in random_clip_budgets(rng, 100):
            sigma2, _ = acc.min_noise(b)
            assert scan_feasible(sigma2 * 1.000001, b)
            assert not scan_feasible(sigma2 * 0.999, b)


# ---------------------------------------------------------------------------
# step counts and noise inversion
# ---------------------------------------------------------------------------

class TestSteps:
    def test_steps_at_minimal_noise(self):
        sigma2, _ = acc.min_noise(CANON)
        assert acc.largest_feasible_x(sigma2, CANON) == pytest.approx(0.5, rel=1e-12)
        t_real = acc.steps_real(sigma2, CANON)
        assert t_real == pytest.approx(math.log(0.5) / math.log(0.9), rel=1e-9)
        assert acc.steps_for_noise(sigma2, CANON) == 7

    def test_huge_noise_needs_one_step(self):
        sigma2, _ = acc.min_noise(CANON)
        assert acc.steps_for_noise(1e9 * sigma2, CANON) == 1

    def test_below_threshold_infeasible(self):
        sigma2, _ = acc.min_noise(CANON)
        with pytest.raises(InfeasibleNoise):
            acc.steps_for_noise(0.999 * sigma2, CANON)

    def test_decay_bound_is_strict(self):
        b = acc.BlockBudget(gamma=0.1, lam=2.0, c0=2.0, c1=2.0, q=2.0, eps_renyi=1.0)
        bound, _ = acc.min_noise(b)
        with pytest.raises(InfeasibleNoise):
            acc.steps_for_noise(bound, b)
        assert acc.steps_for_noise(bound * 1.05, b) >= 1

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(block_budgets(), st.floats(-6.0, 6.0), st.floats(-6.0, 6.0))
    def test_non_increasing_in_noise(self, b, a1, a2):
        # any two noises above the certified threshold, 1e-6 to 1e6 relative
        sigma2_min, _ = acc.min_noise(b)
        lo, hi = sorted(sigma2_min * (1.0 + 10.0**a) for a in (a1, a2))
        assert acc.steps_for_noise(hi, b) <= acc.steps_for_noise(lo, b)

    def test_real_step_formula_on_random_specs(self):
        rng = np.random.default_rng(13)
        for b in random_clip_budgets(rng, 100):
            sigma2, _ = acc.min_noise(b)
            expected = math.log(1.0 - b.ratio) / math.log(1.0 - b.gamma * b.lam)
            assert acc.steps_real(sigma2, b) == pytest.approx(expected, rel=1e-6)


class TestNoiseForSteps:
    def test_recovers_minimal_noise(self):
        sigma2_min, _ = acc.min_noise(CANON)
        # T* = ln(0.5)/ln(0.9) is not an integer; at the exact contraction
        # level x = 0.5 the inversion must return sigma2_min
        x = 1.0 - CANON.ratio
        t_star = math.log(x) / math.log(1.0 - CANON.gamma * CANON.lam)
        # integer steps bracket the optimum and both need more noise
        below = acc.noise_for_steps(math.floor(t_star), CANON)
        above = acc.noise_for_steps(math.ceil(t_star), CANON)
        assert below >= sigma2_min and above >= sigma2_min

    def test_round_trip_at_canonical_instance(self):
        for t in range(1, 25):
            sigma2 = acc.noise_for_steps(t, CANON)
            assert acc.steps_for_noise(sigma2, CANON) <= t

    def test_round_trip_random_specs(self):
        rng = np.random.default_rng(14)
        for b in random_clip_budgets(rng, 100):
            t = int(rng.integers(1, 30))
            sigma2 = acc.noise_for_steps(t, b)
            assert acc.steps_for_noise(sigma2, b) <= t

    @pytest.mark.parametrize("t", [19, 25])
    def test_round_trip_at_ratio_one(self, t):
        # at lam*c0/c1 = 1 the root is x = sqrt(1 - sigma2_inf/sigma2); these
        # noises lie within 1e-11 of the bound, where a discriminant tolerance
        # once erased the root
        b = acc.BlockBudget(gamma=0.5, lam=1.0, c0=1.0, c1=1.0, q=2.0, eps_renyi=1.0)
        assert acc.steps_for_noise(acc.noise_for_steps(t, b), b) == t

    def test_round_trip_one_ulp_below_ratio_one(self):
        # clip-dominant with z = 1 - lam*c0/c1 ~ 1e-16: the double root sits
        # at x ~ z, so snapping a genuine root x ~ 1e-6 onto it lost T
        b = acc.BlockBudget(gamma=1.0, lam=0.75, c0=1.0, c1=0.7500000000000001,
                            q=2.0, eps_renyi=1.0)
        assert 0.0 < 1.0 - b.ratio < 1e-15
        assert acc.steps_for_noise(acc.noise_for_steps(10, b), b) == 10

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(budgets_and_steps())
    def test_round_trip_property(self, budget_and_steps):
        # noise above the bound always keeps a root; where float64 resolves T,
        # the monotone branch (T <= T*) gives T back and beyond T* the fewest
        # steps for that noise are at most T
        b, t = budget_and_steps
        sigma2 = acc.noise_for_steps(t, b)
        sigma2_min, _ = acc.min_noise(b)
        if b.ratio >= 1.0 and sigma2 <= sigma2_min:
            with pytest.raises(InfeasibleNoise):
                acc.steps_for_noise(sigma2, b)
            return
        steps = acc.steps_for_noise(sigma2, b)
        if not resolves_steps(b, t):
            return
        # the minimal noise sits at x = 1 - lam*c0/c1 in the clip-dominant regime
        t_star = (math.log(1.0 - b.ratio) / math.log1p(-b.gamma * b.lam)
                  if b.ratio < 1.0 else math.inf)
        if t <= t_star:
            assert steps == t
        else:
            assert steps <= t

    def test_monotone_on_feasible_branch(self):
        # the branch where extra steps never cost extra noise is
        # T <= T* = steps_real(sigma2_min); beyond it the per-step drift
        # charge dominates and the required noise grows again
        rng = np.random.default_rng(15)
        checked = 0
        for b in random_clip_budgets(rng, 1500):
            sigma2_min, _ = acc.min_noise(b)
            t_star = acc.steps_real(sigma2_min, b)
            if t_star < 2:
                continue
            ts = range(1, math.floor(t_star) + 1)
            noises = [acc.noise_for_steps(t, b) for t in ts]
            assert all(hi >= lo - 1e-12 * hi for hi, lo in zip(noises, noises[1:]))
            checked += 1
            if checked >= 100:
                break
        assert checked >= 100

    def test_large_step_limit_is_decay_bound(self):
        # as T grows the required noise approaches c1^2/lam scaling from below
        limit = (
            CANON.gamma * (2 - CANON.gamma * CANON.lam)
            * (2 * CANON.q / CANON.eps_renyi) * CANON.c1**2 / CANON.lam
        )
        s2 = acc.noise_for_steps(50, CANON)
        assert s2 < limit
        assert s2 == pytest.approx(limit, rel=2e-2)
        assert acc.noise_for_steps(200, CANON) == pytest.approx(limit, rel=1e-8)

    def test_lam_zero_rejected(self):
        b = acc.BlockBudget(gamma=0.1, lam=0.0, c0=1.0, c1=2.0, q=2.0, eps_renyi=1.0)
        with pytest.raises(DomainError):
            acc.noise_for_steps(2, b)
        with pytest.raises(DomainError):
            acc.steps_for_noise(1.0, b)

    def test_min_noise_allows_lam_zero(self):
        b = acc.BlockBudget(gamma=0.1, lam=0.0, c0=1.0, c1=2.0, q=2.0, eps_renyi=1.0)
        sigma2, regime = acc.min_noise(b)
        assert regime == acc.CLIP_DOMINANT
        assert sigma2 == pytest.approx(0.1 * 2.0 * 4.0 * 2.0 * 2.0, rel=1e-12)


class TestClosedForm:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(budgets_and_steps(), st.floats(0.0, 10.0), st.floats(-3.0, 3.0))
    def test_block_divergence_is_the_nearest_float(self, budget_and_steps, gap_c0, log_s2):
        b, t = budget_and_steps
        sigma2, gap = 10.0**log_s2, gap_c0 * b.c0
        got = acc.block_divergence(b, sigma2, t, gap)
        exact = exact_divergence(b, sigma2, t, gap)
        assert abs(Fraction(got) - exact) <= Fraction(math.ulp(got)) / 2

    # Every plan, in both modes, at or above the exact sigma^2(T) of its step
    # count and within 8u (u = 2^-53) of it; every minimal-noise step count the
    # integer that needs the least exact noise.
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(clip_dominant_specs(), st.sampled_from([1, 2, 4, 10, 32]),
           st.one_of(st.none(), st.integers(1, 300)))
    def test_plans_meet_the_exact_noise(self, spec, k, steps):
        plan = acc.make_plan(spec, k, steps=steps)
        b, t = plan.budget, plan.steps_per_block
        exact = exact_noise(b, t)
        assert exact <= Fraction(plan.sigma2) <= exact * (1 + Fraction(8, 2**53))
        if steps is None:
            t_star = math.log1p(-b.ratio) / math.log1p(-b.gamma * b.lam)
            assert t == exact_argmin_steps(b, math.ceil(t_star) + 1)

    def test_noise_is_the_divergence_inverse(self):
        for t in (1, 2, 7, 50):
            sigma2 = acc.noise_for_steps(t, CANON)
            d_q = acc.block_divergence(CANON, sigma2, t, 2.0 * CANON.c0)
            assert d_q <= CANON.eps_renyi
            assert d_q == pytest.approx(CANON.eps_renyi, rel=1e-15)

    def test_contractions_beyond_float_range(self):
        # (1 - 0.9)^400 underflows a float; the plan must not
        spec = acc.BudgetSpec(epsilon=1.0, delta=1e-5, gamma=0.9, lam=1.0, c1=1.0, c0=0.025)
        plan = acc.make_plan(spec, 1, steps=400)
        assert math.isfinite(plan.sigma2)
        assert plan.sigma2 >= acc.min_noise(plan.budget)[0]
        # 1 - gamma*lam rounds to 1.0 at gamma*lam = 1e-17; the closed form holds
        slow = dataclasses.replace(spec, gamma=1e-9, lam=1e-8, c0=1e7)
        plan = acc.make_plan(slow, 1, steps=2)
        exact = exact_noise(plan.budget, 2)
        assert exact <= Fraction(plan.sigma2) <= exact * (1 + Fraction(8, 2**53))
        # a product gamma*lam that underflows to 0 contracts nothing
        with pytest.raises(DomainError):
            acc.make_plan(dataclasses.replace(slow, gamma=1e-200, lam=1e-200), 1, steps=2)

    @pytest.mark.parametrize("steps,sigma2,gap", [(0, 1.0, 1.0), (2, 0.0, 1.0),
                                                  (2, float("nan"), 1.0), (2, 1.0, -1.0)])
    def test_block_divergence_domain(self, steps, sigma2, gap):
        with pytest.raises(DomainError):
            acc.block_divergence(CANON, sigma2, steps, gap)

    def test_min_noise_steps_at_canonical_instance(self):
        # T* = ln(0.5)/ln(0.9) = 6.58; the minimal noise itself needs x = 0.5
        assert acc.min_noise_steps(CANON) == 7
        one_step = dataclasses.replace(CANON, c0=0.1)  # T* = ln(0.95)/ln(0.9) < 1
        assert acc.min_noise_steps(one_step) == 1
        with pytest.raises(InfeasibleNoise):
            acc.min_noise_steps(dataclasses.replace(CANON, c0=2.0))


# ---------------------------------------------------------------------------
# budget splitting and plans
# ---------------------------------------------------------------------------

class TestSplitBudget:
    def test_two_block_reference(self):
        per_block, _, c1_b = acc.split_budget(0.510, 24.5, 1e-5, 2, 0.005, 100.0)
        assert per_block == (0.255, 0.255)
        assert c1_b == pytest.approx(70.71, abs=0.01)

    def test_four_block_reference(self):
        per_block, _, c1_b = acc.split_budget(2.725, 6.06, 1e-5, 4, 0.005, 55.0)
        assert per_block[0] == pytest.approx(0.681, abs=1e-3)
        assert c1_b == pytest.approx(27.500, abs=1e-3)

    def test_identity_at_k1(self):
        per_block, c0_b, c1_b = acc.split_budget(0.7, 5.0, 1e-5, 1, 0.3, 2.0)
        assert per_block == (0.7,)
        assert c0_b == 0.3 and c1_b == 2.0

    def test_recomposition_exact(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            eps = 10.0 ** rng.uniform(-1, 1)
            delta = 10.0 ** rng.uniform(-8, -1)
            q = rng.uniform(1.5, 60)
            k = int(rng.integers(1, 14))
            try:
                er = acc.dp_to_rdp(eps, q, delta)
            except InfeasibleBudget:
                continue
            per_block, _, _ = acc.split_budget(er, q, delta, k, 1.0, 1.0)
            total = acc.rdp_to_dp(math.fsum(per_block), q, delta)
            assert total == pytest.approx(eps, abs=1e-12)

    def test_c0_scaling_switch(self):
        _, c0_scaled, _ = acc.split_budget(1.0, 3.0, 1e-5, 4, 0.8, 2.0)
        _, c0_kept, _ = acc.split_budget(1.0, 3.0, 1e-5, 4, 0.8, 2.0, scale_c0=False)
        assert c0_scaled == pytest.approx(0.4)
        assert c0_kept == 0.8

    def test_bad_k(self):
        with pytest.raises(DomainError):
            acc.split_budget(1.0, 3.0, 1e-5, 0, 1.0, 1.0)

    # The composed certificate of a k-block plan is sum_i D_q(g_i) over the
    # blocks' shares g_i of the initial gap; the basis is orthonormal, so
    # sum(g_i^2) = ||gap||^2 <= 4 c0^2.  D_q grows as (x g + b)^2 with b >= 0,
    # so at a fixed sum(g_i^2) the sum is largest at the equal split
    # g_i = 2 c0/sqrt(k) = 2 c0_per_block, which the plan's noise certifies.
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(plans_and_gap_splits())
    def test_sqrt_k_split_certifies_every_split_of_the_gap(self, plan_and_gaps):
        plan, c0, gaps = plan_and_gaps
        b, t = plan.budget, plan.steps_per_block
        bound = plan.k * b.eps_renyi
        total = math.fsum(acc.block_divergence(b, plan.sigma2, t, g) for g in gaps)
        # Drawn as floats, sum(g_i^2) may round above 4 c0^2 (at k = 2, gaps
        # one ulp above 2 c0_per_block went one ulp over the budget).  Gaps s
        # times a split of the sphere need at most s^2 times its divergence.
        overshoot = max(1, sum(Fraction(g) ** 2 for g in gaps) / (4 * Fraction(c0) ** 2))
        assert Fraction(total) <= Fraction(bound) * overshoot
        equal = math.fsum([acc.block_divergence(b, plan.sigma2, t, 2 * b.c0)] * plan.k)
        assert bound * (1 - 1e-14) <= equal <= bound


class TestMakePlan:
    MNIST_LIKE = acc.BudgetSpec(
        epsilon=1.0, delta=1e-5, gamma=1e-4, lam=10.0, c1=100.0, c0=0.005
    )

    def test_reference_fixed_steps_plan(self):
        plan = acc.make_plan(self.MNIST_LIKE, k=2, steps=2)
        assert plan.budget.q == pytest.approx(24.5, abs=0.1)
        assert plan.budget.eps_renyi == pytest.approx(0.255, abs=1e-3)
        assert plan.steps_per_block == 2
        assert plan.total_steps == 4
        assert plan.regime == acc.CLIP_DOMINANT

    def test_classwise_reference_budget(self):
        spec = acc.BudgetSpec(
            epsilon=10.0, delta=1e-3, gamma=1e-3, lam=3.0, c1=55.0, c0=0.025
        )
        plan = acc.make_plan(spec, k=4, steps=2)
        assert plan.budget.q == pytest.approx(2.77, abs=0.05)
        assert plan.k * plan.budget.eps_renyi == pytest.approx(6.101, abs=5e-3)

    def test_k1_min_noise_reduces_to_baseline(self):
        spec = acc.BudgetSpec(
            epsilon=2.0, delta=1e-4, gamma=0.1, lam=1.0, c1=2.0, c0=1.0, q=8.0
        )
        plan = acc.make_plan(spec, k=1)
        b = acc.BlockBudget(gamma=0.1, lam=1.0, c0=1.0, c1=2.0, q=8.0,
                            eps_renyi=acc.dp_to_rdp(2.0, 8.0, 1e-4))
        sigma2, regime = acc.min_noise(b)
        assert plan.budget == b
        assert plan.regime == regime
        # T* = ln(0.5)/ln(0.9) = 6.58: of its integer neighbours 7 needs less
        # noise, and any integer step count needs more than the infimum
        assert acc.min_noise_steps(b) == plan.steps_per_block == 7
        assert plan.sigma2 == acc.noise_for_steps(7, b)
        assert sigma2 < plan.sigma2 < acc.noise_for_steps(6, b)

    def test_budget_invariant(self):
        for k in (1, 2, 5, 13):
            plan = acc.make_plan(self.MNIST_LIKE, k=k, steps=2)
            total = acc.rdp_to_dp(
                math.fsum(plan.to_dict()["eps_renyi_per_block"]), plan.budget.q, plan.delta
            )
            assert total == pytest.approx(plan.epsilon, abs=1e-9)
            floor, _ = acc.min_noise(plan.budget)
            assert plan.sigma2 >= floor * (1 - 1e-12)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        epsilon=st.floats(1e-2, 1e2),
        delta=st.floats(1e-15, 0.5),
        q=st.one_of(st.none(), st.floats(1.001, 1e3)),
        k=st.integers(1, 1000),
        steps=st.one_of(st.none(), st.integers(1, 100)),
        gamma_lam=st.floats(1e-3, 0.999),
        gamma=st.floats(1e-4, 1.0),
        c1=st.floats(1e-2, 1e2),
        ratio=st.floats(0.05, 20.0),
        scale_c0=st.booleans(),
    )
    def test_composition_identity_property(
        self, epsilon, delta, q, k, steps, gamma_lam, gamma, c1, ratio, scale_c0,
    ):
        lam = gamma_lam / gamma
        spec = acc.BudgetSpec(epsilon=epsilon, delta=delta, gamma=gamma, lam=lam,
                              c1=c1, c0=ratio * c1 / lam, q=q)
        try:
            plan = acc.make_plan(spec, k, steps=steps, scale_c0=scale_c0)
        except InfeasibleBudget:
            assert q is not None  # only a fixed q can be too small
            return
        except InfeasibleNoise:
            # the minimal noise is an infimum no finite step count reaches once
            # decay dominates: lam*c0/c1 >= 1 per block
            block_ratio = ratio if scale_c0 else ratio * math.sqrt(k)
            assert steps is None and block_ratio >= 1 - 1e-12
            return
        eps_renyi_per_block = plan.to_dict()["eps_renyi_per_block"]
        assert plan.k == len(eps_renyi_per_block) == k
        total = math.fsum(eps_renyi_per_block) + math.log(1.0 / delta) / (plan.budget.q - 1)
        # ln(1/delta)/(q-1) is the same float here as in the plan; the
        # subtraction from epsilon, the split into k equal shares, their sum
        # and the addition above each move the total by at most an ulp of epsilon
        assert abs(total - epsilon) <= 4 * math.ulp(epsilon)

    def test_sigma2_independent_of_k(self):
        # sqrt(k) radius scaling and 1/k budget splitting cancel exactly
        plans = [acc.make_plan(self.MNIST_LIKE, k=k, steps=2) for k in (1, 2, 4, 10)]
        for p in plans[1:]:
            assert p.sigma2 == pytest.approx(plans[0].sigma2, rel=1e-12)

    def test_deterministic(self):
        a = acc.make_plan(self.MNIST_LIKE, k=3, steps=2)
        b = acc.make_plan(self.MNIST_LIKE, k=3, steps=2)
        assert a == b
        assert a.to_dict() == b.to_dict()

    def test_min_noise_mode_decay_dominant_propagates(self):
        spec = acc.BudgetSpec(
            epsilon=2.0, delta=1e-4, gamma=0.1, lam=2.0, c1=2.0, c0=2.0, q=8.0
        )
        with pytest.raises(InfeasibleNoise):
            acc.make_plan(spec, k=1)

    def test_plan_sigma2_documented_against_published_tables(self):
        # The published runs report sigma2 = 0.0980 for this configuration,
        # but the tables do not pin down the radius convention or whether the
        # value was derived per block; both conventions computed here land
        # elsewhere (~0.030 with c0 = half the proximity bound, ~0.043 with
        # the full bound), so this records the reproduction gap instead of
        # asserting the published number.
        half = acc.make_plan(self.MNIST_LIKE, k=2, steps=2)
        full = acc.make_plan(
            acc.BudgetSpec(epsilon=1.0, delta=1e-5, gamma=1e-4, lam=10.0,
                           c1=100.0, c0=0.01),
            k=2, steps=2,
        )
        assert half.sigma2 == pytest.approx(0.0300, abs=2e-4)
        assert full.sigma2 == pytest.approx(0.0432, abs=2e-4)
        assert 0.0 < half.sigma2 < full.sigma2 < 0.0980


class TestPlanBytes:
    """The plans of the shipped configs' budget, pinned byte for byte as
    manifests and `cli plan` write them (perfbench's checks read their keys).
    plan_bytes.json was written when sigma2(T) became the rounded-up closed
    form and every minimal-noise plan a fixed-step plan at min_noise_steps."""

    EXPECTED = json.loads((Path(__file__).parent / "plan_bytes.json").read_text())

    @pytest.mark.parametrize("name", ["blobs_random10", "blobs_classwise"])
    @pytest.mark.parametrize("k", [1, 4, 10])
    @pytest.mark.parametrize("mode", ["steps", "min-noise"])
    @pytest.mark.parametrize("scale_c0", [True, False])
    def test_to_dict_bytes(self, name, k, mode, scale_c0):
        root = Path(__file__).resolve().parents[1]
        config = harness.load_config(root / "configs" / f"{name}.json")
        (epsilon, delta), = config.budgets
        steps = int(config.unlearn["steps"]) if mode == "steps" else None
        plan = acc.make_plan(harness.budget_spec(config, epsilon, delta), k,
                             steps=steps, scale_c0=scale_c0)
        key = f"{name} k={k} {mode} scale_c0={str(scale_c0).lower()}"
        assert json.dumps(plan.to_dict(), sort_keys=True) == self.EXPECTED[key]


class TestDomainGuards:
    @pytest.mark.parametrize("field,value", [
        ("k", 0), ("k", 1.0), ("steps_per_block", -3), ("steps_per_block", 0),
        ("sigma2", float("nan")), ("sigma2", -1e-9), ("sigma2", float("inf")),
        ("sigma2", float("-inf")),
    ])
    def test_plan_fields_checked(self, field, value):
        plan = acc.make_plan(TestMakePlan.MNIST_LIKE, k=2, steps=2)
        with pytest.raises(DomainError, match=field):
            dataclasses.replace(plan, **{field: value})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("field", ["gamma", "lam", "c0", "c1", "q", "eps_renyi"])
    def test_block_budget_premises_must_be_finite(self, field, value):
        good = dict(gamma=0.1, lam=1.0, c0=1.0, c1=2.0, q=2.0, eps_renyi=1.0)
        with pytest.raises(DomainError, match=field):
            acc.BlockBudget(**{**good, field: value})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("field", ["epsilon", "delta", "gamma", "lam", "c0", "c1", "q"])
    def test_budget_spec_premises_must_be_finite(self, field, value):
        good = dict(epsilon=1.0, delta=1e-5, gamma=0.1, lam=1.0, c1=2.0, c0=1.0, q=8.0)
        with pytest.raises(DomainError, match=field):
            acc.BudgetSpec(**{**good, field: value})

    def test_initial_gap_that_overflows_is_a_domain_error(self):
        # 2*c0 is inf above half the largest float; at 10^7 steps x underflows
        # to 0 in Decimal, and 0 * inf was an InvalidOperation
        b = acc.BlockBudget(gamma=0.5, lam=1.0, c0=1.7e308, c1=1.0, q=2.0, eps_renyi=1.0)
        with pytest.raises(DomainError, match="gap"):
            acc.noise_for_steps(10**7, b)

    @pytest.mark.parametrize("epsilon, delta, derived", [
        (1e308, 1e-5, "Renyi order q = inf"),  # big_l * (epsilon + big_l) overflows
        (4e-216, 0.5, "sigma2 = inf"),  # q is about 3.4e215, and sigma2 overflows
    ])
    def test_budget_past_the_floats_names_epsilon(self, epsilon, delta, derived):
        spec = acc.BudgetSpec(epsilon=epsilon, delta=delta, gamma=0.1, lam=1.0,
                              c1=2.0, c0=1.0)
        named = re.escape(f"epsilon = {epsilon} with delta = {delta} leaves the float range")
        with pytest.raises(DomainError, match=f"^{named}.*{derived}"):
            acc.make_plan(spec, k=2)

    def test_least_noise_step_count_past_the_floats_is_infeasible(self):
        # T* = ln(1 - lam*c0/c1) / ln(1 - gamma*lam) = -23 / -5e-324 is inf,
        # which math.floor raised OverflowError on
        b = acc.BlockBudget(gamma=5e-324, lam=1.0, c0=0.9999999999, c1=1.0, q=2.0,
                            eps_renyi=1.0)
        with pytest.raises(InfeasibleNoise, match="T\\* overflows"):
            acc.min_noise_steps(b)

    def test_noise_free_plan_allowed(self):
        plan = acc.make_plan(TestMakePlan.MNIST_LIKE, k=2, steps=2)
        assert dataclasses.replace(plan, sigma2=0.0).sigma2 == 0.0

    def test_contraction_violation_rejected(self):
        with pytest.raises(DomainError):
            acc.BlockBudget(gamma=0.5, lam=2.5, c0=1.0, c1=2.0, q=2.0, eps_renyi=1.0)
        with pytest.raises(DomainError):
            acc.BudgetSpec(epsilon=1.0, delta=1e-5, gamma=0.5, lam=2.5, c1=2.0, c0=1.0)

    @pytest.mark.parametrize("lam", [float("nan"), -0.5])
    def test_lam_below_zero_or_nan_rejected(self, lam):
        # NaN compares false with everything, so it must fail `lam >= 0`
        with pytest.raises(DomainError, match="lam"):
            acc.BlockBudget(gamma=0.1, lam=lam, c0=1.0, c1=2.0, q=2.0, eps_renyi=1.0)
        with pytest.raises(DomainError, match="lam"):
            acc.BudgetSpec(epsilon=1.0, delta=1e-5, gamma=0.1, lam=lam, c1=2.0, c0=1.0)


def premise_floats(lo, hi):
    """Floats of a premise: mostly in [lo, hi], where plans build, and
    otherwise anywhere on the float line, NaN and the infinities included."""
    return st.one_of(st.floats(lo, hi), st.floats(allow_nan=True, allow_infinity=True))


class TestPremisesOverTheFloatLine:
    # two raw exceptions it exposed: a 2*c0 that overflows, at a step count
    # where x underflows to 0 in Decimal, and a T* past the largest float
    @example(gamma=0.5, lam=1.0, c0=1.7e308, c1=1.0, q=None, epsilon=1.0, delta=1e-5,
             k=1, steps=10**7)
    @example(gamma=5e-324, lam=1.0, c0=0.9999999999, c1=1.0, q=None, epsilon=1.0,
             delta=1e-5, k=1, steps=None)
    @settings(max_examples=1000, derandomize=True, deadline=None)
    @given(
        gamma=premise_floats(1e-4, 1.0), lam=premise_floats(1e-3, 10.0),
        c0=premise_floats(1e-3, 10.0), c1=premise_floats(1e-2, 100.0),
        q=st.one_of(st.none(), premise_floats(1.001, 100.0)),
        epsilon=premise_floats(1e-2, 100.0), delta=premise_floats(1e-12, 0.5),
        k=st.integers(1, 64), steps=st.one_of(st.none(), st.integers(1, 10**6)),
    )
    def test_make_plan_is_finite_or_a_typed_error(
        self, gamma, lam, c0, c1, q, epsilon, delta, k, steps,
    ):
        premises = [gamma, lam, c0, c1, epsilon, delta] + ([] if q is None else [q])
        try:
            plan = acc.make_plan(acc.BudgetSpec(epsilon=epsilon, delta=delta, gamma=gamma,
                                                lam=lam, c1=c1, c0=c0, q=q), k, steps=steps)
        except UnlearnError as exc:
            assert isinstance(exc, DomainError) or all(map(math.isfinite, premises))
            return
        assert all(map(math.isfinite, premises))
        assert 0 <= plan.sigma2 < math.inf


class TestPurity:
    def test_bit_identical_outputs(self):
        rng = np.random.default_rng(17)
        for b in random_clip_budgets(rng, 20):
            assert acc.min_noise(b) == acc.min_noise(b)
            s2 = acc.noise_for_steps(3, b)
            assert s2 == acc.noise_for_steps(3, b)
            assert acc.steps_for_noise(s2 * 1.5, b) == acc.steps_for_noise(s2 * 1.5, b)
