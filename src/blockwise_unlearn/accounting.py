"""Closed-form privacy accounting for noisy fine-tuning.

Scalar arithmetic: conversion between Renyi and (eps, delta) budgets, the
per-block Renyi divergence in closed form and the noise sigma^2(T) it
certifies, its infimum, the root-solver inverse T(sigma^2), and the per-block
composition used by the block-wise schedule.

All logarithms are natural.  All functions are pure: the same inputs always
produce bit-identical outputs.
"""

from __future__ import annotations

import decimal
import math
import numbers
import sys
from dataclasses import dataclass
from decimal import Decimal

from .errors import DomainError, InfeasibleBudget, InfeasibleNoise

CLIP_DOMINANT = "ClipDominant"
DECAY_DOMINANT = "DecayDominant"

# Tolerance, in units of 1 + u, under which the discriminant of the
# step-count quadratic is treated as exactly zero at the clip-dominant double
# root (see largest_feasible_x).  Rounding of sigma2 and of the bound leaves
# at most about 2 ulps there; genuinely infeasible inputs (e.g.
# 0.999 * sigma2_min) land at -1e-3 and below.
_DISC_TOL = 16 * sys.float_info.epsilon

# Relative slack when rounding the real-valued step count up to an integer,
# so that inverting sigma^2(T) back to T survives floating-point jitter.
_STEP_SNAP = 1e-6


def _check_dynamics(gamma: float, lam: float, c0: float, c1: float) -> None:
    """The update-dynamics premises shared by a budget and each of its blocks."""
    for name, value in (("gamma", gamma), ("lam", lam), ("c0", c0), ("c1", c1)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if not gamma > 0:
        raise DomainError(f"gamma must be > 0, got {gamma}")
    if not lam >= 0:
        raise DomainError(f"lam must be >= 0, got {lam}")
    if gamma * lam >= 1:
        raise DomainError(f"gamma*lam must be < 1, got {gamma * lam}")
    if not (c0 > 0 and c1 > 0):
        raise DomainError(f"c0 and c1 must be > 0, got c0={c0}, c1={c1}")


def _check_order(q: float) -> None:
    if not 1 < q < math.inf:
        raise DomainError(f"q must be finite and > 1, got {q}")


@dataclass(frozen=True)
class BudgetSpec:
    """Unlearning budget and update-dynamics constants.

    epsilon/delta are the total indistinguishability budget.  gamma is the
    unlearning learning rate, lam the weight-decay coefficient, c1 the
    gradient clipping radius, and c0 the initial-distance radius: an assumed
    bound, ||w_trained - w_retrained|| <= 2*c0, between the trained and the
    coupled retrained models (c0 = delta_rho/2 for a proximity bound
    delta_rho).  It is a premise of the certificate, not enforced: no code
    clips a model.  q is the Renyi order; None means "optimize".
    """

    epsilon: float
    delta: float
    gamma: float
    lam: float
    c1: float
    c0: float
    q: float | None = None

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < math.inf:
            raise DomainError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise DomainError(f"delta must be in (0,1), got {self.delta}")
        _check_dynamics(self.gamma, self.lam, self.c0, self.c1)
        if self.q is not None:
            _check_order(self.q)


@dataclass(frozen=True)
class BlockBudget:
    """Update-dynamics constants plus the Renyi allowance for one block.

    With k = 1 this describes the plain (non-block) schedule.
    """

    gamma: float
    lam: float
    c0: float
    c1: float
    q: float
    eps_renyi: float

    def __post_init__(self) -> None:
        _check_dynamics(self.gamma, self.lam, self.c0, self.c1)
        _check_order(self.q)
        if not 0 < self.eps_renyi < math.inf:
            raise DomainError(f"eps_renyi must be finite and > 0, got {self.eps_renyi}")

    @property
    def ratio(self) -> float:
        """lam * c0 / c1, the quantity that selects the regime."""
        return self.lam * self.c0 / self.c1


@dataclass(frozen=True)
class NoisePlan:
    """Accounting output for a k-block unlearning run.

    Equal-size splitting gives all k blocks the same budget, so sigma2 and
    steps_per_block apply to every block.  The budget invariant is
    k * budget.eps_renyi + ln(1/delta)/(budget.q - 1) == epsilon.
    """

    budget: BlockBudget
    k: int
    sigma2: float
    steps_per_block: int
    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        for name, value in (("k", self.k), ("steps_per_block", self.steps_per_block)):
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise DomainError(f"{name} must be an integer >= 1, got {value!r}")
        if not 0 <= self.sigma2 < math.inf:
            raise DomainError(f"sigma2 must be finite and >= 0, got {self.sigma2}")

    @property
    def total_steps(self) -> int:
        return self.k * self.steps_per_block

    @property
    def regime(self) -> str:
        """The regime of min_noise at the plan's block budget."""
        return CLIP_DOMINANT if self.budget.ratio < 1.0 else DECAY_DOMINANT

    def to_dict(self) -> dict:
        """The plan as manifests and `cli plan` write it, under flat keys."""
        b = self.budget
        return {
            "sigma2": self.sigma2,
            "steps_per_block": self.steps_per_block,
            "total_steps": self.total_steps,
            "q_used": b.q,
            "eps_renyi_per_block": [b.eps_renyi] * self.k,
            "c0_per_block": b.c0,
            "c1_per_block": b.c1,
            "regime": self.regime,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "gamma": b.gamma,
            "lam": b.lam,
        }


def rdp_to_dp(eps_renyi: float, q: float, delta: float) -> float:
    """Convert a Renyi budget at order q into a total (eps, delta) epsilon."""
    if not q > 1:
        raise DomainError(f"Renyi order q must be > 1, got {q}")
    if not 0 < delta <= 1:
        raise DomainError(f"delta must be in (0,1], got {delta}")
    if eps_renyi < 0:
        raise DomainError(f"eps_renyi must be >= 0, got {eps_renyi}")
    return eps_renyi + math.log(1.0 / delta) / (q - 1.0)


def dp_to_rdp(epsilon: float, q: float, delta: float) -> float:
    """Renyi budget that remains at order q after the (eps, delta) conversion.

    Raises InfeasibleBudget when ln(1/delta)/(q-1) already exceeds epsilon,
    i.e. the chosen order is too small for the target budget.
    """
    if not q > 1:
        raise DomainError(f"Renyi order q must be > 1, got {q}")
    if not 0 < delta <= 1:
        raise DomainError(f"delta must be in (0,1], got {delta}")
    eps_renyi = epsilon - math.log(1.0 / delta) / (q - 1.0)
    if eps_renyi <= 0:
        raise InfeasibleBudget(
            f"order q={q} leaves no Renyi budget for epsilon={epsilon}, delta={delta}"
        )
    return eps_renyi


def optimize_q(epsilon: float, delta: float) -> float:
    """Renyi order minimizing q / eps_renyi(q), the noise-variance prefactor.

    Closed form: with L = ln(1/delta), the stationarity condition
    epsilon*(q-1)^2 = L*(2q-1) gives q* = ((eps+L) + sqrt(L*(eps+L))) / eps,
    which always satisfies the feasibility constraint q* > 1 + L/eps.
    """
    if not epsilon > 0:
        raise DomainError(f"epsilon must be > 0, got {epsilon}")
    if not 0 < delta < 1:
        raise DomainError(f"delta must be in (0,1), got {delta}")
    big_l = math.log(1.0 / delta)
    return ((epsilon + big_l) + math.sqrt(big_l * (epsilon + big_l))) / epsilon


def _prefactor(budget: BlockBudget) -> float:
    return budget.gamma * (2.0 - budget.gamma * budget.lam) * (
        2.0 * budget.q / budget.eps_renyi
    )


def min_noise(budget: BlockBudget) -> tuple[float, str]:
    """Smallest certified per-coordinate noise variance and its regime.

    In the clip-dominant regime (lam*c0/c1 < 1) the value is attained at a
    finite step count.  In the decay-dominant regime (>= 1) it is a strict
    infimum: a finite run needs strictly more noise.
    """
    prefactor = _prefactor(budget)
    r = budget.ratio
    if r < 1.0:
        return prefactor * (2.0 - r) * budget.c0 * budget.c1, CLIP_DOMINANT
    if budget.lam == 0:
        raise DomainError("decay-dominant bound undefined for lam == 0")
    return prefactor * budget.c1**2 / budget.lam, DECAY_DOMINANT


def _require_contraction(budget: BlockBudget) -> None:
    if not budget.gamma * budget.lam > 0:
        raise DomainError(
            "step-count accounting needs gamma*lam > 0 in floating point (no contraction)"
        )


def largest_feasible_x(sigma2: float, budget: BlockBudget) -> float:
    """Largest root in (0, 1] of the certification quadratic.

    The quadratic is block_divergence(gap=2*c0) == eps_renyi in
    x = (1-gamma*lam)^T: u (1 - z x)^2 = 1 - x^2, with u = sigma2_dec/sigma2
    (sigma2_dec the decay-dominant bound of min_noise) and z = 1 - lam*c0/c1.
    Its largest root is the contraction level reached by the fewest certified
    steps, and its discriminant is D = (1 - u) + u z^2.  1 - u comes from one exact
    subtraction and each root formula below adds terms of one sign, so roots
    far below sqrt(ulp) survive.  Raises InfeasibleNoise when no root lies in
    (0, 1] (noise below the certified threshold, or at the strict
    decay-dominant bound, where the root degenerates to x = 0).
    """
    _require_contraction(budget)
    if not sigma2 > 0:
        raise DomainError(f"sigma2 must be > 0, got {sigma2}")
    sigma2_dec = _prefactor(budget) * budget.c1**2 / budget.lam
    excess = (sigma2 - sigma2_dec) / sigma2  # 1 - u
    u = sigma2_dec / sigma2
    z = 1.0 - budget.ratio
    disc = excess + u * z * z
    if z > 0.0 and abs(disc) <= _DISC_TOL * (1.0 + u):
        disc = 0.0  # the double root at the clip-dominant minimal noise
    if disc < 0.0:
        raise InfeasibleNoise(
            f"sigma2={sigma2} is below the certified threshold (disc={disc:.3e})"
        )
    if z > 0.0:
        x = (u * z + math.sqrt(disc)) / (u * z * z + 1.0)
    elif excess > 0.0:
        x = excess / (math.sqrt(disc) - u * z)
    else:
        x = 0.0  # at or below the decay-dominant bound
    if not x > 0.0:
        raise InfeasibleNoise(
            f"sigma2={sigma2} admits no finite step count (root at x={x:.3e})"
        )
    return min(x, 1.0)


def steps_real(sigma2: float, budget: BlockBudget) -> float:
    """Real-valued step count ln(x_max)/ln(1-gamma*lam) for the given noise."""
    x = largest_feasible_x(sigma2, budget)
    return math.log(x) / math.log(1.0 - budget.gamma * budget.lam)


def steps_for_noise(sigma2: float, budget: BlockBudget) -> int:
    """Certified step count for a noise variance: ceil of the real count, >= 1.

    Near-integer real counts (within 1e-6 relative) are snapped rather than
    ceiled so that steps_for_noise(noise_for_steps(T)) == T holds under
    floating point.
    """
    t = steps_real(sigma2, budget)
    nearest = round(t)
    if abs(t - nearest) <= _STEP_SNAP * max(1.0, abs(nearest)):
        t_int = int(nearest)
    else:
        t_int = math.ceil(t)
    return max(t_int, 1)


def block_divergence(budget: BlockBudget, sigma2: float, steps: int, gap: float) -> float:
    """Renyi divergence D_q = q g_T^2 / (2 V_T) of one block after `steps` noisy
    steps from an initial gap `gap`: with x = (1-gamma*lam)^T, the gap is
    g_T = x*gap + 2*c1*(1-x)/lam and V_T = sigma2 (1-x^2)/(gamma*lam (2-gamma*lam)).
    Decimal arithmetic to 40 digits past the leading zeros of gamma*lam keeps 20
    correct digits of each intermediate, so the float returned is the nearest to D_q."""
    return float(_divergence(budget, sigma2, steps, gap))


def _divergence(budget: BlockBudget, sigma2: float, steps: int, gap: float) -> Decimal:
    _require_contraction(budget)
    if steps < 1 or not 0 < sigma2 < math.inf or not 0 <= gap < math.inf:
        raise DomainError(f"need steps >= 1, finite sigma2 > 0 and finite gap >= 0: "
                          f"{steps}, {sigma2}, {gap}")
    gamma, lam = Decimal(budget.gamma), Decimal(budget.lam)
    digits = 40 + max(0, -gamma.adjusted() - lam.adjusted())
    with decimal.localcontext(decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_EVEN)):
        a = gamma * lam
        x = (steps * (1 - a).ln()).exp()
        g_t = x * Decimal(gap) + 2 * Decimal(budget.c1) * (1 - x) / lam
        return Decimal(budget.q) * g_t * g_t * a * (2 - a) / (2 * Decimal(sigma2) * (1 - x * x))


def noise_for_steps(steps: int, budget: BlockBudget) -> float:
    """Smallest noise variance certifying exactly `steps` update steps.

    D_q scales as 1/sigma2, so sigma2(T) = D_q(sigma2=1, gap=2*c0) / eps_renyi.
    block_divergence is within u = 2^-53 (plus 1e-20) relative of D_q, and the
    division and the product with 1 + 4u add u each, so the result lies above
    the exact value and within about 7u of it.
    """
    d_q = block_divergence(budget, 1.0, steps, 2.0 * budget.c0)
    return d_q / budget.eps_renyi * (1.0 + 4 * 2.0**-53)


def min_noise_steps(budget: BlockBudget) -> int:
    """The integer step count needing the least noise.  sigma2(T) falls until
    (1-gamma*lam)^T reaches 1 - lam*c0/c1, at T* = ln(1-lam*c0/c1)/ln(1-gamma*lam),
    then rises: the least is at floor(T*) or ceil(T*), at least 1, compared
    before rounding, the fewer on a tie.  Decay-dominant budgets have none."""
    _require_contraction(budget)
    if not budget.ratio < 1.0:
        raise InfeasibleNoise(f"lam*c0/c1 = {budget.ratio}: no step count attains min_noise")
    t_star = math.log1p(-budget.ratio) / math.log1p(-budget.gamma * budget.lam)
    if t_star == math.inf:
        raise InfeasibleNoise(f"the least-noise step count T* overflows: gamma*lam = "
                              f"{budget.gamma * budget.lam}, lam*c0/c1 = {budget.ratio}")
    candidates = sorted({max(1, math.floor(t_star)), max(1, math.ceil(t_star))})
    return min(candidates, key=lambda t: _divergence(budget, 1.0, t, 2.0 * budget.c0))


def split_budget(
    eps_renyi_total: float,
    q: float,
    delta: float,
    k: int,
    c0: float,
    c1: float,
    scale_c0: bool = True,
) -> tuple[tuple[float, ...], float, float]:
    """Equal per-block Renyi budgets and sqrt(k)-scaled clipping radii.

    Returns (eps_renyi_per_block, c0_per_block, c1_per_block).  scale_c0=False
    keeps the initial-distance radius global (the block schedule is silent on
    it; scaling both radii is the default).
    """
    if k <= 0:
        raise DomainError(f"k must be >= 1, got {k}")
    if not q > 1:
        raise DomainError(f"Renyi order q must be > 1, got {q}")
    if not 0 < delta < 1:
        raise DomainError(f"delta must be in (0,1), got {delta}")
    per_block = tuple([eps_renyi_total / k] * k)
    root_k = math.sqrt(k)
    return per_block, (c0 / root_k if scale_c0 else c0), c1 / root_k


def make_plan(spec: BudgetSpec, k: int, steps: int | None = None,
              scale_c0: bool = True) -> NoisePlan:
    """Complete accounting plan for a k-block run.

    steps=None selects the minimal-noise point, the step count of
    min_noise_steps; an integer fixes the per-block step count.  Either way
    sigma2 = noise_for_steps(steps) and the composition invariant
    k * eps_renyi + ln(1/delta)/(q-1) == epsilon holds.
    """
    q = spec.q if spec.q is not None else optimize_q(spec.epsilon, spec.delta)
    eps_renyi_total = dp_to_rdp(spec.epsilon, q, spec.delta)
    per_block, c0_b, c1_b = split_budget(
        eps_renyi_total, q, spec.delta, k, spec.c0, spec.c1, scale_c0=scale_c0
    )
    budget = BlockBudget(gamma=spec.gamma, lam=spec.lam, c0=c0_b, c1=c1_b, q=q,
                         eps_renyi=per_block[0])
    t = min_noise_steps(budget) if steps is None else int(steps)
    sigma2 = noise_for_steps(t, budget)
    return NoisePlan(budget=budget, k=k, sigma2=sigma2, steps_per_block=t,
                     epsilon=spec.epsilon, delta=spec.delta)
