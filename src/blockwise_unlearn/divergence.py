"""Numeric verification lab for the divergence side of the certificates.

Quadrature-based Renyi divergence between 1-D densities, the closed-form
Gaussian shift term, a Monte-Carlo check that summed per-block noise is
isotropic, and a worst-case 1-D trajectory check that the accounting module's
(sigma^2, T) pairs keep the terminal Renyi divergence within budget.

The shifted-divergence and block-wise transport arguments behind the
certificates are proof devices with no runtime representation; this module
verifies only their computable Gaussian consequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine as eng
from . import subspace as sub
from .accounting import BlockBudget
from .errors import DomainError

DEFAULT_GRID_POINTS = 16384
TAIL_SIGMAS = 10.0


@dataclass(frozen=True)
class Density1D:
    """Density values on a uniform grid; must integrate to 1 within 1e-6.
    `log_values` default to log(values); a closed-form logarithm stays finite
    in tails where `values` underflow to 0."""

    lo: float
    hi: float
    values: np.ndarray
    log_values: np.ndarray | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 1024:
            raise DomainError("density needs >= 1024 grid points")
        if not self.hi > self.lo:
            raise DomainError("empty support interval")
        if np.any(values < 0):
            raise DomainError("negative density values")
        mass = np.trapezoid(values, dx=self.dx)
        if abs(mass - 1.0) > 1e-6:
            raise DomainError(f"density integrates to {mass}, not 1")
        with np.errstate(divide="ignore"):
            log_values = np.log(values) if self.log_values is None else self.log_values
        log_values = np.asarray(log_values, dtype=np.float64)
        if log_values.shape != values.shape:
            raise DomainError("log_values must match values in shape")
        object.__setattr__(self, "log_values", log_values)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def dx(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)


def gaussian_density(
    mean: float, sigma2: float, lo: float, hi: float, n: int = DEFAULT_GRID_POINTS
) -> Density1D:
    if sigma2 <= 0:
        raise DomainError(f"sigma2 must be > 0, got {sigma2}")
    x = np.linspace(lo, hi, n)
    log_values = -((x - mean) ** 2) / (2.0 * sigma2) - 0.5 * math.log(2.0 * math.pi * sigma2)
    return Density1D(lo=lo, hi=hi, values=np.exp(log_values), log_values=log_values)


def gaussian_pair(
    mean_a: float,
    mean_b: float,
    sigma2: float,
    n: int = DEFAULT_GRID_POINTS,
    order: float | None = None,
) -> tuple[Density1D, Density1D]:
    """Two Gaussians with a common grid spanning both means +- 10 sigma.

    When the pair feeds an order-q divergence, pass the order: the integrand
    mu^q nu^(1-q) is a Gaussian centered at the tilted point
    q*mean_a + (1-q)*mean_b, which the grid must also cover.
    """
    sd = math.sqrt(sigma2)
    centers = [mean_a, mean_b]
    if order is not None:
        centers.append(order * mean_a + (1.0 - order) * mean_b)
    lo = min(centers) - TAIL_SIGMAS * sd
    hi = max(centers) + TAIL_SIGMAS * sd
    return (
        gaussian_density(mean_a, sigma2, lo, hi, n),
        gaussian_density(mean_b, sigma2, lo, hi, n),
    )


def renyi_gaussian_shift(q: float, shift: float, sigma2: float) -> float:
    """Closed form D_q(N(shift, s2) || N(0, s2)) = q * shift^2 / (2 s2)."""
    if not q > 1:
        raise DomainError(f"order q must be > 1, got {q}")
    if sigma2 <= 0:
        raise DomainError(f"sigma2 must be > 0, got {sigma2}")
    return q * shift * shift / (2.0 * sigma2)


def numeric_renyi(mu: Density1D, nu: Density1D, q: float) -> float:
    """Trapezoid estimate of D_q(mu || nu) = log( int mu^q nu^(1-q) ) / (q-1).

    Returns +inf when mu has mass where nu vanishes (absolute-continuity
    failure on the grid).  The integrand is built from the log-densities, so
    tails where a density underflows to 0 but its logarithm is finite count.
    """
    if not q > 1:
        raise DomainError(f"order q must be > 1, got {q}")
    if (mu.lo, mu.hi, mu.n) != (nu.lo, nu.hi, nu.n):
        raise DomainError("densities must share the evaluation grid")
    log_p, log_r = mu.log_values, nu.log_values
    active = log_p > -math.inf
    if np.any(active & (log_r == -math.inf)):
        return math.inf
    # log-space trapezoid: integrand mu^q nu^(1-q) can overflow for large q
    log_terms = np.full(log_p.shape, -math.inf)
    log_terms[active] = q * log_p[active] + (1.0 - q) * log_r[active]
    weights = np.full(log_p.shape, mu.dx)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    finite = log_terms > -math.inf
    if not np.any(finite):
        return 0.0
    peak = float(np.max(log_terms[finite]))
    total = float(np.sum(np.exp(log_terms[finite] - peak) * weights[finite]))
    return (peak + math.log(total)) / (q - 1.0)


@dataclass(frozen=True)
class NoiseEquivalenceReport:
    """Whether block-wise noise matches full-vector noise in covariance and KS tests."""

    max_cov_deviation: float
    cov_threshold: float
    ks_pvalues: tuple[float, ...]
    ks_alpha: float
    passed: bool


def check_block_noise_equivalence(
    basis: sub.BlockBasis,
    sigma2: float,
    n_samples: int,
    rng,
    ks_alpha: float = 0.01,
) -> NoiseEquivalenceReport:
    """Monte-Carlo check that summed per-block noise is N(0, sigma2 I_d), each
    block's noise being the draw a noisy step adds, `engine.gaussian_noise`.

    Empirical covariance must stay within 3 standard errors of sigma2 I
    entrywise, and every coordinate must pass a KS test against N(0, sigma).
    """
    if basis.d > 32:
        raise DomainError("covariance estimation is limited to d <= 32")
    if n_samples < 2:
        raise DomainError("need at least 2 samples")
    draws = np.array([
        sum(sub.lift_block(eng.gaussian_noise(n, sigma2, rng), basis, i)
            for i, n in enumerate(basis.sizes))
        for _ in range(n_samples)
    ])
    if sigma2 == 0.0:
        passed = bool(np.all(draws == 0.0))
        return NoiseEquivalenceReport(
            max_cov_deviation=0.0 if passed else float(np.max(np.abs(draws))),
            cov_threshold=0.0,
            ks_pvalues=(),
            ks_alpha=ks_alpha,
            passed=passed,
        )
    cov = draws.T @ draws / n_samples
    dev = float(np.max(np.abs(cov - sigma2 * np.eye(basis.d))))
    threshold = 3.0 * math.sqrt(2.0 / n_samples) * sigma2
    from scipy import stats  # deferred: importing scipy.stats takes about a second

    pvalues = tuple(
        float(stats.kstest(draws[:, j], "norm", args=(0.0, math.sqrt(sigma2))).pvalue)
        for j in range(basis.d)
    )
    passed = bool(dev <= threshold and all(p >= ks_alpha for p in pvalues))
    return NoiseEquivalenceReport(
        max_cov_deviation=dev,
        cov_threshold=threshold,
        ks_pvalues=pvalues,
        ks_alpha=ks_alpha,
        passed=passed,
    )


@dataclass(frozen=True)
class TrajectoryBoundReport:
    """A numeric trajectory divergence against its closed form and certified bound."""

    numeric: float
    closed_form: float
    certified: float
    tolerance: float
    passed: bool


def check_budget_bound_on_trajectories(
    budget: BlockBudget,
    sigma2: float,
    steps: int,
    initial_gap: float | None = None,
    grid_points: int = DEFAULT_GRID_POINTS,
    tolerance: float = 1e-3,
) -> TrajectoryBoundReport:
    """Worst-case coupled 1-D recurrence against the certified Renyi budget.

    Two runs start 2*c0 apart (the worst initial separation) and their
    clipped gradients differ adversarially by 2*c1 every step, so the mean
    gap follows g <- (1-gamma*lam) g + 2*gamma*c1 while both accumulate the
    same Gaussian noise.  The terminal laws are Gaussians with equal
    variance; their numeric Renyi divergence must not exceed eps_renyi plus
    the quadrature tolerance.
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if sigma2 <= 0:
        raise DomainError(f"sigma2 must be > 0, got {sigma2}")
    contraction = 1.0 - budget.gamma * budget.lam
    gap = 2.0 * budget.c0 if initial_gap is None else float(initial_gap)
    variance = 0.0
    for _ in range(steps):
        gap = contraction * gap + 2.0 * budget.gamma * budget.c1
        variance = contraction * contraction * variance + sigma2
    mu, nu = gaussian_pair(gap, 0.0, variance, n=grid_points, order=budget.q)
    numeric = numeric_renyi(mu, nu, budget.q)
    closed = renyi_gaussian_shift(budget.q, gap, variance)
    passed = bool(numeric <= budget.eps_renyi + tolerance)
    return TrajectoryBoundReport(
        numeric=numeric,
        closed_form=closed,
        certified=budget.eps_renyi,
        tolerance=tolerance,
        passed=passed,
    )
