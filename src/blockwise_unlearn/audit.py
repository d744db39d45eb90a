"""Unlearning evaluation: accuracy metrics, membership-inference efficacy,
empirical proximity calibration, and the strongly convex stability bound."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import engine as eng
from . import model as mdl
from .errors import DomainError


@dataclass(frozen=True)
class AuditReport:
    """UA/RA/TA in percent; ua and mia_efficacy are None for an empty forget
    set.  Deltas are signed differences against the retrain baseline."""

    ua: float | None
    ra: float
    ta: float
    mia_efficacy: float | None
    rte_minutes: float | None = None
    ua_delta: float | None = None
    ra_delta: float | None = None
    ta_delta: float | None = None


@dataclass(frozen=True)
class DeltaEstimate:
    """Empirical (1-rho)-quantile of coupled retraining distances."""

    samples: tuple[float, ...]
    rho: float
    delta_rho: float
    n_runs: int


def _fit_logistic(x: np.ndarray, y: np.ndarray, iters: int = 100):
    """Newton-Raphson logistic fit on standardized features; deterministic."""
    from scipy.special import expit  # deferred: importing scipy.special is slow

    mean, std = x.mean(axis=0), x.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    xs = np.column_stack([(x - mean) / std, np.ones(len(x))])
    w = np.zeros(xs.shape[1])
    for _ in range(iters):
        p = expit(xs @ w)
        grad = xs.T @ (p - y) / len(y)
        hess = (xs * (p * (1 - p))[:, None]).T @ xs / len(y)
        hess += 1e-8 * np.eye(xs.shape[1])
        step = np.linalg.solve(hess, grad)
        w = w - step
        if np.max(np.abs(step)) < 1e-10:
            break
    return mean, std, w


def _predict_member(mean, std, w, x: np.ndarray) -> np.ndarray:
    xs = np.column_stack([(x - mean) / std, np.ones(len(x))])
    return (xs @ w) > 0.0


def _attack_features(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row (max softmax probability, cross-entropy loss) features of
    (classes, rows) logits, each reduction taken over the class axis."""
    log_probs = mdl.log_softmax(logits)
    max_prob = np.exp(np.maximum.reduce(log_probs, axis=0))
    ce = -log_probs.take(mdl.label_entries(log_probs, labels))
    return np.column_stack([max_prob, ce])


def _attack(member_x: np.ndarray, non_member_x: np.ndarray, forget_x: np.ndarray) -> float:
    """Percent of the forget rows that an attacker fitted on balanced member
    and non-member features calls non-members."""
    x = np.vstack([member_x, non_member_x])
    y = np.concatenate([np.ones(len(member_x)), np.zeros(len(non_member_x))])
    mean, std, w = _fit_logistic(x, y)
    predicted_member = _predict_member(mean, std, w, forget_x)
    return 100.0 * int(np.sum(~predicted_member)) / len(forget_x)


def _score(params, retain, forget, test, seed):
    """(RA, TA, UA, MIA efficacy) of one model from one scoring pass over the
    retain, test and forget rows; UA and MIA efficacy are None for an empty
    forget set."""
    n_retain, n_test, n_forget = len(retain[1]), len(test[1]), len(forget[1])
    sets = [retain, test, forget] if n_forget else [retain, test]
    scorer = mdl.Scorer(params.layer_map, sets)
    logits = scorer.logits(params)
    counts = scorer.count(logits)
    # rounded as 100 * accuracy, the count over the rows rounded first
    ra = 100.0 * (counts[0] / n_retain)
    ta = 100.0 * (counts[1] / n_test)
    if not n_forget:
        return ra, ta, None, None
    ua = 100.0 * (1.0 - counts[2] / n_forget)
    rng = np.random.default_rng(seed)
    n_attack = min(n_retain, n_test)
    member_rows = rng.permutation(n_retain)[:n_attack]
    non_member_rows = rng.permutation(n_test)[:n_attack]
    retain_y, test_y, forget_y = (np.asarray(y, dtype=np.int64) for _, y in sets)
    # `take` gathers C-ordered columns; `logits[:, rows]` would return them
    # F-ordered, and a reduction over their classes then runs once per row
    mia = _attack(
        _attack_features(logits.take(member_rows, axis=1), retain_y[member_rows]),
        _attack_features(logits.take(n_retain + non_member_rows, axis=1),
                         test_y[non_member_rows]),
        _attack_features(logits[:, n_retain + n_test :], forget_y),
    )
    return ra, ta, ua, mia


def mia_efficacy(
    params: mdl.ParamVector,
    retain: tuple[np.ndarray, np.ndarray],
    forget: tuple[np.ndarray, np.ndarray],
    heldout_test: tuple[np.ndarray, np.ndarray],
    seed: int = 0,
) -> float | None:
    """Fraction (percent) of forget rows an attacker calls non-members.

    The attacker is a logistic threshold on confidence features of the
    audited model, trained on a balanced member/non-member split built from
    the retained rows and a held-out test set (which must be disjoint from
    the forget rows: that is the caller's contract).  Returns None when the
    forget set is empty.
    """
    if len(forget[1]) == 0:
        return None
    if len(retain[1]) == 0 or len(heldout_test[1]) == 0:
        raise DomainError("attacker training needs retained and held-out rows")
    return _score(params, retain, forget, heldout_test, seed)[3]


def compute_metrics(
    params: mdl.ParamVector,
    retain: tuple[np.ndarray, np.ndarray],
    forget: tuple[np.ndarray, np.ndarray],
    test: tuple[np.ndarray, np.ndarray],
    retrain_params: mdl.ParamVector | None = None,
    rte_minutes: float | None = None,
    mia_seed: int = 0,
) -> AuditReport:
    """Accuracy metrics plus attacker efficacy, optionally relative to the
    retrain baseline, from one scoring pass over the model's rows.  UA is
    100 * (1 - accuracy on the forget rows)."""
    ra, ta, ua, mia = _score(params, retain, forget, test, mia_seed)
    report = AuditReport(ua=ua, ra=ra, ta=ta, mia_efficacy=mia, rte_minutes=rte_minutes)
    if retrain_params is None:
        return report
    base = compute_metrics(retrain_params, retain, forget, test, mia_seed=mia_seed)
    return against_baseline(report, base)


def against_baseline(report: AuditReport, base: AuditReport) -> AuditReport:
    """`report` with its deltas against the retrain baseline's report `base`,
    so one audit of the retrain model serves every cell of a seed."""
    ua_delta = None
    if report.ua is not None and base.ua is not None:
        ua_delta = report.ua - base.ua
    return replace(
        report, ua_delta=ua_delta, ra_delta=report.ra - base.ra, ta_delta=report.ta - base.ta
    )


def estimate_delta(
    arch: mdl.MlpSpec,
    data,
    perturbation_frac: float,
    n_runs: int,
    rho: float,
    seeds: eng.Seeds,
    train_config: eng.TrainConfig,
) -> DeltaEstimate:
    """Calibrate the proximity radius by coupled retraining on perturbed data.

    Each run replaces a seeded random fraction of the rows with other rows of
    the dataset (resampled with replacement from the untouched remainder) and
    retrains under the same coupled seeds; the reported radius is the
    conservative ceil((1-rho) n)-th order statistic of the distances.
    """
    if n_runs < 2:
        raise DomainError(f"need at least 2 runs, got {n_runs}")
    if not 0 < rho <= 1:
        raise DomainError(f"rho must be in (0,1], got {rho}")
    if not 0 <= perturbation_frac < 1:
        raise DomainError(f"perturbation_frac must be in [0,1), got {perturbation_frac}")
    if n_runs < math.ceil(1.0 / rho):
        warnings.warn(
            f"n_runs={n_runs} is small for rho={rho}; the quantile is vacuous",
            stacklevel=2,
        )
    inputs, labels = data.inputs, data.labels
    n = len(labels)
    base = eng.train(arch, (inputs, labels), seeds, train_config)
    samples = []
    for j in range(n_runs):
        rng = np.random.default_rng((seeds.noise, j))
        n_swap = int(np.floor(perturbation_frac * n))
        swapped_inputs, swapped_labels = inputs.copy(), labels.copy()
        if n_swap > 0:
            target = rng.permutation(n)[:n_swap]
            keep = np.setdiff1d(np.arange(n), target)
            source = keep[rng.integers(0, len(keep), size=n_swap)]
            swapped_inputs[target] = inputs[source]
            swapped_labels[target] = labels[source]
        perturbed = eng.train(arch, (swapped_inputs, swapped_labels), seeds, train_config)
        samples.append(mdl.vector_norm(base.values - perturbed.values))
    samples.sort()
    order = max(1, math.ceil((1.0 - rho) * n_runs))
    return DeltaEstimate(
        samples=tuple(samples), rho=rho, delta_rho=samples[order - 1], n_runs=n_runs
    )


def stability_bound(
    alpha: float, gamma_sc: float, lipschitz: float, differing_steps, total_steps: int
) -> float:
    """Closed-form deviation bound 2*alpha*L * sum_{k in B} (1-alpha*gamma)^k.

    Indices in `differing_steps` count backward from the final iterate: index
    0 is the last update, so a difference there contributes with no
    contraction applied.  The smoothness condition alpha <= 1/beta is the
    caller's responsibility.
    """
    if alpha <= 0 or gamma_sc <= 0 or lipschitz < 0:
        raise DomainError("alpha, gamma_sc must be > 0 and lipschitz >= 0")
    if alpha * gamma_sc >= 1:
        raise DomainError(f"alpha*gamma_sc must be < 1, got {alpha * gamma_sc}")
    b = sorted(set(int(k) for k in differing_steps))
    if b and (b[0] < 0 or b[-1] >= total_steps):
        raise DomainError("differing step index outside [0, total_steps)")
    contraction = 1.0 - alpha * gamma_sc
    return 2.0 * alpha * lipschitz * math.fsum(contraction**k for k in b)
