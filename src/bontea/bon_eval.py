"""Exact empirical best-of-N quantities and the evaluation protocol.

Treating a finite reward pool as an empirical distribution gives closed forms
for the expected best-of-N maximum and each sample's marginal contribution to
it (the oracle advantage). The evaluation half implements grouped best-of-N
curves over stored samples (consecutive partitions), the paired prompt
bootstrap, the win/tie/loss rule, and the gradient-alignment cosine
diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, InputError

#: Paired bootstrap defaults: percentile 95% interval from 1000 resamples.
DEFAULT_RESAMPLES = 1000
#: Win/tie/loss tie tolerance on per-prompt differences.
DEFAULT_TIE_TOL = 1e-9


@dataclass(frozen=True)
class EmpiricalPool:
    """A reward pool with its distinct values and cumulative probabilities."""

    values: np.ndarray
    sorted_unique: np.ndarray
    cum_prob: np.ndarray

    @classmethod
    def from_values(cls, values: np.ndarray | list[float]) -> EmpiricalPool:
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise InputError("pool values must be a nonempty 1-d array")
        if not np.all(np.isfinite(values)):
            raise InputError("pool values must be finite")
        unique, counts = np.unique(values, return_counts=True)
        return cls(values=values, sorted_unique=unique, cum_prob=counts.cumsum() / values.size)


@dataclass(frozen=True)
class BonCurve:
    """Grouped best-of-N means per budget, overall and per prompt."""

    n_values: tuple[int, ...]
    means: np.ndarray
    per_prompt: np.ndarray


def expected_max(pool: EmpiricalPool, n: int) -> float:
    """E[max of n iid draws from the pool]: sum_v v (F(v)^n - F(v-)^n)."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    cdf = pool.cum_prob
    cdf_prev = np.concatenate([[0.0], cdf[:-1]])
    return float(pool.sorted_unique @ (cdf**n - cdf_prev**n))


def oracle_advantage(pool: EmpiricalPool, n: int) -> np.ndarray:
    """A*(r_i) = E[max(r_i, M_{n-1})] - E[M_n] for every pool element.

    M_{n-1} is the maximum of n-1 fresh pool draws (vacuous for n = 1, where
    the advantage reduces to r_i minus the pool mean). Exact via CDF powers.
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    unique = pool.sorted_unique
    cdf = pool.cum_prob
    cdf_prev = np.concatenate([[0.0], cdf[:-1]])
    pow_nm1 = cdf ** (n - 1)
    pow_nm1_prev = cdf_prev ** (n - 1)
    # E[max(r, M_{n-1})] = r F(r)^{n-1} + sum_{v > r} v (F(v)^{n-1} - F(v-)^{n-1})
    mass_above = unique * (pow_nm1 - pow_nm1_prev)
    suffix = np.concatenate([np.cumsum(mass_above[::-1])[::-1][1:], [0.0]])
    per_unique = unique * pow_nm1 + suffix - expected_max(pool, n)
    return per_unique[np.searchsorted(unique, pool.values)]


def grouped_bon_curve(per_prompt_samples: np.ndarray, budgets: list[int] | tuple[int, ...]) -> BonCurve:
    """Grouped best-of-N means: consecutive groups of n, maxima averaged.

    ``per_prompt_samples`` is (prompts, M); every budget must divide M. The
    partition follows stored arrival order with no shuffling.
    """
    samples = np.asarray(per_prompt_samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[None, :]
    n_prompts, m_total = samples.shape
    budgets = tuple(int(n) for n in budgets)
    for n in budgets:
        if n < 1 or m_total % n != 0:
            raise InputError(f"budget {n} must divide the per-prompt sample count {m_total}")
    per_prompt = np.empty((n_prompts, len(budgets)))
    for col, n in enumerate(budgets):
        maxima = samples.reshape(n_prompts, m_total // n, n).max(axis=2)
        per_prompt[:, col] = maxima.mean(axis=1)
    return BonCurve(n_values=budgets, means=per_prompt.mean(axis=0), per_prompt=per_prompt)


def paired_bootstrap_delta(
    per_prompt_a: np.ndarray,
    per_prompt_b: np.ndarray,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> tuple[float, float, float]:
    """Mean per-prompt difference with a percentile 95% bootstrap interval.

    Resamples prompts with replacement (paired), keeping the a/b pairing; the
    interval is the (2.5, 97.5) percentile of resampled mean differences.
    """
    a = np.asarray(per_prompt_a, dtype=float)
    b = np.asarray(per_prompt_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise InputError("paired inputs must be equal-length 1-d arrays with >= 2 prompts")
    diff = a - b
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, diff.size, size=(resamples, diff.size))
    resampled = diff[idx].mean(axis=1)
    lo, hi = np.percentile(resampled, [2.5, 97.5])
    return float(diff.mean()), float(lo), float(hi)


def win_tie_loss(
    a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TIE_TOL
) -> tuple[float, float, float]:
    """Per-prompt win/tie/loss percentages of a versus b with a tie tolerance."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise InputError("win/tie/loss inputs must be equal-length nonempty 1-d arrays")
    diff = a - b
    wins = int((diff > tol).sum())
    losses = int((diff < -tol).sum())
    ties = diff.size - wins - losses
    scale = 100.0 / diff.size
    return wins * scale, ties * scale, losses * scale


def gradient_alignment(
    advantages: np.ndarray,
    scores: np.ndarray,
    oracle: np.ndarray,
) -> float:
    """Cosine between the induced gradients sum_i A_i s_i and sum_i A*_i s_i."""
    adv = np.asarray(advantages, dtype=float)
    scores = np.asarray(scores, dtype=float)
    oracle = np.asarray(oracle, dtype=float)
    if scores.ndim != 2 or scores.shape[0] != adv.size or oracle.size != adv.size:
        raise InputError("need advantages (m,), scores (m, d), oracle (m,)")
    g = scores.T @ adv
    g_star = scores.T @ oracle
    norm = np.linalg.norm(g)
    norm_star = np.linalg.norm(g_star)
    if norm == 0.0 or norm_star == 0.0:
        raise DegenerateError("gradient alignment undefined: an induced gradient is zero")
    return float(g @ g_star / (norm * norm_star))
