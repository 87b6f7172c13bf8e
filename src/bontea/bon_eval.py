"""Exact empirical best-of-N quantities and the evaluation protocol.

Treating a finite reward pool as an empirical distribution gives closed forms
for the expected best-of-N maximum and each sample's marginal contribution to
it (the oracle advantage). The evaluation half implements grouped best-of-N
curves over stored samples (consecutive partitions), the paired prompt
bootstrap, the win/tie/loss rule, and the gradient-alignment cosine
diagnostic. The paired statistics take (prompts,) inputs, giving floats, or
(prompts, columns) inputs, giving one array entry per column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, InputError, PromptRowError, check_at_least, check_finite

#: Paired bootstrap defaults: percentile 95% interval from 1000 resamples.
DEFAULT_RESAMPLES = 1000
#: Win/tie/loss tie tolerance on per-prompt differences.
DEFAULT_TIE_TOL = 1e-9
#: Resample indices the paired bootstrap draws and gathers at a time (at least one
#: resample's): its memory beyond the (columns, resamples) means is a few slices of
#: this many entries, whatever the resample count.
_BOOTSTRAP_VALUES = 1 << 16


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
    check_at_least("n", n, 1)
    cdf = pool.cum_prob
    cdf_prev = np.concatenate([[0.0], cdf[:-1]])
    return float(pool.sorted_unique @ (cdf**n - cdf_prev**n))


def oracle_advantage(pool: EmpiricalPool, n: int) -> np.ndarray:
    """A*(r_i) = E[max(r_i, M_{n-1})] - E[M_n] for every pool element.

    M_{n-1} is the maximum of n-1 fresh pool draws (vacuous for n = 1, where
    the advantage reduces to r_i minus the pool mean). Exact via CDF powers.
    """
    check_at_least("n", n, 1)
    unique = pool.sorted_unique
    cdf = pool.cum_prob
    cdf_prev = np.concatenate([[0.0], cdf[:-1]])
    pow_nm1 = cdf ** (n - 1)
    pow_nm1_prev = cdf_prev ** (n - 1)
    # E[max(r, M_{n-1})] = r F(r)^{n-1} + sum_{v > r} v (F(v)^{n-1} - F(v-)^{n-1})
    with np.errstate(over="ignore", invalid="ignore"):
        mass_above = unique * (pow_nm1 - pow_nm1_prev)
        suffix = np.concatenate([np.cumsum(mass_above[::-1])[::-1][1:], [0.0]])
        per_unique = unique * pow_nm1 + suffix - expected_max(pool, n)
    return per_unique[np.searchsorted(unique, pool.values)]


def _coarser_maxima(maxima: np.ndarray, k: int) -> np.ndarray:
    """Maxima of consecutive runs of k columns of (prompts, columns) ``maxima``.

    They are k - 1 elementwise maxima over the strided columns
    ``maxima[:, j::k]``, which keep the layout order of ``maxima``.
    """
    if k == 1:
        return maxima
    out = np.maximum(maxima[:, 0::k], maxima[:, 1::k])
    for j in range(2, k):
        np.maximum(out, maxima[:, j::k], out=out)
    return out


def check_budgets(budgets: tuple[int, ...], m_total: int | None = None) -> None:
    """Raise ``InputError`` unless every budget is at least 1 and, given ``m_total``, divides that many samples."""
    for n in budgets:
        if n < 1:
            raise InputError(f"budget {n} must be >= 1")
        if m_total is not None and m_total % n != 0:
            raise InputError(f"budget {n} must divide the per-prompt sample count {m_total}")


def grouped_bon_curve(per_prompt_samples: np.ndarray, budgets: list[int] | tuple[int, ...]) -> BonCurve:
    """Grouped best-of-N means: consecutive groups of n, maxima averaged.

    ``per_prompt_samples`` is (prompts, M); every budget must divide M. The
    partition follows stored arrival order with no shuffling. A mean that
    overflows raises ``PromptRowError``, naming the first prompt row and
    budget, then ``DegenerateError`` for the first budget whose mean over the
    prompts overflows.

    Budgets are taken in increasing order. Each budget's group maxima are the
    maxima, k at a time, of those of the largest smaller budget that divides
    it, or of the samples if none does. A maximum is one of its inputs, so
    every per-prompt sum has the bits of one ``np.maximum.reduce`` per budget
    over the samples. The one tie whose pick shows in the bits, -0.0 against
    0.0, does not reach the sums: ``np.add.reduce`` starts from 0.0, and
    0.0 + -0.0 is 0.0.
    """
    samples = np.asarray(per_prompt_samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[None, :]
    n_prompts, m_total = samples.shape
    budgets = tuple(int(n) for n in budgets)
    check_budgets(budgets, m_total)
    maxima = {1: samples}
    per_prompt = np.empty((n_prompts, len(budgets)))
    # the bits of .max and .mean, without their per-call wrapping
    with np.errstate(over="ignore", invalid="ignore"):
        for n in sorted(set(budgets)):
            base = max(d for d in maxima if n % d == 0)
            maxima[n] = _coarser_maxima(maxima[base], n // base)
        for col, n in enumerate(budgets):
            per_prompt[:, col] = np.add.reduce(maxima[n], axis=1) / (m_total // n)
        means = np.add.reduce(per_prompt, axis=0) / n_prompts

    def row_error(row: int, col: int) -> PromptRowError:
        what, value = f"best-of-{budgets[col]} mean", per_prompt[row, col]
        return PromptRowError(f"{what} of prompt row {row} overflows: {value}", row, f"{what} overflows: {value}")

    check_finite(per_prompt, row_error)
    check_finite(means, lambda col: f"best-of-{budgets[col]} mean over the prompts overflows: {means[col]}")
    return BonCurve(n_values=budgets, means=means, per_prompt=per_prompt)


def _paired(a: np.ndarray, b: np.ndarray, min_prompts: int) -> np.ndarray:
    """a - b as one contiguous row per column of equal-shape (prompts,) or (prompts, columns) inputs."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim not in (1, 2) or a.shape[0] < min_prompts:
        raise InputError(f"need equal (prompts,) or (prompts, columns) shapes with >= {min_prompts} prompts")
    return np.ascontiguousarray((a - b).reshape(a.shape[0], -1).T)  # a row sums as its 1-d column


def _per_column(ndim: int, *values: np.ndarray) -> tuple:
    """Floats of the one column for 1-d inputs, else one array per value."""
    return tuple(float(v[0]) for v in values) if ndim == 1 else values


def paired_bootstrap_delta(
    per_prompt_a: np.ndarray,
    per_prompt_b: np.ndarray,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> tuple:
    """Mean per-prompt difference with a percentile 95% bootstrap interval, per column.

    Resamples prompts with replacement (paired), keeping the a/b pairing, with
    the same resampled prompts for every column (e.g. one per budget); the
    interval is the (2.5, 97.5) percentile of resampled mean differences. The
    (resamples, prompts) index matrix is drawn and gathered in slices of
    whole resamples, about ``_BOOTSTRAP_VALUES`` indices each: consecutive
    draws continue one stream, so the indices, and every output bit, are
    those of one whole draw. A difference that overflows raises
    ``PromptRowError`` naming its prompt row and column, and a column whose
    delta or interval overflows raises ``DegenerateError``.
    """
    check_at_least("resamples", resamples, 1)
    check_at_least("seed", seed, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = _paired(per_prompt_a, per_prompt_b, 2)
        check_finite(
            diff,
            lambda col, row: PromptRowError(
                f"paired difference of prompt row {row}, column {col} overflows: {diff[col, row]}",
                row,
                f"paired difference of column {col} overflows: {diff[col, row]}",
            ),
        )
        rng, (columns, prompts) = np.random.default_rng(seed), diff.shape
        means = np.empty((columns, resamples))
        step = max(1, _BOOTSTRAP_VALUES // prompts)
        for start in range(0, resamples, step):
            idx = rng.integers(0, prompts, size=(min(step, resamples - start), prompts))
            # gathered column by column: one (columns * rows, prompts) gather would hold columns times the memory
            for col, c in enumerate(diff):
                means[col, start : start + len(idx)] = c[idx].mean(axis=1)
        lo, hi = np.percentile(means, [2.5, 97.5], axis=1)
        delta = diff.mean(axis=1)
    for values in (delta, lo, hi):
        check_finite(values, lambda col: f"paired bootstrap delta of column {col} overflows: {values[col]}")
    return _per_column(np.ndim(per_prompt_a), delta, lo, hi)


def win_tie_loss(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TIE_TOL) -> tuple:
    """Per-prompt win/tie/loss percentages of a versus b with a tie tolerance, per column."""
    check_at_least("tie_tol", tol, 0)  # NaN fails too: it would count every prompt a tie
    diff = _paired(a, b, 1)
    wins, losses = (diff > tol).sum(axis=1), (diff < -tol).sum(axis=1)
    scale = 100.0 / diff.shape[1]
    return _per_column(np.ndim(a), wins * scale, (diff.shape[1] - wins - losses) * scale, losses * scale)


def gradient_alignment(
    advantages: np.ndarray,
    scores: np.ndarray,
    oracle: np.ndarray,
) -> float:
    """Cosine between the induced gradients sum_i A_i s_i and sum_i A*_i s_i.

    A gradient that is zero, or whose norm is not finite (the products
    behind it may overflow), raises ``DegenerateError``.
    """
    adv = np.asarray(advantages, dtype=float)
    scores = np.asarray(scores, dtype=float)
    oracle = np.asarray(oracle, dtype=float)
    if scores.ndim != 2 or scores.shape[0] != adv.size or oracle.size != adv.size:
        raise InputError("need advantages (m,), scores (m, d), oracle (m,)")
    with np.errstate(over="ignore", invalid="ignore"):
        g = scores.T @ adv
        g_star = scores.T @ oracle
        norms = np.array([np.linalg.norm(g), np.linalg.norm(g_star)])
    # an entry that is not finite makes its gradient's norm inf or nan; finite norms keep every
    # partial sum of g @ g_star below norm * norm_star (Cauchy-Schwarz), so the cosine is finite
    whose = ("rule's", "oracle's")
    check_finite(norms, lambda i: f"gradient alignment overflows: the {whose[i]} gradient norm is not finite")
    if not norms.all():
        raise DegenerateError("gradient alignment undefined: an induced gradient is zero")
    return float(g @ g_star / (norms[0] * norms[1]))
