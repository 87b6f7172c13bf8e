"""Advantage rules: TEA, Prefix-TEA, and the baseline family.

Every rule maps a (B, m) reward matrix, one group per row, to a (B, m)
advantage matrix; ``compute_rules`` reaches each rule's kernel by name, and
one group is a (1, m) row. The TEA family is built on the tail-shaped reward

    R_tilde(u) = (u - r) + (c_tilde / (2 sigma)) ((u - mu)^2 - (r - mu)^2)

evaluated at the group's empirical tail vector (r, mu, sigma): the raw
estimator weights tail members by R_tilde / alpha, and the stabilized training
rule takes positive parts and centers. Prefix-TEA combines the raw rule on
nested arrival-order prefixes with moment-cancellation weights; its raw form
(``prefix-tea-raw``) skips the positive parts and the centring. The baselines
(GRPO, GRPO-Z, BoN-max, BoN mean, a selection/correction split rule, and
rank-scaled CAT-BoN) share the same rewards-in, advantages-out interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateError, InputError
from .gauss import tail_constants
from .prefixes import build_scheme
from .tailstats import DEFAULT_EPS_SIGMA, row_moments, tail_stats

#: Default denominator guard for normalized rules.
DEFAULT_EPS_NORM = 1e-8


@dataclass(frozen=True)
class RuleParams:
    """Parameters shared by the advantage rules; unused fields are ignored.

    ``lambda_nsel = None`` means the selection/correction rule uses its default
    coefficient n_sel - 1 (an assumption, exposed precisely so callers can
    override it). ``bon_k`` and the Chow split sizes have no defaults: rules
    that need them raise unless they are set.
    """

    alpha: float = 0.25
    n_target: int = 128
    eps_sigma: float = DEFAULT_EPS_SIGMA
    eps_norm: float = DEFAULT_EPS_NORM
    k: int = 2
    j_count: int = 4
    bon_k: int | None = None
    n_sel: int | None = None
    m_corr: int | None = None
    lambda_nsel: float | None = None
    cat_n_target: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        """Check the ranges that do not depend on the group size, before any rewards are read."""
        if not 0.0 < self.alpha < 0.5:
            raise InputError(f"alpha must lie in (0, 1/2), got {self.alpha}")
        if not self.eps_sigma > 0:
            raise InputError("eps_sigma must be positive")
        if not 0.0 <= self.eps_norm < np.inf:
            raise InputError(f"eps_norm must be finite and >= 0, got {self.eps_norm}")
        for name in ("n_target", "cat_n_target", "bon_k"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise InputError(f"{name} must be >= 1, got {value}")


def _matrix(rewards: np.ndarray) -> np.ndarray:
    """Rewards as a validated (B, m) matrix of finite floats with m >= 2."""
    rewards = np.asarray(rewards, dtype=float)
    if rewards.ndim != 2:
        raise InputError(f"rewards must be a (B, m) array with m >= 2, got shape {rewards.shape}")
    if rewards.shape[1] < 2:
        raise InputError(f"need m >= 2 rewards, got {rewards.shape[1]}")
    if not np.all(np.isfinite(rewards)):
        raise InputError("rewards must be finite")
    return rewards


def _centered(x: np.ndarray) -> np.ndarray:
    """Each row minus its mean, with the bits of ``x - x.mean(axis=1, keepdims=True)``."""
    return x - np.add.reduce(x, axis=1, keepdims=True) / x.shape[1]


def _shaped(u, r, mu, sigma, c_tilde: float):
    """R_tilde(u) for tail vectors (r, mu, sigma) that broadcast against u; 0 at u = r exactly."""
    # 0.5 * c / sigma has the bits of c / (2 sigma): halving is exact
    return (u - r) + 0.5 * c_tilde / sigma * ((u - mu) ** 2 - (r - mu) ** 2)


# --- batch kernels: (B, m) rewards in, (B, m) advantages out -------------------


def _tea_raw_values(rewards: np.ndarray, alpha: float, eps_sigma: float, c_tilde: float) -> np.ndarray:
    """(1/alpha) 1{R_i >= r_hat} R_tilde(R_i) per row, at each row's own tail vector."""
    r, mu, sigma = tail_stats(rewards, alpha, eps_sigma)
    return np.where(rewards >= r, _shaped(rewards, r, mu, sigma, c_tilde) / alpha, 0.0)


def _tea_raw(rewards: np.ndarray, params: RuleParams) -> np.ndarray:
    c_tilde = tail_constants(params.alpha, params.n_target).c_tilde_n
    # squares of rewards far below the tail may overflow; their entries are zero
    with np.errstate(over="ignore", invalid="ignore"):
        return _tea_raw_values(rewards, params.alpha, params.eps_sigma, c_tilde)


def _tea(rewards: np.ndarray, params: RuleParams) -> np.ndarray:
    return _centered(np.maximum(_tea_raw(rewards, params), 0.0))


def _prefix_tea(rewards: np.ndarray, params: RuleParams, raw: bool = False) -> np.ndarray:
    """C_i = sum_j w_j rho_j (A_raw_{i,j})_+, centered; with ``raw``, no positive part or centring.

    A_raw_{i,j} applies the raw rule with prefix j's tail vector and the
    membership indicator 1{i <= m_j}.
    """
    scheme = build_scheme(rewards.shape[1], params.k, params.j_count)
    c_tilde = tail_constants(params.alpha, params.n_target).c_tilde_n
    combined = np.zeros_like(rewards)
    with np.errstate(over="ignore", invalid="ignore"):
        for w, rho, size in zip(scheme.weights, scheme.ratios, scheme.sizes):
            raw_j = _tea_raw_values(rewards[:, :size], params.alpha, params.eps_sigma, c_tilde)
            combined[:, :size] += w * rho * (raw_j if raw else np.maximum(raw_j, 0.0))
    return combined if raw else _centered(combined)


def _normalized(x: np.ndarray, scale: np.ndarray, eps_norm: float, what: str) -> np.ndarray:
    """x / (scale + eps_norm) for a scale >= 0; a zero denominator raises ``DegenerateError``.

    The denominator can vanish only at eps_norm = 0, which is allowed so that
    rule identities hold exactly on groups with a spread.
    """
    den = scale + eps_norm
    if eps_norm == 0.0 and not den.all():
        raise DegenerateError(f"{what} is zero and eps_norm = 0; set eps_norm > 0")
    return x / den


def _grpo_z(rewards: np.ndarray, eps_norm: float) -> np.ndarray:
    """Rows normalized by their std; a row whose std overflows raises ``DegenerateError``.

    At ``eps_norm`` = 0 a constant row is degenerate.
    """
    try:
        # cheaper than a finiteness check after the fact, on a path run once per group
        with np.errstate(over="raise", invalid="raise"):
            _, centered, sd = row_moments(rewards)
    except FloatingPointError:
        # with finite rewards, an overflowing mean also makes sd inf or nan
        with np.errstate(over="ignore", invalid="ignore"):
            mean, _, sd = row_moments(rewards)
        b = int(np.argmin(np.isfinite(sd[:, 0])))
        raise DegenerateError(
            f"reward statistics overflow: mean={float(mean[b, 0])}, std={float(sd[b, 0])}"
        ) from None
    return _normalized(centered, sd, eps_norm, "reward std")


def _bon_max(rewards: np.ndarray, variant: str) -> np.ndarray:
    """R* - mean(R) or R* - runner-up at the first argmax; the runner-up counts duplicates of R*."""
    rows = np.arange(rewards.shape[0])
    i_star = np.argmax(rewards, axis=1)
    if variant == "mean":
        other = rewards.mean(axis=1)
    else:
        other = np.partition(rewards, -2, axis=1)[:, -2]
    values = np.zeros_like(rewards)
    values[rows, i_star] = rewards[rows, i_star] - other
    return values


def _subset_max_weights(m: int, k: int, s: int) -> np.ndarray:
    """C(i-1-s, k-1-s) / C(m, k) for i = 1..m, zero where that binomial vanishes.

    Built by the ratio recurrence w_(i-1) = w_i (i-k) / (i-1-s) down from
    w_m = prod_{t<=s} (k-t)/(m-t), so no binomial is ever formed: the
    weights stay finite for any m and underflow gracefully to zero.
    """
    w = np.zeros(m)
    if k - 1 - s < 0:
        return w
    top = float(np.prod([(k - t) / (m - t) for t in range(s + 1)]))
    i = np.arange(m, k, -1)
    steps = np.cumprod((i - k) / (i - 1 - s))
    w[k - 1 :] = top * np.concatenate([steps[::-1], [1.0]])
    return w


def bon_mean_raw(rewards: np.ndarray, bon_k: int) -> np.ndarray:
    """Subset-max transformed rewards of each row of a (B, m) matrix, in arrival order, unnormalized.

    In ascending sorted order the transform is

        B_(i) = r_(i) C(i-1, k-1)/C(m, k) + sum_{j>i} r_(j) C(j-2, k-2)/C(m, k)

    (binomials with impossible arguments are zero), so that sum_i B_i equals
    k times the average maximum over all C(m, k) subsets.
    """
    rewards = _matrix(rewards)
    m = rewards.shape[1]
    if not 1 <= bon_k < m:
        raise InputError(f"need 1 <= bon_k < m, got bon_k={bon_k}, m={m}")
    order = np.argsort(rewards, axis=1, kind="stable")
    r_sorted = np.take_along_axis(rewards, order, axis=1)
    tail_terms = r_sorted * _subset_max_weights(m, bon_k, 1)
    # suffix sums over j > i, accumulated from the top rank down
    suffix = np.zeros_like(tail_terms)
    suffix[:, :-1] = np.cumsum(tail_terms[:, :0:-1], axis=1)[:, ::-1]
    b = np.empty_like(r_sorted)
    np.put_along_axis(b, order, r_sorted * _subset_max_weights(m, bon_k, 0) + suffix, axis=1)
    return b


def _chow(rewards: np.ndarray, params: RuleParams, seeds: Sequence[int] | None) -> np.ndarray:
    """Selection/correction split: a seeded permutation's first n_sel indices select.

    The winner of the selection set gets m R*, and correction samples beating
    R* get -m (lambda / m_corr) R*; lambda defaults to n_sel - 1.
    """
    n_rows, m = rewards.shape
    n_sel = params.n_sel if params.n_sel is not None else m // 2
    m_corr = params.m_corr if params.m_corr is not None else m - n_sel
    if n_sel < 1 or m_corr < 1 or n_sel + m_corr != m:
        raise InputError(f"need n_sel + m_corr = m with both >= 1, got ({n_sel}, {m_corr}, m={m})")
    lam = params.lambda_nsel if params.lambda_nsel is not None else float(n_sel - 1)
    if seeds is None:
        perms = np.broadcast_to(np.random.default_rng(params.seed).permutation(m), rewards.shape)
    else:
        if len(seeds) != n_rows:
            raise InputError(f"need one seed per row, got {len(seeds)} seeds for {n_rows} rows")
        perms = np.stack([np.random.default_rng(int(seed)).permutation(m) for seed in seeds])
    sel, cor = perms[:, :n_sel], perms[:, n_sel:]
    rows = np.arange(n_rows)
    i_star = sel[rows, np.argmax(np.take_along_axis(rewards, sel, axis=1), axis=1)]
    r_star = rewards[rows, i_star]
    values = np.zeros_like(rewards)
    values[rows, i_star] = m * r_star
    row, col = np.nonzero(np.take_along_axis(rewards, cor, axis=1) > r_star[:, None])
    values[row, cor[row, col]] = (-m * (lam / m_corr) * r_star)[row]
    return values


def _strictly_below(rewards: np.ndarray) -> np.ndarray:
    """Per entry, how many rewards of its row are strictly smaller."""
    m = rewards.shape[1]
    order = np.argsort(rewards, axis=1, kind="stable")
    r_sorted = np.take_along_axis(rewards, order, axis=1)
    # a run of tied values starts where the sorted value changes
    starts = np.ones(rewards.shape, dtype=bool)
    starts[:, 1:] = r_sorted[:, 1:] != r_sorted[:, :-1]
    rank = np.maximum.accumulate(np.where(starts, np.arange(m), 0), axis=1)
    below = np.empty_like(rank)
    np.put_along_axis(below, order, rank, axis=1)
    return below


def _cat_bon(rewards: np.ndarray, cat_n_target: int, eps_norm: float) -> np.ndarray:
    """GRPO-Z scaled by weights N F<(R_i)^(N-1) over their mean; F< counts strictly smaller."""
    z_scores = _grpo_z(rewards, eps_norm)
    below = _strictly_below(rewards) / rewards.shape[1]
    weights = cat_n_target * below ** (cat_n_target - 1)
    mean = weights.mean(axis=1, keepdims=True)
    return _normalized(weights, mean, eps_norm, "mean rank weight") * z_scores


def _bon_mean_rule(rewards: np.ndarray, params: RuleParams) -> np.ndarray:
    if params.bon_k is None:
        raise InputError("rule 'bon-mean' requires bon_k")
    return _grpo_z(bon_mean_raw(rewards, params.bon_k), params.eps_norm)


def _cat_bon_rule(rewards: np.ndarray, params: RuleParams) -> np.ndarray:
    target = params.cat_n_target if params.cat_n_target is not None else params.n_target
    return _cat_bon(rewards, target, params.eps_norm)


_Kernel = Callable[[np.ndarray, RuleParams, Optional[Sequence[int]]], np.ndarray]

#: Rule name -> batch kernel (rewards, params, per-row seeds); only chow reads the seeds.
_KERNELS: dict[str, _Kernel] = {
    "tea": lambda x, params, seeds: _tea(x, params),
    "tea-raw": lambda x, params, seeds: _tea_raw(x, params),
    "prefix-tea": lambda x, params, seeds: _prefix_tea(x, params),
    "prefix-tea-raw": lambda x, params, seeds: _prefix_tea(x, params, raw=True),
    "grpo": lambda x, params, seeds: _centered(x),
    "grpo-z": lambda x, params, seeds: _grpo_z(x, params.eps_norm),
    "bonmax-mean": lambda x, params, seeds: _bon_max(x, "mean"),
    "bonmax-second": lambda x, params, seeds: _bon_max(x, "second"),
    "bon-mean": lambda x, params, seeds: _bon_mean_rule(x, params),
    "chow": _chow,
    "cat-bon": lambda x, params, seeds: _cat_bon_rule(x, params),
}

RULE_NAMES = (
    "tea",
    "prefix-tea",
    "grpo",
    "grpo-z",
    "bonmax-mean",
    "bonmax-second",
    "bon-mean",
    "chow",
    "cat-bon",
)


def _kernel(rule: str) -> _Kernel:
    try:
        return _KERNELS[rule]
    except KeyError:
        raise InputError(f"unknown rule {rule!r}; known: {', '.join(RULE_NAMES)}") from None


def compute_rules(
    rule: str, rewards: np.ndarray, params: RuleParams, seeds: Sequence[int] | None = None
) -> np.ndarray:
    """Advantages of every row of a (B, m) reward matrix under a rule named as in the CLI.

    Row b is one group in arrival order; the result has the shape of
    ``rewards``. ``seeds`` gives one seed per row to the rules that draw
    (``chow``); without it every row uses ``params.seed``.
    """
    kernel = _kernel(rule)
    return kernel(_matrix(rewards), params, seeds)

