"""Per-group advantage rules: TEA, Prefix-TEA, and the baseline family.

Every rule maps one group's rewards to a length-m advantage vector. The TEA
family is built on the tail-shaped reward

    R_tilde(u) = (u - r) + (c_tilde / (2 sigma)) ((u - mu)^2 - (r - mu)^2)

evaluated at the group's empirical tail vector (r, mu, sigma): the raw
estimator weights tail members by R_tilde / alpha, and the stabilized training
rule takes positive parts and centers. Prefix-TEA combines the raw rule on
nested arrival-order prefixes with moment-cancellation weights. The baselines
(GRPO, GRPO-Z, BoN-max, BoN mean, a selection/correction split rule, and
rank-scaled CAT-BoN) share the same rewards-in, advantages-out interface.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .gauss import tail_constants
from .prefixes import build_scheme
from .tailstats import (
    DEFAULT_EPS_SIGMA,
    RewardGroup,
    TailVector,
    empirical_tail_vector,
    prefix_tail_vectors,
)

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


@dataclass(frozen=True)
class AdvantageVector:
    """Length-m advantages of one group."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def __len__(self) -> int:
        return int(self.values.size)


def _rewards_of(group: RewardGroup | np.ndarray | list[float]) -> np.ndarray:
    rewards = group.rewards if isinstance(group, RewardGroup) else np.asarray(group, dtype=float)
    if rewards.ndim != 1 or rewards.size < 2:
        raise InputError("rewards must be a 1-d array with m >= 2")
    if not np.all(np.isfinite(rewards)):
        raise InputError("rewards must be finite")
    return rewards


def tail_shaped_reward(
    eta: TailVector, u: float | np.ndarray, c_tilde: float
) -> float | np.ndarray:
    """Tail-shaped reward R_tilde(u); accepts scalar or vector u."""
    if eta.sigma <= 0:
        raise InputError(f"tail sigma must be positive, got {eta.sigma}")
    quad = (u - eta.mu) ** 2 - (eta.r - eta.mu) ** 2
    return (u - eta.r) + c_tilde / (2.0 * eta.sigma) * quad


def _tea_raw_values(rewards: np.ndarray, eta: TailVector, alpha: float, c_tilde: float) -> np.ndarray:
    shaped = tail_shaped_reward(eta, rewards, c_tilde)
    return np.where(rewards >= eta.r, shaped / alpha, 0.0)


def tea_raw(group: RewardGroup | np.ndarray, params: RuleParams) -> AdvantageVector:
    """Raw plug-in rule: (1/alpha) 1{R_i >= r_hat} R_tilde(R_i), uncentered."""
    rewards = _rewards_of(group)
    grp = group if isinstance(group, RewardGroup) else RewardGroup("", rewards)
    eta = empirical_tail_vector(grp, params.alpha, params.eps_sigma)
    c_tilde = tail_constants(params.alpha, params.n_target).c_tilde_n
    values = _tea_raw_values(rewards, eta, params.alpha, c_tilde)
    return AdvantageVector(values)


def tea(group: RewardGroup | np.ndarray, params: RuleParams) -> AdvantageVector:
    """Stabilized TEA: positive part of the raw rule, centered to sum zero."""
    raw = tea_raw(group, params)
    pos = np.maximum(raw.values, 0.0)
    return AdvantageVector(pos - pos.mean())


def prefix_tea(group: RewardGroup | np.ndarray, params: RuleParams) -> AdvantageVector:
    """Prefix-debiased TEA on practical prefixes.

    C_i = sum_j w_j rho_j (A_raw_{i,j})_+ where A_raw_{i,j} applies the raw
    rule with prefix j's tail vector and the membership indicator 1{i <= m_j};
    the output is C centered to sum zero.
    """
    rewards = _rewards_of(group)
    grp = group if isinstance(group, RewardGroup) else RewardGroup("", rewards)
    m = rewards.size
    scheme = build_scheme(m, params.k, params.j_count)
    etas = prefix_tail_vectors(grp, scheme.sizes, params.alpha, params.eps_sigma)
    c_tilde = tail_constants(params.alpha, params.n_target).c_tilde_n
    combined = np.zeros(m)
    for w, rho, size, eta in zip(scheme.weights, scheme.ratios, scheme.sizes, etas):
        raw_j = _tea_raw_values(rewards[:size], eta, params.alpha, c_tilde)
        combined[:size] += w * rho * np.maximum(raw_j, 0.0)
    return AdvantageVector(combined - combined.mean())


def grpo(group: RewardGroup | np.ndarray) -> AdvantageVector:
    """Mean-centered rewards."""
    rewards = _rewards_of(group)
    return AdvantageVector(rewards - rewards.mean())


def grpo_z(group: RewardGroup | np.ndarray, eps_norm: float = DEFAULT_EPS_NORM) -> AdvantageVector:
    """Group-normalized rewards: (R - mean) / (population std + eps)."""
    rewards = _rewards_of(group)
    centered = rewards - rewards.mean()
    return AdvantageVector(centered / (rewards.std() + eps_norm))


def bon_max(group: RewardGroup | np.ndarray, variant: str) -> AdvantageVector:
    """Advantage only at the argmax: R* - mean(R) or R* - runner-up.

    Argmax ties break to the smallest arrival index; the runner-up is the
    second-largest value counting duplicates of the maximum.
    """
    rewards = _rewards_of(group)
    if variant not in ("mean", "second"):
        raise InputError(f"variant must be 'mean' or 'second', got {variant!r}")
    i_star = int(np.argmax(rewards))
    values = np.zeros_like(rewards)
    if variant == "mean":
        values[i_star] = rewards[i_star] - rewards.mean()
    else:
        values[i_star] = rewards[i_star] - np.partition(rewards, -2)[-2]
    return AdvantageVector(values)


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


def bon_mean_raw(group: RewardGroup | np.ndarray, bon_k: int) -> np.ndarray:
    """Subset-max transformed rewards in arrival order, unnormalized.

    In ascending sorted order the transform is

        B_(i) = r_(i) C(i-1, k-1)/C(m, k) + sum_{j>i} r_(j) C(j-2, k-2)/C(m, k)

    (binomials with impossible arguments are zero), so that sum_i B_i equals
    k times the average maximum over all C(m, k) subsets.
    """
    rewards = _rewards_of(group)
    m = rewards.size
    if not 1 <= bon_k < m:
        raise InputError(f"need 1 <= bon_k < m, got bon_k={bon_k}, m={m}")
    order = np.argsort(rewards, kind="stable")
    r_sorted = rewards[order]
    tail_terms = r_sorted * _subset_max_weights(m, bon_k, 1)
    suffix = np.concatenate([np.cumsum(tail_terms[::-1])[::-1][1:], [0.0]])
    b_sorted = r_sorted * _subset_max_weights(m, bon_k, 0) + suffix
    b = np.empty_like(b_sorted)
    b[order] = b_sorted
    return b


def bon_mean(
    group: RewardGroup | np.ndarray, bon_k: int, eps_norm: float = DEFAULT_EPS_NORM
) -> AdvantageVector:
    """Subset-max transformed rewards (``bon_mean_raw``), normalized like grpo_z."""
    b = bon_mean_raw(group, bon_k)
    centered = b - b.mean()
    return AdvantageVector(centered / (b.std() + eps_norm))


def _chow_values(
    rewards: np.ndarray,
    sel_idx: np.ndarray,
    cor_idx: np.ndarray,
    lambda_nsel: float,
) -> np.ndarray:
    m = rewards.size
    m_corr = cor_idx.size
    sel_rewards = rewards[sel_idx]
    i_star = int(sel_idx[np.argmax(sel_rewards)])
    r_star = rewards[i_star]
    values = np.zeros_like(rewards)
    values[i_star] = m * r_star
    exceeds = cor_idx[rewards[cor_idx] > r_star]
    values[exceeds] = -m * (lambda_nsel / m_corr) * r_star
    return values


def chow_bon_rl(group: RewardGroup | np.ndarray, params: RuleParams) -> AdvantageVector:
    """Selection/correction split estimator of the best-of-N gradient.

    A seeded uniform permutation assigns the first n_sel indices to the
    selection set S and the rest to the correction set C; the winner of S gets
    m R*, and correction samples beating R* get -m (lambda / m_corr) R*.
    lambda defaults to n_sel - 1 when not set.
    """
    rewards = _rewards_of(group)
    m = rewards.size
    n_sel = params.n_sel if params.n_sel is not None else m // 2
    m_corr = params.m_corr if params.m_corr is not None else m - n_sel
    if n_sel < 1 or m_corr < 1 or n_sel + m_corr != m:
        raise InputError(f"need n_sel + m_corr = m with both >= 1, got ({n_sel}, {m_corr}, m={m})")
    lam = params.lambda_nsel if params.lambda_nsel is not None else float(n_sel - 1)
    perm = np.random.default_rng(params.seed).permutation(m)
    values = _chow_values(rewards, perm[:n_sel], perm[n_sel:], lam)
    return AdvantageVector(values)


def cat_bon(
    group: RewardGroup | np.ndarray,
    cat_n_target: int,
    eps_norm: float = DEFAULT_EPS_NORM,
) -> AdvantageVector:
    """Rank-scaled GRPO-Z: weights N F<(R_i)^(N-1) from the strictly-below rank.

    F< counts strictly smaller rewards only; weights are normalized by their
    mean (plus eps) and multiply the grpo_z advantage elementwise.
    """
    rewards = _rewards_of(group)
    if cat_n_target < 1:
        raise InputError(f"cat_n_target must be >= 1, got {cat_n_target}")
    m = rewards.size
    below = np.searchsorted(np.sort(rewards), rewards, side="left") / m
    weights = cat_n_target * below ** (cat_n_target - 1)
    scaled = weights / (weights.mean() + eps_norm)
    return AdvantageVector(scaled * grpo_z(rewards, eps_norm).values)


def compute_rule(rule: str, group: RewardGroup | np.ndarray, params: RuleParams) -> AdvantageVector:
    """Dispatch a rule by its CLI name."""
    if rule == "tea":
        return tea(group, params)
    if rule == "tea-raw":
        return tea_raw(group, params)
    if rule == "prefix-tea":
        return prefix_tea(group, params)
    if rule == "grpo":
        return grpo(group)
    if rule == "grpo-z":
        return grpo_z(group, params.eps_norm)
    if rule == "bonmax-mean":
        return bon_max(group, "mean")
    if rule == "bonmax-second":
        return bon_max(group, "second")
    if rule == "bon-mean":
        if params.bon_k is None:
            raise InputError("rule 'bon-mean' requires bon_k")
        return bon_mean(group, params.bon_k, params.eps_norm)
    if rule == "chow":
        return chow_bon_rl(group, params)
    if rule == "cat-bon":
        target = params.cat_n_target if params.cat_n_target is not None else params.n_target
        return cat_bon(group, target, params.eps_norm)
    raise InputError(f"unknown rule {rule!r}; known: {', '.join(RULE_NAMES)}")


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


def with_group_seed(params: RuleParams, group_index: int) -> RuleParams:
    """Derive per-group params whose seed is offset by the group's position."""
    return replace(params, seed=params.seed + group_index)
