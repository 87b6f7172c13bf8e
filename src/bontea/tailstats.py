"""Empirical upper-tail statistics of a finite reward group.

A group's tail vector eta = (r, mu, sigma) summarizes the upper-alpha slice of
its rewards: r is the q-th largest reward with q = ceil(alpha * m), mu the mean
of the top-q rewards, and sigma their population standard deviation clipped
below by eps_sigma. Prefix-restricted variants and an A/B half split support
the debiased and cross-fitted estimators built on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isfinite

import numpy as np

from .errors import DegenerateError, InputError

#: Default lower clip for the tail standard deviation, in reward units.
DEFAULT_EPS_SIGMA = 1e-6


@dataclass(frozen=True)
class RewardGroup:
    """One prompt's rewards in arrival order, optionally with score vectors.

    ``rewards`` has shape (m,); ``scores``, when present, has shape (m, d) and
    row i belongs to reward i. Arrival order is meaningful: prefix operations
    and the half split slice it directly.
    """

    prompt_id: str
    rewards: np.ndarray
    scores: np.ndarray | None = None

    def __post_init__(self) -> None:
        rewards = np.asarray(self.rewards, dtype=float)
        if rewards.ndim != 1 or rewards.size == 0:
            raise InputError(f"group {self.prompt_id!r}: rewards must be a nonempty 1-d array")
        if not np.all(np.isfinite(rewards)):
            raise InputError(f"group {self.prompt_id!r}: rewards must be finite")
        object.__setattr__(self, "rewards", rewards)
        if self.scores is not None:
            scores = np.asarray(self.scores, dtype=float)
            if scores.ndim != 2 or scores.shape[0] != rewards.size:
                raise InputError(
                    f"group {self.prompt_id!r}: scores must be (m, d) with m = {rewards.size}"
                )
            if not np.all(np.isfinite(scores)):
                raise InputError(f"group {self.prompt_id!r}: scores must be finite")
            object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return int(self.rewards.size)


@dataclass(frozen=True)
class TailVector:
    """Clipped empirical tail vector (r, mu, sigma) with its tail count q."""

    r: float
    mu: float
    sigma: float
    q: int


def tail_count(m: int, alpha: float) -> int:
    """Number of tail members q = ceil(alpha * m)."""
    return int(ceil(alpha * m))


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 0.5:
        raise InputError(f"alpha must lie in (0, 1/2), got {alpha}")


def _tail_stats(rewards: np.ndarray, alpha: float, eps_sigma: float) -> TailVector:
    m = rewards.size
    q = tail_count(m, alpha)
    top = np.sort(rewards)[m - q :]
    r, mu, sigma = float(top[0]), float(top.mean()), float(max(top.std(), eps_sigma))
    if not (isfinite(r) and isfinite(mu) and isfinite(sigma)):
        raise DegenerateError(f"tail statistics overflow: r={r}, mu={mu}, sigma={sigma}")
    return TailVector(r=r, mu=mu, sigma=sigma, q=q)


def empirical_tail_vector(
    group: RewardGroup, alpha: float, eps_sigma: float = DEFAULT_EPS_SIGMA
) -> TailVector:
    """Tail vector of a group: q-th largest reward, top-q mean, clipped top-q std.

    The top-q slice is taken by value; rewards tied with the threshold beyond
    rank q are excluded deterministically (smallest arrival index kept), which
    never changes (r, mu, sigma) because tied values are interchangeable.
    sigma uses the population (divide-by-q) standard deviation. Rewards whose
    top-q mean or spread overflows float range raise ``DegenerateError``.
    """
    _check_alpha(alpha)
    if eps_sigma <= 0:
        raise InputError("eps_sigma must be positive")
    if len(group) < 2:
        raise InputError(f"group {group.prompt_id!r}: need m >= 2 rewards, got {len(group)}")
    return _tail_stats(group.rewards, alpha, eps_sigma)


def prefix_tail_vectors(
    group: RewardGroup,
    prefixes: tuple[int, ...] | list[int],
    alpha: float,
    eps_sigma: float = DEFAULT_EPS_SIGMA,
) -> list[TailVector]:
    """Tail vector of each arrival-order prefix ``rewards[:m_j]``."""
    _check_alpha(alpha)
    sizes = [int(p) for p in prefixes]
    if sizes != sorted(sizes):
        raise InputError(f"prefixes must be ascending, got {prefixes}")
    if sizes and sizes[-1] > len(group):
        raise InputError(f"prefix {sizes[-1]} exceeds group size {len(group)}")
    if any(p < 2 for p in sizes):
        raise InputError(f"every prefix must be >= 2, got {prefixes}")
    return [_tail_stats(group.rewards[:p], alpha, eps_sigma) for p in sizes]


def split_halves(group: RewardGroup) -> tuple[RewardGroup, RewardGroup]:
    """Split a group into its first and second half, preserving arrival order."""
    m = len(group)
    if m % 2 != 0 or m < 4:
        raise InputError(f"group {group.prompt_id!r}: half split needs even m >= 4, got {m}")
    n = m // 2
    scores_a = group.scores[:n] if group.scores is not None else None
    scores_b = group.scores[n:] if group.scores is not None else None
    return (
        RewardGroup(group.prompt_id, group.rewards[:n], scores_a),
        RewardGroup(group.prompt_id, group.rewards[n:], scores_b),
    )
