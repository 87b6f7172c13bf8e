"""Empirical upper-tail statistics of a finite reward group.

A group's tail vector eta = (r, mu, sigma) summarizes the upper-alpha slice of
its rewards: r is the q-th largest reward with q = ceil(alpha * m), mu the mean
of the top-q rewards, and sigma their population standard deviation clipped
below by eps_sigma. ``tail_stats`` computes it for every row of a (B, m)
reward matrix and ``slice_tail_stats`` for a top-q slice already taken, as
the lab takes it; ``empirical_tail_vector`` is the case of one group.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .errors import DegenerateError, InputError

#: Default lower clip for the tail standard deviation, in reward units.
DEFAULT_EPS_SIGMA = 1e-6


@dataclass(frozen=True)
class RewardGroup:
    """One prompt's rewards in arrival order, optionally with score vectors.

    ``rewards`` has shape (m,); ``scores``, when present, has shape (m, d) and
    row i belongs to reward i. Arrival order is meaningful: prefix rules slice
    it directly.
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


def row_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, deviations from it and population std of each row of x.

    The mean and std have shape (B, 1). They carry the same bits as
    ``x.mean(axis=1)`` and ``x.std(axis=1)``, which compute these same sums
    in the same order, but the mean is taken once and without their
    per-call overhead, which dominates on short rows.
    """
    mean = np.add.reduce(x, axis=1, keepdims=True) / x.shape[1]
    dev = x - mean
    return mean, dev, np.sqrt(np.add.reduce(dev * dev, axis=1, keepdims=True) / x.shape[1])


def slice_tail_stats(
    top: np.ndarray, eps_sigma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tail vector (r, mu, sigma) of each row of a (B, q) top-q slice.

    Each row holds a group's q largest rewards in any order, except that its
    first entry is the q-th largest, as a sort or ``np.partition`` at m - q
    leaves it. Each of r, mu and sigma has shape (B, 1); sigma is the
    population (divide-by-q) standard deviation clipped below by
    ``eps_sigma``. The squares behind sigma may overflow: call this under
    ``np.errstate(over="ignore", invalid="ignore")``, once per batch. A row
    whose statistics are not finite raises ``DegenerateError`` naming the
    first such row's values.
    """
    r = top[:, :1]
    mu, _, sd = row_moments(top)
    sigma = np.maximum(sd, eps_sigma)
    # with finite rewards, an overflowing mean also makes sigma inf or nan
    finite = np.isfinite(sigma)
    if not finite.all():
        b = int(np.argmin(finite[:, 0]))
        raise DegenerateError(
            f"tail statistics overflow: r={float(r[b, 0])}, mu={float(mu[b, 0])},"
            f" sigma={float(sigma[b, 0])}"
        )
    return r, mu, sigma


def tail_stats(
    rewards: np.ndarray, alpha: float, eps_sigma: float = DEFAULT_EPS_SIGMA
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tail vector (r, mu, sigma) of each row of a (B, m) reward matrix.

    ``slice_tail_stats`` of the top-q slice of a row sort, with its shapes,
    clip, overflow error and ``np.errstate`` requirement. Needs m >= 2.
    """
    if not 0.0 < alpha < 0.5:
        raise InputError(f"alpha must lie in (0, 1/2), got {alpha}")
    if not eps_sigma > 0:
        raise InputError("eps_sigma must be positive")
    m = rewards.shape[1]
    if m < 2:
        raise InputError(f"need m >= 2 rewards, got {m}")
    return slice_tail_stats(np.sort(rewards, axis=1)[:, m - tail_count(m, alpha) :], eps_sigma)


def empirical_tail_vector(
    group: RewardGroup, alpha: float, eps_sigma: float = DEFAULT_EPS_SIGMA
) -> TailVector:
    """Tail vector of a group: q-th largest reward, top-q mean, clipped top-q std.

    The case B = 1 of ``tail_stats``. The top-q slice is taken by value;
    rewards tied with the threshold beyond rank q are excluded
    deterministically, which never changes (r, mu, sigma) because tied values
    are interchangeable. Rewards whose top-q mean or spread overflows float
    range raise ``DegenerateError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r, mu, sigma = tail_stats(group.rewards[None, :], alpha, eps_sigma)
    q = tail_count(len(group), alpha)
    return TailVector(r=float(r[0, 0]), mu=float(mu[0, 0]), sigma=float(sigma[0, 0]), q=q)
