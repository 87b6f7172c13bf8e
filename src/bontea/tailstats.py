"""Empirical upper-tail statistics of a finite reward group.

A group's tail vector eta = (r, mu, sigma) summarizes the upper-alpha slice of
its rewards: r is the q-th largest reward with q = ceil(alpha * m), mu the mean
of the top-q rewards, and sigma their population standard deviation clipped
below by eps_sigma. ``tail_stats`` computes it for every row of a (B, m)
reward matrix, one group per row, ``slice_tail_stats`` for a top-q slice
already taken, as the lab takes it, and ``prefix_tail_stats`` for the nested
prefixes of every row at once, from one sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import ceil
from typing import Iterable

import numpy as np

from .errors import InputError, check_finite
from .gauss import check_alpha

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
        if not all_numbers(self.rewards):
            raise InputError(f"group {self.prompt_id!r}: rewards must be numbers, not strings or booleans")
        if not np.isfinite(rewards).all():
            raise InputError(f"group {self.prompt_id!r}: rewards must be finite")
        object.__setattr__(self, "rewards", rewards)
        if self.scores is not None:
            scores = np.asarray(self.scores, dtype=float)
            if scores.ndim != 2 or scores.shape[0] != rewards.size:
                raise InputError(
                    f"group {self.prompt_id!r}: scores must be (m, d) with m = {rewards.size}"
                )
            if not all_numbers(chain.from_iterable(self.scores)):
                raise InputError(f"group {self.prompt_id!r}: scores must be numbers, not strings or booleans")
            if not np.isfinite(scores).all():
                raise InputError(f"group {self.prompt_id!r}: scores must be finite")
            object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return int(self.rewards.size)


def all_numbers(values: Iterable) -> bool:
    """Whether no entry of ``values`` is a string or a boolean, which NumPy would read as a number."""
    return {str, bool}.isdisjoint(map(type, values))


def check_eps_sigma(eps_sigma: float) -> None:
    """Raise ``InputError`` unless the tail sigma floor is positive and finite."""
    if not eps_sigma > 0:
        raise InputError("eps_sigma must be positive")
    if eps_sigma == np.inf:
        raise InputError("eps_sigma must be finite")


def tail_count(m: int, alpha: float) -> int:
    """Number of tail members q = ceil(alpha * m)."""
    return int(ceil(alpha * m))


def check_size(m: int, bon_k: int | None = None, n_sel: int | None = None) -> None:
    """Raise ``InputError`` unless m >= 2, and 1 <= bon_k < m and n_sel < m for a bon_k or n_sel given."""
    if m < 2:
        raise InputError(f"need m >= 2 rewards, got {m}")
    if bon_k is not None and not 1 <= bon_k < m:
        raise InputError(f"need 1 <= bon_k < m, got bon_k={bon_k}, m={m}")
    if n_sel is not None and n_sel >= m:
        raise InputError(f"need n_sel < m, got n_sel={n_sel}, m={m}")


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


def _clipped(r: np.ndarray, mu: np.ndarray, sd: np.ndarray, eps_sigma: float):
    """(r, mu, sd clipped below by eps_sigma); raises ``DegenerateError`` naming the first non-finite entry."""
    sigma = np.maximum(sd, eps_sigma)
    # with finite rewards, an overflowing mean also makes sigma inf or nan
    check_finite(
        sigma,
        lambda *b: f"tail statistics overflow: r={float(r[b])}, mu={float(mu[b])}, sigma={float(sigma[b])}",
    )
    return r, mu, sigma


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
    mu, _, sd = row_moments(top)
    return _clipped(top[:, :1], mu, sd, eps_sigma)


def prefix_tail_stats(
    top: np.ndarray, counts: tuple[int, ...], eps_sigma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tail vectors (r, mu, sigma) of J nested prefixes of B groups, each of shape (J, B, 1).

    ``top`` is (J, B, q) with q = max(counts): row (j, b) holds the q largest
    rewards of prefix j of group b in ascending order, as the last q columns
    of a row sort leave them (behind -inf padding where the prefix is
    shorter than q), and prefix j's top slice is its last ``counts[j]``
    columns. Each slice gets the bits ``slice_tail_stats``
    gives it: the same sums over the same contiguous runs. The clip, the
    ``np.errstate`` requirement and the error are ``slice_tail_stats``'s;
    the error names the first non-finite (j, b), prefix by prefix.
    """
    n, starts, prefixes, first = _prefix_counts(tuple(counts), top.shape[2])
    sums = np.empty(top.shape[:2])
    for j, start in enumerate(starts):
        np.add.reduce(top[j, :, start:], axis=1, out=sums[j])
    mu = sums[:, :, None] / n
    dev = top - mu
    dev *= dev
    for j, start in enumerate(starts):
        np.add.reduce(dev[j, :, start:], axis=1, out=sums[j])
    # every prefix's r at once: entry (j, b) is top[j, b, starts[j]]
    return _clipped(top[prefixes, :, first][:, :, None], mu, np.sqrt(sums[:, :, None] / n), eps_sigma)


@lru_cache(maxsize=256)
def _prefix_counts(counts: tuple[int, ...], q: int):
    """The counts as (J, 1, 1) floats, each top slice's first column, and (0..J-1, those columns) as indices."""
    starts = tuple(q - c for c in counts)
    n = np.array(counts, dtype=float)[:, None, None]
    prefixes, first = np.arange(len(counts)), np.array(starts)
    n.flags.writeable = prefixes.flags.writeable = first.flags.writeable = False
    return n, starts, prefixes, first


def tail_stats(
    rewards: np.ndarray, alpha: float, eps_sigma: float = DEFAULT_EPS_SIGMA
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tail vector (r, mu, sigma) of each row of a (B, m) reward matrix.

    ``slice_tail_stats`` of the top-q slice of a row sort, with its shapes,
    clip and overflow error, its overflow warnings silenced. Needs m >= 2,
    and checks alpha and eps_sigma as ``RuleParams`` checks them.
    Rewards tied with the threshold beyond rank q are left out, which never
    changes (r, mu, sigma) because tied values are interchangeable.
    """
    check_alpha(alpha)
    check_eps_sigma(eps_sigma)
    m = rewards.shape[1]
    check_size(m)
    with np.errstate(over="ignore", invalid="ignore"):
        return slice_tail_stats(np.sort(rewards, axis=1)[:, m - tail_count(m, alpha) :], eps_sigma)

