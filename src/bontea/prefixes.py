"""Prefix sizes and fixed-order moment-cancellation weights.

A prefix scheme for a group of size m is a set of nested budgets
m_1 < ... < m_J together with weights w solving the order-k system

    sum_j w_j = 1,      sum_j w_j z_j^l = 0  for l = 1..k-1,   z_j = m / m_j,

taken as the minimum-norm solution w = A^T (A A^T)^-1 e_0 with A_{lj} = z_j^l.
Combining prefix-restricted estimators with these weights cancels the first
k-1 inverse-budget bias terms while keeping the weight norm bounded.

Two size constructions are provided: ``practical_prefixes`` (evenly spread
ratios ending at the full group, m_j = round(m (J+j) / 2J)) and
``theory_prefixes`` (ratios rho_j = 1/2 + j/(2(J+1)) rounded down to multiples
of alpha's denominator so every alpha * n_j is an integer). ``combine`` is
the one place per-prefix estimates are summed with their coefficients, for
the advantage rule and the lab alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

import numpy as np

from .errors import InputError, check_at_least

_WEIGHT_SUM_TOL = 1e-10
_MOMENT_TOL = 1e-8


@dataclass(frozen=True)
class PrefixScheme:
    """Prefix sizes, ratios z_j = m/m_j, and order-k cancellation weights."""

    m: int
    k: int
    j_count: int
    sizes: tuple[int, ...]
    ratios: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        w = np.asarray(self.weights)
        z = np.asarray(self.ratios)
        if abs(w.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise InputError(f"weights must sum to 1, got {w.sum()!r}")
        for ell in range(1, self.k):
            moment = float(w @ z**ell)
            if abs(moment) > _MOMENT_TOL:
                raise InputError(f"order-{ell} moment {moment!r} not cancelled")
        if list(self.sizes) != sorted(set(self.sizes)) or any(s < 2 for s in self.sizes):
            raise InputError(f"sizes must be strictly increasing and >= 2, got {self.sizes}")


def practical_prefixes(m: int, j_count: int) -> tuple[int, ...]:
    """Sizes m_j = round(m (J+j) / 2J), j = 1..J; the last prefix is m itself.

    Rounding is half away from zero. Raises on collisions (two equal sizes),
    which occur when m is too small for the requested J.
    """
    check_at_least("j_count", j_count, 1)
    if m < 2 * j_count:
        raise InputError(f"need m >= 2J, got m={m}, J={j_count}")
    sizes = tuple(int(floor(m * (j_count + j) / (2 * j_count) + 0.5)) for j in range(1, j_count + 1))
    if len(set(sizes)) != j_count:
        raise InputError(f"prefix collision for m={m}, J={j_count}: {sizes}")
    return sizes


def theory_prefixes(n: int, j_count: int, alpha: Fraction | float) -> tuple[int, ...]:
    """Sizes n_j = q * floor(rho_j n / q) with rho_j = 1/2 + j/(2(J+1)).

    q is the denominator of alpha in lowest terms (floats are converted via
    ``Fraction.limit_denominator(10**6)``), so alpha * n_j is an exact integer
    and the tail count has zero rounding offset. Raises when n is too small
    for the sizes to be distinct.
    """
    check_at_least("j_count", j_count, 1)
    frac = alpha if isinstance(alpha, Fraction) else Fraction(alpha).limit_denominator(10**6)
    if not 0 < frac < Fraction(1, 2):
        raise InputError(f"alpha must lie in (0, 1/2), got {alpha}")
    q = frac.denominator
    sizes = []
    for j in range(1, j_count + 1):
        rho = Fraction(1, 2) + Fraction(j, 2 * (j_count + 1))
        sizes.append(int(q * ((rho * n) // q)))
    if len(set(sizes)) != j_count:
        raise InputError(f"theory prefixes collide for n={n}, J={j_count}: {tuple(sizes)}")
    if sizes[0] < max(q, 2):
        raise InputError(f"smallest prefix {sizes[0]} below the tail denominator {q}")
    return tuple(sizes)


def cancellation_weights(m: int, sizes: tuple[int, ...] | list[int], k: int) -> tuple[float, ...]:
    """Minimum-norm weights cancelling inverse-budget moments up to order k-1.

    Builds A with rows (z_j^l) for l = 0..k-1, z_j = m/m_j, and returns
    w = A^T (A A^T)^-1 e_0. Rows are normalized by their largest entry before
    the k x k Gram solve (partial-pivot elimination); the minimum-norm solution
    is invariant to that row scaling.
    """
    sizes = tuple(int(s) for s in sizes)
    j_count = len(sizes)
    if not 1 <= k <= j_count:
        raise InputError(f"need 1 <= k <= J, got k={k}, J={j_count}")
    if len(set(sizes)) != j_count:
        raise InputError(f"prefix sizes must be distinct, got {sizes}")
    z = m / np.asarray(sizes, dtype=float)
    a = np.vstack([z**ell for ell in range(k)])
    row_scale = np.abs(a).max(axis=1)
    a_scaled = a / row_scale[:, None]
    e0_scaled = np.zeros(k)
    e0_scaled[0] = 1.0 / row_scale[0]
    coef = np.linalg.solve(a_scaled @ a_scaled.T, e0_scaled)
    return tuple(float(v) for v in a_scaled.T @ coef)


def build_scheme(m: int, k: int, j_count: int) -> PrefixScheme:
    """Practical prefix scheme for a group of size m: sizes, ratios and order-k weights."""
    sizes = practical_prefixes(m, j_count)
    weights = cancellation_weights(m, sizes, k)
    ratios = tuple(m / s for s in sizes)
    return PrefixScheme(m=m, k=k, j_count=j_count, sizes=sizes, ratios=ratios, weights=weights)


def combine(coefficients: np.ndarray, per_prefix: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_j c_j x_j over the leading prefix axis of ``per_prefix``, which is scaled in place.

    ``coefficients`` is shaped (J, 1, ...) to broadcast against the (J, ...)
    stack. The terms are added one at a time from 0, in j order, as one
    prefix at a time would add them: ``np.add.reduce`` over the leading axis
    sums 8 or more terms pairwise when the other axes hold a single value.
    """
    per_prefix *= coefficients
    out = np.add(0.0, per_prefix[0], out=out)
    for term in per_prefix[1:]:
        out += term
    return out
