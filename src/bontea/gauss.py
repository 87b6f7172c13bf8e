"""Gaussian-tail constants, the best-of-N scaling-law predictor, and the QQ fit.

For a tail level alpha the constants are

    z_alpha      = Phi^-1(1 - alpha)                 (upper-alpha quantile)
    lambda_alpha = phi(z_alpha) / alpha              (tail mean of a std normal)
    delta_alpha  = 1 + z_alpha lambda_alpha - lambda_alpha^2   (tail variance)
    c_n          = E[max of n iid std normals]
    c_tilde_n    = (c_n - lambda_alpha) / sqrt(delta_alpha)

For a Gaussian reward with tail vector (r, mu, sigma) the best-of-N value obeys
the identity mu + c_tilde_n * sigma = mu_pop + c_n * sigma_pop, which is what
``predict_vn`` extrapolates from an empirical tail vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.special import ndtr, ndtri

from .errors import DegenerateError, InputError
from .tailstats import TailVector

#: Integration window for c_n; the integrand decays super-exponentially
#: outside |z| = 12 for every n up to 1e6.
_CN_WINDOW = 12.0
_CN_ABS_TOL = 1e-10

#: Default number of quantile levels in the QQ fit window.
DEFAULT_QQ_GRID = 20

_SQRT_2PI = np.sqrt(2 * np.pi)


@dataclass(frozen=True)
class TailConstants:
    """All tail constants for one (alpha, n) pair."""

    alpha: float
    n: int
    z_alpha: float
    lambda_alpha: float
    delta_alpha: float
    c_n: float
    c_tilde_n: float


@dataclass(frozen=True)
class QqFit:
    """Affine fit of empirical upper-tail quantiles against normal quantiles."""

    a: float
    b: float
    r_squared: float
    q_lo: float
    q_hi: float


def norm_pdf(x: float | np.ndarray) -> float | np.ndarray:
    """Standard normal density exp(-x^2/2) / sqrt(2 pi), as scipy.stats.norm.pdf."""
    x = np.asarray(x, dtype=float)
    return np.exp(-(x**2) / 2.0) / _SQRT_2PI


@lru_cache(maxsize=None)
def expected_gauss_max(n: int) -> float:
    """E[max of n iid standard normals] by adaptive quadrature.

    Exact zero for n = 1; otherwise integrates n z phi(z) Phi(z)^(n-1) over
    [-12, 12] to absolute tolerance 1e-10.
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if n == 1:
        return 0.0

    def integrand(z: float) -> float:
        return z * n * norm_pdf(z) * ndtr(z) ** (n - 1)

    value, _ = integrate.quad(
        integrand, -_CN_WINDOW, _CN_WINDOW, epsabs=_CN_ABS_TOL, epsrel=1e-12, limit=400
    )
    return float(value)


@lru_cache(maxsize=None)
def tail_constants(alpha: float, n: int) -> TailConstants:
    """Tail constants (z, lambda, delta, c_n, c_tilde_n) for one (alpha, n)."""
    if not 0.0 < alpha < 0.5:
        raise InputError(f"alpha must lie in (0, 1/2), got {alpha}")
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    z_alpha = float(ndtri(1.0 - alpha))
    lambda_alpha = float(norm_pdf(z_alpha) / alpha)
    delta_alpha = 1.0 + z_alpha * lambda_alpha - lambda_alpha**2
    c_n = expected_gauss_max(n)
    return TailConstants(
        alpha=alpha,
        n=n,
        z_alpha=z_alpha,
        lambda_alpha=lambda_alpha,
        delta_alpha=delta_alpha,
        c_n=c_n,
        c_tilde_n=(c_n - lambda_alpha) / np.sqrt(delta_alpha),
    )


def predict_vn(tail: TailVector, constants: TailConstants) -> float:
    """Best-of-N value predicted from a tail vector: mu + c_tilde_n * sigma."""
    if tail.sigma <= 0:
        raise InputError(f"tail sigma must be positive, got {tail.sigma}")
    return tail.mu + constants.c_tilde_n * tail.sigma


def qq_tail_fit(
    samples: np.ndarray,
    q_lo: float,
    q_hi: float,
    grid_points: int = DEFAULT_QQ_GRID,
) -> QqFit:
    """Least-squares affine fit of upper-tail sample quantiles to Phi^-1(q).

    Quantiles use linear interpolation between order statistics (numpy's
    default, type 7). Raises ``DegenerateError`` when every quantile in the
    window is equal, since R^2 is undefined there.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 20:
        raise InputError(f"need at least 20 samples, got {samples.size}")
    if not 0.0 < q_lo < q_hi < 1.0:
        raise InputError(f"need 0 < q_lo < q_hi < 1, got ({q_lo}, {q_hi})")
    if grid_points < 2:
        raise InputError(f"grid_points must be >= 2, got {grid_points}")
    levels = np.linspace(q_lo, q_hi, grid_points)
    y = np.quantile(samples, levels)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise DegenerateError("all quantiles in the fit window are equal; R^2 undefined")
    x = ndtri(levels)
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    r_squared = 1.0 - float(resid @ resid) / ss_tot
    return QqFit(a=float(coef[0]), b=float(coef[1]), r_squared=r_squared, q_lo=q_lo, q_hi=q_hi)
