"""Gaussian-tail constants, the best-of-N scaling-law predictor, and the QQ fit.

For a tail level alpha the constants are

    z_alpha      = Phi^-1(1 - alpha)                 (upper-alpha quantile)
    lambda_alpha = phi(z_alpha) / alpha              (tail mean of a std normal)
    delta_alpha  = 1 + z_alpha lambda_alpha - lambda_alpha^2   (tail variance)
    c_n          = E[max of n iid std normals]
    c_tilde_n    = (c_n - lambda_alpha) / sqrt(delta_alpha)

For a Gaussian reward with tail vector (r, mu, sigma) the best-of-N value obeys
the identity mu + c_tilde_n * sigma = mu_pop + c_n * sigma_pop, which is what
``predict_vn`` extrapolates from empirical tail statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateError, InputError, check_finite

#: Integration window for c_n; the integrand decays super-exponentially
#: outside |z| = 12 for every n up to 1e6.
_CN_WINDOW = 12.0
#: Composite Gauss-Legendre rule for c_n: panels across the window, nodes per panel.
_CN_PANELS = 48
_CN_NODES = 64

#: Default number of quantile levels in the QQ fit window.
DEFAULT_QQ_GRID = 20

_SQRT_2PI = np.sqrt(2 * np.pi)
_SQRT_HALF = float(np.sqrt(0.5))

# Cephes' erf/erfc rational fits (Moshier), as used by scipy.special.ndtr;
# coefficients run from the highest power down, and a leading 1.0 marks a
# monic denominator.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)

# Wichura's AS241 (PPND16) rational fits, as in statistics.NormalDist.inv_cdf:
# the central one in r = 0.180625 - q^2, the tail ones in s - 1.6 and s - 5
# with s = sqrt(-log(min(p, 1 - p))).
_AS241_A = (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
            4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
            1.3314166789178437745e2, 3.3871328727963666080e0)
_AS241_B = (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
            2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
            4.2313330701600911252e1, 1.0)
_AS241_C = (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
            1.2704582524523683826e0, 3.6478483247632046050e0, 5.7694972214606914055e0,
            4.6303378461565452959e0, 1.4234371107496835773e0)
_AS241_D = (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
            1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
            2.0531916266377588219e0, 1.0)
_AS241_E = (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
            2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
            5.4637849111641143699e0, 6.6579046435011037772e0)
_AS241_F = (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
            7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
            5.9983220655588793769e-1, 1.0)


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


def norm_pdf(x: float | np.ndarray) -> float | np.ndarray:
    """Standard normal density exp(-x^2/2) / sqrt(2 pi), as scipy.stats.norm.pdf."""
    x = np.asarray(x, dtype=float)
    return np.exp(-(x**2) / 2.0) / _SQRT_2PI


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Horner's rule, highest power first, in Cephes' operation order."""
    y = x * coef[0] + coef[1]
    for c in coef[2:]:
        y *= x
        y += c
    return y


def ndtr(x: float | np.ndarray) -> np.ndarray:
    """Standard normal CDF Phi(x), elementwise.

    Cephes' ndtr, the algorithm of scipy.special.ndtr: with u = x / sqrt(2),
    0.5 + 0.5 erf(u) for |u| < sqrt(1/2) and otherwise 0.5 erfc(|u|),
    reflected for u > 0, where erfc is 1 - erf below 1 and a rational fit
    times exp(-u^2) above. Each fit is evaluated only on the elements it serves.
    """
    x = np.asarray(x, dtype=float)
    u = np.clip(x.reshape(-1), -40.0, 40.0) * _SQRT_HALF  # Phi is 0 or 1 beyond |x| = 38.5
    u2 = u * u
    erf = u * _polevl(u2, _ERF_T) / _polevl(u2, _ERF_U)
    out = 0.5 + 0.5 * erf
    tail = np.abs(u) >= _SQRT_HALF
    if tail.any():
        a = np.abs(u[tail])
        erfc = 1.0 - np.abs(erf[tail])
        mid = a >= 1.0
        if mid.any():
            am = a[mid]
            num, den = _polevl(am, _ERFC_P), _polevl(am, _ERFC_Q)
            far = am >= 8.0
            if far.any():
                num[far], den[far] = _polevl(am[far], _ERFC_R), _polevl(am[far], _ERFC_S)
            erfc[mid] = np.exp(-(am * am)) * num / den
        half = 0.5 * erfc
        out[tail] = np.where(u[tail] > 0.0, 1.0 - half, half)
    return out.reshape(x.shape)


def ndtri(p: float | np.ndarray) -> np.ndarray:
    """Standard normal quantile Phi^-1(p), elementwise, for p in (0, 1).

    Wichura's AS241 (PPND16), the algorithm of statistics.NormalDist.inv_cdf,
    accurate to about 1e-16 relative.
    """
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    r = 0.180625 - q * q
    central = q * _polevl(r, _AS241_A) / _polevl(r, _AS241_B)
    s = np.sqrt(-np.log(np.where(q <= 0.0, p, 1.0 - p)))
    near, far = s - 1.6, s - 5.0
    tail = np.where(
        s <= 5.0,
        _polevl(near, _AS241_C) / _polevl(near, _AS241_D),
        _polevl(far, _AS241_E) / _polevl(far, _AS241_F),
    )
    return np.where(np.abs(q) <= 0.425, central, np.where(q < 0.0, -tail, tail))


@lru_cache(maxsize=1)
def _cn_rule() -> tuple[np.ndarray, np.ndarray]:
    """Weights w z phi(z) and log Phi(z) at the nodes z of the composite rule for c_n.

    log Phi(z) is log1p(-Phi(-z)) for z >= 0, so Phi(z)^(n-1) keeps its
    relative accuracy where Phi(z) is near 1 and n is large.
    """
    nodes, weights = np.polynomial.legendre.leggauss(_CN_NODES)
    half = _CN_WINDOW / _CN_PANELS
    mids = -_CN_WINDOW + half * (2 * np.arange(_CN_PANELS) + 1)
    z = (mids[:, None] + half * nodes).ravel()
    with np.errstate(divide="ignore"):  # the unused log1p(-1) at z = -12
        log_cdf = np.where(z < 0.0, np.log(ndtr(z)), np.log1p(-ndtr(-z)))
    return np.tile(half * weights, _CN_PANELS) * z * norm_pdf(z), log_cdf


@lru_cache(maxsize=None)
def expected_gauss_max(n: int) -> float:
    """E[max of n iid standard normals] by composite Gauss-Legendre quadrature.

    Exact zero for n = 1; otherwise integrates n z phi(z) Phi(z)^(n-1) over
    [-12, 12] in 48 panels of 64 nodes, within a few 1e-15 relative of a
    50-digit evaluation for n up to 1e6.
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if n == 1:
        return 0.0
    weights, log_cdf = _cn_rule()
    return float(n * (weights @ np.exp((n - 1) * log_cdf)))


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


def predict_vn(
    mu: float | np.ndarray, sigma: float | np.ndarray, c_tilde_n: float | np.ndarray
) -> float | np.ndarray:
    """Best-of-N value predicted from a tail mean and spread: mu + c_tilde_n * sigma.

    The arguments broadcast: (B, 1) tail statistics against a row of c_tilde_n,
    one per budget, give a (B, budgets) table.
    """
    if np.any(np.asarray(sigma) <= 0):
        raise InputError(f"tail sigma must be positive, got {np.min(sigma)}")
    return mu + c_tilde_n * sigma


@lru_cache(maxsize=None)
def qq_window(q_lo: float, q_hi: float, grid_points: int = DEFAULT_QQ_GRID) -> tuple[np.ndarray, np.ndarray]:
    """Levels of a QQ fit window and Phi^-1 of each, read-only; a bad window raises ``InputError``."""
    if not 0.0 < q_lo < q_hi < 1.0:
        raise InputError(f"need 0 < q_lo < q_hi < 1, got ({q_lo}, {q_hi})")
    if grid_points < 2:
        raise InputError(f"grid_points must be >= 2, got {grid_points}")
    levels = np.linspace(q_lo, q_hi, grid_points)
    x = ndtri(levels)
    levels.setflags(write=False)
    x.setflags(write=False)
    return levels, x


def qq_tail_fits(samples: np.ndarray, q_lo: float, q_hi: float, grid_points: int = DEFAULT_QQ_GRID) -> tuple:
    """(a, b, R^2), each (B,): the least-squares line a + b Phi^-1(level) through each row's quantiles.

    ``samples`` is (B, m). The line is in closed form over deviations from the
    means, each sum along a row of a C-contiguous (B, grid) matrix, so a row
    has the same bits at any B. Quantiles interpolate linearly between order
    statistics (numpy's default, type 7). A row whose window quantiles are all
    equal, or differ by so little that the sum of their squared deviations
    underflows to 0 (R^2 undefined either way, each with its own message), or
    whose fit is not finite raises ``DegenerateError``.
    """
    if samples.shape[1] < 20:
        raise InputError(f"need at least 20 samples, got {samples.shape[1]}")
    levels, x = qq_window(q_lo, q_hi, grid_points)
    x_mean = np.add.reduce(x) / grid_points
    xc = x - x_mean
    with np.errstate(all="ignore"):
        y = np.ascontiguousarray(np.quantile(samples, levels, axis=1).T)
        y_mean = np.add.reduce(y, axis=1) / grid_points
        yc = y - y_mean[:, None]
        b = np.add.reduce(yc * xc, axis=1) / np.add.reduce(xc * xc)
        resid, ss_tot = yc - b[:, None] * xc, np.add.reduce(yc * yc, axis=1)
        fit = y_mean - b * x_mean, b, 1.0 - np.add.reduce(resid * resid, axis=1) / ss_tot
    undefined = np.flatnonzero(ss_tot == 0.0)
    if undefined.size:
        if (y[undefined[0]] == y[undefined[0], 0]).all():
            raise DegenerateError("all quantiles in the fit window are equal; R^2 undefined")
        raise DegenerateError(
            "the quantiles in the fit window differ, but their spread underflows to 0; R^2 undefined"
        )
    check_finite(fit, lambda *_: "QQ fit overflow: a, b or R^2 is not finite")
    return fit

