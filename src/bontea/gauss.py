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
from statistics import NormalDist

import numpy as np

from .errors import DegenerateError, InputError, check_at_least, check_finite

#: Integration window for c_n; the integrand decays super-exponentially
#: outside |z| = 12 for every n up to 1e6.
_CN_WINDOW = 12.0
#: Composite Gauss-Legendre rule for c_n: panels across the window, each with
#: the 64 nodes of ``_LEGENDRE_64``.
_CN_PANELS = 48
#: (node, weight) of the 64-node Gauss-Legendre rule on [-1, 1] at its 32 positive
#: nodes, ascending, as hex floats: the bits of ``numpy.polynomial.legendre.leggauss(64)``,
#: whose nodes and weights are symmetric, held here so that set-up does not import it.
_LEGENDRE_64 = (
    ("0x1.8ef487a8cbc32p-6", "0x1.8ee0567ee2e5dp-5"),
    ("0x1.2afad5ee95ad0p-4", "0x1.8dee238192cdcp-5"),
    ("0x1.f182ff48e8a26p-4", "0x1.8c0a5097676c0p-5"),
    ("0x1.5b6e88ad5c00fp-3", "0x1.89360387fe3b9p-5"),
    ("0x1.bd489b79ec83bp-3", "0x1.8572f41fbb53dp-5"),
    ("0x1.0f0a26c56e49cp-2", "0x1.80c36b24bdd21p-5"),
    ("0x1.3ecb6c46c76cbp-2", "0x1.7b2a40f3ccde2p-5"),
    ("0x1.6dcb1f0620fffp-2", "0x1.74aadbc614fb9p-5"),
    ("0x1.9becb55272c9dp-2", "0x1.6d492da0c2510p-5"),
    ("0x1.c9142c5898fc5p-2", "0x1.6509b1efb8dfcp-5"),
    ("0x1.f52619257c3a1p-2", "0x1.5bf16accdf431p-5"),
    ("0x1.1003dca600f34p-1", "0x1.5205ddf5a36e2p-5"),
    ("0x1.24cf81925487fp-1", "0x1.474d117092830p-5"),
    ("0x1.38e95ace7b3c3p-1", "0x1.3bcd87e50de1ep-5"),
    ("0x1.4c4533c68b412p-1", "0x1.2f8e3ca7574e3p-5"),
    ("0x1.5ed74b4532f83p-1", "0x1.22969f7b5c8bdp-5"),
    ("0x1.70945a96f12c4p-1", "0x1.14ee9010d92e3p-5"),
    ("0x1.81719c62ec68ep-1", "0x1.069e593b92368p-5"),
    ("0x1.9164d335425e2p-1", "0x1.ef5d57d53b4b8p-6"),
    ("0x1.a0644fb6d8db8p-1", "0x1.d05133c3af946p-6"),
    ("0x1.ae66f68eedbc6p-1", "0x1.b02b2071c0c76p-6"),
    ("0x1.bb6445eadae2cp-1", "0x1.8efea34684612p-6"),
    ("0x1.c7545aa8c0dadp-1", "0x1.6cdfe10bba36ep-6"),
    ("0x1.d22ff5221288ap-1", "0x1.49e391bd2143cp-6"),
    ("0x1.dbf07d935a5afp-1", "0x1.261ef40a7a2d6p-6"),
    ("0x1.e490081f2891bp-1", "0x1.01a7c0a5c98d9p-6"),
    ("0x1.ec09586b58faap-1", "0x1.b9283b35df8d9p-7"),
    ("0x1.f257e4db5aabcp-1", "0x1.6df524de84deap-7"),
    ("0x1.f777d976cfadap-1", "0x1.21e400109d33cp-7"),
    ("0x1.fb661ac8c85a9p-1", "0x1.aa46b24145aa3p-8"),
    ("0x1.fe204ab274eccp-1", "0x1.0fc7ac3ac3b55p-8"),
    ("0x1.ffa4e911f7533p-1", "0x1.d379f1845dadfp-10"),
)

#: Default number of quantile levels in the QQ fit window.
DEFAULT_QQ_GRID = 20
#: Most quantile levels in a QQ fit window. A fit holds a few (rows, grid)
#: matrices, so the grid bounds the memory each row of a batch takes.
MAX_QQ_GRID = 10_000

_SQRT_2PI = np.sqrt(2 * np.pi)
_SQRT_HALF = float(np.sqrt(0.5))
#: Standard normal quantile Phi^-1(p) for p in (0, 1): Wichura's AS241, about 1e-16 relative.
_NORMAL_QUANTILE = NormalDist().inv_cdf

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


def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 64-node Gauss-Legendre rule on [-1, 1], nodes ascending."""
    half_nodes, half_weights = (np.array([float.fromhex(v) for v in column]) for column in zip(*_LEGENDRE_64))
    return np.concatenate([-half_nodes[::-1], half_nodes]), np.concatenate([half_weights[::-1], half_weights])


@lru_cache(maxsize=1)
def _cn_rule() -> tuple[np.ndarray, np.ndarray]:
    """Weights w z phi(z) and log Phi(z) at the nodes z of the composite rule for c_n.

    log Phi(z) is log1p(-Phi(-z)) for z >= 0, so Phi(z)^(n-1) keeps its
    relative accuracy where Phi(z) is near 1 and n is large.
    """
    nodes, weights = _legendre_rule()
    half = _CN_WINDOW / _CN_PANELS
    mids = -_CN_WINDOW + half * (2 * np.arange(_CN_PANELS) + 1)
    z = (mids[:, None] + half * nodes).ravel()
    with np.errstate(divide="ignore"):  # the unused log1p(-1) at z = -12
        log_cdf = np.where(z < 0.0, np.log(ndtr(z)), np.log1p(-ndtr(-z)))
    return np.tile(half * weights, _CN_PANELS) * z * norm_pdf(z), log_cdf


def expected_gauss_max(n: int) -> float:
    """E[max of n iid standard normals] by composite Gauss-Legendre quadrature.

    Exact zero for n = 1; otherwise integrates n z phi(z) Phi(z)^(n-1) over
    [-12, 12] in 48 panels of 64 nodes, within a few 1e-15 relative of a
    50-digit evaluation for n up to 1e6.
    """
    check_at_least("n", n, 1)
    if n == 1:
        return 0.0
    weights, log_cdf = _cn_rule()
    return float(n * (weights @ np.exp((n - 1) * log_cdf)))


def check_alpha(alpha: float) -> None:
    """Raise ``InputError`` unless alpha lies in (0, 1/2) and z_alpha = Phi^-1(1 - alpha) exists."""
    if not 0.0 < alpha < 0.5:
        raise InputError(f"alpha must lie in (0, 1/2), got {alpha}")
    if 1.0 - alpha == 1.0:
        raise InputError(f"alpha {alpha} is too small: 1 - alpha rounds to 1")


@lru_cache(maxsize=None)
def tail_constants(alpha: float, n: int) -> TailConstants:
    """Tail constants (z, lambda, delta, c_n, c_tilde_n) for one (alpha, n)."""
    check_alpha(alpha)
    check_at_least("n", n, 1)
    z_alpha = _NORMAL_QUANTILE(1.0 - alpha)
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
    one per budget, give a (B, budgets) table. A prediction that overflows
    raises ``DegenerateError`` naming the first one's operands, in C order.
    """
    if np.any(np.asarray(sigma) <= 0):
        raise InputError(f"tail sigma must be positive, got {np.min(sigma)}")
    with np.errstate(over="ignore", invalid="ignore"):
        values = mu + c_tilde_n * sigma

    def overflow(*index: int) -> str:
        mu_i, sigma_i, c_i = (float(a[index]) for a in np.broadcast_arrays(mu, sigma, c_tilde_n))
        return f"predicted best-of-N value overflows: mu={mu_i}, sigma={sigma_i}, c_tilde_n={c_i}"

    check_finite(values, overflow)
    return values


@lru_cache(maxsize=None)
def qq_window(q_lo: float, q_hi: float, grid_points: int = DEFAULT_QQ_GRID) -> tuple[np.ndarray, np.ndarray]:
    """Levels of a QQ fit window and Phi^-1 of each, read-only; a bad window raises ``InputError``."""
    if not 0.0 < q_lo < q_hi < 1.0:
        raise InputError(f"need 0 < q_lo < q_hi < 1, got ({q_lo}, {q_hi})")
    if not 2 <= grid_points <= MAX_QQ_GRID:
        raise InputError(f"grid_points must lie in [2, {MAX_QQ_GRID}], got {grid_points}")
    levels = np.linspace(q_lo, q_hi, grid_points)
    x = np.array([_NORMAL_QUANTILE(level) for level in levels.tolist()])
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
        y = _window_quantiles(samples, levels)
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


def _window_quantiles(samples: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Each row's quantiles at ``levels``, a C-contiguous (B, grid) matrix, from one sort per row.

    This is ``np.quantile(samples, levels, axis=1).T`` step for step: index
    v = (m - 1) level, below m - 1 as every level is below 1; the lerp between
    order statistics floor(v) and floor(v) + 1, written a + d t below t = 1/2
    and b - d (1 - t) from there; and a row holding a NaN all NaN. Only the
    sign of a zero quantile may differ, since NumPy's partition and this sort
    may order -0.0 and 0.0 differently; the fit's sums, deviations and squares
    give the same bits either way.
    """
    v = (samples.shape[1] - 1) * levels
    lower = np.floor(v)
    t = v - lower
    lo = lower.astype(np.intp)
    ordered = np.sort(samples, axis=1)
    a, b = np.take(ordered, lo, axis=1), np.take(ordered, lo + 1, axis=1)  # C order, as the row sums need
    d = b - a
    y = np.where(t >= 0.5, b - d * (1 - t), a + d * t)
    np.copyto(y, ordered[:, -1:], where=np.isnan(ordered[:, -1:]))
    return y
