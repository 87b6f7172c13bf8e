"""Independent reference math for the benchmark's output checks.

Nothing here imports ``bontea``: each quantity the program computes is
recomputed from the paper's formulas with NumPy and the standard library
(``statistics.NormalDist`` for the Gaussian density, CDF and quantile), so a
check compares two implementations rather than a program against a stored
copy of its own output.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

STD_NORMAL = NormalDist()
_erf = np.frompyfunc(math.erf, 1, 1)


def norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * np.square(z)) / math.sqrt(2.0 * math.pi)


def norm_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _erf(np.asarray(z, dtype=float) / math.sqrt(2.0)).astype(float))


def simpson(f_values: np.ndarray, h: float) -> float:
    """Composite Simpson rule over an odd number of equally spaced points."""
    return float(h / 3.0 * (f_values[0] + f_values[-1] + 4.0 * f_values[1:-1:2].sum()
                            + 2.0 * f_values[2:-1:2].sum()))


def integrate(f, lo: float, hi: float, points: int = 40_001) -> float:
    """Simpson integral of a vectorised f over [lo, hi]."""
    z = np.linspace(lo, hi, points)
    return simpson(f(z), (hi - lo) / (points - 1))


def expected_gauss_max(n: int) -> float:
    """c_n = E[max of n iid standard normals] = int z n phi(z) Phi(z)^(n-1) dz."""
    if n == 1:
        return 0.0
    return integrate(lambda z: z * n * norm_pdf(z) * norm_cdf(z) ** (n - 1), -12.0, 12.0)


def tail_constants(alpha: float, n: int) -> dict[str, float]:
    """z_alpha, lambda_alpha, delta_alpha, c_n and c_tilde_n for one (alpha, n)."""
    z = STD_NORMAL.inv_cdf(1.0 - alpha)
    lam = STD_NORMAL.pdf(z) / alpha
    delta = 1.0 + z * lam - lam * lam
    c_n = expected_gauss_max(n)
    return {"z": z, "lambda": lam, "delta": delta, "c_n": c_n,
            "c_tilde": (c_n - lam) / math.sqrt(delta)}


def tail_vector(rewards: np.ndarray, alpha: float, eps_sigma: float = 1e-6) -> tuple[float, float, float]:
    """(r, mu, sigma) of the top q = ceil(alpha m) rewards, found by a full sort."""
    q = math.ceil(alpha * rewards.size)
    top = np.sort(rewards)[::-1][:q]
    return float(top[-1]), float(top.mean()), max(float(top.std()), eps_sigma)


def shaped_reward(u: np.ndarray, r: float, mu: float, sigma: float, c_tilde: float) -> np.ndarray:
    return (u - r) + c_tilde / (2.0 * sigma) * ((u - mu) ** 2 - (r - mu) ** 2)


def tea_raw(rewards: np.ndarray, alpha: float, c_tilde: float) -> np.ndarray:
    r, mu, sigma = tail_vector(rewards, alpha)
    return np.where(rewards >= r, shaped_reward(rewards, r, mu, sigma, c_tilde) / alpha, 0.0)


def tea(rewards: np.ndarray, alpha: float, c_tilde: float) -> np.ndarray:
    """Positive part of the raw tail-shaped advantage, centred to sum zero."""
    pos = np.maximum(tea_raw(rewards, alpha, c_tilde), 0.0)
    return pos - pos.mean()


def grpo_z(rewards: np.ndarray, eps_norm: float = 1e-8) -> np.ndarray:
    return (rewards - rewards.mean()) / (rewards.std() + eps_norm)


def prefix_sizes(m: int, j_count: int) -> list[int]:
    """Practical prefixes m_j = round(m (J + j) / 2J), half away from zero."""
    return [int(math.floor(m * (j_count + j) / (2 * j_count) + 0.5)) for j in range(1, j_count + 1)]


def cancellation_weights(m: int, sizes: list[int], k: int) -> np.ndarray:
    """Minimum-norm w with sum w = 1 and sum w z^l = 0 (l < k), by least squares."""
    z = m / np.asarray(sizes, dtype=float)
    a = np.vstack([z**ell for ell in range(k)])
    rhs = np.zeros(k)
    rhs[0] = 1.0
    w, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return w


def prefix_tea(rewards: np.ndarray, alpha: float, c_tilde: float,
               k: int = 2, j_count: int = 4) -> np.ndarray:
    m = rewards.size
    sizes = prefix_sizes(m, j_count)
    combined = np.zeros(m)
    for w, size in zip(cancellation_weights(m, sizes, k), sizes):
        combined[:size] += w * (m / size) * np.maximum(tea_raw(rewards[:size], alpha, c_tilde), 0.0)
    return combined - combined.mean()


def lab_true_gradient(alpha: float, n_target: int, thresholds: tuple[float, ...]) -> np.ndarray:
    """g_c = (1/alpha) int_{z_alpha}^inf R_tilde(z) (1{z >= t_c} - sbar_c) phi(z) dz.

    The integrand jumps at t_c, so each piece is integrated on its own.
    """
    const = tail_constants(alpha, n_target)
    z_a, lam, sdel = const["z"], const["lambda"], math.sqrt(const["delta"])

    def piece(score: float):
        return lambda z: shaped_reward(z, z_a, lam, sdel, const["c_tilde"]) * score * norm_pdf(z) / alpha

    out = []
    for t in thresholds:
        sbar = 1.0 - STD_NORMAL.cdf(t)
        cut = min(max(t, z_a), 12.0)
        out.append(integrate(piece(-sbar), z_a, cut) + integrate(piece(1.0 - sbar), cut, 12.0))
    return np.asarray(out)


def discrete_max_moments(values: np.ndarray, probs: np.ndarray, n: int) -> tuple[float, float]:
    """Exact mean and variance of the max of n iid draws from a finite distribution.

    P(max = v) = F(v)^n - F(v-)^n over the distinct support points v.
    """
    order = np.argsort(values, kind="stable")
    v, p = values[order], probs[order]
    support, start = np.unique(v, return_index=True)
    cdf = np.cumsum(np.add.reduceat(p, start))
    cdf = np.minimum(cdf / cdf[-1], 1.0)
    prev = np.concatenate([[0.0], cdf[:-1]])
    mass = cdf**n - prev**n
    mean = float(support @ mass)
    return mean, float(np.square(support) @ mass - mean * mean)


def softmax(theta: np.ndarray) -> np.ndarray:
    e = np.exp(theta - theta.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)
