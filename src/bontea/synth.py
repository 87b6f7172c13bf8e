"""Synthetic Gaussian-tail laboratory: exact gradients and bias/variance tables.

The lab draws rewards Z ~ N(0,1) with the bounded score
S_c(Z) = 1{Z >= t_c} - (1 - Phi(t_c)) per threshold t_c, so the target
gradient g = (1/alpha) E[1{Z >= z_alpha} R_tilde_eta(Z) S(Z)] has an exact
quadrature value. ``estimator_bias_variance`` measures any advantage rule's
induced gradient (1/m) sum_i A_i S(Z_i) against that target over many
replications; for the TEA family the raw (uncentered, 1/alpha-weighted)
estimator is measured so the target is the population tail gradient.

The prefix rule is measured on its cross-fitted split-halves form: the tail
vector comes from batch A, the score average from batch B, and the bias is
Rao-Blackwellized over the evaluation split — conditional on A the estimator's
mean is H(eta_hat) = (1/alpha) int_r^inf R_tilde(z) S(z) phi(z) dz, available
in closed form. A control-variate layer (prefix tail moments with exactly
known means, coefficients fit on a pilot block and applied only beyond it)
removes most of the remaining tail-vector noise without biasing the mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.special import ndtr

from .advantages import RuleParams, compute_rule
from .errors import DegenerateError, InputError
from .gauss import norm_pdf, tail_constants
from .prefixes import cancellation_weights, theory_prefixes
from .tailstats import DEFAULT_EPS_SIGMA, RewardGroup, TailVector, empirical_tail_vector, tail_count

#: Replications are processed in fixed-size blocks; each block draws from its
#: own SeedSequence-derived child stream, so a row's draws depend only on its
#: seed and replication count, not on how blocks are scheduled.
BLOCK_SIZE = 4096
#: Pilot replications used to fit control-variate coefficients.
PILOT_SIZE = 50_000
#: Default Monte Carlo prompt-batch grid for the MSE frontier.
DEFAULT_P_GRID = (1, 2048, 65536)


@dataclass(frozen=True)
class SyntheticSpec:
    """Lab configuration: tail level, target N, and score thresholds."""

    alpha: float = 0.25
    n_target: int = 128
    score_thresholds: tuple[float, ...] = (1.0, 1.5)

    def __post_init__(self) -> None:
        if not all(np.isfinite(self.score_thresholds)):
            raise InputError("score thresholds must be finite")
        if not 0.0 < self.alpha < 0.5:
            raise InputError(f"alpha must lie in (0, 1/2), got {self.alpha}")


@dataclass(frozen=True)
class BiasVarianceRow:
    """One (rule, m) measurement: bias vector/norm, variance trace, MSE map."""

    estimator_tag: str
    m: int
    bias_vec: np.ndarray
    bias_norm: float
    variance: float
    mse_at_p: dict[int, float]
    replications: int
    seed: int
    bias_se: np.ndarray
    variance_se: float


@dataclass(frozen=True)
class MseFrontier:
    """Rows per (rule, m) plus the log10 MSE ratio prefix-tea / tea."""

    rows: list[BiasVarianceRow]
    m_grid: tuple[int, ...]
    p_grid: tuple[int, ...]
    ratio_log10: np.ndarray | None


@lru_cache(maxsize=None)
def _spec_constants(spec: SyntheticSpec):
    consts = tail_constants(spec.alpha, spec.n_target)
    thresholds = np.asarray(spec.score_thresholds, dtype=float)
    return consts, thresholds, 1.0 - ndtr(thresholds)


def population_tail_vector(spec: SyntheticSpec) -> TailVector:
    """Population tail vector (z_alpha, lambda_alpha, sqrt(delta_alpha))."""
    consts, _, _ = _spec_constants(spec)
    return TailVector(
        r=consts.z_alpha,
        mu=consts.lambda_alpha,
        sigma=float(np.sqrt(consts.delta_alpha)),
        q=0,
    )


def score_matrix(spec: SyntheticSpec, z: np.ndarray) -> np.ndarray:
    """Centered threshold scores S(z), shape z.shape + (d,)."""
    _, thresholds, sbar = _spec_constants(spec)
    z = np.asarray(z, dtype=float)
    return (z[..., None] >= thresholds) - sbar


def _shaped_coefficients(r, mu, sigma, c_tilde: float, shift=0.0):
    """Coefficients of the tail-shaped reward R_tilde(shift + v) = c0 + c1 v + c2 v^2.

    R_tilde(z) = b1 (z - r) + a2 (z - r)^2 with a2 = c_tilde / (2 sigma) and
    b1 = 1 + 2 a2 (r - mu). Expanding around a threshold (shift = r gives
    c0 = 0 exactly) keeps power sums of v free of the cancellation that
    expanding around 0 suffers when the tail is narrow.
    """
    a2 = c_tilde / (2.0 * sigma)
    b1 = 1.0 + 2.0 * a2 * (r - mu)
    e = shift - r
    return e * (b1 + a2 * e), b1 + 2.0 * a2 * e, a2


def _shaped(z: np.ndarray, r, mu, sigma, c_tilde: float) -> np.ndarray:
    """Tail-shaped reward R_tilde(z) = (z - r)(b1 + a2 (z - r)), exactly zero at z = r."""
    _, b1, a2 = _shaped_coefficients(r, mu, sigma, c_tilde, r)
    u = z - r
    return u * (b1 + a2 * u)


@lru_cache(maxsize=None)
def true_gradient(spec: SyntheticSpec) -> np.ndarray:
    """Exact target gradient by adaptive quadrature at the population tail."""
    consts, thresholds, sbar = _spec_constants(spec)
    z_a, lam = consts.z_alpha, consts.lambda_alpha
    sdel = float(np.sqrt(consts.delta_alpha))
    out = np.empty(thresholds.size)
    for c, (t, sb) in enumerate(zip(thresholds, sbar)):

        def integrand(z: float) -> float:
            shaped = _shaped(z, z_a, lam, sdel, consts.c_tilde_n)
            return shaped * (float(z >= t) - sb) * norm_pdf(z) / spec.alpha

        interior = [t] if z_a < t < 12.0 else []
        value, _ = integrate.quad(
            integrand, z_a, 12.0, points=interior, epsabs=1e-10, epsrel=1e-12, limit=400
        )
        out[c] = value
    out.setflags(write=False)
    return out


def _h_batch(r: np.ndarray, mu: np.ndarray, sigma: np.ndarray, spec: SyntheticSpec) -> np.ndarray:
    """H(eta) for batched tail vectors; shape (..., d).

    R_tilde is the quadratic a0 + a1 z + a2 z^2, so the integral against the
    Gaussian density reduces to partial moments: with T(b) the integral of
    R_tilde phi from b to infinity,

        H_c = (1/alpha) [T(max(r, t_c)) - sbar_c T(r)].
    """
    consts, thresholds, sbar = _spec_constants(spec)
    r = np.asarray(r, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    a0, a1, a2 = _shaped_coefficients(r, mu, sigma, consts.c_tilde_n)

    def t_upper(b: np.ndarray) -> np.ndarray:
        # int_b^inf (a0 + a1 z + a2 z^2) phi(z) dz via Gaussian partial moments
        surv = 1.0 - ndtr(b)
        dens = norm_pdf(b)
        return a0[..., None] * surv + a1[..., None] * dens + a2[..., None] * (surv + b * dens)

    lower = np.maximum(r[..., None], thresholds)
    t_r = a0 * (1.0 - ndtr(r)) + a1 * norm_pdf(r) + a2 * (1.0 - ndtr(r) + r * norm_pdf(r))
    return (t_upper(lower) - sbar * t_r[..., None]) / spec.alpha


def h_population(eta: TailVector, spec: SyntheticSpec) -> np.ndarray:
    """Conditional mean H(eta) = (1/alpha) int_r^inf R_tilde(z) S(z) phi(z) dz.

    Evaluated in closed form through Gaussian partial moments (the integrand
    is a quadratic times the density); tests pin agreement with adaptive
    quadrature. At the population tail vector this equals ``true_gradient``.
    """
    if eta.sigma <= 0:
        raise InputError(f"tail sigma must be positive, got {eta.sigma}")
    return _h_batch(np.float64(eta.r), np.float64(eta.mu), np.float64(eta.sigma), spec)


def cross_fit_gradient(
    group_a: RewardGroup,
    group_b: RewardGroup,
    spec: SyntheticSpec,
    eps_sigma: float = DEFAULT_EPS_SIGMA,
) -> np.ndarray:
    """Tail vector from batch A, shaped-score average over batch B.

    Returns (1/n) sum_i (1/alpha) 1{R_i^B >= r_hat^A} R_tilde_{eta^A}(R_i^B) s_i^B
    with s_i^B taken from ``group_b.scores`` when present, else from the
    threshold scores that ``spec`` defines.
    """
    if len(group_a) != len(group_b):
        raise InputError("cross-fit batches must have equal size")
    consts, _, _ = _spec_constants(spec)
    eta = empirical_tail_vector(group_a, spec.alpha, eps_sigma)
    z_b = group_b.rewards
    shaped = _shaped(z_b, eta.r, eta.mu, eta.sigma, consts.c_tilde_n)
    weights = np.where(z_b >= eta.r, shaped / spec.alpha, 0.0)
    scores = group_b.scores if group_b.scores is not None else score_matrix(spec, z_b)
    return weights @ scores / len(group_b)


# --- vectorized per-block measurement kernels -------------------------------
#
# Only entries with z >= r_hat carry advantage, so the TEA kernel works on the
# top-q partition slice alone, and the prefix and oracle kernels reduce each
# threshold b's contribution to the power sums (count, sum v, sum v^2) of
# v = z - b over z >= b, which the quadratic R_tilde turns into exact sums.


def _batch_tail_stats(z: np.ndarray, alpha: float, eps_sigma: float):
    """Top-q slice of each row of z, shape (blocks, q), and its r, mu, sigma."""
    m = z.shape[1]
    q = tail_count(m, alpha)
    top = np.partition(z, m - q, axis=1)[:, m - q :]
    # the partition puts the q-th largest value first in the slice
    return top, top[:, 0], top.mean(axis=1), np.maximum(top.std(axis=1), eps_sigma)


def _score_sums(adv: np.ndarray, z: np.ndarray, spec: SyntheticSpec) -> np.ndarray:
    """sum_i A_i S(z_i) per row; shape (blocks, d)."""
    _, thresholds, sbar = _spec_constants(spec)
    total = adv.sum(axis=1)
    cols = [np.einsum("ij,ij->i", adv, z >= t) - sb * total for t, sb in zip(thresholds, sbar)]
    return np.stack(cols, axis=1)


def _induced_gradient(adv: np.ndarray, z: np.ndarray, spec: SyntheticSpec) -> np.ndarray:
    """(1/m) sum_i A_i S(z_i) per row; shape (blocks, d)."""
    return _score_sums(adv, z, spec) / z.shape[1]


def _power_sums(z: np.ndarray, shift, starts=(0,)) -> np.ndarray:
    """Count of z >= shift, sum v and sum v^2 for v = (z - shift)_+.

    Sums are taken per row and per column segment; segments begin at
    ``starts`` and run to the next start (the last one to the end of z). The
    result has shape (3, blocks, len(starts)).
    """
    v = z - shift
    np.maximum(v, 0.0, out=v)
    out = np.empty((3, z.shape[0], len(starts)))
    for k, (a, b) in enumerate(zip(starts, (*starts[1:], z.shape[1]))):
        seg = v[:, a:b]
        out[0, :, k] = np.count_nonzero(z[:, a:b] >= shift, axis=1)
        out[1, :, k] = seg.sum(axis=1)
        out[2, :, k] = np.einsum("ij,ij->i", seg, seg)
    return out


def _shaped_sum(coef, sums: np.ndarray) -> np.ndarray:
    """Sum of R_tilde = c0 + c1 v + c2 v^2 over the entries behind ``sums``."""
    c0, c1, c2 = coef
    return c0 * sums[0] + c1 * sums[1] + c2 * sums[2]


def _tail_gradient(eta, at_r: np.ndarray, at_t: np.ndarray, spec: SyntheticSpec, m: int):
    """(1/m) sum_i (1/alpha) 1{z_i >= r} R_tilde(z_i) S(z_i) from power sums; (blocks, d).

    ``eta`` = (r, mu, sigma). ``at_r`` holds the power sums at shift r, shape
    (3, blocks, 1); expanded around r, R_tilde has no constant term, so ties
    at r add nothing. ``at_t`` holds them at shift t_c, shape (3, blocks, d).
    Since 1{z >= r} 1{z >= t_c} = 1{z >= max(r, t_c)}, the upper sum comes
    from ``at_r`` where r >= t_c and from ``at_t`` elsewhere.
    """
    consts, thresholds, sbar = _spec_constants(spec)
    r = eta[0]
    total = _shaped_sum(_shaped_coefficients(*eta, consts.c_tilde_n, r), at_r)
    above_t = _shaped_sum(_shaped_coefficients(*eta, consts.c_tilde_n, thresholds), at_t)
    upper = np.where(r >= thresholds, total, above_t)
    return (upper - sbar * total) / (spec.alpha * m)


def _tea_block(z: np.ndarray, spec: SyntheticSpec, eps_sigma: float):
    """Raw TEA per row of z: induced gradient (blocks, d), and any advantage nonzero.

    Entries outside the top-q slice have zero advantage: they lie below r_hat,
    or tie with it and get R_tilde(r_hat) = 0 exactly.
    """
    consts, _, _ = _spec_constants(spec)
    top, r, mu, sigma = _batch_tail_stats(z, spec.alpha, eps_sigma)
    adv = _shaped(top, r[:, None], mu[:, None], sigma[:, None], consts.c_tilde_n)
    grads = _score_sums(adv, top, spec) / (spec.alpha * z.shape[1])
    return grads, (adv != 0.0).any(axis=1)


def _oracle_block(z: np.ndarray, spec: SyntheticSpec):
    """Raw rule at the population tail vector: induced gradient and any nonzero."""
    consts, thresholds, _ = _spec_constants(spec)
    r = consts.z_alpha
    eta = (r, consts.lambda_alpha, np.sqrt(consts.delta_alpha))
    at_r = _power_sums(z, r)
    at_t = np.concatenate([_power_sums(z, t) for t in thresholds], axis=2)
    return _tail_gradient(eta, at_r, at_t, spec, z.shape[1]), at_r[1, :, 0] > 0


class _PrefixCrossFit:
    """Cross-fitted prefix estimator over split halves, with RB + CV bias path."""

    def __init__(self, m: int, spec: SyntheticSpec, params: RuleParams):
        if m % 2 != 0 or m < 4:
            raise InputError(f"cross-fitted prefix measurement needs even m >= 4, got {m}")
        self.n = m // 2
        self.spec = spec
        self.eps_sigma = params.eps_sigma
        self.sizes = theory_prefixes(self.n, params.j_count, spec.alpha)
        self.weights = np.asarray(cancellation_weights(self.n, self.sizes, params.k))
        consts, thresholds, sbar = _spec_constants(spec)
        self.consts = consts
        # control features: prefix means of 1{z>=z_a}, z 1{z>=z_a}, z^2 1{z>=z_a}
        z_a = consts.z_alpha
        dens = float(norm_pdf(z_a))
        self.control_means = np.array([spec.alpha, dens, spec.alpha + z_a * dens])

    def block(self, rng: np.random.Generator):
        """One block: actual estimator values, RB values, centered controls, nonzero."""
        z_a = rng.standard_normal((BLOCK_SIZE, self.n))
        z_b = rng.standard_normal((BLOCK_SIZE, self.n))
        return self.measure(z_a, z_b)

    def measure(self, z_a: np.ndarray, z_b: np.ndarray):
        """The block's outputs for tail batches z_a and evaluation batches z_b.

        Sums at the fixed thresholds (z_alpha on z_a, t_c on z_b) are taken per
        segment between consecutive prefix ends and cumulated once, so prefix
        j's sums are the first j segments'; the sums above each row's own
        r_hat_j take one masked pass per prefix.
        """
        spec, consts, sizes = self.spec, self.consts, self.sizes
        _, thresholds, _ = _spec_constants(spec)
        blocks = z_a.shape[0]
        starts = (0,) + sizes[:-1]
        z_a, z_b = z_a[:, : sizes[-1]], z_b[:, : sizes[-1]]
        # prefix sums of 1, z, z^2 over z >= z_alpha, from those of v = z - z_alpha
        z_al = consts.z_alpha
        n, v1, v2 = np.cumsum(_power_sums(z_a, z_al, starts=starts), axis=2)
        features = np.stack([n, v1 + z_al * n, v2 + z_al * (2.0 * v1 + z_al * n)], axis=2)
        features /= np.asarray(sizes, dtype=float)[:, None]
        controls = features.reshape(blocks, -1) - np.tile(self.control_means, len(sizes))
        at_t = np.stack(
            [np.cumsum(_power_sums(z_b, t, starts=starts), axis=2) for t in thresholds], axis=3
        )
        d = len(spec.score_thresholds)
        actual = np.zeros((blocks, d))
        rao = np.zeros((blocks, d))
        nonzero = np.zeros(blocks, dtype=bool)
        for j, (w, size) in enumerate(zip(self.weights, sizes)):
            _, r, mu, sigma = _batch_tail_stats(z_a[:, :size], spec.alpha, self.eps_sigma)
            rao += w * _h_batch(r, mu, sigma, spec)
            eta = (r[:, None], mu[:, None], sigma[:, None])
            at_r = _power_sums(z_b[:, :size], eta[0])
            nonzero |= at_r[1, :, 0] > 0  # some z > r_hat_j
            actual += w * _tail_gradient(eta, at_r, at_t[:, :, j], spec, size)
        return actual, rao, controls, nonzero


def _prefix_practical_block(
    z: np.ndarray, spec: SyntheticSpec, params: RuleParams, sizes, weights, ratios
) -> np.ndarray:
    """Same-group raw prefix combination C_i = sum_j w_j rho_j A_raw_{i,j}."""
    consts, _, _ = _spec_constants(spec)
    combined = np.zeros_like(z)
    for w, rho, size in zip(weights, ratios, sizes):
        zj = z[:, :size]
        _, r, mu, sigma = _batch_tail_stats(zj, spec.alpha, params.eps_sigma)
        shaped = _shaped(zj, r[:, None], mu[:, None], sigma[:, None], consts.c_tilde_n)
        combined[:, :size] += w * rho * np.where(zj >= r[:, None], shaped / spec.alpha, 0.0)
    return combined


def default_replications(m: int) -> int:
    """Default replication count: 2e5 up to m = 1024, 5e4 above."""
    return 200_000 if m <= 1024 else 50_000


class _MomentAccumulator:
    """Streaming central moments per component, stable at any offset.

    Each block's mean and central power sums M2..M4 are taken in two passes,
    then merged into the running totals by the pairwise update of Chan, Golub
    and LeVeque (1979) as extended to M3 and M4 by Pebay (2008).
    """

    def __init__(self, dim: int):
        self.n = 0
        self.mu = np.zeros(dim)
        self.m2 = np.zeros(dim)
        self.m3 = np.zeros(dim)
        self.m4 = np.zeros(dim)

    def add(self, values: np.ndarray) -> None:
        nb = values.shape[0]
        mu_b = values.mean(axis=0)
        dev = values - mu_b
        dev2 = dev * dev
        m2b, m3b, m4b = dev2.sum(axis=0), (dev2 * dev).sum(axis=0), (dev2 * dev2).sum(axis=0)
        na = self.n
        n = na + nb
        delta = mu_b - self.mu
        self.m4 += (
            m4b
            + delta**4 * na * nb * (na * na - na * nb + nb * nb) / n**3
            + 6.0 * delta**2 * (na * na * m2b + nb * nb * self.m2) / n**2
            + 4.0 * delta * (na * m3b - nb * self.m3) / n
        )
        self.m3 += (
            m3b
            + delta**3 * na * nb * (na - nb) / n**2
            + 3.0 * delta * (na * m2b - nb * self.m2) / n
        )
        self.m2 += m2b + delta**2 * na * nb / n
        self.mu += delta * nb / n
        self.n = n

    def mean(self) -> np.ndarray:
        return self.mu

    def var(self) -> np.ndarray:
        return self.m2 / self.n

    def var_se(self) -> float:
        """se of the variance trace (per-component normal-theory, summed)."""
        m2 = self.m2 / self.n
        var_of_var = np.maximum(self.m4 / self.n - m2**2, 0.0) / self.n
        return float(np.sqrt(var_of_var.sum()))


def _finish_row(
    tag: str,
    m: int,
    bias_vec: np.ndarray,
    bias_se: np.ndarray,
    acc: _MomentAccumulator,
    replications: int,
    seed: int,
    p_grid: tuple[int, ...],
) -> BiasVarianceRow:
    variance = float(acc.var().sum())
    bias_norm = float(np.linalg.norm(bias_vec))
    mse = {int(p): bias_norm**2 + variance / p for p in p_grid}
    bias_vec = bias_vec.copy()
    bias_vec.setflags(write=False)
    return BiasVarianceRow(
        estimator_tag=tag,
        m=m,
        bias_vec=bias_vec,
        bias_norm=bias_norm,
        variance=variance,
        mse_at_p=mse,
        replications=replications,
        seed=seed,
        bias_se=bias_se,
        variance_se=acc.var_se(),
    )


def estimator_bias_variance(
    rule: str,
    spec: SyntheticSpec,
    m: int,
    replications: int | None = None,
    seed: int = 0,
    params: RuleParams | None = None,
    p_grid: tuple[int, ...] = DEFAULT_P_GRID,
) -> BiasVarianceRow:
    """Monte Carlo bias and variance of a rule's induced gradient estimator.

    Draws ``replications`` groups of m standard normals; each group's induced
    gradient is (1/m) sum_i A_i S(Z_i). Tags 'tea' and 'prefix-tea-practical'
    measure the raw (uncentered) estimators so the target is the population
    tail gradient; 'oracle' plugs in the population tail vector; 'prefix-tea'
    measures the cross-fitted split-halves estimator, with variance from the
    actual estimator and bias from the Rao-Blackwellized path (control-variate
    corrected; the pilot block that calibrates the coefficients is excluded
    from the bias mean). Any other registered rule is measured as-is via the
    per-group rule code.

    Raises ``DegenerateError`` when the rule emits all-zero advantages on more
    than 99% of replications.
    """
    if params is None:
        params = RuleParams(alpha=spec.alpha, n_target=spec.n_target)
    if replications is None:
        replications = default_replications(m)
    if replications < 1_000:
        raise InputError(f"need at least 1e3 replications, got {replications}")
    g_true = true_gradient(spec)
    d = len(spec.score_thresholds)
    n_blocks = (replications + BLOCK_SIZE - 1) // BLOCK_SIZE
    streams = np.random.SeedSequence(seed).spawn(n_blocks)
    acc = _MomentAccumulator(d)
    zero_rows = 0

    if rule == "prefix-tea":
        kernel = _PrefixCrossFit(m, spec, params)
        pilot_target = min(PILOT_SIZE, replications // 4)
        use_cv = pilot_target >= 1_000
        pilot_rao: list[np.ndarray] = []
        pilot_ctl: list[np.ndarray] = []
        rao_acc = _MomentAccumulator(d)
        n_pilot = 0
        lam = None
        done = 0
        for stream in streams:
            rng = np.random.default_rng(stream)
            take = min(BLOCK_SIZE, replications - done)
            actual, rao, controls, nonzero = kernel.block(rng)
            actual, rao, controls, nonzero = (
                actual[:take],
                rao[:take],
                controls[:take],
                nonzero[:take],
            )
            acc.add(actual)
            zero_rows += int(take - nonzero.sum())
            if use_cv and lam is None:
                pilot_rao.append(rao)
                pilot_ctl.append(controls)
                n_pilot += take
                if n_pilot >= pilot_target:
                    ctl = np.concatenate(pilot_ctl)
                    rao_all = np.concatenate(pilot_rao)
                    lam, *_ = np.linalg.lstsq(ctl, rao_all - rao_all.mean(axis=0), rcond=None)
            else:
                rao_acc.add(rao - controls @ lam if use_cv else rao)
            done += take
        if rao_acc.n == 0:  # all replications consumed by the pilot
            rao_all = np.concatenate(pilot_rao)
            rao_acc.add(rao_all)
        bias_vec = rao_acc.mean() - g_true
        bias_se = np.sqrt(rao_acc.var() / rao_acc.n)
    else:
        done = 0
        sizes = weights = ratios = None
        if rule == "prefix-tea-practical":
            from .prefixes import build_scheme

            scheme = build_scheme(m, params.k, params.j_count)
            sizes, weights, ratios = scheme.sizes, scheme.weights, scheme.ratios
        for stream in streams:
            rng = np.random.default_rng(stream)
            take = min(BLOCK_SIZE, replications - done)
            z = rng.standard_normal((BLOCK_SIZE, m))[:take]
            if rule == "tea":
                grads, nonzero = _tea_block(z, spec, params.eps_sigma)
            elif rule == "oracle":
                grads, nonzero = _oracle_block(z, spec)
            else:
                if rule == "prefix-tea-practical":
                    adv = _prefix_practical_block(z, spec, params, sizes, weights, ratios)
                else:
                    adv = np.stack([compute_rule(rule, row, params).values for row in z], axis=0)
                grads, nonzero = _induced_gradient(adv, z, spec), (adv != 0.0).any(axis=1)
            zero_rows += int(take - nonzero.sum())
            acc.add(grads)
            done += take
        bias_vec = acc.mean() - g_true
        bias_se = np.sqrt(acc.var() / acc.n)

    if zero_rows > 0.99 * replications:
        raise DegenerateError(
            f"rule {rule!r} emitted all-zero advantages on {zero_rows}/{replications} replications"
        )
    return _finish_row(rule, m, bias_vec, bias_se, acc, replications, seed, p_grid)


def frontier_row_seed(seed: int, rule_index: int, m_index: int) -> int:
    """Seed of the frontier row for (rule index, m index) under base ``seed``.

    A row's seed depends only on these three numbers, so adding rules or
    budgets never reshuffles existing rows.
    """
    return int(np.random.SeedSequence([seed, rule_index, m_index]).generate_state(1)[0])


def mse_frontier(
    rules: list[str] | tuple[str, ...],
    m_grid: list[int] | tuple[int, ...],
    p_grid: list[int] | tuple[int, ...] = DEFAULT_P_GRID,
    spec: SyntheticSpec = SyntheticSpec(),
    replications: int | None = None,
    seed: int = 0,
    params: RuleParams | None = None,
) -> MseFrontier:
    """Bias/variance rows over a (rule, m) grid plus the prefix/tea MSE ratio.

    Row (i, j) draws from ``frontier_row_seed(seed, i, j)``.
    """
    if not rules or not m_grid or not p_grid:
        raise InputError("rules, m_grid, and p_grid must be nonempty")
    m_grid = tuple(int(m) for m in m_grid)
    p_grid = tuple(int(p) for p in p_grid)
    rows = []
    by_tag: dict[str, dict[int, BiasVarianceRow]] = {}
    for i, rule in enumerate(rules):
        for j, m in enumerate(m_grid):
            row = estimator_bias_variance(
                rule, spec, m, replications=replications, seed=frontier_row_seed(seed, i, j),
                params=params, p_grid=p_grid,
            )
            rows.append(row)
            by_tag.setdefault(rule, {})[m] = row
    ratio = None
    if "prefix-tea" in by_tag and "tea" in by_tag:
        ratio = np.empty((len(m_grid), len(p_grid)))
        for a, m in enumerate(m_grid):
            for b, p in enumerate(p_grid):
                ratio[a, b] = np.log10(
                    by_tag["prefix-tea"][m].mse_at_p[p] / by_tag["tea"][m].mse_at_p[p]
                )
    return MseFrontier(rows=rows, m_grid=m_grid, p_grid=p_grid, ratio_log10=ratio)
