"""Acceptance suite: one test per numbered shipping criterion.

Each test prints a single ``criterion NN: PASS/FAIL`` line (visible with
``-rA`` or on failure) plus the measured values behind the verdict, then
asserts. The synthetic-lab measurements behind criteria 4 and 5 are computed
once in a module fixture with pinned seeds and replication counts chosen to
keep the Monte Carlo error inside the tolerance bands. Criterion 5 prints
each fitted slope's delta-method standard error and how many of them the
slope lies inside its band, so the margin can be read rather than assumed:
it is wide for the TEA slope, about one standard error for the prefix one.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import ndtri

from bontea import (
    EmpiricalPool,
    RuleParams,
    bon_mean_raw,
    compute_rules,
    expected_gauss_max,
    expected_max,
    gradient_alignment,
    grouped_bon_curve,
    oracle_advantage,
    paired_bootstrap_delta,
    predict_vn,
    tail_constants,
    win_tie_loss,
)
from bontea.prefixes import cancellation_weights
from bontea.synth import SyntheticSpec, estimator_bias_variance
from bontea.trainer import (
    ToyTask,
    TrainConfig,
    kl_grad,
    kl_value,
    policy_logprob_grad,
    train,
)

#: the lab fixture takes most of a full run; ``pytest -m "not slow"`` leaves this module out
pytestmark = pytest.mark.slow

TEA_GRID = (256, 512, 1024, 2048, 4096)
PREFIX_GRID = (512, 1024, 2048, 4096)
TEA_REPLICATIONS = 200_000
PREFIX_REPLICATIONS = {512: 800_000, 1024: 400_000, 2048: 400_000, 4096: 400_000}


def _verdict(num: int, checks: list[tuple[str, bool]]) -> None:
    ok = all(passed for _, passed in checks)
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}")
    for label, passed in checks:
        print(f"  [{'ok' if passed else 'BAD'}] {label}")
    assert ok, "; ".join(label for label, passed in checks if not passed)


@pytest.fixture(scope="module")
def lab():
    """Bias/variance rows for both estimators at full replication counts."""
    spec = SyntheticSpec()
    t0 = time.perf_counter()
    tea_rows = {
        m: estimator_bias_variance(
            "tea", spec, m, replications=TEA_REPLICATIONS, seed=1000 + m
        )
        for m in TEA_GRID
    }
    prefix_rows = {
        m: estimator_bias_variance(
            "prefix-tea", spec, m, replications=PREFIX_REPLICATIONS[m], seed=2000 + m
        )
        for m in PREFIX_GRID
    }
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(tea=tea_rows, prefix=prefix_rows, elapsed=elapsed)


def test_criterion_01_prefix_weights():
    sizes = (40, 48, 56, 64)
    expected = (-1.82946, -0.15392, 1.04289, 1.94050)
    weights = cancellation_weights(64, sizes, k=2)
    t0 = time.perf_counter()
    weights = cancellation_weights(64, sizes, k=2)
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(np.array(weights) - np.array(expected))))
    _verdict(
        1,
        [
            (f"weights {tuple(round(w, 6) for w in weights)} match to {err:.2e} <= 5e-5", err <= 5e-5),
            (f"runtime {elapsed * 1e3:.3f} ms < 1 ms", elapsed < 1e-3),
        ],
    )


def test_criterion_02_tail_prediction_identity():
    rng = np.random.default_rng(202)
    n_pool = rng.choice(np.arange(1, 2049), size=20, replace=False)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        mu_pop = float(rng.uniform(-5.0, 5.0))
        sigma_pop = float(rng.uniform(0.1, 4.0))
        alpha = float(rng.uniform(0.02, 0.45))
        n = int(rng.choice(n_pool))
        constants = tail_constants(alpha, n)
        mu = mu_pop + sigma_pop * constants.lambda_alpha
        sigma = sigma_pop * np.sqrt(constants.delta_alpha)
        predicted = predict_vn(mu, sigma, constants.c_tilde_n)
        worst = max(worst, abs(predicted - (mu_pop + constants.c_n * sigma_pop)))
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        [
            (f"max |predicted - (mu + c_n sigma)| = {worst:.3e} <= 1e-9", worst <= 1e-9),
            (f"runtime {elapsed:.3f} s < 1 s", elapsed < 1.0),
        ],
    )


def test_criterion_03_gauss_max_constants():
    t0 = time.perf_counter()
    checks = [
        ("c_1 == 0 exactly", expected_gauss_max(1) == 0.0),
        (
            f"c_2 = {expected_gauss_max(2):.12f} matches 1/sqrt(pi) to 1e-8",
            abs(expected_gauss_max(2) - 1.0 / np.sqrt(np.pi)) <= 1e-8,
        ),
    ]
    rng = np.random.default_rng(303)
    samples = 10_000_000
    for n in (8, 128, 512):
        # max of n iid standard normals sampled directly through its CDF
        # Phi(z)^n: draw U uniform and invert, M = Phi^{-1}(U^{1/n})
        u = rng.random(samples)
        maxima = ndtri(u ** (1.0 / n))
        mc_mean = float(maxima.mean())
        mc_se = float(maxima.std(ddof=1) / np.sqrt(samples))
        gap = abs(expected_gauss_max(n) - mc_mean)
        checks.append(
            (
                f"c_{n} vs 1e7-sample Monte Carlo: |gap| = {gap:.2e} <= 3 se = {3 * mc_se:.2e}",
                gap <= 3 * mc_se,
            )
        )
    elapsed = time.perf_counter() - t0
    checks.append((f"runtime {elapsed:.1f} s < 30 s", elapsed < 30.0))
    _verdict(3, checks)


def test_criterion_04_bias_variance_table(lab):
    tea256, tea4096 = lab.tea[256], lab.tea[4096]
    prefix512, prefix4096 = lab.prefix[512], lab.prefix[4096]
    reps_ok = all(
        row.replications >= 100_000
        for row in (*lab.tea.values(), *lab.prefix.values())
    )
    _verdict(
        4,
        [
            (
                f"tea m=256 bias_norm {tea256.bias_norm:.4e} in [0.015, 0.027]",
                0.015 <= tea256.bias_norm <= 0.027,
            ),
            (
                f"tea m=256 variance {tea256.variance:.4e} in [0.021, 0.027]",
                0.021 <= tea256.variance <= 0.027,
            ),
            (
                f"tea m=4096 bias_norm {tea4096.bias_norm:.4e} in [0.8e-3, 1.8e-3]",
                0.8e-3 <= tea4096.bias_norm <= 1.8e-3,
            ),
            (
                f"prefix m=512 bias_norm {prefix512.bias_norm:.4e} in [1.0e-3, 3.2e-3]",
                1.0e-3 <= prefix512.bias_norm <= 3.2e-3,
            ),
            (
                f"prefix m=512 variance {prefix512.variance:.4e} in [0.38, 0.52]",
                0.38 <= prefix512.variance <= 0.52,
            ),
            (
                f"m=4096 MSE at P=65536 crossover: prefix {prefix4096.mse_at_p[65536]:.3e}"
                f" < tea {tea4096.mse_at_p[65536]:.3e}",
                prefix4096.mse_at_p[65536] < tea4096.mse_at_p[65536],
            ),
            ("every row uses >= 1e5 replications", reps_ok),
            (f"lab runtime {lab.elapsed / 60:.1f} min <= 30 min", lab.elapsed <= 1800.0),
        ],
    )


def _slope_se(rows, grid) -> float:
    """Delta-method standard error of the least-squares slope of log bias_norm on log m.

    Each row's ||b|| has se sqrt(sum_c (b_c se_c)^2) / ||b|| from its
    per-component bias_se, so log ||b|| has that over ||b||; the rows are
    independent, and the slope is sum_i w_i log ||b_i|| with
    w_i = (x_i - mean x) / sum_j (x_j - mean x)^2 at x = log m.
    """
    x = np.log(np.asarray(grid, dtype=float))
    w = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
    se_log = [np.linalg.norm(rows[m].bias_vec * rows[m].bias_se) / rows[m].bias_norm**2 for m in grid]
    return float(np.linalg.norm(w * se_log))


def _slope_label(name: str, slope: float, se: float, low: float, high: float) -> str:
    margin = min(slope - low, high - slope) / se
    return f"{name} bias slope {slope:.3f} (se {se:.3f}, {margin:.1f} se inside) in [{low}, {high}]"


def test_criterion_05_bias_slopes(lab):
    log_m = np.log([float(m) for m in PREFIX_GRID])
    tea_slope = float(
        np.polyfit(log_m, np.log([lab.tea[m].bias_norm for m in PREFIX_GRID]), 1)[0]
    )
    prefix_slope = float(
        np.polyfit(log_m, np.log([lab.prefix[m].bias_norm for m in PREFIX_GRID]), 1)[0]
    )
    tea_se = _slope_se(lab.tea, PREFIX_GRID)
    prefix_se = _slope_se(lab.prefix, PREFIX_GRID)
    _verdict(
        5,
        [
            (
                _slope_label("prefix", prefix_slope, prefix_se, -2.6, -1.4),
                -2.6 <= prefix_slope <= -1.4,
            ),
            (_slope_label("tea", tea_slope, tea_se, -1.5, -0.6), -1.5 <= tea_slope <= -0.6),
        ],
    )


def _enum_expected_max(values: np.ndarray, probs: np.ndarray, n: int) -> float:
    total = 0.0
    for tup in itertools.product(range(values.size), repeat=n):
        p = 1.0
        for i in tup:
            p *= probs[i]
        total += p * max(values[i] for i in tup)
    return total


def _enum_oracle(values: np.ndarray, probs: np.ndarray, n: int, r: float) -> float:
    # E[max(r, M_{n-1})] - E[M_n]; the n = 1 case has an empty companion draw
    e_given = 0.0
    for tup in itertools.product(range(values.size), repeat=n - 1):
        p = 1.0
        rest = r
        for i in tup:
            p *= probs[i]
            rest = max(rest, values[i])
        e_given += p * rest
    return e_given - _enum_expected_max(values, probs, n)


def test_criterion_06_oracle_enumeration():
    pools = [
        [0.5, 0.5, 0.5, 0.5],
        [0.0, 1.0, 1.0, 1.0],
        [-1.5, 0.25, 0.25, 3.0],
        [1.0, 2.0, 3.0, 4.0],
        [-2.0, -1.0, 0.0, 1.5, 7.0, 7.0],
        [0.3, 0.3, -0.7, 1.9, 1.9, 2.4],
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for raw in pools:
        pool = EmpiricalPool.from_values(raw)
        values, counts = np.unique(pool.values, return_counts=True)
        probs = counts / counts.sum()
        assert values.size <= 5
        for n in (1, 2, 3, 4):
            worst = max(worst, abs(expected_max(pool, n) - _enum_expected_max(values, probs, n)))
            brute = np.array([_enum_oracle(values, probs, n, r) for r in pool.values])
            worst = max(worst, float(np.max(np.abs(oracle_advantage(pool, n) - brute))))
    elapsed = time.perf_counter() - t0
    _verdict(
        6,
        [
            (f"max |closed form - enumeration| = {worst:.2e} <= 1e-12", worst <= 1e-12),
            (f"runtime {elapsed:.2f} s < 1 s", elapsed < 1.0),
        ],
    )


def test_criterion_07_baseline_identities():
    rng = np.random.default_rng(707)
    exact = RuleParams(eps_norm=0.0)
    gap_mean = gap_cat = gap_prefix = gap_subset = 0.0
    for _ in range(50):
        rewards = rng.standard_normal((1, 32))  # one group
        z = compute_rules("grpo-z", rewards, exact)
        gap_mean = max(
            gap_mean,
            float(np.max(np.abs(compute_rules("bon-mean", rewards, replace(exact, bon_k=1)) - z))),
        )
        gap_cat = max(
            gap_cat,
            float(np.max(np.abs(compute_rules("cat-bon", rewards, replace(exact, n_target=1)) - z))),
        )
    for _ in range(50):
        rewards = rng.standard_normal((1, 64))
        single = compute_rules("prefix-tea", rewards, RuleParams(k=1, j_count=1))
        gap_prefix = max(
            gap_prefix,
            float(np.max(np.abs(single - compute_rules("tea", rewards, RuleParams())))),
        )
    for _ in range(200):
        m = int(rng.integers(2, 9))
        k = int(rng.integers(1, m))
        rewards = np.round(rng.standard_normal(m), 2)
        raw = bon_mean_raw(rewards[None, :], k)[0]
        subset_mean = np.mean([max(c) for c in itertools.combinations(rewards, k)])
        gap_subset = max(gap_subset, abs(float(raw.sum()) - k * float(subset_mean)))
    _verdict(
        7,
        [
            (f"bon-mean k=1 == grpo-z, gap {gap_mean:.2e} <= 1e-12", gap_mean <= 1e-12),
            (f"cat-bon n_target=1 == grpo-z, gap {gap_cat:.2e} <= 1e-12", gap_cat <= 1e-12),
            (f"prefix-tea J=1 == tea, gap {gap_prefix:.2e} <= 1e-12", gap_prefix <= 1e-12),
            (
                f"subset-sum identity over 200 groups, gap {gap_subset:.2e} <= 1e-12",
                gap_subset <= 1e-12,
            ),
        ],
    )


def test_criterion_08_protocol_invariants():
    rng = np.random.default_rng(808)
    samples = rng.standard_normal((200, 64)) * rng.uniform(0.5, 2.0, size=(200, 1))
    curve = grouped_bon_curve(samples, (1, 2, 4, 8, 16, 32, 64))
    doubling_gap = float(np.min(np.diff(curve.per_prompt, axis=1)))

    root = np.random.default_rng(0)
    hits = 0
    trials = 200
    delta = 0.3
    for _ in range(trials):
        seed_t = int(root.integers(2**31))
        trial_rng = np.random.default_rng(seed_t)
        base = trial_rng.standard_normal(50)
        a = base + delta + 0.5 * trial_rng.standard_normal(50)
        b = base + 0.5 * trial_rng.standard_normal(50)
        _, lo, hi = paired_bootstrap_delta(a, b, resamples=2000, seed=seed_t)
        hits += lo <= delta <= hi
    coverage = hits / trials

    a = rng.standard_normal(5)
    b = a + np.array([0.0, 5e-10, -5e-10, 2e-9, -2e-9])
    wtl = win_tie_loss(a, b)
    _verdict(
        8,
        [
            (
                f"grouped doubling monotone on every prompt, min step {doubling_gap:.2e} >= -1e-12",
                doubling_gap >= -1e-12,
            ),
            (
                f"bootstrap CI coverage {coverage:.1%} >= 93% over {trials} Gaussian trials",
                coverage >= 0.93,
            ),
            (
                f"win/tie/loss at 1e-9 tolerance = {wtl}, expected (20.0, 60.0, 20.0)",
                wtl == (20.0, 60.0, 20.0),
            ),
        ],
    )


def _central_fd(f, theta: np.ndarray, h: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2.0 * h)
    return grad


def test_criterion_09_trainer_gradients():
    rng = np.random.default_rng(909)
    worst_logprob = worst_kl = 0.0
    for _ in range(50):
        v = int(rng.integers(4, 12))
        theta = rng.normal(scale=2.0, size=v)
        action = int(rng.integers(v))

        def logprob(t: np.ndarray, action: int = action) -> float:
            return float(t[action] - np.log(np.exp(t - t.max()).sum()) - t.max())

        analytic = policy_logprob_grad(theta, action)
        fd = _central_fd(logprob, theta)
        worst_logprob = max(
            worst_logprob,
            float(np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)),
        )

        ref = rng.normal(scale=2.0, size=v)
        fd_kl = _central_fd(lambda t: kl_value(t, ref), theta)
        analytic_kl = kl_grad(theta, ref)
        worst_kl = max(
            worst_kl,
            float(np.linalg.norm(fd_kl - analytic_kl) / max(np.linalg.norm(analytic_kl), 1e-12)),
        )

    task = ToyTask.random(n_prompts=4, n_actions=8, seed=3)
    frozen = train(
        task,
        TrainConfig(rule="grpo", m=8, gamma=0.0, steps=5, eval_n=(1, 8), eval_samples=64),
    )
    unchanged = np.array_equal(frozen.thetas, task.reference_logits)
    _verdict(
        9,
        [
            (
                f"log-prob gradient vs central differences, worst rel err {worst_logprob:.2e} < 1e-5",
                worst_logprob < 1e-5,
            ),
            (
                f"KL gradient vs central differences, worst rel err {worst_kl:.2e} < 1e-5",
                worst_kl < 1e-5,
            ),
            ("gamma = 0 leaves every theta bitwise unchanged", unchanged),
        ],
    )


def test_criterion_10_alignment_ordering():
    """Identity score matrices: with (near-)orthonormal per-sample scores the
    induced-gradient cosine reduces to the advantage-vector cosine, which is
    the regime the ordering claim concerns (low-dimensional collinear scores
    wash out the difference between rules)."""
    rng = np.random.default_rng(1010)
    params = RuleParams()
    identity = np.eye(64)
    tea_cos, grpo_cos = [], []
    for _ in range(120):
        rewards = rng.standard_normal(64)
        oracle = oracle_advantage(EmpiricalPool.from_values(rewards), 128)
        tea_cos.append(
            gradient_alignment(compute_rules("tea-raw", rewards[None, :], params)[0], identity, oracle)
        )
        grpo_cos.append(
            gradient_alignment(compute_rules("grpo", rewards[None, :], params)[0], identity, oracle)
        )
    tea_mean, grpo_mean = float(np.mean(tea_cos)), float(np.mean(grpo_cos))
    _verdict(
        10,
        [
            (
                f"mean cosine to the oracle over 120 pools: raw tail rule {tea_mean:.3f}"
                f" > group-centering baseline {grpo_mean:.3f}",
                tea_mean > grpo_mean,
            ),
        ],
    )
