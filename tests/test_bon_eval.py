"""Empirical best-of-N: exact pool statistics and the grouped protocol.

``expected_max`` and ``oracle_advantage`` are verified against exhaustive
enumeration over all N-tuples of pool values (with replacement), which is the
definition they implement in closed form.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bontea import (
    DegenerateError,
    EmpiricalPool,
    InputError,
    expected_max,
    gradient_alignment,
    grouped_bon_curve,
    oracle_advantage,
    paired_bootstrap_delta,
    win_tie_loss,
)


def topk_validation_score(per_prompt_samples: np.ndarray, k: int = 10) -> float:
    """Prompt-average of each prompt's mean top-k sample reward."""
    samples = np.asarray(per_prompt_samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[None, :]
    if k < 1 or k > samples.shape[1]:
        raise InputError(f"need 1 <= k <= samples per prompt, got k={k}, M={samples.shape[1]}")
    top = np.partition(samples, samples.shape[1] - k, axis=1)[:, samples.shape[1] - k :]
    return float(top.mean(axis=1).mean())


def enumerate_expected_max(values: np.ndarray, n: int) -> float:
    m = values.size
    total = 0.0
    for tup in product(range(m), repeat=n):
        total += values[list(tup)].max()
    return total / m**n


def enumerate_oracle(values: np.ndarray, n: int) -> np.ndarray:
    """A*_i = E[max(r_i, M_{n-1})] - E[M_n] by brute force."""
    m = values.size
    e_max = enumerate_expected_max(values, n)
    out = np.empty(m)
    for i in range(m):
        total = 0.0
        for tup in product(range(m), repeat=n - 1):
            best = values[list(tup)].max() if tup else -np.inf
            total += max(values[i], best)
        out[i] = total / m ** (n - 1) - e_max
    return out


def random_pool(rng: np.random.Generator, distinct: int, size: int) -> np.ndarray:
    base = rng.standard_normal(distinct)
    return base[rng.integers(0, distinct, size=size)]


class TestExpectedMax:
    def test_single_value_pool(self):
        pool = EmpiricalPool.from_values([2.5, 2.5, 2.5])
        for n in (1, 2, 5):
            assert expected_max(pool, n) == 2.5

    def test_n1_is_pool_mean(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(17)
        assert_allclose(expected_max(EmpiricalPool.from_values(values), 1), values.mean())

    @pytest.mark.parametrize("distinct", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_enumeration(self, distinct, n):
        rng = np.random.default_rng(100 * distinct + n)
        for _ in range(5):
            values = random_pool(rng, distinct, int(rng.integers(distinct, 8)))
            pool = EmpiricalPool.from_values(values)
            assert_allclose(
                expected_max(pool, n), enumerate_expected_max(values, n), rtol=0, atol=1e-12
            )

    def test_monotone_in_n(self):
        pool = EmpiricalPool.from_values(np.random.default_rng(1).standard_normal(12))
        values = [expected_max(pool, n) for n in (1, 2, 4, 8, 16)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestOracleAdvantage:
    @pytest.mark.parametrize("distinct", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_enumeration(self, distinct, n):
        rng = np.random.default_rng(200 * distinct + n)
        for _ in range(5):
            values = random_pool(rng, distinct, int(rng.integers(distinct, 8)))
            pool = EmpiricalPool.from_values(values)
            assert_allclose(
                oracle_advantage(pool, n), enumerate_oracle(values, n), rtol=0, atol=1e-12
            )

    def test_zero_mean_over_pool(self):
        # E_i[A*_i] = E[max(r, M_{n-1})] averaged over r ~ pool = E[M_n]
        rng = np.random.default_rng(2)
        values = rng.standard_normal(40)
        pool = EmpiricalPool.from_values(values)
        for n in (1, 2, 8, 64):
            assert abs(oracle_advantage(pool, n).mean()) < 1e-10

    def test_monotone_in_reward(self):
        values = np.array([-1.0, 0.2, 0.4, 1.5, 2.0])
        adv = oracle_advantage(EmpiricalPool.from_values(values), 4)
        assert np.all(np.diff(adv) > 0)

    def test_ties_get_identical_advantages(self):
        values = np.array([1.0, 2.0, 1.0, 3.0])
        adv = oracle_advantage(EmpiricalPool.from_values(values), 2)
        assert adv[0] == adv[2]


class TestGroupedCurve:
    def test_doubling_never_decreases(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((7, 64))
        curve = grouped_bon_curve(samples, (1, 2, 4, 8, 16, 32, 64))
        assert np.all(np.diff(curve.means) >= 0)
        # and per prompt, not just on average
        assert np.all(np.diff(curve.per_prompt, axis=1) >= 0)

    def test_single_budget_full_pool(self):
        samples = np.arange(8.0).reshape(1, 8)
        curve = grouped_bon_curve(samples, (8,))
        assert curve.means[0] == 7.0

    def test_budget_one_is_mean(self):
        rng = np.random.default_rng(4)
        samples = rng.standard_normal((3, 16))
        curve = grouped_bon_curve(samples, (1,))
        assert_allclose(curve.per_prompt[:, 0], samples.mean(axis=1))

    def test_consecutive_partition(self):
        samples = np.array([[1.0, 5.0, 2.0, 2.0]])
        curve = grouped_bon_curve(samples, (2,))
        assert curve.means[0] == (5.0 + 2.0) / 2

    def test_rejects_nondivisible_budget(self):
        with pytest.raises(InputError):
            grouped_bon_curve(np.zeros((2, 10)), (4,))

    def test_overflow_names_the_first_prompt_and_budget(self):
        samples = np.ones((3, 4))
        samples[2] = samples[1, 2:] = 1e308
        with pytest.raises(DegenerateError, match="^best-of-1 mean of prompt row 1 overflows: inf$"):
            grouped_bon_curve(samples, (2, 1))
        with pytest.raises(DegenerateError, match="^best-of-2 mean over the prompts overflows: inf$"):
            grouped_bon_curve(np.full((3, 2), 8e307), (2,))


class TestPairedBootstrap:
    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 30))
        d1 = paired_bootstrap_delta(a, b, seed=9)
        d2 = paired_bootstrap_delta(a, b, seed=9)
        assert d1 == d2

    def test_identical_inputs_zero_interval(self):
        a = np.random.default_rng(6).standard_normal(25)
        delta, lo, hi = paired_bootstrap_delta(a, a)
        assert delta == lo == hi == 0.0

    def test_interval_contains_point_estimate(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(40) + 0.3
        b = rng.standard_normal(40)
        delta, lo, hi = paired_bootstrap_delta(a, b, seed=1)
        assert lo <= delta <= hi
        assert_allclose(delta, (a - b).mean())

    def test_columns_equal_one_call_per_column(self):
        # one index matrix for all columns: each column's bits are those of its own call
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal((2, 30, 4))
        columns = paired_bootstrap_delta(a, b, resamples=200, seed=3)
        for c in range(4):
            alone = paired_bootstrap_delta(a[:, c], b[:, c], resamples=200, seed=3)
            assert alone == tuple(float(v[c]) for v in columns)

    def test_overflow_names_the_first_prompt_and_column(self):
        a = np.zeros((3, 2))
        a[2, 1] = 1e308
        with pytest.raises(DegenerateError, match="^paired difference of prompt row 2, column 1 overflows: inf$"):
            paired_bootstrap_delta(a, -a)
        with pytest.raises(DegenerateError, match="^paired bootstrap delta of column 0 overflows: inf$"):
            paired_bootstrap_delta(np.full(3, 8e307), np.full(3, -8e307))

    def test_rejects_mismatched_or_short_inputs(self):
        for shape_a, shape_b in [((5, 2), (5, 3)), ((1,), (1,)), ((1, 3), (1, 3)), ((2, 2, 2), (2, 2, 2))]:
            with pytest.raises(InputError, match="shapes with >= 2 prompts"):
                paired_bootstrap_delta(np.zeros(shape_a), np.zeros(shape_b))


class TestWinTieLoss:
    def test_tolerance_rule(self):
        a = np.zeros(5)
        b = np.array([0.0, 5e-10, -5e-10, 2e-9, -2e-9])
        win, tie, loss = win_tie_loss(a, b)
        assert (win, tie, loss) == (20.0, 60.0, 20.0)

    def test_sums_to_hundred(self):
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal((2, 33))
        win, tie, loss = win_tie_loss(a, b)
        assert_allclose(win + tie + loss, 100.0)

    def test_columns_equal_one_call_per_column(self):
        rng = np.random.default_rng(13)
        a, b = np.round(rng.standard_normal((2, 20, 3)), 1)
        columns = win_tie_loss(a, b, tol=0.05)
        for c in range(3):
            assert win_tie_loss(a[:, c], b[:, c], tol=0.05) == tuple(float(v[c]) for v in columns)


class TestAlignmentAndTopK:
    def test_identical_vectors_cosine_one(self):
        rng = np.random.default_rng(9)
        adv = rng.standard_normal(16)
        scores = rng.standard_normal((16, 4))
        assert_allclose(gradient_alignment(adv, scores, adv), 1.0)

    def test_opposite_vectors_cosine_minus_one(self):
        rng = np.random.default_rng(10)
        adv = rng.standard_normal(16)
        scores = rng.standard_normal((16, 4))
        assert_allclose(gradient_alignment(adv, scores, -adv), -1.0)

    def test_zero_gradient_degenerate(self):
        scores = np.zeros((4, 2))
        with pytest.raises(DegenerateError):
            gradient_alignment(np.ones(4), scores, np.ones(4))

    def test_topk_score(self):
        samples = np.tile(np.arange(20.0), (3, 1))
        assert topk_validation_score(samples, k=10) == np.arange(10.0, 20.0).mean()
