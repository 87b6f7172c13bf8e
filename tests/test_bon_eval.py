"""Empirical best-of-N: exact pool statistics and the grouped protocol.

``expected_max`` and ``oracle_advantage`` are verified against exhaustive
enumeration over all N-tuples of pool values (with replacement), which is the
definition they implement in closed form.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
from bontea.bon_eval import _BOOTSTRAP_VALUES
from bontea.errors import PromptRowError, check_finite


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

    @pytest.mark.parametrize("budget", [0, -4])
    def test_rejects_a_budget_below_one(self, budget):
        with pytest.raises(InputError, match=f"^budget {budget} must be >= 1$"):
            grouped_bon_curve(np.zeros((2, 8)), (1, budget))

    def test_overflow_names_the_first_prompt_and_budget(self):
        samples = np.ones((3, 4))
        samples[2] = samples[1, 2:] = 1e308
        with pytest.raises(DegenerateError, match="^best-of-1 mean of prompt row 1 overflows: inf$"):
            grouped_bon_curve(samples, (2, 1))
        with pytest.raises(DegenerateError, match="^best-of-2 mean over the prompts overflows: inf$"):
            grouped_bon_curve(np.full((3, 2), 8e307), (2,))


def reference_curve(samples: np.ndarray, budgets: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(per_prompt, means): one ``np.maximum.reduce`` per budget over the samples, with the same errors."""
    n_prompts, m_total = samples.shape
    per_prompt = np.empty((n_prompts, len(budgets)))
    with np.errstate(over="ignore", invalid="ignore"):
        for col, n in enumerate(budgets):
            maxima = np.maximum.reduce(samples.reshape(n_prompts, m_total // n, n), axis=2)
            per_prompt[:, col] = np.add.reduce(maxima, axis=1) / (m_total // n)
        means = np.add.reduce(per_prompt, axis=0) / n_prompts

    def row_error(row: int, col: int) -> PromptRowError:
        what, value = f"best-of-{budgets[col]} mean", per_prompt[row, col]
        return PromptRowError(f"{what} of prompt row {row} overflows: {value}", row, f"{what} overflows: {value}")

    check_finite(per_prompt, row_error)
    check_finite(means, lambda col: f"best-of-{budgets[col]} mean over the prompts overflows: {means[col]}")
    return per_prompt, means


def laid_out(values: np.ndarray, layout: str) -> np.ndarray:
    """``values`` (prompts, M) as an array of the given memory layout, equal entry for entry."""
    if layout == "transposed":
        return np.ascontiguousarray(values.T).T
    if layout == "reversed":
        return np.ascontiguousarray(values[::-1])[::-1]
    if layout == "strided":
        wide = np.zeros((values.shape[0], 2 * values.shape[1]))
        wide[:, ::2] = values
        return wide[:, ::2]
    return np.ascontiguousarray(values)


@st.composite
def curve_cases(draw, entries: st.SearchStrategy = st.floats(-1e6, 1e6)):
    """(samples, budgets): a pool of any layout, with budgets that divide M in any order, repeats included."""
    m_total = draw(st.sampled_from([1, 2, 6, 12, 16, 24, 48, 64, 128, 256, 576, 1024]))
    divisors = [n for n in range(1, m_total + 1) if m_total % n == 0]
    budgets = tuple(draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=6)))
    n_prompts = draw(st.integers(1, 4))
    # few distinct values, so groups hold ties
    palette = np.array(draw(st.lists(entries, min_size=1, max_size=5)))
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, palette.size, (n_prompts, m_total))
    return laid_out(palette[picks], draw(st.sampled_from(["C", "transposed", "reversed", "strided"]))), budgets


def assert_same_curve(samples: np.ndarray, budgets: tuple[int, ...]) -> None:
    """``grouped_bon_curve`` has the reference's bits, or raises the reference's error."""
    try:
        per_prompt, means = reference_curve(samples, budgets)
    except DegenerateError as expected:
        with pytest.raises(type(expected)) as raised:
            grouped_bon_curve(samples, budgets)
        assert str(raised.value) == str(expected)
        return
    curve = grouped_bon_curve(samples, budgets)
    assert curve.n_values == budgets
    assert np.array_equal(curve.per_prompt.view(np.int64), per_prompt.view(np.int64))
    assert np.array_equal(curve.means.view(np.int64), means.view(np.int64))


class TestGroupedCurveBits:
    """Each budget's maxima built from a smaller budget's have the bits of one reduce per budget."""

    @settings(max_examples=300, deadline=None)
    @given(curve_cases())
    @example((np.arange(12.0)[::-1].reshape(1, 12) % 5, (3, 2, 6, 4, 12)))  # budgets that do not nest
    @example((laid_out(np.random.default_rng(1).standard_normal((3, 64)), "transposed"), (1,)))
    @example((np.random.default_rng(2).standard_normal((2, 256)), (128, 2, 1, 2)))  # a k = 64 fold above a k = 2 fold
    @example((laid_out(np.random.default_rng(3).standard_normal((3, 576)), "transposed"), (64, 1)))  # a k = 64 fold on transposed input
    def test_matches_one_reduce_per_budget(self, case):
        assert_same_curve(*case)

    @settings(max_examples=200, deadline=None)
    @given(curve_cases(st.sampled_from([0.0, -0.0, -1.0])))
    # the reduce over these 16 keeps a -0.0 where a fold keeps a 0.0; both means are 0.0
    @example((np.array([[-0.0, -1, -0.0, -1, -1, -1, -0.0, 0.0] + [-1.0] * 8]), (2, 16)))
    def test_signed_zero_rows(self, case):
        assert_same_curve(*case)

    @settings(max_examples=200, deadline=None)
    @given(curve_cases(st.sampled_from([np.inf, -np.inf, np.nan, 1.0, -0.0])))
    def test_nonfinite_rows_raise_the_same_error(self, case):
        assert_same_curve(*case)


def reference_bootstrap(a: np.ndarray, b: np.ndarray, resamples: int, seed: int) -> tuple:
    """(delta, lo, hi) per column from one whole (resamples, prompts) index matrix."""
    diff = np.ascontiguousarray((a - b).reshape(a.shape[0], -1).T)
    idx = np.random.default_rng(seed).integers(0, diff.shape[1], size=(resamples, diff.shape[1]))
    means = np.reshape([c[idx].mean(axis=1) for c in diff], (len(diff), resamples))
    lo, hi = np.percentile(means, [2.5, 97.5], axis=1)
    return diff.mean(axis=1), lo, hi


@st.composite
def bootstrap_cases(draw):
    """(a, b, resamples, seed): any prompt count, 0 to 3 columns, resample counts at and around slice ends."""
    prompts = draw(st.integers(2, 300) | st.sampled_from([1000, 3 * 7 * 1001, _BOOTSTRAP_VALUES + 7]))
    step = max(1, _BOOTSTRAP_VALUES // prompts)  # resamples per slice
    resamples = draw(st.sampled_from([1, step - 1, step, step + 1, 2 * step + 1]).filter(lambda r: r >= 1)
                     | st.integers(1, 3 * step))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = rng.standard_normal((2, prompts, draw(st.integers(0, 3))))
    return a, b, resamples, draw(st.integers(0, 2**32 - 1))


class TestPairedBootstrap:
    @settings(max_examples=100, deadline=None)
    @given(bootstrap_cases())
    @example((np.arange(6.0).reshape(3, 2), np.zeros((3, 2)), 2 * (_BOOTSTRAP_VALUES // 3) + 1, 5))
    def test_slices_have_the_bits_of_one_index_matrix(self, case):
        a, b, resamples, seed = case
        got = paired_bootstrap_delta(a, b, resamples, seed)
        for value, expected in zip(got, reference_bootstrap(a, b, resamples, seed)):
            assert np.array_equal(value.view(np.int64), expected.view(np.int64))

    def test_memory_does_not_grow_with_resamples_beyond_the_means(self):
        import tracemalloc

        a, b = np.random.default_rng(8).standard_normal((2, 100, 4))
        peaks = {}
        for resamples in (2_000, 20_000):
            paired_bootstrap_delta(a, b, resamples)  # warm any lazy set-up
            tracemalloc.start()
            try:
                paired_bootstrap_delta(a, b, resamples)
                peaks[resamples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the (4, resamples) float means, and their copy while the percentiles are taken;
        # one whole index matrix would add 8 * 100 bytes per resample
        assert peaks[20_000] - peaks[2_000] <= 2 * 8 * 4 * 18_000

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
        # the same resampled prompts for all columns: each column's bits are those of its own call
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal((2, 30, 4))
        columns = paired_bootstrap_delta(a, b, resamples=200, seed=3)
        for c in range(4):
            alone = paired_bootstrap_delta(a[:, c], b[:, c], resamples=200, seed=3)
            assert alone == tuple(float(v[c]) for v in columns)

    def test_zero_columns_give_empty_arrays(self):
        empty = np.zeros((5, 0))
        delta, lo, hi = paired_bootstrap_delta(empty, empty, resamples=50)
        assert delta.shape == lo.shape == hi.shape == (0,)

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
