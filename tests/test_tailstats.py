"""Reward groups, empirical tail vectors and the tail statistics of prefixes and slices."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bontea import DegenerateError, InputError, RewardGroup
from bontea.tailstats import (
    DEFAULT_EPS_SIGMA,
    prefix_tail_stats,
    slice_tail_stats,
    tail_count,
    tail_stats,
)


def group(rewards, scores=None, prompt_id="g"):
    return RewardGroup(prompt_id=prompt_id, rewards=np.asarray(rewards, dtype=float), scores=scores)


def tail_vector(rewards, alpha):
    """(r, mu, sigma) of one group, from ``tail_stats`` on its (1, m) row."""
    return tuple(float(v[0, 0]) for v in tail_stats(np.asarray(rewards, dtype=float)[None, :], alpha))


class TestRewardGroup:
    def test_len(self):
        assert len(group([1.0, 2.0, 3.0])) == 3

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            group([])

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            group([1.0, np.nan])

    def test_rejects_nonfinite_scores(self):
        with pytest.raises(InputError, match="scores must be finite"):
            group([1.0, 2.0], scores=np.array([[0.5], [np.nan]]))

    def test_rejects_score_shape_mismatch(self):
        with pytest.raises(InputError):
            group([1.0, 2.0], scores=np.zeros((3, 2)))

    def test_accepts_matching_scores(self):
        g = group([1.0, 2.0], scores=np.ones((2, 5)))
        assert g.scores.shape == (2, 5)

    @pytest.mark.parametrize(
        "rewards, scores, what",
        [
            (["1.5", "2", "3", True], None, "rewards"),
            ([1.5, 2.0, 3.0, True], None, "rewards"),
            ([False, True], None, "rewards"),
            ([1.0, 2.0], [[0.5], ["1"]], "scores"),
            ([1.0, 2.0], [[0.5, False], [1.0, 2.0]], "scores"),
        ],
    )
    def test_rejects_strings_and_booleans(self, rewards, scores, what):
        # NumPy would read each as a number
        message = f"^group 'g': {what} must be numbers, not strings or booleans$"
        with pytest.raises(InputError, match=message):
            RewardGroup("g", rewards, scores)

    def test_accepts_integers_and_arrays(self):
        g = RewardGroup("g", [1, 2.5, 10**30], [[1], [0.5], [-2]])
        assert g.rewards.tolist() == [1.0, 2.5, 1e30] and g.scores.tolist() == [[1.0], [0.5], [-2.0]]
        assert RewardGroup("g", np.arange(3), np.ones((3, 2))).rewards.dtype == float


class TestTailCount:
    @pytest.mark.parametrize(
        "m, alpha, expected",
        [(8, 0.25, 2), (64, 0.25, 16), (10, 0.25, 3), (5, 0.25, 2), (4, 0.25, 1), (7, 0.3, 3)],
    )
    def test_ceiling(self, m, alpha, expected):
        assert tail_count(m, alpha) == expected


class TestEmpiricalTailVector:
    def test_hand_example(self):
        # m=8, alpha=0.25 -> q=2; tail = {1, 2}
        r, mu, sigma = tail_vector([0, 0, 0, 0, 0, 0, 1, 2], 0.25)
        assert tail_count(8, 0.25) == 2
        assert r == 1.0
        assert mu == 1.5
        assert_allclose(sigma, 0.5)

    def test_population_std_not_sample_std(self):
        # tail {1, 3}: population std is 1, sample std would be sqrt(2)
        _, _, sigma = tail_vector([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 3.0], 0.25)
        assert_allclose(sigma, 1.0)

    def test_sigma_floor_on_tied_tail(self):
        _, _, sigma = tail_vector([0.0, 0.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0], 0.25)
        assert sigma == DEFAULT_EPS_SIGMA

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        rewards = rng.standard_normal(41)
        assert tail_vector(rewards, 0.25) == tail_vector(np.sort(rewards), 0.25)

    def test_matches_sorted_slice(self):
        rng = np.random.default_rng(1)
        rewards = rng.standard_normal(37)
        q = tail_count(37, 0.25)
        top = np.sort(rewards)[-q:]
        r, mu, sigma = tail_vector(rewards, 0.25)
        assert r == top[0]
        assert_allclose(mu, top.mean())
        assert_allclose(sigma, top.std())

    def test_rejects_single_sample(self):
        with pytest.raises(InputError, match="need m >= 2 rewards, got 1"):
            tail_vector([1.0], 0.25)

    @pytest.mark.parametrize(
        "alpha, eps_sigma, message",
        [
            (0.25, float("inf"), "eps_sigma must be finite"),
            (0.25, 0.0, "eps_sigma must be positive"),
            (0.25, float("nan"), "eps_sigma must be positive"),
            (0.5, DEFAULT_EPS_SIGMA, r"alpha must lie in \(0, 1/2\), got 0.5"),
            (1e-17, DEFAULT_EPS_SIGMA, "alpha 1e-17 is too small: 1 - alpha rounds to 1"),
        ],
    )
    def test_parameters_are_checked_as_rule_params_checks_them(self, alpha, eps_sigma, message):
        with pytest.raises(InputError, match=message):
            tail_stats(np.arange(8.0)[None], alpha, eps_sigma)


class TestTailOverflow:
    # the top-q spread of rewards near 1e200 overflows float range
    REWARDS = [1e200 * i for i in range(1, 9)]

    def test_tail_vector_is_degenerate(self):
        with pytest.raises(DegenerateError, match="overflow"):
            tail_vector(self.REWARDS, 0.25)

    def test_prefix_tail_vectors_are_degenerate(self):
        # the prefix rules take tail_stats of each prefix, the shortest first
        with pytest.raises(DegenerateError, match="overflow"):
            for size in (4, 8):
                tail_stats(np.asarray(self.REWARDS)[None, :size], 0.25)


class TestPrefixTailVectors:
    def test_each_prefix_matches_direct_computation(self):
        rng = np.random.default_rng(7)
        rewards = rng.standard_normal(64)
        sizes = (40, 48, 56, 64)
        r, mu, sigma = zip(*(tail_stats(rewards[None, :size], 0.25) for size in sizes))
        for size, eta in zip(sizes, zip(r, mu, sigma)):
            direct = tail_vector(rewards[:size].copy(), 0.25)
            assert tuple(float(v[0, 0]) for v in eta) == direct

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=4, max_value=200),
        j_count=st.integers(min_value=1, max_value=4),
        levels=st.sampled_from([2, 5, 0]),
        exponent=st.sampled_from([0, 100, 200]),
        alpha=st.sampled_from([0.05, 0.25, 0.49]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_one_sort_gives_each_prefix_its_own_bits(
        self, rows, m, j_count, levels, exponent, alpha, seed
    ):
        # grid rewards tie the threshold, 1e200 rewards overflow some prefixes
        rng = np.random.default_rng(seed)
        x = rng.integers(0, levels, (rows, m)) if levels else rng.standard_normal((rows, m))
        x = x * 10.0**exponent * rng.random((rows, 1))
        sizes = np.sort(rng.choice(np.arange(2, m), size=min(j_count, m - 2) - 1, replace=False))
        sizes = tuple(int(s) for s in sizes) + (m,)
        counts = tuple(tail_count(size, alpha) for size in sizes)
        padded = np.where(np.arange(m) >= np.array(sizes)[:, None, None], -np.inf, x)
        top = np.sort(padded, axis=2)[:, :, m - counts[-1] :]
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                expected = [tail_stats(x[:, :size], alpha) for size in sizes]
            except DegenerateError as exc:
                with pytest.raises(DegenerateError) as info:
                    prefix_tail_stats(top, counts, DEFAULT_EPS_SIGMA)
                assert str(info.value) == str(exc)
                return
            got = prefix_tail_stats(top, counts, DEFAULT_EPS_SIGMA)
        for j, eta in enumerate(expected):
            for want, have in zip(eta, got):
                assert np.array_equal(want.view(np.uint64), have[j].view(np.uint64))


class TestSliceTailStats:
    """The lab's partition slice and the rules' sorted slice give one tail vector."""

    @staticmethod
    def slices(x, alpha):
        m = x.shape[1]
        q = tail_count(m, alpha)
        return np.partition(x, m - q, axis=1)[:, m - q :], np.sort(x, axis=1)[:, m - q :]

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=2, max_value=300),
        levels=st.integers(min_value=1, max_value=50),
        unit=st.sampled_from([1e-9, 1e-6, 1.0, 1e5]),
        offset=st.sampled_from([0.0, -3.5, 1e4]),
        alpha=st.sampled_from([0.05, 0.25, 0.49]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_partition_matches_sort_with_ties(self, rows, m, levels, unit, offset, alpha, seed):
        # rewards on a grid of `levels` values, so the threshold is often tied
        rng = np.random.default_rng(seed)
        x = offset + unit * rng.integers(0, levels, (rows, m))
        part, full = self.slices(x, alpha)
        r_p, mu_p, sigma_p = slice_tail_stats(part, DEFAULT_EPS_SIGMA)
        r_s, mu_s, sigma_s = slice_tail_stats(full, DEFAULT_EPS_SIGMA)
        assert np.array_equal(r_p, r_s)
        np.testing.assert_allclose(mu_p, mu_s, rtol=1e-12, atol=0)
        # the two orders round the mean differently, and a two-pass std carries
        # that rounding squared: (eps |mu| / sigma)^2 relative, which passes
        # 1e-12 only where |mu| / sigma passes about 5e9 (rewards near 1e4 with
        # sigma at the 1e-6 clip)
        cond = (4.0 * np.finfo(float).eps * np.abs(mu_s) / sigma_s) ** 2
        assert np.all(np.abs(sigma_p - sigma_s) <= (1e-12 + cond) * sigma_s)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=8, max_value=200),
        exponent=st.integers(min_value=160, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_partition_and_sort_raise_the_same_overflow(self, rows, m, exponent, seed):
        # one row's top-q spread overflows float range; both slices name it alike
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, m))
        bad = int(rng.integers(rows))
        x[bad] = 10.0**exponent * (1 + rng.permutation(m))
        messages = []
        for top in self.slices(x, 0.25):
            with pytest.raises(DegenerateError, match="tail statistics overflow") as info:
                with np.errstate(over="ignore", invalid="ignore"):
                    slice_tail_stats(top, DEFAULT_EPS_SIGMA)
            messages.append(str(info.value).split(",")[0])
        assert messages[0] == messages[1]
