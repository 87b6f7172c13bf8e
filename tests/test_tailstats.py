"""Reward groups, empirical tail vectors, prefix restrictions, and half splits."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bontea import DegenerateError, InputError, RewardGroup, empirical_tail_vector, prefix_tail_vectors, split_halves
from bontea.tailstats import DEFAULT_EPS_SIGMA, tail_count


def group(rewards, scores=None, prompt_id="g"):
    return RewardGroup(prompt_id=prompt_id, rewards=np.asarray(rewards, dtype=float), scores=scores)


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
        eta = empirical_tail_vector(group([0, 0, 0, 0, 0, 0, 1, 2]), 0.25)
        assert eta.q == 2
        assert eta.r == 1.0
        assert eta.mu == 1.5
        assert_allclose(eta.sigma, 0.5)

    def test_population_std_not_sample_std(self):
        # tail {1, 3}: population std is 1, sample std would be sqrt(2)
        eta = empirical_tail_vector(group([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 3.0]), 0.25)
        assert_allclose(eta.sigma, 1.0)

    def test_sigma_floor_on_tied_tail(self):
        eta = empirical_tail_vector(group([0.0, 0.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0]), 0.25)
        assert eta.sigma == DEFAULT_EPS_SIGMA

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        rewards = rng.standard_normal(41)
        a = empirical_tail_vector(group(rewards), 0.25)
        b = empirical_tail_vector(group(np.sort(rewards)), 0.25)
        assert a == b

    def test_matches_sorted_slice(self):
        rng = np.random.default_rng(1)
        rewards = rng.standard_normal(37)
        q = tail_count(37, 0.25)
        top = np.sort(rewards)[-q:]
        eta = empirical_tail_vector(group(rewards), 0.25)
        assert eta.r == top[0]
        assert_allclose(eta.mu, top.mean())
        assert_allclose(eta.sigma, top.std())

    def test_rejects_single_sample(self):
        with pytest.raises(InputError):
            empirical_tail_vector(group([1.0]), 0.25)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
class TestTailOverflow:
    # the top-q spread of rewards near 1e200 overflows float range
    REWARDS = [1e200 * i for i in range(1, 9)]

    def test_tail_vector_is_degenerate(self):
        with pytest.raises(DegenerateError, match="overflow"):
            empirical_tail_vector(group(self.REWARDS), 0.25)

    def test_prefix_tail_vectors_are_degenerate(self):
        with pytest.raises(DegenerateError, match="overflow"):
            prefix_tail_vectors(group(self.REWARDS), [4, 8], 0.25)


class TestPrefixTailVectors:
    def test_each_prefix_matches_direct_computation(self):
        rng = np.random.default_rng(7)
        g = group(rng.standard_normal(64))
        sizes = (40, 48, 56, 64)
        etas = prefix_tail_vectors(g, sizes, 0.25)
        for size, eta in zip(sizes, etas):
            direct = empirical_tail_vector(group(g.rewards[:size]), 0.25)
            assert eta == direct

    def test_rejects_descending_prefixes(self):
        g = group(np.arange(16.0))
        with pytest.raises(InputError):
            prefix_tail_vectors(g, (12, 8), 0.25)

    def test_rejects_prefix_beyond_group(self):
        g = group(np.arange(16.0))
        with pytest.raises(InputError):
            prefix_tail_vectors(g, (8, 32), 0.25)


class TestSplitHalves:
    def test_slices_rewards_and_scores(self):
        rng = np.random.default_rng(2)
        g = group(rng.standard_normal(10), scores=rng.standard_normal((10, 3)))
        a, b = split_halves(g)
        assert_allclose(a.rewards, g.rewards[:5])
        assert_allclose(b.rewards, g.rewards[5:])
        assert_allclose(a.scores, g.scores[:5])
        assert_allclose(b.scores, g.scores[5:])

    def test_rejects_odd_or_tiny(self):
        with pytest.raises(InputError):
            split_halves(group(np.arange(7.0)))
        with pytest.raises(InputError):
            split_halves(group(np.arange(2.0)))
