"""Advantage rules: the tail-extrapolated family and every baseline.

Combinatorial rules are checked against brute-force enumeration (all k-subsets
for the subset-max transform); identity checks between rules that should
coincide in special cases run with the normalization floor set to zero so the
identities are exact.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bontea import (
    DegenerateError,
    InputError,
    RewardGroup,
    RuleParams,
    TailVector,
    bon_max,
    bon_mean,
    bon_mean_raw,
    cat_bon,
    chow_bon_rl,
    compute_rule,
    grpo,
    grpo_z,
    prefix_tea,
    tail_shaped_reward,
    tea,
    tea_raw,
)
from bontea.advantages import RULE_NAMES, _subset_max_weights, with_group_seed

C_TILDE_128 = 2.692398465223146  # high-precision oracle, alpha = 1/4


class TestTailShapedReward:
    def test_zero_at_threshold(self):
        eta = TailVector(r=1.3, mu=2.0, sigma=0.7, q=3)
        assert tail_shaped_reward(eta, 1.3, 5.0) == 0.0

    def test_quadratic_term_vanishes_by_symmetry(self):
        eta = TailVector(r=1.0, mu=1.5, sigma=0.5, q=2)
        assert_allclose(tail_shaped_reward(eta, 2.0, -3.7), 1.0)
        assert_allclose(tail_shaped_reward(eta, 2.0, 9.9), 1.0)

    def test_hand_value(self):
        eta = TailVector(r=0.0, mu=0.0, sigma=1.0, q=1)
        assert_allclose(tail_shaped_reward(eta, 2.0, 1.0), 4.0)

    def test_vectorized(self):
        eta = TailVector(r=0.0, mu=0.0, sigma=1.0, q=1)
        u = np.array([0.0, 1.0, 2.0])
        assert_allclose(tail_shaped_reward(eta, u, 1.0), [0.0, 1.5, 4.0])


class TestTeaFamily:
    def test_raw_hand_example(self):
        rewards = np.array([0.0] * 6 + [1.0, 2.0])
        raw = tea_raw(rewards, RuleParams())
        # tail {1, 2}: r=1, mu=1.5, sigma=0.5; R_tilde(1)=0, R_tilde(2)=1
        expected = np.zeros(8)
        expected[7] = 4.0
        assert_allclose(raw.values, expected)

    def test_non_tail_entries_exactly_zero(self):
        rng = np.random.default_rng(0)
        rewards = rng.standard_normal(64)
        raw = tea_raw(rewards, RuleParams())
        r_hat = np.sort(rewards)[-16]
        assert np.all(raw.values[rewards < r_hat] == 0.0)

    def test_stabilized_hand_example(self):
        rewards = np.array([0.0] * 6 + [1.0, 2.0])
        adv = tea(rewards, RuleParams())
        assert_allclose(adv.values, [-0.5] * 7 + [3.5])

    def test_centered_to_zero_sum(self):
        rng = np.random.default_rng(1)
        adv = tea(rng.standard_normal(48), RuleParams())
        assert abs(adv.values.sum()) < 1e-10

    def test_max_at_group_maximum(self):
        # when the maximum clears both the threshold and the tail mean, the
        # stabilized advantage peaks there
        rng = np.random.default_rng(2)
        for _ in range(20):
            rewards = rng.standard_normal(32)
            adv = tea(rewards, RuleParams())
            assert np.argmax(adv.values) == np.argmax(rewards)

    def test_scales_with_c_tilde(self):
        # q=3 tail {1, 2, 4} is asymmetric about its mean, so the quadratic
        # term is active at the maximum and grows with the target N
        rewards = np.array([0.0] * 9 + [1.0, 2.0, 4.0])
        raw_small = tea_raw(rewards, RuleParams(n_target=2))
        raw_large = tea_raw(rewards, RuleParams(n_target=512))
        assert raw_large.values[-1] > raw_small.values[-1]


class TestPrefixTea:
    def test_single_prefix_reduces_to_tea(self):
        rng = np.random.default_rng(3)
        rewards = rng.standard_normal(64)
        params = RuleParams(k=1, j_count=1)
        assert_allclose(prefix_tea(rewards, params).values, tea(rewards, params).values, atol=1e-12)

    def test_zero_sum_and_prefix_structure(self):
        rng = np.random.default_rng(4)
        rewards = rng.standard_normal(64)
        adv = prefix_tea(rewards, RuleParams())
        assert abs(adv.values.sum()) < 1e-10

    def test_combination_matches_manual_sum(self):
        rng = np.random.default_rng(5)
        rewards = rng.standard_normal(64)
        params = RuleParams()
        from bontea import build_scheme, empirical_tail_vector

        scheme = build_scheme(64, 2, 4)
        manual = np.zeros(64)
        for w, rho, size in zip(scheme.weights, scheme.ratios, scheme.sizes):
            prefix = rewards[:size]
            eta = empirical_tail_vector(RewardGroup("", prefix), 0.25)
            shaped = tail_shaped_reward(eta, prefix, C_TILDE_128)
            raw = np.where(prefix >= eta.r, shaped / 0.25, 0.0)
            manual[:size] += w * rho * np.maximum(raw, 0.0)
        manual -= manual.mean()
        assert_allclose(prefix_tea(rewards, params).values, manual, atol=1e-9)


class TestGrpoFamily:
    def test_grpo_hand_example(self):
        assert_allclose(grpo(np.array([1.0, 2.0, 3.0])).values, [-1.0, 0.0, 1.0])

    def test_grpo_z_unit_scale(self):
        rng = np.random.default_rng(6)
        rewards = rng.standard_normal(32) * 5 + 2
        adv = grpo_z(rewards)
        assert abs(adv.values.mean()) < 1e-12
        assert_allclose(adv.values.std(), 1.0, rtol=1e-6)

    def test_grpo_z_constant_group_is_zero(self):
        adv = grpo_z(np.full(8, 3.0))
        assert_allclose(adv.values, np.zeros(8))


class TestBonMax:
    def test_mean_variant(self):
        rewards = np.array([0.5, 2.0, -1.0, 2.0])
        adv = bon_max(rewards, "mean")
        expected = np.zeros(4)
        expected[1] = 2.0 - rewards.mean()  # first argmax wins ties
        assert_allclose(adv.values, expected)

    def test_second_variant(self):
        rewards = np.array([0.5, 3.0, -1.0, 2.0])
        adv = bon_max(rewards, "second")
        expected = np.zeros(4)
        expected[1] = 1.0
        assert_allclose(adv.values, expected)

    def test_rejects_unknown_variant(self):
        with pytest.raises(InputError):
            bon_max(np.array([1.0, 2.0]), "median")


class TestBonMean:
    def test_subset_sum_identity_by_enumeration(self):
        # sum_i B_i = k * E[max over a uniform random k-subset]
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(3, 9))
            k = int(rng.integers(1, m))
            rewards = rng.standard_normal(m)
            b = bon_mean_raw(rewards, k)
            subset_maxima = [max(rewards[list(s)]) for s in combinations(range(m), k)]
            assert_allclose(b.sum(), k * np.mean(subset_maxima), rtol=0, atol=1e-12)

    def test_per_sample_values_by_enumeration(self):
        # B_i = (1/C(m,k)) * sum over subsets containing i of the subset max
        rng = np.random.default_rng(13)
        for _ in range(50):
            m = int(rng.integers(3, 9))
            k = int(rng.integers(1, m))
            rewards = rng.standard_normal(m)
            b = bon_mean_raw(rewards, k)
            from math import comb

            expected = np.zeros(m)
            for s in combinations(range(m), k):
                best = rewards[list(s)].max()
                for i in s:
                    expected[i] += best
            assert_allclose(b, expected / comb(m, k), rtol=0, atol=1e-12)

    def test_k1_equals_grpo_z_exactly_without_floor(self):
        rng = np.random.default_rng(8)
        rewards = rng.standard_normal(16)
        assert_allclose(
            bon_mean(rewards, 1, eps_norm=0.0).values,
            grpo_z(rewards, eps_norm=0.0).values,
            rtol=0,
            atol=1e-12,
        )

    def test_weights_match_exact_rationals(self):
        # own weights C(i-1, k-1)/C(m, k) and upper weights C(i-2, k-2)/C(m, k)
        from fractions import Fraction
        from math import comb

        for m in range(2, 21):
            for k in range(1, m):
                for shift in (0, 1):
                    got = _subset_max_weights(m, k, shift)
                    exact = [
                        Fraction(comb(i - 1 - shift, k - 1 - shift), comb(m, k))
                        if k - 1 - shift >= 0 and i - 1 - shift >= 0
                        else Fraction(0)
                        for i in range(1, m + 1)
                    ]
                    for g, e in zip(got, exact):
                        if e == 0:
                            assert g == 0.0
                        else:
                            assert abs(Fraction(g) - e) <= Fraction(1, 10**12) * e

    def test_finite_beyond_float_binomials(self):
        # C(4096, 512) and C(2048, 1500) overflow a float
        rng = np.random.default_rng(9)
        for m, k in ((4096, 512), (2048, 1500)):
            # hockey-stick identities: the own weights sum to 1, the upper ones to k/m
            assert_allclose(_subset_max_weights(m, k, 0).sum(), 1.0, rtol=1e-10)
            assert_allclose(_subset_max_weights(m, k, 1).sum(), k / m, rtol=1e-10)
            rewards = rng.standard_normal(m)
            assert np.all(np.isfinite(bon_mean_raw(rewards, k)))
            assert np.all(np.isfinite(bon_mean(rewards, k).values))

    def test_rejects_bad_k(self):
        with pytest.raises(InputError):
            bon_mean(np.arange(4.0), 4)
        with pytest.raises(InputError):
            bon_mean(np.arange(4.0), 0)


class TestChow:
    def test_structure(self):
        rng = np.random.default_rng(9)
        rewards = rng.standard_normal(16)
        params = RuleParams(seed=11)
        adv = chow_bon_rl(rewards, params)
        values = adv.values
        m = 16
        perm = np.random.default_rng(11).permutation(m)
        sel, cor = perm[:8], perm[8:]
        i_star = sel[np.argmax(rewards[sel])]
        r_star = rewards[i_star]
        assert values[i_star] == m * r_star
        lam = 7.0  # defaults to n_sel - 1
        for idx in cor:
            if rewards[idx] > r_star:
                assert_allclose(values[idx], -m * lam / 8 * r_star)
            else:
                assert values[idx] == 0.0
        for idx in sel:
            if idx != i_star:
                assert values[idx] == 0.0

    def test_seed_determinism(self):
        rng = np.random.default_rng(10)
        rewards = rng.standard_normal(12)
        a = chow_bon_rl(rewards, RuleParams(seed=3)).values
        b = chow_bon_rl(rewards, RuleParams(seed=3)).values
        c = chow_bon_rl(rewards, RuleParams(seed=4)).values
        assert_allclose(a, b)
        assert not np.allclose(a, c)

    def test_rejects_inconsistent_split(self):
        with pytest.raises(InputError):
            chow_bon_rl(np.arange(8.0), RuleParams(n_sel=8, m_corr=4))


class TestCatBon:
    def test_n1_equals_grpo_z_exactly_without_floor(self):
        rng = np.random.default_rng(11)
        rewards = rng.standard_normal(16)
        assert_allclose(
            cat_bon(rewards, 1, eps_norm=0.0).values,
            grpo_z(rewards, eps_norm=0.0).values,
            rtol=0,
            atol=1e-12,
        )

    def test_weights_favor_top_ranks(self):
        rewards = np.arange(8.0)
        adv = cat_bon(rewards, 16)
        # the maximum carries almost all weight at large N
        assert adv.values[-1] > 4.0
        assert np.all(np.abs(adv.values[:4]) < 1e-4)

    def test_strictly_below_rank_on_ties(self):
        # tied minimum rewards share F_< = 0, so their weights are 0 for N > 1
        rewards = np.array([1.0, 1.0, 2.0, 3.0])
        adv = cat_bon(rewards, 4)
        assert adv.values[0] == adv.values[1] == 0.0


class TestDispatch:
    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_every_rule_runs(self, rule):
        rng = np.random.default_rng(12)
        rewards = rng.standard_normal(16)
        params = RuleParams(bon_k=2)
        adv = compute_rule(rule, rewards, params)
        assert len(adv) == 16
        assert np.all(np.isfinite(adv.values))

    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_one_reward_group_is_input_error(self, rule):
        with pytest.raises(InputError, match="m >= 2"):
            compute_rule(rule, RewardGroup("one", np.array([1.0])), RuleParams(bon_k=1))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("rule", ["tea", "tea-raw", "prefix-tea"])
    def test_overflowing_tail_is_degenerate(self, rule):
        rewards = np.array([1e200 * i for i in range(1, 9)])
        with pytest.raises(DegenerateError, match="overflow"):
            compute_rule(rule, rewards, RuleParams(j_count=2, k=1))

    def test_bon_mean_requires_k(self):
        with pytest.raises(InputError):
            compute_rule("bon-mean", np.arange(8.0), RuleParams())

    def test_unknown_rule(self):
        with pytest.raises(InputError):
            compute_rule("ppo", np.arange(8.0), RuleParams())

    def test_group_seed_offsets(self):
        params = RuleParams(seed=5)
        assert with_group_seed(params, 3).seed == 8
        assert with_group_seed(params, 0) == params

    def test_accepts_reward_group_and_array(self):
        rewards = np.array([0.0] * 6 + [1.0, 2.0])
        a = tea(RewardGroup("p", rewards), RuleParams())
        b = tea(rewards, RuleParams())
        assert_allclose(a.values, b.values)
