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

from bontea import DegenerateError, InputError, RuleParams, bon_mean_raw, compute_rules, tail_stats
from bontea.advantages import RULE_NAMES, _shaped, _subset_max_weights

C_TILDE_128 = 2.692398465223146  # high-precision oracle, alpha = 1/4


def row(rewards) -> np.ndarray:
    """One group's rewards as the (1, m) row the batch functions take."""
    return np.asarray(rewards, dtype=float)[None, :]


class TestTailShapedReward:
    """``_shaped(u, r, mu, sigma, c_tilde)``, the one pointwise R_tilde."""

    def test_zero_at_threshold(self):
        assert _shaped(1.3, 1.3, 2.0, 0.7, 5.0) == 0.0

    def test_quadratic_term_vanishes_by_symmetry(self):
        assert_allclose(_shaped(2.0, 1.0, 1.5, 0.5, -3.7), 1.0)
        assert_allclose(_shaped(2.0, 1.0, 1.5, 0.5, 9.9), 1.0)

    def test_hand_value(self):
        assert_allclose(_shaped(2.0, 0.0, 0.0, 1.0, 1.0), 4.0)

    def test_vectorized(self):
        u = np.array([0.0, 1.0, 2.0])
        assert_allclose(_shaped(u, 0.0, 0.0, 1.0, 1.0), [0.0, 1.5, 4.0])


class TestTeaFamily:
    def test_raw_hand_example(self):
        rewards = np.array([0.0] * 6 + [1.0, 2.0])
        raw = compute_rules("tea-raw", row(rewards), RuleParams())[0]
        # tail {1, 2}: r=1, mu=1.5, sigma=0.5; R_tilde(1)=0, R_tilde(2)=1
        expected = np.zeros(8)
        expected[7] = 4.0
        assert_allclose(raw, expected)

    def test_non_tail_entries_exactly_zero(self):
        rng = np.random.default_rng(0)
        rewards = rng.standard_normal(64)
        raw = compute_rules("tea-raw", row(rewards), RuleParams())[0]
        r_hat = np.sort(rewards)[-16]
        assert np.all(raw[rewards < r_hat] == 0.0)

    def test_stabilized_hand_example(self):
        rewards = np.array([0.0] * 6 + [1.0, 2.0])
        adv = compute_rules("tea", row(rewards), RuleParams())[0]
        assert_allclose(adv, [-0.5] * 7 + [3.5])

    def test_centered_to_zero_sum(self):
        rng = np.random.default_rng(1)
        adv = compute_rules("tea", row(rng.standard_normal(48)), RuleParams())[0]
        assert abs(adv.sum()) < 1e-10

    def test_max_at_group_maximum(self):
        # when the maximum clears both the threshold and the tail mean, the
        # stabilized advantage peaks there
        rng = np.random.default_rng(2)
        for _ in range(20):
            rewards = rng.standard_normal(32)
            adv = compute_rules("tea", row(rewards), RuleParams())[0]
            assert np.argmax(adv) == np.argmax(rewards)

    def test_scales_with_c_tilde(self):
        # q=3 tail {1, 2, 4} is asymmetric about its mean, so the quadratic
        # term is active at the maximum and grows with the target N
        rewards = np.array([0.0] * 9 + [1.0, 2.0, 4.0])
        raw_small = compute_rules("tea-raw", row(rewards), RuleParams(n_target=2))[0]
        raw_large = compute_rules("tea-raw", row(rewards), RuleParams(n_target=512))[0]
        assert raw_large[-1] > raw_small[-1]


class TestPrefixTea:
    def test_single_prefix_reduces_to_tea(self):
        rng = np.random.default_rng(3)
        rewards = rng.standard_normal(64)
        params = RuleParams(k=1, j_count=1)
        assert_allclose(
            compute_rules("prefix-tea", row(rewards), params)[0],
            compute_rules("tea", row(rewards), params)[0],
            atol=1e-12,
        )

    def test_zero_sum_and_prefix_structure(self):
        rng = np.random.default_rng(4)
        rewards = rng.standard_normal(64)
        adv = compute_rules("prefix-tea", row(rewards), RuleParams())[0]
        assert abs(adv.sum()) < 1e-10

    def test_combination_matches_manual_sum(self):
        rng = np.random.default_rng(5)
        rewards = rng.standard_normal(64)
        params = RuleParams()
        from bontea import build_scheme

        scheme = build_scheme(64, 2, 4)
        manual, manual_raw = np.zeros(64), np.zeros(64)
        for w, rho, size in zip(scheme.weights, scheme.ratios, scheme.sizes):
            prefix = rewards[:size]
            r, mu, sigma = (float(v[0, 0]) for v in tail_stats(row(prefix), 0.25))
            shaped = _shaped(prefix, r, mu, sigma, C_TILDE_128)
            raw = np.where(prefix >= r, shaped / 0.25, 0.0)
            manual[:size] += w * rho * np.maximum(raw, 0.0)
            manual_raw[:size] += w * rho * raw
        manual -= manual.mean()
        assert_allclose(compute_rules("prefix-tea", row(rewards), params)[0], manual, atol=1e-9)
        # the raw form skips the positive parts and the centring
        raw_adv = compute_rules("prefix-tea-raw", row(rewards), params)[0]
        assert_allclose(raw_adv, manual_raw, atol=1e-9)


class TestGrpoFamily:
    def test_grpo_hand_example(self):
        adv = compute_rules("grpo", row(np.array([1.0, 2.0, 3.0])), RuleParams())[0]
        assert_allclose(adv, [-1.0, 0.0, 1.0])

    def test_grpo_z_unit_scale(self):
        rng = np.random.default_rng(6)
        rewards = rng.standard_normal(32) * 5 + 2
        adv = compute_rules("grpo-z", row(rewards), RuleParams())[0]
        assert abs(adv.mean()) < 1e-12
        assert_allclose(adv.std(), 1.0, rtol=1e-6)

    def test_grpo_z_constant_group_is_zero(self):
        adv = compute_rules("grpo-z", row(np.full(8, 3.0)), RuleParams())[0]
        assert_allclose(adv, np.zeros(8))


class TestBonMax:
    def test_mean_variant(self):
        rewards = np.array([0.5, 2.0, -1.0, 2.0])
        adv = compute_rules("bonmax-mean", row(rewards), RuleParams())[0]
        expected = np.zeros(4)
        expected[1] = 2.0 - rewards.mean()  # first argmax wins ties
        assert_allclose(adv, expected)

    def test_second_variant(self):
        rewards = np.array([0.5, 3.0, -1.0, 2.0])
        adv = compute_rules("bonmax-second", row(rewards), RuleParams())[0]
        expected = np.zeros(4)
        expected[1] = 1.0
        assert_allclose(adv, expected)


class TestBonMean:
    def test_subset_sum_identity_by_enumeration(self):
        # sum_i B_i = k * E[max over a uniform random k-subset]
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(3, 9))
            k = int(rng.integers(1, m))
            rewards = rng.standard_normal(m)
            b = bon_mean_raw(row(rewards), k)[0]
            subset_maxima = [max(rewards[list(s)]) for s in combinations(range(m), k)]
            assert_allclose(b.sum(), k * np.mean(subset_maxima), rtol=0, atol=1e-12)

    def test_per_sample_values_by_enumeration(self):
        # B_i = (1/C(m,k)) * sum over subsets containing i of the subset max
        rng = np.random.default_rng(13)
        for _ in range(50):
            m = int(rng.integers(3, 9))
            k = int(rng.integers(1, m))
            rewards = rng.standard_normal(m)
            b = bon_mean_raw(row(rewards), k)[0]
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
            compute_rules("bon-mean", row(rewards), RuleParams(bon_k=1, eps_norm=0.0))[0],
            compute_rules("grpo-z", row(rewards), RuleParams(eps_norm=0.0))[0],
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
            assert np.all(np.isfinite(bon_mean_raw(row(rewards), k)[0]))
            adv = compute_rules("bon-mean", row(rewards), RuleParams(bon_k=k))[0]
            assert np.all(np.isfinite(adv))

    def test_rejects_bad_k(self):
        with pytest.raises(InputError):
            compute_rules("bon-mean", row(np.arange(4.0)), RuleParams(bon_k=4))
        with pytest.raises(InputError):
            compute_rules("bon-mean", row(np.arange(4.0)), RuleParams(bon_k=0))


class TestChow:
    def test_structure(self):
        rng = np.random.default_rng(9)
        rewards = rng.standard_normal(16)
        params = RuleParams(seed=11)
        adv = compute_rules("chow", row(rewards), params)[0]
        values = adv
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
        a = compute_rules("chow", row(rewards), RuleParams(seed=3))[0]
        b = compute_rules("chow", row(rewards), RuleParams(seed=3))[0]
        c = compute_rules("chow", row(rewards), RuleParams(seed=4))[0]
        assert_allclose(a, b)
        assert not np.allclose(a, c)

    def test_rejects_inconsistent_split(self):
        # no sample is left to correct with
        with pytest.raises(InputError, match="need n_sel < m, got n_sel=8, m=8"):
            compute_rules("chow", row(np.arange(8.0)), RuleParams(n_sel=8))


class TestCatBon:
    def test_n1_equals_grpo_z_exactly_without_floor(self):
        rng = np.random.default_rng(11)
        rewards = rng.standard_normal(16)
        assert_allclose(
            compute_rules("cat-bon", row(rewards), RuleParams(n_target=1, eps_norm=0.0))[0],
            compute_rules("grpo-z", row(rewards), RuleParams(eps_norm=0.0))[0],
            rtol=0,
            atol=1e-12,
        )

    def test_weights_favor_top_ranks(self):
        rewards = np.arange(8.0)
        adv = compute_rules("cat-bon", row(rewards), RuleParams(n_target=16))[0]
        # the maximum carries almost all weight at large N
        assert adv[-1] > 4.0
        assert np.all(np.abs(adv[:4]) < 1e-4)

    def test_strictly_below_rank_on_ties(self):
        # tied minimum rewards share F_< = 0, so their weights are 0 for N > 1
        rewards = np.array([1.0, 1.0, 2.0, 3.0])
        adv = compute_rules("cat-bon", row(rewards), RuleParams(n_target=4))[0]
        assert adv[0] == adv[1] == 0.0


class TestNormalizationFloor:
    """``eps_norm`` of grpo-z, bon-mean and cat-bon: >= 0 and finite; 0 needs a nonzero spread."""

    NORMALIZED = ["grpo-z", "bon-mean", "cat-bon"]

    @pytest.mark.parametrize("rule", NORMALIZED)
    @pytest.mark.parametrize("eps_norm", [-1e-8, float("nan"), float("inf"), float("-inf")])
    def test_bad_floor_is_input_error(self, rule, eps_norm):
        with pytest.raises(InputError, match="eps_norm"):
            compute_rules(rule, row(np.arange(8.0)), RuleParams(bon_k=2, eps_norm=eps_norm))

    @pytest.mark.parametrize("rule", NORMALIZED)
    def test_constant_group_without_floor_is_degenerate(self, rule):
        with pytest.raises(DegenerateError, match="eps_norm"):
            compute_rules(rule, row(np.ones(4)), RuleParams(bon_k=2, eps_norm=0.0))

    def test_vanishing_cat_bon_weights_without_floor_are_degenerate(self):
        # every weight N F<^(N-1) underflows to 0 though the group is not constant
        with pytest.raises(DegenerateError, match="eps_norm"):
            compute_rules("cat-bon", row(np.arange(4.0)), RuleParams(n_target=5000, eps_norm=0.0))

    @pytest.mark.parametrize("rule", NORMALIZED)
    def test_zero_floor_on_a_spread_group_is_finite(self, rule):
        adv = compute_rules(rule, row(np.arange(8.0)), RuleParams(bon_k=2, eps_norm=0.0))[0]
        assert np.all(np.isfinite(adv))

    @pytest.mark.parametrize("rule", NORMALIZED)
    def test_constant_group_with_default_floor_is_zero(self, rule):
        adv = compute_rules(rule, row(np.ones(4)), RuleParams(bon_k=2))[0]
        assert np.all(adv == 0.0)


class TestDispatch:
    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_every_rule_runs(self, rule):
        rng = np.random.default_rng(12)
        rewards = rng.standard_normal(16)
        params = RuleParams(bon_k=2)
        adv = compute_rules(rule, row(rewards), params)[0]
        assert len(adv) == 16
        assert np.all(np.isfinite(adv))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("alpha", 0.7, r"alpha must lie in \(0, 1/2\), got 0.7"),
            ("n_target", 0, "n_target must be >= 1, got 0"),
            ("eps_sigma", 0.0, "eps_sigma must be positive"),
            ("eps_norm", float("nan"), "eps_norm must be finite and >= 0, got nan"),
            ("bon_k", 0, "bon_k must be >= 1, got 0"),
            ("j_count", 0, "j_count must be >= 1, got 0"),
            ("k", 0, "need 1 <= k <= J, got k=0, J=4"),
            ("k", 5, "need 1 <= k <= J, got k=5, J=4"),
            ("n_sel", 0, "n_sel must be >= 1, got 0"),
            ("lambda_nsel", float("inf"), "lambda_nsel must be finite, got inf"),
            ("eps_sigma", float("inf"), "eps_sigma must be finite"),
            ("seed", -1, "seed must be >= 0, got -1"),
        ],
    )
    def test_params_are_checked_before_any_rewards(self, field, value, message):
        with pytest.raises(InputError, match=message):
            RuleParams(**{field: value})

    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_one_reward_group_is_input_error(self, rule):
        with pytest.raises(InputError, match="m >= 2"):
            compute_rules(rule, row([1.0]), RuleParams(bon_k=1))

    @pytest.mark.parametrize("rule", ["tea", "tea-raw", "prefix-tea", "prefix-tea-raw"])
    def test_overflowing_tail_is_degenerate(self, rule):
        rewards = np.array([1e200 * i for i in range(1, 9)])
        with pytest.raises(DegenerateError, match="overflow"):
            compute_rules(rule, row(rewards), RuleParams(j_count=2, k=1))

    @pytest.mark.parametrize("rule", ["grpo-z", "bon-mean", "cat-bon"])
    def test_overflowing_spread_is_degenerate(self, rule):
        rewards = np.array([1e160 * i for i in range(1, 9)])
        with pytest.raises(DegenerateError, match="reward statistics overflow"):
            compute_rules(rule, row(rewards), RuleParams(bon_k=2))

    def test_bon_mean_requires_k(self):
        with pytest.raises(InputError):
            compute_rules("bon-mean", row(np.arange(8.0)), RuleParams())

    def test_unknown_rule(self):
        with pytest.raises(InputError):
            compute_rules("ppo", row(np.arange(8.0)), RuleParams())

    def test_group_seed_replaces_params_seed(self):
        rewards = np.random.default_rng(13).standard_normal(16)
        seeded = compute_rules("chow", row(rewards), RuleParams(seed=5), [8])[0]
        assert np.array_equal(seeded, compute_rules("chow", row(rewards), RuleParams(seed=8))[0])
        assert not np.array_equal(seeded, compute_rules("chow", row(rewards), RuleParams(seed=5))[0])

