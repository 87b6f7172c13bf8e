"""Synthetic Gaussian lab: exact gradient targets and the measurement engine.

The closed-form conditional mean H(eta) is validated against direct adaptive
quadrature of its defining integral; the measurement engine is validated on
the oracle rule (whose bias is exactly zero) and on its own determinism and
MSE bookkeeping.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

from bontea import (
    DegenerateError,
    InputError,
    RewardGroup,
    RuleParams,
    SyntheticSpec,
    cross_fit_gradient,
    estimator_bias_variance,
    h_population,
    mse_frontier,
    true_gradient,
)
from bontea.gauss import tail_constants
from bontea.synth import (
    _MomentAccumulator,
    default_replications,
    population_tail_vector,
    score_matrix,
)
from bontea.tailstats import TailVector, empirical_tail_vector

# 50-digit quadrature oracle for the default spec's target gradient
TRUE_GRADIENT = (0.33439550343569121, 0.49397152505308593)

SPEC = SyntheticSpec()


def quadrature_h(eta: TailVector, spec: SyntheticSpec) -> np.ndarray:
    """Independent evaluation of H(eta) by adaptive quadrature per component."""
    consts = tail_constants(spec.alpha, spec.n_target)
    c_tilde = consts.c_tilde_n
    out = []
    for t in spec.score_thresholds:
        sbar = 1.0 - stats.norm.cdf(t)

        def integrand(z: float) -> float:
            shaped = (z - eta.r) + c_tilde / (2 * eta.sigma) * (
                (z - eta.mu) ** 2 - (eta.r - eta.mu) ** 2
            )
            return shaped * (float(z >= t) - sbar) * stats.norm.pdf(z) / spec.alpha

        points = [t] if eta.r < t < 12.0 else []
        value, _ = integrate.quad(
            integrand, eta.r, 12.0, points=points, epsabs=1e-11, epsrel=1e-12, limit=400
        )
        out.append(value)
    return np.array(out)


class TestExactTargets:
    def test_true_gradient_frozen_oracle(self):
        assert_allclose(true_gradient(SPEC), TRUE_GRADIENT, rtol=0, atol=1e-9)

    def test_h_at_population_tail_equals_true_gradient(self):
        h = h_population(population_tail_vector(SPEC), SPEC)
        assert_allclose(h, true_gradient(SPEC), rtol=0, atol=1e-12)

    def test_h_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            eta = TailVector(
                r=float(rng.uniform(0.2, 1.8)),
                mu=float(rng.uniform(0.8, 2.2)),
                sigma=float(rng.uniform(0.2, 1.0)),
                q=0,
            )
            assert_allclose(h_population(eta, SPEC), quadrature_h(eta, SPEC), rtol=0, atol=1e-9)

    def test_h_rejects_nonpositive_sigma(self):
        with pytest.raises(InputError):
            h_population(TailVector(r=1.0, mu=1.2, sigma=0.0, q=0), SPEC)

    def test_score_matrix_centering(self):
        z = np.linspace(-4, 4, 100_001)
        scores = score_matrix(SPEC, z)
        assert scores.shape == (z.size, 2)
        # centered indicators: values are {-(1-Phi(t)), Phi(t)} scaled
        uniques = np.unique(scores[:, 0])
        assert uniques.size == 2
        assert_allclose(uniques.sum(), 1.0 - 2 * (1.0 - stats.norm.cdf(1.0)), atol=1e-12)


class TestCrossFit:
    def test_conditional_mean_matches_h(self):
        # with the tail batch fixed, averaging the estimator over fresh
        # evaluation batches must converge to the closed-form H(eta_hat)
        rng = np.random.default_rng(1)
        group_a = RewardGroup("a", rng.standard_normal(256))
        eta = empirical_tail_vector(group_a, SPEC.alpha)
        target = h_population(eta, SPEC)
        reps = 40_000
        values = np.empty((reps, 2))
        for i in range(reps):
            group_b = RewardGroup("b", rng.standard_normal(256))
            values[i] = cross_fit_gradient(group_a, group_b, SPEC)
        se = values.std(axis=0) / np.sqrt(reps)
        assert np.all(np.abs(values.mean(axis=0) - target) < 5 * se)

    def test_uses_explicit_scores_when_present(self):
        rng = np.random.default_rng(2)
        rewards_a = rng.standard_normal(64)
        rewards_b = rng.standard_normal(64)
        scores_b = score_matrix(SPEC, rewards_b)
        with_scores = cross_fit_gradient(
            RewardGroup("a", rewards_a),
            RewardGroup("b", rewards_b, scores=scores_b),
            SPEC,
        )
        without = cross_fit_gradient(
            RewardGroup("a", rewards_a), RewardGroup("b", rewards_b), SPEC
        )
        assert_allclose(with_scores, without)

    def test_rejects_unequal_batches(self):
        with pytest.raises(InputError):
            cross_fit_gradient(
                RewardGroup("a", np.zeros(8) + 1.0),
                RewardGroup("b", np.ones(16)),
                SPEC,
            )


class TestMeasurementEngine:
    def test_deterministic_under_seed(self):
        a = estimator_bias_variance("tea", SPEC, m=64, replications=4_000, seed=5)
        b = estimator_bias_variance("tea", SPEC, m=64, replications=4_000, seed=5)
        assert_allclose(a.bias_vec, b.bias_vec, rtol=0, atol=0)
        assert a.variance == b.variance

    def test_seed_changes_draws(self):
        a = estimator_bias_variance("tea", SPEC, m=64, replications=4_000, seed=5)
        b = estimator_bias_variance("tea", SPEC, m=64, replications=4_000, seed=6)
        assert not np.allclose(a.bias_vec, b.bias_vec)

    def test_oracle_rule_unbiased(self):
        row = estimator_bias_variance("oracle", SPEC, m=128, replications=60_000, seed=7)
        assert np.all(np.abs(row.bias_vec) < 5 * row.bias_se)

    def test_mse_bookkeeping(self):
        row = estimator_bias_variance("tea", SPEC, m=64, replications=4_000, seed=8)
        for p, mse in row.mse_at_p.items():
            assert_allclose(mse, row.bias_norm**2 + row.variance / p, rtol=0, atol=1e-15)

    def test_prefix_requires_even_m(self):
        with pytest.raises(InputError):
            estimator_bias_variance("prefix-tea", SPEC, m=129, replications=2_000)

    def test_degenerate_all_zero_rule(self):
        # m=4 at alpha=1/4 has a single-member tail whose shaped reward is 0
        with pytest.raises(DegenerateError):
            estimator_bias_variance("tea", SPEC, m=4, replications=1_000, seed=0)

    def test_rejects_tiny_replications(self):
        with pytest.raises(InputError):
            estimator_bias_variance("tea", SPEC, m=64, replications=10)

    def test_default_replications_schedule(self):
        assert default_replications(1024) == 200_000
        assert default_replications(1025) == 50_000

    def test_generic_rule_path_matches_direct_computation(self):
        # the per-replication fallback must produce the same induced gradients
        # as computing the rule directly on the same streams
        from bontea.advantages import compute_rule
        from bontea.synth import BLOCK_SIZE, _induced_gradient

        reps, m = 1_000, 16
        row = estimator_bias_variance("grpo", SPEC, m=m, replications=reps, seed=9)
        streams = np.random.SeedSequence(9).spawn(1)
        z = np.random.default_rng(streams[0]).standard_normal((BLOCK_SIZE, m))[:reps]
        adv = np.stack([compute_rule("grpo", row_z, RuleParams()).values for row_z in z])
        grads = _induced_gradient(adv, z, SPEC)
        assert_allclose(grads.mean(axis=0) - true_gradient(SPEC), row.bias_vec, atol=1e-12)


class TestMseFrontier:
    def test_rows_and_ratio_consistent(self):
        frontier = mse_frontier(
            ["tea", "prefix-tea"], [64, 128], p_grid=(1, 256), replications=4_000, seed=11
        )
        assert len(frontier.rows) == 4
        by = {(r.estimator_tag, r.m): r for r in frontier.rows}
        for a, m in enumerate(frontier.m_grid):
            for b, p in enumerate(frontier.p_grid):
                expected = np.log10(
                    by[("prefix-tea", m)].mse_at_p[p] / by[("tea", m)].mse_at_p[p]
                )
                assert_allclose(frontier.ratio_log10[a, b], expected)

    def test_no_ratio_without_both_rules(self):
        frontier = mse_frontier(["tea"], [64], replications=4_000, seed=12)
        assert frontier.ratio_log10 is None

    def test_rejects_empty_grids(self):
        with pytest.raises(InputError):
            mse_frontier([], [64], replications=4_000)


class TestMomentAccumulator:
    def test_stable_at_large_offset(self):
        # raw power sums lose the variance entirely at mean/sd = 1e7
        rng = np.random.default_rng(21)
        values = 1e7 + rng.standard_normal((40_000, 2)) * np.array([1.0, 3.0])
        acc = _MomentAccumulator(2)
        for block in np.array_split(values, [1, 4096, 9000, 20_000, 31_111]):
            acc.add(block)
        mean = values.mean(axis=0)
        dev = values - mean
        m2 = (dev**2).mean(axis=0)
        m4 = (dev**4).mean(axis=0)
        assert acc.n == values.shape[0]
        assert_allclose(acc.mean(), mean, rtol=1e-13)
        assert_allclose(acc.var(), values.var(axis=0), rtol=1e-9)
        assert acc.var_se() > 0
        assert_allclose(acc.var_se(), np.sqrt(((m4 - m2**2) / values.shape[0]).sum()), rtol=1e-9)

    def test_blocking_does_not_matter(self):
        values = np.random.default_rng(22).standard_exponential((10_000, 3))
        one, many = _MomentAccumulator(3), _MomentAccumulator(3)
        one.add(values)
        for block in np.array_split(values, 37):
            many.add(block)
        assert_allclose(many.mean(), one.mean(), rtol=1e-13)
        assert_allclose(many.var(), one.var(), rtol=1e-12)
        assert_allclose(many.var_se(), one.var_se(), rtol=1e-12)
