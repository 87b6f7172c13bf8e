"""Synthetic Gaussian lab: exact gradient targets and the measurement engine.

The closed-form conditional mean H(eta) is validated against direct adaptive
quadrature of its defining integral; the measurement engine is validated on
the oracle rule (whose bias is exactly zero) and on its own determinism and
MSE bookkeeping.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, stats

from bontea import (
    DegenerateError,
    InputError,
    RewardGroup,
    RuleParams,
    SyntheticSpec,
    estimator_bias_variance,
    true_gradient,
)
from bontea.advantages import _shaped
from bontea.cli import main
from bontea.gauss import tail_constants
from bontea.synth import (
    LAB_TAGS,
    _gradient_kernel,
    _h_batch,
    _MomentAccumulator,
    _PrefixCrossFit,
    _score_sums,
    _shaped_coefficients,
    _shaped_sum,
    _spec_constants,
    default_replications,
)
from bontea.tailstats import DEFAULT_EPS_SIGMA, tail_stats

# 50-digit quadrature oracle for the default spec's target gradient
TRUE_GRADIENT = (0.33439550343569121, 0.49397152505308593)

SPEC = SyntheticSpec()


class TailVector(NamedTuple):
    r: float
    mu: float
    sigma: float


def group_tail_vector(group: RewardGroup, alpha: float, eps_sigma: float = DEFAULT_EPS_SIGMA) -> TailVector:
    """A group's tail vector, from ``tail_stats`` on its (1, m) row."""
    return TailVector(*(float(v[0, 0]) for v in tail_stats(group.rewards[None, :], alpha, eps_sigma)))


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


def h_population(eta: TailVector, spec: SyntheticSpec) -> np.ndarray:
    return _h_batch(eta.r, eta.mu, eta.sigma, spec)


class TestExactTargets:
    def test_true_gradient_frozen_oracle(self):
        assert_allclose(true_gradient(SPEC), TRUE_GRADIENT, rtol=0, atol=1e-9)

    def test_h_at_population_tail_equals_true_gradient(self):
        consts = tail_constants(SPEC.alpha, SPEC.n_target)
        eta = TailVector(consts.z_alpha, consts.lambda_alpha, float(np.sqrt(consts.delta_alpha)))
        assert np.array_equal(h_population(eta, SPEC), true_gradient(SPEC))

    def test_h_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            eta = TailVector(
                r=float(rng.uniform(0.2, 1.8)),
                mu=float(rng.uniform(0.8, 2.2)),
                sigma=float(rng.uniform(0.2, 1.0)),
            )
            assert_allclose(h_population(eta, SPEC), quadrature_h(eta, SPEC), rtol=0, atol=1e-9)

    def test_score_matrix_centering(self):
        # the lab's score sums of one entry per row are that entry's scores S(z)
        z = np.linspace(-4, 4, 100_001)
        scores = _score_sums(np.ones((z.size, 1)), z[:, None], SPEC)
        assert scores.shape == (z.size, 2)
        # centered indicators: values are {-(1-Phi(t)), Phi(t)} scaled
        uniques = np.unique(scores[:, 0])
        assert uniques.size == 2
        assert_allclose(uniques.sum(), 1.0 - 2 * (1.0 - stats.norm.cdf(1.0)), atol=1e-12)


class TestShapedCoefficients:
    """The lab's power-sum form of R_tilde against the rules' pointwise ``_shaped``."""

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(min_value=8, max_value=256),
        spread=st.sampled_from([1e-6, 4e-6, 0.5, 3.0]),
        loc=st.sampled_from([0.0, -2.0, 1.5, 100.0]),
        decimals=st.sampled_from([None, 0, 1]),
        n_target=st.sampled_from([2, 128, 4096]),
        t_offsets=st.lists(st.floats(min_value=0.01, max_value=6.0), min_size=1, max_size=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_sums_reproduce_pointwise_reward(
        self, m, spread, loc, decimals, n_target, t_offsets, seed
    ):
        # narrow tails (spread near eps_sigma, so sigma ~ 1e-6) and wide ones,
        # with ties at r_hat when the draws are rounded
        steps = np.random.default_rng(seed).standard_normal(m)
        x = loc + spread * (steps if decimals is None else np.round(steps, decimals))
        r, mu, sigma = (float(v[0, 0]) for v in tail_stats(x[None, :], SPEC.alpha))
        c_tilde = tail_constants(SPEC.alpha, n_target).c_tilde_n
        # the lab expands around r, and around each t_c > r for entries above t_c
        for shift in (r, *(r + t * sigma for t in t_offsets)):
            u = np.append(x[x >= shift], shift)
            v = u - shift
            coef = _shaped_coefficients(r, mu, sigma, c_tilde, shift)
            summed = _shaped_sum(coef, np.stack([np.ones_like(v), v, v * v]))
            pointwise = _shaped(u, r, mu, sigma, c_tilde)
            assert np.abs(summed - pointwise).max() <= 1e-12 * np.abs(pointwise).max()
        # at u = r both forms vanish exactly
        assert _shaped(r, r, mu, sigma, c_tilde) == 0.0
        assert _shaped_sum(_shaped_coefficients(r, mu, sigma, c_tilde, r), [1.0, 0.0, 0.0]) == 0.0


def score_matrix(spec: SyntheticSpec, z: np.ndarray) -> np.ndarray:
    """Centered threshold scores S(z), shape z.shape + (d,)."""
    _, thresholds, sbar = _spec_constants(spec)
    return (np.asarray(z, dtype=float)[..., None] >= thresholds) - sbar


class TestCrossFit:
    @staticmethod
    def cross_fit_gradient(
        group_a: RewardGroup,
        group_b: RewardGroup,
        spec: SyntheticSpec,
        eps_sigma: float = DEFAULT_EPS_SIGMA,
    ) -> np.ndarray:
        """Reference: tail vector from batch A, shaped-score average over batch B.

        (1/n) sum_i (1/alpha) 1{R_i^B >= r_hat^A} R_tilde_{eta^A}(R_i^B) s_i^B,
        with s_i^B from ``group_b.scores`` when present, else the spec's
        threshold scores.
        """
        if len(group_a) != len(group_b):
            raise InputError("cross-fit batches must have equal size")
        c_tilde = tail_constants(spec.alpha, spec.n_target).c_tilde_n
        eta = group_tail_vector(group_a, spec.alpha, eps_sigma)
        z_b = group_b.rewards
        shaped = (z_b - eta.r) + c_tilde / (2 * eta.sigma) * (
            (z_b - eta.mu) ** 2 - (eta.r - eta.mu) ** 2
        )
        weights = np.where(z_b >= eta.r, shaped / spec.alpha, 0.0)
        scores = group_b.scores if group_b.scores is not None else score_matrix(spec, z_b)
        return weights @ scores / len(group_b)

    def test_conditional_mean_matches_h(self):
        # with the tail batch fixed, averaging the estimator over fresh
        # evaluation batches must converge to the closed-form H(eta_hat)
        rng = np.random.default_rng(1)
        group_a = RewardGroup("a", rng.standard_normal(256))
        eta = group_tail_vector(group_a, SPEC.alpha)
        target = h_population(eta, SPEC)
        reps = 40_000
        values = np.empty((reps, 2))
        for i in range(reps):
            group_b = RewardGroup("b", rng.standard_normal(256))
            values[i] = self.cross_fit_gradient(group_a, group_b, SPEC)
        se = values.std(axis=0) / np.sqrt(reps)
        assert np.all(np.abs(values.mean(axis=0) - target) < 5 * se)

    def test_uses_explicit_scores_when_present(self):
        rng = np.random.default_rng(2)
        rewards_a = rng.standard_normal(64)
        rewards_b = rng.standard_normal(64)
        scores_b = score_matrix(SPEC, rewards_b)
        with_scores = self.cross_fit_gradient(
            RewardGroup("a", rewards_a),
            RewardGroup("b", rewards_b, scores=scores_b),
            SPEC,
        )
        without = self.cross_fit_gradient(
            RewardGroup("a", rewards_a), RewardGroup("b", rewards_b), SPEC
        )
        assert_allclose(with_scores, without)

    def test_rejects_unequal_batches(self):
        with pytest.raises(InputError):
            self.cross_fit_gradient(
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

    def test_spec_rejects_an_alpha_without_a_tail_quantile(self):
        with pytest.raises(InputError, match="alpha 1e-17 is too small: 1 - alpha rounds to 1"):
            SyntheticSpec(alpha=1e-17)

    def test_rejects_tiny_replications(self):
        with pytest.raises(InputError):
            estimator_bias_variance("tea", SPEC, m=64, replications=10)

    def test_rejects_unknown_tag_naming_the_lab_tags(self):
        tags = "cat-bon, oracle, prefix-tea-raw"
        with pytest.raises(InputError, match=f"unknown rule 'foo'; known: tea, .*, {tags}$"):
            estimator_bias_variance("foo", SPEC, m=64, replications=1_000)

    @pytest.mark.parametrize("rule", LAB_TAGS)
    def test_every_lab_tag_is_measured(self, rule):
        row = estimator_bias_variance(rule, SPEC, m=64, replications=1_000, params=RuleParams(bon_k=2))
        assert row.estimator_tag == rule and np.isfinite(row.variance)

    @pytest.mark.parametrize("rule", ["tea", "oracle", "prefix-tea", "prefix-tea-raw", "grpo"])
    @pytest.mark.parametrize("field, value", [("alpha", 0.2), ("n_target", 64)])
    def test_params_must_share_the_spec_target(self, rule, field, value):
        # tea, oracle and prefix-tea read the target from the spec, the other tags from params
        with pytest.raises(InputError, match="differ from the spec's"):
            estimator_bias_variance(rule, SPEC, m=64, replications=1_000, params=RuleParams(**{field: value}))

    def test_default_replications_schedule(self):
        assert default_replications(1024) == 200_000
        assert default_replications(1025) == 50_000

    def test_generic_rule_path_matches_direct_computation(self):
        # the per-replication fallback must produce the same induced gradients
        # as computing the rule directly on the same streams
        from bontea.advantages import compute_rules
        from bontea.synth import BLOCK_SIZE

        reps, m = 1_000, 16
        row = estimator_bias_variance("grpo", SPEC, m=m, replications=reps, seed=9)
        streams = np.random.SeedSequence(9).spawn(1)
        z = np.random.default_rng(streams[0]).standard_normal((BLOCK_SIZE, m))[:reps]
        adv = np.stack([compute_rules("grpo", row_z[None, :], RuleParams())[0] for row_z in z])
        # (1/m) sum_i A_i S(z_i), with S_c(z) = 1{z >= t_c} - (1 - Phi(t_c))
        thresholds = np.array(SPEC.score_thresholds)
        scores = (z[:, :, None] >= thresholds) - stats.norm.sf(thresholds)
        grads = np.einsum("ri,ric->rc", adv, scores) / m
        assert_allclose(grads.mean(axis=0) - true_gradient(SPEC), row.bias_vec, atol=1e-12)


class TestSchedule:
    """Rows depend on the seed and replication count only, not on how blocks are split."""

    # two whole blocks and a partial one; the prefix pilot fits on the first block
    REPLICATIONS = 2 * 4096 + 1000
    # 1, 2 and 4 cores give 1, 2 and 4 measuring threads beside two drawing threads,
    # and 1, 1 and 3 beside one; chunks of 8, 64, 256 and 4096 rows at width 64. A block
    # draws its chunks into a ring of at most 9 buffers, which chunks of 8 rows lap 57 times
    SCHEDULES = [(cores, rows * 64) for cores in (1, 2, 4) for rows in (8, 64, 256, 4096)]
    RULES = [("tea", 64), ("oracle", 64), ("prefix-tea", 64), ("prefix-tea-raw", 64), ("grpo-z", 16)]

    @pytest.mark.parametrize("rule, m", RULES)
    def test_rows_are_bitwise_identical_on_every_schedule(self, monkeypatch, rule, m):
        import bontea.synth as synth

        assert synth.BLOCK_SIZE == 4096 and self.REPLICATIONS % synth.BLOCK_SIZE
        self.assert_same_on_every_schedule(monkeypatch, rule, m, self.REPLICATIONS)

    @pytest.mark.parametrize("rule, m", RULES)
    def test_one_block_rows_are_bitwise_identical_on_every_schedule(self, monkeypatch, rule, m):
        # one drawing thread, which keeps a core to itself; the pilot takes the whole block
        self.assert_same_on_every_schedule(monkeypatch, rule, m, 4000)

    def assert_same_on_every_schedule(self, monkeypatch, rule, m, replications):
        import bontea.synth as synth

        rows = []
        for cores, chunk_values in self.SCHEDULES:
            monkeypatch.setattr(synth, "_CORES", cores)
            monkeypatch.setattr(synth, "_CHUNK_VALUES", chunk_values)
            rows.append(estimator_bias_variance(rule, SPEC, m, replications, seed=23))
        first = rows[0]
        for row in rows[1:]:
            np.testing.assert_array_equal(row.bias_vec, first.bias_vec)
            np.testing.assert_array_equal(row.bias_se, first.bias_se)
            assert row.variance == first.variance
            assert row.variance_se == first.variance_se
            assert row.mse_at_p == first.mse_at_p

    # three whole blocks and a partial one: block i + 2 is drawn once block i is
    AHEAD_REPLICATIONS = 3 * 4096 + 1000

    @pytest.mark.parametrize("rule", ["tea", "prefix-tea"])
    def test_drawing_ahead_keeps_rows_bitwise(self, monkeypatch, rule):
        # more measuring threads than cores, switching often, must not reorder anything
        import sys

        import bontea.synth as synth

        rows = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for cores in (1, 2, 5):
                monkeypatch.setattr(synth, "_CORES", cores)
                rows.append(estimator_bias_variance(rule, SPEC, 64, self.AHEAD_REPLICATIONS, seed=29))
        finally:
            sys.setswitchinterval(interval)
        first = rows[0]
        for row in rows[1:]:
            np.testing.assert_array_equal(row.bias_vec, first.bias_vec)
            np.testing.assert_array_equal(row.bias_se, first.bias_se)
            assert (row.variance, row.variance_se) == (first.variance, first.variance_se)

    def test_blocks_merge_in_stream_order(self):
        # one block at a time from its own stream, as if nothing were drawn ahead
        from bontea.synth import BLOCK_SIZE, _tea_block

        reps = self.AHEAD_REPLICATIONS
        acc = _MomentAccumulator(2)
        for i, stream in enumerate(np.random.SeedSequence(29).spawn(4)):
            take = min(BLOCK_SIZE, reps - i * BLOCK_SIZE)
            z = np.random.default_rng(stream).standard_normal((take, 64))
            acc.add(_tea_block(z, SPEC, DEFAULT_EPS_SIGMA)[0])
        row = estimator_bias_variance("tea", SPEC, 64, reps, seed=29)
        np.testing.assert_array_equal(row.bias_vec, acc.mean() - true_gradient(SPEC))
        assert row.variance == float(acc.var().sum())


class TestFrozenRows:
    """Rows pinned bit for bit, so a change to the lab's schedule or kernels cannot move them.

    Two whole blocks and a partial one at m = 64, seed 31; the prefix-tea row
    fits its control-variate coefficients on the first block (the pilot path).
    Values are ``float.hex`` of bias_vec, bias_se, variance and variance_se.
    """

    ROWS = {
        "tea": (
            ("-0x1.f02d2fff49e90p-6", "-0x1.0b8bc44576264p-4"),
            ("0x1.29561bb637e9ep-9", "0x1.0a40ffb58dccfp-9"),
            "0x1.5d1cede273ae2p-4",
            "0x1.0a2dc92dd164ep-10",
        ),
        "oracle": (
            ("0x1.e526245e6b980p-8", "0x1.1e00c0ddb3080p-7"),
            ("0x1.d2a481e691149p-9", "0x1.fd12be10ef1fbp-9"),
            "0x1.054af084be4b1p-2",
            "0x1.ea5d426ac2dd8p-9",
        ),
        "prefix-tea": (
            ("-0x1.4cde23ca84405p-2", "-0x1.20240dcb6eefap-2"),
            ("0x1.d1dec331d0921p-6", "0x1.8188757127fccp-6"),
            "0x1.6559504b2b37cp+4",
            "0x1.b235d52219c68p+0",
        ),
    }

    @pytest.mark.parametrize("rule", sorted(ROWS))
    def test_row_bits(self, rule):
        row = estimator_bias_variance(rule, SPEC, 64, 2 * 4096 + 1000, seed=31)
        bias, bias_se, variance, variance_se = self.ROWS[rule]
        assert [float(x).hex() for x in row.bias_vec] == list(bias)
        assert [float(x).hex() for x in row.bias_se] == list(bias_se)
        assert row.variance.hex() == variance
        assert row.variance_se.hex() == variance_se


def _slowed(fn):
    """``fn`` behind a 20 ms sleep."""

    def slow(*args, **kwargs):
        time.sleep(0.02)
        return fn(*args, **kwargs)

    return slow


class TestChunkRing:
    """Each block draws its chunks into a ring of reused buffers.

    A buffer is drawn into again once the chunk in it is measured, so no
    kernel output may be a view of its chunk, and no chunk may be drawn over
    while it is measured, however slowly.
    """

    @pytest.mark.parametrize("rule", [tag for tag in LAB_TAGS if tag != "prefix-tea"])
    def test_measure_keeps_no_view_of_its_chunk(self, rule):
        # tea and oracle have kernels of their own; every other tag is measured by its rule_kernel
        z = np.random.default_rng(3).standard_normal((16, 64))
        measure, _ = _gradient_kernel(rule, SPEC, RuleParams(bon_k=4), 64)
        outputs = measure(z)
        assert not any(np.shares_memory(out, z) for out in outputs)

    def test_prefix_stages_keep_no_view_of_their_chunks(self):
        kernel = _PrefixCrossFit(64, SPEC, RuleParams())
        rng = np.random.default_rng(4)
        z_a, z_b = rng.standard_normal((16, 32)), rng.standard_normal((16, 32))
        tail = kernel.tail(z_a)
        outputs = (*tail, *kernel.evaluate(z_b, *tail))
        assert not any(np.shares_memory(out, z) for out in outputs for z in (z_a, z_b))

    # float.hex of bias_vec, bias_se, variance and variance_se, from chunks drawn afresh;
    # the last block is partial, so a prefix-tea row also draws tail halves it never measures
    SLOW_ROWS = {
        ("prefix-tea", 1024, 7096): (
            ("-0x1.b6a37b36f2900p-10", "-0x1.1bc9ec93fe100p-10"),
            ("0x1.51485094d5a62p-10", "0x1.9f481d59c5482p-11"),
            "0x1.9b3eb5230d4ecp-3",
            "0x1.681e31571ee82p-9",
        ),
        ("tea", 256, 5000): (
            ("-0x1.472a05c614a20p-7", "-0x1.2d75ba0227e40p-6"),
            ("0x1.bc623d94eb66cp-10", "0x1.6c4b56acb6898p-10"),
            "0x1.899d26e533257p-6",
            "0x1.7b0d3e4b15b28p-12",
        ),
    }

    @pytest.mark.parametrize("rule, m, replications", sorted(SLOW_ROWS))
    def test_slow_measurement_keeps_row_bits(self, monkeypatch, rule, m, replications):
        import bontea.synth as synth

        monkeypatch.setattr(synth._PrefixCrossFit, "tail", _slowed(synth._PrefixCrossFit.tail))
        monkeypatch.setattr(synth, "_tea_block", _slowed(synth._tea_block))
        # set-ups are cached: the row must set up the slowed kernels, and no later row keep them
        synth._gradient_kernel.cache_clear()
        try:
            row = estimator_bias_variance(rule, SPEC, m, replications, seed=41)
        finally:
            synth._gradient_kernel.cache_clear()
        bias, bias_se, variance, variance_se = self.SLOW_ROWS[rule, m, replications]
        assert [float(x).hex() for x in row.bias_vec] == list(bias)
        assert [float(x).hex() for x in row.bias_se] == list(bias_se)
        assert row.variance.hex() == variance
        assert row.variance_se.hex() == variance_se


def test_one_prefix_set_up_per_checked_and_measured_row(monkeypatch):
    import bontea.synth as synth

    built = []
    init = synth._PrefixCrossFit.__init__
    monkeypatch.setattr(synth._PrefixCrossFit, "__init__", lambda self, *args: built.append(init(self, *args)))
    synth._gradient_kernel.cache_clear()
    params = RuleParams(alpha=SPEC.alpha, n_target=SPEC.n_target)
    synth.check_rows(("prefix-tea",), SPEC, params, (96,), (1,), 1_000)
    estimator_bias_variance("prefix-tea", SPEC, 96, 1_000, seed=2, params=params)
    assert len(built) == 1


def test_lab_threads_are_not_imported_with_the_cli_or_trainer():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import bontea

    code = (
        "import sys, bontea.cli, bontea.trainer; "
        "assert 'concurrent.futures' not in sys.modules, 'imported'; "
        "from bontea import SyntheticSpec, estimator_bias_variance; "
        "print(estimator_bias_variance('tea', SyntheticSpec(), 64, 1000, seed=3).replications)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(bontea.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1000\n", "")


def test_prefix_row_never_holds_a_block(monkeypatch):
    """With one measuring thread, a prefix-tea block of m = 1024 peaks below one (4096, 512) half."""
    import tracemalloc

    import bontea.synth as synth

    monkeypatch.setattr(synth, "_CORES", 1)
    estimator_bias_variance("prefix-tea", SPEC, 64, 1000, seed=1)  # warm the caches
    tracemalloc.start()
    try:
        estimator_bias_variance("prefix-tea", SPEC, 1024, synth.BLOCK_SIZE, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < synth.BLOCK_SIZE * 512 * 8


def test_two_block_prefix_row_holds_less_than_two_halves(monkeypatch):
    """Two blocks drawn at once, with one measuring thread, peak below two (4096, 512) halves."""
    import tracemalloc

    import bontea.synth as synth

    monkeypatch.setattr(synth, "_CORES", 1)
    estimator_bias_variance("prefix-tea", SPEC, 64, 1000, seed=1)  # warm the caches
    tracemalloc.start()
    try:
        estimator_bias_variance("prefix-tea", SPEC, 1024, 2 * synth.BLOCK_SIZE, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * synth.BLOCK_SIZE * 512 * 8


class TestMseFrontier:
    """The CLI's ``synth-bias-variance`` runs the (rule, m) frontier loop."""

    def test_rejects_empty_grids(self, tmp_path, capsys):
        argv = ["synth-bias-variance", "--rules", "tea", "--m-grid", "64", "--replications", "4000"]
        for flag in ("--rules", "--m-grid", "--p-grid"):
            with pytest.raises(SystemExit) as exit_info:
                main(argv + [flag, "", "-o", str(tmp_path / "out.csv")])
            assert exit_info.value.code == 2
            assert f"argument {flag}: expected at least one" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


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
