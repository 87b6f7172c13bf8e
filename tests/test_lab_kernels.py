"""Lab block kernels against the full-array formulas they replace.

The reference functions below evaluate every entry of a block: the shaped
reward of the whole row, masked to the tail, then the induced gradient over
all m columns, and for the cross-fitted prefix estimator the full indicator
arrays re-reduced per prefix. The kernels in ``bontea.synth`` touch only the
top-q slice or reduce to power sums; per replication they must agree with
these references to 1e-12 of the largest reference magnitude, also when
rewards tie with the tail threshold.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from bontea.advantages import RuleParams
from bontea.gauss import norm_pdf
from bontea.synth import (
    BLOCK_SIZE,
    SyntheticSpec,
    _block_outputs,
    _h_batch,
    _oracle_block,
    _PrefixCrossFit,
    _spec_constants,
    _tea_block,
)
from bontea.tailstats import DEFAULT_EPS_SIGMA, tail_count

SPEC = SyntheticSpec()
REL_TOL = 1e-12


def ref_shaped(z, r, mu, sigma, c_tilde):
    return (z - r) + c_tilde / (2.0 * sigma) * ((z - mu) ** 2 - (r - mu) ** 2)


def ref_tail_stats(z, alpha, eps_sigma):
    m = z.shape[1]
    q = tail_count(m, alpha)
    top = np.partition(z, m - q, axis=1)[:, m - q :]
    return top.min(axis=1), top.mean(axis=1), np.maximum(top.std(axis=1), eps_sigma)


def ref_induced_gradient(adv, z, spec):
    _, thresholds, sbar = _spec_constants(spec)
    total = adv.sum(axis=1)
    cols = [(adv * (z >= t)).sum(axis=1) - sb * total for t, sb in zip(thresholds, sbar)]
    return np.stack(cols, axis=1) / z.shape[1]


def ref_tea(z, spec, eps_sigma=DEFAULT_EPS_SIGMA):
    consts, _, _ = _spec_constants(spec)
    r, mu, sigma = ref_tail_stats(z, spec.alpha, eps_sigma)
    shaped = ref_shaped(z, r[:, None], mu[:, None], sigma[:, None], consts.c_tilde_n)
    adv = np.where(z >= r[:, None], shaped / spec.alpha, 0.0)
    return ref_induced_gradient(adv, z, spec), (adv != 0.0).any(axis=1)


def ref_oracle(z, spec):
    consts, _, _ = _spec_constants(spec)
    sdel = float(np.sqrt(consts.delta_alpha))
    shaped = ref_shaped(z, consts.z_alpha, consts.lambda_alpha, sdel, consts.c_tilde_n)
    adv = np.where(z >= consts.z_alpha, shaped / spec.alpha, 0.0)
    return ref_induced_gradient(adv, z, spec), (adv != 0.0).any(axis=1)


def ref_prefix(kernel, z_a, z_b):
    spec = kernel.spec
    consts, _, _ = _spec_constants(spec)
    blocks = z_a.shape[0]
    ind = z_a >= consts.z_alpha
    z_ind = np.where(ind, z_a, 0.0)
    z2_ind = np.where(ind, z_a * z_a, 0.0)
    d = len(spec.score_thresholds)
    actual = np.zeros((blocks, d))
    rao = np.zeros((blocks, d))
    controls = np.empty((blocks, 3 * len(kernel.sizes)))
    nonzero = np.zeros(blocks, dtype=bool)
    for j, (w, size) in enumerate(zip(kernel.weights, kernel.sizes)):
        r, mu, sigma = ref_tail_stats(z_a[:, :size], spec.alpha, kernel.eps_sigma)
        rao += w * _h_batch(r, mu, sigma, spec)
        zb = z_b[:, :size]
        shaped = ref_shaped(zb, r[:, None], mu[:, None], sigma[:, None], consts.c_tilde_n)
        phi_vals = np.where(zb >= r[:, None], shaped / spec.alpha, 0.0)
        nonzero |= np.any(phi_vals != 0.0, axis=1)
        actual += w * ref_induced_gradient(phi_vals, zb, spec)
        controls[:, 3 * j] = ind[:, :size].mean(axis=1) - kernel.control_means[0]
        controls[:, 3 * j + 1] = z_ind[:, :size].mean(axis=1) - kernel.control_means[1]
        controls[:, 3 * j + 2] = z2_ind[:, :size].mean(axis=1) - kernel.control_means[2]
    return actual, rao, controls, nonzero


def measure(kernel, z_a, z_b):
    """Both stages of the cross-fitted kernel on matching tail and evaluation halves."""
    return kernel.evaluate(z_b, *kernel.tail(z_a))


def assert_matches(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    if ref.dtype == bool:
        np.testing.assert_array_equal(got, ref)
        return
    scale = float(np.abs(ref).max())
    np.testing.assert_allclose(got, ref, rtol=0, atol=REL_TOL * scale)


def tied_normals(rng, shape, decimals):
    """Standard normals rounded to ``decimals`` places, so values repeat."""
    return np.round(rng.standard_normal(shape), decimals)


class TestTea:
    @pytest.mark.parametrize("m", [4, 16, 257, 1024])
    def test_matches_reference(self, m):
        z = np.random.default_rng(m).standard_normal((512, m))
        for got, ref in zip(_tea_block(z, SPEC, DEFAULT_EPS_SIGMA), ref_tea(z, SPEC)):
            assert_matches(got, ref)

    def test_ties_at_threshold(self):
        z = tied_normals(np.random.default_rng(1), (2000, 64), 1)
        for got, ref in zip(_tea_block(z, SPEC, DEFAULT_EPS_SIGMA), ref_tea(z, SPEC)):
            assert_matches(got, ref)

    def test_all_tied_tail_is_zero(self):
        # every top-q member equals r_hat: all advantages vanish exactly
        z = np.zeros((3, 16))
        z[:, :8] = -1.0
        grads, nonzero = _tea_block(z, SPEC, DEFAULT_EPS_SIGMA)
        assert not nonzero.any()
        assert np.all(grads == 0.0)


class TestOracle:
    @pytest.mark.parametrize("m", [4, 128, 1024])
    def test_matches_reference(self, m):
        z = np.random.default_rng(100 + m).standard_normal((512, m))
        for got, ref in zip(_oracle_block(z, SPEC), ref_oracle(z, SPEC)):
            assert_matches(got, ref)

    def test_thresholds_below_z_alpha(self):
        # a score threshold under z_alpha takes its upper sums from z > z_alpha
        spec = SyntheticSpec(score_thresholds=(-0.5, 0.5, 2.0))
        z = tied_normals(np.random.default_rng(3), (500, 96), 1)
        for got, ref in zip(_oracle_block(z, spec), ref_oracle(z, spec)):
            assert_matches(got, ref)


class TestPrefix:
    @pytest.mark.parametrize("m", [64, 512, 2048])
    def test_matches_reference(self, m):
        kernel = _PrefixCrossFit(m, SPEC, RuleParams())
        rng = np.random.default_rng(200 + m)
        z_a, z_b = rng.standard_normal((2, 256, m // 2))
        for got, ref in zip(measure(kernel, z_a, z_b), ref_prefix(kernel, z_a, z_b)):
            assert_matches(got, ref)

    def test_block_measures_its_draws(self):
        kernel = _PrefixCrossFit(64, SPEC, RuleParams())
        [(_, got)] = _block_outputs(kernel.evaluate, 64, BLOCK_SIZE, seed=5, tail=kernel.tail)
        rng = np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0])
        z_a = rng.standard_normal((BLOCK_SIZE, 32))
        z_b = rng.standard_normal((BLOCK_SIZE, 32))
        for a, b in zip(got, kernel.evaluate(z_b, *kernel.tail(z_a))):
            np.testing.assert_array_equal(a, b)

    def test_ties_between_batches(self):
        # evaluation rewards equal to the tail batch's r_hat_j add nothing
        kernel = _PrefixCrossFit(128, SPEC, RuleParams())
        rng = np.random.default_rng(6)
        z_a, z_b = tied_normals(rng, (2, 1000, 64), 1)
        for got, ref in zip(measure(kernel, z_a, z_b), ref_prefix(kernel, z_a, z_b)):
            assert_matches(got, ref)

    @pytest.mark.parametrize("descending", [False, True])
    def test_sorted_rows_put_whole_segments_above_r_hat(self, descending):
        # ascending rows put each later segment wholly in its prefix's top q_j and
        # above r_hat_j; descending rows hold every prefix's top in the first segment
        kernel = _PrefixCrossFit(512, SPEC, RuleParams())
        z_a, z_b = np.sort(np.random.default_rng(7).standard_normal((2, 300, 256)), axis=2)
        if descending:
            z_a, z_b = z_a[..., ::-1], z_b[..., ::-1]
        for got, ref in zip(measure(kernel, z_a, z_b), ref_prefix(kernel, z_a, z_b)):
            assert_matches(got, ref)

    def test_every_entry_a_candidate(self):
        # evaluation rewards all above every r_hat_j and t_c: each segment keeps its whole width
        kernel = _PrefixCrossFit(256, SPEC, RuleParams())
        rng = np.random.default_rng(8)
        z_a = rng.standard_normal((300, 128))
        z_b = 2.0 + np.abs(rng.standard_normal((300, 128)))
        for got, ref in zip(measure(kernel, z_a, z_b), ref_prefix(kernel, z_a, z_b)):
            assert_matches(got, ref)

    def test_ties_at_r_hat_across_segments_and_at_t_c(self):
        # every segment of the evaluation half holds each r_hat_j and each t_c exactly
        kernel = _PrefixCrossFit(256, SPEC, RuleParams())
        rng = np.random.default_rng(9)
        z_a = tied_normals(rng, (300, 128), 1)
        z_b = tied_normals(rng, (300, 128), 1)
        eta = kernel.tail(z_a)[0]
        thresholds = _spec_constants(SPEC)[1]
        n_pre = len(kernel.sizes)
        for start in (0, *kernel.sizes[:-1]):
            z_b[:, start : start + n_pre] = eta[0].T
            z_b[:, start + n_pre : start + n_pre + len(thresholds)] = thresholds
        for got, ref in zip(measure(kernel, z_a, z_b), ref_prefix(kernel, z_a, z_b)):
            assert_matches(got, ref)

    @pytest.mark.parametrize("thresholds", [(-0.5, 0.5, 2.0), (-6.0, 1.0)])
    def test_thresholds_below_z_alpha(self, thresholds):
        # the lowest t_c is under every r_hat_j; at -6 every entry is a candidate
        spec = SyntheticSpec(score_thresholds=thresholds)
        kernel = _PrefixCrossFit(256, spec, RuleParams())
        z_a, z_b = tied_normals(np.random.default_rng(10), (2, 300, 128), 1)
        for got, ref in zip(measure(kernel, z_a, z_b), ref_prefix(kernel, z_a, z_b)):
            assert_matches(got, ref)

    def test_first_segment_spills_past_the_kept_entries(self):
        # rows whose first segment holds more than q_J entries >= z_alpha sum it whole; the
        # others, in the same chunk, sum the q_J kept; one row's q_J-th largest is z_alpha itself
        kernel = _PrefixCrossFit(512, SPEC, RuleParams())
        z_alpha = _spec_constants(SPEC)[0].z_alpha
        rng = np.random.default_rng(11)
        z_a, z_b = rng.standard_normal((2, 300, 256))
        first, kept = kernel.sizes[0], kernel.counts[-1]
        z_a[::3, :first] = z_alpha + np.abs(z_a[::3, :first])
        z_a[1, :first] = np.linspace(-2.0, 2.0, first)
        z_a[1, first - kept] = z_alpha
        z_a[1, first - kept + 1 : first] = z_alpha + 1.0
        for got, ref in zip(measure(kernel, z_a, z_b), ref_prefix(kernel, z_a, z_b)):
            assert_matches(got, ref)

    def test_ties_at_z_alpha(self):
        # tail-half entries equal to z_alpha count in every control, in the kept entries and beyond
        kernel = _PrefixCrossFit(256, SPEC, RuleParams())
        rng = np.random.default_rng(12)
        z_a, z_b = tied_normals(rng, (2, 300, 128), 1)
        z_a[:, ::5] = _spec_constants(SPEC)[0].z_alpha
        for got, ref in zip(measure(kernel, z_a, z_b), ref_prefix(kernel, z_a, z_b)):
            assert_matches(got, ref)

    def test_segments_and_rows_without_candidates(self):
        # evaluation rows with a segment, or everything, below every shift, also at the chunk's end
        kernel = _PrefixCrossFit(256, SPEC, RuleParams())
        rng = np.random.default_rng(13)
        z_a, z_b = rng.standard_normal((2, 40, 128))
        for row, (a, b) in enumerate(zip((0, *kernel.sizes[:-1]), kernel.sizes)):
            z_b[row, a:b] = -8.0
        z_b[[10, -2, -1]] = -8.0
        for got, ref in zip(measure(kernel, z_a, z_b), ref_prefix(kernel, z_a, z_b)):
            assert_matches(got, ref)

    @pytest.mark.parametrize("m", [64, 512])
    def test_rows_measured_alone_keep_their_bits(self, m):
        # a row's outputs do not depend on the other rows of its chunk
        kernel = _PrefixCrossFit(m, SPEC, RuleParams())
        rng = np.random.default_rng(14)
        z_a, z_b = tied_normals(rng, (2, 24, m // 2), 2)
        z_b[5] = -8.0
        together = measure(kernel, z_a, z_b)
        for row in range(24):
            alone = measure(kernel, z_a[row : row + 1], z_b[row : row + 1])
            for a, b in zip(alone, together):
                np.testing.assert_array_equal(a, b[row : row + 1])

    def test_control_means_are_exact(self):
        # E[Z^p 1{Z >= z_alpha}] for p = 0, 1, 2 by quadrature
        z_alpha = _spec_constants(SPEC)[0].z_alpha
        expected = [
            integrate.quad(lambda x, p=p: x**p * norm_pdf(x), z_alpha, np.inf, epsabs=1e-14)[0]
            for p in range(3)
        ]
        kernel = _PrefixCrossFit(64, SPEC, RuleParams())
        np.testing.assert_allclose(kernel.control_means, expected, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=4, max_value=160),
    decimals=st.integers(min_value=0, max_value=3),
    scale=st.sampled_from([0.3, 1.0, 4.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kernels_match_reference_with_ties(m, decimals, scale, seed):
    """Rounded rewards put ties at r_hat; every kernel still matches."""
    rng = np.random.default_rng(seed)
    z = np.round(scale * rng.standard_normal((64, m)), decimals)
    for got, ref in zip(_tea_block(z, SPEC, DEFAULT_EPS_SIGMA), ref_tea(z, SPEC)):
        assert_matches(got, ref)
    for got, ref in zip(_oracle_block(z, SPEC), ref_oracle(z, SPEC)):
        assert_matches(got, ref)
    m_even = 2 * max(m // 2, 40)
    kernel = _PrefixCrossFit(m_even, SPEC, RuleParams())
    z_a, z_b = np.round(scale * rng.standard_normal((2, 64, m_even // 2)), decimals)
    for got, ref in zip(measure(kernel, z_a, z_b), ref_prefix(kernel, z_a, z_b)):
        assert_matches(got, ref)
