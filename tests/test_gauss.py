"""Tail constants, the best-of-N predictor, and the QQ tail fit.

Expected values marked "high-precision oracle" were computed independently
with mpmath at 50 decimal digits (quantile/density closed forms; tanh-sinh
quadrature for the expected-maximum integrals) and are frozen here.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import bontea
from bontea import DegenerateError, InputError, expected_gauss_max, predict_vn, qq_tail_fits, tail_constants
from bontea.gauss import DEFAULT_QQ_GRID, _legendre_rule, _window_quantiles, ndtr, norm_pdf, qq_window

# high-precision oracle values at alpha = 1/4
Z_ALPHA = 0.6744897501960817
LAMBDA_ALPHA = 1.2711062907364277
DELTA_ALPHA = 0.24163696216176125
SQRT_DELTA = 0.4915658268856382

C_N_ORACLE = {
    2: 0.5641895835477563,  # closed form 1/sqrt(pi)
    8: 1.4236003060452778,
    128: 2.5945973685994668,
    512: 3.043903161204407,
}
C_TILDE_ORACLE = {1: -2.5858312787722486, 2: -1.4380916421050036, 128: 2.692398465223146}


class TestExpectedGaussMax:
    def test_n1_exact_zero(self):
        assert expected_gauss_max(1) == 0.0

    @pytest.mark.parametrize("n, expected", sorted(C_N_ORACLE.items()))
    def test_oracle_values(self, n, expected):
        assert_allclose(expected_gauss_max(n), expected, rtol=1e-13, atol=0)

    def test_oracle_value_at_a_million(self):
        # high-precision oracle; Phi(z)^(n-1) must not lose n ulps where Phi(z) is near 1
        assert_allclose(expected_gauss_max(10**6), 4.8628974861964627, rtol=1e-13, atol=0)

    def test_c2_closed_form(self):
        assert_allclose(expected_gauss_max(2), 1.0 / np.sqrt(np.pi), rtol=0, atol=1e-10)

    def test_strictly_monotone(self):
        values = [expected_gauss_max(n) for n in (1, 2, 3, 4, 8, 64, 512, 4096)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_growth_bound(self):
        for n in (2, 16, 256, 4096):
            assert expected_gauss_max(n) <= np.sqrt(2.0 * np.log(n)) + 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            expected_gauss_max(0)

    def test_legendre_literals_are_the_bits_of_leggauss(self):
        from numpy.polynomial.legendre import leggauss

        for held, computed in zip(_legendre_rule(), leggauss(64)):
            assert held.tobytes() == computed.tobytes()


class TestTailConstants:
    def test_alpha_quarter_values(self):
        c = tail_constants(0.25, 128)
        assert_allclose(c.z_alpha, Z_ALPHA, rtol=0, atol=1e-12)
        assert_allclose(c.lambda_alpha, LAMBDA_ALPHA, rtol=0, atol=1e-12)
        assert_allclose(c.delta_alpha, DELTA_ALPHA, rtol=0, atol=1e-12)
        assert_allclose(c.c_tilde_n, C_TILDE_ORACLE[128], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n, expected", sorted(C_TILDE_ORACLE.items()))
    def test_c_tilde_oracle(self, n, expected):
        assert_allclose(tail_constants(0.25, n).c_tilde_n, expected, rtol=0, atol=1e-9)

    def test_c_tilde_consistency(self):
        c = tail_constants(0.1, 64)
        assert c.c_tilde_n == (c.c_n - c.lambda_alpha) / np.sqrt(c.delta_alpha)

    def test_deterministic(self):
        a = tail_constants(0.25, 32)
        b = tail_constants(0.25, 32)
        assert a == b

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.8, -0.1])
    def test_rejects_alpha_outside_open_interval(self, alpha):
        with pytest.raises(InputError):
            tail_constants(alpha, 2)


def fit_one(samples, q_lo, q_hi, grid_points=DEFAULT_QQ_GRID):
    """(a, b, R^2) of one sample vector, from ``qq_tail_fits`` on its (1, m) row."""
    fits = qq_tail_fits(np.asarray(samples, dtype=float)[None, :], q_lo, q_hi, grid_points)
    return tuple(float(column[0]) for column in fits)


class TestPredictVn:
    def test_population_tail_recovers_c2(self):
        c_tilde = tail_constants(0.25, 2).c_tilde_n
        assert_allclose(predict_vn(LAMBDA_ALPHA, SQRT_DELTA, c_tilde), C_N_ORACLE[2], atol=1e-9)

    def test_n1_returns_tail_mean_shift(self):
        # c_1 = 0, so the prediction collapses to mu + c_tilde_1 sigma with
        # c_tilde_1 = -lambda/sqrt(delta); at the population tail of
        # Normal(mu_pop, sigma_pop) that equals mu_pop exactly.
        mu_pop, sigma_pop = 3.5, 1.7
        mu, sigma = mu_pop + sigma_pop * LAMBDA_ALPHA, sigma_pop * SQRT_DELTA
        assert_allclose(predict_vn(mu, sigma, tail_constants(0.25, 1).c_tilde_n), mu_pop, atol=1e-10)

    def test_spot_value(self):
        # mu=10, sigma=2, alpha=0.25, N=2: 10 + 2 * c_tilde_2
        assert_allclose(
            predict_vn(10.0, 2.0, tail_constants(0.25, 2).c_tilde_n), 7.123816715789992, rtol=0, atol=1e-9
        )

    def test_lemma_identity_across_populations(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            mu_pop = rng.normal(scale=5.0)
            sigma_pop = rng.uniform(0.1, 4.0)
            alpha = rng.uniform(0.05, 0.45)
            n = int(rng.integers(1, 600))
            c = tail_constants(float(alpha), n)
            mu = mu_pop + sigma_pop * c.lambda_alpha
            sigma = sigma_pop * float(np.sqrt(c.delta_alpha))
            assert_allclose(predict_vn(mu, sigma, c.c_tilde_n), mu_pop + c.c_n * sigma_pop, rtol=0, atol=1e-10)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(InputError):
            predict_vn(np.zeros((2, 1)), np.array([[1.0], [0.0]]), tail_constants(0.25, 2).c_tilde_n)

    def test_overflow_is_degenerate_and_silent(self):
        # row 1's prediction at the second budget is the first that overflows
        mu, sigma = np.array([[1.0], [1e308]]), np.array([[1.0], [1e308]])
        c_tilde = np.array([-0.5, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateError, match=r"^predicted best-of-N value overflows: mu=1e\+308, "
                               r"sigma=1e\+308, c_tilde_n=2\.0$"):
                predict_vn(mu, sigma, c_tilde)
            with pytest.raises(DegenerateError, match="overflows"):
                predict_vn(1e308, 1e308, 1.5)


class TestQqTailFit:
    def test_recovers_gaussian_parameters(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(loc=3.0, scale=2.0, size=10_000)
        a, b, r_squared = fit_one(samples, 0.80, 0.99)
        assert abs(a - 3.0) < 0.1
        assert abs(b - 2.0) < 0.1
        assert r_squared >= 0.99

    def test_median_r_squared_small_samples(self):
        r2 = []
        for seed in range(100):
            samples = np.random.default_rng(seed).standard_normal(512)
            r2.append(fit_one(samples, 0.80, 0.99)[2])
        assert np.median(r2) >= 0.95

    def test_constant_samples_degenerate(self):
        with pytest.raises(DegenerateError):
            fit_one(np.full(100, 1.25), 0.80, 0.99)

    def test_rejects_small_samples(self):
        with pytest.raises(InputError):
            fit_one(np.arange(10.0), 0.80, 0.99)

    def test_rejects_bad_window(self):
        with pytest.raises(InputError):
            fit_one(np.arange(100.0), 0.99, 0.80)

    def test_matches_least_squares(self):
        samples = np.random.default_rng(4).gamma(2.0, size=300)
        levels = np.linspace(0.7, 0.95, 10)
        y = np.quantile(samples, levels)
        design = np.column_stack([np.ones(10), [NormalDist().inv_cdf(p) for p in levels]])
        (a, b), *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ [a, b]
        r_squared = 1.0 - resid @ resid / ((y - y.mean()) @ (y - y.mean()))
        assert_allclose(fit_one(samples, 0.7, 0.95, grid_points=10), [a, b, r_squared], rtol=1e-13)

    @pytest.mark.parametrize("run", [1, 7, 64])
    def test_batch_rows_are_bitwise_single_fits(self, run):
        rng = np.random.default_rng(run)
        samples = rng.normal(rng.normal(size=(run, 1)), rng.uniform(0.1, 5.0, (run, 1)), (run, 48))
        for q_lo, q_hi, grid in [(0.80, 0.99, DEFAULT_QQ_GRID), (0.7, 0.95, 10)]:
            a, b, r_squared = qq_tail_fits(samples, q_lo, q_hi, grid)
            for row, batched in zip(samples, zip(a, b, r_squared)):
                assert fit_one(row, q_lo, q_hi, grid) == batched

    def test_overflowing_fit_is_degenerate_without_warnings(self):
        samples = 1e200 * np.arange(1.0, 33.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateError, match="not finite"):
                fit_one(samples, 0.80, 0.99)

    def test_window_is_checked_alone(self):
        levels, x = qq_window(0.7, 0.95, 10)
        assert np.array_equal(x, [NormalDist().inv_cdf(p) for p in levels]) and not x.flags.writeable
        with pytest.raises(InputError, match="q_lo < q_hi"):
            qq_window(0.9, 0.5)
        with pytest.raises(InputError, match="grid_points"):
            qq_window(0.5, 0.9, 1)
        with pytest.raises(InputError, match=r"^grid_points must lie in \[2, 10000\], got 100000000000$"):
            qq_window(0.5, 0.9, 10**11)  # refused before anything is allocated


def bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


def quantile_fits(samples, q_lo, q_hi, grid_points):
    """(a, b, R^2, ss_tot) per row, with the window quantiles from ``np.quantile``: the reference fit."""
    levels, x = qq_window(q_lo, q_hi, grid_points)
    x_mean = np.add.reduce(x) / grid_points
    xc = x - x_mean
    with np.errstate(all="ignore"):
        y = np.ascontiguousarray(np.quantile(samples, levels, axis=1).T)
        y_mean = np.add.reduce(y, axis=1) / grid_points
        yc = y - y_mean[:, None]
        b = np.add.reduce(yc * xc, axis=1) / np.add.reduce(xc * xc)
        resid, ss_tot = yc - b[:, None] * xc, np.add.reduce(yc * yc, axis=1)
        return y_mean - b * x_mean, b, 1.0 - np.add.reduce(resid * resid, axis=1) / ss_tot, ss_tot


@st.composite
def quantile_cases(draw):
    """(samples, q_lo, q_hi, grid): rows of normals, rounded ones (heavy ties, -0.0 among them) or constants.

    A window end may fall on an order statistic, k / (m - 1), or be the
    largest level below 1, whose index is the last below m - 1.
    """
    m = draw(st.sampled_from([20, 21, 64, 65, 512, 513, 4096]) | st.integers(20, 4096))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.normal(draw(st.sampled_from([0.0, 3.0])), 1.0, (draw(st.integers(1, 4)), m))
    decimals = draw(st.sampled_from([None, 0, 1, 2]))
    if decimals is not None:
        samples = np.round(samples, decimals)
    for row in draw(st.lists(st.integers(0, len(samples) - 1), max_size=2)):
        samples[row] = draw(st.sampled_from([0.0, -0.0, 1.5]))
    ends = st.floats(0.001, 0.999) | st.integers(1, m - 2).map(lambda k: k / (m - 1))
    q_lo, q_hi = sorted(draw(st.tuples(ends, ends | st.just(float(np.nextafter(1.0, 0.0))))))
    if q_lo == q_hi:
        q_lo = q_hi / 2
    return samples, q_lo, q_hi, draw(st.sampled_from([2, 64, 10_000]))


class TestWindowQuantiles:
    """One sort per row and NumPy's type-7 lerp give ``np.quantile``'s window quantiles and the same fits."""

    @settings(max_examples=150, deadline=None)
    @given(quantile_cases())
    def test_match_np_quantile_bit_for_bit(self, case):
        samples, q_lo, q_hi, grid = case
        levels, _ = qq_window(q_lo, q_hi, grid)
        y = _window_quantiles(samples, levels)
        assert y.flags.c_contiguous  # the fit's row sums take their order from the layout
        # NumPy's partition and the sort may order -0.0 and 0.0 differently, so a zero's sign is not compared
        assert np.array_equal(bits(y + 0.0), bits(np.quantile(samples, levels, axis=1).T + 0.0))
        a, b, r_squared, ss_tot = quantile_fits(samples, q_lo, q_hi, grid)
        fitted = ss_tot != 0.0
        if fitted.any():
            got = qq_tail_fits(samples[fitted], q_lo, q_hi, grid)
            assert np.array_equal(bits(got), bits([a[fitted], b[fitted], r_squared[fitted]]))
        for row in samples[~fitted]:
            with pytest.raises(DegenerateError, match=r"R\^2 undefined$"):
                qq_tail_fits(row[None, :], q_lo, q_hi, grid)

    @pytest.mark.parametrize("at", [0, 100, 255])
    def test_a_row_holding_nan_is_all_nan(self, at):
        # a NaN sorts last, outside a window that ends below the top, and np.quantile still gives NaN
        samples = np.random.default_rng(at).standard_normal((2, 256))
        samples[1, at] = np.nan
        levels, _ = qq_window(0.5, 0.9, 8)
        y = _window_quantiles(samples, levels)
        assert np.isnan(y[1]).all() and np.array_equal(bits(y[0]), bits(np.quantile(samples[0], levels)))
        with pytest.raises(DegenerateError, match="not finite"):
            qq_tail_fits(samples, 0.5, 0.9, 8)


class TestNormPdf:
    def test_bitwise_equal_to_scipy(self):
        from scipy import stats

        grid = np.concatenate([np.linspace(-40.0, 40.0, 200_001), [0.0, -0.0, np.inf, -np.inf]])
        assert np.array_equal(norm_pdf(grid), stats.norm.pdf(grid))
        for x in (0.6744897501960817, -1.5, 38.5):
            assert norm_pdf(x) == stats.norm.pdf(x)


class TestNormalCdfAndQuantile:
    """The NumPy ndtr and the package's normal quantiles against scipy.special, kept as the test reference."""

    def test_ndtr_matches_scipy(self):
        from scipy import special

        grid = np.linspace(-12.0, 12.0, 480_001)  # every branch: |x| / sqrt(2) up to 8.5
        assert_allclose(ndtr(grid), special.ndtr(grid), rtol=1e-15, atol=0)
        for x in (-11.5, -1.2, 0.0, 0.3, 1.2, 11.5):
            assert ndtr(x).shape == ()
            assert_allclose(ndtr(x), special.ndtr(x), rtol=1e-15, atol=0)
        assert ndtr([-np.inf, -1e200, 1e200, np.inf]).tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_quantiles_match_scipy_on_the_levels_used(self):
        from scipy import special

        for window in [(0.80, 0.99, DEFAULT_QQ_GRID), (0.7, 0.95, 10)]:
            levels, x = qq_window(*window)
            assert_allclose(x, special.ndtri(levels), rtol=1e-15, atol=0)
        alphas = np.linspace(0.0, 0.5, 1001)[1:-1]  # alpha in (0, 1/2)
        z_alpha = [tail_constants(alpha, 1).z_alpha for alpha in alphas.tolist()]
        assert_allclose(z_alpha, special.ndtri(1.0 - alphas), rtol=1e-15, atol=0)


@pytest.mark.parametrize("module", ["bontea", "bontea.cli", "bontea.trainer", "bontea.synth"])
def test_import_loads_no_scipy(module):
    src = str(Path(bontea.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"import sys, {module}; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_c_n_loads_no_numpy_polynomial():
    src = str(Path(bontea.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, bontea; bontea.expected_gauss_max(128); sys.exit('numpy.polynomial' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
