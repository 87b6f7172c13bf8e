"""Prefix ladders and moment-cancellation weights.

The (m=64, k=2, J=4) weights are pinned to the published scheme; everything
else is checked against the defining linear constraints (sum to one, inverse-
budget moments cancelled) and against exact rational arithmetic for the
theory ladder.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bontea import (
    InputError,
    PrefixScheme,
    RuleParams,
    build_scheme,
    cancellation_weights,
    compute_rules,
    practical_prefixes,
    prefixes,
    theory_prefixes,
)
from bontea.advantages import _prefix_layout

REFERENCE_SIZES = (40, 48, 56, 64)
REFERENCE_WEIGHTS = (-1.82946, -0.15392, 1.04289, 1.94050)


class TestPracticalPrefixes:
    def test_reference_ladder(self):
        assert practical_prefixes(64, 4) == REFERENCE_SIZES

    @pytest.mark.parametrize(
        "m, expected",
        [(512, (320, 384, 448, 512)), (64, REFERENCE_SIZES), (16, (10, 12, 14, 16))],
    )
    def test_half_to_full_ladder(self, m, expected):
        assert practical_prefixes(m, 4) == expected

    def test_single_prefix_is_full_group(self):
        assert practical_prefixes(64, 1) == (64,)

    def test_rounding_is_half_away_from_zero(self):
        # m=10, J=4: exact sizes 6.25, 7.5, 8.75, 10 -> 6, 8, 9, 10
        assert practical_prefixes(10, 4) == (6, 8, 9, 10)

    def test_rejects_too_small_group(self):
        with pytest.raises(InputError):
            practical_prefixes(7, 4)


class TestTheoryPrefixes:
    def test_exact_rational_construction(self):
        # n=256, alpha=1/4: q=4 and rho_j = 1/2 + j/10, so
        # n_j = 4 * floor(rho_j * 64) exactly.
        alpha = Fraction(1, 4)
        expected = tuple(4 * ((Fraction(1, 2) + Fraction(j, 10)) * 256 // 4) for j in (1, 2, 3, 4))
        assert theory_prefixes(256, 4, alpha) == tuple(int(v) for v in expected)
        assert theory_prefixes(256, 4, alpha) == (152, 176, 204, 228)

    def test_float_alpha_matches_fraction(self):
        assert theory_prefixes(256, 4, 0.25) == theory_prefixes(256, 4, Fraction(1, 4))

    def test_sizes_are_tail_aligned(self):
        # sizes snap to multiples of alpha's denominator, so alpha * n_j is an
        # exact integer tail count with zero rounding offset
        for n in (128, 1000):
            for alpha in (Fraction(1, 4), Fraction(1, 5), Fraction(3, 10)):
                sizes = theory_prefixes(n, 4, alpha)
                assert all((alpha * s).denominator == 1 for s in sizes)

    def test_rejects_collisions(self):
        with pytest.raises(InputError):
            theory_prefixes(8, 4, Fraction(1, 4))
        # coarse snapping (q = 10) collapses two prefixes at n = 64
        with pytest.raises(InputError):
            theory_prefixes(64, 4, Fraction(3, 10))


class TestCancellationWeights:
    def test_reference_weights(self):
        weights = cancellation_weights(64, REFERENCE_SIZES, 2)
        assert np.max(np.abs(np.array(weights) - REFERENCE_WEIGHTS)) <= 5e-5

    def test_single_constraint_is_trivial(self):
        assert cancellation_weights(96, (96,), 1) == (1.0,)

    @pytest.mark.parametrize("m, j_count, k", [(64, 4, 2), (512, 4, 2), (64, 4, 3), (256, 6, 4)])
    def test_defining_constraints(self, m, j_count, k):
        sizes = practical_prefixes(m, j_count)
        weights = np.array(cancellation_weights(m, sizes, k))
        z = m / np.array(sizes, dtype=float)
        assert_allclose(weights.sum(), 1.0, rtol=0, atol=1e-10)
        for ell in range(1, k):
            assert abs(weights @ z**ell) <= 1e-8

    def test_minimum_norm_among_solutions(self):
        # any other solution of the constraints has strictly larger 2-norm
        m, sizes, k = 64, REFERENCE_SIZES, 2
        w = np.array(cancellation_weights(m, sizes, k))
        z = m / np.array(sizes, dtype=float)
        a = np.vstack([np.ones(4), z])
        rng = np.random.default_rng(5)
        for _ in range(25):
            null = rng.standard_normal(4)
            null -= a.T @ np.linalg.solve(a @ a.T, a @ null)  # project onto null space
            if np.linalg.norm(null) < 1e-12:
                continue
            assert np.linalg.norm(w + null) > np.linalg.norm(w)

    def test_row_scaling_invariance_documented_by_construction(self):
        # k=1 on many sizes: minimum-norm weights are uniform
        weights = cancellation_weights(64, REFERENCE_SIZES, 1)
        assert_allclose(weights, np.full(4, 0.25), rtol=0, atol=1e-12)

    def test_rejects_k_above_j(self):
        with pytest.raises(InputError):
            cancellation_weights(64, (40, 64), 3)


class TestBuildScheme:
    def test_bundles_sizes_ratios_weights(self):
        scheme = build_scheme(64, 2, 4)
        assert scheme.sizes == REFERENCE_SIZES
        assert_allclose(scheme.ratios, (1.6, 64 / 48, 64 / 56, 1.0))
        assert np.max(np.abs(np.array(scheme.weights) - REFERENCE_WEIGHTS)) <= 5e-5

    def test_invariants_enforced_on_construction(self):
        with pytest.raises(InputError):
            PrefixScheme(
                m=64, k=2, j_count=4, sizes=REFERENCE_SIZES,
                ratios=(1.6, 64 / 48, 64 / 56, 1.0), weights=(0.5, 0.5, 0.5, 0.5),
            )

    def test_prefix_tea_groups_of_one_size_solve_once(self, monkeypatch):
        calls = []
        solve = prefixes.cancellation_weights

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(prefixes, "cancellation_weights", counting)
        build_scheme.cache_clear()
        _prefix_layout.cache_clear()  # an earlier m = 48 prefix-tea call would otherwise skip build_scheme
        for rewards in np.random.default_rng(4).standard_normal((1000, 48)):
            compute_rules("prefix-tea", rewards[None, :], RuleParams())
        assert len(calls) == 1
        assert build_scheme(48, 2, 4) is build_scheme(48, 2, 4)
