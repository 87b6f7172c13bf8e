"""Properties each advantage rule's definition promises, over generated groups.

- Zero sum: ``tea`` and ``prefix-tea`` are centered, ``grpo`` and ``grpo-z``
  subtract the group mean.
- Shift invariance: every rule built from differences of rewards, or from
  their ranks, gives the same advantages for R + s. That is all rules but
  ``bon-mean`` (its subset-max weights do not sum to a constant per entry)
  and ``chow`` (it pays m R* itself).
- Positive-scale equivariance: A(c R) = c^k A(R) for c > 0, with k = 1 for
  the rules linear in the rewards and k = 0 for the normalized ones.
- Permutation equivariance on tie-free groups, for every rule that does not
  read the arrival order (``prefix-tea``) or a seeded split (``chow``).

The floors ``eps_sigma`` (a lower clip on the tail std) and ``eps_norm`` (a
denominator guard) break the scale law where they bind. TEA groups whose tail
std is clipped are skipped, and so are nearly constant groups under the
normalized rules; elsewhere the tolerance includes the guard's effect,
eps_norm / std relative. Ties and constant groups are generated on purpose.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bontea import RuleParams, compute_rule
from bontea.advantages import RULE_NAMES, bon_mean_raw
from bontea.prefixes import build_scheme
from bontea.tailstats import tail_count

PARAMS = RuleParams(bon_k=3, seed=5)
REL = 1e-9
ZERO_SUM = ("tea", "prefix-tea", "grpo", "grpo-z")
SHIFT_INVARIANT = tuple(r for r in RULE_NAMES if r not in ("bon-mean", "chow"))
SCALE_DEGREE = {rule: 0 if rule in ("grpo-z", "bon-mean", "cat-bon") else 1 for rule in RULE_NAMES}
ORDER_FREE = tuple(r for r in RULE_NAMES if r not in ("prefix-tea", "chow"))

SETTINGS = settings(max_examples=20, deadline=None)


@st.composite
def groups(draw, tie_free=False):
    """A group of m in [8, 48] rewards: spread on a grid (ties), continuous, or constant."""
    m = draw(st.integers(min_value=8, max_value=48))
    unit = draw(st.sampled_from([1e-3, 1.0, 7.0, 1e4]))
    offset = draw(st.sampled_from([0.0, -3.5, 250.0]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = "distinct" if tie_free else draw(st.sampled_from(["grid", "normal", "constant"]))
    if kind == "grid":
        steps = rng.integers(0, draw(st.integers(min_value=1, max_value=5)) + 1, m)
    elif kind == "constant":
        steps = np.zeros(m)
    elif kind == "normal":
        steps = rng.standard_normal(m)
    else:
        steps = rng.permutation(m) + 0.25 * rng.random(m)
    return offset + unit * steps


def advantages(rule: str, x: np.ndarray) -> np.ndarray:
    return compute_rule(rule, x, PARAMS).values


def floor_binds(rule: str, x: np.ndarray) -> bool:
    """Whether a floor moves the rule's output on x by more than rounding would.

    For TEA, a tail of distinct values whose std is clipped to eps_sigma; for
    the normalized rules, a std within 1e4 eps_norm of zero.
    """
    if SCALE_DEGREE[rule] == 0:
        return spread(rule, x) < 1e4 * PARAMS.eps_norm
    if rule not in ("tea", "prefix-tea"):
        return False
    sizes = build_scheme(x.size, PARAMS.k, PARAMS.j_count).sizes if rule == "prefix-tea" else (x.size,)
    for size in sizes:
        top = np.sort(x[:size])[size - tail_count(size, PARAMS.alpha) :]
        if top[-1] > top[0] and top.std() <= 10 * PARAMS.eps_sigma:
            return True
    return False


def spread(rule: str, x: np.ndarray) -> float:
    """The std a normalized rule divides by."""
    return float((bon_mean_raw(x, PARAMS.bon_k) if rule == "bon-mean" else x).std())


def tolerance(rule: str, x: np.ndarray, magnitude: float, expected: np.ndarray, guard: float) -> float:
    """Rounding slack for inputs of size ``magnitude``, plus ``guard`` / std for normalized rules."""
    scale = float(np.abs(expected).max())
    if SCALE_DEGREE[rule] == 1:
        return REL * (scale + x.size * magnitude)
    sd = spread(rule, x)
    return REL * (scale + x.size * magnitude / sd) + scale * guard / sd


@pytest.mark.parametrize("rule", ZERO_SUM)
@SETTINGS
@given(x=groups())
def test_centered_rules_sum_to_zero(x, rule):
    adv = advantages(rule, x)
    slack = np.abs(x).max() / (x.std() + PARAMS.eps_norm) if rule == "grpo-z" else np.abs(x).max()
    assert abs(adv.sum()) <= REL * x.size * (np.abs(adv).max() + slack)


@pytest.mark.parametrize("rule", SHIFT_INVARIANT)
@SETTINGS
@given(x=groups(), shift=st.sampled_from([-1e3, -2.5, 0.125, 40.0]))
def test_shift_invariance(x, rule, shift):
    assume(not floor_binds(rule, x) and not floor_binds(rule, x + shift))
    base, moved = advantages(rule, x), advantages(rule, x + shift)
    magnitude = float(np.abs(x).max()) + abs(shift)
    tol = tolerance(rule, x, magnitude, base, 0.0)
    np.testing.assert_allclose(moved, base, rtol=0, atol=tol)


@pytest.mark.parametrize("rule", RULE_NAMES)
@SETTINGS
@given(x=groups(), c=st.sampled_from([1e-2, 0.3, 2.0, 1e3]))
def test_positive_scale_equivariance(x, rule, c):
    assume(not floor_binds(rule, x) and not floor_binds(rule, c * x))
    expected = c ** SCALE_DEGREE[rule] * advantages(rule, x)
    # eps_norm shifts A(x) by about eps_norm / std relative, and A(c x) by 1/c of that
    guard = PARAMS.eps_norm * max(1.0, 1.0 / c)
    tol = tolerance(rule, x, float(np.abs(x).max()) * max(1.0, c), expected, guard)
    np.testing.assert_allclose(advantages(rule, c * x), expected, rtol=0, atol=tol)


@pytest.mark.parametrize("rule", ORDER_FREE)
@SETTINGS
@given(x=groups(tie_free=True), seed=st.integers(0, 2**32 - 1))
def test_permutation_equivariance_without_ties(x, rule, seed):
    assume(np.unique(x).size == x.size)
    perm = np.random.default_rng(seed).permutation(x.size)
    base = advantages(rule, x)
    tol = tolerance(rule, x, float(np.abs(x).max()), base, 0.0)
    np.testing.assert_allclose(advantages(rule, x[perm]), base[perm], rtol=0, atol=tol)
