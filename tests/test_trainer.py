"""Toy softmax trainer: exact gradients, invariances, and qualitative runs.

Gradient formulas are checked against central finite differences of the exact
log-probability and KL functions; the GRPO update direction is checked against
the closed-form expectation of the group-centered REINFORCE estimator.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special
from scipy.special import log_softmax, softmax

from bontea import (
    DegenerateError,
    InputError,
    ToyTask,
    TrainConfig,
    evaluate_policy_bon,
    kl_grad,
    policy_logprob_grad,
    train,
)
from bontea import trainer
from bontea.trainer import kl_value


def enumerate_policy_bon(task: ToyTask, thetas: np.ndarray, n: int) -> np.ndarray:
    """Reference: exact per-prompt E[max of n draws] by summing over all V^n tuples."""
    if task.n_actions**n > 300_000:
        raise InputError(f"enumeration over {task.n_actions}^{n} tuples is too large")
    probs = softmax(np.asarray(thetas, dtype=float), axis=1)
    out = np.zeros(task.n_prompts)
    for x in range(task.n_prompts):
        for actions in itertools.product(range(task.n_actions), repeat=n):
            weight = np.prod(probs[x, list(actions)])
            out[x] += weight * task.rewards[x, list(actions)].max()
    return out


def fd_gradient(func, theta: np.ndarray, step: float = 1e-5) -> np.ndarray:
    grad = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (func(up) - func(down)) / (2 * step)
    return grad


class TestSoftmax:
    @pytest.mark.parametrize("name", ["softmax", "log_softmax"])
    @pytest.mark.parametrize("axis", [None, 1])
    def test_bitwise_equal_to_scipy(self, name, axis):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((12, 9)) * 4.0
        x[1] += 1e3
        x[2] -= 1e3
        x[3, ::3] = -np.inf
        x[4, 0] = -np.inf
        x[5, 2] = np.inf
        ours, reference = getattr(trainer, name), getattr(special, name)
        with np.errstate(all="ignore"):  # the +inf row
            assert np.array_equal(ours(x, axis=axis), reference(x, axis=axis), equal_nan=True)
            for row in x[:6]:
                assert np.array_equal(ours(row), reference(row), equal_nan=True)


class TestPolicyLogprobGrad:
    def test_two_action_symmetry(self):
        assert_allclose(policy_logprob_grad(np.zeros(2), 0), [0.5, -0.5])

    def test_components_sum_to_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            theta = rng.standard_normal(6)
            grad = policy_logprob_grad(theta, int(rng.integers(6)))
            assert abs(grad.sum()) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            theta = rng.standard_normal(5)
            action = int(rng.integers(5))
            exact = policy_logprob_grad(theta, action)
            numeric = fd_gradient(lambda t: log_softmax(t)[action], theta)
            assert_allclose(exact, numeric, rtol=1e-6, atol=1e-8)

    def test_rejects_bad_action(self):
        with pytest.raises(IndexError):
            policy_logprob_grad(np.zeros(4), 4)


class TestKlGrad:
    def test_zero_at_reference(self):
        theta = np.array([0.3, -1.0, 2.0])
        assert_allclose(kl_grad(theta, theta), np.zeros(3), atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            theta = rng.standard_normal(5)
            ref = rng.standard_normal(5)
            exact = kl_grad(theta, ref)
            numeric = fd_gradient(lambda t: kl_value(t, ref), theta)
            assert_allclose(exact, numeric, rtol=1e-6, atol=1e-8)

    def test_kl_value_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert kl_value(rng.standard_normal(4), rng.standard_normal(4)) >= 0.0

    def test_shift_invariance(self):
        theta = np.array([0.1, 0.5, -0.7, 1.2])
        ref = np.array([0.0, 0.2, 0.0, -0.3])
        assert_allclose(kl_grad(theta + 5.0, ref), kl_grad(theta, ref), atol=1e-12)
        assert_allclose(
            policy_logprob_grad(theta + 5.0, 2), policy_logprob_grad(theta, 2), atol=1e-12
        )


class TestDrawActions:
    """One draw for all rows gives the actions and stream state of rng.choice row by row."""

    @pytest.mark.parametrize("shape", [(1, 4), (4, 64), (8, 512), (3, 7)])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_choice_loop(self, shape, seed):
        rows, size = shape
        rng = np.random.default_rng(seed)
        n_actions = int(rng.integers(4, 40))
        logits = 3.0 * rng.standard_normal((rows, n_actions))
        logits[:, 0] -= 40.0  # a near-zero probability; its actions must still agree
        probs = softmax(logits, axis=1)
        loop_rng = np.random.default_rng(seed + 100)
        batch_rng = np.random.default_rng(seed + 100)
        expected = np.stack([loop_rng.choice(n_actions, size=size, p=p) for p in probs])
        got = trainer._draw_actions(batch_rng, probs, size)
        np.testing.assert_array_equal(got, expected)
        assert batch_rng.bit_generator.state == loop_rng.bit_generator.state


class TestEvaluatePolicyBon:
    def test_deterministic_policy_flat_curve(self):
        task = ToyTask.random(n_prompts=2, n_actions=4, seed=0)
        thetas = np.zeros((2, 4))
        thetas[:, 1] = 50.0  # essentially deterministic on action 1
        curve = evaluate_policy_bon(task, thetas, (1, 2, 4), 64, seed=1)
        for idx in range(2):
            assert_allclose(curve.per_prompt[idx], task.rewards[idx, 1], atol=1e-12)

    def test_uniform_binary_rewards_exact(self):
        # uniform policy over rewards {0, 1}: V_2 = P(at least one 1) = 3/4
        rewards = np.array([[0.0, 1.0, 0.0, 1.0]])
        task = ToyTask(rewards=rewards, reference_logits=np.zeros((1, 4)))
        exact = enumerate_policy_bon(task, np.zeros((1, 4)), 2)
        assert_allclose(exact, [0.75], atol=1e-12)

    def test_enumeration_matches_monte_carlo(self):
        task = ToyTask.random(n_prompts=3, n_actions=6, seed=4)
        rng = np.random.default_rng(5)
        thetas = rng.standard_normal((3, 6))
        exact = enumerate_policy_bon(task, thetas, 3)
        curve = evaluate_policy_bon(task, thetas, (3,), 60_000, seed=6)
        assert_allclose(curve.per_prompt[:, 0], exact, atol=0.05)

    def test_nondecreasing_in_n(self):
        task = ToyTask.random(n_prompts=4, n_actions=8, seed=7)
        curve = evaluate_policy_bon(task, task.reference_logits, (1, 2, 4, 8), 128, seed=8)
        assert np.all(np.diff(curve.per_prompt, axis=1) >= 0)


class TestTrain:
    def test_gamma_zero_keeps_theta_bitwise(self):
        task = ToyTask.random(seed=9)
        config = TrainConfig(rule="grpo", gamma=0.0, steps=25, eval_every=25, seed=1)
        result = train(task, config)
        assert np.array_equal(result.thetas, task.reference_logits)
        bon_values = [point.bon[128] for point in result.trajectory]
        assert len(set(np.round(bon_values, 12))) <= 2  # flat up to eval noise

    def test_grpo_expected_update_matches_closed_form(self):
        # E[(1/m) sum (R_i - Rbar) S_i] = (1 - 1/m) * sum_a p_a r_a (e_a - p):
        # the group-centered REINFORCE estimator with the exact shrinkage
        # factor from using the in-group mean as baseline
        from bontea.trainer import _step_gradient

        rewards = np.array([[1.0, -0.5, 2.0, 0.3]])
        task = ToyTask(rewards=rewards, reference_logits=np.zeros((1, 4)))
        thetas = np.array([[0.4, -0.2, 0.1, 0.0]])
        p = softmax(thetas[0])
        m = 8
        exact = (1 - 1 / m) * ((p * rewards[0]) @ (np.eye(4) - p))
        config = TrainConfig(rule="grpo", m=m, p_batch=1, steps=1)
        from bontea.advantages import RuleParams

        rng = np.random.default_rng(10)
        reps = 125_000
        acc = np.zeros(4)
        for _ in range(reps):
            acc += _step_gradient(task, thetas, np.array([0]), config, rng)[0]
        assert_allclose(acc / reps, exact, rtol=0, atol=1e-3)

    def test_monotone_greedy_probability_with_single_good_action(self):
        rewards = np.zeros((1, 8))
        rewards[0, 3] = 1.0
        task = ToyTask(rewards=rewards, reference_logits=np.zeros((1, 8)))
        probs = []
        for seed in range(5):
            config = TrainConfig(
                rule="grpo", m=32, p_batch=1, gamma=0.5, steps=120, eval_every=120, seed=seed
            )
            result = train(task, config)
            probs.append(softmax(result.thetas[0])[3])
        assert np.mean(probs) > 0.5  # started at 1/8

    def test_large_beta_pins_to_reference(self):
        task = ToyTask.random(n_prompts=4, n_actions=8, seed=11)
        for seed in range(3):
            config = TrainConfig(
                rule="tea", m=16, p_batch=4, beta=10.0, gamma=0.5, steps=100,
                eval_every=100, seed=seed,
            )
            result = train(task, config)
            kl = max(
                kl_value(result.thetas[x], task.reference_logits[x]) for x in range(4)
            )
            assert kl <= 0.05

    def test_divergence_guard(self):
        rewards = np.zeros((1, 4))
        rewards[0, 0] = 1e6
        task = ToyTask(rewards=rewards, reference_logits=np.zeros((1, 4)))
        config = TrainConfig(rule="grpo", m=8, p_batch=1, gamma=100.0, steps=500, eval_every=500)
        with pytest.raises(DegenerateError):
            train(task, config)

    def test_trajectory_always_logs_first_and_last(self):
        task = ToyTask.random(seed=12)
        config = TrainConfig(rule="grpo", steps=7, eval_every=3, m=8, seed=2)
        result = train(task, config)
        steps = [point.step for point in result.trajectory]
        assert steps == [0, 3, 6, 7]

    def test_config_validation(self):
        with pytest.raises(InputError):
            TrainConfig(rule="ppo")
        with pytest.raises(InputError):
            TrainConfig(beta=-0.5)
        with pytest.raises(InputError):
            TrainConfig(m=1)
        task = ToyTask.random(n_prompts=2, seed=0)
        with pytest.raises(InputError):
            train(task, TrainConfig(p_batch=4))


class TestTeaVsGrpoOrdering:
    def test_tea_wins_on_wide_spread_task_most_seeds(self):
        # qualitative check at toy scale: with m much smaller than the
        # deployment N, tail-aware advantages should reach a final best-of-128
        # value at least as high as GRPO's on most seeds
        task = ToyTask.random(n_prompts=4, n_actions=32, seed=20, reward_scale=2.0)
        wins = 0
        for seed in range(10):
            finals = {}
            for rule in ("tea", "grpo"):
                config = TrainConfig(
                    rule=rule, m=16, p_batch=4, gamma=0.4, steps=150,
                    eval_every=150, eval_n=(128,), eval_samples=512, seed=seed,
                )
                result = train(task, config)
                finals[rule] = result.trajectory[-1].bon[128]
            wins += finals["tea"] >= finals["grpo"]
        assert wins >= 7
