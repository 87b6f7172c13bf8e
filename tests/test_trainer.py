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
    RuleParams,
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


class TestSpawned:
    @pytest.mark.parametrize("steps", [0, 1, 12, 200])
    def test_equals_the_spawned_children(self, steps):
        # as train builds them: the evaluation stream is the second child of the run's root
        stream = np.random.SeedSequence(11).spawn(2)[1]
        children = np.random.SeedSequence(11).spawn(2)[1].spawn(steps + 1)
        for step, child in enumerate(children):
            got = trainer._spawned(stream, step)
            np.testing.assert_array_equal(got.generate_state(4), child.generate_state(4))
            assert got.spawn_key == child.spawn_key


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


class TestFrozenTrajectories:
    """Training runs pinned bit for bit, so a change to the step, the update or the log points cannot move them.

    Eight prompts of eight actions, two prompts per step for 12 steps; prompt 1
    is never drawn with this seed, and its reference logit -0.0 leaves the
    update as +0.0, as ``thetas + gamma * update / P`` makes it. Values are
    ``float.hex`` of the final thetas, row by row, and of each trajectory
    point's kl, mean reward and bon values.
    """

    CASES = {
        ("tea", 0.0): (
            (
                "-0x1.bcff06d547a1cp-1 -0x1.562e38db25a57p-1 -0x1.5c717d3fa71f6p-1 -0x1.680e523e37684p-3 -0x1.2802ac57108edp+0 -0x1.82dc887bea799p-4 -0x1.ea19f30ae5f47p-2 0x1.c985f6a3f2976p-2",
                "0x1.e9e7e191576cdp-2 0x1.646b0909bd3f9p-1 0x0.0p+0 -0x1.b26b81af4025ap-6 0x1.b836eaef9f79fp-2 0x1.8167368b69b1cp-1 -0x1.4ea3f153bdbfap-2 0x1.387ff204d5643p-2",
                "-0x1.b05d9b2830196p-6 0x1.68e22d2cd2d76p-1 -0x1.b1aa02b0b00a1p-2 -0x1.5e2caf96b248bp-3 0x1.68afe0139856bp-3 0x1.a921fcab3b30fp-4 -0x1.a3b2dc9634dc3p-1 0x1.0601dcf52a148p-2",
                "-0x1.be7144bc32e47p-5 -0x1.ec64cc4d09332p-4 -0x1.40d68d9adf9acp-4 0x1.bae4b9ffc3a7ap-4 -0x1.d12bca7091007p-1 0x1.8c9006839153cp-1 -0x1.b967da386aae4p-2 -0x1.1ee524589c27dp+0",
                "-0x1.0143477a11c4ep-4 0x1.5ec52d7d9063fp-1 -0x1.87c07f6095d16p-4 0x1.7c5e34732c930p-1 0x1.6d0f5cd0ca781p-1 -0x1.b9b7ff726ae08p-2 -0x1.3b891431270d6p+0 -0x1.3c34efe912a52p-1",
                "0x1.148387e6e3785p-1 -0x1.ca00894a8c519p-2 -0x1.903714390d0bfp-1 -0x1.5a3b073f0cbe4p-1 0x1.328f9760f4a54p-4 -0x1.069cd27f46adfp-4 0x1.373099bbdcf9ap-1 0x1.b384101e69ab2p-2",
                "-0x1.f789b88eb29eap-2 0x1.fe392b404ac70p-3 -0x1.32bfc7cc001c1p-1 -0x1.354eab5366539p-5 -0x1.33ab3905eb547p-1 -0x1.3d2b6e5ed8196p-1 0x1.e44e1dc5204c7p-1 -0x1.38c72241f4e5ep-6",
                "0x1.f65805404144ap-3 0x1.2b012722093cap+0 0x1.6a93d550cba37p-1 -0x1.3aa60f6d2a3b2p-4 0x1.bcc56c1d33230p-7 -0x1.8cf0ff79c8ec9p-2 0x1.fc8e9e56e2b5ap-2 -0x1.a1034f55b8242p-3",
            ),
            (
                "0x0.0p+0 -0x1.555347fcaa68cp-3 -0x1.2d5cd8e993f6fp-3 0x1.2dac81b410458p-1",
                "0x1.4229d0eb0588cp-10 -0x1.3ec50c69f03c8p-3 -0x1.9292e477b1961p-3 0x1.2def126444b57p-1",
                "0x1.6841a2d2bf2e7p-9 -0x1.1b4caab5a9e8cp-3 -0x1.2f32b1a73ab16p-3 0x1.29301eec17574p-1",
                "0x1.b686b25c88b9ep-9 -0x1.17289cfaafaf1p-3 -0x1.d8cd970c780b0p-3 0x1.220ff56941a9ap-1",
            ),
        ),
        ("prefix-tea", 0.0): (
            (
                "-0x1.c455df7cc8e51p-1 -0x1.589853d43c316p-1 -0x1.4a838e5b1f809p-1 -0x1.2c35ee92401a5p-8 -0x1.2d83ced4b1815p+0 0x1.a19eb53168820p-4 -0x1.c4fcc3e72ca12p-2 0x1.8cf1d0f5afe2ep-5",
                "0x1.e9e7e191576cdp-2 0x1.646b0909bd3f9p-1 0x0.0p+0 -0x1.b26b81af4025ap-6 0x1.b836eaef9f79fp-2 0x1.8167368b69b1cp-1 -0x1.4ea3f153bdbfap-2 0x1.387ff204d5643p-2",
                "-0x1.30717b65afe96p-5 0x1.5855ac95865e0p-1 -0x1.bcb2586ae305bp-2 -0x1.b66f5d684a256p-3 0x1.529f349f325f8p-3 0x1.98f6943e7f124p-5 -0x1.a3b2dc9634dc3p-1 0x1.ab7ee2de26d25p-2",
                "-0x1.714e4121b6bd2p-5 -0x1.ef260c6dfb592p-4 -0x1.46590ddcc3e6bp-4 0x1.afdfb97bfb0fcp-4 -0x1.d183f274af453p-1 0x1.8ad73e6ef9fc0p-1 -0x1.ba182a40a737cp-2 -0x1.1ee524589c27dp+0",
                "-0x1.9098ab98dd4bcp-5 0x1.7b3aa50b7f171p-1 -0x1.997e49fb6e9cbp-3 0x1.9fc63cd3a59ddp-1 0x1.94d7b28cfc2c8p-1 -0x1.31962a7b34ce5p-1 -0x1.381d750297becp+0 -0x1.27af34d1b6cd9p-1",
                "0x1.ce4c22059fafdp-2 -0x1.01197657f7d3cp-1 -0x1.ad36cde8a6615p-1 -0x1.5f46accf0f2edp-1 0x1.c965418dc7871p-3 -0x1.352cb8edea5d4p-3 0x1.b3020b8a449dbp-1 0x1.53c5a916d96e5p-2",
                "-0x1.e8a7be094bdf0p-2 0x1.ae188432c850cp-2 -0x1.50356cab4b612p-1 -0x1.6ffed90c32759p-6 -0x1.2e24221c3aea3p-1 -0x1.4ee2ac20a96a4p-1 0x1.a7a5af75669dfp-1 -0x1.477cf0786e9f7p-6",
                "0x1.4add1e147ba23p-3 0x1.1903963a589eap+0 0x1.e3367a69932acp-1 -0x1.da1c779adf10cp-4 0x1.b2c8aba82506dp-7 -0x1.915da4a26c34bp-2 0x1.e6c7dcd2e82b9p-2 -0x1.c364a7d824be7p-3",
            ),
            (
                "0x0.0p+0 -0x1.555347fcaa68cp-3 -0x1.2d5cd8e993f6fp-3 0x1.2dac81b410458p-1",
                "0x1.6de32eef5455ap-8 -0x1.226d8da45463bp-3 -0x1.5752f84ba30d9p-3 0x1.33daa689fb047p-1",
                "0x1.91fd781246e70p-7 -0x1.1ce6844471528p-3 -0x1.546e03e6f89f4p-3 0x1.2b54d8ed36b3ep-1",
                "0x1.ecee2079da925p-7 -0x1.14dc5824b26fbp-3 -0x1.c1e1fd37ffc31p-3 0x1.266d7328147b0p-1",
            ),
        ),
        ("prefix-tea", 0.05): (
            (
                "-0x1.c4541e491c3b3p-1 -0x1.58973e95320ebp-1 -0x1.4a8ec712cc127p-1 -0x1.63341c758a74ep-8 -0x1.2d82d40b62aabp+0 0x1.9da3087a43c1cp-4 -0x1.c51839fcfd782p-2 0x1.9d0b6bf46ae80p-5",
                "0x1.e9e7e191576cdp-2 0x1.646b0909bd3f9p-1 0x0.0p+0 -0x1.b26b81af4025ap-6 0x1.b836eaef9f79fp-2 0x1.8167368b69b1cp-1 -0x1.4ea3f153bdbfap-2 0x1.387ff204d5643p-2",
                "-0x1.30717b65afe96p-5 0x1.5855ac95865e0p-1 -0x1.bcb2586ae305bp-2 -0x1.b66f5d684a256p-3 0x1.529f349f325f8p-3 0x1.98f6943e7f124p-5 -0x1.a3b2dc9634dc3p-1 0x1.ab7ee2de26d25p-2",
                "-0x1.71b31bd2f997dp-5 -0x1.ef254b29067d9p-4 -0x1.4654f7a5d7d2cp-4 0x1.afec952c09008p-4 -0x1.d183e777fab8dp-1 0x1.8adb556c866c3p-1 -0x1.ba1806d65a606p-2 -0x1.1ee5328d84b32p+0",
                "-0x1.902cd918a447ap-5 0x1.7b32ca0649dc6p-1 -0x1.99b7d1d817283p-3 0x1.9fbafc955caedp-1 0x1.94d55a7694bf7p-1 -0x1.3173e92a15541p-1 -0x1.381d7a48bb2e2p+0 -0x1.27b4536d833fap-1",
                "0x1.cf4b4bc76610dp-2 -0x1.00f22fb488671p-1 -0x1.ad1a91a426ab4p-1 -0x1.5f343956c38e4p-1 0x1.c91dab4431269p-3 -0x1.33dd0e43cf082p-3 0x1.b1668e85b2eebp-1 0x1.54cd826d7e6a5p-2",
                "-0x1.e89aa24e4c07bp-2 0x1.ab6102715e870p-2 -0x1.50258cdbc8805p-1 -0x1.6b98769b249a9p-6 -0x1.2e1e41a969000p-1 -0x1.4ed598e8a5302p-1 0x1.a89eeed53b129p-1 -0x1.44bf4dc88c8ebp-6",
                "0x1.4bad97ee9e6c6p-3 0x1.195d53234f14fp+0 0x1.e1fc9b13bdd92p-1 -0x1.d9fb7c0a6b6c2p-4 0x1.b56ae2a4f24a4p-7 -0x1.914c51ab061b6p-2 0x1.e70a3f63832f0p-2 -0x1.c2fd97eaaed45p-3",
            ),
            (
                "0x0.0p+0 -0x1.555347fcaa68cp-3 -0x1.2d5cd8e993f6fp-3 0x1.2dac81b410458p-1",
                "0x1.6c8f3fc9f3003p-8 -0x1.2281f482f3f5ep-3 -0x1.5752f84ba30d9p-3 0x1.33daa689fb047p-1",
                "0x1.8f62bc9148fd8p-7 -0x1.1d179bb22111bp-3 -0x1.546e03e6f89f4p-3 0x1.2b54d8ed36b3ep-1",
                "0x1.e77b80bdf3b2ep-7 -0x1.1540853649755p-3 -0x1.c801acd9a1d3cp-3 0x1.266d7328147b0p-1",
            ),
        ),
        ("grpo", 0.05): (
            (
                "-0x1.bd93e422c25e1p-1 -0x1.55df260fe05a2p-1 -0x1.69f0a727501dep-1 -0x1.123fda9d9c149p-2 -0x1.29f9a3934d25cp+0 -0x1.0f231f0018d16p-2 -0x1.f00ab6fcf3171p-2 0x1.7fc0975d26c40p-1",
                "0x1.e9e7e191576cdp-2 0x1.646b0909bd3f9p-1 0x0.0p+0 -0x1.b26b81af4025ap-6 0x1.b836eaef9f79fp-2 0x1.8167368b69b1cp-1 -0x1.4ea3f153bdbfap-2 0x1.387ff204d5643p-2",
                "-0x1.ed585a7f8b538p-6 0x1.7871ee8cd8919p-1 -0x1.be6330124d16ep-2 -0x1.75aa68f457e11p-3 0x1.5124d81132d34p-3 0x1.5fe9f8b2ecd04p-3 -0x1.a3b2dc9634dc3p-1 0x1.92862e1b1ea55p-3",
                "-0x1.57db8209884f2p-6 -0x1.be6f540a50087p-4 -0x1.a03f4fe6aa28ap-3 0x1.5c39a4a1791f9p-4 -0x1.cd573052e43dfp-1 0x1.da66835557d04p-1 -0x1.eed75442e7ecap-2 -0x1.1fed1276918c7p+0",
                "-0x1.4b474fa35e879p-4 0x1.55d30ef97c5f7p-1 -0x1.b9747f9da7e6bp-3 0x1.5f6ed6f7b1071p-1 0x1.ae3e340b98143p-1 -0x1.6129bd4e40defp-2 -0x1.3d1122a312cc1p+0 -0x1.3a13be520d5c6p-1",
                "0x1.2f1037dee1e71p-1 -0x1.a8d40dd09fd8fp-2 -0x1.aeb87aade4decp-1 -0x1.54922f3ffb2d7p-1 0x1.3935eea8b9f7cp-4 -0x1.8a28f006819eap-3 0x1.33e1da3534ca8p-1 0x1.0ba83f1f6d830p-1",
                "-0x1.06b2c38b0db29p-1 0x1.9fae8a3bad458p-3 -0x1.0e21f564494b1p-1 -0x1.d276b86df126cp-4 -0x1.301c7686e998fp-1 -0x1.2e05ec9c44884p-1 0x1.cda7b943aa665p-1 0x1.f1890a37da4a8p-5",
                "0x1.0dbb802d30b7ep-2 0x1.6a5af1b977492p+0 0x1.3d9c79918613cp-1 -0x1.4ecd9e5187190p-3 0x1.80620acb315aep-6 -0x1.a8d40731d8160p-2 0x1.0fc8c1c583919p-1 -0x1.3f0c1f917efdap-2",
            ),
            (
                "0x0.0p+0 -0x1.555347fcaa68cp-3 -0x1.2d5cd8e993f6fp-3 0x1.2dac81b410458p-1",
                "0x1.a83113ca16292p-11 -0x1.3212e455ef95fp-3 -0x1.8de6650c3a7b9p-3 0x1.2def126444b57p-1",
                "0x1.519f7f0f2666ep-9 -0x1.f340f00456258p-4 -0x1.0c4492b9f274ep-3 0x1.2e0a5cc4d03c2p-1",
                "0x1.7131910c2748cp-8 -0x1.9550a29a1c192p-4 -0x1.ae1c0821b65ecp-3 0x1.1e6cd8fd8cb21p-1",
            ),
        ),
    }

    @staticmethod
    def task() -> ToyTask:
        rewards = np.random.default_rng(7).standard_normal((8, 8))
        reference = 0.5 * np.random.default_rng(8).standard_normal((8, 8))
        reference[1, 2] = -0.0
        return ToyTask(rewards=rewards, reference_logits=reference)

    @pytest.mark.parametrize("rule, beta", sorted(CASES))
    def test_bits(self, rule, beta):
        config = TrainConfig(
            rule=rule, params=RuleParams(seed=3), m=16, p_batch=2, beta=beta, gamma=0.5,
            steps=12, seed=11, eval_n=(1, 4), eval_every=4, eval_samples=32,
        )
        result = train(self.task(), config)
        thetas, points = self.CASES[rule, beta]
        assert [" ".join(float(v).hex() for v in row) for row in result.thetas] == list(thetas)
        assert [
            " ".join(float(v).hex() for v in (p.kl, p.mean_reward, *p.bon.values()))
            for p in result.trajectory
        ] == list(points)
        assert [p.step for p in result.trajectory] == [0, 4, 8, 12]

    # every step logged, so the evaluation stream of every log point is pinned
    EVERY_STEP = (
        "0x0.0p+0 -0x1.555347fcaa68cp-3 -0x1.2d5cd8e993f6fp-3 0x1.2dac81b410458p-1",
        "0x1.3ce172eb3d916p-11 -0x1.4bf33f70e0706p-3 -0x1.a139e654d1442p-3 0x1.052635091c08bp-1",
        "0x1.16ff158e04958p-9 -0x1.34618d772c86cp-3 -0x1.ffe218967e8b0p-3 0x1.e460c001313d2p-2",
        "0x1.642c68135c47bp-9 -0x1.300be9a3cd01ep-3 -0x1.5478dd20033bbp-3 0x1.ce9b3ad8a20b4p-2",
        "0x1.6c8f3fc9f3003p-8 -0x1.2281f482f3f5ep-3 -0x1.5752f84ba30d9p-3 0x1.33daa689fb047p-1",
        "0x1.62e4935d2c4a9p-8 -0x1.14223e7faa43dp-3 -0x1.3d987eb41fd8cp-3 0x1.54cac7f6fe921p-1",
        "0x1.ad42e91c64856p-7 -0x1.24ba7376b5dafp-3 -0x1.057f7054af9d3p-3 0x1.294deb3b40166p-1",
        "0x1.b1cb8778885ecp-7 -0x1.297910d776b48p-3 -0x1.9d4eca771b3d7p-3 0x1.247f12534f20ap-1",
        "0x1.8f62bc9148fd8p-7 -0x1.1d179bb22111bp-3 -0x1.546e03e6f89f4p-3 0x1.2b54d8ed36b3ep-1",
        "0x1.8ec802ea58bddp-7 -0x1.1d2acc5f4c430p-3 -0x1.5fa4ebf691f20p-3 0x1.07014de57086fp-1",
        "0x1.7f5b03c3e8d42p-7 -0x1.2060e2ef0cf8ap-3 -0x1.f135193b64bdap-3 0x1.02b0d76e03d77p-1",
        "0x1.827197c532f04p-7 -0x1.23c2c4f8d5884p-3 -0x1.4051f1089273ep-3 0x1.374c000dc352cp-1",
        "0x1.e77b80bdf3b2ep-7 -0x1.1540853649755p-3 -0x1.c801acd9a1d3cp-3 0x1.266d7328147b0p-1",
    )

    def test_every_step_logged(self):
        config = TrainConfig(
            rule="prefix-tea", params=RuleParams(seed=3), m=16, p_batch=2, beta=0.05, gamma=0.5,
            steps=12, seed=11, eval_n=(1, 4), eval_every=1, eval_samples=32,
        )
        result = train(self.task(), config)
        # logging draws from its own stream, so the thetas are those of eval_every=4
        thetas = self.CASES["prefix-tea", 0.05][0]
        assert [" ".join(float(v).hex() for v in row) for row in result.thetas] == list(thetas)
        assert [
            " ".join(float(v).hex() for v in (p.kl, p.mean_reward, *p.bon.values()))
            for p in result.trajectory
        ] == list(self.EVERY_STEP)
        assert [p.step for p in result.trajectory] == list(range(13))


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
