"""Batch rule kernels against their per-group case and a frozen per-group reference.

``compute_rules`` evaluates a rule over a (B, m) reward matrix. Its row b must
equal, bit for bit, ``compute_rules`` on that row alone (the case B = 1), and
must agree to 1e-12 of the largest reference value with ``Frozen``, a copy of
the per-group formulas the rules had before they were batched. The trainer's
batched step is held to a frozen copy of the per-prompt training loop it
replaced.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import softmax

from bontea import DegenerateError, InputError, RuleParams, compute_rules
from bontea.advantages import RULE_NAMES, _subset_max_weights
from bontea.gauss import tail_constants
from bontea.prefixes import build_scheme
from bontea.trainer import (
    LOGIT_GUARD,
    ToyTask,
    TrainConfig,
    evaluate_policy_bon,
    kl_grad,
    kl_value,
    train,
)

REL_TOL = 1e-12


class Frozen:
    """The per-group rule formulas as they were before batching, on 1-d rewards."""

    @staticmethod
    def tail(x, alpha, eps_sigma):
        q = int(np.ceil(alpha * x.size))
        top = np.sort(x)[x.size - q :]
        return float(top[0]), float(top.mean()), float(max(top.std(), eps_sigma))

    @staticmethod
    def raw(x, alpha, eps_sigma, c_tilde):
        r, mu, sigma = Frozen.tail(x, alpha, eps_sigma)
        shaped = (x - r) + c_tilde / (2.0 * sigma) * ((x - mu) ** 2 - (r - mu) ** 2)
        return np.where(x >= r, shaped / alpha, 0.0)

    @staticmethod
    def c_tilde(p):
        return tail_constants(p.alpha, p.n_target).c_tilde_n

    @staticmethod
    def tea(x, p):
        pos = np.maximum(Frozen.raw(x, p.alpha, p.eps_sigma, Frozen.c_tilde(p)), 0.0)
        return pos - pos.mean()

    @staticmethod
    def prefix_tea(x, p):
        scheme = build_scheme(x.size, p.k, p.j_count)
        combined = np.zeros(x.size)
        for w, rho, size in zip(scheme.weights, scheme.ratios, scheme.sizes):
            raw = Frozen.raw(x[:size], p.alpha, p.eps_sigma, Frozen.c_tilde(p))
            combined[:size] += w * rho * np.maximum(raw, 0.0)
        return combined - combined.mean()

    @staticmethod
    def grpo_z(x, eps_norm):
        return (x - x.mean()) / (x.std() + eps_norm)

    @staticmethod
    def bon_max(x, variant):
        i = int(np.argmax(x))
        values = np.zeros_like(x)
        values[i] = x[i] - (x.mean() if variant == "mean" else np.partition(x, -2)[-2])
        return values

    @staticmethod
    def bon_mean(x, k, eps_norm):
        order = np.argsort(x, kind="stable")
        r = x[order]
        terms = r * _subset_max_weights(x.size, k, 1)
        suffix = np.concatenate([np.cumsum(terms[::-1])[::-1][1:], [0.0]])
        b = np.empty(x.size)
        b[order] = r * _subset_max_weights(x.size, k, 0) + suffix
        return Frozen.grpo_z(b, eps_norm)

    @staticmethod
    def chow(x, p):
        m = x.size
        n_sel = p.n_sel if p.n_sel is not None else m // 2
        m_corr = m - n_sel
        lam = p.lambda_nsel if p.lambda_nsel is not None else float(n_sel - 1)
        perm = np.random.default_rng(p.seed).permutation(m)
        sel, cor = perm[:n_sel], perm[n_sel:]
        i_star = int(sel[np.argmax(x[sel])])
        values = np.zeros(m)
        values[i_star] = m * x[i_star]
        values[cor[x[cor] > x[i_star]]] = -m * (lam / m_corr) * x[i_star]
        return values

    @staticmethod
    def cat_bon(x, n, eps_norm):
        below = np.searchsorted(np.sort(x), x, side="left") / x.size
        weights = n * below ** (n - 1)
        return weights / (weights.mean() + eps_norm) * Frozen.grpo_z(x, eps_norm)

    @staticmethod
    def rule(rule, x, p):
        target = p.cat_n_target if p.cat_n_target is not None else p.n_target
        return {
            "tea": lambda: Frozen.tea(x, p),
            "prefix-tea": lambda: Frozen.prefix_tea(x, p),
            "grpo": lambda: x - x.mean(),
            "grpo-z": lambda: Frozen.grpo_z(x, p.eps_norm),
            "bonmax-mean": lambda: Frozen.bon_max(x, "mean"),
            "bonmax-second": lambda: Frozen.bon_max(x, "second"),
            "bon-mean": lambda: Frozen.bon_mean(x, p.bon_k, p.eps_norm),
            "chow": lambda: Frozen.chow(x, p),
            "cat-bon": lambda: Frozen.cat_bon(x, target, p.eps_norm),
        }[rule]()


@st.composite
def reward_batches(draw):
    """(B, m) rewards: ties, constant rows and magnitudes from 1e-9 to 1e150."""
    m = draw(st.integers(min_value=2, max_value=257))
    rows = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["normal", "ties", "constant", "mixed"]))
    if kind == "normal":
        x = rng.standard_normal((rows, m))
    elif kind == "ties":
        x = rng.integers(0, draw(st.integers(min_value=1, max_value=4)) + 1, (rows, m)).astype(float)
    elif kind == "constant":
        x = np.repeat(rng.standard_normal((rows, 1)), m, axis=1)
    else:
        x = rng.standard_normal((rows, m))
        x[0] = x[0, 0]  # a constant row among varied ones
    scale = 10.0 ** draw(st.sampled_from([-9, -3, 0, 3, 50, 150]))
    shift = draw(st.sampled_from([0.0, 1.0, -7.5]))
    return (x + shift) * scale


def _params(rule: str, m: int, draw_k: int) -> RuleParams:
    if rule == "bon-mean":
        return RuleParams(bon_k=1 + draw_k % (m - 1))
    if rule == "prefix-tea":
        return RuleParams(k=1, j_count=1) if m < 16 else RuleParams()
    return RuleParams()


@pytest.mark.parametrize("rule", RULE_NAMES)
@settings(max_examples=60, deadline=None)
@given(x=reward_batches(), draw_k=st.integers(min_value=0, max_value=1000))
def test_batch_equals_per_group_and_frozen_reference(rule, x, draw_k):
    params = _params(rule, x.shape[1], draw_k)
    seeds = np.arange(x.shape[0]) * 7 + 3
    try:
        batch = compute_rules(rule, x, params, seeds)
    except (InputError, DegenerateError) as exc:
        # a batch fails as its first failing row does alone
        with pytest.raises(type(exc)):
            for b in range(x.shape[0]):
                compute_rules(rule, x[b : b + 1], params, seeds[b : b + 1])
        return
    assert batch.shape == x.shape
    for b in range(x.shape[0]):
        single = compute_rules(rule, x[b : b + 1], params, seeds[b : b + 1])[0]
        assert np.array_equal(batch[b], single)
        reference = Frozen.rule(rule, x[b], replace(params, seed=int(seeds[b])))
        scale = np.abs(reference).max()
        np.testing.assert_allclose(batch[b], reference, rtol=0, atol=REL_TOL * scale)


def test_unseeded_rows_share_params_seed():
    x = np.random.default_rng(4).standard_normal((3, 12))
    batch = compute_rules("chow", x, RuleParams(seed=9))
    for b, values in enumerate(batch):
        assert np.array_equal(values, compute_rules("chow", x[b : b + 1], RuleParams(seed=9))[0])


def test_rejects_a_seed_count_other_than_the_row_count():
    with pytest.raises(InputError, match="one seed per row"):
        compute_rules("chow", np.zeros((3, 8)), RuleParams(), seeds=[1, 2])


@pytest.mark.parametrize("shape", [(8,), (2, 1), (0, 4, 2)])
def test_rejects_rewards_that_are_not_a_matrix_of_pairs(shape):
    with pytest.raises(InputError, match="m >= 2"):
        compute_rules("grpo", np.zeros(shape), RuleParams())


def test_overflow_names_the_first_bad_row():
    x = np.vstack([np.arange(8.0), [1e200 * i for i in range(1, 9)]])
    with pytest.raises(DegenerateError, match=r"tail statistics overflow: r=7e\+200"):
        compute_rules("tea", x, RuleParams())


# --- the trainer --------------------------------------------------------------


def frozen_train(task: ToyTask, config: TrainConfig):
    """The per-prompt training loop as it was before batching."""
    thetas = task.reference_logits.copy()
    train_stream, eval_stream = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(train_stream)
    eval_children = eval_stream.spawn(config.steps + 1)

    def log_point(step):
        probs = softmax(thetas, axis=1)
        mean_reward = float((probs * task.rewards).sum(axis=1).mean())
        kl = float(np.mean([kl_value(thetas[x], task.reference_logits[x]) for x in range(task.n_prompts)]))
        curve = evaluate_policy_bon(task, thetas, config.eval_n, config.eval_samples, seed=eval_children[step])
        return [step, kl, mean_reward, *curve.means]

    trajectory = [log_point(0)]
    for step in range(1, config.steps + 1):
        prompts = rng.choice(task.n_prompts, size=config.p_batch, replace=False)
        update = np.zeros_like(thetas)
        for prompt in prompts:
            params = replace(config.params, seed=config.params.seed + step * task.n_prompts + int(prompt))
            p = softmax(thetas[prompt])
            actions = rng.choice(task.n_actions, size=config.m, p=p)
            adv = Frozen.rule(config.rule, task.rewards[prompt, actions], params)
            grad = np.bincount(actions, weights=adv, minlength=task.n_actions) / config.m
            grad = grad - adv.mean() * p
            if config.beta > 0:
                grad = grad - config.beta * kl_grad(thetas[prompt], task.reference_logits[prompt])
            update[prompt] += grad
        thetas = thetas + config.gamma * update / config.p_batch
        assert np.abs(thetas).max() <= LOGIT_GUARD
        if step % config.eval_every == 0 or step == config.steps:
            trajectory.append(log_point(step))
    return thetas, np.array(trajectory)


@pytest.mark.parametrize(
    "rule, beta", [("tea", 0.0), ("prefix-tea", 0.0), ("grpo", 0.1), ("chow", 0.0)]
)
def test_train_matches_frozen_per_prompt_loop(rule, beta):
    task = ToyTask.random(n_prompts=6, n_actions=16, seed=3)
    config = TrainConfig(
        rule=rule, params=RuleParams(seed=2), m=32, p_batch=4, beta=beta, gamma=0.3,
        steps=40, seed=5, eval_every=10, eval_samples=128,
    )
    result = train(task, config)
    thetas, trajectory = frozen_train(task, config)
    got = np.array(
        [[p.step, p.kl, p.mean_reward, *[p.bon[n] for n in config.eval_n]] for p in result.trajectory]
    )
    np.testing.assert_allclose(result.thetas, thetas, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got, trajectory, rtol=0, atol=1e-12)
