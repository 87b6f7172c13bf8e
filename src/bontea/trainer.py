"""Tabular softmax post-training loop for qualitative advantage-rule checks.

A toy task is a fixed reward table over (prompt, action) pairs; the policy is
one logit vector per prompt. Each step samples a prompt batch, draws m actions
per prompt, converts the batch's rewards to advantages with one call of the
configured rule, and ascends theta along the advantage-weighted score
direction minus a KL-to-reference penalty:

    theta <- theta + gamma * (1/P) sum_p [ (1/m) sum_i A_i S_i - beta grad KL ].

Everything is exact at this scale: the score is one-hot(a) - softmax(theta),
and the KL term is computed from the two distributions in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .advantages import RuleParams, check_rule, compute_rules
from .bon_eval import BonCurve, grouped_bon_curve
from .errors import DegenerateError, InputError

#: Training aborts once any logit magnitude passes this guard.
LOGIT_GUARD = 1e4


@dataclass(frozen=True)
class ToyTask:
    """Fixed reward table (n_prompts, n_actions) plus reference logits."""

    rewards: np.ndarray
    reference_logits: np.ndarray

    def __post_init__(self) -> None:
        rewards = np.asarray(self.rewards, dtype=float)
        ref = np.asarray(self.reference_logits, dtype=float)
        if rewards.ndim != 2 or rewards.shape[1] < 4:
            raise InputError("reward table must be (n_prompts, n_actions) with n_actions >= 4")
        if ref.shape != rewards.shape:
            raise InputError("reference logits must match the reward table shape")
        if not (np.isfinite(rewards).all() and np.isfinite(ref).all()):
            raise InputError("reward table and reference logits must be finite")
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "reference_logits", ref)

    @property
    def n_prompts(self) -> int:
        return self.rewards.shape[0]

    @property
    def n_actions(self) -> int:
        return self.rewards.shape[1]

    @classmethod
    def random(
        cls, n_prompts: int = 8, n_actions: int = 32, seed: int = 0, reward_scale: float = 1.0
    ) -> "ToyTask":
        """Gaussian reward table with a uniform reference policy."""
        for name, value, least in (("n_prompts", n_prompts, 1), ("n_actions", n_actions, 4), ("seed", seed, 0)):
            if value < least:
                raise InputError(f"{name} must be >= {least}, got {value}")
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore"):  # an overflowing table is refused as non-finite
            rewards = reward_scale * rng.standard_normal((n_prompts, n_actions))
        return cls(rewards=rewards, reference_logits=np.zeros_like(rewards))


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; ``rule`` is any registered advantage rule."""

    rule: str = "tea"
    params: RuleParams = field(default_factory=RuleParams)
    m: int = 64
    p_batch: int = 4
    beta: float = 0.0
    gamma: float = 0.1
    steps: int = 200
    seed: int = 0
    eval_n: tuple[int, ...] = (1, 8, 128)
    eval_every: int = 20
    eval_samples: int = 512

    def __post_init__(self) -> None:
        check_rule(self.rule)
        if self.m < 2 or self.p_batch < 1 or self.steps < 0 or self.eval_every < 1:
            raise InputError("m >= 2, p_batch >= 1, steps >= 0, eval_every >= 1 required")
        if self.beta < 0 or not np.isfinite(self.beta):
            raise InputError(f"beta must be finite and >= 0, got {self.beta}")
        if self.gamma < 0 or not np.isfinite(self.gamma):
            raise InputError(f"gamma must be finite and >= 0, got {self.gamma}")
        if any(n < 1 for n in self.eval_n):
            raise InputError("eval budgets must be positive")
        if self.eval_samples < 1:
            raise InputError(f"eval_samples must be >= 1, got {self.eval_samples}")


@dataclass(frozen=True)
class TrajectoryPoint:
    """One logged evaluation: step index, mean KL, mean reward, bo_N values."""

    step: int
    kl: float
    mean_reward: float
    bon: dict[int, float]


@dataclass(frozen=True)
class TrainResult:
    thetas: np.ndarray
    trajectory: list[TrajectoryPoint]
    config: TrainConfig


def softmax(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    """exp(x) / sum exp(x) along ``axis``, shifted by the max, as scipy.special.softmax."""
    # the ufunc reductions np.max and np.sum call, without their per-call wrapping
    x_max = np.maximum.reduce(x, axis=axis, keepdims=True)
    exp_x = np.exp(x - x_max)
    return exp_x / np.add.reduce(exp_x, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    """x - log sum exp(x) along ``axis``, shifted by a finite max, as scipy.special.log_softmax."""
    x_max = np.maximum.reduce(x, axis=axis, keepdims=True)
    shifted = x - np.where(np.isfinite(x_max), x_max, 0.0)
    with np.errstate(divide="ignore"):
        return shifted - np.log(np.add.reduce(np.exp(shifted), axis=axis, keepdims=True))


def policy_logprob_grad(theta: np.ndarray, action: int) -> np.ndarray:
    """Gradient of log softmax(theta)[action]: one-hot(action) - softmax(theta)."""
    theta = np.asarray(theta, dtype=float)
    if not 0 <= action < theta.size:
        raise IndexError(f"action {action} out of range for {theta.size} logits")
    grad = -softmax(theta)
    grad[action] += 1.0
    return grad


def _kl_rows(thetas: np.ndarray, log_q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p = softmax, log p - log q and KL(p || q) of each row of (P, V) logits; KL has shape (P,).

    ``log_q`` holds the reference's log-probabilities row by row. One
    log-softmax serves every row, and each row's KL is its own dot product
    p @ (log p - log q), with the bits of that product on the row alone.
    """
    log_p = log_softmax(thetas, axis=1)
    p = np.exp(log_p)
    diff = log_p - log_q
    return p, diff, np.array([row_p @ row_diff for row_p, row_diff in zip(p, diff)])


def _kl_grads(thetas: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """``kl_grad`` of each row of (P, V) logits against the reference log-probabilities ``log_q``."""
    p, diff, kl = _kl_rows(thetas, log_q)
    return p * (diff - kl[:, None])


def kl_value(theta: np.ndarray, theta_ref: np.ndarray) -> float:
    """KL(softmax(theta) || softmax(theta_ref)), exact."""
    ref = np.asarray(theta_ref, dtype=float)[None]
    return float(_kl_rows(np.asarray(theta, dtype=float)[None], log_softmax(ref, axis=1))[2][0])


def kl_grad(theta: np.ndarray, theta_ref: np.ndarray) -> np.ndarray:
    """Gradient of KL(softmax(theta) || softmax(theta_ref)) in theta.

    Componentwise p_a [ (log p_a - log q_a) - KL ]; zero at theta = theta_ref
    and orthogonal to the all-ones direction like every softmax gradient.
    """
    ref = np.asarray(theta_ref, dtype=float)[None]
    return _kl_grads(np.asarray(theta, dtype=float)[None], log_softmax(ref, axis=1))[0]


def _draw_actions(rng: np.random.Generator, probs: np.ndarray, size: int) -> np.ndarray:
    """``size`` actions per row of ``probs``; (P, size).

    ``Generator.choice``'s own inverse-CDF recipe, applied to all rows at
    once: the actions and the stream state afterwards are those of
    ``rng.choice(V, size, p=row)`` called for each row in turn.
    """
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    uniform = rng.random((probs.shape[0], size))
    actions = np.empty(uniform.shape, dtype=np.intp)
    for i, (row, u) in enumerate(zip(cdf, uniform)):
        actions[i] = row.searchsorted(u, side="right")
    return actions


def _policy_bon(
    task: ToyTask,
    probs: np.ndarray,
    n_budgets: tuple[int, ...],
    samples_per_prompt: int,
    seed: int | np.random.SeedSequence,
) -> BonCurve:
    """``evaluate_policy_bon`` of the policy whose action probabilities, row by row, are ``probs``."""
    actions = _draw_actions(np.random.default_rng(seed), probs, samples_per_prompt)
    return grouped_bon_curve(np.take_along_axis(task.rewards, actions, axis=1), n_budgets)


def evaluate_policy_bon(
    task: ToyTask,
    thetas: np.ndarray,
    n_budgets: tuple[int, ...],
    samples_per_prompt: int,
    seed: int | np.random.SeedSequence = 0,
) -> BonCurve:
    """Monte Carlo grouped best-of-N of the policy on the task's reward table."""
    probs = softmax(np.asarray(thetas, dtype=float), axis=1)
    return _policy_bon(task, probs, n_budgets, samples_per_prompt, seed)


def _spawned(stream: np.random.SeedSequence, index: int) -> np.random.SeedSequence:
    """Child ``index`` of ``stream.spawn(n)``, for any n > index, on a stream that has spawned nothing.

    Only that child is built, not the ``index`` before it.
    """
    return np.random.SeedSequence(
        stream.entropy, spawn_key=stream.spawn_key + (index,), pool_size=stream.pool_size
    )


def _step_gradient(
    task: ToyTask,
    thetas: np.ndarray,
    prompts: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
    seeds: np.ndarray | None = None,
) -> np.ndarray:
    """(1/m) sum_i A_i (one-hot(a_i) - pi) for each of the distinct ``prompts``; (P, V).

    Each prompt's m actions are drawn in turn, then one rule call turns the
    (P, m) rewards into advantages, with ``seeds`` as the per-prompt seeds.
    """
    probs = softmax(thetas[prompts], axis=1)
    actions = _draw_actions(rng, probs, config.m)
    adv = compute_rules(config.rule, task.rewards[prompts[:, None], actions], config.params, seeds)
    n, v = probs.shape
    bins = (np.arange(n)[:, None] * v + actions).ravel()
    counts = np.bincount(bins, weights=adv.ravel(), minlength=n * v).reshape(n, v)
    # the mean's bits, without ndarray.mean's per-call wrapping
    return counts / config.m - np.add.reduce(adv, axis=1, keepdims=True) / config.m * probs


def train(task: ToyTask, config: TrainConfig) -> TrainResult:
    """Run the prompt-batch ascent loop; logs an evaluation every eval_every steps.

    The trajectory always contains the initial policy (step 0) and the final
    one. Raises ``DegenerateError`` if any logit magnitude exceeds 1e4.
    """
    if config.p_batch > task.n_prompts:
        raise InputError(
            f"p_batch={config.p_batch} exceeds the task's {task.n_prompts} prompts"
        )
    thetas = task.reference_logits.copy()
    log_q = log_softmax(task.reference_logits, axis=1)
    root = np.random.SeedSequence(config.seed)
    train_stream, eval_stream = root.spawn(2)
    rng = np.random.default_rng(train_stream)
    # gamma * update / P over the whole table; rows not drawn stay 0.0, so
    # adding it turns a -0.0 logit into +0.0 as a freshly built update would
    step_update = np.zeros_like(thetas)

    def log_point(step: int) -> TrajectoryPoint:
        probs = softmax(thetas, axis=1)
        mean_reward = float((probs * task.rewards).sum(axis=1).mean())
        kl = float(_kl_rows(thetas, log_q)[2].mean())
        curve = _policy_bon(task, probs, config.eval_n, config.eval_samples, _spawned(eval_stream, step))
        bon = {int(n): float(v) for n, v in zip(curve.n_values, curve.means)}
        return TrajectoryPoint(step=step, kl=kl, mean_reward=mean_reward, bon=bon)

    trajectory = [log_point(0)]
    for step in range(1, config.steps + 1):
        prompts = rng.choice(task.n_prompts, size=config.p_batch, replace=False)
        seeds = config.params.seed + step * task.n_prompts + prompts
        grads = _step_gradient(task, thetas, prompts, config, rng, seeds)
        if config.beta > 0:
            grads -= config.beta * _kl_grads(thetas[prompts], log_q[prompts])
        step_update[prompts] = config.gamma * grads / config.p_batch
        thetas += step_update
        step_update[prompts] = 0.0
        # NaN logits fail this too; the whole table is checked
        if not np.maximum.reduce(np.abs(thetas), axis=None) <= LOGIT_GUARD:
            raise DegenerateError(f"training diverged at step {step}: |logit| > {LOGIT_GUARD:g}")
        if step % config.eval_every == 0 or step == config.steps:
            trajectory.append(log_point(step))
    return TrainResult(thetas=thetas, trajectory=trajectory, config=config)
