"""Tail-extrapolated advantages for best-of-N-oriented policy-gradient training.

The library estimates per-group advantage weights that target the gradient of
the expected best-of-N reward rather than the mean reward: a group's upper
tail is summarized by (threshold, tail mean, tail spread), a Gaussian-tail
extrapolation supplies the deployment-N scaling constant, and the tail-shaped
reward turns both into advantages. Alongside the main rule live its
prefix-debiased variant, the standard baselines (GRPO and friends, exact
best-of-N subset weights, selection-based and CDF-weighted schemes), an exact
empirical best-of-N oracle, and a synthetic Gaussian lab that measures each
rule's bias and variance against an exactly known gradient.
"""

from .advantages import (
    AdvantageVector,
    RULE_NAMES,
    RuleParams,
    bon_mean_raw,
    compute_rule,
    compute_rules,
)
from .bon_eval import (
    BonCurve,
    EmpiricalPool,
    expected_max,
    gradient_alignment,
    grouped_bon_curve,
    oracle_advantage,
    paired_bootstrap_delta,
    win_tie_loss,
)
from .errors import DegenerateError, InputError
from .gauss import QqFit, TailConstants, expected_gauss_max, predict_vn, qq_tail_fit, tail_constants
from .prefixes import PrefixScheme, build_scheme, cancellation_weights, practical_prefixes, theory_prefixes
from .synth import (
    BiasVarianceRow,
    SyntheticSpec,
    estimator_bias_variance,
    true_gradient,
)
from .tailstats import RewardGroup, TailVector, empirical_tail_vector
from .trainer import ToyTask, TrainConfig, TrainResult, evaluate_policy_bon, kl_grad, policy_logprob_grad, train

__version__ = "0.1.0"

__all__ = [
    "AdvantageVector",
    "BiasVarianceRow",
    "BonCurve",
    "DegenerateError",
    "EmpiricalPool",
    "InputError",
    "PrefixScheme",
    "QqFit",
    "RULE_NAMES",
    "RewardGroup",
    "RuleParams",
    "SyntheticSpec",
    "TailConstants",
    "TailVector",
    "ToyTask",
    "TrainConfig",
    "TrainResult",
    "bon_mean_raw",
    "build_scheme",
    "cancellation_weights",
    "compute_rule",
    "compute_rules",
    "empirical_tail_vector",
    "estimator_bias_variance",
    "evaluate_policy_bon",
    "expected_gauss_max",
    "expected_max",
    "gradient_alignment",
    "grouped_bon_curve",
    "kl_grad",
    "oracle_advantage",
    "paired_bootstrap_delta",
    "policy_logprob_grad",
    "practical_prefixes",
    "predict_vn",
    "qq_tail_fit",
    "tail_constants",
    "theory_prefixes",
    "train",
    "true_gradient",
    "win_tie_loss",
]
