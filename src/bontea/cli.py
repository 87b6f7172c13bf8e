"""Command-line surface: JSONL/CSV pipelines over the library modules.

Input rows are JSON objects {"prompt_id": str, "rewards": [...], "scores":
[[...], ...]?}, one per line. Every output embeds the resolved run
configuration and the library version; floats are serialized as their
shortest round-tripping decimal (Python repr), so writing and re-reading any
output reproduces the values bit-exactly. Commands are pure functions of
(inputs, config, seed).

Exit codes: 0 clean, 2 input error, 3 numerical/degenerate error. Partial
outputs are flushed before a nonzero exit.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence, TextIO

import numpy as np

from . import __version__
from .advantages import RULE_NAMES, RuleParams, compute_rule, with_group_seed
from .bon_eval import (
    DEFAULT_RESAMPLES,
    DEFAULT_TIE_TOL,
    EmpiricalPool,
    gradient_alignment,
    grouped_bon_curve,
    oracle_advantage,
    paired_bootstrap_delta,
    win_tie_loss,
)
from .errors import DegenerateError, InputError
from .gauss import DEFAULT_QQ_GRID, predict_vn, qq_tail_fit, tail_constants
from .prefixes import build_scheme
from .synth import DEFAULT_P_GRID, SyntheticSpec, estimator_bias_variance
from .tailstats import RewardGroup, empirical_tail_vector
from .trainer import ToyTask, TrainConfig, train

_EXIT_INPUT = 2
_EXIT_DEGENERATE = 3


def _fmt(value: Any) -> Any:
    """JSON-ready copy with floats as shortest round-trip values."""
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_fmt(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _fmt(v) for k, v in value.items()}
    return value


def _cell(value: Any) -> str:
    """CSV cell: repr for floats (round-trip exact), str otherwise."""
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    return str(value)


# --- configuration resolution ------------------------------------------------


def load_config_file(path: str) -> dict[str, str]:
    """Flat key=value text; blank lines and '#' comments are ignored."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


class Resolver:
    """Per-key resolution: CLI flag wins, then config file, then default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_values = load_config_file(args.config) if args.config else {}
        self.resolved: dict[str, Any] = {}

    def get(self, name: str, cast: Callable[[str], Any], default: Any) -> Any:
        flag = getattr(self.args, name, None)
        if flag is not None:
            value = flag
        elif name in self.file_values:
            try:
                value = cast(self.file_values[name])
            except (ValueError, TypeError) as exc:
                raise InputError(f"config key {name}: {exc}") from exc
        else:
            value = default
        self.resolved[name] = value
        return value

    def echo(self) -> dict[str, Any]:
        meta = {"version": __version__}
        meta.update({k: _fmt(v) for k, v in self.resolved.items()})
        return meta


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise InputError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise InputError("expected at least one integer")
    return values


def _str_list(text: str) -> tuple[str, ...]:
    values = tuple(part.strip() for part in text.split(",") if part.strip())
    if not values:
        raise InputError("expected at least one name")
    return values


def _rule_params(res: Resolver) -> RuleParams:
    kwargs: dict[str, Any] = dict(
        alpha=res.get("alpha", float, 0.25),
        n_target=res.get("n_target", int, 128),
        eps_sigma=res.get("eps_sigma", float, 1e-6),
        eps_norm=res.get("eps_norm", float, 1e-8),
        k=res.get("k", int, 2),
        j_count=res.get("j_count", int, 4),
        seed=res.get("seed", int, 0),
    )
    for optional in ("bon_k", "n_sel", "m_corr", "cat_n_target"):
        value = res.get(optional, int, None)
        if value is not None:
            kwargs[optional] = value
    lam = res.get("lambda_nsel", float, None)
    if lam is not None:
        kwargs["lambda_nsel"] = lam
    return RuleParams(**kwargs)


# --- JSONL input --------------------------------------------------------------


def read_reward_groups(path: str) -> Iterator[tuple[int, RewardGroup]]:
    """Yield (line_number, group); raises InputError naming the bad line."""
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict) or "rewards" not in record:
                raise InputError(f"{path}:{lineno}: expected an object with a 'rewards' field")
            prompt_id = str(record.get("prompt_id", f"line-{lineno}"))
            scores = record.get("scores")
            try:
                group = RewardGroup(
                    prompt_id=prompt_id,
                    rewards=np.asarray(record["rewards"], dtype=float),
                    scores=None if scores is None else np.asarray(scores, dtype=float),
                )
            except (InputError, ValueError, TypeError) as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
            yield lineno, group


def _load_groups(path: str) -> list[RewardGroup]:
    return [group for _, group in read_reward_groups(path)]


def _open_output(path: str | None) -> TextIO:
    if path is None or path == "-":
        return sys.stdout
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _write_json(out: TextIO, payload: dict[str, Any]) -> None:
    json.dump(_fmt(payload), out, indent=2)
    out.write("\n")
    out.flush()


def _write_csv(
    out: TextIO, meta: dict[str, Any], header: Sequence[str], rows: Iterator[Sequence[Any]]
) -> None:
    for key, value in meta.items():
        out.write(f"# {key}={_cell(value)}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
        out.flush()


# --- commands ------------------------------------------------------------------


def cmd_advantage(args: argparse.Namespace) -> int:
    res = Resolver(args)
    rule = res.get("rule", str, "tea")
    params = _rule_params(res)
    if rule not in RULE_NAMES:
        raise InputError(f"unknown rule {rule!r}; expected one of {RULE_NAMES}")
    out = _open_output(args.output)
    exit_code = 0
    try:
        _write_json_line(out, {"config": res.echo(), "rule": rule})
        for index, (lineno, group) in enumerate(read_reward_groups(args.input)):
            try:
                adv = compute_rule(rule, group, with_group_seed(params, index))
            except DegenerateError as exc:
                print(f"error: prompt {group.prompt_id} (line {lineno}): {exc}", file=sys.stderr)
                exit_code = max(exit_code, _EXIT_DEGENERATE)
                continue
            except InputError as exc:
                print(f"error: prompt {group.prompt_id} (line {lineno}): {exc}", file=sys.stderr)
                exit_code = _EXIT_INPUT
                continue
            _write_json_line(
                out, {"prompt_id": group.prompt_id, "advantages": adv.values}
            )
    finally:
        if out is not sys.stdout:
            out.close()
    return exit_code


def _write_json_line(out: TextIO, payload: dict[str, Any]) -> None:
    out.write(json.dumps(_fmt(payload)))
    out.write("\n")
    out.flush()


def cmd_weights(args: argparse.Namespace) -> int:
    res = Resolver(args)
    m = res.get("m", int, 64)
    k = res.get("k", int, 2)
    j_count = res.get("j_count", int, 4)
    scheme = build_scheme(m, k, j_count)
    out = _open_output(args.output)
    try:
        _write_json(
            out,
            {
                "config": res.echo(),
                "m": scheme.m,
                "k": scheme.k,
                "j_count": scheme.j_count,
                "sizes": list(scheme.sizes),
                "ratios": list(scheme.ratios),
                "weights": list(scheme.weights),
            },
        )
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_predict_bon(args: argparse.Namespace) -> int:
    res = Resolver(args)
    alpha = res.get("alpha", float, 0.25)
    eps_sigma = res.get("eps_sigma", float, 1e-6)
    budgets = res.get("budgets", _int_list, (1, 2, 4, 8, 16, 32, 64, 128))
    groups = _load_groups(args.input)
    if not groups:
        raise InputError(f"{args.input}: no reward groups")
    constants = {n: tail_constants(alpha, n) for n in budgets}
    per_prompt = []
    totals = dict.fromkeys(budgets, 0.0)
    for group in groups:
        eta = empirical_tail_vector(group, alpha, eps_sigma)
        predictions = {n: predict_vn(eta, constants[n]) for n in budgets}
        for n, v in predictions.items():
            totals[n] += v
        per_prompt.append(
            {
                "prompt_id": group.prompt_id,
                "tail": {"r": eta.r, "mu": eta.mu, "sigma": eta.sigma, "q": eta.q},
                "predicted": {str(n): v for n, v in predictions.items()},
            }
        )
    out = _open_output(args.output)
    try:
        _write_json(
            out,
            {
                "config": res.echo(),
                "budgets": list(budgets),
                "mean_predicted": {str(n): totals[n] / len(groups) for n in budgets},
                "per_prompt": per_prompt,
            },
        )
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _curve_payload(curve) -> dict[str, Any]:
    return {
        "n": list(curve.n_values),
        "mean": list(curve.means),
        "per_prompt": curve.per_prompt,
    }


def cmd_eval_bon(args: argparse.Namespace) -> int:
    res = Resolver(args)
    budgets = res.get("budgets", _int_list, (1, 2, 4, 8))
    resamples = res.get("resamples", int, DEFAULT_RESAMPLES)
    seed = res.get("seed", int, 0)
    tie_tol = res.get("tie_tol", float, DEFAULT_TIE_TOL)
    groups = _load_groups(args.input)
    if not groups:
        raise InputError(f"{args.input}: no reward groups")
    samples = _pool_matrix(groups, args.input)
    curve = grouped_bon_curve(samples, budgets)
    payload: dict[str, Any] = {
        "config": res.echo(),
        "budgets": list(budgets),
        "curve": _curve_payload(curve),
    }
    if args.baseline is not None:
        base_groups = _load_groups(args.baseline)
        if len(base_groups) != len(groups):
            raise InputError(
                f"baseline has {len(base_groups)} groups, input has {len(groups)};"
                " paired evaluation needs equal counts"
            )
        base_curve = grouped_bon_curve(_pool_matrix(base_groups, args.baseline), budgets)
        payload["baseline_curve"] = _curve_payload(base_curve)
        deltas = {}
        wtl = {}
        for idx, n in enumerate(budgets):
            a = curve.per_prompt[:, idx]
            b = base_curve.per_prompt[:, idx]
            delta, lo, hi = paired_bootstrap_delta(a, b, resamples=resamples, seed=seed)
            deltas[str(n)] = {"delta": delta, "ci_lo": lo, "ci_hi": hi}
            win, tie, loss = win_tie_loss(a, b, tol=tie_tol)
            wtl[str(n)] = {"win": win, "tie": tie, "loss": loss}
        payload["deltas"] = deltas
        payload["win_tie_loss"] = wtl
    out = _open_output(args.output)
    try:
        _write_json(out, payload)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _pool_matrix(groups: list[RewardGroup], path: str) -> np.ndarray:
    sizes = {len(g) for g in groups}
    if len(sizes) != 1:
        raise InputError(f"{path}: grouped evaluation needs equal-length reward rows, got {sorted(sizes)}")
    return np.stack([g.rewards for g in groups])


def cmd_synth_bias_variance(args: argparse.Namespace) -> int:
    res = Resolver(args)
    rules = res.get("rules", _str_list, ("tea", "prefix-tea"))
    m_grid = res.get("m_grid", _int_list, (256, 512, 1024, 2048, 4096))
    p_grid = res.get("p_grid", _int_list, DEFAULT_P_GRID)
    replications = res.get("replications", int, None)
    seed = res.get("seed", int, 0)
    alpha = res.get("alpha", float, 0.25)
    n_target = res.get("n_target", int, 128)
    spec = SyntheticSpec(alpha=alpha, n_target=n_target)
    params = _rule_params(res)
    header = (
        ["estimator", "m", "bias_norm", "variance"]
        + [f"mse_p{p}" for p in p_grid]
        + ["replications", "seed"]
    )

    def rows() -> Iterator[Sequence[Any]]:
        for i, rule in enumerate(rules):
            for j, m in enumerate(m_grid):
                row_seed = int(np.random.SeedSequence([seed, i, j]).generate_state(1)[0])
                row = estimator_bias_variance(
                    rule, spec, m, replications=replications, seed=row_seed,
                    params=params, p_grid=tuple(p_grid),
                )
                print(
                    f"{rule} m={m}: bias_norm={row.bias_norm:.6g}"
                    f" (se {np.max(row.bias_se):.2g}/comp), variance={row.variance:.6g}"
                    f" (se {row.variance_se:.2g})",
                    file=sys.stderr,
                )
                yield (
                    [rule, m, row.bias_norm, row.variance]
                    + [row.mse_at_p[p] for p in p_grid]
                    + [row.replications, row.seed]
                )

    out = _open_output(args.output)
    try:
        _write_csv(out, res.echo(), header, rows())
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_align(args: argparse.Namespace) -> int:
    res = Resolver(args)
    rules = res.get("rules", _str_list, ("tea", "grpo"))
    n_target = res.get("n_target", int, 128)
    params = _rule_params(res)
    for rule in rules:
        if rule not in RULE_NAMES:
            raise InputError(f"unknown rule {rule!r}; expected one of {RULE_NAMES}")
    groups = _load_groups(args.input)
    if not groups:
        raise InputError(f"{args.input}: no reward groups")
    header = ["prompt_id"] + [f"cosine_{rule}" for rule in rules]
    totals = np.zeros(len(rules))
    table: list[list[Any]] = []
    exit_code = 0
    for index, group in enumerate(groups):
        if group.scores is None:
            raise InputError(f"prompt {group.prompt_id}: alignment needs per-sample scores")
        try:
            pool = EmpiricalPool.from_values(group.rewards)
            oracle = oracle_advantage(pool, n_target)
            cosines = [
                gradient_alignment(
                    compute_rule(rule, group, with_group_seed(params, index)).values,
                    group.scores,
                    oracle,
                )
                for rule in rules
            ]
        except DegenerateError as exc:
            print(f"error: prompt {group.prompt_id}: {exc}", file=sys.stderr)
            exit_code = _EXIT_DEGENERATE
            continue
        totals += cosines
        table.append([group.prompt_id, *cosines])
    if table:
        table.append(["MEAN"] + (totals / len(table)).tolist())
    out = _open_output(args.output)
    try:
        _write_csv(out, res.echo(), header, iter(table))
    finally:
        if out is not sys.stdout:
            out.close()
    return exit_code


def cmd_train_synth(args: argparse.Namespace) -> int:
    res = Resolver(args)
    rule = res.get("rule", str, "tea")
    m = res.get("m", int, 64)
    p_batch = res.get("p_batch", int, 4)
    beta = res.get("beta", float, 0.0)
    gamma = res.get("gamma", float, 0.1)
    steps = res.get("steps", int, 200)
    seed = res.get("seed", int, 0)
    eval_n = res.get("eval_n", _int_list, (1, 8, 128))
    eval_every = res.get("eval_every", int, 20)
    eval_samples = res.get("eval_samples", int, 512)
    n_prompts = res.get("n_prompts", int, 8)
    n_actions = res.get("n_actions", int, 32)
    task_seed = res.get("task_seed", int, 0)
    reward_scale = res.get("reward_scale", float, 1.0)
    params = _rule_params(res)
    task = ToyTask.random(n_prompts, n_actions, seed=task_seed, reward_scale=reward_scale)
    config = TrainConfig(
        rule=rule, params=params, m=m, p_batch=p_batch, beta=beta, gamma=gamma,
        steps=steps, seed=seed, eval_n=eval_n, eval_every=eval_every,
        eval_samples=eval_samples,
    )
    result = train(task, config)
    header = ["step", "kl", "mean_reward"] + [f"bon_{n}" for n in eval_n]
    rows = (
        [point.step, point.kl, point.mean_reward] + [point.bon[n] for n in eval_n]
        for point in result.trajectory
    )
    out = _open_output(args.output)
    try:
        _write_csv(out, res.echo(), header, rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_qq_fit(args: argparse.Namespace) -> int:
    res = Resolver(args)
    q_lo = res.get("q_lo", float, 0.80)
    q_hi = res.get("q_hi", float, 0.99)
    grid = res.get("grid", int, DEFAULT_QQ_GRID)
    groups = _load_groups(args.input)
    if not groups:
        raise InputError(f"{args.input}: no reward groups")
    header = ["prompt_id", "a", "b", "r_squared"]

    def rows() -> Iterator[Sequence[Any]]:
        for group in groups:
            fit = qq_tail_fit(group.rewards, q_lo, q_hi, grid_points=grid)
            yield [group.prompt_id, fit.a, fit.b, fit.r_squared]

    out = _open_output(args.output)
    try:
        _write_csv(out, res.echo(), header, rows())
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bontea",
        description=(
            "Tail-extrapolated advantage estimation, baseline advantage rules,"
            " best-of-N prediction and evaluation, and the synthetic"
            " bias/variance laboratory."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, needs_input: bool = False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="flat key=value config file (flags win)")
        p.add_argument("--output", "-o", help="output path (default stdout)")
        if needs_input:
            p.add_argument("--input", "-i", required=True, help="input JSONL path")
        return p

    def add_param_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--alpha", type=float, help="tail level (default 0.25)")
        p.add_argument("--n-target", type=int, help="deployment best-of-N (default 128)")
        p.add_argument("--k", type=int, help="cancellation order (default 2)")
        p.add_argument("--j-count", type=int, help="number of prefixes (default 4)")
        p.add_argument("--eps-sigma", type=float, help="tail sigma floor (default 1e-6)")
        p.add_argument("--eps-norm", type=float, help="normalization floor (default 1e-8)")
        p.add_argument("--seed", type=int, help="base RNG seed (default 0)")
        p.add_argument("--bon-k", type=int, help="subset size for the bon-mean rule")
        p.add_argument("--n-sel", type=int, help="selected-prompt count for the chow rule")
        p.add_argument("--m-corr", type=int, help="correction-set size for the chow rule")
        p.add_argument("--lambda-nsel", type=float, help="correction weight for the chow rule")
        p.add_argument("--cat-n-target", type=int, help="target N for the cat-bon rule")

    p = add("advantage", cmd_advantage, "per-group advantages as JSONL", needs_input=True)
    p.add_argument("--rule", choices=RULE_NAMES, help="advantage rule (default tea)")
    add_param_flags(p)

    p = add("weights", cmd_weights, "prefix sizes, ratios, and cancellation weights")
    p.add_argument("--m", type=int, help="group size (default 64)")
    p.add_argument("--k", type=int, help="cancellation order (default 2)")
    p.add_argument("--j-count", type=int, help="number of prefixes (default 4)")

    p = add("predict-bon", cmd_predict_bon, "tail-based best-of-N predictions", needs_input=True)
    p.add_argument("--alpha", type=float, help="tail level (default 0.25)")
    p.add_argument("--eps-sigma", type=float, help="tail sigma floor (default 1e-6)")
    p.add_argument("--budgets", type=_int_list, help="comma-separated N budgets")

    p = add("eval-bon", cmd_eval_bon, "grouped best-of-N curve and comparisons", needs_input=True)
    p.add_argument("--budgets", type=_int_list, help="comma-separated N budgets")
    p.add_argument("--baseline", help="baseline JSONL for paired deltas and W/T/L")
    p.add_argument("--resamples", type=int, help="bootstrap resamples (default 1000)")
    p.add_argument("--seed", type=int, help="bootstrap seed (default 0)")
    p.add_argument("--tie-tol", type=float, help="win/tie/loss tolerance (default 1e-9)")

    p = add("synth-bias-variance", cmd_synth_bias_variance, "synthetic-lab bias/variance CSV")
    p.add_argument("--rules", type=_str_list, help="comma-separated estimator tags")
    p.add_argument("--m-grid", type=_int_list, help="comma-separated group sizes")
    p.add_argument("--p-grid", type=_int_list, help="comma-separated prompt-batch sizes")
    p.add_argument("--replications", type=int, help="Monte Carlo replications per row")
    add_param_flags(p)

    p = add("align", cmd_align, "cosine table of rules against the exact oracle", needs_input=True)
    p.add_argument("--rules", type=_str_list, help="comma-separated rules (default tea,grpo)")
    add_param_flags(p)

    p = add("train-synth", cmd_train_synth, "toy softmax training trajectory CSV")
    p.add_argument("--rule", choices=RULE_NAMES, help="advantage rule (default tea)")
    p.add_argument("--m", type=int, help="rollouts per prompt (default 64)")
    p.add_argument("--p-batch", type=int, help="prompts per step (default 4)")
    p.add_argument("--beta", type=float, help="KL coefficient (default 0)")
    p.add_argument("--gamma", type=float, help="step size (default 0.1)")
    p.add_argument("--steps", type=int, help="training steps (default 200)")
    p.add_argument("--eval-n", type=_int_list, help="evaluation best-of-N budgets")
    p.add_argument("--eval-every", type=int, help="evaluation interval (default 20)")
    p.add_argument("--eval-samples", type=int, help="samples per prompt per eval (default 512)")
    p.add_argument("--n-prompts", type=int, help="task prompts (default 8)")
    p.add_argument("--n-actions", type=int, help="task actions per prompt (default 32)")
    p.add_argument("--task-seed", type=int, help="reward-table seed (default 0)")
    p.add_argument("--reward-scale", type=float, help="reward-table scale (default 1)")
    add_param_flags(p)

    p = add("qq-fit", cmd_qq_fit, "Gaussian tail QQ fit per prompt", needs_input=True)
    p.add_argument("--q-lo", type=float, help="lower quantile of the fit window (default 0.80)")
    p.add_argument("--q-hi", type=float, help="upper quantile of the fit window (default 0.99)")
    p.add_argument("--grid", type=int, help="quantile grid points (default 20)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except DegenerateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
