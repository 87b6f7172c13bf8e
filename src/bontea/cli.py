"""Command-line surface: JSONL/CSV pipelines over the library modules.

Input rows are JSON objects {"prompt_id": str, "rewards": [...], "scores":
[[...], ...]?}, one per line. Every output embeds the resolved run
configuration and the library version; floats are serialized as their
shortest round-tripping decimal (Python repr), so writing and re-reading any
output reproduces the values bit-exactly. Commands are pure functions of
(inputs, config, seed).

Each command declares its options once, with ``@command``; see there.

Exit codes: 0 clean, 2 input error, 3 numerical/degenerate error, the worst
one when several groups fail. Partial outputs are flushed before a nonzero exit.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from . import __version__
from .advantages import RULE_NAMES, RuleParams, check_rule, compute_rules
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
from .errors import DegenerateError, InputError, PromptRowError, check_finite
from .gauss import DEFAULT_QQ_GRID, predict_vn, qq_tail_fits, qq_window, tail_constants
from .prefixes import build_scheme
from .synth import (
    DEFAULT_P_GRID,
    LAB_TAGS,
    SyntheticSpec,
    check_sizes,
    estimator_bias_variance,
    frontier_row_seed,
)
from .tailstats import RewardGroup, tail_count, tail_stats
from .trainer import ToyTask, TrainConfig, train

_EXIT_INPUT = 2
_EXIT_DEGENERATE = 3
#: Paths that only flags set; a config file naming them is refused.
_FLAG_ONLY = ("input", "output", "baseline")


def _json_default(value: Any) -> Any:
    """``json`` hook: arrays become lists and NumPy scalars Python scalars.

    Python floats (and NumPy float64, a float subclass) are written by
    ``json`` as their repr, the shortest round-trip decimal.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


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


# The list casts raise ``ArgumentTypeError``, whose message argparse shows as
# it is; ``_resolve`` turns it into an ``InputError`` for config-file values.
def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _str_list(text: str) -> tuple[str, ...]:
    values = tuple(part.strip() for part in text.split(",") if part.strip())
    if not values:
        raise argparse.ArgumentTypeError("expected at least one name")
    return values


class Option(NamedTuple):
    """One config key: flag ``--name`` (dashes for underscores) and file key ``name``.

    ``choices`` are the rule names the value, or each name of a list value, must be one of.
    """

    name: str
    cast: Callable[[str], Any]
    default: Any
    help: str
    choices: Sequence[str] | None = None


def _default(func: Callable, name: str) -> Any:
    """Default of the library function's parameter ``name``."""
    return inspect.signature(func).parameters[name].default


_RULE = RuleParams()
_TRAIN = TrainConfig()
_RULE_OPTION = Option("rule", str, _TRAIN.rule, "advantage rule", RULE_NAMES)

#: RuleParams fields, in the order the echoed configuration lists them.
RULE_OPTIONS = {
    option.name: option
    for option in (
        Option("alpha", float, _RULE.alpha, "tail level"),
        Option("n_target", int, _RULE.n_target, "deployment best-of-N"),
        Option("eps_sigma", float, _RULE.eps_sigma, "tail sigma floor"),
        Option("eps_norm", float, _RULE.eps_norm, "normalization floor"),
        Option("k", int, _RULE.k, "cancellation order"),
        Option("j_count", int, _RULE.j_count, "number of prefixes"),
        Option("seed", int, _RULE.seed, "base RNG seed"),
        Option("bon_k", int, _RULE.bon_k, "subset size for the bon-mean rule"),
        Option("n_sel", int, _RULE.n_sel, "selected-prompt count for the chow rule"),
        Option("lambda_nsel", float, _RULE.lambda_nsel, "correction weight for the chow rule"),
    )
}

#: name -> (run, help, options in echo order, needs --input)
COMMANDS: dict[str, tuple[Callable[..., int], str, tuple[Option, ...], bool]] = {}


def command(name: str, help_text: str, *options: Option, needs_input: bool = True):
    """Declare ``func`` as subcommand ``name`` taking ``options``.

    The options build the flags and their help, cast config-file values,
    supply the defaults and fix the order of the echoed configuration. An
    option listed again later (a rule field the command already declared)
    keeps its first place.
    """
    table: dict[str, Option] = {}
    for option in options:
        table.setdefault(option.name, option)

    def register(func: Callable[..., int]) -> Callable[..., int]:
        COMMANDS[name] = (func, help_text, tuple(table.values()), needs_input)
        return func

    return register


def _resolve(args: argparse.Namespace, options: Sequence[Option]) -> dict[str, Any]:
    """Each option's value in table order: flag, else config file, else default.

    A config-file key that is not one of ``options``, or a value outside its
    option's ``choices``, raises ``InputError``.
    """
    file_values = load_config_file(args.config) if args.config else {}
    names = {option.name for option in options}
    for key in file_values:
        if key in _FLAG_ONLY:
            raise InputError(f"config key {key}: a flag only (--{key}), not a config key")
        if key not in names:
            raise InputError(f"config key {key}: not an option of {args.command}")
    config: dict[str, Any] = {}
    for option in options:
        value = getattr(args, option.name)
        if value is None and option.name in file_values:
            try:
                value = option.cast(file_values[option.name])
            except (ValueError, TypeError, argparse.ArgumentTypeError) as exc:
                raise InputError(f"config key {option.name}: {exc}") from exc
        if value is not None and option.choices is not None:
            for name in value if isinstance(value, tuple) else (value,):
                check_rule(name, option.choices)
        config[option.name] = option.default if value is None else value
    return config


def _echo(config: dict[str, Any]) -> dict[str, Any]:
    """The resolved configuration as every output embeds it."""
    echoed: dict[str, Any] = {"version": __version__}
    for name, value in config.items():
        echoed[name] = list(value) if isinstance(value, tuple) else value
    return echoed


def _build(cls: Any, config: dict[str, Any], **given: Any) -> Any:
    """Dataclass ``cls`` from the config keys that name its fields."""
    return cls(**{f.name: config[f.name] for f in fields(cls) if f.name in config}, **given)


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
            except RecursionError as exc:
                raise InputError(f"{path}:{lineno}: invalid JSON (nested too deeply)") from exc
            if not isinstance(record, dict) or "rewards" not in record:
                raise InputError(f"{path}:{lineno}: expected an object with a 'rewards' field")
            prompt_id = str(record.get("prompt_id", f"line-{lineno}"))
            try:
                group = RewardGroup(prompt_id, record["rewards"], record.get("scores"))
            except (ValueError, TypeError, OverflowError) as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
            yield lineno, group


@contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """Stdout for no path or '-', else the file; flushed once, when it closes.

    What was written stays on error: the file is closed and stdout flushed.
    """
    if path is None or path == "-":
        try:
            yield sys.stdout
        finally:
            sys.stdout.flush()
        return
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    with handle:
        yield handle


def _write_json(out: TextIO, payload: dict[str, Any], indent: int | None = None) -> None:
    out.write(json.dumps(payload, indent=indent, default=_json_default))
    out.write("\n")


def _write_doc(path: str | None, config: dict[str, Any], **fields: Any) -> None:
    """One indented JSON document: the echoed config, then ``fields``."""
    with _output(path) as out:
        _write_json(out, {"config": _echo(config), **fields}, indent=2)


def _write_csv(
    path: str | None, config: dict[str, Any], header: Sequence[str], rows: Iterable[Sequence[Any]]
) -> None:
    """'# key=value' lines of the echoed config, the header, then each row as it comes."""
    with _output(path) as out:
        for key, value in _echo(config).items():
            out.write(f"# {key}={_cell(value)}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


# --- commands ------------------------------------------------------------------


#: Most rewards one batch call of a group command takes: 64 groups of m = 64. Longer
#: runs are no faster and hold more memory; a larger group is a run of its own.
_RUN_VALUES = 64 * 64


def _equal_size_runs(
    groups: Iterable[tuple[int, RewardGroup]],
) -> Iterator[list[tuple[int, int, RewardGroup]]]:
    """Runs of (index, line, group): consecutive groups of one m, at most ``_RUN_VALUES`` rewards.

    A read error propagates only after the run before it is yielded, so every
    group before the bad line is written.
    """
    run: list[tuple[int, int, RewardGroup]] = []
    try:
        for index, (lineno, group) in enumerate(groups):
            m = len(group)
            if run and (len(run[0][2]) != m or len(run) >= _RUN_VALUES // m):
                yield run
                run = []
            run.append((index, lineno, group))
    except InputError:
        if run:
            yield run
        raise
    if run:
        yield run


class _Exit(Exception):
    """Ends a command whose errors are on stderr already; its one argument is the exit code."""


@dataclass
class _Computed:
    """(group, result) for each group of a JSONL file, in file order, one batch call per run.

    ``batch(rewards, indices, groups)`` takes a run's (B, m) rewards, groups and
    their indices in the file, and returns one result per group. If it raises,
    the run is redone by calling ``batch`` on each group alone, as a (1, m) row,
    so each failure is the group's own. A failure is reported with the group's
    prompt and line and skipped if one of ``skip``; any other, or a bad line,
    ends the command. ``exit_code`` is the worst failure. A file without groups
    is an input error unless ``allow_empty``.
    """

    path: str
    batch: Callable[[np.ndarray, tuple[int, ...], tuple[RewardGroup, ...]], Sequence[Any]]
    skip: tuple[type[Exception], ...] = ()
    allow_empty: bool = False
    exit_code: int = 0

    def __iter__(self) -> Iterator[tuple[RewardGroup, Any]]:
        run = None
        try:
            for run in _equal_size_runs(read_reward_groups(self.path)):
                indices, _, groups = zip(*run)
                try:
                    results = self.batch(np.stack([group.rewards for group in groups]), indices, groups)
                except (DegenerateError, InputError):
                    results = None
                for i, (index, lineno, group) in enumerate(run):
                    try:
                        if results is None:
                            result = self.batch(group.rewards[None, :], (index,), (group,))[0]
                        else:
                            result = results[i]
                    except (DegenerateError, InputError) as exc:
                        self._fail(f"prompt {group.prompt_id} (line {lineno}): {exc}", exc)
                        continue
                    yield group, result
        except InputError as exc:  # a bad line; the groups' own errors are handled above
            self._fail(str(exc), exc, end=True)
        if run is None and not self.allow_empty:
            raise InputError(f"{self.path}: no reward groups")

    def _fail(self, message: str, exc: Exception, end: bool = False) -> None:
        print(f"error: {message}", file=sys.stderr)
        code = _EXIT_DEGENERATE if isinstance(exc, DegenerateError) else _EXIT_INPUT
        self.exit_code = max(self.exit_code, code)
        if end or not isinstance(exc, self.skip):
            raise _Exit(self.exit_code)


@command("advantage", "per-group advantages as JSONL", _RULE_OPTION, *RULE_OPTIONS.values())
def cmd_advantage(args: argparse.Namespace, config: dict[str, Any]) -> int:
    rule, params = config["rule"], _build(RuleParams, config)

    def advantages(rewards: np.ndarray, indices: tuple[int, ...], _: Any) -> list[list[float]]:
        """The run's advantages; one finiteness check per run, so the per-group redo names the prompt."""
        with np.errstate(over="ignore", invalid="ignore"):
            adv = compute_rules(rule, rewards, params, [params.seed + i for i in indices])
        check_finite(adv, lambda *_: f"rule {rule} overflows: its advantages are not finite")
        return adv.tolist()

    groups = _Computed(args.input, advantages, skip=(DegenerateError, InputError), allow_empty=True)
    with _output(args.output) as out:
        _write_json(out, {"config": _echo(config), "rule": rule})
        for group, adv in groups:
            _write_json(out, {"prompt_id": group.prompt_id, "advantages": adv})
    return groups.exit_code


@command(
    "weights", "prefix sizes, ratios, and cancellation weights",
    Option("m", int, 64, "group size"), RULE_OPTIONS["k"], RULE_OPTIONS["j_count"],
    needs_input=False,
)
def cmd_weights(args: argparse.Namespace, config: dict[str, Any]) -> int:
    scheme = build_scheme(config["m"], config["k"], config["j_count"])
    _write_doc(
        args.output, config, m=scheme.m, k=scheme.k, j_count=scheme.j_count,
        sizes=scheme.sizes, ratios=scheme.ratios, weights=scheme.weights,
    )
    return 0


@command(
    "predict-bon", "tail-based best-of-N predictions",
    RULE_OPTIONS["alpha"], RULE_OPTIONS["eps_sigma"],
    Option("budgets", _int_list, (1, 2, 4, 8, 16, 32, 64, 128), "N budgets"),
)
def cmd_predict_bon(args: argparse.Namespace, config: dict[str, Any]) -> int:
    params, budgets = _build(RuleParams, config), config["budgets"]
    c_tilde = np.array([tail_constants(params.alpha, n).c_tilde_n for n in budgets])

    def tails(rewards: np.ndarray, *_: Any) -> list[list[float]]:
        """Per group: r, mu, sigma, then the predicted best-of-N value at each budget."""
        with np.errstate(over="ignore", invalid="ignore"):
            r, mu, sigma = tail_stats(rewards, params.alpha, params.eps_sigma)
        return np.hstack([r, mu, sigma, predict_vn(mu, sigma, c_tilde)]).tolist()

    keys = [str(n) for n in budgets]
    totals, per_prompt = [0.0] * len(budgets), []  # summed left to right, not pairwise
    for group, (r, mu, sigma, *values) in _Computed(args.input, tails):
        totals = [total + v for total, v in zip(totals, values)]
        tail = {"r": r, "mu": mu, "sigma": sigma, "q": tail_count(len(group), params.alpha)}
        per_prompt.append({"prompt_id": group.prompt_id, "tail": tail, "predicted": dict(zip(keys, values))})
    mean = {key: total / len(per_prompt) for key, total in zip(keys, totals)}
    _write_doc(args.output, config, budgets=budgets, mean_predicted=mean, per_prompt=per_prompt)
    return 0


def _curve_payload(curve) -> dict[str, Any]:
    return {"n": curve.n_values, "mean": curve.means, "per_prompt": curve.per_prompt}


@command(
    "eval-bon", "grouped best-of-N curve and comparisons",
    Option("budgets", _int_list, (1, 2, 4, 8), "N budgets"),
    Option("resamples", int, DEFAULT_RESAMPLES, "bootstrap resamples"),
    Option("seed", int, _default(paired_bootstrap_delta, "seed"), "bootstrap seed"),
    Option("tie_tol", float, DEFAULT_TIE_TOL, "win/tie/loss tolerance"),
)
def cmd_eval_bon(args: argparse.Namespace, config: dict[str, Any]) -> int:
    budgets = config["budgets"]
    ids, lines, pools = _pools(args.input)
    curve = _naming_rows(ids, lines, grouped_bon_curve, pools, budgets)
    payload: dict[str, Any] = {"budgets": budgets, "curve": _curve_payload(curve)}
    if args.baseline is not None:
        base_ids, base_lines, base_pools = _pools(args.baseline)
        if len(base_ids) != len(ids):
            raise InputError(
                f"baseline has {len(base_ids)} groups, input has {len(ids)};"
                " paired evaluation needs equal counts"
            )
        for position, (prompt_id, base_id) in enumerate(zip(ids, base_ids), 1):
            if prompt_id != base_id:
                raise InputError(
                    f"baseline group {position} is prompt {base_id!r}, input group"
                    f" {position} is {prompt_id!r}; paired evaluation needs the same"
                    " prompts in the same order"
                )
        base_curve = _naming_rows(base_ids, base_lines, grouped_bon_curve, base_pools, budgets)
        payload["baseline_curve"] = _curve_payload(base_curve)
        a, b = curve.per_prompt, base_curve.per_prompt
        deltas = _naming_rows(ids, lines, paired_bootstrap_delta, a, b, config["resamples"], config["seed"])
        for key, names, columns in (
            ("deltas", ("delta", "ci_lo", "ci_hi"), deltas),
            ("win_tie_loss", ("win", "tie", "loss"), win_tie_loss(a, b, config["tie_tol"])),
        ):
            rows = zip(budgets, *(column.tolist() for column in columns))
            payload[key] = {str(n): dict(zip(names, values)) for n, *values in rows}
    _write_doc(args.output, config, **payload)
    return 0


def _pools(path: str) -> tuple[list[str], list[int], np.ndarray]:
    """Prompt ids, lines and the (prompts, M) reward matrix of a file of equal-size groups."""
    records = list(read_reward_groups(path))
    if not records:
        raise InputError(f"{path}: no reward groups")
    lines, groups = zip(*records)
    sizes = sorted({len(group) for group in groups})
    if len(sizes) != 1:
        raise InputError(f"{path}: grouped evaluation needs equal-length reward rows, got {sizes}")
    return [group.prompt_id for group in groups], list(lines), np.stack([group.rewards for group in groups])


def _naming_rows(ids: list[str], lines: list[int], call: Callable[..., Any], *args: Any) -> Any:
    """``call(*args)``, with a failing prompt row named by its prompt and line, as the group commands do."""
    try:
        return call(*args)
    except PromptRowError as exc:
        raise DegenerateError(f"prompt {ids[exc.row]} (line {lines[exc.row]}): {exc.detail}") from exc


@command(
    "synth-bias-variance", "synthetic-lab bias/variance CSV",
    Option("rules", _str_list, ("tea", "prefix-tea"), "estimator tags", LAB_TAGS),
    Option("m_grid", _int_list, (256, 512, 1024, 2048, 4096), "group sizes"),
    Option("p_grid", _int_list, DEFAULT_P_GRID, "prompt-batch sizes"),
    Option("replications", int, None, "Monte Carlo replications per row"),
    RULE_OPTIONS["seed"], RULE_OPTIONS["alpha"], RULE_OPTIONS["n_target"],
    *RULE_OPTIONS.values(),
    needs_input=False,
)
def cmd_synth_bias_variance(args: argparse.Namespace, config: dict[str, Any]) -> int:
    rules, m_grid, p_grid = config["rules"], config["m_grid"], config["p_grid"]
    check_sizes(m_grid, p_grid)  # a bad size fails before any output
    spec = _build(SyntheticSpec, config)
    params = _build(RuleParams, config)
    header = (
        ["estimator", "m", "bias_norm", "variance"]
        + [f"mse_p{p}" for p in p_grid]
        + ["replications", "seed"]
    )

    def rows() -> Iterator[Sequence[Any]]:
        for i, rule in enumerate(rules):
            for j, m in enumerate(m_grid):
                row = estimator_bias_variance(
                    rule, spec, m, replications=config["replications"],
                    seed=frontier_row_seed(config["seed"], i, j), params=params, p_grid=p_grid,
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

    _write_csv(args.output, config, header, rows())
    return 0


@command(
    "align", "cosine table of rules against the exact oracle",
    Option("rules", _str_list, ("tea", "grpo"), "rules", RULE_NAMES),
    RULE_OPTIONS["n_target"], *RULE_OPTIONS.values(),
)
def cmd_align(args: argparse.Namespace, config: dict[str, Any]) -> int:
    rules, params = config["rules"], _build(RuleParams, config)

    def batch(rewards: np.ndarray, indices: tuple[int, ...], groups: tuple) -> list[tuple[float, ...]]:
        """Per group, the cosine of each rule; the rules are computed and aligned one at a time.

        On one group this fails as a per-group loop would: a rule's degenerate
        alignment before a later rule's input error.
        """
        oracles, columns = [], []
        with np.errstate(over="ignore", invalid="ignore"):
            for group in groups:
                if group.scores is None:
                    raise InputError("alignment needs per-sample scores")
                oracles.append(oracle_advantage(EmpiricalPool.from_values(group.rewards), params.n_target))
            for rule in rules:
                adv = compute_rules(rule, rewards, params, [params.seed + i for i in indices])
                columns.append([gradient_alignment(a, g.scores, o) for a, g, o in zip(adv, groups, oracles)])
        return list(zip(*columns))

    computed = _Computed(args.input, batch, skip=(DegenerateError,))
    totals, table = np.zeros(len(rules)), []
    for group, row in computed:
        totals += row
        table.append([group.prompt_id, *row])
    if table:
        table.append(["MEAN"] + (totals / len(table)).tolist())
    _write_csv(args.output, config, ["prompt_id"] + [f"cosine_{rule}" for rule in rules], table)
    return computed.exit_code


@command(
    "train-synth", "toy softmax training trajectory CSV",
    _RULE_OPTION,
    Option("m", int, _TRAIN.m, "rollouts per prompt"),
    Option("p_batch", int, _TRAIN.p_batch, "prompts per step"),
    Option("beta", float, _TRAIN.beta, "KL coefficient"),
    Option("gamma", float, _TRAIN.gamma, "step size"),
    Option("steps", int, _TRAIN.steps, "training steps"),
    Option("seed", int, _TRAIN.seed, "base RNG seed"),
    Option("eval_n", _int_list, _TRAIN.eval_n, "evaluation best-of-N budgets"),
    Option("eval_every", int, _TRAIN.eval_every, "evaluation interval"),
    Option("eval_samples", int, _TRAIN.eval_samples, "samples per prompt per eval"),
    Option("n_prompts", int, _default(ToyTask.random, "n_prompts"), "task prompts"),
    Option("n_actions", int, _default(ToyTask.random, "n_actions"), "task actions per prompt"),
    Option("task_seed", int, _default(ToyTask.random, "seed"), "reward-table seed"),
    Option("reward_scale", float, _default(ToyTask.random, "reward_scale"), "reward-table scale"),
    *RULE_OPTIONS.values(),
    needs_input=False,
)
def cmd_train_synth(args: argparse.Namespace, config: dict[str, Any]) -> int:
    task = ToyTask.random(
        config["n_prompts"], config["n_actions"],
        seed=config["task_seed"], reward_scale=config["reward_scale"],
    )
    result = train(task, _build(TrainConfig, config, params=_build(RuleParams, config)))
    eval_n = config["eval_n"]
    header = ["step", "kl", "mean_reward"] + [f"bon_{n}" for n in eval_n]
    rows = (
        [point.step, point.kl, point.mean_reward] + [point.bon[n] for n in eval_n]
        for point in result.trajectory
    )
    _write_csv(args.output, config, header, rows)
    return 0


@command(
    "qq-fit", "Gaussian tail QQ fit per prompt",
    Option("q_lo", float, 0.80, "lower quantile of the fit window"),
    Option("q_hi", float, 0.99, "upper quantile of the fit window"),
    Option("grid", int, DEFAULT_QQ_GRID, "quantile grid points"),
)
def cmd_qq_fit(args: argparse.Namespace, config: dict[str, Any]) -> int:
    q_lo, q_hi, grid = config["q_lo"], config["q_hi"], config["grid"]
    qq_window(q_lo, q_hi, grid)  # a bad window fails before any output
    fits = _Computed(args.input, lambda x, *_: np.column_stack(qq_tail_fits(x, q_lo, q_hi, grid)).tolist())
    rows = ([group.prompt_id, *fit] for group, fit in fits)
    _write_csv(args.output, config, ["prompt_id", "a", "b", "r_squared"], rows)
    return 0


# --- parser -------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process."""
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
    for name, (run, help_text, options, needs_input) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run, options=options)
        p.add_argument("--config", help="flat key=value config file (flags win)")
        p.add_argument("--output", "-o", help="output path (default stdout)")
        if needs_input:
            p.add_argument("--input", "-i", required=True, help="input JSONL path")
        for option in options:
            default = option.default
            if isinstance(default, tuple):
                default = ",".join(map(str, default))
            shown = "" if option.choices is None else f": {', '.join(option.choices)}"
            shown += "" if default is None else f" (default {default})"
            p.add_argument("--" + option.name.replace("_", "-"), type=option.cast, help=option.help + shown)
    # a second input path: like --input, a flag only, not a config key
    sub.choices["eval-bon"].add_argument(
        "--baseline", help="baseline JSONL for paired deltas and W/T/L"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, _resolve(args, args.options))
    except _Exit as stop:
        return stop.args[0]
    except (InputError, DegenerateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DEGENERATE if isinstance(exc, DegenerateError) else _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
