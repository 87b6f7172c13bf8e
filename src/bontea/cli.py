"""Command-line surface: JSONL/CSV pipelines over the library modules.

Input rows are JSON objects {"prompt_id": str, "rewards": [...], "scores":
[[...], ...]?}, one per line. Every output embeds the resolved run
configuration and the library version; floats are serialized as their
shortest round-tripping decimal (Python repr), so writing and re-reading any
output reproduces the values bit-exactly. Commands are pure functions of
(inputs, config, seed).

Each command declares its options once, with ``@command``; see there.

Exit codes: 0 clean, 2 input error (an allocation refused for want of
memory included), 3 numerical/degenerate error, the worst one when several
groups fail. Partial outputs are flushed before a nonzero exit.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import os
import struct
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from itertools import chain, starmap
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from . import __version__, jsonio
from .advantages import RULE_NAMES, RuleParams, check_rule, compute_rules, rule_kernel
from .bon_eval import (
    DEFAULT_RESAMPLES,
    DEFAULT_TIE_TOL,
    EmpiricalPool,
    check_budgets,
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
    check_rows,
    estimator_bias_variance,
    frontier_row_seed,
)
from .tailstats import RewardGroup, all_numbers, tail_count, tail_stats
from .trainer import ToyTask, TrainConfig, train

_EXIT_INPUT = 2
_EXIT_DEGENERATE = 3
#: Paths that only flags set; a config file naming them is refused.
_FLAG_ONLY = ("input", "output", "baseline")


# --- configuration resolution ------------------------------------------------


def load_config_file(path: str) -> dict[str, str]:
    """Flat key=value text; blank lines and '#' comments are ignored, and a key set twice is refused."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in values:
            raise InputError(f"{path}:{lineno}: key {key} set twice")
        values[key] = value.strip()
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


#: Most rewards in one run of groups: 64 groups of m = 64. Each run is one
#: array, one finiteness check and one batch call, and ``advantage`` writes it
#: in one call. The bound keeps a run's memory small; a larger group is a run
#: of its own.
_RUN_VALUES = 64 * 64


class _Run(NamedTuple):
    """Consecutive groups of one size m, as ``read_reward_groups`` yields them.

    ``first`` is the first group's index among the file's groups, ``lines``
    and ``ids`` give each group's line and prompt, ``rewards`` is the (B, m)
    matrix and ``scores`` holds each group's (m, d) scores, or None.
    """

    first: int
    lines: Sequence[int]
    ids: Sequence[str]
    rewards: np.ndarray
    scores: Sequence[np.ndarray | None]


def read_reward_groups(path: str) -> Iterator[_Run]:
    """Yield the file's groups in runs of one size, of at most ``_RUN_VALUES`` rewards.

    Each line is decoded once (see ``jsonio.decode``); each run becomes one matrix,
    checked for shape and finiteness once. A bad line raises an ``InputError``
    naming it, after the groups before it are yielded: the first bad line in
    file order, whatever is wrong with it, bytes that are not UTF-8 included.
    """
    # imported here, where a group file is read, so that importing the CLI does not load it
    from orjson import loads

    try:
        handle = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    run: list[tuple[int, str, str, Any, Any]] = []  # (line, text, prompt, rewards, scores) as decoded
    first = size = 0
    with handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = jsonio.decode(path, lineno, line, loads)
            except InputError:
                yield from _checked_run(path, first, run)
                raise
            rewards = record["rewards"]
            m = len(rewards) if type(rewards) is list else -1  # -1: no run passes the check
            if run and (m != size or len(run) >= _RUN_VALUES // max(m, 1)):
                yield from _checked_run(path, first, run)
                first, run = first + len(run), []
            size = m
            run.append((lineno, line, str(record.get("prompt_id", f"line-{lineno}")), rewards, record.get("scores")))
        yield from _checked_run(path, first, run)


def _checked_run(path: str, first: int, run: list[tuple[int, str, str, Any, Any]]) -> Iterator[_Run]:
    """Yield the decoded lines of a run as a ``_Run``, their rewards and scores checked as whole arrays.

    Each line's rewards are packed as m doubles by one ``struct.Struct`` per
    run, which refuses a JSON string, null, list or object, and a line of
    another length; the packed bytes are the run's matrix. The scores are one
    ``np.array``, which would read a JSON string as a number, so a ``sum`` of
    each group's scores catches a string there. ``_numbers`` then looks for a
    JSON boolean in both. A run that fails the check is yielded as runs of
    one: each line is read again by ``jsonio.loads``, which refuses nesting
    orjson read, and its group built by ``RewardGroup``, which raises the
    first bad line's ``InputError``.
    """
    if not run:
        return
    lines, _, ids, rewards, scores = zip(*run)
    try:
        m = len(rewards[0])  # a run's rewards are all lists of m, or all not lists: those fail below
        packed = bytearray().join(starmap(struct.Struct(f"{m}d").pack, rewards))
        matrix = np.frombuffer(packed, dtype=float).reshape(len(rewards), m)  # writable, as the bytearray is
        valid = m > 0 and bool(np.isfinite(matrix).all()) and _numbers(matrix, rewards)
        if valid and any(s is not None for s in scores):
            stacked = np.array(scores, dtype=float)  # fails, or is not 3-d, if a group has none
            valid = stacked.ndim == 3 and stacked.shape[1] == m and bool(np.isfinite(stacked).all())
            for group in scores:
                sum(chain.from_iterable(group))  # raises TypeError on a JSON string
            valid = valid and _numbers(stacked, scores, chain.from_iterable)
            scores = tuple(stacked)
    except (ValueError, TypeError, OverflowError, struct.error):
        valid = False
    if valid:
        yield _Run(first, lines, ids, matrix, scores)
        return
    for i, (lineno, line, prompt_id, _, _) in enumerate(run):
        record = jsonio.loads(path, lineno, line)
        try:
            group = RewardGroup(prompt_id, record["rewards"], record.get("scores"))
        except (ValueError, TypeError, OverflowError) as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        yield _Run(first + i, (lineno,), (prompt_id,), group.rewards[None, :], (group.scores,))


def _numbers(array: np.ndarray, lines: Sequence, values: Callable[[Any], Iterable] = iter) -> bool:
    """Whether the decoded ``lines`` behind ``array`` hold no JSON boolean.

    ``values`` gives a line's values. A boolean reads as exactly 0.0 or 1.0,
    so only an array holding one of those gets the per-value type lookup,
    the check ``RewardGroup`` makes. A JSON string never reaches here: for
    rewards the packer refuses it, and for scores the ``sum`` in
    ``_checked_run`` raises on it.
    """
    return not ((array == 0.0) | (array == 1.0)).any() or all_numbers(chain.from_iterable(map(values, lines)))


@contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """Stdout for no path or '-', else the file; flushed once, when it closes.

    What was written stays on error: the file is closed and stdout flushed.
    A write, flush or close that fails (a closed pipe, a full disk, text the
    encoding cannot take) is an ``InputError`` naming the output. What stdout
    could not take for want of room is then dropped, so the interpreter's own
    flush at exit does not fail again.
    """
    to_stdout = path is None or path == "-"
    try:
        if to_stdout:
            try:
                yield sys.stdout
            finally:
                sys.stdout.flush()
            return
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
    except (OSError, UnicodeEncodeError) as exc:
        if to_stdout and isinstance(exc, OSError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise InputError(f"cannot write {'stdout' if to_stdout else path}: {exc}") from exc


def _write_doc(path: str | None, config: dict[str, Any], **fields: Any) -> None:
    """One indented JSON document: the echoed config, then ``fields``."""
    with _output(path) as out:
        jsonio.write_document(out, {"config": _echo(config), **fields})


def _write_csv(
    path: str | None, config: dict[str, Any], header: Sequence[str], rows: Iterable[Sequence[Any]]
) -> None:
    """'# key=value' lines of the echoed config, the header, then each row as it comes."""
    with _output(path) as out:
        for key, value in _echo(config).items():
            out.write(f"# {key}={value}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


# --- commands ------------------------------------------------------------------


class _Exit(Exception):
    """Ends a command whose errors are on stderr already; its one argument is the exit code."""


@dataclass
class _Computed:
    """(prompt ids, results) of each run of a JSONL file's groups, in file order, one batch call per run.

    ``batch(run)`` takes a ``_Run`` from ``read_reward_groups`` and returns one
    result per group. If it raises, the run is computed again as runs of one,
    and a run of one that fails is its group's own failure. A failure is
    reported with the group's prompt and line and the group left out if one
    of ``skip``; any other, or a bad line, ends the command after the groups
    before it. ``exit_code`` is the worst failure. A file without groups is an
    input error unless ``allow_empty``. ``setup(m)`` precedes each run of size
    m; its ``InputError`` skips all groups of m, reported once.
    """

    path: str
    batch: Callable[[_Run], Sequence[Any]]
    skip: tuple[type[Exception], ...] = ()
    allow_empty: bool = False
    setup: Callable[[int], Any] = lambda m: None
    exit_code: int = 0

    def __iter__(self) -> Iterator[tuple[Sequence[str], Sequence[Any]]]:
        empty, refused = True, set()
        try:
            for run in read_reward_groups(self.path):
                empty, m = False, run.rewards.shape[1]
                if m in refused:
                    continue
                try:
                    self.setup(m)
                except InputError as exc:
                    refused.add(m)
                    self._fail(exc, run)
                    continue
                yield from self._computed(run)
        except InputError as exc:  # a bad line; the groups' own errors are handled above
            self._fail(exc)
        if empty and not self.allow_empty:
            raise InputError(f"{self.path}: no reward groups")

    def _computed(self, run: _Run) -> Iterator[tuple[Sequence[str], Sequence[Any]]]:
        try:
            results = self.batch(run)
        except (DegenerateError, InputError) as exc:
            if len(run.ids) == 1:
                self._fail(exc, run)
                return
            for i in range(len(run.ids)):
                yield from self._computed(_Run(run.first + i, *(column[i : i + 1] for column in run[1:])))
            return
        yield run.ids, results

    def _fail(self, exc: Exception, run: _Run | None = None) -> None:
        """Report ``exc`` of ``run``'s first group, or of a bad line without a run; end unless a group's is in ``skip``."""
        print(f"error: {exc}" if run is None else f"error: prompt {run.ids[0]} (line {run.lines[0]}): {exc}",
              file=sys.stderr)
        code = _EXIT_DEGENERATE if isinstance(exc, DegenerateError) else _EXIT_INPUT
        self.exit_code = max(self.exit_code, code)
        if run is None or not isinstance(exc, self.skip):
            raise _Exit(self.exit_code)


@command("advantage", "per-group advantages as JSONL", _RULE_OPTION, *RULE_OPTIONS.values())
def cmd_advantage(args: argparse.Namespace, config: dict[str, Any]) -> int:
    rule, params = config["rule"], _build(RuleParams, config)
    check_rule(rule, params=params)  # a setting the rule needs fails before any output
    groups = _Computed(
        args.input, lambda run: compute_rules(rule, run.rewards, params, _seeds(params, run)),
        skip=(DegenerateError, InputError), allow_empty=True, setup=partial(rule_kernel, rule, params),
    )
    with _output(args.output) as out:
        jsonio.write_lines(out, {"config": _echo(config), "rule": rule}, groups)
    return groups.exit_code


def _seeds(params: RuleParams, run: _Run) -> range:
    """One seed per group of the run: the base seed plus the group's index in the file."""
    return range(params.seed + run.first, params.seed + run.first + len(run.ids))


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


def _distinct_budgets(budgets: tuple[int, ...]) -> tuple[int, ...]:
    """``budgets``; one listed twice, which would share a key or a column name of the output, is an input error.

    So is one below 1, worded as ``check_budgets`` words it.
    """
    for i, n in enumerate(budgets):
        if n in budgets[:i]:
            raise InputError(f"budget {n} is listed twice")
    check_budgets(budgets)
    return budgets


@command(
    "predict-bon", "tail-based best-of-N predictions",
    RULE_OPTIONS["alpha"], RULE_OPTIONS["eps_sigma"],
    Option("budgets", _int_list, (1, 2, 4, 8, 16, 32, 64, 128), "N budgets"),
)
def cmd_predict_bon(args: argparse.Namespace, config: dict[str, Any]) -> int:
    params, budgets = _build(RuleParams, config), _distinct_budgets(config["budgets"])
    c_tilde = np.array([tail_constants(params.alpha, n).c_tilde_n for n in budgets])

    def tails(run: _Run) -> list[tuple[int, list[float]]]:
        """Per group: q, then r, mu, sigma and the predicted best-of-N value at each budget."""
        r, mu, sigma = tail_stats(run.rewards, params.alpha, params.eps_sigma)
        q = tail_count(run.rewards.shape[1], params.alpha)
        return [(q, row) for row in np.hstack([r, mu, sigma, predict_vn(mu, sigma, c_tilde)]).tolist()]

    keys = [str(n) for n in budgets]
    totals, per_prompt = [0.0] * len(budgets), []  # summed left to right, not pairwise
    for run_ids, run_tails in _Computed(args.input, tails):
        for prompt_id, (q, (r, mu, sigma, *values)) in zip(run_ids, run_tails):
            totals = [total + v for total, v in zip(totals, values)]
            tail = {"r": r, "mu": mu, "sigma": sigma, "q": q}
            per_prompt.append({"prompt_id": prompt_id, "tail": tail, "predicted": dict(zip(keys, values))})
    check_finite(np.array(totals), lambda col: f"predicted best-of-{keys[col]} mean over the prompts overflows: inf")
    mean = {key: total / len(per_prompt) for key, total in zip(keys, totals)}
    _write_doc(args.output, config, budgets=budgets, mean_predicted=mean, per_prompt=per_prompt)
    return 0


def _curve_payload(curve) -> dict[str, Any]:
    return {"n": curve.n_values, "mean": curve.means.tolist(), "per_prompt": curve.per_prompt.tolist()}


@command(
    "eval-bon", "grouped best-of-N curve and comparisons",
    Option("budgets", _int_list, (1, 2, 4, 8), "N budgets"),
    Option("resamples", int, DEFAULT_RESAMPLES, "bootstrap resamples"),
    Option("seed", int, _default(paired_bootstrap_delta, "seed"), "bootstrap seed"),
    Option("tie_tol", float, DEFAULT_TIE_TOL, "win/tie/loss tolerance"),
)
def cmd_eval_bon(args: argparse.Namespace, config: dict[str, Any]) -> int:
    budgets = _distinct_budgets(config["budgets"])
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
    runs = list(read_reward_groups(path))
    if not runs:
        raise InputError(f"{path}: no reward groups")
    sizes = sorted({run.rewards.shape[1] for run in runs})
    if len(sizes) != 1:
        raise InputError(f"{path}: grouped evaluation needs equal-length reward rows, got {sizes}")
    ids = [prompt_id for run in runs for prompt_id in run.ids]
    return ids, [line for run in runs for line in run.lines], np.concatenate([run.rewards for run in runs])


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
    spec = _build(SyntheticSpec, config)
    params = _build(RuleParams, config)
    # a row that would be refused fails before any output
    check_rows(rules, spec, params, m_grid, p_grid, config["replications"])
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
    for rule in rules:
        check_rule(rule, params=params)  # a setting a rule needs fails before any output

    def batch(run: _Run) -> list[tuple[float, ...]]:
        """Per group, the cosine of each rule; the rules are computed and aligned one at a time.

        On one group this fails as a per-group loop would: a rule's degenerate
        alignment before a later rule's input error.
        """
        oracles, columns = [], []
        for rewards, scores in zip(run.rewards, run.scores):
            if scores is None:
                raise InputError("alignment needs per-sample scores")
            oracles.append(oracle_advantage(EmpiricalPool.from_values(rewards), params.n_target))
        for rule in rules:
            adv = compute_rules(rule, run.rewards, params, _seeds(params, run))
            columns.append([gradient_alignment(a, s, o) for a, s, o in zip(adv, run.scores, oracles)])
        return list(zip(*columns))

    computed = _Computed(args.input, batch, skip=(DegenerateError,))
    totals, table = np.zeros(len(rules)), []
    for ids, rows in computed:
        for prompt_id, row in zip(ids, rows):
            totals += row
            table.append([prompt_id, *row])
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
    eval_n = _distinct_budgets(config["eval_n"])
    task = ToyTask.random(
        config["n_prompts"], config["n_actions"],
        seed=config["task_seed"], reward_scale=config["reward_scale"],
    )
    result = train(task, _build(TrainConfig, config, params=_build(RuleParams, config)))
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
    fits = _Computed(args.input, lambda run: np.column_stack(qq_tail_fits(run.rewards, q_lo, q_hi, grid)).tolist())
    rows = ([prompt_id, *fit] for ids, run_fits in fits for prompt_id, fit in zip(ids, run_fits))
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
    except MemoryError as exc:  # a size option asked for more memory than the machine gives
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
