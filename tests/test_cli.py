"""Command-line surface: formats, config resolution, determinism, exit codes."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bontea
from bontea import (
    DegenerateError,
    EmpiricalPool,
    InputError,
    RuleParams,
    build_scheme,
    compute_rules,
    gradient_alignment,
    oracle_advantage,
    predict_vn,
    qq_tail_fits,
    tail_constants,
    tail_stats,
)
from bontea.advantages import RULE_NAMES
from bontea.cli import main, read_reward_groups
from bontea.tailstats import tail_count


def write_groups(path, groups):
    with open(path, "w", encoding="utf-8") as f:
        for record in groups:
            f.write(json.dumps(record) + "\n")


@pytest.fixture()
def pools_path(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "pools.jsonl"
    write_groups(
        path,
        [
            {"prompt_id": f"p{i}", "rewards": rng.standard_normal(64).tolist()}
            for i in range(5)
        ],
    )
    return path


def run_cli(*argv):
    """``bontea`` in a fresh interpreter on this checkout, in the caller's environment."""
    return subprocess.run(
        [sys.executable, "-c", "import sys; from bontea.cli import main; sys.exit(main())", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(bontea.__file__).parents[1])},
    )


def read_csv(path):
    comments, rows = [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#"):
                comments.append(line.strip())
            else:
                rows.append(line.strip())
    return comments, list(csv.reader(rows))


class TestAdvantageCommand:
    def test_matches_library_and_round_trips(self, tmp_path, pools_path):
        out = tmp_path / "adv.jsonl"
        code = main(["advantage", "-i", str(pools_path), "-o", str(out), "--rule", "tea"])
        assert code == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        header, rows = lines[0], lines[1:]
        assert header["config"]["version"]
        assert len(rows) == 5
        source = [json.loads(line) for line in open(pools_path)]
        for src, row in zip(source, rows):
            expected = compute_rules("tea", np.array([src["rewards"]]), RuleParams())[0]
            # bit-exact round trip through decimal serialization
            assert row["advantages"] == expected.tolist()

    def test_grpo_hand_example(self, tmp_path):
        src = tmp_path / "one.jsonl"
        write_groups(src, [{"prompt_id": "x", "rewards": [1, 2, 3]}])
        out = tmp_path / "adv.jsonl"
        assert main(["advantage", "-i", str(src), "-o", str(out), "--rule", "grpo"]) == 0
        row = json.loads(out.read_text().splitlines()[1])
        assert row["advantages"] == [-1.0, 0.0, 1.0]

    def test_tea_hand_example(self, tmp_path):
        src = tmp_path / "one.jsonl"
        write_groups(src, [{"prompt_id": "x", "rewards": [0, 0, 0, 0, 0, 0, 1, 2]}])
        out = tmp_path / "adv.jsonl"
        assert main(["advantage", "-i", str(src), "-o", str(out), "--rule", "tea"]) == 0
        row = json.loads(out.read_text().splitlines()[1])
        assert row["advantages"] == [-0.5] * 7 + [3.5]

    def test_malformed_line_names_line_number(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        src.write_text('{"prompt_id": "a", "rewards": [1, 2]}\nnot json\n')
        assert main(["advantage", "-i", str(src), "-o", str(tmp_path / "o.jsonl")]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_rows_before_a_malformed_line_are_written(self, tmp_path, capsys):
        # the groups before the bad line are still pending in one run when it is read
        rng = np.random.default_rng(3)
        good = [{"prompt_id": f"p{i}", "rewards": rng.standard_normal(16).tolist()} for i in range(5)]
        src = tmp_path / "bad.jsonl"
        write_groups(src, good)
        with open(src, "a", encoding="utf-8") as f:
            f.write("not json\n")
        out = tmp_path / "adv.jsonl"
        assert main(["advantage", "-i", str(src), "-o", str(out), "--rule", "tea"]) == 2
        assert f"{src}:6:" in capsys.readouterr().err
        rows = [json.loads(line) for line in out.read_text().splitlines()[1:]]
        assert [r["prompt_id"] for r in rows] == [g["prompt_id"] for g in good]
        for group, row in zip(good, rows):
            expected = compute_rules("tea", np.array([group["rewards"]]), RuleParams())[0]
            assert row["advantages"] == expected.tolist()

    def test_per_group_errors_continue_processing(self, tmp_path, capsys):
        # group "short" is too small for the prefix scheme; the command reports
        # it on stderr, keeps going, and exits with the input-error code
        src = tmp_path / "mixed.jsonl"
        write_groups(
            src,
            [
                {"prompt_id": "ok1", "rewards": list(range(64))},
                {"prompt_id": "short", "rewards": list(range(6))},
                {"prompt_id": "ok2", "rewards": list(range(64))},
            ],
        )
        out = tmp_path / "adv.jsonl"
        code = main(["advantage", "-i", str(src), "-o", str(out), "--rule", "prefix-tea"])
        assert code == 2
        rows = [json.loads(line) for line in out.read_text().splitlines()[1:]]
        assert [r["prompt_id"] for r in rows] == ["ok1", "ok2"]
        assert "short" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path, pools_path):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["advantage", "-i", str(pools_path), "-o", str(out1), "--rule", "chow"])
        main(["advantage", "-i", str(pools_path), "-o", str(out2), "--rule", "chow"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_floor_on_constant_group_is_degenerate(self, tmp_path, capsys):
        # NaN is not JSON: the group is reported and skipped, the others written
        src = tmp_path / "flat.jsonl"
        write_groups(
            src,
            [{"prompt_id": "flat", "rewards": [1, 1, 1, 1]}, {"prompt_id": "ok", "rewards": [1, 2, 3, 4]}],
        )
        out = tmp_path / "adv.jsonl"
        argv = ["advantage", "-i", str(src), "-o", str(out), "--rule", "grpo-z", "--eps-norm", "0"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "prompt flat" in err and "eps_norm" in err
        rows = [json.loads(line) for line in out.read_text().splitlines()[1:]]
        assert [row["prompt_id"] for row in rows] == ["ok"]
        assert np.all(np.isfinite(rows[0]["advantages"]))

    def test_negative_floor_is_input_error(self, tmp_path, pools_path, capsys):
        out = tmp_path / "adv.jsonl"
        argv = ["advantage", "-i", str(pools_path), "-o", str(out), "--rule", "grpo-z",
                "--eps-norm=-1e-8"]
        assert main(argv) == 2
        assert "eps_norm" in capsys.readouterr().err

    def test_bon_mean_on_large_group(self, tmp_path):
        # C(4096, 512) is far beyond float range; the weights never form it
        src = tmp_path / "big.jsonl"
        rewards = np.random.default_rng(17).standard_normal(4096)
        write_groups(src, [{"prompt_id": "big", "rewards": rewards.tolist()}])
        out = tmp_path / "adv.jsonl"
        code = main(
            ["advantage", "-i", str(src), "-o", str(out), "--rule", "bon-mean", "--bon-k", "512"]
        )
        assert code == 0
        row = json.loads(out.read_text().splitlines()[1])
        assert np.all(np.isfinite(row["advantages"]))


def per_group_advantage(path, rule, params, header):
    """``advantage``'s stdout, stderr and exit code from one ``compute_rules`` call per group.

    The reference the batched command must match: its output lines, stderr
    lines and exit codes, written the way the command wrote them before runs.
    """
    out, err, code = [header], [], 0
    try:
        for index, (lineno, group) in enumerate(read_reward_groups(str(path))):
            try:
                adv = compute_rules(rule, group.rewards[None, :], params, [params.seed + index])[0]
            except (DegenerateError, InputError) as exc:
                err.append(f"error: prompt {group.prompt_id} (line {lineno}): {exc}")
                code = max(code, 3 if isinstance(exc, DegenerateError) else 2)
                continue
            out.append(json.dumps({"prompt_id": group.prompt_id, "advantages": adv.tolist()}))
    except InputError as exc:  # a bad line ends the file; the worst failure sets the exit code
        err.append(f"error: {exc}")
        code = max(code, 2)
    return "".join(line + "\n" for line in out), err, code


class TestAdvantageRuns:
    """The command computes runs of equal-size groups at once, with the per-group results."""

    #: flags each rule needs, beyond the defaults
    FLAGS = {"bon-mean": ["--bon-k", "2"]}

    @staticmethod
    def hostile_groups():
        rng = np.random.default_rng(11)
        groups = [rng.standard_normal(64) for _ in range(70)]  # more than one run of m = 64
        groups[40] = 1e200 * np.arange(1.0, 65.0)  # overflows the tail and spread statistics
        groups += [rng.standard_normal(16) for _ in range(3)]  # m changes mid-file
        groups += [rng.standard_normal(6), rng.standard_normal(6)]  # too short for prefix-tea
        groups += [np.array([1.5]), np.array([2.5])]  # m = 1: the rule's own message
        groups += [rng.integers(0, 3, 64).astype(float) for _ in range(70)]  # ties
        groups += [rng.standard_normal(16)]
        return [{"prompt_id": f"g{i}", "rewards": g.tolist()} for i, g in enumerate(groups)]

    @pytest.mark.parametrize(
        "tail", ["", '{"prompt_id": "bad", "rewards": [NaN, 1.0]}\n'], ids=["clean", "nonfinite-last"]
    )
    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_matches_the_per_group_loop(self, tmp_path, capsys, rule, tail):
        src = tmp_path / "groups.jsonl"
        write_groups(src, self.hostile_groups())
        with open(src, "a", encoding="utf-8") as f:
            f.write(tail)
        out = tmp_path / "adv.jsonl"
        argv = ["advantage", "-i", str(src), "-o", str(out), "--rule", rule, *self.FLAGS.get(rule, [])]
        with warnings.catch_warnings(record=True) as batched_warnings:
            warnings.simplefilter("always")
            code = main(argv)
        err = capsys.readouterr().err.splitlines()
        header = out.read_text().splitlines()[0]
        params = RuleParams(bon_k=2 if rule == "bon-mean" else None)
        with warnings.catch_warnings(record=True) as loop_warnings:
            warnings.simplefilter("always")
            expected = per_group_advantage(src, rule, params, header)
        assert (out.read_text(), err, code) == expected
        assert [str(w.message) for w in batched_warnings] == [str(w.message) for w in loop_warnings]
        assert len(err) >= 2 and code in (2, 3)  # the m = 1 groups at least fail


def _group_failure(group, lineno, exc):
    """The stderr line and exit code of a group that fails on its own."""
    code = 3 if isinstance(exc, DegenerateError) else 2
    return f"error: prompt {group.prompt_id} (line {lineno}): {exc}", code


def per_group_predict_bon(path, alpha, budgets):
    """``predict-bon``'s payload after its config, stderr and exit code, one group at a time.

    A failing group ends the command with nothing written (payload None).
    """
    c_tilde = {n: tail_constants(alpha, n).c_tilde_n for n in budgets}
    totals, per_prompt = dict.fromkeys(budgets, 0.0), []
    try:
        for lineno, group in read_reward_groups(str(path)):
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    r, mu, sigma = (float(v[0, 0]) for v in tail_stats(group.rewards[None, :], alpha))
                predictions = {n: predict_vn(mu, sigma, c_tilde[n]) for n in budgets}
            except (DegenerateError, InputError) as exc:
                line, code = _group_failure(group, lineno, exc)
                return None, [line], code
            for n, v in predictions.items():
                totals[n] += v
            per_prompt.append({
                "prompt_id": group.prompt_id,
                "tail": {"r": r, "mu": mu, "sigma": sigma, "q": tail_count(len(group), alpha)},
                "predicted": {str(n): v for n, v in predictions.items()},
            })
    except InputError as exc:
        return None, [f"error: {exc}"], 2
    mean = {str(n): totals[n] / len(per_prompt) for n in budgets}
    return {"budgets": list(budgets), "mean_predicted": mean, "per_prompt": per_prompt}, [], 0


def per_group_qq_fit(path, q_lo, q_hi, grid):
    """``qq-fit``'s CSV rows, stderr and exit code, one group at a time.

    A failing group or a bad line ends the command; the rows before it stay.
    """
    rows = []
    try:
        for lineno, group in read_reward_groups(str(path)):
            try:
                fit = [float(column[0]) for column in qq_tail_fits(group.rewards[None, :], q_lo, q_hi, grid)]
            except (DegenerateError, InputError) as exc:
                line, code = _group_failure(group, lineno, exc)
                return rows, [line], code
            rows.append(",".join([group.prompt_id, *map(repr, fit)]))
    except InputError as exc:
        return rows, [f"error: {exc}"], 2
    return rows, [], 0


def per_group_align(path, rules, params, n_target):
    """``align``'s CSV rows, stderr and exit code, one group at a time.

    A degenerate group is reported and left out; an input error or a bad line
    ends the command with nothing written (rows None), with the worst exit code.
    """
    table, err, code = [], [], 0
    try:
        for index, (lineno, group) in enumerate(read_reward_groups(str(path))):
            try:
                if group.scores is None:
                    raise InputError("alignment needs per-sample scores")
                oracle = oracle_advantage(EmpiricalPool.from_values(group.rewards), n_target)
                cosines = [
                    gradient_alignment(
                        compute_rules(rule, group.rewards[None, :], params, [params.seed + index])[0],
                        group.scores, oracle,
                    )
                    for rule in rules
                ]
            except (DegenerateError, InputError) as exc:
                line, failed = _group_failure(group, lineno, exc)
                err.append(line)
                code = max(code, failed)
                if isinstance(exc, InputError):
                    return None, err, code
                continue
            table.append([group.prompt_id, *cosines])
    except InputError as exc:
        return None, err + [f"error: {exc}"], max(code, 2)
    totals = np.zeros(len(rules))
    for row in table:
        totals += row[1:]
    if table:
        table.append(["MEAN", *(totals / len(table)).tolist()])
    return [",".join([row[0], *map(repr, row[1:])]) for row in table], err, code


class TestGroupCommandRuns:
    """``predict-bon``, ``qq-fit`` and ``align`` compute runs at once, with the per-group results.

    Each is compared with its per-group loop: bytes, stderr and exit code, on
    files of more groups than one run, a change of m mid-file, groups that
    fail, and a bad final line.
    """

    BAD_LINE = '{"prompt_id": "bad", "rewards": [NaN, 1.0]}'

    @staticmethod
    def groups(case):
        rng = np.random.default_rng(17)
        rewards = [rng.standard_normal(64) for _ in range(70)]  # more than one run of m = 64
        rewards += [rng.standard_normal(24) for _ in range(5)]  # m changes mid-file
        rewards += [rng.integers(0, 4, 64).astype(float) for _ in range(70)]  # ties
        if case.startswith(("failing", "degenerate")):
            rewards[40] = 1e200 * np.arange(1.0, 65.0)  # overflows the tail and the QQ fit
            rewards[100] = np.full(64, 2.0)  # constant
        if case.startswith("failing"):
            rewards.append(np.array([0.5, 1.5, 2.5]))  # too short for a QQ fit
            rewards.append(np.array([1.5]))  # m = 1
        records = [
            {"prompt_id": f"g{i}", "rewards": r.tolist(), "scores": rng.standard_normal((r.size, 3)).tolist()}
            for i, r in enumerate(rewards)
        ]
        lines = [json.dumps(record) for record in records]
        if case.endswith("bad-last"):
            lines.append(TestGroupCommandRuns.BAD_LINE)
        return "\n".join(lines) + "\n"

    CASES = ["clean", "clean-bad-last", "failing", "failing-bad-last", "degenerate-bad-last"]

    @staticmethod
    def run(tmp_path, capsys, case, argv):
        src = tmp_path / "groups.jsonl"
        src.write_text(TestGroupCommandRuns.groups(case), encoding="utf-8")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([argv[0], "-i", str(src), "-o", str(out), *argv[1:]])
        return src, out, capsys.readouterr().err.splitlines(), code

    @pytest.mark.parametrize("case", CASES)
    def test_predict_bon(self, tmp_path, capsys, case):
        budgets = (1, 4, 128)
        src, out, err, code = self.run(tmp_path, capsys, case, ["predict-bon", "--budgets", "1,4,128"])
        payload, expected_err, expected_code = per_group_predict_bon(src, 0.25, budgets)
        assert (err, code) == (expected_err, expected_code)
        if payload is None:
            assert not out.exists()
        else:
            config = json.loads(out.read_text())["config"]
            assert out.read_text() == json.dumps({"config": config, **payload}, indent=2) + "\n"

    @pytest.mark.parametrize("case", CASES)
    def test_qq_fit(self, tmp_path, capsys, case):
        src, out, err, code = self.run(tmp_path, capsys, case, ["qq-fit", "--q-lo", "0.7", "--grid", "12"])
        rows, expected_err, expected_code = per_group_qq_fit(src, 0.7, 0.99, 12)
        head = [line for line in out.read_text().splitlines() if line.startswith("#")]
        expected = "".join(f"{line}\n" for line in [*head, "prompt_id,a,b,r_squared", *rows])
        assert (out.read_text(), err, code) == (expected, expected_err, expected_code)

    @pytest.mark.parametrize("case", CASES)
    def test_align(self, tmp_path, capsys, case):
        rules = ("tea", "grpo", "chow")
        src, out, err, code = self.run(tmp_path, capsys, case, ["align", "--rules", ",".join(rules)])
        rows, expected_err, expected_code = per_group_align(src, rules, RuleParams(), 128)
        assert (err, code) == (expected_err, expected_code)
        if rows is None:
            assert not out.exists()
        else:
            head = [line for line in out.read_text().splitlines() if line.startswith("#")]
            header = ",".join(["prompt_id", *(f"cosine_{rule}" for rule in rules)])
            assert out.read_text() == "".join(f"{line}\n" for line in [*head, header, *rows])
            assert len(rows) > 65  # more than one run


class TestWeightsCommand:
    def test_matches_library(self, tmp_path):
        out = tmp_path / "w.json"
        assert main(["weights", "--m", "64", "--k", "2", "--j-count", "4", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        scheme = build_scheme(64, 2, 4)
        assert payload["sizes"] == list(scheme.sizes)
        assert payload["weights"] == list(scheme.weights)  # bit-exact round trip


class TestPredictAndEval:
    def test_predict_bon_self_consistency(self, tmp_path):
        # tail predictions from m=64 samples/prompt track the empirical
        # grouped bo128 computed from 512 samples/prompt within pooled error
        rng = np.random.default_rng(11)
        n_prompts = 48
        mus = rng.normal(size=n_prompts)
        sigmas = rng.uniform(0.5, 1.5, size=n_prompts)
        small = tmp_path / "small.jsonl"
        big = tmp_path / "big.jsonl"
        write_groups(
            small,
            [
                {"prompt_id": f"p{i}", "rewards": (mus[i] + sigmas[i] * rng.standard_normal(64)).tolist()}
                for i in range(n_prompts)
            ],
        )
        write_groups(
            big,
            [
                {"prompt_id": f"p{i}", "rewards": (mus[i] + sigmas[i] * rng.standard_normal(512)).tolist()}
                for i in range(n_prompts)
            ],
        )
        pred_out = tmp_path / "pred.json"
        eval_out = tmp_path / "eval.json"
        assert main(["predict-bon", "-i", str(small), "--budgets", "128", "-o", str(pred_out)]) == 0
        assert main(["eval-bon", "-i", str(big), "--budgets", "128", "-o", str(eval_out)]) == 0
        predicted = json.loads(pred_out.read_text())["mean_predicted"]["128"]
        evaluated = json.loads(eval_out.read_text())
        per_prompt = np.array(evaluated["curve"]["per_prompt"])[:, 0]
        pooled_se = per_prompt.std(ddof=1) / np.sqrt(n_prompts)
        assert abs(predicted - float(np.mean(per_prompt))) <= 3 * pooled_se

    def test_eval_bon_self_baseline_is_all_ties(self, tmp_path, pools_path):
        out = tmp_path / "eval.json"
        code = main(
            [
                "eval-bon", "-i", str(pools_path), "--budgets", "1,2,4",
                "--baseline", str(pools_path), "-o", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        for n in ("1", "2", "4"):
            assert payload["deltas"][n] == {"delta": 0.0, "ci_lo": 0.0, "ci_hi": 0.0}
            assert payload["win_tie_loss"][n] == {"win": 0.0, "tie": 100.0, "loss": 0.0}

    def test_eval_bon_baseline_in_another_order_is_input_error(self, tmp_path, pools_path, capsys):
        lines = pools_path.read_text().splitlines()
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("\n".join([lines[0], lines[2], lines[1], *lines[3:]]) + "\n")
        out = tmp_path / "eval.json"
        argv = ["eval-bon", "-i", str(pools_path), "--baseline", str(shuffled), "-o", str(out)]
        assert main(argv) == 2
        assert "baseline group 2 is prompt 'p2', input group 2 is 'p1'" in capsys.readouterr().err

    def test_eval_bon_rejects_nondivisible(self, tmp_path, pools_path):
        assert main(["eval-bon", "-i", str(pools_path), "--budgets", "3"]) == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--resamples", "0", "resamples must be >= 1, got 0"),
            ("--seed", "-1", "seed must be >= 0, got -1"),
            ("--tie-tol", "nan", "tie_tol must be >= 0, got nan"),
            ("--tie-tol", "-0.5", "tie_tol must be >= 0, got -0.5"),
        ],
    )
    def test_eval_bon_refuses_a_bad_bootstrap_setting(self, tmp_path, pools_path, capsys, flag, value, message):
        out = tmp_path / "eval.json"
        argv = ["eval-bon", "-i", str(pools_path), "--baseline", str(pools_path), "-o", str(out)]
        assert main([*argv, flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestSynthCommand:
    def test_csv_schema_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "synth-bias-variance", "--rules", "tea", "--m-grid", "64",
            "--replications", "2000", "--seed", "3",
        ]
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        comments, rows = read_csv(out1)
        assert rows[0] == [
            "estimator", "m", "bias_norm", "variance",
            "mse_p1", "mse_p2048", "mse_p65536", "replications", "seed",
        ]
        assert rows[1][0] == "tea"
        # round trip: mse columns reproduce bias_norm^2 + variance/P bit-exactly
        bias_norm, variance = float(rows[1][2]), float(rows[1][3])
        assert float(rows[1][4]) == bias_norm**2 + variance
        assert any(c.startswith("# version=") for c in comments)

    def test_degenerate_exit_code(self, tmp_path):
        code = main(
            [
                "synth-bias-variance", "--rules", "tea", "--m-grid", "4",
                "--replications", "1000", "-o", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 3

    def test_unknown_tag_fails_before_any_row(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        argv = ["synth-bias-variance", "--rules", "tea,foo", "--m-grid", "64", "--replications", "1000"]
        assert main(argv + ["-o", str(out)]) == 2
        # no progress line: the tea row was not measured
        assert capsys.readouterr().err == (
            "error: unknown rule 'foo'; known: tea, prefix-tea, grpo, grpo-z, bonmax-mean, bonmax-second,"
            " bon-mean, chow, cat-bon, oracle, prefix-tea-raw\n"
        )
        assert not out.exists()


class TestAlignCommand:
    def test_cosine_table(self, tmp_path):
        rng = np.random.default_rng(13)
        src = tmp_path / "scored.jsonl"
        write_groups(
            src,
            [
                {
                    "prompt_id": f"p{i}",
                    "rewards": rng.standard_normal(32).tolist(),
                    "scores": rng.standard_normal((32, 4)).tolist(),
                }
                for i in range(3)
            ],
        )
        out = tmp_path / "align.csv"
        assert main(["align", "-i", str(src), "--rules", "tea,grpo", "-o", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0] == ["prompt_id", "cosine_tea", "cosine_grpo"]
        assert rows[-1][0] == "MEAN"
        values = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        assert np.all(np.abs(values) <= 1.0 + 1e-12)

    def test_requires_scores(self, tmp_path, pools_path):
        assert main(["align", "-i", str(pools_path)]) == 2

    def test_a_rule_is_aligned_before_the_next_rule_is_computed(self, tmp_path, capsys):
        # at m = 3, tea's alignment is degenerate (skipped, exit 3) before
        # prefix-tea's input error (m < 2J) could end the command with exit 2
        src = tmp_path / "three.jsonl"
        write_groups(src, [{"prompt_id": "p", "rewards": [0.0, 1.0, 2.0], "scores": [[1.0], [0.5], [2.0]]}])
        out = tmp_path / "align.csv"
        assert main(["align", "-i", str(src), "--rules", "tea,prefix-tea", "-o", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: prompt p (line 1): gradient alignment undefined")
        assert read_csv(out)[1] == [["prompt_id", "cosine_tea", "cosine_prefix-tea"]]

    def test_degenerate_groups_are_skipped(self, tmp_path, capsys):
        # tea gives all-zero advantages when its top-q rewards tie (the binary
        # group) and, at m = 16, on a few Gaussian groups whose tail-shaped
        # rewards are all negative; alignment is undefined for those groups,
        # and the rest are still scored
        rng = np.random.default_rng(29)
        groups = [
            {
                "prompt_id": f"p{i}",
                "rewards": rng.standard_normal(16).tolist(),
                "scores": rng.standard_normal((16, 3)).tolist(),
            }
            for i in range(100)
        ]
        groups.insert(40, {
            "prompt_id": "binary",
            "rewards": [0.0] * 10 + [1.0] * 6,
            "scores": rng.standard_normal((16, 3)).tolist(),
        })
        expected = {}
        for index, g in enumerate(groups):
            rewards, scores = np.array(g["rewards"]), np.array(g["scores"])
            oracle = oracle_advantage(EmpiricalPool.from_values(rewards), 128)
            params = RuleParams(seed=index)
            try:
                expected[g["prompt_id"]] = [
                    gradient_alignment(compute_rules(rule, rewards[None, :], params)[0], scores, oracle)
                    for rule in ("tea", "grpo")
                ]
            except DegenerateError:
                pass
        assert "binary" not in expected and len(expected) > 90
        src = tmp_path / "scored.jsonl"
        write_groups(src, groups)
        out = tmp_path / "align.csv"
        assert main(["align", "-i", str(src), "-o", str(out)]) == 3
        err = capsys.readouterr().err
        skipped = [g["prompt_id"] for g in groups if g["prompt_id"] not in expected]
        assert all(f"prompt {pid} (line " in err for pid in skipped)
        _, rows = read_csv(out)
        data = rows[1:-1]
        assert [row[0] for row in data] == list(expected)
        values = np.array([[float(v) for v in row[1:]] for row in data])
        assert_allclose(values, list(expected.values()), rtol=0, atol=0)
        mean = np.array([float(v) for v in rows[-1][1:]])
        assert rows[-1][0] == "MEAN" and np.all(np.isfinite(mean))
        assert_allclose(mean, values.mean(axis=0), rtol=1e-12)


class TestTrainSynthCommand:
    def test_trajectory_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "train-synth", "--rule", "grpo", "--m", "8", "--steps", "6",
                "--eval-every", "3", "--eval-n", "1,8", "--eval-samples", "64",
                "-o", str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert rows[0] == ["step", "kl", "mean_reward", "bon_1", "bon_8"]
        assert [r[0] for r in rows[1:]] == ["0", "3", "6"]

    def test_gamma_zero_flat_mean_reward(self, tmp_path):
        out = tmp_path / "traj.csv"
        main(
            [
                "train-synth", "--rule", "grpo", "--gamma", "0", "--m", "8",
                "--steps", "4", "--eval-every", "2", "--eval-n", "1,8",
                "--eval-samples", "64",
                "-o", str(out),
            ]
        )
        _, rows = read_csv(out)
        rewards = {row[2] for row in rows[1:]}
        assert len(rewards) == 1


    def test_zero_floor_is_degenerate_not_a_crash(self, tmp_path, capsys):
        # four actions and four rollouts: some prompt soon draws a constant group
        out = tmp_path / "traj.csv"
        argv = ["train-synth", "--rule", "grpo-z", "--eps-norm", "0", "--m", "4",
                "--n-actions", "4", "--steps", "50", "-o", str(out)]
        assert main(argv) == 3
        assert "eps_norm" in capsys.readouterr().err


class TestQqFitCommand:
    def test_table(self, tmp_path, pools_path):
        out = tmp_path / "qq.csv"
        assert main(["qq-fit", "-i", str(pools_path), "-o", str(out)]) == 0
        comments, rows = read_csv(out)
        assert rows[0] == ["prompt_id", "a", "b", "r_squared"]
        assert len(rows) == 6
        for row in rows[1:]:
            assert 0.0 <= float(row[3]) <= 1.0
        assert any(c.startswith("# q_lo=") for c in comments)

    def test_bad_window_writes_nothing(self, tmp_path, pools_path, capsys):
        out = tmp_path / "qq.csv"
        assert main(["qq-fit", "-i", str(pools_path), "-o", str(out), "--q-lo", "0.9", "--q-hi", "0.5"]) == 2
        assert not out.exists()
        assert main(["qq-fit", "-i", str(pools_path), "--q-lo", "0.9", "--q-hi", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "need 0 < q_lo < q_hi < 1" in captured.err

    def test_rows_before_a_malformed_line_are_written(self, tmp_path, pools_path, capsys):
        src = tmp_path / "groups.jsonl"
        src.write_text(pools_path.read_text() + "not json\n")
        out = tmp_path / "qq.csv"
        assert main(["qq-fit", "-i", str(src), "-o", str(out)]) == 2
        _, rows = read_csv(out)
        assert [row[0] for row in rows[1:]] == ["p0", "p1", "p2", "p3", "p4"]
        assert f"{src}:6: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rewards, message",
        [
            ([1.0, 2.0, 3.0], "error: prompt short (line 2): need at least 20 samples, got 3"),
            ([2.0] * 32, "error: prompt short (line 2): all quantiles in the fit window are equal"),
        ],
    )
    def test_group_errors_name_the_prompt(self, tmp_path, capsys, rewards, message):
        src = tmp_path / "groups.jsonl"
        write_groups(src, [{"prompt_id": "ok", "rewards": list(range(32))},
                           {"prompt_id": "short", "rewards": rewards}])
        out = tmp_path / "qq.csv"
        assert main(["qq-fit", "-i", str(src), "-o", str(out)]) in (2, 3)
        assert capsys.readouterr().err.startswith(message)
        assert [row[0] for row in read_csv(out)[1][1:]] == ["ok"]

    def test_overflowing_fit_prints_only_the_error_line(self, tmp_path):
        src = tmp_path / "big.jsonl"
        write_groups(src, [{"prompt_id": "ok", "rewards": list(range(32))},
                           {"prompt_id": "big", "rewards": [1e200 * i for i in range(1, 33)]}])
        out = tmp_path / "qq.csv"
        proc = run_cli("qq-fit", "-i", str(src), "-o", str(out))
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "error: prompt big (line 2): QQ fit overflow: a, b or R^2 is not finite"
        ]
        assert [row[0] for row in read_csv(out)[1][1:]] == ["ok"]


class TestHostileGroups:
    def test_integer_beyond_float_range_names_line(self, tmp_path, capsys):
        src = tmp_path / "huge.jsonl"
        src.write_text('{"rewards": [1, 2]}\n{"rewards": [1' + "0" * 400 + ', 2]}\n')
        code = main(["advantage", "-i", str(src), "-o", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert f"{src}:2:" in capsys.readouterr().err

    def test_overflowing_tail_skips_the_group(self, tmp_path, capsys):
        src = tmp_path / "big.jsonl"
        write_groups(
            src,
            [
                {"prompt_id": "big", "rewards": [1e200 * i for i in range(1, 9)]},
                {"prompt_id": "ok", "rewards": list(range(16))},
            ],
        )
        for rule in ("tea", "prefix-tea"):
            out = tmp_path / f"{rule}.jsonl"
            code = main(["advantage", "-i", str(src), "-o", str(out), "--rule", rule, "--k", "1",
                         "--j-count", "2"])
            assert code == 3
            assert "error: prompt big (line 1): tail statistics overflow" in capsys.readouterr().err
            rows = [json.loads(line) for line in out.read_text().splitlines()[1:]]
            assert [r["prompt_id"] for r in rows] == ["ok"]
        assert main(["predict-bon", "-i", str(src), "-o", str(tmp_path / "p.json")]) == 3
        assert capsys.readouterr().err.startswith("error: prompt big (line 1): tail statistics overflow")

    def test_nonfinite_scores_are_input_error(self, tmp_path, capsys):
        src = tmp_path / "scored.jsonl"
        src.write_text(
            json.dumps({"rewards": [0.0, 1.0, 2.0, 3.0], "scores": [[float("nan")]] * 4}) + "\n"
        )
        assert main(["align", "-i", str(src), "-o", str(tmp_path / "a.csv")]) == 2
        assert "scores must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("overflow_first", [True, False])
    def test_degenerate_exit_code_whatever_the_order(self, tmp_path, overflow_first):
        groups = [
            {"prompt_id": "big", "rewards": [1e200 * i for i in range(1, 9)]},
            {"prompt_id": "one", "rewards": [1.0]},
        ]
        src = tmp_path / "bad.jsonl"
        write_groups(src, groups if overflow_first else groups[::-1])
        assert main(["advantage", "-i", str(src), "-o", str(tmp_path / "adv.jsonl")]) == 3

    def test_overflowing_tail_prints_only_the_error_line(self, tmp_path):
        src = tmp_path / "big.jsonl"
        write_groups(src, [{"prompt_id": "big", "rewards": [1e200 * i for i in range(1, 9)]}])
        proc = run_cli("advantage", "-i", str(src), "-o", str(tmp_path / "adv.jsonl"))
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "error: prompt big (line 1): tail statistics overflow:"
            " r=7e+200, mu=7.499999999999999e+200, sigma=inf"
        ]

    @pytest.mark.parametrize("rule", ["grpo-z", "bon-mean", "cat-bon"])
    def test_overflowing_spread_prints_only_the_error_line(self, tmp_path, rule):
        src = tmp_path / "big.jsonl"
        write_groups(src, [{"prompt_id": "big", "rewards": [1e160 * i for i in range(1, 9)]},
                           {"prompt_id": "ok", "rewards": list(range(8))}])
        out = tmp_path / "adv.jsonl"
        proc = run_cli("advantage", "-i", str(src), "-o", str(out), "--rule", rule, "--bon-k", "2")
        assert proc.returncode == 3
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: prompt big (line 1): reward statistics overflow: mean=")
        rows = [json.loads(line) for line in out.read_text().splitlines()[1:]]
        assert [r["prompt_id"] for r in rows] == ["ok"]

    @pytest.mark.parametrize("command", ["advantage", "align", "predict-bon"])
    def test_one_reward_group_names_the_prompt(self, tmp_path, capsys, command):
        src = tmp_path / "one.jsonl"
        write_groups(src, [{"prompt_id": "one", "rewards": [1.0], "scores": [[1.0, 2.0]]}])
        out = tmp_path / "out"
        assert main([command, "-i", str(src), "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: prompt one (line 1): need m >= 2 rewards, got 1\n"
        # advantage writes its header and skips the group; the others stop before any output
        assert out.exists() == (command == "advantage")

    @pytest.mark.parametrize("command", ["advantage", "align"])
    def test_a_failing_group_before_a_bad_line_keeps_its_exit_code(self, tmp_path, capsys, command):
        rng = np.random.default_rng(3)
        src = tmp_path / "groups.jsonl"
        write_groups(src, [
            {"prompt_id": "big", "rewards": [1e200 * i for i in range(1, 9)], "scores": [[1.0]] * 8},
            {"prompt_id": "ok", "rewards": rng.standard_normal(8).tolist(),
             "scores": rng.standard_normal((8, 2)).tolist()},
        ])
        with open(src, "a", encoding="utf-8") as f:
            f.write("not json\n")
        assert main([command, "-i", str(src), "-o", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: prompt big (line 1): tail statistics overflow: r=7e+200, mu=7.499999999999999e+200,"
            " sigma=inf",
            f"error: {src}:3: invalid JSON (Expecting value)",
        ]

    def test_one_reward_group_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "one.jsonl"
        write_groups(src, [{"prompt_id": "one", "rewards": [1.0]}, {"prompt_id": "two", "rewards": [1.0, 2.0]}])
        out = tmp_path / "adv.jsonl"
        assert main(["advantage", "-i", str(src), "-o", str(out), "--rule", "bonmax-second"]) == 2
        assert "prompt one (line 1): need m >= 2 rewards, got 1" in capsys.readouterr().err
        rows = [json.loads(line) for line in out.read_text().splitlines()[1:]]
        assert rows == [{"prompt_id": "two", "advantages": [0.0, 1.0]}]


class TestFiniteOrTyped:
    """Finite rewards give finite outputs, or exit 3 with one error line and nothing else on stderr."""

    BIG = [1e308, 9e307, 8e307, 7e307, 6e307, 5e307, 4e307, 3e307]
    OK = [0.1, 0.5, -0.3, 1.2, 0.7, -1.1, 0.0, 0.4]

    @pytest.mark.parametrize("rule", RULE_NAMES)
    @pytest.mark.parametrize("big", [BIG, [(-1) ** i * v for i, v in enumerate(BIG)]])
    def test_advantage(self, tmp_path, rule, big):
        src = tmp_path / "groups.jsonl"
        write_groups(src, [{"prompt_id": "big", "rewards": big}, {"prompt_id": "ok", "rewards": self.OK}])
        out = tmp_path / "adv.jsonl"
        proc = run_cli("advantage", "-i", str(src), "-o", str(out), "--rule", rule, "--bon-k", "2")
        text = out.read_text()
        assert "Infinity" not in text and "NaN" not in text
        rows = [json.loads(line) for line in text.splitlines()[1:]]
        assert rows[-1]["prompt_id"] == "ok"
        if proc.returncode == 0:
            assert proc.stderr == "" and len(rows) == 2
        else:
            assert proc.returncode == 3 and len(rows) == 1
            [line] = proc.stderr.splitlines()
            assert line.startswith("error: prompt big (line 1): ")
            if rule in ("grpo", "bonmax-mean", "chow"):  # these wrote Infinity or NaN and exited 0
                assert line.endswith(f": rule {rule} overflows: its advantages are not finite")

    @pytest.mark.parametrize(
        "groups, baseline, message",
        [
            ([BIG, OK], None, "prompt p0 (line 1): best-of-1 mean overflows: inf"),
            ([[8e307, 8e307]] * 3, None, "best-of-1 mean over the prompts overflows: inf"),
            ([[1e308], [1.0]], [[-1e308], [0.0]], "prompt p0 (line 1): paired difference of column 0 overflows: inf"),
            ([[8e307, 8e307]] * 2, [[-8e307, -8e307]] * 2, "paired bootstrap delta of column 0 overflows: inf"),
        ],
    )
    def test_eval_bon(self, tmp_path, groups, baseline, message):
        out = tmp_path / "eval.json"
        argv = ["eval-bon", "-o", str(out), "--budgets", "1"]
        for flag, pools in (("--input", groups), ("--baseline", baseline)):
            if pools is not None:
                path = tmp_path / f"{flag[2:]}.jsonl"
                write_groups(path, [{"prompt_id": f"p{i}", "rewards": g} for i, g in enumerate(pools)])
                argv += [flag, str(path)]
        proc = run_cli(*argv)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("rule", RULE_NAMES)
    @pytest.mark.parametrize("big", [BIG, [(-1) ** i * v for i, v in enumerate(BIG)]])
    def test_align(self, tmp_path, rule, big):
        src = tmp_path / "groups.jsonl"
        scores = [[1.0, 0.5 * i] for i in range(len(big))]
        write_groups(src, [{"prompt_id": "big", "rewards": big, "scores": scores}])
        out = tmp_path / "align.csv"
        proc = run_cli("align", "-i", str(src), "-o", str(out), "--rules", rule, "--bon-k", "2")
        _, rows = read_csv(out)
        assert not {"nan", "inf", "-inf"} & {cell for row in rows[1:] for cell in row[1:]}
        if proc.returncode == 0:
            assert proc.stderr == "" and [row[0] for row in rows[1:]] == ["big", "MEAN"]
        else:
            assert proc.returncode == 3 and rows[1:] == []
            [line] = proc.stderr.splitlines()
            assert line.startswith("error: prompt big (line 1): ")

    SUBNORMAL = [5e-324, 1e-323, 2e-323, 3e-322, 4e-320, 1e-310, 2e-315, 0.0]

    @pytest.mark.parametrize(
        "argv", [("advantage", "--rule", rule, "--bon-k", "2") for rule in RULE_NAMES] + [("predict-bon",)]
    )
    @pytest.mark.parametrize("tiny", [SUBNORMAL, [-v for v in SUBNORMAL]])
    def test_subnormals_give_finite_output(self, tmp_path, argv, tiny):
        src = tmp_path / "groups.jsonl"
        write_groups(src, [{"prompt_id": "tiny", "rewards": tiny}])
        out = tmp_path / "out.json"
        proc = run_cli(argv[0], "-i", str(src), "-o", str(out), *argv[1:])
        assert proc.returncode == 0 and proc.stderr == ""
        text = out.read_text()
        assert "Infinity" not in text and "NaN" not in text

    @pytest.mark.parametrize(
        "rewards, reason",
        [
            ([(-1) ** i * 1e308 for i in range(24)], "QQ fit overflow: a, b or R^2 is not finite"),
            # the window quantiles run from 2e-315 to 1e-310, but their squared deviations underflow
            (SUBNORMAL * 3, "the quantiles in the fit window differ, but their spread underflows to 0"),
        ],
        ids=["big", "subnormal"],
    )
    def test_qq_fit(self, tmp_path, rewards, reason):
        src = tmp_path / "groups.jsonl"
        write_groups(src, [{"prompt_id": "p", "rewards": rewards}])
        out = tmp_path / "qq.csv"
        proc = run_cli("qq-fit", "-i", str(src), "-o", str(out))
        assert proc.returncode == 3
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"error: prompt p (line 1): {reason}")
        assert read_csv(out)[1][1:] == []


class TestConfigResolution:
    def test_flag_beats_file_beats_default(self, tmp_path, pools_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rule = grpo\nseed = 9\n")
        out = tmp_path / "adv.jsonl"
        # rule from file, then overridden by flag
        main(
            [
                "advantage", "-i", str(pools_path), "-o", str(out),
                "--config", str(cfg), "--rule", "grpo-z",
            ]
        )
        header = json.loads(out.read_text().splitlines()[0])
        assert header["config"]["rule"] == "grpo-z"
        assert header["config"]["seed"] == 9

    def test_bad_config_line_is_input_error(self, tmp_path, pools_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rule grpo\n")
        assert main(["advantage", "-i", str(pools_path), "--config", str(cfg)]) == 2

    def test_unknown_config_key_is_input_error(self, tmp_path, pools_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpah = 0.3\n")
        out = tmp_path / "p.json"
        assert main(["predict-bon", "-i", str(pools_path), "-o", str(out), "--config", str(cfg)]) == 2
        assert "config key alpah: not an option of predict-bon" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["input", "output", "baseline"])
    def test_path_config_keys_are_flags_only(self, tmp_path, pools_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {pools_path}\n")
        code = main(["eval-bon", "-i", str(pools_path), "-o", str(tmp_path / "e.json"),
                     "--config", str(cfg)])
        assert code == 2
        assert f"config key {key}: a flag only (--{key})" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [("rules =", "expected at least one name"), ("m_grid = 64,x", "expected comma-separated integers")],
    )
    def test_bad_list_in_config_is_input_error(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "s.csv"
        assert main(["synth-bias-variance", "--config", str(cfg), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config key {line.split()[0]}: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["advantage", "--alpha", "0.7"], "alpha must lie in (0, 1/2), got 0.7"),
            (["predict-bon", "--eps-sigma", "0"], "eps_sigma must be positive"),
            (["align", "--n-target", "0"], "n_target must be >= 1, got 0"),
            (["advantage", "--rule", "prefix-tea", "--j-count", "0"], "j_count must be >= 1, got 0"),
            (["advantage", "--rule", "prefix-tea", "--k", "0"], "need 1 <= k <= J, got k=0, J=4"),
            (["advantage", "--rule", "prefix-tea", "--k", "5"], "need 1 <= k <= J, got k=5, J=4"),
            (["advantage", "--rule", "chow", "--n-sel", "0"], "n_sel must be >= 1, got 0"),
            (["advantage", "--rule", "chow", "--lambda-nsel", "nan"], "lambda_nsel must be finite, got nan"),
            (["advantage", "--eps-sigma", "inf"], "eps_sigma must be finite"),
            (["advantage", "--rule", "chow", "--seed", "-5"], "seed must be >= 0, got -5"),
            (["advantage", "--config", "rule = foo"], f"unknown rule 'foo'; known: {', '.join(RULE_NAMES)}"),
            (["align", "--rules", "tea,foo"], f"unknown rule 'foo'; known: {', '.join(RULE_NAMES)}"),
        ],
        ids=["advantage", "predict-bon", "align", "j-count", "k-zero", "k-above-j", "n-sel", "lambda-nsel",
             "eps-sigma-inf", "seed", "config-rule", "align-rules"],
    )
    def test_bad_rule_parameter_is_reported_once_before_any_output(self, tmp_path, capsys, argv, message):
        src = tmp_path / "scored.jsonl"
        write_groups(src, [{"prompt_id": f"p{i}", "rewards": [0.0, 1.0, 2.0, 3.0], "scores": [[1.0]] * 4}
                           for i in range(3)])
        if "--config" in argv:  # the flag's value is the file's text
            at = argv.index("--config") + 1
            (tmp_path / "run.cfg").write_text(argv[at] + "\n")
            argv = [*argv[:at], str(tmp_path / "run.cfg"), *argv[at + 1 :]]
        out = tmp_path / "out"
        assert main([argv[0], "-i", str(src), "-o", str(out), *argv[1:]]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["train-synth", "--task-seed", "-1"],
            ["train-synth", "--n-prompts", "-1"],
            ["train-synth", "--n-actions", "-1"],
            ["train-synth", "--eval-samples", "-5"],
            ["train-synth", "--eval-samples", "0"],
            ["train-synth", "--reward-scale", "1e308"],
            ["synth-bias-variance", "--m-grid", "0"],
            ["synth-bias-variance", "--m-grid", "-4"],
            ["synth-bias-variance", "--p-grid", "0"],
            ["synth-bias-variance", "--p-grid", "-3"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_option_is_one_error_line_before_any_output(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would reach stderr outside the tests
            assert main([*argv, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    def test_missing_input_is_input_error(self, tmp_path):
        assert main(["advantage", "-i", str(tmp_path / "nope.jsonl")]) == 2
