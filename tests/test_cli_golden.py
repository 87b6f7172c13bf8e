"""Golden CLI outputs: every command's bytes, exit code and stderr are pinned.

Inputs and expected outputs live in ``tests/golden``. Each case runs twice,
once writing to ``-o`` and once to stdout, and both must match the stored
bytes. Running this file as a script rewrites the expected files from the
current code; do that only for a deliberate change of output.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from bontea.advantages import RULE_NAMES
from bontea.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected"

_ADVANTAGE = ["advantage", "-i", "groups.jsonl"]

#: case name -> (argv without an output flag, expected exit code)
CASES: dict[str, tuple[list[str], int]] = {
    **{
        f"advantage-{rule}": (
            _ADVANTAGE + ["--rule", rule] + (["--bon-k", "4"] if rule == "bon-mean" else []),
            0,
        )
        for rule in RULE_NAMES
    },
    "advantage-tea-flags": (
        _ADVANTAGE + ["--alpha", "0.2", "--n-target", "64", "--eps-sigma", "1e-4"], 0
    ),
    "advantage-prefix-tea-flags": (
        _ADVANTAGE + ["--rule", "prefix-tea", "--k", "1", "--j-count", "3"], 0
    ),
    "advantage-chow-flags": (
        _ADVANTAGE
        + ["--rule", "chow", "--n-sel", "6", "--m-corr", "10", "--lambda-nsel", "2.5", "--seed", "4"],
        0,
    ),
    "advantage-cat-bon-flags": (
        _ADVANTAGE + ["--rule", "cat-bon", "--cat-n-target", "16", "--eps-norm", "1e-6"], 0
    ),
    "advantage-config": (
        _ADVANTAGE + ["--config", "advantage.cfg", "--rule", "grpo-z"], 0
    ),
    "advantage-group-error": (["advantage", "-i", "mixed.jsonl", "--rule", "prefix-tea"], 2),
    "weights-default": (["weights"], 0),
    "weights": (["weights", "--m", "48", "--k", "3", "--j-count", "5"], 0),
    "predict-bon-default": (["predict-bon", "-i", "groups.jsonl"], 0),
    "predict-bon": (
        ["predict-bon", "-i", "groups.jsonl", "--budgets", "1,8,128", "--alpha", "0.3",
         "--eps-sigma", "1e-3"],
        0,
    ),
    "eval-bon-default": (["eval-bon", "-i", "pools.jsonl"], 0),
    "eval-bon-baseline": (
        ["eval-bon", "-i", "pools.jsonl", "--baseline", "baseline.jsonl", "--budgets", "1,2,4",
         "--resamples", "200", "--seed", "3", "--tie-tol", "1e-6"],
        0,
    ),
    "synth-bias-variance": (
        ["synth-bias-variance", "--rules", "tea,prefix-tea,grpo", "--m-grid", "64,128",
         "--p-grid", "1,16", "--replications", "1000", "--seed", "5"],
        0,
    ),
    "synth-bias-variance-degenerate": (
        ["synth-bias-variance", "--rules", "tea", "--m-grid", "4", "--replications", "1000"], 3
    ),
    "align": (["align", "-i", "scored.jsonl", "--rules", "tea,grpo,prefix-tea,chow"], 0),
    "train-synth": (
        ["train-synth", "--rule", "tea", "--m", "8", "--steps", "6", "--eval-every", "3",
         "--eval-n", "1,8", "--eval-samples", "64"],
        0,
    ),
    "train-synth-flags": (
        ["train-synth", "--rule", "prefix-tea", "--m", "16", "--steps", "4", "--eval-every", "2",
         "--eval-n", "1,4", "--eval-samples", "32", "--p-batch", "2", "--beta", "0.05",
         "--n-prompts", "4", "--n-actions", "8", "--task-seed", "2", "--reward-scale", "2.5",
         "--alpha", "0.2"],
        0,
    ),
    "train-synth-config": (["train-synth", "--config", "train.cfg", "--steps", "6"], 0),
    "qq-fit-default": (["qq-fit", "-i", "pools.jsonl"], 0),
    "qq-fit": (["qq-fit", "-i", "pools.jsonl", "--q-lo", "0.7", "--q-hi", "0.95", "--grid", "10"], 0),
}


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _option_strings() -> dict[str, list[str]]:
    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    return {
        name: sorted(s for action in p._actions for s in action.option_strings)
        for name, p in sub.choices.items()
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_to_file_and_stdout(name, tmp_path, monkeypatch):
    argv, expected_code = CASES[name]
    expected_bytes = (EXPECTED / f"{name}.out").read_bytes()
    expected_out = expected_bytes.decode("utf-8")
    expected_err = (EXPECTED / f"{name}.err").read_text(encoding="utf-8")
    monkeypatch.chdir(GOLDEN)

    target = tmp_path / "out"
    code, stdout, stderr = _run(argv + ["-o", str(target)])
    assert (code, stdout, stderr) == (expected_code, "", expected_err)
    assert target.read_bytes() == expected_bytes

    code, stdout, stderr = _run(argv)
    assert (code, stdout, stderr) == (expected_code, expected_out, expected_err)


def test_option_strings_per_command():
    expected = json.loads((EXPECTED / "options.json").read_text(encoding="utf-8"))
    assert _option_strings() == expected


if __name__ == "__main__":
    import os

    EXPECTED.mkdir(exist_ok=True)
    os.chdir(GOLDEN)
    for name, (argv, expected_code) in CASES.items():
        code, stdout, stderr = _run(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit {code}, declared {expected_code}\n{stderr}")
        (EXPECTED / f"{name}.out").write_text(stdout, encoding="utf-8")
        (EXPECTED / f"{name}.err").write_text(stderr, encoding="utf-8")
    (EXPECTED / "options.json").write_text(
        json.dumps(_option_strings(), indent=2) + "\n", encoding="utf-8"
    )
