"""Golden CLI outputs: every command's bytes, exit code and stderr are pinned.

Inputs and expected outputs live in ``tests/golden``. Each case runs twice,
once writing to ``-o`` and once to stdout, and both must match the stored
bytes. Running this file as a script rewrites the expected files from the
current code; do that only for a deliberate change of output.

``python tests/test_cli_golden.py --compare`` writes nothing: it reruns every
case and reports the worst |new - golden| / (1 + |golden|) over the floats of
each output. It fails on any other difference (text, integers, exit code,
stderr, option strings) and on any float gap above ``COMPARE_TOL``.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from bontea.advantages import RULE_NAMES
from bontea.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected"
#: Largest float gap |new - golden| / (1 + |golden|) that ``--compare`` accepts.
COMPARE_TOL = 1e-12
#: A number standing alone: not part of a word, a version string or another number.
_NUMBER = re.compile(r"(?<![\w.])-?(?:\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")

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
        + ["--rule", "chow", "--n-sel", "6", "--lambda-nsel", "2.5", "--seed", "4"],
        0,
    ),
    "advantage-cat-bon-flags": (
        _ADVANTAGE + ["--rule", "cat-bon", "--n-target", "16", "--eps-norm", "1e-6"], 0
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
    # a resample count whose means cannot be allocated: one error line, no output file
    "eval-bon-out-of-memory": (
        ["eval-bon", "-i", "pools.jsonl", "--baseline", "baseline.jsonl", "--budgets", "1,2,4",
         "--resamples", "1000000000000000"],
        2,
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
    # verifier-style 0/1 rewards, written as integers, as floats and with -0.0 for a miss
    "advantage-grpo-binary": (["advantage", "-i", "binary.jsonl", "--rule", "grpo"], 0),
    "qq-fit-binary": (["qq-fit", "-i", "binary.jsonl"], 0),
    # lines the reader accepts at the edges of JSON: integers beyond 64 bits and near 1e308, -0.0,
    # 5e-324, prompt ids that are not strings or hold escapes, extra fields and a field set twice
    "advantage-tea-edge": (["advantage", "-i", "edge.jsonl", "--rule", "tea"], 0),
    "predict-bon-edge": (["predict-bon", "-i", "edge.jsonl"], 0),
    # numbers at the edges of the writers' orjson screen: advantages and predictions below 1e-4
    # (and all zero) in one run with ordinary ones, and from 1e16 up beside ones just under it
    "advantage-grpo-tiny": (["advantage", "-i", "tiny.jsonl", "--rule", "grpo"], 0),
    "advantage-grpo-huge": (["advantage", "-i", "huge.jsonl", "--rule", "grpo"], 0),
    "predict-bon-tiny": (["predict-bon", "-i", "tiny.jsonl"], 0),
    "predict-bon-huge": (["predict-bon", "-i", "huge.jsonl", "--budgets", "1,128"], 0),
    # prompt ids that json.dumps escapes: non-ASCII, DEL, a tab and a quote
    "advantage-grpo-ids": (["advantage", "-i", "ids.jsonl", "--rule", "grpo"], 0),
    "predict-bon-ids": (["predict-bon", "-i", "ids.jsonl", "--budgets", "1,4,32"], 0),
    "eval-bon-ids": (
        ["eval-bon", "-i", "ids.jsonl", "--baseline", "ids.jsonl", "--budgets", "1,2,4", "--resamples", "50"],
        0,
    ),
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
    if expected_bytes:
        assert target.read_bytes() == expected_bytes
    else:  # the command failed before it opened its output
        assert not target.exists()

    code, stdout, stderr = _run(argv)
    assert (code, stdout, stderr) == (expected_code, expected_out, expected_err)


def test_option_strings_per_command():
    expected = json.loads((EXPECTED / "options.json").read_text(encoding="utf-8"))
    assert _option_strings() == expected


def _is_float(token: str) -> bool:
    return any(c in token for c in ".eE")


def _float_gap(golden: str, new: str) -> tuple[float, int]:
    """Worst |new - golden| / (1 + |golden|) over the floats of two outputs, and their count.

    Raises ``ValueError`` where the outputs differ in anything but float values.
    """
    if _NUMBER.split(golden) != _NUMBER.split(new):
        raise ValueError("text differs")
    worst, count = 0.0, 0
    for a, b in zip(_NUMBER.findall(golden), _NUMBER.findall(new)):
        if not (_is_float(a) and _is_float(b)):
            if a != b:  # integers, inf and nan match exactly
                raise ValueError(f"{a} became {b}")
            continue
        count += 1
        worst = max(worst, abs(float(b) - float(a)) / (1.0 + abs(float(a))))
    return worst, count


def compare() -> int:
    """Rerun every case against the stored files, print the float gaps; 0 when all pass."""
    failures, worst, worst_case = [], 0.0, ""
    for name, (argv, expected_code) in CASES.items():
        code, stdout, stderr = _run(argv)
        if code != expected_code:
            failures.append(f"{name}: exit {code}, golden {expected_code}")
        if stderr != (EXPECTED / f"{name}.err").read_text(encoding="utf-8"):
            failures.append(f"{name}: stderr differs")
        golden = (EXPECTED / f"{name}.out").read_text(encoding="utf-8")
        try:
            gap, count = _float_gap(golden, stdout)
        except ValueError as exc:
            failures.append(f"{name}: {exc}")
            continue
        state = "identical" if stdout == golden else f"worst gap {gap:.2e}"
        print(f"{name}: {count} floats, {state}")
        if gap > worst:
            worst, worst_case = gap, name
    if _option_strings() != json.loads((EXPECTED / "options.json").read_text(encoding="utf-8")):
        failures.append("options.json: option strings differ")
    print(f"worst |new - golden| / (1 + |golden|): {worst:.2e}" + (f" ({worst_case})" if worst else ""))
    if worst > COMPARE_TOL:
        failures.append(f"worst float gap {worst:.2e} exceeds {COMPARE_TOL:g}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


def regenerate() -> None:
    """Rewrite every expected file from the current code."""
    EXPECTED.mkdir(exist_ok=True)
    for name, (argv, expected_code) in CASES.items():
        code, stdout, stderr = _run(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit {code}, declared {expected_code}\n{stderr}")
        (EXPECTED / f"{name}.out").write_text(stdout, encoding="utf-8")
        (EXPECTED / f"{name}.err").write_text(stderr, encoding="utf-8")
    (EXPECTED / "options.json").write_text(
        json.dumps(_option_strings(), indent=2) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    import os

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--compare", action="store_true", help="compare with the stored files; write nothing"
    )
    args = parser.parse_args()
    os.chdir(GOLDEN)
    if args.compare:
        sys.exit(compare())
    regenerate()
