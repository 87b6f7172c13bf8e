"""Generated JSONL through the CLI: exit 0, 2 or 3, no traceback, finite numbers.

``bontea advantage`` with every rule, ``bontea predict-bon``, ``bontea align``,
``bontea qq-fit`` and ``bontea eval-bon`` read lines that mix ordinary groups
with malformed JSON, bad ``rewards`` fields, integers beyond float range,
magnitudes up to 1e300, groups of 1 to 3 rewards, ties, constant groups and NaN
scores.
"""

from __future__ import annotations

import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bontea.advantages import RULE_NAMES
from bontea.cli import main

MALFORMED = [
    "not json",
    '{"rewards": [1, 2',
    "[1, 2, 3]",
    "{}",
    '{"prompt_id": "no-rewards"}',
    '{"rewards": "1,2,3"}',
    '{"rewards": [[1, 2], [3, 4]]}',
    '{"rewards": [[1], [2, 3]]}',
    '{"rewards": {"a": 1}}',
    '{"rewards": [1, null, 2]}',
    '{"rewards": []}',
    '{"rewards": ' + "[" * 100_000 + "]" * 100_000 + "}",
]

_MAGNITUDES = st.sampled_from([1e-300, 1e-9, 1.0, 1e9, 1e150, 1e200, 1e300])
_HUGE_INTS = st.sampled_from([10**400, -(10**400), 2**1100])

REWARDS = st.one_of(
    st.lists(
        st.floats(min_value=-1e300, max_value=1e300, allow_nan=False), min_size=1, max_size=24
    ),
    st.builds(
        lambda xs, scale: [x * scale for x in xs],
        st.lists(st.floats(min_value=-8, max_value=8), min_size=1, max_size=24),
        _MAGNITUDES,
    ),
    st.lists(st.sampled_from([0, 1]), min_size=1, max_size=24),
    st.builds(lambda c, m: [c] * m, st.floats(-1e300, 1e300), st.integers(1, 24)),
    st.lists(st.one_of(_HUGE_INTS, st.integers(-5, 5)), min_size=1, max_size=8),
    st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=3),
)


@st.composite
def jsonl_line(draw) -> str:
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(MALFORMED))
    rewards = draw(REWARDS)
    record: dict = {"prompt_id": f"p{draw(st.integers(0, 9))}", "rewards": rewards}
    score = draw(st.sampled_from([None, 0.5, float("nan")]))
    if score is not None:
        record["scores"] = [[score, 1.0]] * len(rewards)
    return json.dumps(record)


def _reject_constant(name: str) -> float:
    raise AssertionError(f"non-finite number {name} written")


def _run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return out.getvalue()


def _check_csv(text: str) -> None:
    rows = [row for row in text.splitlines() if not row.startswith("#")]
    for row in rows[1:]:
        assert all(math.isfinite(float(cell)) for cell in row.split(",")[1:]), row


# The explicit examples each crashed the CLI or wrote NaN once: an integer
# beyond float range, a tail whose spread overflows (followed by an ordinary
# group), a QQ fit whose R^2 overflows, NaN scores, a one-reward group and JSON
# nested past the recursion limit.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(jsonl_line(), min_size=1, max_size=4))
@example(['{"rewards": [1' + "0" * 400 + ", 2]}"])
@example([
    json.dumps({"prompt_id": "big", "rewards": [1e200 * i for i in range(1, 9)]}),
    json.dumps({"prompt_id": "ok", "rewards": list(range(16))}),
])
@example([json.dumps({"prompt_id": "big", "rewards": [1e200 * i for i in range(1, 33)]})])
@example([json.dumps({"rewards": [0.0, 1.0, 2.0], "scores": [[float("nan")]] * 3})])
@example([json.dumps({"prompt_id": "one", "rewards": [1.0]})])
@example([MALFORMED[-1]])
def test_generated_lines(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "groups.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for rule in RULE_NAMES:
            text = _run(["advantage", "-i", str(path), "--rule", rule, "--bon-k", "2"])
            for line in text.splitlines():
                json.loads(line, parse_constant=_reject_constant)
        text = _run(["predict-bon", "-i", str(path)])
        if text:
            json.loads(text, parse_constant=_reject_constant)
        _check_csv(_run(["align", "-i", str(path), "--rules", ",".join(RULE_NAMES), "--bon-k", "2"]))
        _check_csv(_run(["qq-fit", "-i", str(path)]))
        text = _run(["eval-bon", "-i", str(path), "--baseline", str(path), "--budgets", "1"])
        if text:
            json.loads(text, parse_constant=_reject_constant)
