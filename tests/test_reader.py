"""The group reader's decode: orjson where it reads a line as ``json.loads`` does, ``json.loads`` elsewhere.

``cli.read_reward_groups`` keeps orjson's reading of a plain record (see
``jsonio.decode``). That rests on orjson giving every number the float64 bits
``json.loads`` gives it, and refusing only what ``json.loads`` reads as an
infinity or refuses too. The differential tests below pin that against the
installed orjson; ``TestBadLinesAtRunBoundaries`` in ``test_cli.py`` covers
each line the two read differently. The run check that turns the decoded
rewards into a matrix is pinned against the ``np.array`` check it replaced.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from decimal import Context, Decimal
from itertools import chain
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bontea
from bontea import cli, jsonio
from bontea.errors import InputError
from bontea.tailstats import all_numbers


def _bits(value: float) -> int:
    return int(np.float64(value).view(np.int64))


def _assert_same_reading(text: str) -> None:
    """orjson reads the number ``text`` to ``json.loads``'s bits; where it refuses, ``json.loads`` reads ±inf."""
    expected = float(json.loads(text))
    try:
        value = orjson.loads(text)
    except orjson.JSONDecodeError:
        assert math.isinf(expected), text
        return
    assert _bits(float(value)) == _bits(expected), text


@st.composite
def decimal_strings(draw) -> str:
    """A JSON number of 1-40 digits, in integer or fraction form, with an exponent of -345...309 or none."""
    digits = draw(st.text("0123456789", min_size=1, max_size=40))
    point = draw(st.integers(0, len(digits)))
    whole, fraction = digits[:point].lstrip("0") or "0", digits[point:]
    text = draw(st.sampled_from(["", "-"])) + whole + ("." + fraction if fraction else "")
    exponent = draw(st.none() | st.integers(-345, 309))
    if exponent is not None:
        text += draw(st.sampled_from(["e", "E"])) + ("+" if exponent >= 0 and draw(st.booleans()) else "")
        text += str(exponent)
    return text


@settings(max_examples=1000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_repr_of_any_finite_double(value):
    _assert_same_reading(repr(value))


@settings(max_examples=1000, deadline=None)
@given(decimal_strings())
def test_decimal_strings(text):
    _assert_same_reading(text)


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_max=True), st.booleans())
def test_exact_halfway_decimals(value, negative):
    """The exact decimal midway between two adjacent doubles, which rounds to the one with an even significand."""
    exact = Context(prec=1200)  # a double's exact decimal has at most 767 significant digits
    half = exact.divide(exact.add(Decimal(value), Decimal(math.nextafter(value, math.inf))), 2)
    _assert_same_reading(("-" if negative else "") + str(half))


#: Reward values at the edges of what the run check reads: signed zeros, the smallest subnormal,
#: infinities, NaN, integers a double cannot hold exactly, and integers past the float range.
_EDGE_NUMBERS = [0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan,
                 2**53 + 1, 2**63, -(2**63), 2**64 + 1, 10**308, 10**309]
_NUMBERS = st.sampled_from(_EDGE_NUMBERS) | st.floats() | st.integers(-(2**70), 2**70)
_NOT_NUMBERS = (st.booleans() | st.none() | st.text(max_size=3) | st.lists(_NUMBERS, max_size=2)
                | st.dictionaries(st.text(max_size=2), _NUMBERS, max_size=2))


@st.composite
def reward_runs(draw) -> list[list]:
    """2-4 rows of one length 0-6, of numbers alone, with booleans, or with any JSON value."""
    entries = draw(st.sampled_from([_NUMBERS, _NUMBERS | st.booleans(), _NUMBERS | _NOT_NUMBERS]))
    m = draw(st.integers(0, 6))
    return draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=2, max_size=4))


def _old_run_check(rows: list[list]) -> np.ndarray | None:
    """The matrix the replaced rewards check gave, or None where the reader refused the run.

    That check was one array, a ``sum`` of each line and the 0/1 screen. The array reads a JSON string as a number; the ``sum`` raised ``TypeError``
    on one. It also raised ``OverflowError`` where integers alone add past
    the float range before a float joins them (10**308 twice, then 0.5). That
    refused the run, and the reader read it again line by line, where
    ``RewardGroup`` looks each value's type up instead; so does this check.
    """
    try:
        matrix = np.array(rows, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] == 0 or not np.isfinite(matrix).all():
            return None
        for row in rows:
            try:
                sum(row)
            except OverflowError:
                if not all_numbers(row):
                    return None
    except (ValueError, TypeError, OverflowError):
        return None
    return matrix if not ((matrix == 0.0) | (matrix == 1.0)).any() or all_numbers(chain.from_iterable(rows)) else None


@settings(max_examples=1000, deadline=None)
@given(reward_runs())
def test_packed_run_matches_the_array_it_replaced(rows):
    """The run check accepts what the old one did, with the same bits, as a writable C-contiguous float64 matrix.

    Each line's text is empty, so a run the check refuses raises the
    ``InputError`` of reading its first line again; an accepted run is
    yielded whole.
    """
    expected = _old_run_check(rows)
    run = [(i + 1, "", f"p{i}", row, None) for i, row in enumerate(rows)]
    try:
        matrix = next(cli._checked_run("run.jsonl", 0, run)).rewards
    except InputError:
        assert expected is None, rows
        return
    assert expected is not None, rows
    assert matrix.dtype == np.float64 and matrix.flags.c_contiguous and matrix.flags.writeable
    assert matrix.shape == expected.shape and (matrix.view(np.int64) == expected.view(np.int64)).all(), rows


def _run(tmp_path, argv: list[str], src: Path) -> tuple[int, bytes, str]:
    out = tmp_path / "out"
    err = tmp_path / "err"
    with open(err, "w", encoding="utf-8") as stderr:
        saved, sys.stderr = sys.stderr, stderr
        try:
            code = cli.main([argv[0], "-i", str(src), "-o", str(out), *argv[1:]])
        finally:
            sys.stderr = saved
    return code, out.read_bytes(), err.read_text(encoding="utf-8")


def test_clean_file_never_reaches_json_loads(tmp_path, monkeypatch):
    """On a clean 100 x 512 pool file every line is orjson's, and every command writes the same bytes."""
    rng = np.random.default_rng(30)
    src = tmp_path / "pools.jsonl"
    src.write_text("".join(json.dumps({"prompt_id": f"p{i}", "rewards": rng.standard_normal(512).tolist()}) + "\n"
                           for i in range(100)), encoding="utf-8")
    commands = [["advantage", "--rule", "tea"], ["predict-bon"], ["qq-fit"],
                ["eval-bon", "--baseline", str(src), "--resamples", "200"]]
    expected = [_run(tmp_path, argv, src) for argv in commands]
    assert all(code == 0 and err == "" for code, _, err in expected)

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    monkeypatch.setattr(json, "loads", refuse)
    assert [_run(tmp_path, argv, src) for argv in commands] == expected


def test_orjson_is_not_imported_with_the_cli():
    code = "import sys, bontea.cli; assert 'orjson' not in sys.modules, 'imported'"
    env = {**os.environ, "PYTHONPATH": str(Path(bontea.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


#: Runs ``advantage`` on each group file named after the output argument ('-' for stdout), all in
#: one process, and writes each command's exit code and stderr to stderr as one JSON list.
_DEPTH_SCRIPT = """
import contextlib, io, json, sys
from bontea.cli import main
results = []
for path in sys.argv[2:]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["advantage", "-i", path] + ([] if sys.argv[1] == "-" else ["-o", sys.argv[1]]))
    results.append([code, err.getvalue()])
sys.stderr.write(json.dumps(results))
"""


def _nested_line(depth: int, field: str) -> str:
    """A line of 64 rewards whose brackets and braces nest ``depth`` deep, in 'rewards' or in an extra field."""
    rewards = [i / 8 for i in range(64)]
    if field == "rewards":  # the object, the rewards list, then depth - 2 lists in its first entry
        return '{"prompt_id": "bad", "rewards": [' + "[" * (depth - 2) + "]" * (depth - 2) + ", 0.5" * 63 + "]}"
    meta = "[" * (depth - 1) + "]" * (depth - 1)
    return '{"meta": ' + meta + ', "prompt_id": "bad", "rewards": ' + json.dumps(rewards) + "}"


@pytest.mark.parametrize("output", ["-", os.devnull], ids=["pipe", "devnull"])
@pytest.mark.parametrize("field", ["rewards", "extra"])
def test_nesting_refusal_depends_only_on_the_depth(tmp_path, field, output):
    """Past ``MAX_DEPTH`` a line is refused as nested too deeply, and at it not, whatever the process's stack.

    Each depth is one command, all in one fresh process; before the bound,
    lines 960-1000 deep were refused or not by the interpreter's recursion
    limit, which counts the caller's frames too.
    """
    depths = [jsonio.MAX_DEPTH, jsonio.MAX_DEPTH + 1, *range(960, 1001)]
    paths = []
    for depth in depths:
        path = tmp_path / f"{field}{depth}.jsonl"
        path.write_text(_nested_line(depth, field) + "\n", encoding="utf-8")
        paths.append(str(path))
    env = {**os.environ, "PYTHONPATH": str(Path(bontea.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _DEPTH_SCRIPT, output, *paths],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    for depth, path, (code, err) in zip(depths, paths, json.loads(proc.stderr)):
        too_deep = (2, f"error: {path}:1: invalid JSON (nested too deeply)\n")
        if depth > jsonio.MAX_DEPTH:
            assert (code, err) == too_deep, depth
        else:  # an extra field is accepted; nested rewards are refused, but not for their depth
            assert (code, err) != too_deep and (code == 0) == (field == "extra"), (depth, code, err)


@pytest.mark.parametrize(
    "line, deep",
    [
        ("[" * 513 + "]" * 513, True),
        ("[" * 512 + "]" * 512, False),
        ('{"a": "' + "[" * 600 + '"}', False),  # brackets inside a string do not nest
        ('{"a": "\\"' + "{" * 600 + '"}', False),  # nor after an escaped quote
        ('{"a": "x\\\\"' + ", [" * 513, True),  # an escaped backslash leaves the quote after it closing
        ('"unterminated ' + "[" * 600, False),
        ("]" * 600 + "[" * 512, False),
    ],
)
def test_depth_counts_brackets_outside_strings(line, deep):
    assert jsonio.MAX_DEPTH == 512
    assert jsonio._too_deep(line) == deep
