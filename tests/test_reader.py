"""The group reader's decode: orjson where it reads a line as ``json.loads`` does, ``json.loads`` elsewhere.

``cli.read_reward_groups`` keeps orjson's reading of a plain record (see
``cli._decode``). That rests on orjson giving every number the float64 bits
``json.loads`` gives it, and refusing only what ``json.loads`` reads as an
infinity or refuses too. The differential tests below pin that against the
installed orjson; ``TestBadLinesAtRunBoundaries`` in ``test_cli.py`` covers
each line the two read differently.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from decimal import Context, Decimal
from pathlib import Path

import numpy as np
import orjson
from hypothesis import given, settings
from hypothesis import strategies as st

import bontea
from bontea import cli


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

    monkeypatch.setattr(cli.json, "loads", refuse)
    assert [_run(tmp_path, argv, src) for argv in commands] == expected


def test_orjson_is_not_imported_with_the_cli():
    code = "import sys, bontea.cli; assert 'orjson' not in sys.modules, 'imported'"
    env = {**os.environ, "PYTHONPATH": str(Path(bontea.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
