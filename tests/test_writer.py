"""The CLI's writers: orjson where its bytes are ``json.dumps``'s, ``json.dumps`` elsewhere.

``jsonio.write_lines`` and ``jsonio.write_document`` hand orjson only values
inside a screen: floats that are 0 or have 1e-4 <= |v| < 1e16, printable
ASCII strings, 64-bit integers. That rests on the installed orjson writing
those exactly as ``json.dumps`` does; the differential tests below pin it.
``write_lines`` hands orjson each row as a view of its run's float64
matrix, which orjson's NumPy serializer writes, with
``OPT_SERIALIZE_NUMPY``, as the bytes of the row's list; it needs the
matrix C-contiguous, and would write float32 in float32's shortest digits,
so the writer makes each run's matrix C-contiguous float64 first. The tests
below pin both: the NumPy bytes against the list bytes, and matrices of
every layout against ``json.dumps``. ``TestWriterScreen`` in ``test_cli.py``
covers the commands' fallback.
"""

from __future__ import annotations

import io
import json
import math
import struct

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bontea import jsonio

#: Both edges of the float screen, and the two zeros.
EDGES = [1e-4, math.nextafter(1e16, 0.0), 0.0, -0.0]


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: Doubles with random sign and mantissa bits, their exponents those of the screen's range.
SCREEN_BITS = st.builds(
    lambda sign, exponent, mantissa: _from_bits(sign << 63 | exponent << 52 | mantissa),
    st.integers(0, 1), st.integers(1023 - 14, 1023 + 53), st.integers(0, 2**52 - 1),
).filter(lambda v: v == 0.0 or 1e-4 <= abs(v) < 1e16)
SCREEN_FLOATS = st.one_of(
    SCREEN_BITS,
    st.floats(min_value=1e-4, max_value=EDGES[1]).flatmap(lambda v: st.sampled_from([v, -v])),
    st.sampled_from(EDGES + [-v for v in EDGES]),
)


def _compact(values) -> str:
    """orjson's text of a float list with ``, `` between items, as ``write_lines`` writes it."""
    return orjson.dumps(values).decode().replace(",", ", ")


@settings(max_examples=1000, deadline=None)
@given(st.lists(SCREEN_FLOATS, min_size=1, max_size=16))
@example(EDGES)
@example([-v for v in EDGES])
def test_inside_the_screen_orjson_writes_json_dumps_bytes(values):
    assert jsonio.in_screen(np.array(values)) and jsonio._plain(values)
    assert _compact(values) == json.dumps(values)
    assert orjson.dumps(values, option=orjson.OPT_INDENT_2).decode() == json.dumps(values, indent=2)


SUBNORMALS = [5e-324, 2.2250738585072014e-308 / 3, math.nextafter(2.2250738585072014e-308, 0.0)]


@pytest.mark.parametrize(
    "value",
    SUBNORMALS + [1e-5, math.nextafter(1e-4, 0.0), 1e16, 1e300, math.inf, math.nan],
)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_outside_the_screen(value, sign):
    values = [0.5, sign * value]
    assert not jsonio.in_screen(np.array(values))
    assert not jsonio._plain(values) and not jsonio._plain({"a": values})


def test_the_screen_is_where_orjson_differs():
    """Just outside the screen orjson's text is not ``json.dumps``'s, so the screen is no wider than it can be."""
    for value in (math.nextafter(1e-4, 0.0), 1e-5, 1e16, math.inf, -math.inf, math.nan):
        assert orjson.dumps([value]).decode() != json.dumps([value])


@pytest.mark.parametrize(
    "text", ["café", "中", "\x7f", "\x00", "\x1f", "tab\there", "line\n", "\u2028", "\ud800", "a\udfffb"]
)
def test_the_string_screen_refuses(text):
    assert not jsonio._plain(text)
    assert not jsonio._plain([text]) and not jsonio._plain({text: 1}) and not jsonio._plain({"a": text})


@settings(max_examples=500, deadline=None)
@given(st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E)))
def test_printable_ascii_is_written_alike(text):
    assert jsonio._plain(text) and jsonio._plain({text: [text]})
    assert orjson.dumps(text).decode() == json.dumps(text)


@pytest.mark.parametrize("value", [2**64, -(2**63) - 1, 10**30])
def test_integers_beyond_64_bits_fall_back(value):
    assert not jsonio._plain([1, value])
    assert jsonio._plain([2**64 - 1, -(2**63)])


#: JSON values of every kind, inside and outside the screen.
DOCUMENT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(EDGES + SUBNORMALS) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=6), DOCUMENT_VALUES, max_size=5))
@example({})
@example({"config": {"eps_sigma": 1e-06, "budgets": [1, 2]}, "mean": {"1": 0.5}, "ids": ["café"]})
def test_write_document_is_json_dumps_indent_2(document):
    out = io.StringIO()
    jsonio.write_document(out, document)
    assert out.getvalue() == json.dumps(document, indent=2) + "\n"


def _json_dumps_lines(header, runs) -> str:
    """What ``write_lines`` must write: ``json.dumps`` of the header and of each row's object, a line each."""
    lines = [json.dumps(header)] + [
        json.dumps({"prompt_id": p, "advantages": a}) for ids, rows in runs for p, a in zip(ids, rows.tolist())
    ]
    return "".join(line + "\n" for line in lines)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(SCREEN_FLOATS, min_size=3, max_size=3), min_size=1, max_size=4),
    st.sampled_from([None, 1e-5, 1e16, -5e-324, 3e300]),
    st.lists(st.text(max_size=4), min_size=4, max_size=4),
)
def test_write_lines_is_json_dumps(rows, outside, ids):
    if outside is not None:
        rows[-1][0] = outside
    runs = [(ids[: len(rows)], np.array(rows))]
    out = io.StringIO()
    jsonio.write_lines(out, {"rule": "r"}, runs)
    assert out.getvalue() == _json_dumps_lines({"rule": "r"}, runs)


#: Printable-ASCII prompt ids, rich in the characters a quoting could treat differently.
ASCII_IDS = st.text(st.sampled_from('"\\/') | st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=6)
#: An id that ``json.dumps`` escapes: it holds DEL or a character beyond ASCII.
ESCAPED_IDS = st.builds(str.__add__, ASCII_IDS, st.characters(min_codepoint=0x7F))
#: (B, m) matrices inside the screen, as nested lists, B in 1-4 and m in 1-64.
SCREEN_MATRICES = st.tuples(st.integers(1, 4), st.integers(1, 64)).flatmap(
    lambda shape: st.lists(st.lists(SCREEN_FLOATS, min_size=shape[1], max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0])
)


@settings(max_examples=200, deadline=None)
@given(SCREEN_MATRICES, st.lists(ASCII_IDS, min_size=4, max_size=4), ESCAPED_IDS, st.integers(0, 3))
@example([EDGES, [-v for v in EDGES]], ['"', "\\"], "caf\u00e9", 0)
def test_the_numpy_path_is_json_dumps(rows, ids, escaped, at):
    matrix = np.array(rows)
    for row, values in zip(matrix, rows):
        assert orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY) == orjson.dumps(values)
    ids = ids[: len(rows)]
    mixed = ids[:]
    mixed[at % len(mixed)] = escaped
    runs = [(ids, matrix), (mixed, matrix)]  # ids quoted by orjson, then by json.dumps
    out = io.StringIO()
    jsonio.write_lines(out, {"rule": "r"}, runs)
    assert out.getvalue() == _json_dumps_lines({"rule": "r"}, runs)


def test_a_run_quotes_its_ids_one_way(monkeypatch):
    """orjson quotes a run of printable-ASCII ids; one other id sends its whole run's ids to ``json.dumps``."""
    calls, dumps = [], json.dumps
    monkeypatch.setattr(jsonio.json, "dumps", lambda value, **kw: calls.append(value) or dumps(value, **kw))
    rows = np.full((2, 3), 0.5)
    runs = [(['a"/', "b\\"], rows), (["c", "caf\u00e9"], rows)]
    out = io.StringIO()
    jsonio.write_lines(out, {"rule": "r"}, runs)
    assert calls == [{"rule": "r"}, "c", "caf\u00e9"]
    monkeypatch.undo()
    assert out.getvalue() == _json_dumps_lines({"rule": "r"}, runs)


@pytest.mark.parametrize("layout", ["transposed", "fortran", "strided", "float32"])
def test_write_lines_takes_any_layout(layout):
    """A matrix orjson's NumPy serializer refuses (not C-contiguous) or writes otherwise (float32) gives the same lines."""
    m = np.random.default_rng(33).standard_normal((6, 8))
    rows = {"transposed": m.T, "fortran": np.asfortranarray(m), "strided": m[:, ::2],
            "float32": m.astype(np.float32)}[layout]
    assert rows.flags.c_contiguous == (layout == "float32")
    runs = [([f"g{i}" for i in range(len(rows))], rows)]
    out = io.StringIO()
    jsonio.write_lines(out, {"rule": "r"}, runs)
    assert out.getvalue() == _json_dumps_lines({"rule": "r"}, runs)
