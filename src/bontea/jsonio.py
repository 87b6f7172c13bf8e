"""The CLI's JSON boundary: it reads what ``json.loads`` reads and writes the bytes ``json.dumps`` writes.

orjson does the work wherever its reading or its bytes are the json
module's, and ``json`` does the rest. orjson is imported where a file is
read or written, so importing the CLI does not load it.

Reading: ``decode`` keeps orjson's reading of a plain record and hands
every other line to ``loads``, which is ``json.loads`` behind a fixed depth
bound, ``MAX_DEPTH``.

Writing: orjson writes a float as ``repr`` does, as ``json.dumps`` does, when
it is 0 or 1e-4 <= |v| < 1e16; outside that screen it writes ``1e-5`` as
``0.00001``, ``1e16`` where ``json.dumps`` has ``1e+16``, and ±inf and NaN
as ``null``. ``json.dumps`` escapes every character of a string but
printable ASCII, which orjson writes as it is. So ``write_lines`` and
``write_document`` use orjson only for values inside the screen, and
``json.dumps`` for anything else.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import accumulate, groupby
from typing import Any, Callable, Iterable, Sequence, TextIO

import numpy as np

from .errors import InputError

#: Deepest nesting of brackets and braces, outside strings, of a line that
#: ``loads`` reads; a deeper one is refused as nested too deeply. It lies far
#: below the depth at which ``json.loads`` runs out of recursion, so whether
#: a line is refused does not depend on the caller's stack.
MAX_DEPTH = 512

#: The fields of a record that ``decode`` takes orjson's reading of.
_PLAIN_FIELDS = frozenset(("prompt_id", "rewards", "scores"))
#: A JSON string, or an unterminated one up to the end of the line.
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"?', re.DOTALL)
_BRACKET = re.compile(r"[][{}]")
#: The screen: orjson writes a float as ``json.dumps`` does when it is 0 or _LOW <= |v| < _HIGH.
_LOW, _HIGH = 1e-4, 1e16


# --- reading -------------------------------------------------------------------


def decode(path: str, lineno: int, line: str, orjson_loads: Callable[[str], Any]) -> dict[str, Any]:
    """The line's JSON object, which must have a 'rewards' field, as ``json.loads`` reads it.

    ``orjson_loads`` gives every number ``json.loads``'s bits. Its reading is
    kept for a plain record: an object with 'rewards', no field beyond
    ``_PLAIN_FIELDS`` and a string 'prompt_id', if any (orjson reads an
    integer beyond 64 bits as a float). ``loads`` reads any other line, and
    one orjson refuses: NaN, an infinity, a literal beyond the float range, a
    lone surrogate, bytes that are not UTF-8. orjson also reads nesting that
    ``loads`` refuses as too deep; in a plain record that fails the run
    check, and the reader reads the run again with ``loads``.
    """
    try:
        record = orjson_loads(line)
    except ValueError:
        record = None
    if (type(record) is dict and "rewards" in record and record.keys() <= _PLAIN_FIELDS
            and type(record.get("prompt_id", "")) is str):
        return record
    record = loads(path, lineno, line)
    if not isinstance(record, dict) or "rewards" not in record:
        raise InputError(f"{path}:{lineno}: expected an object with a 'rewards' field")
    return record


def loads(path: str, lineno: int, line: str) -> Any:
    """``json.loads(line)``, or the ``InputError`` naming the line; nesting past ``MAX_DEPTH`` is refused first."""
    try:
        if not line.isascii():
            line.encode()  # a byte that is not UTF-8 was read as a lone surrogate
        if _too_deep(line):
            raise RecursionError(f"nested deeper than {MAX_DEPTH}")
        return json.loads(line)
    except (ValueError, RecursionError) as exc:
        if isinstance(exc, UnicodeEncodeError):
            why = "invalid UTF-8"
        elif isinstance(exc, json.JSONDecodeError):
            why = f"invalid JSON ({exc.msg})"
        elif isinstance(exc, RecursionError):
            why = "invalid JSON (nested too deeply)"
        else:  # int() refuses a literal of more digits than its limit
            why = f"invalid JSON (integer longer than {sys.get_int_max_str_digits()} digits)"
        raise InputError(f"{path}:{lineno}: {why}") from exc


def _too_deep(line: str) -> bool:
    """Whether the brackets and braces of ``line`` outside its strings nest deeper than ``MAX_DEPTH``."""
    if line.count("[") + line.count("{") <= MAX_DEPTH:
        return False
    steps = (1 if c in "[{" else -1 for c in _BRACKET.findall(_STRING.sub("", line)))
    return max(accumulate(steps), default=0) > MAX_DEPTH


# --- writing -------------------------------------------------------------------


def in_screen(values: np.ndarray) -> np.ndarray:
    """Whether each row's values all lie in the screen: 0, or 1e-4 <= |v| < 1e16 (see ``_LOW``, ``_HIGH``)."""
    size = np.abs(values)
    return ((size == 0.0) | ((size >= _LOW) & (size < _HIGH))).all(axis=-1)


def _plain(value: Any) -> bool:
    """Whether orjson writes ``value`` as ``json.dumps`` does.

    That holds for None, bools, 64-bit integers, floats inside the screen,
    printable ASCII strings, and lists, tuples and string-keyed dicts of these.
    """
    kind = type(value)
    if kind is float:
        return value == 0.0 or _LOW <= abs(value) < _HIGH
    if kind is str:
        return value.isascii() and value.isprintable()
    if kind is dict:
        try:
            keys = "".join(value)  # every key's characters at once; a key that is not a string raises
        except TypeError:
            return False
        return keys.isascii() and keys.isprintable() and all(map(_plain, value.values()))
    if kind is list or kind is tuple:
        return all(map(_plain, value))
    if kind is int:
        return -(2**63) <= value < 2**64
    return value is None or kind is bool


def write_lines(out: TextIO, header: dict[str, Any], runs: Iterable[tuple[Sequence[str], np.ndarray]]) -> None:
    """``header``, then one ``{"prompt_id": ..., "advantages": [...]}`` line per row of each run, a run per write.

    A run is its prompt ids and their (B, m) matrix. A row inside the screen
    is written by orjson, with ``, `` for its ``,``; any other by
    ``json.dumps``. Prompt ids are always ``json.dumps``'s.
    """
    from orjson import dumps

    out.write(json.dumps(header) + "\n")
    for ids, rows in runs:
        out.write("".join([
            f'{{"prompt_id": {json.dumps(p)}, "advantages": {dumps(a).decode().replace(",", ", ")}}}\n' if plain
            else json.dumps({"prompt_id": p, "advantages": a}) + "\n"
            for p, a, plain in zip(ids, rows.tolist(), in_screen(rows).tolist())
        ]))


def write_document(out: TextIO, document: dict[str, Any]) -> None:
    """``document`` as ``json.dumps(document, indent=2)`` writes it, and a newline.

    Each run of consecutive items that ``_plain`` passes, in the document and
    in any list or string-keyed dict that it does not pass, is one orjson
    call; ``json.dumps`` writes the values left over.
    """
    from orjson import OPT_INDENT_2, dumps

    def encode(value: Any) -> str:
        is_dict = type(value) is dict
        if is_dict and all(type(key) is str for key in value):
            items = value.items()
        elif type(value) is list or type(value) is tuple:
            items = value
        else:
            return json.dumps(value, indent=2)
        parts = []
        for plain, group in groupby(items, _plain):
            if plain:  # one orjson call, its brackets and their newlines cut off
                run = dict(group) if is_dict else list(group)
                parts.append(dumps(run, option=OPT_INDENT_2).decode()[2:-2])
                continue
            for item in group:
                key, item = item if is_dict else (None, item)
                text = encode(item) if key is None else f"{json.dumps(key)}: {encode(item)}"
                parts.append("  " + text.replace("\n", "\n  "))
        start, end = "{}" if is_dict else "[]"
        return f"{start}\n" + ",\n".join(parts) + f"\n{end}" if parts else start + end

    out.write(encode(document) + "\n")
