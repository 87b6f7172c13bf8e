"""The README's library quick start runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```", section, re.M | re.S)
    exec(compile(block, f"{README.name} (library quick start)", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[:2] == ["(4, 64)", "True"]
