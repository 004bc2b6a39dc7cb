"""``tools/src_lines.py``'s rule for C sources, and its row of the C kernel."""

from __future__ import annotations

import importlib
from pathlib import Path

ROOT = Path(__file__).parents[1]

C_SOURCE = """/* a block comment

   over three lines */
#include <stdint.h>  // code, then a comment

    // a line comment
int x; /* code, then a comment */
/* one */ /* two */
"""


def test_c_lines_are_code_unless_only_comment_or_blank(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    src_lines = importlib.import_module("src_lines")
    counts = src_lines.count_c(C_SOURCE)
    assert counts == {"total": 8, "code": 2, "docstring": 0, "comment": 4, "blank": 2}
    rows = src_lines.count_tree(ROOT / "src")
    assert rows["masstransport/_uniforms.c"]["docstring"] == 0
    for c in src_lines.COLUMNS:
        assert rows["all"][c] == sum(row[c] for name, row in rows.items() if name != "all")
