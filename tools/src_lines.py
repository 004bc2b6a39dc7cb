"""Count the lines of each module and C source under src/: total, code,
docstring, comment and blank.

A code line holds a token of a statement or expression (a string
spanning lines counts on each of its lines); a docstring line is a line
of a module's, class's or function's docstring; a comment line holds
only a comment; a blank line holds none of these.  In C, a comment is a
``//`` or ``/* */`` comment, and there are no docstrings.  Standard
library only.  Run from the repository root:

    python3 tools/src_lines.py [root]
"""

from __future__ import annotations

import ast
import io
import pathlib
import re
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The line counts of one module's source."""
    docs = _docstring_lines(ast.parse(text))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    comments -= code | docs
    total = len(text.splitlines())
    counts = {"total": total, "code": len(code), "docstring": len(docs), "comment": len(comments)}
    counts["blank"] = total - len(code) - len(docs) - len(comments)
    return counts


COLUMNS = ("total", "code", "docstring", "comment", "blank")

# C comments (the C sources here hold no string that looks like one)
_C_COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)


def count_c(text: str) -> dict[str, int]:
    """The line counts of one C source."""
    # every non-space character of a comment becomes a NUL
    marked = _C_COMMENT.sub(lambda m: re.sub(r"\S", "\0", m[0]), text)
    counts = dict.fromkeys(COLUMNS, 0)
    for line in marked.splitlines():
        if line.replace("\0", "").strip():
            counts["code"] += 1
        else:
            counts["comment" if "\0" in line else "blank"] += 1
    counts["total"] = len(text.splitlines())
    return counts


def count_tree(root: pathlib.Path) -> dict[str, dict[str, int]]:
    """The counts of each module and C source under ``root``, by its path
    relative to it, then their sums as "all"."""
    rows, sums = {}, dict.fromkeys(COLUMNS, 0)
    for path in sorted(p for p in root.rglob("*") if p.suffix in (".py", ".c")):
        counter = count if path.suffix == ".py" else count_c
        counts = rows[str(path.relative_to(root))] = counter(path.read_text(encoding="utf-8"))
        for c in COLUMNS:
            sums[c] += counts[c]
    return {**rows, "all": sums}


def main(argv: list[str]) -> int:
    rows = count_tree(pathlib.Path(argv[1] if len(argv) > 1 else "src"))
    width = max(map(len, rows))
    print(f"{'module':<{width}}" + "".join(f"{c:>10}" for c in COLUMNS))
    for name, counts in rows.items():
        print(f"{name:<{width}}" + "".join(f"{counts[c]:>10}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
