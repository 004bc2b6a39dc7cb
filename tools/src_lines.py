"""Count the lines of each module under src/: total, code, docstring,
comment and blank.

A code line holds a token of a statement or expression (a string
spanning lines counts on each of its lines); a docstring line is a line
of a module's, class's or function's docstring; a comment line holds
only a comment; a blank line holds none of these.  Standard library
only.  Run from the repository root:

    python3 tools/src_lines.py [root]
"""

from __future__ import annotations

import ast
import io
import pathlib
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


def count_tree(root: pathlib.Path) -> dict[str, dict[str, int]]:
    """The counts of each module under ``root``, by its path relative to
    it, then their sums as "all"."""
    rows, sums = {}, dict.fromkeys(COLUMNS, 0)
    for path in sorted(root.rglob("*.py")):
        counts = rows[str(path.relative_to(root))] = count(path.read_text(encoding="utf-8"))
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
