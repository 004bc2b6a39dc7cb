"""Every top-level definition of the package is used somewhere.

A definition counts as used when its name appears as an ``ast`` Name, an
Attribute or an import alias anywhere in ``src/``, ``tests/`` or
``perfbench/``.  A helper whose last caller was folded away fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "masstransport"


def _trees(*dirs: Path):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
            if node.asname:
                yield node.asname


def test_every_top_level_definition_is_referenced():
    used = set()
    for _, tree in _trees(ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
        used.update(_references(tree))
    unused = [
        f"{path.relative_to(ROOT)}: {name}"
        for path, tree in _trees(PACKAGE)
        for name in _definitions(tree)
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unused == []
