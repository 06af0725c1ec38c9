"""Layering rule: no lapspec module imports a private name from another.

Every src/lapspec/*.py is parsed with ast, including imports inside
function bodies; a `from .x import _name` (or `from lapspec.x import
_name`) fails the test.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lapspec"


def private_imports(source: str, filename: str = "<source>"):
    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("lapspec"):
            continue
        module = "." * node.level + (node.module or "")
        hits.extend(
            f"{filename}:{node.lineno}: from {module} import {alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        )
    return hits


def test_no_private_cross_module_imports():
    files = sorted(SRC.glob("*.py"))
    assert files
    hits = [h for f in files for h in private_imports(f.read_text(encoding="utf-8"), f.name)]
    assert hits == []


def test_checker_sees_imports_inside_functions():
    source = (
        "from __future__ import annotations\n"
        "from .polys import MPoly\n"
        "def f():\n"
        "    from .polys import _trim\n"
        "    from lapspec.graphs import _norm_edge\n"
    )
    assert private_imports(source) == [
        "<source>:4: from .polys import _trim",
        "<source>:5: from lapspec.graphs import _norm_edge",
    ]
