"""Layering rules for the lapspec modules.

Every src/lapspec/*.py is parsed with ast, including imports inside
function bodies. No module imports a private name from another: a
`from .x import _name` (or `from lapspec.x import _name`) fails the test.
And MPoly, the sparse polynomial of the symbolic Z[s,t] catalog, is used
only by polys, families and the package namespace: every other module
works on integer coefficient lists, so a `from .polys import MPoly` or a
`polys.MPoly` elsewhere fails the test.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lapspec"
MPOLY_MODULES = {"polys.py", "families.py", "__init__.py"}


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


def mpoly_uses(source: str, filename: str = "<source>"):
    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom):
            hits.extend(
                f"{filename}:{node.lineno}: import MPoly" for alias in node.names if alias.name == "MPoly"
            )
        elif isinstance(node, ast.Attribute) and node.attr == "MPoly":
            hits.append(f"{filename}:{node.lineno}: .MPoly")
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


def test_only_the_catalog_modules_use_mpoly():
    files = sorted(f for f in SRC.glob("*.py") if f.name not in MPOLY_MODULES)
    assert files
    hits = [h for f in files for h in mpoly_uses(f.read_text(encoding="utf-8"), f.name)]
    assert hits == []


def test_mpoly_checker_sees_imports_and_attributes_inside_functions():
    source = (
        "from . import polys\n"
        "from .polys import divides\n"
        "def f():\n"
        "    from lapspec.polys import MPoly as P\n"
        "    return polys.MPoly.var('s')\n"
    )
    assert mpoly_uses(source) == [
        "<source>:4: import MPoly",
        "<source>:5: .MPoly",
    ]
