"""Layering rules for the lapspec modules.

Every src/lapspec/*.py is parsed with ast, including imports inside
function bodies. No module imports a private name from another: a
`from .x import _name` (or `from lapspec.x import _name`) fails the test.
And MPoly, the sparse polynomial of the symbolic Z[s,t] catalog, is used
only by polys, families and the package namespace: every other module
works on integer coefficient lists, so a `from .polys import MPoly` or a
`polys.MPoly` elsewhere fails the test. No module imports multiprocessing:
the classification sweep runs in one process. The exact kernels, polys
and matrices, use no floating point: a float literal, a use of float, or
any math name other than its integer functions fails the test.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lapspec"
MPOLY_MODULES = {"polys.py", "families.py", "__init__.py"}
EXACT_MODULES = ("polys.py", "matrices.py")
# the math functions that take and return only integers
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}


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


def module_imports(source: str, name: str, filename: str = "<source>"):
    """Imports of the top-level module name (or a submodule of it)."""
    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        hits.extend(
            f"{filename}:{node.lineno}: import {module}"
            for module in modules
            if module == name or module.startswith(name + ".")
        )
    return hits


def float_uses(source: str, filename: str = "<source>"):
    """Float literals, uses of the name float, and math names outside
    INTEGER_MATH (imported from math or read as math.<name>)."""
    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            hits.append(f"{filename}:{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            hits.append(f"{filename}:{node.lineno}: float")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            hits.extend(
                f"{filename}:{node.lineno}: math.{alias.name}"
                for alias in node.names
                if alias.name not in INTEGER_MATH
            )
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            hits.append(f"{filename}:{node.lineno}: math.{node.attr}")
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


def test_no_module_imports_multiprocessing():
    files = sorted(SRC.glob("*.py"))
    assert files
    hits = [h for f in files for h in module_imports(f.read_text(encoding="utf-8"), "multiprocessing", f.name)]
    assert hits == []


def test_import_checker_sees_imports_inside_functions():
    source = (
        "import os, multiprocessing.pool\n"
        "from . import multiprocessing\n"
        "def f():\n"
        "    from multiprocessing import Pool\n"
        "    import multiprocessingx\n"
    )
    assert module_imports(source, "multiprocessing") == [
        "<source>:1: import multiprocessing.pool",
        "<source>:4: import multiprocessing",
    ]


def test_exact_kernels_use_no_floats():
    hits = [h for name in EXACT_MODULES for h in float_uses((SRC / name).read_text(encoding="utf-8"), name)]
    assert hits == []


def test_float_checker_sees_literals_calls_and_math_functions():
    source = (
        "import math\n"
        "from math import gcd, sqrt\n"
        "def f(x):\n"
        "    y = float(x) + 0.5 + 1e3\n"
        "    return math.log2(y), math.isqrt(4), gcd(2, 4), 2j\n"
    )
    assert sorted(float_uses(source)) == [
        "<source>:2: math.sqrt",
        "<source>:4: float",
        "<source>:4: literal 0.5",
        "<source>:4: literal 1000.0",
        "<source>:5: literal 2j",
        "<source>:5: math.log2",
    ]
