"""Layering rules for the lapspec modules.

Every src/lapspec/*.py is parsed with ast, including imports inside
function bodies. No module imports a private name from another: a
`from .x import _name` (or `from lapspec.x import _name`) fails the test.
And MPoly, the sparse polynomial of the symbolic Z[s,t] catalog, is used
only by polys, families and the package namespace: every other module
works on integer coefficient lists, so a `from .polys import MPoly` or a
`polys.MPoly` elsewhere fails the test. matrices is int-only:
IntMatrix raises TypeError on any entry that is not an int, so no MPoly
reaches char_poly or its cache, and Berkowitz over Z[s,t] lives in
tests/oracle_helpers.py as the symbolic polynomials' oracle. No module imports multiprocessing:
the classification sweep runs in one process. The exact kernels, polys
and matrices, use no floating point: a float literal, a use of float, or
any math name other than its integer functions fails the test. matrices
imports nothing from polys: the value tables fold ints and build no
polynomial. And no function, class or method defined in a module is
dead: each is referenced by code elsewhere in the package, as a name or
an attribute, outside its own body. Imports, and so the
package's re-exports, and docstrings are not references. The names in
UNREFERENCED are exempt, each with its reason, and an exemption fails the
test once its definition is gone or has a caller. Importing the CLI,
loading the catalog and running two commands in a fresh interpreter loads
none of the heavy standard modules in COLD_START_EXCLUDED.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lapspec"
MPOLY_MODULES = {"polys.py", "families.py", "__init__.py"}
EXACT_MODULES = ("polys.py", "matrices.py")
# the math functions that take and return only integers
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}
# modules a one-shot CLI call does not run, but that dataclasses (inspect,
# ast, dis, tokenize), importlib.resources (zipfile, tempfile) or argparse
# (gettext, locale) would load
COLD_START_EXCLUDED = (
    "dataclasses",
    "inspect",
    "ast",
    "dis",
    "tokenize",
    "importlib.resources",
    "zipfile",
    "tempfile",
    "argparse",
    "gettext",
    "locale",
)
# defined in the package with no caller in it, each with its reason
UNREFERENCED = {
    "canonical_form": (
        "the benchmark's queries workload (perfbench/worker.py) and the CI "
        "canonical-form digest call it as lapspec.enumeration.canonical_form; "
        "no command does"
    ),
}


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


def imports_from(source: str, module: str, filename: str = "<source>"):
    """The names imported from the package module, and an entry "*" for
    each import of the module itself, which reaches every name in it."""
    names = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom):
            base = (node.module or "") if node.level else (node.module or "").removeprefix("lapspec")
            base = base.lstrip(".")
            if base == module:
                names.extend(alias.name for alias in node.names)
            elif base == "":
                names.extend("*" for alias in node.names if alias.name == module)
        elif isinstance(node, ast.Import):
            names.extend("*" for alias in node.names if alias.name == f"lapspec.{module}")
    return names


def _definitions(tree):
    """(name, node) of each top-level function and class and of each
    method other than a dunder, a method named Class.method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _references(tree) -> Counter:
    """How often each name is read and each attribute taken in tree."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def unreferenced_definitions(sources: dict):
    """module:name of each definition (see _definitions) in the sources,
    filename to text, that no code of any of them references outside the
    definition's own body."""
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    total = sum(map(_references, trees.values()), Counter())
    hits = []
    for filename, tree in trees.items():
        for name, node in _definitions(tree):
            bare = name.rpartition(".")[2]
            if total[bare] == _references(node)[bare]:
                hits.append(f"{filename}:{name}")
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


def test_matrices_imports_nothing_from_polys():
    source = (SRC / "matrices.py").read_text(encoding="utf-8")
    assert imports_from(source, "polys", "matrices.py") == []


def test_polys_import_checker_sees_names_and_module_imports():
    source = (
        "from .polys import interpolate, poly_mul as pm\n"
        "from . import polys, graphs\n"
        "import lapspec.polys\n"
        "def f():\n"
        "    from lapspec.polys import only_integer_roots\n"
        "    from .graphs import realize\n"
    )
    assert sorted(imports_from(source, "polys")) == ["*", "*", "interpolate", "only_integer_roots", "poly_mul"]


def test_every_definition_has_a_caller_in_the_package():
    sources = {f.stem: f.read_text(encoding="utf-8") for f in sorted(SRC.glob("*.py"))}
    assert len(sources) > 5
    hits = unreferenced_definitions(sources)
    assert [h for h in hits if h.partition(":")[2] not in UNREFERENCED] == []
    # each exemption has its reason, and one whose name gained a caller or
    # is no longer defined is stale
    assert all(UNREFERENCED.values())
    assert sorted(h.partition(":")[2] for h in hits) == sorted(UNREFERENCED)


def test_dead_code_checker_skips_own_body_imports_and_docstrings():
    sources = {
        "a": (
            '"""used_in_doc is named here only."""\n'
            "from .b import imported_only, called\n"
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else called()\n"
            "def used_in_doc():\n"
            "    pass\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self.size = 0\n"
            "    def grow(self):\n"
            "        return self.shrink()\n"
            "    def shrink(self):\n"
            "        return Box()\n"
        ),
        "b": "def imported_only():\n    pass\ndef called():\n    return recursive, Box\n",
    }
    assert unreferenced_definitions(sources) == [
        "a:used_in_doc",
        "a:Box.grow",
        "b:imported_only",
    ]


def test_cold_start_loads_no_unused_standard_modules():
    # -S skips site, whose .pth files may import any of these first; two
    # whole commands run, their stdout sent to a buffer
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(SRC.parent)!r})\n"
        "import lapspec.cli\n"
        "lapspec.families.load_cases()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert lapspec.cli.main(['families', '--case', '4.4']) == 0\n"
        "    assert lapspec.cli.main(['spectrum', '--builder', 'star 6']) == 0\n"
        f"print(sorted(m for m in {COLD_START_EXCLUDED!r} if m in sys.modules))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]", done.stdout
