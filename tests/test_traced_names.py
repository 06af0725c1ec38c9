"""The benchmark tracer wraps some lapspec callables by name.

perfbench/tracer.py names the cli entry point (CLI_ENTRY) and the MPoly
methods it times (METHODS), and perfbench/run.py reads its per-layer
metrics off the spans of named callables (PER_LAYER_SPANS). Deleting or
renaming one of them would only break the traced benchmark run, or make
its metric read 0 in every run; these tests make it fail the suite first.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: The tracer times matrices.char_poly as two spans, by the kind of matrix.
SPAN_KINDS = {"matrices.char_poly.int": "matrices.char_poly", "matrices.char_poly.sym": "matrices.char_poly"}

#: Span names of PER_LAYER_SPANS whose callable is gone from lapspec, so
#: their metrics read 0. ROADMAP item 1's step 1b, a benchmark change,
#: drops them from perfbench/run.py, and must empty this set with it.
STALE_SPANS = {
    "spectra.algebraic_connectivity",
    "polys.isolate_roots",
    "polys.sturm_count",
    "polys.sign_at",
    "enumeration.config_tag",
    "partitions.eigenvalue_containment_check",
}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _per_layer_spans():
    """PER_LAYER_SPANS of perfbench/run.py, read from its source."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        targets = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if targets == ["PER_LAYER_SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no PER_LAYER_SPANS")


def test_every_traced_name_exists():
    tracer = _tracer()
    cli = importlib.import_module(f"{tracer.PACKAGE}.cli")
    assert callable(getattr(cli, tracer.CLI_ENTRY))
    assert tracer.METHODS
    for short, classes in tracer.METHODS.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{short}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for meth in methods:
                assert callable(vars(cls).get(meth)), f"{short}.{cls_name}.{meth}"


def test_every_per_layer_span_names_a_traced_callable():
    # the names the tracer gives its spans: each module's public functions
    # (the cli's entry point only) and the METHODS it wraps
    tracer = _tracer()
    traced = {
        f"{short}.{cls}.{meth}"
        for short, classes in tracer.METHODS.items()
        for cls, meths in classes.items()
        for meth in meths
    }
    for short in tracer.MODULES:
        module = importlib.import_module(f"{tracer.PACKAGE}.{short}")
        for attr, fn in tracer._public_functions(module):
            if short != "cli" or attr == tracer.CLI_ENTRY:
                assert callable(fn)
                traced.add(f"{short}.{attr}")
    names = {name for _, _, name, _ in _per_layer_spans()}
    assert names
    # a stale name that resolves again, or leaves PER_LAYER_SPANS, fails too
    assert {name for name in names if SPAN_KINDS.get(name, name) not in traced} == STALE_SPANS
