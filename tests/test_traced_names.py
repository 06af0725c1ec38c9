"""The benchmark tracer wraps some lapspec callables by name.

perfbench/tracer.py names the cli entry point (CLI_ENTRY) and the MPoly
methods it times (METHODS). Deleting or renaming one of them would only
break the traced benchmark run; this test makes it fail the suite first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
