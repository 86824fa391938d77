"""The names the benchmark's span tracer patches must exist in curvlab.

``perfbench/spans.py`` wraps functions looked up by name; a renamed or
removed function would only fail the traced benchmark run, so it is
checked here as well.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_traced_names_resolve():
    traced = _traced()
    assert traced
    for modname, attr, _ in traced:
        assert callable(getattr(importlib.import_module(modname), attr, None)), f"{modname}.{attr}"
