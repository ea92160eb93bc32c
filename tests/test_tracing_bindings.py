"""The benchmark tracer binds package names from outside; a binding the
package no longer has is skipped and its per-layer metrics read 0, so
every binding must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_tracer_binding_resolves():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.BINDINGS
               if not hasattr(importlib.import_module(module), attr)]
    assert tracing.BINDINGS and missing == []
