"""The benchmark tracer binds package names from outside; a binding the
package no longer has is skipped and its per-layer metrics read 0, so
every binding must resolve, save the six listed below."""

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
    # the graph diameter, the names cli imported only for the tracer,
    # region_vertices (every mode's region is the free vertices) and
    # spectral's assemble (the complex-Robin bound reads its real-part
    # operator off the assembled one) are deleted from the package, while
    # benchmarks/tracing.py, which a change to the benchmark must edit,
    # still binds them: their metrics read 0 until then. Any other binding
    # that stops resolving fails here.
    assert tracing.BINDINGS and sorted(missing) == [
        "perronfem.cli.strong_positivity_check",
        "perronfem.cli.very_weak_residual",
        "perronfem.parabolic._interior_threshold",
        "perronfem.semigroup.propagation_threshold",
        "perronfem.semigroup.region_vertices",
        "perronfem.spectral.assemble",
    ]
