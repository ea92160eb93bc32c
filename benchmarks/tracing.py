"""Spans at the module boundaries of perronfem, recorded from outside.

The tracer replaces the public functions each caller module binds (for
example ``perronfem.verification.kernel``) with wrappers that record a
span: name, layer, start, end, parent and run id. Sparse LU
factorizations and dense eigensolves are counted by wrapping
``scipy.sparse.linalg.splu`` and ``scipy.linalg.eig``; each count goes
to the innermost open span. Spans stay in memory until ``dump``.
Nothing inside the package changes. A binding the package no longer
has is skipped and listed under ``missing``; its metrics read 0.

``layer_metrics`` turns a dumped trace into the per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import time
import tracemalloc

import numpy as np

LAYERS = ("mesh", "assembly", "spectral", "semigroup", "parabolic",
          "lattice", "verification", "cli", "svgplot")

#: (caller module, bound name, span name); the layer is the span name's
#: first component. expressions counts in cli.config.
BINDINGS = (
    ("perronfem.cli", "_cmd_verify", "cli.command"),
    ("perronfem.cli", "_cmd_parabolic", "cli.command"),
    ("perronfem.cli", "_load_config", "cli.config"),
    ("perronfem.cli", "_resolve_mesh", "cli.config"),
    ("perronfem.cli", "_resolve_coefficients", "cli.config"),
    ("perronfem.cli", "_resolve_evolution", "cli.config"),
    ("perronfem.cli", "_resolve_phi", "cli.config"),
    ("perronfem.cli", "evaluate_field", "cli.config"),
    ("perronfem.cli", "_write_json", "cli.write"),
    ("perronfem.cli", "_write_trajectory_csv", "cli.write"),
    ("perronfem.cli", "generate_structured", "mesh.generate"),
    ("perronfem.cli", "coefficients_from_dict", "assembly.coefficients"),
    ("perronfem.cli", "run_suite", "verification.run_suite"),
    ("perronfem.cli", "solve_mild", "parabolic.solve_mild"),
    ("perronfem.cli", "strong_positivity_check",
     "parabolic.strong_positivity"),
    ("perronfem.cli", "make_test_bank", "parabolic.test_bank"),
    ("perronfem.cli", "very_weak_residual", "parabolic.weak_residual"),
    ("perronfem.cli", "render_strip", "svgplot.render"),
    ("perronfem.cli", "emit_heatmap", "svgplot.render"),
    ("perronfem.verification", "assemble", "assembly.assemble"),
    ("perronfem.verification", "ellipticity_check", "assembly.ellipticity"),
    ("perronfem.verification", "mmatrix_report", "assembly.mmatrix"),
    ("perronfem.verification", "check_corkscrew", "mesh.corkscrew"),
    ("perronfem.verification", "kernel", "semigroup.kernel"),
    ("perronfem.verification", "kernel_positivity_report",
     "semigroup.kernel_report"),
    ("perronfem.verification", "positivity_improving_check",
     "semigroup.positivity_improving"),
    ("perronfem.verification", "principal_eig", "spectral.principal_eig"),
    ("perronfem.verification", "spectral_gap", "spectral.spectral_gap"),
    ("perronfem.verification", "certify_positivity", "spectral.certify"),
    ("perronfem.verification", "complex_robin_bound",
     "spectral.complex_robin_bound"),
    # verification reaches the oracle through the module object
    ("perronfem.lattice", "is_irreducible", "lattice.oracle"),
    ("perronfem.lattice", "positivity_improving_equiv", "lattice.oracle"),
    ("perronfem.lattice", "perron_report", "lattice.oracle"),
    ("perronfem.spectral", "assemble", "assembly.assemble"),
    ("perronfem.spectral", "principal_eig", "spectral.principal_eig"),
    ("perronfem.semigroup", "mmatrix_report", "assembly.mmatrix"),
    ("perronfem.semigroup", "propagation_threshold", "semigroup.threshold"),
    ("perronfem.semigroup", "region_vertices", "spectral.region"),
    ("perronfem.parabolic", "assemble_volume", "assembly.assemble_volume"),
    ("perronfem.parabolic", "_interior_threshold", "parabolic.threshold"),
    ("perronfem.assembly", "assemble_volume", "assembly.assemble_volume"),
)

#: spans inside which tracemalloc records the allocation peak, on the
#: first call only: tracing every allocation made the n = 24 kernel march
#: 1.75 times slower
HEAVY = ("semigroup.kernel", "parabolic.strong_positivity")

ASSEMBLY_SPANS = ("assembly.assemble", "assembly.assemble_volume")


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=12)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.shape}{a.dtype}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _assembly_key(fn, name, args, kwargs) -> str:
    """Identity of an assembly input: mesh and coefficient contents, the
    boundary mode and the lumping switches (not the corkscrew flag)."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    inputs = bound.arguments
    mesh, coeffs = inputs["mesh"], inputs["coeffs"]
    switches = sorted((k, v) for k, v in inputs.items()
                      if k == "mode" or k.startswith("lump"))
    return "|".join([
        name, repr(switches),
        _digest(mesh.vertices, mesh.triangles, mesh.boundary_edges,
                np.array([str(tag) for tag in mesh.boundary_tags])),
        _digest(*(getattr(coeffs, f) for f in ("a", "b", "c", "c0", "beta"))),
        repr(coeffs.mu)])


class _LUProxy:
    """Delegates to a SuperLU object and counts solves and columns."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        cols = rhs.shape[1] if getattr(rhs, "ndim", 1) == 2 else 1
        self._tracer.count("lu_solves", 1)
        self._tracer.count("lu_solve_columns", cols)
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._peaked = set()
        self.missing = []       # bindings the program no longer has

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> dict:
        span = {"name": name, "layer": name.split(".", 1)[0],
                "run_id": self.run_id,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "id": len(self.spans), "counts": {}, "attrs": {},
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        if self._stack:
            counts = self._stack[-1]["counts"]
            counts[key] = counts.get(key, 0) + n

    def note(self, key: str, value) -> None:
        if self._stack:
            self._stack[-1]["attrs"].setdefault(key, []).append(value)

    def wrap(self, fn, name: str):
        heavy = name in HEAVY
        assembly = name in ASSEMBLY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            own_malloc = heavy and name not in self._peaked \
                and not tracemalloc.is_tracing()
            if own_malloc:
                self._peaked.add(name)
                tracemalloc.start()
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
                if own_malloc:
                    span["attrs"]["peak_bytes"] = \
                        tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            self._describe(span, fn, name, args, kwargs, result, assembly)
            return result

        return traced

    def _describe(self, span, fn, name, args, kwargs, result, assembly):
        attrs = span["attrs"]
        if name == "mesh.generate":
            attrs["n_vertices"] = int(result.n_vertices)
        elif assembly:
            attrs["key"] = _assembly_key(fn, name, args, kwargs)
            stiffness = result[0] if isinstance(result, tuple) \
                else result.stiffness
            attrs["n_dof"] = int(stiffness.shape[0])
            attrs["stiffness_nnz"] = int(stiffness.nnz)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the bindings for the rest of the process."""
        import scipy.linalg
        import scipy.sparse.linalg
        verification = importlib.import_module("perronfem.verification")
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(getattr(module, attr), name))
        registry = tuple(
            type(e)(e.label, e.statement,
                    self.wrap(e.runner, f"verification.check.{e.label}"))
            for e in verification.REGISTRY)
        verification.REGISTRY = registry

        real_splu = scipy.sparse.linalg.splu

        def splu(A, *args, **kwargs):
            lu = real_splu(A, *args, **kwargs)
            self.count("lu_factorizations", 1)
            self.note("lu_key", _digest(A.data, A.indices, A.indptr))
            self.note("lu_fill", int(lu.L.nnz + lu.U.nnz))
            return _LUProxy(lu, self)

        scipy.sparse.linalg.splu = splu
        real_eig = scipy.linalg.eig

        def dense_eig(*args, **kwargs):
            outer = self._stack[-1]["layer"] if self._stack else "scipy"
            span = self._open(f"{outer}.dense_eig")
            try:
                return real_eig(*args, **kwargs)
            finally:
                self._close(span)

        scipy.linalg.eig = dense_eig

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "missing": self.missing,
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# aggregation

def _duration(span) -> float:
    return span["end"] - span["start"]


class _Trace:
    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s["parent"], []).append(s)

    def named(self, names, outermost=True):
        """Spans with a name in ``names``; with ``outermost``, only those
        with no ancestor of such a name."""
        names = {names} if isinstance(names, str) else set(names)
        picked = []
        for s in self.spans:
            if s["name"] not in names:
                continue
            if outermost:
                p = s["parent"]
                while p is not None and self.by_id[p]["name"] not in names:
                    p = self.by_id[p]["parent"]
                if p is not None:
                    continue
            picked.append(s)
        return picked

    def total(self, names) -> float:
        return sum(_duration(s) for s in self.named(names))

    def self_time(self, spans) -> float:
        return sum(_duration(s) - sum(_duration(c) for c in
                                      self.children.get(s["id"], ()))
                   for s in spans)

    def layer_counts(self, layer, key) -> int:
        return sum(s["counts"].get(key, 0) for s in self.spans
                   if s["layer"] == layer)

    def layer_notes(self, layer, key) -> list:
        return [v for s in self.spans if s["layer"] == layer
                for v in s["attrs"].get(key, ())]

    def peak_mb(self, name) -> float:
        peaks = [s["attrs"].get("peak_bytes", 0) for s in self.named(name)]
        return max(peaks, default=0) / 2 ** 20


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _lu_metrics(t: _Trace, layer: str, columns: bool) -> dict:
    factorizations = t.layer_counts(layer, "lu_factorizations")
    distinct = len(set(t.layer_notes(layer, "lu_key")))
    out = {
        f"{layer}.lu_factorizations": factorizations,
        f"{layer}.lu_refactor_ratio": _ratio(factorizations, distinct),
        f"{layer}.lu_fill_nnz": max(t.layer_notes(layer, "lu_fill"),
                                    default=0),
        f"{layer}.lu_solves": t.layer_counts(layer, "lu_solves"),
    }
    if columns:
        out[f"{layer}.lu_solve_columns"] = \
            t.layer_counts(layer, "lu_solve_columns")
    return out


def layer_metrics(spans, labels) -> dict:
    """Per-layer metrics of one traced run; metrics of layers the run did
    not enter read 0."""
    t = _Trace(spans)
    m = {}
    gen = t.named("mesh.generate")
    m["mesh.generate_s"] = t.total("mesh.generate")
    m["mesh.n_vertices"] = max((s["attrs"]["n_vertices"] for s in gen),
                               default=0)
    m["mesh.corkscrew_s"] = t.total("mesh.corkscrew")
    m["mesh.corkscrew_calls"] = len(t.named("mesh.corkscrew"))

    assembled = t.named(ASSEMBLY_SPANS)
    keys = {s["attrs"]["key"] for s in assembled}
    largest = max(assembled, key=lambda s: s["attrs"]["n_dof"], default=None)
    m["assembly.assemble_s"] = t.total(ASSEMBLY_SPANS)
    m["assembly.assemble_calls"] = len(assembled)
    m["assembly.repeat_ratio"] = _ratio(len(assembled), len(keys))
    m["assembly.n_dof"] = largest["attrs"]["n_dof"] if largest else 0
    m["assembly.stiffness_nnz"] = \
        largest["attrs"]["stiffness_nnz"] if largest else 0

    m["spectral.principal_eig_s"] = t.total("spectral.principal_eig")
    m["spectral.spectral_gap_s"] = t.total("spectral.spectral_gap")
    m["spectral.complex_robin_bound_s"] = \
        t.total("spectral.complex_robin_bound")
    m["spectral.eig_calls"] = len(t.named(
        ("spectral.principal_eig", "spectral.spectral_gap"),
        outermost=False))
    m.update(_lu_metrics(t, "spectral", columns=False))
    m["spectral.dense_eig_calls"] = len(t.named("spectral.dense_eig"))
    m["spectral.dense_eig_s"] = t.total("spectral.dense_eig")

    m["semigroup.kernel_s"] = t.total("semigroup.kernel")
    m["semigroup.kernel_calls"] = len(t.named("semigroup.kernel"))
    m["semigroup.kernel_report_s"] = t.total("semigroup.kernel_report")
    m["semigroup.kernel_peak_mb"] = t.peak_mb("semigroup.kernel")
    m["semigroup.positivity_improving_s"] = \
        t.total("semigroup.positivity_improving")
    m["semigroup.threshold_s"] = t.total("semigroup.threshold")
    m.update(_lu_metrics(t, "semigroup", columns=True))

    m["parabolic.solve_mild_s"] = t.total("parabolic.solve_mild")
    m["parabolic.lu_solves"] = t.layer_counts("parabolic", "lu_solves")
    m["parabolic.strong_positivity_s"] = \
        t.total("parabolic.strong_positivity")
    m["parabolic.strong_positivity_peak_mb"] = \
        t.peak_mb("parabolic.strong_positivity")
    m["parabolic.weak_residual_s"] = t.total("parabolic.weak_residual")

    m["lattice.oracle_s"] = t.total("lattice.oracle")
    for label in labels:
        m[f"verification.check.{label}_s"] = \
            t.total(f"verification.check.{label}")

    m["cli.config_s"] = t.self_time(t.named("cli.config", outermost=False))
    m["cli.write_s"] = t.total("cli.write")
    m["svgplot.render_s"] = t.total("svgplot.render")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = t.self_time(
            [s for s in spans if s["layer"] == layer])
    return m
