"""Batch front end: mesh generation, eigen/semigroup/parabolic runs, the
matrix-semigroup oracle, and the verification suite.

All subcommands that take ``--config`` read a strict JSON file (unknown
keys are rejected, paths resolve relative to the config file) and write
deterministic outputs into the configured output directory: identical
config reproduces identical bytes. A command makes the directory just
before its first write, so a rejected input or a failed solve leaves none.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import struct
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .assembly import AssemblyError, Verdict, coefficients_from_dict
from .expressions import evaluate_field
from .lattice import MetzlerGenerator, is_irreducible, perron_report, \
    positivity_improving_equiv
from .mesh import MeshError, generate_structured, load_mesh, quality, \
    save_mesh
from .parabolic import BoundaryData, PositivityScan, WeakResidual, \
    make_test_bank, solve_mild
from .semigroup import EvolutionConfig, default_evolution, \
    kernel_certificate, kernel_positivity_report, march
from .spectral import SolverError, certify_positivity, principal_eig, \
    spectral_gap
from .svgplot import emit_heatmap, render_strip, strip_steps
from .verification import Problem, jsonable, run_suite, suite_labels

KERNEL_MAGIC = b"KTMAT001"
#: largest dense kernel ``perronfem kernel`` marches, in estimated bytes
DENSE_KERNEL_MAX_BYTES = 2 ** 30
# states a parabolic run marches ahead of its CSV rows: one row's text
# evicts the step factor and the residual's profiles from cache, so
# stepping and pairing state by state between rows made the run 7% slower
MARCH_AHEAD = 16


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# config plumbing

def _check_keys(data, allowed, context: str) -> dict:
    """data, once it is known to be an object with only allowed keys."""
    if not isinstance(data, dict):
        raise CliError(f"{context}: expected an object")
    unknown = set(data) - set(allowed)
    if unknown:
        raise CliError(f"{context}: unknown key(s) {sorted(unknown)}")
    return data


def _number(spec: dict, key: str, default, context: str, kind=float,
            finite: bool = True):
    """spec[key] as a float or an int, or default when absent (required
    when default is None); anything but a JSON number, for an int a number
    with a fractional part, or (unless a caller that words its own range
    check passes ``finite=False``) JSON's NaN or Infinity, is a CliError
    naming the section and the key."""
    value = _required(spec, key, context, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliError(f"{context}: {key} must be a number, got {value!r}")
    if kind is int and not float(value).is_integer():
        raise CliError(f"{context}: {key} must be an integer, got {value!r}")
    if finite and not math.isfinite(value):
        raise CliError(f"{context}: {key} must be finite, got {value!r}")
    return kind(value)


def _matrix(spec: dict, key: str, context: str) -> np.ndarray:
    """spec[key], a required nonempty list of equal-length rows of finite
    JSON numbers, as a float array; anything else is a CliError naming the
    section and the key."""
    rows = _required(spec, key, context)
    if not (isinstance(rows, list) and rows and all(
            isinstance(row, list) and len(row) == len(rows[0])
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v) for v in row) for row in rows)):
        raise CliError(f"{context}: {key} must be a list of equal-length "
                       f"rows of finite numbers")
    return np.array(rows, dtype=float)


def _string(spec: dict, key: str, default, context: str,
            numbers: bool = False) -> str:
    """spec[key] as a string, or default when absent (required when
    default is None); with ``numbers`` a JSON number is taken as its text,
    so a constant field may be written 5 or "5"."""
    value = _required(spec, key, context, default)
    if numbers and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        value = str(value)
    if not isinstance(value, str):
        kinds = "a string or a number" if numbers else "a string"
        raise CliError(f"{context}: {key} must be {kinds}, got {value!r}")
    return value


def _required(spec: dict, key: str, context: str, default=None):
    """spec[key]; default when it is absent, a CliError when there is no
    default either."""
    if key in spec:
        return spec[key]
    if default is None:
        raise CliError(f"{context}: missing key {key!r}")
    return default


def _load_config(path: str) -> tuple[dict, Path]:
    p = Path(path)
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path}: {exc}") from None
    if not isinstance(data, dict):
        raise CliError(f"config {path}: top level must be an object")
    return data, p.parent


def _resolve_mesh(spec, base: Path):
    if isinstance(spec, str):
        spec = {"path": spec}
    if not isinstance(spec, dict):
        raise CliError("mesh: expected an object or a path string")
    if "path" in spec:
        _check_keys(spec, {"path"}, "mesh")
        path = base / _string(spec, "path", None, "mesh")
        return load_mesh(path.read_text(encoding="utf-8"))
    _check_keys(spec, {"shape", "n", "tags", "width", "height"}, "mesh")
    tags = spec.get("tags", "flux")
    if not isinstance(tags, (str, dict)):
        raise CliError(f"mesh: tags must be a string or an object, got "
                       f"{tags!r}")
    shape = _string(spec, "shape", "unit_square", "mesh")
    sizes = {key: _number(spec, key, None, "mesh")
             for key in ("width", "height") if key in spec}
    if sizes and shape != "rectangle":  # the others have fixed sizes
        raise CliError(f"mesh: {next(iter(sizes))} applies only to the "
                       f"rectangle shape, not {shape}")
    try:
        return generate_structured(
            shape, _number(spec, "n", 8, "mesh", int), tags, **sizes)
    except MeshError as exc:
        raise CliError(f"mesh: {exc}") from None


def _resolve_coefficients(spec, base: Path, mesh):
    if isinstance(spec, str):
        spec = json.loads((base / spec).read_text(encoding="utf-8"))
    if not isinstance(spec, dict):
        raise CliError("coefficients: expected an object or a path string")
    try:
        return coefficients_from_dict(spec, mesh)
    except (AssemblyError, ValueError) as exc:
        raise CliError(f"coefficients: {exc}") from None


def _resolve_evolution(spec, mesh) -> EvolutionConfig:
    """The evolution block as a config, default_evolution filling in what
    it leaves out."""
    spec = _check_keys({} if spec is None else spec,
                       {"scheme", "dt", "t_end", "mass"}, "evolution")
    for key in ("dt", "t_end"):
        if key in spec:
            _number(spec, key, None, "evolution", finite=False)
    return default_evolution(mesh, **spec)


def _solver_tol(cfg: dict) -> float:
    solver = _check_keys(cfg.get("solver", {}), {"tol"}, "solver")
    tol = _number(solver, "tol", 1e-10, "solver", finite=False)
    if not (math.isfinite(tol) and tol > 0):
        raise CliError(f"solver: tol must be positive and finite, got {tol}")
    return tol


def _load_inputs(args, keys) -> tuple:
    """(config, its directory, mesh, coefficients, boundary mode) of a
    command whose config may hold only ``keys``."""
    cfg, base = _load_config(args.config)
    _check_keys(cfg, keys, "config")
    mesh = _resolve_mesh(cfg.get("mesh", {}), base)
    return (cfg, base, mesh,
            *_resolve_coefficients(cfg.get("coefficients", {}), base, mesh))


def _write_json(path: Path | None, obj) -> None:
    """obj as indented, key-sorted JSON text, to the file at path or, when
    path is None, to stdout."""
    text = json.dumps(jsonable(obj), indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, encoding="utf-8", newline="\n")


def _float_text(row: np.ndarray) -> bytes | memoryview:
    """The bytes of ``",".join(map(repr, row.tolist()))`` for a float64
    vector. orjson writes repr's shortest round-trip digits, about ten
    times faster, and its positional form for 0 and 1e-4 <= |v| < 1e16;
    its array text is returned as a view inside its brackets, not a copy.
    A row with any other value (repr's 1e-05, 1e+16, nan, inf) is written
    by repr."""
    import orjson  # only trajectory writers load it
    row = np.ascontiguousarray(row, dtype=np.float64)  # native, C order
    size = np.abs(row)
    if np.all((size < 1e16) & ((size >= 1e-4) | (size == 0.0))):
        return memoryview(orjson.dumps(
            row, option=orjson.OPT_SERIALIZE_NUMPY))[1:-1]
    return ",".join(map(repr, row.tolist())).encode("ascii")


def _write_trajectory_csv(path: Path, times, rows) -> np.ndarray:
    """A header, then t and the nodal values of each row (any iterable of
    nodal vectors, one per time) as the repr of each float, a row at a
    time, so one row's text is held at most; returns the last row."""
    rows = iter(rows)
    first = next(rows)
    with open(path, "wb") as fh:
        fh.write(("t," + ",".join(f"v{i}" for i in range(len(first)))
                  + "\n").encode("ascii"))
        for t, row in zip(times, itertools.chain([first], rows)):
            fh.write(b"%s," % repr(float(t)).encode("ascii"))
            fh.write(_float_text(row))
            fh.write(b"\n")
    return row


# ---------------------------------------------------------------------------
# subcommands

def _cmd_mesh(args) -> int:
    tags = args.tags
    if "=" in tags:
        rule = {}
        for part in tags.split(","):
            seg, _, tag = part.partition("=")
            rule[seg.strip()] = tag.strip()
        tags = rule
    sizes = {key: getattr(args, key) for key in ("width", "height")
             if getattr(args, key) is not None}
    mesh = _resolve_mesh({"shape": args.shape, "n": args.n, "tags": tags,
                          **sizes}, Path())
    Path(args.out).write_text(save_mesh(mesh), encoding="utf-8",
                              newline="\n")
    q = quality(mesh)
    print(f"wrote {args.out}: {mesh.n_vertices} vertices, "
          f"{mesh.n_triangles} triangles, "
          f"{len(mesh.boundary_edges)} boundary edges")
    print(f"quality: angles [{q.min_angle:.2f}, {q.max_angle:.2f}] deg, "
          f"nonobtuse={q.is_nonobtuse}, h_max={q.h_max:.6g}")
    return 0


_EIG_KEYS = {"mesh", "coefficients", "solver", "output_dir", "gap_count"}


def _cmd_eig(args) -> int:
    cfg, base, mesh, coeffs, mode = _load_inputs(args, _EIG_KEYS)
    tol = _solver_tol(cfg)
    k = _number(cfg, "gap_count", 2, "config", int)
    if k < 2:
        raise CliError(f"config: gap_count must be at least 2, got {k}")
    out = base / _string(cfg, "output_dir", ".", "config")

    op = Problem(mesh=mesh, coeffs=coeffs, mode=mode).op  # corkscrew-checked
    report = principal_eig(op, tol=tol)
    # one dof has one eigenvalue, and principal_eig's gap is inf
    values = spectral_gap(op, k=min(k, op.n_dof), tol=tol).values \
        if op.n_dof > 1 else [report.lambda1]
    verdict, positivity = certify_positivity(report, op)
    payload = {
        "mode": mode.value,
        "n_dof": op.n_dof,
        "lambda1": complex(report.lambda1),
        "residual": report.residual,
        "gap": report.gap,
        "multiplicity_flag": report.multiplicity_flag,
        "eigenvalues": [complex(v) for v in values],
        "positivity": {**positivity, "passed": verdict is Verdict.PASS},
    }
    full = op.expand(np.real(report.vector))
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "eig_report.json", payload)
    lines = ["vertex,x,y,value"]
    for i, ((x, y), v) in enumerate(zip(mesh.vertices, full)):
        lines.append(f"{i},{float(x)!r},{float(y)!r},{float(v)!r}")
    (out / "eigenvector.csv").write_text("\n".join(lines) + "\n",
                                         encoding="utf-8", newline="\n")
    emit_heatmap(full, mesh, out / "eigenvector.svg")
    print(f"lambda1 = {report.lambda1:.10g} (residual {report.residual:.2e},"
          f" gap {report.gap:.6g})")
    return 0


_EVOLVE_KEYS = {"mesh", "coefficients", "evolution", "u0", "output_dir"}


def _cmd_evolve(args) -> int:
    cfg, base, mesh, coeffs, mode = _load_inputs(args, _EVOLVE_KEYS)
    ecfg = _resolve_evolution(cfg.get("evolution"), mesh)
    out = base / _string(cfg, "output_dir", ".", "config")

    op = Problem(mesh=mesh, coeffs=coeffs, mode=mode).op  # corkscrew-checked
    expr = _string(cfg, "u0", "1", "config", numbers=True)
    u0_full = evaluate_field(expr, mesh.vertices[:, 0], mesh.vertices[:, 1])
    u0 = op.restrict(u0_full).astype(complex if op.is_complex else float)
    times = ecfg.dt * np.arange(ecfg.n_steps + 1)
    states = itertools.chain([u0], march(op, ecfg, u0, ecfg.n_steps))
    out.mkdir(parents=True, exist_ok=True)
    final = _write_trajectory_csv(out / "trajectory.csv", times,
                                  (op.expand(u.real) for u in states))
    emit_heatmap(final, mesh, out / "final_state.svg")
    print(f"evolved {ecfg.n_steps} steps to t = {times[-1]:.6g}; "
          f"final range [{final.min():.6g}, {final.max():.6g}]")
    return 0


_KERNEL_KEYS = {"mesh", "coefficients", "evolution", "output_dir"}


def _cmd_kernel(args) -> int:
    """The dense kernel K(t), every unit point mass marched as one block,
    checked in dof space, then dumped on the full vertex set with zero
    rows and columns at eliminated vertices. A complex operator (the dump
    is real) and a march whose three largest arrays would exceed
    DENSE_KERNEL_MAX_BYTES are refused before the march."""
    cfg, base, mesh, coeffs, mode = _load_inputs(args, _KERNEL_KEYS)
    ecfg = _resolve_evolution(cfg.get("evolution"), mesh)
    n = replace(ecfg, t_end=ecfg.t_end if args.t is None else args.t).n_steps
    op = Problem(mesh=mesh, coeffs=coeffs, mode=mode).op  # corkscrew-checked
    if op.is_complex:
        raise CliError("kernel: the kernel dump is real, so a complex "
                       "operator is refused")
    need = 8 * (2 * op.n_dof ** 2 + mesh.n_vertices ** 2)
    if need > DENSE_KERNEL_MAX_BYTES:
        raise CliError(
            f"kernel: the dense kernel of {op.n_dof} dofs needs about "
            f"{need / 2 ** 20:,.1f} MiB, above the "
            f"{DENSE_KERNEL_MAX_BYTES / 2 ** 20:,.1f} MiB limit")
    out = base / _string(cfg, "output_dir", ".", "config")

    # a loop, not star-unpacking, so only the last state is kept
    for K in march(op, ecfg, np.diag(1.0 / op.mass_lumped), n):
        pass
    t = n * ecfg.dt
    verdict, payload = kernel_positivity_report(
        op, kernel_certificate(op, ecfg), np.arange(op.n_dof), K)
    entries = np.zeros((mesh.n_vertices, mesh.n_vertices))
    entries[np.ix_(op.free_vertices, op.free_vertices)] = K
    del K  # the dump's bytes are a copy: hold two dense arrays, not three
    out.mkdir(parents=True, exist_ok=True)
    write_kernel_dump(out / "kernel.bin", t, entries)
    _write_json(out / "kernel_report.json", {
        "t": t, "n": mesh.n_vertices, "verdict": verdict.value, **payload})
    emit_heatmap(np.diag(entries), mesh, out / "kernel_diagonal.svg")
    print(f"kernel at t = {t:.6g}: min entry "
          f"{payload.get('min_entry', math.nan):.6g}, "
          f"verdict {verdict.value}")
    return 0


def write_kernel_dump(path: Path, t: float, entries: np.ndarray) -> None:
    """Binary kernel dump: 8-byte magic KTMAT001, int64 n, float64 t, then
    n*n row-major little-endian float64 entries."""
    with open(path, "wb") as fh:
        fh.write(KERNEL_MAGIC)
        fh.write(struct.pack("<q", entries.shape[0]))
        fh.write(struct.pack("<d", float(t)))
        fh.write(np.ascontiguousarray(entries, dtype="<f8").tobytes())


def read_kernel_dump(path) -> tuple[float, np.ndarray]:
    raw = Path(path).read_bytes()
    if raw[:8] != KERNEL_MAGIC:
        raise CliError(f"{path}: not a kernel dump (bad magic)")
    n = struct.unpack("<q", raw[8:16])[0]
    t = struct.unpack("<d", raw[16:24])[0]
    entries = np.frombuffer(raw[24:], dtype="<f8").reshape(n, n).copy()
    return t, entries


_PARABOLIC_KEYS = {"mesh", "coefficients", "evolution", "u0", "phi",
                   "test_bank_size", "seed", "output_dir"}


def _resolve_phi(spec, mesh, t_end) -> BoundaryData:
    if spec is None:
        return BoundaryData.constant(mesh, 0.0, t_end)
    if isinstance(spec, (int, float)):
        return BoundaryData.constant(mesh, float(spec), t_end)
    _check_keys(spec, {"constant", "samples"}, "phi")
    if "constant" in spec:
        return BoundaryData.constant(
            mesh, _number(spec, "constant", None, "phi"), t_end)
    samples = spec.get("samples", [])
    if not isinstance(samples, list):
        raise CliError(f"phi: samples must be a list, got {samples!r}")
    bv = mesh.boundary_vertices()
    xy = mesh.vertices[bv]
    times, rows = [], []
    for sample in samples:
        _check_keys(sample, {"t", "expr"}, "phi sample")
        times.append(_number(sample, "t", None, "phi sample"))
        expr = _string(sample, "expr", None, "phi sample", numbers=True)
        rows.append(evaluate_field(expr, xy[:, 0], xy[:, 1]))
    if not times:
        raise CliError("phi: need 'constant' or nonempty 'samples'")
    return BoundaryData(times=np.array(times), values=np.array(rows),
                        boundary_vertices=bv)


def _cmd_parabolic(args) -> int:
    cfg, base, mesh, coeffs, _mode = _load_inputs(args, _PARABOLIC_KEYS)
    ecfg = _resolve_evolution(cfg.get("evolution"), mesh)
    seed = _number(cfg, "seed", 0, "config", int)
    if seed < 0:
        raise CliError(f"config: seed must be a nonnegative integer, got "
                       f"{seed}")
    out = base / _string(cfg, "output_dir", ".", "config")

    u0 = evaluate_field(_string(cfg, "u0", "0", "config", numbers=True),
                        mesh.vertices[:, 0], mesh.vertices[:, 1])
    phi = _resolve_phi(cfg.get("phi"), mesh, ecfg.t_end)
    sol = solve_mild(mesh, coeffs, u0, phi, ecfg)
    times = sol.times
    bank = make_test_bank(
        mesh, times, size=_number(cfg, "test_bank_size", 20, "config", int),
        seed=seed)
    positivity = PositivityScan(sol)
    residual = WeakResidual(sol, bank)
    picks = strip_steps(len(times))
    frames = []

    def states():
        """The one march, MARCH_AHEAD states at a time: a block is fed to
        both checks, its picked states kept for the strip, before its
        rows are written."""
        steps = enumerate(sol.states())
        while block := list(itertools.islice(steps, MARCH_AHEAD)):
            for k, state in block:
                positivity.add(k, state)
                residual.add(k, state)
                if k in picks:
                    frames.append(state)
            yield from (state for _, state in block)

    out.mkdir(parents=True, exist_ok=True)
    _write_trajectory_csv(out / "trajectory.csv", times, states())
    verdict, report = positivity.report()
    weak = residual.value()
    # the march's step factor, the residual's profiles and the bank are
    # freed before the strip's text is built, so they do not raise its peak
    del sol, bank, positivity, residual
    with open(out / "strip.svg", "w", encoding="utf-8", newline="\n") as fh:
        render_strip(frames, times[picks], mesh, fh)
    _write_json(out / "verdict.json", {
        "strong_positivity": {"verdict": verdict.value, **report},
        "very_weak_residual": weak,
        "steps": len(times) - 1,
    })
    print(f"parabolic run: {len(times) - 1} steps, strong positivity "
          f"{verdict.value}, weak residual {weak:.3e}")
    return 0


def _cmd_oracle(args) -> int:
    data = json.loads(Path(args.matrix).read_text(encoding="utf-8"))
    if isinstance(data, dict):
        _check_keys(data, {"Q"}, "oracle input")
    else:
        data = {"Q": data}
    g = MetzlerGenerator(_matrix(data, "Q", "oracle input"))
    irr = is_irreducible(g)
    improving = positivity_improving_equiv(g)
    rep = perron_report(g)
    verdict = {
        "n": g.n,
        "irreducible": irr,
        "positivity_improving": improving,
        "perron": {
            "lambda1": rep.lambda1,
            "simple": rep.simple,
            "gap": rep.gap,
            "vector": [float(v) for v in rep.vector],
            "strictly_positive": bool(np.all(rep.vector > 0)),
        },
    }
    _write_json(Path(args.out) if args.out else None, verdict)
    return 0


_VERIFY_KEYS = {"mesh", "coefficients", "solver", "evolution",
                "corkscrew_delta", "oracle", "output_dir"}


def _cmd_verify(args) -> int:
    cfg, base, mesh, coeffs, mode = _load_inputs(args, _VERIFY_KEYS)
    labels = suite_labels(mode)
    if args.only is not None and args.only not in labels:
        raise CliError(
            "verify: corkscrew runs only in mixed mode"
            if args.only == "corkscrew" else
            f"verify: no check labelled {args.only!r}; the labels are "
            f"{', '.join(labels)}")
    tol = _solver_tol(cfg)
    evolution = _resolve_evolution(cfg.get("evolution"), mesh)
    oracle_matrix = None
    expect_irr = None
    if "oracle" in cfg:
        ospec = _check_keys(cfg["oracle"], {"matrix", "expect_irreducible"},
                            "oracle")
        oracle_matrix = MetzlerGenerator(_matrix(ospec, "matrix", "oracle")).Q
        expect_irr = ospec.get("expect_irreducible")
        if expect_irr is not None and not isinstance(expect_irr, bool):
            raise CliError(f"oracle: expect_irreducible must be true or "
                           f"false, got {expect_irr!r}")
    out = base / _string(cfg, "output_dir", ".", "config")

    problem = Problem(
        mesh=mesh, coeffs=coeffs, mode=mode, solver_tol=tol,
        evolution=evolution,
        corkscrew_delta=_number(cfg, "corkscrew_delta", 0.1, "config"),
        oracle_matrix=oracle_matrix, expect_irreducible=expect_irr)
    problem.op  # an invalid problem is an error, not a suite of FAILs
    report = run_suite(problem, only=args.only)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "verification_report.json", report.to_jsonable())
    (out / "verification_report.txt").write_text(
        report.to_text(), encoding="utf-8", newline="\n")
    sys.stdout.write(report.to_text())
    return 1 if report.failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perronfem",
        description="positivity laboratory for elliptic operators, their "
                    "heat semigroups, and matrix semigroups")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="generate a structured mesh file")
    p.add_argument("--shape", default="unit_square",
                   choices=["unit_square", "rectangle", "l_shape"])
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--tags", default="N",
                   help="one tag (D/N) or segment list like "
                        "'bottom=D,right=N,top=N,left=N'")
    p.add_argument("--width", type=float, help="rectangle only (default 1)")
    p.add_argument("--height", type=float, help="rectangle only (default 1)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("eig", help="principal eigenpair and certificates")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_eig)

    p = sub.add_parser("evolve", help="march the heat semigroup")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("kernel", help="extract the discrete heat kernel")
    p.add_argument("--config", required=True)
    p.add_argument("--t", type=float, default=None)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("parabolic",
                       help="boundary-value parabolic run with verdicts")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_parabolic)

    p = sub.add_parser("oracle",
                       help="matrix-semigroup irreducibility verdicts")
    p.add_argument("--matrix", required=True,
                   help="JSON file with a dense generator matrix")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--config", required=True)
    p.add_argument("--only", default=None,
                   help="run a single registry label")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one command; 0 on success, 1 when ``verify`` reports a FAIL, 2
    with a one-line error on stderr for a rejected input or an allocation
    that failed (a process the kernel kills for memory cannot report).

    The first statement freezes every object alive at that moment (about
    42,500 from the numpy/scipy imports) into the collector's permanent
    generation, so no collection visits them again, the one at interpreter
    exit included: exit falls from 0.10-0.16 s to about 0.02 s. Reference
    counting still frees everything acyclic; a caller that runs ``main``
    many times in one process keeps only the cyclic garbage alive at each
    call's start until exit. Importing the module freezes nothing."""
    gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, MeshError, AssemblyError, SolverError, OSError,
            ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory ({exc or 'no detail'})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
