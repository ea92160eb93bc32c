"""Batch front end: mesh generation, eigen/semigroup/parabolic runs, the
matrix-semigroup oracle, and the verification suite.

All subcommands that take ``--config`` read a strict JSON file (unknown
keys are rejected, paths resolve relative to the config file) and write
deterministic outputs into the configured output directory: identical
config and seed reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np

from .assembly import AssemblyError, coefficients_from_dict
from .expressions import evaluate_field
from .lattice import MetzlerGenerator, is_irreducible, perron_report, \
    positivity_improving_equiv
from .mesh import MeshError, generate_structured, load_mesh, quality, \
    save_mesh
# parabolic feeds PositivityScan and WeakResidual a state at a time; the
# whole-solution checks stay bound here, where benchmarks/tracing.py wraps
# them
from .parabolic import BoundaryData, PositivityScan, WeakResidual, \
    make_test_bank, solve_mild, strong_positivity_check, \
    very_weak_residual  # noqa: F401
from .semigroup import EvolutionConfig, default_evolution, evolve, kernel, \
    kernel_positivity_report
from .spectral import REGION_FOR_MODE, SolverError, certify_positivity, \
    principal_eig, spectral_gap
from .svgplot import emit_heatmap, render_strip, strip_steps
from .verification import Problem, jsonable, run_suite

KERNEL_MAGIC = b"KTMAT001"
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


def _number(spec: dict, key: str, default, context: str, kind=float):
    """spec[key] as a float or an int, or default when absent (required
    when default is None); anything but a JSON number is a CliError naming
    the section."""
    value = spec.get(key, default) if default is not None \
        else _required(spec, key, context)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliError(f"{context}: {key} must be a number, got {value!r}")
    return kind(value)


def _required(spec: dict, key: str, context: str):
    if key not in spec:
        raise CliError(f"{context}: missing key {key!r}")
    return spec[key]


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
        return load_mesh((base / spec["path"]).read_text(encoding="utf-8"))
    _check_keys(spec, {"shape", "n", "tags", "width", "height"}, "mesh")
    try:
        return generate_structured(
            spec.get("shape", "unit_square"),
            _number(spec, "n", 8, "mesh", int), spec.get("tags", "flux"),
            width=_number(spec, "width", 1.0, "mesh"),
            height=_number(spec, "height", 1.0, "mesh"))
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
            _number(spec, key, None, "evolution")
    return default_evolution(mesh, **spec)


def _solver_tol(cfg: dict) -> float:
    solver = _check_keys(cfg.get("solver", {}), {"tol"}, "solver")
    tol = _number(solver, "tol", 1e-10, "solver")
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


def _out_dir(cfg: dict, base: Path) -> Path:
    out = base / cfg.get("output_dir", ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path | None, obj) -> None:
    """obj as indented, key-sorted JSON text, to the file at path or, when
    path is None, to stdout."""
    text = json.dumps(jsonable(obj), indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, encoding="utf-8", newline="\n")


def _write_trajectory_csv(path: Path, times, rows) -> None:
    """A header, then t and the nodal values of each row (any iterable of
    nodal vectors, one per time) as the repr of each float, written a row
    at a time: no more than one row's text is ever held."""
    rows = iter(rows)
    first = next(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(f"v{i}" for i in range(len(first))) + "\n")
        for t, row in zip(times, itertools.chain([first], rows)):
            fh.write(",".join(map(repr, [float(t)] + row.tolist())) + "\n")


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
    mesh = generate_structured(args.shape, args.n, tags,
                               width=args.width, height=args.height)
    Path(args.out).write_text(save_mesh(mesh), encoding="utf-8",
                              newline="\n")
    q = quality(mesh)
    print(f"wrote {args.out}: {mesh.n_vertices} vertices, "
          f"{mesh.n_triangles} triangles, "
          f"{len(mesh.boundary_edges)} boundary edges")
    print(f"quality: angles [{q.min_angle:.2f}, {q.max_angle:.2f}] deg, "
          f"nonobtuse={q.is_nonobtuse}, h_max={q.h_max:.6g}")
    return 0


_EIG_KEYS = {"mesh", "coefficients", "solver", "seed", "output_dir",
             "emit_csv", "emit_svg", "gap_count"}


def _cmd_eig(args) -> int:
    cfg, base, mesh, coeffs, mode = _load_inputs(args, _EIG_KEYS)
    tol = _solver_tol(cfg)
    out = _out_dir(cfg, base)

    op = Problem(mesh=mesh, coeffs=coeffs, mode=mode).op  # corkscrew-checked
    report = principal_eig(op, tol=tol)
    gaps = spectral_gap(op, k=min(_number(cfg, "gap_count", 2, "config", int),
                                  op.n_dof), tol=tol)
    payload = {
        "mode": mode.value,
        "n_dof": op.n_dof,
        "lambda1": complex(report.lambda1),
        "residual": report.residual,
        "gap": report.gap,
        "multiplicity_flag": report.multiplicity_flag,
        "eigenvalues": [complex(v) for v in gaps.values],
    }
    full = op.expand(np.real(report.vector))
    if mode in REGION_FOR_MODE:
        cert = certify_positivity(report, op)
        payload["positivity"] = {**cert.payload(), "passed": cert.passed}
    _write_json(out / "eig_report.json", payload)
    if cfg.get("emit_csv", True):
        lines = ["vertex,x,y,value"]
        for i, ((x, y), v) in enumerate(zip(mesh.vertices, full)):
            lines.append(f"{i},{float(x)!r},{float(y)!r},{float(v)!r}")
        (out / "eigenvector.csv").write_text("\n".join(lines) + "\n",
                                             encoding="utf-8", newline="\n")
    if cfg.get("emit_svg", True):
        emit_heatmap(full, mesh, out / "eigenvector.svg")
    print(f"lambda1 = {report.lambda1:.10g} (residual {report.residual:.2e},"
          f" gap {report.gap:.6g})")
    return 0


_EVOLVE_KEYS = {"mesh", "coefficients", "evolution", "u0", "seed",
                "output_dir"}


def _cmd_evolve(args) -> int:
    cfg, base, mesh, coeffs, mode = _load_inputs(args, _EVOLVE_KEYS)
    ecfg = _resolve_evolution(cfg.get("evolution"), mesh)
    out = _out_dir(cfg, base)

    op = Problem(mesh=mesh, coeffs=coeffs, mode=mode).op  # corkscrew-checked
    expr = cfg.get("u0", "1")
    u0_full = evaluate_field(expr, mesh.vertices[:, 0], mesh.vertices[:, 1])
    traj = evolve(op, op.restrict(u0_full), ecfg)
    fields = np.vstack([op.expand(s) for s in traj.states.real])
    _write_trajectory_csv(out / "trajectory.csv", traj.times, fields)
    emit_heatmap(fields[-1], mesh, out / "final_state.svg")
    print(f"evolved {len(traj.times) - 1} steps to t = {traj.times[-1]:.6g}; "
          f"final range [{fields[-1].min():.6g}, {fields[-1].max():.6g}]")
    return 0


_KERNEL_KEYS = {"mesh", "coefficients", "evolution", "seed", "output_dir"}


def _cmd_kernel(args) -> int:
    cfg, base, mesh, coeffs, mode = _load_inputs(args, _KERNEL_KEYS)
    ecfg = _resolve_evolution(cfg.get("evolution"), mesh)
    t = args.t if args.t is not None else ecfg.t_end
    out = _out_dir(cfg, base)

    op = Problem(mesh=mesh, coeffs=coeffs, mode=mode).op  # corkscrew-checked
    K = kernel(op, t, ecfg)
    write_kernel_dump(out / "kernel.bin", K)
    rep = kernel_positivity_report(K)
    report = {
        "t": K.t, "n": K.entries.shape[0], "verdict": rep.verdict.value,
        "min_entry": rep.min_entry, "witness": list(rep.witness),
        "boundary_rows_zero": rep.boundary_rows_zero}
    if rep.reason:
        report["reason"] = rep.reason
    _write_json(out / "kernel_report.json", report)
    emit_heatmap(np.diag(K.entries).real.copy(), mesh,
                 out / "kernel_diagonal.svg")
    print(f"kernel at t = {K.t:.6g}: min entry {rep.min_entry:.6g}, "
          f"verdict {rep.verdict.value}")
    return 0


def write_kernel_dump(path: Path, K) -> None:
    """Binary kernel dump: 8-byte magic KTMAT001, int64 n, float64 t, then
    n*n row-major little-endian float64 entries."""
    n = K.entries.shape[0]
    with open(path, "wb") as fh:
        fh.write(KERNEL_MAGIC)
        fh.write(struct.pack("<q", n))
        fh.write(struct.pack("<d", float(K.t)))
        fh.write(np.ascontiguousarray(K.entries.real,
                                      dtype="<f8").tobytes())


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
        expr = str(_required(sample, "expr", "phi sample"))
        rows.append(evaluate_field(expr, xy[:, 0], xy[:, 1]))
    if not times:
        raise CliError("phi: need 'constant' or nonempty 'samples'")
    return BoundaryData(times=np.array(times), values=np.array(rows),
                        boundary_vertices=bv)


def _cmd_parabolic(args) -> int:
    cfg, base, mesh, coeffs, _mode = _load_inputs(args, _PARABOLIC_KEYS)
    ecfg = _resolve_evolution(cfg.get("evolution"), mesh)
    seed = _number(cfg, "seed", 0, "config", int)
    out = _out_dir(cfg, base)

    u0 = evaluate_field(str(cfg.get("u0", "0")), mesh.vertices[:, 0],
                        mesh.vertices[:, 1])
    phi = _resolve_phi(cfg.get("phi"), mesh, ecfg.t_end)
    sol = solve_mild(mesh, coeffs, u0, phi, ecfg)
    bank = make_test_bank(
        mesh, sol.times, size=_number(cfg, "test_bank_size", 20, "config", int),
        seed=seed)
    positivity = PositivityScan(sol)
    residual = WeakResidual(sol, bank)
    picks = strip_steps(len(sol.times))
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

    # every input has been validated: a rejected config leaves no output
    _write_trajectory_csv(out / "trajectory.csv", sol.times, states())
    with open(out / "strip.svg", "w", encoding="utf-8", newline="\n") as fh:
        render_strip(frames, sol.times[picks], mesh, fh)
    report = positivity.report()
    weak = residual.value()
    _write_json(out / "verdict.json", {
        "strong_positivity": {
            "verdict": report.verdict.value,
            "threshold_step": report.threshold_step,
            "start_step": report.start_step,
            "first_violation": report.first_violation,
            "reason": report.reason,
            **({"underflow": True} if report.underflow else {})},
        "very_weak_residual": weak,
        "steps": len(sol.times) - 1,
    })
    print(f"parabolic run: {len(sol.times) - 1} steps, strong positivity "
          f"{report.verdict.value}, weak residual {weak:.3e}")
    return 0


def _cmd_oracle(args) -> int:
    data = json.loads(Path(args.matrix).read_text(encoding="utf-8"))
    if isinstance(data, dict):
        _check_keys(data, {"Q"}, "oracle input")
        data = data["Q"]
    g = MetzlerGenerator(np.asarray(data, dtype=float))
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
                "corkscrew_delta", "oracle", "seed", "output_dir"}


def _cmd_verify(args) -> int:
    cfg, base, mesh, coeffs, mode = _load_inputs(args, _VERIFY_KEYS)
    tol = _solver_tol(cfg)
    evolution = _resolve_evolution(cfg.get("evolution"), mesh)
    oracle_matrix = None
    expect_irr = None
    if "oracle" in cfg:
        ospec = _check_keys(cfg["oracle"], {"matrix", "expect_irreducible"},
                            "oracle")
        oracle_matrix = MetzlerGenerator(
            np.asarray(_required(ospec, "matrix", "oracle"), dtype=float)).Q
        expect_irr = ospec.get("expect_irreducible")
    out = _out_dir(cfg, base)

    problem = Problem(
        mesh=mesh, coeffs=coeffs, mode=mode, solver_tol=tol,
        evolution=evolution,
        corkscrew_delta=_number(cfg, "corkscrew_delta", 0.1, "config"),
        oracle_matrix=oracle_matrix, expect_irreducible=expect_irr)
    problem.op  # an invalid problem is an error, not a suite of FAILs
    report = run_suite(problem, only=args.only)
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
    p.add_argument("--width", type=float, default=1.0)
    p.add_argument("--height", type=float, default=1.0)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, MeshError, AssemblyError, SolverError, OSError,
            ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
