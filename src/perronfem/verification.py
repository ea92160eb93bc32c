"""Registry of verifiable positivity statements and the suite runner.

Each registry entry is data: a label, a human-readable statement, and the
module call that produces a verdict plus a certificate payload; a
positivity certificate and the complex-Robin bound return that pair
themselves, and a check adds only what the problem knows (the
eigenvalue, the horizon, the solver tolerance). Suites therefore
map one-to-one onto the checks they run, and reports replay
byte-identically for a fixed config (timings are reported in the text
rendering only, never in the JSON).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import lattice
from .assembly import BoundaryMode, CoefficientSet, DiscreteOperator, \
    MassKind, Verdict, assemble, ellipticity_check, mmatrix_report
from .mesh import TriMesh, check_corkscrew
from .semigroup import EvolutionConfig, default_evolution, \
    kernel, kernel_certificate, kernel_positivity_report, peripheral_pair, \
    positivity_improving_check
from .spectral import SolverError, certify_positivity, complex_robin_bound, \
    perron_pair, principal_eig, spectral_gap


#: columns of the fixed-seed probe block Z of the kernel identity checks;
#: both are Freivalds checks (Freivalds 1977), for which a few Gaussian
#: probes see a nonzero defect with probability 1
PROBES = 4
PROBE_SEED = 0
#: relative tolerances of kernel-symmetry and chapman-kolmogorov, scaled by
#: the largest sampled entry, never below the smallest normal float
SYMMETRY_TOL = 1e-8
COMPOSITION_TOL = 1e-6
FLOAT_FLOOR = np.finfo(float).tiny


class KernelProbes(NamedTuple):
    """What the four kernel checks read, at the horizon t = t1 + t2, all
    in dof space."""

    t: float
    columns: np.ndarray      # peripheral_pair's dofs, if the certificate holds
    ends: np.ndarray         # K(t) at their point masses, in dof rows
    ends_at_first_step: np.ndarray  # the same columns at step 1
    probes: np.ndarray       # Z, (n_dof, PROBES)
    forward: np.ndarray      # K(t) Z
    forward_t1: np.ndarray | None  # K(t1) Z, t1 at floor(n / 2) of n steps
    adjoint_t2: np.ndarray | None  # K(t2)^T Z; both None when n = 1


def kernel_probes(op: DiscreteOperator, cfg: EvolutionConfig) -> KernelProbes:
    """One forward march to t of a fixed-seed probe block Z and, when the
    positivity certificate holds, of the point masses at the two far-apart
    dofs of ``peripheral_pair``, kept at step 1, where the certificate's
    claim begins, and at t1 = floor(n / 2) dt; one adjoint march of Z to
    t2 = t - t1. O(n_dof * PROBES) memory, cached on the operator per
    config like any derived result: read-only, and a failed march once."""
    def probe_march():
        t = cfg.n_steps * cfg.dt
        n1 = cfg.n_steps // 2
        # the kernel decays with graph distance, so the float cross-checks
        # sample the columns of the two most distant dofs
        columns = np.array(peripheral_pair(op) if kernel_certificate(
            op, cfg).holds else (), dtype=np.int64)
        m = len(columns)
        probes = np.random.default_rng(PROBE_SEED).standard_normal(
            (op.n_dof, PROBES))
        block = np.zeros((op.n_dof, m + PROBES))
        block[columns, range(m)] = 1.0
        block[:, m:] = probes
        times = (cfg.t_end, cfg.dt) + ((n1 * cfg.dt,) if n1 else ())
        K1, K0, *split = kernel(op, times, cfg, block)
        return KernelProbes(
            t=t, columns=columns, ends=K1[:, :m], ends_at_first_step=K0[:, :m],
            probes=probes, forward=K1[:, m:],
            forward_t1=split[0][:, m:] if n1 else None,
            adjoint_t2=kernel(op, t - n1 * cfg.dt, cfg, probes,
                              adjoint=True) if n1 else None)
    return op.cached(("kernel_probes", cfg), probe_march)


@dataclass
class Problem:
    """One configured verification target: its inputs, corkscrew check and
    operator; what derives from the operator is cached on the operator."""

    mesh: TriMesh
    coeffs: CoefficientSet
    mode: BoundaryMode
    solver_tol: float = 1e-10
    #: the evolution config; None takes default_evolution's 80 steps
    evolution: EvolutionConfig | None = None
    corkscrew_delta: float = 0.1
    oracle_matrix: np.ndarray | None = None
    expect_irreducible: bool | None = None

    @cached_property
    def corkscrew(self):
        """The corkscrew check; assembly warns in MIXED mode if it fails."""
        return check_corkscrew(self.mesh, self.corkscrew_delta)

    @cached_property
    def op(self) -> DiscreteOperator:
        checked = self.mode is not BoundaryMode.MIXED or self.corkscrew.ok
        return assemble(self.mesh, self.coeffs, self.mode,
                        corkscrew_checked=checked)

    @property
    def evolution_cfg(self) -> EvolutionConfig:
        return self.evolution or default_evolution(self.mesh)


# ---------------------------------------------------------------------------
# checks; each returns (Verdict, payload)

def _check_ellipticity(p: Problem):
    rep = ellipticity_check(p.coeffs)
    return (Verdict.PASS if rep.passed else Verdict.FAIL,
            {"mu_actual": rep.mu_actual, "mu_claimed": p.coeffs.mu})


def _check_mmatrix(p: Problem):
    if p.op.is_complex:
        return Verdict.NOT_APPLICABLE, {"reason": "complex operator"}
    rep = mmatrix_report(p.op)
    return (Verdict.PASS if rep.is_m_compatible else Verdict.FAIL,
            {"offdiag_max": rep.offdiag_max})


def _check_corkscrew(p: Problem):
    res = p.corkscrew
    payload = {"delta": p.corkscrew_delta,
               "checked_pairs": len(res.witnesses)}
    if not res.ok:
        payload["failure"] = [res.failure[0], res.failure[1]]
    return (Verdict.PASS if res.ok else Verdict.FAIL, payload)


def _check_principal_positivity(p: Problem):
    # a non-Hermitian operator is outside the certificate: solve nothing
    hermitian = p.op.is_hermitian and not p.op.is_complex
    principal = principal_eig(p.op, p.solver_tol) if hermitian else None
    verdict, payload = certify_positivity(principal, p.op)
    if verdict is not Verdict.NOT_APPLICABLE:
        payload.update(lambda1=principal.lambda1.real,
                       residual=principal.residual)
    return verdict, payload


def _check_trace_zero(p: Problem):
    constrained = p.op.constrained_vertices
    if not constrained.size:
        return Verdict.NOT_APPLICABLE, {"reason": "no constrained nodes"}
    full = p.op.expand(principal_eig(p.op, p.solver_tol).vector)
    exact = bool(np.all(full[constrained] == 0.0))
    return (Verdict.PASS if exact else Verdict.FAIL,
            {"constrained_nodes": int(constrained.size)})


def _check_perron_sign(p: Problem):
    # -M_L^-1 A is Metzler and irreducible when the stiffness is an
    # irreducible Z-matrix, so the lumped pencil's lowest eigenvalue is its
    # Perron root, simple with a positive vector; A need not be Hermitian
    if p.op.is_complex:
        return Verdict.NOT_APPLICABLE, {"reason": "complex operator"}
    cert = mmatrix_report(p.op)
    if not cert.irreducible:
        return Verdict.NOT_APPLICABLE, {"reason": cert.reason}
    rep = perron_pair(p.op, p.solver_tol)
    low = float(rep.vector.min())
    return (Verdict.PASS if low >= 0.0 else Verdict.FAIL,
            {"min_component": low, "lambda1_lumped": rep.lambda1.real,
             **({"underflow": True} if low == 0.0 else {})})


def _check_spectral_gap(p: Problem):
    if p.op.n_dof < 2:
        return Verdict.NOT_APPLICABLE, {
            "reason": "one degree of freedom: no second eigenvalue"}
    rep = spectral_gap(p.op, k=2, tol=p.solver_tol)
    scale = max(1.0, abs(float(np.real(rep.values[0]))))
    ok = rep.gap > 100.0 * p.solver_tol * scale
    return (Verdict.PASS if ok else Verdict.FAIL,
            {"gap": rep.gap,
             "values": [complex(v).real for v in rep.values]})


def _check_positivity_improving(p: Problem):
    cert = kernel_certificate(p.op, p.evolution_cfg)
    # an unmet hypothesis needs no march
    k = kernel_probes(p.op, p.evolution_cfg) if cert.holds else None
    return positivity_improving_check(p.op, cert, *(
        (k.columns, (k.ends_at_first_step, k.ends)) if k else ()))


def _check_kernel_positivity(p: Problem):
    cert = kernel_certificate(p.op, p.evolution_cfg)
    if not cert.holds:  # an unmet hypothesis needs no march
        return Verdict.NOT_APPLICABLE, {"reason": cert.reason}
    k = kernel_probes(p.op, p.evolution_cfg)
    # min_entry and witness are over the sampled columns only
    verdict, payload = kernel_positivity_report(p.op, cert, k.columns, k.ends)
    payload.update(t=k.t, columns=p.op.free_vertices[k.columns].tolist(),
                   min_row_sum=cert.min_row_sum)
    return verdict, payload


def _check_kernel_symmetry(p: Problem):
    if p.op.is_complex or not p.op.is_hermitian:
        return Verdict.NOT_APPLICABLE, {"reason": "operator not self-adjoint"}
    if p.evolution_cfg.mass is not MassKind.LUMPED:
        # K(t) = S^n M_L^-1 is symmetric only when S is built on M_L too
        return Verdict.NOT_APPLICABLE, {
            "reason": "the kernel is symmetric only under lumped mass"}
    k = kernel_probes(p.op, p.evolution_cfg)
    sampled = k.probes.T @ k.forward        # Z^T K(t) Z
    dev = float(np.abs(sampled - sampled.T).max())
    ok = dev <= max(SYMMETRY_TOL * np.abs(sampled).max(), FLOAT_FLOOR)
    return (Verdict.PASS if ok else Verdict.FAIL,
            {"max_asymmetry": dev, "probes": k.probes.shape[1], "t": k.t})


def _check_chapman_kolmogorov(p: Problem):
    if p.op.is_complex:
        return Verdict.NOT_APPLICABLE, {"reason": "complex operator"}
    k = kernel_probes(p.op, p.evolution_cfg)
    if k.forward_t1 is None:
        return Verdict.NOT_APPLICABLE, {
            "reason": "a one-step horizon has no split"}
    # Freivalds: Z^T K(t1 + t2) Z against (K(t2)^T Z)^T M_L (K(t1) Z), the
    # left factor from the adjoint march, so the identity is not a tautology
    marched = k.probes.T @ k.forward
    composed = k.adjoint_t2.T @ (p.op.mass_lumped[:, None] * k.forward_t1)
    dev = float(np.abs(marched - composed).max())
    ok = dev <= max(COMPOSITION_TOL * np.abs(marched).max(), FLOAT_FLOOR)
    return (Verdict.PASS if ok else Verdict.FAIL,
            {"max_deviation": dev, "probes": k.probes.shape[1], "t": k.t})


def _check_complex_robin(p: Problem):
    if p.mode is not BoundaryMode.COMPLEX_ROBIN:
        return Verdict.NOT_APPLICABLE, {"reason": "mode is not complex Robin"}
    if not p.op.is_complex:
        return Verdict.NOT_APPLICABLE, {
            "reason": "imaginary part of beta vanishes; strictness "
                      "hypothesis unmet"}
    return complex_robin_bound(p.op, p.solver_tol)


def _check_lattice_oracle(p: Problem):
    if p.oracle_matrix is None:
        return Verdict.NOT_APPLICABLE, {"reason": "no generator configured"}
    g = lattice.MetzlerGenerator(p.oracle_matrix)
    irr = lattice.is_irreducible(g)
    improving = lattice.positivity_improving_equiv(g)
    payload = {"n": g.n, "irreducible": irr, "improving": improving}
    if irr != improving:
        return Verdict.FAIL, payload
    if irr:
        rep = lattice.perron_report(g)
        payload["lambda1"] = rep.lambda1
        payload["simple"] = rep.simple
        payload["gap"] = rep.gap
        # a 1x1 generator has no second eigenvalue, so no gap to demand
        if not (rep.simple and (g.n == 1 or rep.gap > 0)
                and np.all(rep.vector > 0)):
            return Verdict.FAIL, payload
    if p.expect_irreducible is not None:
        payload["expected_irreducible"] = p.expect_irreducible
        if irr != p.expect_irreducible:
            return Verdict.FAIL, payload
        if not p.expect_irreducible:
            payload["expected_negative"] = True
    return Verdict.PASS, payload


@dataclass(frozen=True)
class RegistryEntry:
    label: str
    statement: str
    runner: object


REGISTRY = (
    RegistryEntry("ellipticity",
                  "second-order coefficients are uniformly elliptic at the "
                  "claimed constant (enforced when the coefficient set is "
                  "built)", _check_ellipticity),
    RegistryEntry("mmatrix-compatible",
                  "stiffness off-diagonal entries are nonpositive",
                  _check_mmatrix),
    RegistryEntry("corkscrew",
                  "the Dirichlet boundary part is thick near its relative "
                  "boundary", _check_corkscrew),
    RegistryEntry("principal-positivity",
                  "the principal eigenvector is strictly positive on the "
                  "region its boundary mode claims",
                  _check_principal_positivity),
    RegistryEntry("constrained-trace-zero",
                  "eliminated Dirichlet nodes carry exact zeros",
                  _check_trace_zero),
    RegistryEntry("perron-sign-structure",
                  "the lumped-pencil principal eigenvector has no sign "
                  "changes", _check_perron_sign),
    RegistryEntry("spectral-gap",
                  "the two lowest eigenvalues are separated",
                  _check_spectral_gap),
    RegistryEntry("positivity-improving",
                  "evolved nodal indicators are strictly positive on the "
                  "whole region from the first step",
                  _check_positivity_improving),
    RegistryEntry("kernel-positivity",
                  "the discrete heat kernel is entrywise positive on the "
                  "claimed region pairs", _check_kernel_positivity),
    RegistryEntry("kernel-symmetry",
                  "the kernel of a self-adjoint problem is symmetric",
                  _check_kernel_symmetry),
    RegistryEntry("chapman-kolmogorov",
                  "kernels compose: K(t1 + t2) is K(t2) convolved with K(t1)",
                  _check_chapman_kolmogorov),
    RegistryEntry("complex-robin-strict-bound",
                  "a genuinely complex boundary coefficient strictly raises "
                  "the bottom of the real part of the spectrum",
                  _check_complex_robin),
    RegistryEntry("lattice-oracle",
                  "matrix-semigroup irreducibility, improvement, and Perron "
                  "structure agree", _check_lattice_oracle),
)

@dataclass(frozen=True)
class SuiteResult:
    label: str
    verdict: Verdict
    payload: dict
    runtime: float


@dataclass(frozen=True)
class VerificationSuiteReport:
    results: tuple

    @property
    def failed(self) -> bool:
        return any(r.verdict is Verdict.FAIL for r in self.results)

    def to_jsonable(self) -> dict:
        # runtimes are excluded so reports replay byte-identically
        return {"results": [
            {"label": r.label, "verdict": r.verdict.value,
             "payload": jsonable(r.payload)}
            for r in self.results]}

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            lines.append(f"[{r.verdict.value.upper():>14}] {r.label} "
                         f"({r.runtime:.3f}s)")
            for key in sorted(r.payload):
                lines.append(f"    {key} = {r.payload[key]}")
        status = "FAIL" if self.failed else "OK"
        lines.append(f"suite: {status}")
        return "\n".join(lines) + "\n"


def jsonable(obj):
    """Strict-JSON values: numpy scalars and arrays as Python ones, complex
    numbers as {"re", "im"}, non-finite floats as their repr."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, complex):
        return {"re": jsonable(obj.real), "im": jsonable(obj.imag)}
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    return obj


def suite_labels(mode: BoundaryMode) -> tuple:
    """The labels ``run_suite`` runs on a problem in ``mode``, in registry
    order: the corkscrew condition concerns the Dirichlet part of mixed
    mode, so corkscrew runs only there."""
    return tuple(entry.label for entry in REGISTRY
                 if entry.label != "corkscrew" or mode is BoundaryMode.MIXED)


def run_suite(problem: Problem, only: str | None = None,
              ) -> VerificationSuiteReport:
    """Execute the registry in order, the checks of ``suite_labels``, or
    only the one labelled ``only`` (a KeyError if that is not among them);
    a raised error becomes a FAIL verdict with diagnostics, a
    SolverError's with the reason "solver failure". An AssertionError, a
    broken invariant of the program, and a MemoryError, which says nothing
    of the problem, propagate."""
    results = []
    labels = suite_labels(problem.mode)
    for entry in REGISTRY:
        if entry.label not in labels or only not in (None, entry.label):
            continue
        start = time.perf_counter()
        try:
            verdict, payload = entry.runner(problem)
        except (AssertionError, MemoryError):
            raise  # a bug or the machine's limit, not a verdict
        except Exception as exc:  # surfaced as a failing verdict
            verdict = Verdict.FAIL
            payload = {"error": f"{type(exc).__name__}: {exc}"}
            if isinstance(exc, SolverError):
                payload["reason"] = "solver failure"
        runtime = time.perf_counter() - start
        results.append(SuiteResult(entry.label, verdict, payload, runtime))
    if only is not None and not results:
        raise KeyError(f"no registry entry labelled {only!r}")
    return VerificationSuiteReport(results=tuple(results))
