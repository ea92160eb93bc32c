"""Registry of verifiable positivity statements and the suite runner.

Each registry entry is data: a label, a human-readable statement, and the
module call that produces a verdict plus a certificate payload. Suites
therefore map one-to-one onto the checks they run, and reports replay
byte-identically for a fixed config and seed (timings are reported in the
text rendering only, never in the JSON).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lattice
from .assembly import BoundaryMode, CoefficientSet, DiscreteOperator, \
    MassKind, MMatrixCertificate, assemble, ellipticity_check, \
    mmatrix_report
from .mesh import TriMesh, check_corkscrew
from .semigroup import EvolutionConfig, KernelMatrix, Verdict, \
    default_evolution, kernel, kernel_certificate, kernel_positivity_report, \
    peripheral_pair, point_mass_columns, positivity_improving_check, \
    propagation_threshold
from .spectral import REGION_FOR_MODE, SolverError, certify_positivity, \
    complex_robin_bound, perron_pair, principal_eig, spectral_gap


#: columns of the fixed-seed probe block Z of the kernel identity checks;
#: both are Freivalds checks (Freivalds 1977), for which a few Gaussian
#: probes see a nonzero defect with probability 1
PROBES = 4
PROBE_SEED = 0
#: relative tolerances of kernel-symmetry and chapman-kolmogorov, scaled by
#: max(1, the largest sampled entry)
SYMMETRY_TOL = 1e-8
COMPOSITION_TOL = 1e-6


@dataclass(frozen=True)
class KernelProbes:
    """What the four kernel checks read, at the horizon t."""

    t: float
    ends: KernelMatrix       # K(t) on the point masses at the peripheral pair
    ends_at_threshold: KernelMatrix  # the same columns at the threshold step
    probes: np.ndarray       # Z, (n_dof, PROBES)
    forward: np.ndarray      # K(t) Z
    forward_2t: np.ndarray   # K(2t) Z
    adjoint: np.ndarray      # K(t)^T Z


@dataclass
class Problem:
    """One configured verification target."""

    mesh: TriMesh
    coeffs: CoefficientSet
    mode: BoundaryMode
    solver_tol: float = 1e-10
    #: a config, or the keyword arguments of default_evolution (the
    #: evolution block of a config file)
    evolution: EvolutionConfig | dict | None = None
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

    @cached_property
    def principal(self):
        return principal_eig(self.op, tol=self.solver_tol)

    @cached_property
    def evolution_cfg(self) -> EvolutionConfig:
        if isinstance(self.evolution, EvolutionConfig):
            return self.evolution
        # an open horizon reaches the propagation threshold, so the
        # positivity-improving certificate always has the steps it needs
        try:
            threshold = propagation_threshold(self.op)
        except RuntimeError:  # disconnected: no horizon certifies positivity
            threshold = 0
        return default_evolution(self.mesh, min_steps=threshold,
                                 **(self.evolution or {}))

    @cached_property
    def certificate(self) -> MMatrixCertificate:
        """The one structural certificate of both positivity checks."""
        return kernel_certificate(self.op, self.evolution_cfg)

    @cached_property
    def kernel_probes(self) -> KernelProbes:
        """One forward march to t of a fixed-seed probe block Z and, when
        the positivity certificate holds, of the point masses at the two
        ends of the stiffness graph's diameter, with a snapshot at the
        threshold step too; K(t) Z alone goes on to 2t. One adjoint march
        of Z to t. O(n_dof * PROBES) memory: no dense kernel."""
        op, cfg = self.op, self.evolution_cfg
        t = cfg.n_steps * cfg.dt
        # the kernel decays with graph distance, so the float cross-checks
        # sample the columns of the two most distant dofs
        ends, threshold = [], cfg.n_steps
        if self.certificate.holds:
            ends = list(peripheral_pair(op))
            threshold = max(propagation_threshold(op), 1)
        probes = np.random.default_rng(PROBE_SEED).standard_normal(
            (op.n_dof, PROBES))
        block = np.zeros((op.n_dof, len(ends) + PROBES))
        block[ends, range(len(ends))] = 1.0
        block[:, len(ends):] = probes
        K1, K0 = kernel(op, (cfg.t_end, threshold * cfg.dt), cfg, block)
        forward = K1[:, len(ends):]
        columns = op.free_vertices[ends]
        return KernelProbes(
            t=t, ends=point_mass_columns(op, t, K1[:, :len(ends)], columns,
                                         self.certificate),
            ends_at_threshold=point_mass_columns(
                op, threshold * cfg.dt, K0[:, :len(ends)], columns,
                self.certificate),
            probes=probes, forward=forward,
            forward_2t=kernel(op, cfg.t_end, cfg, forward, resume=True),
            adjoint=kernel(op, cfg.t_end, cfg, probes, adjoint=True))


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
    if p.mode not in REGION_FOR_MODE:
        return Verdict.NOT_APPLICABLE, {"reason": "no positivity region"}
    # a non-Hermitian operator is outside the certificate: solve nothing
    hermitian = p.op.is_hermitian and not p.op.is_complex
    cert = certify_positivity(p.principal if hermitian else None, p.op)
    if cert.reason:
        return Verdict.NOT_APPLICABLE, cert.payload()
    return (Verdict.PASS if cert.passed else Verdict.FAIL,
            {**cert.payload(), "lambda1": p.principal.lambda1.real,
             "residual": p.principal.residual})


def _check_trace_zero(p: Problem):
    constrained = p.op.constrained_vertices
    if not constrained.size:
        return Verdict.NOT_APPLICABLE, {"reason": "no constrained nodes"}
    full = p.op.expand(p.principal.vector)
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
    if p.mode not in REGION_FOR_MODE:
        return Verdict.NOT_APPLICABLE, {"reason": "no positivity region"}
    # an unmet hypothesis needs no march
    ends = (p.kernel_probes.ends_at_threshold, p.kernel_probes.ends) \
        if p.certificate.holds else ()
    rep = positivity_improving_check(p.op, p.certificate, ends)
    payload = {"threshold_step": rep.threshold_step,
               "trials": len(rep.columns)}
    if rep.reason:
        payload["reason"] = rep.reason
    if rep.columns:
        payload["worst_min_at_end"] = rep.min_at_end
        payload["min_at_threshold"] = rep.min_at_threshold
    if rep.underflow:
        payload["underflow"] = True
    return rep.verdict, payload


def _check_kernel_positivity(p: Problem):
    if p.mode not in REGION_FOR_MODE:
        return Verdict.NOT_APPLICABLE, {"reason": "no positivity region"}
    K = p.kernel_probes.ends
    rep = kernel_positivity_report(K)
    if rep.reason:
        return rep.verdict, {"reason": rep.reason}
    # min_entry and witness are over the sampled columns only
    payload = {"t": K.t, "columns": list(K.columns),
               "min_entry": rep.min_entry, "witness": list(rep.witness),
               "boundary_rows_zero": rep.boundary_rows_zero,
               "min_row_sum": K.certificate.min_row_sum}
    if rep.underflow:
        payload["underflow"] = True
    return rep.verdict, payload


def _check_kernel_symmetry(p: Problem):
    if p.op.is_complex or not p.op.is_hermitian:
        return Verdict.NOT_APPLICABLE, {"reason": "operator not self-adjoint"}
    if p.evolution_cfg.mass is not MassKind.LUMPED:
        # K(t) = S^n M_L^-1 is symmetric only when S is built on M_L too
        return Verdict.NOT_APPLICABLE, {
            "reason": "the kernel is symmetric only under lumped mass"}
    k = p.kernel_probes
    sampled = k.probes.T @ k.forward        # Z^T K(t) Z
    dev = float(np.abs(sampled - sampled.T).max())
    scale = max(1.0, float(np.abs(sampled).max()))
    ok = dev <= SYMMETRY_TOL * scale
    return (Verdict.PASS if ok else Verdict.FAIL,
            {"max_asymmetry": dev, "probes": k.probes.shape[1], "t": k.t})


def _check_chapman_kolmogorov(p: Problem):
    if p.op.is_complex:
        return Verdict.NOT_APPLICABLE, {"reason": "complex operator"}
    k = p.kernel_probes
    # Freivalds: Z^T K(2t) Z against (K(t)^T Z)^T M_L (K(t) Z), the left
    # factor from the adjoint march, so the identity is not a tautology
    marched = k.probes.T @ k.forward_2t
    composed = k.adjoint.T @ (p.op.mass_lumped[:, None] * k.forward)
    dev = float(np.abs(marched - composed).max())
    scale = max(1.0, float(np.abs(marched).max()))
    ok = dev <= COMPOSITION_TOL * scale
    return (Verdict.PASS if ok else Verdict.FAIL,
            {"max_deviation": dev, "probes": k.probes.shape[1], "t": k.t})


def _check_complex_robin(p: Problem):
    if p.mode is not BoundaryMode.COMPLEX_ROBIN:
        return Verdict.NOT_APPLICABLE, {"reason": "mode is not complex Robin"}
    beta = np.asarray(p.coeffs.beta, dtype=complex)
    if np.all(beta.imag == 0):
        return Verdict.NOT_APPLICABLE, {
            "reason": "imaginary part of beta vanishes; strictness "
                      "hypothesis unmet"}
    bound = complex_robin_bound(p.op)
    return (Verdict.PASS if bound.strict else Verdict.FAIL,
            {"re_min_complex": bound.re_min_complex,
             "min_real_part_problem": bound.min_real_part_problem,
             "margin": bound.margin})


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
                  "evolved nodal indicators become strictly positive on the "
                  "whole region by the propagation threshold",
                  _check_positivity_improving),
    RegistryEntry("kernel-positivity",
                  "the discrete heat kernel is entrywise positive on the "
                  "claimed region pairs", _check_kernel_positivity),
    RegistryEntry("kernel-symmetry",
                  "the kernel of a self-adjoint problem is symmetric",
                  _check_kernel_symmetry),
    RegistryEntry("chapman-kolmogorov",
                  "kernels compose: K(2t) equals K(t) convolved with itself",
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


def run_suite(problem: Problem, only: str | None = None,
              ) -> VerificationSuiteReport:
    """Execute the registry in order; a raised error becomes a FAIL verdict
    with diagnostics, a SolverError's with the reason "solver failure". An
    AssertionError, a broken invariant of the program, propagates."""
    results = []
    for entry in REGISTRY:
        if only is not None and entry.label != only:
            continue
        # the corkscrew condition concerns the Dirichlet part of mixed mode
        if entry.label == "corkscrew" and problem.mode is not \
                BoundaryMode.MIXED:
            continue
        start = time.perf_counter()
        try:
            verdict, payload = entry.runner(problem)
        except AssertionError:  # a broken invariant is a bug, not a verdict
            raise
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
