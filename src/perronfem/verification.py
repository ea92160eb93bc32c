"""Registry of verifiable positivity statements and the suite runner.

Each registry entry is data: a label, a human-readable statement, an
applicability predicate over the configured problem, and the module call
that produces a verdict plus a certificate payload. Suites therefore map
one-to-one onto the checks they run, and reports replay byte-identically
for a fixed config and seed (timings are reported in the text rendering
only, never in the JSON).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lattice
from .assembly import BoundaryMode, CoefficientSet, DiscreteOperator, \
    MassKind, assemble, ellipticity_check, mmatrix_report
from .mesh import TriMesh, check_corkscrew
from .semigroup import EvolutionConfig, Verdict, default_evolution, \
    kernel, kernel_positivity_report, positivity_improving_check, \
    propagation_threshold
from .spectral import REGION_FOR_MODE, certify_positivity, \
    complex_robin_bound, principal_eig, spectral_gap


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
    def kernels(self) -> tuple:
        """K(t) at the horizon t and K(2t), from one march of the block of
        all unit point masses."""
        cfg = self.evolution_cfg
        return kernel(self.op, (cfg.t_end, 2.0 * (cfg.n_steps * cfg.dt)),
                      cfg)

    @property
    def is_positivity_mode(self) -> bool:
        return self.mode in REGION_FOR_MODE


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
    if not p.is_positivity_mode:
        return Verdict.NOT_APPLICABLE, {"reason": "no positivity region"}
    cert = certify_positivity(p.principal, p.op)
    return (Verdict.PASS if cert.passed else Verdict.FAIL,
            {"region": cert.region.value, "min_value": cert.min_value,
             "witness_node": cert.witness_node,
             "lambda1": p.principal.lambda1.real,
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
    if p.op.is_complex:
        return Verdict.NOT_APPLICABLE, {"reason": "complex operator"}
    if not mmatrix_report(p.op).is_m_compatible:
        return Verdict.NOT_APPLICABLE, {
            "reason": "positive off-diagonal stiffness entries"}
    rep = principal_eig(p.op, tol=p.solver_tol, mass=MassKind.LUMPED)
    ok = bool(np.all(rep.vector >= 0.0))
    return (Verdict.PASS if ok else Verdict.FAIL,
            {"min_component": float(rep.vector.min()),
             "lambda1_lumped": rep.lambda1.real})


def _check_spectral_gap(p: Problem):
    rep = spectral_gap(p.op, k=2, tol=p.solver_tol)
    scale = max(1.0, abs(float(np.real(rep.values[0]))))
    ok = rep.gap > 100.0 * p.solver_tol * scale
    return (Verdict.PASS if ok else Verdict.FAIL,
            {"gap": rep.gap,
             "values": [complex(v).real for v in rep.values]})


def _check_positivity_improving(p: Problem):
    if not p.is_positivity_mode:
        return Verdict.NOT_APPLICABLE, {"reason": "no positivity region"}
    trials = min(p.op.n_dof, 32)
    rep = positivity_improving_check(p.op, p.evolution_cfg, trials=trials)
    payload = {"threshold_step": rep.threshold_step, "trials": len(rep.trials)}
    if rep.reason:
        payload["reason"] = rep.reason
    if rep.trials:
        payload["worst_min_at_end"] = min(t.min_at_end for t in rep.trials)
        payload["latest_first_positive"] = max(t.first_fully_positive
                                               for t in rep.trials)
    return rep.verdict, payload


def _check_kernel_positivity(p: Problem):
    if not p.is_positivity_mode or p.op.is_complex:
        return Verdict.NOT_APPLICABLE, {"reason": "no positivity region"}
    K = p.kernels[0]
    rep = kernel_positivity_report(K)
    return rep.verdict, {"t": K.t, "min_entry": rep.min_entry,
                         "witness": list(rep.witness),
                         "boundary_rows_zero": rep.boundary_rows_zero}


def _check_kernel_symmetry(p: Problem):
    if p.op.is_complex or not p.op.is_hermitian:
        return Verdict.NOT_APPLICABLE, {"reason": "operator not self-adjoint"}
    K = p.kernels[0]
    dev = float(np.abs(K.entries - K.entries.T).max())
    scale = max(1.0, float(np.abs(K.entries).max()))
    ok = dev <= 1e-8 * scale
    return (Verdict.PASS if ok else Verdict.FAIL,
            {"max_asymmetry": dev, "t": K.t})


def _check_chapman_kolmogorov(p: Problem):
    if p.op.is_complex:
        return Verdict.NOT_APPLICABLE, {"reason": "complex operator"}
    K1, K2 = p.kernels
    comp = K1.entries @ (K1.lumped_mass_full[:, None] * K1.entries)
    dev = float(np.abs(K2.entries - comp).max())
    scale = max(1.0, float(np.abs(K2.entries).max()))
    ok = dev <= 1e-6 * scale
    return (Verdict.PASS if ok else Verdict.FAIL,
            {"max_deviation": dev, "t": K1.t})


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

_CORKSCREW_MODES = (BoundaryMode.MIXED,)


def _entry_applicable(entry: RegistryEntry, p: Problem) -> bool:
    if entry.label == "corkscrew":
        return p.mode in _CORKSCREW_MODES
    return True


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
    """Execute the registry in order; solver failures become FAIL verdicts
    with diagnostics rather than exceptions."""
    results = []
    for entry in REGISTRY:
        if only is not None and entry.label != only:
            continue
        if not _entry_applicable(entry, problem):
            continue
        start = time.perf_counter()
        try:
            verdict, payload = entry.runner(problem)
        except Exception as exc:  # surfaced as a failing verdict
            verdict = Verdict.FAIL
            payload = {"error": f"{type(exc).__name__}: {exc}"}
        runtime = time.perf_counter() - start
        results.append(SuiteResult(entry.label, verdict, payload, runtime))
    if only is not None and not results:
        raise KeyError(f"no registry entry labelled {only!r}")
    return VerificationSuiteReport(results=tuple(results))
