"""Inhomogeneous-boundary parabolic solves and strong minimum/maximum checks.

The boundary-value problem evolves the interior unknowns while the whole
boundary trace is pinned to time-dependent data (a lifting step): with
vertex partition (I, B) and one-step matrices built from the volume form,

    (M_II + dt*A_II) u_I(k+1) = M_II u_I(k) + M_IB u_B(k)
                                - (M_IB + dt*A_IB) u_B(k+1),

and u_B pinned to the interpolated data. With lumped mass the M_IB blocks
vanish and nonnegative data provably propagate to nonnegative states
whenever the interior step matrix is an M-matrix.

Trajectories can be audited against the space-time weak formulation: for
test functions vanishing at the time endpoints and on the boundary, the
pairing of u against (time derivative minus adjoint operator) of the test
function must vanish in the limit; its discrete residual is the
verification quantity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import CoefficientSet, assemble_volume, mass_matrix
from .mesh import TriMesh
from .semigroup import EvolutionConfig, Verdict, graph_diameter, \
    step_matrices
from .spectral import POSITIVITY_REL_TOL

COMPATIBILITY_TOL = 1e-10


class ParabolicError(ValueError):
    pass


class ConstancyVerdict(Enum):
    CONSTANT = "constant"
    VIOLATION = "violation"
    HYPOTHESIS_NOT_MET = "hypothesis_not_met"


@dataclass(frozen=True)
class BoundaryData:
    """Time-sampled boundary values with linear interpolation in time.

    values[k] holds the nodal values on ``boundary_vertices`` (sorted
    mesh indices) at sample time times[k].
    """

    times: np.ndarray
    values: np.ndarray
    boundary_vertices: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        bv = np.asarray(self.boundary_vertices, dtype=np.int64)
        if t.ndim != 1 or len(t) < 1:
            raise ParabolicError("at least one sample time required")
        if np.any(np.diff(t) <= 0):
            raise ParabolicError("sample times must be strictly increasing")
        if v.shape != (len(t), len(bv)):
            raise ParabolicError("values must be (n_times, n_boundary)")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ParabolicError("boundary data must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "boundary_vertices", bv)

    @classmethod
    def constant(cls, mesh: TriMesh, value: float, t_end: float,
                 ) -> "BoundaryData":
        bv = mesh.boundary_vertices()
        return cls(times=np.array([0.0, t_end]),
                   values=np.full((2, len(bv)), float(value)),
                   boundary_vertices=bv)

    def at(self, t: float) -> np.ndarray:
        ts = self.times
        if t <= ts[0]:
            return self.values[0]
        if t >= ts[-1]:
            return self.values[-1]
        k = int(np.searchsorted(ts, t, side="right") - 1)
        w = (t - ts[k]) / (ts[k + 1] - ts[k])
        return (1.0 - w) * self.values[k] + w * self.values[k + 1]


@dataclass(frozen=True)
class MildSolution:
    """Trajectory of nodal fields on all mesh vertices, boundary included,
    with the volume matrices it was marched with (assembled if left out)."""

    times: np.ndarray
    fields: np.ndarray          # (n_steps + 1, n_vertices)
    mesh: TriMesh
    coeffs: CoefficientSet
    cfg: EvolutionConfig
    boundary: np.ndarray        # sorted boundary vertex indices
    interior: np.ndarray
    phi: BoundaryData
    stiffness: sp.csr_matrix | None = None
    mass_lumped: np.ndarray | None = None

    def __post_init__(self):
        if self.stiffness is None or self.mass_lumped is None:
            A, _, ML = assemble_volume(self.mesh, self.coeffs)
            for name, value in (("stiffness", A), ("mass_lumped", ML)):
                if getattr(self, name) is None:
                    object.__setattr__(self, name, value)

    @property
    def u0(self) -> np.ndarray:
        return self.fields[0]


def _min_row_sum(A) -> float:
    return float((A @ np.ones(A.shape[0])).min())


def coefficient_sign_condition(mesh: TriMesh,
                               coeffs: CoefficientSet) -> float:
    """Smallest entry of (volume stiffness) @ ones.

    Row i equals the zero-order functional of the operator tested against
    hat i (the gradient terms against a constant cancel); nonnegativity of
    all rows is the discrete shadow of the sign condition under which
    nonnegative data yield nonnegative solutions.
    """
    A, _, _ = assemble_volume(mesh, coeffs)
    return _min_row_sum(A)


def solve_mild(mesh: TriMesh, coeffs: CoefficientSet, u0: np.ndarray,
               phi: BoundaryData, cfg: EvolutionConfig) -> MildSolution:
    """March the boundary-pinned problem; boundary rows of every field
    equal the interpolated data exactly.

    Boundary tags are not consulted: this problem pins every boundary
    vertex. Raises on initial data incompatible with phi(0); warns (and
    carries on) when the coefficient sign condition fails, since only
    the positivity conclusions lapse.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (mesh.n_vertices,):
        raise ParabolicError("u0 must be a full nodal vector")
    boundary = mesh.boundary_vertices()
    interior = np.setdiff1d(np.arange(mesh.n_vertices), boundary)
    if interior.size == 0:
        raise ParabolicError("mesh has no interior vertices")
    if not np.array_equal(phi.boundary_vertices, boundary):
        raise ParabolicError("boundary data indexed on a different mesh")

    mismatch = float(np.abs(u0[boundary] - phi.at(0.0)).max()) \
        if len(boundary) else 0.0
    if mismatch > COMPATIBILITY_TOL:
        raise ParabolicError(
            f"initial datum disagrees with phi(0) by {mismatch:.3e} "
            f"(> {COMPATIBILITY_TOL:.0e})")

    A, M, ML = assemble_volume(mesh, coeffs)
    worst = _min_row_sum(A)
    scale = max(1.0, float(np.abs(coeffs.c0).max()),
                float(np.abs(coeffs.b).max()))
    if worst < -1e-10 * scale:
        warnings.warn(
            f"coefficient sign condition fails (min row value {worst:.3e}); "
            "positivity conclusions do not apply", stacklevel=2)

    # the interior rows of the step: each step solves
    # lhs_II u_I(k+1) = rhs_II u_I(k) + rhs_IB u_B(k) - lhs_IB u_B(k+1)
    lhs, rhs = step_matrices(A, mass_matrix(cfg.mass, M, ML), cfg.scheme,
                             cfg.dt)
    lhs, rhs = lhs[interior], rhs[interior]
    lu = spla.splu(lhs[:, interior].tocsc())
    lhs_IB = lhs[:, boundary]
    rhs_II, rhs_IB = rhs[:, interior], rhs[:, boundary]

    dt = cfg.dt
    n = cfg.n_steps
    fields = np.empty((n + 1, mesh.n_vertices))
    fields[0] = u0
    fields[0, boundary] = phi.at(0.0)
    for k in range(1, n + 1):
        g_old = fields[k - 1, boundary]
        g_new = phi.at(k * dt)
        fields[k, interior] = lu.solve(
            rhs_II @ fields[k - 1, interior] + rhs_IB @ g_old
            - lhs_IB @ g_new)
        fields[k, boundary] = g_new
    times = dt * np.arange(n + 1)
    return MildSolution(times=times, fields=fields, mesh=mesh, coeffs=coeffs,
                        cfg=cfg, boundary=boundary, interior=interior,
                        phi=phi, stiffness=A, mass_lumped=ML)


# ---------------------------------------------------------------------------
# strong positivity

def _interior_threshold(sol: MildSolution) -> int:
    return graph_diameter(
        sol.stiffness[sol.interior][:, sol.interior],
        ParabolicError("interior coupling graph is disconnected"))


@dataclass(frozen=True)
class StrongPositivityReport:
    verdict: Verdict
    threshold_step: int
    start_step: int             # first step at which positivity is claimed
    first_violation: tuple | None = None   # (time, vertex)
    reason: str = ""

    def __bool__(self):
        return self.verdict is Verdict.PASS


def strong_positivity_check(sol: MildSolution) -> StrongPositivityReport:
    """Certify strict interior positivity past the propagation threshold.

    With nonnegative initial and boundary data, a nonzero initial datum
    forces interior positivity after the coupling graph has been crossed;
    boundary data switching on at time t0 forces it after t0 plus the
    same threshold. Zero data make the claim vacuous.
    """
    tol_in = POSITIVITY_REL_TOL * max(1.0, float(np.abs(sol.fields).max()))
    if sol.u0.min() < -tol_in or sol.phi.values.min() < -tol_in:
        return StrongPositivityReport(
            Verdict.NOT_APPLICABLE, -1, -1,
            reason="hypotheses need nonnegative initial and boundary data")

    threshold = _interior_threshold(sol)
    n_steps = len(sol.times) - 1
    dt = sol.cfg.dt

    u0_interior_nonzero = bool(np.any(sol.u0[sol.interior] > tol_in))
    boundary_on = [k for k in range(n_steps + 1)
                   if np.any(sol.phi.at(k * dt) > tol_in)]
    if u0_interior_nonzero:
        start = threshold
    elif boundary_on:
        # boundary data reach interior neighbors one step after switching on
        start = boundary_on[0] + 1 + threshold
    else:
        return StrongPositivityReport(
            Verdict.NOT_APPLICABLE, threshold, -1,
            reason="zero data evolve to zero; nothing to certify")
    if start > n_steps:
        raise ParabolicError(
            f"certificate needs step {start} but the trajectory has only "
            f"{n_steps} steps")

    for k in range(start, n_steps + 1):
        u = sol.fields[k]
        tol = POSITIVITY_REL_TOL * float(np.abs(u).max())
        inside = u[sol.interior]
        if not np.all(inside >= tol):
            bad = sol.interior[int(np.argmin(inside))]
            return StrongPositivityReport(
                Verdict.FAIL, threshold, start,
                first_violation=(float(sol.times[k]), int(bad)))
    return StrongPositivityReport(Verdict.PASS, threshold, start)


# ---------------------------------------------------------------------------
# constancy (strong maximum) principle

def _constancy_tolerance(sol: MildSolution) -> float:
    span = max(float(sol.u0.max() - sol.u0.min()),
               float(sol.phi.values.max() - sol.phi.values.min()))
    return max(1e-8 * span, 1e-8)


def conserves_constants(mesh: TriMesh, coeffs: CoefficientSet,
                        tol: float = 1e-10) -> bool:
    """Whether the volume operator annihilates constants on interior rows."""
    A, _, _ = assemble_volume(mesh, coeffs)
    interior = np.setdiff1d(np.arange(mesh.n_vertices),
                            mesh.boundary_vertices())
    return _annihilates_constants(A, interior, tol)


def _annihilates_constants(A, interior: np.ndarray,
                           tol: float = 1e-10) -> bool:
    """Whether every interior row of A sums to zero; vacuously true
    without interior rows."""
    r = A @ np.ones(A.shape[0])
    scale = max(1.0, float(np.abs(A).max()))
    return bool(np.all(np.abs(r[interior]) <= tol * scale))


def constancy_principle_check(sol: MildSolution, t0: float, x0: int,
                              ) -> tuple[ConstancyVerdict, dict]:
    """If an interior node attains the running space-time maximum at t0,
    the trajectory must have been constant up to t0."""
    if not _annihilates_constants(sol.stiffness, sol.interior):
        raise ParabolicError("constancy principle needs an operator that "
                             "annihilates constants")
    if x0 in sol.boundary:
        raise ParabolicError(f"x0 = {x0} is not an interior vertex")
    k0 = int(np.argmin(np.abs(sol.times - t0)))
    if abs(sol.times[k0] - t0) > 1e-12 * max(1.0, abs(t0)):
        raise ParabolicError(f"t0 = {t0} is not a sample time")

    tol = _constancy_tolerance(sol)
    window = sol.fields[:k0 + 1]
    running_max = float(window.max())
    value = float(sol.fields[k0, x0])
    payload = {"t0": float(sol.times[k0]), "x0": int(x0), "value": value,
               "running_max": running_max, "tolerance": tol}
    if value < running_max - tol:
        return ConstancyVerdict.HYPOTHESIS_NOT_MET, payload
    spread = float(window.max() - window.min())
    payload["spread"] = spread
    if spread <= tol:
        return ConstancyVerdict.CONSTANT, payload
    return ConstancyVerdict.VIOLATION, payload


# ---------------------------------------------------------------------------
# weak-form residual audit

@dataclass(frozen=True)
class SpaceTimeTestFunction:
    """Separable test function: interior spatial profile times a smooth
    window vanishing at both ends of its support (sin^2 profile)."""

    spatial: np.ndarray          # full nodal vector, zero on the boundary
    t_start: float
    t_end: float
    label: str = ""

    def window(self, t):
        t = np.asarray(t, dtype=float)
        s = (t - self.t_start) / (self.t_end - self.t_start)
        w = np.where((s > 0) & (s < 1), np.sin(np.pi * np.clip(s, 0, 1)) ** 2,
                     0.0)
        return w

    def dwindow(self, t):
        t = np.asarray(t, dtype=float)
        s = (t - self.t_start) / (self.t_end - self.t_start)
        inside = (s > 0) & (s < 1)
        d = np.pi / (self.t_end - self.t_start) * np.sin(
            2.0 * np.pi * np.clip(s, 0, 1))
        return np.where(inside, d, 0.0)


def make_test_bank(mesh: TriMesh, times: np.ndarray, size: int = 20,
                   seed: int = 0) -> list:
    """Deterministic bank of space-time test functions.

    Spatial profiles are smooth radial bumps at seeded physical points,
    supported strictly inside the domain; time windows span dyadic
    eighths of the time interval. The draws depend only on the seed and
    the domain box, never on the mesh resolution or step count, so
    refinement studies compare identical test functions across levels
    (window endpoints land on sample times whenever the step count is
    divisible by eight).
    """
    if size < 1:
        raise ValueError("bank size must be positive")
    times = np.asarray(times, dtype=float)
    if len(times) < 5:
        raise ValueError("need at least five sample times for interior "
                         "windows")
    rng = np.random.default_rng(seed)
    boundary = mesh.boundary_vertices()
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    span = float(min(hi - lo))
    t0, t_total = float(times[0]), float(times[-1] - times[0])

    bank = []
    for i in range(size):
        radius = span * float(rng.uniform(0.15, 0.3))
        center = np.array([
            lo[0] + radius + rng.uniform() * (hi[0] - lo[0] - 2 * radius),
            lo[1] + radius + rng.uniform() * (hi[1] - lo[1] - 2 * radius)])
        r = np.linalg.norm(mesh.vertices - center, axis=1)
        spatial = np.where(r < radius,
                           np.cos(0.5 * np.pi * np.minimum(r / radius, 1.0))
                           ** 2, 0.0)
        spatial[boundary] = 0.0
        eighth_a = int(rng.integers(1, 4))
        eighth_b = int(rng.integers(5, 8))
        bank.append(SpaceTimeTestFunction(
            spatial=spatial,
            t_start=t0 + t_total * eighth_a / 8.0,
            t_end=t0 + t_total * eighth_b / 8.0,
            label=f"bump{i}"))
    return bank


def very_weak_residual(sol: MildSolution, test_bank) -> float:
    """Max over the bank of the discrete space-time weak-form residual

        r(psi) = sum_k w_k * ( u_k . M_L psi'(t_k) - u_k . A^T psi(t_k) )

    with trapezoidal weights; A^T is the adjoint volume assembly. The
    residual of an exact trajectory vanishes; the discrete one decays
    with dt and mesh refinement.
    """
    ML = sol.mass_lumped
    AT = sol.stiffness.T.tocsr()
    times = sol.times
    if len(times) < 2:
        raise ParabolicError("need at least one time step")
    dt = float(times[1] - times[0])
    weights = np.full(len(times), dt)
    weights[0] = weights[-1] = 0.5 * dt

    worst = 0.0
    for psi in test_bank:
        if np.any(psi.spatial[sol.boundary] != 0.0):
            raise ParabolicError("test function touches the boundary")
        if psi.t_start < times[0] - 1e-12 or psi.t_end > times[-1] + 1e-12 \
                or psi.window(times[0]) != 0.0 or psi.window(times[-1]) != 0.0:
            raise ParabolicError("test function window not interior to the "
                                 "time interval")
        w = psi.window(times)
        dw = psi.dwindow(times)
        time_term = sol.fields @ (ML * psi.spatial)      # u_k . M_L s
        space_term = sol.fields @ (AT @ psi.spatial)     # u_k . A^T s
        r = float(np.sum(weights * (time_term * dw - space_term * w)))
        worst = max(worst, abs(r))
    return worst


# ---------------------------------------------------------------------------
# elliptic strong maximum checks

@dataclass(frozen=True)
class EllipticMaxReport:
    is_solution: bool
    residual: float
    positivity: Verdict          # interior min > 0 given u >= 0, trace != 0
    interior_min: float
    constancy: Verdict           # constant given interior max attained
    spread: float

    def __bool__(self):
        return self.is_solution and self.positivity is not Verdict.FAIL \
            and self.constancy is not Verdict.FAIL


def elliptic_strong_max_check(mesh: TriMesh, coeffs: CoefficientSet,
                              u: np.ndarray,
                              tol: float = 1e-8) -> EllipticMaxReport:
    """Audit a discrete harmonic-type field against the strong minimum and
    maximum principles.

    The field must satisfy the interior equations (rows of the volume
    stiffness) up to tolerance; otherwise the report flags NOT A SOLUTION
    and skips the principles.
    """
    u = np.asarray(u, dtype=float)
    boundary = mesh.boundary_vertices()
    interior = np.setdiff1d(np.arange(mesh.n_vertices), boundary)
    A, _, _ = assemble_volume(mesh, coeffs)
    res = float(np.abs((A @ u)[interior]).max()) if interior.size else 0.0
    scale = max(1.0, float(np.abs(A).max()) * float(np.abs(u).max()))
    if res > tol * scale:
        return EllipticMaxReport(False, res, Verdict.NOT_APPLICABLE,
                                 math.nan, Verdict.NOT_APPLICABLE, math.nan)

    span = max(1.0, float(u.max() - u.min()))
    near = tol * span

    interior_min = float(u[interior].min()) if interior.size else math.nan
    # without interior vertices the strong principle claims nothing
    if interior.size and u.min() >= -near \
            and np.any(np.abs(u[boundary]) > near):
        positivity = Verdict.PASS if interior_min > near else Verdict.FAIL
    else:
        positivity = Verdict.NOT_APPLICABLE

    spread = float(u.max() - u.min())
    if _annihilates_constants(A, interior) \
            and np.any(u[interior] >= float(u.max()) - near):
        constancy = Verdict.PASS if spread <= near else Verdict.FAIL
    else:
        constancy = Verdict.NOT_APPLICABLE
    return EllipticMaxReport(True, res, positivity, interior_min,
                             constancy, spread)
