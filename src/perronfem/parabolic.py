"""Inhomogeneous-boundary parabolic solves and strong minimum/maximum checks.

The boundary-value problem evolves the interior unknowns while the whole
boundary trace is pinned to time-dependent data (a lifting step): with
vertex partition (I, B) and one-step matrices built from the volume form,

    (M_II + dt*A_II) u_I(k+1) = M_II u_I(k) + M_IB u_B(k)
                                - (M_IB + dt*A_IB) u_B(k+1),

and u_B pinned to the interpolated data. With lumped mass the M_IB blocks
vanish, so nonnegative data give strictly positive interior states when
the interior step matrix passes ``semigroup.step_certificate`` and
-A_IB >= 0; the elliptic strong minimum principle certifies A_II. No
verdict compares a field with a float floor.

Trajectories can be audited against the space-time weak formulation: for
test functions vanishing at the time endpoints and on the boundary, the
pairing of u against (time derivative minus adjoint operator) of the test
function must vanish in the limit; its discrete residual is the
verification quantity.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import CoefficientSet, MMatrixCertificate, \
    annihilates_constants, assemble_volume, mass_matrix, \
    mmatrix_certificate, offdiag_max
from .mesh import TriMesh
from .semigroup import EvolutionConfig, Verdict, step_certificate, \
    step_matrices
from .spectral import SolverError, factorize

COMPATIBILITY_TOL = 1e-10
ELLIPTIC_TOL = 1e-8  # elliptic_strong_max_check's relative tolerance


class ParabolicError(ValueError):
    pass


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
    with the volume matrices it was marched with and its step certificate.

    ``solve_mild`` sets the march up without taking a step: each
    ``states()`` call runs a new march, which yields u_0, ..., u_n one at
    a time and holds two. No trajectory is ever stacked; a caller that
    wants other states builds the solution with another ``march``."""

    times: np.ndarray
    mesh: TriMesh
    cfg: EvolutionConfig
    boundary: np.ndarray        # sorted boundary vertex indices
    interior: np.ndarray
    phi: BoundaryData
    stiffness: sp.csr_matrix
    mass_lumped: np.ndarray
    certificate: MMatrixCertificate
    march: Callable[[], Iterator[np.ndarray]] = field(repr=False)

    def states(self) -> Iterator[np.ndarray]:
        """Each state in step order, a fresh array from a new march; no
        state is written after it is yielded."""
        return self.march()

    @property
    def u0(self) -> np.ndarray:
        return next(self.states())  # the march yields u_0 before any step


def solve_mild(mesh: TriMesh, coeffs: CoefficientSet, u0: np.ndarray,
               phi: BoundaryData, cfg: EvolutionConfig) -> MildSolution:
    """Set up the boundary-pinned problem; boundary rows of every state
    equal the interpolated data exactly.

    Assembles, factorizes and certifies the interior step matrix once; the
    march itself runs each time the solution's states are read. Boundary
    tags are not consulted: this problem pins every boundary vertex.
    Raises on initial data incompatible with phi(0); whether positivity
    conclusions apply is ``strong_positivity_check``'s call.
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
    # the interior rows of the step: each step solves
    # lhs_II u_I(k+1) = rhs_II u_I(k) + rhs_IB u_B(k) - lhs_IB u_B(k+1)
    lhs, rhs = step_matrices(A, mass_matrix(cfg.mass, M, ML), cfg.scheme,
                             cfg.dt)
    lhs, rhs = lhs[interior], rhs[interior]
    lhs_II, lhs_IB = lhs[:, interior], lhs[:, boundary]
    lu = factorize(lhs_II)
    # the sign scan of A's interior rows covers -A_IB >= 0 too
    certificate = step_certificate(lhs_II, cfg, offdiag_max(A, interior),
                                   lu.solve, "interior step matrix")
    rhs_II, rhs_IB = rhs[:, interior], rhs[:, boundary]
    dt = cfg.dt
    start = u0.copy()
    start[boundary] = phi.at(0.0)

    def march() -> Iterator[np.ndarray]:
        u = start.copy()  # a caller may write into u_0: keep start intact
        yield u
        for k in range(1, cfg.n_steps + 1):
            g_new = phi.at(k * dt)
            nxt = np.empty(mesh.n_vertices)
            nxt[interior] = lu.solve(rhs_II @ u[interior]
                                     + rhs_IB @ u[boundary] - lhs_IB @ g_new)
            nxt[boundary] = g_new
            u = nxt
            yield u

    return MildSolution(times=dt * np.arange(cfg.n_steps + 1), mesh=mesh,
                        cfg=cfg, boundary=boundary, interior=interior,
                        phi=phi, stiffness=A, mass_lumped=ML,
                        certificate=certificate, march=march)


# ---------------------------------------------------------------------------
# strong positivity

@dataclass(frozen=True)
class StrongPositivityReport:
    verdict: Verdict
    start_step: int             # first step at which positivity is claimed
    first_violation: tuple | None = None   # (time, vertex)
    reason: str = ""
    underflow: bool = False     # a positive interior value lost to 0.0


class PositivityScan:
    """The strong-positivity check a state at a time: set up from the
    solution's data, then fed every state in step order (``add``), then
    read (``report``). Of the states it keeps only a violation and the
    underflow flag.

    It certifies strict interior positivity from the first step the data
    drive the interior: step 1 for a nonzero interior datum, else the
    first step whose boundary data reach an interior row; zero data claim
    nothing. Each implicit Euler step with lumped mass solves
    Z u_I(k+1) = M_L,II u_I(k) - dt A_IB u_B(k+1); when the solution's
    certificate holds, Z = (M_L + dt A)_II is an irreducible nonsingular
    M-matrix and -A_IB >= 0, so Z^-1 > 0 maps a nonnegative, nonzero
    right-hand side to a positive state, and every later one is nonzero.
    The float cross-check tests sign: an exact 0.0 is flagged as
    underflow, a negative value fails."""

    def __init__(self, sol: MildSolution):
        self.interior, self.times = sol.interior, sol.times
        self.underflow = False
        self.settled = None     # a report later states cannot change
        u0 = sol.u0
        if u0.min() < 0.0 or sol.phi.values.min() < 0.0:
            self.settled = StrongPositivityReport(
                Verdict.NOT_APPLICABLE, -1,
                reason="hypotheses need nonnegative initial and boundary "
                       "data")
            return
        n_steps, dt = len(sol.times) - 1, sol.cfg.dt
        A_IB = sol.stiffness[sol.interior][:, sol.boundary]
        if np.any(u0[sol.interior] > 0.0):
            self.start = 1
        else:
            self.start = next((k for k in range(1, n_steps + 1)
                               if np.any(A_IB @ sol.phi.at(k * dt) != 0.0)),
                              -1)
        reason = "zero data evolve to zero; nothing to certify" \
            if self.start < 0 else sol.certificate.reason
        if reason:
            self.settled = StrongPositivityReport(
                Verdict.NOT_APPLICABLE, self.start, reason=reason)

    def add(self, k: int, state: np.ndarray) -> None:
        """Read the sign of step k's interior values; the first negative
        one fails the check, and later states are not read."""
        if self.settled or k < self.start:
            return
        inside = state[self.interior]
        low = float(inside.min())
        if low < 0.0:
            self.settled = StrongPositivityReport(
                Verdict.FAIL, self.start, first_violation=(
                    float(self.times[k]),
                    int(self.interior[int(np.argmin(inside))])))
        self.underflow = self.underflow or low == 0.0

    def report(self) -> StrongPositivityReport:
        return self.settled or StrongPositivityReport(
            Verdict.PASS, self.start, underflow=self.underflow)


def strong_positivity_check(sol: MildSolution) -> StrongPositivityReport:
    """``PositivityScan`` over the solution's states."""
    scan = PositivityScan(sol)
    if not scan.settled:
        for k, state in enumerate(sol.states()):
            scan.add(k, state)
    return scan.report()


# ---------------------------------------------------------------------------
# constancy (strong maximum) principle

def _constancy_tolerance(sol: MildSolution) -> float:
    span = max(float(sol.u0.max() - sol.u0.min()),
               float(sol.phi.values.max() - sol.phi.values.min()))
    return max(1e-8 * span, 1e-8)


def constancy_principle_check(sol: MildSolution, t0: float, x0: int,
                              ) -> tuple[Verdict, dict]:
    """If an interior node attains the running space-time maximum at t0,
    the trajectory must have been constant up to t0: PASS, FAIL, or
    NOT_APPLICABLE when x0 does not attain it. Marches only to t0."""
    if not annihilates_constants(sol.stiffness, sol.interior):
        raise ParabolicError("constancy principle needs an operator that "
                             "annihilates constants")
    if x0 in sol.boundary:
        raise ParabolicError(f"x0 = {x0} is not an interior vertex")
    k0 = int(np.argmin(np.abs(sol.times - t0)))
    if abs(sol.times[k0] - t0) > 1e-12 * max(1.0, abs(t0)):
        raise ParabolicError(f"t0 = {t0} is not a sample time")

    tol = _constancy_tolerance(sol)
    high, low = -math.inf, math.inf
    for state in itertools.islice(sol.states(), k0 + 1):
        high = np.maximum(high, state.max())
        low = np.minimum(low, state.min())
    running_max = float(high)
    value = float(state[x0])
    payload = {"t0": float(sol.times[k0]), "x0": int(x0), "value": value,
               "running_max": running_max, "tolerance": tol}
    if value < running_max - tol:
        return Verdict.NOT_APPLICABLE, payload
    spread = float(high - low)
    payload["spread"] = spread
    if spread <= tol:
        return Verdict.PASS, payload
    return Verdict.FAIL, payload


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


class WeakResidual:
    """The discrete space-time weak-form residual a state at a time: the
    bank is checked and its spatial profiles projected once, then each
    state adds its pairings with them (``add``, every step in order), and
    ``value`` is the max over the bank of

        r(psi) = sum_k w_k * ( u_k . M_L psi'(t_k) - u_k . A^T psi(t_k) )

    with trapezoidal weights; A^T is the adjoint volume assembly. The
    residual of an exact trajectory vanishes; the discrete one decays
    with dt and mesh refinement. Two pairings per test function and step
    are kept, so the sum is taken as one array sum."""

    def __init__(self, sol: MildSolution, test_bank):
        times = sol.times
        if len(times) < 2:
            raise ParabolicError("need at least one time step")
        for psi in test_bank:
            if np.any(psi.spatial[sol.boundary] != 0.0):
                raise ParabolicError("test function touches the boundary")
            if psi.t_start < times[0] - 1e-12 \
                    or psi.t_end > times[-1] + 1e-12 \
                    or psi.window(times[0]) != 0.0 \
                    or psi.window(times[-1]) != 0.0:
                raise ParabolicError("test function window not interior to "
                                     "the time interval")
        self.bank, self.times = list(test_bank), times
        AT = sol.stiffness.T.tocsr()
        # rows: M_L s for every profile s, then A^T s for every profile
        self.profiles = np.array(
            [sol.mass_lumped * psi.spatial for psi in self.bank]
            + [AT @ psi.spatial for psi in self.bank]).reshape(
                -1, sol.mesh.n_vertices)
        self.pairings = np.empty((len(self.profiles), len(times)))

    def add(self, k: int, state: np.ndarray) -> None:
        self.pairings[:, k] = self.profiles @ state

    def value(self) -> float:
        times = self.times
        dt = float(times[1] - times[0])
        weights = np.full(len(times), dt)
        weights[0] = weights[-1] = 0.5 * dt
        m = len(self.bank)
        worst = 0.0
        for psi, time_term, space_term in zip(
                self.bank, self.pairings[:m], self.pairings[m:]):
            r = float(np.sum(weights * (time_term * psi.dwindow(times)
                                        - space_term * psi.window(times))))
            worst = max(worst, abs(r))
        return worst


def very_weak_residual(sol: MildSolution, test_bank) -> float:
    """``WeakResidual`` over the solution's states."""
    residual = WeakResidual(sol, test_bank)
    for k, state in enumerate(sol.states()):
        residual.add(k, state)
    return residual.value()


# ---------------------------------------------------------------------------
# elliptic strong maximum checks

@dataclass(frozen=True)
class EllipticMaxReport:
    is_solution: bool
    residual: float
    positivity: Verdict          # interior min > 0 given u_B >= 0 reaching I
    interior_min: float
    constancy: Verdict           # constant given interior max attained
    margin: float = math.nan     # |u_I - exact| <= res * max(A_II^-1 1)
    reason: str = ""             # why positivity is not applicable


def elliptic_strong_max_check(mesh: TriMesh, coeffs: CoefficientSet,
                              u: np.ndarray) -> EllipticMaxReport:
    """Audit a discrete harmonic-type field against the strong minimum and
    maximum principles.

    The field must satisfy the interior equations (rows of the volume
    stiffness) up to tolerance; otherwise the report flags NOT A SOLUTION
    and skips the principles. When A_II passes ``mmatrix_certificate``
    (witness A_II^-1 1 from one solve), -A_IB >= 0 and the boundary data
    are nonnegative and reach an interior row, the exact interior solution
    A_II^-1 (-A_IB u_B) is positive; u differs from it by at most
    ``margin``, which the sign test allows.
    """
    u = np.asarray(u, dtype=float)
    boundary = mesh.boundary_vertices()
    interior = np.setdiff1d(np.arange(mesh.n_vertices), boundary)
    A, _, _ = assemble_volume(mesh, coeffs)
    res = float(np.abs((A @ u)[interior]).max()) if interior.size else 0.0
    scale = max(1.0, float(np.abs(A).max()) * float(np.abs(u).max()))
    if res > ELLIPTIC_TOL * scale:
        return EllipticMaxReport(False, res, Verdict.NOT_APPLICABLE,
                                 math.nan, Verdict.NOT_APPLICABLE)

    interior_min = float(u[interior].min()) if interior.size else math.nan
    positivity, margin = Verdict.NOT_APPLICABLE, math.nan
    A_I = A[interior]
    # without interior vertices the strong principle claims nothing
    if not interior.size:
        reason = "no interior vertices"
    elif u[boundary].min() < 0.0 \
            or not np.any(A_I[:, boundary] @ u[boundary] != 0.0):
        reason = "hypotheses need nonnegative boundary data that reach " \
                 "the interior"
    else:
        A_II = A_I[:, interior]
        try:
            w = factorize(A_II).solve(np.ones(interior.size))
        except SolverError:
            w = None
        reason = mmatrix_certificate(A_II, "interior stiffness",
                                     offdiag_max(A, interior),
                                     inverse_ones=lambda: w).reason
        if not reason:
            margin = res * float(w.max())
            positivity = Verdict.PASS if interior_min >= -margin \
                else Verdict.FAIL

    spread = float(u.max() - u.min())
    near = ELLIPTIC_TOL * max(1.0, spread)
    if annihilates_constants(A, interior) \
            and np.any(u[interior] >= float(u.max()) - near):
        constancy = Verdict.PASS if spread <= near else Verdict.FAIL
    else:
        constancy = Verdict.NOT_APPLICABLE
    return EllipticMaxReport(True, res, positivity, interior_min,
                             constancy, margin, reason)
