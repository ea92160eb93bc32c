"""Inhomogeneous-boundary parabolic solves and their strong positivity check.

The boundary-value problem evolves the interior unknowns while the whole
boundary trace is pinned to time-dependent data (a lifting step): with
vertex partition (I, B) and one-step matrices built from the volume form,

    (M_II + dt*A_II) u_I(k+1) = M_II u_I(k) + M_IB u_B(k)
                                - (M_IB + dt*A_IB) u_B(k+1),

and u_B pinned to the interpolated data. With lumped mass the M_IB blocks
vanish, so nonnegative data give strictly positive interior states when
the interior step matrix passes ``semigroup.step_certificate`` and
-A_IB >= 0; a state that is not finite stops the march. The strong
positivity check returns (Verdict, payload), the payload as
``verdict.json`` reports it; no verdict compares a field with a float
floor.

Trajectories can be audited against the space-time weak formulation: for
test functions vanishing at the time endpoints and on the boundary, the
pairing of u against (time derivative minus adjoint operator) of the test
function must vanish in the limit; its discrete residual is the
verification quantity, NaN where any test function's term is.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import CoefficientSet, MMatrixCertificate, Verdict, \
    assemble_volume, mass_matrix, offdiag_max
from .mesh import TriMesh
from .semigroup import EvolutionConfig, step_certificate, step_matrices
from .spectral import SolverError, factorize

COMPATIBILITY_TOL = 1e-10


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
    Raises on initial data incompatible with phi(0), the march SolverError
    on a state that is not finite; whether positivity conclusions apply is
    ``strong_positivity_check``'s call.
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
            if not np.isfinite(nxt[interior]).all():
                raise SolverError(f"the state at step {k} is not finite")
            nxt[boundary] = g_new
            u = nxt
            yield u

    return MildSolution(times=dt * np.arange(cfg.n_steps + 1), mesh=mesh,
                        cfg=cfg, boundary=boundary, interior=interior,
                        phi=phi, stiffness=A, mass_lumped=ML,
                        certificate=certificate, march=march)


# ---------------------------------------------------------------------------
# strong positivity

class PositivityScan:
    """The strong-positivity check a state at a time: set up from the
    solution's data, then fed every state in step order (``add``), then
    read (``report``, a Verdict and its payload). Of the states it keeps
    only a violation and the underflow flag.

    It certifies strict interior positivity from the first step the data
    drive the interior: step 1 for a nonzero interior datum, else the
    first step whose boundary data reach an interior row; zero data claim
    nothing. Each implicit Euler step with lumped mass solves
    Z u_I(k+1) = M_L,II u_I(k) - dt A_IB u_B(k+1); when the solution's
    certificate holds, Z = (M_L + dt A)_II is an irreducible nonsingular
    M-matrix and -A_IB >= 0, so Z^-1 > 0 maps a nonnegative, nonzero
    right-hand side to a positive state, and every later one is nonzero.
    The float cross-check tests sign: an exact 0.0 is flagged as
    underflow on a PASS, a negative value fails at ``first_violation``,
    [time, vertex]. ``start_step`` is -1 where nothing is claimed."""

    def __init__(self, sol: MildSolution):
        self.interior, self.times = sol.interior, sol.times
        self.underflow = False
        self.settled = None     # a report later states cannot change
        u0 = sol.u0
        if u0.min() < 0.0 or sol.phi.values.min() < 0.0:
            self.start = -1
            self.settled = Verdict.NOT_APPLICABLE, self._payload(
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
            self.settled = Verdict.NOT_APPLICABLE, self._payload(
                reason=reason)

    def _payload(self, first_violation=None, reason: str = "") -> dict:
        return {"start_step": self.start, "first_violation": first_violation,
                "reason": reason}

    def add(self, k: int, state: np.ndarray) -> None:
        """Read the sign of step k's interior values; the first negative
        one fails the check, and later states are not read."""
        if self.settled or k < self.start:
            return
        inside = state[self.interior]
        low = float(inside.min())
        if low < 0.0:
            self.settled = Verdict.FAIL, self._payload([
                float(self.times[k]),
                int(self.interior[int(np.argmin(inside))])])
        self.underflow = self.underflow or low == 0.0

    def report(self) -> tuple:
        return self.settled or (Verdict.PASS, {
            **self._payload(),
            **({"underflow": True} if self.underflow else {})})


def strong_positivity_check(sol: MildSolution) -> tuple:
    """``PositivityScan`` over the solution's states: (Verdict, payload)."""
    scan = PositivityScan(sol)
    if not scan.settled:
        for k, state in enumerate(sol.states()):
            scan.add(k, state)
    return scan.report()


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
    ``value`` is the max over the bank (NaN if any term is) of

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
        # np.max, not max(): a NaN term makes the residual NaN
        return float(np.max([abs(np.sum(weights * (
            time_term * psi.dwindow(times) - space_term * psi.window(times))))
            for psi, time_term, space_term in zip(
                self.bank, self.pairings[:m], self.pairings[m:])],
            initial=0.0))


def very_weak_residual(sol: MildSolution, test_bank) -> float:
    """``WeakResidual`` over the solution's states."""
    residual = WeakResidual(sol, test_bank)
    for k, state in enumerate(sol.states()):
        residual.add(k, state)
    return residual.value()

