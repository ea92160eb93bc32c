"""Discrete heat semigroups: evolution, kernels, positivity certificates.

The implicit Euler step with lumped mass is the workhorse for positivity:
when the stiffness matrix has nonpositive off-diagonal entries, the step
matrix (M_L + dt*A) is an M-matrix and every step maps nonnegative states
to nonnegative states. A single step already has global support in exact
arithmetic, but values decay fast with graph distance, so full-support
certificates only count from the step at which the propagation front has
provably crossed the operator's sparsity graph (its diameter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import dijkstra

from .assembly import BoundaryMode, DiscreteOperator, mmatrix_report
from .spectral import POSITIVITY_REL_TOL, REGION_FOR_MODE, Region, \
    region_vertices


class Scheme(Enum):
    IMPLICIT_EULER = "implicit_euler"
    CRANK_NICOLSON = "crank_nicolson"


class MassKind(Enum):
    CONSISTENT = "consistent"
    LUMPED = "lumped"


class Verdict(Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class EvolutionConfig:
    scheme: Scheme = Scheme.IMPLICIT_EULER
    dt: float = 1e-2
    t_end: float = 1.0
    mass: MassKind = MassKind.LUMPED

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        object.__setattr__(self, "mass", MassKind(self.mass))
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least dt")

    @property
    def n_steps(self) -> int:
        # every full step up to t_end
        return int(math.floor(self.t_end / self.dt + 1e-9))


#: steps in the default horizon, unless the propagation threshold needs more
DEFAULT_STEPS = 80


def default_dt(mesh) -> float:
    """Step size balancing damping error against step count: h_max^2 / 4."""
    return mesh.h_max ** 2 / 4.0


def default_evolution(mesh, dt: float | None = None,
                      t_end: float | None = None, min_steps: int = 0,
                      **kwargs) -> EvolutionConfig:
    """Fill in the defaults: dt = h_max^2 / 4 and a horizon of
    max(80, min_steps) steps. Pass the propagation threshold as min_steps
    when the horizon must carry a positivity certificate."""
    dt = default_dt(mesh) if dt is None else float(dt)
    if t_end is None:
        t_end = max(DEFAULT_STEPS, min_steps) * dt
    return EvolutionConfig(dt=dt, t_end=float(t_end), **kwargs)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (n_steps + 1, n_dof)


class Stepper:
    """One factorized time step. step() takes a state vector or a block of
    states, one per column; SuperLU treats each column exactly as it treats
    a single vector, so a block march is bitwise equal to column marches.
    """

    def __init__(self, op: DiscreteOperator, cfg: EvolutionConfig):
        M = sp.diags(op.mass_lumped).tocsr() if cfg.mass is MassKind.LUMPED \
            else op.mass
        A = op.stiffness
        if cfg.scheme is Scheme.IMPLICIT_EULER:
            lhs = (M + cfg.dt * A).tocsc()
            self._rhs = M.tocsr()
        else:
            lhs = (M + 0.5 * cfg.dt * A).tocsc()
            self._rhs = (M - 0.5 * cfg.dt * A).tocsr()
        try:
            self._lu = spla.splu(lhs)
        except RuntimeError as exc:
            raise RuntimeError(f"singular step matrix: {exc}") from exc

    def step(self, u: np.ndarray) -> np.ndarray:
        return self._lu.solve(self._rhs @ u)


def _stepper(op: DiscreteOperator, cfg: EvolutionConfig) -> Stepper:
    """The step of op under cfg's scheme, dt and mass, factorized once per
    operator and shared by every march with that configuration."""
    key = ("step", cfg.scheme, cfg.dt, cfg.mass)
    if key not in op.solver_cache:
        op.solver_cache[key] = Stepper(op, cfg)
    return op.solver_cache[key]


def evolve(op: DiscreteOperator, u0: np.ndarray,
           cfg: EvolutionConfig) -> Trajectory:
    """Run the one-step scheme from u0; the trajectory includes t = 0 and
    every full step up to t_end."""
    u0 = np.asarray(u0, dtype=complex if op.is_complex else float)
    if u0.shape != (op.n_dof,):
        raise ValueError(f"u0 must have length n_dof = {op.n_dof}")
    step = _stepper(op, cfg).step
    n = cfg.n_steps
    states = np.empty((n + 1, op.n_dof), dtype=u0.dtype)
    states[0] = u0
    u = u0
    for k in range(1, n + 1):
        try:
            u = step(u)
        except Exception as exc:
            raise RuntimeError(f"linear solve failed at step {k}: {exc}") \
                from exc
        states[k] = u
    times = cfg.dt * np.arange(n + 1)
    return Trajectory(times=times, states=states)


# ---------------------------------------------------------------------------
# graph thresholds

def propagation_threshold(op: DiscreteOperator) -> int:
    """Diameter of the stiffness sparsity graph over the free dofs.

    Support propagates only along nonzero couplings, so this graph (not
    the mesh edge graph, which may contain zero-weight diagonals) governs
    how many steps full support provably takes. Computed once per operator.
    """
    if "propagation_threshold" not in op.solver_cache:
        op.solver_cache["propagation_threshold"] = graph_diameter(
            op.stiffness,
            RuntimeError("operator sparsity graph is disconnected"))
    return op.solver_cache["propagation_threshold"]


def graph_diameter(matrix: sp.spmatrix, disconnected: Exception) -> int:
    """Diameter of the undirected graph of a square matrix's nonzero
    off-diagonal entries; raises ``disconnected`` when the graph has more
    than one component.

    Exact, by bounding eccentricities (Takes & Kosters, CIKM 2011): each
    breadth-first sweep from v, with eccentricity e and distances d, bounds
    every vertex's eccentricity by max(d, e - d) below and e + d above.
    Sources alternate between the largest upper and the smallest lower
    bound among vertices that could still beat the best eccentricity found,
    until none can. Memory is O(N); structured meshes take a handful of
    sweeps.
    """
    coo = matrix.tocoo()
    mask = (coo.row != coo.col) & (coo.data != 0)
    pattern = sp.coo_matrix((np.ones(mask.sum()),
                             (coo.row[mask], coo.col[mask])),
                            shape=coo.shape).tocsr()
    pattern = (pattern + pattern.T).tocsr()
    if pattern.shape[0] == 0:
        raise ValueError("a graph without vertices has no diameter")
    lo = np.zeros(pattern.shape[0])
    hi = np.full(pattern.shape[0], np.inf)
    best = 0.0
    largest_hi = True
    while True:
        live = np.flatnonzero(hi > best)
        if live.size == 0:
            return int(best)
        v = live[np.argmax(hi[live])] if largest_hi \
            else live[np.argmin(lo[live])]
        largest_hi = not largest_hi
        # unweighted Dijkstra is scipy's breadth-first sweep with distances
        d = dijkstra(pattern, unweighted=True, indices=v)
        e = d.max()
        if np.isinf(e):
            raise disconnected
        best = max(best, e)
        lo = np.maximum(lo, np.maximum(d, e - d))
        hi = np.minimum(hi, e + d)


# ---------------------------------------------------------------------------
# positivity improving check

@dataclass(frozen=True)
class TrialOutcome:
    node: int                     # mesh vertex carrying the unit mass
    first_fully_positive: int     # step index, or -1 if never
    min_at_end: float
    ok: bool


@dataclass(frozen=True)
class PositivityImprovingReport:
    verdict: Verdict
    region: Region
    threshold_step: int
    trials: tuple
    reason: str = ""

    def __bool__(self):
        return self.verdict is Verdict.PASS


def positivity_improving_check(op: DiscreteOperator, cfg: EvolutionConfig,
                               trials: int | None = None,
                               region: Region | None = None,
                               ) -> PositivityImprovingReport:
    """Evolve single-node indicators and certify that each turns strictly
    positive across the whole region once the step count passes the
    sparsity-graph diameter, staying positive through t_end.

    Requires implicit Euler with lumped mass on an operator whose step
    matrix is an M-matrix; anything else gives NOT_APPLICABLE.
    """
    if region is None:
        region = REGION_FOR_MODE.get(op.mode)
        if region is None:
            return PositivityImprovingReport(
                Verdict.NOT_APPLICABLE, Region.CLOSURE, -1, (),
                reason=f"no positivity region for mode {op.mode.value}")
    if cfg.scheme is not Scheme.IMPLICIT_EULER \
            or cfg.mass is not MassKind.LUMPED:
        return PositivityImprovingReport(
            Verdict.NOT_APPLICABLE, region, -1, (),
            reason="positivity certificates need implicit Euler with "
                   "lumped mass")
    if op.is_complex or not mmatrix_report(op).is_m_compatible:
        return PositivityImprovingReport(
            Verdict.NOT_APPLICABLE, region, -1, (),
            reason="stiffness has positive off-diagonal entries")
    # off-diagonals of M_L + dt*A are those of dt*A, nonpositive here, so
    # the step matrix is an M-matrix exactly when its diagonal is positive
    if not np.all(op.mass_lumped + cfg.dt * op.stiffness.diagonal() > 0.0):
        return PositivityImprovingReport(
            Verdict.NOT_APPLICABLE, region, -1, (),
            reason="step matrix is not an M-matrix at this dt")

    threshold = propagation_threshold(op)
    n_steps = cfg.n_steps
    if n_steps < threshold:
        raise ValueError(
            f"t_end allows only {n_steps} steps but the certificate needs "
            f"at least the graph diameter ({threshold})")

    free = op.free_vertices
    if trials is None:
        trials = op.n_dof
    nodes = region_vertices(op, region)
    if np.any(op.dof_map[nodes] < 0):
        return PositivityImprovingReport(
            Verdict.NOT_APPLICABLE, region, -1, (),
            reason="region contains vertices pinned to zero by the "
                   "boundary constraints")

    # all trials march together, one unit indicator per column
    region_dofs = op.dof_map[nodes]
    cols = np.arange(trials)
    dofs = cols % op.n_dof
    U = np.zeros((op.n_dof, trials))
    U[dofs, cols] = 1.0
    first_pos = np.full(trials, -1)
    ok = np.ones(trials, dtype=bool)
    step = _stepper(op, cfg).step
    for k in range(1, n_steps + 1):
        U = step(U)
        tol = POSITIVITY_REL_TOL * np.abs(U).max(axis=0)
        fully = np.all(U[region_dofs] >= tol, axis=0)
        first_pos[fully & (first_pos < 0)] = k
        if k >= threshold:
            ok &= fully
    min_end = U[region_dofs].min(axis=0)
    ok &= (first_pos >= 0) & (first_pos <= threshold)
    outcomes = [TrialOutcome(node=int(free[d]), first_fully_positive=int(f),
                             min_at_end=float(m), ok=bool(o))
                for d, f, m, o in zip(dofs, first_pos, min_end, ok)]
    return PositivityImprovingReport(
        verdict=Verdict.PASS if ok.all() else Verdict.FAIL,
        region=region, threshold_step=threshold, trials=tuple(outcomes))


# ---------------------------------------------------------------------------
# kernels

@dataclass(frozen=True)
class KernelMatrix:
    """Discrete heat kernel at time t on the full vertex set.

    Column j is the evolved unit point mass at vertex j (initial state
    e_j / lumped_mass_j), so applying the kernel to the lumped-mass
    weighted nodal values of u reproduces the evolution of u.
    """

    t: float
    entries: np.ndarray          # (n_vertices, n_vertices)
    mode: BoundaryMode
    constrained: np.ndarray      # vertex indices with eliminated dofs
    lumped_mass_full: np.ndarray

    def apply(self, u_full: np.ndarray) -> np.ndarray:
        return self.entries @ (self.lumped_mass_full * u_full)


@dataclass(frozen=True)
class KernelPositivityReport:
    verdict: Verdict
    min_entry: float
    witness: tuple
    boundary_rows_zero: bool
    reason: str = ""


def kernel(op: DiscreteOperator, t: float | tuple, cfg: EvolutionConfig):
    """Evolve every unit point mass to time t and collect the columns.

    The point masses march together as one dense block, one multi-column
    solve per step. t may be a tuple of times: the block then marches once,
    to the latest of them, and one KernelMatrix per time comes back in the
    order given.
    """
    single = not isinstance(t, (tuple, list))
    steps = [EvolutionConfig(scheme=cfg.scheme, dt=cfg.dt, t_end=ti,
                             mass=cfg.mass).n_steps
             for ti in ((t,) if single else t)]
    step = _stepper(op, cfg).step
    nv = op.mesh.n_vertices
    free = op.free_vertices
    lumped_full = np.zeros(nv)
    lumped_full[free] = op.mass_lumped
    U = np.diag(1.0 / op.mass_lumped).astype(
        complex if op.is_complex else float)
    snapshots = {}
    for k in range(1, max(steps) + 1):
        U = step(U)
        if k in steps:
            snapshots[k] = U
    kernels = []
    for n_steps in steps:
        entries = np.zeros((nv, nv), dtype=U.dtype)
        entries[np.ix_(free, free)] = snapshots[n_steps]
        kernels.append(KernelMatrix(
            t=n_steps * cfg.dt, entries=entries, mode=op.mode,
            constrained=op.constrained_vertices,
            lumped_mass_full=lumped_full))
    return kernels[0] if single else tuple(kernels)


def kernel_positivity_report(K: KernelMatrix, mode: BoundaryMode | None = None,
                             ) -> KernelPositivityReport:
    """Entrywise positivity over the pairs the boundary mode claims, with
    eliminated rows and columns checked to be exactly zero."""
    mode = K.mode if mode is None else BoundaryMode(mode)
    nv = K.entries.shape[0]
    if np.iscomplexobj(K.entries):
        return KernelPositivityReport(Verdict.NOT_APPLICABLE, math.nan,
                                      (-1, -1), False,
                                      reason="complex kernel")
    live = np.setdiff1d(np.arange(nv), K.constrained)
    boundary_ok = True
    if K.constrained.size:
        boundary_ok = bool(
            np.all(K.entries[K.constrained, :] == 0.0)
            and np.all(K.entries[:, K.constrained] == 0.0))
    block = K.entries[np.ix_(live, live)]
    tol = POSITIVITY_REL_TOL * float(np.abs(K.entries).max())
    arg = np.unravel_index(int(np.argmin(block)), block.shape)
    min_entry = float(block[arg])
    witness = (int(live[arg[0]]), int(live[arg[1]]))
    ok = min_entry >= tol and boundary_ok
    return KernelPositivityReport(
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        min_entry=min_entry, witness=witness,
        boundary_rows_zero=boundary_ok)
