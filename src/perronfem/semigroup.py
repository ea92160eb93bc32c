"""Discrete heat semigroups: evolution, kernels, positivity certificates.

The implicit Euler step with lumped mass is the workhorse for positivity:
``kernel_certificate`` asks ``assembly.mmatrix_certificate`` whether the
step matrix B = M_L + dt*A is an irreducible nonsingular M-matrix. Then
B^-1 > 0, every kernel K(t) = (B^-1 M_L)^n M_L^-1 is positive on the free
pairs and every nodal indicator is positive after one step; the
certificate alone decides both positivity verdicts. In floats, values
decay fast with graph distance, so the cross-checks test only the sign of
the point-mass columns at the two ends of the sparsity graph's diameter,
at the step at which the propagation front has provably crossed it and at
t.

``step_matrices`` is the one place a scheme becomes matrices; the
boundary-pinned solve in ``parabolic`` slices its rows. ``march`` is the
one step loop, forward or adjoint: it factorizes the step once per
operator and (scheme, dt, mass), by ``spectral.factorize``, and serves
``evolve``, ``kernel`` and the certificate's witness. ``kernel`` applies
K(t) or K(t)^T to a block of columns; only its dense form, on the block
of all point masses, holds an n_dof x n_dof array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .assembly import DiscreteOperator, MassKind, MMatrixCertificate, \
    mass_matrix, mmatrix_certificate, mmatrix_report, offdiagonal_pattern
from .spectral import REGION_FOR_MODE, SolverError, factorize, \
    region_vertices


class Scheme(Enum):
    IMPLICIT_EULER = "implicit_euler"
    CRANK_NICOLSON = "crank_nicolson"


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
        if not (math.isfinite(self.dt) and math.isfinite(self.t_end)):
            raise ValueError("dt and t_end must be finite")
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


def step_matrices(A: sp.spmatrix, M: sp.spmatrix, scheme: Scheme,
                  dt: float) -> tuple:
    """(lhs, rhs) of the one-step scheme lhs u(k+1) = rhs u(k), in CSR:
    (M + dt A, M) for implicit Euler, (M + dt/2 A, M - dt/2 A) for
    Crank-Nicolson."""
    if Scheme(scheme) is Scheme.IMPLICIT_EULER:
        return (M + dt * A).tocsr(), M.tocsr()
    return (M + 0.5 * dt * A).tocsr(), (M - 0.5 * dt * A).tocsr()


class Stepper:
    """One factorized time step. step() takes a state vector or a block of
    states, one per column; SuperLU treats each column exactly as it treats
    a single vector, so a block march is bitwise equal to column marches.
    step_adjoint() applies the transposed step with the same factor.
    """

    def __init__(self, op: DiscreteOperator, cfg: EvolutionConfig):
        lhs, self._rhs = step_matrices(
            op.stiffness, mass_matrix(cfg.mass, op.mass, op.mass_lumped),
            cfg.scheme, cfg.dt)
        self._lu = factorize(lhs)

    def step(self, u: np.ndarray) -> np.ndarray:
        return self._lu.solve(self._rhs @ u)

    def step_adjoint(self, u: np.ndarray) -> np.ndarray:
        return self._rhs.T @ self._lu.solve(u, trans="T")


def march(op: DiscreteOperator, cfg: EvolutionConfig, u: np.ndarray,
          n_steps: int, adjoint: bool = False):
    """Yield the states after steps 1..n_steps from u, a state or a block
    of states (one per column); with ``adjoint``, steps of the transposed
    scheme. The step is factorized once per operator and (scheme, dt,
    mass); a failed factorization or solve raises SolverError."""
    stepper = op.cached(("step", cfg.scheme, cfg.dt, cfg.mass),
                        lambda: Stepper(op, cfg))
    step = stepper.step_adjoint if adjoint else stepper.step
    for k in range(1, n_steps + 1):
        try:
            u = step(u)
        except RuntimeError as exc:
            raise SolverError(f"linear solve failed at step {k}: {exc}") \
                from exc
        yield u


def evolve(op: DiscreteOperator, u0: np.ndarray,
           cfg: EvolutionConfig) -> Trajectory:
    """Run the one-step scheme from u0; the trajectory includes t = 0 and
    every full step up to t_end."""
    u0 = np.asarray(u0, dtype=complex if op.is_complex else float)
    if u0.shape != (op.n_dof,):
        raise ValueError(f"u0 must have length n_dof = {op.n_dof}")
    states = np.array([u0, *march(op, cfg, u0, cfg.n_steps)])
    return Trajectory(times=cfg.dt * np.arange(len(states)), states=states)


# ---------------------------------------------------------------------------
# graph thresholds

def propagation_threshold(op: DiscreteOperator) -> int:
    """Diameter of the stiffness sparsity graph over the free dofs.

    Support propagates only along nonzero couplings, so this graph (not
    the mesh edge graph, which may contain zero-weight diagonals) governs
    how many steps full support provably takes. Computed once per operator.
    """
    return _stiffness_diameter(op)[0]


def peripheral_pair(op: DiscreteOperator) -> tuple:
    """Two free dofs at the stiffness graph's diameter from each other; the
    one free dof of a one-vertex graph."""
    u, v = _stiffness_diameter(op)[1]
    return (u,) if u == v else (u, v)


def _stiffness_diameter(op: DiscreteOperator) -> tuple:
    return op.cached("stiffness_diameter", lambda: graph_diameter(
        op.stiffness, RuntimeError("operator sparsity graph is disconnected")))


def graph_diameter(matrix: sp.spmatrix, disconnected: Exception) -> tuple:
    """(diameter, (u, v)) of the undirected graph of a square matrix's
    nonzero off-diagonal entries, with u and v at that distance from each
    other; raises ``disconnected`` when the graph has more than one
    component.

    Exact, by bounding eccentricities (Takes & Kosters, CIKM 2011): each
    breadth-first sweep from v, with eccentricity e and distances d, bounds
    every vertex's eccentricity by max(d, e - d) below and e + d above.
    Sources alternate between the largest upper and the smallest lower
    bound among vertices that could still beat the best eccentricity found,
    until none can. Memory is O(N); structured meshes take a handful of
    sweeps.
    """
    pattern = offdiagonal_pattern(matrix)
    pattern = (pattern + pattern.T).tocsr()
    if pattern.shape[0] == 0:
        raise ValueError("a graph without vertices has no diameter")
    lo = np.zeros(pattern.shape[0])
    hi = np.full(pattern.shape[0], np.inf)
    best, ends = -1.0, None
    largest_hi = True
    while True:
        live = np.flatnonzero(hi > best)
        if live.size == 0:
            return int(best), ends
        v = live[np.argmax(hi[live])] if largest_hi \
            else live[np.argmin(lo[live])]
        largest_hi = not largest_hi
        # unweighted Dijkstra is scipy's breadth-first sweep with distances
        d = dijkstra(pattern, unweighted=True, indices=v)
        e = d.max()
        if np.isinf(e):
            raise disconnected
        if e > best:
            best, ends = e, (int(v), int(np.argmax(d)))
        lo = np.maximum(lo, np.maximum(d, e - d))
        hi = np.minimum(hi, e + d)


# ---------------------------------------------------------------------------
# kernels

#: largest dense kernel march ``kernel`` starts, in estimated bytes
DENSE_KERNEL_MAX_BYTES = 2 ** 30


IMPLICIT_EULER_ONLY = "positivity certificates need implicit Euler with " \
                      "lumped mass"


def kernel_certificate(op: DiscreteOperator,
                       cfg: EvolutionConfig) -> MMatrixCertificate:
    """Structural positivity certificate of the kernel: a real operator
    and implicit Euler with lumped mass, whose step B = M_L + dt*A passes
    ``mmatrix_certificate``. B's sign scan is the stiffness's; the witness
    B^-1*1, when B*1 > 0 fails, comes through the step factor the march
    caches."""
    if op.is_complex:
        return MMatrixCertificate(False, reason="complex operator")
    if (cfg.scheme, cfg.mass) != (Scheme.IMPLICIT_EULER, MassKind.LUMPED):
        return MMatrixCertificate(False, reason=IMPLICIT_EULER_ONLY)
    B, _ = step_matrices(op.stiffness, mass_matrix(cfg.mass, op.mass,
                                                   op.mass_lumped),
                         cfg.scheme, cfg.dt)
    # one step from M_L^-1*1 is B^-1*1
    return mmatrix_certificate(
        B, "step matrix", mmatrix_report(op).offdiag_max,
        inverse_ones=lambda: next(march(op, cfg, 1.0 / op.mass_lumped, 1)))


@dataclass(frozen=True)
class KernelMatrix:
    """Point-mass columns of the discrete heat kernel at time t, on the
    full vertex set.

    Column j is the evolved unit point mass at vertex columns[j] (initial
    state e_v / lumped_mass_v); rows and columns of eliminated vertices
    are exact zeros. The dense kernel has every vertex as a column, and
    applied to the lumped-mass weighted nodal values of u it reproduces
    the evolution of u.
    """

    t: float
    entries: np.ndarray          # (n_vertices, len(columns))
    columns: np.ndarray          # vertex of each column
    constrained: np.ndarray      # vertex indices with eliminated dofs
    lumped_mass_full: np.ndarray
    certificate: MMatrixCertificate

    def apply(self, u_full: np.ndarray) -> np.ndarray:
        return self.entries @ (self.lumped_mass_full * u_full)[self.columns]


def point_mass_columns(op: DiscreteOperator, t: float, values: np.ndarray,
                       columns: np.ndarray,
                       certificate: MMatrixCertificate) -> KernelMatrix:
    """The KernelMatrix of the point masses at the vertices ``columns``,
    from ``values``: K(t) on their free ones, in dof rows."""
    nv = op.mesh.n_vertices
    lumped_full = np.zeros(nv)
    lumped_full[op.free_vertices] = op.mass_lumped
    entries = np.zeros((nv, len(columns)), dtype=values.dtype)
    entries[np.ix_(op.free_vertices,
                   np.flatnonzero(op.dof_map[columns] >= 0))] = values
    return KernelMatrix(t=t, entries=entries, columns=np.asarray(columns),
                        constrained=op.constrained_vertices,
                        lumped_mass_full=lumped_full, certificate=certificate)


@dataclass(frozen=True)
class KernelPositivityReport:
    verdict: Verdict
    min_entry: float
    witness: tuple
    boundary_rows_zero: bool
    reason: str = ""
    underflow: bool = False       # min_entry is a positive entry lost to 0.0


def kernel(op: DiscreteOperator, t: float | tuple, cfg: EvolutionConfig,
           block: np.ndarray | None = None, adjoint: bool = False,
           resume: bool = False):
    """The heat kernel K(t) applied to a block Z of dof-space columns:
    K(t) Z, or K(t)^T Z with ``adjoint``, as an (n_dof, k) array.

    K(t) = S^n M_L^-1, with S the one-step matrix and n the steps to t.
    The forward march starts from M_L^-1 Z; the adjoint march steps Z with
    S^T, through the same factorization, and divides by M_L at the end.
    SuperLU solves each column alone, so a column comes out bitwise the
    same in any block. Without a block, Z is the identity: all unit point
    masses march as one dense block, and the dense KernelMatrix comes back;
    a ValueError refuses it before any allocation when its three largest
    arrays (the marched block, a snapshot and the entries on the full
    vertex set) would exceed DENSE_KERNEL_MAX_BYTES. t may be a tuple of
    times: the block then marches once, to the latest of them, and one
    result per time comes back in the order given. With ``resume``, the
    block is a forward result K(s) Z and the march goes on from it, so
    K(s + t) Z comes back, bitwise equal to one march to s + t.
    """
    single = not isinstance(t, (tuple, list))
    steps = [replace(cfg, t_end=ti).n_steps for ti in ((t,) if single else t)]
    dense = block is None
    if dense:
        need = (16 if op.is_complex else 8) \
            * (2 * op.n_dof ** 2 + op.mesh.n_vertices ** 2)
        if need > DENSE_KERNEL_MAX_BYTES:
            raise ValueError(
                f"the dense kernel of {op.n_dof} dofs needs about "
                f"{need / 2 ** 20:,.1f} MiB, above the "
                f"{DENSE_KERNEL_MAX_BYTES / 2 ** 20:,.1f} MiB limit")
        block = np.diag(1.0 / op.mass_lumped)
    elif not (adjoint or resume):
        block = block / op.mass_lumped[:, None]
    # the march holds the only reference to a dense initial block
    states = march(op, cfg,
                   block.astype(complex if op.is_complex else float),
                   max(steps), adjoint)
    del block
    snapshots = {k: U for k, U in enumerate(states, 1) if k in steps}
    if dense:
        certificate = kernel_certificate(op, cfg)
        out = [point_mass_columns(op, n * cfg.dt, snapshots[n],
                                  np.arange(op.mesh.n_vertices), certificate)
               for n in steps]
    elif adjoint:
        out = [snapshots[n] / op.mass_lumped[:, None] for n in steps]
    else:
        out = [snapshots[n] for n in steps]
    return out[0] if single else tuple(out)


def kernel_positivity_report(K: KernelMatrix) -> KernelPositivityReport:
    """The certificate's verdict on the free pairs, cross-checked in
    floats on K's columns: their smallest free entry, where it sits, and
    whether eliminated rows and columns are exact zeros. Under a holding
    certificate a sampled entry of exactly 0.0 is float underflow of a
    positive entry and is flagged as such; a negative or NaN entry is a
    program bug and raises AssertionError."""
    if not K.certificate.holds:
        return KernelPositivityReport(Verdict.NOT_APPLICABLE, math.nan,
                                      (-1, -1), False,
                                      reason=K.certificate.reason)
    rows = np.setdiff1d(np.arange(K.entries.shape[0]), K.constrained)
    pinned = np.isin(K.columns, K.constrained)
    boundary_ok = bool(np.all(K.entries[K.constrained, :] == 0.0)
                       and np.all(K.entries[:, pinned] == 0.0))
    cols = np.flatnonzero(~pinned)
    block = K.entries[np.ix_(rows, cols)]
    arg = np.unravel_index(int(np.argmin(block)), block.shape)
    min_entry = float(block[arg])
    witness = (int(rows[arg[0]]), int(K.columns[cols[arg[1]]]))
    if not min_entry >= 0.0:
        raise AssertionError(
            f"kernel entry {min_entry!r} at {witness} is not positive "
            f"under a holding positivity certificate")
    return KernelPositivityReport(
        verdict=Verdict.PASS if boundary_ok else Verdict.FAIL,
        min_entry=min_entry, witness=witness,
        boundary_rows_zero=boundary_ok, underflow=min_entry == 0.0)


@dataclass(frozen=True)
class PositivityImprovingReport:
    verdict: Verdict
    threshold_step: int = -1
    columns: tuple = ()           # vertex of each sampled indicator
    min_at_threshold: float = math.nan
    min_at_end: float = math.nan
    reason: str = ""
    underflow: bool = False       # a minimum is a positive value lost to 0.0


def positivity_improving_check(op: DiscreteOperator,
                               certificate: MMatrixCertificate,
                               ends: tuple = ()) -> PositivityImprovingReport:
    """The certificate's verdict that every nodal indicator turns strictly
    positive on the mode's region once the step count passes the
    sparsity-graph diameter, staying positive through t_end.

    When the certificate holds, ``ends`` is the pair (K at the threshold
    step, K at t) on the same point-mass columns, from the caller's march,
    and the float cross-check tests their sign on the region in indicator
    units (the column of vertex v times its lumped mass): an entry of
    exactly 0.0 is float underflow and is flagged as such, a negative or
    NaN entry is a program bug and raises AssertionError. B^-1 > 0 proves
    positivity from step 1, so a horizon below the diameter is no error.
    """
    if not certificate.holds:
        return PositivityImprovingReport(Verdict.NOT_APPLICABLE,
                                         reason=certificate.reason)
    if op.mode not in REGION_FOR_MODE:
        return PositivityImprovingReport(
            Verdict.NOT_APPLICABLE,
            reason=f"no positivity region for mode {op.mode.value}")
    threshold = propagation_threshold(op)
    rows = region_vertices(op, REGION_FOR_MODE[op.mode])
    low, end = (float((K.entries[rows] * K.lumped_mass_full[K.columns]).min())
                for K in ends)
    if not (low >= 0.0 and end >= 0.0):
        raise AssertionError(
            f"indicator minima {low!r} at the threshold step and {end!r} at "
            f"t are not positive under a holding positivity certificate")
    return PositivityImprovingReport(
        Verdict.PASS, threshold, tuple(int(v) for v in ends[-1].columns),
        min_at_threshold=low, min_at_end=end, underflow=min(low, end) == 0.0)
