"""Discrete heat semigroups: evolution, kernels, positivity certificates.

The implicit Euler step with lumped mass is the workhorse for positivity:
``step_certificate`` asks ``assembly.mmatrix_certificate`` whether the
step matrix B = M_L + dt*A is an irreducible nonsingular M-matrix. Then
B^-1 > 0, every kernel K(t) = (B^-1 M_L)^n M_L^-1 is positive on the free
pairs and every nodal indicator is positive after one step; the
certificate alone decides both positivity verdicts, whatever the mode,
and a complex operator has none. In floats, values decay fast with graph
distance, so the cross-checks test only the sign of the point-mass
columns at two far-apart dofs of the sparsity graph (``peripheral_pair``),
at the first step, where the certificate's claim begins, and at t.

``step_matrices`` is the one place a scheme becomes matrices; the
boundary-pinned solve in ``parabolic`` slices its rows. ``march`` is the
one step loop, forward or adjoint: it factorizes the step once per
operator and (scheme, dt, mass), by ``spectral.factorize``, and serves
``kernel``, the certificate's witness and the ``perronfem evolve`` and
``perronfem kernel`` commands, which keep one state at a time. No
trajectory is stacked, and a state that is not finite stops the march.
``kernel`` applies K(t) or K(t)^T to a block of columns. The checks take
dof-space arrays and name vertices only in what they report; only the
``perronfem kernel`` dump spreads onto the vertices. Both checks return
(Verdict, payload), the payload as it is reported: the certificate's
reason alone when it does not hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .assembly import DiscreteOperator, MassKind, MMatrixCertificate, \
    Verdict, mass_matrix, mmatrix_certificate, mmatrix_report, \
    offdiagonal_pattern
from .spectral import SolverError, factorize


class Scheme(Enum):
    IMPLICIT_EULER = "implicit_euler"
    CRANK_NICOLSON = "crank_nicolson"


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    t_end: float
    scheme: Scheme = Scheme.IMPLICIT_EULER
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


#: steps in the default horizon of every command
DEFAULT_STEPS = 80


def default_dt(mesh) -> float:
    """Step size balancing damping error against step count: h_max^2 / 4."""
    return mesh.h_max ** 2 / 4.0


def default_evolution(mesh, dt: float | None = None,
                      t_end: float | None = None, **kwargs) -> EvolutionConfig:
    """Fill in the defaults: dt = h_max^2 / 4 and a horizon of 80 steps.
    The positivity certificate holds from the first step, so no horizon
    needs more."""
    dt = default_dt(mesh) if dt is None else float(dt)
    if t_end is None:
        t_end = DEFAULT_STEPS * dt
    return EvolutionConfig(dt=dt, t_end=float(t_end), **kwargs)


def step_matrices(A: sp.spmatrix, M: sp.spmatrix, scheme: Scheme,
                  dt: float) -> tuple:
    """(lhs, rhs) of the one-step scheme lhs u(k+1) = rhs u(k), in CSR:
    (M + dt A, M) for implicit Euler, (M + dt/2 A, M - dt/2 A) for
    Crank-Nicolson."""
    if Scheme(scheme) is Scheme.IMPLICIT_EULER:
        return (M + dt * A).tocsr(), M.tocsr()
    return (M + 0.5 * dt * A).tocsr(), (M - 0.5 * dt * A).tocsr()


def march(op: DiscreteOperator, cfg: EvolutionConfig, u: np.ndarray,
          n_steps: int, adjoint: bool = False):
    """Yield the states after steps 1..n_steps from u, a state or a block
    of states (one per column); with ``adjoint``, steps of the transposed
    scheme through the same factor. SuperLU treats each column of a block
    exactly as it treats a single vector, so a block march is bitwise
    equal to column marches. The step is factorized once per operator and
    (scheme, dt, mass); a failed factorization or solve, or a state that
    is not finite (lambda1 < 0 grows it), raises SolverError at its step."""
    def factor():
        lhs, rhs = step_matrices(
            op.stiffness, mass_matrix(cfg.mass, op.mass, op.mass_lumped),
            cfg.scheme, cfg.dt)
        return factorize(lhs), rhs

    lu, rhs = op.cached(("step", cfg.scheme, cfg.dt, cfg.mass), factor)
    for k in range(1, n_steps + 1):
        try:
            u = rhs.T @ lu.solve(u, trans="T") if adjoint \
                else lu.solve(rhs @ u)
        except RuntimeError as exc:
            raise SolverError(f"linear solve failed at step {k}: {exc}") \
                from exc
        if not np.isfinite(u).all():
            raise SolverError(f"the state at step {k} is not finite")
        yield u


# ---------------------------------------------------------------------------
# probe columns

def peripheral_pair(op: DiscreteOperator) -> tuple:
    """Two far-apart free dofs of the stiffness sparsity graph, in
    ascending order; the one free dof of a one-vertex graph.

    Breadth-first sweeps start at dof 0, each later one from the farthest
    vertex of the one before, until the eccentricity stops growing; the
    last improving sweep's source and farthest vertex are the pair. They
    need not sit at the graph's diameter: the pair only picks the probe
    columns.
    """
    pattern = offdiagonal_pattern(op.stiffness)
    pattern = (pattern + pattern.T).tocsr()
    u, v, best = 0, 0, 0.0
    while True:
        # unweighted Dijkstra is scipy's breadth-first sweep with distances
        d = dijkstra(pattern, unweighted=True, indices=v)
        w = int(np.argmax(d))
        if not d[w] > best:
            return (u,) if u == v else tuple(sorted((u, v)))
        u, v, best = v, w, d[w]


# ---------------------------------------------------------------------------
# kernels

def step_certificate(step: sp.spmatrix, cfg: EvolutionConfig, scan: float,
                     solve, name: str) -> MMatrixCertificate:
    """The one positivity certificate of an implicit step: implicit Euler
    with lumped mass, whose step matrix ``step`` passes
    ``mmatrix_certificate`` with the caller's sign ``scan`` and, when
    step*1 > 0 fails, the witness ``solve(1)`` = step^-1*1 through the
    factor the caller steps with."""
    if (cfg.scheme, cfg.mass) != (Scheme.IMPLICIT_EULER, MassKind.LUMPED):
        return MMatrixCertificate(False, reason="positivity certificates "
                                  "need implicit Euler with lumped mass")
    return mmatrix_certificate(
        step, name, scan, inverse_ones=lambda: solve(np.ones(step.shape[0])))


def kernel_certificate(op: DiscreteOperator,
                       cfg: EvolutionConfig) -> MMatrixCertificate:
    """Structural positivity certificate of the kernel: a real operator
    whose step B = M_L + dt*A passes ``step_certificate``. B's sign scan is
    the stiffness's; its witness B^-1*1 is one step of the march, through
    the factor it caches, from M_L^-1*1. Cached on the operator per
    (scheme, dt, mass), like that factor."""
    def certify():
        if op.is_complex:
            return MMatrixCertificate(False, reason="complex operator")
        B, _ = step_matrices(op.stiffness, mass_matrix(
            cfg.mass, op.mass, op.mass_lumped), cfg.scheme, cfg.dt)
        return step_certificate(
            B, cfg, mmatrix_report(op).offdiag_max,
            lambda ones: next(march(op, cfg, ones / op.mass_lumped, 1)),
            "step matrix")
    return op.cached(("certificate", cfg.scheme, cfg.dt, cfg.mass), certify)


def kernel(op: DiscreteOperator, t: float | tuple, cfg: EvolutionConfig,
           block: np.ndarray, adjoint: bool = False):
    """The heat kernel K(t) applied to a block Z of dof-space columns:
    K(t) Z, or K(t)^T Z with ``adjoint``, as an (n_dof, k) array.

    K(t) = S^n M_L^-1, with S the one-step matrix and n the steps to t.
    The forward march starts from M_L^-1 Z; the adjoint march steps Z with
    S^T, through the same factorization, and divides by M_L at the end.
    SuperLU solves each column alone, so a column comes out bitwise the
    same in any block. t may be a tuple of times: the block then marches
    once, to the latest of them, and one result per time comes back in the
    order given, as from its own march.
    """
    single = not isinstance(t, (tuple, list))
    steps = [replace(cfg, t_end=ti).n_steps for ti in ((t,) if single else t)]
    if not adjoint:
        block = block / op.mass_lumped[:, None]
    states = march(op, cfg, block, max(steps), adjoint)
    snapshots = {k: U for k, U in enumerate(states, 1) if k in steps}
    out = [snapshots[n] / op.mass_lumped[:, None] if adjoint else snapshots[n]
           for n in steps]
    return out[0] if single else tuple(out)


def kernel_positivity_report(op: DiscreteOperator,
                             certificate: MMatrixCertificate,
                             columns: np.ndarray, K: np.ndarray):
    """(Verdict, payload): the certificate's verdict on the free pairs,
    cross-checked in floats on K, K(t) at the point masses of the dofs
    ``columns`` in dof rows: its smallest entry ``min_entry`` and the pair
    of vertices ``witness`` where it sits. Without a certificate the
    verdict is NOT_APPLICABLE and the payload is its reason alone. Under
    a holding certificate an entry of exactly 0.0 is float underflow of a
    positive entry and is flagged ``underflow``; a negative or NaN entry
    is a program bug and raises AssertionError."""
    if not certificate.holds:
        return Verdict.NOT_APPLICABLE, {"reason": certificate.reason}
    row, col = np.unravel_index(int(np.argmin(K)), K.shape)
    min_entry = float(K[row, col])
    witness = [int(op.free_vertices[row]),
               int(op.free_vertices[columns[col]])]
    if not min_entry >= 0.0:
        raise AssertionError(
            f"kernel entry {min_entry!r} at {witness} is not positive "
            f"under a holding positivity certificate")
    return Verdict.PASS, {"min_entry": min_entry, "witness": witness,
                          **({"underflow": True} if min_entry == 0.0
                             else {})}


def positivity_improving_check(op: DiscreteOperator,
                               certificate: MMatrixCertificate,
                               columns: np.ndarray = (), ends: tuple = ()):
    """(Verdict, payload): the certificate's verdict that every nodal
    indicator is strictly positive on the mode's region, which is the
    free vertices, from the first step through t_end: B^-1 > 0 maps a
    nonnegative, nonzero state to a positive one.

    When the certificate holds, ``ends`` is the pair (K at step 1, K at t)
    at the point masses of the dofs ``columns``, in dof rows, from the
    caller's march, and the float cross-check tests their sign in
    indicator units (the column of dof j times its lumped mass): the
    payload counts the columns (``trials``) and gives the two minima; an
    entry of exactly 0.0 is float underflow and is flagged ``underflow``,
    a negative or NaN entry is a program bug and raises AssertionError.
    Without a certificate the verdict is NOT_APPLICABLE with no trials and
    the certificate's reason.
    """
    if not certificate.holds:
        return Verdict.NOT_APPLICABLE, {"trials": 0,
                                        "reason": certificate.reason}
    weights = op.mass_lumped[columns]
    low, end = (float((K * weights).min()) for K in ends)
    if not (low >= 0.0 and end >= 0.0):
        raise AssertionError(
            f"indicator minima {low!r} at the first step and {end!r} at "
            f"t are not positive under a holding positivity certificate")
    return Verdict.PASS, {"trials": len(columns), "min_at_first_step": low,
                          "worst_min_at_end": end,
                          **({"underflow": True} if min(low, end) == 0.0
                             else {})}
