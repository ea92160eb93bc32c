"""Principal eigenpairs, spectral gaps, and positivity certificates.

Hermitian pencils (stiffness, mass) are solved by block inverse iteration:
each sweep is one block solve, two block products and a Rayleigh-Ritz
step on (YᵀAY, YᵀMY). The deterministic shift sits certifiably below the
spectrum, so one factorization (``factorize``, the package's one SuperLU
call) serves every sweep and runs reproduce bitwise. Non-Hermitian
problems (complex Robin, or convection with b != c) get the full spectrum
from a dense Cholesky-reduced standard eigensolve up to ``DENSE_CUTOFF``
dofs and shift-invert Arnoldi above it. ``_lowest_pairs`` is the one place
that picks the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import BoundaryMode, DiscreteOperator, MassKind, assemble, \
    mass_matrix

#: a nodal value counts as strictly positive when >= this times max |u|
POSITIVITY_REL_TOL = 1e-12

DENSE_CUTOFF = 2000


class SolverError(RuntimeError):
    pass


def factorize(matrix: sp.spmatrix):
    """The one SuperLU factorization of every step matrix and shifted pencil:
    minimum-degree ordering on Aᵀ+A; a singular matrix raises SolverError."""
    try:
        return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SolverError(f"singular step matrix or shifted pencil: {exc}") \
            from exc


class Region(Enum):
    INTERIOR = "interior"            # open domain
    CLOSURE = "closure"              # domain plus full boundary
    OMEGA_UNION_N = "omega_union_n"  # domain plus flux boundary part


REGION_FOR_MODE = {
    BoundaryMode.DIRICHLET: Region.INTERIOR,
    BoundaryMode.ROBIN: Region.CLOSURE,
    BoundaryMode.NEUMANN: Region.CLOSURE,
    BoundaryMode.MIXED: Region.OMEGA_UNION_N,
}


@dataclass(frozen=True)
class EigenReport:
    lambda1: complex
    vector: np.ndarray          # unit lumped-L2 norm, nonnegative-mean sign
    residual: float
    gap: float                  # Re lambda2 - Re lambda1
    multiplicity_flag: bool     # gap below resolution => possibly degenerate
    mode: BoundaryMode


@dataclass(frozen=True)
class GapReport:
    values: np.ndarray          # k eigenvalues sorted by real part
    vectors: np.ndarray         # (n_dof, k)
    gap: float
    residuals: np.ndarray


@dataclass(frozen=True)
class PositivityCertificate:
    region: Region
    min_value: float
    witness_node: int           # mesh vertex index attaining the minimum
    delta_claim: float
    passed: bool


@dataclass(frozen=True)
class ComplexRobinBound:
    re_min_complex: float
    min_real_part_problem: float
    strict: bool
    margin: float


# ---------------------------------------------------------------------------
# deterministic inverse iteration for Hermitian pencils

def _shift_below_spectrum(A: sp.csr_matrix, mass_lumped: np.ndarray) -> float:
    """A deterministic shift strictly below min eig of the pencil.

    Gershgorin on the lumped-scaled matrix bounds the lumped-pencil
    spectrum from below by L; the consistent P1 mass satisfies
    M_lumped/4 <= M <= M_lumped in the quadratic-form order, so
    min(L, 4L) - 1 is below the consistent pencil as well.
    """
    diag = A.diagonal().real
    row_abs = np.abs(A).sum(axis=1)
    row_abs = np.asarray(row_abs).ravel()
    L = float(np.min((diag - (row_abs - np.abs(diag))) / mass_lumped))
    return min(L, 4.0 * L) - 1.0


def _start_vector(n: int) -> np.ndarray:
    # constant-plus-golden-ratio ramp: deterministic and not orthogonal to
    # low symmetric or antisymmetric modes
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    return 1.0 + ((np.arange(n) * phi) % 1.0)


def _start_block(n: int, k: int) -> np.ndarray:
    block = np.empty((n, k))
    block[:, 0] = _start_vector(n)
    if k > 1:
        rng = np.random.default_rng(0)  # fixed seed: reproducible iterates
        block[:, 1:] = rng.standard_normal((n, k - 1))
    return block


def _hermitian_pairs(A: sp.csr_matrix, M, mass_lumped: np.ndarray, k: int,
                     tol: float, max_iter: int = 500, guard: int = 2):
    """k smallest eigenpairs of the symmetric pencil (A, M).

    Block inverse iteration with a fixed shift below the spectrum and a
    Rayleigh-Ritz extraction each sweep; a couple of guard vectors ride
    along so clustered eigenvalues at the block boundary cannot stall the
    wanted pairs.
    """
    n = A.shape[0]
    if k > n:
        raise ValueError(f"requested {k} eigenpairs of an {n}-dim problem")
    sigma = _shift_below_spectrum(A, mass_lumped)
    try:
        lu = factorize(A - sigma * M)
    except SolverError as exc:
        # shift adjustment on singular factorization
        sigma -= 10.0 * tol
        try:
            lu = factorize(A - sigma * M)
        except SolverError:
            raise SolverError(f"shift adjustment failed at sigma = {sigma}") \
                from exc

    m = min(n, k + guard)
    X = _start_block(n, m)
    MX = M @ X
    residuals = np.full(m, math.inf)
    for _sweep in range(max_iter):
        Y = lu.solve(MX)
        AY, MY = A @ Y, M @ Y
        # Rayleigh-Ritz on (YᵀAY, YᵀMY), columns scaled to unit M-norm
        G = Y.T @ MY
        d = 1.0 / np.sqrt(G.diagonal())
        H = d[:, None] * (Y.T @ AY) * d
        G = d[:, None] * G * d
        try:
            values, W = sla.eigh(0.5 * (H + H.T), 0.5 * (G + G.T))
        except sla.LinAlgError as exc:
            raise SolverError("iteration block became rank deficient") \
                from exc
        W = d[:, None] * W
        X, AX, MX = Y @ W, AY @ W, MY @ W
        residuals = np.linalg.norm(AX - MX * values[None, :], axis=0) \
            / np.linalg.norm(MX, axis=0)
        if np.all(residuals[:k] <= tol):
            break
    else:
        raise SolverError(
            "inverse iteration did not converge: residuals "
            f"{[f'{r:.3e}' for r in residuals[:k]]} > tol {tol:.3e}")
    return values[:k].copy(), X[:, :k].copy(), residuals[:k].copy()


def _fix_sign(vector: np.ndarray, mass_lumped: np.ndarray) -> np.ndarray:
    """Unit lumped-L2 norm; lumped mean nonnegative, ties broken by the
    first nonzero component."""
    nrm = math.sqrt(float(np.real(np.vdot(vector, mass_lumped * vector))))
    v = vector / nrm
    if np.iscomplexobj(v):
        m = complex(np.sum(mass_lumped * v))
        if abs(m) <= 1e-14:
            nz = np.flatnonzero(np.abs(v) > 1e-14)
            m = complex(v[nz[0]]) if nz.size else 1.0
        v = v * (abs(m) / m)
        if np.abs(v.imag).max() <= 1e-12:
            v = v.real.copy()
        return v
    m = float(np.sum(mass_lumped * v))
    if m < 0:
        return -v
    if m == 0.0:
        nz = np.flatnonzero(v != 0)
        if nz.size and v[nz[0]] < 0:
            return -v
    return v


def _dense_sorted_spectrum(op: DiscreteOperator, mass: MassKind):
    """Spectrum sorted by real, then imaginary part: one dense
    Cholesky-reduced standard eigensolve per operator and mass kind.

    Either mass is real symmetric positive definite, so with M = L Lᵀ
    the pencil (A, M) has the spectrum of C = L⁻¹ A L⁻ᵀ, solved by
    Hessenberg QR instead of QZ, and x = L⁻ᵀ y maps the vectors back.
    """
    def solve():
        try:
            L = sla.cholesky(mass_matrix(mass, op.mass, op.mass_lumped)
                             .toarray(), lower=True)
        except sla.LinAlgError as exc:
            raise SolverError(f"the {MassKind(mass).value} mass matrix has "
                              f"no Cholesky factor: {exc}") from exc
        C = sla.solve_triangular(L, op.stiffness.toarray(order="F"),
                                 lower=True, overwrite_b=True)
        # (L⁻¹ A) L⁻ᵀ = (L⁻¹ (L⁻¹ A)ᵀ)ᵀ
        C = sla.solve_triangular(L, C.T, lower=True, overwrite_b=True).T
        values, vectors = sla.eig(C, overwrite_a=True)
        vectors = sla.solve_triangular(L, vectors, lower=True, trans="T",
                                       overwrite_b=True)
        order = np.lexsort((values.imag, values.real))
        return values[order], vectors[:, order]
    return op.cached(("dense_spectrum", mass), solve)


def _arnoldi_smallest_real(op: DiscreteOperator, M, k: int, tol: float):
    """Shift-invert Arnoldi near a certified lower bound of Re(spectrum)."""
    sigma = _shift_below_spectrum(op.stiffness.real.tocsr(), op.mass_lumped)
    shifted = op.stiffness - sigma * M
    OPinv = spla.LinearOperator(shifted.shape, matvec=factorize(shifted).solve,
                                dtype=shifted.dtype)
    v0 = _start_vector(op.n_dof)
    try:
        values, vectors = spla.eigs(op.stiffness, k=k, M=M, sigma=sigma,
                                    which="LM", v0=v0, tol=tol, OPinv=OPinv)
    except spla.ArpackError as exc:
        raise SolverError(f"shift-invert Arnoldi failed: {exc}") from exc
    order = np.lexsort((values.imag, values.real))
    return values[order], vectors[:, order]


def _lowest_pairs(op: DiscreteOperator, mass: MassKind | str, k: int,
                  tol: float):
    """The k eigenpairs of least real part of the pencil (stiffness, mass),
    sorted by real, then imaginary part: the values, the vectors signed by
    ``_fix_sign``, and the relative residuals.

    The operator alone picks the solver: a real Hermitian operator gets
    block inverse iteration, any other operator the full spectrum of a
    dense Cholesky-reduced standard eigensolve up to ``DENSE_CUTOFF`` dofs
    and shift-invert Arnoldi above it. Each solve runs once per operator
    and is shared by every caller.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    mass = MassKind(mass)
    M = mass_matrix(mass, op.mass, op.mass_lumped)
    if op.is_hermitian and not op.is_complex:
        values, vectors, residuals = op.cached(
            ("hermitian_pairs", mass, k, tol), lambda: _hermitian_pairs(
                op.stiffness, M, op.mass_lumped, k, tol))
        return values, [_fix_sign(v, op.mass_lumped) for v in vectors.T], \
            residuals
    if op.n_dof <= DENSE_CUTOFF:
        values, vectors = _dense_sorted_spectrum(op, mass)
    else:  # two guard pairs, as in the Hermitian block
        if k > op.n_dof - 2:
            raise ValueError(
                f"k = {k} exceeds n_dof - 2 = {op.n_dof - 2}, the most "
                f"eigenpairs shift-invert Arnoldi gives above "
                f"{DENSE_CUTOFF} dofs")
        values, vectors = op.cached(("arnoldi", mass, k, tol), lambda: (
            _arnoldi_smallest_real(op, M, min(k + 2, op.n_dof - 2), tol)))
    signed = [_fix_sign(vectors[:, j], op.mass_lumped) for j in range(k)]
    residuals = np.array([
        float(np.linalg.norm(op.stiffness @ v - lam * (M @ v))
              / np.linalg.norm(M @ v)) for lam, v in zip(values, signed)])
    return values[:k], signed, residuals


def principal_eig(op: DiscreteOperator, tol: float = 1e-10,
                  mass: MassKind | str = MassKind.CONSISTENT) -> EigenReport:
    """Eigenpair of minimal real part for the pencil (stiffness, mass).

    ``mass`` selects the consistent pencil (default; eigenvalues converge
    from above) or the lumped pencil (used by the sign-structure
    certificates).
    """
    values, vectors, residuals = _lowest_pairs(op, mass, min(2, op.n_dof),
                                               tol)
    lam1 = complex(values[0])
    residual = float(residuals[0])
    if residual > max(tol, 1e-9):
        raise SolverError(f"eigensolve residual {residual:.3e} exceeds "
                          f"tolerance")
    gap = float(values[1].real - values[0].real) if len(values) > 1 \
        else math.inf
    scale = max(1.0, abs(lam1))
    multiplicity_flag = gap <= 100.0 * tol * scale
    return EigenReport(lambda1=lam1, vector=vectors[0], residual=residual,
                       gap=gap, multiplicity_flag=multiplicity_flag,
                       mode=op.mode)


def spectral_gap(op: DiscreteOperator, k: int, tol: float = 1e-10,
                 mass: MassKind | str = MassKind.CONSISTENT) -> GapReport:
    """k smallest-real-part eigenvalues, sorted; gap = Re l2 - Re l1."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > op.n_dof:
        raise ValueError(f"k = {k} exceeds n_dof = {op.n_dof}")
    values, vectors, residuals = _lowest_pairs(op, mass, k, tol)
    gap = float(np.real(values[1]) - np.real(values[0]))
    return GapReport(values=values, vectors=np.column_stack(vectors),
                     gap=gap, residuals=residuals)


# ---------------------------------------------------------------------------
# certificates

def region_vertices(op: DiscreteOperator, region: Region) -> np.ndarray:
    mesh = op.mesh
    if region is Region.INTERIOR:
        return np.setdiff1d(np.arange(mesh.n_vertices),
                            mesh.boundary_vertices())
    if region is Region.CLOSURE:
        return np.arange(mesh.n_vertices)
    return np.setdiff1d(np.arange(mesh.n_vertices),
                        op.constrained_vertices)


def certify_positivity(report: EigenReport,
                       op: DiscreteOperator) -> PositivityCertificate:
    """Nodal minimum of an eigenvector over the region its boundary mode
    claims positivity on; Dirichlet-constrained nodes are verified to be
    exactly zero."""
    vector = report.vector
    if np.iscomplexobj(vector):
        raise SolverError("positivity certificates require a real eigenvector")
    if op.mode not in REGION_FOR_MODE:
        raise SolverError(f"no positivity region for mode {op.mode.value}")
    region = REGION_FOR_MODE[op.mode]

    full = op.expand(vector)
    constrained = op.constrained_vertices
    if constrained.size and np.any(full[constrained] != 0.0):
        raise SolverError("constrained nodes must carry exact zeros")

    nodes = region_vertices(op, region)
    values = full[nodes]
    arg = int(np.argmin(values))
    min_value = float(values[arg])
    witness = int(nodes[arg])
    tol = POSITIVITY_REL_TOL * float(np.abs(full).max())
    return PositivityCertificate(region=region, min_value=min_value,
                                 witness_node=witness,
                                 delta_claim=min_value,
                                 passed=min_value >= tol)


def complex_robin_bound(op: DiscreteOperator,
                        tol: float = 1e-9) -> ComplexRobinBound:
    """Compare the bottom of Re(spectrum) of an assembled COMPLEX_ROBIN
    operator with the bottom of the spectrum of the real-part problem,
    assembled on the same mesh with the same lumping.

    The real parts of the complex-problem eigenvalues always dominate the
    real-part problem's minimum; the inequality is strict exactly when the
    imaginary part of beta is genuinely active.
    """
    if op.mode is not BoundaryMode.COMPLEX_ROBIN:
        raise ValueError(f"expected a complex_robin operator, got "
                         f"{op.mode.value}")
    beta = np.asarray(op.coeffs.beta, dtype=complex)
    coeffs_re = replace(op.coeffs, beta=beta.real.copy(), validate=False)
    mode_re = BoundaryMode.NEUMANN if np.all(beta.real == 0) \
        else BoundaryMode.ROBIN
    op_r = assemble(op.mesh, coeffs_re, mode_re,
                    lump_reaction=op.lump_reaction,
                    lump_boundary=op.lump_boundary)

    re_min = principal_eig(op).lambda1.real
    lam1 = principal_eig(op_r).lambda1.real
    margin = re_min - lam1
    return ComplexRobinBound(re_min_complex=re_min,
                             min_real_part_problem=lam1,
                             strict=margin > tol, margin=margin)
