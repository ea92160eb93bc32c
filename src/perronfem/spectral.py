"""Principal eigenpairs, spectral gaps, and positivity certificates.

Hermitian pencils (stiffness, mass) are solved by block inverse iteration:
each sweep is one block solve, two block products and a Rayleigh-Ritz
step on (YᵀAY, YᵀMY). The deterministic shift sits certifiably below the
spectrum, so one factorization (``factorize``, the package's one SuperLU
call) serves every sweep and runs reproduce bitwise. Each pencil has one
route: ``principal_eig`` and ``spectral_gap`` read the consistent pencil,
``perron_pair`` the lumped one, whose one pair starts from the consistent
pencil's two. Non-Hermitian problems (complex Robin, or convection with
b != c) get shift-invert Arnoldi, its pair count doubled until the
field-of-values sector |Im lambda| <= Re lambda + s certifies the least
real parts; meshes too small for ARPACK get the dense spectrum.
``_lowest_pairs`` is the one place that picks the path.
``certify_positivity`` claims a positive principal eigenvector only where
``assembly.mmatrix_certificate`` proves it, and is not applicable
elsewhere."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import BoundaryMode, DiscreteOperator, MassKind, \
    annihilates_constants, assemble, mass_matrix, mmatrix_report

MAX_ARNOLDI_PAIRS = 64  # the doubling cap of the certified Arnoldi path
#: an eigenpair's relative residual may exceed the solver tol up to this
RESIDUAL_FLOOR = 1e-9
MAX_SWEEPS = 500  # the sweep limit of block inverse iteration
GUARD_VECTORS = 2  # extra vectors in its block
STRICT_MARGIN = 1e-9  # the least margin complex_robin_bound calls strict


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
class PerronPair:
    lambda1: complex            # of the lumped pencil
    vector: np.ndarray          # unit lumped-L2 norm, nonnegative-mean sign


@dataclass(frozen=True)
class GapReport:
    values: np.ndarray          # k eigenvalues sorted by real part
    vectors: np.ndarray         # (n_dof, k)
    gap: float
    residuals: np.ndarray


@dataclass(frozen=True)
class PositivityCertificate:
    passed: bool
    region: Region | None = None
    min_value: float = math.nan
    witness_node: int = -1      # mesh vertex index attaining the minimum
    reason: str = ""            # the unmet hypothesis: not applicable
    underflow: bool = False     # min_value is a positive entry lost to 0.0

    def payload(self) -> dict:
        """The reason when not applicable, else the region's minimum."""
        if self.reason:
            return {"reason": self.reason}
        return {"region": self.region.value, "min_value": self.min_value,
                "witness_node": self.witness_node,
                **({"underflow": True} if self.underflow else {})}


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
                     tol: float, start: np.ndarray | None):
    """k smallest eigenpairs of the symmetric pencil (A, M).

    Block inverse iteration with a fixed shift below the spectrum and a
    Rayleigh-Ritz extraction each sweep; GUARD_VECTORS ride along so
    clustered eigenvalues at the block boundary cannot stall the wanted
    pairs. ``start`` (n, j), j <= k + GUARD_VECTORS, replaces the leading
    columns of the deterministic start block; None keeps it.
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

    m = min(n, k + GUARD_VECTORS)
    X = _start_block(n, m)
    if start is not None:
        X[:, :start.shape[1]] = start
    MX = M @ X
    residuals = np.full(m, math.inf)
    for _sweep in range(MAX_SWEEPS):
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


def _hermitian_lower_bound(C, M, mass_lumped: np.ndarray) -> float:
    """A lower bound of the least eigenvalue of the pencil (C, M), C
    Hermitian (a complex C as its real 2n embedding, which has the same
    eigenvalues): shift-invert Lanczos from the Gershgorin shift, minus the
    residual bound |r|_(M^-1) / |x|_M <= 2 |r| / sqrt(min M_L x^T M x)."""
    if abs(C.imag).max() > 0.0:
        C = sp.bmat([[C.real, -C.imag], [C.imag, C.real]], format="csr")
        M, mass_lumped = sp.block_diag((M, M)), np.tile(mass_lumped, 2)
    C = C.real.tocsr()
    sigma = _shift_below_spectrum(C, mass_lumped)
    shifted = C - sigma * M
    OPinv = spla.LinearOperator(shifted.shape, matvec=factorize(shifted).solve,
                                dtype=float)
    try:
        (theta,), x = spla.eigsh(C, k=1, M=M, sigma=sigma, which="LM",
                                 v0=_start_vector(C.shape[0]), OPinv=OPinv)
    except spla.ArpackError as exc:
        raise SolverError(f"shift-invert Lanczos failed: {exc}") from exc
    Mx = M @ x[:, 0]
    return float(theta - 2.0 * np.linalg.norm(C @ x[:, 0] - theta * Mx)
                 / math.sqrt(mass_lumped.min() * (x[:, 0] @ Mx)))


def _sector_offset(op: DiscreteOperator, M) -> float:
    """s with |Im lambda| <= Re lambda + s for every eigenvalue of the
    pencil (A, M). An eigenvector x gives Re lambda = x^H A_s x / x^H M x
    and Im lambda = x^H H x / x^H M x, with A_s = (A + A^H)/2 and
    H = (A - A^H)/(2i) (Bendixson), so s = -min over +- of
    lambda_min(A_s +- H, M). For a real A, A_s - H = conj(A_s + H)."""
    A = op.stiffness
    A_s, H = (A + A.getH()) / 2.0, (A - A.getH()) / 2.0j
    return -min(_hermitian_lower_bound(A_s + sign * H, M, op.mass_lumped)
                for sign in ((1.0, -1.0) if op.is_complex else (1.0,)))


def _residual(A, M, lam: complex, x: np.ndarray) -> float:
    """Relative residual |A x - lam M x| / |M x| of an eigenpair."""
    Mx = M @ x
    return float(np.linalg.norm(A @ x - lam * Mx) / np.linalg.norm(Mx))


def _arnoldi_smallest_real(op: DiscreteOperator, M, k: int, tol: float,
                           s: float):
    """The eigenpairs nearest the Gershgorin shift sigma by shift-invert
    Arnoldi, k + 2 of them, doubled until the sector certifies that the k
    of least real part are among them: any eigenvalue Arnoldi missed lies
    in the sector |Im z| <= Re z + s outside the disc about sigma through
    the farthest one found. Past ``MAX_ARNOLDI_PAIRS``, SolverError.

    ARPACK tests convergence on the shift-inverted operator, so a pair it
    accepts at ``tol`` may miss it on the pencil: when a certified pair's
    relative residual exceeds max(tol, RESIDUAL_FLOOR), the solve runs
    once more at ARPACK's machine precision (tol=0), and a residual still
    above the bound raises SolverError."""
    sigma = _shift_below_spectrum(op.stiffness.real.tocsr(), op.mass_lumped)
    shifted = op.stiffness - sigma * M
    OPinv = spla.LinearOperator(shifted.shape, matvec=factorize(shifted).solve,
                                dtype=shifted.dtype)
    cap, m, arpack_tol = min(MAX_ARNOLDI_PAIRS, op.n_dof - 2), k + 2, tol
    while True:
        try:
            values, vectors = spla.eigs(op.stiffness, k=m, M=M, sigma=sigma,
                                        which="LM", v0=_start_vector(op.n_dof),
                                        tol=arpack_tol, OPinv=OPinv)
        except spla.ArpackError as exc:
            raise SolverError(f"shift-invert Arnoldi failed: {exc}") from exc
        order = np.lexsort((values.imag, values.real))
        values, vectors = values[order], vectors[:, order]
        # the least real part of that region: the least x >= -s with
        # (x - sigma)^2 + (x + s)^2 >= R^2
        R2, c2 = np.abs(values - sigma).max() ** 2, (sigma + s) ** 2
        bound = -s if R2 <= c2 else 0.5 * (sigma - s + math.sqrt(2 * R2 - c2))
        if values[k - 1].real <= bound:
            worst = max(_residual(op.stiffness, M, values[j], vectors[:, j])
                        for j in range(k))
            if worst <= max(tol, RESIDUAL_FLOOR):
                return values, vectors
            if arpack_tol == 0.0:
                raise SolverError(
                    f"Arnoldi residual {worst:.3e} exceeds tolerance at "
                    f"ARPACK's machine precision")
            arpack_tol = 0.0
            continue
        if m >= cap:
            raise SolverError(
                f"{m} Arnoldi pairs do not certify the {k} of least real "
                f"part: Re lambda_{k} {values[k - 1].real:.6g} > {bound:.6g}")
        m = min(2 * m, cap)


def _lowest_pairs(op: DiscreteOperator, mass: MassKind | str, k: int,
                  tol: float):
    """The k eigenpairs of least real part of the pencil (stiffness, mass),
    sorted by real, then imaginary part: the values, the vectors signed by
    ``_fix_sign``, and the relative residuals.

    The operator alone picks the solver: a real Hermitian operator gets
    block inverse iteration, any other the sector-certified shift-invert
    Arnoldi of ``_arnoldi_smallest_real``, or the dense spectrum of the
    pencil where ARPACK cannot run (k + 2 >= n_dof - 1, a handful of
    dofs). Each solve runs once per operator and is shared by every
    caller. The lumped inverse iteration starts from the consistent
    pencil's two least pairs, solved first if no caller has: M_L/4 <= M
    <= M_L and the two pencils' eigenvectors agree to O(h^2).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    mass = MassKind(mass)
    M = mass_matrix(mass, op.mass, op.mass_lumped)
    if op.is_hermitian and not op.is_complex:
        def solve():
            start = None if mass is MassKind.CONSISTENT else np.column_stack(
                _lowest_pairs(op, MassKind.CONSISTENT, min(2, op.n_dof),
                              tol)[1])
            return _hermitian_pairs(op.stiffness, M, op.mass_lumped, k, tol,
                                    start)
        values, vectors, residuals = op.cached(
            ("hermitian_pairs", mass, k, tol), solve)
        return values, [_fix_sign(v, op.mass_lumped) for v in vectors.T], \
            residuals

    def solve():
        if k + 2 < op.n_dof - 1:  # one sector per mass kind, whatever k
            return _arnoldi_smallest_real(op, M, k, tol, op.cached(
                ("sector", mass), lambda: _sector_offset(op, M)))
        values, vectors = sla.eig(op.stiffness.toarray(), M.toarray())
        order = np.lexsort((values.imag, values.real))
        return values[order], vectors[:, order]
    values, vectors = op.cached(("lowest_pairs", mass, k, tol), solve)
    signed = [_fix_sign(vectors[:, j], op.mass_lumped) for j in range(k)]
    residuals = np.array([_residual(op.stiffness, M, lam, v)
                          for lam, v in zip(values, signed)])
    return values[:k], signed, residuals


def _checked_residual(residual: float, tol: float) -> float:
    """The residual; SolverError above max(tol, RESIDUAL_FLOOR)."""
    if residual > max(tol, RESIDUAL_FLOOR):
        raise SolverError(f"eigensolve residual {residual:.3e} exceeds "
                          f"tolerance")
    return float(residual)


def principal_eig(op: DiscreteOperator, tol: float = 1e-10) -> EigenReport:
    """Eigenpair of minimal real part of the consistent pencil (stiffness,
    M), whose eigenvalues converge from above; the gap to the second."""
    values, vectors, residuals = _lowest_pairs(
        op, MassKind.CONSISTENT, min(2, op.n_dof), tol)
    lam1 = complex(values[0])
    residual = _checked_residual(residuals[0], tol)
    gap = float(values[1].real - values[0].real) if len(values) > 1 \
        else math.inf
    scale = max(1.0, abs(lam1))
    multiplicity_flag = gap <= 100.0 * tol * scale
    return EigenReport(lambda1=lam1, vector=vectors[0], residual=residual,
                       gap=gap, multiplicity_flag=multiplicity_flag,
                       mode=op.mode)


def perron_pair(op: DiscreteOperator, tol: float) -> PerronPair:
    """The eigenpair of least real part of the lumped pencil (stiffness,
    M_L), the Perron pair of -M_L^-1 A when A is an irreducible Z-matrix;
    a residual above max(tol, RESIDUAL_FLOOR) raises SolverError."""
    values, vectors, residuals = _lowest_pairs(op, MassKind.LUMPED, 1, tol)
    _checked_residual(residuals[0], tol)
    return PerronPair(lambda1=complex(values[0]), vector=vectors[0])


def spectral_gap(op: DiscreteOperator, k: int, tol: float = 1e-10
                 ) -> GapReport:
    """k least-Re eigenvalues of the consistent pencil; gap = Re l2 - Re l1."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > op.n_dof:
        raise ValueError(f"k = {k} exceeds n_dof = {op.n_dof}")
    values, vectors, residuals = _lowest_pairs(op, MassKind.CONSISTENT, k, tol)
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


def certify_positivity(report: EigenReport | None,
                       op: DiscreteOperator) -> PositivityCertificate:
    """Strict positivity of the principal eigenvector on its mode's region
    (the free dofs), where it is provable: a real Hermitian operator whose
    stiffness A is an irreducible Z-matrix (``mmatrix_report``) that is
    nonsingular, by a witness or as a Stieltjes matrix with lambda1
    resolved above 0, so A^-1 M > 0 has the lambda1 eigenvector as its
    Perron vector; or that annihilates constants, so the Perron vector is
    the constant. Otherwise, and for every non-Hermitian operator (whose
    ``report`` may be None), the certificate is not applicable and
    ``reason`` says why. The float cross-check tests sign: an exact 0.0 is
    flagged as underflow, a negative entry is no Perron vector and fails."""
    if op.mode not in REGION_FOR_MODE:
        return PositivityCertificate(
            False, reason=f"no positivity region for mode {op.mode.value}")
    region = REGION_FOR_MODE[op.mode]
    if op.is_complex or not op.is_hermitian:
        return PositivityCertificate(
            False, region, reason="no Perron argument for a non-Hermitian "
            "operator: |lambda - mu| >= lambda1 - mu does not bound Re lambda")
    cert = mmatrix_report(op)
    # the pencil has an eigenvalue within residual * sqrt(cond M) of
    # lambda1, and M_L/4 <= M <= M_L bounds cond M
    ml = op.mass_lumped
    stieltjes = report.lambda1.real \
        > 2.0 * report.residual * math.sqrt(ml.max() / ml.min())
    if not (cert.holds or cert.irreducible and (
            stieltjes or annihilates_constants(op.stiffness))):
        return PositivityCertificate(False, region, reason=cert.reason)
    arg = int(np.argmin(report.vector))
    min_value = float(report.vector[arg])
    return PositivityCertificate(min_value >= 0.0, region, min_value,
                                 int(op.free_vertices[arg]),
                                 underflow=min_value == 0.0)


def complex_robin_bound(op: DiscreteOperator) -> ComplexRobinBound:
    """Compare the bottom of Re(spectrum) of an assembled COMPLEX_ROBIN
    operator with the bottom of the spectrum of the real-part problem,
    assembled on the same mesh.

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
    op_r = assemble(op.mesh, coeffs_re, mode_re)

    re_min = principal_eig(op).lambda1.real
    lam1 = principal_eig(op_r).lambda1.real
    margin = re_min - lam1
    return ComplexRobinBound(re_min_complex=re_min,
                             min_real_part_problem=lam1,
                             strict=margin > STRICT_MARGIN, margin=margin)
