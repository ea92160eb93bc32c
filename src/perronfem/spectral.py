"""Principal eigenpairs, spectral gaps, and positivity certificates.

Hermitian pencils (stiffness, mass) are solved by block inverse iteration:
each sweep is one block solve, two block products and a Rayleigh-Ritz
step on (YᵀAY, YᵀMY). The deterministic shift sits certifiably below the
spectrum, so one factorization (``factorize``, the package's one SuperLU
call, which drops stored zeros first) serves every sweep and runs
reproduce bitwise. Where the stiffness A is a certified irreducible
nonsingular M-matrix the shift is 0, and one factor of A serves both
pencils; elsewhere each pencil has its own Gershgorin shift and factor,
made once per operator (``_pencil_factor``, which Arnoldi shares). Each
pencil has one route: ``principal_eig`` and ``spectral_gap`` read the
consistent pencil, ``perron_pair`` the lumped one, whose one pair starts
from the consistent pencil's two.
Non-Hermitian problems (complex Robin, or convection with b != c) get
shift-invert Arnoldi, its pair count doubled until the field-of-values
sector |Im lambda| <= Re lambda + s certifies the least real parts, each
ARPACK call capped at MAX_ARNOLDI_RESTARTS restarts so a failure takes
bounded time; meshes too small for ARPACK get the dense spectrum.
``_lowest_pairs`` is the one place that picks the path and accepts a
pair, and it caches one answer per (mass, k, tol), its vectors signed once.
``certify_positivity`` (a Verdict and its payload) claims a positive
principal eigenvector on its mode's region (``REGION``, always the free
dofs) only where the stiffness is provably a nonsingular M-matrix, by
w = 1 or by the zero-shift witness A^-1*1 of ``_zero_shift_factor``, or
annihilates constants; any other operator, a complex one among them, is
not applicable. ``complex_robin_bound`` (a Verdict and payload too) solves
both its pencils at the caller's tol, its real-part operator read off the
assembled one."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import BoundaryMode, DiscreteOperator, MassKind, \
    SolverError, Verdict, annihilates_constants, mass_matrix, \
    mmatrix_report, row_sum_tol

MAX_ARNOLDI_PAIRS = 64  # the doubling cap of the certified Arnoldi path
MAX_ARNOLDI_RESTARTS = 300  # ARPACK's maxiter: a failure takes bounded time
MAX_SWEEPS = 500  # the sweep limit of block inverse iteration
GUARD_VECTORS = 2  # extra vectors in its block
STRICT_MARGIN = 1e-9  # the least margin complex_robin_bound calls strict


def factorize(matrix: sp.spmatrix):
    """The one SuperLU factorization of every step matrix and shifted pencil:
    stored zeros dropped (on a copy; the caller's matrix is untouched), then
    minimum-degree ordering on Aᵀ+A; a singular matrix raises SolverError."""
    matrix = sp.csc_matrix(matrix, copy=True)
    matrix.eliminate_zeros()
    try:
        return spla.splu(matrix, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SolverError(f"singular step matrix or shifted pencil: {exc}") \
            from exc


#: each mode's region, by its payload name, is exactly its free vertices:
#: Dirichlet eliminates the whole boundary (the open domain), mixed its
#: Dirichlet part (the domain plus the flux part), the Robin family nothing
REGION = {
    BoundaryMode.DIRICHLET: "interior",
    BoundaryMode.ROBIN: "closure",
    BoundaryMode.COMPLEX_ROBIN: "closure",
    BoundaryMode.NEUMANN: "closure",
    BoundaryMode.MIXED: "omega_union_n",
}


@dataclass(frozen=True)
class EigenReport:
    lambda1: complex
    vector: np.ndarray          # unit lumped-L2 norm, nonnegative-mean sign
    residual: float
    gap: float                  # Re lambda2 - Re lambda1
    multiplicity_flag: bool     # gap below resolution => possibly degenerate


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
    row_abs = np.asarray(np.abs(A).sum(axis=1)).ravel()
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


def _residual_bound(tol: float, op: DiscreteOperator) -> float:
    """The largest relative residual an accepted eigenpair may have:
    tol, or twice the operator's rounding floor f = eps*|A|_inf / mean(M_L)
    where that is larger. Rounding in A x alone leaves |A x - lam M x| /
    |M x| near f, which grows like h^-2 and the inverse square of the
    domain's side; the stalls seen sit at 0.25-0.27 f on the sweeps and at
    up to 0.63 f on the Arnoldi path, so 2 f leaves room above the worst."""
    floor = op.cached("rounding_floor", lambda: float(
        np.finfo(float).eps * spla.norm(op.stiffness, np.inf)
        / op.mass_lumped.mean()))
    return max(tol, 2.0 * floor)


def _gershgorin_factor(A: sp.spmatrix, M, mass_lumped: np.ndarray):
    """The Gershgorin shift sigma of Re A and the factor of A - sigma*M."""
    sigma = _shift_below_spectrum(A.real.tocsr(), mass_lumped)
    return sigma, factorize(A - sigma * M)


def _pencil_factor(op: DiscreteOperator, mass: MassKind):
    """``_gershgorin_factor`` of the pencil (stiffness, mass), made once per
    operator and mass kind and shared by every k that solves it."""
    return op.cached(("gershgorin_factor", mass), lambda: _gershgorin_factor(
        op.stiffness, mass_matrix(mass, op.mass, op.mass_lumped),
        op.mass_lumped))


def _zero_shift_factor(op: DiscreteOperator):
    """The factor of a real Hermitian operator's stiffness A, made once per
    operator, when the Gershgorin shift is negative and A is an irreducible
    nonsingular M-matrix: ``mmatrix_report(op)`` holds, or, where only its
    witness w = 1 failed, w = A^-1*1 taken from that factor has w > 0 and
    A*w > 0; else None. A stiffness without a positive row sum, A*1 <= 0
    (a singular one that annihilates constants among them), is not tried:
    A^-1 >= 0 would give 1 = A^-1 (A*1) <= 0."""
    def zero_shift():
        A, scan = op.stiffness, mmatrix_report(op)
        if _shift_below_spectrum(A, op.mass_lumped) >= 0.0 \
                or not scan.irreducible \
                or (A @ np.ones(op.n_dof)).max() <= row_sum_tol(A):
            return None
        try:
            lu = factorize(A)
        except SolverError:
            return None
        if scan.holds:
            return lu
        w = lu.solve(np.ones(op.n_dof))
        return lu if np.all(w > 0.0) and np.all(A @ w > 0.0) else None

    return op.cached("zero_shift_factor", zero_shift)


def _hermitian_factor(op: DiscreteOperator, mass: MassKind):
    """The shift sigma below the spectrum of the pencil (stiffness, mass)
    and the factor of A - sigma*M that the sweeps solve through.

    sigma = 0, and the one factor of ``_zero_shift_factor``, serves both
    mass kinds where it exists: a symmetric irreducible nonsingular
    M-matrix is positive definite (Berman & Plemmons, ch. 6), so 0 is
    below both spectra, and A^-1 > 0 makes A^-1 M and A^-1 M_L nonnegative
    iteration operators. Otherwise the pencil gets ``_pencil_factor``,
    1 below both spectra (A - sigma*M >= M)."""
    lu = _zero_shift_factor(op)
    if lu is not None:
        return 0.0, lu
    return _pencil_factor(op, mass)


def _hermitian_pairs(op: DiscreteOperator, mass: MassKind, k: int,
                     tol: float, start: np.ndarray | None):
    """k smallest eigenpairs of the symmetric pencil (stiffness, mass).

    Block inverse iteration through the factor of ``_hermitian_factor``
    (the stiffness's own, shift 0, where it is a certified M-matrix; else
    the pencil's, at the Gershgorin shift), with a Rayleigh-Ritz
    extraction each sweep; GUARD_VECTORS ride along so clustered
    eigenvalues at the block boundary cannot stall the wanted pairs.
    ``start`` (n, j), j <= k + GUARD_VECTORS, replaces the leading columns
    of the deterministic start block; None keeps it. The sweeps stop once
    the k residuals are within ``_residual_bound(tol, op)``; past
    MAX_SWEEPS the last iterate returns: only ``_lowest_pairs`` accepts or
    rejects pairs.
    """
    A, n = op.stiffness, op.n_dof
    M = mass_matrix(mass, op.mass, op.mass_lumped)
    _sigma, lu = _hermitian_factor(op, mass)

    m = min(n, k + GUARD_VECTORS)
    X = _start_block(n, m)
    if start is not None:
        X[:, :start.shape[1]] = start
    MX = M @ X
    bound = _residual_bound(tol, op)
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
        if np.all(residuals[:k] <= bound):
            break
    return values[:k], X[:, :k], residuals[:k]


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
    sigma, lu = _gershgorin_factor(C, M, mass_lumped)
    OPinv = spla.LinearOperator(C.shape, matvec=lu.solve, dtype=float)
    try:
        (theta,), x = spla.eigsh(C, k=1, M=M, sigma=sigma, which="LM",
                                 v0=_start_vector(C.shape[0]), OPinv=OPinv,
                                 maxiter=MAX_ARNOLDI_RESTARTS)
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
    lambda_min(A_s +- H, M). For a real A, A_s - H = conj(A_s + H). Where
    Gershgorin shows H semidefinite (complex Robin's H is diagonal), A_s -
    sign(H) H lies below the other side (Weyl) and is the only one solved."""
    A = op.stiffness
    A_s, H = (A + A.getH()) / 2.0, (A - A.getH()) / 2.0j
    signs = (1.0,)
    if op.is_complex:
        diagonal = H.diagonal().real
        radii = abs(H).sum(axis=1).A1 - abs(diagonal)
        signs = (1.0,) if np.all(-diagonal >= radii) else \
            (-1.0,) if np.all(diagonal >= radii) else (1.0, -1.0)
    return -min(_hermitian_lower_bound(A_s + sign * H, M, op.mass_lumped)
                for sign in signs)


def _residual(A, M, lam: complex, x: np.ndarray) -> float:
    """Relative residual |A x - lam M x| / |M x| of an eigenpair."""
    Mx = M @ x
    return float(np.linalg.norm(A @ x - lam * Mx) / np.linalg.norm(Mx))


def _arnoldi_smallest_real(op: DiscreteOperator, mass: MassKind, k: int,
                           tol: float, s: float):
    """The eigenpairs of the pencil (stiffness, mass) nearest the shift
    sigma of ``_pencil_factor`` by shift-invert Arnoldi, k + 2 of them,
    doubled until the sector certifies that the k of least real part are
    among them: any eigenvalue Arnoldi missed lies in the sector
    |Im z| <= Re z + s outside the disc about sigma through the farthest
    one found. Past ``MAX_ARNOLDI_PAIRS``, SolverError.

    ARPACK tests convergence on the shift-inverted operator, so a pair it
    accepts at ``tol`` may miss it on the pencil: when a certified pair's
    relative residual exceeds ``_residual_bound(tol, op)``, the solve runs
    once more at ARPACK's machine precision (tol=0), whose pairs
    ``_lowest_pairs`` accepts or rejects."""
    A, M = op.stiffness, mass_matrix(mass, op.mass, op.mass_lumped)
    sigma, lu = _pencil_factor(op, mass)
    OPinv = spla.LinearOperator(A.shape, matvec=lu.solve, dtype=A.dtype)
    cap, m, arpack_tol = min(MAX_ARNOLDI_PAIRS, op.n_dof - 2), k + 2, tol
    while True:
        try:
            values, vectors = spla.eigs(A, k=m, M=M, sigma=sigma,
                                        which="LM", v0=_start_vector(op.n_dof),
                                        tol=arpack_tol, OPinv=OPinv,
                                        maxiter=MAX_ARNOLDI_RESTARTS)
        except spla.ArpackError as exc:
            raise SolverError(f"shift-invert Arnoldi failed: {exc}") from exc
        order = np.lexsort((values.imag, values.real))
        values, vectors = values[order], vectors[:, order]
        # the least real part of that region: the least x >= -s with
        # (x - sigma)^2 + (x + s)^2 >= R^2
        R2, c2 = np.abs(values - sigma).max() ** 2, (sigma + s) ** 2
        bound = -s if R2 <= c2 else 0.5 * (sigma - s + math.sqrt(2 * R2 - c2))
        if values[k - 1].real <= bound:
            worst = max(_residual(A, M, values[j], vectors[:, j])
                        for j in range(k))
            if worst <= _residual_bound(tol, op) or arpack_tol == 0.0:
                return values, vectors
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
    sorted by real, then imaginary part: the values, a tuple of the vectors
    signed by ``_fix_sign`` (read-only, each in its own dtype), and the
    relative residuals, each within ``_residual_bound(tol, op)``.

    The operator alone picks the solver: a real Hermitian operator gets
    block inverse iteration, any other the sector-certified shift-invert
    Arnoldi of ``_arnoldi_smallest_real``, or the dense spectrum of the
    pencil where ARPACK cannot run (k + 2 >= n_dof - 1, a handful of
    dofs). Each solve runs once per operator and is shared by every
    caller, a SolverError too. The lumped inverse iteration starts from
    the consistent pencil's two least pairs, solved first if no caller
    has: M_L/4 <= M <= M_L and the pencils' eigenvectors agree to O(h^2).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    mass = MassKind(mass)

    def solve():
        M = mass_matrix(mass, op.mass, op.mass_lumped)
        residuals = None
        if op.is_hermitian and not op.is_complex:
            start = None if mass is MassKind.CONSISTENT else np.column_stack(
                _lowest_pairs(op, MassKind.CONSISTENT, min(2, op.n_dof),
                              tol)[1])
            values, vectors, residuals = _hermitian_pairs(op, mass, k, tol,
                                                          start)
        elif k + 2 < op.n_dof - 1:  # one sector and factor per mass kind
            s = op.cached(("sector", mass), lambda: _sector_offset(op, M))
            values, vectors = _arnoldi_smallest_real(op, mass, k, tol, s)
        else:
            values, vectors = sla.eig(op.stiffness.toarray(), M.toarray())
            order = np.lexsort((values.imag, values.real))
            values, vectors = values[order], vectors[:, order]
        signed = tuple(_fix_sign(vectors[:, j], op.mass_lumped)
                       for j in range(k))
        if residuals is None:
            residuals = np.array([_residual(op.stiffness, M, lam, v)
                                  for lam, v in zip(values, signed)])
        bound = _residual_bound(tol, op)
        if not np.all(residuals <= bound):
            raise SolverError(f"eigensolve residuals {residuals} exceed "
                              f"the bound {bound:.3e}")
        for v in signed:
            v.flags.writeable = False
        return values[:k], signed, residuals
    return op.cached(("eigenpairs", mass, k, tol), solve)


def principal_eig(op: DiscreteOperator, tol: float = 1e-10) -> EigenReport:
    """Eigenpair of minimal real part of the consistent pencil (stiffness,
    M), whose eigenvalues converge from above; the gap to the second."""
    values, vectors, residuals = _lowest_pairs(
        op, MassKind.CONSISTENT, min(2, op.n_dof), tol)
    lam1 = complex(values[0])
    gap = float(values[1].real - values[0].real) if len(values) > 1 \
        else math.inf
    scale = max(1.0, abs(lam1))
    multiplicity_flag = gap <= 100.0 * tol * scale
    return EigenReport(lambda1=lam1, vector=vectors[0],
                       residual=float(residuals[0]), gap=gap,
                       multiplicity_flag=multiplicity_flag)


def perron_pair(op: DiscreteOperator, tol: float) -> PerronPair:
    """The eigenpair of least real part of the lumped pencil (stiffness,
    M_L), the Perron pair of -M_L^-1 A when A is an irreducible Z-matrix;
    a residual above ``_residual_bound(tol, op)`` raises SolverError."""
    values, vectors, _ = _lowest_pairs(op, MassKind.LUMPED, 1, tol)
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

def certify_positivity(report: EigenReport | None, op: DiscreteOperator):
    """(Verdict, payload): strict positivity of the principal eigenvector
    on its mode's region (the free dofs), where it is provable: a real
    Hermitian operator whose stiffness A is an irreducible Z-matrix
    (``mmatrix_report``) that is nonsingular, by w = 1 or by the witness
    of ``_zero_shift_factor``, so A^-1 > 0 and A^-1 M > 0 has the lambda1
    eigenvector as its Perron vector; or that annihilates constants, so
    the Perron vector is the constant. Otherwise, and for every complex or
    non-Hermitian operator (whose ``report`` may be None), the verdict is
    NOT_APPLICABLE, its payload the reason. The float cross-check tests
    the sign of ``min_value`` at ``witness_node``: an exact 0.0 is flagged
    as underflow, a negative entry is no Perron vector and fails."""
    if op.is_complex or not op.is_hermitian:
        return Verdict.NOT_APPLICABLE, {
            "reason": "no Perron argument for a non-Hermitian operator: "
                      "|lambda - mu| >= lambda1 - mu does not bound Re lambda"}
    cert = mmatrix_report(op)
    if not (cert.holds or _zero_shift_factor(op) is not None
            or cert.irreducible and annihilates_constants(op.stiffness)):
        return Verdict.NOT_APPLICABLE, {"reason": cert.reason}
    arg = int(np.argmin(report.vector))
    min_value = float(report.vector[arg])
    return (Verdict.PASS if min_value >= 0.0 else Verdict.FAIL,
            {"region": REGION[op.mode], "min_value": min_value,
             "witness_node": int(op.free_vertices[arg]),
             **({"underflow": True} if min_value == 0.0 else {})})


def complex_robin_bound(op: DiscreteOperator, tol: float = 1e-10):
    """(Verdict, payload): the bottom of Re(spectrum) of an assembled
    COMPLEX_ROBIN operator against that of its real-part problem, both
    pencils solved at ``tol``. The real parts always dominate; the verdict
    is PASS when the margin exceeds STRICT_MARGIN, as it does exactly when
    the imaginary part of beta is genuinely active. The real-part operator
    is this one with the real part of its stiffness, bit for bit the
    stiffness of real beta, and the same mass: nothing is assembled."""
    if op.mode is not BoundaryMode.COMPLEX_ROBIN:
        raise ValueError(f"expected a complex_robin operator, got "
                         f"{op.mode.value}")
    op_r = replace(op, stiffness=op.stiffness.real, mode=BoundaryMode.ROBIN,
                   coeffs=replace(op.coeffs, beta=op.coeffs.beta.real,
                                  validate=False))
    re_min = principal_eig(op, tol).lambda1.real
    lam1 = principal_eig(op_r, tol).lambda1.real
    margin = re_min - lam1
    return (Verdict.PASS if margin > STRICT_MARGIN else Verdict.FAIL,
            {"re_min_complex": re_min, "min_real_part_problem": lam1,
             "margin": margin})
