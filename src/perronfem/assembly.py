"""P1 assembly of divergence-form operators with tagged boundary conditions.

The assembled bilinear form on a triangulation is, with piecewise-constant
coefficients per triangle,

    form(u, v) = sum_T |T| * [ grad(v) . a^T grad(u)
                               + (b . grad(v)) * mean(u)
                               + (c . grad(u)) * mean(v)
                               + c0 * quad(u v) ]
                 + sum_{flux edges e} beta_e * quad_e(u v)     (Robin modes)

so that stiffness[i][j] = form(phi_j, phi_i) for nodal hat functions phi.
The zero-order volume term and the Robin edge term are lumped (quad =
vertex/trapezoidal rule): lumping keeps their contribution diagonal, which
preserves the sign structure needed for discrete positivity on nonobtuse
meshes.

Dirichlet conditions are imposed by row/column elimination so spectra stay
unpolluted; the eliminated vertex set depends on the boundary mode (for
mixed conditions the closed Dirichlet part is eliminated, including
junction vertices shared with flux edges).
"""

from __future__ import annotations

import ctypes
import math
import reprlib
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .mesh import BoundaryTag, TriMesh

CONSTANTS_TOL = 1e-10  # row_sum_tol, relative to max(1, max|A|)


class AssemblyError(ValueError):
    pass


class SolverError(RuntimeError):
    """A factorization or eigensolve that failed."""


def _find_malloc_trim():
    try:
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    except (OSError, TypeError):
        return None
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
    return trim


_MALLOC_TRIM = _find_malloc_trim()


def _release_free_heap() -> None:
    """Return the heap pages freed by assembly's temporaries to the OS.

    glibc serves the few-MB per-triangle arrays of ``assemble_volume``
    from its brk heap (its mmap threshold rises to their size once the
    first such array is freed), and the heap shrinks only from its top.
    Whether a small live block lands above the freed temporaries varies
    with the hash seed and the address layout, so without this the
    process keeps about 30 MB more resident in one run of twenty on a
    28k-dof mesh. malloc_trim(0) releases free pages anywhere in the
    heap; where the C library has no malloc_trim this does nothing.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


class BoundaryMode(Enum):
    DIRICHLET = "dirichlet"
    ROBIN = "robin"
    COMPLEX_ROBIN = "complex_robin"
    MIXED = "mixed"
    NEUMANN = "neumann"  # Robin with beta identically zero


_ROBIN_FAMILY = (BoundaryMode.ROBIN, BoundaryMode.NEUMANN,
                 BoundaryMode.COMPLEX_ROBIN)


class MassKind(Enum):
    CONSISTENT = "consistent"
    LUMPED = "lumped"


def mass_matrix(kind: MassKind | str, mass: sp.csr_matrix,
                mass_lumped: np.ndarray) -> sp.csr_matrix:
    """The consistent mass matrix, or the diagonal of the lumped one, as
    ``kind`` (a MassKind or its value) selects."""
    if MassKind(kind) is MassKind.CONSISTENT:
        return mass
    return sp.diags(mass_lumped).tocsr()


def sym_min_eig(a: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the symmetric part of 2x2 matrices (m, 2, 2)."""
    s01 = 0.5 * (a[:, 0, 1] + a[:, 1, 0])
    mean = 0.5 * (a[:, 0, 0] + a[:, 1, 1])
    radius = np.sqrt((0.5 * (a[:, 0, 0] - a[:, 1, 1])) ** 2 + s01 ** 2)
    return mean - radius


@dataclass(frozen=True)
class EllipticityReport:
    mu_actual: float
    passed: bool


@dataclass(frozen=True)
class CoefficientSet:
    """Piecewise-constant coefficient data for one mesh.

    a : (nt, 2, 2) second-order coefficients
    b : (nt, 2) convection paired with the test gradient
    c : (nt, 2) convection paired with the trial gradient
    c0 : (nt,) zero-order coefficient
    beta : (nb,) boundary coefficient per boundary edge (complex allowed,
        stored real when every imaginary part is 0; entries on
        Dirichlet-tagged edges are ignored)
    mu : claimed uniform ellipticity constant (> 0)
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    c0: np.ndarray
    beta: np.ndarray
    mu: float
    validate: bool = True

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        object.__setattr__(self, "c0", np.asarray(self.c0, dtype=float))
        beta = np.asarray(self.beta)
        # a beta with no imaginary part is real, whatever its spelling
        if not (np.iscomplexobj(beta) and np.any(beta.imag != 0)):
            beta = beta.real.astype(float, copy=False)
        object.__setattr__(self, "beta", beta)
        if self.validate:
            if self.mu <= 0:
                raise AssemblyError("ellipticity constant mu must be positive")
            report = ellipticity_check(self)
            if not report.passed:
                raise AssemblyError(
                    f"coefficients violate ellipticity: smallest symmetric-part "
                    f"eigenvalue {report.mu_actual:.6g} < mu = {self.mu:.6g}")

    @classmethod
    def constant(cls, mesh: TriMesh, a=None, b=(0.0, 0.0), c=(0.0, 0.0),
                 c0=0.0, beta=0.0, mu=1.0, validate=True) -> "CoefficientSet":
        """Broadcast global coefficient values over a mesh: a is one 2x2
        matrix or one per triangle, beta a scalar or one value per boundary
        edge. Broadcast values stay read-only ``np.broadcast_to`` views, one
        copy of the value whatever the mesh size."""
        nt = mesh.n_triangles
        nb = len(mesh.boundary_edges)
        a = np.eye(2) if a is None else np.asarray(a, dtype=float)
        if a.shape not in ((2, 2), (nt, 2, 2)):
            raise AssemblyError("a must be a 2x2 matrix or one per triangle")
        if a.shape == (2, 2):
            a = np.broadcast_to(a, (nt, 2, 2))
        b = np.broadcast_to(np.asarray(b, dtype=float), (nt, 2))
        c = np.broadcast_to(np.asarray(c, dtype=float), (nt, 2))
        c0 = np.broadcast_to(np.asarray(c0, dtype=float), (nt,))
        beta_arr = np.asarray(beta)
        if beta_arr.ndim != 0 and beta_arr.shape != (nb,):
            raise AssemblyError(f"beta must be scalar or one value per "
                                f"boundary edge ({nb})")
        return cls(a=a, b=b, c=c, c0=c0, beta=np.broadcast_to(beta_arr, (nb,)),
                   mu=mu, validate=validate)

    def is_a_symmetric(self) -> bool:
        return bool(np.array_equal(self.a[:, 0, 1], self.a[:, 1, 0]))

    def b_equals_c(self) -> bool:
        return bool(np.array_equal(self.b, self.c))

    def adjoint(self) -> "CoefficientSet":
        """Coefficients of the formal adjoint: a -> a^T, b <-> c, beta -> conj."""
        return replace(self, a=self.a.transpose(0, 2, 1).copy(),
                       b=self.c.copy(), c=self.b.copy(),
                       beta=np.conj(self.beta), validate=False)


def ellipticity_check(coeffs: CoefficientSet) -> EllipticityReport:
    """Smallest symmetric-part eigenvalue over all triangles vs claimed mu;
    a broadcast ``a`` (first-axis stride 0) is one matrix, checked once."""
    a = coeffs.a[:1] if coeffs.a.strides[0] == 0 else coeffs.a
    mu_actual = float(sym_min_eig(a).min())
    return EllipticityReport(mu_actual=mu_actual, passed=mu_actual >= coeffs.mu)


# ---------------------------------------------------------------------------
# element quantities

def hat_gradients(mesh: TriMesh):
    """Per-triangle areas and constant hat-function gradients (nt, 3, 2).

    The first gradient is formed as minus the sum of the other two, so the
    three gradients of every triangle sum to an exact floating-point zero.
    """
    p = mesh.vertices[mesh.triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    two_area = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    g = np.empty((mesh.n_triangles, 3, 2))
    g[:, 1, 0] = e2[:, 1] / two_area
    g[:, 1, 1] = -e2[:, 0] / two_area
    g[:, 2, 0] = -e1[:, 1] / two_area
    g[:, 2, 1] = e1[:, 0] / two_area
    g[:, 0] = -g[:, 1] - g[:, 2]
    return 0.5 * two_area, g


def assemble_volume(mesh: TriMesh, coeffs: CoefficientSet):
    """Unconstrained volume matrices on all vertices.

    Returns (stiffness, mass, mass_lumped) where stiffness carries the
    second-order, convection, and zero-order terms (no boundary term, no
    eliminations), mass is the consistent P1 mass matrix, and mass_lumped
    is the diagonal of the row-sum lumped mass.

    One matrix at a time: the (nt, 3, 3) local array of the stiffness and
    its einsum intermediates are freed once its CSR exists, before the
    mass's local array is made; both share one pair of int32 COO index
    arrays, which scipy would otherwise copy down from int64 per matrix.
    """
    nv = mesh.n_vertices
    areas, g = hat_gradients(mesh)
    index = np.int32 if nv <= np.iinfo(np.int32).max else np.int64
    tri = mesh.triangles.astype(index)
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, 3).ravel()
    del tri

    def to_csr(local):
        return sp.coo_matrix((local.ravel(), (rows, cols)),
                             shape=(nv, nv)).tocsr()

    # local(i, j) = |T| * g_i . (a^T g_j)  +  |T|/3 * (b . g_i)
    #             + |T|/3 * (c . g_j)      +  c0-term
    ag = np.einsum("tkl,tjk->tjl", coeffs.a, g)      # (a^T g_j)_l
    local = np.einsum("til,tjl->tij", g, ag)
    del ag
    local *= areas[:, None, None]
    third = areas / 3.0
    bg = np.einsum("tk,tik->ti", coeffs.b, g)
    bg *= third[:, None]
    local += bg[:, :, None]
    cg = np.einsum("tk,tjk->tj", coeffs.c, g, out=bg)
    cg *= third[:, None]
    local += cg[:, None, :]
    del g, bg, cg
    # (c0 |T|) / 3, not c0 * third: the rounding the pinned reports hold
    local[:, np.arange(3), np.arange(3)] += (coeffs.c0 * areas / 3.0)[:, None]
    stiffness = to_csr(local)

    np.multiply((areas / 12.0)[:, None, None], np.ones((3, 3)) + np.eye(3),
                out=local)
    mass = to_csr(local)
    del local, rows, cols
    mass_lumped = np.bincount(mesh.triangles.ravel(),
                              weights=np.repeat(third, 3), minlength=nv)
    return stiffness, mass, mass_lumped


def _boundary_term(mesh: TriMesh, beta, nv):
    """The lumped Robin term: beta_e * |e| / 2 on the diagonal at both ends
    of each flux edge."""
    flux = np.array(mesh.boundary_tags) == BoundaryTag.FLUX
    edges = mesh.boundary_edges[flux]
    lengths = [np.linalg.norm(mesh.vertices[i] - mesh.vertices[j])
               for i, j in edges]
    ends = edges.ravel()
    return sp.coo_matrix((np.repeat(beta[flux] * lengths / 2.0, 2),
                          (ends, ends)), shape=(nv, nv)).tocsr()


@dataclass(frozen=True)
class DiscreteOperator:
    """Assembled sparse operator with Dirichlet constraints eliminated.

    dof_map maps mesh vertices to degree-of-freedom indices (-1 for
    constrained vertices). stiffness/mass/mass_lumped act on the free
    dofs.
    """

    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    mass_lumped: np.ndarray
    dof_map: np.ndarray
    mode: BoundaryMode
    mesh: TriMesh
    coeffs: CoefficientSet

    @property
    def n_dof(self) -> int:
        return self.stiffness.shape[0]

    @property
    def free_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.dof_map >= 0)

    @property
    def constrained_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.dof_map < 0)

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.stiffness)

    @cached_property
    def is_hermitian(self) -> bool:
        d = self.stiffness - self.stiffness.getH()
        scale = max(1.0, abs(self.stiffness).max())
        return bool(abs(d).max() <= 1e-12 * scale) if d.nnz else True

    @cached_property
    def solver_cache(self) -> dict:
        """The results derived from this operator, filled only through
        ``cached``: the stiffness's M-matrix report, the step factorization
        and the kernel's positivity certificate per scheme, dt and mass,
        the kernel-probe march per evolution config, the eigensolves per
        mass kind, k and tol, the rounding floor of their residual bound,
        and the factor of the stiffness itself that both Hermitian pencils
        iterate through when it is a certified M-matrix (None when it is
        not)."""
        return {}

    def cached(self, key, compute):
        """``compute()`` once per operator and key, shared by every
        caller; the arrays of a tuple result are made read-only. A
        SolverError it raises is kept too and raised again to every later
        caller, so a failed solve costs its time once."""
        if key not in self.solver_cache:
            try:
                value = compute()
            except SolverError as exc:
                value = exc
            for array in value if isinstance(value, tuple) else ():
                if isinstance(array, np.ndarray):
                    array.flags.writeable = False
            self.solver_cache[key] = value
        value = self.solver_cache[key]
        if isinstance(value, SolverError):
            raise value
        return value

    def expand(self, u: np.ndarray) -> np.ndarray:
        """Dof vector -> full nodal vector with exact zeros at constraints."""
        u = np.asarray(u)
        full = np.zeros(len(self.dof_map), dtype=u.dtype)
        full[self.free_vertices] = u
        return full

    def restrict(self, full: np.ndarray) -> np.ndarray:
        return np.asarray(full)[self.free_vertices]


def _constrained_vertices(mesh: TriMesh, mode: BoundaryMode) -> np.ndarray:
    if mode is BoundaryMode.DIRICHLET:
        return mesh.boundary_vertices()
    if mode is BoundaryMode.MIXED:
        return mesh.dirichlet_vertices()
    return np.array([], dtype=np.int64)


def assemble(mesh: TriMesh, coeffs: CoefficientSet, mode: BoundaryMode, *,
             corkscrew_checked: bool = False) -> DiscreteOperator:
    """Assemble the operator for a boundary mode.

    Raises AssemblyError on mode/tag mismatches, complex beta outside
    COMPLEX_ROBIN mode, or a mesh that leaves no degree of freedom free.
    Ellipticity is enforced when the coefficient set is built.
    """
    mode = BoundaryMode(mode)
    tags = set(mesh.boundary_tags)
    beta = coeffs.beta
    if np.iscomplexobj(beta) and mode is not BoundaryMode.COMPLEX_ROBIN:
        raise AssemblyError("complex beta requires COMPLEX_ROBIN mode")

    if mode is BoundaryMode.DIRICHLET:
        if BoundaryTag.FLUX in tags:
            raise AssemblyError("DIRICHLET mode requires all boundary edges "
                                "tagged D")
    elif mode in _ROBIN_FAMILY:
        if BoundaryTag.DIRICHLET in tags:
            raise AssemblyError(f"{mode.value} mode requires all boundary "
                                "edges tagged N")
        if mode is BoundaryMode.NEUMANN and np.any(beta != 0):
            raise AssemblyError("NEUMANN mode requires beta identically zero")
        if mode is BoundaryMode.COMPLEX_ROBIN:
            if not coeffs.is_a_symmetric():
                raise AssemblyError("COMPLEX_ROBIN requires symmetric a")
            if not coeffs.b_equals_c():
                raise AssemblyError("COMPLEX_ROBIN requires b = c")
    elif mode is BoundaryMode.MIXED:
        if BoundaryTag.DIRICHLET not in tags:
            raise AssemblyError("MIXED mode requires at least one D edge")
        if BoundaryTag.FLUX not in tags:
            warnings.warn("MIXED mode with no flux edges degenerates to "
                          "DIRICHLET", stacklevel=2)
        if np.any(coeffs.b != 0) or np.any(coeffs.c != 0) \
                or np.any(coeffs.c0 != 0):
            raise AssemblyError("MIXED mode requires b = c = c0 = 0")
        if not corkscrew_checked:
            warnings.warn("MIXED assembly without a passed corkscrew check; "
                          "mixed-boundary positivity claims may not apply",
                          stacklevel=2)

    nv = mesh.n_vertices
    free = np.setdiff1d(np.arange(nv), _constrained_vertices(mesh, mode))
    if not free.size:
        raise AssemblyError("no degree of freedom is free: every vertex "
                            "is Dirichlet-constrained")
    stiffness, mass, mass_lumped = assemble_volume(mesh, coeffs)
    if mode in _ROBIN_FAMILY:
        bterm = _boundary_term(mesh, beta, nv)
        stiffness = (stiffness.astype(bterm.dtype, copy=False)
                     + bterm).tocsr()

    dof_map = np.full(nv, -1, dtype=np.int64)
    dof_map[free] = np.arange(len(free))

    stiffness = stiffness[free][:, free].tocsr()
    mass = mass[free][:, free].tocsr()
    _release_free_heap()
    return DiscreteOperator(
        stiffness=stiffness, mass=mass, mass_lumped=mass_lumped[free],
        dof_map=dof_map, mode=mode, mesh=mesh, coeffs=coeffs)


def _offdiagonal_entries(Z: sp.spmatrix, rows=slice(None)):
    """Z in canonical CSR (no copy when it is one already) and a mask of its
    stored nonzero entries off the diagonal in the given rows: one byte per
    entry instead of a copy of the matrix."""
    Z = sp.csr_matrix(Z)
    if not Z.has_canonical_format:
        Z = Z.copy()
        Z.sum_duplicates()
    selected = np.zeros(Z.shape[0], dtype=bool)
    selected[rows] = True
    counts = np.diff(Z.indptr)
    keep = np.repeat(selected, counts)
    keep &= Z.indices != np.repeat(
        np.arange(Z.shape[0], dtype=Z.indices.dtype), counts)
    keep &= Z.data != 0
    return Z, keep


def offdiag_max(Z: sp.spmatrix, rows=slice(None)) -> float:
    """The M-matrix sign scan: the larger of 0 and the largest off-diagonal
    entry in the given rows of the square matrix Z (all by default)."""
    Z, keep = _offdiagonal_entries(Z, rows)
    largest = float(np.max(Z.data, where=keep, initial=-np.inf))
    return 0.0 if largest <= 0.0 else largest


def offdiagonal_pattern(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Unit entries at a square matrix's nonzero off-diagonal entries."""
    Z, keep = _offdiagonal_entries(matrix)
    kept = np.zeros(len(keep) + 1, dtype=Z.indptr.dtype)
    np.cumsum(keep, out=kept[1:])
    return sp.csr_matrix((np.ones(int(kept[-1])), Z.indices[keep],
                          kept[Z.indptr]), shape=Z.shape)


def row_sum_tol(A: sp.spmatrix) -> float:
    """The size below which a row sum of A counts as zero: CONSTANTS_TOL
    relative to max(1, max|A|)."""
    return CONSTANTS_TOL * max(1.0, float(np.abs(A).max()))


def annihilates_constants(A: sp.spmatrix) -> bool:
    """Whether every row of A sums to zero."""
    return bool(np.all(np.abs(A @ np.ones(A.shape[0])) <= row_sum_tol(A)))


class Verdict(Enum):
    """What a positivity check concludes; every check returns one with its
    payload, a dict of JSON-ready values."""

    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class MMatrixCertificate:
    """Whether Z is an irreducible nonsingular M-matrix, so Z^-1 > 0
    entrywise (Berman & Plemmons, *Nonnegative Matrices in the Mathematical
    Sciences*, ch. 6); ``irreducible`` says the sign pattern, diagonal and
    graph hypotheses hold, ``reason`` names the first unmet one."""

    holds: bool
    offdiag_max: float = math.nan   # the sign scan
    irreducible: bool = False
    min_row_sum: float = math.nan   # min(Z*1); w = 1 is a witness when > 0
    reason: str = ""

    @property
    def is_m_compatible(self) -> bool:
        return self.offdiag_max <= 0.0


def mmatrix_certificate(Z: sp.spmatrix, name: str, scan=None,
                        inverse_ones=None) -> MMatrixCertificate:
    """The one M-matrix certificate, of a real square matrix ``Z`` (called
    ``name`` in the reasons): Z has nonpositive off-diagonal entries and a
    positive diagonal, its off-diagonal graph is strongly connected, and
    some w > 0 has Z*w > 0: w = 1, or else w = ``inverse_ones()`` = Z^-1*1
    from a factor the caller holds. ``scan`` is a sign scan the caller
    already has, of Z, of a positive multiple of Z, or of the rows Z is cut
    from (their other columns must be nonpositive too)."""
    scan = offdiag_max(Z) if scan is None else scan
    if scan > 0.0:
        return MMatrixCertificate(
            False, scan, reason=f"{name} has positive off-diagonal entries")
    if not np.all(Z.diagonal() > 0.0):
        return MMatrixCertificate(
            False, scan, reason=f"{name} has a diagonal entry <= 0")
    # directed: a non-symmetric Z may couple i to j but not j to i
    n_strong, _ = connected_components(offdiagonal_pattern(Z),
                                       directed=True, connection="strong")
    if n_strong > 1:
        return MMatrixCertificate(
            False, scan, reason=f"{name} is reducible: its off-diagonal "
                                f"graph has {n_strong} strong components")
    min_row_sum = float((Z @ np.ones(Z.shape[0])).min())
    if min_row_sum > 0.0:
        return MMatrixCertificate(True, scan, True, min_row_sum)
    try:
        w = None if inverse_ones is None else inverse_ones()
    except RuntimeError:  # a singular factor is no witness
        w = None
    holds = bool(w is not None and np.all(w > 0.0) and np.all(Z @ w > 0.0))
    return MMatrixCertificate(
        holds, scan, True, min_row_sum, reason="" if holds else
        f"{name} has a row sum <= 0 and no witness w > 0 with {name}*w > 0")


def mmatrix_report(op: DiscreteOperator) -> MMatrixCertificate:
    """``mmatrix_certificate`` of a real operator's stiffness, once per
    operator and shared by every caller; its sign scan decides whether the
    discrete positivity certificates can apply at all."""
    if op.is_complex:
        raise AssemblyError("M-matrix report requires a real operator")
    return op.cached("mmatrix", lambda: mmatrix_certificate(op.stiffness,
                                                            "stiffness"))


# ---------------------------------------------------------------------------
# coefficient file format (JSON)

def coefficients_from_dict(data: dict, mesh: TriMesh) -> tuple:
    """Build (CoefficientSet, BoundaryMode) from the JSON coefficient schema.

    Keys: a (2x2 or per-triangle list), b, c, c0, beta (scalar, {re, im},
    or per-edge list), mu, mode. Missing entries default to the identity
    a, zero lower-order terms, beta = 0, mu = 1. A value that is not made
    of finite numbers (null among them) is an AssemblyError.
    """
    known = {"a", "b", "c", "c0", "beta", "mu", "mode"}
    unknown = set(data) - known
    if unknown:
        raise AssemblyError(f"unknown coefficient key(s): {sorted(unknown)}")

    def numbers(key, raw, scalar=False):
        """raw as an array of finite floats, one of them if ``scalar``."""
        try:
            value = np.asarray(raw, dtype=float)
        except (TypeError, ValueError):
            value = np.array(math.nan)
        if not np.isfinite(value).all() or scalar and value.ndim:
            kind = "a finite number" if scalar else "finite numbers"
            raise AssemblyError(f"{key} must be {kind}, got "
                                f"{reprlib.repr(raw)}")
        return value

    def parse_beta(raw):
        if isinstance(raw, dict):
            extra = set(raw) - {"re", "im"}
            if extra:
                raise AssemblyError(f"unknown beta key(s): {sorted(extra)}")
            return complex(*(float(numbers("beta", raw.get(part, 0.0), True))
                             for part in ("re", "im")))
        if isinstance(raw, list):
            return np.array([parse_beta(x) for x in raw])
        return float(numbers("beta", raw, True))

    mode = BoundaryMode(data.get("mode", "robin"))
    coeffs = CoefficientSet.constant(
        mesh, a=numbers("a", data.get("a", np.eye(2))),
        b=numbers("b", data.get("b", (0.0, 0.0))),
        c=numbers("c", data.get("c", (0.0, 0.0))),
        c0=numbers("c0", data.get("c0", 0.0)),
        beta=parse_beta(data.get("beta", 0.0)),
        mu=float(numbers("mu", data.get("mu", 1.0), True)))
    return coeffs, mode
