import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from perronfem.assembly import AssemblyError, BoundaryMode, CoefficientSet, \
    _boundary_term, assemble, assemble_volume, coefficients_from_dict, \
    ellipticity_check, offdiag_max, offdiagonal_pattern
from perronfem.mesh import BoundaryTag, TriMesh, generate_structured
from perronfem.spectral import mmatrix_report

REFERENCE_LOCAL_STIFFNESS = np.array([
    [1.0, -0.5, -0.5],
    [-0.5, 0.5, 0.0],
    [-0.5, 0.0, 0.5],
])


def reference_triangle_mesh():
    return TriMesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)],
                   [(0, 1), (1, 2), (0, 2)], (BoundaryTag.FLUX,) * 3)


def obtuse_triangle_mesh():
    return TriMesh([(0.0, 0.0), (1.0, 0.0), (0.5, 0.1)], [(0, 1, 2)],
                   [(0, 1), (1, 2), (0, 2)], (BoundaryTag.FLUX,) * 3)


def sympy_local_matrix(a, b, c, c0):
    """Independent symbolic assembly of the full volume form on the
    reference triangle with hats 1-x-y, x, y."""
    import sympy as sym

    x, y = sym.symbols("x y")
    hats = [1 - x - y, x, y]
    grads = [(sym.diff(h, x), sym.diff(h, y)) for h in hats]

    def tri_integrate(expr):
        inner = sym.integrate(expr, (y, 0, 1 - x))
        return sym.integrate(inner, (x, 0, 1))

    local = np.zeros((3, 3))
    for i in range(3):  # test function
        for j in range(3):  # trial function
            expr = sum(a[k][l] * grads[j][k] * grads[i][l]
                       for k in range(2) for l in range(2))
            expr += sum(b[k] * hats[j] * grads[i][k] for k in range(2))
            expr += sum(c[k] * grads[j][k] * hats[i] for k in range(2))
            expr += c0 * hats[j] * hats[i]
            local[i, j] = float(tri_integrate(sym.nsimplify(expr)))
    return local


def test_reference_triangle_stiffness_matches_hand_integration():
    mesh = reference_triangle_mesh()
    coeffs = CoefficientSet.constant(mesh)
    op = assemble(mesh, coeffs, BoundaryMode.NEUMANN)
    np.testing.assert_allclose(op.stiffness.toarray(),
                               REFERENCE_LOCAL_STIFFNESS, atol=1e-14)


def test_general_coefficients_match_symbolic_oracle():
    a = [[2.0, 1.0], [0.5, 3.0]]
    b = [0.7, -0.3]
    c = [-0.2, 0.9]
    c0 = 1.3
    mesh = reference_triangle_mesh()
    coeffs = CoefficientSet.constant(mesh, a=a, b=b, c=c, c0=c0, mu=0.5)
    op = assemble(mesh, coeffs, BoundaryMode.NEUMANN)
    # the vertex rule puts the row sums of the c0 mass on the diagonal
    c0_mass = sympy_local_matrix(np.zeros((2, 2)), (0, 0), (0, 0), c0)
    expected = sympy_local_matrix(a, b, c, 0) + np.diag(c0_mass.sum(axis=1))
    np.testing.assert_allclose(op.stiffness.toarray(), expected, atol=1e-12)


def test_neumann_constants_in_kernel(robin_mesh8):
    coeffs = CoefficientSet.constant(robin_mesh8)
    op = assemble(robin_mesh8, coeffs, BoundaryMode.NEUMANN)
    ones = np.ones(op.n_dof)
    assert np.abs(op.stiffness @ ones).max() <= 1e-13
    assert np.abs(op.stiffness.T @ ones).max() <= 1e-13


@pytest.mark.parametrize("n", [2, 4, 8])
def test_refinement_keeps_constants_in_kernel(n):
    mesh = generate_structured("unit_square", n, "flux")
    op = assemble(mesh, CoefficientSet.constant(mesh), BoundaryMode.NEUMANN)
    ones = np.ones(op.n_dof)
    assert abs(float(ones @ (op.stiffness @ ones))) <= 1e-13


def test_reaction_term_lumped_adds_lumped_mass(robin_mesh8):
    with_c0 = CoefficientSet.constant(robin_mesh8, c0=2.0)
    op0 = assemble(robin_mesh8, CoefficientSet.constant(robin_mesh8),
                   BoundaryMode.NEUMANN)
    op1 = assemble(robin_mesh8, with_c0, BoundaryMode.NEUMANN)
    diff = (op1.stiffness - op0.stiffness).toarray()
    np.testing.assert_allclose(diff, 2.0 * np.diag(op1.mass_lumped),
                               atol=1e-14)


def edge_by_edge_boundary_term(mesh, beta, nv):
    """The Robin term one flux edge at a time: beta_e * |e| / 2 at (i, i)
    and (j, j)."""
    rows, vals = [], []
    for (i, j), tag, be in zip(mesh.boundary_edges, mesh.boundary_tags, beta):
        if tag is not BoundaryTag.FLUX:
            continue
        length = float(np.linalg.norm(mesh.vertices[i] - mesh.vertices[j]))
        rows += [i, j]
        vals += [be * length / 2.0, be * length / 2.0]
    dtype = complex if np.iscomplexobj(beta) else float
    return sp.coo_matrix((np.array(vals, dtype=dtype), (rows, rows)),
                         shape=(nv, nv)).tocsr()


@pytest.mark.parametrize("n", [5, 17, 40])
@pytest.mark.parametrize("tags", ["flux", {
    "bottom": "D", "right": "N", "inner_h": "N", "inner_v": "D", "top": "N",
    "left": "N"}])
def test_boundary_term_is_bitwise_the_edge_by_edge_sum(n, tags):
    # turned so that almost no edge is axis-parallel: slanted lengths
    lshape = generate_structured("l_shape", n, tags)
    c, s = math.cos(0.3), math.sin(0.3)
    mesh = TriMesh(lshape.vertices @ np.array([[c, s], [-s, c]]) + 0.123,
                   lshape.triangles, lshape.boundary_edges,
                   lshape.boundary_tags)
    rng = np.random.default_rng(n)
    nb = len(mesh.boundary_edges)
    for beta in (rng.uniform(0.1, 5.0, nb),
                 rng.uniform(0.1, 5.0, nb) + 1j * rng.normal(0, 3.0, nb)):
        got = _boundary_term(mesh, beta, mesh.n_vertices)
        want = edge_by_edge_boundary_term(mesh, beta, mesh.n_vertices)
        assert got.dtype == want.dtype and got.nnz == want.nnz > 0
        for name in ("data", "indices", "indptr"):
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes()


# -- the assembled form conj(v) . (stiffness @ u) ------------------------------

def test_apply_form_zero_vector(robin_op8):
    u = np.ones(robin_op8.n_dof)
    assert np.vdot(np.zeros(robin_op8.n_dof), robin_op8.stiffness @ u) == 0.0


def test_apply_form_neumann_constants(neumann_op8):
    ones = np.ones(neumann_op8.n_dof)
    assert abs(np.vdot(ones, neumann_op8.stiffness @ ones)) <= 1e-13


def test_apply_form_robin_constant_gives_perimeter(robin_op8):
    # only the boundary term survives on constants: integral of beta = |Gamma|
    ones = np.ones(robin_op8.n_dof)
    assert np.vdot(ones, robin_op8.stiffness @ ones).real == \
        pytest.approx(4.0, abs=1e-12)


def test_complex_robin_real_part_identity(robin_mesh8):
    beta = 1.0 + 1.0j
    cc = CoefficientSet.constant(robin_mesh8, beta=beta)
    cr = CoefficientSet.constant(robin_mesh8, beta=beta.real)
    op_c = assemble(robin_mesh8, cc, BoundaryMode.COMPLEX_ROBIN)
    op_r = assemble(robin_mesh8, cr, BoundaryMode.ROBIN)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(op_c.n_dof) + 1j * rng.standard_normal(op_c.n_dof)
    lhs = np.vdot(u, op_c.stiffness @ u).real
    rhs = np.vdot(u, op_r.stiffness @ u).real
    assert lhs == pytest.approx(rhs, rel=1e-12)


# -- ellipticity -------------------------------------------------------------

def sym_part_min_eig(a):
    s = 0.5 * (np.asarray(a) + np.asarray(a).T)
    return float(np.linalg.eigvalsh(s)[0])


def test_ellipticity_identity(robin_mesh8):
    coeffs = CoefficientSet.constant(robin_mesh8)
    rep = ellipticity_check(coeffs)
    assert rep.mu_actual == 1.0
    assert rep.passed


def test_ellipticity_skew_example(robin_mesh8):
    a = [[2.0, 1.0], [0.0, 2.0]]
    coeffs = CoefficientSet.constant(robin_mesh8, a=a, mu=1.0)
    rep = ellipticity_check(coeffs)
    assert rep.mu_actual == pytest.approx(sym_part_min_eig(a), abs=1e-14)
    assert rep.mu_actual == pytest.approx(1.5)
    assert rep.passed


def test_ellipticity_violated_example(robin_mesh8):
    a = [[1.0, 3.0], [0.0, 1.0]]
    coeffs = CoefficientSet.constant(robin_mesh8, a=a, mu=1e-12,
                                     validate=False)
    rep = ellipticity_check(coeffs)
    assert rep.mu_actual == pytest.approx(sym_part_min_eig(a), abs=1e-14)
    assert rep.mu_actual == pytest.approx(-0.5)
    assert not rep.passed
    with pytest.raises(AssemblyError, match="ellipticity"):
        CoefficientSet.constant(robin_mesh8, a=a, mu=1e-12)


def test_ellipticity_of_a_broadcast_a_matches_per_triangle_copies(
        robin_mesh8):
    a = [[1.0, 3.0], [0.0, 1.0]]
    broadcast = CoefficientSet.constant(robin_mesh8, a=a, mu=1e-12,
                                        validate=False)
    copied = CoefficientSet.constant(
        robin_mesh8, a=np.array(broadcast.a), mu=1e-12, validate=False)
    assert broadcast.a.strides[0] == 0 and copied.a.strides[0] != 0
    assert ellipticity_check(broadcast) == ellipticity_check(copied)


def test_ellipticity_of_a_broadcast_a_checks_one_matrix():
    mesh = generate_structured("unit_square", 64, "flux")
    coeffs = CoefficientSet.constant(mesh, a=[[2.0, 0.5], [0.5, 1.0]],
                                     mu=0.5, validate=False)
    tracemalloc.start()
    try:
        rep = ellipticity_check(coeffs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one eigenvalue per triangle made several nt-long temporaries
    assert rep.passed and peak < 8 * mesh.n_triangles


# -- M-matrix reports --------------------------------------------------------

def test_mmatrix_on_nonobtuse_mesh(robin_mesh8):
    for c0 in (0.0, 5.0):
        coeffs = CoefficientSet.constant(robin_mesh8, c0=c0)
        op = assemble(robin_mesh8, coeffs, BoundaryMode.NEUMANN)
        rep = mmatrix_report(op)
        # independent scan
        dense = op.stiffness.toarray()
        off = dense - np.diag(np.diag(dense))
        assert rep.offdiag_max == off.max()
        assert rep.offdiag_max <= 0
    # a large Robin coefficient adds to the diagonal only
    op = assemble(robin_mesh8, CoefficientSet.constant(robin_mesh8, beta=50.0),
                  BoundaryMode.ROBIN)
    assert mmatrix_report(op).offdiag_max <= 0


def test_mmatrix_fails_on_obtuse_triangle():
    mesh = obtuse_triangle_mesh()
    op = assemble(mesh, CoefficientSet.constant(mesh), BoundaryMode.NEUMANN)
    rep = mmatrix_report(op)
    assert rep.offdiag_max > 0


def test_negative_reaction_does_not_touch_offdiagonals(robin_mesh8):
    op0 = assemble(robin_mesh8, CoefficientSet.constant(robin_mesh8),
                   BoundaryMode.NEUMANN)
    op1 = assemble(robin_mesh8,
                   CoefficientSet.constant(robin_mesh8, c0=-100.0),
                   BoundaryMode.NEUMANN)
    d = (op1.stiffness - op0.stiffness).toarray()
    assert np.abs(d - np.diag(np.diag(d))).max() == 0.0
    assert mmatrix_report(op1).offdiag_max == mmatrix_report(op0).offdiag_max


def _dense_offdiagonal(Z):
    dense = Z.toarray()
    return dense - np.diag(np.diag(dense))


def test_sign_scan_matches_the_dense_definition():
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(1, 9))
        Z = sp.random(n, n, density=rng.uniform(0.2, 1.0), format="csr",
                      random_state=int(rng.integers(2 ** 31)))
        Z.data -= 1.0
        Z.data[rng.uniform(size=Z.nnz) < 0.2] = -0.0  # stored (signed) zeros
        if trial % 4 == 0:  # duplicates that cancel
            coo = Z.tocoo()
            Z = sp.csr_matrix((np.r_[coo.data, -coo.data, coo.data],
                               (np.tile(coo.row, 3), np.tile(coo.col, 3))),
                              shape=Z.shape)
        off = _dense_offdiagonal(Z)
        rows = np.flatnonzero(rng.uniform(size=n) < 0.5)
        for sel in (slice(None), rows):
            want = max(0.0, off[sel].max()) if off[sel].size else 0.0
            got = offdiag_max(Z, sel)
            assert got == want and math.copysign(1.0, got) == 1.0
        pattern = offdiagonal_pattern(Z)
        assert np.array_equal(pattern.toarray(), (off != 0).astype(float))
        assert np.all(pattern.data == 1.0)


def test_sign_scan_copies_no_matrix():
    mesh = generate_structured("unit_square", 64, "flux")
    Z = assemble(mesh, CoefficientSet.constant(mesh),
                 BoundaryMode.NEUMANN).stiffness
    tracemalloc.start()
    try:
        scan = offdiag_max(Z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # byte masks and an int32 row index per entry, less than one copy of
    # Z's entries; Z - diag(Z) and its row slice made two
    assert scan == 0.0 and peak < Z.data.nbytes + Z.indices.nbytes


def test_mmatrix_rejects_complex(robin_mesh8):
    cc = CoefficientSet.constant(robin_mesh8, beta=1 + 1j)
    op = assemble(robin_mesh8, cc, BoundaryMode.COMPLEX_ROBIN)
    with pytest.raises(AssemblyError):
        mmatrix_report(op)


def test_a_complex_stiffness_is_never_hermitian():
    # beta = 1 + 1e-12i keeps A - A^H inside the 1e-12 tolerance, which
    # read as Hermitian, so every reader had to test is_complex as well
    mesh = generate_structured("unit_square", 6, "N")
    op = assemble(mesh, CoefficientSet.constant(mesh, beta=1.0 + 1e-12j),
                  BoundaryMode.COMPLEX_ROBIN)
    assert op.is_complex and not op.is_hermitian
    assert assemble(mesh, CoefficientSet.constant(mesh, beta=1.0),
                    BoundaryMode.ROBIN).is_hermitian


# -- adjoint and mode consistency --------------------------------------------

def test_adjoint_assembly_is_conjugate_transpose(robin_mesh8):
    coeffs = CoefficientSet.constant(robin_mesh8, a=[[2.0, 0.3], [0.7, 1.5]],
                                     b=[0.4, -0.1], c=[0.2, 0.6], c0=0.8,
                                     beta=1.5, mu=0.5)
    op = assemble(robin_mesh8, coeffs, BoundaryMode.ROBIN)
    op_adj = assemble(robin_mesh8, coeffs.adjoint(), BoundaryMode.ROBIN)
    dev = np.abs((op_adj.stiffness - op.stiffness.getH()).toarray()).max()
    assert dev <= 1e-12


def test_adjoint_assembly_complex_beta(robin_mesh8):
    coeffs = CoefficientSet.constant(robin_mesh8, b=[0.3, 0.3], c=[0.3, 0.3],
                                     beta=0.5 + 2.0j)
    op = assemble(robin_mesh8, coeffs, BoundaryMode.COMPLEX_ROBIN)
    op_adj = assemble(robin_mesh8, coeffs.adjoint(),
                      BoundaryMode.COMPLEX_ROBIN)
    dev = np.abs((op_adj.stiffness - op.stiffness.getH()).toarray()).max()
    assert dev <= 1e-12


def test_dirichlet_equals_all_dirichlet_mixed(dirichlet_mesh8):
    coeffs = CoefficientSet.constant(dirichlet_mesh8)
    op_d = assemble(dirichlet_mesh8, coeffs, BoundaryMode.DIRICHLET)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        op_m = assemble(dirichlet_mesh8, coeffs, BoundaryMode.MIXED,
                        corkscrew_checked=True)
    assert np.array_equal(op_d.dof_map, op_m.dof_map)
    assert (op_d.stiffness != op_m.stiffness).nnz == 0
    assert (op_d.mass != op_m.mass).nnz == 0


def test_dof_counts_by_mode(dirichlet_mesh8, robin_mesh8, mixed_mesh8):
    coeffs_d = CoefficientSet.constant(dirichlet_mesh8)
    op = assemble(dirichlet_mesh8, coeffs_d, BoundaryMode.DIRICHLET)
    assert op.n_dof == 7 * 7  # interior grid
    coeffs_r = CoefficientSet.constant(robin_mesh8)
    op = assemble(robin_mesh8, coeffs_r, BoundaryMode.NEUMANN)
    assert op.n_dof == 9 * 9
    coeffs_m = CoefficientSet.constant(mixed_mesh8)
    op = assemble(mixed_mesh8, coeffs_m, BoundaryMode.MIXED,
                  corkscrew_checked=True)
    # the closed bottom edge pins 9 vertices, junction corners included
    assert op.n_dof == 9 * 9 - 9


# -- mode/tag errors ---------------------------------------------------------

def test_mode_tag_mismatches(robin_mesh8, dirichlet_mesh8, mixed_mesh8):
    c = CoefficientSet.constant(robin_mesh8)
    with pytest.raises(AssemblyError, match="DIRICHLET"):
        assemble(robin_mesh8, c, BoundaryMode.DIRICHLET)
    cd = CoefficientSet.constant(dirichlet_mesh8)
    with pytest.raises(AssemblyError, match="tagged N"):
        assemble(dirichlet_mesh8, cd, BoundaryMode.ROBIN)
    with pytest.raises(AssemblyError, match="at least one D"):
        assemble(robin_mesh8, c, BoundaryMode.MIXED)


def test_complex_beta_needs_complex_mode(robin_mesh8):
    cc = CoefficientSet.constant(robin_mesh8, beta=1 + 1j)
    with pytest.raises(AssemblyError, match="COMPLEX_ROBIN"):
        assemble(robin_mesh8, cc, BoundaryMode.ROBIN)


def test_neumann_requires_zero_beta(robin_mesh8):
    c = CoefficientSet.constant(robin_mesh8, beta=1.0)
    with pytest.raises(AssemblyError, match="beta identically zero"):
        assemble(robin_mesh8, c, BoundaryMode.NEUMANN)


def test_complex_robin_structure_requirements(robin_mesh8):
    asym = CoefficientSet.constant(robin_mesh8, a=[[2.0, 1.0], [0.0, 2.0]],
                                   beta=1j)
    with pytest.raises(AssemblyError, match="symmetric"):
        assemble(robin_mesh8, asym, BoundaryMode.COMPLEX_ROBIN)
    bc = CoefficientSet.constant(robin_mesh8, b=[1.0, 0.0], beta=1j)
    with pytest.raises(AssemblyError, match="b = c"):
        assemble(robin_mesh8, bc, BoundaryMode.COMPLEX_ROBIN)


def test_mixed_requires_zero_lower_order(mixed_mesh8):
    c = CoefficientSet.constant(mixed_mesh8, c0=1.0)
    with pytest.raises(AssemblyError, match="b = c = c0 = 0"):
        assemble(mixed_mesh8, c, BoundaryMode.MIXED, corkscrew_checked=True)


def test_mixed_warns_without_corkscrew(mixed_mesh8):
    c = CoefficientSet.constant(mixed_mesh8)
    with pytest.warns(UserWarning, match="corkscrew"):
        assemble(mixed_mesh8, c, BoundaryMode.MIXED)


# -- mass matrices -----------------------------------------------------------

def test_mass_matrix_properties(robin_op8):
    M = robin_op8.mass.toarray()
    assert np.abs(M - M.T).max() == 0.0
    assert np.linalg.eigvalsh(M)[0] > 0
    np.testing.assert_allclose(M.sum(axis=1), robin_op8.mass_lumped,
                               atol=1e-15)
    assert np.all(robin_op8.mass_lumped > 0)
    assert robin_op8.mass_lumped.sum() == pytest.approx(1.0, abs=1e-12)


def test_volume_assembly_shapes(robin_mesh8):
    coeffs = CoefficientSet.constant(robin_mesh8)
    A, M, ML = assemble_volume(robin_mesh8, coeffs)
    nv = robin_mesh8.n_vertices
    assert A.shape == (nv, nv) and M.shape == (nv, nv) and ML.shape == (nv,)


# -- coefficient files -------------------------------------------------------

def test_coefficients_from_dict(robin_mesh8):
    data = {"a": [[2, 0], [0, 2]], "b": [0, 0], "c": [0, 0], "c0": 0.5,
            "beta": {"re": 1.0, "im": 0.5}, "mu": 2.0,
            "mode": "complex_robin"}
    coeffs, mode = coefficients_from_dict(data, robin_mesh8)
    assert mode is BoundaryMode.COMPLEX_ROBIN
    assert coeffs.beta[0] == 1.0 + 0.5j
    assert coeffs.a[0, 0, 0] == 2.0


def test_coefficients_from_dict_rejects_unknown_keys(robin_mesh8):
    with pytest.raises(AssemblyError, match="unknown"):
        coefficients_from_dict({"alpha": 1.0}, robin_mesh8)


def test_constant_rejects_misshapen_a_and_beta(robin_mesh8):
    with pytest.raises(AssemblyError, match="a must be a 2x2 matrix"):
        CoefficientSet.constant(robin_mesh8, a=np.eye(3))
    nb = len(robin_mesh8.boundary_edges)
    with pytest.raises(AssemblyError, match=f"boundary edge \\({nb}\\)"):
        CoefficientSet.constant(robin_mesh8, beta=np.ones(nb + 1))
    per_edge = CoefficientSet.constant(robin_mesh8, beta=np.arange(nb) + 1.0)
    assert np.array_equal(per_edge.beta, np.arange(nb) + 1.0)


def test_coefficients_from_dict_equals_constant(robin_mesh8):
    nb = len(robin_mesh8.boundary_edges)
    data = {"a": [[2, 0.5], [0.5, 3]], "c": [0.25, 0], "c0": 1,
            "beta": [{"re": 1.0, "im": 0.5}] + [2.0] * (nb - 1), "mu": 1.5}
    coeffs, mode = coefficients_from_dict(data, robin_mesh8)
    reference = CoefficientSet.constant(
        robin_mesh8, a=[[2.0, 0.5], [0.5, 3.0]], c=(0.25, 0.0), c0=1.0,
        beta=np.array([1.0 + 0.5j] + [2.0] * (nb - 1)), mu=1.5)
    assert mode is BoundaryMode.ROBIN
    for field in ("a", "b", "c", "c0", "beta"):
        got, want = getattr(coeffs, field), getattr(reference, field)
        assert got.dtype == want.dtype and np.array_equal(got, want), field
    with pytest.raises(AssemblyError, match="beta must be scalar"):
        coefficients_from_dict({"beta": [1.0, 2.0]}, robin_mesh8)


def test_beta_without_an_imaginary_part_is_stored_real(robin_mesh8):
    nb = len(robin_mesh8.boundary_edges)
    for beta in (1.0 + 0.0j, np.full(nb, 2.0 + 0.0j)):
        coeffs = CoefficientSet.constant(robin_mesh8, beta=beta)
        assert coeffs.beta.dtype == np.float64
        assert not assemble(robin_mesh8, coeffs,
                            BoundaryMode.ROBIN).is_complex
    assert np.iscomplexobj(
        CoefficientSet.constant(robin_mesh8, beta=1.0 + 1.0j).beta)


# -- bounded memory ----------------------------------------------------------

def test_mixed_lshape_assembles_in_bounded_memory():
    # coefficients and assembly at n = 48 (7,008 dofs) peaked at 10.5 MiB
    # with full per-triangle copies of constant coefficients and both
    # matrices' temporaries alive at once; they now peak near 4.8 MiB
    tags = {seg: "N" for seg in ("right", "inner_h", "inner_v", "top",
                                  "left")}
    tags["bottom"] = "D"
    mesh = generate_structured("l_shape", 48, tags)
    tracemalloc.start()
    try:
        coeffs, mode = coefficients_from_dict({"mode": "mixed"}, mesh)
        op = assemble(mesh, coeffs, mode, corkscrew_checked=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.n_dof == 7008
    assert peak < 6 * 2 ** 20


def test_constant_coefficients_are_read_only_broadcasts(robin_mesh8):
    coeffs = CoefficientSet.constant(robin_mesh8, a=[[2.0, 0.5], [0.5, 1.0]],
                                     b=(0.3, 0.0), c0=1.0, beta=2.0, mu=0.5)
    for field in ("a", "b", "c", "c0", "beta"):
        array = getattr(coeffs, field)
        assert 0 in array.strides, field  # one value, not a copy per entry
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    assert coeffs.a.shape == (robin_mesh8.n_triangles, 2, 2)
    assert coeffs.beta.shape == (len(robin_mesh8.boundary_edges),)


def test_adjoint_of_read_only_coefficients(robin_mesh8):
    coeffs = CoefficientSet.constant(robin_mesh8, a=[[2.0, 0.5], [0.1, 1.0]],
                                     b=(0.3, -0.2), c=(0.0, 0.4), c0=1.0,
                                     beta=2.0, mu=0.5)
    adj = coeffs.adjoint()
    for field in ("a", "b", "c"):
        getattr(adj, field)[0] = getattr(adj, field)[0]  # writable copies
    assert np.array_equal(adj.a, coeffs.a.transpose(0, 2, 1))
    assert np.array_equal(adj.b, coeffs.c)
    assert np.array_equal(adj.c, coeffs.b)
    op = assemble(robin_mesh8, coeffs, BoundaryMode.ROBIN)
    op_adj = assemble(robin_mesh8, adj, BoundaryMode.ROBIN)
    assert abs(op_adj.stiffness - op.stiffness.T).max() <= 1e-14


def test_per_triangle_a_stays_a_full_array(robin_mesh8):
    nt = robin_mesh8.n_triangles
    a = np.broadcast_to([[2.0, 0.5], [0.5, 1.0]], (nt, 2, 2)).copy()
    per_triangle = CoefficientSet.constant(robin_mesh8, a=a, mu=0.5)
    assert per_triangle.a.flags.writeable and 0 not in per_triangle.a.strides
    broadcast = CoefficientSet.constant(robin_mesh8, a=a[0], mu=0.5)
    S, M, ML = assemble_volume(robin_mesh8, per_triangle)
    S0, M0, ML0 = assemble_volume(robin_mesh8, broadcast)
    for got, want in ((S, S0), (M, M0)):  # the same entries in the same order
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
    assert np.array_equal(ML, ML0)
