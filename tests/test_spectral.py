import functools
import math

import numpy as np
import pytest
import scipy.linalg as sla

from perronfem.assembly import BoundaryMode, CoefficientSet, apply_form, \
    assemble, mmatrix_report
from perronfem.mesh import generate_structured
from perronfem.semigroup import Verdict
from perronfem.spectral import EigenReport, Region, SolverError, \
    _lowest_pairs, certify_positivity, complex_robin_bound, perron_pair, \
    principal_eig, spectral_gap


def robin_half_tangent_root(beta=1.0):
    """Bisection for the smallest positive root of mu * tan(mu/2) = beta."""
    f = lambda mu: mu * math.tan(mu / 2.0) - beta
    lo, hi = 1e-9, math.pi - 1e-9
    assert f(lo) < 0 < f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_half_tangent_oracle_value():
    # frozen from the bisection oracle itself
    assert robin_half_tangent_root() == pytest.approx(1.3065423741888063,
                                                      abs=1e-12)


def test_dirichlet_principal_eigenvalue_unit_square():
    mesh = generate_structured("unit_square", 32, "dirichlet")
    op = assemble(mesh, CoefficientSet.constant(mesh), BoundaryMode.DIRICHLET)
    rep = principal_eig(op)
    exact = 2.0 * math.pi ** 2
    assert rep.lambda1.imag == 0.0
    assert rep.lambda1.real == pytest.approx(exact, rel=0.02)
    assert rep.lambda1.real > exact  # P1 eigenvalues converge from above
    assert rep.residual <= 1e-10


def test_dirichlet_spectrum_matches_separation_of_variables():
    mesh = generate_structured("unit_square", 32, "dirichlet")
    op = assemble(mesh, CoefficientSet.constant(mesh), BoundaryMode.DIRICHLET)
    rep = spectral_gap(op, 4)
    exact = math.pi ** 2 * np.array([2.0, 5.0, 5.0, 8.0])
    np.testing.assert_allclose(np.real(rep.values), exact, rtol=0.02)
    assert rep.gap > 0


def test_neumann_principal_pair():
    mesh = generate_structured("unit_square", 16, "flux")
    op = assemble(mesh, CoefficientSet.constant(mesh), BoundaryMode.NEUMANN)
    rep = principal_eig(op)
    assert abs(rep.lambda1) <= 1e-10
    v = rep.vector
    assert v.max() - v.min() <= 1e-8 * abs(v).max()
    gaps = spectral_gap(op, 4)
    exact = math.pi ** 2 * np.array([0.0, 1.0, 1.0, 2.0])
    np.testing.assert_allclose(np.real(gaps.values), exact, rtol=0.02,
                               atol=1e-9)


def test_robin_principal_eigenvalue_unit_square():
    mesh = generate_structured("unit_square", 32, "flux")
    op = assemble(mesh, CoefficientSet.constant(mesh, beta=1.0),
                  BoundaryMode.ROBIN)
    rep = principal_eig(op)
    exact = 2.0 * robin_half_tangent_root() ** 2
    assert rep.lambda1.real == pytest.approx(exact, rel=0.02)


def test_neumann_is_robin_with_zero_beta(robin_mesh8):
    a = assemble(robin_mesh8, CoefficientSet.constant(robin_mesh8),
                 BoundaryMode.NEUMANN)
    b = assemble(robin_mesh8, CoefficientSet.constant(robin_mesh8, beta=0.0),
                 BoundaryMode.ROBIN)
    assert (a.stiffness != b.stiffness).nnz == 0
    assert np.array_equal(a.dof_map, b.dof_map)


def test_mixed_principal_eigenvalue_oracle():
    # Dirichlet on the bottom edge and Neumann elsewhere separates:
    # lambda1 = (pi/2)^2 from the y-direction, 0 from the x-direction
    mesh = generate_structured("unit_square", 16,
                               {"bottom": "D", "right": "N", "top": "N",
                                "left": "N"})
    op = assemble(mesh, CoefficientSet.constant(mesh), BoundaryMode.MIXED,
                  corkscrew_checked=True)
    rep = principal_eig(op)
    assert rep.lambda1.real == pytest.approx(math.pi ** 2 / 4.0, rel=0.02)


def test_dirichlet_eigenvalue_converges_at_second_order():
    errors = []
    for n in (8, 16, 32):
        mesh = generate_structured("unit_square", n, "dirichlet")
        op = assemble(mesh, CoefficientSet.constant(mesh),
                      BoundaryMode.DIRICHLET)
        lam = principal_eig(op).lambda1.real
        errors.append(lam - 2.0 * math.pi ** 2)
    assert all(e > 0 for e in errors)
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.0 <= coarse / fine <= 5.0  # observed order ~ 2


# -- certificates ------------------------------------------------------------

def test_robin_certificate_positive_on_closure(robin_op8):
    rep = principal_eig(robin_op8)
    cert = certify_positivity(rep, robin_op8)
    assert cert.passed
    assert cert.region is Region.CLOSURE
    assert cert.min_value > 0
    # the smooth ground state is minimal at a corner of the square
    xy = robin_op8.mesh.vertices[cert.witness_node]
    assert set(np.round(xy, 12)) <= {0.0, 1.0}
    # dense nodal scan agrees
    full = robin_op8.expand(rep.vector)
    assert cert.min_value == full.min()


def test_dirichlet_certificate_interior_only(dirichlet_op8):
    rep = principal_eig(dirichlet_op8)
    cert = certify_positivity(rep, dirichlet_op8)
    assert cert.passed
    assert cert.region is Region.INTERIOR
    full = dirichlet_op8.expand(rep.vector)
    boundary = dirichlet_op8.mesh.boundary_vertices()
    assert np.all(full[boundary] == 0.0)
    interior = np.setdiff1d(np.arange(len(full)), boundary)
    assert full[interior].min() > 0


def test_second_eigenvector_fails_certificate(dirichlet_op8):
    gaps = spectral_gap(dirichlet_op8, 2)
    second = EigenReport(lambda1=complex(gaps.values[1]),
                         vector=gaps.vectors[:, 1],
                         residual=float(gaps.residuals[1]), gap=0.0,
                         multiplicity_flag=False, mode=dirichlet_op8.mode)
    cert = certify_positivity(second, dirichlet_op8)
    assert not cert.passed
    # orthogonality to the positive principal vector forces a sign change
    assert gaps.vectors[:, 1].min() < 0 < gaps.vectors[:, 1].max()


def test_mixed_certificate(mixed_mesh8):
    coeffs = CoefficientSet.constant(mixed_mesh8)
    op = assemble(mixed_mesh8, coeffs, BoundaryMode.MIXED,
                  corkscrew_checked=True)
    rep = principal_eig(op)
    cert = certify_positivity(rep, op)
    assert cert.passed
    assert cert.region is Region.OMEGA_UNION_N
    full = op.expand(rep.vector)
    bottom = [v for v in mixed_mesh8.boundary_vertices()
              if mixed_mesh8.vertices[v][1] == 0.0]
    assert np.all(full[bottom] == 0.0)
    others = np.setdiff1d(np.arange(len(full)), bottom)
    assert full[others].min() > 0


def test_certificate_rejects_complex_vector(robin_mesh8):
    coeffs = CoefficientSet.constant(robin_mesh8, beta=1 + 1j)
    op = assemble(robin_mesh8, coeffs, BoundaryMode.COMPLEX_ROBIN)
    rep = principal_eig(op)
    if not np.iscomplexobj(rep.vector):
        pytest.skip("eigenvector collapsed to real")
    # outside the certificate's regime the verdict is not applicable
    cert = certify_positivity(rep, op)
    assert not cert.passed
    assert cert.reason == "no positivity region for mode complex_robin"
    # a real operator with convection has no Perron argument on the
    # consistent pencil, whatever its eigenvector
    coeffs = CoefficientSet.constant(robin_mesh8, beta=1.0, b=(80.0, 0.0))
    op = assemble(robin_mesh8, coeffs, BoundaryMode.ROBIN)
    cert = certify_positivity(principal_eig(op), op)
    assert not cert.passed and cert.region is Region.CLOSURE
    assert cert.reason.startswith("no Perron argument for a non-Hermitian")


# -- invariants ---------------------------------------------------------------

def test_rayleigh_consistency(robin_op8):
    rep = principal_eig(robin_op8)
    u = rep.vector
    quotient = apply_form(robin_op8, u, u).real / \
        float(u @ (robin_op8.mass @ u))
    assert abs(rep.lambda1.real - quotient) <= max(10 * rep.residual, 1e-12)


@pytest.mark.parametrize("mode_fixture", ["robin_op8", "dirichlet_op8"])
def test_perron_sign_property(mode_fixture, request):
    op = request.getfixturevalue(mode_fixture)
    assert mmatrix_report(op).is_m_compatible
    rep = perron_pair(op, 1e-10)
    assert np.all(rep.vector >= 0.0)  # exact assertion, no tolerance


def test_eigenvalue_monotone_in_beta(robin_mesh8):
    lams = []
    for beta in (0.5, 1.0, 2.0):
        op = assemble(robin_mesh8, CoefficientSet.constant(robin_mesh8,
                                                           beta=beta),
                      BoundaryMode.ROBIN)
        lams.append(principal_eig(op).lambda1.real)
    assert lams[0] < lams[1] < lams[2]


def test_gap_positive_when_certificate_passes(robin_op8, dirichlet_op8):
    for op in (robin_op8, dirichlet_op8):
        rep = principal_eig(op)
        if certify_positivity(rep, op).passed:
            assert rep.gap > 0


def test_vector_normalization_and_sign(robin_op8):
    rep = principal_eig(robin_op8)
    lumped_norm = float(rep.vector @ (robin_op8.mass_lumped * rep.vector))
    assert lumped_norm == pytest.approx(1.0, abs=1e-12)
    assert float(np.sum(robin_op8.mass_lumped * rep.vector)) >= 0


def test_convection_shifts_spectrum_by_quarter_speed_squared():
    # with constant drift w the substitution u = exp(w.x/2) v turns the
    # Dirichlet convection-diffusion problem into pure diffusion plus
    # |w|^2/4, an exact oracle for the non-Hermitian solver path
    mesh = generate_structured("unit_square", 16, "dirichlet")
    w = np.array([1.0, 0.0])
    exact = 2.0 * math.pi ** 2 + 0.25
    lams = []
    for coeffs in (CoefficientSet.constant(mesh, c=w),
                   CoefficientSet.constant(mesh, b=-w)):
        op = assemble(mesh, coeffs, BoundaryMode.DIRICHLET)
        assert not op.is_hermitian
        rep = principal_eig(op)
        assert rep.lambda1.imag == pytest.approx(0.0, abs=1e-10)
        assert rep.lambda1.real == pytest.approx(exact, rel=0.02)
        lams.append(rep.lambda1.real)
    # the two drift slots assemble mutually adjoint operators
    assert lams[0] == pytest.approx(lams[1], rel=1e-10)


def test_spectral_gap_non_hermitian_sorted(robin_mesh8):
    coeffs = CoefficientSet.constant(robin_mesh8, beta=1.0 + 1.0j)
    op = assemble(robin_mesh8, coeffs, BoundaryMode.COMPLEX_ROBIN)
    rep = spectral_gap(op, 4)
    re = np.real(rep.values)
    assert np.all(np.diff(re) >= -1e-12)
    assert rep.gap == pytest.approx(re[1] - re[0])
    assert np.all(rep.residuals <= 1e-8)


# -- complex Robin ------------------------------------------------------------

def test_complex_robin_real_beta_margin_zero(robin_mesh8):
    coeffs = CoefficientSet.constant(robin_mesh8, beta=1.0 + 0.0j)
    bound = complex_robin_bound(
        assemble(robin_mesh8, coeffs, BoundaryMode.COMPLEX_ROBIN))
    assert not bound.strict
    assert abs(bound.margin) <= 1e-10


def test_complex_robin_strict_bound():
    mesh = generate_structured("unit_square", 16, "flux")
    coeffs = CoefficientSet.constant(mesh, beta=1.0 + 1.0j)
    bound = complex_robin_bound(
        assemble(mesh, coeffs, BoundaryMode.COMPLEX_ROBIN))
    assert bound.strict
    assert bound.margin > 0
    assert bound.re_min_complex > bound.min_real_part_problem


def test_complex_robin_margin_decreases_with_imaginary_part(robin_mesh8):
    margins = []
    for gamma in (0.5, 0.25, 0.125):
        coeffs = CoefficientSet.constant(robin_mesh8, beta=1.0 + 1j * gamma)
        op = assemble(robin_mesh8, coeffs, BoundaryMode.COMPLEX_ROBIN)
        margins.append(complex_robin_bound(op).margin)
    assert margins[0] > margins[1] > margins[2] > 0


def test_complex_robin_eigenpair_real_part_identity(robin_mesh8):
    beta = 1.0 + 1.0j
    op_c = assemble(robin_mesh8, CoefficientSet.constant(robin_mesh8,
                                                         beta=beta),
                    BoundaryMode.COMPLEX_ROBIN)
    op_r = assemble(robin_mesh8, CoefficientSet.constant(robin_mesh8,
                                                         beta=beta.real),
                    BoundaryMode.ROBIN)
    lam1_real = principal_eig(op_r).lambda1.real
    values, vectors = sla.eig(op_c.stiffness.toarray(), op_c.mass.toarray())
    for j in range(len(values)):
        u = vectors[:, j]
        rayleigh_re = float(np.real(np.vdot(u, op_r.stiffness @ u))
                            / np.real(np.vdot(u, op_c.mass @ u)))
        assert values[j].real == pytest.approx(rayleigh_re, rel=1e-8,
                                               abs=1e-8)
        assert values[j].real >= lam1_real - 1e-8


# -- solver plumbing ----------------------------------------------------------

def test_spectral_gap_argument_validation(robin_op8):
    with pytest.raises(ValueError):
        spectral_gap(robin_op8, 1)
    with pytest.raises(ValueError):
        spectral_gap(robin_op8, robin_op8.n_dof + 1)


def test_principal_eig_rejects_bad_tol(robin_op8):
    with pytest.raises(ValueError):
        principal_eig(robin_op8, tol=0.0)


def test_lumped_and_consistent_pencils_agree_to_discretization_error(
        dirichlet_op8):
    lam_c = principal_eig(dirichlet_op8).lambda1.real
    lam_l = perron_pair(dirichlet_op8, 1e-10).lambda1.real
    assert lam_c == pytest.approx(lam_l, rel=0.1)
    assert lam_l < 2 * math.pi ** 2 < lam_c  # lumped below, consistent above


def test_reports_are_deterministic(robin_op8):
    a = principal_eig(robin_op8)
    b = principal_eig(robin_op8)
    assert a.lambda1 == b.lambda1
    assert np.array_equal(a.vector, b.vector)


def test_nonconvergence_reports_last_residual(robin_op8, monkeypatch):
    import perronfem.spectral as spectral
    monkeypatch.setattr(spectral, "MAX_SWEEPS", 1)
    with pytest.raises(SolverError, match="residuals.*tol"):
        spectral._hermitian_pairs(robin_op8.stiffness, robin_op8.mass,
                                  robin_op8.mass_lumped, k=2, tol=1e-10,
                                  start=None)


def test_arnoldi_fallback_agrees_with_dense(robin_mesh8):
    # the sector-certified shift-invert path against QZ on the whole pencil
    from perronfem.spectral import _arnoldi_smallest_real, _sector_offset
    coeffs = CoefficientSet.constant(robin_mesh8, beta=1.0 + 1.0j)
    op = assemble(robin_mesh8, coeffs, BoundaryMode.COMPLEX_ROBIN)
    dense_vals = sla.eig(op.stiffness.toarray(), op.mass.toarray(),
                         right=False)
    arn_vals, _ = _arnoldi_smallest_real(op, op.mass, k=4, tol=1e-12,
                                         s=_sector_offset(op, op.mass))
    np.testing.assert_allclose(np.sort(arn_vals.real)[:3],
                               np.sort(dense_vals.real)[:3], rtol=1e-10)


# -- the certified non-Hermitian path ------------------------------------------

@functools.lru_cache(maxsize=None)
def _nonhermitian_case(n, mode, beta, b):
    mesh = generate_structured("unit_square", n, "flux")
    return assemble(mesh, CoefficientSet.constant(mesh, beta=beta, b=b),
                    mode)


@functools.lru_cache(maxsize=None)
def _dense_reference(n, mode, beta, b, mass):
    """Test-only reference: QZ on the whole dense pencil, sorted by real,
    then imaginary part."""
    from perronfem.assembly import mass_matrix
    op = _nonhermitian_case(n, mode, beta, b)
    M = mass_matrix(mass, op.mass, op.mass_lumped)
    values = sla.eig(op.stiffness.toarray(), M.toarray(), right=False)
    return values[np.lexsort((values.imag, values.real))]


def _counted_arnoldi(monkeypatch):
    import perronfem.spectral as spectral
    calls = []
    eigs = spectral.spla.eigs

    def counted(*args, **kwargs):
        calls.append(kwargs["k"])
        return eigs(*args, **kwargs)
    monkeypatch.setattr(spectral.spla, "eigs", counted)
    return calls


NONHERMITIAN_CASES = [
    (BoundaryMode.COMPLEX_ROBIN, 1.0 + 1.0j, (0.0, 0.0)),
    (BoundaryMode.ROBIN, 1.0, (5.0, 2.0))]


@pytest.mark.parametrize("n", [6, 20])
@pytest.mark.parametrize("mass", ["consistent", "lumped"])
@pytest.mark.parametrize("mode, beta, b", NONHERMITIAN_CASES)
def test_certified_spectrum_matches_the_dense_reference(
        monkeypatch, n, mass, mode, beta, b):
    # complex Robin and convective Robin certify at two guard pairs
    op = _nonhermitian_case(n, mode, beta, b)
    assert not op.is_hermitian
    calls = _counted_arnoldi(monkeypatch)
    values, _, residuals = _lowest_pairs(_fresh(op), mass, 3, 1e-10)
    assert calls == [5]
    reference = _dense_reference(n, mode, beta, b, mass)[:3]
    np.testing.assert_allclose(values, reference, rtol=1e-10)
    assert np.all(residuals <= 1e-8)


def test_a_strongly_imaginary_beta_doubles_the_arnoldi_pairs(monkeypatch):
    # beta = 0.2 + 3i: A_s - H has Robin coefficient -2.8, s is about 18.9,
    # and the sector outside the 4-pair disc reaches left of Re lambda_2
    case = (20, BoundaryMode.COMPLEX_ROBIN, 0.2 + 3.0j, (0.0, 0.0))
    calls = _counted_arnoldi(monkeypatch)
    rep = spectral_gap(_fresh(_nonhermitian_case(*case)), 2)
    assert calls == [4, 8]
    np.testing.assert_allclose(
        rep.values, _dense_reference(*case, "consistent")[:2], rtol=1e-10)


def test_the_sector_offset_bounds_every_eigenvalue():
    from perronfem.spectral import _sector_offset
    for mode, beta, b in NONHERMITIAN_CASES + [
            (BoundaryMode.COMPLEX_ROBIN, 0.2 + 3.0j, (0.0, 0.0))]:
        op = _nonhermitian_case(6, mode, beta, b)
        s = _sector_offset(op, op.mass)
        values = _dense_reference(6, mode, beta, b, "consistent")
        assert np.all(np.abs(values.imag) <= values.real + s)


def test_the_lanczos_bound_covers_an_inexact_ritz_pair(monkeypatch):
    # a Ritz pair off the eigenvector overshoots lambda_min; the residual
    # bound pulls the value back below it
    import perronfem.spectral as spectral
    op = _nonhermitian_case(6, *NONHERMITIAN_CASES[0])
    A_s = op.stiffness.real.tocsr()  # (A + A^H)/2 of complex Robin
    exact, V = sla.eigh(A_s.toarray(), op.mass.toarray())
    x = V[:, 0] + 0.01 * V[:, 5]
    theta = (x @ (A_s @ x)) / (x @ (op.mass @ x))
    assert theta > exact[0]
    monkeypatch.setattr(spectral.spla, "eigsh", lambda C, k, M, **kwargs: (
        np.array([theta]), x[:, None]))
    assert spectral._hermitian_lower_bound(A_s, op.mass,
                                           op.mass_lumped) < exact[0]


def test_an_uncertified_spectrum_is_a_solver_error_at_the_cap(monkeypatch):
    import perronfem.spectral as spectral
    monkeypatch.setattr(spectral, "_sector_offset", lambda op, M: 1e6)
    calls = _counted_arnoldi(monkeypatch)
    op = _fresh(_nonhermitian_case(6, *NONHERMITIAN_CASES[0]))
    with pytest.raises(SolverError, match="47 Arnoldi pairs do not certify"):
        principal_eig(op)
    assert calls == [4, 8, 16, 32, 47]  # capped at n_dof - 2


def test_tiny_meshes_take_the_dense_spectrum(monkeypatch):
    import perronfem.spectral as spectral
    calls = _counted_arnoldi(monkeypatch)
    op = _nonhermitian_case(1, *NONHERMITIAN_CASES[0])
    assert op.n_dof == 4  # k + 2 >= n_dof - 1: ARPACK cannot run
    rep = spectral_gap(op, 4)
    assert calls == []
    np.testing.assert_allclose(
        rep.values, _dense_reference(1, *NONHERMITIAN_CASES[0],
                                     "consistent"), rtol=1e-12)


def test_arnoldi_failure_is_a_solver_error(robin_mesh8, monkeypatch):
    import scipy.sparse.linalg as spla
    from perronfem.spectral import _arnoldi_smallest_real

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.empty(0),
                                       np.empty((0, 0)))
    monkeypatch.setattr(spla, "eigs", no_convergence)
    op = assemble(robin_mesh8,
                  CoefficientSet.constant(robin_mesh8, beta=1.0 + 1.0j),
                  BoundaryMode.COMPLEX_ROBIN)
    with pytest.raises(SolverError, match="Arnoldi failed"):
        _arnoldi_smallest_real(op, op.mass, k=4, tol=1e-12, s=0.0)
    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(SolverError, match="Lanczos failed"):
        principal_eig(op)


def _arnoldi_tols(monkeypatch, perturb=0.0):
    """Record ARPACK's tol per call; ``perturb`` spoils every vector."""
    import perronfem.spectral as spectral
    tols = []
    eigs = spectral.spla.eigs

    def counted(*args, **kwargs):
        tols.append(kwargs["tol"])
        values, vectors = eigs(*args, **kwargs)
        return values, vectors + perturb
    monkeypatch.setattr(spectral.spla, "eigs", counted)
    return tols


def test_a_later_arnoldi_pair_off_the_bound_is_solved_again(monkeypatch):
    # ARPACK converges on the shift-inverted operator: at tol = 1e-10 the
    # second pair of this convection pencil has a relative residual of
    # about 5.2e-9, so the solve runs once more at ARPACK's tol = 0
    mesh = generate_structured("unit_square", 32, "N")
    op = assemble(mesh, CoefficientSet.constant(mesh, b=(1.0, 0.0)),
                  BoundaryMode.NEUMANN)
    tols = _arnoldi_tols(monkeypatch)
    rep = spectral_gap(op, 2, tol=1e-10)
    assert tols == [1e-10, 0.0]
    assert np.all(rep.residuals <= 1e-9)
    assert principal_eig(op, tol=1e-10).residual == rep.residuals[0]


def test_an_arnoldi_residual_off_the_bound_at_tol_zero_raises(monkeypatch):
    tols = _arnoldi_tols(monkeypatch, perturb=1e-3)
    op = _fresh(_nonhermitian_case(6, *NONHERMITIAN_CASES[0]))
    with pytest.raises(SolverError, match="Arnoldi residual .* exceeds"):
        spectral_gap(op, 2)
    assert tols == [1e-10, 0.0]


def test_complex_robin_bound_above_the_dense_cutoff_takes_no_flag(
        monkeypatch):
    # 49 dofs are above the tiny-mesh dense spectrum: the bound rests on the
    # certified Arnoldi path, with nothing patched to route it there
    import perronfem.spectral as spectral
    case = (6, BoundaryMode.COMPLEX_ROBIN, 1.0 + 1.0j, (0.0, 0.0))
    reference = _dense_reference(*case, "consistent")[0].real
    calls = _counted_arnoldi(monkeypatch)
    monkeypatch.setattr(spectral.sla, "eig", None)
    bound = complex_robin_bound(_fresh(_nonhermitian_case(*case)))
    assert calls == [4]
    assert bound.strict
    assert bound.re_min_complex == pytest.approx(reference, rel=1e-10)


def test_complex_robin_bound_at_n38_above_the_dense_cutoff():
    # the real-part problem solves at principal_eig's tolerance: inverse
    # iteration on this square cannot reach a residual of 1e-12
    mesh = generate_structured("unit_square", 38, "flux")
    op = assemble(mesh, CoefficientSet.constant(mesh, beta=1.0 + 1.0j),
                  BoundaryMode.COMPLEX_ROBIN)
    assert complex_robin_bound(op).strict


def test_complex_robin_bound_and_gap_pass_at_n64():
    # 4,225 dofs, once above the dense route's cutoff, with nothing patched
    from perronfem.verification import Problem, run_suite
    mesh = generate_structured("unit_square", 64, "flux")
    problem = Problem(mesh=mesh,
                      coeffs=CoefficientSet.constant(mesh, beta=1.0 + 1.0j),
                      mode=BoundaryMode.COMPLEX_ROBIN)
    assert problem.op.n_dof == 4225
    for label in ("spectral-gap", "complex-robin-strict-bound"):
        (result,) = run_suite(problem, only=label).results
        assert result.verdict is Verdict.PASS, result.payload


@pytest.mark.parametrize("mode, beta, b", [
    (BoundaryMode.COMPLEX_ROBIN, 1.0 + 1.0j, (0.0, 0.0)),
    (BoundaryMode.ROBIN, 1.0, (1.0, 0.0))])
def test_arnoldi_path_matches_the_dense_path(robin_mesh8, mode, beta, b):
    op = assemble(robin_mesh8, CoefficientSet.constant(robin_mesh8, beta=beta,
                                                       b=b), mode)
    rep = principal_eig(op)
    gap = spectral_gap(op, 3)
    values, vectors = sla.eig(op.stiffness.toarray(), op.mass.toarray())
    order = np.lexsort((values.imag, values.real))
    values, vectors = values[order], vectors[:, order]
    assert rep.lambda1 == pytest.approx(values[0], rel=1e-10)
    assert rep.residual <= 1e-9
    # the same unit lumped-L2 vector up to a unimodular factor
    v = vectors[:, 0] / math.sqrt(np.real(np.vdot(
        vectors[:, 0], op.mass_lumped * vectors[:, 0])))
    np.testing.assert_allclose(np.abs(rep.vector), np.abs(v), atol=1e-7)
    np.testing.assert_allclose(gap.values, values[:3], rtol=1e-10)
    assert np.all(gap.residuals <= 1e-8)


# -- one solve per operator ------------------------------------------------------

def _fresh(op):
    return assemble(op.mesh, op.coeffs, op.mode)


@pytest.mark.parametrize("beta", [1.0, 1.0 + 1.0j])
def test_spectral_gap_after_principal_eig_is_bitwise_a_fresh_solve(
        robin_mesh8, beta):
    coeffs = CoefficientSet.constant(robin_mesh8, beta=beta)
    mode = BoundaryMode.ROBIN if beta == 1.0 else BoundaryMode.COMPLEX_ROBIN
    op = assemble(robin_mesh8, coeffs, mode)
    principal = principal_eig(op)
    shared = spectral_gap(op, 2)
    alone = spectral_gap(_fresh(op), 2)
    assert np.array_equal(shared.values, alone.values)
    assert np.array_equal(shared.vectors, alone.vectors)
    assert np.array_equal(shared.residuals, alone.residuals)
    assert shared.gap == alone.gap == principal.gap
    assert principal.lambda1 == principal_eig(_fresh(op)).lambda1


def test_complex_robin_bound_reads_the_suite_spectrum(robin_mesh8):
    coeffs = CoefficientSet.constant(robin_mesh8, beta=1.0 + 0.5j)
    op = assemble(robin_mesh8, coeffs, BoundaryMode.COMPLEX_ROBIN)
    rep = principal_eig(op)
    bound = complex_robin_bound(op)
    assert bound == complex_robin_bound(_fresh(op))
    assert bound.re_min_complex == rep.lambda1.real


def test_shared_solves_are_read_only(robin_op8, robin_mesh8):
    from perronfem.assembly import MassKind
    gap = spectral_gap(robin_op8, 3)
    with pytest.raises(ValueError, match="read-only"):
        gap.residuals[0] = 0.0
    op = assemble(robin_mesh8,
                  CoefficientSet.constant(robin_mesh8, beta=1.0 + 1.0j),
                  BoundaryMode.COMPLEX_ROBIN)
    values = spectral_gap(op, 3).values
    key = ("lowest_pairs", MassKind.CONSISTENT, 3, 1e-10)
    cached, vectors = op.solver_cache[key]
    assert values.base is cached
    with pytest.raises(ValueError, match="read-only"):
        values[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        vectors[:, 0] *= 2.0


def test_complex_robin_bound_needs_the_complex_operator(robin_op8):
    with pytest.raises(ValueError, match="complex_robin"):
        complex_robin_bound(robin_op8)


# -- the Rayleigh-Ritz sweep against a dense generalized eigensolve ---------------

def _sweep_case(case):
    if case == "l_shape_mixed":
        mesh = generate_structured("l_shape", 4, {
            "bottom": "D", "right": "N", "inner_h": "N", "inner_v": "N",
            "top": "N", "left": "N"})
        return assemble(mesh, CoefficientSet.constant(mesh),
                        BoundaryMode.MIXED, corkscrew_checked=True)
    mesh = generate_structured("unit_square", 10,
                               "dirichlet" if case == "dirichlet" else "flux")
    if case == "dirichlet":
        return assemble(mesh, CoefficientSet.constant(mesh),
                        BoundaryMode.DIRICHLET)
    if case == "neumann":
        return assemble(mesh, CoefficientSet.constant(mesh),
                        BoundaryMode.NEUMANN)
    a = [[2.0, 0.5], [0.5, 1.0]] if case == "anisotropic" else None
    return assemble(mesh, CoefficientSet.constant(mesh, a=a, beta=1.0,
                                                  mu=0.5),
                    BoundaryMode.ROBIN)


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("mass", ["consistent", "lumped"])
@pytest.mark.parametrize("case", ["robin", "dirichlet", "neumann",
                                  "l_shape_mixed", "anisotropic"])
def test_hermitian_sweep_matches_dense_generalized_eigh(case, mass, k):
    from perronfem.assembly import mass_matrix
    from perronfem.spectral import _hermitian_pairs
    op = _sweep_case(case)
    M = mass_matrix(mass, op.mass, op.mass_lumped)
    tol = 1e-10
    values, vectors, residuals = _hermitian_pairs(
        op.stiffness, M, op.mass_lumped, k, tol, None)
    A = op.stiffness.toarray()
    dense = sla.eigh(A, M.toarray(), eigvals_only=True)[:k]
    scale = max(1.0, float(np.abs(dense).max()))
    assert np.abs(values - dense).max() <= 1e-10 * scale
    MX = M @ vectors
    measured = np.linalg.norm(A @ vectors - MX * values, axis=0) \
        / np.linalg.norm(MX, axis=0)
    assert np.all(residuals <= tol) and np.all(measured <= tol)


@pytest.mark.parametrize("mass", ["consistent", "lumped"])
def test_hermitian_sweep_keeps_the_sign_in_a_potential_well(mass):
    # c0 = 1e6 on the right half: the Perron vector decays by tens of
    # orders of magnitude across the well and must stay positive
    mesh = generate_structured("unit_square", 12, "flux")
    right = mesh.vertices[mesh.triangles].mean(axis=1)[:, 0] > 0.5
    coeffs = CoefficientSet.constant(mesh, beta=1.0,
                                     c0=np.where(right, 1e6, 0.0))
    op = assemble(mesh, coeffs, BoundaryMode.ROBIN)
    vector = (principal_eig(op) if mass == "consistent"
              else perron_pair(op, 1e-10)).vector
    assert vector.min() > 0.0
    assert vector.min() < 1e-20 * vector.max()  # the well is really deep


def _signed(vector, mass_lumped):
    """Unit lumped-L2 norm with a positive lumped mean, as the reports."""
    vector = vector / np.sqrt(np.real(np.vdot(vector, mass_lumped * vector)))
    mean = np.sum(mass_lumped * vector)
    return vector * (abs(mean) / mean)


@pytest.mark.parametrize("case", ["robin", "dirichlet", "l_shape_mixed"])
def test_perron_pair_matches_dense_lumped_eigh(case):
    op = _sweep_case(case)
    rep = perron_pair(op, 1e-10)
    values, vectors = sla.eigh(op.stiffness.toarray(),
                               np.diag(op.mass_lumped))
    assert rep.lambda1.real == pytest.approx(values[0], rel=1e-10)
    np.testing.assert_allclose(
        rep.vector, _signed(vectors[:, 0], op.mass_lumped), rtol=1e-10)


def test_perron_pair_of_a_convective_operator_matches_dense_eig():
    # b != c: one certified Arnoldi pair of the real lumped pencil
    op = _nonhermitian_case(8, BoundaryMode.ROBIN, 1.0, (5.0, 2.0))
    assert not op.is_hermitian and not op.is_complex
    rep = perron_pair(op, 1e-10)
    values, vectors = sla.eig(op.stiffness.toarray(), np.diag(op.mass_lumped))
    least = np.lexsort((values.imag, values.real))[0]
    assert rep.lambda1 == pytest.approx(values[least], rel=1e-10)
    np.testing.assert_allclose(
        rep.vector, _signed(vectors[:, least], op.mass_lumped).real,
        rtol=1e-10, atol=1e-12)


def test_perron_pair_starts_from_the_consistent_pairs(monkeypatch):
    # the lumped block is one pair and two guards, its leading columns the
    # consistent pencil's two least pairs, which are O(h^2) from its own
    import perronfem.spectral as spectral
    from perronfem.assembly import mass_matrix
    from perronfem.verification import Problem, run_suite
    mesh = generate_structured("l_shape", 16, {
        "bottom": "D", "right": "N", "inner_h": "N", "inner_v": "N",
        "top": "N", "left": "N"})
    problem = Problem(mesh=mesh, coeffs=CoefficientSet.constant(mesh),
                      mode=BoundaryMode.MIXED)
    solves, starts = [], []  # block columns of each solve, per factorization
    factorize, pairs = spectral.factorize, spectral._hermitian_pairs

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            solves[-1].append(rhs.shape[1])
            return self.lu.solve(rhs)

    def counted_factorize(matrix):
        solves.append([])
        return Counted(factorize(matrix))

    def spied_pairs(*args):
        starts.append(args[-1])
        return pairs(*args)
    monkeypatch.setattr(spectral, "factorize", counted_factorize)
    monkeypatch.setattr(spectral, "_hermitian_pairs", spied_pairs)
    for label in ("principal-positivity", "perron-sign-structure",
                  "spectral-gap"):
        (result,) = run_suite(problem, only=label).results
        assert result.verdict is Verdict.PASS
    consistent, lumped = solves  # each pencil factorized once
    assert set(consistent) == {4} and set(lumped) == {3}
    op, tol = problem.op, problem.solver_tol
    assert starts[0] is None
    np.testing.assert_array_equal(starts[1],
                                  spectral_gap(op, 2, tol).vectors)
    # cold starts of the same pencil: the block of one pair, and the two
    # pairs with two guards the lumped solve took before
    M_L = mass_matrix("lumped", op.mass, op.mass_lumped)
    cold = {}
    for k in (1, 2):
        pairs(op.stiffness, M_L, op.mass_lumped, k, tol, None)
        cold[k] = len(solves[-1])
    assert len(lumped) < cold[1] and 2 * len(lumped) <= cold[2]


def test_rank_deficient_sweep_is_a_solver_error(robin_op8, monkeypatch):
    from perronfem.spectral import _hermitian_pairs

    def singular_gram(*args, **kwargs):
        raise sla.LinAlgError("the leading minor is not positive definite")
    monkeypatch.setattr(sla, "eigh", singular_gram)
    with pytest.raises(SolverError, match="rank deficient"):
        _hermitian_pairs(robin_op8.stiffness, robin_op8.mass,
                         robin_op8.mass_lumped, k=2, tol=1e-10, start=None)


# -- the M-matrix certificate of the principal eigenvector ---------------------

def _potential_well(n, tags, mode, beta=0.0):
    """c0 = 5000 on the triangles right of x = 0.5, 0 elsewhere."""
    mesh = generate_structured("unit_square", n, tags)
    right = mesh.vertices[mesh.triangles].mean(axis=1)[:, 0] > 0.5
    return assemble(mesh, CoefficientSet.constant(
        mesh, c0=np.where(right, 5000.0, 0.0), beta=beta), mode)


@pytest.mark.parametrize("tags, mode, beta", [
    ("N", BoundaryMode.ROBIN, 1.0), ("D", BoundaryMode.DIRICHLET, 0.0)])
def test_a_potential_well_passes_without_a_float_floor(tags, mode, beta):
    # the Perron vector decays to ~6e-15 of its maximum inside the well, a
    # value the old relative floor 1e-12 * max|u| called nonpositive
    from perronfem.verification import Problem, run_suite
    op = _potential_well(32, tags, mode, beta)
    problem = Problem(mesh=op.mesh, coeffs=op.coeffs, mode=mode)
    problem.op = op
    results = {r.label: r for r in run_suite(problem).results
               if r.label in ("principal-positivity", "perron-sign-structure",
                              "kernel-positivity", "positivity-improving")}
    assert {label: r.verdict for label, r in results.items()} == dict.fromkeys(
        results, Verdict.PASS)
    payload = results["principal-positivity"].payload
    assert 0.0 < payload["min_value"] < 1e-13
    assert "underflow" not in payload


def test_convection_past_the_sign_pattern_is_not_applicable():
    # on right-triangle meshes the diagonal edges carry convection but no
    # diffusion, so b = (60, 0) gives the stiffness positive off-diagonal
    # entries; the old floor read a round-off minimum of -2.8e-13 as FAIL
    from perronfem.verification import Problem, run_suite
    mesh = generate_structured("unit_square", 64, "N")
    problem = Problem(mesh=mesh, mode=BoundaryMode.ROBIN,
                      coeffs=CoefficientSet.constant(mesh, beta=1.0,
                                                     b=(60.0, 0.0)))
    verdicts = {label: run_suite(problem, only=label).results[0]
                for label in ("mmatrix-compatible", "principal-positivity")}
    assert verdicts["mmatrix-compatible"].verdict is Verdict.FAIL
    principal = verdicts["principal-positivity"]
    assert principal.verdict is Verdict.NOT_APPLICABLE
    assert "non-Hermitian" in principal.payload["reason"]


def test_each_witness_of_the_stiffness_certificate(robin_op8, dirichlet_op8):
    # Robin and Dirichlet stiffnesses have zero interior row sums, so their
    # nonsingularity comes from lambda1 > 0 (a Stieltjes matrix); the
    # Neumann stiffness annihilates constants, whose Perron vector is the
    # constant; a negative c0 leaves neither, and no verdict
    for op in (robin_op8, dirichlet_op8):
        assert not mmatrix_report(op).holds and mmatrix_report(op).irreducible
        assert certify_positivity(principal_eig(op), op).passed
    mesh = robin_op8.mesh
    for c0, passed in ((0.0, True), (-1.0, False)):
        op = assemble(mesh, CoefficientSet.constant(mesh, c0=c0),
                      BoundaryMode.NEUMANN)
        cert = certify_positivity(principal_eig(op), op)
        assert cert.passed is passed
        if not passed:
            assert principal_eig(op).lambda1.real < 0
            assert "row sum <= 0 and no witness" in cert.reason


def test_a_negative_entry_under_the_certificate_fails(robin_op8):
    from dataclasses import replace
    rep = principal_eig(robin_op8)
    vector = rep.vector.copy()
    vector[5] = -1e-300
    cert = certify_positivity(replace(rep, vector=vector), robin_op8)
    assert not cert.passed and not cert.reason
    assert cert.witness_node == robin_op8.free_vertices[5]
    vector[5] = 0.0  # a positive entry lost to underflow
    cert = certify_positivity(replace(rep, vector=vector), robin_op8)
    assert cert.passed and cert.underflow and cert.min_value == 0.0
