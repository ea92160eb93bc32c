import dataclasses

import numpy as np
import pytest

from perronfem.assembly import CoefficientSet, assemble_volume
from perronfem.mesh import generate_structured
from perronfem.parabolic import BoundaryData, ParabolicError, \
    PositivityScan, WeakResidual, make_test_bank, solve_mild, \
    strong_positivity_check, very_weak_residual
from perronfem.semigroup import EvolutionConfig, MassKind, Verdict
from perronfem.spectral import principal_eig


def laplace_coeffs(mesh):
    return CoefficientSet.constant(mesh)


def cfg_for(mesh, t_end, steps):
    return EvolutionConfig(dt=t_end / steps, t_end=t_end,
                           mass=MassKind.LUMPED)


def stacked(sol):
    """The states of one march of sol as one array: the reference the
    streamed checks are compared against."""
    return np.array(list(sol.states()))


def replaying(sol, rows):
    """sol whose every march replays the given states."""
    return dataclasses.replace(sol, march=lambda: iter(rows))


# -- solve_mild ----------------------------------------------------------------

def test_constants_are_equilibria(dirichlet_mesh8):
    coeffs = laplace_coeffs(dirichlet_mesh8)
    phi = BoundaryData.constant(dirichlet_mesh8, 1.0, 0.4)
    sol = solve_mild(dirichlet_mesh8, coeffs,
                     np.ones(dirichlet_mesh8.n_vertices), phi,
                     cfg_for(dirichlet_mesh8, 0.4, 40))
    assert np.abs(stacked(sol) - 1.0).max() <= 1e-12


def test_constants_are_equilibria_crank_nicolson(dirichlet_mesh8):
    from perronfem.semigroup import Scheme
    coeffs = laplace_coeffs(dirichlet_mesh8)
    phi = BoundaryData.constant(dirichlet_mesh8, 1.0, 0.4)
    cfg = EvolutionConfig(scheme=Scheme.CRANK_NICOLSON, dt=0.01, t_end=0.4,
                          mass=MassKind.CONSISTENT)
    sol = solve_mild(dirichlet_mesh8, coeffs,
                     np.ones(dirichlet_mesh8.n_vertices), phi, cfg)
    assert np.abs(stacked(sol) - 1.0).max() <= 1e-12


def _block_march(mesh, coeffs, u0, phi, cfg):
    """Reference: the boundary-pinned march from its own block formulas,
    one branch per scheme."""
    import scipy.sparse as sp
    from perronfem.semigroup import Scheme
    from perronfem.spectral import factorize
    A, M, ML = assemble_volume(mesh, coeffs)
    if cfg.mass is MassKind.LUMPED:
        M = sp.diags(ML).tocsr()
    boundary = mesh.boundary_vertices()
    interior = np.setdiff1d(np.arange(mesh.n_vertices), boundary)
    A_II = A[interior][:, interior]
    A_IB = A[interior][:, boundary]
    M_II = M[interior][:, interior]
    M_IB = M[interior][:, boundary]
    dt = cfg.dt
    if cfg.scheme is Scheme.IMPLICIT_EULER:
        lhs = (M_II + dt * A_II).tocsc()
        explicit_I, explicit_B = M_II, M_IB
        implicit_B = M_IB + dt * A_IB
    else:
        lhs = (M_II + 0.5 * dt * A_II).tocsc()
        explicit_I = M_II - 0.5 * dt * A_II
        explicit_B = M_IB - 0.5 * dt * A_IB
        implicit_B = M_IB + 0.5 * dt * A_IB
    lu = factorize(lhs)
    fields = np.empty((cfg.n_steps + 1, mesh.n_vertices))
    fields[0] = u0
    fields[0, boundary] = phi.at(0.0)
    for k in range(1, cfg.n_steps + 1):
        g_old = fields[k - 1, boundary]
        g_new = phi.at(k * dt)
        rhs = explicit_I @ fields[k - 1, interior] + explicit_B @ g_old \
            - implicit_B @ g_new
        fields[k, interior] = lu.solve(rhs)
        fields[k, boundary] = g_new
    return fields


@pytest.mark.parametrize("scheme", ["implicit_euler", "crank_nicolson"])
@pytest.mark.parametrize("mass", [MassKind.LUMPED, MassKind.CONSISTENT])
def test_solve_mild_equals_the_block_formulas(scheme, mass):
    mesh = generate_structured("l_shape", 6, "D")
    coeffs = CoefficientSet.constant(mesh, b=(1.5, -0.5), c=(0.25, 1.0),
                                     c0=0.5)
    bv = mesh.boundary_vertices()
    x, y = mesh.vertices[bv].T
    # boundary data ramp up from zero through two further samples
    phi = BoundaryData(times=np.array([0.0, 0.05, 0.2]),
                       values=np.array([np.zeros_like(x), 0.5 * (1.0 + x),
                                        (1.0 + x) * (2.0 - y)]),
                       boundary_vertices=bv)
    u0 = np.random.default_rng(4).uniform(0.0, 1.0, mesh.n_vertices)
    u0[bv] = 0.0
    cfg = EvolutionConfig(scheme=scheme, dt=0.01, t_end=0.25, mass=mass)
    sol = solve_mild(mesh, coeffs, u0, phi, cfg)
    assert np.array_equal(stacked(sol), _block_march(mesh, coeffs, u0, phi,
                                                     cfg))


def test_boundary_values_pinned_exactly(dirichlet_mesh8):
    coeffs = laplace_coeffs(dirichlet_mesh8)
    t_end = 0.32
    times = np.array([0.0, t_end / 2, t_end])
    bv = dirichlet_mesh8.boundary_vertices()
    values = np.vstack([np.zeros(len(bv)), np.ones(len(bv)),
                        0.5 * np.ones(len(bv))])
    phi = BoundaryData(times, values, bv)
    sol = solve_mild(dirichlet_mesh8, coeffs,
                     np.zeros(dirichlet_mesh8.n_vertices), phi,
                     cfg_for(dirichlet_mesh8, t_end, 32))
    for t, state in zip(sol.times, sol.states(), strict=True):
        assert np.array_equal(state[bv], phi.at(t))


def test_compatibility_violation_rejected(dirichlet_mesh8):
    coeffs = laplace_coeffs(dirichlet_mesh8)
    phi = BoundaryData.constant(dirichlet_mesh8, 1.0, 0.1)
    with pytest.raises(ParabolicError, match="phi"):
        solve_mild(dirichlet_mesh8, coeffs,
                   np.zeros(dirichlet_mesh8.n_vertices), phi,
                   cfg_for(dirichlet_mesh8, 0.1, 10))


def test_sign_condition_warning(dirichlet_mesh8):
    # c0 = -3 makes volume-stiffness row sums negative; solve_mild once
    # warned that positivity conclusions lapse, but (M_L + dt A)_II is still
    # an irreducible nonsingular M-matrix, so no warning and a PASS
    import warnings
    mesh = dirichlet_mesh8
    coeffs = CoefficientSet.constant(mesh, c0=-3.0)
    A, _, _ = assemble_volume(mesh, coeffs)
    assert (A @ np.ones(mesh.n_vertices)).min() < 0
    u0 = np.ones(mesh.n_vertices)
    u0[mesh.boundary_vertices()] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_mild(mesh, coeffs, u0, BoundaryData.constant(mesh, 0.0,
                                                                 0.1),
                         cfg_for(mesh, 0.1, 40))
    verdict, rep = strong_positivity_check(sol)
    assert verdict is Verdict.PASS and rep["start_step"] == 1


def test_eigenvector_decay_with_zero_boundary(dirichlet_mesh8, dirichlet_op8):
    rep = principal_eig(dirichlet_op8, 1e-10, k=1, mass=MassKind.LUMPED)
    lam = rep.lambda1.real
    u0 = dirichlet_op8.expand(rep.vector)
    phi = BoundaryData.constant(dirichlet_mesh8, 0.0, 0.1)
    cfg = cfg_for(dirichlet_mesh8, 0.1, 100)
    sol = solve_mild(dirichlet_mesh8, laplace_coeffs(dirichlet_mesh8), u0,
                     phi, cfg)
    fields = stacked(sol)
    for k in (1, 50, 100):
        factor = (1.0 + cfg.dt * lam) ** (-k)
        np.testing.assert_allclose(fields[k], factor * u0, atol=1e-12)
        assert factor == pytest.approx(np.exp(-lam * sol.times[k]),
                                       rel=10 * cfg.dt * lam)


def test_nonnegative_data_stay_nonnegative_vs_dense_oracle(dirichlet_mesh8):
    mesh = dirichlet_mesh8
    coeffs = laplace_coeffs(mesh)
    rng = np.random.default_rng(2)
    u0 = rng.uniform(0.0, 1.0, mesh.n_vertices)
    bv = mesh.boundary_vertices()
    times = np.array([0.0, 0.2])
    phi = BoundaryData(times, np.vstack([u0[bv], rng.uniform(
        0.0, 1.0, len(bv))]), bv)
    cfg = cfg_for(mesh, 0.2, 20)
    sol = solve_mild(mesh, coeffs, u0, phi, cfg)
    fields = stacked(sol)
    assert fields.min() >= 0.0

    # independent dense stepping
    A, _, ML = assemble_volume(mesh, coeffs)
    A = A.toarray()
    interior = sol.interior
    lhs = np.diag(ML[interior]) + cfg.dt * A[np.ix_(interior, interior)]
    u = u0.copy()
    for k in range(1, cfg.n_steps + 1):
        g = phi.at(k * cfg.dt)
        rhs = ML[interior] * u[interior] \
            - cfg.dt * A[np.ix_(interior, bv)] @ g
        u[interior] = np.linalg.solve(lhs, rhs)
        u[bv] = g
        np.testing.assert_allclose(fields[k], u, atol=1e-12)


def test_strong_positivity_from_interior_indicator(dirichlet_mesh8):
    mesh = dirichlet_mesh8
    u0 = np.zeros(mesh.n_vertices)
    interior = np.setdiff1d(np.arange(mesh.n_vertices),
                            mesh.boundary_vertices())
    u0[interior[0]] = 1.0
    phi = BoundaryData.constant(mesh, 0.0, 0.5)
    sol = solve_mild(mesh, laplace_coeffs(mesh), u0, phi,
                     cfg_for(mesh, 0.5, 64))
    verdict, rep = strong_positivity_check(sol)
    assert verdict is Verdict.PASS
    assert rep["start_step"] == 1


def test_strong_positivity_after_boundary_switch_on(dirichlet_mesh8):
    mesh = dirichlet_mesh8
    bv = mesh.boundary_vertices()
    t_end = 0.5
    on_edge = (mesh.vertices[bv][:, 1] == 0.0).astype(float)
    times = np.array([0.0, 0.25, 0.25 + 1e-3, t_end])
    values = np.vstack([0 * on_edge, 0 * on_edge, on_edge, on_edge])
    phi = BoundaryData(times, values, bv)
    sol = solve_mild(mesh, laplace_coeffs(mesh),
                     np.zeros(mesh.n_vertices), phi,
                     cfg_for(mesh, t_end, 64))
    verdict, rep = strong_positivity_check(sol)
    assert verdict is Verdict.PASS
    # phi(0.25) = 0: the first step with data on is the next one
    switch_step = int(np.ceil(0.25 / sol.cfg.dt))
    assert rep["start_step"] == switch_step + 1


def test_strong_positivity_on_a_horizon_shorter_than_the_diameter(
        dirichlet_mesh8):
    # Z^-1 > 0 proves positivity from step 1; the claim once waited for the
    # interior graph diameter (12 steps) and 4 steps were not applicable
    mesh = dirichlet_mesh8
    u0 = np.zeros(mesh.n_vertices)
    u0[np.setdiff1d(np.arange(mesh.n_vertices),
                    mesh.boundary_vertices())[0]] = 1.0
    sol = solve_mild(mesh, laplace_coeffs(mesh), u0,
                     BoundaryData.constant(mesh, 0.0, 1.0),
                     cfg_for(mesh, 0.2 / 32 * 4, 4))
    verdict, rep = strong_positivity_check(sol)
    assert verdict is Verdict.PASS and "underflow" not in rep
    assert rep["start_step"] == 1
    assert stacked(sol)[1:, sol.interior].min() > 0.0


def test_strong_positivity_vacuous_for_zero_data(dirichlet_mesh8):
    mesh = dirichlet_mesh8
    phi = BoundaryData.constant(mesh, 0.0, 0.2)
    sol = solve_mild(mesh, laplace_coeffs(mesh), np.zeros(mesh.n_vertices),
                     phi, cfg_for(mesh, 0.2, 32))
    assert strong_positivity_check(sol)[0] is Verdict.NOT_APPLICABLE


# -- very weak residual ----------------------------------------------------------

def smooth_bump_solution(n, steps, t_end=0.25):
    mesh = generate_structured("unit_square", n, "dirichlet")
    coeffs = laplace_coeffs(mesh)
    x = mesh.vertices[:, 0]
    y = mesh.vertices[:, 1]
    u0 = np.sin(np.pi * x) * np.sin(np.pi * y)
    phi = BoundaryData.constant(mesh, 0.0, t_end)
    sol = solve_mild(mesh, coeffs, u0, phi, cfg_for(mesh, t_end, steps))
    return mesh, sol


def test_constant_solution_has_tiny_residual(dirichlet_mesh8):
    mesh = dirichlet_mesh8
    phi = BoundaryData.constant(mesh, 1.0, 0.2)
    sol = solve_mild(mesh, laplace_coeffs(mesh), np.ones(mesh.n_vertices),
                     phi, cfg_for(mesh, 0.2, 32))
    bank = make_test_bank(mesh, sol.times, size=20, seed=0)
    assert very_weak_residual(sol, bank) <= 1e-12


def test_residual_detects_injected_non_solution():
    mesh, sol = smooth_bump_solution(8, 64)
    bank = make_test_bank(mesh, sol.times, size=20, seed=0)
    base = very_weak_residual(sol, bank)

    # bump one interior node at one interior time
    fields = stacked(sol)
    k = len(sol.times) // 2
    target = int(sol.interior[len(sol.interior) // 2])
    fields[k, target] += 1.0
    broken = replaying(sol, fields)
    jumped = very_weak_residual(broken, bank)
    assert jumped > 10 * base


def test_residual_decreases_under_refinement():
    previous = None
    for n, steps in ((8, 32), (16, 64)):
        mesh, sol = smooth_bump_solution(n, steps)
        bank = make_test_bank(mesh, sol.times, size=20, seed=0)
        r = very_weak_residual(sol, bank)
        if previous is not None:
            assert r <= previous / 2
        previous = r


def test_residual_rejects_nonconforming_test_function(dirichlet_mesh8):
    mesh = dirichlet_mesh8
    phi = BoundaryData.constant(mesh, 0.0, 0.2)
    sol = solve_mild(mesh, laplace_coeffs(mesh), np.zeros(mesh.n_vertices),
                     phi, cfg_for(mesh, 0.2, 16))
    bank = make_test_bank(mesh, sol.times, size=1, seed=0)
    bad_spatial = bank[0].spatial.copy()
    bad_spatial[mesh.boundary_vertices()[0]] = 1.0
    from perronfem.parabolic import SpaceTimeTestFunction
    bad = SpaceTimeTestFunction(spatial=bad_spatial,
                                t_start=bank[0].t_start,
                                t_end=bank[0].t_end)
    with pytest.raises(ParabolicError, match="boundary"):
        very_weak_residual(sol, [bad])


def test_test_bank_is_mesh_independent_and_seeded():
    mesh_a = generate_structured("unit_square", 8, "dirichlet")
    mesh_b = generate_structured("unit_square", 16, "dirichlet")
    times_a = np.linspace(0.0, 0.25, 33)
    times_b = np.linspace(0.0, 0.25, 65)
    bank_a = make_test_bank(mesh_a, times_a, size=5, seed=3)
    bank_b = make_test_bank(mesh_b, times_b, size=5, seed=3)
    for fa, fb in zip(bank_a, bank_b):
        assert fa.t_start == fb.t_start and fa.t_end == fb.t_end
    again = make_test_bank(mesh_a, times_a, size=5, seed=3)
    for fa, fc in zip(bank_a, again):
        assert np.array_equal(fa.spatial, fc.spatial)


# -- uniqueness, causality, comparison -------------------------------------------

def test_identical_runs_are_bitwise_identical(dirichlet_mesh8):
    mesh = dirichlet_mesh8
    x = mesh.vertices[:, 0]
    phi = BoundaryData.constant(mesh, 0.0, 0.2)
    u0 = np.zeros(mesh.n_vertices)
    u0[mesh.vertices[:, 1] ** 2 + x ** 2 < 0.5] = 1.0
    u0[mesh.boundary_vertices()] = 0.0
    a = solve_mild(mesh, laplace_coeffs(mesh), u0, phi,
                   cfg_for(mesh, 0.2, 20))
    b = solve_mild(mesh, laplace_coeffs(mesh), u0, phi,
                   cfg_for(mesh, 0.2, 20))
    assert np.array_equal(stacked(a), stacked(b))


def test_causality_boundary_changes_only_affect_later_times(dirichlet_mesh8):
    mesh = dirichlet_mesh8
    bv = mesh.boundary_vertices()
    t_end = 0.4
    t_star = 0.2
    times = np.array([0.0, t_star, 0.3, t_end])
    v1 = np.vstack([np.zeros(len(bv)), np.zeros(len(bv)),
                    np.zeros(len(bv)), np.zeros(len(bv))])
    v2 = v1.copy()
    v2[2:] = 1.0  # differs only for t > t_star
    u0 = np.zeros(mesh.n_vertices)
    cfg = cfg_for(mesh, t_end, 40)
    a = solve_mild(mesh, laplace_coeffs(mesh), u0,
                   BoundaryData(times, v1, bv), cfg)
    b = solve_mild(mesh, laplace_coeffs(mesh), u0,
                   BoundaryData(times, v2, bv), cfg)
    k_star = int(round(t_star / cfg.dt))
    a, b = stacked(a), stacked(b)
    assert np.array_equal(a[:k_star + 1], b[:k_star + 1])
    assert not np.array_equal(a, b)


def test_comparison_principle(dirichlet_mesh8):
    mesh = dirichlet_mesh8
    rng = np.random.default_rng(9)
    u0_low = rng.uniform(0.0, 1.0, mesh.n_vertices)
    u0_high = u0_low + 0.5
    bv = mesh.boundary_vertices()
    cfg = cfg_for(mesh, 0.2, 20)
    phi_low = BoundaryData(np.array([0.0, 0.2]),
                           np.vstack([u0_low[bv], u0_low[bv]]), bv)
    phi_high = BoundaryData(np.array([0.0, 0.2]),
                            np.vstack([u0_high[bv], u0_high[bv] + 1.0]), bv)
    low = solve_mild(mesh, laplace_coeffs(mesh), u0_low, phi_low, cfg)
    high = solve_mild(mesh, laplace_coeffs(mesh), u0_high, phi_high, cfg)
    assert np.all(stacked(high) - stacked(low) >= -1e-13)


# -- reducible interiors, one assembly per run ---------------------------------

def test_a_disconnected_interior_is_reducible_not_an_error(dirichlet_mesh8,
                                                          monkeypatch):
    import perronfem.parabolic as parabolic
    mesh = dirichlet_mesh8
    A, M, ML = assemble_volume(mesh, laplace_coeffs(mesh))
    interior = np.setdiff1d(np.arange(mesh.n_vertices),
                            mesh.boundary_vertices())
    A = A.tolil()
    A[interior[:10, None], interior[10:]] = 0.0
    A[interior[10:, None], interior[:10]] = 0.0
    # the cut reaches the step matrix solve_mild factorizes and certifies
    monkeypatch.setattr(parabolic, "assemble_volume",
                        lambda *_: (A.tocsr(), M, ML))
    sol = solve_mild(mesh, laplace_coeffs(mesh), np.ones(mesh.n_vertices),
                     BoundaryData.constant(mesh, 1.0, 0.1),
                     cfg_for(mesh, 0.1, 10))
    # the certificate decides: a split interior is reducible, not an error
    verdict, rep = strong_positivity_check(sol)
    assert verdict is Verdict.NOT_APPLICABLE
    assert "reducible" in rep["reason"]


def test_solve_mild_keeps_the_volume_matrices_it_marched_with(
        dirichlet_mesh8):
    mesh = dirichlet_mesh8
    sol = solve_mild(mesh, laplace_coeffs(mesh), np.ones(mesh.n_vertices),
                     BoundaryData.constant(mesh, 1.0, 0.1),
                     cfg_for(mesh, 0.1, 10))
    A, _, ML = assemble_volume(mesh, laplace_coeffs(mesh))
    assert (sol.stiffness != A).nnz == 0
    assert np.array_equal(sol.mass_lumped, ML)


# -- the M-matrix certificate of the strong positivity check ------------------

def _corner_bump_solution(n, dt_factor):
    from perronfem.semigroup import default_dt, default_evolution
    mesh = generate_structured("unit_square", n, "dirichlet")
    x, y = mesh.vertices.T
    u0 = np.where((x <= 0.3) & (y <= 0.3), x * (0.3 - x) * y * (0.3 - y), 0.0)
    cfg = default_evolution(mesh, dt=default_dt(mesh) * dt_factor)
    return solve_mild(mesh, laplace_coeffs(mesh), u0,
                      BoundaryData.constant(mesh, 0.0, cfg.t_end), cfg)


def test_strong_positivity_passes_a_far_corner_bump_at_a_tiny_step():
    # far from the bump the field falls to ~1e-32 of its maximum, which the
    # old relative floor 1e-12 * max|u| called nonpositive at vertex 270
    sol = _corner_bump_solution(16, 0.01)
    verdict, rep = strong_positivity_check(sol)
    assert verdict is Verdict.PASS and "underflow" not in rep
    far = stacked(sol)[rep["start_step"]:, sol.interior]
    assert 0.0 < far.min() < 1e-20 * far.max()


def test_strong_positivity_reads_the_sign_under_the_certificate(
        dirichlet_mesh8):
    sol = solve_mild(dirichlet_mesh8, laplace_coeffs(dirichlet_mesh8),
                     np.ones(dirichlet_mesh8.n_vertices),
                     BoundaryData.constant(dirichlet_mesh8, 1.0, 0.2),
                     cfg_for(dirichlet_mesh8, 0.2, 32))
    assert strong_positivity_check(sol)[0] is Verdict.PASS
    vertex = sol.interior[3]
    for bad, verdict in ((0.0, Verdict.PASS), (-1e-300, Verdict.FAIL)):
        fields = stacked(sol)
        fields[20, vertex] = bad
        got, rep = strong_positivity_check(replaying(sol, fields))
        assert got is verdict
        if verdict is Verdict.PASS:  # a positive value lost to underflow
            assert rep["underflow"]
        else:
            assert rep["first_violation"] == [float(sol.times[20]),
                                              int(vertex)]


def _stacked_sign_scan(sol, start):
    """(first_violation, underflow) of the sign scan as it ran over the
    stacked fields, before the scan took one state at a time."""
    fields = stacked(sol)
    for k in range(start, len(sol.times)):
        inside = fields[k, sol.interior]
        if inside.min() < 0.0:
            return (float(sol.times[k]),
                    int(sol.interior[int(np.argmin(inside))])), False
    block = fields[start:, sol.interior]
    return None, bool(np.any(block.min(axis=1) == 0.0))


@pytest.mark.parametrize("edits", [
    {(20, 3): 0.0},                              # underflow
    {(20, 3): -1e-300},                          # FAIL
    {(5, 7): 0.0, (20, 3): -1e-300},             # underflow, then FAIL
    {(31, 2): -1.0, (12, 9): -1e-300, (12, 4): -2e-300},  # earliest step
    {(0, 5): 0.0},                               # step 0 precedes the claim
    {(0, 5): 0.0, (32, 0): 0.0},
])
def test_row_scan_matches_the_stacked_scan(dirichlet_mesh8, edits):
    sol = solve_mild(dirichlet_mesh8, laplace_coeffs(dirichlet_mesh8),
                     np.ones(dirichlet_mesh8.n_vertices),
                     BoundaryData.constant(dirichlet_mesh8, 1.0, 0.2),
                     cfg_for(dirichlet_mesh8, 0.2, 32))
    fields = stacked(sol)
    for (k, i), value in edits.items():
        fields[k, sol.interior[i]] = value
    edited = replaying(sol, fields)
    verdict, rep = strong_positivity_check(edited)
    violation, underflow = _stacked_sign_scan(edited, rep["start_step"])
    assert rep["start_step"] == 1 \
        and rep["first_violation"] == (violation and list(violation))
    assert verdict is (Verdict.FAIL if violation else Verdict.PASS)
    assert rep.get("underflow", False) == (underflow and violation is None)
    scan = PositivityScan(edited)
    for k, state in enumerate(edited.states()):
        scan.add(k, state)
    assert scan.report() == (verdict, rep)


def test_streamed_checks_match_the_checks_over_fields():
    mesh, sol = smooth_bump_solution(8, 64)
    bank = make_test_bank(mesh, sol.times, size=6, seed=2)
    scan, residual = PositivityScan(sol), WeakResidual(sol, bank)
    for k, state in enumerate(sol.states()):  # a march of its own
        scan.add(k, state)
        residual.add(k, state)
    # the residual as it was summed over the stacked fields
    weights = np.full(len(sol.times), sol.cfg.dt)
    weights[0] = weights[-1] = 0.5 * sol.cfg.dt
    fields = stacked(sol)
    reference = max(abs(float(np.sum(weights * (
        fields @ (sol.mass_lumped * psi.spatial) * psi.dwindow(sol.times)
        - fields @ (sol.stiffness.T.tocsr() @ psi.spatial)
        * psi.window(sol.times))))) for psi in bank)
    assert residual.value() == very_weak_residual(sol, bank) == reference
    assert scan.report() == strong_positivity_check(sol)


@pytest.fixture
def solves(monkeypatch):
    """One entry per interior step solve of the solutions set up after."""
    import perronfem.parabolic
    counted = []
    factorize = perronfem.parabolic.factorize

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            counted.append(1)
            return self.lu.solve(rhs)

    monkeypatch.setattr(perronfem.parabolic, "factorize",
                        lambda matrix: Counted(factorize(matrix)))
    return counted


def test_a_solution_marches_only_when_read(dirichlet_mesh8, solves):
    mesh = dirichlet_mesh8
    sol = solve_mild(mesh, laplace_coeffs(mesh), np.ones(mesh.n_vertices),
                     BoundaryData.constant(mesh, 1.0, 0.1),
                     cfg_for(mesh, 0.1, 10))
    assert np.array_equal(sol.u0, np.ones(mesh.n_vertices)) and not solves
    # replace reads every init field; none of them marches
    stiffness = sol.stiffness.copy()
    changed = dataclasses.replace(sol, stiffness=stiffness)
    assert changed.stiffness is stiffness and not solves
    # each read is a fresh march of 10 solves, never a replay
    first = list(sol.states())
    assert len(solves) == 10
    second = list(changed.states())
    assert len(solves) == 20
    assert np.array_equal(first, second)
    assert not any(a is b for a, b in zip(first[1:], second[1:]))
    assert strong_positivity_check(sol)[0] is Verdict.PASS
    assert len(solves) == 30


def test_writing_into_u0_leaves_later_marches_alone(dirichlet_mesh8):
    mesh = dirichlet_mesh8
    sol = solve_mild(mesh, laplace_coeffs(mesh), np.ones(mesh.n_vertices),
                     BoundaryData.constant(mesh, 1.0, 0.1),
                     cfg_for(mesh, 0.1, 2))
    first = list(sol.states())
    sol.u0[:] = -1.0
    next(sol.states())[:] = -2.0
    second = list(sol.states())
    assert np.array_equal(first, second)
    assert np.array_equal(sol.u0, np.ones(mesh.n_vertices))
    assert not any(a is b for a, b in zip(first, second))


@pytest.mark.parametrize("change, reason", [
    ({"scheme": "crank_nicolson"}, "implicit Euler with lumped mass"),
    ({"mass": MassKind.CONSISTENT}, "implicit Euler with lumped mass"),
    ({"c": (0.5, 0.25)}, "interior step matrix has positive off-diagonal")])
def test_strong_positivity_outside_the_certificate_is_not_applicable(
        dirichlet_mesh8, change, reason):
    mesh = dirichlet_mesh8
    coeffs = CoefficientSet.constant(mesh, c=change.get("c", (0.0, 0.0)))
    cfg = EvolutionConfig(scheme=change.get("scheme", "implicit_euler"),
                          mass=change.get("mass", MassKind.LUMPED),
                          dt=0.2 / 32, t_end=0.2)
    u0 = np.zeros(mesh.n_vertices)
    u0[np.setdiff1d(np.arange(mesh.n_vertices),
                    mesh.boundary_vertices())[0]] = 1.0
    sol = solve_mild(mesh, coeffs, u0, BoundaryData.constant(mesh, 0.0, 1.0),
                     cfg)
    verdict, rep = strong_positivity_check(sol)
    assert verdict is Verdict.NOT_APPLICABLE
    assert reason in rep["reason"]


