import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perronfem.assembly import BoundaryMode, CoefficientSet, assemble, \
    assemble_volume
from perronfem.mesh import _SHAPE_SEGMENTS, BoundaryTag, TriMesh, \
    generate_structured
from perronfem.semigroup import EvolutionConfig, MassKind, Scheme, Verdict, \
    default_dt, evolve, graph_diameter, kernel, kernel_certificate, \
    kernel_positivity_report, positivity_improving_check, \
    propagation_threshold
from perronfem.spectral import perron_pair
from tests.conftest import dense_ie_step


def lumped_cfg(mesh, t_end=0.25, dt=None, scheme=Scheme.IMPLICIT_EULER):
    return EvolutionConfig(scheme=scheme, dt=dt or default_dt(mesh),
                           t_end=t_end, mass=MassKind.LUMPED)


def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        EvolutionConfig(dt=0.5, t_end=0.1)
    assert EvolutionConfig(dt=0.1, t_end=1.0).n_steps == 10


def test_eigenvector_decays_like_scalar_ode(robin_op8):
    # on an eigenvector the implicit Euler recursion is exactly scalar,
    # and the scalar recursion tracks exp(-lambda t) at first order
    rep = perron_pair(robin_op8, 1e-10)
    lam = rep.lambda1.real
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.5, dt=1e-3)
    traj = evolve(robin_op8, rep.vector, cfg)
    for k in (1, len(traj.times) // 2, len(traj.times) - 1):
        t = traj.times[k]
        discrete = (1.0 + cfg.dt * lam) ** (-k)
        np.testing.assert_allclose(traj.states[k], discrete * rep.vector,
                                   rtol=1e-10, atol=1e-14)
        assert discrete == pytest.approx(math.exp(-lam * t),
                                         abs=10 * cfg.dt * lam ** 2 * max(t, cfg.dt))


@pytest.mark.parametrize("scheme", [Scheme.IMPLICIT_EULER,
                                    Scheme.CRANK_NICOLSON])
@pytest.mark.parametrize("mass", [MassKind.LUMPED, MassKind.CONSISTENT])
def test_neumann_mass_conservation(neumann_op8, scheme, mass):
    rng = np.random.default_rng(3)
    u0 = rng.standard_normal(neumann_op8.n_dof)
    cfg = EvolutionConfig(scheme=scheme, dt=0.01, t_end=0.1, mass=mass)
    traj = evolve(neumann_op8, u0, cfg)
    if mass is MassKind.LUMPED:
        weights = neumann_op8.mass_lumped
        masses = traj.states @ weights
    else:
        masses = traj.states @ (neumann_op8.mass @ np.ones(neumann_op8.n_dof))
    np.testing.assert_allclose(masses, masses[0], rtol=1e-12)


def test_zero_initial_state_stays_zero(robin_op8):
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.05)
    traj = evolve(robin_op8, np.zeros(robin_op8.n_dof), cfg)
    assert np.all(traj.states == 0.0)


def test_evolution_matches_dense_oracle(robin_op8):
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.05, dt=0.01)
    step = dense_ie_step(robin_op8, cfg.dt)
    u0 = np.zeros(robin_op8.n_dof)
    u0[0] = 1.0
    traj = evolve(robin_op8, u0, cfg)
    u = u0.copy()
    for k in range(1, cfg.n_steps + 1):
        u = step @ u
        np.testing.assert_allclose(traj.states[k], u, atol=1e-12)


def test_semigroup_property_bitwise(robin_op8):
    dt = 0.01
    full = evolve(robin_op8, np.ones(robin_op8.n_dof),
                  lumped_cfg(robin_op8.mesh, t_end=10 * dt, dt=dt))
    first = evolve(robin_op8, np.ones(robin_op8.n_dof),
                   lumped_cfg(robin_op8.mesh, t_end=4 * dt, dt=dt))
    rest = evolve(robin_op8, first.states[-1],
                  lumped_cfg(robin_op8.mesh, t_end=6 * dt, dt=dt))
    assert np.array_equal(full.states[4], first.states[-1])
    assert np.array_equal(full.states[4:], rest.states)


def test_scaling_invariance_is_bitwise_for_power_of_two(robin_op8):
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.1, dt=0.01)
    u0 = np.zeros(robin_op8.n_dof)
    u0[5] = 1.0
    base = evolve(robin_op8, u0, cfg)
    scaled = evolve(robin_op8, 32.0 * u0, cfg)
    assert np.array_equal(scaled.states, 32.0 * base.states)


# -- positivity improving ------------------------------------------------------

def _suite_problem(op, cfg):
    from perronfem.verification import Problem
    problem = Problem(mesh=op.mesh, coeffs=op.coeffs, mode=op.mode,
                      evolution=cfg)
    problem.op = op  # the cached property, given the assembled operator
    return problem


def _positivity_improving(op, cfg):
    """positivity_improving_check on the columns the suite marches."""
    problem = _suite_problem(op, cfg)
    k = problem.kernel_probes
    return positivity_improving_check(op, problem.certificate,
                                      (k.ends_at_threshold, k.ends))


def test_positivity_improving_robin_corner(robin_op8):
    cfg = EvolutionConfig(dt=1e-3, t_end=0.1, mass=MassKind.LUMPED)
    rep = _positivity_improving(robin_op8, cfg)
    assert rep.verdict is Verdict.PASS
    assert rep.threshold_step == 16
    # the corner vertex and the one across the diagonal carry the indicators
    assert rep.columns == (0, 80)
    assert 0 < rep.min_at_threshold
    assert 0 < rep.min_at_end


def test_positivity_improving_dirichlet_region(dirichlet_op8):
    cfg = lumped_cfg(dirichlet_op8.mesh, t_end=0.25)
    rep = _positivity_improving(dirichlet_op8, cfg)
    assert rep.verdict is Verdict.PASS
    # constrained nodes stay exactly zero along the way
    traj = evolve(dirichlet_op8, np.eye(dirichlet_op8.n_dof)[0], cfg)
    full = dirichlet_op8.expand(traj.states[-1])
    assert np.all(full[dirichlet_op8.constrained_vertices] == 0.0)


def test_one_step_support_reaches_neighbors(robin_op8):
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.25)
    step = dense_ie_step(robin_op8, cfg.dt)
    j = robin_op8.n_dof // 2
    u1 = step @ np.eye(robin_op8.n_dof)[j]
    pattern = robin_op8.stiffness.tocoo()
    neighbors = pattern.col[(pattern.row == j) & (pattern.data != 0)]
    neighbors = neighbors[neighbors != j]
    assert neighbors.size
    assert np.all(u1[neighbors] > 0)


def test_positivity_check_not_applicable_cases(robin_op8):
    cn = EvolutionConfig(scheme=Scheme.CRANK_NICOLSON, dt=1e-3, t_end=0.05,
                         mass=MassKind.LUMPED)
    consistent = EvolutionConfig(dt=1e-3, t_end=0.05,
                                 mass=MassKind.CONSISTENT)
    for cfg in (cn, consistent):
        rep = positivity_improving_check(robin_op8,
                                         kernel_certificate(robin_op8, cfg))
        assert rep.verdict is Verdict.NOT_APPLICABLE
        assert "implicit Euler with lumped mass" in rep.reason


def test_positivity_check_not_applicable_on_obtuse_mesh():
    mesh = TriMesh([(0.0, 0.0), (1.0, 0.0), (0.5, 0.1)], [(0, 1, 2)],
                   [(0, 1), (1, 2), (0, 2)], (BoundaryTag.FLUX,) * 3)
    op = assemble(mesh, CoefficientSet.constant(mesh, beta=1.0),
                  BoundaryMode.ROBIN)
    cfg = EvolutionConfig(dt=0.01, t_end=0.1, mass=MassKind.LUMPED)
    rep = positivity_improving_check(op, kernel_certificate(op, cfg))
    assert rep.verdict is Verdict.NOT_APPLICABLE
    assert "off-diagonal" in rep.reason


def test_positivity_improving_passes_on_a_horizon_below_the_diameter():
    # B^-1 > 0 makes every indicator positive from step 1: 10 steps against
    # a graph diameter of 48 once raised ValueError and reported FAIL
    from perronfem.verification import Problem, run_suite
    mesh = generate_structured("unit_square", 24, "N")
    problem = Problem(mesh=mesh,
                      coeffs=CoefficientSet.constant(mesh, beta=1.0),
                      mode=BoundaryMode.ROBIN,
                      evolution={"t_end": 10 * default_dt(mesh)})
    report = run_suite(problem)
    assert problem.evolution_cfg.n_steps == 10 and not report.failed
    results = {r.label: r for r in report.results}
    for label in ("positivity-improving", "kernel-positivity"):
        assert results[label].verdict is Verdict.PASS
    assert results["positivity-improving"].payload["threshold_step"] == 48


def test_positivity_improving_passes_at_a_small_dt():
    # a relative floor of 1e-12 max|u| once failed here: at dt/100 the far
    # indicator needed 68 steps to clear it, against a threshold of 16
    from perronfem.verification import Problem, run_suite
    mesh = generate_structured("unit_square", 8, "N")
    problem = Problem(mesh=mesh,
                      coeffs=CoefficientSet.constant(mesh, beta=1.0),
                      mode=BoundaryMode.ROBIN,
                      evolution={"dt": default_dt(mesh) / 100})
    (result,) = run_suite(problem, only="positivity-improving").results
    assert result.verdict is Verdict.PASS
    assert result.payload["threshold_step"] == 16
    # indicators stay in [0, 1], so this one is below the old floor
    assert 0 < result.payload["min_at_threshold"] < 1e-12


def test_positivity_check_raises_on_a_nonpositive_indicator(robin_op8):
    from dataclasses import replace
    cfg = lumped_cfg(robin_op8.mesh)
    problem = _suite_problem(robin_op8, cfg)
    k = problem.kernel_probes
    for bad in (-1e-300, math.nan):
        entries = k.ends_at_threshold.entries.copy()
        entries[40, 1] = bad
        with pytest.raises(AssertionError,
                           match="under a holding positivity"):
            positivity_improving_check(
                robin_op8, problem.certificate,
                (replace(k.ends_at_threshold, entries=entries), k.ends))
    # an exact 0.0 is a positive indicator value lost to float underflow
    entries = k.ends_at_threshold.entries.copy()
    entries[40, 1] = 0.0
    rep = positivity_improving_check(
        robin_op8, problem.certificate,
        (replace(k.ends_at_threshold, entries=entries), k.ends))
    assert rep.verdict is Verdict.PASS
    assert rep.min_at_threshold == 0.0 and rep.underflow


def test_suite_marches_the_probe_column_budget(monkeypatch):
    # the peripheral pair rides with the probes to t only; K(t)Z alone goes
    # on to 2t, and the adjoint march carries the probes to t
    import perronfem.semigroup as semigroup
    from perronfem.verification import PROBES, Problem, run_suite
    columns = {"step": [], "step_adjoint": []}
    factorizations = []
    for name in columns:
        solve = getattr(semigroup.Stepper, name)
        monkeypatch.setattr(
            semigroup.Stepper, name, lambda self, u, _s=solve, _n=name:
            columns[_n].append(u.shape[1]) or _s(self, u))
    factorize = semigroup.factorize
    monkeypatch.setattr(semigroup, "factorize",
                        lambda m: factorizations.append(1) or factorize(m))
    mesh = generate_structured("unit_square", 6, "N")
    problem = Problem(mesh=mesh,
                      coeffs=CoefficientSet.constant(mesh, beta=1.0),
                      mode=BoundaryMode.ROBIN)
    report = run_suite(problem)
    assert not report.failed
    n = problem.evolution_cfg.n_steps
    assert (PROBES, n) == (4, 80)
    assert columns == {"step": [2 + 4] * n + [4] * n,
                       "step_adjoint": [4] * n}
    assert len(factorizations) == 1


def test_propagation_threshold_is_grid_diameter(robin_op8):
    # 5-point coupling graph of the n=8 square: anti-diagonal corners
    assert propagation_threshold(robin_op8) == 16


def test_contractivity_under_sup_norm(robin_op8):
    rng = np.random.default_rng(11)
    u0 = rng.uniform(0.0, 2.0, robin_op8.n_dof)
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.25)
    traj = evolve(robin_op8, u0, cfg)
    sups = np.abs(traj.states).max(axis=1)
    assert np.all(np.diff(sups) <= 1e-14)


# -- kernels -------------------------------------------------------------------

def test_kernel_reproduces_evolution(robin_op8):
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.25)
    t = 16 * cfg.dt
    K = kernel(robin_op8, t, cfg)
    rng = np.random.default_rng(5)
    u0 = rng.standard_normal(robin_op8.n_dof)
    traj = evolve(robin_op8, u0, cfg=EvolutionConfig(
        dt=cfg.dt, t_end=t, mass=MassKind.LUMPED))
    applied = K.apply(robin_op8.expand(u0))
    expected = robin_op8.expand(traj.states[-1])
    assert np.abs(applied - expected).max() <= 1e-10 * np.abs(u0).max()


def test_kernel_symmetry_self_adjoint(robin_op8):
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.25)
    K = kernel(robin_op8, 0.1, cfg)
    assert np.abs(K.entries - K.entries.T).max() <= 1e-8


def test_kernel_chapman_kolmogorov(robin_op8):
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.25)
    t = 8 * cfg.dt
    K1 = kernel(robin_op8, t, cfg)
    K2 = kernel(robin_op8, 2 * t, cfg)
    comp = K1.entries @ (K1.lumped_mass_full[:, None] * K1.entries)
    assert np.abs(K2.entries - comp).max() <= 1e-6


def test_kernel_positivity_robin(robin_op8):
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.25)
    K = kernel(robin_op8, 0.1, cfg)
    rep = kernel_positivity_report(K)
    assert rep.verdict is Verdict.PASS
    assert K.entries.min() > 0


def test_kernel_dirichlet_boundary_rows_exactly_zero(dirichlet_op8):
    cfg = lumped_cfg(dirichlet_op8.mesh, t_end=0.25)
    K = kernel(dirichlet_op8, 0.1, cfg)
    rep = kernel_positivity_report(K)
    assert rep.verdict is Verdict.PASS
    assert rep.boundary_rows_zero
    b = dirichlet_op8.constrained_vertices
    assert np.all(K.entries[b, :] == 0.0)
    assert np.all(K.entries[:, b] == 0.0)


def test_kernel_matches_spectral_decomposition_oracle(robin_op8):
    # dense eigendecomposition of the lumped pencil gives the exact
    # rational propagator
    cfg = EvolutionConfig(dt=0.05, t_end=0.25, mass=MassKind.LUMPED)
    k_steps = 5
    K = kernel(robin_op8, k_steps * cfg.dt, cfg)
    A = robin_op8.stiffness.toarray()
    ML = robin_op8.mass_lumped
    import scipy.linalg as sla
    vals, vecs = sla.eigh(A, np.diag(ML))
    D = (1.0 + cfg.dt * vals) ** (-k_steps)
    oracle = (vecs * D) @ vecs.T
    assert np.abs(K.entries - oracle).max() <= 1e-10 * np.abs(oracle).max()


def test_kernel_mixed_mode(mixed_mesh8):
    op = assemble(mixed_mesh8, CoefficientSet.constant(mixed_mesh8),
                  BoundaryMode.MIXED, corkscrew_checked=True)
    cfg = lumped_cfg(mixed_mesh8, t_end=0.25)
    K = kernel(op, 0.125, cfg)
    rep = kernel_positivity_report(K)
    assert rep.verdict is Verdict.PASS
    pinned = mixed_mesh8.dirichlet_vertices()
    assert np.all(K.entries[pinned, :] == 0.0)
    assert np.all(K.entries[:, pinned] == 0.0)


def test_kernel_apply_matches_matrix_product(dirichlet_op8):
    cfg = lumped_cfg(dirichlet_op8.mesh, t_end=0.25)
    K = kernel(dirichlet_op8, 0.1, cfg)
    rng = np.random.default_rng(8)
    u_full = rng.standard_normal(dirichlet_op8.mesh.n_vertices)
    np.testing.assert_allclose(
        K.apply(u_full), K.entries @ (K.lumped_mass_full * u_full))


def test_neumann_kernel_rank_one_limit(neumann_op8):
    cfg = EvolutionConfig(dt=0.25, t_end=50.0, mass=MassKind.LUMPED)
    K = kernel(neumann_op8, 50.0, cfg)
    assert np.abs(K.entries - 1.0).max() <= 0.01  # 1 / |Omega| with |Omega|=1


# -- block march against per-column reference marches ---------------------------

def _reference_step(op, cfg):
    """Independent sparse step, factorized the way a column march needs."""
    import scipy.sparse as sp
    from perronfem.spectral import factorize
    M = sp.diags(op.mass_lumped).tocsr() if cfg.mass is MassKind.LUMPED \
        else op.mass
    theta = 1.0 if cfg.scheme is Scheme.IMPLICIT_EULER else 0.5
    lu = factorize(M + theta * cfg.dt * op.stiffness)
    rhs = (M - (1.0 - theta) * cfg.dt * op.stiffness).tocsr() \
        if theta < 1.0 else M.tocsr()
    return lambda u: lu.solve(rhs @ u)


def _reference_kernel(op, n_steps, cfg):
    """Kernel entries from one march per unit point mass."""
    step = _reference_step(op, cfg)
    nv = op.mesh.n_vertices
    entries = np.zeros((nv, nv), dtype=complex if op.is_complex else float)
    for dof, vertex in enumerate(op.free_vertices):
        u = np.zeros(op.n_dof, dtype=entries.dtype)
        u[dof] = 1.0 / op.mass_lumped[dof]
        for _ in range(n_steps):
            u = step(u)
        entries[op.free_vertices, vertex] = u
    return entries


def _small_op(case):
    from perronfem import generate_structured
    if case == "dirichlet":
        mesh = generate_structured("unit_square", 5, "dirichlet")
        return assemble(mesh, CoefficientSet.constant(mesh),
                        BoundaryMode.DIRICHLET)
    mesh = generate_structured("unit_square", 6, "flux")
    if case == "complex_robin":
        return assemble(mesh, CoefficientSet.constant(mesh, beta=1.0 + 0.5j),
                        BoundaryMode.COMPLEX_ROBIN)
    return assemble(mesh, CoefficientSet.constant(mesh, beta=1.5),
                    BoundaryMode.ROBIN)


@pytest.mark.parametrize("case,scheme,mass", [
    ("robin", Scheme.IMPLICIT_EULER, MassKind.LUMPED),
    ("dirichlet", Scheme.IMPLICIT_EULER, MassKind.LUMPED),
    ("complex_robin", Scheme.IMPLICIT_EULER, MassKind.LUMPED),
    ("robin", Scheme.CRANK_NICOLSON, MassKind.LUMPED),
    ("robin", Scheme.IMPLICIT_EULER, MassKind.CONSISTENT),
])
def test_block_kernel_equals_column_marches(case, scheme, mass):
    op = _small_op(case)
    cfg = EvolutionConfig(scheme=scheme, dt=default_dt(op.mesh), t_end=1.0,
                          mass=mass)
    K = kernel(op, 12 * cfg.dt, cfg)
    assert np.array_equal(K.entries, _reference_kernel(op, 12, cfg))
    assert K.entries.dtype == (complex if case == "complex_robin" else float)
    b = op.constrained_vertices
    if case == "dirichlet":
        assert b.size
    assert np.all(K.entries[b, :] == 0.0)
    assert np.all(K.entries[:, b] == 0.0)


def test_kernel_time_tuple_equals_separate_calls(robin_op8):
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.25)
    t = 7 * cfg.dt
    K1, K2 = kernel(robin_op8, (t, 2 * t), cfg)
    for K, single in ((K1, kernel(robin_op8, t, cfg)),
                      (K2, kernel(robin_op8, 2 * t, cfg))):
        assert K.t == single.t
        assert np.array_equal(K.entries, single.entries)
    assert K2.t == 2 * K1.t
    # times come back in the order given
    late, early = kernel(robin_op8, (2 * t, t), cfg)
    assert np.array_equal(late.entries, K2.entries)
    assert np.array_equal(early.entries, K1.entries)


def test_kernel_and_trials_share_one_factorization(monkeypatch):
    import scipy.sparse.linalg as spla
    factorizations = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu",
                        lambda A, **kw: factorizations.append(A)
                        or splu(A, **kw))
    op = _small_op("robin")
    cfg = lumped_cfg(op.mesh, t_end=40 * default_dt(op.mesh))
    kernel(op, (cfg.t_end, 2 * cfg.t_end), cfg)
    _positivity_improving(op, cfg)  # the indicators march with the probes
    evolve(op, np.ones(op.n_dof), cfg)
    assert len(factorizations) == 1
    # another dt is another step matrix
    kernel(op, cfg.t_end, EvolutionConfig(dt=cfg.dt / 2, t_end=cfg.t_end,
                                          mass=MassKind.LUMPED))
    assert len(factorizations) == 2


# -- graph diameter against an all-pairs reference -------------------------------

def _all_pairs_diameter(matrix):
    """Reference: all-pairs BFS over the nonzero off-diagonal pattern, as
    (diameter, distances); None when the graph is disconnected."""
    from scipy.sparse.csgraph import shortest_path
    dense = matrix.toarray()
    adjacency = (dense != 0) | (dense.T != 0)
    np.fill_diagonal(adjacency, False)
    dist = shortest_path(adjacency.astype(float), unweighted=True,
                         directed=False)
    return None if np.isinf(dist).any() else (int(dist.max()), dist)


def _assert_diameter_and_pair(matrix):
    """graph_diameter's diameter equals the reference, and its peripheral
    pair lies that far apart."""
    expected, dist = _all_pairs_diameter(matrix)
    diameter, (u, v) = graph_diameter(matrix, RuntimeError("split"))
    assert diameter == expected
    assert dist[u, v] == diameter


def _mixed_tags(shape):
    return {seg: "D" if seg == "bottom" else "N"
            for seg in _SHAPE_SEGMENTS[shape]}


@pytest.mark.parametrize("shape", ["unit_square", "rectangle", "l_shape"])
@pytest.mark.parametrize("tags", ["D", "N", "mixed"])
@pytest.mark.parametrize("n", [1, 5, 12])
def test_graph_diameter_matches_all_pairs_on_meshes(shape, tags, n):
    mesh = generate_structured(shape, n,
                               _mixed_tags(shape) if tags == "mixed" else tags,
                               width=1.5, height=0.5)
    mode = {"D": BoundaryMode.DIRICHLET, "N": BoundaryMode.ROBIN,
            "mixed": BoundaryMode.MIXED}[tags]
    interior = np.setdiff1d(np.arange(mesh.n_vertices),
                            mesh.boundary_vertices())
    # the Laplacian leaves the diagonal couplings at zero; the anisotropic
    # tensor makes them nonzero
    for a in (np.eye(2), np.array([[2.0, 0.5], [0.5, 1.0]])):
        coeffs = CoefficientSet.constant(mesh, a=a, beta=1.0, mu=0.5)
        A, _, _ = assemble_volume(mesh, coeffs)
        blocks = [A[interior][:, interior]] if interior.size else []
        if mode is not BoundaryMode.DIRICHLET or interior.size:  # free dofs
            blocks.append(assemble(mesh, coeffs, mode,
                                   corkscrew_checked=True).stiffness)
        for block in blocks:
            _assert_diameter_and_pair(block)


def test_graph_diameter_of_an_empty_graph_is_an_error():
    with pytest.raises(ValueError, match="no diameter"):
        graph_diameter(sp.csr_matrix((0, 0)), RuntimeError("split"))


@st.composite
def _sparse_patterns(draw):
    n = draw(st.integers(1, 24))
    entries = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                      st.integers(0, n - 1),
                                      st.sampled_from([0.0, -1.0, 2.5])),
                            max_size=3 * n, unique_by=lambda e: e[:2]))
    rows, cols, data = (list(x) for x in zip(*entries)) if entries \
        else ([], [], [])
    fmt = draw(st.sampled_from(["coo", "csr", "csc"]))
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).asformat(fmt)


@settings(max_examples=300, deadline=None)
@given(_sparse_patterns())
@example(sp.csr_matrix(np.array([[3.0]])))
@example(sp.coo_matrix(([-1.0, 0.0], ([0, 1], [1, 2])), shape=(3, 3)))
def test_graph_diameter_matches_all_pairs_on_sparse_patterns(matrix):
    # stored zeros and one-sided (asymmetric) storage included; the second
    # example is disconnected only through its stored zero
    if _all_pairs_diameter(matrix) is None:
        with pytest.raises(RuntimeError, match="split"):
            graph_diameter(matrix, RuntimeError("split"))
    else:
        _assert_diameter_and_pair(matrix)


@pytest.mark.parametrize("shape,n", [("unit_square", 64), ("l_shape", 32)])
def test_graph_diameter_takes_a_handful_of_sweeps(monkeypatch, shape, n):
    import perronfem.semigroup as semigroup
    sweeps = []
    bfs = semigroup.dijkstra
    monkeypatch.setattr(semigroup, "dijkstra",
                        lambda *a, **kw: sweeps.append(1) or bfs(*a, **kw))
    mesh = generate_structured(shape, n, "dirichlet")
    A, _, _ = assemble_volume(mesh, CoefficientSet.constant(mesh))
    interior = np.setdiff1d(np.arange(mesh.n_vertices),
                            mesh.boundary_vertices())
    diameter, _ = semigroup.graph_diameter(A[interior][:, interior],
                                           RuntimeError("split"))
    # 5-point coupling graph of the interior grid: opposite corners
    assert diameter == (2 * n if shape == "unit_square" else 4 * n) - 4
    assert len(sweeps) <= 10


def test_propagation_threshold_memory_is_linear():
    import tracemalloc
    mesh = generate_structured("unit_square", 128, "flux")
    op = assemble(mesh, CoefficientSet.constant(mesh, beta=1.0),
                  BoundaryMode.ROBIN)
    tracemalloc.start()
    try:
        threshold = propagation_threshold(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert threshold == 256
    # an all-pairs distance matrix would take 16,641^2 * 8 B = 2.2 GB
    assert peak < 32 * 2 ** 20


# -- structural certificate, probe columns and the adjoint march ------------------

ANISO = np.array([[1.0, 0.3], [0.3, 1.0]])


def _certificate_case(case, n):
    """Operators of the differential tests, each at subdivision n."""
    if case in ("mixed_square", "mixed_lshape"):
        shape = "unit_square" if case == "mixed_square" else "l_shape"
        mesh = generate_structured(shape, n, _mixed_tags(shape))
        return assemble(mesh, CoefficientSet.constant(mesh),
                        BoundaryMode.MIXED, corkscrew_checked=True)
    mesh = generate_structured("unit_square", n,
                               "D" if case == "dirichlet" else "N")
    mode, kwargs = {
        "robin": (BoundaryMode.ROBIN, {"beta": 1.5}),
        "dirichlet": (BoundaryMode.DIRICHLET, {}),
        "neumann": (BoundaryMode.NEUMANN, {}),
        # the anisotropic tensor keeps the convective stiffness M-compatible
        "convective_robin": (BoundaryMode.ROBIN,
                             {"beta": 1.0, "a": ANISO, "b": (1.0, 1.0),
                              "mu": 0.4}),
    }[case]
    return assemble(mesh, CoefficientSet.constant(mesh, **kwargs), mode)


CERTIFICATE_CASES = ("robin", "dirichlet", "neumann", "mixed_square",
                     "mixed_lshape", "convective_robin")


def _dense_symmetry_verdict(K):
    """The dense kernel-symmetry check the probe check replaces."""
    dev = float(np.abs(K.entries - K.entries.T).max())
    return dev <= 1e-8 * max(1.0, float(np.abs(K.entries).max()))


def _dense_composition_verdict(K1, K2):
    """The dense chapman-kolmogorov check the probe check replaces."""
    comp = K1.entries @ (K1.lumped_mass_full[:, None] * K1.entries)
    dev = float(np.abs(K2.entries - comp).max())
    return dev <= 1e-6 * max(1.0, float(np.abs(K2.entries).max()))


@pytest.mark.parametrize("n", [6, 12])
@pytest.mark.parametrize("case", CERTIFICATE_CASES)
def test_certificate_and_probe_checks_agree_with_the_dense_kernel(case, n):
    from perronfem.verification import Problem, run_suite
    op = _certificate_case(case, n)
    problem = Problem(mesh=op.mesh, coeffs=op.coeffs, mode=op.mode)
    problem.op = op  # the cached property, given the assembled operator
    cfg = problem.evolution_cfg
    K1, K2 = kernel(op, (cfg.t_end, 2 * cfg.n_steps * cfg.dt), cfg)
    certificate = kernel_certificate(op, cfg)
    assert certificate.holds and certificate.min_row_sum > 0
    free = op.free_vertices
    assert K1.entries[np.ix_(free, free)].min() > 0

    verdicts = {r.label: r.verdict for r in run_suite(problem).results}
    assert verdicts["kernel-positivity"] is Verdict.PASS
    assert verdicts["chapman-kolmogorov"] is (
        Verdict.PASS if _dense_composition_verdict(K1, K2) else Verdict.FAIL)
    if op.is_hermitian:
        assert verdicts["kernel-symmetry"] is (
            Verdict.PASS if _dense_symmetry_verdict(K1) else Verdict.FAIL)
    else:
        assert verdicts["kernel-symmetry"] is Verdict.NOT_APPLICABLE


@pytest.mark.parametrize("b,scheme,mass,reason", [
    ((0.0, 0.0), Scheme.IMPLICIT_EULER, MassKind.CONSISTENT,
     "implicit Euler with lumped mass"),
    ((0.0, 0.0), Scheme.CRANK_NICOLSON, MassKind.LUMPED,
     "implicit Euler with lumped mass"),
    ((1.0, 0.0), Scheme.IMPLICIT_EULER, MassKind.LUMPED,
     "positive off-diagonal entries")])
def test_probe_checks_agree_with_the_dense_kernel_outside_the_certificate(
        b, scheme, mass, reason):
    from perronfem.verification import Problem, run_suite
    mesh = generate_structured("unit_square", 6, "N")
    op = assemble(mesh, CoefficientSet.constant(mesh, beta=1.0, b=b),
                  BoundaryMode.ROBIN)
    cfg = EvolutionConfig(scheme=scheme, mass=mass, dt=default_dt(mesh),
                          t_end=20 * default_dt(mesh))
    problem = Problem(mesh=mesh, coeffs=op.coeffs, mode=op.mode,
                      evolution=cfg)
    K1, K2 = kernel(op, (cfg.t_end, 2 * cfg.t_end), cfg)
    results = {r.label: r for r in run_suite(problem).results}
    assert results["kernel-positivity"].verdict is Verdict.NOT_APPLICABLE
    assert reason in results["kernel-positivity"].payload["reason"]
    if mass is MassKind.CONSISTENT:
        # S^n M_L^-1 with S built on the consistent mass is not symmetric
        assert results["kernel-symmetry"].verdict is Verdict.NOT_APPLICABLE
        assert "lumped mass" in results["kernel-symmetry"].payload["reason"]
    elif op.is_hermitian:
        assert results["kernel-symmetry"].verdict is (
            Verdict.PASS if _dense_symmetry_verdict(K1) else Verdict.FAIL)
    assert results["chapman-kolmogorov"].verdict is (
        Verdict.PASS if _dense_composition_verdict(K1, K2) else Verdict.FAIL)


def test_probe_columns_are_the_dense_kernel_columns():
    for case in ("robin", "mixed_lshape", "convective_robin"):
        op = _certificate_case(case, 6)
        cfg = lumped_cfg(op.mesh, t_end=30 * default_dt(op.mesh))
        t = 9 * cfg.dt
        dense = kernel(op, t, cfg)
        free = op.free_vertices
        dofs = np.array([0, op.n_dof - 1, op.n_dof // 2])
        block = np.zeros((op.n_dof, 3))
        block[dofs, [0, 1, 2]] = 1.0
        # point-mass columns come out bitwise as in the dense march
        assert np.array_equal(kernel(op, t, cfg, block),
                              dense.entries[np.ix_(free, free[dofs])])
        # the adjoint march gives the transposed kernel's columns
        adjoint = kernel(op, t, cfg, block, adjoint=True)
        reference = dense.entries[np.ix_(free, free)].T[:, dofs]
        assert np.abs(adjoint - reference).max() \
            <= 1e-12 * np.abs(reference).max()


def test_a_resumed_march_is_bitwise_one_march(robin_op8):
    cfg = lumped_cfg(robin_op8.mesh)
    block = np.random.default_rng(1).standard_normal((robin_op8.n_dof, 3))
    K1, K2 = kernel(robin_op8, (cfg.t_end, 2 * cfg.n_steps * cfg.dt), cfg,
                    block)
    # the last two columns alone go on from K(t) to 2t
    assert np.array_equal(kernel(robin_op8, cfg.t_end, cfg, K1[:, 1:],
                                 resume=True), K2[:, 1:])


def _probed_problem(monkeypatch, op, probes, seed):
    """A suite problem on op whose kernel checks read ``probes`` columns
    drawn with ``seed``, marched at once."""
    import perronfem.verification as verification
    monkeypatch.setattr(verification, "PROBES", probes)
    monkeypatch.setattr(verification, "PROBE_SEED", seed)
    problem = _suite_problem(op, None)
    problem.kernel_probes  # noqa: B018 -- march while the patch holds
    return problem


def _verdict_with(problem, check, **fields):
    """The check's verdict on the marched probe block with ``fields``
    replaced, then the block restored."""
    from dataclasses import replace
    marched = problem.kernel_probes
    problem.kernel_probes = replace(marched, **fields)
    try:
        return check(problem)[0]
    finally:
        problem.kernel_probes = marched


def test_four_probes_catch_every_defect_sixteen_catch(monkeypatch):
    # mutation sweep: an antisymmetric defect eps (e_i e_j^T - e_j e_i^T)
    # added to K(t) in the marched block must fail kernel-symmetry, and a
    # defect eps e_i e_j^T added to K(2t) must fail chapman-kolmogorov,
    # each at 10x the 16-probe check's scaled tolerance
    import perronfem.verification as verification
    op = _certificate_case("robin", 6)
    locations = [(0, 1), (0, op.n_dof - 1), (10, 30), (24, 25), (7, 7)]
    for seed in range(3):
        with monkeypatch.context() as patch:
            blocks = {probes: _probed_problem(patch, op, probes, seed)
                      for probes in (16, 4)}
        k16 = blocks[16].kernel_probes
        eps_sym = 10 * verification.SYMMETRY_TOL * max(
            1.0, float(np.abs(k16.probes.T @ k16.forward).max()))
        eps_ck = 10 * verification.COMPOSITION_TOL * max(
            1.0, float(np.abs(k16.probes.T @ k16.forward_2t).max()))
        caught = {}
        for probes, problem in blocks.items():
            k = problem.kernel_probes
            assert _verdict_with(problem, verification._check_kernel_symmetry
                                 ) is Verdict.PASS
            assert _verdict_with(
                problem, verification._check_chapman_kolmogorov
            ) is Verdict.PASS
            for i, j in locations:
                antisymmetric = np.zeros_like(k.probes)
                antisymmetric[i] += eps_sym * k.probes[j]
                antisymmetric[j] -= eps_sym * k.probes[i]
                composition = np.zeros_like(k.probes)
                composition[i] += eps_ck * k.probes[j]
                caught[probes, i, j] = (
                    i != j and _verdict_with(
                        problem, verification._check_kernel_symmetry,
                        forward=k.forward + antisymmetric) is Verdict.FAIL,
                    _verdict_with(
                        problem, verification._check_chapman_kolmogorov,
                        forward_2t=k.forward_2t + composition)
                    is Verdict.FAIL)
        for i, j in locations:
            assert caught[4, i, j] == caught[16, i, j] == (i != j, True)


@pytest.mark.parametrize("case, reason", [
    ("convective_robin", "positive off-diagonal"),
    ("crank_nicolson", "implicit Euler"),
    ("consistent_mass", "implicit Euler"),
    ("complex_robin", "complex operator"),
    ("indefinite", "row sum <= 0"),
    ("one_way_chain", "reducible"),
])
def test_kernel_certificate_names_the_unmet_hypothesis(case, reason):
    from dataclasses import replace
    op = _small_op("complex_robin" if case == "complex_robin" else "robin")
    cfg = lumped_cfg(op.mesh)
    mesh = generate_structured("unit_square", 4, "N")
    if case == "convective_robin":
        op = assemble(mesh, CoefficientSet.constant(mesh, beta=1.0,
                                                    b=(1.0, 0.0)),
                      BoundaryMode.ROBIN)
    elif case == "crank_nicolson":
        cfg = replace(cfg, scheme=Scheme.CRANK_NICOLSON)
    elif case == "consistent_mass":
        cfg = replace(cfg, mass=MassKind.CONSISTENT)
    elif case == "indefinite":
        # an irreducible Z-matrix step with a negative eigenvalue: no
        # w > 0 has B*w > 0, so B^-1*1 cannot be positive either
        n = op.n_dof
        op = replace(op, stiffness=sp.diags(
            [np.full(n, 2.0), np.full(n - 1, -3.0), np.full(n - 1, -3.0)],
            [0, 1, -1]).tocsr())
        cfg = EvolutionConfig(dt=1.0, t_end=1.0, mass=MassKind.LUMPED)
    elif case == "one_way_chain":
        # couplings i -> i + 1 only: connected as an undirected graph, but
        # no dof reaches a lower one
        n = op.n_dof
        op = replace(op, stiffness=sp.diags(
            [np.full(n, 2.0), np.full(n - 1, -1.0)], [0, 1]).tocsr())
    certificate = kernel_certificate(op, cfg)
    assert not certificate.holds
    assert reason in certificate.reason
    # positivity-improving gives the certificate's reason, with no march
    rep = positivity_improving_check(op, certificate)
    assert rep.verdict is Verdict.NOT_APPLICABLE
    assert rep.reason == certificate.reason


def test_certificate_takes_the_inverse_row_sum_witness_at_an_inflow():
    # an M-compatible stiffness whose inflow rows sum to a negative value;
    # dt = 0.1 lets them outweigh the lumped mass, so B*1 > 0 fails while
    # w = B^-1*1 > 0 with B*w > 0 still makes B a nonsingular M-matrix
    from perronfem.semigroup import step_matrices
    from perronfem.verification import Problem, run_suite
    mesh = generate_structured("unit_square", 4, "N")
    coeffs = CoefficientSet.constant(mesh, a=np.array([[1.0, 0.3],
                                                       [0.3, 0.6]]),
                                     mu=0.4, b=(1.0, 1.0))
    op = assemble(mesh, coeffs, BoundaryMode.NEUMANN)
    cfg = EvolutionConfig(dt=0.1, t_end=0.8, mass=MassKind.LUMPED)
    certificate = kernel_certificate(op, cfg)
    assert certificate.holds
    assert certificate.min_row_sum == pytest.approx(-4.2e-3, abs=1e-4)
    B, _ = step_matrices(op.stiffness, sp.diags(op.mass_lumped),
                         cfg.scheme, cfg.dt)
    w = np.linalg.solve(B.toarray(), np.ones(op.n_dof))
    assert w.min() == pytest.approx(18.7, abs=0.1)
    K = kernel(op, cfg.t_end, cfg)
    assert K.entries.min() > 0
    assert kernel_positivity_report(K).verdict is Verdict.PASS
    problem = Problem(mesh=mesh, coeffs=coeffs, mode=BoundaryMode.NEUMANN,
                      evolution={"dt": 0.1})
    verdicts = {r.label: r.verdict for r in run_suite(problem).results}
    assert verdicts["kernel-positivity"] is Verdict.PASS
    assert verdicts["positivity-improving"] is Verdict.PASS


def test_kernel_report_raises_on_a_nonpositive_entry_under_the_certificate():
    from dataclasses import replace
    op = _small_op("robin")
    cfg = lumped_cfg(op.mesh)
    K = kernel(op, 4 * cfg.dt, cfg)
    assert K.certificate.holds
    for bad in (-1e-300, math.nan):
        entries = K.entries.copy()
        entries[3, 5] = bad
        with pytest.raises(AssertionError, match="not positive"):
            kernel_positivity_report(replace(K, entries=entries))
    # an exact 0.0 is a positive entry lost to float underflow
    entries = K.entries.copy()
    entries[3, 5] = 0.0
    rep = kernel_positivity_report(replace(K, entries=entries))
    assert rep.verdict is Verdict.PASS
    assert rep.min_entry == 0.0 and rep.underflow
    assert not kernel_positivity_report(K).underflow


def _tiny_case(shape="unit_square", mode="robin", width=1.0, s=0.0, b=0.0,
               c0=0.0, beta=1.0, split=False, dt=0.1):
    """An operator with at most six dofs and a lumped implicit-Euler
    config; ``split`` cuts dof 0 off from the others, so the stiffness is
    reducible."""
    from dataclasses import replace
    if shape == "l_shape" and mode != "mixed":
        shape = "unit_square"
    tags = {seg: "D" if seg in ("bottom", "right") else "N"
            for seg in _SHAPE_SEGMENTS[shape]} if mode == "mixed" else "N"
    mesh = generate_structured(shape, 1, tags, width=width, height=1.0)
    # mixed mode takes no lower-order terms, Neumann no boundary term
    lower = mode != "mixed"
    coeffs = CoefficientSet.constant(
        mesh, a=np.array([[1.0, s], [s, 1.0]]), mu=0.5,
        b=(b if lower else 0.0, 0.0), c0=c0 if lower else 0.0,
        beta=beta if mode == "robin" else 0.0)
    op = assemble(mesh, coeffs, BoundaryMode(mode), corkscrew_checked=True)
    if split and op.n_dof > 1:
        A = op.stiffness.tolil()
        A[0, 1:] = 0.0
        A[1:, 0] = 0.0
        op = replace(op, stiffness=A.tocsr())
    return op, EvolutionConfig(dt=dt, t_end=3 * dt, mass=MassKind.LUMPED)


@st.composite
def _tiny_operators(draw):
    """Operators with at most six dofs over tiny meshes, modes and
    coefficients, some with a reducible stiffness."""
    return _tiny_case(
        shape=draw(st.sampled_from(["unit_square", "rectangle", "l_shape"])),
        mode=draw(st.sampled_from(["robin", "neumann", "mixed"])),
        width=draw(st.sampled_from([1.0, 2.0])),
        s=draw(st.sampled_from([0.0, 0.3, -0.3])),
        b=draw(st.sampled_from([0.0, 0.5, 2.0])),
        c0=draw(st.sampled_from([0.0, 1.0])),
        beta=draw(st.sampled_from([0.0, 1.0])),
        split=draw(st.booleans()),
        dt=draw(st.sampled_from([0.01, 0.1, 1.0])))


#: one draw per side of the certificates: convection past the sign
#: pattern, a reducible stiffness, and a holding certificate
TINY_SIDES = (_tiny_case(b=2.0), _tiny_case(split=True), _tiny_case())


def _tiny_sides(test):
    for case in TINY_SIDES:
        test = example(case)(test)
    return test


@settings(max_examples=60, deadline=None)
@_tiny_sides
@given(_tiny_operators())
def test_certificate_implies_the_lattice_oracle_on_tiny_meshes(case):
    from perronfem import lattice
    from perronfem.verification import Problem, run_suite
    op, cfg = case
    assert op.n_dof <= 6
    certificate = kernel_certificate(op, cfg)
    # positivity-improving passes exactly when the certificate holds
    problem = Problem(mesh=op.mesh, coeffs=op.coeffs, mode=op.mode,
                      evolution={"dt": cfg.dt})
    problem.op = op
    (result,) = run_suite(problem, only="positivity-improving").results
    assert result.verdict is (Verdict.PASS if certificate.holds
                              else Verdict.NOT_APPLICABLE)
    if not certificate.holds:
        assert result.payload["reason"] == certificate.reason
        return
    Q = -op.stiffness.toarray() / op.mass_lumped[:, None]
    g = lattice.MetzlerGenerator(Q)
    assert lattice.is_irreducible(g)
    assert lattice.positivity_improving_equiv(g)
    K = kernel(op, cfg.t_end, cfg)
    free = op.free_vertices
    assert K.entries[np.ix_(free, free)].min() > 0
    assert kernel_positivity_report(K).verdict is Verdict.PASS


@settings(max_examples=60, deadline=None)
@_tiny_sides
@given(_tiny_operators())
def test_principal_verdicts_match_the_lattice_perron_vector_on_tiny_meshes(
        case):
    # -Q = M_L^-1 A is the lumped pencil, so the lattice's Perron vector is
    # an independent dense route to the sign both checks judge
    from perronfem import lattice
    from perronfem.assembly import mmatrix_certificate
    from perronfem.spectral import REGION_FOR_MODE, region_vertices
    from perronfem.verification import Problem, run_suite
    op, cfg = case
    assert op.n_dof <= 6
    problem = Problem(mesh=op.mesh, coeffs=op.coeffs, mode=op.mode,
                      evolution={"dt": cfg.dt})
    problem.op = op
    results = {label: run_suite(problem, only=label).results[0]
               for label in ("principal-positivity", "perron-sign-structure")}
    principal = results["principal-positivity"]
    sign = results["perron-sign-structure"]
    # no float floor decides a verdict: outside the certificate both
    # checks are not applicable, inside it neither fails
    assert Verdict.FAIL not in (principal.verdict, sign.verdict)
    Q = -op.stiffness.toarray() / op.mass_lumped[:, None]
    certificate = mmatrix_certificate(op.stiffness, "stiffness")
    if not certificate.irreducible:
        assert sign.verdict is Verdict.NOT_APPLICABLE
        assert principal.verdict is Verdict.NOT_APPLICABLE
        assert sign.payload["reason"] == certificate.reason
        if "positive off-diagonal" in certificate.reason:
            # Q is no generator
            with pytest.raises(lattice.LatticeError):
                lattice.MetzlerGenerator(Q)
        else:
            assert "strong components" in certificate.reason
            assert not lattice.is_irreducible(lattice.MetzlerGenerator(Q))
        return
    # a holding certificate: the lattice's Perron vector is positive on
    # the region, and so the Hermitian operators' principal vectors
    g = lattice.MetzlerGenerator(Q)
    assert lattice.is_irreducible(g)
    region = op.dof_map[region_vertices(op, REGION_FOR_MODE[op.mode])]
    assert np.all(lattice.perron_report(g).vector[region] > 0)
    assert sign.verdict is Verdict.PASS
    assert principal.verdict is (Verdict.PASS if op.is_hermitian
                                 else Verdict.NOT_APPLICABLE)


def test_verify_builds_no_dense_kernel():
    import tracemalloc
    from perronfem.verification import Problem, run_suite
    mesh = generate_structured("unit_square", 32, "N")
    problem = Problem(mesh=mesh, coeffs=CoefficientSet.constant(mesh,
                                                                beta=1.0),
                      mode=BoundaryMode.ROBIN)
    n_dof = problem.op.n_dof
    tracemalloc.start()
    try:
        report = run_suite(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not report.failed
    # one n_dof x n_dof float64 array would take 1,089^2 * 8 B = 9.5 MB
    assert peak < n_dof ** 2 * 8 / 4
