import json
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
    default_dt, default_evolution, kernel, kernel_certificate, \
    kernel_positivity_report, march, peripheral_pair, \
    positivity_improving_check
from perronfem.spectral import principal_eig
from tests.conftest import MIXED_TAGS, dense_ie_step, dense_kernel


def lumped_cfg(mesh, t_end=0.25, dt=None, scheme=Scheme.IMPLICIT_EULER):
    return EvolutionConfig(scheme=scheme, dt=dt or default_dt(mesh),
                           t_end=t_end, mass=MassKind.LUMPED)


def stacked(op, u0, cfg):
    """The states u(0), ..., u(n_steps) of one march, as one array: the
    reference the streamed march is checked against."""
    return np.array([u0, *march(op, cfg, u0, cfg.n_steps)])


def _dense_report(op, cfg, K):
    """kernel_positivity_report on the dense kernel K, every dof a column."""
    return kernel_positivity_report(op, kernel_certificate(op, cfg),
                                    np.arange(op.n_dof), K)


def _kernel_dump(tmp_path, config, t):
    """kernel_report.json and the entries of kernel.bin that ``perronfem
    kernel --t t`` writes for ``config``."""
    from perronfem.cli import main, read_kernel_dump
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({**config, "output_dir": "out"}),
                    encoding="utf-8")
    assert main(["kernel", "--config", str(path), "--t", repr(t)]) == 0
    report = json.loads((tmp_path / "out" / "kernel_report.json")
                        .read_text())
    return report, read_kernel_dump(tmp_path / "out" / "kernel.bin")[1]


def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        EvolutionConfig(dt=0.5, t_end=0.1)
    assert EvolutionConfig(dt=0.1, t_end=1.0).n_steps == 10
    # default_evolution is the one default horizon
    with pytest.raises(TypeError):
        EvolutionConfig()
    with pytest.raises(TypeError):
        EvolutionConfig(dt=0.1)


def test_eigenvector_decays_like_scalar_ode(robin_op8):
    # on an eigenvector the implicit Euler recursion is exactly scalar,
    # and the scalar recursion tracks exp(-lambda t) at first order
    rep = principal_eig(robin_op8, 1e-10, k=1, mass=MassKind.LUMPED)
    lam = rep.lambda1.real
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.5, dt=1e-3)
    states = stacked(robin_op8, rep.vector, cfg)
    for k in (1, len(states) // 2, len(states) - 1):
        t = k * cfg.dt
        discrete = (1.0 + cfg.dt * lam) ** (-k)
        np.testing.assert_allclose(states[k], discrete * rep.vector,
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
    states = stacked(neumann_op8, u0, cfg)
    if mass is MassKind.LUMPED:
        weights = neumann_op8.mass_lumped
        masses = states @ weights
    else:
        masses = states @ (neumann_op8.mass @ np.ones(neumann_op8.n_dof))
    np.testing.assert_allclose(masses, masses[0], rtol=1e-12)


def test_zero_initial_state_stays_zero(robin_op8):
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.05)
    assert np.all(stacked(robin_op8, np.zeros(robin_op8.n_dof), cfg) == 0.0)


def test_evolution_matches_dense_oracle(robin_op8):
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.05, dt=0.01)
    step = dense_ie_step(robin_op8, cfg.dt)
    u0 = np.zeros(robin_op8.n_dof)
    u0[0] = 1.0
    states = stacked(robin_op8, u0, cfg)
    u = u0.copy()
    for k in range(1, cfg.n_steps + 1):
        u = step @ u
        np.testing.assert_allclose(states[k], u, atol=1e-12)


def test_semigroup_property_bitwise(robin_op8):
    dt = 0.01
    full = stacked(robin_op8, np.ones(robin_op8.n_dof),
                   lumped_cfg(robin_op8.mesh, t_end=10 * dt, dt=dt))
    first = stacked(robin_op8, np.ones(robin_op8.n_dof),
                    lumped_cfg(robin_op8.mesh, t_end=4 * dt, dt=dt))
    rest = stacked(robin_op8, first[-1],
                   lumped_cfg(robin_op8.mesh, t_end=6 * dt, dt=dt))
    assert np.array_equal(full[4], first[-1])
    assert np.array_equal(full[4:], rest)


def test_scaling_invariance_is_bitwise_for_power_of_two(robin_op8):
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.1, dt=0.01)
    u0 = np.zeros(robin_op8.n_dof)
    u0[5] = 1.0
    base = stacked(robin_op8, u0, cfg)
    scaled = stacked(robin_op8, 32.0 * u0, cfg)
    assert np.array_equal(scaled, 32.0 * base)


# -- positivity improving ------------------------------------------------------

def _positivity_improving(op, cfg):
    """positivity_improving_check on the columns the suite marches."""
    from perronfem.verification import kernel_probes
    k = kernel_probes(op, cfg)
    return positivity_improving_check(
        op, kernel_certificate(op, cfg), k.columns,
        (k.ends_at_first_step, k.ends))


def test_positivity_improving_robin_corner(robin_op8):
    cfg = EvolutionConfig(dt=1e-3, t_end=0.1, mass=MassKind.LUMPED)
    verdict, rep = _positivity_improving(robin_op8, cfg)
    assert verdict is Verdict.PASS
    # the corner vertex and the one across the diagonal carry the indicators
    assert rep["trials"] == 2 and robin_op8.free_vertices[
        list(peripheral_pair(robin_op8))].tolist() == [0, 80]
    assert 0 < rep["min_at_first_step"]
    assert 0 < rep["worst_min_at_end"]


def test_positivity_improving_dirichlet_region(dirichlet_op8):
    cfg = lumped_cfg(dirichlet_op8.mesh, t_end=0.25)
    verdict, _ = _positivity_improving(dirichlet_op8, cfg)
    assert verdict is Verdict.PASS
    # constrained nodes stay exactly zero along the way
    *_, last = march(dirichlet_op8, cfg, np.eye(dirichlet_op8.n_dof)[0],
                     cfg.n_steps)
    full = dirichlet_op8.expand(last)
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
        verdict, rep = positivity_improving_check(
            robin_op8, kernel_certificate(robin_op8, cfg))
        assert verdict is Verdict.NOT_APPLICABLE
        assert "implicit Euler with lumped mass" in rep["reason"]


def test_positivity_check_not_applicable_on_obtuse_mesh():
    mesh = TriMesh([(0.0, 0.0), (1.0, 0.0), (0.5, 0.1)], [(0, 1, 2)],
                   [(0, 1), (1, 2), (0, 2)], (BoundaryTag.FLUX,) * 3)
    op = assemble(mesh, CoefficientSet.constant(mesh, beta=1.0),
                  BoundaryMode.ROBIN)
    cfg = EvolutionConfig(dt=0.01, t_end=0.1, mass=MassKind.LUMPED)
    verdict, rep = positivity_improving_check(op, kernel_certificate(op, cfg))
    assert verdict is Verdict.NOT_APPLICABLE
    assert "off-diagonal" in rep["reason"]


def test_positivity_improving_passes_on_a_horizon_below_the_diameter():
    # B^-1 > 0 makes every indicator positive from step 1: 10 steps against
    # a graph diameter of 48 once raised ValueError and reported FAIL
    from perronfem.verification import Problem, run_suite
    mesh = generate_structured("unit_square", 24, "N")
    problem = Problem(mesh=mesh,
                      coeffs=CoefficientSet.constant(mesh, beta=1.0),
                      mode=BoundaryMode.ROBIN,
                      evolution=default_evolution(
                          mesh, t_end=10 * default_dt(mesh)))
    report = run_suite(problem)
    assert problem.evolution_cfg.n_steps == 10 and not report.failed
    results = {r.label: r for r in report.results}
    for label in ("positivity-improving", "kernel-positivity"):
        assert results[label].verdict is Verdict.PASS


def test_positivity_improving_passes_at_a_small_dt():
    # a relative floor of 1e-12 max|u| once failed here: at dt/100 the far
    # indicator needed 68 steps to clear it, against a graph diameter of 16
    from perronfem.verification import Problem, run_suite
    mesh = generate_structured("unit_square", 8, "N")
    problem = Problem(mesh=mesh,
                      coeffs=CoefficientSet.constant(mesh, beta=1.0),
                      mode=BoundaryMode.ROBIN,
                      evolution=default_evolution(
                          mesh, dt=default_dt(mesh) / 100))
    (result,) = run_suite(problem, only="positivity-improving").results
    assert result.verdict is Verdict.PASS
    # indicators stay in [0, 1], so this one is below the old floor
    assert 0 < result.payload["min_at_first_step"] < 1e-12


def test_positivity_check_raises_on_a_nonpositive_indicator(robin_op8):
    from perronfem.verification import kernel_probes
    cfg = lumped_cfg(robin_op8.mesh)
    k = kernel_probes(robin_op8, cfg)
    certificate = kernel_certificate(robin_op8, cfg)
    for bad in (-1e-300, math.nan):
        first = k.ends_at_first_step.copy()
        first[40, 1] = bad
        with pytest.raises(AssertionError,
                           match="under a holding positivity"):
            positivity_improving_check(robin_op8, certificate,
                                       k.columns, (first, k.ends))
    # an exact 0.0 is a positive indicator value lost to float underflow
    first = k.ends_at_first_step.copy()
    first[40, 1] = 0.0
    verdict, rep = positivity_improving_check(
        robin_op8, certificate, k.columns, (first, k.ends))
    assert verdict is Verdict.PASS
    assert rep["min_at_first_step"] == 0.0 and rep["underflow"]


def test_suite_marches_the_probe_column_budget(monkeypatch):
    # the peripheral pair rides with the probes to t, also on a horizon
    # below the graph diameter (12 here), with snapshots at step 1 and
    # t1 = floor(n / 2) steps; the adjoint march carries the probes over
    # the other n - n1 steps: two kernel calls
    import perronfem.semigroup as semigroup
    import perronfem.verification as verification
    from perronfem.verification import PROBES, Problem, run_suite
    # block columns per solve through the step factor: trans "N" steps
    # forward, "T" steps the adjoint
    columns = {"N": [], "T": []}
    factorizations = []
    calls = []
    kernel_ = verification.kernel
    monkeypatch.setattr(verification, "kernel", lambda *a, **kw:
                        calls.append(1) or kernel_(*a, **kw))

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs, trans="N"):
            columns[trans].append(rhs.shape[1])
            return self.lu.solve(rhs, trans=trans)

    factorize = semigroup.factorize
    monkeypatch.setattr(semigroup, "factorize", lambda m:
                        factorizations.append(1) or Counted(factorize(m)))
    mesh = generate_structured("unit_square", 6, "N")
    assert PROBES == 4
    for t_end, n in ((None, 80), (5 * default_dt(mesh), 5)):
        for marched in columns.values():
            marched.clear()
        factorizations.clear()
        calls.clear()
        problem = Problem(mesh=mesh,
                          coeffs=CoefficientSet.constant(mesh, beta=1.0),
                          mode=BoundaryMode.ROBIN,
                          evolution=default_evolution(mesh, t_end=t_end))
        report = run_suite(problem)
        assert not report.failed
        assert problem.evolution_cfg.n_steps == n
        assert columns == {"N": [2 + 4] * n, "T": [4] * (n - n // 2)}
        assert len(factorizations) == 1 and len(calls) == 2


def test_kernel_positivity_outside_the_certificate_marches_nothing(
        monkeypatch):
    # Crank-Nicolson has no positivity certificate: kernel-positivity alone
    # is not applicable before any probe is marched
    import perronfem.verification as verification
    from perronfem.verification import Problem, run_suite
    calls = []
    kernel_ = verification.kernel
    monkeypatch.setattr(verification, "kernel", lambda *a, **kw:
                        calls.append(1) or kernel_(*a, **kw))
    mesh = generate_structured("unit_square", 6, "N")
    problem = Problem(
        mesh=mesh, coeffs=CoefficientSet.constant(mesh, beta=1.0),
        mode=BoundaryMode.ROBIN,
        evolution=default_evolution(mesh, scheme=Scheme.CRANK_NICOLSON))
    (result,) = run_suite(problem, only="kernel-positivity").results
    assert result.verdict is Verdict.NOT_APPLICABLE
    assert result.payload == {"reason": "positivity certificates need "
                                        "implicit Euler with lumped mass"}
    assert calls == []


def test_contractivity_under_sup_norm(robin_op8):
    rng = np.random.default_rng(11)
    u0 = rng.uniform(0.0, 2.0, robin_op8.n_dof)
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.25)
    sups = np.abs(stacked(robin_op8, u0, cfg)).max(axis=1)
    assert np.all(np.diff(sups) <= 1e-14)


# -- kernels -------------------------------------------------------------------

def test_kernel_reproduces_evolution(robin_op8):
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.25)
    t = 16 * cfg.dt
    K = dense_kernel(robin_op8, t, cfg)
    rng = np.random.default_rng(5)
    u0 = rng.standard_normal(robin_op8.n_dof)
    *_, last = march(robin_op8, cfg, u0, 16)
    applied = K @ (robin_op8.mass_lumped * u0)
    assert np.abs(applied - last).max() <= 1e-10 * np.abs(u0).max()


def test_kernel_symmetry_self_adjoint(robin_op8):
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.25)
    K = dense_kernel(robin_op8, 0.1, cfg)
    assert np.abs(K - K.T).max() <= 1e-8


def test_kernel_chapman_kolmogorov(robin_op8):
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.25)
    t = 8 * cfg.dt
    K1 = dense_kernel(robin_op8, t, cfg)
    K2 = dense_kernel(robin_op8, 2 * t, cfg)
    comp = K1 @ (robin_op8.mass_lumped[:, None] * K1)
    assert np.abs(K2 - comp).max() <= 1e-6


def test_kernel_positivity_robin(robin_op8):
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.25)
    K = dense_kernel(robin_op8, 0.1, cfg)
    verdict, _ = _dense_report(robin_op8, cfg, K)
    assert verdict is Verdict.PASS
    assert K.min() > 0


def test_kernel_dirichlet_boundary_rows_exactly_zero(tmp_path, capsys,
                                                     dirichlet_op8):
    # the command's dump spreads K(t) onto every vertex: the eliminated
    # boundary vertices' rows and columns are exact zeros
    cfg = lumped_cfg(dirichlet_op8.mesh, t_end=0.25)
    K = dense_kernel(dirichlet_op8, 0.1, cfg)
    assert _dense_report(dirichlet_op8, cfg, K)[0] is Verdict.PASS
    report, entries = _kernel_dump(tmp_path, {
        "mesh": {"shape": "unit_square", "n": 8, "tags": "dirichlet"},
        "coefficients": {"mode": "dirichlet"},
        "evolution": {"dt": cfg.dt, "t_end": cfg.t_end}}, 0.1)
    assert report["verdict"] == "pass"
    b, free = dirichlet_op8.constrained_vertices, dirichlet_op8.free_vertices
    assert b.size
    assert np.all(entries[b, :] == 0.0)
    assert np.all(entries[:, b] == 0.0)
    assert np.array_equal(entries[np.ix_(free, free)], K)
    capsys.readouterr()


def test_kernel_matches_spectral_decomposition_oracle(robin_op8):
    # dense eigendecomposition of the lumped pencil gives the exact
    # rational propagator
    cfg = EvolutionConfig(dt=0.05, t_end=0.25, mass=MassKind.LUMPED)
    k_steps = 5
    K = dense_kernel(robin_op8, k_steps * cfg.dt, cfg)
    A = robin_op8.stiffness.toarray()
    ML = robin_op8.mass_lumped
    import scipy.linalg as sla
    vals, vecs = sla.eigh(A, np.diag(ML))
    D = (1.0 + cfg.dt * vals) ** (-k_steps)
    oracle = (vecs * D) @ vecs.T
    assert np.abs(K - oracle).max() <= 1e-10 * np.abs(oracle).max()


def test_kernel_mixed_mode(tmp_path, capsys, mixed_mesh8):
    op = assemble(mixed_mesh8, CoefficientSet.constant(mixed_mesh8),
                  BoundaryMode.MIXED, corkscrew_checked=True)
    cfg = lumped_cfg(mixed_mesh8, t_end=0.25)
    K = dense_kernel(op, 0.125, cfg)
    verdict, rep = _dense_report(op, cfg, K)
    assert verdict is Verdict.PASS
    # the command's dump: the Dirichlet vertices' rows and columns are
    # exact zeros
    report, entries = _kernel_dump(tmp_path, {
        "mesh": {"shape": "unit_square", "n": 8, "tags": MIXED_TAGS},
        "coefficients": {"mode": "mixed"},
        "evolution": {"dt": cfg.dt, "t_end": cfg.t_end}}, 0.125)
    assert report["verdict"] == "pass"
    assert report["witness"] == rep["witness"]
    pinned = mixed_mesh8.dirichlet_vertices()
    assert pinned.size
    assert np.all(entries[pinned, :] == 0.0)
    assert np.all(entries[:, pinned] == 0.0)
    assert np.array_equal(entries[np.ix_(op.free_vertices, op.free_vertices)],
                          K)
    capsys.readouterr()


def test_neumann_kernel_rank_one_limit(neumann_op8):
    cfg = EvolutionConfig(dt=0.25, t_end=50.0, mass=MassKind.LUMPED)
    K = dense_kernel(neumann_op8, 50.0, cfg)
    assert np.abs(K - 1.0).max() <= 0.01  # 1 / |Omega| with |Omega|=1


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
    entries = np.zeros((op.n_dof, op.n_dof),
                       dtype=complex if op.is_complex else float)
    for dof in range(op.n_dof):
        u = np.zeros(op.n_dof, dtype=entries.dtype)
        u[dof] = 1.0 / op.mass_lumped[dof]
        for _ in range(n_steps):
            u = step(u)
        entries[:, dof] = u
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
def test_block_kernel_equals_column_marches(tmp_path, capsys, case, scheme,
                                           mass):
    op = _small_op(case)
    cfg = EvolutionConfig(scheme=scheme, dt=default_dt(op.mesh), t_end=1.0,
                          mass=mass)
    K = dense_kernel(op, 12 * cfg.dt, cfg)
    reference = _reference_kernel(op, 12, cfg)
    assert np.array_equal(K, reference)
    assert K.dtype == (complex if case == "complex_robin" else float)
    if case == "dirichlet":
        # the command's dump spreads the same entries onto every vertex,
        # with exact zeros at the eliminated boundary vertices
        _, entries = _kernel_dump(tmp_path, {
            "mesh": {"shape": "unit_square", "n": 5, "tags": "dirichlet"},
            "coefficients": {"mode": "dirichlet"},
            "evolution": {"dt": cfg.dt, "t_end": cfg.t_end}}, 12 * cfg.dt)
        b, free = op.constrained_vertices, op.free_vertices
        assert b.size
        assert np.all(entries[b, :] == 0.0)
        assert np.all(entries[:, b] == 0.0)
        assert np.array_equal(entries[np.ix_(free, free)], reference)
        capsys.readouterr()


def test_kernel_time_tuple_equals_separate_calls(robin_op8):
    cfg = lumped_cfg(robin_op8.mesh, t_end=0.25)
    t = 7 * cfg.dt
    block = np.random.default_rng(3).standard_normal((robin_op8.n_dof, 3))
    for adjoint in (False, True):
        K1, K2 = kernel(robin_op8, (t, 2 * t), cfg, block, adjoint)
        for K, ti in ((K1, t), (K2, 2 * t)):
            assert np.array_equal(
                K, kernel(robin_op8, ti, cfg, block, adjoint))
        # times come back in the order given
        late, early = kernel(robin_op8, (2 * t, t), cfg, block, adjoint)
        assert np.array_equal(late, K2)
        assert np.array_equal(early, K1)


def test_kernel_and_trials_share_one_factorization(monkeypatch):
    import scipy.sparse.linalg as spla
    factorizations = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu",
                        lambda A, **kw: factorizations.append(A)
                        or splu(A, **kw))
    op = _small_op("robin")
    cfg = lumped_cfg(op.mesh, t_end=40 * default_dt(op.mesh))
    dense_kernel(op, (cfg.t_end, 2 * cfg.t_end), cfg)
    _positivity_improving(op, cfg)  # the indicators march with the probes
    list(march(op, cfg, np.ones(op.n_dof), cfg.n_steps))
    assert len(factorizations) == 1
    # another dt is another step matrix
    dense_kernel(op, cfg.t_end, EvolutionConfig(
        dt=cfg.dt / 2, t_end=cfg.t_end, mass=MassKind.LUMPED))
    assert len(factorizations) == 2


# -- probe pair against an all-pairs reference -----------------------------------

def _all_pairs_diameter(matrix):
    """Reference: all-pairs BFS over the nonzero off-diagonal pattern of
    a connected graph, as (diameter, distances)."""
    from scipy.sparse.csgraph import shortest_path
    dense = matrix.toarray()
    adjacency = (dense != 0) | (dense.T != 0)
    np.fill_diagonal(adjacency, False)
    dist = shortest_path(adjacency.astype(float), unweighted=True,
                         directed=False)
    return int(dist.max()), dist


def _mixed_tags(shape):
    return {seg: "D" if seg == "bottom" else "N"
            for seg in _SHAPE_SEGMENTS[shape]}


def _mesh_case_ops(shape, tags, n):
    """The operators of one mesh case: the Laplacian, whose diagonal
    couplings are zero, and an anisotropic tensor, which makes them
    nonzero; none when no dof is free."""
    mesh = generate_structured(shape, n,
                               _mixed_tags(shape) if tags == "mixed" else tags,
                               width=1.5, height=0.5)
    mode = {"D": BoundaryMode.DIRICHLET, "N": BoundaryMode.ROBIN,
            "mixed": BoundaryMode.MIXED}[tags]
    if mode is BoundaryMode.DIRICHLET and n == 1:
        return []
    return [assemble(mesh, CoefficientSet.constant(mesh, a=a, beta=1.0,
                                                   mu=0.5),
                     mode, corkscrew_checked=True)
            for a in (np.eye(2), np.array([[2.0, 0.5], [0.5, 1.0]]))]


def _pinned_op(shape, n, tags, mode, beta=0.0):
    mesh = generate_structured(shape, n, tags)
    return [assemble(mesh, CoefficientSet.constant(mesh, beta=beta), mode,
                     corkscrew_checked=True)]


@pytest.mark.parametrize("ops, exact", [
    *(pytest.param(lambda c=(shape, tags, n): _mesh_case_ops(*c), False,
                   id=f"{n}-{tags}-{shape}")
      for n in (1, 5, 12) for tags in ("D", "N", "mixed")
      for shape in ("unit_square", "rectangle", "l_shape")),
    # the meshes of the pinned reports, whose probe columns the pair picks
    pytest.param(lambda: _pinned_op("unit_square", 6, "N",
                                    BoundaryMode.ROBIN, 1.5), True,
                 id="robin6"),
    pytest.param(lambda: _pinned_op("unit_square", 24, "N",
                                    BoundaryMode.ROBIN, 1.0), True,
                 id="robin24"),
    pytest.param(lambda: _pinned_op("unit_square", 6, "D",
                                    BoundaryMode.DIRICHLET), True,
                 id="dirichlet6"),
    pytest.param(lambda: _pinned_op("l_shape", 4, _mixed_tags("l_shape"),
                                    BoundaryMode.MIXED), True, id="lshape4"),
    pytest.param(lambda: _pinned_op("unit_square", 2, "D",
                                    BoundaryMode.DIRICHLET), True,
                 id="one-dof"),
])
def test_peripheral_pair_against_all_pairs(ops, exact):
    # the sweeps stop when the eccentricity stops growing, so the pair is
    # at least half the diameter apart on any connected graph; the Robin
    # L-shapes with the Laplacian stop at 3/4 of it
    for op in ops():
        pair = peripheral_pair(op)
        if op.n_dof == 1:
            assert pair == (0,)
            continue
        diameter, dist = _all_pairs_diameter(op.stiffness)
        u, v = pair
        assert u < v
        assert dist[u, v] == diameter if exact \
            else 2 * dist[u, v] >= diameter


# -- structural certificate, probe columns and the adjoint march ------------------

ANISO = np.array([[1.0, 0.3], [0.3, 1.0]])


def _certificate_case(case, n):
    """Suite problems of the differential tests, each at subdivision n,
    their operators assembled."""
    from perronfem.verification import Problem
    if case in ("mixed_square", "mixed_lshape"):
        shape = "unit_square" if case == "mixed_square" else "l_shape"
        mesh = generate_structured(shape, n, _mixed_tags(shape))
        mode, kwargs = BoundaryMode.MIXED, {}
    else:
        mesh = generate_structured("unit_square", n,
                                   "D" if case == "dirichlet" else "N")
        mode, kwargs = {
            "robin": (BoundaryMode.ROBIN, {"beta": 1.5}),
            "dirichlet": (BoundaryMode.DIRICHLET, {}),
            "neumann": (BoundaryMode.NEUMANN, {}),
            # the anisotropic tensor keeps the convective stiffness
            # M-compatible
            "convective_robin": (BoundaryMode.ROBIN,
                                 {"beta": 1.0, "a": ANISO, "b": (1.0, 1.0),
                                  "mu": 0.4}),
        }[case]
    coeffs = CoefficientSet.constant(mesh, **kwargs)
    problem = Problem(mesh=mesh, coeffs=coeffs, mode=mode)
    # the cached property, given the assembled operator
    problem.op = assemble(mesh, coeffs, mode, corkscrew_checked=True)
    return problem


CERTIFICATE_CASES = ("robin", "dirichlet", "neumann", "mixed_square",
                     "mixed_lshape", "convective_robin")


def _dense_symmetry_verdict(K):
    """The dense kernel-symmetry check the probe check replaces."""
    dev = float(np.abs(K - K.T).max())
    return dev <= 1e-8 * float(np.abs(K).max())


def _split_kernels(op, cfg):
    """Dense K(t), K(t1) and K(t2) from one march, t1 at floor(n / 2) of
    the n steps to t and t2 = t - t1."""
    n1 = cfg.n_steps // 2
    return dense_kernel(
        op, (cfg.t_end, n1 * cfg.dt, (cfg.n_steps - n1) * cfg.dt), cfg)


def _dense_composition_verdict(op, K, K1, K2):
    """The dense chapman-kolmogorov check the probe check replaces:
    K(t) against K(t2) M_L K(t1)."""
    comp = K2 @ (op.mass_lumped[:, None] * K1)
    dev = float(np.abs(K - comp).max())
    return dev <= 1e-6 * float(np.abs(K).max())


@pytest.mark.parametrize("n", [6, 12])
@pytest.mark.parametrize("case", CERTIFICATE_CASES)
def test_certificate_and_probe_checks_agree_with_the_dense_kernel(case, n):
    from perronfem.verification import run_suite
    problem = _certificate_case(case, n)
    op, cfg = problem.op, problem.evolution_cfg
    K, K1, K2 = _split_kernels(op, cfg)
    certificate = kernel_certificate(op, cfg)
    assert certificate.holds and certificate.min_row_sum > 0
    assert K.min() > 0

    verdicts = {r.label: r.verdict for r in run_suite(problem).results}
    assert verdicts["kernel-positivity"] is Verdict.PASS
    assert verdicts["chapman-kolmogorov"] is (
        Verdict.PASS if _dense_composition_verdict(op, K, K1, K2)
        else Verdict.FAIL)
    if op.is_hermitian:
        assert verdicts["kernel-symmetry"] is (
            Verdict.PASS if _dense_symmetry_verdict(K) else Verdict.FAIL)
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
    coeffs = CoefficientSet.constant(mesh, beta=1.0, b=b)
    op = assemble(mesh, coeffs, BoundaryMode.ROBIN)
    cfg = EvolutionConfig(scheme=scheme, mass=mass, dt=default_dt(mesh),
                          t_end=20 * default_dt(mesh))
    problem = Problem(mesh=mesh, coeffs=coeffs, mode=op.mode, evolution=cfg)
    K, K1, K2 = _split_kernels(op, cfg)
    results = {r.label: r for r in run_suite(problem).results}
    assert results["kernel-positivity"].verdict is Verdict.NOT_APPLICABLE
    assert reason in results["kernel-positivity"].payload["reason"]
    if mass is MassKind.CONSISTENT:
        # S^n M_L^-1 with S built on the consistent mass is not symmetric
        assert results["kernel-symmetry"].verdict is Verdict.NOT_APPLICABLE
        assert "lumped mass" in results["kernel-symmetry"].payload["reason"]
    elif op.is_hermitian:
        assert results["kernel-symmetry"].verdict is (
            Verdict.PASS if _dense_symmetry_verdict(K) else Verdict.FAIL)
    assert results["chapman-kolmogorov"].verdict is (
        Verdict.PASS if _dense_composition_verdict(op, K, K1, K2)
        else Verdict.FAIL)


def test_probe_columns_are_the_dense_kernel_columns():
    for case in ("robin", "mixed_lshape", "convective_robin"):
        op = _certificate_case(case, 6).op
        cfg = lumped_cfg(op.mesh, t_end=30 * default_dt(op.mesh))
        t = 9 * cfg.dt
        dense = dense_kernel(op, t, cfg)
        dofs = np.array([0, op.n_dof - 1, op.n_dof // 2])
        block = np.zeros((op.n_dof, 3))
        block[dofs, [0, 1, 2]] = 1.0
        # point-mass columns come out bitwise as in the dense march
        assert np.array_equal(kernel(op, t, cfg, block), dense[:, dofs])
        # the adjoint march gives the transposed kernel's columns
        adjoint = kernel(op, t, cfg, block, adjoint=True)
        reference = dense.T[:, dofs]
        assert np.abs(adjoint - reference).max() \
            <= 1e-12 * np.abs(reference).max()


def _probes(problem):
    from perronfem.verification import kernel_probes
    return kernel_probes(problem.op, problem.evolution_cfg)


def _probed_problem(monkeypatch, problem, probes, seed):
    """The suite problem with its kernel checks reading ``probes`` columns
    drawn with ``seed``, marched at once into its operator's cache, so the
    operator must be marched for no other probe block."""
    import perronfem.verification as verification
    monkeypatch.setattr(verification, "PROBES", probes)
    monkeypatch.setattr(verification, "PROBE_SEED", seed)
    _probes(problem)  # march while the patch holds
    return problem


def _verdict_with(problem, check, **fields):
    """The check's verdict on the marched probe block with ``fields``
    replaced; the cached block is left as it is."""
    import perronfem.verification as verification
    marched = _probes(problem)._replace(**fields)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verification, "kernel_probes", lambda op, cfg: marched)
        return check(problem)[0]


def test_four_probes_catch_every_defect_sixteen_catch(monkeypatch):
    # mutation sweep: an antisymmetric defect eps (e_i e_j^T - e_j e_i^T)
    # added to K(t) in the marched block must fail kernel-symmetry, and a
    # defect eps e_i e_j^T added to K(t), the marched side of the split
    # t = t1 + t2, must fail chapman-kolmogorov, each at 10x the 16-probe
    # check's scaled tolerance
    import perronfem.verification as verification
    op = _certificate_case("robin", 6).op
    locations = [(0, 1), (0, op.n_dof - 1), (10, 30), (24, 25), (7, 7)]
    for seed in range(3):
        with monkeypatch.context() as patch:
            # one operator per probe block: each caches its own march
            blocks = {probes: _probed_problem(
                patch, _certificate_case("robin", 6), probes, seed)
                for probes in (16, 4)}
        k16 = _probes(blocks[16])
        scale = float(np.abs(k16.probes.T @ k16.forward).max())
        eps_sym = 10 * verification.SYMMETRY_TOL * scale
        eps_ck = 10 * verification.COMPOSITION_TOL * scale
        caught = {}
        for probes, problem in blocks.items():
            k = _probes(problem)
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
                        forward=k.forward + composition)
                    is Verdict.FAIL)
        for i, j in locations:
            assert caught[4, i, j] == caught[16, i, j] == (i != j, True)


def test_kernel_identity_checks_scale_with_a_decayed_kernel():
    # on the Dirichlet n = 6 square Z^T K(t) Z is about 3.4e-7: a tolerance
    # floored at 1 would pass a 1e-3 relative antisymmetric defect, and a
    # marched side set to zero
    import perronfem.verification as verification
    from perronfem.verification import Problem
    mesh = generate_structured("unit_square", 6, "D")
    problem = Problem(mesh=mesh, coeffs=CoefficientSet.constant(mesh),
                      mode=BoundaryMode.DIRICHLET)
    k = _probes(problem)
    scale = float(np.abs(k.probes.T @ k.forward).max())
    assert scale < 1e-6
    antisymmetric = np.zeros_like(k.probes)
    antisymmetric[0] += 1e-3 * scale * k.probes[1]
    antisymmetric[1] -= 1e-3 * scale * k.probes[0]
    for check in (verification._check_kernel_symmetry,
                  verification._check_chapman_kolmogorov):
        verdict, payload = check(problem)
        assert verdict is Verdict.PASS and "underflow" not in payload
    assert _verdict_with(problem, verification._check_kernel_symmetry,
                         forward=k.forward + antisymmetric) is Verdict.FAIL
    assert _verdict_with(problem, verification._check_chapman_kolmogorov,
                         forward=np.zeros_like(k.forward)) is Verdict.FAIL


def test_kernel_identity_checks_pass_a_kernel_decayed_into_subnormals():
    # at t = 41.5 on the Dirichlet n = 6 square Z^T K(t) Z is subnormal and
    # both deviations are a few hundred subnormal steps: float round-off
    # that no relative tolerance resolves
    import perronfem.verification as verification
    from perronfem.verification import Problem
    mesh = generate_structured("unit_square", 6, "D")
    problem = Problem(mesh=mesh, coeffs=CoefficientSet.constant(mesh),
                      mode=BoundaryMode.DIRICHLET,
                      evolution=EvolutionConfig(dt=0.01, t_end=41.5))
    k = _probes(problem)
    assert 0 < np.abs(k.probes.T @ k.forward).max() < np.finfo(float).tiny
    for check in (verification._check_kernel_symmetry,
                  verification._check_chapman_kolmogorov):
        verdict, payload = check(problem)
        assert verdict is Verdict.PASS and payload["underflow"] is True
        assert 0 < max(payload.get("max_asymmetry", 0),
                       payload.get("max_deviation", 0)) < 1e-320


def test_kernel_identity_checks_flag_a_sampled_block_of_zeros():
    # a = 1e8 I and beta = 1e8 on the Robin n = 16 square: Z^T K(t) Z is
    # all zeros, so both deviations are exactly 0.0 and compare nothing;
    # the verdict stays PASS, as for the sign checks, with the flag
    import perronfem.verification as verification
    from perronfem.verification import Problem
    mesh = generate_structured("unit_square", 16, "N")
    coeffs = CoefficientSet.constant(mesh, a=[[1e8, 0.0], [0.0, 1e8]],
                                     beta=1e8)
    problem = Problem(mesh=mesh, coeffs=coeffs, mode=BoundaryMode.ROBIN)
    k = _probes(problem)
    assert not np.any(k.probes.T @ k.forward)
    for check, key in ((verification._check_kernel_symmetry,
                        "max_asymmetry"),
                       (verification._check_chapman_kolmogorov,
                        "max_deviation")):
        verdict, payload = check(problem)
        assert verdict is Verdict.PASS and payload[key] == 0.0
        assert payload["underflow"] is True


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
    verdict, rep = positivity_improving_check(op, certificate)
    assert verdict is Verdict.NOT_APPLICABLE
    assert rep["reason"] == certificate.reason


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
    K = dense_kernel(op, cfg.t_end, cfg)
    assert K.min() > 0
    assert _dense_report(op, cfg, K)[0] is Verdict.PASS
    problem = Problem(mesh=mesh, coeffs=coeffs, mode=BoundaryMode.NEUMANN,
                      evolution=default_evolution(mesh, dt=0.1))
    verdicts = {r.label: r.verdict for r in run_suite(problem).results}
    assert verdicts["kernel-positivity"] is Verdict.PASS
    assert verdicts["positivity-improving"] is Verdict.PASS


def test_kernel_report_raises_on_a_nonpositive_entry_under_the_certificate():
    op = _small_op("robin")
    cfg = lumped_cfg(op.mesh)
    K = dense_kernel(op, 4 * cfg.dt, cfg)
    certificate = kernel_certificate(op, cfg)
    assert certificate.holds
    columns = np.arange(op.n_dof)
    for bad in (-1e-300, math.nan):
        entries = K.copy()
        entries[3, 5] = bad
        with pytest.raises(AssertionError, match="not positive"):
            kernel_positivity_report(op, certificate, columns, entries)
    # an exact 0.0 is a positive entry lost to float underflow
    entries = K.copy()
    entries[3, 5] = 0.0
    verdict, rep = kernel_positivity_report(op, certificate, columns, entries)
    assert verdict is Verdict.PASS
    assert rep["min_entry"] == 0.0 and rep["underflow"]
    assert rep["witness"] == [3, 5]
    assert "underflow" not in kernel_positivity_report(op, certificate,
                                                       columns, K)[1]


def _tiny_case(shape="unit_square", mode="robin", width=1.0, s=0.0, b=0.0,
               c0=0.0, beta=1.0, split=False, dt=0.1):
    """An operator with at most six dofs, a lumped implicit-Euler config
    and the coefficients; ``split`` cuts dof 0 off from the others, so the
    stiffness is reducible."""
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
    return op, EvolutionConfig(dt=dt, t_end=3 * dt, mass=MassKind.LUMPED), \
        coeffs


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
    op, cfg, coeffs = case
    assert op.n_dof <= 6
    certificate = kernel_certificate(op, cfg)
    # positivity-improving passes exactly when the certificate holds
    problem = Problem(mesh=op.mesh, coeffs=coeffs, mode=op.mode,
                      evolution=default_evolution(op.mesh, dt=cfg.dt))
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
    K = dense_kernel(op, cfg.t_end, cfg)
    assert K.min() > 0
    assert _dense_report(op, cfg, K)[0] is Verdict.PASS


@settings(max_examples=60, deadline=None)
@_tiny_sides
@given(_tiny_operators())
def test_principal_verdicts_match_the_lattice_perron_vector_on_tiny_meshes(
        case):
    # -Q = M_L^-1 A is the lumped pencil, so the lattice's Perron vector is
    # an independent dense route to the sign both checks judge
    from perronfem import lattice
    from perronfem.assembly import mmatrix_certificate
    from perronfem.verification import Problem, run_suite
    op, cfg, coeffs = case
    assert op.n_dof <= 6
    problem = Problem(mesh=op.mesh, coeffs=coeffs, mode=op.mode,
                      evolution=default_evolution(op.mesh, dt=cfg.dt))
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
    # the region, which is every dof, and so the Hermitian operators'
    # principal vectors
    g = lattice.MetzlerGenerator(Q)
    assert lattice.is_irreducible(g)
    assert np.all(lattice.perron_report(g).vector > 0)
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
