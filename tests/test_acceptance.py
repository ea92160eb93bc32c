"""Acceptance criteria, one test per criterion.

Each test exercises the full pipeline at its stated tolerance and prints
one pass/fail line (run with ``pytest -s`` to see them on passing runs).
"""

import json
import math
import time

import numpy as np
import pytest

from perronfem.assembly import BoundaryMode, CoefficientSet, assemble
from perronfem.cli import main
from perronfem.lattice import is_irreducible, perron_report, semigroup_at
from perronfem.mesh import check_corkscrew, generate_structured
from perronfem.parabolic import BoundaryData, make_test_bank, solve_mild, \
    strong_positivity_check, very_weak_residual
from perronfem.semigroup import EvolutionConfig, MassKind, Verdict, \
    kernel_certificate, kernel_positivity_report, positivity_improving_check
from perronfem.spectral import certify_positivity, complex_robin_bound, \
    principal_eig, spectral_gap
from tests.conftest import dense_kernel, random_metzler

MIXED_TAGS = {"bottom": "D", "right": "N", "top": "N", "left": "N"}


def report(num, message):
    print(f"ACCEPTANCE {num}: PASS - {message}")


def test_criterion_1_dirichlet_spectrum():
    start = time.perf_counter()
    mesh = generate_structured("unit_square", 32, "dirichlet")
    op = assemble(mesh, CoefficientSet.constant(mesh), BoundaryMode.DIRICHLET)
    rep = principal_eig(op)
    exact1 = 2.0 * math.pi ** 2
    assert abs(rep.lambda1.real - exact1) <= 0.02 * exact1

    gaps = spectral_gap(op, 4)
    exact = math.pi ** 2 * np.array([2.0, 5.0, 5.0, 8.0])
    np.testing.assert_allclose(np.real(gaps.values), exact, rtol=0.02)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"Dirichlet lambda1 = {rep.lambda1.real:.4f} vs 2*pi^2 = "
              f"{exact1:.4f}; first four within 2% ({elapsed:.2f}s)")


def test_criterion_2_robin_eigenvalue_and_boundary_positivity():
    start = time.perf_counter()
    # stated oracle: bisection for the smallest root of mu*tan(mu/2) = 1
    f = lambda mu: mu * math.tan(mu / 2.0) - 1.0
    lo, hi = 1e-9, math.pi - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
    exact = 2.0 * (0.5 * (lo + hi)) ** 2

    mesh = generate_structured("unit_square", 32, "flux")
    op = assemble(mesh, CoefficientSet.constant(mesh, beta=1.0),
                  BoundaryMode.ROBIN)
    rep = principal_eig(op)
    assert abs(rep.lambda1.real - exact) <= 0.02 * exact

    verdict, cert = certify_positivity(rep, op)
    assert verdict is Verdict.PASS and cert["region"] == "closure"
    assert cert["min_value"] > 0
    full = op.expand(rep.vector)
    assert np.all(full > 0)
    assert np.all(full[mesh.boundary_vertices()] > 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"Robin lambda1 = {rep.lambda1.real:.5f} vs 2*mu0^2 = "
              f"{exact:.5f}; closure minimum {cert['min_value']:.4f} "
              f"({elapsed:.2f}s)")


def test_criterion_3_mixed_boundary_positivity():
    mesh = generate_structured("unit_square", 16, MIXED_TAGS)
    cork = check_corkscrew(mesh, 0.1)
    assert cork.ok
    op = assemble(mesh, CoefficientSet.constant(mesh), BoundaryMode.MIXED,
                  corkscrew_checked=True)
    rep = principal_eig(op)
    verdict, cert = certify_positivity(rep, op)
    assert verdict is Verdict.PASS and cert["region"] == "omega_union_n"
    full = op.expand(rep.vector)
    dirichlet_part = mesh.dirichlet_vertices()
    assert np.all(full[dirichlet_part] == 0.0)
    live = np.setdiff1d(np.arange(mesh.n_vertices), dirichlet_part)
    assert np.all(full[live] > 0)
    report(3, f"mixed-boundary eigenvector positive on {live.size} nodes, "
              f"exactly zero on the {dirichlet_part.size} Dirichlet nodes; "
              f"corkscrew holds at delta = 0.1")


def test_criterion_4_complex_robin_bound():
    mesh = generate_structured("unit_square", 16, "flux")
    verdict, strict = complex_robin_bound(assemble(
        mesh, CoefficientSet.constant(mesh, beta=1.0 + 1.0j),
        BoundaryMode.COMPLEX_ROBIN))
    assert verdict is Verdict.PASS
    assert strict["margin"] > 1e-6

    _, degenerate = complex_robin_bound(assemble(
        mesh, CoefficientSet.constant(mesh, beta=1.0 + 0.0j),
        BoundaryMode.COMPLEX_ROBIN))
    assert abs(degenerate["margin"]) <= 1e-10
    report(4, f"complex Robin margin {strict['margin']:.4f} > 1e-6; real "
              f"beta margin {degenerate['margin']:.2e} within 1e-10")


def test_criterion_5_positivity_improving_exhaustive():
    start = time.perf_counter()
    mesh = generate_structured("unit_square", 8, "flux")
    op = assemble(mesh, CoefficientSet.constant(mesh, beta=1.0),
                  BoundaryMode.ROBIN)
    cfg = EvolutionConfig(dt=mesh.h_max ** 2 / 4.0, t_end=0.25,
                          mass=MassKind.LUMPED)
    # the dense kernel at every step: column v times m_v is indicator v
    kernels = dense_kernel(
        op, tuple(k * cfg.dt for k in range(1, cfg.n_steps + 1)), cfg)
    assert op.n_dof == 81 and kernels[0].shape == (81, 81)
    verdict, rep = positivity_improving_check(
        op, kernel_certificate(op, cfg), np.arange(op.n_dof),
        (kernels[0], kernels[-1]))
    assert verdict is Verdict.PASS
    assert rep["trials"] == 81
    for K in kernels:
        assert (K * op.mass_lumped).min() > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(5, f"all 81 indicators fully positive from step 1, staying "
              f"positive to t_end ({elapsed:.2f}s)")


def test_criterion_6_kernel_properties():
    mesh = generate_structured("unit_square", 8, "flux")
    op = assemble(mesh, CoefficientSet.constant(mesh, beta=1.0),
                  BoundaryMode.ROBIN)
    cfg = EvolutionConfig(dt=mesh.h_max ** 2 / 4.0, t_end=0.25,
                          mass=MassKind.LUMPED)
    t = 16 * cfg.dt
    K = dense_kernel(op, t, cfg)
    assert np.abs(K - K.T).max() <= 1e-8
    assert kernel_positivity_report(op, kernel_certificate(op, cfg),
                                    np.arange(op.n_dof), K)[0] \
        is Verdict.PASS
    assert K.min() > 0

    K2 = dense_kernel(op, 2 * t, cfg)
    comp = K @ (op.mass_lumped[:, None] * K)
    ck_dev = np.abs(K2 - comp).max()
    assert ck_dev <= 1e-6

    op_n = assemble(mesh, CoefficientSet.constant(mesh),
                    BoundaryMode.NEUMANN)
    cfg_n = EvolutionConfig(dt=0.25, t_end=50.0, mass=MassKind.LUMPED)
    K_inf = dense_kernel(op_n, 50.0, cfg_n)
    assert np.abs(K_inf - 1.0).max() <= 0.01
    report(6, f"kernel symmetric to {np.abs(K - K.T).max():.1e},"
              f" positive, composition defect {ck_dev:.1e} <= 1e-6, Neumann "
              f"kernel within 1% of 1/|Omega| at t = 50")


def test_criterion_7_parabolic_positivity_and_weak_residual():
    mesh = generate_structured("unit_square", 8, "dirichlet")
    coeffs = CoefficientSet.constant(mesh)
    rng = np.random.default_rng(0)
    u0 = rng.uniform(0.0, 1.0, mesh.n_vertices)
    bv = mesh.boundary_vertices()
    phi = BoundaryData(np.array([0.0, 0.5]),
                       np.vstack([u0[bv], 0.5 * np.ones(len(bv))]), bv)
    cfg = EvolutionConfig(dt=0.5 / 64, t_end=0.5, mass=MassKind.LUMPED)
    sol = solve_mild(mesh, coeffs, u0, phi, cfg)
    assert min(state.min() for state in sol.states()) >= 0.0

    verdict, positivity = strong_positivity_check(sol)
    assert verdict is Verdict.PASS

    residuals = []
    for n, steps in ((8, 32), (16, 64), (32, 128), (64, 256)):
        level_mesh = generate_structured("unit_square", n, "dirichlet")
        x = level_mesh.vertices[:, 0]
        y = level_mesh.vertices[:, 1]
        level_u0 = np.sin(np.pi * x) * np.sin(np.pi * y)
        level_phi = BoundaryData.constant(level_mesh, 0.0, 0.25)
        level_cfg = EvolutionConfig(dt=0.25 / steps, t_end=0.25,
                                    mass=MassKind.LUMPED)
        level_sol = solve_mild(level_mesh, CoefficientSet.constant(level_mesh),
                               level_u0, level_phi, level_cfg)
        bank = make_test_bank(level_mesh, level_sol.times, size=20, seed=0)
        residuals.append(very_weak_residual(level_sol, bank))
    for coarse, fine in zip(residuals, residuals[1:]):
        assert fine <= coarse / 2.0
    report(7, "nonnegative data preserved, strict interior positivity past "
              f"step {positivity['start_step']}; weak residuals "
              f"{['%.2e' % r for r in residuals]} halve per refinement")


def test_criterion_8_lattice_oracle_exhaustive():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    irreducible_count = 0
    for _ in range(200):
        g = random_metzler(rng)  # n <= 6: every call cross-checks the
        # strong-connectivity verdict against exhaustive mask enumeration
        irr = is_irreducible(g)
        improving = bool(np.all(semigroup_at(g, 1.0) > 0.0))
        assert irr == improving
        if irr:
            irreducible_count += 1
            rep = perron_report(g)
            assert rep.simple
            assert np.all(rep.vector > 0)
            assert rep.gap > 0 or g.n == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert irreducible_count >= 40
    report(8, f"200 generators: mask enumeration, connectivity, and "
              f"t = 1 positivity all agree; Perron structure verified on "
              f"{irreducible_count} irreducible instances ({elapsed:.2f}s)")


def test_criterion_9_deterministic_reports(tmp_path):
    config = {
        "mesh": {"shape": "unit_square", "n": 8, "tags": "N"},
        "coefficients": {"beta": 1.0, "mode": "robin"},
        "output_dir": None,
    }
    verify_blobs = []
    eig_blobs = []
    for name in ("run1", "run2"):
        cfg = dict(config)
        cfg["output_dir"] = name
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(path)]) == 0
        verify_blobs.append(
            (tmp_path / name / "verification_report.json").read_bytes())
        assert main(["eig", "--config", str(path)]) == 0
        eig_blobs.append(b"".join(
            (tmp_path / name / f).read_bytes()
            for f in ("eig_report.json", "eigenvector.csv",
                      "eigenvector.svg")))
    assert verify_blobs[0] == verify_blobs[1]
    assert eig_blobs[0] == eig_blobs[1]
    report(9, "repeated verify and eig runs of one config emit "
              "byte-identical JSON, CSV, and SVG")
