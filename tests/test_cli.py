import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perronfem.cli import _write_trajectory_csv, main, read_kernel_dump
from perronfem.expressions import ExpressionError, evaluate_field
from perronfem.mesh import generate_structured, load_mesh
from perronfem.semigroup import Verdict, default_dt
from perronfem.svgplot import _STOPS, _color, _colors, render_heatmap, \
    render_strip, strip_steps
from perronfem.verification import Problem, run_suite
from perronfem.assembly import BoundaryMode, CoefficientSet


def write_config(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


ROBIN_PROBLEM = {
    "mesh": {"shape": "unit_square", "n": 8, "tags": "N"},
    "coefficients": {"beta": 1.0, "mode": "robin"},
}

LSHAPE_MIXED_TAGS = {"bottom": "D", "right": "N", "inner_h": "N",
                     "inner_v": "N", "top": "N", "left": "N"}


# -- expression grammar --------------------------------------------------------

def test_expression_evaluation():
    x = np.array([0.0, 0.5, 1.0])
    y = np.array([1.0, 1.0, 1.0])
    out = evaluate_field("sin(3.14159*x) + 2*y - exp(0*x)", x, y)
    np.testing.assert_allclose(out, np.sin(3.14159 * x) + 1.0, atol=1e-12)
    assert evaluate_field("1/2", x, y).shape == x.shape


def test_expression_rejects_unsafe_code():
    x = np.zeros(2)
    with pytest.raises(ExpressionError):
        evaluate_field("__import__('os')", x, x)
    with pytest.raises(ExpressionError):
        evaluate_field("x ** 2", x, x)
    with pytest.raises(ExpressionError):
        evaluate_field("z + 1", x, x)


# -- verification suite ----------------------------------------------------------

def make_problem(mode="robin", **kwargs):
    if mode == "robin":
        mesh = generate_structured("unit_square", 8, "flux")
        coeffs = CoefficientSet.constant(mesh, beta=1.0)
        return Problem(mesh=mesh, coeffs=coeffs, mode=BoundaryMode.ROBIN,
                       **kwargs)
    if mode == "complex":
        mesh = generate_structured("unit_square", 8, "flux")
        coeffs = CoefficientSet.constant(mesh, beta=1.0 + 1.0j)
        return Problem(mesh=mesh, coeffs=coeffs,
                       mode=BoundaryMode.COMPLEX_ROBIN, **kwargs)
    mesh = generate_structured("unit_square", 8,
                               {"bottom": "D", "right": "N", "top": "N",
                                "left": "N"})
    coeffs = CoefficientSet.constant(mesh)
    return Problem(mesh=mesh, coeffs=coeffs, mode=BoundaryMode.MIXED,
                   **kwargs)


def test_suite_robin_all_green():
    report = run_suite(make_problem("robin"))
    assert not report.failed
    by_label = {r.label: r for r in report.results}
    assert by_label["principal-positivity"].verdict is Verdict.PASS
    assert by_label["kernel-positivity"].verdict is Verdict.PASS
    assert by_label["spectral-gap"].verdict is Verdict.PASS
    assert by_label["perron-sign-structure"].verdict is Verdict.PASS
    assert by_label["complex-robin-strict-bound"].verdict \
        is Verdict.NOT_APPLICABLE
    assert "corkscrew" not in by_label


def test_suite_dirichlet_and_neumann_all_green(dirichlet_mesh8, robin_mesh8):
    for mesh, mode, beta in ((dirichlet_mesh8, BoundaryMode.DIRICHLET, 0.0),
                             (robin_mesh8, BoundaryMode.NEUMANN, 0.0)):
        coeffs = CoefficientSet.constant(mesh, beta=beta)
        report = run_suite(Problem(mesh=mesh, coeffs=coeffs, mode=mode))
        assert not report.failed
        by_label = {r.label: r for r in report.results}
        assert by_label["positivity-improving"].verdict is Verdict.PASS
        assert by_label["kernel-positivity"].verdict is Verdict.PASS
        if mode is BoundaryMode.DIRICHLET:
            assert by_label["constrained-trace-zero"].verdict is Verdict.PASS


def test_suite_mixed_includes_corkscrew():
    report = run_suite(make_problem("mixed"))
    assert not report.failed
    by_label = {r.label: r for r in report.results}
    assert by_label["corkscrew"].verdict is Verdict.PASS
    assert by_label["constrained-trace-zero"].verdict is Verdict.PASS


def test_suite_mixed_lshape_kernel_positivity_passes_at_n32():
    # the kernel is positive, but its smallest entry fell below the old
    # relative floor 1e-12 * max|K|; the structural certificate passes it
    mesh = generate_structured("l_shape", 32, LSHAPE_MIXED_TAGS)
    problem = Problem(mesh=mesh, coeffs=CoefficientSet.constant(mesh),
                      mode=BoundaryMode.MIXED)
    (result,) = run_suite(problem, only="kernel-positivity").results
    assert result.verdict is Verdict.PASS
    assert 0.0 < result.payload["min_entry"] < 1e-11
    assert result.payload["min_row_sum"] > 0.0


def test_suite_complex_robin(monkeypatch):
    import perronfem.verification as verification
    monkeypatch.setattr(verification, "kernel", lambda *a, **kw: pytest.fail(
        "a complex operator has no kernel check to march for"))
    report = run_suite(make_problem("complex"))
    assert not report.failed
    by_label = {r.label: r for r in report.results}
    assert by_label["complex-robin-strict-bound"].verdict is Verdict.PASS
    assert by_label["complex-robin-strict-bound"].payload["margin"] > 1e-6
    assert by_label["principal-positivity"].verdict is Verdict.NOT_APPLICABLE


def test_complex_robin_with_a_real_beta_is_certified_as_robin(tmp_path):
    # beta with no imaginary part assembles the real Robin operator, so the
    # operator's own certificates give Robin's verdicts and payloads
    labels = ("principal-positivity", "positivity-improving",
              "kernel-positivity")
    results = {}
    for mode, beta in (("robin", 1.0), ("complex_robin", {"re": 1, "im": 0})):
        path = write_config(tmp_path / f"{mode}.json", {
            "mesh": {"shape": "unit_square", "n": 6, "tags": "N"},
            "coefficients": {"beta": beta, "mode": mode}, "output_dir": mode})
        assert main(["verify", "--config", path]) == 0
        report = json.loads(
            (tmp_path / mode / "verification_report.json").read_text())
        results[mode] = [r for r in report["results"] if r["label"] in labels]
    assert [r["verdict"] for r in results["complex_robin"]] == ["pass"] * 3
    assert results["complex_robin"] == results["robin"]


@pytest.mark.parametrize("beta, b, mode", [
    (1.0 + 1.0j, (0.0, 0.0), BoundaryMode.COMPLEX_ROBIN),
    (1.0, (1.0, 0.0), BoundaryMode.ROBIN)])
def test_suite_above_the_dense_cutoff_has_no_fail(monkeypatch, beta, b, mode):
    # 49 dofs are above the tiny-mesh dense spectrum: every check reads the
    # one certified Arnoldi solve, with nothing patched to route it there
    import scipy.linalg
    import scipy.sparse.linalg
    mesh = generate_structured("unit_square", 6, "flux")
    coeffs = CoefficientSet.constant(mesh, beta=beta, b=b)

    def no_dense_eig(*args, **kwargs):
        raise AssertionError("dense eigensolve on a 49-dof mesh")
    arnoldi_calls = []
    eigs = scipy.sparse.linalg.eigs

    def counted_eigs(*args, **kwargs):
        arnoldi_calls.append(kwargs["k"])
        return eigs(*args, **kwargs)
    monkeypatch.setattr(scipy.linalg, "eig", no_dense_eig)
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", counted_eigs)
    report = run_suite(Problem(mesh=mesh, coeffs=coeffs, mode=mode))
    verdicts = {r.label: r.verdict for r in report.results}
    assert arnoldi_calls == [4]  # one shared solve: two pairs, two guards
    assert verdicts["spectral-gap"] is Verdict.PASS
    if mode is BoundaryMode.COMPLEX_ROBIN:
        assert verdicts["complex-robin-strict-bound"] is Verdict.PASS
        assert Verdict.FAIL not in verdicts.values()
    else:
        # a non-Hermitian operator is outside the eigenvector certificate
        assert verdicts["principal-positivity"] is Verdict.NOT_APPLICABLE
        # convection gives the stiffness positive off-diagonal entries
        assert [label for label, v in verdicts.items()
                if v is Verdict.FAIL] == ["mmatrix-compatible"]


def test_principal_positivity_solves_nothing_for_a_non_hermitian_operator(
        monkeypatch):
    # the certificate is not applicable whatever the spectrum, so a
    # spectrum that cannot be certified does not turn it into a FAIL
    import perronfem.spectral

    def uncertified(*args, **kwargs):
        raise perronfem.spectral.SolverError("not certified")
    monkeypatch.setattr(perronfem.spectral, "_lowest_pairs", uncertified)
    mesh = generate_structured("unit_square", 6, "dirichlet")
    problem = Problem(mesh=mesh,
                      coeffs=CoefficientSet.constant(mesh, b=(60.0, 0.0)),
                      mode=BoundaryMode.DIRICHLET)
    (result,) = run_suite(problem, only="principal-positivity").results
    assert result.verdict is Verdict.NOT_APPLICABLE
    assert "non-Hermitian" in result.payload["reason"]


def test_suite_only_filter():
    report = run_suite(make_problem("robin"), only="ellipticity")
    assert len(report.results) == 1
    with pytest.raises(KeyError):
        run_suite(make_problem("robin"), only="no-such-check")


def _raising_check(monkeypatch):
    import perronfem.verification as verification

    def raising(*args):
        raise ValueError("no verdict")
    monkeypatch.setattr(verification, "positivity_improving_check", raising)


def test_suite_surfaces_solver_failures_as_fail_verdicts(monkeypatch):
    # a raised error must become a FAIL with diagnostics rather than an
    # exception
    _raising_check(monkeypatch)
    report = run_suite(make_problem("robin"), only="positivity-improving")
    result = report.results[0]
    assert result.verdict is Verdict.FAIL
    assert result.payload["error"] == "ValueError: no verdict"


def test_suite_says_when_a_check_failed_in_the_solver(monkeypatch):
    import scipy.sparse.linalg

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")
    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    (result,) = run_suite(make_problem("robin"),
                          only="principal-positivity").results
    assert result.verdict is Verdict.FAIL
    assert result.payload["reason"] == "solver failure"
    assert result.payload["error"].startswith(
        "SolverError: singular step matrix or shifted pencil")
    # any other exception keeps the bare error payload
    monkeypatch.undo()
    _raising_check(monkeypatch)
    (result,) = run_suite(make_problem("robin"),
                          only="positivity-improving").results
    assert result.verdict is Verdict.FAIL
    assert list(result.payload) == ["error"]


def test_suite_raises_a_broken_invariant(monkeypatch):
    import perronfem.verification as verification

    def broken(op, certificate, columns, K):
        raise AssertionError("kernel entry 0.0 is not positive")
    monkeypatch.setattr(verification, "kernel_positivity_report", broken)
    with pytest.raises(AssertionError, match="not positive"):
        run_suite(make_problem("robin"), only="kernel-positivity")


@pytest.mark.parametrize("label", ["kernel-positivity",
                                   "positivity-improving"])
def test_cli_verify_survives_kernel_underflow(tmp_path, capsys, label):
    # at n = 15 and this step the far peripheral entries underflow to 0.0;
    # the certificate still proves them positive
    from perronfem.semigroup import default_dt
    dt = default_dt(generate_structured("unit_square", 15, "N")) / 1e12
    path = write_config(tmp_path / "c.json", {
        "mesh": {"shape": "unit_square", "n": 15, "tags": "N"},
        "coefficients": {"beta": 1.0, "mode": "robin"},
        "evolution": {"dt": dt}, "output_dir": "out"})
    assert main(["verify", "--config", path, "--only", label]) == 0
    assert "Traceback" not in capsys.readouterr().err
    (result,) = json.loads((tmp_path / "out" / "verification_report.json")
                           .read_text())["results"]
    assert result["verdict"] == "pass"
    assert result["payload"]["underflow"] is True


def test_suite_oracle_expected_negative():
    p = make_problem("robin",
                     oracle_matrix=np.array([[0.0, 1.0], [0.0, 0.0]]),
                     expect_irreducible=False)
    report = run_suite(p, only="lattice-oracle")
    result = report.results[0]
    assert result.verdict is Verdict.PASS
    assert result.payload["expected_negative"] is True
    assert result.payload["irreducible"] is False


@pytest.mark.parametrize("matrix", [[[1.0]], [[-5.0]]])
def test_suite_oracle_passes_a_1x1_generator(matrix):
    # irreducible with a simple eigenvalue and a positive vector; there is
    # no second eigenvalue, so no gap
    p = make_problem("robin", oracle_matrix=np.array(matrix))
    (result,) = run_suite(p, only="lattice-oracle").results
    assert result.verdict is Verdict.PASS
    assert result.payload["irreducible"] is True
    assert result.payload["gap"] == 0.0


# -- CLI round trips --------------------------------------------------------------

def test_cli_mesh_roundtrip(tmp_path, capsys):
    out = tmp_path / "mesh.txt"
    code = main(["mesh", "--shape", "unit_square", "--n", "4",
                 "--tags", "bottom=D,right=N,top=N,left=N",
                 "--out", str(out)])
    assert code == 0
    mesh = load_mesh(out.read_text(encoding="utf-8"))
    assert mesh.n_vertices == 25
    assert "nonobtuse=True" in capsys.readouterr().out


@pytest.mark.parametrize("flags, message", [
    (["--shape", "l_shape", "--width", "7"],
     "mesh: width applies only to the rectangle shape, not l_shape"),
    (["--height", "2"],
     "mesh: height applies only to the rectangle shape, not unit_square"),
])
def test_cli_mesh_takes_sizes_only_for_a_rectangle(tmp_path, capsys, flags,
                                                   message):
    out = tmp_path / "mesh.txt"
    assert main(["mesh", *flags, "--out", str(out)]) == 2
    _assert_one_error_line(capsys, message)
    assert not out.exists()
    assert main(["mesh", "--shape", "rectangle", "--width", "2", "--n", "2",
                 "--out", str(out)]) == 0
    assert load_mesh(out.read_text(encoding="utf-8")).vertices[:, 0].max() \
        == 2.0


def test_cli_eig_outputs(tmp_path):
    cfg = dict(ROBIN_PROBLEM)
    cfg["output_dir"] = "out"
    path = write_config(tmp_path / "eig.json", cfg)
    assert main(["eig", "--config", path]) == 0
    report = json.loads((tmp_path / "out" / "eig_report.json").read_text())
    assert report["lambda1"]["re"] == pytest.approx(3.42, abs=0.05)
    assert report["positivity"]["passed"] is True
    csv = (tmp_path / "out" / "eigenvector.csv").read_text().splitlines()
    assert csv[0] == "vertex,x,y,value"
    assert len(csv) == 82
    first = csv[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0  # plain decimal floats
    assert "np.float" not in csv[1]
    svg = (tmp_path / "out" / "eigenvector.svg").read_text()
    assert svg.startswith("<?xml")


def test_cli_eig_rejects_unknown_key(tmp_path, capsys):
    path = write_config(tmp_path / "bad.json",
                        {**ROBIN_PROBLEM, "tolerance": 1.0})
    assert main(["eig", "--config", path]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_cli_eig_gap_count_near_n_dof_takes_the_dense_spectrum(
        tmp_path, monkeypatch):
    # ARPACK gives at most n_dof - 2 pairs; 15 pairs of 16 dofs (plus two
    # guards) come from the dense spectrum of the pencil, not an error
    import scipy.linalg
    calls = []
    eig = scipy.linalg.eig
    monkeypatch.setattr(
        scipy.linalg, "eig",
        lambda *a, **kw: calls.append(1) or eig(*a, **kw))
    path = write_config(tmp_path / "c.json", {
        "mesh": {"shape": "unit_square", "n": 3, "tags": "N"},
        "coefficients": {"beta": {"re": 1.0, "im": 0.5},
                         "mode": "complex_robin"},
        "gap_count": 15, "output_dir": "out"})
    assert main(["eig", "--config", path]) == 0
    report = json.loads((tmp_path / "out" / "eig_report.json").read_text())
    assert report["n_dof"] == 16
    assert len(report["eigenvalues"]) == 15
    assert len(calls) == 1  # k = 2 for lambda1 runs on Arnoldi


def test_cli_eig_a_one_dof_problem(tmp_path):
    # one free vertex has one eigenvalue: eig reports it with
    # principal_eig's infinite gap, where spectral_gap needs k >= 2
    path = write_config(tmp_path / "c.json", {
        "mesh": {"shape": "unit_square", "n": 2, "tags": "D"},
        "coefficients": {"mode": "dirichlet"}, "output_dir": "out"})
    assert main(["eig", "--config", path]) == 0
    report = json.loads((tmp_path / "out" / "eig_report.json").read_text())
    assert report["n_dof"] == 1
    assert report["eigenvalues"] == [report["lambda1"]]
    assert report["gap"] == "inf"
    assert report["positivity"]["passed"] is True


def test_cli_evolve_and_kernel(tmp_path):
    cfg = dict(ROBIN_PROBLEM)
    cfg["evolution"] = {"dt": 0.01, "t_end": 0.1}
    cfg["u0"] = "x*y + 1"
    cfg["output_dir"] = "run"
    path = write_config(tmp_path / "evolve.json", cfg)
    assert main(["evolve", "--config", path]) == 0
    csv = (tmp_path / "run" / "trajectory.csv").read_text().splitlines()
    assert csv[0].startswith("t,v0,")
    assert len(csv) == 12  # header + 11 states

    del cfg["u0"]
    path = write_config(tmp_path / "kernel.json", cfg)
    assert main(["kernel", "--config", path, "--t", "0.05"]) == 0
    t, entries = read_kernel_dump(tmp_path / "run" / "kernel.bin")
    assert t == pytest.approx(0.05)
    assert entries.shape == (81, 81)
    assert entries.min() > 0
    report = json.loads((tmp_path / "run" / "kernel_report.json").read_text())
    assert report["verdict"] == "pass"


def test_cli_evolve_streams_its_trajectory(tmp_path, capsys):
    import tracemalloc
    cfg = {"mesh": {"shape": "unit_square", "n": 32, "tags": "N"},
           "coefficients": {"beta": 1.0, "mode": "robin"},
           "evolution": {"dt": 1e-4, "t_end": 0.04}, "u0": "1+x*y",
           "output_dir": "run"}
    path = write_config(tmp_path / "evolve.json", cfg)
    tracemalloc.start()
    try:
        assert main(["evolve", "--config", path]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 401 states of 1,089 nodal values: the whole trajectory is 3.3 MiB,
    # and the command holds one state at a time, not every state twice
    assert peak < 401 * 1089 * 8
    rows = (tmp_path / "run" / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 402
    final = np.array([float(v) for v in rows[-1].split(",")[1:]])
    assert capsys.readouterr().out.strip() == (
        f"evolved 400 steps to t = 0.04; final range "
        f"[{final.min():.6g}, {final.max():.6g}]")


def test_cli_kernel_verdict_reads_the_certificate(tmp_path):
    cfg = {**ROBIN_PROBLEM, "output_dir": "run",
           "evolution": {"scheme": "crank_nicolson", "dt": 0.01,
                         "t_end": 0.1}}
    path = write_config(tmp_path / "kernel.json", cfg)
    assert main(["kernel", "--config", path]) == 0
    report = json.loads((tmp_path / "run" / "kernel_report.json").read_text())
    assert report["verdict"] == "not_applicable"
    assert "implicit Euler with lumped mass" in report["reason"]
    assert (tmp_path / "run" / "kernel.bin").exists()


def test_cli_kernel_report_outside_the_certificate_is_its_reason(tmp_path):
    # a NOT_APPLICABLE report has no minimum and no witness to give
    cfg = {**ROBIN_PROBLEM, "output_dir": "run",
           "evolution": {"scheme": "crank_nicolson", "dt": 0.01,
                         "t_end": 0.1}}
    path = write_config(tmp_path / "kernel.json", cfg)
    assert main(["kernel", "--config", path]) == 0
    report = json.loads((tmp_path / "run" / "kernel_report.json").read_text())
    assert sorted(report) == ["n", "reason", "t", "verdict"]


def test_cli_kernel_flags_underflow_as_verify_does(tmp_path, capsys):
    # at dt = t_end = 1e-12 the far entries of K(t) on the n = 24 Dirichlet
    # square are positive values lost to 0.0: both commands say so
    path = write_config(tmp_path / "c.json", {
        "mesh": {"shape": "unit_square", "n": 24, "tags": "D"},
        "coefficients": {"mode": "dirichlet"},
        "evolution": {"dt": 1e-12, "t_end": 1e-12}, "output_dir": "out"})
    assert main(["kernel", "--config", path]) == 0
    report = json.loads((tmp_path / "out" / "kernel_report.json").read_text())
    assert report["verdict"] == "pass" and report["min_entry"] == 0.0
    assert report["underflow"] is True
    assert main(["verify", "--config", path, "--only",
                 "kernel-positivity"]) == 0
    (result,) = json.loads((tmp_path / "out" / "verification_report.json")
                           .read_text())["results"]
    assert result["payload"]["underflow"] is True
    capsys.readouterr()


def test_cli_kernel_refuses_a_dense_kernel_above_the_limit(tmp_path, capsys,
                                                          monkeypatch):
    import perronfem.cli
    monkeypatch.setattr(perronfem.cli, "DENSE_KERNEL_MAX_BYTES", 1000)
    monkeypatch.setattr(perronfem.cli, "march",
                        lambda *a, **kw: pytest.fail("kernel marched"))
    path = write_config(tmp_path / "c.json",
                        {**ROBIN_PROBLEM, "output_dir": "out"})
    assert main(["kernel", "--config", path]) == 2
    # 81 vertices, 81 dofs: three 81 x 81 float64 arrays
    _assert_one_error_line(capsys, "about 0.2 MiB", "limit")
    assert not (tmp_path / "out").exists()


def test_cli_kernel_refuses_a_complex_operator(tmp_path, capsys):
    # the dump is real: the real part of a complex kernel would not
    # reproduce the evolution, as the dump format promises
    path = write_config(tmp_path / "c.json", {
        "mesh": {"shape": "unit_square", "n": 4, "tags": "N"},
        "coefficients": {"beta": {"re": 1.0, "im": 1.0},
                         "mode": "complex_robin"},
        "output_dir": "out"})
    assert main(["kernel", "--config", path]) == 2
    _assert_one_error_line(capsys, "kernel:", "complex operator")
    assert not (tmp_path / "out").exists()


def test_cli_kernel_holds_one_state_at_a_time(tmp_path, capsys):
    # the march keeps only its last state: a stacked march of the 80
    # default steps would hold 80 dense blocks
    import tracemalloc
    path = write_config(tmp_path / "c.json", {
        "mesh": {"shape": "unit_square", "n": 24, "tags": "N"},
        "coefficients": {"beta": 1.0, "mode": "robin"}, "output_dir": "out"})
    tracemalloc.start()
    try:
        assert main(["kernel", "--config", path]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 625 vertices, 625 dofs: one dense float64 array is 3.1 MB
    assert peak < 4 * 625 ** 2 * 8
    capsys.readouterr()


def test_cli_parabolic(tmp_path):
    cfg = {
        "mesh": {"shape": "unit_square", "n": 8, "tags": "D"},
        "coefficients": {"mode": "dirichlet"},
        "evolution": {"dt": 0.005, "t_end": 0.32},
        "u0": "sin(3.141592653589793*x)*sin(3.141592653589793*y)",
        "phi": {"constant": 0.0},
        "output_dir": "par",
    }
    path = write_config(tmp_path / "par.json", cfg)
    assert main(["parabolic", "--config", path]) == 0
    verdict = json.loads((tmp_path / "par" / "verdict.json").read_text())
    assert verdict["strong_positivity"]["verdict"] == "pass"
    assert verdict["very_weak_residual"] < 0.1
    assert (tmp_path / "par" / "strip.svg").exists()


# parabolic output bytes, recorded while solve_mild, the positivity check and
# the weak residual each assembled the volume matrices themselves; the
# trajectories and verdicts re-pinned when every factorization moved to
# minimum-degree ordering (last-bit differences, same verdicts); both
# verdicts re-pinned from pass to not_applicable when strong positivity
# moved to the M-matrix certificate: Crank-Nicolson with consistent mass is
# outside it, and c = (0.5, 0.25) puts positive off-diagonal entries on the
# diagonal edges; both verdicts re-pinned when the claim began at step 1
# instead of the interior graph diameter: start_step 8 -> 1 and 6 -> 1;
# both verdicts re-pinned when the interior graph diameter was no longer
# computed: only the "threshold_step" key (8 and 6) is gone
PINNED_PARABOLIC = {
    "implicit-euler": ({
        "mesh": {"shape": "unit_square", "n": 6, "tags": "D"},
        "coefficients": {"mode": "dirichlet", "c": [0.5, 0.25], "c0": 0.25},
        "evolution": {"dt": 0.01, "t_end": 0.4},
        "u0": "x*(1-x)*y*(1-y)",
        "phi": {"samples": [{"t": 0.0, "expr": "0"},
                            {"t": 0.1, "expr": "1+x"},
                            {"t": 0.4, "expr": "y"}]},
        "test_bank_size": 8, "seed": 3,
    }, {
        "verdict.json":
            "c2769aa2a2f9c60750956d54803f77ab5836b57f5a3b749e69b3052283f685a8",
        "trajectory.csv":
            "1042c9f5efa2851d0f125c5187cbe12e5d5f48081da8f8e4685fa6968b6391b0",
        "strip.svg":
            "6f634de627fea91b3603d76346a122a500f4a426289326dcb7a361e24bab8819",
    }),
    "crank-nicolson": ({
        "mesh": {"shape": "rectangle", "n": 5, "width": 2.0, "height": 1.0,
                 "tags": "D"},
        "coefficients": {"mode": "dirichlet"},
        "evolution": {"scheme": "crank_nicolson", "mass": "consistent",
                      "dt": 0.01, "t_end": 0.32},
        "u0": "sin(3.141592653589793*x/2)*sin(3.141592653589793*y)",
        "phi": {"samples": [{"t": 0.0, "expr": "0"},
                            {"t": 0.32, "expr": "y"}]},
        "test_bank_size": 8, "seed": 1,
    }, {
        "verdict.json":
            "5e2d64e16983ac051edf2e5a146c9ee7161041a5d17a0f69fe74b81f7db79e82",
        "trajectory.csv":
            "34f51542678b80a31892c217586473df3c1064259814939425cabf7cc52b054b",
        "strip.svg":
            "f4f8a2b2775ce1f10b92fcc2bdeaa118609d10c471048461064b2e6ec876e2f2",
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED_PARABOLIC))
def test_cli_parabolic_output_bytes_pinned(tmp_path, name):
    import hashlib
    cfg, digests = PINNED_PARABOLIC[name]
    path = write_config(tmp_path / "p.json", dict(cfg, output_dir="out"))
    assert main(["parabolic", "--config", path]) == 0
    for filename, digest in digests.items():
        blob = (tmp_path / "out" / filename).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest, filename


def test_parabolic_and_verify_certify_the_same_step(tmp_path):
    # with c0 = -110 the step Z = M_L + dt*A on the interior has a negative
    # row sum: only the witness Z^-1*1 certifies it, in both commands
    base = {"mesh": {"shape": "unit_square", "n": 8, "tags": "D"},
            "coefficients": {"mode": "dirichlet", "c0": -110.0},
            "evolution": {"dt": 0.01, "t_end": 0.1}}
    path = write_config(tmp_path / "v.json", dict(base, output_dir="v"))
    assert main(["verify", "--config", path]) == 0
    results = {r["label"]: r for r in json.loads(
        (tmp_path / "v" / "verification_report.json").read_text())["results"]}
    kernel = results["kernel-positivity"]
    assert kernel["verdict"] == "pass" and kernel["payload"]["min_row_sum"] < 0
    assert results["positivity-improving"]["verdict"] == "pass"
    path = write_config(tmp_path / "p.json", dict(
        base, u0="x*(1-x)*y*(1-y)", output_dir="p"))
    assert main(["parabolic", "--config", path]) == 0
    verdict = json.loads((tmp_path / "p" / "verdict.json").read_text())
    assert verdict["strong_positivity"]["verdict"] == "pass"


# the other commands' CSV and SVG bytes, recorded while each writer built
# its whole text before writing it; the kernel outputs, recorded while
# semigroup.kernel still built the dense kernel for the command.
# kernel_report.json was re-pinned when the report lost its
# "boundary_rows_zero" line, which the command's own dump makes true by
# construction; nothing else in it moved
PINNED_WRITERS = {
    "evolve": ({
        "mesh": {"shape": "unit_square", "n": 6, "tags": "N"},
        "coefficients": {"beta": 1.0, "mode": "robin"},
        "evolution": {"dt": 0.01, "t_end": 0.05},
        "u0": "1+x*y*(1-x)",
    }, {
        "trajectory.csv":
            "4dd8a9f9ac7baca56e169d2fcc3d1577ba66f94570b2b29096ed6cf62a4cd0dd",
        "final_state.svg":
            "f91d733ffe014830542c89a73f3dd8d02c9f6966871f17a812b0c055a9d5bc89",
    }),
    "eig": ({
        "mesh": {"shape": "unit_square", "n": 6, "tags": "N"},
        "coefficients": {"beta": 1.5, "mode": "robin"},
    }, {
        "eigenvector.svg":
            "34444795901331f58aef5b65d8c85bd78f451c2b95a1345cb0168c3ad812724a",
    }),
    "kernel": ({
        "mesh": {"shape": "unit_square", "n": 6, "tags": "N"},
        "coefficients": {"beta": 1.5, "mode": "robin"},
    }, {
        "kernel.bin":
            "453a84434854ecb7ea9c3fd56aac2291ae166175ba051eabaaaec24ed6d03ad1",
        "kernel_report.json":
            "a43b0f9af23688cf3ff5f9734a7456f608a2194dfb612239283574983fdc321f",
        "kernel_diagonal.svg":
            "166c00a189f2dbdf6ef91059e418e60129f7947b6e1038f00b24c95386f22919",
    }),
}


@pytest.mark.parametrize("command", sorted(PINNED_WRITERS))
def test_cli_writer_bytes_pinned(tmp_path, capsys, command):
    import hashlib
    cfg, digests = PINNED_WRITERS[command]
    path = write_config(tmp_path / "c.json", dict(cfg, output_dir="out"))
    assert main([command, "--config", path]) == 0
    for filename, digest in digests.items():
        blob = (tmp_path / "out" / filename).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest, filename
    capsys.readouterr()


def test_cli_kernel_bytes_pinned_on_the_mixed_lshape(tmp_path, capsys):
    # recorded and re-pinned as PINNED_WRITERS["kernel"]; the Dirichlet
    # vertices' rows and columns of the dump are exact zeros
    import hashlib
    path = write_config(tmp_path / "c.json", {
        "mesh": {"shape": "l_shape", "n": 4, "tags": LSHAPE_MIXED_TAGS},
        "coefficients": {"mode": "mixed"}, "output_dir": "out"})
    assert main(["kernel", "--config", path]) == 0
    for filename, digest in {
            "kernel.bin": "364bc0b0eaea5c7e4aeefa4867cac67f"
                          "ab77c31646f8ca6c73026da70632155f",
            "kernel_report.json": "328d6a35fe4ebec637299fa53a6a25cec"
                                  "1bc40a86e05ff21ccd34ac22b4c2311",
            "kernel_diagonal.svg": "69cb40510a9660e4188d909a873f8e90"
                                   "0e71d7e56e32d6ca31b1cae3c6b2e59f"}.items():
        blob = (tmp_path / "out" / filename).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest, filename
    _, entries = read_kernel_dump(tmp_path / "out" / "kernel.bin")
    pinned = generate_structured("l_shape", 4, LSHAPE_MIXED_TAGS) \
        .dirichlet_vertices()
    assert pinned.size
    assert np.all(entries[pinned, :] == 0.0)
    assert np.all(entries[:, pinned] == 0.0)
    capsys.readouterr()


def test_cli_kernel_dump_zeros_the_boundary_outside_the_certificate(
        tmp_path, capsys):
    # Crank-Nicolson is outside the positivity certificate: the verdict is
    # not applicable, and the dump still spreads K(t) onto every vertex
    # with exact zeros at the eliminated boundary
    path = write_config(tmp_path / "c.json", {
        "mesh": {"shape": "unit_square", "n": 5, "tags": "D"},
        "coefficients": {"mode": "dirichlet"},
        "evolution": {"scheme": "crank_nicolson", "dt": 0.01, "t_end": 0.1},
        "output_dir": "out"})
    assert main(["kernel", "--config", path]) == 0
    report = json.loads((tmp_path / "out" / "kernel_report.json").read_text())
    assert report["verdict"] == "not_applicable"
    assert "boundary_rows_zero" not in report
    _, entries = read_kernel_dump(tmp_path / "out" / "kernel.bin")
    boundary = generate_structured("unit_square", 5, "D").boundary_vertices()
    interior = np.setdiff1d(np.arange(36), boundary)
    assert entries.shape == (36, 36) and boundary.size == 20
    assert np.all(entries[boundary, :] == 0.0)
    assert np.all(entries[:, boundary] == 0.0)
    assert np.all(entries[np.ix_(interior, interior)] != 0.0)
    capsys.readouterr()


def test_cli_parabolic_assembles_the_volume_once(tmp_path, monkeypatch):
    import perronfem.assembly
    import perronfem.parabolic
    calls = []
    assemble_volume = perronfem.assembly.assemble_volume

    def counted(*args, **kwargs):
        calls.append(1)
        return assemble_volume(*args, **kwargs)

    for module in (perronfem.assembly, perronfem.parabolic):
        monkeypatch.setattr(module, "assemble_volume", counted)
    cfg, _ = PINNED_PARABOLIC["implicit-euler"]
    path = write_config(tmp_path / "p.json", dict(cfg, output_dir="out"))
    assert main(["parabolic", "--config", path]) == 0
    assert len(calls) == 1

def test_kernel_dump_rejects_bad_magic(tmp_path):
    from perronfem.cli import CliError
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(CliError, match="magic"):
        read_kernel_dump(bad)


def test_cli_verify_only_flag(tmp_path, capsys):
    cfg = dict(ROBIN_PROBLEM)
    cfg["output_dir"] = "only"
    path = write_config(tmp_path / "only.json", cfg)
    assert main(["verify", "--config", path, "--only", "spectral-gap"]) == 0
    out = capsys.readouterr().out
    assert "spectral-gap" in out
    assert "kernel-positivity" not in out


@pytest.mark.parametrize("label, fragments", [
    ("corkscrew", ("verify: corkscrew runs only in mixed mode",)),
    ("no-such-check", ("'no-such-check'", "ellipticity, mmatrix-compatible",
                       "lattice-oracle")),
])
def test_cli_verify_only_rejects_a_label_it_cannot_run(
        tmp_path, capsys, monkeypatch, label, fragments):
    # the label is checked before the operator is assembled or the output
    # directory made; on a Robin square corkscrew exists but does not run
    import perronfem.verification
    monkeypatch.setattr(perronfem.verification, "assemble",
                        lambda *a, **kw: pytest.fail("assembled"))
    path = write_config(tmp_path / "c.json",
                        {**ROBIN_PROBLEM, "output_dir": "out"})
    assert main(["verify", "--config", path, "--only", label]) == 2
    _assert_one_error_line(capsys, *fragments)
    assert not (tmp_path / "out").exists()


def test_readme_typical_config_verifies(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("A typical config:", 1)[1] \
        .split("```json\n", 1)[1].split("```", 1)[0]
    path = write_config(tmp_path / "verify.json", json.loads(block))
    assert main(["verify", "--config", path]) == 0
    assert capsys.readouterr().out.endswith("suite: OK\n")


def test_cli_oracle(tmp_path, capsys):
    matrix = tmp_path / "gen.json"
    matrix.write_text(json.dumps({"Q": [[0.0, 1.0], [0.0, 0.0]]}))
    assert main(["oracle", "--matrix", str(matrix)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["irreducible"] is False
    assert verdict["positivity_improving"] is False
    assert verdict["perron"]["simple"] is False


@pytest.mark.parametrize("data", [{"Q": [[0.0, 1.0], [0.0]]}, [[0.0], 1.0],
                                  []])
def test_cli_oracle_malformed_matrix_is_an_error(tmp_path, capsys, data):
    matrix = tmp_path / "gen.json"
    matrix.write_text(json.dumps(data))
    assert main(["oracle", "--matrix", str(matrix)]) == 2
    _assert_one_error_line(
        capsys, "oracle input: Q must be a list of equal-length rows")


def test_cli_verify_exit_codes_and_reports(tmp_path):
    cfg = dict(ROBIN_PROBLEM)
    cfg["output_dir"] = "v"
    cfg["oracle"] = {"matrix": [[-1.0, 1.0], [1.0, -1.0]],
                     "expect_irreducible": True}
    path = write_config(tmp_path / "verify.json", cfg)
    assert main(["verify", "--config", path]) == 0
    report = json.loads(
        (tmp_path / "v" / "verification_report.json").read_text())
    labels = [r["label"] for r in report["results"]]
    assert "principal-positivity" in labels
    assert all(r["verdict"] != "fail" for r in report["results"])
    text = (tmp_path / "v" / "verification_report.txt").read_text()
    assert "suite: OK" in text
    # runtimes live in the text report only
    assert "runtime" not in json.dumps(report)


def test_cli_verify_repeatable_bytes(tmp_path):
    blobs = []
    for name in ("a", "b"):
        cfg = dict(ROBIN_PROBLEM)
        cfg["output_dir"] = name
        path = write_config(tmp_path / f"{name}.json", cfg)
        assert main(["verify", "--config", path]) == 0
        blobs.append(
            (tmp_path / name / "verification_report.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_cli_verify_fail_exit_code(tmp_path):
    # an obtuse-mesh generated at runtime cannot happen via the structured
    # generator, so force a failing check with a mismatched oracle claim
    cfg = dict(ROBIN_PROBLEM)
    cfg["output_dir"] = "f"
    cfg["oracle"] = {"matrix": [[0.0, 1.0], [0.0, 0.0]],
                     "expect_irreducible": True}
    path = write_config(tmp_path / "verify.json", cfg)
    assert main(["verify", "--config", path]) == 1


def test_cli_usage_error_exit_code(tmp_path, capsys):
    assert main(["eig", "--config", str(tmp_path / "missing.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_cli_missing_mesh_file_is_an_error(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", {
        "mesh": {"path": "absent.mesh"}, "coefficients": {"mode": "robin"}})
    assert main(["verify", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "absent.mesh" in err
    assert "Traceback" not in err


def test_cli_solver_error_is_an_error(tmp_path, capsys, monkeypatch):
    # one sweep of inverse iteration leaves residuals above the bound
    import perronfem.spectral as spectral
    monkeypatch.setattr(spectral, "MAX_SWEEPS", 1)
    path = write_config(tmp_path / "c.json", {
        "mesh": {"shape": "unit_square", "n": 4, "tags": "N"},
        "coefficients": {"beta": 1.0, "mode": "robin"}})
    assert main(["eig", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceed the bound" in err


def test_cli_out_of_memory_is_a_one_line_error(tmp_path, capsys,
                                               monkeypatch):
    # a failed allocation ends the command: it is no verdict on the problem
    import perronfem.spectral as spectral

    def exhausted(matrix):
        raise MemoryError("Unable to allocate 1.00 GiB for the factor")
    monkeypatch.setattr(spectral, "factorize", exhausted)
    path = write_config(tmp_path / "c.json", {
        "mesh": {"shape": "unit_square", "n": 4, "tags": "N"},
        "coefficients": {"beta": 1.0, "mode": "robin"}, "output_dir": "out"})
    for command in ("verify", "eig"):
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory (Unable to allocate 1.00 GiB " \
                      "for the factor)\n"
    assert not list(tmp_path.glob("out/*"))


@pytest.mark.parametrize("mesh, mode, message", [
    ({"shape": "unit_square", "n": 1, "tags": "D"}, "dirichlet",
     "no degree of freedom is free"),
    ({"shape": "unit_square", "n": 4, "tags": "N"}, "dirichlet",
     "requires all boundary edges tagged D")])
def test_cli_verify_rejects_an_invalid_problem(tmp_path, capsys, mesh, mode,
                                               message):
    path = write_config(tmp_path / "c.json", {
        "mesh": mesh, "coefficients": {"mode": mode}})
    for command in ("verify", "eig"):
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
    assert not (tmp_path / "verification_report.json").exists()


@pytest.mark.filterwarnings("ignore:MIXED mode with no flux edges")
@pytest.mark.parametrize("mode", ["dirichlet", "mixed"])
def test_cli_verify_a_one_dof_problem(tmp_path, mode):
    # every side of the n = 2 square is D, so one vertex is free: there is
    # no second eigenvalue to separate and one point-mass column to march
    path = write_config(tmp_path / "c.json", {
        "mesh": {"shape": "unit_square", "n": 2, "tags": "D"},
        "coefficients": {"mode": mode}, "output_dir": "out"})
    assert main(["verify", "--config", path]) == 0
    results = {r["label"]: r for r in json.loads(
        (tmp_path / "out" / "verification_report.json").read_text())["results"]}
    assert [label for label, r in results.items()
            if r["verdict"] == "fail"] == []
    gap = results["spectral-gap"]
    assert gap["verdict"] == "not_applicable"
    assert "no second eigenvalue" in gap["payload"]["reason"]
    free = results["principal-positivity"]["payload"]["witness_node"]
    assert results["kernel-positivity"]["payload"]["columns"] == [free]
    assert results["positivity-improving"]["payload"]["trials"] == 1


PARABOLIC_PROBLEM = {
    "mesh": {"shape": "unit_square", "n": 6, "tags": "D"},
    "coefficients": {"mode": "dirichlet"},
    "evolution": {"dt": 0.01, "t_end": 0.1},
}


def _assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in err


@pytest.mark.parametrize("command, evolution, flags", [
    ("kernel", {}, ["--t", "inf"]),
    ("kernel", {}, ["--t", "nan"]),
    ("evolve", {"t_end": float("inf")}, []),
    ("kernel", {"t_end": float("inf")}, []),
    ("verify", {"dt": float("nan")}, []),
    ("verify", {"t_end": float("inf")}, []),
])
def test_cli_non_finite_dt_or_t_end_is_an_error(tmp_path, capsys, command,
                                                evolution, flags):
    # json reads Infinity and NaN; no horizon or step of them is a number
    path = write_config(tmp_path / "c.json", {
        **ROBIN_PROBLEM, "evolution": evolution, "output_dir": "out"})
    assert main([command, "--config", path, *flags]) == 2
    _assert_one_error_line(capsys, "dt and t_end must be finite")
    assert not any((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("section, message", [
    ({"test_bank_size": 0}, "bank size must be positive"),
    ({"evolution": {"dt": 1e-4, "t_end": 3e-4}},
     "need at least five sample times"),
])
def test_cli_rejected_parabolic_config_writes_nothing(tmp_path, capsys,
                                                      section, message):
    # both checks run before the trajectory and the strip are written
    path = write_config(tmp_path / "c.json", {
        **PARABOLIC_PROBLEM, **section, "output_dir": "out"})
    assert main(["parabolic", "--config", path]) == 2
    _assert_one_error_line(capsys, message)
    assert not any((tmp_path / "out").glob("*"))


def test_cli_parabolic_calls_solve_mild_once_before_any_output(
        tmp_path, monkeypatch, capsys):
    # the benchmark's set-up time ends where the command calls solve_mild
    import perronfem.cli as cli
    out = tmp_path / "out"
    listings = []
    solve_mild = cli.solve_mild

    def counted(*args, **kwargs):
        listings.append(sorted(out.glob("*")))
        return solve_mild(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_mild", counted)
    path = write_config(tmp_path / "c.json", {
        "mesh": {"shape": "unit_square", "n": 4, "tags": "D"},
        "coefficients": {"mode": "dirichlet"}, "u0": "x*y*(1-x)*(1-y)",
        "output_dir": "out"})
    assert main(["parabolic", "--config", path]) == 0
    assert listings == [[]]
    assert (out / "verdict.json").exists()
    capsys.readouterr()


def test_cli_parabolic_draws_the_strip_after_the_march_is_freed(
        tmp_path, monkeypatch, capsys):
    # the step factor, the residual's profiles and the bank do not add to
    # the strip's peak: nothing refers to them once the checks are read
    import weakref
    import perronfem.cli as cli
    refs, alive = [], []

    def tracked(make):
        def build(*args, **kwargs):
            obj = make(*args, **kwargs)
            refs.append(weakref.ref(obj))
            return obj
        return build

    def strip(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return render_strip(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_mild", tracked(cli.solve_mild))
    monkeypatch.setattr(cli, "WeakResidual", tracked(cli.WeakResidual))
    monkeypatch.setattr(cli, "PositivityScan", tracked(cli.PositivityScan))
    monkeypatch.setattr(cli, "render_strip", strip)
    path = write_config(tmp_path / "c.json", {
        **PARABOLIC_PROBLEM, "u0": "x*y*(1-x)*(1-y)", "output_dir": "out"})
    assert main(["parabolic", "--config", path]) == 0
    assert alive == [[False, False, False]]
    capsys.readouterr()


def test_cli_only_trajectory_writers_import_orjson(tmp_path):
    # importing the command line (and the renderers with it) does not load
    # orjson; verify, eig and kernel never write a trajectory: they keep
    # today's imports; evolve writes one through orjson
    import os
    import subprocess
    import sys
    import perronfem
    path = write_config(tmp_path / "c.json", {
        **ROBIN_PROBLEM, "mesh": {"shape": "unit_square", "n": 4, "tags": "N"},
        "evolution": {"dt": 0.01, "t_end": 0.03}, "output_dir": "out"})
    script = (
        "import sys\n"
        "from perronfem.cli import main\n"
        "print('orjson after import', 'orjson' in sys.modules)\n"
        "for command in ('verify', 'evolve'):\n"
        "    assert main([command, '--config', sys.argv[1]]) == 0\n"
        "    print('orjson after', command, 'orjson' in sys.modules)\n")
    src = str(Path(perronfem.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", script, path],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert [line for line in run.stdout.splitlines()
            if line.startswith("orjson after")] == \
        ["orjson after import False", "orjson after verify False",
         "orjson after evolve True"]


def test_main_freezes_the_object_graph_and_importing_does_not(tmp_path):
    # a command moves what is alive into the permanent generation, so the
    # collection at exit skips the import graph; importing freezes nothing
    import os
    import subprocess
    import sys
    import perronfem
    path = write_config(tmp_path / "c.json", {
        **ROBIN_PROBLEM, "mesh": {"shape": "unit_square", "n": 4, "tags": "N"},
        "evolution": {"dt": 0.01, "t_end": 0.03}, "output_dir": "out"})
    script = (
        "import gc, sys\n"
        "from perronfem.cli import main\n"
        "print('frozen after import', gc.get_freeze_count())\n"
        "print('verify', main(['verify', '--config', sys.argv[1]]))\n"
        "print('frozen after verify', gc.get_freeze_count() > 0)\n")
    src = str(Path(perronfem.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", script, path],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert [line for line in run.stdout.splitlines()
            if line.startswith(("frozen", "verify"))] == \
        ["frozen after import 0", "verify 0", "frozen after verify True"]


def _parabolic_traced_peak(tmp_path, steps):
    import tracemalloc
    path = write_config(tmp_path / f"c{steps}.json", {
        "mesh": {"shape": "unit_square", "n": 16, "tags": "D"},
        "coefficients": {"mode": "dirichlet"},
        "evolution": {"dt": 0.4 / steps, "t_end": 0.4},
        "u0": "1 + x*y*(1-x)*(1-y)", "phi": {"constant": 1.0},
        "output_dir": f"out{steps}"})
    tracemalloc.start()
    try:
        assert main(["parabolic", "--config", path]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cli_parabolic_memory_does_not_grow_by_a_state_per_step(tmp_path,
                                                                capsys):
    # the march hands each block of states on and keeps at most six for
    # the strip; a stacked trajectory grew the peak by 360 rows of 289
    # vertices (832 KB). What grows is the weak residual's two pairings
    # per test function and step (20 functions, 115 KB), and t itself.
    _parabolic_traced_peak(tmp_path, 20)  # first-call allocations
    short = _parabolic_traced_peak(tmp_path, 40)
    long = _parabolic_traced_peak(tmp_path, 400)
    row = 8 * 17 ** 2
    pairings = 8 * 2 * 20 * 360
    assert long - short < pairings + 8 * row
    capsys.readouterr()


@pytest.mark.parametrize("command", ["evolve", "parabolic"])
@pytest.mark.parametrize("expr", ["1/0", "x/0"])
def test_cli_field_without_a_finite_value_is_an_error(tmp_path, capsys,
                                                      command, expr):
    base = ROBIN_PROBLEM if command == "evolve" else PARABOLIC_PROBLEM
    path = write_config(tmp_path / "c.json",
                        {**base, "u0": expr, "output_dir": "out"})
    assert main([command, "--config", path]) == 2
    _assert_one_error_line(capsys, "division by zero")
    assert not (tmp_path / "out" / "trajectory.csv").exists()


@pytest.mark.parametrize("command, section, message", [
    ("eig", {"solver": [1]}, "solver: expected an object"),
    ("verify", {"solver": [1]}, "solver: expected an object"),
    ("verify", {"solver": {"tol": -1}}, "tol must be positive"),
    ("eig", {"solver": {"tol": float("inf")}}, "tol must be positive"),
    ("evolve", {"evolution": [1]}, "evolution: expected an object"),
    ("kernel", {"evolution": [1]}, "evolution: expected an object"),
    ("parabolic", {"evolution": [1]}, "evolution: expected an object"),
    ("verify", {"evolution": [1]}, "evolution: expected an object"),
    ("verify", {"evolution": {"dt": 0.01, "t_end": 0.001}},
     "t_end must be at least dt"),
    ("verify", {"oracle": [1]}, "oracle: expected an object"),
    ("verify", {"oracle": {"matrix": [[-1.0, -0.5], [1.0, -1.0]]}},
     "is negative"),
    ("parabolic", {"phi": {"samples": [1]}},
     "phi sample: expected an object"),
    ("eig", {"solver": {"tol": [1]}}, "solver: tol must be a number"),
    ("parabolic", {"phi": {"samples": 5}}, "phi: samples must be a list"),
    ("parabolic", {"phi": {"samples": [{"t": 0.0}]}},
     "phi sample: missing key 'expr'"),
    ("parabolic", {"test_bank_size": "8"},
     "config: test_bank_size must be a number"),
    ("evolve", {"evolution": {"dt": [0.01]}}, "evolution: dt must be a number"),
    ("verify", {"mesh": {"shape": "unit_square", "n": [4], "tags": "N"}},
     "mesh: n must be a number"),
    ("verify", {"oracle": {"expect_irreducible": True}},
     "oracle: missing key 'matrix'"),
    # values of the wrong kind: each ended in a traceback, a FAIL from a
    # NaN coefficient or the oracle, or a silently truncated n
    ("verify", {"mesh": {"shape": [], "n": 4}},
     "mesh: shape must be a string"),
    ("verify", {"mesh": {"n": 4, "tags": 5}},
     "mesh: tags must be a string or an object"),
    ("verify", {"mesh": {"n": 4, "tags": None}},
     "mesh: tags must be a string or an object"),
    ("verify", {"mesh": {"path": 5}}, "mesh: path must be a string"),
    ("verify", {"output_dir": 5}, "config: output_dir must be a string"),
    ("verify", {"coefficients": {"beta": None}},
     "coefficients: beta must be a finite number"),
    ("verify", {"coefficients": {"beta": 1.0, "mu": None}},
     "coefficients: mu must be a finite number"),
    ("verify", {"coefficients": {"beta": {"re": "a"}}},
     "coefficients: beta must be a finite number"),
    ("verify", {"coefficients": {"beta": 1.0, "c0": None}},
     "coefficients: c0 must be finite numbers"),
    ("verify", {"oracle": {"matrix": [[-1.0, 1.0], [1.0, -1.0]],
                           "expect_irreducible": "yes"}},
     "oracle: expect_irreducible must be true or false"),
    ("verify", {"mesh": {"n": 2.5, "tags": "N"}},
     "mesh: n must be an integer"),
    # JSON's NaN and Infinity: a NaN corkscrew delta was a corkscrew FAIL
    # and exit 1, a NaN width "boundary edge (0, 1) not on any shape segment"
    ("verify", {"mesh": {"shape": "l_shape", "n": 4,
                         "tags": LSHAPE_MIXED_TAGS},
                "coefficients": {"mode": "mixed"},
                "corkscrew_delta": float("nan")},
     "config: corkscrew_delta must be finite, got nan"),
    ("verify", {"mesh": {"shape": "rectangle", "n": 4, "tags": "N",
                         "width": float("nan")}},
     "mesh: width must be finite, got nan"),
    ("eig", {"mesh": {"shape": "rectangle", "n": 4, "tags": "N",
                      "height": float("inf")}},
     "mesh: height must be finite, got inf"),
    ("parabolic", {"phi": {"constant": float("nan")}},
     "phi: constant must be finite, got nan"),
    ("parabolic", {"phi": {"samples": [{"t": float("-inf"), "expr": "0"}]}},
     "phi sample: t must be finite, got -inf"),
    # numpy's bare "expected non-negative integer" and "setting an array
    # element with a sequence", or a TypeError traceback for an object
    ("parabolic", {"seed": -1},
     "config: seed must be a nonnegative integer, got -1"),
    ("verify", {"oracle": {"matrix": [[-1.0, 1.0], [1.0]]}},
     "oracle: matrix must be a list of equal-length rows of finite numbers"),
    ("verify", {"oracle": {"matrix": {"Q": 1}}},
     "oracle: matrix must be a list of equal-length rows"),
    ("verify", {"oracle": {"matrix": [[-1.0, "1"], [1.0, -1.0]]}},
     "oracle: matrix must be a list of equal-length rows"),
    ("verify", {"oracle": {"matrix": [[-1.0, float("nan")], [1.0, -1.0]]}},
     "oracle: matrix must be a list of equal-length rows of finite numbers"),
    # only parabolic draws anything, so only it takes a seed
    ("eig", {"seed": 0}, "config: unknown key(s) ['seed']"),
    ("evolve", {"seed": 0}, "config: unknown key(s) ['seed']"),
    ("kernel", {"seed": 0}, "config: unknown key(s) ['seed']"),
    ("verify", {"seed": 0}, "config: unknown key(s) ['seed']"),
    # eig always writes its CSV and SVG, so it takes no switch for them
    ("eig", {"emit_csv": False}, "config: unknown key(s) ['emit_csv']"),
    # sizes the generator ignores: each built the fixed-size shape
    ("eig", {"mesh": {"shape": "unit_square", "width": 5, "height": 0.01}},
     "mesh: width applies only to the rectangle shape, not unit_square"),
    ("verify", {"mesh": {"n": 4, "tags": "N", "height": 2.0}},
     "mesh: height applies only to the rectangle shape, not unit_square"),
    ("parabolic", {"mesh": {"shape": "l_shape", "n": 2, "tags": "D",
                            "width": 7}},
     "mesh: width applies only to the rectangle shape, not l_shape"),    # eig solved, made its output directory, then printed "k must be at
    # least 2"
    ("eig", {"gap_count": 1}, "config: gap_count must be at least 2, got 1"),
    ("eig", {"gap_count": 0}, "config: gap_count must be at least 2, got 0"),
    ("eig", {"gap_count": -3},
     "config: gap_count must be at least 2, got -3"),
])
def test_cli_malformed_section_is_an_error(tmp_path, capsys, command,
                                           section, message):
    base = PARABOLIC_PROBLEM if command == "parabolic" else ROBIN_PROBLEM
    path = write_config(tmp_path / "c.json",
                        {**base, "output_dir": "out", **section})
    assert main([command, "--config", path]) == 2
    _assert_one_error_line(capsys, message)
    assert not (tmp_path / "out" / "verification_report.json").exists()


# -- config fuzz: every accepted input ends in a verdict or one error line ----

_FUZZ_BASES = {
    "eig": {**ROBIN_PROBLEM, "mesh": {"shape": "unit_square", "n": 3,
                                      "tags": "N"}},
    "evolve": {**ROBIN_PROBLEM,
               "mesh": {"shape": "unit_square", "n": 3, "tags": "N"},
               "evolution": {"dt": 0.01, "t_end": 0.03}, "u0": "1+x*y"},
    "parabolic": {**PARABOLIC_PROBLEM,
                  "mesh": {"shape": "unit_square", "n": 3, "tags": "D"},
                  "evolution": {"dt": 0.01, "t_end": 0.05},
                  "u0": "x*y*(1-x)*(1-y)", "phi": {"constant": 0.0},
                  "test_bank_size": 3},
    "verify": {**ROBIN_PROBLEM,
               "mesh": {"shape": "unit_square", "n": 3, "tags": "N"},
               "evolution": {"dt": 0.01, "t_end": 0.03},
               "oracle": {"matrix": [[-1.0, 1.0], [1.0, -1.0]]}},
}
_FUZZ_SECTIONS = {
    "mesh": ("shape", "n", "tags", "width", "height", "path"),
    "coefficients": ("a", "b", "c", "c0", "beta", "mu", "mode"),
    "evolution": ("scheme", "dt", "t_end", "mass"),
    "solver": ("tol",),
    "phi": ("constant", "samples"),
    "oracle": ("matrix", "expect_irreducible"),
}
# names the config knows, plus text it does not; none holds a path
# separator, so output_dir stays inside the run's directory
_FUZZ_WORDS = ("", "D", "N", "flux", "robin", "dirichlet", "neumann",
               "mixed", "complex_robin", "unit_square", "rectangle",
               "l_shape", "implicit_euler", "crank_nicolson", "lumped",
               "consistent", "x*y", "1/0", "x+", "re", "im", "t", "expr",
               "constant", "n", "out")


# numbers are at most 3 in size and at least 0.01 away from zero (or zero),
# so n <= 3 and no horizon takes more than 300 steps
_FUZZ_NUMBERS = st.integers(-3, 3) | st.sampled_from(
    [0.5, -0.5, 0.01, 2.5, -0.0, float("nan"), float("inf"), float("-inf")])
_FUZZ_WORD = st.sampled_from(_FUZZ_WORDS)
# mostly scalars, which a key often accepts, then nested values
_FUZZ_VALUES = (_FUZZ_NUMBERS | _FUZZ_WORD | st.none() | st.booleans()
                | st.recursive(_FUZZ_NUMBERS | _FUZZ_WORD,
                               lambda inner: st.lists(inner, max_size=3)
                               | st.dictionaries(_FUZZ_WORD, inner,
                                                 max_size=2),
                               max_leaves=4))


def _fuzz_edits(command):
    """One or two (key path, JSON value) pairs over every top-level key the
    command accepts and every key of its sections."""
    from perronfem import cli
    keys = {"eig": cli._EIG_KEYS, "evolve": cli._EVOLVE_KEYS,
            "parabolic": cli._PARABOLIC_KEYS,
            "verify": cli._VERIFY_KEYS}[command]
    paths = [(key,) for key in sorted(keys)] + [
        (key, sub) for key in sorted(keys & set(_FUZZ_SECTIONS))
        for sub in _FUZZ_SECTIONS[key]]
    return st.lists(st.tuples(st.sampled_from(paths), _FUZZ_VALUES),
                    min_size=1, max_size=2)


@pytest.mark.parametrize("command", sorted(_FUZZ_BASES))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_config_fuzz_ends_in_a_verdict_or_one_error_line(command, data):
    # random JSON values under every key a command reads: each run exits 0
    # or 1 with a verdict, or 2 with one "error:" line, never with an
    # exception out of main
    import contextlib
    import copy
    import tempfile
    cfg = copy.deepcopy(dict(_FUZZ_BASES[command], output_dir="out"))
    for path, value in data.draw(_fuzz_edits(command)):
        if len(path) == 1:
            cfg[path[0]] = value
        elif isinstance(cfg.setdefault(path[0], {}), dict):
            cfg[path[0]][path[1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([command, "--config",
                     write_config(Path(tmp) / "c.json", cfg)])
    if code == 2:
        assert err.getvalue().startswith("error: ") \
            and err.getvalue().count("\n") == 1, (cfg, err.getvalue())
    else:
        assert code in (0, 1), cfg


def test_cli_initial_data_may_be_a_json_number(tmp_path):
    # evolve reads u0 as parabolic does: 5 and "5" are one constant field
    outputs = []
    for u0 in (5, "5"):
        out = tmp_path / str(type(u0).__name__)
        path = write_config(tmp_path / "c.json", {
            **ROBIN_PROBLEM, "mesh": {"shape": "unit_square", "n": 4,
                                      "tags": "N"},
            "evolution": {"dt": 0.01, "t_end": 0.03}, "u0": u0,
            "output_dir": str(out)})
        assert main(["evolve", "--config", path]) == 0
        outputs.append((out / "trajectory.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["evolve", "kernel", "parabolic"])
def test_cli_failed_step_factorization_is_an_error(tmp_path, capsys,
                                                   monkeypatch, command):
    import scipy.sparse.linalg

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")
    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    base = PARABOLIC_PROBLEM if command == "parabolic" else ROBIN_PROBLEM
    path = write_config(tmp_path / "c.json", {**base, "output_dir": "out"})
    assert main([command, "--config", path]) == 2
    _assert_one_error_line(capsys, "singular step matrix")


# two unit squares, each fanned around its centre, joined by a strip of two
# triangles whose vertices all lie on the boundary: the two interior
# vertices share no triangle, so the interior coupling graph is disconnected
SPLIT_INTERIOR_MESH = """trimesh 2
vertices 10
0.0 0.0
1.0 0.0
1.0 1.0
0.0 1.0
0.5 0.5
2.0 0.0
3.0 0.0
3.0 1.0
2.0 1.0
2.5 0.5
triangles 10
0 1 4
1 2 4
2 3 4
3 0 4
5 6 9
6 7 9
7 8 9
8 5 9
1 5 8
1 8 2
boundary 8
0 1 D
1 5 D
5 6 D
6 7 D
7 8 D
8 2 D
2 3 D
3 0 D
"""


# the Dirichlet square at n = 4 with c0 = -40: the step certificate holds,
# but lambda1 < 0, so every step grows the state about 2.9-fold and the
# default dt (1/32) leaves the float range near step 650 of t = 25's 800
GROWING_PROBLEM = {
    "mesh": {"shape": "unit_square", "n": 4, "tags": "D"},
    "coefficients": {"mode": "dirichlet", "c0": -40},
    "output_dir": "out",
}


@pytest.mark.parametrize("command, section", [
    ("kernel", {"evolution": {"t_end": 25}}),
    ("evolve", {"evolution": {"t_end": 25}, "u0": "1"}),
    ("parabolic", {"u0": "1e300", "phi": {"constant": 1e300}}),
])
def test_cli_a_march_out_of_the_float_range_is_an_error(tmp_path, capsys,
                                                        command, section):
    # kernel and verify ended in an AssertionError on a NaN entry; evolve
    # and parabolic wrote NaN rows, and parabolic a strong positivity pass
    path = write_config(tmp_path / "c.json", {**GROWING_PROBLEM, **section})
    assert main([command, "--config", path]) == 2
    _assert_one_error_line(capsys, "the state at step", "is not finite")
    if command != "kernel":
        # the rows before the failing step stay, and none is NaN
        text = (tmp_path / "out" / "trajectory.csv").read_text()
        assert "nan" not in text and 2 < text.count("\n") < 802
        assert not (tmp_path / "out" / "verdict.json").exists()


def test_cli_verify_fails_a_march_out_of_the_float_range(tmp_path, capsys):
    path = write_config(tmp_path / "c.json",
                        {**GROWING_PROBLEM, "evolution": {"t_end": 25}})
    assert main(["verify", "--config", path]) == 1
    results = {r["label"]: r for r in json.loads(
        (tmp_path / "out" / "verification_report.json").read_text())[
            "results"]}
    for label in ("positivity-improving", "kernel-positivity",
                  "kernel-symmetry", "chapman-kolmogorov"):
        assert results[label]["verdict"] == "fail"
        assert results[label]["payload"]["reason"] == "solver failure"
        assert "is not finite" in results[label]["payload"]["error"]
    capsys.readouterr()


MARCH_LABELS = ("positivity-improving", "kernel-positivity",
                "kernel-symmetry", "chapman-kolmogorov")


def test_cli_verify_runs_a_failed_probe_march_once(tmp_path, monkeypatch,
                                                   capsys):
    # the march was a cached_property, which keeps no raised error, so
    # each of the four checks that read it marched again to step 649
    import perronfem.verification as verification
    calls = []
    kernel = verification.kernel

    def counted(*args, **kwargs):
        calls.append(args[1])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(verification, "kernel", counted)
    path = write_config(tmp_path / "c.json",
                        {**GROWING_PROBLEM, "evolution": {"t_end": 25}})
    assert main(["verify", "--config", path]) == 1
    assert len(calls) == 1
    results = {r["label"]: r for r in json.loads(
        (tmp_path / "out" / "verification_report.json").read_text())[
            "results"]}
    errors = {results[label]["payload"]["error"] for label in MARCH_LABELS}
    assert len(errors) == 1 and "is not finite" in errors.pop()
    for label in MARCH_LABELS:
        assert results[label]["verdict"] == "fail"
        assert results[label]["payload"]["reason"] == "solver failure"
        assert main(["verify", "--config", path, "--only", label]) == 1
        (only,) = json.loads((tmp_path / "out" / "verification_report.json"
                              ).read_text())["results"]
        assert only == results[label]
    capsys.readouterr()


def test_kernel_probes_are_read_only():
    from perronfem.verification import kernel_probes
    problem = make_problem("robin")
    probes = kernel_probes(problem.op, problem.evolution_cfg)
    assert probes is kernel_probes(problem.op, problem.evolution_cfg)
    arrays = [a for a in probes if isinstance(a, np.ndarray)]
    assert len(arrays) == 7
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


@pytest.mark.parametrize("command, cfg", [
    ("evolve", {**ROBIN_PROBLEM, "u0": "1/0"}),
    ("parabolic", {**PARABOLIC_PROBLEM, "u0": "1", "phi": 0}),
    # a square with no Dirichlet edge: assembly refuses mode dirichlet
    ("verify", {"mesh": {"shape": "unit_square", "n": 4, "tags": "N"},
                "coefficients": {"mode": "dirichlet"}}),
    ("eig", {"mesh": {"shape": "unit_square", "n": 4, "tags": "N"},
             "coefficients": {"mode": "dirichlet"}}),
    ("kernel", {**GROWING_PROBLEM, "evolution": {"t_end": 25}}),
])
def test_cli_a_rejected_input_or_failed_solve_leaves_no_output_dir(
        tmp_path, capsys, command, cfg):
    # each made an empty out/ before it computed anything
    path = write_config(tmp_path / "c.json", {**cfg, "output_dir": "out"})
    assert main([command, "--config", path]) == 2
    _assert_one_error_line(capsys)
    assert not (tmp_path / "out").exists()


def test_cli_parabolic_weak_residual_keeps_a_nan_term(tmp_path, capsys):
    # the states stay finite, but 14 of the 20 bank terms overflow to NaN;
    # the residual was 1.952e+292, the largest of the other six
    path = write_config(tmp_path / "c.json", {
        **GROWING_PROBLEM, "coefficients": {"mode": "dirichlet"},
        "u0": "1e308", "phi": {"constant": 1e308}})
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["parabolic", "--config", path]) == 0
    verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert verdict["very_weak_residual"] == "nan"
    assert "weak residual nan" in capsys.readouterr().out


@pytest.mark.parametrize("scheme, reason", [
    ("implicit_euler", "reducible"),
    ("crank_nicolson", "implicit Euler with lumped mass")])
def test_cli_parabolic_on_a_disconnected_interior_is_not_applicable(
        tmp_path, scheme, reason):
    # this mesh once ended the run with exit 2 and no verdict.json
    (tmp_path / "mesh.txt").write_text(SPLIT_INTERIOR_MESH)
    cfg = {"mesh": "mesh.txt", "coefficients": {"mode": "dirichlet"},
           "evolution": {"scheme": scheme}, "u0": "1", "phi": 1,
           "output_dir": "out"}
    path = write_config(tmp_path / "c.json", cfg)
    assert main(["parabolic", "--config", path]) == 0
    verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
    positivity = verdict["strong_positivity"]
    assert positivity["verdict"] == "not_applicable"
    assert reason in positivity["reason"]


def _assert_n44_robin_marches_80_steps(tmp_path, cfg):
    """positivity-improving and kernel-positivity PASS on a Robin n = 44
    square over 80 steps, though its stiffness-graph diameter is 88: the
    certificate holds from step 1."""
    mesh = {"shape": "unit_square", "n": 44, "tags": "N"}
    path = write_config(tmp_path / "c.json", {
        "mesh": mesh, "coefficients": {"beta": 1.0, "mode": "robin"}, **cfg})
    results = {}
    for label in ("positivity-improving", "kernel-positivity"):
        assert main(["verify", "--config", path, "--only", label]) == 0
        report = json.loads(
            (tmp_path / "verification_report.json").read_text())
        (results[label],) = report["results"]
        assert results[label]["verdict"] == "pass"
    dt = default_dt(generate_structured(mesh["shape"], mesh["n"], "N"))
    assert results["kernel-positivity"]["payload"]["t"] == 80 * dt


def test_cli_default_horizon_is_80_steps_at_n44(tmp_path):
    _assert_n44_robin_marches_80_steps(tmp_path, {})


def test_cli_verify_kernel_symmetry_not_applicable_under_consistent_mass(
        tmp_path):
    # K(t) = S^n M_L^-1 is not symmetric when S uses the consistent mass;
    # the check once reported FAIL here (max_asymmetry 0.203, exit 1)
    cfg = {"mesh": {"shape": "unit_square", "n": 6, "tags": "N"},
           "coefficients": {"beta": 1.0, "mode": "robin"},
           "evolution": {"mass": "consistent"}}
    path = write_config(tmp_path / "c.json", cfg)
    assert main(["verify", "--config", path]) == 0
    report = json.loads((tmp_path / "verification_report.json").read_text())
    by_label = {r["label"]: r for r in report["results"]}
    assert by_label["kernel-symmetry"]["verdict"] == "not_applicable"
    assert "lumped mass" in by_label["kernel-symmetry"]["payload"]["reason"]


# verification_report.json bytes of fixed configs: complex6 recorded before
# the spectral checks shared one solve per operator, which moved no bit.
# complex6 was re-pinned when perron-sign-structure began to give complex
# operators the reason "complex operator"; that string is the only
# difference. robin6, dirichlet6 and lshape4 were re-pinned when the kernel
# checks moved to the structural certificate and probe columns; only the
# payloads of kernel-positivity, kernel-symmetry and chapman-kolmogorov
# differ. They were re-pinned again when positivity-improving began to read
# the certificate and the same march's peripheral-pair columns; only its
# payload differs. complex6 was re-pinned again when the dense non-Hermitian
# spectrum moved from QZ to a Cholesky-reduced standard eigensolve; only
# eigenvalue digits differ, by ~1e-13 relative. robin6, dirichlet6 and
# lshape4 were re-pinned when every factorization moved to minimum-degree
# ordering and the Hermitian sweep to a Rayleigh-Ritz step on the pencil:
# float digits move, by <= 1.5e-14 relative outside the residual-sized
# entries, the verdicts do not; dirichlet6's principal-positivity witness
# moves between two mirror-image vertices with the same minimum. complex6
# was re-pinned when certified shift-invert Arnoldi replaced the dense
# spectrum; only eigenvalue digits differ, by <= 1e-13 relative. robin6,
# dirichlet6 and lshape4 were re-pinned when the probe block went from 16
# to 4 columns: only the kernel-symmetry and chapman-kolmogorov payloads
# differ (probes, max_asymmetry, max_deviation); the peripheral-pair
# columns, and so the kernel-positivity and positivity-improving payloads,
# are bitwise the same. robin6, dirichlet6 and lshape4 were re-pinned when
# the lumped pencil's solve became one pair warm-started from the consistent
# pairs: only perron-sign-structure's lambda1_lumped and min_component
# differ, by <= 2.5e-11 relative. robin6, dirichlet6 and lshape4 were
# re-pinned when positivity-improving began to sample the peripheral pair at
# step 1 instead of the diameter step: its min_at_threshold became
# min_at_first_step, with the step-1 value; nothing else moved. robin6,
# dirichlet6, lshape4 and complex6 were re-pinned when both Hermitian
# pencils began to iterate through the stiffness's own factor (shift 0 under
# the M-matrix certificate): eigenvalues, gaps, minima and complex6's
# real-part problem move by <= 2.2e-11 relative, the round-off-sized
# residuals by up to 65%; no verdict moved. robin6, dirichlet6 and lshape4
# were re-pinned when chapman-kolmogorov moved from K(2t) = K(t) M_L K(t)
# to the split K(t) = K(t2) M_L K(t1) of the one horizon: only its
# round-off-sized max_deviation differs. robin6, dirichlet6 and lshape4 were
# re-pinned when the graph diameter was no longer computed: only
# positivity-improving's "threshold_step" line (12, 8 and 15) is gone; the
# breadth-first sweeps pick the same probe columns. robin6, dirichlet6 and
# lshape4 were re-pinned when kernel-positivity lost its
# "boundary_rows_zero" line, true by construction on dof-space columns;
# nothing else moved. complex6 was re-pinned when positivity applicability
# came from the operator rather than the mode: principal-positivity gives
# the non-Hermitian reason, positivity-improving and kernel-positivity the
# "complex operator" reason (positivity-improving with "trials": 0) in
# place of "no positivity region"; nothing else moved.
PINNED_REPORTS = {
    "robin6": ({
        "mesh": {"shape": "unit_square", "n": 6, "tags": "N"},
        "coefficients": {"beta": 1.5, "mode": "robin"},
        "oracle": {"matrix": [[-2.0, 1.0, 0.0], [0.0, -2.0, 1.0],
                              [0.5, 0.0, -2.0]],
                   "expect_irreducible": True},
    }, "e4339646d3e410c509eb72b160a9fb5879789d9c8d11c7f42269344a7398acc3"),
    "dirichlet6": ({
        "mesh": {"shape": "unit_square", "n": 6, "tags": "D"},
        "coefficients": {"mode": "dirichlet"},
    }, "a3a07a652e4a43ee79a10d5d4c5f1adf6b3fde6841defe7f0f020ddf783cc40a"),
    "complex6": ({
        "mesh": {"shape": "unit_square", "n": 6, "tags": "N"},
        "coefficients": {"beta": {"re": 1.0, "im": 0.5},
                         "mode": "complex_robin"},
    }, "c6e116a782f9a691a33808eac7f7011f7d67b0444488a8596c67ae287aec4148"),
    "lshape4": ({
        "mesh": {"shape": "l_shape", "n": 4, "tags": LSHAPE_MIXED_TAGS},
        "coefficients": {"mode": "mixed"},
    }, "6cec77b36ca37fa938eaa6c4180910d320dfd494da386c997211e239274eaf12"),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_cli_verify_report_bytes_pinned(tmp_path, name):
    import hashlib
    cfg, digest = PINNED_REPORTS[name]

    def run(out, *only):
        path = write_config(tmp_path / f"{out}.json",
                            dict(cfg, output_dir=out))
        assert main(["verify", "--config", path, *only]) == 0
        return (tmp_path / out / "verification_report.json").read_bytes()

    full = run("full")
    assert hashlib.sha256(full).hexdigest() == digest
    by_label = {r["label"]: r for r in json.loads(full)["results"]}
    # every check alone gives the suite's payload: a kernel check marches
    # the same probes, perron-sign-structure warm-starts from the same
    # consistent pairs
    for label, result in by_label.items():
        (alone,) = json.loads(run(label, "--only", label))["results"]
        assert alone == result


def test_cli_verify_one_step_horizon_has_no_split(tmp_path):
    # t_end = dt leaves no t1 > 0 to split the horizon at: chapman-kolmogorov
    # is not applicable, and every other check keeps its verdict
    cfg, _ = PINNED_REPORTS["robin6"]
    verdicts = {}
    for out, extra in (("default", {}),
                       ("one_step", {"evolution": {"dt": 0.01,
                                                   "t_end": 0.01}})):
        path = write_config(tmp_path / f"{out}.json",
                            dict(cfg, output_dir=out, **extra))
        assert main(["verify", "--config", path]) == 0
        report = json.loads(
            (tmp_path / out / "verification_report.json").read_text())
        verdicts[out] = {r["label"]: r for r in report["results"]}
    ck = verdicts["one_step"].pop("chapman-kolmogorov")
    assert ck["verdict"] == "not_applicable"
    assert ck["payload"] == {"reason": "a one-step horizon has no split"}
    assert verdicts["default"].pop("chapman-kolmogorov")["verdict"] == "pass"
    assert {label: r["verdict"] for label, r in verdicts["one_step"].items()} \
        == {label: r["verdict"] for label, r in verdicts["default"].items()}


# eig_report.json bytes, recorded before the CLI and the suite shared one
# JSON conversion; complex6 re-pinned with the Cholesky-reduced dense
# eigensolve (eigenvalues and residual in the last digits), robin6 with
# the minimum-degree ordering and the Rayleigh-Ritz sweep on the pencil
# (eigenvalues in the last digits, residual 2.0e-14 -> 1.3e-14), complex6
# again with certified Arnoldi (eigenvalues in the last digits, residual
# 7.0e-13 -> 4.5e-14), robin6 again with the zero shift through the
# stiffness's factor (eigenvalues <= 1.4e-15 relative, residual 1.3e-14 ->
# 2.1e-14), complex6 again when every mode got a positivity region (a
# "positivity" entry with the non-Hermitian reason; nothing else moved)
PINNED_EIG_REPORTS = {
    "robin6": (
        {"beta": 1.5, "mode": "robin"},
        "3d168066934cf0edd23501f6cf30bd0497ebdbde9e2273f85c862da506eda0ce"),
    "complex6": (
        {"beta": {"re": 1.0, "im": 0.5}, "mode": "complex_robin"},
        "188ba47395aa54649e2dcd11bd7a1ec373ff8b9bfa8d90452d3383c011e452ca"),
}


@pytest.mark.parametrize("name", sorted(PINNED_EIG_REPORTS))
def test_cli_eig_report_bytes_pinned(tmp_path, name):
    import hashlib
    coefficients, digest = PINNED_EIG_REPORTS[name]
    path = write_config(tmp_path / "c.json", {
        "mesh": {"shape": "unit_square", "n": 6, "tags": "N"},
        "coefficients": coefficients, "gap_count": 3, "output_dir": "out"})
    assert main(["eig", "--config", path]) == 0
    blob = (tmp_path / "out" / "eig_report.json").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_jsonable_gives_strict_json():
    from perronfem.verification import jsonable
    obj = jsonable({"x": np.float64(0.5), "inf": np.inf, "z": 1.0 + 2.0j,
                    "v": np.arange(2), "n": np.int64(3), "b": np.bool_(True),
                    "t": (np.nan,)})
    assert obj == {"x": 0.5, "inf": "inf", "z": {"re": 1.0, "im": 2.0},
                   "v": [0, 1], "n": 3, "b": True, "t": ["nan"]}
    json.dumps(obj, allow_nan=False)


# -- one solve per operator --------------------------------------------------------

def test_complex_verify_runs_one_arnoldi_solve(tmp_path, monkeypatch):
    import scipy.linalg
    import scipy.sparse.linalg
    calls = {"eig": [], "eigs": []}
    eig, eigs = scipy.linalg.eig, scipy.sparse.linalg.eigs
    monkeypatch.setattr(
        scipy.linalg, "eig",
        lambda *a, **kw: calls["eig"].append(1) or eig(*a, **kw))
    monkeypatch.setattr(
        scipy.sparse.linalg, "eigs",
        lambda *a, **kw: calls["eigs"].append(kw["k"]) or eigs(*a, **kw))
    cfg, _ = PINNED_REPORTS["complex6"]
    path = write_config(tmp_path / "c.json", dict(cfg, output_dir="out"))
    assert main(["verify", "--config", path]) == 0
    # principal-positivity, spectral-gap and the complex Robin bound share
    # one certified solve: two pairs and two guards, no dense spectrum
    assert calls == {"eig": [], "eigs": [4]}


def test_complex_verify_at_the_suite_tol_runs_one_arnoldi_solve(
        tmp_path, monkeypatch):
    # the complex Robin bound solves at solver.tol, so it reads the
    # spectral-gap solve instead of running Arnoldi again at 1e-10
    import scipy.sparse.linalg
    tols = []
    eigs = scipy.sparse.linalg.eigs
    monkeypatch.setattr(
        scipy.sparse.linalg, "eigs",
        lambda *a, **kw: tols.append(kw["tol"]) or eigs(*a, **kw))
    path = write_config(tmp_path / "c.json", {
        "mesh": {"shape": "unit_square", "n": 20, "tags": "N"},
        "coefficients": {"beta": {"re": 1.3, "im": 0.9},
                         "mode": "complex_robin"},
        "solver": {"tol": 1e-8}, "output_dir": "out"})
    assert main(["verify", "--config", path]) == 0
    assert tols == [1e-8]
    results = json.loads((tmp_path / "out" / "verification_report.json")
                         .read_text(encoding="utf-8"))["results"]
    (bound,) = [r for r in results
                if r["label"] == "complex-robin-strict-bound"]
    assert bound["verdict"] == "pass"


def test_verify_factorizes_each_pencil_once(monkeypatch):
    import scipy.sparse.linalg
    calls = []
    splu = scipy.sparse.linalg.splu
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda *a, **kw: calls.append(1) or splu(*a, **kw))
    problem = make_problem("robin")
    for label in ("principal-positivity", "spectral-gap"):
        (result,) = run_suite(problem, only=label).results
        assert result.verdict is Verdict.PASS
    assert len(calls) == 1  # the stiffness, a certified M-matrix
    run_suite(problem, only="perron-sign-structure")
    assert len(calls) == 1  # its factor serves the lumped pencil too


@pytest.mark.parametrize("tags, coefficients", [
    ("D", {"mode": "dirichlet"}), ("N", {"beta": 1.0, "mode": "robin"})],
    ids=["dirichlet", "robin"])
def test_cli_verify_a_square_of_side_one_32nd(tmp_path, tags, coefficients):
    # inverse iteration stalls at residuals of 1.2e-10 to 1.3e-10 here:
    # above tol 1e-10, inside the bound 2f (f = 4.7e-10 and 5.3e-10) at
    # which the sweeps stop
    path = write_config(tmp_path / "c.json", {
        "mesh": {"shape": "rectangle", "n": 16, "tags": tags,
                 "width": 0.03125, "height": 0.03125},
        "coefficients": coefficients, "output_dir": "out"})
    assert main(["verify", "--config", path]) == 0


def test_cli_verify_a_complex_robin_square_of_side_one_128th(tmp_path,
                                                             capsys):
    # shift-invert Arnoldi leaves residuals of 3.5e-9 and 5.3e-9 here, inside
    # the bound 2f (f = 8.4e-9), which grows as the side shrinks
    path = write_config(tmp_path / "c.json", {
        "mesh": {"shape": "rectangle", "n": 16, "tags": "N",
                 "width": 0.0078125, "height": 0.0078125},
        "coefficients": {"mode": "complex_robin",
                         "beta": {"re": 1.0, "im": 1.0}},
        "output_dir": "out"})
    assert main(["verify", "--config", path]) == 0
    assert "suite: OK" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["robin6", "lshape4", "complex6"])
def test_cli_verify_text_report_prints_no_numpy_reprs(tmp_path, capsys,
                                                      name):
    cfg, _ = PINNED_REPORTS[name]
    path = write_config(tmp_path / "c.json", dict(cfg, output_dir="out"))
    assert main(["verify", "--config", path]) == 0
    text = (tmp_path / "out" / "verification_report.txt").read_text()
    assert "np." not in text and "np." not in capsys.readouterr().out


@pytest.mark.parametrize("name", ["robin6", "lshape4"])
def test_verify_certifies_each_stiffness_once(tmp_path, monkeypatch, name):
    import perronfem
    from perronfem import assembly
    certify, certified = assembly.mmatrix_certificate, []

    def counted(Z, label, *args, **kwargs):
        if label == "stiffness":
            certified.append(Z)
        return certify(Z, label, *args, **kwargs)
    for module in vars(perronfem).values():
        if getattr(module, "mmatrix_certificate", None) is certify:
            monkeypatch.setattr(module, "mmatrix_certificate", counted)
    cfg, _ = PINNED_REPORTS[name]
    path = write_config(tmp_path / "c.json", dict(cfg, output_dir="out"))
    assert main(["verify", "--config", path]) == 0
    assert certified
    assert len({id(Z) for Z in certified}) == len(certified)


def test_a_failed_solve_runs_once(monkeypatch):
    # each check that reads the pair used to run the failing sweeps again
    import perronfem.spectral as spectral
    calls = []

    def failing(op, mass, k, tol, start):
        calls.append((mass, k))
        raise spectral.SolverError("inverse iteration did not converge")
    monkeypatch.setattr(spectral, "_hermitian_pairs", failing)
    problem = make_problem("mixed")
    labels = ("principal-positivity", "constrained-trace-zero",
              "perron-sign-structure", "spectral-gap")
    for label in labels:
        (result,) = run_suite(problem, only=label).results
        assert result.verdict is Verdict.FAIL
        assert result.payload == {
            "error": "SolverError: inverse iteration did not converge",
            "reason": "solver failure"}
    assert calls == [(spectral.MassKind.CONSISTENT, 2)]


def _lshape_mixed_problem(n):
    mesh = generate_structured("l_shape", n, LSHAPE_MIXED_TAGS)
    return Problem(mesh=mesh, coeffs=CoefficientSet.constant(mesh),
                   mode=BoundaryMode.MIXED)


@pytest.mark.parametrize("problem", [lambda: _lshape_mixed_problem(16),
                                     lambda: make_problem("robin")],
                         ids=["lshape16", "robin"])
def test_one_factor_serves_both_pencils(monkeypatch, problem):
    import scipy.sparse.linalg
    import perronfem.spectral as spectral
    problem = problem()
    factorized, solves = [], []  # SuperLU's matrices; columns of each solve
    factorize, splu = spectral.factorize, scipy.sparse.linalg.splu

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            solves.append(rhs.shape[1] if rhs.ndim == 2 else 1)
            return self.lu.solve(rhs)
    monkeypatch.setattr(spectral, "factorize",
                        lambda matrix: Counted(factorize(matrix)))
    monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda A, **kw: (
        factorized.append(A.copy()) or splu(A, **kw)))
    for label in ("principal-positivity", "spectral-gap",
                  "perron-sign-structure"):
        (result,) = run_suite(problem, only=label).results
        assert result.verdict is Verdict.PASS
    (matrix,) = factorized
    A = problem.op.stiffness
    assert np.all(matrix.data != 0.0) and (matrix != A).nnz == 0
    # the L-shape's stiffness stores zeros on the diagonal edges; SuperLU
    # gets none of them
    assert matrix.nnz == A.nnz - np.count_nonzero(A.data == 0.0)
    # the witness A^-1*1, the consistent pencil's two pairs and two guards,
    # then the lumped pencil's one pair, warm-started, and two guards
    n_consistent = solves.count(4)
    assert solves == [1] + [4] * n_consistent \
        + [3] * (len(solves) - 1 - n_consistent)
    assert n_consistent < len(solves) - 1


def test_every_factorization_orders_by_minimum_degree(tmp_path, monkeypatch):
    import pathlib
    import scipy.sparse.linalg
    import perronfem
    calls = []
    splu = scipy.sparse.linalg.splu
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda A, **kw: calls.append(kw) or splu(A, **kw))

    def run(command, name, cfg):
        path = write_config(tmp_path / f"{name}.json",
                            dict(cfg, output_dir=name))
        assert main([command, "--config", path]) == 0

    run("verify", "robin6", PINNED_REPORTS["robin6"][0])
    assert len(calls) == 2  # the stiffness, for both pencils; the step
    run("verify", "lshape4", PINNED_REPORTS["lshape4"][0])
    run("verify", "complex6", PINNED_REPORTS["complex6"][0])
    run("parabolic", "ie", PINNED_PARABOLIC["implicit-euler"][0])
    assert len(calls) > 3
    assert all(kw.get("permc_spec") == "MMD_AT_PLUS_A" for kw in calls)
    package = pathlib.Path(perronfem.__file__).parent
    assert sum(path.read_text(encoding="utf-8").count("splu(")
               for path in package.glob("*.py")) == 1


def test_the_dense_spectrum_serves_only_tiny_meshes():
    import pathlib
    import perronfem
    package = pathlib.Path(perronfem.__file__).parent
    sources = [path.read_text(encoding="utf-8")
               for path in package.glob("*.py")]
    assert not any("DENSE_CUTOFF" in text for text in sources)
    assert sum(text.count("sla.eig(") for text in sources) == 1


def test_verify_runs_the_corkscrew_check_once(monkeypatch):
    import perronfem.verification as verification
    calls = []
    check = verification.check_corkscrew
    monkeypatch.setattr(verification, "check_corkscrew",
                        lambda *a: calls.append(1) or check(*a))
    report = run_suite(make_problem("mixed"))
    assert not report.failed
    assert len(calls) == 1


def test_cli_eig_warns_when_the_corkscrew_check_fails(tmp_path):
    import warnings
    from perronfem.mesh import BoundaryTag, TriMesh, check_corkscrew, \
        save_mesh
    mesh = generate_structured("unit_square", 8, "N")
    # a single Dirichlet edge of length 1/8: none of its points is 0.1 away
    # from the flux part, so the check fails at r = 1
    tags = (BoundaryTag.DIRICHLET,) + mesh.boundary_tags[1:]
    thin = TriMesh(mesh.vertices, mesh.triangles, mesh.boundary_edges, tags)
    assert not check_corkscrew(thin, 0.1).ok
    (tmp_path / "thin.txt").write_text(save_mesh(thin), encoding="utf-8")
    cfg = {"mesh": {"path": "thin.txt"}, "coefficients": {"mode": "mixed"}}
    path = write_config(tmp_path / "thin.json", cfg)
    with pytest.warns(UserWarning, match="corkscrew"):
        assert main(["eig", "--config", path]) == 0

    cfg["mesh"] = {"shape": "unit_square", "n": 8,
                   "tags": {"bottom": "D", "right": "N", "top": "N",
                            "left": "N"}}
    path = write_config(tmp_path / "thick.json", cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eig", "--config", path]) == 0


def test_cli_verify_evolution_block_without_t_end_has_the_default_horizon(
        tmp_path):
    # an evolution block that leaves t_end open gets the same horizon as no
    # block at all
    _assert_n44_robin_marches_80_steps(
        tmp_path, {"evolution": {"scheme": "implicit_euler"}})

    # evolve has the same 80-step default horizon
    cfg = {**ROBIN_PROBLEM, "evolution": {"scheme": "implicit_euler"},
           "output_dir": "run"}
    path = write_config(tmp_path / "evolve.json", cfg)
    assert main(["evolve", "--config", path]) == 0
    csv = (tmp_path / "run" / "trajectory.csv").read_text().splitlines()
    assert len(csv) == 1 + 81


# -- SVG and CSV writers -------------------------------------------------------

def _svg_text(render, *args):
    """What a streaming renderer writes, as one string."""
    fh = io.StringIO()
    assert render(*args, fh) is None
    return fh.getvalue()


def test_heatmap_constant_field_single_color(robin_mesh8):
    field = np.full(robin_mesh8.n_vertices, 3.5)
    svg = _svg_text(render_heatmap, field, robin_mesh8)
    fills = {line.split('fill="')[1].split('"')[0]
             for line in svg.splitlines() if "<polygon" in line}
    assert len(fills) == 1
    assert "min = max = 3.5" in svg


def test_heatmap_positive_field_avoids_zero_color(robin_op8):
    from perronfem.spectral import principal_eig
    rep = principal_eig(robin_op8)
    full = robin_op8.expand(rep.vector)
    svg = _svg_text(render_heatmap, full, robin_op8.mesh)
    assert _color(0.0) not in svg  # strictly positive ramp
    assert "min =" in svg and "max =" in svg


def test_heatmap_deterministic_bytes(robin_mesh8):
    rng = np.random.default_rng(1)
    field = rng.standard_normal(robin_mesh8.n_vertices)
    assert _svg_text(render_heatmap, field, robin_mesh8) == \
        _svg_text(render_heatmap, field.copy(), robin_mesh8)


def test_heatmap_rejects_bad_size(robin_mesh8):
    with pytest.raises(ValueError):
        render_heatmap(np.ones(3), robin_mesh8, io.StringIO())


def test_strip_rendering(robin_mesh8):
    times = np.linspace(0, 1, 10)
    picks = strip_steps(len(times))
    assert picks.tolist() == [0, 2, 4, 5, 7, 9]
    frames = [np.full(robin_mesh8.n_vertices, float(k)) for k in picks]
    svg = _svg_text(render_strip, frames, times[picks], robin_mesh8)
    assert svg.count("t = ") == 6
    # the strip draws exactly the frames it is given
    svg = _svg_text(render_strip, frames[:2], times[:2], robin_mesh8)
    assert svg.count("t = ") == 2
    assert svg.count("<polygon") == 2 * robin_mesh8.n_triangles


def _reference_csv(times, fields) -> bytes:
    """The trajectory CSV as one text, one repr(float(v)) at a time."""
    lines = ["t," + ",".join(f"v{i}" for i in range(fields.shape[1]))]
    for t, row in zip(times, fields):
        lines.append(",".join([repr(float(t))] +
                              [repr(float(v)) for v in row]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_trajectory_csv_bytes_equal_the_value_by_value_text(tmp_path):
    rng = np.random.default_rng(7)
    fields = rng.standard_normal((5, 12)) * 10.0 ** rng.integers(-20, 20,
                                                                (5, 12))
    fields[0, :10] = [1e-05, 1e16, 1e15, -0.0, 5e-324, 0.1, 0.0, 1.0, -3.0,
                      123456789.0]
    fields[1, :3] = [np.inf, -np.inf, np.nan]
    times = np.array([0.0, 1e-05, 0.1, 0.30000000000000004, 2.0])
    path = tmp_path / "trajectory.csv"
    _write_trajectory_csv(path, times, fields)
    assert path.read_bytes() == _reference_csv(times, fields)


def _repr_text(row) -> bytes:
    return ",".join(repr(float(v)) for v in row).encode("ascii")


def _float_text_rows():
    """Rows of doubles whose repr text _float_text must reproduce: in-range
    rows that orjson writes, out-of-range rows that repr writes, and rows
    that mix the two."""
    rng = np.random.default_rng(26)
    bits = rng.integers(0, 2 ** 64, size=60_000, dtype=np.uint64)
    # random bit patterns over every exponent: nearly every row of them
    # holds a tiny, huge or non-finite value
    yield from bits.view(np.float64).reshape(-1, 600)
    # random mantissas and signs with exponents 2^-14 .. 2^53, kept where
    # 1e-4 <= |v| < 1e16, so the rows take orjson
    exps = rng.integers(1023 - 14, 1023 + 54, size=60_000, dtype=np.uint64)
    band = ((bits & np.uint64(0x800FFFFFFFFFFFFF)) | (exps << np.uint64(52))
            ).view(np.float64)
    size = np.abs(band)
    band = band[(size >= 1e-4) & (size < 1e16)][:50_000]
    yield from band.reshape(-1, 500)
    logs = rng.uniform(-4.0, 16.0, size=40_000)
    signs = rng.choice([-1.0, 1.0], size=40_000)
    magnitudes = np.minimum(10.0 ** logs, np.nextafter(1e16, 0.0))
    yield from (signs * np.maximum(magnitudes, 1e-4)).reshape(-1, 400)
    # short decimals (0 to 4 places) and integers up to 2^53
    decimals = signs * 10.0 ** rng.uniform(-4.0, 12.0, size=40_000)
    yield from (np.round(row, k % 5)
                for k, row in enumerate(decimals.reshape(-1, 400)))
    yield from rng.integers(-2 ** 53, 2 ** 53, size=20_000
                            ).astype(np.float64).reshape(-1, 400)
    edges = np.array([
        0.0, -0.0, 1e-4, -1e-4, np.nextafter(1e-4, 1.0),
        np.nextafter(1e-4, 0.0), 1e16, -1e16, np.nextafter(1e16, 0.0),
        -np.nextafter(1e16, 0.0), 5e-324, -5e-324, 2.2250738585072009e-308,
        1e-5, 1e-300, 1.7976931348623157e308, np.nan, np.inf, -np.inf,
        0.1, 0.30000000000000004, 1.0, 2.0 ** 53])
    yield edges
    for value in edges:  # each one alone, then among in-range values
        yield np.array([value])
        row = band[:50].copy()
        row[25] = value
        yield row
    yield np.array([])
    # a non-contiguous column, a float32 row and a big-endian row: each is
    # written as the float64 values repr(float(v)) sees
    yield band[:12_000].reshape(-1, 40)[:, 3]
    yield band[:200].astype(np.float32)
    yield band[:200].astype(">f8")


def test_float_text_equals_repr_byte_for_byte():
    # guards an orjson upgrade that changes its float text, and the range
    # where the helper trusts it
    import orjson
    from perronfem.cli import _float_text
    count = fast = 0
    for row in _float_text_rows():
        expected = _repr_text(row)
        assert _float_text(row) == expected, row
        count += len(row)
        native = np.ascontiguousarray(row, dtype=np.float64)
        size = np.abs(native)
        if np.all((size < 1e16) & ((size >= 1e-4) | (size == 0.0))):
            assert orjson.dumps(native, option=orjson.OPT_SERIALIZE_NUMPY
                                )[1:-1] == expected
            fast += len(row)
    assert count >= 200_000 and fast >= 100_000


def _traced_peak(write) -> int:
    """tracemalloc's peak, in bytes, over the allocations write() makes."""
    import tracemalloc
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _n64_trajectory():
    # the parabolic-dirichlet-n64 benchmark's shape: 200 steps, 4,225 nodes
    mesh = generate_structured("unit_square", 64, "D")
    rng = np.random.default_rng(0)
    return mesh, np.linspace(0.0, 1.0, 201), \
        rng.random((201, mesh.n_vertices))


def test_trajectory_csv_streams_row_by_row(tmp_path):
    # the text is about 17 MB: under 2 MB, at most a row of it is held
    _mesh, times, fields = _n64_trajectory()
    path = tmp_path / "trajectory.csv"
    peak = _traced_peak(lambda: _write_trajectory_csv(path, times, fields))
    assert peak < 2 * 2 ** 20
    assert path.stat().st_size > 15 * 2 ** 20


def test_strip_streams_frame_by_frame(tmp_path):
    # six frames of 8,192 triangles, about 0.8 MB of text each
    mesh, times, fields = _n64_trajectory()
    picks = strip_steps(len(times))
    frames = [fields[k] for k in picks]
    path = tmp_path / "strip.svg"

    def write():
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            render_strip(frames, times[picks], mesh, fh)
    peak = _traced_peak(write)
    assert peak < 6 * 2 ** 20
    assert path.read_text(encoding="utf-8").count("<polygon") \
        == 6 * mesh.n_triangles


def test_array_colors_equal_the_scalar_ramp():
    # a dense sweep past both ends, every stop and its neighbours, and the
    # half-way points of each channel that round half to even
    from perronfem.svgplot import _STOPS
    s = np.concatenate([np.linspace(-0.5, 1.5, 200_001), _STOPS,
                        np.nextafter(_STOPS, -1.0), np.nextafter(_STOPS, 2.0),
                        [-np.inf, np.inf, np.nan, -0.0]])
    assert _colors(s) == [_color(float(v)) for v in s]


def _fills(svg: str) -> set:
    return {line.split('fill="')[1].split('"')[0]
            for line in svg.splitlines() if "<polygon" in line}


@pytest.mark.parametrize("value", [0.0, 2.0, -1.0])
def test_constant_fields_take_the_ends_of_the_ramp(robin_mesh8, value):
    # a heatmap colors a nonnegative field on [0, max]: a positive constant
    # is drawn at the top of the ramp, while zero, like a nonnegative
    # field's zeros, and a negative constant are drawn at the bottom (an
    # all-zero heatmap was once drawn at the top); a strip of constant
    # frames is drawn at the bottom
    field = np.full(robin_mesh8.n_vertices, value)
    top = value > 0.0
    assert _fills(_svg_text(render_heatmap, field, robin_mesh8)) \
        == {"#fde725" if top else "#440154"} == {_color(float(top))}
    strip = _svg_text(render_strip, [field, field], np.array([0.0, 1.0]),
                      robin_mesh8)
    assert _fills(strip) == {"#440154"} == {_color(0.0)}


def _scalar_document(width, height, body) -> str:
    """An SVG document written one value at a time: the reference for the
    renderers' array text."""
    size = f'width="{width:.1f}" height="{height:.1f}"'
    return ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" {size} '
            f'viewBox="0 0 {width:.1f} {height:.1f}">\n'
            f'<rect {size} fill="white"/>\n' + "".join(body) + "</svg>\n")


def _scalar_box(mesh, inner):
    """(lo_x, hi_y, span_y, scale) of the mesh drawn in an inner square."""
    xs = [float(x) for x, _ in mesh.vertices]
    ys = [float(y) for _, y in mesh.vertices]
    span_x, span_y = max(xs) - min(xs), max(ys) - min(ys)
    return min(xs), max(ys), span_y, inner / max(span_x, span_y, 1e-300)


def _scalar_polygons(mesh, field, anchor, top, x0, y0, box):
    """Polygon lines one triangle at a time: the mean of its vertex values,
    its ramp position on [anchor, top] (0 when that is empty),
    ``_color`` of it and "%.3f,%.3f" of each vertex."""
    lo_x, hi_y, _, scale = box
    values = [float(v) for v in field]
    for a, b, c in mesh.triangles.tolist():
        mean = (values[a] + values[b] + values[c]) / 3
        s = 0.0 if top == anchor else (mean - anchor) / (top - anchor)
        points = " ".join(
            "%.3f,%.3f" % (x0 + (float(mesh.vertices[v, 0]) - lo_x) * scale,
                           y0 + (hi_y - float(mesh.vertices[v, 1])) * scale)
            for v in (a, b, c))
        yield (f'<polygon points="{points}" fill="{_color(s)}" '
               f'stroke="none"/>\n')


def _scalar_heatmap(field, mesh) -> str:
    box = _scalar_box(mesh, 420.0 - 2 * 20.0)
    vmin, vmax = float(min(field)), float(max(field))
    anchor = 0.0 if vmin >= 0.0 else vmin
    height = 2 * 20.0 + box[2] * box[3] + 24.0
    label = (f"min = max = {vmin!r}" if vmin == vmax
             else f"min = {vmin!r}  max = {vmax!r}")
    return _scalar_document(420.0, height, [
        *_scalar_polygons(mesh, field, anchor, vmax, 20.0, 20.0, box),
        f'<text x="20.0" y="{height - 8.0:.1f}" font-family="monospace" '
        f'font-size="12">{label}</text>\n'])


def _scalar_strip(frames, times, mesh) -> str:
    box = _scalar_box(mesh, 150.0 - 2 * 12.0)
    vmin = min(float(min(f)) for f in frames)
    vmax = max(float(max(f)) for f in frames)
    height = 2 * 12.0 + box[2] * box[3] + 20.0
    body = []
    for index, (t, field) in enumerate(zip(times, frames)):
        x0 = index * 150.0 + 12.0
        body += _scalar_polygons(mesh, field, vmin, vmax, x0, 12.0, box)
        body.append(f'<text x="{x0:.1f}" y="{height - 6.0:.1f}" '
                    f'font-family="monospace" font-size="10">'
                    f't = {t:.6g}</text>\n')
    return _scalar_document(150.0 * len(frames), height, body)


@pytest.mark.parametrize("shape, n", [("unit_square", 24), ("l_shape", 16)])
def test_renderers_equal_the_value_by_value_text(shape, n):
    # meshes of two blocks of polygons (1,152 and 1,536 triangles); fields
    # with negative values, constants, and triangle means on the ramp stops
    mesh = generate_structured(shape, n, "D")
    x, y = mesh.vertices.T
    waves = np.sin(5.0 * x) * np.cos(3.0 * y)
    # 0, 0.25, ... 1 in five bands
    steps = np.minimum(np.floor(5.0 * x / x.max()), 4.0) / 4.0
    constant = np.full(mesh.n_vertices, 0.5)
    for field in (waves, 1.0 + waves, steps, 8.0 * steps, constant,
                  -constant, 0.0 * constant):
        assert _svg_text(render_heatmap, field, mesh) \
            == _scalar_heatmap(field, mesh)
    svg = _svg_text(render_heatmap, steps, mesh)
    assert {_color(float(s)) for s in _STOPS} <= _fills(svg)
    times = np.array([0.0, 0.125, 1e-7, 2.5])
    for frames in ([waves, constant, steps, -steps], [constant] * 3,
                   [steps, 2.0 * steps]):
        assert _svg_text(render_strip, frames, times[:len(frames)], mesh) \
            == _scalar_strip(frames, times[:len(frames)], mesh)
    svg = _svg_text(render_strip, [steps, 0.0 * steps], times[:2], mesh)
    assert {_color(float(s)) for s in _STOPS} <= _fills(svg)



def test_cli_verify_complex_spelled_real_beta_is_byte_equal(tmp_path):
    # {"re": 1, "im": 0} once built a complex operator, which sent six
    # checks to not_applicable for the wrong reasons
    for name, beta in (("real", 1.0), ("complex", {"re": 1.0, "im": 0.0})):
        path = write_config(tmp_path / f"{name}.json", {
            **ROBIN_PROBLEM, "coefficients": {"beta": beta, "mode": "robin"},
            "output_dir": name})
        assert main(["verify", "--config", path]) == 0
    assert (tmp_path / "real" / "verification_report.json").read_bytes() \
        == (tmp_path / "complex" / "verification_report.json").read_bytes()


def test_cli_parabolic_default_horizon_short_of_the_claim(tmp_path, capsys):
    # the 80-step default horizon ends before the interior graph diameter
    # (92) is crossed, where the claim once started; the certificate proves
    # positivity from step 1, so the run passes
    path = write_config(tmp_path / "p.json", {
        "mesh": {"shape": "unit_square", "n": 48, "tags": "D"},
        "coefficients": {"mode": "dirichlet"},
        "u0": "x*y*(1-x)*(1-y)", "output_dir": "out"})
    assert main(["parabolic", "--config", path]) == 0
    verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
    positivity = verdict["strong_positivity"]
    assert verdict["steps"] == 80
    assert positivity["verdict"] == "pass"
    assert positivity["start_step"] == 1
    assert positivity["reason"] == ""
    assert "underflow" not in positivity
    capsys.readouterr()


def test_verify_scans_the_stiffness_signs_once(monkeypatch):
    # mmatrix-compatible, perron-sign-structure, principal-positivity and
    # the kernel certificate share one sign scan of the operator
    import perronfem.assembly as assembly
    calls = []
    scan = assembly.offdiag_max
    monkeypatch.setattr(assembly, "offdiag_max",
                        lambda *a: calls.append(1) or scan(*a))
    report = run_suite(make_problem("robin"))
    assert not report.failed
    assert len(calls) == 1
