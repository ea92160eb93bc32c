import io
import json

import numpy as np
import pytest

from perronfem.cli import _write_trajectory_csv, main, read_kernel_dump
from perronfem.expressions import ExpressionError, evaluate_field
from perronfem.mesh import generate_structured, load_mesh
from perronfem.semigroup import Verdict, default_dt
from perronfem.svgplot import _color, _colors, render_heatmap, render_strip
from perronfem.verification import Problem, run_suite
from perronfem.assembly import BoundaryMode, CoefficientSet


def write_config(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


ROBIN_PROBLEM = {
    "mesh": {"shape": "unit_square", "n": 8, "tags": "N"},
    "coefficients": {"beta": 1.0, "mode": "robin"},
}


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


def test_suite_complex_robin():
    report = run_suite(make_problem("complex"))
    assert not report.failed
    by_label = {r.label: r for r in report.results}
    assert by_label["complex-robin-strict-bound"].verdict is Verdict.PASS
    assert by_label["complex-robin-strict-bound"].payload["margin"] > 1e-6
    assert by_label["principal-positivity"].verdict is Verdict.NOT_APPLICABLE


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
        "SolverError: shift adjustment failed")
    # any other exception keeps the bare error payload
    monkeypatch.undo()
    _raising_check(monkeypatch)
    (result,) = run_suite(make_problem("robin"),
                          only="positivity-improving").results
    assert result.verdict is Verdict.FAIL
    assert list(result.payload) == ["error"]


def test_suite_raises_a_broken_invariant(monkeypatch):
    import perronfem.verification as verification

    def broken(K):
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


def test_cli_kernel_refuses_a_dense_kernel_above_the_limit(tmp_path, capsys,
                                                          monkeypatch):
    import perronfem.semigroup
    monkeypatch.setattr(perronfem.semigroup, "DENSE_KERNEL_MAX_BYTES", 1000)
    monkeypatch.setattr(perronfem.semigroup, "march",
                        lambda *a, **kw: pytest.fail("kernel marched"))
    path = write_config(tmp_path / "c.json",
                        {**ROBIN_PROBLEM, "output_dir": "out"})
    assert main(["kernel", "--config", path]) == 2
    # 81 vertices, 81 dofs: three 81 x 81 float64 arrays
    _assert_one_error_line(capsys, "about 0.2 MiB", "limit")
    assert not (tmp_path / "out" / "kernel.bin").exists()


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
# instead of the interior graph diameter: start_step 8 -> 1 and 6 -> 1
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
            "2b467ecd785162c1bbebddd28da409b65926d0a2256430008de2052e95b07a7d",
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
            "804d80c1950bd5b74e2a32a00f600899434080c93b4140dc748cfe1d69005ab0",
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


# the other commands' CSV and SVG bytes, recorded while each writer built
# its whole text before writing it
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
        "coefficients": {"beta": 1.5, "mode": "robin"}, "emit_csv": False,
    }, {
        "eigenvector.svg":
            "34444795901331f58aef5b65d8c85bd78f451c2b95a1345cb0168c3ad812724a",
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


def test_cli_oracle(tmp_path, capsys):
    matrix = tmp_path / "gen.json"
    matrix.write_text(json.dumps({"Q": [[0.0, 1.0], [0.0, 0.0]]}))
    assert main(["oracle", "--matrix", str(matrix)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["irreducible"] is False
    assert verdict["positivity_improving"] is False
    assert verdict["perron"]["simple"] is False


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
        cfg["seed"] = 0
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


def test_cli_solver_error_is_an_error(tmp_path, capsys):
    # inverse iteration cannot reach a residual of 1e-18
    path = write_config(tmp_path / "c.json", {
        "mesh": {"shape": "unit_square", "n": 4, "tags": "N"},
        "coefficients": {"beta": 1.0, "mode": "robin"},
        "solver": {"tol": 1e-18}})
    assert main(["eig", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "did not converge" in err


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
])
def test_cli_malformed_section_is_an_error(tmp_path, capsys, command,
                                           section, message):
    base = PARABOLIC_PROBLEM if command == "parabolic" else ROBIN_PROBLEM
    path = write_config(tmp_path / "c.json",
                        {**base, **section, "output_dir": "out"})
    assert main([command, "--config", path]) == 2
    _assert_one_error_line(capsys, message)
    assert not (tmp_path / "out" / "verification_report.json").exists()


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
    assert positivity["threshold_step"] == -1


def _assert_n44_robin_marches_80_steps(tmp_path, cfg):
    """positivity-improving and kernel-positivity PASS on a Robin n = 44
    square over 80 steps, though its stiffness-graph diameter is 88: the
    certificate holds from step 1, and the diameter is reported for
    reference."""
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
    assert results["positivity-improving"]["payload"]["threshold_step"] == 88


def test_cli_default_horizon_is_80_steps_above_the_graph_diameter(tmp_path):
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


LSHAPE_MIXED_TAGS = {"bottom": "D", "right": "N", "inner_h": "N",
                     "inner_v": "N", "top": "N", "left": "N"}

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
# residuals by up to 65%; no verdict moved.
PINNED_REPORTS = {
    "robin6": ({
        "mesh": {"shape": "unit_square", "n": 6, "tags": "N"},
        "coefficients": {"beta": 1.5, "mode": "robin"},
        "oracle": {"matrix": [[-2.0, 1.0, 0.0], [0.0, -2.0, 1.0],
                              [0.5, 0.0, -2.0]],
                   "expect_irreducible": True},
    }, "10d2f9459f30bc8fe13f1ce6f5f703850ccdca8b53de775486222d7fb5205fa0"),
    "dirichlet6": ({
        "mesh": {"shape": "unit_square", "n": 6, "tags": "D"},
        "coefficients": {"mode": "dirichlet"},
    }, "b3aaeb4c1142a08f2606f07cc56a606885a4fc1ad6c1bb02743e4dc247702426"),
    "complex6": ({
        "mesh": {"shape": "unit_square", "n": 6, "tags": "N"},
        "coefficients": {"beta": {"re": 1.0, "im": 0.5},
                         "mode": "complex_robin"},
    }, "c62cb40af7de3ef809bcdbab36c23a8dc2391505ba4f4af678d8057c25752a4e"),
    "lshape4": ({
        "mesh": {"shape": "l_shape", "n": 4, "tags": LSHAPE_MIXED_TAGS},
        "coefficients": {"mode": "mixed"},
    }, "f9ea92739128aa126ecd3765645f6943c09911c8801fd096cf82634d7736935f"),
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


# eig_report.json bytes, recorded before the CLI and the suite shared one
# JSON conversion; complex6 re-pinned with the Cholesky-reduced dense
# eigensolve (eigenvalues and residual in the last digits), robin6 with
# the minimum-degree ordering and the Rayleigh-Ritz sweep on the pencil
# (eigenvalues in the last digits, residual 2.0e-14 -> 1.3e-14), complex6
# again with certified Arnoldi (eigenvalues in the last digits, residual
# 7.0e-13 -> 4.5e-14), robin6 again with the zero shift through the
# stiffness's factor (eigenvalues <= 1.4e-15 relative, residual 1.3e-14 ->
# 2.1e-14)
PINNED_EIG_REPORTS = {
    "robin6": (
        {"beta": 1.5, "mode": "robin"},
        "3d168066934cf0edd23501f6cf30bd0497ebdbde9e2273f85c862da506eda0ce"),
    "complex6": (
        {"beta": {"re": 1.0, "im": 0.5}, "mode": "complex_robin"},
        "285b1524fb1da27f85a360869c65502724389350e8742accb95429b4e395ac78"),
}


@pytest.mark.parametrize("name", sorted(PINNED_EIG_REPORTS))
def test_cli_eig_report_bytes_pinned(tmp_path, name):
    import hashlib
    coefficients, digest = PINNED_EIG_REPORTS[name]
    path = write_config(tmp_path / "c.json", {
        "mesh": {"shape": "unit_square", "n": 6, "tags": "N"},
        "coefficients": coefficients, "gap_count": 3, "output_dir": "out",
        "emit_csv": False, "emit_svg": False})
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


def test_a_failed_solve_runs_once(monkeypatch):
    # a Dirichlet square of side 1/32 at n = 16 fails this way; each check
    # that reads the pair used to run the failing sweeps again
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
    cfg = {"mesh": {"path": "thin.txt"}, "coefficients": {"mode": "mixed"},
           "emit_csv": False, "emit_svg": False}
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
    fields = np.vstack([np.full(robin_mesh8.n_vertices, float(k))
                        for k in range(10)])
    svg = _svg_text(render_strip, fields, np.linspace(0, 1, 10), robin_mesh8)
    assert svg.count("t = ") == 6


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
    path = tmp_path / "strip.svg"

    def write():
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            render_strip(fields, times, mesh, fh)
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
    assert (positivity["start_step"], positivity["threshold_step"]) == (1, 92)
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
