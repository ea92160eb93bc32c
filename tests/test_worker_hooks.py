"""The benchmark worker hooks names of the CLI and of a Problem from
outside: ``cli.run_suite``, ``cli.solve_mild``, ``cli._write_json``,
``problem.op`` and ``VerificationSuiteReport(results=...)``. A rename
would break the benchmark before any metric is read, so the worker runs
here at smoke size on the benchmark's own configs."""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perronfem.cli import main

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", BENCHMARKS / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass resolves annotations through sys.modules
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS


def _run_worker(tmp_path, command, cfg, *flags):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    stamps = tmp_path / "stamps.json"
    done = subprocess.run(
        [sys.executable, str(BENCHMARKS / "worker.py"), "--command", command,
         "--config", str(config), "--t0", repr(time.monotonic()),
         "--stamps", str(stamps), *flags],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(stamps.read_text())["rc"] == 0


def test_worker_label_reports_equal_verify_only(tmp_path, capsys):
    workload = _workloads()["elliptic-lshape-mixed-n96"]
    cfg = workload.make_config(0, 4)
    _run_worker(tmp_path, "verify", cfg, "--labels",
                ",".join(workload.labels))
    only = tmp_path / "only.json"
    only.write_text(json.dumps({**cfg, "output_dir": "only"}),
                    encoding="utf-8")
    labels = tmp_path / cfg["output_dir"] / "labels"
    assert sorted(p.name for p in labels.iterdir()) == sorted(workload.labels)
    for label in workload.labels:
        assert main(["verify", "--config", str(only), "--only", label]) == 0
        assert (labels / label / "verification_report.json").read_bytes() \
            == (tmp_path / "only" / "verification_report.json").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("setup_only", [False, True])
def test_worker_runs_parabolic(tmp_path, setup_only):
    cfg = _workloads()["parabolic-dirichlet-n64"].make_config(0, 4)
    _run_worker(tmp_path, "parabolic", cfg,
                *(["--setup-only"] if setup_only else []))
    assert (tmp_path / cfg["output_dir"] / "verdict.json").exists() \
        is not setup_only
