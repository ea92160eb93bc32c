"""Smoke tests for the benchmark at n = 4; timings are never gated here.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import ALL_LABELS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = ("count", "ratio", "bytes")


@functools.lru_cache(maxsize=None)
def smoke(workload: str, seed: int, trace: int, repeat: int = 0) -> tuple:
    """(final JSON line, results record) of one smoke invocation; a new
    ``repeat`` runs it again."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (HERE / "out" / "results" /
         f"{workload}_smoke_seed{seed}_trace{trace}.json").read_text())
    return result, record


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    produced = set(tracing.layer_metrics([], ALL_LABELS))
    produced |= {"cli.bytes_written", "trace.overhead_s"}
    assert [m["name"] for m in SPEC["per_layer"]] == \
        [m["name"] for m in SPEC["per_layer"] if m["name"] in produced]
    assert {m["name"] for m in SPEC["per_layer"]} == produced
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert names == ["wall_s", "setup_s", "peak_rss_mb", "pass_ratio"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_correct_and_complete(workload, trace):
    result, record = smoke(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, \
        [c for c in record["checks"] if not c["ok"]]
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert any(c["check"].startswith("worker-equals-cli")
               for c in record["checks"])
    for key in ("git_sha", "nproc", "cpu_model", "numpy", "scipy",
                "numpy_blas"):
        assert key in record["machine"]
    assert record["sample_counts"]["setup_s"] >= 5
    assert record["sample_counts"]["wall_s"] >= 2
    # every timed sample is normalised by the speed probe; raw times stay
    assert record["speed_probe"]["units"] > 0
    assert len(record["raw"]["wall_s"]) == record["sample_counts"]["wall_s"]


@pytest.mark.parametrize("workload", [w for w in WORKLOADS
                                      if WORKLOADS[w].command == "verify"])
def test_second_seed_gives_same_verdicts(workload):
    _, first = smoke(workload, 1, 0)
    _, second = smoke(workload, 2, 0)
    assert first["config"] != second["config"] or \
        WORKLOADS[workload].labels is not None
    assert first["verdicts"] == second["verdicts"] != {}


def test_second_seed_parabolic_passes():
    _, first = smoke("parabolic-dirichlet-n64", 1, 0)
    result, second = smoke("parabolic-dirichlet-n64", 2, 0)
    assert first["config"] != second["config"]
    assert result["correct"]


def test_traced_counts_repeat_exactly():
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in WORKLOADS:
        first, _ = smoke(workload, 1, 1)
        second, _ = smoke(workload, 1, 1, repeat=1)
        counts = {k for k, u in units.items() if u in COUNT_UNITS
                  and k != "cli.bytes_written"}
        assert {k: first["metrics"][k]["value"] for k in counts} == \
            {k: second["metrics"][k]["value"] for k in counts}, workload


def test_traced_counts_match_the_code_at_smoke_size():
    m = {k: v["value"] for k, v in smoke("verify-robin-n24", 1, 1)[0]
         ["metrics"].items()}
    # 25 dofs, 80 steps: kernels at t and 2t plus 25 indicator trials
    assert m["semigroup.kernel_calls"] == 2
    assert m["semigroup.lu_solves"] == 25 * 80 + 25 * 160 + 25 * 80
    assert m["semigroup.lu_refactor_ratio"] == 3.0
    assert m["spectral.lu_refactor_ratio"] == 1.5
    p = {k: v["value"] for k, v in smoke("parabolic-dirichlet-n64", 1, 1)[0]
         ["metrics"].items()}
    assert p["parabolic.lu_solves"] == 200
    assert p["assembly.repeat_ratio"] == 4.0


def test_fails_without_a_source_tree():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload",
         "verify-robin-n24", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
