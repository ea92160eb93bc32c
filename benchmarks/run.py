"""Benchmark runner for perronfem.

Runs one workload as a closed loop with one client: a fresh worker
process at a time, each running ``perronfem verify`` or ``perronfem
parabolic`` through the CLI's own entry point, until ``--seconds`` have
passed. Every run's outputs are checked against the workload's expected
verdicts and references. Timed workers run pinned under a speed probe,
and their times are normalised to a fixed machine speed (see
``calibration.py``). ``--trace 1`` adds one traced process and reports
per-layer metrics instead of end-to-end ones.

    python3 benchmarks/run.py --workload verify-robin-n24 --seed 1 \\
        --seconds 16 --trace 0 [--size smoke]

Prints one line per metric, then, as the last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A results record
goes to ``benchmarks/out/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SMOKE_N, WORKLOADS, ALL_LABELS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DEFAULT_SEED = 1
#: the whole invocation ends within this many seconds
BUDGET_S = 170.0
#: set-up samples per invocation; set-up-only processes top up the rest
SETUP_SAMPLES = 5
#: full runs per invocation, however long they take
MIN_SAMPLES = 2
LAMBDA1_RTOL = 1e-8
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


# ---------------------------------------------------------------------------
# worker processes

@dataclasses.dataclass
class Sample:
    run_dir: Path
    ok: bool                    # exited in time and left its stamps
    wall_s: float
    setup_s: float | None = None
    peak_rss_mb: float | None = None
    rc: int | None = None
    bytes_written: int = 0
    stderr: str = ""
    t0: float = 0.0             # monotonic launch time

    @property
    def out_dir(self) -> Path:
        return self.run_dir / "out"


def _write_config(run_dir: Path, config: dict) -> Path:
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def launch(wl, config: dict, run_dir: Path, timeout: float, *,
           setup_only: bool = False, trace: bool = False,
           cpu: int | None = None) -> Sample:
    cfg_path = _write_config(run_dir, config)
    stamps_path = run_dir / "stamps.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--command", wl.command,
           "--config", str(cfg_path), "--stamps", str(stamps_path)]
    if wl.labels:
        cmd += ["--labels", ",".join(wl.labels)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", str(run_dir / "spans.json")]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return Sample(run_dir, False, time.monotonic() - t0,
                      stderr="timed out", t0=t0)
    wall = time.monotonic() - t0
    try:
        stamps = json.loads(stamps_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return Sample(run_dir, False, wall, rc=proc.returncode,
                      stderr=proc.stderr[-2000:], t0=t0)
    return Sample(run_dir, True, wall, t0=t0,
                  setup_s=stamps["setup"] - t0 if "setup" in stamps else None,
                  peak_rss_mb=stamps["maxrss_kb"] / 1024.0,
                  rc=stamps["rc"],
                  bytes_written=stamps.get("bytes_written", 0),
                  stderr=proc.stderr[-2000:])


# ---------------------------------------------------------------------------
# checks

def _lambda1_reference(wl, config: dict, size: str) -> float | None:
    """Principal eigenvalue by a route independent of the program's
    solver: a dense generalized symmetric eigensolve of the assembled
    pencil, or the recorded value where the pencil is too large. None
    when the program cannot assemble the pencil."""
    if wl.lambda1_at is None:
        return None
    if size == "full" and wl.recorded_lambda1 is not None:
        return wl.recorded_lambda1
    try:
        return _dense_lambda1(wl, config)
    except Exception as exc:  # reported through the lambda1 check
        print(f"lambda1 reference failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return None


def _dense_lambda1(wl, config: dict) -> float:
    import numpy as np
    import scipy.linalg
    from perronfem.assembly import BoundaryMode, assemble, \
        coefficients_from_dict
    from perronfem.mesh import generate_structured

    m = config["mesh"]
    mesh = generate_structured(m["shape"], m["n"], m["tags"])
    coeffs, mode = coefficients_from_dict(config["coefficients"], mesh)
    if np.iscomplexobj(coeffs.beta):  # the real-part Robin problem
        coeffs = dataclasses.replace(coeffs, beta=np.real(coeffs.beta).copy(),
                                     validate=False)
        mode = BoundaryMode.ROBIN
    op = assemble(mesh, coeffs, mode, corkscrew_checked=True)
    values = scipy.linalg.eigh(op.stiffness.toarray(), op.mass.toarray(),
                               eigvals_only=True, subset_by_index=[0, 0])
    return float(values[0])


def _check_names(wl) -> list:
    if wl.command == "parabolic":
        return ["exit", "steps", "rows", "strong-positivity",
                "weak-residual"]
    names = ["exit", "label-set"]
    names += [f"verdict:{label}" for label in wl.expected]
    if wl.lambda1_at is not None:
        names.append("lambda1")
    return names


def gate(wl, size: str, sample: Sample, lambda1_ref) -> dict:
    """Check name -> (ok, detail) for one full run. A crash, a timeout or
    a missing output fails every check of the run."""
    names = _check_names(wl)
    if not sample.ok:
        return {n: (False, sample.stderr.strip()[-300:] or "crashed")
                for n in names}
    out = sample.out_dir
    checks = {"exit": (sample.rc == 0, f"exit code {sample.rc}")}
    try:
        if wl.command == "parabolic":
            checks.update(_gate_parabolic(wl, size, out))
        else:
            checks.update(_gate_verify(wl, out, lambda1_ref))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        detail = f"unreadable output: {type(exc).__name__}: {exc}"
        return {n: (False, detail) for n in names}
    return checks


def _gate_verify(wl, out: Path, lambda1_ref) -> dict:
    report = json.loads((out / "verification_report.json").read_text())
    got = {r["label"]: r for r in report["results"]}
    checks = {"label-set": (list(got) == [lab for lab in ALL_LABELS
                                          if lab in wl.expected],
                            f"labels {list(got)}")}
    for label, want in wl.expected.items():
        verdict = got[label]["verdict"] if label in got else "missing"
        checks[f"verdict:{label}"] = (verdict == want,
                                      f"{verdict} (expected {want})")
    if wl.lambda1_at is not None:
        label, key = wl.lambda1_at
        value = float(got[label]["payload"][key])
        ok = lambda1_ref is not None and \
            abs(value - lambda1_ref) <= LAMBDA1_RTOL * abs(lambda1_ref)
        checks["lambda1"] = (ok, f"{value!r} vs reference {lambda1_ref!r}")
    return checks


def _gate_parabolic(wl, size: str, out: Path) -> dict:
    verdict = json.loads((out / "verdict.json").read_text())
    with open(out / "trajectory.csv", encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    positivity = verdict["strong_positivity"]["verdict"]
    residual = float(verdict["very_weak_residual"])
    bound = wl.residual_bound[size]
    return {
        "steps": (verdict["steps"] == wl.steps, f"{verdict['steps']} steps"),
        "rows": (rows == wl.steps + 1, f"{rows} trajectory rows"),
        "strong-positivity": (positivity == "pass", positivity),
        "weak-residual": (residual < bound, f"{residual!r} < {bound!r}"),
    }


def _cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def worker_equals_cli(wl, seed: int, work: Path, timeout: float) -> dict:
    """Run the worker and ``perronfem <command>`` on the same small config
    and compare the report bytes: the worker measures the program as
    users run it."""
    config = wl.make_config(seed, SMOKE_N)
    sample = launch(wl, config, work / "worker", timeout)
    report = "verdict.json" if wl.command == "parabolic" \
        else "verification_report.json"
    runs = [(label, ["--only", label], Path("labels") / label / report)
            for label in wl.labels] if wl.labels \
        else [(report, [], Path(report))]
    checks = {}
    for name, extra, worker_file in runs:
        cli_dir = work / "cli" / name
        cfg_path = _write_config(cli_dir, config)
        try:
            subprocess.run([sys.executable, "-m", "perronfem.cli",
                            wl.command, "--config", str(cfg_path)] + extra,
                           cwd=ROOT, env=_cli_env(), timeout=timeout,
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
            same = (sample.out_dir / worker_file).read_bytes() == \
                (cli_dir / "out" / report).read_bytes()
            detail = "identical bytes" if same else "bytes differ"
        except (OSError, subprocess.TimeoutExpired) as exc:
            same, detail = False, f"{type(exc).__name__}: {exc}"
        checks[f"worker-equals-cli:{name}"] = (same, detail)
    return checks


# ---------------------------------------------------------------------------
# machine record

def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(package) -> dict:
    info = {}
    try:
        blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        pass
    libdir = Path(package.__file__).resolve().parent.parent / \
        f"{package.__name__}.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                info["threads"] = int(fn())
                return info
    return info


def machine_record() -> dict:
    import numpy
    import scipy
    return {
        "git_sha": _git_sha(), "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy), "scipy_blas": _blas(scipy),
    }


# ---------------------------------------------------------------------------
# one invocation

class Tally:
    def __init__(self):
        self.checks = []

    def add(self, run: str, checks: dict) -> None:
        for name, (ok, detail) in checks.items():
            self.checks.append({"run": run, "check": name, "ok": bool(ok),
                                "detail": detail})

    @property
    def attempted(self) -> int:
        return len(self.checks)

    @property
    def failed(self) -> int:
        return sum(not c["ok"] for c in self.checks)


def _verdicts(sample: Sample) -> dict:
    try:
        report = json.loads(
            (sample.out_dir / "verification_report.json").read_text())
        return {r["label"]: r["verdict"] for r in report["results"]}
    except (OSError, ValueError, KeyError):
        return {}


def run(args, spec: dict) -> dict:
    started = time.monotonic()
    deadline = started + BUDGET_S
    wl = WORKLOADS[args.workload]
    config = wl.make_config(args.seed, wl.n(args.size))
    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()

    def left() -> float:
        return deadline - time.monotonic()

    tally.add("worker-equals-cli",
              worker_equals_cli(wl, args.seed, work / "equal", left()))
    lambda1_ref = _lambda1_reference(wl, config, args.size)

    # workers run pinned to the probe's CPU; their times are normalised
    # by the speed the probe saw meanwhile (see calibration.py)
    from calibration import REFERENCE_S, SpeedProbe, probe_cpu
    probe = SpeedProbe(probe_cpu())

    def timed(run_dir: Path, **kw) -> Sample:
        return launch(wl, config, run_dir, left(), cpu=probe.cpu, **kw)

    full, verdicts = [], {}
    with probe:
        t_loop = time.monotonic()
        while len(full) < MIN_SAMPLES or (
                time.monotonic() - t_loop < args.seconds
                and left() > 1.5 * max(s.wall_s for s in full)):
            sample = timed(work / f"run{len(full)}")
            full.append(sample)
            tally.add(f"run{len(full) - 1}", gate(wl, args.size, sample,
                                                   lambda1_ref))
            verdicts = verdicts or _verdicts(sample)
            shutil.rmtree(sample.run_dir, ignore_errors=True)

        setup = [s for s in full if s.setup_s is not None]
        k = 0
        while len(setup) < SETUP_SAMPLES and \
                left() > 3.0 * max((s.setup_s for s in setup), default=5):
            sample = timed(work / f"setup{k}", setup_only=True)
            ok = sample.ok and sample.rc == 0 and sample.setup_s is not None
            tally.add(f"setup{k}",
                      {"setup-completes": (ok, sample.stderr[-300:])})
            if ok:
                setup.append(sample)
            shutil.rmtree(sample.run_dir, ignore_errors=True)
            k += 1

    # a run without a probe unit in its window takes the loop's mean speed
    whole = probe.scale(t_loop, time.monotonic()) or 1.0

    def normalised(t0: float, seconds: float) -> float:
        scale = probe.scale(t0, t0 + seconds)
        return seconds * (scale if scale is not None else whole)

    # a crashed or timed-out run still made its user wait
    walls = [s.wall_s for s in full]
    rss = [s.peak_rss_mb for s in full if s.ok] or [0.0]
    record = {
        "workload": wl.name, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "config": config,
        "machine": machine_record(),
        "load": "closed loop, one client, one worker process at a time",
        "lambda1_reference": lambda1_ref, "verdicts": verdicts,
        "speed_probe": {"cpu": probe.cpu, "reference_s": REFERENCE_S,
                        "units": len(probe.units),
                        "mean_unit_s": REFERENCE_S / whole},
        "raw": {"wall_s": walls, "setup_s": [s.setup_s for s in setup]},
        "samples": {
            "wall_s": [normalised(s.t0, s.wall_s) for s in full],
            "setup_s": [normalised(s.t0, s.setup_s) for s in setup],
            "peak_rss_mb": rss,
        },
    }
    metrics = {name: statistics.median(values or record["samples"]["wall_s"])
               for name, values in record["samples"].items()}
    # the largest peak, not the median: with transparent huge pages on
    # madvise, one process's peak depends on where its big arrays land
    # (parabolic-dirichlet-n64 reads about 212 or 226 MB at random)
    metrics["peak_rss_mb"] = max(rss)
    layer = {}
    if args.trace:
        import tracing
        traced = timed(work / "traced", trace=True)
        tally.add("traced", gate(wl, args.size, traced, lambda1_ref))
        spans = json.loads((traced.run_dir / "spans.json").read_text()) \
            if traced.ok else {"spans": []}
        layer = tracing.layer_metrics(spans["spans"], ALL_LABELS)
        layer["cli.bytes_written"] = traced.bytes_written
        layer["trace.overhead_s"] = traced.wall_s - statistics.median(walls)
        record["traced_wall_s"] = traced.wall_s
        record["spans"] = spans
    shutil.rmtree(work, ignore_errors=True)

    metrics["pass_ratio"] = (tally.attempted - tally.failed) / tally.attempted

    def with_units(specs, values):
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in specs}

    record.update({
        "sample_counts": {k: len(v) for k, v in record["samples"].items()},
        "attempted": tally.attempted, "failed": tally.failed,
        "fail_ratio": tally.failed / tally.attempted,
        "checks": tally.checks,
        "end_to_end": with_units(spec["end_to_end"], metrics),
        "per_layer": with_units(spec["per_layer"], layer) if args.trace
        else {},
        "elapsed_s": time.monotonic() - started,
    })
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds in "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full",
                    help=f"smoke runs every workload at n = {SMOKE_N}")
    args = ap.parse_args(argv)

    # one BLAS thread in this process and every worker: two threads on a
    # 2-vCPU host whose vCPUs change speed independently wait on the
    # slower one, and a stalled vCPU can hold a call for seconds
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "perronfem" / "__init__.py").is_file():
        print(f"error: no perronfem source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    record = run(args, spec)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}_{args.size}_seed{args.seed}_trace{args.trace}"
    (results / f"{name}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    counts = record["sample_counts"]
    for metric, m in {**record["end_to_end"], **record["per_layer"]}.items():
        print(f"{metric} = {m['value']!r} {m['unit']}")
    print("raw medians: " + ", ".join(
        f"{k} = {statistics.median(v)!r} s" for k, v in record["raw"].items()
        if v))
    print(f"fail_ratio = {record['fail_ratio']!r} "
          f"({record['failed']} of {record['attempted']} checks failed); "
          f"samples: {counts}")
    for c in record["checks"]:
        if not c["ok"]:
            print(f"FAILED {c['run']} {c['check']}: {c['detail']}")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["per_layer"] if args.trace
                      else record["end_to_end"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
