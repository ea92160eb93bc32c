"""One workload process.

Runs the program through ``perronfem.cli.main``, as ``perronfem verify``
or ``perronfem parabolic`` does, and records when its inputs were ready.
A hook on the name the CLI binds for its first compute step marks the
end of set-up: ``run_suite`` for ``verify`` (after the operator is
assembled) and ``solve_mild`` for ``parabolic``. With ``--labels`` the
hook runs the suite label by label on one ``Problem``, as
``verify --only`` does, and writes each label's report the way the CLI
writes it.

Usage (from run.py):
    python3 worker.py --command verify --config CFG --t0 T --stamps OUT
        [--labels a,b,...] [--setup-only] [--trace SPANS] [--cpu N]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class SetupDone(Exception):
    """Raised by the set-up hook in --setup-only runs."""


def _install_setup_hook(cli, args, stamps, out_dir: Path) -> None:
    def mark():
        stamps["setup"] = time.monotonic()
        if args.setup_only:
            raise SetupDone

    if args.command == "parabolic":
        solve_mild = cli.solve_mild

        def solve_mild_hook(*a, **kw):
            mark()
            return solve_mild(*a, **kw)

        cli.solve_mild = solve_mild_hook
        return

    run_suite = cli.run_suite
    labels = args.labels.split(",") if args.labels else None

    def run_suite_hook(problem, only=None):
        problem.op  # assembly is part of set-up
        mark()
        if labels is None:
            return run_suite(problem, only=only)
        results = []
        for label in labels:
            report = run_suite(problem, only=label)
            label_dir = out_dir / "labels" / label
            label_dir.mkdir(parents=True, exist_ok=True)
            cli._write_json(label_dir / "verification_report.json",
                            report.to_jsonable())
            results.extend(report.results)
        return type(report)(results=tuple(results))

    cli.run_suite = run_suite_hook


def _bytes_written(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--command", choices=["verify", "parabolic"],
                    required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="monotonic clock reading taken before the launch")
    ap.add_argument("--stamps", required=True)
    ap.add_argument("--labels", default="")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default="")
    ap.add_argument("--cpu", type=int, default=None,
                    help="run pinned to this CPU, below the runner's speed "
                         "probe in priority")
    args = ap.parse_args(argv)

    if args.cpu is not None:
        # the probe must not wait for this process, or its unit times
        # would measure time sharing instead of CPU speed
        os.sched_setaffinity(0, {args.cpu})
        os.nice(19)

    sys.path.insert(0, str(ROOT / "src"))
    import perronfem.cli as cli

    config = Path(args.config)
    out_dir = config.parent / json.loads(config.read_text())["output_dir"]
    stamps = {"t0": args.t0}
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(run_id=f"{config.parent.name}-{os.getpid()}")
        tracer.install()
    _install_setup_hook(cli, args, stamps, out_dir)
    try:
        rc = cli.main([args.command, "--config", str(config)])
    except SetupDone:
        rc = 0
    stamps["end"] = time.monotonic()
    stamps["rc"] = rc
    stamps["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not args.setup_only:
        stamps["bytes_written"] = _bytes_written(out_dir)
    if tracer is not None:
        tracer.dump(args.trace)
    Path(args.stamps).write_text(json.dumps(stamps), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
