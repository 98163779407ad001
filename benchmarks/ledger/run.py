"""Layer-ledger benchmark: one entry point for every workload.

    python benchmarks/ledger/run.py --workload NAME --seed S [--seconds N]
                                    [--trace 0|1] [--out DIR]

Each workload builds its inputs from ``--seed``, measures for ``--seconds``
(default: ``run_seconds`` of ``BENCHMARK.json``), checks the program's
answers, prints every metric as ``name value unit``, writes one JSON record
(host header, metrics, checks) to ``--out`` and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the
workload again with timing wrappers installed and reports the per-layer
metrics.  Without ``--workload`` every workload runs, each in a fresh
process.  The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import spec as benchmark_spec
from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = benchmark_spec.ROOT
SRC = ROOT / "src"


def git_state() -> tuple[str, bool | None]:
    """HEAD and whether tracked files differ from it; unknown outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()

    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.CalledProcessError):
        return "unknown", None


def host_header(seed: int) -> dict:
    import numpy

    from repro.engine import get_backend

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    sha, dirty = git_state()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "cpu_count": os.cpu_count(),
        "numba": numba_imports,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "walk_backend": get_backend(None).name,
        "seed": seed,
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, work_dir: Path, clock) -> dict:
    import wl_cluster
    import wl_http
    import wl_inprocess

    if name == "cluster-teaplus":
        return wl_cluster.cluster_teaplus(seed, seconds, traced, clock)
    if name == "serve-open":
        return wl_inprocess.serve_open(seed, seconds, traced, clock)
    if name == "serve-hot-http":
        return wl_http.serve_hot_http(seed, seconds, traced, work_dir, clock)
    if name == "mutate-mix":
        return wl_inprocess.mutate_mix(seed, seconds, traced, clock)
    raise ValueError(f"unknown workload {name!r}")


def select_metrics(values: dict, declared: list[dict], traced: bool) -> dict[str, float]:
    """The declared metrics in declaration order.

    Every end-to-end metric must be reported.  A per-layer metric the
    workload does not report belongs to a layer it never reaches and reads
    0; a reported name that is not declared is a bug.
    """
    names = [metric["name"] for metric in declared]
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise KeyError(f"workload reported undeclared metrics {unknown}")
    if not traced:
        missing = [name for name in names if name not in values]
        if missing:
            raise KeyError(f"workload did not report {missing}")
    return {name: float(values.get(name, 0.0)) for name in names}


def run_one(args, spec: dict) -> int:
    header = host_header(args.seed)
    work_dir = args.out / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace)
    clock = HostClock()
    result = run_workload(args.workload, args.seed, args.seconds, traced, work_dir, clock)
    e2e_declared = benchmark_spec.end_to_end(spec, args.workload)
    e2e = select_metrics(result["e2e"], e2e_declared, False)
    declared = spec["per_layer"] if traced else e2e_declared
    units = {metric["name"]: metric["unit"] for metric in declared}
    metrics = select_metrics(result["layers"], declared, True) if traced else e2e
    checks = {name: {"ok": bool(ok), "detail": detail} for name, (ok, detail) in result["checks"].items()}
    correct = all(check["ok"] for check in checks.values())

    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    for name, check in checks.items():
        print(f"check {name}: {'ok' if check['ok'] else 'FAILED'} ({check['detail']})")
    record = {
        "host": header,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(traced),
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "checks": checks,
        "e2e": e2e,
        "layers": metrics if traced else {},
        "host_factor_quartiles": statistics.quantiles(clock.readings, n=4),        "details": result.get("details", {}),
    }
    path = args.out / f"{args.workload}-seed{args.seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n", encoding="utf-8")
    # The last line carries BENCHMARK.json's metrics only: in traced mode
    # every per-layer one, otherwise the end-to-end ones every workload has.
    shown = spec["per_layer"] if traced else spec["end_to_end"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in shown},
    }))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Every workload, each in a fresh process."""
    status = 0
    for workload in spec["workloads"]:
        command = [
            sys.executable, __file__, "--workload", workload["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(args.out),
        ]
        status = max(status, subprocess.run(command).returncode)
    return status


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file() or not benchmark_spec.SPEC_PATH.is_file():
        print(f"error: run from a checkout with src/repro and BENCHMARK.json (looked in {ROOT})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = benchmark_spec.load()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
