"""Compare two sets of ledger runs, one row per workload.

    python benchmarks/ledger/compare.py OLD_DIR NEW_DIR

Reads the ``--trace 0`` records that ``run.py`` wrote into each directory
and judges, on every workload, every end-to-end metric it reports: those of
``BENCHMARK.json`` plus the workload's own (``spec.WORKLOAD_METRICS``).  In
order:

* ``regression`` - the new median is worse than the old one by more than
  the metric's bound;
* ``gain`` - the new run wins at least 9 of 10 pairs (runs paired by seed;
  ties count for neither side) and the medians differ by more than the old
  runs' quartile distance;
* ``unresolved`` - the old runs' own spread (quartile distance over median)
  exceeds the bound, unless every new run reads better than every old run;
* ``unchanged`` - otherwise.

Each cell shows old and new median with quartiles and the pairs won.  Runs
of different lengths (``--seconds``) are not compared.  The exit code is 1
when any metric regressed, 2 on unusable input.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import spec as benchmark_spec

GAIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(old: list[float], new: list[float], better: str, bound: float) -> dict:
    """Verdict for one metric; ``old[i]`` and ``new[i]`` form pair ``i``."""
    sign = 1.0 if better == "lower" else -1.0
    o1, om, o3 = quartiles(old)
    _, nm, _ = quartiles(new)
    pairs = list(zip(old, new))
    won = sum(sign * (n - o) < 0 for o, n in pairs)
    spread = (o3 - o1) / abs(om) if om else 0.0
    worse = sign * (nm - om) / abs(om) if om else 0.0
    every_run_better = max(sign * v for v in new) < min(sign * v for v in old)
    if worse > bound:
        verdict = "regression"
    elif won >= GAIN_SHARE * len(pairs) and sign * (nm - om) < 0 and abs(nm - om) > o3 - o1:
        verdict = "gain"
    elif spread > bound and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "verdict": verdict, "old": quartiles(old), "new": quartiles(new),
        "won": won, "pairs": len(pairs), "spread": spread, "change": sign * worse,
    }


def load_runs(directory: Path) -> dict[str, dict[int, dict]]:
    """``{workload: {seed: untraced record}}``."""
    runs: dict[str, dict[int, dict]] = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") == 0:
            runs[record["workload"]][record["seed"]] = record
    return runs


def compare(old: dict, new: dict, spec: dict) -> dict[str, dict[str, dict]]:
    """Verdicts per workload and metric, pairing runs by seed where both
    sides ran the same seeds, and in seed order otherwise."""
    table = {}
    for workload in sorted(set(old) & set(new)):
        seeds = sorted(set(old[workload]) & set(new[workload]))
        if seeds:
            old_runs = [old[workload][s] for s in seeds]
            new_runs = [new[workload][s] for s in seeds]
        else:
            old_runs = [old[workload][s] for s in sorted(old[workload])]
            new_runs = [new[workload][s] for s in sorted(new[workload])]
        lengths = {run["seconds"] for run in old_runs + new_runs}
        if len(lengths) > 1:
            raise ValueError(f"{workload}: runs of different lengths {sorted(lengths)} s")
        table[workload] = {
            metric["name"]: judge(
                [run["e2e"][metric["name"]] for run in old_runs],
                [run["e2e"][metric["name"]] for run in new_runs],
                metric["better"], metric["bound"],
            )
            for metric in benchmark_spec.end_to_end(spec, workload)
        }
    return table


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        table = compare(load_runs(Path(argv[0])), load_runs(Path(argv[1])), benchmark_spec.load())
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for workload, metrics in table.items():
        cells = [
            f"{name} {r['old'][1]:.4g} [{r['old'][0]:.4g}, {r['old'][2]:.4g}] -> "
            f"{r['new'][1]:.4g} [{r['new'][0]:.4g}, {r['new'][2]:.4g}] "
            f"({r['change']:+.1%}, won {r['won']}/{r['pairs']}) {r['verdict']}"
            for name, r in metrics.items()
        ]
        print(f"{workload}: " + " | ".join(cells))
    regressed = any(r["verdict"] == "regression" for m in table.values() for r in m.values())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
