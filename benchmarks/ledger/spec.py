"""The benchmark's declared metrics: ``BENCHMARK.json`` plus workload-only ones."""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: End-to-end metrics that only some workloads have.  ``BENCHMARK.json``
#: lists the metrics every workload reports and that repeat within their
#: bound on a shared 2-vCPU host; ``compare.py`` judges
#: these next to them, on the workloads named here.  Each is in the
#: untraced record's ``e2e`` section.  The serving latencies move with the
#: hypervisor's steal time (0-25% of a CPU over minutes; a slice's median
#: rises about 0.15 ms per point of steal), which no reference computation
#: can take out of a wall-clock latency, so their bounds are the widest the
#: format allows and noisy runs read "unresolved".
WORKLOAD_METRICS: dict[str, tuple[dict, ...]] = {
    "cluster-teaplus": (
        {"name": "cluster_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "cluster_ms_p90", "unit": "ms", "better": "lower", "bound": 0.1},
    ),
    "serve-open": (
        {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "latency_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "qps_at_limit", "unit": "q/s", "better": "higher", "bound": 0.25},
    ),
    "serve-hot-http": (
        {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "latency_ms_p90", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "throughput_qps", "unit": "q/s", "better": "higher", "bound": 0.1},
    ),
    "mutate-mix": (
        {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "latency_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "mutation_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "mutation_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},
    ),
}


def load() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def end_to_end(spec: dict, workload: str) -> list[dict]:
    """Every end-to-end metric ``workload`` reports and ``compare.py`` judges."""
    return list(spec["end_to_end"]) + list(WORKLOAD_METRICS.get(workload, ()))
