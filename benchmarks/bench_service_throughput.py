"""Serving-layer load harness: micro-batched vs sequential dispatch.

Two faces:

* **pytest benchmark** (``test_service_throughput``) — the acceptance check
  for the serving subsystem.  Closed-loop clients drive two otherwise
  identical :class:`~repro.service.QueryService` instances over a 100k-node
  power-law graph: one with micro-batching disabled (``max_batch=1`` —
  sequential per-query dispatch) and one fusing up to 64 queries per cycle.
  At each concurrency level the measured throughput is recorded in
  ``benchmarks/results/BENCH_service_throughput.json``; the test asserts
  fused serving reaches >= 2x sequential throughput at some concurrency
  level >= 8.  A statistical section additionally chi-squares the *pooled
  batched* endpoint counts (and the unbatched ones) against the exact
  endpoint law on a small graph via the ``tests/statcheck.py`` harness, so
  the speedup cannot come from silently changing the answer distribution.

* **standalone load generator** (``python benchmarks/bench_service_throughput.py
  --url http://...``) — closed-loop HTTP clients against a running
  ``repro-cli serve`` instance for a fixed duration; used by the CI service
  smoke job.  Reports throughput, latency percentiles, and the server's own
  ``/stats``; no assertions (shared CI runners are noisy).

The workload is Monte-Carlo HKPR at ``t = 20`` (within the paper's
sensitivity range, Figure 8) with a fixed per-query walk budget — the
"many cheap interactive queries" regime where per-query kernel dispatch
overhead, not raw walk volume, dominates and micro-batching pays.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # standalone mode: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.graph.generators import chung_lu_graph, power_law_degree_sequence
from repro.service import GraphRegistry, QueryService

#: Workload: cheap interactive HKPR queries.
HEAT_T = 20.0
NUM_WALKS = 256
#: Fused dispatch width of the batched service under test.
MAX_BATCH = 64
#: Closed-loop client counts; the acceptance bar applies at >= 8.
CONCURRENCY_LEVELS = (1, 2, 4, 8, 16, 32)
QUERIES_PER_LEVEL = 640
MIN_SPEEDUP = 2.0
#: Acceptance gate on the observability layer's throughput cost, and the
#: alternating on/off rounds whose paired overheads it judges.
OBS_OVERHEAD_MAX = 0.05
OBS_ROUNDS = 7

GRAPH_NAME = "bench-100k"


def build_graph():
    """The 100k-node power-law benchmark graph (same family as the
    parallel-backend acceptance benchmark)."""
    degrees = power_law_degree_sequence(100_000, 2.5, 2, 200, seed=11)
    return chung_lu_graph(degrees, seed=11, connected=False)


def make_service(registry: GraphRegistry, *, max_batch: int) -> QueryService:
    """A service with the result cache disabled (we measure compute)."""
    return QueryService(
        registry,
        max_batch=max_batch,
        cache_entries=0,
        rng=17,
    )


def closed_loop_throughput(
    service: QueryService,
    graph_name: str,
    num_nodes: int,
    *,
    concurrency: int,
    total_queries: int,
) -> dict:
    """Drive ``total_queries`` through closed-loop in-process clients.

    Each client thread issues its next query the moment the previous
    response arrives — the standard closed-loop model, whose offered
    concurrency equals the thread count.
    """
    per_client = total_queries // concurrency
    params = {"t": HEAT_T, "num_walks": NUM_WALKS}
    errors: list[Exception] = []

    def client(client_id: int) -> None:
        rng = np.random.default_rng(1000 + client_id)
        try:
            for _ in range(per_client):
                seed_node = int(rng.integers(0, num_nodes))
                service.query(graph_name, "monte-carlo", seed_node, params)
        except Exception as error:  # noqa: BLE001 - surface in the main thread
            errors.append(error)

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(concurrency)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    completed = per_client * concurrency
    return {
        "concurrency": concurrency,
        "completed": completed,
        "seconds": round(elapsed, 4),
        "qps": round(completed / elapsed, 1),
    }


def _best_of(runs: int, service, graph_name, num_nodes, **kwargs) -> dict:
    best = None
    for _ in range(runs):
        measured = closed_loop_throughput(service, graph_name, num_nodes, **kwargs)
        if best is None or measured["qps"] > best["qps"]:
            best = measured
    return best


def _parity_section() -> dict:
    """Chi-square batched and unbatched service answers against the exact law.

    Uses the statcheck harness on a small graph where the dense endpoint
    law is computable; the pooled counts of 16 concurrent queries from one
    seed are reconstructed from each query's estimate (counts = estimate /
    increment, exact for Monte-Carlo).
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    from statcheck import chi_square_gof, poisson_probs

    from repro.hkpr.poisson import PoissonWeights

    degrees = power_law_degree_sequence(600, 2.5, 2, 40, seed=5)
    graph = chung_lu_graph(degrees, seed=5, connected=False)
    registry = GraphRegistry()
    registry.add_graph("parity", graph)
    weights = PoissonWeights(5.0)
    law = poisson_probs(graph, 0, weights)
    walks, queries = 2000, 16
    params = {"t": 5.0, "num_walks": walks}

    section: dict = {"num_queries": queries, "walks_per_query": walks}
    for mode, max_batch in (("batched", queries), ("sequential", 1)):
        with make_service(registry, max_batch=max_batch) as service:
            futures = [
                service.submit("parity", "monte-carlo", 0, params)
                for _ in range(queries)
            ]
            counts = np.zeros(graph.num_nodes)
            occupancies = []
            for future in futures:
                response = future.result(timeout=120)
                occupancies.append(response.batch_size)
                counts += np.rint(
                    response.result.to_dense(graph) * walks
                )
            outcome = chi_square_gof(counts, law)
            outcome.assert_ok(context=f"service monte-carlo [{mode}]")
            section[mode] = {
                "pvalue": outcome.pvalue,
                "statistic": round(outcome.statistic, 2),
                "samples": outcome.num_samples,
                "max_observed_batch": max(occupancies),
            }
    return section


def test_service_throughput(results_dir):
    """Micro-batched serving >= 2x sequential dispatch at concurrency >= 8."""
    graph = build_graph()
    registry = GraphRegistry()
    registry.add_graph(GRAPH_NAME, graph)

    levels = []
    for concurrency in CONCURRENCY_LEVELS:
        with make_service(registry, max_batch=1) as sequential:
            seq = _best_of(
                2, sequential, GRAPH_NAME, graph.num_nodes,
                concurrency=concurrency, total_queries=QUERIES_PER_LEVEL,
            )
        with make_service(registry, max_batch=MAX_BATCH) as batched:
            fused = _best_of(
                2, batched, GRAPH_NAME, graph.num_nodes,
                concurrency=concurrency, total_queries=QUERIES_PER_LEVEL,
            )
            cycles = batched.stats()["queue"]["batcher"]
        levels.append(
            {
                "concurrency": concurrency,
                "sequential_qps": seq["qps"],
                "batched_qps": fused["qps"],
                "speedup": round(fused["qps"] / seq["qps"], 3),
                "mean_batch_occupancy": round(
                    cycles["collected"] / cycles["cycles"], 3
                ) if cycles["cycles"] else 0.0,
                "full_batches": cycles["full_batches"],
            }
        )

    eligible = [row for row in levels if row["concurrency"] >= 8]
    best = max(eligible, key=lambda row: row["speedup"])
    payload = {
        "benchmark": "service_throughput",
        "mode": "in-process",
        "graph": {
            "name": GRAPH_NAME,
            "n": graph.num_nodes,
            "m": graph.num_edges,
            "model": "chung-lu power-law",
        },
        "workload": {
            "method": "monte-carlo",
            "t": HEAT_T,
            "num_walks": NUM_WALKS,
            "queries_per_level": QUERIES_PER_LEVEL,
        },
        "max_batch": MAX_BATCH,
        "levels": levels,
        "best_speedup_at_concurrency_ge_8": best["speedup"],
        "parity": _parity_section(),
    }
    path = results_dir / "BENCH_service_throughput.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    summary = ", ".join(
        f"c={row['concurrency']}: {row['speedup']:.2f}x" for row in levels
    )
    print(f"\nmicro-batched serving speedups: {summary}  [saved to {path}]")

    assert best["speedup"] >= MIN_SPEEDUP, (
        f"micro-batched serving peaks at {best['speedup']:.2f}x sequential "
        f"dispatch at concurrency {best['concurrency']} "
        f"(required: {MIN_SPEEDUP}x at some concurrency >= 8): {levels}"
    )


def test_observability_overhead(results_dir):
    """Tracing + metrics + kernel profiling cost < 5% of serving QPS.

    Runs the same closed-loop workload through two otherwise identical
    services, observability on (the default) and off (the
    ``REPRO_DISABLE_OBS`` switch the programmatic override mirrors), in
    ``OBS_ROUNDS`` rounds that alternate which mode runs first.  Each
    round gives one paired overhead, ``(off - on) / off``, and the gate
    reads their median, so one noisy run on a shared machine cannot fail
    or pass it alone.  The section is merged into
    ``BENCH_service_throughput.json`` next to the batching results.
    """
    from repro import obs

    degrees = power_law_degree_sequence(30_000, 2.5, 2, 120, seed=13)
    graph = chung_lu_graph(degrees, seed=13, connected=False)
    registry = GraphRegistry()
    registry.add_graph("obs-30k", graph)

    runs: dict[str, list[float]] = {"enabled": [], "disabled": []}
    modes = (("enabled", True), ("disabled", False))
    try:
        for round_index in range(OBS_ROUNDS):
            for mode, flag in modes[::-1] if round_index % 2 else modes:
                obs.set_obs_enabled(flag)
                with make_service(registry, max_batch=MAX_BATCH) as service:
                    # Unrecorded warm-up: allocator and page-cache state;
                    # without it the first round measures cold caches.
                    closed_loop_throughput(
                        service, "obs-30k", graph.num_nodes,
                        concurrency=8, total_queries=QUERIES_PER_LEVEL // 2,
                    )
                    measured = closed_loop_throughput(
                        service, "obs-30k", graph.num_nodes,
                        concurrency=8, total_queries=QUERIES_PER_LEVEL,
                    )
                runs[mode].append(measured["qps"])
    finally:
        obs.set_obs_enabled(None)

    paired = [
        (off - on) / off if off else 0.0
        for on, off in zip(runs["enabled"], runs["disabled"])
    ]
    overhead = float(np.median(paired))
    qps_on = float(np.median(runs["enabled"]))
    qps_off = float(np.median(runs["disabled"]))
    section = {
        "graph": {"n": graph.num_nodes, "m": graph.num_edges},
        "workload": {
            "method": "monte-carlo", "t": HEAT_T, "num_walks": NUM_WALKS,
            "concurrency": 8, "queries_per_run": QUERIES_PER_LEVEL,
            "rounds": OBS_ROUNDS,
        },
        "qps_enabled": qps_on,
        "qps_disabled": qps_off,
        "qps_enabled_runs": runs["enabled"],
        "qps_disabled_runs": runs["disabled"],
        "round_overheads": [round(value, 4) for value in paired],
        "overhead": round(overhead, 4),
        "gate": OBS_OVERHEAD_MAX,
    }

    path = results_dir / "BENCH_service_throughput.json"
    payload = (
        json.loads(path.read_text())
        if path.exists()
        else {"benchmark": "service_throughput", "mode": "in-process"}
    )
    payload["observability_overhead"] = section
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nobservability overhead: median {overhead * 100:.2f}% of "
        f"{OBS_ROUNDS} paired rounds (median {qps_on:.0f} qps on vs "
        f"{qps_off:.0f} qps off)  [saved to {path}]"
    )

    assert overhead < OBS_OVERHEAD_MAX, (
        f"observability costs {overhead * 100:.1f}% QPS (median of "
        f"{OBS_ROUNDS} paired rounds: {section['round_overheads']}); "
        f"gate is {OBS_OVERHEAD_MAX * 100:.0f}%"
    )


# ---------------------------------------------------------------------- #
# Standalone HTTP load generator (CI service smoke job)
# ---------------------------------------------------------------------- #
def _http_load(args: argparse.Namespace) -> dict:
    import urllib.error
    import urllib.request

    body = {
        "graph": args.graph,
        "method": args.method,
        "seed_node": 0,
        "params": {"t": args.t, "num_walks": args.num_walks},
        "top_k": 10,
    }
    deadline = time.perf_counter() + args.duration
    lock = threading.Lock()
    latencies: list[float] = []
    counters = {"completed": 0, "rejected": 0, "errors": 0}

    def worker(worker_id: int) -> None:
        rng = np.random.default_rng(worker_id)
        while time.perf_counter() < deadline:
            request_body = dict(body)
            request_body["seed_node"] = int(rng.integers(0, args.max_seed))
            data = json.dumps(request_body).encode()
            request = urllib.request.Request(
                f"{args.url}/query", data=data,
                headers={"Content-Type": "application/json"},
            )
            started = time.perf_counter()
            try:
                with urllib.request.urlopen(request, timeout=30) as response:
                    response.read()
                with lock:
                    counters["completed"] += 1
                    latencies.append(time.perf_counter() - started)
            except urllib.error.HTTPError as error:
                with lock:
                    key = "rejected" if error.code == 429 else "errors"
                    counters[key] += 1
            except Exception:  # noqa: BLE001 - count and keep hammering
                with lock:
                    counters["errors"] += 1

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(args.concurrency)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    latencies.sort()

    def _pct(p: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(int(p * len(latencies)), len(latencies) - 1)] * 1000.0

    try:
        with urllib.request.urlopen(f"{args.url}/stats", timeout=10) as response:
            server_stats = json.loads(response.read())
    except Exception:  # noqa: BLE001 - stats are best-effort
        server_stats = None

    return {
        "benchmark": "service_throughput",
        "mode": "http",
        "url": args.url,
        "graph": args.graph,
        "workload": {
            "method": args.method, "t": args.t, "num_walks": args.num_walks,
        },
        "concurrency": args.concurrency,
        "duration_seconds": round(elapsed, 2),
        "completed": counters["completed"],
        "rejected": counters["rejected"],
        "errors": counters["errors"],
        "qps": round(counters["completed"] / elapsed, 1) if elapsed else 0.0,
        "latency_ms": {
            "p50": round(_pct(0.50), 2),
            "p95": round(_pct(0.95), 2),
            "max": round(latencies[-1] * 1000.0, 2) if latencies else 0.0,
        },
        "server_stats": server_stats,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="closed-loop HTTP load generator for repro-cli serve"
    )
    parser.add_argument("--url", required=True, help="server base URL")
    parser.add_argument("--graph", required=True, help="registered graph name")
    parser.add_argument("--method", default="monte-carlo")
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--duration", type=float, default=10.0, help="seconds")
    parser.add_argument("--t", type=float, default=HEAT_T)
    parser.add_argument("--num-walks", type=int, default=NUM_WALKS)
    parser.add_argument(
        "--max-seed", type=int, default=10_000,
        help="seed nodes are drawn uniformly from [0, max-seed)",
    )
    parser.add_argument("--output", default=None, help="write the JSON report here")
    args = parser.parse_args(argv)

    report = _http_load(args)
    text = json.dumps(report, indent=2)
    print(text)
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(text + "\n")
    return 0 if report["completed"] > 0 and report["errors"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
