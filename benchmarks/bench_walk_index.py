"""Walk-sketch index acceptance benchmark: indexed vs cold hot-seed serving.

The walk-sketch index tier (:mod:`repro.index`) precomputes endpoint
sketches for hub seeds so that serving a hot-seed sampling query replaces
stored walks one-for-one and only tops up the remainder online.  This
harness is the acceptance check for that tier:

* **throughput** — closed-loop clients drive a hub-skewed Monte-Carlo HKPR
  workload (every seed is one of the indexed hubs) through two otherwise
  identical :class:`~repro.service.QueryService` instances over a 100k-node
  power-law graph: one cold, one with a 64-hub index attached.  Result
  caches are disabled on both so the contrast measures the index, not
  response memoization.  The gate asserts indexed serving reaches
  >= 2x cold throughput.

* **parity** — the speedup must not change the answer's distribution.  On a
  small graph where the exact endpoint law is computable, queries sized to
  force the *combine* path (requested walks > stored walks, so every answer
  mixes stored endpoints with a fresh top-up) are chi-squared against the
  exact Poisson endpoint law via the ``tests/statcheck.py`` harness, and the
  counters are checked to attribute the stored/fresh split exactly.

Run with ``pytest benchmarks/bench_walk_index.py``; the JSON summary lands
in ``benchmarks/results/BENCH_walk_index.json`` (mirrored to the repo root
by the suite's ``conftest``).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.graph.generators import chung_lu_graph, power_law_degree_sequence
from repro.index import build_walk_index, select_hubs
from repro.service import GraphRegistry, QueryService

#: Workload: hot-seed Monte-Carlo HKPR, sized so a sketch fully covers it.
HEAT_T = 5.0
NUM_WALKS = 20_000
#: Index shape: sketches fully cover the per-query walk budget.
NUM_HUBS = 64
WALKS_PER_SKETCH = 20_000
#: Closed-loop load shape shared by both services.
CONCURRENCY = 16
TOTAL_QUERIES = 512
MAX_BATCH = 64
MIN_SPEEDUP = 2.0

GRAPH_NAME = "bench-100k"


def build_graph():
    """The 100k-node power-law graph shared with the serving benchmarks."""
    degrees = power_law_degree_sequence(100_000, 2.5, 2, 200, seed=11)
    return chung_lu_graph(degrees, seed=11, connected=False)


def make_service(registry: GraphRegistry, *, max_batch: int = MAX_BATCH):
    """A service with the result cache disabled (we measure the index)."""
    return QueryService(
        registry,
        max_batch=max_batch,
        cache_entries=0,
    )


def hub_skewed_throughput(
    service: QueryService,
    hubs: np.ndarray,
    *,
    concurrency: int = CONCURRENCY,
    total_queries: int = TOTAL_QUERIES,
) -> dict:
    """Drive a hub-only closed-loop workload and report wall-clock QPS."""
    per_client = total_queries // concurrency
    params = {"t": HEAT_T, "num_walks": NUM_WALKS}
    errors: list[Exception] = []

    def client(client_id: int) -> None:
        rng = np.random.default_rng(1000 + client_id)
        try:
            for _ in range(per_client):
                seed_node = int(hubs[rng.integers(0, hubs.size)])
                service.query(GRAPH_NAME, "monte-carlo", seed_node, params)
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
        "completed": completed,
        "seconds": round(elapsed, 4),
        "qps": round(completed / elapsed, 1),
    }


def _best_of(runs: int, service, hubs) -> dict:
    best = None
    for _ in range(runs):
        measured = hub_skewed_throughput(service, hubs)
        if best is None or measured["qps"] > best["qps"]:
            best = measured
    return best


def _parity_section() -> dict:
    """Chi-square indexed answers (stored + top-up combine) vs the exact law.

    Every query requests three times the stored sketch size, so the combine
    path is exercised on each answer: two thirds of the walks are sampled
    fresh and folded in at the same increment as the stored endpoints.
    Counts are reconstructed from the estimates (counts = estimate / (1/N),
    exact for Monte-Carlo).  Because every query reuses the *same* stored
    sketch, its endpoint counts are counted once and only the per-query
    fresh top-ups are pooled on top — pooling the raw answers would count
    each stored draw eight times and reject any law on variance alone.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    from statcheck import chi_square_gof, poisson_probs

    from repro.hkpr.poisson import PoissonWeights

    degrees = power_law_degree_sequence(600, 2.5, 2, 40, seed=5)
    graph = chung_lu_graph(degrees, seed=5, connected=False)
    seed_node, stored, queries = 0, 3_000, 8
    total = 3 * stored  # forces a top-up of 2 * stored fresh walks per query

    index = build_walk_index(
        graph,
        hubs=[seed_node],
        walks_per_sketch=stored,
        t_values=(HEAT_T,),
        rng=0,
    )
    registry = GraphRegistry()
    registry.add_graph("parity", graph)
    registry.attach_index("parity", index)
    law = poisson_probs(graph, seed_node, PoissonWeights(HEAT_T))
    params = {"t": HEAT_T, "num_walks": total}

    stored_counts = np.bincount(
        index.lookup("poisson", seed_node, HEAT_T), minlength=graph.num_nodes
    ).astype(float)
    counts = stored_counts.copy()
    with make_service(registry, max_batch=queries) as service:
        futures = [
            service.submit("parity", "monte-carlo", seed_node, params)
            for _ in range(queries)
        ]
        for future in futures:
            result = future.result(timeout=120).result
            extras = result.counters.extras
            assert extras["walks_from_index"] == float(stored), extras
            assert extras["walks_sampled"] == float(total - stored), extras
            counts += np.rint(result.to_dense(graph) * total) - stored_counts
    outcome = chi_square_gof(counts, law)
    outcome.assert_ok(context="indexed monte-carlo [stored + top-up combine]")
    return {
        "num_queries": queries,
        "stored_walks_per_query": stored,
        "sampled_walks_per_query": total - stored,
        "pvalue": outcome.pvalue,
        "statistic": round(outcome.statistic, 2),
        "samples": outcome.num_samples,
    }


def test_walk_index_speedup(results_dir):
    """Indexed hot-seed serving >= 2x cold, with distributional parity."""
    graph = build_graph()
    hubs = select_hubs(graph, NUM_HUBS)

    build_started = time.perf_counter()
    index = build_walk_index(
        graph,
        hubs=hubs,
        walks_per_sketch=WALKS_PER_SKETCH,
        t_values=(HEAT_T,),
        rng=0,
    )
    build_seconds = time.perf_counter() - build_started

    cold_registry = GraphRegistry()
    cold_registry.add_graph(GRAPH_NAME, graph)
    with make_service(cold_registry) as cold_service:
        cold = _best_of(2, cold_service, hubs)

    indexed_registry = GraphRegistry()
    indexed_registry.add_graph(GRAPH_NAME, graph)
    indexed_registry.attach_index(GRAPH_NAME, index)
    with make_service(indexed_registry) as indexed_service:
        indexed = _best_of(2, indexed_service, hubs)
        index_stats = indexed_service.stats()["index"]

    speedup = round(indexed["qps"] / cold["qps"], 3)
    payload = {
        "benchmark": "walk_index",
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
            "seed_distribution": f"uniform over the {NUM_HUBS} indexed hubs",
            "concurrency": CONCURRENCY,
            "total_queries": TOTAL_QUERIES,
        },
        "index": {
            "num_hubs": NUM_HUBS,
            "walks_per_sketch": WALKS_PER_SKETCH,
            "num_sketches": index.num_sketches,
            "total_endpoints": index.total_endpoints,
            "build_seconds": round(build_seconds, 2),
        },
        "cold_qps": cold["qps"],
        "indexed_qps": indexed["qps"],
        "speedup": speedup,
        "index_serving_stats": index_stats,
        "parity": _parity_section(),
    }
    path = results_dir / "BENCH_walk_index.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nwalk-index serving: cold {cold['qps']} qps -> indexed "
        f"{indexed['qps']} qps ({speedup:.2f}x)  [saved to {path}]"
    )

    assert index_stats["hits"] >= TOTAL_QUERIES, index_stats
    assert speedup >= MIN_SPEEDUP, (
        f"indexed hot-seed serving reached {speedup:.2f}x cold throughput "
        f"(required: {MIN_SPEEDUP}x): cold={cold} indexed={indexed}"
    )
