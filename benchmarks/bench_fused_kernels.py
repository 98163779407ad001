"""Benchmark: fused query groups vs task batches vs one query at a time.

``test_fused_kernel_speedup`` times a service-shaped workload — many small
monte-carlo HKPR queries on a 100k-node power-law graph — three ways on the
``vectorized`` backend:

* ``fused``: ``monte_carlo_hkpr_many`` — every query's walk phase is a
  :class:`~repro.engine.fused.FusedQuery`, and
  :func:`~repro.engine.fused.run_fused_queries` draws the starts and walks
  each fuse group in shared kernel calls (the unpinned serving route).
* ``task_batched``: the same plans' ``tasks`` (start arrays made per query
  in Python) through :func:`~repro.engine.multi.run_walk_tasks`, which
  concatenates them into shared kernel calls (the pinned serving route).
* ``per_query``: a plain loop over the single-query ``monte_carlo_hkpr``
  API — separate kernel calls with full per-query Python re-entry, which
  is exactly the overhead fusion eliminates end to end.

The ``fused_vs_unfused`` ratio compares ``fused`` against ``per_query``
(separate passes, as a non-batching caller would run them);
``fused_vs_task_batched`` is recorded alongside.  The test records the
three walk rates and gates nothing.

``test_mmap_graph_end_to_end`` is the mmap acceptance demo: a 10M+-edge
graph is packed to ``.rcsr``, mapped back in under a second, and answers a
monte-carlo query over HTTP.
"""

from __future__ import annotations

import json
import time
import urllib.request

import numpy as np
import pytest

from repro.engine.multi import run_walk_tasks
from repro.graph.generators import chung_lu_graph, power_law_degree_sequence
from repro.graph.graph import Graph
from repro.hkpr.batched import MonteCarloPlan, monte_carlo_hkpr_many
from repro.hkpr.monte_carlo import monte_carlo_hkpr
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import PoissonWeights

#: Many small queries: the micro-batched service shape fusion targets.
NUM_QUERIES = 512
WALKS_PER_QUERY = 250

#: The mmap demo graph: >= 10M edges, and the packed file must map in < 1s.
MMAP_NUM_NODES = 2_000_000
MMAP_NUM_EDGES = 10_500_000
MAX_MMAP_LOAD_SECONDS = 1.0


@pytest.fixture(scope="module")
def graph():
    degrees = power_law_degree_sequence(100_000, 2.5, 2, 200, seed=11)
    return chung_lu_graph(degrees, seed=11, connected=False)


def _run_workload(backend_name: str, graph, seeds, params) -> None:
    monte_carlo_hkpr_many(
        graph,
        seeds,
        params,
        num_walks=WALKS_PER_QUERY,
        rng=9,
        backend=backend_name,
    )


def _run_task_batched(backend_name: str, graph, seeds, params) -> None:
    weights = PoissonWeights(params.t)
    plans = [
        MonteCarloPlan(graph, seed, params, num_walks=WALKS_PER_QUERY, weights=weights)
        for seed in dict.fromkeys(seeds)
    ]
    tasks, counters_list = [], []
    for plan in plans:
        tasks.extend(plan.tasks)
        counters_list.extend([plan.counters] * len(plan.tasks))
    endpoints = run_walk_tasks(
        backend_name, graph, tasks, np.random.default_rng(9),
        counters_list=counters_list,
    )
    for plan, ends in zip(plans, endpoints):
        plan.finalize([ends])


def _run_per_query(backend_name: str, graph, seeds, params) -> None:
    rng = np.random.default_rng(9)
    for seed in seeds:
        monte_carlo_hkpr(
            graph,
            seed,
            params,
            num_walks=WALKS_PER_QUERY,
            rng=rng,
            backend=backend_name,
        )


def _best_of(fn, repeats: int) -> float:
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return min(timings)


def test_fused_kernel_speedup(graph, results_dir):
    """Record vectorized fused, task-batched and per-query walks/sec."""
    rng = np.random.default_rng(3)
    seeds = [int(s) for s in rng.integers(0, graph.num_nodes, size=NUM_QUERIES)]
    params = HKPRParams(
        t=5.0, eps_r=0.5, delta=1.0 / graph.num_nodes, p_f=1e-6
    )
    total_walks = NUM_QUERIES * WALKS_PER_QUERY

    name = "vectorized"
    _run_workload(name, graph, seeds[:2], params)  # warm caches
    fused_seconds = _best_of(lambda: _run_workload(name, graph, seeds, params), 3)
    task_batched_seconds = _best_of(
        lambda: _run_task_batched(name, graph, seeds, params), 3
    )
    per_query_seconds = _best_of(lambda: _run_per_query(name, graph, seeds, params), 2)
    stats = {
        "fused_seconds": fused_seconds,
        "task_batched_seconds": task_batched_seconds,
        "per_query_seconds": per_query_seconds,
        "fused_walks_per_second": total_walks / fused_seconds,
        "task_batched_walks_per_second": total_walks / task_batched_seconds,
        "per_query_walks_per_second": total_walks / per_query_seconds,
        "fused_vs_unfused": per_query_seconds / fused_seconds,
        "fused_vs_task_batched": task_batched_seconds / fused_seconds,
    }

    payload = {
        "benchmark": "fused_kernels",
        "graph": {
            "n": graph.num_nodes,
            "m": graph.num_edges,
            "model": "chung-lu power-law",
        },
        "num_queries": NUM_QUERIES,
        "walks_per_query": WALKS_PER_QUERY,
        "total_walks": total_walks,
        "t": params.t,
        "backends": {name: stats},
    }
    path = results_dir / "BENCH_fused_kernels.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nfused walk throughput: {name}: "
        f"{stats['fused_vs_unfused']:.2f}x vs per-query, "
        f"{stats['fused_vs_task_batched']:.2f}x vs task-batched  "
        f"[saved to {path}]"
    )


@pytest.mark.slow
def test_mmap_graph_end_to_end(results_dir, tmp_path):
    """Pack a 10M+-edge graph, map it in < 1s, answer a query over HTTP."""
    from repro.service import GraphRegistry, QueryService
    from repro.service.http import serve_in_thread

    rng = np.random.default_rng(17)
    edges = rng.integers(0, MMAP_NUM_NODES, size=(MMAP_NUM_EDGES, 2), dtype=np.int64)
    edges = edges[edges[:, 0] != edges[:, 1]]
    build_started = time.perf_counter()
    graph = Graph(MMAP_NUM_NODES, edges, dedupe=True)
    build_seconds = time.perf_counter() - build_started
    assert graph.num_edges >= 10_000_000

    path = tmp_path / "big.rcsr"
    pack_started = time.perf_counter()
    graph.to_binary(path)
    pack_seconds = time.perf_counter() - pack_started

    load_started = time.perf_counter()
    loaded = Graph.from_binary(path, mmap=True)
    load_seconds = time.perf_counter() - load_started
    assert loaded.backing["kind"] == "mmap"

    registry = GraphRegistry()
    entry = registry.add_binary(path, name="big")
    assert entry.storage == "mmap"

    with QueryService(registry, rng=5) as service:
        server, _ = serve_in_thread(service, "127.0.0.1", 0)
        try:
            base = f"http://127.0.0.1:{server.server_address[1]}"
            request = urllib.request.Request(
                f"{base}/query",
                data=json.dumps(
                    {
                        "graph": "big",
                        "method": "monte-carlo",
                        "seed_node": int(np.argmax(graph.degrees)),
                        "params": {"num_walks": 2_000},
                        "top_k": 5,
                    }
                ).encode(),
                headers={"Content-Type": "application/json"},
            )
            query_started = time.perf_counter()
            with urllib.request.urlopen(request, timeout=120) as response:
                answer = json.loads(response.read())
            query_seconds = time.perf_counter() - query_started
            with urllib.request.urlopen(f"{base}/stats", timeout=30) as response:
                storage = json.loads(response.read())["graph_storage"]["big"]
        finally:
            server.shutdown()
            server.server_close()

    assert answer["method"] == "monte-carlo"
    assert len(answer["top"]) > 0
    assert storage["storage"] == "mmap"

    payload = {
        "benchmark": "mmap_graph_end_to_end",
        "graph": {"n": graph.num_nodes, "m": graph.num_edges, "model": "uniform random"},
        "rcsr_bytes": path.stat().st_size,
        "build_seconds": build_seconds,
        "pack_seconds": pack_seconds,
        "mmap_load_seconds": load_seconds,
        "registry_load_seconds": entry.load_seconds,
        "http_query_seconds": query_seconds,
    }
    out = results_dir / "BENCH_mmap_graph.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\n{graph.num_edges / 1e6:.1f}M-edge graph: pack {pack_seconds:.1f}s, "
        f"mmap load {load_seconds * 1000:.1f}ms, HTTP query "
        f"{query_seconds:.2f}s  [saved to {out}]"
    )

    assert load_seconds < MAX_MMAP_LOAD_SECONDS, (
        f"mmap load took {load_seconds:.2f}s (required: < "
        f"{MAX_MMAP_LOAD_SECONDS}s)"
    )
