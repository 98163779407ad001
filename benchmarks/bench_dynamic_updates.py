"""Dynamic-graph acceptance benchmark: updates/sec interleaved with
queries/sec, and answer parity after a mutation.

Two sections, both recorded in ``benchmarks/results/BENCH_dynamic_updates.json``
(mirrored to the repo root by the bench conftest):

* **interleaved** — closed-loop query clients drive Monte-Carlo HKPR
  queries through a :class:`~repro.service.QueryService` while a mutator
  thread applies edge batches via :meth:`QueryService.mutate_graph`;
  reports sustained updates/sec next to queries/sec (no gate — shared
  runners are noisy — but both must complete without error and every
  mutation must bump the epoch).
* **parity** — on a small graph where the exact endpoint law is densely
  computable, the service is mutated mid-run and the *post-mutation*
  Monte-Carlo answers are chi-squared against the exact Poisson endpoint
  law of the mutated graph (``tests/statcheck.py`` harness): serving
  through the overlay must not change the answer distribution.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from repro.graph.generators import chung_lu_graph, power_law_degree_sequence
from repro.service import GraphRegistry, QueryService

GRAPH_NAME = "dyn-100k"
HEAT_T = 5.0

#: Interleaved-load shape.
QUERY_CLIENTS = 4
QUERIES_PER_CLIENT = 40
MUTATION_BATCHES = 24
EDGES_PER_MUTATION = 16
NUM_WALKS = 256


def build_graph():
    """The 100k-node power-law benchmark graph (shared with the serving
    and parallel-backend acceptance benchmarks)."""
    degrees = power_law_degree_sequence(100_000, 2.5, 2, 200, seed=11)
    return chung_lu_graph(degrees, seed=11, connected=False)


def _fresh_edges(view, rng, count: int, taken: set) -> list[tuple[int, int]]:
    """``count`` distinct edges absent from ``view`` (and from ``taken``)."""
    n = view.num_nodes
    batch: list[tuple[int, int]] = []
    while len(batch) < count:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        key = (min(u, v), max(u, v))
        if u != v and key not in taken and not view.has_edge(u, v):
            batch.append(key)
            taken.add(key)
    return batch


def interleaved_section(graph) -> dict:
    """Sustained updates/sec while closed-loop query clients are running."""
    registry = GraphRegistry()
    registry.add_graph(GRAPH_NAME, graph)
    errors: list[Exception] = []
    query_times: list[float] = []
    mutation_times: list[float] = []
    mutations_done = threading.Event()

    with QueryService(registry, max_batch=16, cache_entries=0, rng=17) as service:

        def client(client_id: int) -> None:
            rng = np.random.default_rng(500 + client_id)
            try:
                for _ in range(QUERIES_PER_CLIENT):
                    seed_node = int(rng.integers(graph.num_nodes))
                    started = time.perf_counter()
                    service.query(
                        GRAPH_NAME, "monte-carlo", seed_node,
                        {"t": HEAT_T, "num_walks": NUM_WALKS},
                    )
                    query_times.append(time.perf_counter() - started)
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        def mutator() -> None:
            rng = np.random.default_rng(99)
            taken: set = set()
            try:
                for _ in range(MUTATION_BATCHES):
                    entry = service.registry.get(GRAPH_NAME)
                    batch = _fresh_edges(
                        entry.graph, rng, EDGES_PER_MUTATION, taken
                    )
                    started = time.perf_counter()
                    service.mutate_graph(GRAPH_NAME, add=batch)
                    mutation_times.append(time.perf_counter() - started)
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)
            finally:
                mutations_done.set()

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(QUERY_CLIENTS)
        ] + [threading.Thread(target=mutator)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        final_epoch = service.registry.get(GRAPH_NAME).epoch

    if errors:
        raise errors[0]
    total_queries = QUERY_CLIENTS * QUERIES_PER_CLIENT
    return {
        "clients": QUERY_CLIENTS,
        "queries": total_queries,
        "mutation_batches": MUTATION_BATCHES,
        "edges_per_mutation": EDGES_PER_MUTATION,
        "seconds": round(elapsed, 3),
        "queries_per_second": round(total_queries / elapsed, 1),
        "updates_per_second": round(
            MUTATION_BATCHES * EDGES_PER_MUTATION
            / max(sum(mutation_times), 1e-9),
            1,
        ),
        "mutation_batches_per_second": round(
            MUTATION_BATCHES / max(sum(mutation_times), 1e-9), 1
        ),
        "mean_mutation_ms": round(
            sum(mutation_times) / len(mutation_times) * 1000, 3
        ),
        "mean_query_ms": round(sum(query_times) / len(query_times) * 1000, 3),
        "final_epoch": final_epoch,
    }


def parity_section() -> dict:
    """Chi-square post-mutation service answers against the exact law."""
    from statcheck import chi_square_gof, poisson_probs

    from repro.hkpr.poisson import PoissonWeights

    degrees = power_law_degree_sequence(600, 2.5, 2, 40, seed=5)
    graph = chung_lu_graph(degrees, seed=5, connected=False)
    registry = GraphRegistry()
    registry.add_graph("parity", graph)

    rng = np.random.default_rng(21)
    taken: set = set()
    walks, queries = 2000, 16
    with QueryService(
        registry, max_batch=queries, cache_entries=0, rng=23
    ) as service:
        # mutate first, then measure: the answers under test are the
        # *post-mutation* ones, against the mutated graph's exact law.
        batch = _fresh_edges(graph, rng, 32, taken)
        summary = service.mutate_graph("parity", add=batch)
        entry = service.registry.get("parity")
        mutated = entry.graph.compacted()
        law = poisson_probs(mutated, 0, PoissonWeights(HEAT_T))

        futures = [
            service.submit(
                "parity", "monte-carlo", 0,
                {"t": HEAT_T, "num_walks": walks},
            )
            for _ in range(queries)
        ]
        counts = np.zeros(mutated.num_nodes)
        for future in futures:
            response = future.result(timeout=120)
            counts += np.rint(response.result.to_dense(mutated) * walks)
    outcome = chi_square_gof(counts, law)
    outcome.assert_ok(context="post-mutation service monte-carlo")
    return {
        "epoch": summary["epoch"],
        "mutated_edges": summary["added"],
        "num_queries": queries,
        "walks_per_query": walks,
        "pvalue": outcome.pvalue,
        "statistic": round(outcome.statistic, 2),
        "samples": outcome.num_samples,
    }


def test_dynamic_updates(results_dir):
    """Interleaved mutations all land as epochs, and parity holds."""
    graph = build_graph()

    interleaved = interleaved_section(graph)
    parity = parity_section()

    payload = {
        "benchmark": "dynamic_updates",
        "graph": {
            "name": GRAPH_NAME,
            "n": graph.num_nodes,
            "m": graph.num_edges,
            "model": "chung-lu power-law",
        },
        "interleaved": interleaved,
        "parity": parity,
    }
    path = results_dir / "BENCH_dynamic_updates.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")

    print(
        f"\ninterleaved {interleaved['queries_per_second']} q/s + "
        f"{interleaved['updates_per_second']} edge-updates/s "
        f"[saved to {path}]"
    )

    assert interleaved["final_epoch"] == MUTATION_BATCHES
    assert interleaved["queries_per_second"] > 0
    assert interleaved["updates_per_second"] > 0
