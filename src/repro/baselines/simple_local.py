"""SimpleLocal-style flow-based cut improvement (Veldt, Gleich & Mahoney).

SimpleLocal improves the conductance of a reference region around the seed
by solving a sequence of maximum-flow / minimum-cut problems on an augmented
graph.  Following the MQI / SimpleLocal family:

1. Grow a reference set ``R`` around the seed by BFS until a volume budget
   (controlled by the ``locality`` parameter) is reached.
2. Repeatedly build the augmented network for the current set ``S`` with
   conductance ``phi``:
   * internal edges of ``S`` keep capacity 1,
   * a super-source connects to each ``v in S`` with capacity equal to the
     number of its edges leaving ``S`` (its share of the cut),
   * each ``v in S`` connects to a super-sink with capacity ``phi * d(v)``.
   If the minimum cut is smaller than ``|cut(S)|``, the source side of the
   cut (minus the super-source) is a strictly better-conductance subset;
   adopt it and repeat.  Otherwise ``S`` is optimal within ``R`` and we stop.

This reproduces the behaviour the paper reports for SimpleLocal: good for
*recovering* a cluster from a sizeable reference set, but expensive and poor
when seeded with a single node (Figure 4), because the flow problems operate
on the whole reference region rather than adapting to the seed.

The max-flow computations use :func:`networkx.algorithms.flow.preflow_push`
on the (local) augmented graph, so the cost depends only on the reference
region, keeping the method strongly local as in the original paper.
networkx is imported inside the improvement step, so only a SimpleLocal
call loads it.
"""

from __future__ import annotations

import time
from collections import deque

from repro.baselines.common import BaselineClusteringResult
from repro.clustering.conductance import conductance
from repro.exceptions import ParameterError
from repro.graph.graph import Graph


def _grow_reference_set(graph: Graph, seed: int, volume_budget: int) -> set[int]:
    """BFS ball around ``seed`` with total volume at most ``volume_budget``."""
    reference = {seed}
    volume = graph.degree(seed)
    frontier = deque([seed])
    while frontier and volume < volume_budget:
        node = frontier.popleft()
        for neighbor in graph.neighbors(node):
            neighbor = int(neighbor)
            if neighbor in reference:
                continue
            degree = graph.degree(neighbor)
            if volume + degree > volume_budget and len(reference) > 1:
                continue
            reference.add(neighbor)
            volume += degree
            frontier.append(neighbor)
    return reference


def _improve_once(graph: Graph, current: set[int]) -> set[int] | None:
    """One MQI-style improvement step; returns a strictly better subset or None."""
    cut_edges = graph.cut_size(current)
    set_volume = graph.volume(current)
    if cut_edges == 0 or set_volume == 0:
        return None
    phi = cut_edges / set_volume

    import networkx as nx

    flow_graph = nx.DiGraph()
    source, sink = "source", "sink"
    for node in current:
        boundary = sum(1 for nbr in graph.neighbors(node) if int(nbr) not in current)
        if boundary > 0:
            flow_graph.add_edge(source, node, capacity=float(boundary))
        flow_graph.add_edge(node, sink, capacity=phi * graph.degree(node))
        for neighbor in graph.neighbors(node):
            neighbor = int(neighbor)
            if neighbor in current:
                flow_graph.add_edge(node, neighbor, capacity=1.0)

    cut_value, (source_side, _) = nx.minimum_cut(
        flow_graph, source, sink, flow_func=nx.algorithms.flow.preflow_push
    )
    if cut_value >= cut_edges - 1e-12:
        return None
    improved = {node for node in source_side if node not in (source, sink)}
    if not improved or improved == current:
        return None
    return improved


def simple_local(
    graph: Graph,
    seed: int,
    *,
    locality: float = 0.05,
    max_iterations: int = 20,
) -> BaselineClusteringResult:
    """Flow-based local clustering around ``seed``.

    Parameters
    ----------
    locality:
        The paper's locality parameter ``delta``; smaller values allow a
        larger reference region (volume budget ``min(vol(G)/2, d(seed)/locality)``),
        hence more work and potentially better clusters.
    max_iterations:
        Cap on the number of flow-improvement rounds.
    """
    if not graph.has_node(seed):
        raise ParameterError(f"seed node {seed} is not in the graph")
    if locality <= 0:
        raise ParameterError(f"locality must be positive, got {locality}")
    start = time.perf_counter()

    volume_budget = int(
        min(graph.total_volume / 2.0, max(graph.degree(seed), 1) / locality)
    )
    volume_budget = max(volume_budget, graph.degree(seed) + 1)
    reference = _grow_reference_set(graph, seed, volume_budget)

    current = set(reference)
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        improved = _improve_once(graph, current)
        if improved is None:
            break
        # Keep the seed's side: if the improvement dropped the seed, fall back
        # to the seed's connected part of the improved set when possible.
        if seed in improved:
            current = improved
        else:
            keep = improved | {seed}
            current = keep

    phi = conductance(graph, current)
    elapsed = time.perf_counter() - start
    return BaselineClusteringResult(
        cluster=current,
        conductance=phi,
        seed=seed,
        method="simple-local",
        elapsed_seconds=elapsed,
        work=iterations,
        details={
            "reference_volume": float(graph.volume(reference)),
            "iterations": float(iterations),
        },
    )
