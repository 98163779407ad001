"""Synthetic graph generators.

The paper evaluates on six SNAP graphs plus two synthetic ones (PLC, a
Holme–Kim powerlaw-cluster graph, and a 3D grid).  This module provides the
two synthetic generators exactly as described, plus the families used to
build laptop-scale *surrogates* for the SNAP graphs (see ``DESIGN.md`` §2):

* :func:`powerlaw_cluster_graph` — Holme–Kim model (the paper's PLC),
* :func:`grid_3d_graph` — 3D grid / torus with degree 6 (the paper's 3D-grid),
* :func:`chung_lu_graph` — power-law expected-degree model,
* :func:`planted_partition_graph` — community-structured graphs
  (ground-truth communities live in :mod:`repro.graph.communities`),
* :func:`erdos_renyi_graph`, :func:`barabasi_albert_graph`,
  :func:`ring_graph`, :func:`star_graph`, :func:`complete_graph` — small
  building blocks used heavily by the test suite.

All generators take an explicit ``seed`` and are deterministic for a fixed
seed.  They return the largest connected component when ``connected=True``
(the default for the stochastic models), because local clustering from a
seed node is only meaningful within the seed's component.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.utils.rng import RandomState, ensure_rng


def _component_labels(graph: Graph) -> np.ndarray:
    """The smallest node id in each node's connected component.

    Min-label propagation in whole-array passes.  Each pass, every node
    takes the smallest label among itself and its neighbours and hands it
    on to the node its old label names (without that hook a long cycle
    with shuffled ids needs a pass per few nodes); then labels are followed
    to their own labels until they stop moving.  A label is always a node
    of the same component and never above the node's own id, so at the
    fixed point each component carries its smallest node id.
    """
    rows = np.flatnonzero(graph.degrees)
    starts = graph.indptr[rows]
    indices = graph.indices
    labels = np.arange(graph.num_nodes, dtype=np.int64)
    while True:
        lowest = labels.copy()
        lowest[rows] = np.minimum(
            labels[rows], np.minimum.reduceat(labels[indices], starts)
        )
        np.minimum.at(lowest, labels, lowest.copy())
        while True:
            followed = lowest[lowest]
            if np.array_equal(followed, lowest):
                break
            lowest = followed
        if np.array_equal(lowest, labels):
            return labels
        labels = lowest


def _largest_component(graph: Graph) -> Graph:
    """Return the induced subgraph on the largest connected component.

    On a tie in size the component holding the smallest node id wins.
    """
    if graph.num_nodes == 0:
        return graph
    labels = _component_labels(graph)
    sizes = np.bincount(labels)
    best = int(np.argmax(sizes))  # the first maximum: the smallest label
    if sizes[best] == graph.num_nodes:
        return graph
    sub, _ = graph.subgraph(np.flatnonzero(labels == best))
    return sub


def erdos_renyi_graph(
    n: int, p: float, *, seed: RandomState = None, connected: bool = False
) -> Graph:
    """G(n, p) random graph.

    Parameters
    ----------
    n: number of nodes.
    p: independent probability for each of the n(n-1)/2 edges.
    connected: if true, return only the largest connected component.
    """
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"edge probability must be in [0, 1], got {p}")
    rng = ensure_rng(seed)
    edges: list[tuple[int, int]] = []
    for u in range(n):
        draws = rng.random(n - u - 1)
        for offset in np.nonzero(draws < p)[0]:
            edges.append((u, u + 1 + int(offset)))
    graph = Graph(n, edges)
    return _largest_component(graph) if connected else graph


def ring_graph(n: int) -> Graph:
    """Cycle graph on ``n`` nodes (every node has degree 2)."""
    if n < 3:
        raise ParameterError(f"a ring needs at least 3 nodes, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star with one hub (node 0) and ``n - 1`` leaves."""
    if n < 2:
        raise ParameterError(f"a star needs at least 2 nodes, got {n}")
    return Graph(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    """Complete graph on ``n`` nodes."""
    if n < 1:
        raise ParameterError(f"a complete graph needs at least 1 node, got {n}")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    """Path graph on ``n`` nodes."""
    if n < 2:
        raise ParameterError(f"a path needs at least 2 nodes, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def barabasi_albert_graph(n: int, m: int, *, seed: RandomState = None) -> Graph:
    """Barabási–Albert preferential-attachment graph.

    Each new node attaches to ``m`` existing nodes chosen with probability
    proportional to degree.  Produces a power-law degree distribution similar
    to the social networks in the paper's benchmark set.
    """
    if m < 1 or m >= n:
        raise ParameterError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = ensure_rng(seed)
    edges: list[tuple[int, int]] = []
    # Repeated-nodes list implements preferential attachment in O(1) per draw.
    repeated: list[int] = []
    targets = list(range(m))
    for new_node in range(m, n):
        chosen = set()
        for target in targets:
            if target != new_node:
                chosen.add(target)
        for target in chosen:
            edges.append((new_node, target))
            repeated.append(new_node)
            repeated.append(target)
        if repeated:
            picks = rng.integers(0, len(repeated), size=m)
            targets = list({repeated[int(i)] for i in picks})
        else:  # pragma: no cover - only for degenerate m
            targets = [0]
    graph = Graph(n, edges, dedupe=True)
    return _largest_component(graph)


def powerlaw_cluster_graph(
    n: int, m: int, triangle_probability: float, *, seed: RandomState = None
) -> Graph:
    """Holme–Kim powerlaw-cluster graph (the paper's *PLC* dataset).

    Starts like Barabási–Albert but, after each preferential attachment,
    with probability ``triangle_probability`` the next edge instead closes a
    triangle with a random neighbor of the previously chosen target.  This
    yields a power-law degree distribution *and* a tunable clustering
    coefficient, matching the generator the paper cites.

    Parameters
    ----------
    n: number of nodes.
    m: edges added per new node.
    triangle_probability: probability of closing a triangle per added edge.
    """
    if m < 1 or m >= n:
        raise ParameterError(f"need 1 <= m < n, got m={m}, n={n}")
    if not 0.0 <= triangle_probability <= 1.0:
        raise ParameterError(
            f"triangle probability must be in [0, 1], got {triangle_probability}"
        )
    rng = ensure_rng(seed)
    adjacency: list[set[int]] = [set() for _ in range(n)]
    repeated: list[int] = list(range(m))

    def add_edge(u: int, v: int) -> bool:
        if u == v or v in adjacency[u]:
            return False
        adjacency[u].add(v)
        adjacency[v].add(u)
        repeated.append(u)
        repeated.append(v)
        return True

    for new_node in range(m, n):
        added = 0
        last_target: int | None = None
        guard = 0
        while added < m and guard < 50 * m:
            guard += 1
            close_triangle = (
                last_target is not None
                and adjacency[last_target]
                and rng.random() < triangle_probability
            )
            if close_triangle:
                candidates = sorted(adjacency[last_target])
                target = int(candidates[rng.integers(len(candidates))])
            else:
                target = int(repeated[rng.integers(len(repeated))])
            if add_edge(new_node, target):
                added += 1
                last_target = target
    degrees = np.fromiter(map(len, adjacency), dtype=np.int64, count=n)
    sources = np.repeat(np.arange(n, dtype=np.int64), degrees)
    targets = np.fromiter(
        itertools.chain.from_iterable(adjacency), dtype=np.int64, count=sources.size
    )
    keep = sources < targets
    graph = Graph(n, np.column_stack((sources[keep], targets[keep])))
    return _largest_component(graph)


def grid_3d_graph(
    nx_dim: int, ny_dim: int, nz_dim: int, *, periodic: bool = True
) -> Graph:
    """3D grid graph (the paper's *3D-grid* dataset).

    With ``periodic=True`` (a torus) every node has exactly six neighbors,
    matching the paper's description ("every node has six edges, each
    connecting it to its 2 neighbors in each dimension").
    """
    dims = (nx_dim, ny_dim, nz_dim)
    if any(d < (3 if periodic else 2) for d in dims):
        raise ParameterError(
            f"each dimension must be >= {3 if periodic else 2}, got {dims}"
        )

    def node_id(x: int, y: int, z: int) -> int:
        return (x * ny_dim + y) * nz_dim + z

    edges: list[tuple[int, int]] = []
    for x in range(nx_dim):
        for y in range(ny_dim):
            for z in range(nz_dim):
                here = node_id(x, y, z)
                if x + 1 < nx_dim:
                    edges.append((here, node_id(x + 1, y, z)))
                elif periodic:
                    edges.append((here, node_id(0, y, z)))
                if y + 1 < ny_dim:
                    edges.append((here, node_id(x, y + 1, z)))
                elif periodic:
                    edges.append((here, node_id(x, 0, z)))
                if z + 1 < nz_dim:
                    edges.append((here, node_id(x, y, z + 1)))
                elif periodic:
                    edges.append((here, node_id(x, y, 0)))
    return Graph(nx_dim * ny_dim * nz_dim, edges, dedupe=True)


def chung_lu_graph(
    degree_sequence: list[int] | np.ndarray,
    *,
    seed: RandomState = None,
    connected: bool = True,
) -> Graph:
    """Chung–Lu style random graph with a given expected degree sequence.

    Uses the fast edge-sampling variant: ``sum(w)/2`` candidate edges are
    drawn with both endpoints sampled proportionally to the weights, which
    reproduces the expected degree profile up to sampling noise.  Used to
    build surrogates that match a target (power-law) degree distribution.
    """
    weights = np.asarray(degree_sequence, dtype=float)
    if np.any(weights < 0):
        raise ParameterError("expected degrees must be non-negative")
    n = len(weights)
    total = weights.sum()
    # rng.choice rejected a NaN or infinite p; the CDF below would not.
    if not 0.0 < total < np.inf:
        raise ParameterError("expected degree sequence must have a positive, finite sum")
    rng = ensure_rng(seed)
    num_candidates = max(1, int(round(total / 2.0)))
    # rng.choice(n, size, p=weights / total), twice, without its per-call
    # checks and with the uniforms searched in sorted order: the same CDF,
    # the same draws and the same endpoints.
    cdf = np.cumsum(weights / total)
    cdf /= cdf[-1]
    # Both endpoint columns, sources then targets, drawn into the one
    # (m, 2) array Graph reads; dedupe drops the self-loops and repeated
    # pairs among the candidates.
    candidates = np.empty((num_candidates, 2), dtype=np.int64)
    for column in candidates.T:
        _search_sorted_uniforms(cdf, rng.random(num_candidates), out=column)
    graph = Graph(n, candidates, dedupe=True)
    return _largest_component(graph) if connected else graph


def _search_sorted_uniforms(
    cdf: np.ndarray, uniforms: np.ndarray, *, out: np.ndarray
) -> None:
    """``out[:] = cdf.searchsorted(uniforms, side="right")``, in sorted order.

    Sorted needles let each binary search start where the previous one
    ended, which on a large CDF is faster than the sort it costs.  Sorts
    ``uniforms`` in place.
    """
    order = np.argsort(uniforms)
    uniforms.sort()
    out[order] = cdf.searchsorted(uniforms, side="right")


def power_law_degree_sequence(
    n: int, exponent: float, min_degree: int, max_degree: int, *, seed: RandomState = None
) -> np.ndarray:
    """Sample ``n`` integer degrees from a truncated power law.

    ``P(d) ∝ d^{-exponent}`` for ``min_degree <= d <= max_degree``.
    """
    if exponent <= 1.0:
        raise ParameterError(f"power-law exponent must be > 1, got {exponent}")
    if min_degree < 1 or max_degree < min_degree:
        raise ParameterError(
            f"need 1 <= min_degree <= max_degree, got {min_degree}, {max_degree}"
        )
    rng = ensure_rng(seed)
    support = np.arange(min_degree, max_degree + 1, dtype=float)
    pmf = support**-exponent
    pmf /= pmf.sum()
    return rng.choice(support.astype(int), size=n, p=pmf)


def planted_partition_graph(
    num_communities: int,
    community_size: int,
    p_in: float,
    p_out: float,
    *,
    seed: RandomState = None,
) -> tuple[Graph, list[list[int]]]:
    """Planted-partition (stochastic block model) graph.

    Returns the graph and the list of planted communities (node-id lists).
    Used both for ground-truth-community experiments (Table 8) and for the
    test suite's "does local clustering recover the planted block" checks.
    """
    if num_communities < 1 or community_size < 2:
        raise ParameterError("need at least one community of size >= 2")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ParameterError(
            f"need 0 <= p_out <= p_in <= 1, got p_in={p_in}, p_out={p_out}"
        )
    rng = ensure_rng(seed)
    n = num_communities * community_size
    communities = [
        list(range(c * community_size, (c + 1) * community_size))
        for c in range(num_communities)
    ]
    membership = np.repeat(np.arange(num_communities), community_size)
    edges: list[tuple[int, int]] = []
    for u in range(n):
        draws = rng.random(n - u - 1)
        same = membership[u + 1 :] == membership[u]
        threshold = np.where(same, p_in, p_out)
        for offset in np.nonzero(draws < threshold)[0]:
            edges.append((u, u + 1 + int(offset)))
    return Graph(n, edges), communities
