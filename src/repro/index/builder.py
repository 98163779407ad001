"""Offline walk-sketch index builder.

Selects hub nodes (by degree, or from an explicit seed list), walks ``W``
endpoint samples per hub per bucket, and assembles a
:class:`~repro.index.walk_index.WalkIndex` ready to persist with
:meth:`~repro.index.walk_index.WalkIndex.to_file`.

Buckets mirror the two sampling estimators the service can route through
the index:

* a *t-bucket* stores endpoints of Poisson(t)-length walks — the law the
  ``monte-carlo`` HKPR estimator samples from;
* an *alpha-bucket* stores endpoints of geometric restart walks — the law
  the ``mc-ppr`` estimator samples from.

A bucket's walks run hub-major through
:func:`~repro.engine.vectorized.length_sorted_walks` in batches of at most
``WALK_CHUNK_SIZE`` walks (``restart_chunk(alpha)`` for an alpha-bucket),
so an index of thousands of hubs costs a handful of batches.  No backend
kernel runs: the loop draws each walk's length up front and orders the
batch by length once, while the online kernels keep their draw order.

Determinism: given the same graph, hub set, walk counts, ``WALK_CHUNK_SIZE``
(and so ``restart_chunk``) and seeded generator, the builder emits
byte-identical arrays (batches are walked in a fixed order from the single
generator), so a rebuilt ``.rwix`` file round-trips byte-for-byte.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import engine
from repro.engine import restart_chunk
from repro.engine.vectorized import length_sorted_walks
from repro.exceptions import NodeNotFoundError, ParameterError
from repro.graph.graph import Graph
from repro.hkpr.poisson import PoissonWeights
from repro.index import format as rwix
from repro.index.walk_index import WalkIndex
from repro.utils.counters import OperationCounters
from repro.utils.rng import ensure_rng

#: Default number of top-degree hubs to index.
DEFAULT_NUM_HUBS = 64

#: Default stored walks per (hub, bucket) sketch.
DEFAULT_WALKS_PER_SKETCH = 10_000


def select_hubs(graph: Graph, count: int) -> np.ndarray:
    """The ``count`` highest-degree nodes, ties broken by lower node id.

    Hot-seed traffic concentrates on high-degree nodes (and their walks are
    the most expensive to regenerate), so degree is the default hub policy;
    pass an explicit seed list to :func:`build_walk_index` to override.
    """
    if count < 1:
        raise ParameterError(f"hub count must be >= 1, got {count}")
    n = graph.num_nodes
    count = min(count, n)
    degrees = np.asarray(graph.degrees)
    # lexsort's last key is primary: sort by descending degree, then by id.
    order = np.lexsort((np.arange(n), -degrees))
    return np.ascontiguousarray(order[:count], dtype=np.int64)


def _check_nodes(graph: Graph, nodes: Sequence[int]) -> np.ndarray:
    out: list[int] = []
    seen: set[int] = set()
    for node in nodes:
        node = int(node)
        if not 0 <= node < graph.num_nodes:
            raise NodeNotFoundError(node, graph.num_nodes)
        if node not in seen:
            seen.add(node)
            out.append(node)
    if not out:
        raise ParameterError("walk index needs at least one hub node")
    return np.asarray(out, dtype=np.int64)


def build_walk_index(
    graph: Graph,
    *,
    hubs: Sequence[int] | None = None,
    num_hubs: int = DEFAULT_NUM_HUBS,
    walks_per_sketch: int = DEFAULT_WALKS_PER_SKETCH,
    t_values: Sequence[float] = (5.0,),
    alpha_values: Sequence[float] = (),
    rng: np.random.Generator | int | None = 0,
    counters: OperationCounters | None = None,
) -> WalkIndex:
    """Precompute endpoint sketches and return the in-memory index.

    ``rng`` defaults to seed 0 so an ``index build`` is reproducible unless
    the caller explicitly asks for entropy (``rng=None``).  ``counters``
    (optional) accumulates the offline walk accounting.  Endpoints are held
    as :data:`~repro.index.format.NODE_DTYPE`, the dtype ``.rwix`` stores,
    so a graph of more than ``2**31 - 1`` nodes is refused up front.
    """
    rwix.check_node_count(graph.num_nodes)
    if walks_per_sketch < 1:
        raise ParameterError(
            f"walks_per_sketch must be >= 1, got {walks_per_sketch}"
        )
    if not t_values and not alpha_values:
        raise ParameterError(
            "walk index needs at least one bucket (a t value or an alpha value)"
        )
    hub_nodes = (
        _check_nodes(graph, hubs) if hubs is not None else select_hubs(graph, num_hubs)
    )
    generator = ensure_rng(rng)

    # One bucket per (law, parameter); sketches are laid out bucket-major,
    # hub-minor, in a fixed order so builds are reproducible.  Each bucket
    # keeps its walk law and its batch cap.
    buckets: list[tuple[int, float]] = []
    laws: list[tuple[dict, int]] = []
    for t in t_values:
        weights = PoissonWeights(float(t))  # validates t > 0
        buckets.append((rwix.KIND_POISSON, weights.t))
        laws.append(({"weights": weights}, engine.WALK_CHUNK_SIZE))
    for alpha in alpha_values:
        alpha = float(alpha)
        cap = restart_chunk(alpha)  # refuses alpha outside [MIN_RESTART_ALPHA, 1)
        buckets.append((rwix.KIND_GEOMETRIC, alpha))
        laws.append(({"alpha": alpha}, cap))
    if len(set(buckets)) != len(buckets):
        raise ParameterError("duplicate index buckets")

    # Each bucket walks its hub-major sequence (W walks per hub) in
    # batches of at most its cap, drawn in order from the one generator.
    walks = int(walks_per_sketch)
    num_hubs = hub_nodes.size
    total = num_hubs * walks
    endpoints = np.empty(len(buckets) * total, dtype=rwix.NODE_DTYPE)
    for offset, (law, cap) in zip(range(0, endpoints.size, total), laws):
        for lo in range(0, total, cap):
            hi = min(lo + cap, total)
            endpoints[offset + lo:offset + hi] = length_sorted_walks(
                graph, hub_nodes[np.arange(lo, hi) // walks], generator,
                counters=counters, **law,
            )

    kinds, values = zip(*buckets)
    return WalkIndex(
        nodes=np.tile(hub_nodes, len(buckets)),
        kinds=np.repeat(np.asarray(kinds, dtype=np.int64), num_hubs),
        buckets=np.repeat(np.asarray(values, dtype=np.float64), num_hubs),
        ptr=np.arange(len(buckets) * num_hubs + 1, dtype=np.int64) * walks,
        endpoints=endpoints,
        graph_n=graph.num_nodes,
        graph_m=graph.num_edges,
        fingerprint=rwix.graph_fingerprint(graph),
    )
