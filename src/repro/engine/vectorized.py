"""The vectorized execution backend: level-synchronous NumPy walk kernels.

All three kernels share one structure: keep an index array of *pending*
walks and advance every pending walk one hop per iteration.

* The stop test is one vectorized draw per pending walk
  (``rng.random(k) < p``), with the hop-indexed heat kernel stop
  probabilities looked up from :meth:`PoissonWeights.stop_probability_array`.
* The hop itself is two CSR gathers: sample an offset into each walk's
  adjacency slice (``rng.integers(0, degrees[cur])`` broadcasts per-element
  upper bounds) and gather ``indices[indptr[cur] + offset]``.

The loop runs for as many iterations as the *longest* walk in the batch
(O(t + log batch) for heat kernel walks), so the Python interpreter cost is
amortized over the whole batch instead of being paid per hop per walk.
Walks at isolated nodes stop in place, matching the scalar primitives.
"""

from __future__ import annotations

import numpy as np

from repro.engine import as_int_array
from repro.exceptions import ParameterError
from repro.obs import profile_kernel
from repro.graph.graph import Graph
from repro.hkpr.poisson import PoissonWeights
from repro.utils.counters import OperationCounters


def _neighbor_gather(graph):
    """Batch neighbor-lookup closure: ``gather(cur, offsets)``.

    Plain CSR graphs resolve to the raw fancy-index expression
    ``indices[indptr[cur] + offsets]``; a
    :class:`~repro.dynamic.delta.DeltaGraph` overlay supplies its own
    :meth:`gather_neighbors` that reads patched rows from the delta and
    everything else from the base CSR.  This is the only graph access in
    the kernels' hot loops besides the ``degrees`` array, so it is all an
    overlay needs to override.
    """
    gather = getattr(graph, "gather_neighbors", None)
    if gather is not None:
        return gather
    indptr, indices = graph.indptr, graph.indices

    def csr_gather(cur: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        return indices[indptr[cur] + offsets]

    return csr_gather


def neighbor_rows(graph, nodes: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """The first ``degrees[i]`` neighbors of each ``nodes[i]``, row after row.

    ``degrees`` is ``graph.degrees[nodes]`` for whole rows; a smaller count
    takes a row's prefix.  The pushes and the sweep expand adjacency rows
    through :func:`_neighbor_gather`, so they read a
    :class:`~repro.dynamic.delta.DeltaGraph` overlay as the walk kernels do.
    """
    offsets = np.arange(int(degrees.sum())) - np.repeat(np.cumsum(degrees) - degrees, degrees)
    return _neighbor_gather(graph)(np.repeat(nodes, degrees), offsets)


def _validated_starts(graph: Graph, start_nodes) -> np.ndarray:
    """Copy of ``start_nodes`` with the reference backend's validation.

    The scalar primitives raise :class:`ParameterError` on out-of-range
    start nodes; the batched kernels must diverge neither silently (wrapped
    negative indices) nor with a raw ``IndexError``.
    """
    starts = as_int_array(start_nodes).copy()
    invalid = (starts < 0) | (starts >= graph.num_nodes)
    if invalid.any():
        bad = int(starts[np.flatnonzero(invalid)[0]])
        raise ParameterError(f"walk start node {bad} is not in the graph")
    return starts


def _validated_hops(starts: np.ndarray, hop_offsets) -> np.ndarray:
    """Writable per-walk copy of ``hop_offsets``, rejecting negatives.

    Shared by every batched backend so broadcast and error behaviour
    cannot diverge between them.
    """
    hops = np.broadcast_to(as_int_array(hop_offsets), starts.shape).copy()
    if (hops < 0).any():
        bad = int(hops[np.flatnonzero(hops < 0)[0]])
        raise ParameterError(f"hop offset must be non-negative, got {bad}")
    return hops


def walk_batch_validated(
    graph,
    current: np.ndarray,
    hops: np.ndarray,
    weights: PoissonWeights,
    rng: np.random.Generator,
    *,
    counters: OperationCounters | None = None,
    step_counts: np.ndarray | None = None,
) -> np.ndarray:
    """Hop-conditioned kernel over pre-validated, owned (mutated!) arrays.

    ``current`` and ``hops`` must come from :func:`_validated_starts` /
    :func:`_validated_hops` (or equivalent); both are advanced in place and
    ``current`` is returned.  :class:`ParallelBackend` shards call this
    directly so inputs a parent already validated are not re-scanned.

    ``step_counts``, when given, is a caller-allocated per-walk array that
    each walk's traversed-edge count is accumulated into (the
    :class:`~repro.engine.Backend` protocol's exact per-query accounting).
    """
    num_walks = current.size
    if num_walks == 0:
        return current
    gather = _neighbor_gather(graph)
    degrees = graph.degrees
    stop_table = weights.stop_probability_array()
    max_hop = weights.max_hop

    pending = np.arange(num_walks)
    total_steps = 0
    while pending.size:
        cur = current[pending]
        stop_prob = stop_table[np.minimum(hops[pending], max_hop)]
        stop = rng.random(pending.size) < stop_prob
        stop |= degrees[cur] == 0
        pending = pending[~stop]
        if pending.size:
            cur = current[pending]
            offsets = rng.integers(0, degrees[cur])
            current[pending] = gather(cur, offsets)
            hops[pending] += 1
            if step_counts is not None:
                step_counts[pending] += 1
            total_steps += pending.size
    if counters is not None:
        counters.random_walks += num_walks
        counters.walk_steps += total_steps
    return current


def poisson_walk_batch_validated(
    graph,
    current: np.ndarray,
    weights: PoissonWeights,
    rng: np.random.Generator,
    *,
    max_length: int | None = None,
    counters: OperationCounters | None = None,
    step_counts: np.ndarray | None = None,
) -> np.ndarray:
    """Poisson-length kernel over a pre-validated, owned (mutated!) array."""
    num_walks = current.size
    if num_walks == 0:
        return current
    gather = _neighbor_gather(graph)
    degrees = graph.degrees

    remaining = rng.poisson(weights.t, size=num_walks).astype(np.int64)
    if max_length is not None:
        np.minimum(remaining, max_length, out=remaining)

    pending = np.flatnonzero((remaining > 0) & (degrees[current] > 0))
    total_steps = 0
    while pending.size:
        cur = current[pending]
        offsets = rng.integers(0, degrees[cur])
        nxt = gather(cur, offsets)
        current[pending] = nxt
        remaining[pending] -= 1
        if step_counts is not None:
            step_counts[pending] += 1
        total_steps += pending.size
        pending = pending[(remaining[pending] > 0) & (degrees[nxt] > 0)]
    if counters is not None:
        counters.random_walks += num_walks
        counters.walk_steps += total_steps
    return current


def geometric_walk_batch_validated(
    graph,
    current: np.ndarray,
    alpha: float,
    rng: np.random.Generator,
    *,
    counters: OperationCounters | None = None,
    step_counts: np.ndarray | None = None,
) -> np.ndarray:
    """Restart-probability kernel over a pre-validated, owned (mutated!) array."""
    num_walks = current.size
    if num_walks == 0:
        return current
    gather = _neighbor_gather(graph)
    degrees = graph.degrees

    pending = np.arange(num_walks)
    total_steps = 0
    while pending.size:
        stop = rng.random(pending.size) < alpha
        stop |= degrees[current[pending]] == 0
        pending = pending[~stop]
        if pending.size:
            cur = current[pending]
            offsets = rng.integers(0, degrees[cur])
            current[pending] = gather(cur, offsets)
            if step_counts is not None:
                step_counts[pending] += 1
            total_steps += pending.size
    if counters is not None:
        counters.random_walks += num_walks
        counters.walk_steps += total_steps
    return current


class VectorizedBackend:
    """Batched CSR walk kernels (the default backend)."""

    name = "vectorized"
    description = (
        "level-synchronous NumPy kernels advancing all pending walks one "
        "hop per iteration (the default)"
    )
    #: The kernels read neighbors through :func:`_neighbor_gather`, so a
    #: :class:`~repro.dynamic.delta.DeltaGraph` overlay can be walked
    #: directly without compaction (:meth:`DeltaGraph.for_backend`).
    supports_overlay = True

    def walk_batch(
        self,
        graph: Graph,
        start_nodes: np.ndarray,
        hop_offsets: np.ndarray,
        weights: PoissonWeights,
        rng: np.random.Generator,
        *,
        counters: OperationCounters | None = None,
        step_counts: np.ndarray | None = None,
    ) -> np.ndarray:
        current = _validated_starts(graph, start_nodes)
        if current.size == 0:
            return current
        hops = _validated_hops(current, hop_offsets)
        with profile_kernel(self.name, "heat", current.size, counters):
            return walk_batch_validated(
                graph, current, hops, weights, rng,
                counters=counters, step_counts=step_counts,
            )

    def poisson_walk_batch(
        self,
        graph: Graph,
        start_nodes: np.ndarray,
        weights: PoissonWeights,
        rng: np.random.Generator,
        *,
        max_length: int | None = None,
        counters: OperationCounters | None = None,
        step_counts: np.ndarray | None = None,
    ) -> np.ndarray:
        current = _validated_starts(graph, start_nodes)
        with profile_kernel(self.name, "poisson", current.size, counters):
            return poisson_walk_batch_validated(
                graph, current, weights, rng,
                max_length=max_length, counters=counters, step_counts=step_counts,
            )

    def geometric_walk_batch(
        self,
        graph: Graph,
        start_nodes: np.ndarray,
        alpha: float,
        rng: np.random.Generator,
        *,
        counters: OperationCounters | None = None,
        step_counts: np.ndarray | None = None,
    ) -> np.ndarray:
        current = _validated_starts(graph, start_nodes)
        with profile_kernel(self.name, "geometric", current.size, counters):
            return geometric_walk_batch_validated(
                graph, current, alpha, rng,
                counters=counters, step_counts=step_counts,
            )
