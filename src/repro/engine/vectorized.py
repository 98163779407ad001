"""The vectorized execution backend: level-synchronous NumPy walk kernels.

All three kernels share one structure: keep an index array of *pending*
walks and advance every pending walk one hop per iteration.

* The stop test is one vectorized draw per pending walk
  (``rng.random(k) < p``), with the hop-indexed heat kernel stop
  probabilities looked up from :meth:`PoissonWeights.stop_probability_array`.
* The hop itself is two CSR gathers: sample an offset into each walk's
  adjacency slice (``rng.integers(0, degrees[cur])`` broadcasts per-element
  upper bounds) and read adjacency slot ``row_starts[cur] + offset``.

The loop runs for as many iterations as the *longest* walk in the batch
(O(t + log batch) for heat kernel walks), so the Python interpreter cost is
amortized over the whole batch instead of being paid per hop per walk.
Walks at isolated nodes stop in place, matching the scalar primitives.
The index builder's :func:`length_sorted_walks` draws every length up
front instead, so it never filters a pending array.
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

    The ``offsets``-th neighbor of each ``cur`` is in adjacency slot
    ``row_starts[cur] + offsets``.  A plain CSR graph reads its slots from
    ``indices``; a :class:`~repro.dynamic.delta.DeltaGraph` overlay reads
    patched rows from the delta and everything else from the base CSR.
    This is the only graph access in the kernels' hot loops besides the
    ``degrees`` array.
    """
    row_starts, read_slots = graph.row_starts, graph.read_slots

    def gather(cur: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        return read_slots(row_starts[cur] + offsets)

    return gather


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


def length_sorted_walks(
    graph,
    starts: np.ndarray,
    rng: np.random.Generator,
    *,
    weights: PoissonWeights | None = None,
    alpha: float | None = None,
    counters: OperationCounters | None = None,
) -> np.ndarray:
    """Endpoints of one walk per (valid) start, each of a length drawn up front.

    Lengths are Poisson(t) by inverse CDF over ``weights`` (truncated at
    ``max_hop``, as the hop-conditioned kernel stops) or ``geometric(alpha)
    - 1``; a walk from a degree-0 node has length 0.  One stable argsort by
    descending length lets level ``l`` advance just the prefix of walks
    longer than ``l``, each hop to neighbour ``floor(u * d)``.  Endpoints
    return in walk order, so i.i.d. walks stay an i.i.d. sequence.
    """
    degrees = graph.degrees
    if weights is not None:
        cdf = np.cumsum(weights.eta_array(weights.max_hop))[:-1]
        lengths = np.searchsorted(cdf, rng.random(starts.size), side="right")
    else:
        lengths = rng.geometric(alpha, starts.size) - 1
    lengths[degrees[starts] == 0] = 0
    longest = int(lengths.max(initial=0))
    key = longest - lengths
    if longest < 1 << 16:
        key = key.astype(np.uint16)  # numpy radix-sorts 16-bit keys
    order = np.argsort(key, kind="stable")
    current = starts[order]
    longer = starts.size - np.cumsum(np.bincount(lengths))  # walks longer than l
    gather = _neighbor_gather(graph)
    for level in range(longest):
        head = current[: longer[level]]
        offsets = (rng.random(head.size) * degrees[head]).astype(np.int64)
        current[: head.size] = gather(head, offsets)
    ends = np.empty_like(current)
    ends[order] = current
    if counters is not None:
        counters.random_walks += starts.size
        counters.walk_steps += int(lengths.sum())
    return ends


class VectorizedBackend:
    """Batched CSR walk kernels (the default backend)."""

    name = "vectorized"
    description = (
        "level-synchronous NumPy kernels advancing all pending walks one "
        "hop per iteration (the default)"
    )

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
