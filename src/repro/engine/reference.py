"""The reference execution backend: one scalar Python loop per walk.

This backend delegates straight to the per-walk primitives
(:func:`repro.hkpr.random_walk.k_random_walk`,
:func:`repro.hkpr.random_walk.poisson_length_walk`, and the scalar
:func:`geometric_walk` defined here), so its behaviour is exactly the
paper's pseudo-code executed once per walk.  It exists as the auditable
baseline the parity test suite compares every optimized backend against,
and as the fallback for exotic inputs a kernel author has not vectorized.
"""

from __future__ import annotations

import numpy as np

from repro.engine import as_int_array
from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.poisson import PoissonWeights
from repro.hkpr.random_walk import k_random_walk, poisson_length_walk
from repro.utils.counters import OperationCounters


def geometric_walk(
    graph: Graph,
    start_node: int,
    alpha: float,
    rng: np.random.Generator,
    *,
    counters: OperationCounters | None = None,
) -> int:
    """Walk that stops with probability ``alpha`` at each step (PPR walks)."""
    if not graph.has_node(start_node):
        raise ParameterError(f"walk start node {start_node} is not in the graph")
    current = start_node
    steps = 0
    while rng.random() >= alpha:
        if graph.degree(current) == 0:
            break
        current = graph.random_neighbor(current, rng)
        steps += 1
    if counters is not None:
        counters.record_walk(steps)
    return current


def _walk_each(starts: np.ndarray, walk_one, counters, step_counts) -> np.ndarray:
    """``walk_one(i, tally)`` for every walk ``i``; each walk's steps are
    the change in ``tally.walk_steps`` and go to ``step_counts[i]``."""
    tally = counters if counters is not None else OperationCounters()
    ends = np.empty(starts.size, dtype=np.int64)
    for i in range(starts.size):
        before = tally.walk_steps
        ends[i] = walk_one(i, tally)
        if step_counts is not None:
            step_counts[i] += tally.walk_steps - before
    return ends


class ReferenceBackend:
    """Scalar per-walk execution (the pre-engine code paths)."""

    name = "reference"
    description = (
        "one scalar Python loop per walk, auditable against the paper's "
        "pseudo-code (the parity baseline; slow)"
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
        starts = as_int_array(start_nodes)
        hops = np.broadcast_to(as_int_array(hop_offsets), starts.shape)
        return _walk_each(
            starts,
            lambda i, tally: k_random_walk(
                graph, int(starts[i]), int(hops[i]), weights, rng, counters=tally
            ),
            counters,
            step_counts,
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
        starts = as_int_array(start_nodes)
        return _walk_each(
            starts,
            lambda i, tally: poisson_length_walk(
                graph, int(starts[i]), weights, rng,
                max_length=max_length, counters=tally,
            ),
            counters,
            step_counts,
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
        starts = as_int_array(start_nodes)
        return _walk_each(
            starts,
            lambda i, tally: geometric_walk(
                graph, int(starts[i]), alpha, rng, counters=tally
            ),
            counters,
            step_counts,
        )
