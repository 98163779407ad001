"""Forward push for personalized PageRank (Andersen, Chung & Lang).

The Markovian analogue of HK-Push: maintain a reserve ``p`` and a single
residue vector ``r`` with ``r[s] = 1``; while some node has
``r[v] > r_max * d(v)``, convert an ``alpha`` fraction of its residue into
reserve and spread the remaining ``(1 - alpha)`` fraction evenly over its
neighbors.  Because PPR walks terminate with the same probability at every
step, residues produced at different hops can be merged into this single
vector — exactly the simplification that HKPR's non-Markovian walks forbid
(§6 of the paper), which is why :mod:`repro.hkpr.hk_push` needs per-hop
residue vectors instead.

The invariant maintained is

    pi_s[v] = p[v] + sum_u r[u] * pi_u[v],

the PPR counterpart of Lemma 1.

Forward push is not layered, so :func:`frontier_push` pushes in
frontier-synchronous rounds (Shun et al., "Parallel Local Graph
Clustering", PVLDB 2016): every above-threshold node is pushed at once,
with the residue it held when the round began, and inflow it receives in
the round waits for the next one.  Each node's push keeps the invariant on
its own, so a round of them does too, and the loop ends only when no
residue is above threshold, so the residue bound holds as well.  A lazy
share keeps part of the pushed residue at the node: 0 for FORA's push
here, 1/2 for ACL's lazy push in :func:`repro.baselines.pr_nibble.approximate_ppr`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.graph import Graph, neighbor_rows
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.sparsevec import SparseVector, sum_by_node


@dataclass
class PPRPushOutcome:
    """Reserve and residue state produced by the PPR forward push."""

    reserve: SparseVector
    residue: SparseVector
    counters: OperationCounters


def frontier_push(
    graph: Graph,
    seed_node: int,
    alpha: float,
    threshold: float,
    lazy: float,
    *,
    counters: OperationCounters | None = None,
    deadline: Deadline | None = None,
) -> PPRPushOutcome:
    """Push the seed's unit residue in frontier-synchronous rounds.

    Each round pushes every node with ``r[v] > threshold * d(v)`` in one
    array step: an ``alpha`` fraction of its residue becomes reserve, a
    ``lazy`` share of the rest stays at the node, and the remainder is
    spread evenly over its neighbors.  An isolated node settles all of its
    residue (a restart walk from it stays there).  The optional
    ``deadline`` is checked once per round with the round's pushed degree
    as the cost.
    """
    if not graph.has_node(seed_node):
        raise ParameterError(f"seed node {seed_node} is not in the graph")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    if threshold <= 0.0:
        raise ParameterError(f"push threshold must be positive, got {threshold}")
    counters = counters if counters is not None else OperationCounters()
    if deadline is not None:
        deadline.bind(counters)

    degrees = graph.degrees
    kept_share = lazy * (1.0 - alpha)
    spread_share = (1.0 - lazy) * (1.0 - alpha)
    reserve_nodes: list[np.ndarray] = []
    reserve_values: list[np.ndarray] = []
    # The residue, sorted by node id.
    nodes = np.array([seed_node], dtype=np.int64)
    values = np.ones(1)
    while True:
        node_degrees = degrees[nodes]
        pushed = np.flatnonzero(values > threshold * node_degrees)
        if pushed.size == 0:
            break
        pushed_degrees = node_degrees[pushed]
        if deadline is not None:
            deadline.check(max(int(pushed_degrees.sum()), 1))
        pushed_values = values[pushed]
        linked = pushed_degrees > 0
        reserve_nodes.append(nodes[pushed])
        reserve_values.append(np.where(linked, alpha * pushed_values, pushed_values))
        counts = pushed_degrees[linked]
        targets = neighbor_rows(graph, nodes[pushed][linked], counts)
        counters.record_pushes(targets.size)
        shares = spread_share * pushed_values[linked] / counts
        values[pushed] = np.where(linked, kept_share * pushed_values, 0.0)
        nodes, values = sum_by_node(
            np.concatenate((nodes, targets)),
            np.concatenate((values, np.repeat(shares, counts))),
        )
        nonzero = values != 0.0
        if not nonzero.all():
            nodes, values = nodes[nonzero], values[nonzero]

    reserve = SparseVector()
    if reserve_nodes:
        reserve.add_many(np.concatenate(reserve_nodes), np.concatenate(reserve_values))
    residue = SparseVector()
    residue.add_many(nodes, values)
    counters.residue_entries = max(counters.residue_entries, residue.nnz())
    counters.reserve_entries = max(counters.reserve_entries, reserve.nnz())
    return PPRPushOutcome(reserve=reserve, residue=residue, counters=counters)


def forward_push(
    graph: Graph,
    seed_node: int,
    *,
    alpha: float = 0.15,
    r_max: float = 1e-4,
    counters: OperationCounters | None = None,
    deadline: Deadline | None = None,
) -> PPRPushOutcome:
    """Run FORA's forward push from ``seed_node`` with threshold ``r_max``.

    The frontier push with no lazy share; the optional ``deadline`` is
    checked once per round with the round's pushed degree as the cost.
    """
    return frontier_push(
        graph, seed_node, alpha, r_max, 0.0, counters=counters, deadline=deadline
    )
