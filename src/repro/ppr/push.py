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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.sparsevec import SparseVector


@dataclass
class PPRPushOutcome:
    """Reserve and residue state produced by the PPR forward push."""

    reserve: SparseVector
    residue: SparseVector
    counters: OperationCounters


def forward_push(
    graph: Graph,
    seed_node: int,
    *,
    alpha: float = 0.15,
    r_max: float = 1e-4,
    counters: OperationCounters | None = None,
    deadline: Deadline | None = None,
) -> PPRPushOutcome:
    """Run the ACL forward push from ``seed_node`` with threshold ``r_max``.

    The optional ``deadline`` is checked cooperatively once per pushed node
    with the node's degree as the cost.
    """
    if not graph.has_node(seed_node):
        raise ParameterError(f"seed node {seed_node} is not in the graph")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    if r_max <= 0.0:
        raise ParameterError(f"r_max must be positive, got {r_max}")
    counters = counters if counters is not None else OperationCounters()
    if deadline is not None:
        deadline.bind(counters)

    reserve = SparseVector()
    residue = SparseVector({seed_node: 1.0})
    frontier: deque[int] = deque([seed_node])
    queued = {seed_node}

    while frontier:
        node = frontier.popleft()
        queued.discard(node)
        degree = graph.degree(node)
        value = residue[node]
        if degree == 0:
            # Isolated node: a restart-walk from it stays there forever.
            reserve.add(node, value)
            residue[node] = 0.0
            continue
        if value <= r_max * degree or value <= 0.0:
            continue
        if deadline is not None:
            deadline.check(degree)

        reserve.add(node, alpha * value)
        residue[node] = 0.0
        share = (1.0 - alpha) * value / degree
        for neighbor in graph.neighbors(node):
            neighbor = int(neighbor)
            new_value = residue.add(neighbor, share)
            counters.record_pushes(1)
            if neighbor not in queued and new_value > r_max * graph.degree(neighbor):
                frontier.append(neighbor)
                queued.add(neighbor)

    counters.residue_entries = max(counters.residue_entries, residue.nnz())
    counters.reserve_entries = max(counters.reserve_entries, reserve.nnz())
    return PPRPushOutcome(reserve=reserve, residue=residue, counters=counters)
