"""The sweep procedure: from an (approximate) HKPR vector to a cluster.

Every heat-kernel local clustering algorithm shares this second phase
(§2.2): sort the support of the approximate HKPR vector by descending
degree-normalized value, scan the prefixes ``S*_1 ⊂ S*_2 ⊂ ...``, and return
the prefix with the smallest conductance.  Every prefix's volume and cut
are prefix sums over the ranking (a node's edges to earlier-ranked nodes
stop being cut edges when it joins), so the scan is a few array passes and
costs ``O(|S*| log |S*| + vol(S*))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.graph import Graph, neighbor_rows
from repro.hkpr.result import HKPRResult


@dataclass
class SweepResult:
    """Outcome of a sweep over a normalized-HKPR ranking.

    Attributes
    ----------
    cluster:
        The best (lowest conductance) prefix found.
    conductance:
        Its conductance.
    sweep_order:
        The full ranking that was swept (descending normalized HKPR).
    conductance_profile:
        Conductance of every prefix, ``conductance_profile[i]`` being the
        conductance of the first ``i + 1`` nodes.  Useful for plotting the
        sweep curve and for tests.
    best_prefix_size:
        Length of the winning prefix.
    """

    cluster: set[int]
    conductance: float
    sweep_order: list[int] = field(default_factory=list)
    conductance_profile: list[float] = field(default_factory=list)
    best_prefix_size: int = 0

    @property
    def size(self) -> int:
        """Number of nodes in the returned cluster."""
        return len(self.cluster)

    def volume(self, graph: Graph) -> int:
        """Volume of the returned cluster."""
        return graph.volume(self.cluster)


def sweep_from_ranking(
    graph: Graph,
    ranking: list[int] | np.ndarray,
    *,
    max_cluster_volume: int | None = None,
) -> SweepResult:
    """Sweep over an explicit node ranking and return the best-conductance prefix.

    Parameters
    ----------
    ranking:
        Nodes in the order they should be added (descending score).
    max_cluster_volume:
        Optional cap: prefixes whose volume exceeds half the graph volume are
        never useful (their conductance is measured against the complement),
        and the paper's local algorithms implicitly stop there.  Defaults to
        ``total_volume // 2``.
    """
    if len(ranking) == 0:
        raise ParameterError("cannot sweep an empty ranking")
    volume_limit = (
        max_cluster_volume if max_cluster_volume is not None else graph.total_volume // 2
    )
    nodes = np.asarray(ranking, dtype=np.int64)
    invalid = (nodes < 0) | (nodes >= graph.num_nodes)
    if invalid.any():
        bad = int(nodes[np.flatnonzero(invalid)[0]])
        raise ParameterError(f"node {bad} is not in the graph")
    size = nodes.size
    positions = np.arange(size)
    rank = np.full(graph.num_nodes, size, dtype=np.int64)
    rank[nodes] = positions
    # Repeats are ignored: each node joins the prefix at its first rank.
    # A repeated node cannot hold all of its ranks in the table, whichever
    # write won, so the check below finds repeats exactly, and only a
    # ranking with repeats is sorted.  Unranked nodes keep the old size,
    # which is still past every rank.
    if (rank[nodes] != positions).any():
        _, first = np.unique(nodes, return_index=True)
        first.sort()
        nodes = nodes[first]
        size = nodes.size
        positions = positions[:size]
        rank[nodes] = positions

    # A node's internal edges are those to neighbours ranked before it.
    # Counting every edge end at the later of its two ranks counts each
    # internal edge twice, at the rank where it stops being cut; edges to
    # unranked nodes land past the last rank.
    degrees = graph.degrees[nodes]
    rows = np.repeat(positions, degrees)
    later = np.maximum(rows, rank[neighbor_rows(graph, nodes, degrees)], out=rows)
    internal_ends = np.bincount(later, minlength=size)[:size]
    prefix_volume = np.cumsum(degrees)
    prefix_cut = np.cumsum(degrees - internal_ends)

    denominator = np.minimum(prefix_volume, graph.total_volume - prefix_volume)
    positive = denominator > 0
    profile = np.ones(size)
    profile[positive] = prefix_cut[positive] / denominator[positive]
    eligible = prefix_volume <= np.maximum(volume_limit, degrees)
    if eligible.any():
        best_size = int(np.argmin(np.where(eligible, profile, np.inf))) + 1
    else:
        best_size = 1
    order = nodes.tolist()
    return SweepResult(
        cluster=set(order[:best_size]),
        conductance=float(profile[best_size - 1]),
        sweep_order=order,
        conductance_profile=profile.tolist(),
        best_prefix_size=best_size,
    )


def sweep_cut(
    graph: Graph,
    hkpr: HKPRResult,
    *,
    include_seed: bool = True,
    max_cluster_volume: int | None = None,
) -> SweepResult:
    """Run the §2.2 sweep over an approximate HKPR vector.

    Parameters
    ----------
    hkpr:
        Output of any estimator in :mod:`repro.hkpr`; only its support and
        degree-normalized values matter (the TEA+ offset is irrelevant to
        the ordering and is ignored).
    include_seed:
        Guarantee that the seed node is part of the ranking even if the
        estimator assigned it no mass (can happen for tiny walk budgets).
    """
    ranking = hkpr.ranked_nodes(graph)
    if include_seed and not (ranking == hkpr.seed).any():
        ranking = np.concatenate(([hkpr.seed], ranking))
    return sweep_from_ranking(graph, ranking, max_cluster_volume=max_cluster_volume)
