"""Result container shared by every HKPR estimator."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.graph import Graph
from repro.utils.counters import OperationCounters
from repro.utils.sparsevec import SparseVector


@dataclass
class HKPRResult:
    """An approximate HKPR vector together with its provenance.

    Attributes
    ----------
    estimates:
        Sparse approximate HKPR vector ``rho_hat_s`` (without the lazy TEA+
        offset; see :attr:`offset_per_degree`).
    seed:
        The seed node the query was issued for.
    method:
        Name of the estimator that produced the result.
    counters:
        Machine-independent operation counts (pushes, walks, steps).
    elapsed_seconds:
        Wall-clock time spent inside the estimator.
    offset_per_degree:
        TEA+ adds ``eps_r * delta / 2 * d(v)`` to every estimate (Algorithm 5,
        Lines 18-19).  The paper notes this can be applied lazily; we store
        the coefficient and apply it on access so the sparse support stays
        tight.  Zero for all other estimators.
    early_exit:
        True when TEA+ returned directly from HK-Push+ via Theorem 2 without
        performing random walks.
    """

    estimates: SparseVector
    seed: int
    method: str
    counters: OperationCounters = field(default_factory=OperationCounters)
    elapsed_seconds: float = 0.0
    offset_per_degree: float = 0.0
    early_exit: bool = False
    _ranking_memo: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def value(self, node: int, graph: Graph, *, include_offset: bool = True) -> float:
        """Estimated HKPR of ``node`` (with the lazy offset applied by default)."""
        base = self.estimates[node]
        if include_offset and self.offset_per_degree:
            base += self.offset_per_degree * graph.degree(node)
        return base

    def normalized(self, node: int, graph: Graph, *, include_offset: bool = False) -> float:
        """Degree-normalized estimate ``rho_hat_s[v] / d(v)``.

        The offset contributes the same additive constant to every node's
        normalized value, so it never changes the sweep ordering; it is
        excluded by default, matching the paper's remark in §5.3.
        """
        degree = graph.degree(node)
        if degree == 0:
            return 0.0
        value = self.estimates[node] / degree
        if include_offset:
            value += self.offset_per_degree
        return value

    def support(self) -> list[int]:
        """Nodes with a non-zero (stored) estimate."""
        return list(self.estimates.keys())

    def support_size(self) -> int:
        """Number of nodes with a stored estimate."""
        return self.estimates.nnz()

    def to_dense(self, graph: Graph, *, include_offset: bool = True) -> np.ndarray:
        """Materialize the estimate as a dense array of length ``n``."""
        dense = self.estimates.to_dense(graph.num_nodes)
        if include_offset and self.offset_per_degree:
            dense = dense + self.offset_per_degree * graph.degrees.astype(float)
        return dense

    def normalized_dense(self, graph: Graph, *, include_offset: bool = False) -> np.ndarray:
        """Dense degree-normalized vector ``rho_hat_s / d`` (0 for isolated nodes)."""
        dense = self.to_dense(graph, include_offset=include_offset)
        degrees = graph.degrees.astype(float)
        out = np.zeros_like(dense)
        nonzero = degrees > 0
        out[nonzero] = dense[nonzero] / degrees[nonzero]
        return out

    def _ranked_prefix(self, graph: Graph, k: int | None) -> np.ndarray:
        """A read-only prefix of the ranking: all of it when ``k`` is None.

        The prefix holds at least the first ``k`` ranked nodes (the whole
        ranking when ``k`` is None, not positive, or not below the support
        size).  For a shorter prefix, ``np.partition`` finds the k-th best
        normalized value and only the nodes at or above it are sorted, so
        they come out as the ranking's first entries.  The prefix is
        memoized per ``(graph, estimates, estimates.writes)`` with a flag
        saying whether it is the whole ranking: the serving layer ranks
        the same cached result on every hit.  Any write to the estimates,
        including overwriting an existing entry, bumps the write counter
        and so invalidates the memo.
        """
        estimates = self.estimates
        memo = self._ranking_memo
        if (
            memo is not None
            and memo[0] is graph
            and memo[1] is estimates
            and memo[2] == estimates.writes
            and (memo[4] or (k is not None and 0 < k <= memo[3].size))
        ):
            return memo[3]
        nodes, values = estimates.arrays()
        degrees = graph.degrees[nodes]
        normalized = np.zeros(nodes.size)
        np.divide(values, degrees, out=normalized, where=degrees > 0)
        size = nodes.size
        if k is not None and 0 < k < size:
            kth = np.partition(normalized, size - k)[size - k]
            best = normalized >= kth
            nodes, normalized = nodes[best], normalized[best]
        ranked = nodes[np.lexsort((nodes, -normalized))]
        ranked.flags.writeable = False
        whole = ranked.size == size
        self._ranking_memo = (graph, estimates, estimates.writes, ranked, whole)
        return ranked

    def ranked_nodes(self, graph: Graph) -> np.ndarray:
        """Support nodes sorted by descending normalized HKPR (read-only array).

        Ties break by ascending node id.  The array is memoized (see
        :meth:`_ranked_prefix`), so every call on an unchanged result
        returns the same array.
        """
        return self._ranked_prefix(graph, None)

    def ranking(self, graph: Graph) -> list[int]:
        """Support nodes sorted by descending normalized HKPR (sweep order).

        A fresh list every call (callers may mutate it); see
        :meth:`ranked_nodes` for the array form.
        """
        return self.ranked_nodes(graph).tolist()

    def top(self, graph: Graph, k: int) -> list[list]:
        """The first ``k`` ranked nodes as ``[node, value]`` pairs.

        Equal to ``[[v, self.value(v, graph)] for v in
        self.ranking(graph)[:k]]``, computed on arrays.  Only the nodes
        that can be among the first ``k`` are sorted, not the whole
        support (see :meth:`_ranked_prefix`).
        """
        top_nodes = self._ranked_prefix(graph, k)[:k]
        top_values = self.estimates.get_many(top_nodes)
        if self.offset_per_degree:
            top_values = top_values + self.offset_per_degree * graph.degrees[top_nodes]
        return [
            [node, value] for node, value in zip(top_nodes.tolist(), top_values.tolist())
        ]

    def total_mass(self, graph: Graph, *, include_offset: bool = False) -> float:
        """Sum of all estimates — close to 1 for accurate estimators."""
        total = self.estimates.sum()
        if include_offset and self.offset_per_degree:
            total += self.offset_per_degree * graph.total_volume
        return total
