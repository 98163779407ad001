"""Combine stored walk sketches with a fresh top-up walk batch.

:class:`IndexedWalkPlan` is a drop-in :class:`~repro.engine.multi.WalkPlan`
that serves a sampling query (``monte-carlo`` HKPR or ``mc-ppr``) from a
precomputed sketch: of the ``N`` walks the request needs, ``k = min(N, W)``
endpoints come straight from the index and only the remaining ``N - k`` are
sampled online (as one top-up :class:`~repro.engine.fused.FusedQuery`).
``finalize`` folds both sources into one estimate at increment ``1/N``, so
the answer is distributed exactly as if all ``N`` walks had been sampled
fresh — stored sketch walks are i.i.d. draws from the same endpoint law (the
statcheck chi-square suite gates this parity).

Counters attribute the split exactly: ``extras["walks_from_index"]`` is the
stored-endpoint count and ``extras["walks_sampled"]`` the fresh top-up count
(which also lands in ``counters.random_walks`` via the kernels).
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.engine.fused import FusedQuery
from repro.estimators.spec import EstimatorSpec
from repro.graph.graph import Graph
from repro.hkpr.poisson import PoissonWeights, cached_weights
from repro.hkpr.result import HKPRResult
from repro.index.walk_index import WalkIndex
from repro.utils.counters import OperationCounters
from repro.utils.sparsevec import SparseVector

#: Service method name -> walk-law kind stored in the index.
INDEXABLE_METHODS = {"monte-carlo": "poisson", "mc-ppr": "geometric"}


class IndexedWalkPlan:
    """A sampling query answered from stored endpoints plus a fresh top-up."""

    def __init__(
        self,
        *,
        method: str,
        graph: Graph,
        seed_node: int,
        stored_endpoints: np.ndarray,
        total_walks: int,
        weights: PoissonWeights | None = None,
        alpha: float | None = None,
    ) -> None:
        self.method = method
        self.graph = graph
        self.seed_node = int(seed_node)
        self.counters = OperationCounters()
        self._kind = INDEXABLE_METHODS[method]
        self._weights = weights
        self._alpha = alpha
        self._total_walks = int(total_walks)
        self._stored = stored_endpoints[: self._total_walks]
        self._topup = self._total_walks - int(self._stored.size)
        self._increment = 1.0 / self._total_walks
        self._started = time.perf_counter()
        self.counters.extras["index_hit"] = 1.0
        self.counters.extras["walks_from_index"] = float(self._stored.size)
        self.counters.extras["walks_sampled"] = float(self._topup)

    def fused_queries(self) -> list[FusedQuery]:
        """Fused top-up form; empty when no fresh walks are needed."""
        if self._topup == 0:
            return []
        return [
            FusedQuery(
                self._kind,
                [self.seed_node],
                [1.0],
                self._topup,
                weights=self._weights,
                alpha=self._alpha,
            )
        ]

    @property
    def estimated_walks(self) -> int:
        """Online walks this query will actually run (the top-up only)."""
        return self._topup

    def finalize(self, endpoints: Sequence[np.ndarray]) -> HKPRResult:
        estimates = SparseVector()
        if self._stored.size:
            estimates.add_many(self._stored, self._increment)
        for ends in endpoints:
            estimates.add_many(ends, self._increment)
        self.counters.reserve_entries = estimates.nnz()
        return HKPRResult(
            estimates=estimates,
            seed=self.seed_node,
            method=self.method,
            counters=self.counters,
            elapsed_seconds=time.perf_counter() - self._started,
        )


def _bucket_for(spec: EstimatorSpec, params: dict) -> tuple[str, float] | None:
    """The ``(walk-law kind, bucket parameter)`` this request samples from."""
    kind = INDEXABLE_METHODS.get(spec.name)
    if kind is None:
        return None
    full = spec.with_defaults(params)
    if kind == "poisson":
        return kind, float(full.get("t", 5.0))
    return kind, float(full["alpha"])


def stored_walks_for(
    index: WalkIndex, graph: Graph, spec: EstimatorSpec, seed_node: int, params: dict
) -> int:
    """Walks a sketch would cover for this request (0 when not indexable).

    Counter-free (no hit/miss recorded) — used by admission control, which
    must not distort the serving hit rate.
    """
    bucket = _bucket_for(spec, params)
    if bucket is None:
        return 0
    kind, value = bucket
    stored = index.sketch_size(kind, seed_node, value)
    if not stored:
        return 0
    return min(stored, spec.estimate_walks(graph, params))


def plan_from_index(
    index: WalkIndex,
    graph: Graph,
    spec: EstimatorSpec,
    seed_node: int,
    params: dict,
) -> IndexedWalkPlan | None:
    """Build an :class:`IndexedWalkPlan` if ``index`` covers this query.

    Returns ``None`` (after recording an index miss) when the method's
    bucket — ``t`` for ``monte-carlo``, ``alpha`` for ``mc-ppr`` — has no
    sketch for ``seed_node``.  Non-indexable methods return ``None`` without
    touching the index counters.
    """
    resolved = _bucket_for(spec, params)
    if resolved is None:
        return None
    kind, bucket = resolved
    if kind == "poisson":
        weights = cached_weights(bucket)
        alpha = None
    else:
        weights = None
        alpha = bucket
    total_walks = spec.estimate_walks(graph, params)
    if total_walks < 1:
        return None
    stored = index.lookup(kind, seed_node, bucket, max_walks=total_walks)
    if stored is None:
        return None
    return IndexedWalkPlan(
        method=spec.name,
        graph=graph,
        seed_node=seed_node,
        stored_endpoints=stored,
        total_walks=total_walks,
        weights=weights,
        alpha=alpha,
    )
