"""Combine stored walk sketches with a fresh top-up walk batch.

:func:`plan_from_index` serves a sampling query (``monte-carlo`` HKPR or
``mc-ppr``) from a precomputed sketch: of the ``N`` walks the request
needs, ``k = min(N, W)`` endpoints come straight from the index and only
the remaining ``N - k`` are sampled online.  The query's own plan builder
makes the plan; its reserve then takes the stored endpoints at increment
``1/N`` and its walk phase shrinks to the top-up, so the answer is
distributed exactly as if all ``N`` walks had been sampled fresh — stored
sketch walks are i.i.d. draws from the same endpoint law (the statcheck
chi-square suite gates this parity).

Counters attribute the split exactly: ``extras["walks_from_index"]`` is the
stored-endpoint count and ``extras["walks_sampled"]`` the fresh top-up count
(which also lands in ``counters.random_walks`` via the kernels).
"""

from __future__ import annotations

from repro.estimators.spec import EstimatorSpec
from repro.graph.graph import Graph
from repro.hkpr.walk_phase import ResiduePlan
from repro.index.walk_index import WalkIndex

#: Service method name -> walk-law kind stored in the index.
INDEXABLE_METHODS = {"monte-carlo": "poisson", "mc-ppr": "geometric"}


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
) -> ResiduePlan | None:
    """The query's plan with its stored walks already in the reserve, if
    ``index`` covers this query.

    Returns ``None`` (after recording an index miss) when the method's
    bucket — ``t`` for ``monte-carlo``, ``alpha`` for ``mc-ppr`` — has no
    sketch for ``seed_node``.  Non-indexable methods return ``None`` without
    touching the index counters.
    """
    resolved = _bucket_for(spec, params)
    if resolved is None:
        return None
    kind, bucket = resolved
    total_walks = spec.estimate_walks(graph, params)
    stored = index.lookup(kind, seed_node, bucket, max_walks=total_walks)
    if stored is None:
        return None
    plan = spec.build_plan(graph, seed_node, params)
    plan.reserve.add_many(stored, plan.increment)
    topup = total_walks - int(stored.size)
    if topup:
        plan.query.num_walks = topup
    else:
        plan.query = None
    plan.counters.extras["index_hit"] = 1.0
    plan.counters.extras["walks_from_index"] = float(stored.size)
    plan.counters.extras["walks_sampled"] = float(topup)
    return plan
