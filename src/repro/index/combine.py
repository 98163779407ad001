"""Combine stored walk sketches with a fresh top-up walk batch.

:func:`plan_from_index` serves a sampling query (``monte-carlo`` HKPR or
``mc-ppr``) from a precomputed sketch: of the ``N`` walks the request
needs, ``k = min(N, W)`` endpoints come straight from the index and only
the remaining ``N - k`` are sampled online.  The query's own plan builder
makes the plan first; its reserve then takes the stored endpoints at
increment ``1/N`` and its walk phase shrinks to the top-up, so the answer is
distributed exactly as if all ``N`` walks had been sampled fresh — stored
sketch walks are i.i.d. draws from the same endpoint law (the statcheck
chi-square suite gates this parity).

Counters attribute the split exactly: ``extras["walks_from_index"]`` is the
stored-endpoint count and ``extras["walks_sampled"]`` the fresh top-up count
(which also lands in ``counters.random_walks`` via the kernels).
"""

from __future__ import annotations

from repro.estimators.spec import EstimatorSpec
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


def plan_from_index(
    index: WalkIndex, plan: ResiduePlan, spec: EstimatorSpec, params: dict
) -> ResiduePlan | None:
    """Move the stored walks ``index`` holds for this query into ``plan``.

    ``plan`` is the query's own plan (``spec.build_plan`` on ``params``).
    Of its walks, as many as the sketch holds come from the index into its
    reserve, and its walk phase shrinks to the top-up.  Returns ``plan``,
    or ``None`` (after recording an index miss; ``plan`` is untouched)
    when the method's bucket — ``t`` for ``monte-carlo``, ``alpha`` for
    ``mc-ppr`` — has no sketch for the plan's seed.  Non-indexable methods
    return ``None`` without touching the index counters.
    """
    resolved = _bucket_for(spec, params)
    if resolved is None:
        return None
    kind, bucket = resolved
    total_walks = plan.estimated_walks
    stored = index.lookup(kind, plan.seed_node, bucket, max_walks=total_walks)
    if stored is None:
        return None
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
