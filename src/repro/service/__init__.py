"""Online query serving for the HKPR/PPR estimators.

Everything below this package exists to answer *one* query from a cold
start; this package turns it into a long-lived concurrent server, the shape
the ROADMAP's "heavy traffic" north star requires:

* :mod:`repro.service.registry` — :class:`GraphRegistry` loads or generates
  each graph once and keeps its CSR arrays and per-``t`` Poisson weight
  tables warm across requests.
* :mod:`repro.service.cache` — :class:`ResultCache`, an LRU over finished
  query results that drops a graph's entries when the graph is mutated,
  removed or registered again, bypassed for requests that pin an RNG seed
  (deterministic mode).
* :mod:`repro.service.planner` — request validation/normalization and the
  method registry mapping each estimator to its two-phase
  :class:`~repro.engine.multi.WalkPlan` form.
* :mod:`repro.service.batcher` — the micro-batcher: a dispatch thread that
  drains the request queue and fuses the walk phases of concurrent queries
  into shared backend kernel batches (:func:`repro.engine.multi.execute_plans`).
* :mod:`repro.service.service` — :class:`QueryService` (composition root,
  admission control, request counts in its own metrics registry).
* :mod:`repro.service.http` — a stdlib ``http.server`` JSON frontend
  (``repro-cli serve``).

See ARCHITECTURE.md ("The serving layer") for the request lifecycle and the
determinism caveats under fusion.
"""

from repro.service.cache import ResultCache
from repro.service.planner import QueryRequest, SERVICE_METHODS
from repro.service.registry import GraphRegistry
from repro.service.service import QueryResponse, QueryService

__all__ = [
    "GraphRegistry",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "ResultCache",
    "SERVICE_METHODS",
]
