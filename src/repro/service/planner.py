"""Request validation, normalization, and query planning.

A wire request is a loosely-typed dict; at admission the planner turns it
into a :class:`QueryRequest` (validated, with canonical method name and
parameter types) and, on a cache miss, into a
:class:`~repro.engine.multi.WalkPlan` (the two-phase prepare/finalize
form) whose push phase has run and whose walk count is exact.
Normalizing eagerly means invalid requests fail *before* they occupy
queue capacity, and the canonical parameter tuple doubles as the
result-cache key.

Method registry
---------------
``SERVICE_METHODS`` is a live, read-only view over the unified estimator
registry (:mod:`repro.estimators`), exposing every registered *servable*
method (those producing a rankable diffusion vector).  Each spec carries
its parameter schema, capability flags and a plan builder, so a method
registered in :mod:`repro.estimators` becomes servable with no planner
change:

* fusible — every randomized method (``monte-carlo``, ``cluster-hkpr``,
  ``tea`` and ``tea+`` for HKPR, ``fora`` and ``mc-ppr`` for PPR) pushes
  inside plan construction and leaves a walk phase the micro-batcher
  fuses across queries on the service's backend;
* direct — the deterministic push, exact and baseline methods run whole
  inside plan construction and return an already-finalized
  :class:`~repro.estimators.spec.DirectPlan`.

Determinism: requests carrying an explicit ``rng`` seed are marked
*pinned* — the cache is bypassed and the batcher runs their plan's walks as
unfused tasks on a private generator, so the response is a pure function
of the request.  Unpinned requests may be fused and may be served from cache.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

from repro.estimators import resolve
from repro.estimators.spec import EstimatorSpec
from repro.exceptions import ParameterError, ServiceError
from repro.graph.graph import Graph
from repro.service.registry import GraphEntry
from repro.utils.rng import ensure_rng

#: Default number of ranked nodes returned in a response envelope.
DEFAULT_TOP_K = 20


class _ServiceMethods(Mapping):
    """Live mapping of servable methods, derived from the estimator registry.

    Views the registry rather than copying it so methods registered after
    import (e.g. in tests or plugins) are immediately servable.  Lookups
    delegate to the registry's O(1) resolution (no table rebuild on the
    per-query hot path); keys are canonical names only.
    """

    def __getitem__(self, name: str) -> EstimatorSpec:
        try:
            spec = resolve(name)
        except ParameterError:
            raise KeyError(name) from None
        if spec.name != name or not spec.servable:
            raise KeyError(name)
        return spec

    def __iter__(self) -> Iterator[str]:
        from repro.estimators import method_names

        return iter(method_names(servable=True))

    def __len__(self) -> int:
        from repro.estimators import method_names

        return len(method_names(servable=True))


SERVICE_METHODS: Mapping[str, EstimatorSpec] = _ServiceMethods()
"""Servable methods (name → :class:`~repro.estimators.spec.EstimatorSpec`).
Fusible specs decompose into walk phases; the rest execute directly inside
plan construction."""


def _resolve_servable(method: str) -> EstimatorSpec:
    """Resolve a request's method (alias-aware) to a servable spec."""
    try:
        spec = resolve(method)
    except ParameterError:
        raise ServiceError(
            f"unknown method {method!r}; expected one of {sorted(SERVICE_METHODS)}"
        ) from None
    if not spec.servable:
        raise ServiceError(
            f"method {spec.name!r} does not produce a rankable vector and is "
            f"not servable; servable methods: {sorted(SERVICE_METHODS)}"
        )
    return spec


@dataclass(frozen=True)
class QueryRequest:
    """One validated, normalized query (``method`` is the canonical name)."""

    graph: str
    method: str
    seed_node: int
    params: dict = field(default_factory=dict)
    rng: int | None = None
    top_k: int = DEFAULT_TOP_K
    timeout_ms: float | None = None
    #: Epoch of the graph snapshot the request was admitted at, on which it
    #: is answered.  Part of the cache key: results computed against an
    #: older epoch must never answer queries admitted after a mutation,
    #: even if eager group invalidation raced.
    epoch: int = 0
    #: :attr:`~repro.service.registry.GraphEntry.registration` of the entry
    #: the snapshot came from.  Part of the cache key for the same reason:
    #: a name registered again starts again at epoch 0.
    registration: int = 0

    @property
    def pinned(self) -> bool:
        """Whether the request pinned an RNG seed (deterministic mode)."""
        return self.rng is not None

    def cache_key(self) -> tuple:
        """Canonical cache key (excludes ``rng``, ``top_k``, ``timeout_ms``).

        ``top_k`` only shapes the response envelope and the full result is
        cached, so two requests differing only in ``top_k`` share a key.
        ``timeout_ms`` bounds execution time without changing the answer —
        a cached result is valid for any deadline.  Method aliases were
        resolved at normalization, so an aliased request shares the
        canonical spelling's key.  The graph's ``registration`` and
        ``epoch`` *are* part of the key: registering the name again or
        mutating its edges changes one of them, so results computed on the
        older graph become unreachable even before the registry's eager
        per-graph invalidation hook has evicted them.
        """
        return (
            self.graph,
            self.registration,
            self.epoch,
            self.method,
            self.seed_node,
            tuple(sorted(self.params.items())),
        )

    def cache_eligible(self) -> bool:
        """Pinned requests bypass the cache unless the method is deterministic."""
        return SERVICE_METHODS[self.method].deterministic or not self.pinned


def _integer(name: str, value) -> int:
    """``int(value)``, refusing booleans and values ``int()`` would truncate."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ServiceError(f"non-integer {name}: {exc}") from None
    if isinstance(value, bool) or (not isinstance(value, str) and number != value):
        raise ServiceError(f"{name} must be an integer, got {value!r}")
    return number


def normalize_request(
    graph: str,
    method: str,
    seed_node,
    params: dict | None = None,
    *,
    rng=None,
    top_k=DEFAULT_TOP_K,
    timeout_ms=None,
    snapshot: Graph | None = None,
    registration: int = 0,
) -> QueryRequest:
    """Validate raw request fields into a :class:`QueryRequest`.

    Method resolution, parameter casting and range checks all delegate to
    the estimator registry's declarative schemas — the same code path the
    CLI and the library use — so every surface reports identical errors.
    ``snapshot`` (when provided) is the graph the request is admitted at:
    it validates the seed node, so bad requests are rejected at admission
    rather than mid-batch, and its epoch becomes the request's, as the
    ``registration`` of the entry it came from does.  The graph name is
    checked where it is resolved: :meth:`GraphRegistry.get` treats a
    non-string name as unknown.
    """
    if not isinstance(method, str):
        raise ServiceError(f"method must be a string, got {method!r}")
    if params is not None and not isinstance(params, Mapping):
        raise ServiceError(f"params must be an object or null, got {params!r}")
    spec = _resolve_servable(method)
    seed_node = _integer("seed_node", seed_node)
    top_k = _integer("top_k", top_k)
    rng = None if rng is None else _integer("rng", rng)
    if top_k < 1:
        raise ServiceError(f"top_k must be >= 1, got {top_k}")
    if rng is not None and rng < 0:
        raise ServiceError(f"rng must be a non-negative integer, got {rng}")
    if timeout_ms is not None:
        if isinstance(timeout_ms, bool):
            raise ServiceError(f"timeout_ms must be a number, got {timeout_ms!r}")
        try:
            timeout_ms = float(timeout_ms)
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"non-numeric timeout_ms: {exc}") from None
        if not timeout_ms > 0:
            raise ServiceError(f"timeout_ms must be positive, got {timeout_ms}")

    try:
        normalized = spec.validate_params(params)
    except ParameterError as exc:
        # Registry errors are client errors at the service boundary
        # (HTTP 400); the message — with its valid-option listing — is
        # produced by the registry's single validation path.
        raise ServiceError(str(exc)) from None

    if snapshot is not None and not snapshot.has_node(seed_node):
        raise ServiceError(
            f"seed node {seed_node} is not in graph {graph!r} "
            f"(n={snapshot.num_nodes})"
        )
    return QueryRequest(
        graph=graph, method=spec.name, seed_node=seed_node,
        params=normalized, rng=rng, top_k=top_k, timeout_ms=timeout_ms,
        epoch=getattr(snapshot, "epoch", 0), registration=registration,
    )


def build_plan(
    entry: GraphEntry,
    request: QueryRequest,
    *,
    snapshot: Graph,
    deadline=None,
    trace=None,
):
    """Build the request's :class:`~repro.engine.multi.WalkPlan` on ``snapshot``.

    ``snapshot`` is the graph of ``entry`` the request was admitted at; the
    push phase, the index lookup and (by the caller) the walk phase all
    read it, so a mutation landing mid-query cannot mix epochs.  The push
    phase runs here, on the submitting thread; building a plan draws no
    random number, and the plan's ``estimated_walks`` is the exact walk
    count the request still has to run.  Pinned requests get a private
    generator seeded with ``request.rng``; the batcher draws their walk
    tasks from the plan's fused queries on that same generator and runs
    them unfused.  Unpinned requests get ``None`` and walk on the
    service's generator.  ``deadline`` (when given) is threaded into
    deadline-aware estimators' push loops, so unbounded plan-construction
    work trips it too.

    When the graph entry carries a walk-sketch index, the plans of
    *unpinned* sampling requests (``monte-carlo`` / ``mc-ppr``) go through
    the index combiner: a sketch hit replaces stored walks one-for-one and
    only the top-up is left to sample.  The index is consulted only while
    ``snapshot`` is still the entry's current graph, the one it was built
    for.  Pinned requests bypass the index — their contract is
    byte-reproducible endpoints from the request's own generator, which
    stored shared-sketch endpoints cannot honor.

    ``trace`` (a :class:`repro.obs.QueryTrace`, optional) receives an
    ``index_lookup`` span around the index-combiner attempt.
    """
    spec = SERVICE_METHODS[request.method]
    plan = spec.build_plan(
        snapshot, request.seed_node, request.params, deadline=deadline
    )
    if request.pinned:
        return plan, ensure_rng(request.rng)
    # Read the index before the snapshot check: a mutation detaches the
    # index before it installs the next snapshot.
    index = entry.index
    if index is not None and entry.graph is snapshot:
        from repro.index import combine

        lookup_started = time.perf_counter()
        hit = combine.plan_from_index(index, plan, spec, request.params)
        if trace is not None:
            # Nested inside the caller's "plan" span; summing the four
            # top-level phases must therefore skip this one.
            trace.add_span(
                "index_lookup", lookup_started, time.perf_counter(),
                hit=hit is not None,
            )
    return plan, None
