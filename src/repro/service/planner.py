"""Request validation, normalization, and query planning.

A wire request is a loosely-typed dict; the planner turns it into a
:class:`QueryRequest` (validated, with canonical method name and parameter
types) at admission time, and into a :class:`~repro.engine.multi.WalkPlan`
(the two-phase prepare/finalize form) at dispatch time.  Normalizing
eagerly means invalid requests fail *before* they occupy queue capacity,
and the canonical parameter tuple doubles as the result-cache key.

Method registry
---------------
``SERVICE_METHODS`` is a live, read-only view over the unified estimator
registry (:mod:`repro.estimators`), exposing every registered *servable*
method (those producing a rankable diffusion vector).  Each spec carries
its parameter schema, an admission-control walk estimate, capability flags
and a plan builder, so a method registered in :mod:`repro.estimators`
becomes servable with no planner change:

* fusible — ``monte-carlo`` and ``tea+`` (HKPR), ``fora`` and ``mc-ppr``
  (PPR) decompose into walk phases the micro-batcher fuses across queries;
* direct — everything else (including the randomized ``tea`` and
  ``cluster-hkpr`` and the deterministic push/baseline methods) runs whole
  inside plan construction and returns an already-finalized
  :class:`~repro.estimators.spec.DirectPlan`.

Determinism: requests carrying an explicit ``rng`` seed are marked
*pinned* — the cache is bypassed and the batcher runs their walk tasks
unfused on a private generator, so the response is a pure function of the
request.  Unpinned requests may be fused and may be served from cache.
"""

from __future__ import annotations

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
        canonical spelling's key.  The graph ``epoch`` *is* part of the
        key: an edge mutation bumps the epoch, so results computed before
        the mutation become unreachable even before the registry's eager
        per-graph invalidation hook has evicted them.
        """
        return (
            self.graph,
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
) -> QueryRequest:
    """Validate raw request fields into a :class:`QueryRequest`.

    Method resolution, parameter casting and range checks all delegate to
    the estimator registry's declarative schemas — the same code path the
    CLI and the library use — so every surface reports identical errors.
    ``snapshot`` (when provided) is the graph the request is admitted at:
    it validates the seed node, so bad requests are rejected at admission
    rather than mid-batch, and its epoch becomes the request's.  The graph
    name is checked where it is resolved: :meth:`GraphRegistry.get` treats
    a non-string name as unknown.
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
        epoch=getattr(snapshot, "epoch", 0),
    )


def estimate_walks(entry: GraphEntry, request: QueryRequest, *, snapshot: Graph) -> int:
    """Admission-control estimate of the *online* walks ``request`` will run
    on ``snapshot``, the graph of ``entry`` it was admitted at.

    When the graph entry carries a walk-sketch index that covers part of an
    unpinned sampling request, only the fresh top-up counts against the
    in-flight walk budget — stored endpoints cost no online sampling.
    """
    spec = SERVICE_METHODS[request.method]
    estimated = spec.estimate_walks(snapshot, request.params)
    index = entry.index
    if index is not None and not request.pinned and estimated > 0:
        from repro.index.combine import stored_walks_for

        estimated -= stored_walks_for(
            index, snapshot, spec, request.seed_node, request.params
        )
    return estimated


def walk_estimate_is_tight(request: QueryRequest) -> bool:
    """Whether the method's walk estimate predicts actual work (vs a bound).

    Governs the hard single-query budget rejection: a tight over-budget
    estimate (monte-carlo, cluster-hkpr) means the query really would run
    that many walks, while an upper bound (tea, tea+, fora) usually
    collapses after the push phase and deserves the idle-server escape
    hatch.
    """
    return SERVICE_METHODS[request.method].walks_tight


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
    read it, so a mutation landing mid-query cannot mix epochs.
    Push phases and residue sampling run here (on the dispatch thread).
    Pinned requests get a private generator seeded with ``request.rng``;
    the batcher runs their tasks on that same generator, unfused.
    ``deadline`` (when given) is threaded into deadline-aware estimators'
    push loops, so unbounded plan-construction work trips it too.

    When the graph entry carries a walk-sketch index, *unpinned* sampling
    requests (``monte-carlo`` / ``mc-ppr``) are routed through the index
    combiner first: a sketch hit replaces stored walks one-for-one and only
    the top-up is sampled online.  The index is consulted only while
    ``snapshot`` is still the entry's current graph, the one it was built
    for.  Pinned requests bypass the index — their contract is
    byte-reproducible endpoints from the request's own generator, which
    stored shared-sketch endpoints cannot honor.

    ``trace`` (a :class:`repro.obs.QueryTrace`, optional) receives an
    ``index_lookup`` span around the index-combiner attempt.
    """
    rng = ensure_rng(request.rng) if request.pinned else ensure_rng(None)
    # Read the index before the snapshot check: a mutation detaches the
    # index before it installs the next snapshot.
    index = entry.index
    if index is not None and not request.pinned and entry.graph is snapshot:
        import time as _time

        from repro.index.combine import plan_from_index

        lookup_started = _time.perf_counter()
        plan = plan_from_index(
            index,
            snapshot,
            SERVICE_METHODS[request.method],
            request.seed_node,
            request.params,
        )
        if trace is not None:
            # Nested inside the caller's "plan" span; summing the four
            # top-level phases must therefore skip this one.
            trace.add_span(
                "index_lookup", lookup_started, _time.perf_counter(),
                hit=plan is not None,
            )
        if plan is not None:
            return plan, rng
    plan = SERVICE_METHODS[request.method].build_plan(
        snapshot, request.seed_node, request.params, rng, deadline=deadline
    )
    return plan, rng
