"""The query service: composition root, admission control, telemetry.

:class:`QueryService` wires the registry, result cache, planner and
micro-batcher into one long-lived object:

* ``submit`` — validate + normalize the request, try the cache, apply
  admission control (bounded queue *and* a cap on estimated in-flight
  walks), and enqueue; returns a :class:`concurrent.futures.Future`.
* the dispatch thread (inside :class:`~repro.service.batcher.MicroBatcher`)
  calls back into ``_execute_batch``: plans are built per request (push
  phases run here), the walk phases of all unpinned plans are fused per
  graph snapshot through :func:`repro.engine.multi.execute_plans`, pinned
  plans run unfused on their private generators, and each future is
  resolved with a :class:`QueryResponse`.  Every phase of a request reads
  the one graph snapshot ``submit`` took at admission.
* :class:`Telemetry` tallies per-request latency, cache hit rate, batch
  occupancy and walk throughput; ``stats()`` returns the JSON the ``/stats``
  endpoint and the load harness consume.

:class:`ServiceClient` is the in-process client: the same request/response
surface the HTTP frontend exposes, minus the socket — tests and the
benchmark load generator drive the service through it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass

from repro import obs
from repro.engine import Backend, get_backend
from repro.engine.multi import execute_plans, run_walk_tasks
from repro.exceptions import (
    QueryTimeoutError,
    ReproError,
    ServiceExecutionError,
    ServiceOverloadedError,
)
from repro.graph.graph import Graph
from repro.hkpr.result import HKPRResult
from repro.obs.metrics import MetricFamily, MetricsRegistry, Sample, use_registry
from repro.obs.trace import QueryTrace, TraceRecorder
from repro.service.batcher import (
    DEFAULT_BATCH_WAIT_SECONDS,
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_PENDING,
    MicroBatcher,
)
from repro.service.cache import ResultCache
from repro.service.planner import (
    DEFAULT_TOP_K,
    QueryRequest,
    build_plan,
    estimate_walks,
    normalize_request,
    walk_estimate_is_tight,
)
from repro.service.registry import GraphEntry, GraphRegistry
from repro.utils.deadline import Deadline
from repro.utils.rng import RandomState, ensure_rng

#: Default cap on the estimated walks admitted but not yet completed.
DEFAULT_MAX_INFLIGHT_WALKS = 50_000_000

#: Default per-query wall-clock budget (ms) when a request does not carry
#: its own ``timeout_ms``.  ``None`` disables the service-level default.
DEFAULT_QUERY_TIMEOUT_MS = 60_000.0


@dataclass
class QueryResponse:
    """One answered query: the estimator result plus serving metadata."""

    request: QueryRequest
    result: HKPRResult
    cached: bool
    latency_seconds: float
    batch_size: int
    #: The graph snapshot the request was admitted at and answered on.
    snapshot: Graph

    def to_dict(self) -> dict:
        """The JSON envelope served over HTTP (top-k ranking included).

        Ranks against the snapshot the answer was computed on, so a later
        mutation, unregister or re-register of the graph name cannot change
        the rendered ranking.
        """
        top = self.result.top(self.snapshot, self.request.top_k)
        return {
            "graph": self.request.graph,
            "method": self.request.method,
            "seed_node": self.request.seed_node,
            "params": dict(self.request.params),
            "top": top,
            "support_size": self.result.support_size(),
            "cached": self.cached,
            "early_exit": self.result.early_exit,
            "latency_ms": round(self.latency_seconds * 1000.0, 3),
            "batch_size": self.batch_size,
            "counters": self.result.counters.as_dict(),
        }


class Telemetry:
    """Thread-safe serving metrics (latency, occupancy, walk throughput).

    Request/latency counting lives in labeled metrics-registry series
    (``queries_total{method,graph,outcome}`` and the
    ``query_latency_seconds`` histogram) and :meth:`snapshot` is a
    backward-compatible *view* over them: the scalar totals ``/stats``
    always reported are derived by summing label children, so the two
    surfaces can never disagree.  Percentiles and the windowed request rate
    come from small bounded deques the exposition format cannot express.
    """

    #: Arrival history horizon for the windowed request rate (seconds).
    RATE_WINDOW_SECONDS = 60.0

    def __init__(
        self,
        *,
        latency_window: int = 2048,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._queries = self.registry.counter(
            "queries_total",
            "Queries by method, graph and terminal outcome "
            "(ok|cached|error|timeout|rejected).",
            ("method", "graph", "outcome"),
        )
        self._latency = self.registry.histogram(
            "query_latency_seconds",
            "End-to-end query latency, admission to response.",
            ("method", "graph", "outcome"),
        )
        self._walks = 0
        self._batches = 0
        self._batched_requests = 0
        self._max_occupancy = 0
        self._batch_seconds = 0.0
        self._latencies: deque[float] = deque(maxlen=latency_window)
        # Arrival timestamps for the windowed rate; bounded so a burst
        # cannot grow it without limit (at the cap the windowed rate
        # saturates, which is the honest reading anyway).
        self._arrivals: deque[float] = deque(maxlen=65536)

    def record_response(
        self,
        latency_seconds: float,
        *,
        cached: bool,
        method: str = "unknown",
        graph: str = "unknown",
    ) -> None:
        outcome = "cached" if cached else "ok"
        self._queries.labels(method=method, graph=graph, outcome=outcome).inc()
        self._latency.labels(
            method=method, graph=graph, outcome=outcome
        ).observe(latency_seconds)
        with self._lock:
            self._latencies.append(latency_seconds)
            self._arrivals.append(time.monotonic())

    def record_rejection(
        self, *, method: str = "unknown", graph: str = "unknown"
    ) -> None:
        self._queries.labels(
            method=method, graph=graph, outcome="rejected"
        ).inc()

    def record_error(
        self, *, method: str = "unknown", graph: str = "unknown"
    ) -> None:
        self._queries.labels(method=method, graph=graph, outcome="error").inc()

    def record_timeout(
        self,
        *,
        method: str = "unknown",
        graph: str = "unknown",
        latency_seconds: float | None = None,
    ) -> None:
        """A query tripped its deadline (counted apart from errors)."""
        self._queries.labels(
            method=method, graph=graph, outcome="timeout"
        ).inc()
        if latency_seconds is not None:
            self._latency.labels(
                method=method, graph=graph, outcome="timeout"
            ).observe(latency_seconds)

    def record_batch(self, occupancy: int, walks: int, seconds: float) -> None:
        with self._lock:
            self._batches += 1
            self._batched_requests += occupancy
            self._max_occupancy = max(self._max_occupancy, occupancy)
            self._walks += walks
            self._batch_seconds += seconds

    def snapshot(self) -> dict:
        """JSON-able metrics summary (the legacy ``/stats`` scalar view)."""
        responses = int(self._queries.sum_matching(outcome="ok"))
        cache_hits = int(self._queries.sum_matching(outcome="cached"))
        rejected = int(self._queries.sum_matching(outcome="rejected"))
        errors = int(self._queries.sum_matching(outcome="error"))
        timeouts = int(self._queries.sum_matching(outcome="timeout"))
        requests = responses + cache_hits
        with self._lock:
            now = time.monotonic()
            uptime = max(now - self._started, 1e-9)
            horizon = now - self.RATE_WINDOW_SECONDS
            while self._arrivals and self._arrivals[0] < horizon:
                self._arrivals.popleft()
            window = min(uptime, self.RATE_WINDOW_SECONDS)
            recent = len(self._arrivals)
            latencies = sorted(self._latencies)
            def _pct(p: float) -> float:
                if not latencies:
                    return 0.0
                index = min(int(p * len(latencies)), len(latencies) - 1)
                return latencies[index] * 1000.0
            return {
                "uptime_seconds": round(uptime, 3),
                "requests_total": requests,
                "requests_per_second": round(requests / uptime, 3),
                "requests_per_second_60s": round(recent / window, 3),
                "cache_hits_total": cache_hits,
                "cache_hit_rate": round(cache_hits / requests, 4) if requests else 0.0,
                "rejected_total": rejected,
                "errors_total": errors,
                "timeouts_total": timeouts,
                "latency_ms": {
                    "mean": round(
                        sum(latencies) / len(latencies) * 1000.0, 3
                    ) if latencies else 0.0,
                    "p50": round(_pct(0.50), 3),
                    "p95": round(_pct(0.95), 3),
                    "p99": round(_pct(0.99), 3),
                    "max": round(latencies[-1] * 1000.0, 3) if latencies else 0.0,
                },
                "batches": {
                    "count": self._batches,
                    "mean_occupancy": round(
                        self._batched_requests / self._batches, 3
                    ) if self._batches else 0.0,
                    "max_occupancy": self._max_occupancy,
                },
                "walks": {
                    "total": self._walks,
                    "per_second_overall": round(self._walks / uptime, 1),
                    "per_second_busy": round(
                        self._walks / self._batch_seconds, 1
                    ) if self._batch_seconds > 0 else 0.0,
                },
            }


@dataclass
class _Pending:
    """One admitted request travelling through the batch queue."""

    request: QueryRequest
    entry: GraphEntry
    #: ``entry.graph`` as read once at admission; every phase reads it.
    snapshot: Graph
    future: Future
    estimated_walks: int
    submitted_at: float
    deadline: Deadline | None = None
    trace: QueryTrace | None = None


class QueryService:
    """A long-lived, concurrent HKPR/PPR query server (in-process core)."""

    def __init__(
        self,
        registry: GraphRegistry | None = None,
        *,
        backend: str | Backend | None = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        batch_wait_seconds: float = DEFAULT_BATCH_WAIT_SECONDS,
        max_pending: int = DEFAULT_MAX_PENDING,
        max_inflight_walks: int = DEFAULT_MAX_INFLIGHT_WALKS,
        cache_entries: int = 1024,
        cache_ttl_seconds: float | None = None,
        default_timeout_ms: float | None = None,
        rng: RandomState = None,
        metrics_registry: MetricsRegistry | None = None,
        trace_capacity: int = obs.DEFAULT_RING_CAPACITY,
        slow_query_ms: float | None = None,
        slow_query_log: str | None = None,
    ) -> None:
        self.registry = registry if registry is not None else GraphRegistry()
        #: Deadline applied to requests that carry no ``timeout_ms`` of
        #: their own; ``None`` leaves such requests unbounded.  The CLI
        #: ``serve`` command defaults this to ``DEFAULT_QUERY_TIMEOUT_MS``.
        self.default_timeout_ms = default_timeout_ms
        self._backend = get_backend(backend)
        self._rng = ensure_rng(rng)
        #: Per-service metrics registry (so two services in one process do
        #: not mix series); rendered by ``GET /metrics``.  Pass a shared
        #: registry to aggregate several services into one exposition.
        self.metrics = (
            metrics_registry if metrics_registry is not None else MetricsRegistry()
        )
        self.telemetry = Telemetry(registry=self.metrics)
        #: Recent-trace ring + slow-query JSONL sink (``GET /trace/recent``).
        self.tracer = TraceRecorder(
            capacity=trace_capacity,
            slow_query_ms=slow_query_ms,
            slow_query_log=slow_query_log,
        )
        self.metrics.register_collector(self._collect_service_metrics)
        self.cache: ResultCache | None = (
            # Cache keys start with the graph name (see
            # QueryRequest.cache_key), so grouping by key[0] yields the
            # per-graph hit/miss/eviction breakdown /stats reports.
            ResultCache(
                cache_entries,
                ttl_seconds=cache_ttl_seconds,
                group_of=lambda key: str(key[0]),
            )
            if cache_entries > 0
            else None
        )
        if self.cache is not None:
            # One eviction path for "this graph changed": both unregister
            # (GraphRegistry.remove) and edge mutations (GraphRegistry.mutate)
            # fire the invalidation hooks, which drop the graph's cache group.
            self.registry.add_invalidation_hook(self.cache.invalidate_group)
        self._max_inflight_walks = max_inflight_walks
        self._inflight_walks = 0
        self._inflight_lock = threading.Lock()
        self._batcher = MicroBatcher(
            self._execute_batch,
            max_batch=max_batch,
            batch_wait_seconds=batch_wait_seconds,
            max_pending=max_pending,
            on_drop=self._drop_pending,
        )

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #
    def start(self) -> "QueryService":
        """Start the dispatch thread (idempotent); returns ``self``."""
        self._batcher.start()
        return self

    def stop(self) -> None:
        """Stop dispatching; queued requests fail with :class:`ServiceExecutionError`."""
        self._batcher.stop()
        self.tracer.close()

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def backend(self) -> Backend:
        """The walk-execution backend every batch runs on."""
        return self._backend

    # -------------------------------------------------------------- #
    # Request path
    # -------------------------------------------------------------- #
    def submit(
        self,
        graph: str,
        method: str,
        seed_node,
        params: dict | None = None,
        *,
        rng=None,
        top_k=DEFAULT_TOP_K,
        timeout_ms=None,
    ) -> "Future[QueryResponse]":
        """Admit one query; returns a future resolving to :class:`QueryResponse`.

        ``timeout_ms`` (or, absent that, the service's ``default_timeout_ms``)
        starts the query's cooperative deadline *now*, so queue wait counts
        against the budget; the future fails with
        :class:`~repro.exceptions.QueryTimeoutError` when the deadline trips.

        Raises :class:`ServiceError` for invalid requests and
        :class:`ServiceOverloadedError` when admission control rejects
        (full queue or the in-flight walk cap).
        """
        entry = self.registry.get(graph)
        # The one read of the entry's graph: the request is answered
        # entirely on this snapshot, whatever mutations land meanwhile.
        snapshot = entry.graph
        request = normalize_request(
            graph, method, seed_node, params, rng=rng, top_k=top_k,
            timeout_ms=timeout_ms, snapshot=snapshot,
        )
        submitted_at = time.perf_counter()

        if self.cache is not None and request.cache_eligible():
            hit = self.cache.get(request.cache_key())
            if hit is not None:
                response = QueryResponse(
                    request=request,
                    result=hit,
                    cached=True,
                    latency_seconds=time.perf_counter() - submitted_at,
                    batch_size=0,
                    snapshot=snapshot,
                )
                self.telemetry.record_response(
                    response.latency_seconds, cached=True,
                    method=request.method, graph=graph,
                )
                future: "Future[QueryResponse]" = Future()
                future.set_result(response)
                return future

        estimated = max(0, estimate_walks(entry, request, snapshot=snapshot))
        if estimated > self._max_inflight_walks and walk_estimate_is_tight(request):
            # A query that would really run more walks than the whole
            # budget can never fit, idle server or not — without this
            # check the single-request escape hatch below would admit it
            # and the walk phase would wedge the dispatch thread (e.g. a
            # default cluster-hkpr query implies ~1/eps^3 walks with
            # eps ~ p_f).  Methods whose estimate is only a loose upper
            # bound (tea/tea+/fora: the push phase usually collapses it)
            # keep the escape hatch.
            self.telemetry.record_rejection(method=request.method, graph=graph)
            raise ServiceOverloadedError(
                f"query's estimated walks ({estimated}) exceed the in-flight "
                f"walk budget ({self._max_inflight_walks}); tighten its "
                f"parameters (e.g. num_walks/max_walks/eps)"
            )
        with self._inflight_lock:
            if (
                self._inflight_walks + estimated > self._max_inflight_walks
                and self._inflight_walks > 0
            ):
                self.telemetry.record_rejection(
                    method=request.method, graph=graph
                )
                raise ServiceOverloadedError(
                    f"in-flight walk budget exhausted "
                    f"({self._inflight_walks} + {estimated} > "
                    f"{self._max_inflight_walks})"
                )
            self._inflight_walks += estimated

        effective_timeout = (
            request.timeout_ms
            if request.timeout_ms is not None
            else self.default_timeout_ms
        )
        deadline = (
            Deadline(effective_timeout) if effective_timeout is not None else None
        )
        trace = (
            QueryTrace(
                graph=graph, method=request.method, seed_node=request.seed_node
            )
            if obs.enabled()
            else None
        )
        pending = _Pending(
            request, entry, snapshot, Future(), estimated, submitted_at,
            deadline, trace,
        )
        try:
            self._batcher.submit(pending)
        except ServiceOverloadedError:
            self._release_walks(estimated)
            self.telemetry.record_rejection(method=request.method, graph=graph)
            raise
        return pending.future

    def query(self, *args, timeout: float | None = 60.0, **kwargs) -> QueryResponse:
        """Synchronous :meth:`submit` (blocks for the response)."""
        return self.submit(*args, **kwargs).result(timeout=timeout)

    # -------------------------------------------------------------- #
    # Mutation path
    # -------------------------------------------------------------- #
    def mutate_graph(self, name: str, *, add=(), remove=()) -> dict:
        """Apply an edge mutation to a served graph; returns the summary.

        Thin wrapper over :meth:`GraphRegistry.mutate` that runs with this
        service's metrics registry active, so the ``index_stale_total``
        counter emitted when a walk index is detached lands in the same
        exposition as the serving metrics.  Cache invalidation happens via
        the registry's hooks (wired in ``__init__``); in-flight queries
        keep the graph snapshot they resolved at admission.
        """
        with use_registry(self.metrics):
            return self.registry.mutate(name, add=add, remove=remove)

    def remove_graph(self, name: str) -> None:
        """Unregister a graph, evicting its cached results via the hooks."""
        with use_registry(self.metrics):
            self.registry.remove(name)

    def stats(self) -> dict:
        """Telemetry + cache + queue + index metrics (the ``/stats`` payload)."""
        snapshot = self.telemetry.snapshot()
        if self.cache is not None:
            cache_stats = self.cache.stats()
            # The cache groups by graph name; present that as "per_graph".
            cache_stats["per_graph"] = cache_stats.pop("per_group", {})
            snapshot["cache"] = cache_stats
        else:
            snapshot["cache"] = None
        index_graphs = {}
        for name in self.registry.names():
            index = self.registry.get(name).index
            if index is not None:
                index_graphs[name] = index.stats()
        if index_graphs:
            hits = sum(info["hits"] for info in index_graphs.values())
            misses = sum(info["misses"] for info in index_graphs.values())
            snapshot["index"] = {
                "graphs": index_graphs,
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                # Walks the service did not sample online because a stored
                # sketch covered them — the headline "walks saved" number.
                "walks_from_index": sum(
                    info["walks_from_index"] for info in index_graphs.values()
                ),
            }
        else:
            snapshot["index"] = None
        snapshot["queue"] = {
            "pending": self._batcher.pending(),
            "max_batch": self._batcher.max_batch,
            "batcher": self._batcher.stats(),
        }
        with self._inflight_lock:
            snapshot["inflight_walks"] = self._inflight_walks
        snapshot["backend"] = self._backend.name
        snapshot["graphs"] = self.registry.names()
        snapshot["graph_storage"] = {
            info["name"]: {
                "storage": info["storage"],
                "load_seconds": info["load_seconds"],
                "csr_bytes": info["csr_bytes"],
                "epoch": info["epoch"],
                "delta_edges": info["delta_edges"],
                "stale_indexes": info["stale_indexes"],
            }
            for info in self.registry.describe()
        }
        snapshot["observability"] = {
            "enabled": obs.enabled(),
            "traces": self.tracer.stats(),
        }
        return snapshot

    def render_metrics(self) -> str:
        """The Prometheus text exposition (the ``GET /metrics`` body)."""
        return self.metrics.render()

    def recent_traces(self, n: int | None = None) -> list[dict]:
        """Most recent finished query traces, newest first (``/trace/recent``)."""
        return self.tracer.recent(n)

    def _collect_service_metrics(self) -> list[MetricFamily]:
        """Scrape-time collector: service-level state the hot path already
        tracks elsewhere (no double counting on the request path)."""
        tele = self.telemetry
        with tele._lock:
            uptime = time.monotonic() - tele._started
            batches = tele._batches
            walks = tele._walks
        with self._inflight_lock:
            inflight = self._inflight_walks
        families = [
            MetricFamily(
                "service_uptime_seconds", "gauge",
                "Seconds since the service started.",
                [Sample("service_uptime_seconds", {}, uptime)],
            ),
            MetricFamily(
                "service_queue_pending", "gauge",
                "Admitted requests waiting for dispatch.",
                [Sample("service_queue_pending", {}, float(self._batcher.pending()))],
            ),
            MetricFamily(
                "service_inflight_walks", "gauge",
                "Estimated walks admitted but not yet completed.",
                [Sample("service_inflight_walks", {}, float(inflight))],
            ),
            MetricFamily(
                "service_batches_total", "counter",
                "Dispatch cycles executed.",
                [Sample("service_batches_total", {}, float(batches))],
            ),
            MetricFamily(
                "service_walks_total", "counter",
                "Random walks executed by dispatched batches.",
                [Sample("service_walks_total", {}, float(walks))],
            ),
        ]
        if self.cache is not None:
            cache_stats = self.cache.stats()
            per_graph = cache_stats.get("per_group", {})
            for metric, help_text in (
                ("hits", "Result-cache hits."),
                ("misses", "Result-cache misses."),
                ("evictions", "Result-cache capacity evictions."),
            ):
                family = MetricFamily(
                    f"result_cache_{metric}_total", "counter", help_text
                )
                if per_graph:
                    for graph_name, counters in sorted(per_graph.items()):
                        family.samples.append(
                            Sample(
                                family.name,
                                {"graph": graph_name},
                                float(counters.get(metric, 0)),
                            )
                        )
                else:
                    family.samples.append(
                        Sample(family.name, {}, float(cache_stats.get(metric, 0)))
                    )
                families.append(family)
            families.append(
                MetricFamily(
                    "result_cache_entries", "gauge",
                    "Entries currently held by the result cache.",
                    [Sample(
                        "result_cache_entries", {},
                        float(cache_stats.get("entries", 0)),
                    )],
                )
            )
        nodes_family = MetricFamily(
            "graph_nodes", "gauge", "Nodes per registered graph."
        )
        edges_family = MetricFamily(
            "graph_edges", "gauge", "Edges per registered graph."
        )
        for name in self.registry.names():
            try:
                graph = self.registry.get(name).graph
            except Exception:  # noqa: BLE001 - racing an unregister
                continue
            nodes_family.samples.append(
                Sample("graph_nodes", {"graph": name}, float(graph.num_nodes))
            )
            edges_family.samples.append(
                Sample("graph_edges", {"graph": name}, float(graph.num_edges))
            )
        families.extend([nodes_family, edges_family])
        return families

    # -------------------------------------------------------------- #
    # Dispatch side (runs on the batcher thread)
    # -------------------------------------------------------------- #
    def _release_walks(self, count: int) -> None:
        with self._inflight_lock:
            self._inflight_walks = max(0, self._inflight_walks - count)

    def _drop_pending(self, pending: _Pending) -> None:
        self._release_walks(pending.estimated_walks)
        try:
            pending.future.set_exception(
                ServiceExecutionError(
                    "service stopped before the request was dispatched"
                )
            )
        except InvalidStateError:  # client cancelled while queued
            pass

    def _finish_trace(
        self, pending: _Pending, outcome: str, latency_ms: float | None = None
    ) -> None:
        if pending.trace is None:
            return
        self.tracer.record(pending.trace.finish(outcome, latency_ms))
        pending.trace = None  # a pending terminates exactly once

    def _resolve(
        self, pending: _Pending, result: HKPRResult, batch_size: int
    ) -> None:
        response = QueryResponse(
            request=pending.request,
            result=result,
            cached=False,
            latency_seconds=time.perf_counter() - pending.submitted_at,
            batch_size=batch_size,
            snapshot=pending.snapshot,
        )
        if self.cache is not None and pending.request.cache_eligible():
            self.cache.put(pending.request.cache_key(), result)
        self.telemetry.record_response(
            response.latency_seconds, cached=False,
            method=pending.request.method, graph=pending.request.graph,
        )
        self._finish_trace(pending, "ok", response.latency_seconds * 1000.0)
        try:
            pending.future.set_result(response)
        except InvalidStateError:  # client cancelled mid-flight; result dropped
            pass

    def _fail(self, pending: _Pending, error: Exception) -> None:
        """Fail the request; an overload (429) counts as a rejection."""
        labels = {"method": pending.request.method, "graph": pending.request.graph}
        if isinstance(error, ServiceOverloadedError):
            self.telemetry.record_rejection(**labels)
            self._finish_trace(pending, "rejected")
        else:
            self.telemetry.record_error(**labels)
            self._finish_trace(pending, "error")
        try:
            pending.future.set_exception(error)
        except InvalidStateError:  # client cancelled mid-flight
            pass

    def _fail_timeout(self, pending: _Pending, error: QueryTimeoutError) -> None:
        """Deadline trips are accounted apart from errors (see ``/stats``)."""
        elapsed_ms = getattr(error, "elapsed_ms", None)
        self.telemetry.record_timeout(
            method=pending.request.method,
            graph=pending.request.graph,
            latency_seconds=(
                elapsed_ms / 1000.0 if elapsed_ms is not None else None
            ),
        )
        if pending.trace is not None:
            now = time.perf_counter()
            pending.trace.add_span(
                "deadline_hit", now, now,
                timeout_ms=getattr(error, "timeout_ms", None),
                elapsed_ms=elapsed_ms,
            )
        self._finish_trace(pending, "timeout", elapsed_ms)
        try:
            pending.future.set_exception(error)
        except InvalidStateError:  # client cancelled mid-flight
            pass

    def _execute_batch(self, batch: list[_Pending]) -> None:
        """Plan every request, fuse unpinned walk phases per graph, finalize.

        The whole cycle runs with this service's metrics registry active,
        so kernel series recorded deep inside the engine land here rather
        than in the process-wide registry.
        """
        with use_registry(self.metrics):
            self._execute_batch_inner(batch)

    def _execute_batch_inner(self, batch: list[_Pending]) -> None:
        started = time.perf_counter()
        walks_executed = 0
        # Keyed by snapshot identity, not graph name or entry: plans built
        # against different graphs (a re-registered name, or epochs either
        # side of a mutation) must not share a walk phase.
        fused: dict[int, list[tuple[_Pending, object]]] = {}
        pinned: list[tuple[_Pending, object, object]] = []
        for pending in batch:
            # Claim the future before doing any work: a client that already
            # cancelled gets skipped, and a RUNNING future can no longer be
            # cancelled out from under _resolve/_fail.
            if not pending.future.set_running_or_notify_cancel():
                self._release_walks(pending.estimated_walks)
                continue
            trace = pending.trace
            if trace is not None:
                # From trace creation (admission) to now: the queue wait.
                trace.add_span(
                    "queue_wait", trace.origin, time.perf_counter(),
                    batch_size=len(batch),
                )
            try:
                if pending.deadline is not None:
                    # Queue wait counts against the budget: a request whose
                    # deadline already passed fails here instead of burning
                    # dispatch-thread time on a doomed push phase.
                    pending.deadline.checkpoint()
                plan_started = time.perf_counter()
                plan, plan_rng = build_plan(
                    pending.entry, pending.request, snapshot=pending.snapshot,
                    deadline=pending.deadline, trace=trace,
                )
                if trace is not None:
                    trace.add_span(
                        "plan", plan_started, time.perf_counter(),
                        push_operations=(
                            plan.counters.push_operations
                            if plan.counters is not None
                            else 0
                        ),
                    )
                if plan.estimated_walks > self._max_inflight_walks:
                    # Admission let a loose walk bound through the idle-server
                    # escape hatch; the push has now fixed the real count, and
                    # a walk phase larger than the whole budget would wedge the
                    # dispatch thread before its first deadline checkpoint.
                    raise ServiceOverloadedError(
                        f"query's walk phase ({plan.estimated_walks} walks after "
                        f"its push) would exceed the in-flight walk budget "
                        f"({self._max_inflight_walks}); tighten its parameters "
                        f"(e.g. eps_r/delta/max_walks)"
                    )
            except QueryTimeoutError as error:
                self._release_walks(pending.estimated_walks)
                self._fail_timeout(pending, error)
                continue
            except ReproError as error:
                # Client-attributable: a bad parameter combination the
                # admission checks could not see (HTTP 400), or a walk
                # phase larger than the whole budget (429).
                self._release_walks(pending.estimated_walks)
                self._fail(pending, error)
                continue
            except Exception as error:  # noqa: BLE001 - future must not hang
                self._release_walks(pending.estimated_walks)
                self._fail(
                    pending,
                    ServiceExecutionError(f"plan construction failed: {error}"),
                )
                continue
            if plan.counters is not None:
                plan.counters.extras.setdefault("backend", self._backend.name)
            if pending.request.pinned:
                pinned.append((pending, plan, plan_rng))
            else:
                fused.setdefault(id(pending.snapshot), []).append((pending, plan))

        for group in fused.values():
            snapshot = group[0][0].snapshot
            plans = [plan for _, plan in group]
            # The fused kernels execute all members' walks interleaved, so
            # the group can only honor one deadline: the *latest* member
            # expiry (no member fails earlier than its own budget allows).
            # Any member without a deadline makes the group unbounded.
            deadlines = [pending.deadline for pending, _ in group]
            group_deadline = (
                max(deadlines, key=lambda d: d.expires_at)
                if all(d is not None for d in deadlines)
                else None
            )
            try:
                results = execute_plans(
                    self._backend, snapshot, plans, self._rng,
                    deadline=group_deadline,
                    traces=[pending.trace for pending, _ in group],
                )
            except QueryTimeoutError:
                # The whole group's remaining walks were abandoned; fail
                # each member against its own deadline with its own
                # partial-work counters.
                for pending, plan in group:
                    self._release_walks(pending.estimated_walks)
                    if plan.counters is not None:
                        plan.counters.extras["deadline_hit"] = 1.0
                    member = pending.deadline
                    self._fail_timeout(
                        pending,
                        QueryTimeoutError(
                            member.timeout_ms,
                            member.elapsed_ms(),
                            counters=plan.counters,
                        ),
                    )
                continue
            except Exception as error:  # noqa: BLE001 - fail the group, not the loop
                wrapped = (
                    error
                    if isinstance(error, ReproError)
                    else ServiceExecutionError(f"batch execution failed: {error}")
                )
                for pending, _ in group:
                    self._release_walks(pending.estimated_walks)
                    self._fail(pending, wrapped)
                continue
            for (pending, plan), result in zip(group, results):
                walks_executed += plan.counters.random_walks if plan.counters else 0
                self._release_walks(pending.estimated_walks)
                self._resolve(pending, result, batch_size=len(batch))

        for pending, plan, plan_rng in pinned:
            trace = pending.trace
            try:
                kernel_started = time.perf_counter()
                endpoints = run_walk_tasks(
                    self._backend,
                    pending.snapshot,
                    plan.tasks,
                    plan_rng,
                    counters_list=[plan.counters] * len(plan.tasks),
                    deadline=pending.deadline,
                )
                if trace is not None:
                    trace.add_span(
                        "kernel", kernel_started, time.perf_counter(),
                        backend=self._backend.name, fused=False, pinned=True,
                    )
                finalize_started = time.perf_counter()
                result = plan.finalize(endpoints)
                if trace is not None:
                    trace.add_span(
                        "finalize", finalize_started, time.perf_counter()
                    )
            except QueryTimeoutError as error:
                self._release_walks(pending.estimated_walks)
                self._fail_timeout(pending, error)
                continue
            except Exception as error:  # noqa: BLE001 - future must not hang
                wrapped = (
                    error
                    if isinstance(error, ReproError)
                    else ServiceExecutionError(f"pinned execution failed: {error}")
                )
                self._release_walks(pending.estimated_walks)
                self._fail(pending, wrapped)
                continue
            walks_executed += plan.counters.random_walks if plan.counters else 0
            self._release_walks(pending.estimated_walks)
            self._resolve(pending, result, batch_size=len(batch))

        self.telemetry.record_batch(
            len(batch), walks_executed, time.perf_counter() - started
        )


class ServiceClient:
    """In-process client mirroring the HTTP surface (used by tests/benchmarks)."""

    def __init__(self, service: QueryService) -> None:
        self._service = service

    def query(self, *args, **kwargs) -> QueryResponse:
        """Synchronous query returning the rich :class:`QueryResponse`."""
        return self._service.query(*args, **kwargs)

    def query_dict(
        self,
        graph: str,
        method: str,
        seed_node,
        params: dict | None = None,
        *,
        rng=None,
        top_k=DEFAULT_TOP_K,
        timeout_ms=None,
        timeout: float | None = 60.0,
    ) -> dict:
        """Query and shape the response exactly like the HTTP frontend."""
        response = self._service.query(
            graph, method, seed_node, params, rng=rng, top_k=top_k,
            timeout_ms=timeout_ms, timeout=timeout,
        )
        # The response carries the snapshot resolved at admission; a second
        # registry lookup here could race with a mutation or re-register.
        return response.to_dict()

    def stats(self) -> dict:
        """The ``/stats`` payload."""
        return self._service.stats()

    def graphs(self) -> list[dict]:
        """The ``/graphs`` payload."""
        return self._service.registry.describe()
