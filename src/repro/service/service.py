"""The query service: composition root, admission control, request counts.

:class:`QueryService` wires the registry, result cache, planner and
micro-batcher into one long-lived object:

* ``submit`` — validate + normalize the request and try the cache; on a
  miss, build the request's plan on the calling thread (its push phase
  runs here, under the request's deadline), admit on the plan's exact
  walk count (a cap on in-flight walks, and a bounded queue), and answer
  a plan with nothing left to walk at once; returns a
  :class:`concurrent.futures.Future`.
* the dispatch thread (inside :class:`~repro.service.batcher.MicroBatcher`)
  calls back into ``_execute_batch``: the walk phases of all unpinned
  plans are fused per graph snapshot through
  :func:`repro.engine.multi.execute_plans`, pinned plans run unfused on
  their private generators, and each future is resolved with a
  :class:`QueryResponse`.  Every phase of a request reads the one graph
  snapshot ``submit`` took at admission.
* each request's terminal path (answered, cached, failed, timed out,
  rejected, cancelled while queued, dropped by ``stop``) counts it once
  in the service's own metrics registry,
  ``queries_total{method,graph,outcome}`` and ``query_latency_seconds``,
  which ``GET /metrics`` renders; ``stats()`` sums those series for the
  ``/stats`` JSON, so the two cannot disagree.
"""

from __future__ import annotations

import resource
import sys
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass

from repro import obs
from repro.engine import Backend, get_backend
from repro.engine.fused import sampled_tasks
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
from repro.service.batcher import DEFAULT_MAX_BATCH, DEFAULT_MAX_PENDING, MicroBatcher
from repro.service.cache import ResultCache
from repro.service.planner import (
    DEFAULT_TOP_K,
    QueryRequest,
    build_plan,
    normalize_request,
)
from repro.service.registry import GraphRegistry
from repro.utils.deadline import Deadline
from repro.utils.rng import RandomState, ensure_rng

#: Default cap on the walks admitted but not yet run.
DEFAULT_MAX_INFLIGHT_WALKS = 50_000_000

#: Default result-cache capacity in entries (0 disables the cache).
DEFAULT_CACHE_ENTRIES = 1024

#: The per-query budget (ms) ``repro-cli serve`` gives a request with no
#: ``timeout_ms`` of its own (``QueryService``'s own default is none).
DEFAULT_QUERY_TIMEOUT_MS = 60_000.0


def _peak_rss_bytes() -> int:
    """This process's peak resident set size (``ru_maxrss``) in bytes."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux counts ru_maxrss in KiB, macOS in bytes.
    return peak if sys.platform == "darwin" else peak * 1024


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


@dataclass
class _Pending:
    """One request from admission to its response."""

    request: QueryRequest
    #: ``entry.graph`` as read once at admission; every phase reads it.
    snapshot: Graph
    future: Future
    submitted_at: float
    deadline: Deadline | None = None
    trace: QueryTrace | None = None
    #: The plan built at admission, and its private generator (pinned
    #: requests only).
    plan: object = None
    rng: object = None
    #: Walks charged to the in-flight budget, given back once.
    walks: int = 0
    #: When the plan was built: the request's queue wait starts here.
    planned_at: float = 0.0


class QueryService:
    """A long-lived, concurrent HKPR/PPR query server (in-process core)."""

    def __init__(
        self,
        registry: GraphRegistry | None = None,
        *,
        backend: str | Backend | None = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_pending: int = DEFAULT_MAX_PENDING,
        max_inflight_walks: int = DEFAULT_MAX_INFLIGHT_WALKS,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
        default_timeout_ms: float | None = None,
        rng: RandomState = None,
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
        #: This service's own metrics registry, rendered by ``GET /metrics``
        #: and summed by ``stats()``.
        self.metrics = MetricsRegistry()
        self._started = time.monotonic()
        self._queries = self.metrics.counter(
            "queries_total",
            "Queries by method, graph and terminal outcome "
            "(ok|cached|error|timeout|rejected).",
            ("method", "graph", "outcome"),
        )
        self._latency = self.metrics.histogram(
            "query_latency_seconds",
            "End-to-end query latency, admission to response.",
            ("method", "graph", "outcome"),
        )
        self._walks = self.metrics.counter(
            "service_walks_total",
            "Random walks executed by dispatched batches.",
        ).child()
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
            ResultCache(cache_entries, group_of=lambda key: str(key[0]))
            if cache_entries > 0
            else None
        )
        #: The hook this service registered with the registry, while it has
        #: one; the cache is read and filled only then (see ``stop``).
        self._cache_hook = None
        self._hook_lock = threading.Lock()
        self._hook_cache()
        self._max_inflight_walks = max_inflight_walks
        self._inflight_walks = 0
        self._inflight_lock = threading.Lock()
        self._batcher = MicroBatcher(
            self._execute_batch,
            max_batch=max_batch,
            max_pending=max_pending,
            on_drop=self._drop_pending,
        )

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #
    def start(self) -> "QueryService":
        """Start the dispatch thread (idempotent); returns ``self``.

        After :meth:`stop`, this also registers the cache's eviction hook
        again and reopens the slow-query sink, so the restarted service
        reads and fills its cache and writes its slow queries.
        """
        self._hook_cache()
        self.tracer.open()
        self._batcher.start()
        return self

    def stop(self) -> None:
        """Stop dispatching and let go of the result cache.

        Queued requests fail with :class:`ServiceExecutionError`, each
        counted as an error with its trace recorded.  The cache's eviction
        hook leaves the registry and the cache is emptied, so the registry
        keeps nothing of a stopped service alive.  Until :meth:`start` runs
        again the service neither reads nor fills its cache: with no hook,
        an entry could outlive the removal and re-registration of its
        graph.  Safe to call twice, and on a service that was never started.
        """
        self._batcher.stop()
        with self._hook_lock:
            hook, self._cache_hook = self._cache_hook, None
            if hook is not None:
                self.registry.remove_invalidation_hook(hook)
                self.cache.clear()
        self.tracer.close()

    def _hook_cache(self) -> None:
        # One eviction path for "this graph changed": both unregister
        # (GraphRegistry.remove) and edge mutations (GraphRegistry.mutate)
        # fire the invalidation hooks, which drop the graph's cache group.
        with self._hook_lock:
            if self.cache is not None and self._cache_hook is None:
                self._cache_hook = self.cache.invalidate_group
                self.registry.add_invalidation_hook(self._cache_hook)

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

        Blocks for the request's plan: on a cache miss its push phase runs
        here, on the calling thread, and admission charges the exact walk
        count the plan leaves.  A plan with nothing left to walk (a
        deterministic method, a TEA+ early exit, a fully stored index hit)
        is answered before ``submit`` returns, with ``batch_size`` 0; the
        rest queue for the dispatch thread, which fuses their walk phases.

        ``timeout_ms`` (or, absent that, the service's ``default_timeout_ms``)
        starts the query's cooperative deadline *now*, so the push and the
        queue wait count against the budget; the future fails with
        :class:`~repro.exceptions.QueryTimeoutError` when the deadline
        trips, and with the plan builder's
        :class:`~repro.exceptions.ReproError` for a parameter combination
        it refuses.

        Raises :class:`ServiceError` for invalid requests and
        :class:`ServiceOverloadedError` when admission control rejects
        (a walk phase larger than the whole in-flight walk budget, the
        budget exhausted, or a full queue).
        """
        entry = self.registry.get(graph)
        # The one read of the entry's graph: the request is answered
        # entirely on this snapshot, whatever mutations land meanwhile.
        snapshot = entry.graph
        request = normalize_request(
            graph, method, seed_node, params, rng=rng, top_k=top_k,
            timeout_ms=timeout_ms, snapshot=snapshot,
            registration=entry.registration,
        )
        submitted_at = time.perf_counter()

        if self._cache_hook is not None and request.cache_eligible():
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
                self._count(request, "cached", response.latency_seconds)
                future: "Future[QueryResponse]" = Future()
                future.set_result(response)
                return future

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
            request, snapshot, Future(), submitted_at, deadline, trace
        )
        plan_started = time.perf_counter()
        try:
            with use_registry(self.metrics):
                plan, pending.rng = build_plan(
                    entry, request, snapshot=snapshot,
                    deadline=deadline, trace=trace,
                )
        except ReproError as error:
            # Client-attributable: a deadline trip (HTTP 504) or a bad
            # parameter combination the schema could not see (HTTP 400).
            self._fail(pending, error)
            return pending.future
        except Exception as error:  # noqa: BLE001 - the future carries it
            self._fail(
                pending,
                ServiceExecutionError(f"plan construction failed: {error}"),
            )
            return pending.future
        pending.planned_at = time.perf_counter()
        if trace is not None:
            trace.add_span(
                "plan", plan_started, pending.planned_at,
                push_operations=plan.counters.push_operations,
            )
        plan.counters.extras.setdefault("backend", self._backend.name)
        walks = plan.estimated_walks
        if not walks:
            result = plan.finalize([])
            if trace is not None:
                trace.add_span("finalize", pending.planned_at, time.perf_counter())
            self._resolve(pending, result, batch_size=0)
            return pending.future
        if walks > self._max_inflight_walks:
            # It could never fit: its walk phase would hold the dispatch
            # thread past every other query.
            self._reject(pending)
            raise ServiceOverloadedError(
                f"query's walk phase ({walks} walks) exceeds the in-flight "
                f"walk budget ({self._max_inflight_walks}); tighten its "
                f"parameters (e.g. num_walks/max_walks/eps/eps_r)"
            )
        with self._inflight_lock:
            inflight = self._inflight_walks
            if inflight + walks <= self._max_inflight_walks:
                self._inflight_walks += walks
                pending.walks = walks
        if not pending.walks:
            self._reject(pending)
            raise ServiceOverloadedError(
                f"in-flight walk budget exhausted ({inflight} + {walks} > "
                f"{self._max_inflight_walks})"
            )
        pending.plan = plan
        try:
            self._batcher.submit(pending)
        except ServiceOverloadedError:
            self._reject(pending)
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
        """Request totals + cache + queue + index state (the ``/stats`` payload).

        The request totals sum ``queries_total`` over its label children,
        and ``walks.total`` reads ``service_walks_total``: the series
        ``GET /metrics`` renders, so the two endpoints agree.
        """

        def total(outcome: str) -> int:
            return int(self._queries.sum_matching(outcome=outcome))

        cache_hits = total("cached")
        requests = total("ok") + cache_hits
        uptime = max(time.monotonic() - self._started, 1e-9)
        snapshot = {
            "uptime_seconds": round(uptime, 3),
            "requests_total": requests,
            "requests_per_second": round(requests / uptime, 3),
            "cache_hits_total": cache_hits,
            "cache_hit_rate": round(cache_hits / requests, 4) if requests else 0.0,
            "rejected_total": total("rejected"),
            "errors_total": total("error"),
            "timeouts_total": total("timeout"),
            "walks": {"total": int(self._walks.value())},
        }
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
        uptime = time.monotonic() - self._started
        batches = self._batcher.stats()["cycles"]
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
                "Walks admitted but not yet run.",
                [Sample("service_inflight_walks", {}, float(inflight))],
            ),
            MetricFamily(
                "service_batches_total", "counter",
                "Dispatch cycles the micro-batcher collected.",
                [Sample("service_batches_total", {}, float(batches))],
            ),
            MetricFamily(
                "process_peak_resident_bytes", "gauge",
                "Peak resident set size of the serving process.",
                [Sample("process_peak_resident_bytes", {}, float(_peak_rss_bytes()))],
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
    # Terminal paths (any thread) and the dispatch side
    # -------------------------------------------------------------- #
    def _release(self, pending: _Pending) -> None:
        """Give the request's admitted walks back to the budget (once)."""
        if pending.walks:
            with self._inflight_lock:
                self._inflight_walks -= pending.walks
            pending.walks = 0

    def _count(
        self,
        request: QueryRequest,
        outcome: str,
        latency_seconds: float | None = None,
    ) -> None:
        """Count a request's terminal outcome, once, and time it if timed."""
        labels = {"method": request.method, "graph": request.graph, "outcome": outcome}
        self._queries.labels(**labels).inc()
        if latency_seconds is not None:
            self._latency.labels(**labels).observe(latency_seconds)

    def _reject(self, pending: _Pending) -> None:
        """Refuse admission (HTTP 429): release, count, close the trace."""
        self._release(pending)
        self._count(pending.request, "rejected")
        self._finish_trace(pending, "rejected")

    def _drop_pending(self, pending: _Pending) -> None:
        """Fail a request that ``stop()`` took off the queue undispatched."""
        self._fail(
            pending,
            ServiceExecutionError("service stopped before the request was dispatched"),
        )

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
        self._release(pending)
        response = QueryResponse(
            request=pending.request,
            result=result,
            cached=False,
            latency_seconds=time.perf_counter() - pending.submitted_at,
            batch_size=batch_size,
            snapshot=pending.snapshot,
        )
        if self._cache_hook is not None and pending.request.cache_eligible():
            self.cache.put(pending.request.cache_key(), result)
        self._count(pending.request, "ok", response.latency_seconds)
        self._finish_trace(pending, "ok", response.latency_seconds * 1000.0)
        try:
            pending.future.set_result(response)
        except InvalidStateError:  # client cancelled mid-flight; result dropped
            pass

    def _fail(self, pending: _Pending, error: Exception) -> None:
        """Fail the request with ``error``.

        A deadline trip (HTTP 504) counts as a timeout, apart from errors,
        and its trace gains a ``deadline_hit`` marker; anything else (HTTP
        400 or 500) counts as an error.
        """
        self._release(pending)
        if isinstance(error, QueryTimeoutError):
            elapsed_ms = error.elapsed_ms
            self._count(
                pending.request, "timeout",
                elapsed_ms / 1000.0 if elapsed_ms is not None else None,
            )
            if pending.trace is not None:
                now = time.perf_counter()
                pending.trace.add_span(
                    "deadline_hit", now, now,
                    timeout_ms=error.timeout_ms, elapsed_ms=elapsed_ms,
                )
            self._finish_trace(pending, "timeout", elapsed_ms)
        else:
            self._count(pending.request, "error")
            self._finish_trace(pending, "error")
        try:
            pending.future.set_exception(error)
        except InvalidStateError:  # client cancelled mid-flight
            pass

    def _execute_batch(self, batch: list[_Pending]) -> None:
        """Fuse unpinned walk phases per graph, run pinned ones, finalize.

        The whole cycle runs with this service's metrics registry active,
        so kernel series recorded deep inside the engine land here rather
        than in the process-wide registry.
        """
        with use_registry(self.metrics):
            self._execute_batch_inner(batch)

    def _execute_batch_inner(self, batch: list[_Pending]) -> None:
        # Keyed by snapshot identity, not graph name or entry: plans built
        # against different graphs (a re-registered name, or epochs either
        # side of a mutation) must not share a walk phase.
        fused: dict[int, list[_Pending]] = {}
        pinned: list[_Pending] = []
        for pending in batch:
            # Claim the future before doing any work: a client that already
            # cancelled gets skipped (counted as an error, like a request
            # stop() drops), and a RUNNING future can no longer be
            # cancelled out from under _resolve/_fail.
            if not pending.future.set_running_or_notify_cancel():
                self._fail(
                    pending,
                    ServiceExecutionError("request cancelled before dispatch"),
                )
                continue
            if pending.trace is not None:
                pending.trace.add_span(
                    "queue_wait", pending.planned_at, time.perf_counter(),
                    batch_size=len(batch),
                )
            if pending.deadline is not None:
                # Queue wait counts against the budget: a request whose
                # deadline already passed fails here instead of joining a
                # walk phase.
                try:
                    pending.deadline.checkpoint()
                except QueryTimeoutError as error:
                    self._fail(pending, error)
                    continue
            if pending.request.pinned:
                pinned.append(pending)
            else:
                fused.setdefault(id(pending.snapshot), []).append(pending)

        for group in fused.values():
            # The fused kernels execute all members' walks interleaved, so
            # the group can only honor one deadline: the *latest* member
            # expiry (no member fails earlier than its own budget allows).
            # Any member without a deadline makes the group unbounded.
            deadlines = [pending.deadline for pending in group]
            group_deadline = (
                max(deadlines, key=lambda d: d.expires_at)
                if all(d is not None for d in deadlines)
                else None
            )
            try:
                results = execute_plans(
                    self._backend, group[0].snapshot,
                    [pending.plan for pending in group], self._rng,
                    deadline=group_deadline,
                    traces=[pending.trace for pending in group],
                )
            except QueryTimeoutError:
                # The whole group's remaining walks were abandoned; fail
                # each member against its own deadline with its own
                # partial-work counters.
                for pending in group:
                    counters = pending.plan.counters
                    counters.extras["deadline_hit"] = 1.0
                    member = pending.deadline
                    self._fail(
                        pending,
                        QueryTimeoutError(
                            member.timeout_ms,
                            member.elapsed_ms(),
                            counters=counters,
                        ),
                    )
                continue
            except Exception as error:  # noqa: BLE001 - fail the group, not the loop
                wrapped = (
                    error
                    if isinstance(error, ReproError)
                    else ServiceExecutionError(f"batch execution failed: {error}")
                )
                for pending in group:
                    self._fail(pending, wrapped)
                continue
            # Walks are counted before any future resolves, so a caller
            # that reads stats() after its answer sees its walks.
            self._walks.inc(sum(result.counters.random_walks for result in results))
            for pending, result in zip(group, results):
                self._resolve(pending, result, batch_size=len(batch))

        for pending in pinned:
            plan, trace = pending.plan, pending.trace
            try:
                kernel_started = time.perf_counter()
                tasks = sampled_tasks(
                    pending.snapshot, plan.fused_queries(), pending.rng
                )
                endpoints = run_walk_tasks(
                    self._backend,
                    pending.snapshot,
                    tasks,
                    pending.rng,
                    counters_list=[plan.counters] * len(tasks),
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
            except Exception as error:  # noqa: BLE001 - future must not hang
                wrapped = (
                    error
                    if isinstance(error, ReproError)
                    else ServiceExecutionError(f"pinned execution failed: {error}")
                )
                self._fail(pending, wrapped)
                continue
            self._walks.inc(result.counters.random_walks)
            self._resolve(pending, result, batch_size=len(batch))
