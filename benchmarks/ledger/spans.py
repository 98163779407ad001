"""Benchmark-side spans: timing wrappers on the program's public call sites.

A traced pass installs wrappers on the names the program's callers look up
(for example ``repro.service.service.build_plan``, ``ResultCache.get`` or
``repro.clustering.local.sweep_cut``), so nothing under ``src/`` changes.
Each span records its id, its parent (the span open on the same thread when
it started), its name, start and end, the request id of the thread that made
the call, and the micro-batch the call ran in; a batch span lists the
request ids of its members.  Spans stay in memory until the pass ends.

The ledger turns one request's spans into self times along its blocking
path: every instant of the request's end-to-end interval is charged to the
innermost layer active at that instant (``PRIORITY``), and time no layer
covers stays with the root.  The charges of one request therefore sum to
its end-to-end time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

from measure import pct

#: Attribution priority: a higher number is a more deeply nested layer.
PRIORITY = {
    "loadgen.late": 1,
    "http.handler": 1,
    "hkpr.push": 1,
    "engine.walk_phase": 1,
    "clustering.sweep": 1,
    "service.submit": 2,
    "service.queue": 2,
    "service.batch": 2,
    "http.encode": 3,
    "http.send": 3,
    "planner.build_plan": 3,
    "engine.execute_plans": 3,
    "cache.get": 4,
    "cache.put": 4,
    "index.lookup": 4,
    "engine.kernel": 4,
}

#: Span name -> ledger row; the root's own time is the ``root`` row.
LEDGER_ROW = {
    "loadgen.late": "loadgen",
    "http.handler": "http",
    "http.send": "http",
    "http.encode": "http_encode",
    "service.submit": "service_submit",
    "service.queue": "service_queue",
    "service.batch": "service_dispatch",
    "planner.build_plan": "planner",
    "index.lookup": "index",
    "cache.get": "cache",
    "cache.put": "cache",
    "engine.execute_plans": "engine_finalize",
    "engine.kernel": "engine_kernel",
    "engine.walk_phase": "engine_kernel",
    "hkpr.push": "hkpr_push",
    "clustering.sweep": "clustering_sweep",
}
LEDGER_ROWS = ("root",) + tuple(dict.fromkeys(LEDGER_ROW.values()))


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    rid: int | None
    batch: int | None
    attrs: dict | None


class SpanLog:
    """Spans of one traced pass plus the wrappers that produce them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: request id -> instant its future resolved / its submit returned.
        self.resolved: dict[int, float] = {}
        self.submitted: dict[int, float] = {}
        #: request id -> id of the micro-batch that executed it.
        self.batch_of: dict[int, int] = {}
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._batch_ids = itertools.count(1)
        self._rid_of_trace: dict[int, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def request(self, rid):
        """Attribute spans recorded by this thread to request ``rid``."""
        previous = getattr(self._local, "rid", None)
        self._local.rid = rid
        try:
            yield
        finally:
            self._local.rid = previous

    def _add(self, span_id: int, parent, name: str, start: float, end: float, attrs: dict) -> None:
        local = self._local
        self.spans.append(Span(
            span_id, parent, name, start, end,
            getattr(local, "rid", None), getattr(local, "batch", None), attrs or None,
        ))

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time the block as span ``name``; the block may add to ``attrs``."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        stack.append(next(self._span_ids))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._add(stack.pop(), parent, name, start, end, attrs)

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """Add an interval measured elsewhere (a request's send lateness)."""
        stack = self._local.__dict__.get("stack")
        self._add(next(self._span_ids), stack[-1] if stack else None, name, start, end, attrs)

    # ------------------------------------------------------------------ #
    # Wrapper installation
    # ------------------------------------------------------------------ #
    def _replace(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = make(original)
        if not isinstance(original, type):
            wrapper = functools.wraps(original)(wrapper)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as span ``name``."""
        def make(original):
            def call(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)
            return call

        self._replace(owner, attr, make)

    def uninstall(self) -> None:
        """Restore every wrapped name (newest first)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install_library(self) -> None:
        """Spans inside ``local_cluster``: push, walk phase and sweep."""
        tea_plus = sys.modules["repro.hkpr.tea_plus"]
        local = sys.modules["repro.clustering.local"]
        self.wrap(tea_plus, "hk_push_plus", "hkpr.push")
        self.wrap(tea_plus, "run_residue_walk_phase", "engine.walk_phase")
        self.wrap(local, "sweep_cut", "clustering.sweep")

    def install_service(self) -> None:
        """Spans on the serving path.  Install before a ``QueryService`` is
        built: the batcher binds ``_execute_batch`` at construction."""
        import repro.engine.fused as fused
        import repro.engine.multi as multi
        import repro.index.combine as combine
        import repro.service.service as service
        from repro.dynamic.delta import DeltaGraph
        from repro.service.cache import ResultCache

        log = self

        def submit(original):
            def call(svc, *args, **kwargs):
                rid = getattr(log._local, "rid", None)
                with log.span("service.submit"):
                    future = original(svc, *args, **kwargs)
                if rid is not None:
                    log.submitted[rid] = time.perf_counter()
                return future
            return call

        # The service makes one QueryTrace per admitted (uncached) request,
        # inside submit and before the request is queued, and records it
        # just before resolving the request's future: the trace id links a
        # request to its batch, and the record call marks its resolution.
        def query_trace(original):
            def make(*args, **kwargs):
                trace = original(*args, **kwargs)
                rid = getattr(log._local, "rid", None)
                if rid is not None:
                    log._rid_of_trace[trace.trace_id] = rid
                return trace
            return make

        def record_trace(original):
            def call(recorder, record):
                rid = log._rid_of_trace.get(record.get("trace_id"))
                if rid is not None:
                    log.resolved[rid] = time.perf_counter()
                return original(recorder, record)
            return call

        def execute_batch(original):
            def call(svc, batch):
                batch_id = next(log._batch_ids)
                members, plan_rids = [], {}
                for pending in batch:
                    trace = pending.trace
                    rid = log._rid_of_trace.get(trace.trace_id) if trace is not None else None
                    members.append(rid)
                    plan_rids[id(pending.request)] = rid
                    if rid is not None:
                        log.batch_of[rid] = batch_id
                local = log._local
                local.batch, local.plan_rids = batch_id, plan_rids
                try:
                    with log.span("service.batch", members=members):
                        return original(svc, batch)
                finally:
                    local.batch, local.plan_rids = None, {}
            return call

        def build_plan(original):
            def call(entry, request, *args, **kwargs):
                rid = getattr(log._local, "plan_rids", {}).get(id(request))
                with log.request(rid), log.span("planner.build_plan"):
                    return original(entry, request, *args, **kwargs)
            return call

        def invalidate_group(original):
            def call(cache, group):
                with log.span("cache.invalidate") as attrs:
                    attrs["dropped"] = original(cache, group)
                return attrs["dropped"]
            return call

        self._replace(service.QueryService, "submit", submit)
        self._replace(service, "QueryTrace", query_trace)
        self._replace(service.TraceRecorder, "record", record_trace)
        self._replace(service.QueryService, "_execute_batch", execute_batch)
        self._replace(service, "build_plan", build_plan)
        self._replace(ResultCache, "invalidate_group", invalidate_group)
        self.wrap(combine, "plan_from_index", "index.lookup")
        self.wrap(service, "execute_plans", "engine.execute_plans")
        self.wrap(fused, "run_fused_queries", "engine.kernel")
        self.wrap(multi, "run_walk_tasks", "engine.kernel")
        self.wrap(service, "run_walk_tasks", "engine.kernel")
        self.wrap(ResultCache, "get", "cache.get")
        self.wrap(ResultCache, "put", "cache.put")
        self.wrap(service.QueryResponse, "to_dict", "http.encode")
        self.wrap(DeltaGraph, "apply", "dynamic.apply")
        self.wrap(DeltaGraph, "compacted", "dynamic.compact")

    def install_http(self) -> None:
        """Spans in the HTTP handler; requests carry ``X-Request-Id``."""
        from repro.service.http import ServiceRequestHandler

        log = self

        def do_post(original):
            def call(handler):
                raw = handler.headers.get("X-Request-Id")
                with log.request(int(raw) if raw else None), log.span("http.handler"):
                    return original(handler)
            return call

        self._replace(ServiceRequestHandler, "do_POST", do_post)
        self.wrap(ServiceRequestHandler, "_send_json", "http.send")

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def dump(self, path) -> None:
        """Write spans (JSONL) plus one trailing record of the request maps."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in list(self.spans):
                handle.write(json.dumps(list(span)) + "\n")
            handle.write(json.dumps({
                "resolved": self.resolved, "submitted": self.submitted,
                "batch_of": self.batch_of,
            }) + "\n")

    @classmethod
    def load(cls, path) -> "SpanLog":
        log = cls()
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        maps = json.loads(lines[-1])
        log.spans = [Span(*json.loads(line)) for line in lines[:-1]]
        for key in ("resolved", "submitted", "batch_of"):
            setattr(log, key, {int(rid): value for rid, value in maps[key].items()})
        return log

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def durations(self, name: str) -> list[float]:
        """Durations (seconds) of every span called ``name``."""
        return [span.end - span.start for span in self.spans if span.name == name]

    def attrs(self, name: str) -> list[dict]:
        return [span.attrs or {} for span in self.spans if span.name == name]

    def batch_starts(self) -> dict[int, float]:
        return {span.batch: span.start for span in self.spans if span.name == "service.batch"}

    def queue_waits(self) -> list[float]:
        """Per batched request: its batch's start minus its submit's end."""
        starts = self.batch_starts()
        return [
            starts[batch] - self.submitted[rid]
            for rid, batch in self.batch_of.items()
            if rid in self.submitted and batch in starts
        ]

    def ledgers(self, roots: dict[int, tuple[float, float]]) -> dict[int, dict[str, float]]:
        """Per-request self time by ledger row, for ``{rid: (start, end)}``."""
        by_rid, by_batch = defaultdict(list), defaultdict(list)
        for span in self.spans:
            if span.name not in PRIORITY:
                continue
            if span.batch is not None:
                by_batch[span.batch].append((span.name, span.start, span.end))
            elif span.rid is not None:
                by_rid[span.rid].append((span.name, span.start, span.end))
        batch_start = self.batch_starts()
        out = {}
        for rid, (root_start, root_end) in roots.items():
            intervals = list(by_rid.get(rid, ()))
            batch = self.batch_of.get(rid)
            if batch is not None:
                cut = self.resolved.get(rid, root_end)
                intervals += [
                    (name, start, min(end, cut))
                    for name, start, end in by_batch.get(batch, ())
                    if start < cut
                ]
                if rid in self.submitted and batch in batch_start:
                    intervals.append(
                        ("service.queue", self.submitted[rid], batch_start[batch])
                    )
            out[rid] = self_times(root_start, root_end, intervals)
        return out


def self_times(root_start: float, root_end: float, intervals) -> dict[str, float]:
    """Charge each instant of ``[root_start, root_end]`` to the innermost
    active interval's ledger row (``root`` where none is active)."""
    clipped = []
    for order, (name, start, end) in enumerate(intervals):
        start, end = max(start, root_start), min(end, root_end)
        if end > start:
            clipped.append((PRIORITY[name], start, order, end, LEDGER_ROW[name]))
    points = sorted({root_start, root_end, *(c[1] for c in clipped), *(c[3] for c in clipped)})
    charged: dict[str, float] = defaultdict(float)
    for left, right in zip(points, points[1:]):
        active = [c for c in clipped if c[1] <= left and c[3] >= right]
        row = max(active)[4] if active else "root"
        charged[row] += right - left
    return dict(charged)


def median_band_ledger(
    ledgers: dict[int, dict[str, float]], latency: dict[int, float]
) -> dict[str, float]:
    """Mean self time per ledger row over the requests whose end-to-end
    time lies in the 45th-55th percentile band: the ledger of a typical
    (p50) request.  Its rows sum to about the e2e median."""
    ranked = sorted((latency[rid], rid) for rid in ledgers if rid in latency)
    if not ranked:
        return {row: 0.0 for row in LEDGER_ROWS}
    low = int(0.45 * len(ranked))
    high = max(low + 1, int(0.55 * len(ranked)))
    band = [rid for _, rid in ranked[low:high]]
    return {
        row: sum(ledgers[rid].get(row, 0.0) for rid in band) / len(band)
        for row in LEDGER_ROWS
    }


def ledger_metrics(log: SpanLog, roots: dict[int, tuple[float, float]]) -> dict[str, float]:
    """``ledger.<row>_ms`` for a typical request of the traced window, plus
    ``trace.ledger_gap_share``: how far the rows' sum lies from the traced
    window's e2e median."""
    latency = {rid: end - start for rid, (start, end) in roots.items()}
    band = median_band_ledger(log.ledgers(roots), latency)
    p50 = pct(list(latency.values()), 50)
    metrics = {f"ledger.{row}_ms": seconds * 1000.0 for row, seconds in band.items()}
    metrics["trace.ledger_gap_share"] = abs(sum(band.values()) - p50) / p50 if p50 else 0.0
    return metrics
