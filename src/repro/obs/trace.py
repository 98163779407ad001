"""Per-query span tracing: where did this query spend its time?

A :class:`QueryTrace` travels next to the query's ``Deadline`` from
submission to response.  Each serving phase opens a :class:`Span` — queue
wait, plan build, kernel execution, finalize, index lookup — with a start
offset, duration and free-form attributes, so a slow query's latency
decomposes into its phases instead of being one opaque number.

Finished traces land in a :class:`TraceRecorder`:

* a bounded in-memory ring of recent traces (``GET /trace/recent?n=``);
* a slow-query log — traces whose total latency exceeds a threshold are
  written as JSONL to stderr or a file, one self-contained record per
  line, so "what was slow last night?" is a ``grep``/``jq`` away.  The
  :func:`summarize` aggregator (backing ``repro-cli trace summarize``)
  turns such a log back into per-phase totals.

Times inside a trace are ``perf_counter`` based (monotonic, high
resolution); the single wall-clock ``ts`` stamped at trace creation
anchors the record in real time for log correlation.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Iterable

_trace_ids = itertools.count(1)

#: Default capacity of the in-memory recent-trace ring.
DEFAULT_RING_CAPACITY = 256


@dataclass(slots=True)
class Span:
    """One timed phase of a query (offsets are relative to the trace start)."""

    name: str
    start_ms: float
    duration_ms: float
    attributes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        record = {
            "name": self.name,
            "start_ms": round(self.start_ms, 3),
            "duration_ms": round(self.duration_ms, 3),
        }
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        return record


class QueryTrace:
    """The trace context of one in-flight query.

    This sits on the per-query hot path of the dispatch thread, so spans
    are kept as raw ``(name, started, ended, attrs)`` tuples until the
    trace is finished — no per-span object construction, no offset math,
    no lock (list appends are atomic under the GIL, and ownership is a
    clean handoff: the submitting thread, then the dispatch thread).
    """

    __slots__ = (
        "trace_id", "graph", "method", "seed_node", "ts", "_origin", "_spans",
    )

    def __init__(self, *, graph: str, method: str, seed_node: int) -> None:
        self.trace_id = next(_trace_ids)
        self.graph = graph
        self.method = method
        self.seed_node = seed_node
        self.ts = time.time()
        self._origin = time.perf_counter()
        self._spans: list[tuple[str, float, float, dict | None]] = []

    @property
    def origin(self) -> float:
        """The ``perf_counter`` instant offsets are measured from."""
        return self._origin

    def add_span(self, name: str, started: float, ended: float, **attributes):
        """Record one completed phase (``started``/``ended`` are perf_counter)."""
        self._spans.append((name, started, ended, attributes or None))

    def span(self, name: str, **attributes):
        """Context manager timing a phase; attrs may be added on the result."""
        return _SpanScope(self, name, attributes)

    def spans(self) -> list[Span]:
        origin = self._origin
        return [
            Span(
                name=name,
                start_ms=(started - origin) * 1000.0,
                duration_ms=max(ended - started, 0.0) * 1000.0,
                attributes=attrs or {},
            )
            for name, started, ended, attrs in list(self._spans)
        ]

    def finish(self, outcome: str, latency_ms: float | None = None) -> dict:
        """Close the trace and return its JSON-able record.

        ``latency_ms`` defaults to the elapsed time since the trace was
        created; the service passes the response's own latency so the two
        numbers agree exactly.
        """
        origin = self._origin
        if latency_ms is None:
            latency_ms = (time.perf_counter() - origin) * 1000.0
        spans = []
        for name, started, ended, attrs in self._spans:
            span = {
                "name": name,
                "start_ms": round((started - origin) * 1000.0, 3),
                "duration_ms": round(max(ended - started, 0.0) * 1000.0, 3),
            }
            if attrs:
                span["attributes"] = attrs
            spans.append(span)
        return {
            "trace_id": self.trace_id,
            "ts": round(self.ts, 6),
            "graph": self.graph,
            "method": self.method,
            "seed_node": self.seed_node,
            "outcome": outcome,
            "latency_ms": round(latency_ms, 3),
            "spans": spans,
        }


class _SpanScope:
    """``with trace.span("plan") as span:`` — times the block."""

    __slots__ = ("_trace", "_name", "_attributes", "_started")

    def __init__(self, trace: QueryTrace, name: str, attributes: dict) -> None:
        self._trace = trace
        self._name = name
        self._attributes = attributes

    def set(self, **attributes) -> None:
        """Attach attributes from inside the block."""
        self._attributes.update(attributes)

    def __enter__(self) -> "_SpanScope":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._trace.add_span(
            self._name, self._started, time.perf_counter(), **self._attributes
        )


class TraceRecorder:
    """Bounded ring of finished traces plus the slow-query JSONL sink.

    ``slow_query_ms=None`` disables the slow-query log; with no
    ``slow_query_log`` path, slow records go to stderr.  The sink opens at
    construction; :meth:`close` closes it (a log file the recorder opened)
    and :meth:`open` opens it again.
    """

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_RING_CAPACITY,
        slow_query_ms: float | None = None,
        slow_query_log: str | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._ring: deque[dict] = deque(maxlen=max(int(capacity), 1))
        self.slow_query_ms = slow_query_ms
        self.slow_query_log = slow_query_log
        self._recorded = 0
        self._slow = 0
        self._sink: IO[str] | None = None
        self.open()

    def open(self) -> None:
        """Open the slow-query sink, if there is one and it is closed."""
        with self._lock:
            if self.slow_query_ms is None or self._sink is not None:
                return
            self._sink = (
                sys.stderr
                if self.slow_query_log is None
                else open(self.slow_query_log, "a", encoding="utf-8")
            )

    def record(self, record: dict) -> None:
        """Add a finished trace record; spill to the slow log if it qualifies."""
        slow = (
            self.slow_query_ms is not None
            and record.get("latency_ms", 0.0) >= self.slow_query_ms
        )
        line = json.dumps(record, separators=(",", ":")) if slow else None
        with self._lock:
            self._ring.append(record)
            self._recorded += 1
            if slow:
                self._slow += 1
                if self._sink is not None:
                    self._sink.write(line + "\n")
                    self._sink.flush()

    def recent(self, n: int | None = None) -> list[dict]:
        """The most recent finished traces, newest first."""
        with self._lock:
            records = list(self._ring)
        records.reverse()
        if n is not None:
            records = records[: max(int(n), 0)]
        return records

    def stats(self) -> dict:
        with self._lock:
            return {
                "recorded_total": self._recorded,
                "slow_total": self._slow,
                "ring_size": len(self._ring),
                "ring_capacity": self._ring.maxlen,
                "slow_query_ms": self.slow_query_ms,
                "slow_query_log": self.slow_query_log or (
                    "stderr" if self.slow_query_ms is not None else None
                ),
            }

    def close(self) -> None:
        """Close the slow-query sink; slow records are counted, not written,
        until :meth:`open`."""
        with self._lock:
            if self.slow_query_log is not None and self._sink is not None:
                self._sink.close()
            self._sink = None


def summarize(records: Iterable[dict]) -> dict:
    """Aggregate trace records into per-phase time (``trace summarize``).

    Returns overall counts plus, per span name: occurrence count, total and
    mean duration, and the share of summed query latency the phase covers.
    """
    traces = 0
    total_latency_ms = 0.0
    outcomes: dict[str, int] = {}
    methods: dict[str, int] = {}
    phases: dict[str, dict] = {}
    slowest: dict | None = None
    for record in records:
        traces += 1
        latency = float(record.get("latency_ms", 0.0))
        total_latency_ms += latency
        outcomes[record.get("outcome", "unknown")] = (
            outcomes.get(record.get("outcome", "unknown"), 0) + 1
        )
        method = record.get("method", "unknown")
        methods[method] = methods.get(method, 0) + 1
        if slowest is None or latency > slowest.get("latency_ms", 0.0):
            slowest = record
        for span in record.get("spans", ()):
            bucket = phases.setdefault(
                span.get("name", "unknown"),
                {"count": 0, "total_ms": 0.0, "max_ms": 0.0},
            )
            duration = float(span.get("duration_ms", 0.0))
            bucket["count"] += 1
            bucket["total_ms"] += duration
            bucket["max_ms"] = max(bucket["max_ms"], duration)
    for bucket in phases.values():
        bucket["mean_ms"] = round(
            bucket["total_ms"] / bucket["count"], 3
        ) if bucket["count"] else 0.0
        bucket["share_of_latency"] = round(
            bucket["total_ms"] / total_latency_ms, 4
        ) if total_latency_ms > 0 else 0.0
        bucket["total_ms"] = round(bucket["total_ms"], 3)
        bucket["max_ms"] = round(bucket["max_ms"], 3)
    return {
        "traces": traces,
        "total_latency_ms": round(total_latency_ms, 3),
        "mean_latency_ms": round(total_latency_ms / traces, 3) if traces else 0.0,
        "outcomes": outcomes,
        "methods": methods,
        "phases": dict(
            sorted(phases.items(), key=lambda kv: -kv[1]["total_ms"])
        ),
        "slowest": {
            "trace_id": slowest.get("trace_id"),
            "method": slowest.get("method"),
            "graph": slowest.get("graph"),
            "latency_ms": slowest.get("latency_ms"),
            "outcome": slowest.get("outcome"),
        } if slowest else None,
    }


def load_jsonl(path: str) -> list[dict]:
    """Read a slow-query JSONL file, skipping non-JSON lines (mixed stderr)."""
    records: list[dict] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or not line.startswith("{"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "spans" in record:
                records.append(record)
    return records
