"""Labeled metrics: counters, gauges, log-bucketed histograms, Prometheus text.

The serving tier needs per-method / per-graph / per-backend breakdowns that
a handful of scalar tallies cannot express.  This module is the substrate:

* :class:`MetricsRegistry` — a thread-safe collection of metric *families*.
  A family is a named instrument plus its declared label names; each
  distinct label-value combination materializes a child on first use
  (``family.labels(method="tea+", graph="dblp").inc()``).  Families are
  get-or-create: asking for an existing name returns the existing family
  (and raises if the type, help text or label names disagree), so any layer
  can reference a series without coordinating construction order.
* :class:`Counter` — monotone ``inc``.  Family names must end in ``_total``
  (the Prometheus convention the exposition tests enforce).
* :class:`Gauge` — ``set``/``inc``/``dec``; a point-in-time value.
* :class:`Histogram` — cumulative log-bucketed observation counts plus
  ``_sum`` and ``_count``.  The default buckets are a 1–2.5–5 log ladder
  from 0.5 ms to 60 s, sized for query and kernel latencies.
* :meth:`MetricsRegistry.render` — the Prometheus text exposition format
  (version 0.0.4): ``# HELP`` / ``# TYPE`` headers, label escaping,
  ``_bucket``/``_sum``/``_count`` expansion, ``le="+Inf"`` terminal bucket.

Registries also accept *collectors* — callables returning
:class:`MetricFamily` rows built on the fly at scrape time — for values that
already live elsewhere (cache stats, queue depth, graph sizes) and would be
silly to double-count on the hot path.

A process-wide default registry (:func:`global_registry`) serves library
use; the service installs its own per-instance registry for the duration of
each dispatch via :func:`use_registry`, so two services in one process do
not mix series.  :func:`active_registry` resolves the innermost installed
registry and is what the engine profiling hooks record into.
"""

from __future__ import annotations

import contextvars
import math
import re
import threading
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import ParameterError

#: Default histogram buckets: a 1–2.5–5 log ladder over query/kernel time
#: scales (seconds).  ``+Inf`` is implicit.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


@dataclass
class Sample:
    """One exposition line: ``name{labels} value``."""

    name: str
    labels: dict[str, str]
    value: float


@dataclass
class MetricFamily:
    """A named metric with its type, help text and current samples."""

    name: str
    type: str  # "counter" | "gauge" | "histogram"
    help: str
    samples: list[Sample] = field(default_factory=list)


class Counter:
    """A monotonically increasing child (one label-value combination)."""

    __slots__ = ("_family", "_value")

    def __init__(self, family: "_Family") -> None:
        self._family = family
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ParameterError(
                f"counters only go up; inc({amount}) is not allowed"
            )
        with self._family._lock:
            self._value += amount

    def value(self) -> float:
        with self._family._lock:
            return self._value


class Gauge:
    """A point-in-time child value (can go up and down)."""

    __slots__ = ("_family", "_value")

    def __init__(self, family: "_Family") -> None:
        self._family = family
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._family._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._family._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def value(self) -> float:
        with self._family._lock:
            return self._value


class Histogram:
    """A cumulative-bucket child: observation counts, sum, and count."""

    __slots__ = ("_family", "_bucket_counts", "_sum", "_count")

    def __init__(self, family: "_Family") -> None:
        self._family = family
        self._bucket_counts = [0] * len(family.buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._family._lock:
            self._sum += value
            self._count += 1
            # Cumulative buckets: one increment in the first bucket whose
            # upper bound admits the value; render() re-accumulates.
            buckets = self._family.buckets
            lo, hi = 0, len(buckets)
            while lo < hi:
                mid = (lo + hi) // 2
                if value <= buckets[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            if lo < len(buckets):
                self._bucket_counts[lo] += 1

    def snapshot(self) -> tuple[list[int], float, int]:
        """(cumulative bucket counts incl. +Inf, sum, count)."""
        with self._family._lock:
            cumulative: list[int] = []
            running = 0
            for count in self._bucket_counts:
                running += count
                cumulative.append(running)
            cumulative.append(self._count)  # +Inf bucket
            return cumulative, self._sum, self._count

    def sum(self) -> float:
        with self._family._lock:
            return self._sum

    def count(self) -> int:
        with self._family._lock:
            return self._count


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric family holding its labeled children."""

    def __init__(
        self,
        name: str,
        type: str,
        help: str,
        labelnames: Sequence[str],
        *,
        buckets: Sequence[float] | None = None,
    ) -> None:
        if not _METRIC_NAME_RE.match(name):
            raise ParameterError(f"invalid metric name {name!r}")
        if type == "counter" and not name.endswith("_total"):
            raise ParameterError(
                f"counter names must end with '_total', got {name!r}"
            )
        if type == "histogram" and (
            name.endswith("_total")
            or name.endswith("_bucket")
            or name.endswith("_sum")
            or name.endswith("_count")
        ):
            raise ParameterError(
                f"histogram names must not carry a sample suffix, got {name!r}"
            )
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label) or label.startswith("__"):
                raise ParameterError(f"invalid label name {label!r}")
        if label_dupes := {l for l in labelnames if labelnames.count(l) > 1}:
            raise ParameterError(f"duplicate label names {sorted(label_dupes)}")
        self.name = name
        self.type = type
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets: tuple[float, ...] = ()
        if type == "histogram":
            bounds = tuple(float(b) for b in (buckets or DEFAULT_BUCKETS))
            if not bounds or any(
                b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
            ):
                raise ParameterError(
                    f"histogram buckets must be strictly increasing: {bounds}"
                )
            self.buckets = bounds
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **labelvalues: str) -> Counter | Gauge | Histogram:
        """The child for this label-value combination (created on first use)."""
        if set(labelvalues) != set(self.labelnames):
            raise ParameterError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _CHILD_TYPES[self.type](self)
            return child

    def child(self) -> Counter | Gauge | Histogram:
        """The single unlabeled child (families declared with no labels)."""
        if self.labelnames:
            raise ParameterError(
                f"metric {self.name!r} is labeled {self.labelnames}; "
                f"use .labels(...)"
            )
        return self.labels()

    def sum_matching(self, **labelvalues: str) -> float:
        """Sum of child values whose labels match the given subset.

        For histograms the observation *count* is summed (the natural
        "how many" reading).  ``QueryService.stats`` reads its request
        totals off ``queries_total`` this way.
        """
        unknown = set(labelvalues) - set(self.labelnames)
        if unknown:
            raise ParameterError(
                f"metric {self.name!r} has no label(s) {sorted(unknown)}"
            )
        positions = {
            name: self.labelnames.index(name) for name in labelvalues
        }
        with self._lock:
            children = list(self._children.items())
        total = 0.0
        for key, child in children:
            if any(key[pos] != str(labelvalues[name]) for name, pos in positions.items()):
                continue
            if self.type == "histogram":
                total += child.count()
            else:
                total += child.value()
        return total

    def collect(self) -> MetricFamily:
        """Current samples for exposition."""
        with self._lock:
            children = list(self._children.items())
        family = MetricFamily(self.name, self.type, self.help)
        for key, child in children:
            labels = dict(zip(self.labelnames, key))
            if self.type == "histogram":
                cumulative, total, count = child.snapshot()
                bounds = [*self.buckets, math.inf]
                for bound, bucket_count in zip(bounds, cumulative):
                    family.samples.append(
                        Sample(
                            self.name + "_bucket",
                            {**labels, "le": format_value(bound)},
                            float(bucket_count),
                        )
                    )
                family.samples.append(
                    Sample(self.name + "_sum", dict(labels), total)
                )
                family.samples.append(
                    Sample(self.name + "_count", dict(labels), float(count))
                )
            else:
                family.samples.append(Sample(self.name, labels, child.value()))
        return family


class MetricsRegistry:
    """A thread-safe collection of metric families plus scrape collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._collectors: list[Callable[[], Iterable[MetricFamily]]] = []

    # -- family construction (get-or-create) ---------------------------
    def _family(
        self,
        name: str,
        type: str,
        help: str,
        labelnames: Sequence[str],
        *,
        buckets: Sequence[float] | None = None,
    ) -> _Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.type != type or existing.labelnames != tuple(labelnames):
                    raise ParameterError(
                        f"metric {name!r} already registered as a "
                        f"{existing.type} with labels {existing.labelnames}"
                    )
                return existing
            family = _Family(name, type, help, labelnames, buckets=buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> _Family:
        """Get or create a counter family (name must end in ``_total``)."""
        return self._family(name, "counter", help, labelnames)

    def gauge(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> _Family:
        """Get or create a gauge family."""
        return self._family(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        *,
        buckets: Sequence[float] | None = None,
    ) -> _Family:
        """Get or create a histogram family (log-ladder buckets by default)."""
        return self._family(name, "histogram", help, labelnames, buckets=buckets)

    def register_collector(
        self, collector: Callable[[], Iterable[MetricFamily]]
    ) -> None:
        """Add a scrape-time collector (families computed on the fly)."""
        with self._lock:
            self._collectors.append(collector)

    # -- exposition ----------------------------------------------------
    def collect(self) -> list[MetricFamily]:
        """All families: registered instruments first, then collectors."""
        with self._lock:
            families = [f.collect() for f in self._families.values()]
            collectors = list(self._collectors)
        for collector in collectors:
            families.extend(collector())
        return families

    def render(self) -> str:
        """The Prometheus text exposition (format version 0.0.4)."""
        lines: list[str] = []
        for family in self.collect():
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.type}")
            for sample in family.samples:
                if sample.labels:
                    rendered = ",".join(
                        f'{key}="{_escape_label_value(str(value))}"'
                        for key, value in sample.labels.items()
                    )
                    lines.append(
                        f"{sample.name}{{{rendered}}} {format_value(sample.value)}"
                    )
                else:
                    lines.append(f"{sample.name} {format_value(sample.value)}")
        if not lines:
            return ""
        return "\n".join(lines) + "\n"


#: MIME type ``GET /metrics`` responses carry.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_GLOBAL_REGISTRY = MetricsRegistry()
_active: contextvars.ContextVar[MetricsRegistry | None] = contextvars.ContextVar(
    "repro_obs_active_registry", default=None
)


def global_registry() -> MetricsRegistry:
    """The process-wide default registry (library use, no service)."""
    return _GLOBAL_REGISTRY


def active_registry() -> MetricsRegistry:
    """The innermost registry installed via :func:`use_registry`, else the
    process-wide default.  Engine profiling hooks record here."""
    return _active.get() or _GLOBAL_REGISTRY


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Route :func:`active_registry` to ``registry`` within the block.

    The service wraps each dispatch cycle (and each submission) in this, so
    kernel metrics recorded deep inside the engine land in the service's
    own registry rather than the process-wide one.
    """
    token = _active.set(registry)
    try:
        yield registry
    finally:
        _active.reset(token)
