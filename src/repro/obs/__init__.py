"""Observability: labeled metrics, per-query span tracing, kernel profiling.

The package has three parts, threaded through every serving layer:

* :mod:`repro.obs.metrics` — a thread-safe registry of labeled counters,
  gauges and log-bucketed histograms with a Prometheus text-exposition
  renderer (``GET /metrics``);
* :mod:`repro.obs.trace` — per-query trace contexts whose spans decompose
  a query's latency into queue/plan/kernel/finalize phases, a bounded ring
  of recent traces (``GET /trace/recent``) and a slow-query JSONL log;
* :func:`profile_kernel` — the hook every engine backend wraps its kernel
  calls in, recording wall time and walk counts per backend/kind into the
  active registry and the query's own counters.

The whole layer is a measurement aid, never load-bearing: setting
``REPRO_DISABLE_OBS=1`` (or :func:`set_obs_enabled`\\ ``(False)``) turns
tracing and kernel profiling into no-ops, which is how the service
benchmark measures the overhead it gates at <5%.
"""

from __future__ import annotations

import os
import time
import weakref
from contextlib import contextmanager

from repro.obs.metrics import (
    CONTENT_TYPE,
    DEFAULT_BUCKETS,
    MetricFamily,
    MetricsRegistry,
    Sample,
    active_registry,
    global_registry,
    use_registry,
)
from repro.obs.trace import (
    DEFAULT_RING_CAPACITY,
    QueryTrace,
    Span,
    TraceRecorder,
    load_jsonl,
    summarize,
)

__all__ = [
    "CONTENT_TYPE",
    "DEFAULT_BUCKETS",
    "DEFAULT_RING_CAPACITY",
    "DISABLE_ENV_VAR",
    "MetricFamily",
    "MetricsRegistry",
    "QueryTrace",
    "Sample",
    "Span",
    "TraceRecorder",
    "active_registry",
    "enabled",
    "global_registry",
    "load_jsonl",
    "obs_disabled",
    "profile_kernel",
    "record_kernel",
    "set_obs_enabled",
    "summarize",
    "use_registry",
]

#: Setting this env var to anything but ``0``/``false``/empty disables
#: tracing and kernel profiling (the bench measures overhead against it).
DISABLE_ENV_VAR = "REPRO_DISABLE_OBS"

_obs_override: bool | None = None


def enabled() -> bool:
    """Whether tracing and kernel profiling are active.

    The programmatic override (:func:`set_obs_enabled`) wins over the
    ``REPRO_DISABLE_OBS`` environment variable.  Read per call — cheap, and
    it lets benchmarks flip the switch mid-process.
    """
    if _obs_override is not None:
        return _obs_override
    flag = os.environ.get(DISABLE_ENV_VAR, "").strip().lower()
    return flag in ("", "0", "false", "no")


def set_obs_enabled(value: bool | None) -> None:
    """Force observability on/off (``None`` restores env-var control)."""
    global _obs_override
    _obs_override = value


@contextmanager
def obs_disabled():
    """Scope with observability off (restores the previous override)."""
    previous = _obs_override
    set_obs_enabled(False)
    try:
        yield
    finally:
        set_obs_enabled(previous)


#: Per-registry cache of the labeled kernel-metric children, so the
#: per-kernel-call hot path skips the family and label lookups (name
#: validation, lock, tuple build) after the first call per (backend, kind).
_kernel_children: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def record_kernel(backend: str, kind: str, walks: int, elapsed: float) -> None:
    """Record one kernel call's wall time and walk count on the active
    registry (``kernel_seconds{backend,kind}`` / ``kernel_walks_total``).

    :func:`profile_kernel` is the usual entry point; a caller that times
    the call itself uses this directly.
    """
    registry = active_registry()
    per_registry = _kernel_children.get(registry)
    if per_registry is None:
        per_registry = _kernel_children.setdefault(registry, {})
    children = per_registry.get((backend, kind))
    if children is None:
        histogram = registry.histogram(
            "kernel_seconds",
            "Wall time of one engine kernel call.",
            ("backend", "kind"),
        ).labels(backend=backend, kind=kind)
        counter = registry.counter(
            "kernel_walks_total",
            "Random walks executed by engine kernels.",
            ("backend", "kind"),
        ).labels(backend=backend, kind=kind)
        children = per_registry[(backend, kind)] = (histogram, counter)
    children[0].observe(elapsed)
    if walks:
        children[1].inc(float(walks))


@contextmanager
def profile_kernel(backend: str, kind: str, walks: int, counters=None):
    """Time one engine kernel call and record it everywhere it matters.

    Wraps the body of a backend's ``walk_batch`` / ``poisson_walk_batch`` /
    ``geometric_walk_batch``:

    * ``kernel_seconds{backend,kind}`` histogram and
      ``kernel_walks_total{backend,kind}`` counter on the active registry;
    * ``counters.extras["kernel_seconds"]`` on the query's own operation
      counters, so the response envelope carries the kernel wall time.

    A no-op (zero overhead beyond one ``enabled()`` check) when
    observability is disabled.
    """
    if not enabled():
        yield
        return
    started = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - started
        record_kernel(backend, kind, walks, elapsed)
        if counters is not None:
            extras = counters.extras
            extras["kernel_seconds"] = (
                float(extras.get("kernel_seconds", 0.0)) + elapsed
            )
