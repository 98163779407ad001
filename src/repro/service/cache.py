"""LRU result cache for served queries.

Standing query workloads repeat: the same (graph, method, parameters, seed
node) tuple arrives again and again, and for a randomized estimator any
fresh run is just another sample of the same distribution — so serving a
cached sample is semantically equivalent to recomputing, at zero cost.  The
cache is therefore keyed on the *normalized* query (see
:func:`repro.service.planner.QueryRequest.cache_key`) and consulted before a
request is admitted to the batch queue.

An entry leaves the cache in one of two ways:

* **LRU** — at most ``max_entries`` results; inserting beyond capacity
  evicts the least-recently-*used* entry (hits refresh recency).
* **its graph changes** — :meth:`ResultCache.invalidate_group` drops every
  entry of one graph.  The service registers it as the registry's
  invalidation hook, which runs when a graph is mutated, removed or
  registered again.  The key carries the graph's registration and epoch,
  so an answer computed on an older graph is unreachable even before the
  hook has run.

Requests that pin an RNG seed bypass the cache entirely (both lookup and
insert): a pinned seed asks for *that specific stream's* result, which a
cache hit from a different stream would silently violate.  The bypass is
enforced by the planner, not here.

An optional ``group_of`` callable partitions the counters: every hit, miss
and eviction is also attributed to ``group_of(key)``, and ``stats()``
gains a ``per_group`` breakdown.  The service groups by graph name (the
first component of the cache key), which is what ``GET /stats`` reports as
per-graph cache counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.exceptions import ParameterError


class ResultCache:
    """Thread-safe LRU cache with per-group invalidation."""

    def __init__(
        self,
        max_entries: int = 1024,
        *,
        group_of: Callable[[Hashable], str] | None = None,
    ) -> None:
        if max_entries < 1:
            raise ParameterError(f"max_entries must be >= 1, got {max_entries}")
        self._max_entries = max_entries
        self._group_of = group_of
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._groups: dict[str, dict[str, int]] = {}

    def _group_counters(self, key: Hashable) -> dict[str, int] | None:
        """The per-group counter dict for ``key`` (caller holds the lock)."""
        if self._group_of is None:
            return None
        group = self._group_of(key)
        counters = self._groups.get(group)
        if counters is None:
            counters = self._groups[group] = {"hits": 0, "misses": 0, "evictions": 0}
        return counters

    def get(self, key: Hashable) -> Any | None:
        """The cached value for ``key``, or ``None`` on a miss."""
        with self._lock:
            group = self._group_counters(key)
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                if group is not None:
                    group["misses"] += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            if group is not None:
                group["hits"] += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``value`` under ``key``, evicting LRU entries beyond capacity."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self._max_entries:
                evicted_key, _ = self._entries.popitem(last=False)
                self._evictions += 1
                evicted_group = self._group_counters(evicted_key)
                if evicted_group is not None:
                    evicted_group["evictions"] += 1

    def invalidate_group(self, group: str) -> int:
        """Drop every entry whose ``group_of(key)`` equals ``group``.

        The per-graph eviction hook: unregistration, re-registration and
        epoch bumps all funnel through here (via the registry's
        invalidation hooks), so one code path answers "forget everything
        about this graph".  Keys that carry the registration and epoch
        already make stale entries unreachable; eager eviction stops them
        from squatting on LRU capacity.
        Counts the dropped entries; 0 when ``group_of`` was not configured.
        """
        if self._group_of is None:
            return 0
        with self._lock:
            doomed = [
                key for key in self._entries if self._group_of(key) == group
            ]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, Any]:
        """JSON-able counters, including the derived hit rate."""
        with self._lock:
            hits, misses = self._hits, self._misses
            stats: dict[str, Any] = {
                "entries": len(self._entries),
                "max_entries": self._max_entries,
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                "evictions": self._evictions,
            }
            if self._group_of is not None:
                stats["per_group"] = {
                    group: dict(counters)
                    for group, counters in sorted(self._groups.items())
                }
            return stats
