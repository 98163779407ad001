"""In-memory walk-sketch index: lookup table over a ``.rwix`` container.

:class:`WalkIndex` wraps the flat ``.rwix`` arrays with an O(1) lookup from
``(walk law, node, bucket)`` to a stored endpoint sketch, plus the serving
counters (hits, misses, walks served) that ``GET /stats`` reports.  It is
the object a :class:`~repro.service.registry.GraphRegistry` attaches to a
graph entry and the planner consults per query.
"""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np

from repro.exceptions import WalkIndexError
from repro.graph.graph import Graph
from repro.index import format as rwix

#: Walk-law names accepted by :meth:`WalkIndex.lookup`.
KNOWN_KINDS = frozenset(rwix.KIND_CODES)


class WalkIndex:
    """Precomputed random-walk endpoint sketches for one specific graph.

    The index is immutable once constructed; only the serving counters
    mutate, behind a lock, so a single instance is safe to share across the
    service's handler threads.
    """

    def __init__(
        self,
        *,
        nodes: np.ndarray,
        kinds: np.ndarray,
        buckets: np.ndarray,
        ptr: np.ndarray,
        endpoints: np.ndarray,
        graph_n: int,
        graph_m: int,
        fingerprint: int,
        backing: dict | None = None,
    ) -> None:
        self._nodes = nodes
        self._kinds = kinds
        self._buckets = buckets
        self._ptr = ptr
        self._endpoints = endpoints
        self.graph_n = int(graph_n)
        self.graph_m = int(graph_m)
        self.fingerprint = int(fingerprint)
        self.backing = backing or {"kind": "memory"}
        # (kind code, node, bucket) -> (start, stop) into the endpoint array,
        # built from whole columns: a memmap's per-element reads are slow.
        self._table: dict[tuple[int, int, float], tuple[int, int]] = {
            (kind, node, bucket): (start, stop)
            for kind, node, bucket, start, stop in zip(
                kinds.tolist(), nodes.tolist(), buckets.tolist(),
                ptr[:-1].tolist(), ptr[1:].tolist(),
            )
        }
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._walks_served = 0
        #: Graph name used as the ``{graph=...}`` label on the index metric
        #: series; set by :meth:`GraphRegistry.attach_index`.  ``None``
        #: (standalone/library use) skips metrics recording.
        self.metrics_label: str | None = None
        #: Set once the registered graph mutates past this index's epoch
        #: (:meth:`mark_stale`).  A stale index refuses lookups — the stored
        #: sketches sample the *old* graph's walk distributions.
        self.stale = False

    # -- construction -------------------------------------------------

    @classmethod
    def from_file(cls, path: str | Path, *, mmap: bool = True) -> "WalkIndex":
        """Load a ``.rwix`` container (memory-mapped by default)."""
        data = rwix.read_index_file(path, mmap=mmap)
        return cls(
            nodes=data["nodes"],
            kinds=data["kinds"],
            buckets=data["buckets"],
            ptr=data["ptr"],
            endpoints=data["endpoints"],
            graph_n=data["graph_n"],
            graph_m=data["graph_m"],
            fingerprint=data["fingerprint"],
            backing=data["backing"],
        )

    def to_file(self, path: str | Path) -> Path:
        """Serialize this index to ``path`` in the ``.rwix`` format."""
        return rwix.write_index_file(
            path,
            graph_n=self.graph_n,
            graph_m=self.graph_m,
            fingerprint=self.fingerprint,
            nodes=self._nodes,
            kinds=self._kinds,
            buckets=self._buckets,
            ptr=self._ptr,
            endpoints=self._endpoints,
        )

    # -- epoch / staleness contract -----------------------------------

    def verify_graph(self, graph: Graph) -> None:
        """Refuse to serve a graph the index was not built for.

        Stored sketches are samples from *this graph's* walk distributions;
        serving them against any other graph silently answers the wrong
        question, so shape or fingerprint drift is a hard error.
        """
        if (graph.num_nodes, graph.num_edges) != (self.graph_n, self.graph_m):
            raise WalkIndexError(
                "stale walk index: built for a graph with "
                f"n={self.graph_n}, m={self.graph_m} but the attached graph "
                f"has n={graph.num_nodes}, m={graph.num_edges}"
            )
        fingerprint = rwix.graph_fingerprint(graph)
        if fingerprint != self.fingerprint:
            raise WalkIndexError(
                "stale walk index: graph content fingerprint "
                f"{fingerprint:#018x} does not match the index's "
                f"{self.fingerprint:#018x} (the graph changed since "
                "`index build` — rebuild the index)"
            )

    def mark_stale(self) -> None:
        """Flag this index as stale and record ``index_stale_total``.

        Called by the registry when the graph it was attached to mutates
        (the fingerprint can no longer match).  Marking is one-way; the
        only way back is rebuilding the index against the new graph.
        """
        self.stale = True
        if self.metrics_label is None:
            return
        from repro.obs import active_registry

        active_registry().counter(
            "index_stale_total",
            "Walk-sketch indexes detached because their graph mutated.",
            ("graph",),
        ).labels(graph=self.metrics_label).inc()

    # -- serving -------------------------------------------------------

    def lookup(
        self, kind: str, node: int, bucket: float, *, max_walks: int | None = None
    ) -> np.ndarray | None:
        """Stored endpoints for ``(kind, node, bucket)``, or ``None``.

        Records a hit or miss; on a hit, at most ``max_walks`` endpoints are
        returned (a prefix — stored sketches are i.i.d. draws, so any
        subset is a valid sample) and the count served is accumulated into
        ``walks_served``.  The endpoints come back as stored
        (:data:`~repro.index.format.NODE_DTYPE`).  A served slice holding an
        id outside ``[0, graph_n)`` raises :class:`WalkIndexError` instead
        of reaching an answer; only the slice served is checked, so a
        memory-mapped index stays lazy.
        """
        if kind not in rwix.KIND_CODES:
            raise WalkIndexError(f"unknown walk-law kind {kind!r}")
        if self.stale:
            raise WalkIndexError(
                "stale walk index: the graph it was built for has mutated "
                "(rebuild the index against the current epoch)"
            )
        span = self._table.get((rwix.KIND_CODES[kind], int(node), float(bucket)))
        if span is None:
            with self._lock:
                self._misses += 1
            self._record_metrics(hit=False, served=0)
            return None
        start, stop = span
        if max_walks is not None:
            stop = min(stop, start + max(0, int(max_walks)))
        endpoints = np.asarray(self._endpoints[start:stop])
        if endpoints.size and (
            endpoints.min() < 0 or endpoints.max() >= self.graph_n
        ):
            raise WalkIndexError(
                f"{self.backing.get('path', 'walk index')}: corrupt .rwix "
                f"payload (a {kind} sketch of node {node} stores an endpoint "
                f"outside 0..{self.graph_n - 1})"
            )
        served = endpoints.size
        with self._lock:
            self._hits += 1
            self._walks_served += served
        self._record_metrics(hit=True, served=served)
        return endpoints

    def _record_metrics(self, *, hit: bool, served: int) -> None:
        """Mirror a lookup onto the active metrics registry (labeled by the
        graph name the registry attached this index under)."""
        if self.metrics_label is None:
            return
        from repro.obs import active_registry

        registry = active_registry()
        name = "index_hits_total" if hit else "index_misses_total"
        registry.counter(
            name,
            "Walk-sketch index lookups that "
            + ("found" if hit else "missed")
            + " a stored sketch.",
            ("graph",),
        ).labels(graph=self.metrics_label).inc()
        if served:
            registry.counter(
                "index_walks_served_total",
                "Walks served from stored sketches instead of online sampling.",
                ("graph",),
            ).labels(graph=self.metrics_label).inc(float(served))

    # -- introspection -------------------------------------------------

    @property
    def num_sketches(self) -> int:
        return self._nodes.shape[0]

    @property
    def total_endpoints(self) -> int:
        return int(self._endpoints.shape[0])

    def indexed_nodes(self) -> list[int]:
        """Distinct node ids with at least one sketch (sorted)."""
        return np.unique(self._nodes).tolist()

    def describe(self) -> dict:
        """Static metadata (for ``repro-cli index info`` and ``/stats``)."""
        buckets: dict[str, list[float]] = {}
        for code, name in rwix.KIND_NAMES.items():
            values = np.unique(self._buckets[self._kinds == code])
            if values.size:
                buckets[name] = [float(v) for v in values]
        return {
            "sketches": self.num_sketches,
            "nodes": len(self.indexed_nodes()),
            "endpoints": self.total_endpoints,
            "buckets": buckets,
            "graph_n": self.graph_n,
            "graph_m": self.graph_m,
            "fingerprint": f"{self.fingerprint:#018x}",
            "storage": self.backing.get("kind", "memory"),
            "stale": self.stale,
        }

    def stats(self) -> dict:
        """Serving counters plus the static description."""
        with self._lock:
            hits, misses, walks = self._hits, self._misses, self._walks_served
        total = hits + misses
        return {
            **self.describe(),
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
            "walks_from_index": walks,
        }
