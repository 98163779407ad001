"""The graph registry: load each graph once, keep its hot state warm.

A cold CLI query pays graph construction (file parse or generator run, CSR
build) on every call.  The registry amortizes it across the lifetime of the
server: graphs are registered once — from the built-in benchmark
surrogates, an edge-list file, or a generator spec string — and their CSR
arrays stay resident.  (Poisson tables are graph-independent and live in
one bounded process-wide cache, :func:`repro.hkpr.poisson.cached_weights`.)

Generator specs are strings like ``"chung-lu,n=20000,gamma=2.5,seed=11"``
(also ``powerlaw-cluster``, ``grid3d``, ``erdos-renyi``) so a server can be
started on a synthetic graph from the command line without writing files.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.datasets import DATASETS, load_dataset
from repro.exceptions import ServiceError
from repro.graph import generators
from repro.graph.binfmt import read_graph_binary, sniff
from repro.graph.graph import Graph
from repro.graph.io import load_edge_list

#: Generator spec name -> (builder, per-parameter caster).  Every parameter
#: is optional except ``n`` (``grid3d`` takes a side length instead).
_GENERATOR_SPECS = {
    "chung-lu": "_build_chung_lu",
    "powerlaw-cluster": "_build_powerlaw_cluster",
    "grid3d": "_build_grid3d",
    "erdos-renyi": "_build_erdos_renyi",
}


def _build_chung_lu(params: dict[str, float]) -> Graph:
    n = int(params.pop("n", 10_000))
    gamma = float(params.pop("gamma", 2.5))
    min_degree = int(params.pop("min_degree", 2))
    max_degree = int(params.pop("max_degree", max(min_degree + 1, int(n**0.5))))
    seed = int(params.pop("seed", 0))
    degrees = generators.power_law_degree_sequence(
        n, gamma, min_degree, max_degree, seed=seed
    )
    return generators.chung_lu_graph(degrees, seed=seed, connected=False)


def _build_powerlaw_cluster(params: dict[str, float]) -> Graph:
    n = int(params.pop("n", 5_000))
    m = int(params.pop("m", 5))
    p = float(params.pop("p", 0.3))
    seed = int(params.pop("seed", 0))
    return generators.powerlaw_cluster_graph(n, m, p, seed=seed)


def _build_grid3d(params: dict[str, float]) -> Graph:
    side = int(params.pop("side", 12))
    return generators.grid_3d_graph(side, side, side, periodic=True)


def _build_erdos_renyi(params: dict[str, float]) -> Graph:
    n = int(params.pop("n", 5_000))
    p = float(params.pop("p", 2.0 / max(n - 1, 1)))
    seed = int(params.pop("seed", 0))
    return generators.erdos_renyi_graph(n, p, seed=seed, connected=True)


def build_from_spec(spec: str) -> Graph:
    """Build a graph from a ``"name,key=value,..."`` generator spec string."""
    parts = [piece.strip() for piece in spec.split(",") if piece.strip()]
    if not parts:
        raise ServiceError(f"empty generator spec {spec!r}")
    name, raw_params = parts[0], parts[1:]
    builder_name = _GENERATOR_SPECS.get(name)
    if builder_name is None:
        raise ServiceError(
            f"unknown generator {name!r}; expected one of {sorted(_GENERATOR_SPECS)}"
        )
    params: dict[str, float] = {}
    for raw in raw_params:
        if "=" not in raw:
            raise ServiceError(
                f"generator parameter {raw!r} is not key=value (spec {spec!r})"
            )
        key, value = raw.split("=", 1)
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise ServiceError(
                f"generator parameter {raw!r} has a non-numeric value"
            ) from None
    builder = globals()[builder_name]
    graph = builder(params)
    if params:
        raise ServiceError(
            f"unknown parameter(s) {sorted(params)} for generator {name!r}"
        )
    return graph


@dataclass
class GraphEntry:
    """One registered graph: its current snapshot and attached index.

    Mutable entries: :meth:`mutate` swaps ``graph`` for a new
    :class:`~repro.dynamic.delta.DeltaGraph` snapshot, which carries the
    new ``epoch``.  Reads are unsynchronized attribute loads: a query reads
    ``graph`` once at admission and is answered entirely on that snapshot,
    so it never observes a half-applied mutation.
    """

    name: str
    graph: Graph
    source: str
    #: Which :meth:`GraphRegistry.add_graph` call made this entry: unique
    #: within its registry, so a name registered again gets a new one.
    #: Recorded in cache keys beside ``epoch``, which starts again at 0.
    registration: int
    #: How the CSR arrays are held: ``in-memory`` (built by the caller),
    #: ``generated``, ``edge-list`` (parsed from text), ``binary`` (.rcsr
    #: read eagerly) or ``mmap`` (.rcsr memory-mapped — resident bytes are
    #: page-cache pages shared with other processes).
    storage: str = "in-memory"
    #: Wall-clock seconds spent building / loading the graph.
    load_seconds: float = 0.0
    #: Optional precomputed walk-sketch index (``.rwix``), attached via
    #: :meth:`GraphRegistry.attach_index` after it passes ``verify_graph``.
    index: object | None = None
    #: Delta-edge budget before a mutation folds the overlay back into
    #: plain CSR; ``None`` uses
    #: :func:`repro.dynamic.delta.default_compaction_threshold`.  The
    #: overlay also folds once its patch outgrows twice the base CSR
    #: (:meth:`~repro.dynamic.delta.DeltaGraph.should_compact`).
    compaction_threshold: int | None = None
    #: Cumulative count of indexes detached because a mutation staled them.
    stale_indexes: int = 0
    _mutation_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def epoch(self) -> int:
        """The current snapshot's mutation counter: 0 as registered, +1 per
        successful :meth:`mutate` batch.  Recorded in cache keys and
        ``/stats`` — the epoch contract every downstream consumer keys on."""
        return getattr(self.graph, "epoch", 0)

    def csr_graph(self) -> Graph:
        """``self.graph.compacted()``; read by the ledger's mutate-mix only."""
        return self.graph.compacted()

    def mutate(self, *, add=(), remove=()) -> tuple["MutationEvent", bool]:
        """Apply one edge-mutation batch; returns ``(event, compacted)``.

        Serialized per entry: builds the next
        :class:`~repro.dynamic.delta.DeltaGraph` snapshot (epoch + 1),
        folds the overlay into plain CSR once the cumulative delta exceeds
        the compaction threshold or its patch outgrows twice the base CSR
        (the new snapshot then wraps the rebuilt base with an empty delta),
        and detaches any attached walk-sketch index after marking it stale
        — its fingerprint can no longer match.  The index goes before the
        new snapshot is installed, so a reader that still sees an index
        sees the snapshot it was built for.
        """
        from repro.dynamic.delta import DeltaGraph

        with self._mutation_lock:
            graph = self.graph
            view = graph if isinstance(graph, DeltaGraph) else DeltaGraph(graph)
            new_view = view.apply(add=add, remove=remove)
            event = new_view.last_event
            compacted = new_view.should_compact(self.compaction_threshold)
            if compacted:
                new_view = DeltaGraph(new_view.compacted(), epoch=new_view.epoch)
            index = self.index
            if index is not None:
                self.index = None
                self.stale_indexes += 1
                mark = getattr(index, "mark_stale", None)
                if mark is not None:
                    mark()
            self.graph = new_view
        return event, compacted

    def describe(self) -> dict:
        """JSON-able summary for the ``/graphs`` endpoint."""
        summary = {
            "name": self.name,
            "source": self.source,
            "storage": self.storage,
            "load_seconds": round(self.load_seconds, 6),
            "csr_bytes": self.graph.csr_nbytes,
            "num_nodes": self.graph.num_nodes,
            "num_edges": self.graph.num_edges,
            "average_degree": round(self.graph.average_degree, 3)
            if self.graph.num_nodes
            else 0.0,
            "epoch": self.epoch,
            "delta_edges": int(getattr(self.graph, "delta_edges", 0)),
            "stale_indexes": self.stale_indexes,
        }
        if self.index is not None:
            summary["index_sketches"] = self.index.num_sketches
        return summary


class GraphRegistry:
    """Thread-safe name -> :class:`GraphEntry` mapping.

    Registration happens through ``add_*`` methods; lookups after startup
    are lock-protected dictionary reads.  Graphs mutate through
    :meth:`mutate` (epoch-versioned edge batches, serialized per entry),
    leave through :meth:`remove` and are replaced by registering the name
    again.  All three invalidate downstream per-graph state through one
    code path: every hook registered with :meth:`add_invalidation_hook` is
    called with the graph name (a running service wires its result cache's
    ``invalidate_group`` here).
    """

    def __init__(self) -> None:
        self._entries: dict[str, GraphEntry] = {}
        self._lock = threading.Lock()
        self._invalidation_hooks: list = []
        self._registrations = 0

    def add_invalidation_hook(self, hook) -> None:
        """Register ``hook(name)`` to run after a mutation, removal or
        replacement of the graph registered as ``name``.

        The registry holds ``hook``, and everything it references, until
        :meth:`remove_invalidation_hook` is given the same object.
        """
        with self._lock:
            self._invalidation_hooks.append(hook)

    def remove_invalidation_hook(self, hook) -> bool:
        """Unregister ``hook``; returns whether it was registered.

        Matched by identity, so pass the object :meth:`add_invalidation_hook`
        was given: each attribute read of a bound method makes a new one.  A
        mutation, removal or replacement already under way may still call
        it once.
        """
        with self._lock:
            for position, registered in enumerate(self._invalidation_hooks):
                if registered is hook:
                    del self._invalidation_hooks[position]
                    return True
        return False

    def _invalidate(self, name: str) -> None:
        # Call a snapshot: a hook removed meanwhile (a service stopping
        # during a mutation, or the hook itself) must not shift the list
        # under the loop and skip the hook after it.
        with self._lock:
            hooks = tuple(self._invalidation_hooks)
        for hook in hooks:
            hook(name)

    def mutate(self, name: str, *, add=(), remove=()) -> dict:
        """Apply one edge-mutation batch to the graph registered as ``name``.

        Returns a JSON-able summary (new epoch, counts, whether the overlay
        was compacted, whether an index was detached).  Invalidation hooks
        run after the new snapshot is installed, so a cache refilled by a
        racing query can only hold entries keyed to some epoch's snapshot —
        never a mix.
        """
        entry = self.get(name)
        had_index = entry.index is not None
        event, compacted = entry.mutate(add=add, remove=remove)
        self._invalidate(name)
        return {
            "graph": name,
            "epoch": event.epoch,
            "added": int(event.added.shape[0]),
            "removed": int(event.removed.shape[0]),
            "num_edges": entry.graph.num_edges,
            "compacted": compacted,
            "delta_edges": int(getattr(entry.graph, "delta_edges", 0)),
            "index_detached": had_index,
        }

    def remove(self, name: str) -> GraphEntry:
        """Unregister ``name`` and run the invalidation hooks; returns the entry."""
        with self._lock:
            entry = self._entries.pop(name, None)
        if entry is None:
            raise ServiceError(
                f"unknown graph {name!r}; registered: {self.names()}"
            )
        self._invalidate(name)
        return entry

    def add_graph(
        self,
        name: str,
        graph: Graph,
        *,
        source: str = "in-memory",
        storage: str = "in-memory",
        load_seconds: float = 0.0,
    ) -> GraphEntry:
        """Register an already-built graph under ``name``.

        A graph already registered as ``name`` is replaced, and the
        invalidation hooks run once the new entry is installed.
        """
        with self._lock:
            self._registrations += 1
            entry = GraphEntry(
                name=name,
                graph=graph,
                source=source,
                registration=self._registrations,
                storage=storage,
                load_seconds=load_seconds,
            )
            replaced = name in self._entries
            self._entries[name] = entry
        if replaced:
            self._invalidate(name)
        return entry

    def add_dataset(self, dataset: str, *, name: str | None = None) -> GraphEntry:
        """Register one of the built-in benchmark surrogates."""
        if dataset not in DATASETS:
            raise ServiceError(
                f"unknown dataset {dataset!r}; expected one of {sorted(DATASETS)}"
            )
        started = time.perf_counter()
        graph = load_dataset(dataset)
        return self.add_graph(
            name or dataset,
            graph,
            source=f"dataset:{dataset}",
            storage="generated",
            load_seconds=time.perf_counter() - started,
        )

    def add_edge_list(self, path: str | Path, *, name: str | None = None) -> GraphEntry:
        """Register a graph loaded from a whitespace-separated edge list.

        ``.rcsr`` containers are detected by their magic bytes and routed
        to :meth:`add_binary` (memory-mapped), so callers can point any
        graph-path option at either format.
        """
        path = Path(path)
        if sniff(path):
            return self.add_binary(path, name=name)
        started = time.perf_counter()
        graph, _ = load_edge_list(path)
        return self.add_graph(
            name or path.stem,
            graph,
            source=f"edge-list:{path}",
            storage="edge-list",
            load_seconds=time.perf_counter() - started,
        )

    def add_binary(
        self, path: str | Path, *, name: str | None = None, mmap: bool = True
    ) -> GraphEntry:
        """Register an ``.rcsr`` binary CSR graph (memory-mapped by default)."""
        path = Path(path)
        started = time.perf_counter()
        graph = read_graph_binary(path, mmap=mmap)
        return self.add_graph(
            name or path.stem,
            graph,
            source=f"binary:{path}",
            storage="mmap" if mmap else "binary",
            load_seconds=time.perf_counter() - started,
        )

    def add_generated(self, spec: str, *, name: str | None = None) -> GraphEntry:
        """Register a graph built from a generator spec string."""
        started = time.perf_counter()
        graph = build_from_spec(spec)
        return self.add_graph(
            name or spec,
            graph,
            source=f"generated:{spec}",
            storage="generated",
            load_seconds=time.perf_counter() - started,
        )

    def attach_index(
        self, name: str, index: "object | str | Path", *, mmap: bool = True
    ) -> GraphEntry:
        """Attach a walk-sketch index to the graph registered as ``name``.

        ``index`` is a :class:`~repro.index.walk_index.WalkIndex` or a path
        to a ``.rwix`` file (memory-mapped by default).  The index must pass
        the epoch contract (``verify_graph``) against the registered graph —
        a stale or mismatched index raises
        :class:`~repro.exceptions.WalkIndexError` rather than silently
        serving samples from the wrong distribution.
        """
        entry = self.get(name)
        if isinstance(index, (str, Path)):
            from repro.index import WalkIndex

            index = WalkIndex.from_file(index, mmap=mmap)
        # A mutated entry serves a DeltaGraph overlay, which fingerprints as
        # its compaction, byte-identical to a from-scratch rebuild: an index
        # built against the *current* epoch attaches cleanly while any older
        # build fails the fingerprint.  Verify and install under the
        # mutation lock: a mutation landing between the two would leave an
        # index of the old epoch on the new snapshot.
        with entry._mutation_lock:
            index.verify_graph(entry.graph)
            index.metrics_label = name
            entry.index = index
        return entry

    def get(self, name: str) -> GraphEntry:
        """The entry for ``name``; :class:`ServiceError` when unknown."""
        with self._lock:
            # A non-string name (say, a JSON list) is unknown, not a TypeError.
            entry = self._entries.get(name) if isinstance(name, str) else None
        if entry is None:
            raise ServiceError(
                f"unknown graph {name!r}; registered: {self.names()}"
            )
        return entry

    def names(self) -> list[str]:
        """Sorted names of all registered graphs."""
        with self._lock:
            return sorted(self._entries)

    def describe(self) -> list[dict]:
        """JSON-able summaries of every registered graph."""
        with self._lock:
            entries = list(self._entries.values())
        return [entry.describe() for entry in entries]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._entries
