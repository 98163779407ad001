"""Copy-on-write adjacency overlay over the immutable CSR :class:`Graph`.

The static stack (PRs 1-9) is built around an immutable CSR graph: cheap
``O(1)`` degree lookups, contiguous neighbor slices, and fancy-indexed
batch gathers for the vectorized walk kernels.  A service, however, sees
graphs that *change*.  Rebuilding the CSR on every edge flip would cost
``O(n + m)`` per update; :class:`DeltaGraph` instead keeps the base CSR
untouched and patches only the adjacency rows that mutations have touched:

* **Row starts, not row objects.**  Each snapshot holds three arrays: a
  per-node ``starts`` offset, the merged ``degrees``, and an append-only
  ``patch`` of rewritten rows.  A start below ``len(base.indices)`` reads
  the base CSR; a start at or past it reads ``patch`` at
  ``start - len(base.indices)``.  A batch read is one ``starts``
  lookup, one add and a select between the two arrays.
* **Snapshots, not in-place mutation.**  ``add_edges`` / ``remove_edges``
  return a *new* :class:`DeltaGraph`: copies of ``starts`` and
  ``degrees``, and a copy of ``patch`` with the touched rows appended.
  No array an older snapshot reads is ever written, so in-flight queries
  keep reading the snapshot they resolved at admission with no lock on
  the read path.
* **Epochs.**  Every successful mutation increments a monotonically
  increasing ``epoch``.  Caches key on it, indexes are invalidated by it,
  and :class:`MutationEvent` records exactly which edges moved between two
  consecutive epochs.
* **Bounded delta + compaction.**  A row rewritten again leaves its old
  copy in ``patch`` as a dead row, so ``patch`` grows with every batch's
  touched rows.  Once the cumulative delta exceeds
  :func:`default_compaction_threshold`, or ``patch`` outgrows twice the
  base's ``indices``, callers (the registry) fold the overlay back into
  a plain :class:`Graph` via :meth:`DeltaGraph.compacted` — a chunked
  gather over every row, which is byte-identical to a fresh CSR build
  because rewritten rows are kept sorted exactly like CSR adjacency
  slices.

:class:`DeltaGraph` shares the whole read API with :class:`Graph`
through their base, :class:`~repro.graph.graph.GraphReads`.  It supplies
only its row read, the :attr:`DeltaGraph.row_starts` /
:meth:`DeltaGraph.read_slots` pair that the walk kernels and
:func:`neighbor_rows` read, ``csr_nbytes`` and :meth:`DeltaGraph.compacted`.
Every estimator and every backend therefore reads an overlay as it is,
and code that needs contiguous CSR (the parallel backend's shared-memory
export, the walk index's fingerprint) calls ``compacted()`` itself.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.exceptions import GraphError, NodeNotFoundError
from repro.graph.graph import Graph, GraphReads, neighbor_rows


def default_compaction_threshold(num_edges: int) -> int:
    """Delta-edge budget before an overlay should be folded into plain CSR.

    Scales with the base size so small graphs compact eagerly (rebuilds are
    cheap) while large graphs tolerate a useful update buffer: one eighth
    of the edges, floored at 1024 delta edges.
    """
    return max(1024, num_edges // 8)


#: ``patch`` may hold this many times the base's ``indices`` (floored at
#: 1024 edges' worth, like the delta-edge budget) before an overlay
#: compacts whatever its delta-edge count.  A batch appends each touched
#: row whole, so one-edge batches on a hub would otherwise grow ``patch``
#: quadratically before the delta-edge budget fires.
_PATCH_BUDGET = 2

#: Entries gathered per step of :meth:`DeltaGraph.compacted`, so that the
#: gather's temporaries stay small beside the rebuilt ``indices``.
_COMPACT_CHUNK = 1 << 18


def _edge_pair(item, what: str) -> tuple[int, int]:
    try:
        u, v = item
    except (TypeError, ValueError):
        u = v = None
    if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in (u, v)):
        raise GraphError(
            f"edges to {what} must be (u, v) pairs of integers, got {item!r}"
        )
    return int(u), int(v)


def _edge_array(edges, n: int, *, what: str) -> np.ndarray:
    """Normalize an edge iterable to a validated ``(k, 2)`` lo<hi array.

    Every item must be two integers: a bool, a float (integral or not) or
    an item of another length is a :class:`GraphError`, never a silently
    truncated edge; so is a NumPy array of a non-integer dtype.
    """
    if isinstance(edges, np.ndarray):
        if edges.dtype.kind not in "iu":
            raise GraphError(
                f"edges to {what} must be integer (u, v) pairs, got dtype {edges.dtype}"
            )
        arr = edges.astype(np.int64, copy=True)
    else:
        pairs = [_edge_pair(item, what) for item in edges]
        try:
            arr = np.array(pairs, dtype=np.int64)
        except OverflowError:  # an id outside int64 is outside [0, n) too
            bad = next(x for pair in pairs for x in pair if not 0 <= x < n)
            raise NodeNotFoundError(bad, n) from None
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError(
            f"edges to {what} must be (u, v) pairs, got shape {arr.shape}"
        )
    out_of_range = (arr < 0) | (arr >= n)
    if out_of_range.any():
        row, col = np.argwhere(out_of_range)[0]
        raise NodeNotFoundError(int(arr[row, col]), n)
    loops = arr[:, 0] == arr[:, 1]
    if loops.any():
        first = int(np.flatnonzero(loops)[0])
        raise GraphError(
            f"self-loop ({arr[first, 0]}, {arr[first, 1]}) is not allowed"
        )
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    out = np.column_stack([lo, hi])
    keys = lo * n + hi
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    repeats = order[1:][sorted_keys[1:] == sorted_keys[:-1]]
    if repeats.size:
        first = int(repeats.min())
        raise GraphError(
            f"duplicate edge ({out[first, 0]}, {out[first, 1]}) in {what} batch"
        )
    return out


def _row_keys(edges: np.ndarray, n: int) -> np.ndarray:
    """Sorted ``node * n + neighbour`` keys of both directions of ``edges``."""
    u, v = edges[:, 0], edges[:, 1]
    return np.sort(np.concatenate([u * n + v, v * n + u]))


def _found(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Which of ``keys`` occur in the sorted, distinct ``sorted_keys``."""
    at = np.searchsorted(sorted_keys, keys)
    found = at < sorted_keys.size
    found[found] = sorted_keys[at[found]] == keys[found]
    return found


@dataclass(frozen=True)
class MutationEvent:
    """The exact edge delta between two consecutive epochs of one graph.

    ``added`` / ``removed`` are ``(k, 2)`` int64 arrays with ``u < v`` per
    row.  Consumers (benchmarks, the HTTP layer) treat events as immutable
    records; replaying them in epoch order reconstructs any later snapshot
    from an earlier one.
    """

    epoch_before: int
    epoch: int
    added: np.ndarray
    removed: np.ndarray


class DeltaGraph(GraphReads):
    """An immutable snapshot of a base CSR graph plus an adjacency delta.

    The read API of :class:`~repro.graph.graph.Graph` (degrees, neighbors,
    sampling, volumes, whole-graph views) comes from their shared base,
    :class:`~repro.graph.graph.GraphReads`; this class supplies the row
    read, which finds each row at its ``starts`` offset in the base CSR or
    in the patch, and the batch read-through (:attr:`row_starts` and
    :meth:`read_slots`).

    Mutations never modify ``self``: :meth:`add_edges` /
    :meth:`remove_edges` / :meth:`apply` return a new snapshot with
    ``epoch + 1`` and a :class:`MutationEvent` describing the delta.
    """

    __slots__ = (
        "_base",
        "_starts",
        "_patch",
        "_delta_edges",
        "epoch",
        "last_event",
        "_lock",
        "_compacted",
    )

    def __init__(self, base: Graph, *, epoch: int = 0) -> None:
        if not isinstance(base, Graph):
            raise GraphError(
                f"DeltaGraph wraps a plain CSR Graph, got {type(base).__name__}"
            )
        self._base = base
        # Read-only views of the base; each apply writes fresh copies.
        self._starts = base.indptr[:-1]
        self._degrees = base.degrees
        self._patch = np.empty(0, dtype=np.int64)
        self._n = base.num_nodes
        self._m = base.num_edges
        self._delta_edges = 0
        self.epoch = int(epoch)
        self.last_event: MutationEvent | None = None
        self._lock = threading.Lock()
        self._compacted: Graph | None = base

    # ------------------------------------------------------------------ #
    # Mutation (returns a new snapshot)
    # ------------------------------------------------------------------ #
    def apply(self, *, add=(), remove=()) -> "DeltaGraph":
        """Return a new snapshot with ``add`` inserted and ``remove`` deleted.

        Validation mirrors :class:`Graph`: nodes must exist (the node set
        is fixed), self-loops are rejected, adding a present edge or
        removing an absent one raises :class:`GraphError`, as does listing
        the same edge on both sides of one batch.  The first bad edge in
        ``(node, neighbour)`` order is reported, a duplicate before a
        missing edge at the same node.

        The whole batch is merged as sorted ``node * n + neighbour`` keys:
        the touched rows are read through :func:`neighbor_rows`, the
        merged rows are appended to a copy of the patch, and ``starts`` and
        ``degrees`` are copied with the touched entries rewritten.
        """
        n = self.num_nodes
        added = _edge_array(add, n, what="add")
        removed = _edge_array(remove, n, what="remove")
        if added.shape[0] == 0 and removed.shape[0] == 0:
            raise GraphError("mutation must add or remove at least one edge")
        if added.shape[0] and removed.shape[0]:
            overlap = np.intersect1d(
                added[:, 0] * n + added[:, 1],
                removed[:, 0] * n + removed[:, 1],
                assume_unique=True,
            )
            if overlap.size:
                u, v = divmod(int(overlap[0]), n)
                raise GraphError(
                    f"edge ({u}, {v}) appears in both the add and remove batch"
                )

        add_keys, remove_keys = _row_keys(added, n), _row_keys(removed, n)
        # Sorting beats np.unique here: NumPy 2's hash-based unique is an
        # order of magnitude slower on arrays of a batch's size.
        ends = np.sort(np.concatenate([added.ravel(), removed.ravel()]))
        touched = ends[np.append(True, ends[1:] != ends[:-1])]
        old_degrees = self._degrees[touched]
        current = np.repeat(touched * n, old_degrees) + neighbor_rows(
            self, touched, old_degrees
        )
        duplicate = add_keys[_found(add_keys, current)]
        missing = remove_keys[~_found(remove_keys, current)]
        if duplicate.size or missing.size:
            first = []
            if duplicate.size:
                u, v = divmod(int(duplicate[0]), n)
                first.append((u, 0, f"duplicate edge ({u}, {v})"))
            if missing.size:
                u, v = divmod(int(missing[0]), n)
                first.append((u, 1, f"cannot remove missing edge ({u}, {v})"))
            raise GraphError(min(first)[2])

        merged = np.sort(np.concatenate([current[~_found(current, remove_keys)], add_keys]))
        row_starts = np.searchsorted(merged, touched * n)
        base_size = self._base.num_edges * 2
        starts = np.array(self._starts, dtype=np.int64, copy=True)
        starts[touched] = base_size + self._patch.size + row_starts
        degrees = np.array(self._degrees, dtype=np.int64, copy=True)
        degrees[touched] = np.diff(np.append(row_starts, merged.size))

        snap = DeltaGraph(self._base, epoch=self.epoch + 1)
        snap._starts, snap._degrees = starts, degrees
        snap._patch = np.concatenate([self._patch, merged % n])
        snap._compacted = None
        snap._m = self._m + int(added.shape[0]) - int(removed.shape[0])
        snap._delta_edges = self._delta_edges + int(added.shape[0] + removed.shape[0])
        snap.last_event = MutationEvent(
            epoch_before=self.epoch, epoch=self.epoch + 1, added=added, removed=removed
        )
        return snap

    def add_edges(self, edges) -> "DeltaGraph":
        """Snapshot with ``edges`` added (each must be absent)."""
        return self.apply(add=edges)

    def remove_edges(self, edges) -> "DeltaGraph":
        """Snapshot with ``edges`` removed (each must be present)."""
        return self.apply(remove=edges)

    # ------------------------------------------------------------------ #
    # Overlay bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def base(self) -> Graph:
        """The underlying immutable CSR graph (epoch of the last compaction)."""
        return self._base

    @property
    def delta_edges(self) -> int:
        """Cumulative added+removed edges since the base CSR was built."""
        return self._delta_edges

    def should_compact(self, threshold: int | None = None) -> bool:
        """Whether the delta has outgrown the (default or given) budget.

        Also true once ``patch``, dead rows included, holds more than
        ``_PATCH_BUDGET`` times the base's ``indices``, whatever the budget.
        """
        if threshold is None:
            threshold = default_compaction_threshold(self._base.num_edges)
        patch_budget = _PATCH_BUDGET * max(self._base.indices.size, 2048)
        return self._delta_edges > threshold or self._patch.size > patch_budget

    def compacted(self) -> Graph:
        """Fold the overlay into a plain CSR :class:`Graph` (cached).

        The result is byte-identical to rebuilding from the full edge list:
        :func:`neighbor_rows` gathers every row in node order, each sorted,
        a run of about ``_COMPACT_CHUNK`` entries at a time, and ``indptr``
        is the cumulative sum of the merged degrees — exactly the layout
        ``Graph.__init__`` produces by sorting the ``source * n + target``
        keys.
        """
        with self._lock:
            if self._compacted is None:
                n = self.num_nodes
                indptr = np.zeros(n + 1, dtype=np.int64)
                np.cumsum(self._degrees, out=indptr[1:])
                indices = np.empty(int(indptr[-1]), dtype=np.int64)
                cuts = np.arange(_COMPACT_CHUNK, indices.size, _COMPACT_CHUNK)
                bounds = np.unique(np.concatenate([[0], np.searchsorted(indptr, cuts), [n]]))
                for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                    indices[indptr[lo] : indptr[hi]] = neighbor_rows(
                        self, np.arange(lo, hi), self._degrees[lo:hi]
                    )
                self._compacted = Graph.from_csr_arrays(
                    n, self._m, indptr, indices, self._degrees
                )
            return self._compacted

    # ------------------------------------------------------------------ #
    # Row reads (the rest of the read API is GraphReads')
    # ------------------------------------------------------------------ #
    @property
    def row_starts(self) -> np.ndarray:
        """Read-only slot of each node's first neighbor in this snapshot.

        As :attr:`Graph.row_starts`: neighbor ``j`` of ``v`` sits in slot
        ``row_starts[v] + j`` of the base CSR followed by the patch, which
        :meth:`read_slots` reads.
        """
        view = self._starts.view()
        view.flags.writeable = False
        return view

    def read_slots(self, slots: np.ndarray) -> np.ndarray:
        """The neighbors held in ``slots`` (see :attr:`row_starts`).

        A slot below the base's length reads the base CSR, any other the
        patch.  Callers pass slots of existing neighbors only.
        """
        base = self._base.indices
        in_patch = np.flatnonzero(slots >= base.size)
        if not in_patch.size:
            return base[slots]
        # Clipped slots read a stand-in from the base that the patch then
        # overwrites; an edgeless base has nothing to clip to.
        out = base.take(slots, mode="clip") if base.size else slots.copy()
        out[in_patch] = self._patch[slots[in_patch] - base.size]
        return out

    def _row(self, node: int) -> np.ndarray:
        start, degree = int(self._starts[node]), int(self._degrees[node])
        base = self._base.indices
        if start < base.size:
            return base[start : start + degree]
        return self._patch[start - base.size : start - base.size + degree]

    @property
    def csr_nbytes(self) -> int:
        """Bytes held by the base CSR plus the overlay's own arrays."""
        if not self._delta_edges:
            return self._base.csr_nbytes
        own = self._starts.nbytes + self._degrees.nbytes + self._patch.nbytes
        return self._base.csr_nbytes + own
