"""The undirected graph data structure used by every algorithm in this package.

The paper's algorithms are *local*: they touch only the neighborhoods of a
few nodes.  The dominant operations are therefore

* ``degree(v)``   — O(1),
* ``neighbors(v)`` — O(d(v)) contiguous slice,
* uniform sampling of a neighbor of ``v`` — O(1).

A compressed-sparse-row (CSR) layout over two NumPy arrays (``indptr`` and
``indices``) supports all three with minimal overhead, mirrors how the
original C++ implementation stores graphs, and keeps memory at
``O(n + m)`` integers.

Nodes are integers ``0 .. n-1``.  Graphs are simple (no self-loops, no
parallel edges) and undirected: every edge ``(u, v)`` appears in both
adjacency lists.

The read API lives in :class:`GraphReads`, written once over a row read;
:class:`Graph` supplies the CSR row and the
:class:`~repro.dynamic.delta.DeltaGraph` overlay its patched one.  Code
that needs contiguous CSR arrays asks for ``graph.compacted()``, which a
plain :class:`Graph` answers with itself.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import EmptyGraphError, GraphError, NodeNotFoundError

Edge = tuple[int, int]


class GraphReads:
    """The read API every graph shares, written once over a row read.

    A subclass holds ``_n``, ``_m`` and the ``_degrees`` array and supplies
    ``_row(node)`` (the sorted neighbors of a valid node, as an array
    slice), the slot pair :attr:`Graph.row_starts` /
    :meth:`Graph.read_slots` that batch row reads go through
    (:func:`neighbor_rows`, the walk kernels), and ``compacted()`` (the
    graph as contiguous CSR), which the whole-graph views read.  The CSR
    :class:`Graph` and the :class:`~repro.dynamic.delta.DeltaGraph`
    overlay are the two row layouts, so an overlay answers every read as
    its compaction does.
    """

    # ``_failure_sum`` (unset until first used) is where
    # :mod:`repro.hkpr.params` keeps the last ``p_f`` and its Eq. (6) sum
    # over this snapshot's degrees.
    __slots__ = ("_n", "_m", "_degrees", "_failure_sum")

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._m

    @property
    def average_degree(self) -> float:
        """Average degree ``2m / n`` (the paper's ``d̄``)."""
        if self._n == 0:
            raise EmptyGraphError("average degree of an empty graph is undefined")
        return 2.0 * self._m / self._n

    @property
    def total_volume(self) -> int:
        """Sum of all degrees, ``2m``."""
        return 2 * self._m

    @property
    def degrees(self) -> np.ndarray:
        """Read-only view of the degree array."""
        view = self._degrees.view()
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self._n}, m={self._m})"

    # ------------------------------------------------------------------ #
    # Node / edge access
    # ------------------------------------------------------------------ #
    def nodes(self) -> range:
        """Iterate over all node ids."""
        return range(self._n)

    def has_node(self, node: int) -> bool:
        """Whether ``node`` is a valid node id."""
        return 0 <= node < self._n

    def _check_node(self, node: int) -> None:
        if not self.has_node(node):
            raise NodeNotFoundError(node, self._n)

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        self._check_node(node)
        return int(self._degrees[node])

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbors of ``node`` as a read-only array slice (sorted)."""
        self._check_node(node)
        view = self._row(node).view()
        view.flags.writeable = False
        return view

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` exists."""
        self._check_node(u)
        self._check_node(v)
        nbrs = self._row(u)
        pos = np.searchsorted(nbrs, v)
        return bool(pos < len(nbrs) and nbrs[pos] == v)

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge once, as ``(u, v)`` with u < v."""
        for u in range(self._n):
            for v in self._row(u):
                if u < v:
                    yield (u, int(v))

    def random_neighbor(self, node: int, rng: np.random.Generator) -> int:
        """Uniformly sample a neighbor of ``node``.

        Raises :class:`GraphError` if ``node`` is isolated — the HKPR push
        and walk procedures never call this on isolated nodes, so hitting it
        indicates a logic error upstream.
        """
        self._check_node(node)
        nbrs = self._row(node)
        if nbrs.size == 0:
            raise GraphError(f"node {node} has no neighbors to sample")
        return int(nbrs[rng.integers(nbrs.size)])

    # ------------------------------------------------------------------ #
    # Whole-graph views
    # ------------------------------------------------------------------ #
    def _node_array(self, nodes: Iterable[int]) -> np.ndarray:
        """Convert an iterable of node ids to a validated int64 array."""
        node_arr = np.fromiter((int(v) for v in nodes), dtype=np.int64)
        invalid = (node_arr < 0) | (node_arr >= self._n)
        if invalid.any():
            first = int(node_arr[np.flatnonzero(invalid)[0]])
            raise NodeNotFoundError(first, self._n)
        return node_arr

    def volume(self, nodes: Iterable[int]) -> int:
        """Sum of degrees over ``nodes`` (the paper's ``vol(S)``)."""
        node_arr = self._node_array(nodes)
        if node_arr.size == 0:
            return 0
        return int(self._degrees[node_arr].sum())

    def cut_size(self, nodes: Iterable[int]) -> int:
        """Number of edges with exactly one endpoint in ``nodes``."""
        node_arr = np.unique(self._node_array(nodes))
        if node_arr.size == 0:
            return 0
        member = np.zeros(self._n, dtype=bool)
        member[node_arr] = True
        neighbors = neighbor_rows(self, node_arr, self._degrees[node_arr])
        return int(np.count_nonzero(~member[neighbors]))

    def adjacency_matrix(self) -> "scipy.sparse.csr_matrix":  # noqa: F821
        """The sparse adjacency matrix ``A`` (symmetric, 0/1)."""
        from scipy.sparse import csr_matrix

        csr = self.compacted()
        data = np.ones(csr.indices.size, dtype=float)
        return csr_matrix(
            (data, csr.indices.copy(), csr.indptr.copy()),
            shape=(self._n, self._n),
        )

    def transition_matrix(self) -> "scipy.sparse.csr_matrix":  # noqa: F821
        """The random-walk transition matrix ``P = D^{-1} A``.

        Rows of isolated nodes are all-zero (a walk at an isolated node has
        nowhere to go); the HKPR definition treats such walks as staying put
        only implicitly, and the estimators never start from isolated nodes.
        """
        adjacency = self.adjacency_matrix()
        inv_deg = np.zeros(self._n, dtype=float)
        nonzero = self._degrees > 0
        inv_deg[nonzero] = 1.0 / self._degrees[nonzero]
        from scipy.sparse import diags

        return diags(inv_deg) @ adjacency

    def walk_step(self, distribution: np.ndarray) -> np.ndarray:
        """One random-walk step of a row vector: ``distribution @ P``.

        The exact solvers iterate this instead of a SciPy
        :meth:`transition_matrix`, so serving them needs only NumPy.  Mass
        at an isolated node stays there, as in the walk primitives, which
        treat such nodes as absorbing.
        """
        degrees = self._degrees
        spread = np.zeros(self._n)
        np.divide(distribution, degrees, out=spread, where=degrees > 0)
        stepped = np.bincount(
            self.compacted().indices,
            weights=np.repeat(spread, degrees),
            minlength=self._n,
        )
        isolated = degrees == 0
        stepped[isolated] += distribution[isolated]
        return stepped

    def connected_component(self, start: int) -> set[int]:
        """Return the set of nodes reachable from ``start`` (BFS)."""
        self._check_node(start)
        seen = {start}
        frontier = [start]
        while frontier:
            next_frontier: list[int] = []
            for node in frontier:
                for nbr in self._row(node):
                    nbr = int(nbr)
                    if nbr not in seen:
                        seen.add(nbr)
                        next_frontier.append(nbr)
            frontier = next_frontier
        return seen

    def is_connected(self) -> bool:
        """Whether the graph is connected (empty graphs count as connected)."""
        if self._n == 0:
            return True
        return len(self.connected_component(0)) == self._n

    def subgraph(self, nodes: Sequence[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on ``nodes``.

        Returns the new graph (with nodes relabelled ``0..k-1`` in order of
        first appearance; repeats are ignored) and the mapping from original
        node id to new node id.  The induced edges are read from the rows of
        the listed nodes only (plus one ``n``-entry id table), so the work
        grows with their degrees and never scans all ``m`` edges.
        """
        node_arr = self._node_array(nodes)
        _, first_seen = np.unique(node_arr, return_index=True)
        node_arr = node_arr[np.sort(first_seen)]
        k = node_arr.size
        mapping = dict(zip(node_arr.tolist(), range(k)))
        local = np.full(self._n, -1, dtype=np.int64)
        local[node_arr] = np.arange(k)
        # Read the rows of the listed nodes and map each neighbor to its new
        # id (-1 outside the set, below every new id), keeping each induced
        # edge once, from its lower endpoint.
        counts = self._degrees[node_arr]
        sources = np.repeat(np.arange(k), counts)
        targets = local[neighbor_rows(self, node_arr, counts)]
        keep = sources < targets
        return Graph(k, np.column_stack((sources[keep], targets[keep]))), mapping


class Graph(GraphReads):
    """An immutable, simple, undirected graph in CSR form.

    Parameters
    ----------
    n:
        Number of nodes.  Nodes are ``0 .. n-1``.
    edges:
        Iterable of ``(u, v)`` pairs, or an integer ``(m, 2)`` array of
        them.  Self-loops and duplicate edges (in either orientation) are
        rejected unless ``dedupe=True``, in which case they are silently
        dropped.
    dedupe:
        If true, drop self-loops and duplicate edges instead of raising.

    Examples
    --------
    >>> g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    >>> g.num_nodes, g.num_edges
    (4, 4)
    >>> sorted(g.neighbors(0))
    [1, 3]
    >>> g.degree(1)
    2
    """

    __slots__ = ("_indptr", "_indices", "_backing")

    def __init__(
        self, n: int, edges: Iterable[Edge] | np.ndarray, *, dedupe: bool = False
    ) -> None:
        if n < 0:
            raise GraphError(f"number of nodes must be non-negative, got {n}")
        self._n = n = int(n)

        # Materialize the edges as an (m, 2) int64 array; every validation
        # and the CSR build below is a whole-array operation and only reads
        # it, so an int64 array is used as given.
        if isinstance(edges, np.ndarray):
            arr = edges.astype(np.int64, copy=False)
        else:
            edge_list = list(edges)
            arr = np.array(
                [(int(u), int(v)) for u, v in edge_list], dtype=np.int64
            ) if edge_list else np.empty((0, 2), dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError(f"edges must be (u, v) pairs, got shape {arr.shape}")

        if arr.size and (arr.min() < 0 or arr.max() >= n):
            row, col = np.argwhere((arr < 0) | (arr >= n))[0]
            raise NodeNotFoundError(int(arr[row, col]), n)

        # Each edge as the key lo * n + hi, formed straight from the caller's
        # array and sorted in place.  The row keys below are built from the
        # keys and become the CSR's indices in place, so the build holds no
        # more than the keys beside the arrays it returns.
        u, v = arr[:, 0], arr[:, 1]
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        loops = u == v
        if loops.any():
            if not dedupe:
                first = int(np.flatnonzero(loops)[0])
                raise GraphError(
                    f"self-loop ({arr[first, 0]}, {arr[first, 1]}) is not allowed"
                )
            keys = keys[~loops]
        keys.sort()
        repeated = keys[1:] == keys[:-1]
        if repeated.any():
            if not dedupe:
                # Name the first repeat in input order: only this error path
                # needs the keys unsorted, so it forms them again.
                in_order = np.minimum(u, v) * n + np.maximum(u, v)
                first = int(np.argsort(in_order, kind="stable")[1:][repeated].min())
                raise GraphError(f"duplicate edge ({arr[first, 0]}, {arr[first, 1]})")
            keys = keys[np.concatenate(([True], ~repeated))]

        m = self._m = int(keys.size)
        # Row keys source * n + target of both orientations: lo -> hi is the
        # key itself, hi -> lo is formed from its divmod.  The pairs are
        # unique here, so one sort of the row keys groups the entries by
        # source (the CSR layout) and leaves every adjacency slice sorted:
        # neighbor iteration is deterministic.  The row pointers are where
        # each source's keys start, and the targets are the keys mod n.
        row_keys = np.empty(2 * m, dtype=np.int64)
        row_keys[:m] = keys
        flipped = row_keys[m:]
        np.divmod(keys, n, out=(keys, flipped))
        flipped *= n
        flipped += keys
        del keys
        row_keys.sort()
        starts = np.arange(n + 1, dtype=np.int64)
        starts *= n
        indptr = row_keys.searchsorted(starts)
        np.remainder(row_keys, n, out=row_keys)

        self._indptr = indptr
        self._indices = row_keys
        self._degrees = np.diff(indptr)
        self._backing = None

    @property
    def backing(self) -> dict | None:
        """Storage metadata for graphs loaded from an ``.rcsr`` container.

        ``None`` for graphs built in memory.  For binary loads this is a
        dict with ``kind`` (``"mmap"`` or ``"binary"``), the source
        ``path`` and the byte ``offsets`` of each CSR section — enough for
        a worker process to re-map the same file instead of receiving a
        copy of the arrays.
        """
        return getattr(self, "_backing", None)

    @property
    def csr_nbytes(self) -> int:
        """Bytes held by the CSR arrays (indptr + indices + degrees).

        For mmap-backed graphs this is the mapped extent, not resident
        memory — pages materialize lazily as walks touch them.
        """
        return (
            self._indptr.nbytes + self._indices.nbytes + self._degrees.nbytes
        )

    @property
    def indptr(self) -> np.ndarray:
        """Read-only view of the CSR row-pointer array (length ``n + 1``).

        Together with :attr:`indices` this is the raw CSR layout that the
        ``.rcsr`` writer, the parallel backend's shared-memory export and
        the walk index's fingerprint read, through :meth:`compacted`.
        """
        view = self._indptr.view()
        view.flags.writeable = False
        return view

    @property
    def indices(self) -> np.ndarray:
        """Read-only view of the CSR adjacency array (length ``2m``)."""
        view = self._indices.view()
        view.flags.writeable = False
        return view

    @property
    def row_starts(self) -> np.ndarray:
        """Read-only slot of each node's first neighbor (length ``n``).

        Neighbor ``j`` of ``v`` sits in slot ``row_starts[v] + j``, which
        :meth:`read_slots` reads.  A
        :class:`~repro.dynamic.delta.DeltaGraph` overlay exposes the same
        pair, so batch neighbor reads are one formula on either.
        """
        view = self._indptr[:-1]
        view.flags.writeable = False
        return view

    def read_slots(self, slots: np.ndarray) -> np.ndarray:
        """The neighbors held in adjacency ``slots`` (see :attr:`row_starts`)."""
        return self._indices[slots]

    def _row(self, node: int) -> np.ndarray:
        return self._indices[self._indptr[node] : self._indptr[node + 1]]

    def compacted(self) -> "Graph":
        """This graph as contiguous CSR: a plain graph is its own compaction."""
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and self._m == other._m
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        return hash((self._n, self._m))

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], *, dedupe: bool = False) -> "Graph":
        """Build a graph whose node count is inferred as ``max id + 1``."""
        edge_list = [(int(u), int(v)) for u, v in edges]
        if not edge_list:
            return cls(0, [])
        n = max(max(u, v) for u, v in edge_list) + 1
        return cls(n, edge_list, dedupe=dedupe)

    # ------------------------------------------------------------------ #
    # Binary (.rcsr) round trip
    # ------------------------------------------------------------------ #
    @classmethod
    def from_csr_arrays(
        cls,
        n: int,
        m: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        degrees: np.ndarray,
        *,
        backing: dict | None = None,
    ) -> "Graph":
        """Adopt pre-built CSR arrays without re-deriving them from edges.

        The arrays are taken as-is (possibly read-only memmap views — they
        are never mutated after construction), and only O(1) structural
        invariants are checked here: shapes, and ``indptr``'s endpoints.
        Callers vouch for the contents.  The ``.rcsr`` reader checks every
        section of a file before it trusts one
        (:func:`~repro.graph.binfmt.read_graph_binary`), and
        :meth:`~repro.dynamic.delta.DeltaGraph.compacted` builds its arrays
        from a graph that was already checked.
        """
        n, m = int(n), int(m)
        if n < 0 or m < 0:
            raise GraphError(f"invalid CSR dimensions n={n}, m={m}")
        if indptr.shape != (n + 1,):
            raise GraphError(
                f"indptr has shape {indptr.shape}, expected ({n + 1},)"
            )
        if degrees.shape != (n,):
            raise GraphError(f"degrees has shape {degrees.shape}, expected ({n},)")
        if indices.shape != (2 * m,):
            raise GraphError(
                f"indices has shape {indices.shape}, expected ({2 * m},)"
            )
        if int(indptr[0]) != 0 or int(indptr[-1]) != 2 * m:
            raise GraphError(
                f"indptr endpoints ({int(indptr[0])}, {int(indptr[-1])}) "
                f"do not bracket 2m={2 * m}"
            )
        graph = cls.__new__(cls)
        graph._n = n
        graph._m = m
        graph._indptr = indptr
        graph._indices = indices
        graph._degrees = degrees
        graph._backing = backing
        return graph

    def to_binary(self, path) -> "Path":  # noqa: F821 - Path via binfmt
        """Write this graph as a versioned ``.rcsr`` binary container."""
        from repro.graph.binfmt import write_graph_binary

        return write_graph_binary(self, path)

    @classmethod
    def from_binary(cls, path, *, mmap: bool = True) -> "Graph":
        """Load an ``.rcsr`` container, memory-mapped by default.

        With ``mmap=True`` (the default) the CSR arrays are read-only
        :func:`numpy.memmap` views: loading reads the arrays once to check
        them and copies nothing, and concurrent processes share the pages
        through the OS page cache.
        """
        from repro.graph.binfmt import read_graph_binary

        return read_graph_binary(path, mmap=mmap)


def neighbor_rows(graph, nodes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The first ``counts[i]`` neighbors of each ``nodes[i]``, row after row.

    ``counts`` is ``graph.degrees[nodes]`` for whole rows; a smaller count
    takes a row's prefix.  Output entry ``k`` of row ``i`` is neighbor
    ``k - first[i]`` of ``nodes[i]``, where ``first[i]`` is the row's first
    output position, so its adjacency slot is
    ``k + row_starts[nodes[i]] - first[i]``: three passes over the output
    build the slots and one reads them.  ``graph`` is anything with the
    :attr:`Graph.row_starts` / :meth:`Graph.read_slots` pair, a
    :class:`~repro.dynamic.delta.DeltaGraph` overlay included; every batch
    read of whole rows (the pushes, the sweep, :meth:`GraphReads.cut_size`,
    :meth:`GraphReads.subgraph`, the overlay's own merges) goes through here.
    """
    ends = np.cumsum(counts)
    slots = np.repeat(graph.row_starts[nodes] - (ends - counts), counts)
    slots += np.arange(slots.size)
    return graph.read_slots(slots)
