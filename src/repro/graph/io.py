"""Graph input/output: edge-list files and NetworkX interoperability.

The SNAP datasets the paper uses are distributed as whitespace-separated
edge lists, so the loader accepts that format (with ``#`` comment lines).
Node labels in the file may be arbitrary non-negative integers; they are
compacted to ``0..n-1`` and the label mapping is returned so callers can
translate seed nodes.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import GraphError
from repro.graph.graph import Graph

if TYPE_CHECKING:
    import networkx as nx

#: Lines parsed per streaming chunk.  Each chunk is tokenized, converted to
#: a compact ``(k, 2)`` int64 block, and its text discarded — so loading a
#: 10M-edge list peaks at one chunk of text plus 16 bytes/edge, instead of
#: the whole file plus a Python tuple per edge.
_CHUNK_LINES = 1 << 16


def _parse_chunk(
    path: Path, lines: list[str], start_line: int, comment: str
) -> np.ndarray | None:
    """Parse one chunk of lines into a ``(k, 2)`` int64 label array."""
    tokens: list[str] = []
    for offset, line in enumerate(lines):
        stripped = line.strip()
        if not stripped or stripped.startswith(comment):
            continue
        parts = stripped.split()
        if len(parts) < 2:
            raise GraphError(
                f"{path}:{start_line + offset}: expected two node ids, "
                f"got {stripped!r}"
            )
        tokens.append(parts[0])
        tokens.append(parts[1])
    if not tokens:
        return None
    try:
        flat = np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        # Re-scan with Python int() purely to pin the exact offending line.
        for offset, line in enumerate(lines):
            stripped = line.strip()
            if not stripped or stripped.startswith(comment):
                continue
            parts = stripped.split()
            try:
                int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphError(
                    f"{path}:{start_line + offset}: non-integer node id "
                    f"in {stripped!r}"
                ) from None
        raise GraphError(
            f"{path}: node labels exceed the 64-bit integer range"
        ) from None
    return flat.reshape(-1, 2)


def load_edge_list(
    path: str | Path, *, comment: str = "#"
) -> tuple[Graph, dict[int, int]]:
    """Load an undirected graph from a whitespace-separated edge-list file.

    The file is streamed in chunks of :data:`_CHUNK_LINES` lines: each
    chunk collapses to a compact int64 block before the next is read, and
    label compaction runs as whole-array ``np.unique`` at the end, so peak
    memory is O(edges) machine integers rather than the file text plus a
    Python object per edge.

    Parameters
    ----------
    path:
        File with one ``u v`` pair per line.  Lines starting with
        ``comment`` are skipped.  Self-loops and duplicate edges are dropped.

    Returns
    -------
    (graph, label_to_id):
        The graph, and the mapping from original labels to compacted ids
        (labels are numbered in order of first appearance, matching a
        line-by-line scan).
    """
    path = Path(path)
    blocks: list[np.ndarray] = []
    with path.open() as handle:
        start_line = 1
        while True:
            lines = list(islice(handle, _CHUNK_LINES))
            if not lines:
                break
            block = _parse_chunk(path, lines, start_line, comment)
            if block is not None:
                blocks.append(block)
            start_line += len(lines)
    if not blocks:
        return Graph(0, []), {}
    raw = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    del blocks
    uniq, first_idx, inverse = np.unique(
        raw.reshape(-1), return_index=True, return_inverse=True
    )
    # np.unique sorts by value; re-rank so ids follow first appearance in
    # the file, preserving the historical dict-insertion-order contract.
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[order] = np.arange(uniq.size, dtype=np.int64)
    edges = rank[inverse].reshape(-1, 2)
    del raw, inverse
    labels = {int(label): int(r) for label, r in zip(uniq, rank)}
    return Graph(uniq.size, edges, dedupe=True), labels


def save_edge_list(graph: Graph, path: str | Path) -> None:
    """Write ``graph`` as a whitespace-separated edge list (one edge per line)."""
    path = Path(path)
    with path.open("w") as handle:
        handle.write(f"# undirected graph: n={graph.num_nodes} m={graph.num_edges}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def from_networkx(nx_graph: nx.Graph) -> tuple[Graph, dict[object, int]]:
    """Convert a :class:`networkx.Graph` to a :class:`repro.graph.Graph`.

    Node labels may be arbitrary hashables; the returned mapping translates
    them to the compact integer ids used by this package.  Only methods of
    ``nx_graph`` are called, so networkx is never imported here.
    """
    if nx_graph.is_directed():
        raise GraphError("only undirected graphs are supported")
    mapping = {node: i for i, node in enumerate(nx_graph.nodes())}
    edges = [(mapping[u], mapping[v]) for u, v in nx_graph.edges() if u != v]
    return Graph(len(mapping), edges, dedupe=True), mapping


def to_networkx(graph: Graph) -> nx.Graph:
    """Convert a :class:`repro.graph.Graph` to a :class:`networkx.Graph`.

    networkx is imported here, on first use, so importing :mod:`repro`
    does not load it.
    """
    import networkx as nx

    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(graph.num_nodes))
    nx_graph.add_edges_from(graph.edges())
    return nx_graph
