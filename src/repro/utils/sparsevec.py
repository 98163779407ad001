"""A minimal sparse vector keyed by node id.

HKPR vectors are extremely sparse (an estimation touches only the nodes near
the seed), so the estimators keep only the non-zero entries:
:class:`SparseVector` holds them as sorted ``int64`` node ids beside their
``float64`` values.  Every writer fills it whole arrays at a time:
:meth:`SparseVector.add_many` reduces repeated nodes and merges them into
the arrays (the push reserves, every walk phase's endpoint accumulation),
and :meth:`SparseVector.from_dense` builds it from a dense array (the exact
solvers).  :func:`sum_by_node` is the reduction the push reserves and
every push round share.

The arrays are read-only and never written in place, so a finished answer
can be read by many threads at once.  The vector offers the small amount
of vector algebra the algorithms and the sweep procedure need, plus
conversion to a dense NumPy array for comparison against ground truth.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

import numpy as np


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only: vectors share, never write, them."""
    array.flags.writeable = False
    return array


_NO_NODES = _frozen(np.zeros(0, dtype=np.int64))
_NO_VALUES = _frozen(np.zeros(0))


def sum_by_node(
    nodes: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``nodes`` in ascending order and the sum of each one's ``weights``.

    Each node's weights are added in input order, as :func:`numpy.bincount`
    adds them, so the sums are bit-identical to ``np.unique`` (with
    ``return_inverse``) + ``np.bincount``.  When the ids span at most 8x
    as many values as there are entries, they are marked and summed over
    that span directly: no sort runs and the cost stays ``O(len(nodes))``,
    so a push round costs what it touches, not the graph's size.  Sparser
    ids take the sort.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    low = int(nodes.min())
    span = int(nodes.max()) - low + 1
    if span > 8 * nodes.size:
        unique, inverse = np.unique(nodes, return_inverse=True)
        return unique, np.bincount(inverse, weights=weights)
    offsets = nodes - low
    present = np.zeros(span, dtype=bool)
    present[offsets] = True
    at = np.flatnonzero(present)
    sums = np.bincount(offsets, weights=weights, minlength=span)
    return at + low, sums[at]


class SparseVector:
    """Sparse mapping from node id to a float value.

    Missing entries are implicitly ``0.0``.  Entries that become exactly zero
    are dropped to keep the support tight.  The vector iterates in
    ascending node order.
    """

    __slots__ = ("_nodes", "_values", "_writes")

    def __init__(self, data: Mapping[int, float] | None = None) -> None:
        self._nodes = _NO_NODES
        self._values = _NO_VALUES
        self._writes = 0
        if data:
            nodes = np.fromiter(data.keys(), np.int64, count=len(data))
            values = np.fromiter(data.values(), np.float64, count=len(data))
            order = np.argsort(nodes, kind="stable")
            kept = values[order] != 0.0
            self._nodes = _frozen(nodes[order][kept])
            self._values = _frozen(values[order][kept])

    @property
    def writes(self) -> int:
        """Number of :meth:`add_many` calls that wrote entries so far.

        Lets a reader cache something derived from the vector, such as a
        ranking, and tell whether the vector changed since.
        """
        return self._writes

    def _position(self, node: int) -> int:
        """Index of ``node`` in the node array, or -1."""
        nodes = self._nodes
        index = int(nodes.searchsorted(node))
        if index < nodes.size and nodes[index] == node:
            return index
        return -1

    def __getitem__(self, node: int) -> float:
        index = self._position(node)
        return float(self._values[index]) if index >= 0 else 0.0

    def __contains__(self, node: int) -> bool:
        return self._position(node) >= 0

    def __len__(self) -> int:
        return int(self._nodes.size)

    def __iter__(self) -> Iterator[int]:
        return iter(self._nodes.tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SparseVector(nnz={len(self)}, sum={self.sum():.6g})"

    def add_many(self, nodes, increments) -> None:
        """Bulk-accumulate ``increments`` into the entries for ``nodes``.

        ``nodes`` is any integer array-like (repeats allowed);
        ``increments`` is either a scalar applied to every node or an array
        of per-node deltas of the same length.  Repeated nodes are reduced
        first, in the order given (:func:`sum_by_node` for per-node deltas),
        and the reduced deltas are merged into the arrays: each stored
        entry becomes ``old + delta``, and exact zeros are dropped.
        """
        node_arr = np.asarray(nodes, dtype=np.int64).ravel()
        if node_arr.size == 0:
            return
        if np.ndim(increments) == 0:
            unique, counts = np.unique(node_arr, return_counts=True)
            deltas = counts * float(increments)
        else:
            inc_arr = np.asarray(increments, dtype=float).ravel()
            if inc_arr.size != node_arr.size:
                raise ValueError(
                    f"nodes and increments must have equal length, "
                    f"got {node_arr.size} and {inc_arr.size}"
                )
            unique, deltas = sum_by_node(node_arr, inc_arr)
        self._writes += 1
        nodes, values = self._nodes, self._values
        if nodes.size == 0:
            # ``0.0 + delta`` is ``delta`` for every delta that is kept.
            nodes, values = unique, deltas
        else:
            at = nodes.searchsorted(unique)
            hit = at < nodes.size
            hit[hit] = nodes[at[hit]] == unique[hit]
            values = values.copy()
            values[at[hit]] += deltas[hit]
            fresh = ~hit
            nodes = np.insert(nodes, at[fresh], unique[fresh])
            values = np.insert(values, at[fresh], deltas[fresh])
        kept = values != 0.0
        if not kept.all():
            nodes, values = nodes[kept], values[kept]
        self._nodes, self._values = _frozen(nodes), _frozen(values)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored entries as read-only ``(nodes, values)`` arrays.

        Nodes ascend; callers must not write to either array.
        """
        return self._nodes, self._values

    def get_many(self, nodes) -> np.ndarray:
        """``[self[node] for node in nodes]`` as a new ``float64`` array."""
        nodes = np.asarray(nodes, dtype=np.int64)
        stored = self._nodes
        at = stored.searchsorted(nodes)
        hit = at < stored.size
        hit[hit] = stored[at[hit]] == nodes[hit]
        out = np.zeros(nodes.size)
        out[hit] = self._values[at[hit]]
        return out

    def items(self) -> Iterator[tuple[int, float]]:
        """Iterate over ``(node, value)`` pairs with non-zero value."""
        return zip(self._nodes.tolist(), self._values.tolist())

    def keys(self) -> Iterator[int]:
        """Iterate over nodes with non-zero value."""
        return iter(self)

    def values(self) -> Iterator[float]:
        """Iterate over non-zero values."""
        return iter(self._values.tolist())

    def sum(self) -> float:
        """Sum of all entries, added left to right in node order."""
        return float(sum(self._values.tolist()))

    def nnz(self) -> int:
        """Number of stored (non-zero) entries."""
        return len(self)

    def copy(self) -> "SparseVector":
        """Return a copy (sharing the read-only arrays)."""
        out = SparseVector()
        out._nodes, out._values = self._nodes, self._values
        return out

    def to_dict(self) -> dict[int, float]:
        """Return the entries as a new dictionary."""
        return dict(self.items())

    def to_dense(self, n: int) -> np.ndarray:
        """Materialize as a dense length-``n`` NumPy array."""
        nodes, values = self.arrays()
        beyond = np.flatnonzero(nodes >= n)
        if beyond.size:
            node = int(nodes[beyond[0]])
            raise IndexError(f"node {node} out of range for dense size {n}")
        dense = np.zeros(n, dtype=float)
        dense[nodes] = values
        return dense

    @classmethod
    def from_dense(cls, dense: np.ndarray, tol: float = 0.0) -> "SparseVector":
        """Build a vector from a dense array, dropping ``|x| <= tol``."""
        dense = np.asarray(dense, dtype=float)
        nodes = np.flatnonzero(np.abs(dense) > tol).astype(np.int64, copy=False)
        out = cls()
        out._nodes, out._values = _frozen(nodes), _frozen(dense[nodes])
        return out
