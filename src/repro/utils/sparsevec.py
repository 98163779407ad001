"""A minimal sparse vector keyed by node id.

HKPR vectors are extremely sparse (an estimation touches only the nodes near
the seed), so the estimators keep only the non-zero entries.
:class:`SparseVector` holds them in one of two forms, chosen by how the
vector is filled:

* **arrays** — sorted ``int64`` node ids beside their ``float64`` values.
  A vector first filled by :meth:`SparseVector.add_many` (every walk
  phase's endpoint accumulation) or built by
  :meth:`SparseVector.from_dense` keeps this form, and a further
  ``add_many`` merges into the arrays.
* **dict** — a ``dict[int, float]`` in insertion order.  The push loops
  write entry by entry, and the first per-entry write (``[]=``,
  :meth:`SparseVector.add`) converts an array-backed vector to this form.
  An ``add_many`` into a non-empty dict updates the dict.

Reads never change the form, so a finished answer can be read by many
threads at once.  Both forms offer the same small amount of vector algebra
the algorithms and the sweep procedure need, plus conversion to a dense
NumPy array for comparison against ground truth.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

import numpy as np


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only: array-backed vectors share, never write, them."""
    array.flags.writeable = False
    return array


_NO_NODES = _frozen(np.zeros(0, dtype=np.int64))
_NO_VALUES = _frozen(np.zeros(0))


class SparseVector:
    """Sparse mapping from node id to a float value.

    Missing entries are implicitly ``0.0``.  Entries that become exactly zero
    are dropped to keep the support tight.  An array-backed vector iterates
    in ascending node order; a dict-backed one in insertion order.
    """

    __slots__ = ("_data", "_nodes", "_values", "_writes")

    def __init__(self, data: Mapping[int, float] | None = None) -> None:
        # ``_data is None`` means array-backed (``_nodes``/``_values``).
        self._data: dict[int, float] | None = None
        self._nodes = _NO_NODES
        self._values = _NO_VALUES
        self._writes = 0
        if data:
            self._data = {
                int(key): float(value) for key, value in data.items() if value != 0.0
            }

    @property
    def array_backed(self) -> bool:
        """True while the entries are held as sorted arrays (see module doc)."""
        return self._data is None

    @property
    def writes(self) -> int:
        """Number of writes so far (``[]=``, :meth:`add`, :meth:`add_many`).

        Lets a reader cache something derived from the vector, such as a
        ranking, and tell whether the vector changed since.
        """
        return self._writes

    def _dict(self) -> dict[int, float]:
        """The dict form, converting an array-backed vector first."""
        if self._data is None:
            self._data = dict(zip(self._nodes.tolist(), self._values.tolist()))
            self._nodes, self._values = _NO_NODES, _NO_VALUES
        return self._data

    def _position(self, node: int) -> int:
        """Index of ``node`` in the node array, or -1 (array-backed only)."""
        nodes = self._nodes
        index = int(nodes.searchsorted(node))
        if index < nodes.size and nodes[index] == node:
            return index
        return -1

    def __getitem__(self, node: int) -> float:
        if self._data is not None:
            return self._data.get(node, 0.0)
        index = self._position(node)
        return float(self._values[index]) if index >= 0 else 0.0

    def __setitem__(self, node: int, value: float) -> None:
        data = self._data
        if data is None:
            data = self._dict()
        self._writes += 1
        if value == 0.0:
            data.pop(node, None)
        else:
            data[node] = value

    def __contains__(self, node: int) -> bool:
        if self._data is not None:
            return node in self._data
        return self._position(node) >= 0

    def __len__(self) -> int:
        if self._data is not None:
            return len(self._data)
        return int(self._nodes.size)

    def __iter__(self) -> Iterator[int]:
        if self._data is not None:
            return iter(self._data)
        return iter(self._nodes.tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SparseVector(nnz={len(self)}, sum={self.sum():.6g})"

    def add(self, node: int, delta: float) -> float:
        """Add ``delta`` to the entry for ``node`` and return the new value."""
        # The push loops call this once per edge, so it is one frame.
        data = self._data
        if data is None:
            data = self._dict()
        self._writes += 1
        new_value = data.get(node, 0.0) + delta
        if new_value == 0.0:
            data.pop(node, None)
        else:
            data[node] = new_value
        return new_value

    def add_many(self, nodes, increments) -> None:
        """Bulk-accumulate ``increments`` into the entries for ``nodes``.

        ``nodes`` is any integer array-like (repeats allowed);
        ``increments`` is either a scalar applied to every node or an array
        of per-node deltas of the same length.  Repeated nodes are reduced
        with :func:`numpy.bincount` first.  An empty or array-backed vector
        stays array-backed: the reduced deltas are merged into its arrays,
        each entry becoming ``old + delta`` exactly as the dict form
        computes it.  A non-empty dict-backed vector is updated in place,
        once per *distinct* node.
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
            unique, inverse = np.unique(node_arr, return_inverse=True)
            deltas = np.bincount(inverse, weights=inc_arr)
        self._writes += 1
        data = self._data
        if data:
            # A push-filled dict (TEA, FORA) stays a dict: sorting it into
            # arrays would reorder its left-to-right ``sum()``.
            for node, delta in zip(unique.tolist(), deltas.tolist()):
                new_value = data.get(node, 0.0) + delta
                if new_value == 0.0:
                    data.pop(node, None)
                else:
                    data[node] = new_value
            return
        self._data = None
        self._merge(unique, deltas)

    def _merge(self, unique: np.ndarray, deltas: np.ndarray) -> None:
        """Merge sorted distinct ``unique`` nodes' ``deltas`` into the arrays."""
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
        """The stored entries as ``(nodes, values)`` arrays, in iteration order.

        An array-backed vector returns its own read-only arrays (ascending
        node ids); a dict-backed one returns fresh arrays in insertion
        order.  Either way, callers must not write to them.
        """
        data = self._data
        if data is None:
            return self._nodes, self._values
        return (
            np.fromiter(data.keys(), np.int64, count=len(data)),
            np.fromiter(data.values(), np.float64, count=len(data)),
        )

    def get_many(self, nodes) -> np.ndarray:
        """``[self[node] for node in nodes]`` as a new ``float64`` array."""
        nodes = np.asarray(nodes, dtype=np.int64)
        data = self._data
        if data is not None:
            return np.array([data.get(node, 0.0) for node in nodes.tolist()], np.float64)
        stored = self._nodes
        at = stored.searchsorted(nodes)
        hit = at < stored.size
        hit[hit] = stored[at[hit]] == nodes[hit]
        out = np.zeros(nodes.size)
        out[hit] = self._values[at[hit]]
        return out

    def items(self) -> Iterator[tuple[int, float]]:
        """Iterate over ``(node, value)`` pairs with non-zero value."""
        if self._data is not None:
            return iter(self._data.items())
        return zip(self._nodes.tolist(), self._values.tolist())

    def keys(self) -> Iterator[int]:
        """Iterate over nodes with non-zero value."""
        return iter(self)

    def values(self) -> Iterator[float]:
        """Iterate over non-zero values."""
        if self._data is not None:
            return iter(self._data.values())
        return iter(self._values.tolist())

    def sum(self) -> float:
        """Sum of all entries, added left to right in iteration order."""
        if self._data is not None:
            return float(sum(self._data.values()))
        return float(sum(self._values.tolist()))

    def nnz(self) -> int:
        """Number of stored (non-zero) entries."""
        return len(self)

    def copy(self) -> "SparseVector":
        """Return a deep copy (array-backed copies share the read-only arrays)."""
        out = SparseVector()
        if self._data is not None:
            out._data = dict(self._data)
        else:
            out._nodes, out._values = self._nodes, self._values
        return out

    def scale(self, factor: float) -> "SparseVector":
        """Return a new vector with every entry multiplied by ``factor``."""
        out = SparseVector()
        if factor == 0.0:
            return out
        if self._data is not None:
            out._data = {k: v * factor for k, v in self._data.items()}
        else:
            out._nodes, out._values = self._nodes, _frozen(self._values * factor)
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
        """Build an array-backed vector from a dense array, dropping |x| <= tol."""
        dense = np.asarray(dense, dtype=float)
        nodes = np.flatnonzero(np.abs(dense) > tol).astype(np.int64, copy=False)
        out = cls()
        out._nodes, out._values = _frozen(nodes), _frozen(dense[nodes])
        return out
