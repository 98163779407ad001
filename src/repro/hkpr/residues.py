"""Per-hop residue vectors shared by HK-Push, HK-Push+, TEA and TEA+.

Because heat kernel random walks are non-Markovian, residue mass produced at
different hop counts cannot be merged (unlike FORA-style PPR push).  The
push algorithms therefore maintain one sparse residue vector per hop,
``r_s^(0), r_s^(1), ...``.  :class:`ResidueVectors` stores each layer in one
of two forms, chosen by how it is filled: a ``(nodes, values)`` array pair
from :meth:`ResidueVectors.set_layer` (HK-Push+ pushes a whole hop at a
time), or a dictionary from the per-entry writes of HK-Push's FIFO loop.
A per-entry write converts an array layer to a dictionary; reads never
change a layer's form.  The aggregates the algorithms need are computed on
arrays either way:

* total residue mass ``alpha`` (walk budget scaling in TEA/TEA+),
* the per-hop maximum of ``r^(k)[u] / d(u)`` (the Theorem-2 early-exit test),
* the non-zero entries as ``(hops, nodes, values)`` arrays (walk starts),
* the residue reduction of TEA+ (Algorithm 5, Lines 8-11).

Sums add left to right in layer order, as ``sum()`` over the dictionaries
does, so both forms give bit-identical aggregates.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.graph import Graph

#: One hop's residues: a dict, or parallel ``(nodes, values)`` arrays.
Layer = dict[int, float] | tuple[np.ndarray, np.ndarray]


def max_normalized(values: np.ndarray, degrees: np.ndarray) -> float:
    """``max_u r[u] / d(u)`` over one hop's entries (0.0 when there are none)."""
    linked = degrees > 0
    return float((values[linked] / degrees[linked]).max(initial=0.0))


def _layer_size(layer: Layer) -> int:
    return len(layer) if isinstance(layer, dict) else int(layer[0].size)


def _layer_arrays(layer: Layer) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(layer, dict):
        return (
            np.fromiter(layer.keys(), np.int64, count=len(layer)),
            np.fromiter(layer.values(), np.float64, count=len(layer)),
        )
    return layer


class ResidueVectors:
    """Sparse per-hop residue vectors ``r_s^(k)[u]``."""

    def __init__(self, max_hop: int | None = None) -> None:
        self._layers: list[Layer] = []
        self._max_hop = max_hop

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def _allocate(self, hop: int) -> None:
        if hop < 0:
            raise ParameterError(f"hop must be non-negative, got {hop}")
        if self._max_hop is not None and hop > self._max_hop:
            raise ParameterError(
                f"hop {hop} exceeds the configured maximum hop {self._max_hop}"
            )
        while len(self._layers) <= hop:
            self._layers.append({})

    def _ensure_layer(self, hop: int) -> dict[int, float]:
        """The dictionary at ``hop`` for a per-entry write (allocated or converted)."""
        if not 0 <= hop < len(self._layers):
            self._allocate(hop)
        layer = self._layers[hop]
        if type(layer) is not dict:
            nodes, values = layer
            layer = self._layers[hop] = dict(zip(nodes.tolist(), values.tolist()))
        return layer

    def get(self, hop: int, node: int) -> float:
        """Residue of ``node`` at hop ``hop`` (0.0 when absent)."""
        if hop < 0 or hop >= len(self._layers):
            return 0.0
        try:
            return self._layers[hop].get(node, 0.0)
        except AttributeError:  # an array layer (a tuple) has no ``get``
            nodes, values = self._layers[hop]
        found = np.flatnonzero(nodes == node)
        return float(values[found[0]]) if found.size else 0.0

    def set(self, hop: int, node: int, value: float) -> None:
        """Set the residue of ``node`` at hop ``hop`` (dropping exact zeros)."""
        layer = self._ensure_layer(hop)
        if value == 0.0:
            layer.pop(node, None)
        else:
            layer[node] = value

    def add(self, hop: int, node: int, delta: float) -> float:
        """Add ``delta`` to the residue and return the new value."""
        # HK-Push calls this once per edge: an existing dict layer skips
        # the ``_ensure_layer`` frame.
        layers = self._layers
        layer = layers[hop] if 0 <= hop < len(layers) else None
        if type(layer) is not dict:
            layer = self._ensure_layer(hop)
        new_value = layer.get(node, 0.0) + delta
        if new_value == 0.0:
            layer.pop(node, None)
        else:
            layer[node] = new_value
        return new_value

    def clear(self, hop: int, node: int) -> float:
        """Zero the residue of ``node`` at hop ``hop`` and return the old value."""
        if hop < 0 or hop >= len(self._layers):
            return 0.0
        try:
            return self._layers[hop].pop(node, 0.0)
        except AttributeError:  # an array layer: convert it for the write
            return self._ensure_layer(hop).pop(node, 0.0)

    def set_layer(self, hop: int, nodes: np.ndarray, values: np.ndarray) -> None:
        """Replace the residues at ``hop`` with ``nodes[i] -> values[i]``.

        The bulk form of :meth:`set` for array-at-a-time pushes: the layer
        keeps the arrays, in their order, minus exact zeros.  The caller
        hands them over and must not write to them afterwards.
        """
        self._allocate(hop)
        kept = values != 0.0
        if not kept.all():
            nodes, values = nodes[kept], values[kept]
        self._layers[hop] = (nodes, values)

    def layer(self, hop: int) -> dict[int, float]:
        """The residues at ``hop`` as a dictionary (possibly empty; do not mutate)."""
        if hop < 0 or hop >= len(self._layers):
            return {}
        layer = self._layers[hop]
        if isinstance(layer, dict):
            return layer
        return dict(zip(layer[0].tolist(), layer[1].tolist()))

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def num_hops(self) -> int:
        """Number of hop layers currently allocated."""
        return len(self._layers)

    def max_nonzero_hop(self) -> int:
        """Largest hop with a non-zero residue (the paper's ``K``); -1 if none."""
        for hop in range(len(self._layers) - 1, -1, -1):
            if _layer_size(self._layers[hop]):
                return hop
        return -1

    def total(self) -> float:
        """Total residue mass ``alpha = sum_k sum_u r^(k)[u]``."""
        return sum(self.per_hop_sums())

    def entry_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(hops, nodes, values)`` of every positive residue entry.

        Hop by hop, each layer in its own order: the walk-start
        distribution of TEA and TEA+, whose ``alpha`` is
        ``sum(values.tolist())``.
        """
        parts = [_layer_arrays(layer) for layer in self._layers]
        if not parts:
            return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
        hops = np.repeat(
            np.arange(len(parts), dtype=np.int64), [nodes.size for nodes, _ in parts]
        )
        nodes = np.concatenate([nodes for nodes, _ in parts])
        values = np.concatenate([values for _, values in parts])
        positive = values > 0.0
        if not positive.all():
            hops, nodes, values = hops[positive], nodes[positive], values[positive]
        return hops, nodes, values

    def num_nonzero(self) -> int:
        """Number of non-zero residue entries across all hops."""
        return sum(_layer_size(layer) for layer in self._layers)

    def max_normalized_sum(self, graph: Graph) -> float:
        """``sum_k max_u r^(k)[u] / d(u)`` — the Theorem-2 / early-exit quantity."""
        total = 0.0
        for layer in self._layers:
            nodes, values = _layer_arrays(layer)
            total += max_normalized(values, graph.degrees[nodes])
        return total

    def per_hop_sums(self) -> list[float]:
        """Total residue per hop (used to compute TEA+'s ``beta_k``)."""
        return [
            sum(layer.values() if isinstance(layer, dict) else layer[1].tolist())
            for layer in self._layers
        ]

    # ------------------------------------------------------------------ #
    # TEA+ residue reduction (Algorithm 5, Lines 8-11)
    # ------------------------------------------------------------------ #
    def reduce_residues(self, graph: Graph, eps_r: float, delta: float) -> list[float]:
        """Apply TEA+'s residue reduction in place and return the ``beta_k`` used.

        Each residue ``r^(k)[u]`` is decreased by ``beta_k * eps_r * delta * d(u)``
        (floored at zero), where ``beta_k`` is the hop's share of the total
        residue mass.  The betas sum to one, which bounds the induced
        absolute error by ``eps_r * delta`` per unit degree (§5.2).  Every
        reduced layer is left as arrays.
        """
        per_hop = self.per_hop_sums()
        grand_total = sum(per_hop)
        if grand_total <= 0.0:
            return [0.0] * len(per_hop)
        betas = [hop_sum / grand_total for hop_sum in per_hop]
        for hop, beta in enumerate(betas):
            if beta == 0.0:
                continue
            nodes, values = _layer_arrays(self._layers[hop])
            reduction_per_degree = beta * eps_r * delta
            reduced = values - reduction_per_degree * graph.degrees[nodes]
            kept = reduced > 0.0
            self._layers[hop] = (nodes[kept], reduced[kept])
        return betas

    def copy(self) -> "ResidueVectors":
        """Deep copy (used by tests and the ablation benchmarks)."""
        out = ResidueVectors(self._max_hop)
        out._layers = [
            dict(layer) if isinstance(layer, dict) else layer for layer in self._layers
        ]
        return out
