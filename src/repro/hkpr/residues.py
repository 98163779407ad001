"""Per-hop residue vectors shared by HK-Push, HK-Push+, TEA and TEA+.

Because heat kernel random walks are non-Markovian, residue mass produced at
different hop counts cannot be merged (unlike FORA-style PPR push).  The
push algorithms therefore maintain one sparse residue vector per hop,
``r_s^(0), r_s^(1), ...``.  :class:`ResidueVectors` stores them as a list of
dictionaries and provides the aggregate quantities the algorithms need:

* total residue mass ``alpha`` (walk budget scaling in TEA/TEA+),
* the per-hop maximum of ``r^(k)[u] / d(u)`` (the Theorem-2 early-exit test),
* the flattened non-zero entries (alias-table construction),
* the residue reduction of TEA+ (Algorithm 5, Lines 8-11).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.graph import Graph


class ResidueVectors:
    """Sparse per-hop residue vectors ``r_s^(k)[u]``."""

    def __init__(self, max_hop: int | None = None) -> None:
        self._layers: list[dict[int, float]] = []
        self._max_hop = max_hop

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def _ensure_layer(self, hop: int) -> dict[int, float]:
        if hop < 0:
            raise ParameterError(f"hop must be non-negative, got {hop}")
        if self._max_hop is not None and hop > self._max_hop:
            raise ParameterError(
                f"hop {hop} exceeds the configured maximum hop {self._max_hop}"
            )
        while len(self._layers) <= hop:
            self._layers.append({})
        return self._layers[hop]

    def get(self, hop: int, node: int) -> float:
        """Residue of ``node`` at hop ``hop`` (0.0 when absent)."""
        if hop < 0 or hop >= len(self._layers):
            return 0.0
        return self._layers[hop].get(node, 0.0)

    def set(self, hop: int, node: int, value: float) -> None:
        """Set the residue of ``node`` at hop ``hop`` (dropping exact zeros)."""
        layer = self._ensure_layer(hop)
        if value == 0.0:
            layer.pop(node, None)
        else:
            layer[node] = value

    def add(self, hop: int, node: int, delta: float) -> float:
        """Add ``delta`` to the residue and return the new value."""
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
        return self._layers[hop].pop(node, 0.0)

    def set_layer(self, hop: int, nodes: np.ndarray, values: np.ndarray) -> None:
        """Replace the residues at ``hop`` with ``nodes[i] -> values[i]``.

        The bulk form of :meth:`set` for array-at-a-time pushes; exact zeros
        are dropped and the layer keeps the arrays' order.
        """
        self._ensure_layer(hop)
        self._layers[hop] = {
            node: value
            for node, value in zip(nodes.tolist(), values.tolist())
            if value != 0.0
        }

    def layer(self, hop: int) -> dict[int, float]:
        """The residue dictionary at ``hop`` (possibly empty; do not mutate)."""
        if hop < 0 or hop >= len(self._layers):
            return {}
        return self._layers[hop]

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
            if self._layers[hop]:
                return hop
        return -1

    def total(self) -> float:
        """Total residue mass ``alpha = sum_k sum_u r^(k)[u]``."""
        return sum(sum(layer.values()) for layer in self._layers)

    def nonzero_entries(self) -> Iterator[tuple[int, int, float]]:
        """Yield ``(hop, node, residue)`` for every non-zero entry."""
        for hop, layer in enumerate(self._layers):
            for node, value in layer.items():
                if value > 0.0:
                    yield hop, node, value

    def num_nonzero(self) -> int:
        """Number of non-zero residue entries across all hops."""
        return sum(len(layer) for layer in self._layers)

    def max_normalized_sum(self, graph: Graph) -> float:
        """``sum_k max_u r^(k)[u] / d(u)`` — the Theorem-2 / early-exit quantity."""
        total = 0.0
        for layer in self._layers:
            best = 0.0
            for node, value in layer.items():
                degree = graph.degree(node)
                if degree > 0:
                    normalized = value / degree
                    if normalized > best:
                        best = normalized
            total += best
        return total

    def per_hop_sums(self) -> list[float]:
        """Total residue per hop (used to compute TEA+'s ``beta_k``)."""
        return [sum(layer.values()) for layer in self._layers]

    # ------------------------------------------------------------------ #
    # TEA+ residue reduction (Algorithm 5, Lines 8-11)
    # ------------------------------------------------------------------ #
    def reduce_residues(self, graph: Graph, eps_r: float, delta: float) -> list[float]:
        """Apply TEA+'s residue reduction in place and return the ``beta_k`` used.

        Each residue ``r^(k)[u]`` is decreased by ``beta_k * eps_r * delta * d(u)``
        (floored at zero), where ``beta_k`` is the hop's share of the total
        residue mass.  The betas sum to one, which bounds the induced
        absolute error by ``eps_r * delta`` per unit degree (§5.2).
        """
        per_hop = self.per_hop_sums()
        grand_total = sum(per_hop)
        if grand_total <= 0.0:
            return [0.0] * len(per_hop)
        betas = [hop_sum / grand_total for hop_sum in per_hop]
        for hop, beta in enumerate(betas):
            if beta == 0.0:
                continue
            layer = self._layers[hop]
            reduction_per_degree = beta * eps_r * delta
            for node in list(layer.keys()):
                reduced = layer[node] - reduction_per_degree * graph.degree(node)
                if reduced > 0.0:
                    layer[node] = reduced
                else:
                    del layer[node]
        return betas

    def copy(self) -> "ResidueVectors":
        """Deep copy (used by tests and the ablation benchmarks)."""
        out = ResidueVectors(self._max_hop)
        out._layers = [dict(layer) for layer in self._layers]
        return out
