"""Per-hop residue vectors shared by HK-Push, HK-Push+, TEA and TEA+.

Because heat kernel random walks are non-Markovian, residue mass produced at
different hop counts cannot be merged (unlike FORA-style PPR push).  The
push algorithms therefore maintain one sparse residue vector per hop,
``r_s^(0), r_s^(1), ...``.  :class:`ResidueVectors` stores each layer as a
``(nodes, values)`` array pair, set whole by
:meth:`ResidueVectors.set_layer` as the layered push
(:func:`repro.hkpr.hk_push.layered_push`) finishes each hop.  The
aggregates the algorithms need are computed on those arrays:

* total residue mass ``alpha`` (walk budget scaling in TEA/TEA+),
* the per-hop maximum of ``r^(k)[u] / d(u)`` (the Theorem-2 early-exit test),
* the non-zero entries as ``(hops, nodes, values)`` arrays (walk starts),
* the residue reduction of TEA+ (Algorithm 5, Lines 8-11).

Sums add left to right in layer order, as ``sum(values.tolist())``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.graph import Graph

_NO_NODES = np.zeros(0, dtype=np.int64)
_NO_VALUES = np.zeros(0)


def max_normalized(values: np.ndarray, degrees: np.ndarray) -> float:
    """``max_u r[u] / d(u)`` over one hop's entries (0.0 when there are none)."""
    linked = degrees > 0
    return float((values[linked] / degrees[linked]).max(initial=0.0))


class ResidueVectors:
    """Sparse per-hop residue vectors ``r_s^(k)[u]``."""

    def __init__(self, max_hop: int | None = None) -> None:
        self._layers: list[tuple[np.ndarray, np.ndarray]] = []
        self._max_hop = max_hop

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def get(self, hop: int, node: int) -> float:
        """Residue of ``node`` at hop ``hop`` (0.0 when absent)."""
        if hop < 0 or hop >= len(self._layers):
            return 0.0
        nodes, values = self._layers[hop]
        found = np.flatnonzero(nodes == node)
        return float(values[found[0]]) if found.size else 0.0

    def set_layer(self, hop: int, nodes: np.ndarray, values: np.ndarray) -> None:
        """Replace the residues at ``hop`` with ``nodes[i] -> values[i]``.

        The layer keeps the arrays, in their order, minus exact zeros; hops
        below ``hop`` that were never set are empty.  The caller hands the
        arrays over and must not write to them afterwards.
        """
        if hop < 0:
            raise ParameterError(f"hop must be non-negative, got {hop}")
        if self._max_hop is not None and hop > self._max_hop:
            raise ParameterError(
                f"hop {hop} exceeds the configured maximum hop {self._max_hop}"
            )
        while len(self._layers) <= hop:
            self._layers.append((_NO_NODES, _NO_VALUES))
        kept = values != 0.0
        if not kept.all():
            nodes, values = nodes[kept], values[kept]
        self._layers[hop] = (nodes, values)

    def layer(self, hop: int) -> dict[int, float]:
        """The residues at ``hop`` as a new dictionary (possibly empty)."""
        if hop < 0 or hop >= len(self._layers):
            return {}
        nodes, values = self._layers[hop]
        return dict(zip(nodes.tolist(), values.tolist()))

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
            if self._layers[hop][0].size:
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
        parts = self._layers
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
        return sum(int(nodes.size) for nodes, _ in self._layers)

    def max_normalized_sum(self, graph: Graph) -> float:
        """``sum_k max_u r^(k)[u] / d(u)`` — the Theorem-2 / early-exit quantity."""
        total = 0.0
        for nodes, values in self._layers:
            total += max_normalized(values, graph.degrees[nodes])
        return total

    def per_hop_sums(self) -> list[float]:
        """Total residue per hop (used to compute TEA+'s ``beta_k``)."""
        return [sum(values.tolist()) for _, values in self._layers]

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
            nodes, values = self._layers[hop]
            reduction_per_degree = beta * eps_r * delta
            reduced = values - reduction_per_degree * graph.degrees[nodes]
            kept = reduced > 0.0
            self._layers[hop] = (nodes[kept], reduced[kept])
        return betas
