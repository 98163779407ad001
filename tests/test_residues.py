"""Tests for the per-hop residue vectors shared by the push algorithms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.graph.generators import star_graph
from repro.hkpr.residues import ResidueVectors


def entries(residues: ResidueVectors) -> list[tuple[int, int, float]]:
    """``(hop, node, residue)`` triples of the positive entries."""
    hops, nodes, values = residues.entry_arrays()
    return list(zip(hops.tolist(), nodes.tolist(), values.tolist()))


def filled(layers: dict[int, dict[int, float]], max_hop: int | None = None):
    """Residues with ``layers[hop] = {node: value}``, set one layer at a time."""
    residues = ResidueVectors(max_hop)
    for hop, layer in sorted(layers.items()):
        residues.set_layer(
            hop,
            np.array(list(layer), dtype=np.int64),
            np.array(list(layer.values()), dtype=float),
        )
    return residues


class TestBasicOperations:
    def test_get_defaults_to_zero(self):
        residues = ResidueVectors()
        assert residues.get(0, 5) == 0.0
        assert residues.get(3, 5) == 0.0

    def test_set_and_get(self):
        residues = filled({2: {7: 0.25}})
        assert residues.get(2, 7) == 0.25
        assert residues.get(2, 6) == 0.0
        assert residues.num_hops == 3

    def test_set_zero_removes(self):
        residues = filled({0: {1: 0.0}})
        assert residues.num_nonzero() == 0

    def test_negative_hop_rejected(self):
        with pytest.raises(ParameterError):
            filled({-1: {0: 0.1}})

    def test_max_hop_enforced(self):
        filled({2: {0: 0.1}}, max_hop=2)
        with pytest.raises(ParameterError):
            filled({3: {0: 0.1}}, max_hop=2)

    def test_layer_view(self):
        residues = filled({1: {2: 0.3}})
        assert residues.layer(1) == {2: 0.3}
        assert residues.layer(0) == {}
        assert residues.layer(9) == {}


class TestAggregates:
    def test_total_and_nonzero(self):
        residues = filled({0: {0: 0.2}, 1: {1: 0.3}, 2: {2: 0.5}})
        assert residues.total() == pytest.approx(1.0)
        assert residues.num_nonzero() == 3
        assert entries(residues) == [
            (0, 0, 0.2),
            (1, 1, 0.3),
            (2, 2, 0.5),
        ]

    def test_max_nonzero_hop(self):
        residues = ResidueVectors()
        assert residues.max_nonzero_hop() == -1
        residues = filled({0: {0: 0.1}, 4: {2: 0.1}})
        assert residues.max_nonzero_hop() == 4
        residues.set_layer(4, np.zeros(0, np.int64), np.zeros(0))
        assert residues.max_nonzero_hop() == 0

    def test_per_hop_sums(self):
        residues = filled({0: {0: 0.25, 1: 0.25}, 2: {2: 0.5}})
        assert residues.per_hop_sums() == [pytest.approx(0.5), 0.0, pytest.approx(0.5)]

    def test_max_normalized_sum(self):
        graph = star_graph(5)  # node 0 has degree 4, leaves degree 1
        residues = filled(
            {
                0: {0: 0.4, 1: 0.05},  # normalized 0.1 and 0.05
                1: {2: 0.2},  # normalized 0.2
            }
        )
        assert residues.max_normalized_sum(graph) == pytest.approx(0.1 + 0.2)


class TestResidueReduction:
    def test_betas_sum_to_one_and_proportional(self):
        graph = star_graph(5)
        residues = filled({0: {1: 0.1}, 1: {2: 0.3}})
        betas = residues.reduce_residues(graph, eps_r=0.5, delta=1e-6)
        assert sum(betas) == pytest.approx(1.0)
        assert betas[1] == pytest.approx(0.75)

    def test_reduction_amount_bounded(self):
        graph = star_graph(6)
        residues = filled({0: {0: 0.5}, 1: {1: 0.5}})
        before = {(h, n): v for h, n, v in entries(residues)}
        betas = residues.reduce_residues(graph, eps_r=0.5, delta=0.01)
        for hop, node, value in entries(residues):
            reduction = before[(hop, node)] - value
            assert reduction <= betas[hop] * 0.5 * 0.01 * graph.degree(node) + 1e-12
            assert value >= 0.0

    def test_large_reduction_zeroes_everything(self):
        graph = star_graph(4)
        residues = filled({0: {1: 1e-6}})
        residues.reduce_residues(graph, eps_r=0.9, delta=0.5)
        assert residues.num_nonzero() == 0

    def test_empty_residues_noop(self):
        graph = star_graph(4)
        residues = ResidueVectors()
        assert residues.reduce_residues(graph, 0.5, 0.1) == []
