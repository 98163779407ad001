"""Tests for the non-HKPR local clustering baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.crd import capacity_releasing_diffusion
from repro.baselines.nibble import nibble
from repro.baselines.pr_nibble import approximate_ppr, pr_nibble
from repro.baselines.simple_local import simple_local
from repro.clustering.conductance import conductance
from repro.exceptions import ParameterError
from repro.graph.generators import chung_lu_graph, power_law_degree_sequence
from repro.graph.graph import Graph
from repro.ppr.exact import exact_ppr


def two_cliques_graph() -> Graph:
    """Two K_5's joined by a single bridge edge — the canonical easy instance."""
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(u, v) for u in range(5, 10) for v in range(u + 1, 10)]
    edges.append((0, 5))
    return Graph(10, edges)


class TestApproximatePPR:
    def test_mass_conservation(self, clustered_graph):
        reserve, residual, _ = approximate_ppr(clustered_graph, 0, eps=1e-4)
        assert reserve.sum() + residual.sum() == pytest.approx(1.0, abs=1e-9)

    def test_residuals_below_threshold(self, clustered_graph):
        eps = 1e-4
        _, residual, _ = approximate_ppr(clustered_graph, 0, eps=eps)
        for node, value in residual.items():
            assert value < eps * clustered_graph.degree(node) + 1e-12

    def test_invariant_exact_with_isolated_nodes(self):
        """ACL's lazy push keeps ``reserve + sum_u r[u] * pr_u = pr_s`` for
        the lazy PPR, which is PPR with ``alpha' = 2 alpha / (1 + alpha)``,
        from a hub seed and from an isolated one (which settles its whole
        mass in place)."""
        alpha = 0.2
        lazy_alpha = 2.0 * alpha / (1.0 + alpha)
        degs = power_law_degree_sequence(150, 2.5, 2, 15, seed=9)
        graph = chung_lu_graph(degs, seed=9, connected=False)
        n = graph.num_nodes
        isolated = np.flatnonzero(graph.degrees == 0)
        assert isolated.size == 10

        def ppr(node):
            return exact_ppr(
                graph, node, alpha=lazy_alpha, tolerance=1e-14
            ).to_dense(graph)

        for seed in (int(np.argmax(graph.degrees)), int(isolated[0])):
            reserve, residual, _ = approximate_ppr(graph, seed, alpha=alpha, eps=1e-4)
            reconstructed = reserve.to_dense(n)
            for node, value in residual.items():
                reconstructed += value * ppr(node)
            assert np.abs(reconstructed - ppr(seed)).max() <= 1e-10

    def test_invalid_parameters(self, clustered_graph):
        with pytest.raises(ParameterError):
            approximate_ppr(clustered_graph, 10**6)
        with pytest.raises(ParameterError):
            approximate_ppr(clustered_graph, 0, alpha=0.0)
        with pytest.raises(ParameterError):
            approximate_ppr(clustered_graph, 0, eps=0.0)


class TestPRNibble:
    def test_recovers_planted_clique(self):
        graph = two_cliques_graph()
        result = pr_nibble(graph, 1, eps=1e-5)
        assert result.cluster == {0, 1, 2, 3, 4}
        assert result.method == "pr-nibble"

    def test_contains_seed_and_valid_conductance(self, clustered_graph):
        result = pr_nibble(clustered_graph, 0, eps=1e-4)
        assert result.contains_seed()
        assert 0.0 <= result.conductance <= 1.0
        assert result.conductance == pytest.approx(
            conductance(clustered_graph, result.cluster)
        )


class TestNibble:
    def test_recovers_planted_clique(self):
        graph = two_cliques_graph()
        result = nibble(graph, 2, steps=15, truncation=1e-6)
        assert result.cluster == {0, 1, 2, 3, 4}

    def test_invalid_parameters(self, clustered_graph):
        with pytest.raises(ParameterError):
            nibble(clustered_graph, 10**6)
        with pytest.raises(ParameterError):
            nibble(clustered_graph, 0, steps=0)
        with pytest.raises(ParameterError):
            nibble(clustered_graph, 0, truncation=-1.0)

    def test_contains_seed(self, clustered_graph):
        result = nibble(clustered_graph, 5, steps=10)
        assert result.contains_seed()


class TestSimpleLocal:
    def test_recovers_planted_clique(self):
        graph = two_cliques_graph()
        result = simple_local(graph, 1, locality=0.05)
        assert 1 in result.cluster
        assert result.conductance <= conductance(graph, range(10 // 2)) + 1e-9

    def test_invalid_parameters(self, clustered_graph):
        with pytest.raises(ParameterError):
            simple_local(clustered_graph, 10**6)
        with pytest.raises(ParameterError):
            simple_local(clustered_graph, 0, locality=0.0)

    def test_contains_seed_and_valid_conductance(self, clustered_graph):
        result = simple_local(clustered_graph, 0, locality=0.1, max_iterations=5)
        assert result.contains_seed()
        assert 0.0 <= result.conductance <= 1.0


class TestCRD:
    def test_recovers_planted_clique(self):
        graph = two_cliques_graph()
        result = capacity_releasing_diffusion(graph, 3, iterations=8)
        assert 3 in result.cluster
        # The returned cluster should be clearly better than a random half.
        assert result.conductance <= 0.3

    def test_invalid_parameters(self, clustered_graph):
        with pytest.raises(ParameterError):
            capacity_releasing_diffusion(clustered_graph, 10**6)
        with pytest.raises(ParameterError):
            capacity_releasing_diffusion(clustered_graph, 0, iterations=0)
        with pytest.raises(ParameterError):
            capacity_releasing_diffusion(clustered_graph, 0, capacity_multiplier=0.0)

    def test_contains_seed_and_valid_conductance(self, clustered_graph):
        result = capacity_releasing_diffusion(clustered_graph, 0, iterations=6)
        assert result.contains_seed()
        assert 0.0 <= result.conductance <= 1.0
        assert result.work >= 0

    def test_more_iterations_spread_more_mass(self, clustered_graph):
        small = capacity_releasing_diffusion(clustered_graph, 0, iterations=3)
        large = capacity_releasing_diffusion(clustered_graph, 0, iterations=12)
        assert large.details["support_size"] >= small.details["support_size"]
