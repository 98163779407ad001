"""Tests for the sweep-cut procedure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.conductance import conductance
from repro.clustering.sweep import SweepResult, sweep_cut, sweep_from_ranking
from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.exact import exact_hkpr
from repro.hkpr.params import HKPRParams
from repro.hkpr.result import HKPRResult
from repro.utils.sparsevec import SparseVector


def scalar_sweep(graph, ranking, max_cluster_volume=None) -> SweepResult:
    """The per-node sweep loop: the reference the array sweep must equal."""
    volume_limit = (
        max_cluster_volume if max_cluster_volume is not None else graph.total_volume // 2
    )
    in_prefix = np.zeros(graph.num_nodes, dtype=bool)
    prefix_volume = prefix_cut = 0
    best_conductance, best_size = float("inf"), 0
    profile: list[float] = []
    order: list[int] = []
    for node in ranking:
        node = int(node)
        if in_prefix[node]:
            continue
        order.append(node)
        degree = graph.degree(node)
        internal_edges = int(np.count_nonzero(in_prefix[graph.neighbors(node)]))
        in_prefix[node] = True
        prefix_volume += degree
        prefix_cut += degree - 2 * internal_edges
        denominator = min(prefix_volume, graph.total_volume - prefix_volume)
        phi = 1.0 if denominator <= 0 else prefix_cut / denominator
        profile.append(phi)
        if phi < best_conductance and prefix_volume <= max(volume_limit, degree):
            best_conductance, best_size = phi, len(order)
    if best_size == 0:
        best_size, best_conductance = 1, profile[0]
    return SweepResult(set(order[:best_size]), best_conductance, order, profile, best_size)


def random_graph(rng) -> Graph:
    """A random sparse graph whose last few nodes are isolated."""
    n = int(rng.integers(2, 40))
    linked = max(1, n - int(rng.integers(0, 5)))
    pairs = rng.integers(0, linked, size=(int(rng.integers(0, 3 * n)), 2))
    return Graph(n, [(int(u), int(v)) for u, v in pairs], dedupe=True)


def two_cliques_graph() -> Graph:
    """Two K_5's joined by a single bridge edge."""
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(u, v) for u in range(5, 10) for v in range(u + 1, 10)]
    edges.append((0, 5))
    return Graph(10, edges)


class TestSweepFromRanking:
    def test_empty_ranking_rejected(self, small_ring):
        with pytest.raises(ParameterError):
            sweep_from_ranking(small_ring, [])

    def test_unknown_node_rejected(self, small_ring):
        with pytest.raises(ParameterError):
            sweep_from_ranking(small_ring, [0, 99])

    def test_profile_matches_direct_conductance(self, small_ring):
        ranking = [0, 1, 2, 3, 4]
        result = sweep_from_ranking(small_ring, ranking)
        for i, phi in enumerate(result.conductance_profile):
            assert phi == pytest.approx(conductance(small_ring, ranking[: i + 1]))

    def test_best_prefix_is_minimum_of_profile(self, small_ring):
        result = sweep_from_ranking(small_ring, [0, 1, 2, 3, 4])
        assert result.conductance == pytest.approx(min(result.conductance_profile))
        assert result.cluster == set([0, 1, 2, 3, 4][: result.best_prefix_size])

    def test_duplicates_ignored(self, small_ring):
        result = sweep_from_ranking(small_ring, [0, 0, 1, 1, 2])
        assert result.sweep_order == [0, 1, 2]

    def test_finds_planted_clique(self):
        graph = two_cliques_graph()
        # Rank the first clique's nodes first: the sweep should cut exactly there.
        result = sweep_from_ranking(graph, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
        assert result.cluster == {0, 1, 2, 3, 4}
        assert result.conductance == pytest.approx(1 / 21)

    def test_volume_cap(self, small_complete):
        # A cap smaller than any prefix volume still returns a single node.
        result = sweep_from_ranking(small_complete, [0, 1], max_cluster_volume=1)
        assert result.size >= 1


class TestSweepCut:
    def test_cluster_contains_seed(self, clustered_graph, default_params):
        hkpr = exact_hkpr(clustered_graph, 0, default_params)
        result = sweep_cut(clustered_graph, hkpr)
        assert 0 in result.cluster

    def test_include_seed_flag(self, small_ring):
        # A degenerate result with no mass at the seed.
        fake = HKPRResult(estimates=SparseVector({3: 1.0}), seed=0, method="fake")
        swept = sweep_cut(small_ring, fake, include_seed=True)
        assert 0 in swept.sweep_order

    def test_recovers_clique_from_exact_hkpr(self, default_params):
        graph = two_cliques_graph()
        hkpr = exact_hkpr(graph, 1, default_params)
        result = sweep_cut(graph, hkpr)
        assert result.cluster == {0, 1, 2, 3, 4}

    def test_conductance_profile_monotone_prefix_sizes(self, clustered_graph, default_params):
        hkpr = exact_hkpr(clustered_graph, 0, default_params)
        result = sweep_cut(clustered_graph, hkpr)
        assert len(result.conductance_profile) == len(result.sweep_order)
        assert 1 <= result.best_prefix_size <= len(result.sweep_order)

    def test_sweep_result_volume_helper(self, clustered_graph, default_params):
        hkpr = exact_hkpr(clustered_graph, 0, default_params)
        result = sweep_cut(clustered_graph, hkpr)
        assert result.volume(clustered_graph) == clustered_graph.volume(result.cluster)


class TestArraySweepParity:
    """The array sweep and ranking equal their per-node forms exactly."""

    def test_sweep_from_ranking_matches_scalar_loop(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            graph = random_graph(rng)
            # Drawn with replacement: repeats and isolated nodes included.
            ranking = rng.integers(0, graph.num_nodes, size=int(rng.integers(1, 60))).tolist()
            cap = rng.choice([None, 0, 1, 5, graph.total_volume // 4, graph.total_volume])
            cap = None if cap is None else int(cap)
            got = sweep_from_ranking(graph, ranking, max_cluster_volume=cap)
            want = scalar_sweep(graph, ranking, max_cluster_volume=cap)
            assert got.cluster == want.cluster
            assert got.conductance == want.conductance
            assert got.sweep_order == want.sweep_order
            assert got.conductance_profile == want.conductance_profile
            assert got.best_prefix_size == want.best_prefix_size

    def test_ranking_and_sweep_cut_match_sorted_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            graph = random_graph(rng)
            support = rng.choice(
                graph.num_nodes, size=int(rng.integers(1, graph.num_nodes + 1)), replace=False
            )
            # Few distinct values, so equal normalized scores (ties) are common.
            values = rng.choice([0.25, 0.5, 1.0, 2.0], size=support.size)
            seed = int(rng.integers(graph.num_nodes))  # may be missing from the support
            result = HKPRResult(
                estimates=SparseVector(dict(zip(support.tolist(), values.tolist()))),
                seed=seed,
                method="fake",
            )
            expected = sorted(
                result.support(), key=lambda v: (-result.normalized(v, graph), v)
            )
            assert result.ranking(graph) == expected
            if seed not in expected:
                expected.insert(0, seed)
            assert sweep_cut(graph, result) == scalar_sweep(graph, expected)
