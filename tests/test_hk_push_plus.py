"""Tests for HK-Push+ (Algorithm 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.graph.generators import powerlaw_cluster_graph, ring_graph, star_graph
from repro.graph.graph import Graph
from repro.hkpr.exact import exact_hkpr_dense
from repro.hkpr.hk_push_plus import hk_push_plus
from repro.hkpr.poisson import PoissonWeights


def dense_push_plus(graph, seed, eps_r, delta, max_hop, budget, weights):
    """Dense per-hop reference for HK-Push+ without the Theorem-2 exit.

    Hop ``k``'s above-threshold entries are pushed one at a time in
    ascending node order; the round that brings the spent degree total to
    ``budget`` is the last one.  Returns ``(reserve, layers, pushes_used,
    last_pushed)`` with ``layers[k]`` the dense hop-``k`` residue.
    """
    degrees = graph.degrees
    threshold = eps_r * delta / max_hop
    reserve = np.zeros(graph.num_nodes)
    layers = np.zeros((max_hop + 1, graph.num_nodes))
    layers[0, seed] = 1.0
    used, last = 0, None
    for hop in range(max_hop):
        stop = weights.stop_probability(hop)
        for node in np.flatnonzero(layers[hop] > threshold * degrees):
            residue = layers[hop, node]
            layers[hop, node] = 0.0
            used += int(degrees[node])
            last = int(node)
            if degrees[node] == 0:
                reserve[node] += residue
            else:
                reserve[node] += stop * residue
                share = (1.0 - stop) * residue / degrees[node]
                np.add.at(layers[hop + 1], graph.neighbors(node), share)
            if used >= budget:
                return reserve, layers, used, last
    return reserve, layers, used, last


def dense_residues(outcome, graph, max_hop):
    layers = np.zeros((max_hop + 1, graph.num_nodes))
    for hop in range(max_hop + 1):
        for node, value in outcome.residues.layer(hop).items():
            layers[hop, node] = value
    return layers


GRAPHS = {
    "ring": lambda: ring_graph(12),
    "star": lambda: star_graph(9),
    "powerlaw": lambda: powerlaw_cluster_graph(300, 4, 0.3, seed=42),
    "isolated-nodes": lambda: Graph(6, [(1, 2), (2, 3), (3, 1), (3, 4)]),
}


class TestValidation:
    def test_invalid_seed(self, weights_t5, small_ring):
        with pytest.raises(ParameterError):
            hk_push_plus(small_ring, 99, 0.5, 1e-3, 5, 100, weights_t5)

    @pytest.mark.parametrize(
        "eps_r,delta,max_hop,budget",
        [
            (0.0, 1e-3, 5, 100),
            (0.5, 0.0, 5, 100),
            (0.5, 1e-3, 0, 100),
            (0.5, 1e-3, 5, 0),
        ],
    )
    def test_invalid_parameters(self, weights_t5, small_ring, eps_r, delta, max_hop, budget):
        with pytest.raises(ParameterError):
            hk_push_plus(small_ring, 0, eps_r, delta, max_hop, budget, weights_t5)


class TestBehaviour:
    def test_mass_conservation(self, weights_t5, small_ring):
        outcome = hk_push_plus(small_ring, 0, 0.5, 1e-3, 8, 10_000, weights_t5)
        total = outcome.reserve.sum() + outcome.residues.total()
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_hop_cap_respected(self, weights_t5, medium_powerlaw):
        max_hop = 3
        outcome = hk_push_plus(
            medium_powerlaw, 0, 0.5, 1e-4, max_hop, 1_000_000, weights_t5
        )
        assert outcome.residues.max_nonzero_hop() <= max_hop

    def test_budget_exhaustion_flag(self, weights_t5, medium_powerlaw):
        outcome = hk_push_plus(
            medium_powerlaw, 0, 0.5, 1e-6, 10, 50, weights_t5
        )
        assert outcome.budget_exhausted
        assert outcome.pushes_used >= 50

    def test_early_exit_when_target_met(self, weights_t5, small_ring):
        # Generous delta and a hop cap beyond the Poisson horizon: the push
        # phase alone satisfies Theorem 2.
        outcome = hk_push_plus(small_ring, 0, 0.9, 0.05, 30, 1_000_000, weights_t5)
        assert outcome.satisfied_early_exit
        assert outcome.residues.max_normalized_sum(small_ring) <= 0.9 * 0.05 + 1e-12

    def test_theorem2_absolute_error_bound(self, weights_t5, small_ring):
        """When the early-exit condition holds, every degree-normalized error
        is at most eps_r * delta (Theorem 2)."""
        eps_r, delta = 0.5, 0.01
        outcome = hk_push_plus(
            small_ring, 0, eps_r, delta, 10, 1_000_000, weights_t5
        )
        assert outcome.satisfied_early_exit
        exact = exact_hkpr_dense(small_ring, 0, weights_t5.t)
        reserve = outcome.reserve.to_dense(small_ring.num_nodes)
        degrees = small_ring.degrees.astype(float)
        normalized_error = np.abs(reserve - exact) / degrees
        assert np.max(normalized_error) <= eps_r * delta + 1e-9

    def test_reserve_is_lower_bound(self, weights_t5, medium_powerlaw):
        outcome = hk_push_plus(
            medium_powerlaw, 0, 0.5, 1e-3, 8, 500_000, weights_t5
        )
        exact = exact_hkpr_dense(medium_powerlaw, 0, weights_t5.t)
        reserve = outcome.reserve.to_dense(medium_powerlaw.num_nodes)
        assert np.all(reserve <= exact + 1e-9)

    def test_tighter_delta_means_more_pushes(self, weights_t5, medium_powerlaw):
        loose = hk_push_plus(medium_powerlaw, 0, 0.5, 1e-2, 8, 10**6, weights_t5)
        tight = hk_push_plus(medium_powerlaw, 0, 0.5, 1e-4, 8, 10**6, weights_t5)
        assert tight.counters.push_operations >= loose.counters.push_operations

    def test_star_hub_seed(self, weights_t5):
        graph = star_graph(10)
        outcome = hk_push_plus(graph, 0, 0.5, 1e-3, 6, 10_000, weights_t5)
        # The hub keeps a large reserve and the leaves share the rest equally.
        leaf_reserves = {outcome.reserve[v] for v in range(1, 10)}
        assert len(leaf_reserves) == 1
        assert outcome.reserve[0] > outcome.reserve[1]

    def test_isolated_seed(self, weights_t5):
        from repro.graph.graph import Graph

        graph = Graph(3, [(1, 2)])
        outcome = hk_push_plus(graph, 0, 0.5, 1e-3, 4, 1000, weights_t5)
        # All mass stays at the isolated seed (either as residue or reserve).
        assert outcome.reserve[0] + outcome.residues.get(0, 0) == pytest.approx(1.0)


class TestHopSchedule:
    """The hop-at-a-time push against the dense per-hop reference."""

    @pytest.mark.parametrize(
        "graph_name,seed,delta,max_hop",
        [
            ("ring", 0, 1e-9, 6),
            ("star", 0, 1e-9, 5),
            ("star", 4, 1e-9, 5),
            ("powerlaw", 0, 1e-9, 4),
            ("powerlaw", 0, 1e-3, 3),  # some entries stay below the threshold
            ("powerlaw", 7, 1e-3, 4),
            ("isolated-nodes", 2, 1e-9, 5),
        ],
    )
    def test_matches_dense_reference(self, weights_t5, graph_name, seed, delta, max_hop):
        graph = GRAPHS[graph_name]()
        outcome = hk_push_plus(graph, seed, 0.5, delta, max_hop, 10**9, weights_t5)
        reserve, layers, used, _ = dense_push_plus(
            graph, seed, 0.5, delta, max_hop, 10**9, weights_t5
        )
        # Budget and early exit both out of reach: the full hop-capped push.
        assert not outcome.budget_exhausted
        assert not outcome.satisfied_early_exit
        assert outcome.pushes_used == used
        np.testing.assert_allclose(
            outcome.reserve.to_dense(graph.num_nodes), reserve, rtol=1e-12, atol=0
        )
        np.testing.assert_allclose(
            dense_residues(outcome, graph, max_hop), layers, rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("budget", [1, 4, 9, 50, 333, 1000, 2500])
    @pytest.mark.parametrize("seed", [0, 41])
    def test_budget_cut_is_exact(self, weights_t5, budget, seed):
        graph = GRAPHS["powerlaw"]()
        outcome = hk_push_plus(graph, seed, 0.5, 1e-9, 8, budget, weights_t5)
        reserve, layers, used, last = dense_push_plus(
            graph, seed, 0.5, 1e-9, 8, budget, weights_t5
        )
        assert outcome.budget_exhausted
        assert outcome.pushes_used == used
        assert outcome.pushes_used >= budget
        assert outcome.pushes_used - graph.degree(last) < budget
        np.testing.assert_allclose(
            outcome.reserve.to_dense(graph.num_nodes), reserve, rtol=1e-12, atol=0
        )
        np.testing.assert_allclose(
            dense_residues(outcome, graph, 8), layers, rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize(
        "graph_name,seed,eps_r,delta,max_hop,budget",
        [
            ("ring", 0, 0.9, 0.05, 30, 10**6),  # Theorem 2 holds between hops
            ("powerlaw", 0, 0.5, 1e-3, 8, 10**6),
            ("powerlaw", 0, 0.5, 1e-6, 10, 50),  # budget exhausted
            ("powerlaw", 9, 0.5, 1e-9, 3, 10**9),  # hop cap reached
            ("isolated-nodes", 0, 0.5, 1e-3, 4, 1000),  # isolated seed
            ("isolated-nodes", 5, 0.5, 1e-3, 4, 1000),
            ("star", 3, 0.5, 0.2, 4, 1000),  # frontier drains
        ],
    )
    def test_outcome_carries_theorem2_sum(
        self, weights_t5, graph_name, seed, eps_r, delta, max_hop, budget
    ):
        graph = GRAPHS[graph_name]()
        outcome = hk_push_plus(graph, seed, eps_r, delta, max_hop, budget, weights_t5)
        assert outcome.normalized_residue_sum == outcome.residues.max_normalized_sum(graph)
        assert outcome.satisfied_early_exit == (
            outcome.normalized_residue_sum <= eps_r * delta
        )
