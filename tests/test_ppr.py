"""Tests for the personalized PageRank subpackage (exact, push, FORA)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConvergenceError, ParameterError
from repro.graph.generators import (
    chung_lu_graph,
    complete_graph,
    power_law_degree_sequence,
    star_graph,
)
from repro.graph.graph import Graph
from repro.ppr.exact import exact_ppr
from repro.ppr.fora import fora, monte_carlo_ppr, walk_count
from repro.ppr.push import forward_push


class TestExactPPR:
    def test_mass_sums_to_one(self, medium_powerlaw):
        result = exact_ppr(medium_powerlaw, 0, alpha=0.2)
        assert result.total_mass(medium_powerlaw) == pytest.approx(1.0, abs=1e-6)

    def test_invalid_parameters(self, small_ring):
        with pytest.raises(ParameterError):
            exact_ppr(small_ring, 99)
        with pytest.raises(ParameterError):
            exact_ppr(small_ring, 0, alpha=0.0)

    def test_seed_has_largest_value(self, small_ring):
        dense = exact_ppr(small_ring, 3, alpha=0.2).to_dense(small_ring)
        assert np.argmax(dense) == 3

    def test_two_node_closed_form(self):
        """On a single edge, pi_s[s] = 1/(2 - alpha) ... via symmetry of the
        stationary equations: pi[s] = alpha + (1-alpha) pi[v], pi[v] = (1-alpha) pi[s]."""
        alpha = 0.3
        graph = Graph(2, [(0, 1)])
        dense = exact_ppr(graph, 0, alpha=alpha).to_dense(graph)
        expected_seed = 1.0 / (2.0 - alpha)
        assert dense[0] == pytest.approx(expected_seed, abs=1e-9)
        assert dense[1] == pytest.approx(1.0 - expected_seed, abs=1e-9)

    def test_isolated_seed_keeps_mass(self):
        graph = Graph(3, [(1, 2)])
        dense = exact_ppr(graph, 0, alpha=0.2).to_dense(graph)
        assert dense[0] == pytest.approx(1.0, abs=1e-9)

    def test_nonconvergence_raises(self, small_ring):
        with pytest.raises(ConvergenceError):
            exact_ppr(small_ring, 0, alpha=0.01, tolerance=1e-15, max_iterations=2)


class TestForwardPush:
    def test_mass_conservation(self, medium_powerlaw):
        outcome = forward_push(medium_powerlaw, 0, alpha=0.2, r_max=1e-4)
        assert outcome.reserve.sum() + outcome.residue.sum() == pytest.approx(1.0, abs=1e-9)

    def test_residues_below_threshold(self, medium_powerlaw):
        r_max = 1e-4
        outcome = forward_push(medium_powerlaw, 0, alpha=0.2, r_max=r_max)
        for node, value in outcome.residue.items():
            assert value <= r_max * medium_powerlaw.degree(node) + 1e-12

    def test_reserve_lower_bounds_exact(self, small_ring):
        outcome = forward_push(small_ring, 0, alpha=0.2, r_max=1e-5)
        exact = exact_ppr(small_ring, 0, alpha=0.2).to_dense(small_ring)
        reserve = outcome.reserve.to_dense(small_ring.num_nodes)
        assert np.all(reserve <= exact + 1e-9)

    def test_invalid_parameters(self, small_ring):
        with pytest.raises(ParameterError):
            forward_push(small_ring, 99)
        with pytest.raises(ParameterError):
            forward_push(small_ring, 0, alpha=1.5)
        with pytest.raises(ParameterError):
            forward_push(small_ring, 0, r_max=0.0)

    def test_isolated_seed(self):
        graph = Graph(2, [])
        outcome = forward_push(graph, 0, alpha=0.2, r_max=1e-3)
        assert outcome.reserve[0] == pytest.approx(1.0)


    def test_invariant_exact_with_isolated_nodes(self):
        """``reserve + sum_u r[u] * ppr_u`` reproduces ``ppr_s`` to float
        accuracy, from a hub seed and from an isolated one (which settles
        its whole mass in place)."""
        alpha = 0.2
        degs = power_law_degree_sequence(150, 2.5, 2, 15, seed=9)
        graph = chung_lu_graph(degs, seed=9, connected=False)
        n = graph.num_nodes
        isolated = np.flatnonzero(graph.degrees == 0)
        assert isolated.size == 10

        def ppr(node):
            return exact_ppr(graph, node, alpha=alpha, tolerance=1e-14).to_dense(graph)

        for seed in (int(np.argmax(graph.degrees)), int(isolated[0])):
            outcome = forward_push(graph, seed, alpha=alpha, r_max=1e-4)
            reconstructed = outcome.reserve.to_dense(n)
            for node, value in outcome.residue.items():
                if value:
                    reconstructed += value * ppr(node)
            assert np.abs(reconstructed - ppr(seed)).max() <= 1e-10


class TestFora:
    def test_walk_count_formula_positive_and_monotone(self, small_ring):
        loose = walk_count(small_ring, 0.5, 1e-2, 1e-4)
        tight = walk_count(small_ring, 0.5, 1e-4, 1e-4)
        assert 0 < loose < tight

    def test_walk_count_invalid(self, small_ring):
        with pytest.raises(ParameterError):
            walk_count(small_ring, 0.0, 1e-3, 1e-4)

    @pytest.mark.parametrize("eps_r,delta", [(1e-200, 1e-3), (1e-154, 1e-4)])
    def test_walk_count_beyond_the_float_range(self, small_ring, eps_r, delta):
        with pytest.raises(ParameterError, match="eps_r .* or delta"):
            walk_count(small_ring, eps_r, delta, 1e-4)

    def test_close_to_exact(self, rng):
        graph = complete_graph(10)
        exact = exact_ppr(graph, 0, alpha=0.2).to_dense(graph)
        estimate = fora(graph, 0, alpha=0.2, eps_r=0.5, delta=1e-2, rng=rng).to_dense(graph)
        assert np.max(np.abs(estimate - exact)) < 0.05

    def test_deterministic_given_seed(self, small_ring):
        a = fora(small_ring, 0, rng=3, max_walks=500)
        b = fora(small_ring, 0, rng=3, max_walks=500)
        assert a.estimates.to_dict() == b.estimates.to_dict()

    def test_invalid_seed(self, small_ring):
        with pytest.raises(ParameterError):
            fora(small_ring, 99)

    def test_records_omega_and_alpha_mass(self, small_ring):
        result = fora(small_ring, 0, rng=1, max_walks=200)
        assert result.counters.extras["omega"] > 0
        assert result.counters.extras["alpha_mass"] >= 0.0
        assert result.method == "fora"


class TestMonteCarloPPR:
    def test_mass_sums_to_one(self, small_ring):
        result = monte_carlo_ppr(small_ring, 0, alpha=0.2, num_walks=2000, rng=1)
        assert result.total_mass(small_ring) == pytest.approx(1.0, abs=1e-9)

    def test_close_to_exact_on_star(self, rng):
        graph = star_graph(6)
        exact = exact_ppr(graph, 0, alpha=0.3).to_dense(graph)
        estimate = monte_carlo_ppr(graph, 0, alpha=0.3, num_walks=30_000, rng=rng).to_dense(graph)
        assert np.max(np.abs(estimate - exact)) < 0.02

    def test_invalid_parameters(self, small_ring):
        with pytest.raises(ParameterError):
            monte_carlo_ppr(small_ring, 0, num_walks=0)
        with pytest.raises(ParameterError):
            monte_carlo_ppr(small_ring, 99)

    @pytest.mark.parametrize(
        ("alpha", "num_walks"), [(5e-324, 10_000), (1e-4, 10_000), (1e-7, 1)]
    )
    def test_alpha_below_the_restart_floor_is_rejected(
        self, small_ring, alpha, num_walks
    ):
        # One geometric kernel call runs about ln(walks) / alpha levels with
        # no deadline checkpoint: 10,000 walks at 1e-4 answered seconds late,
        # at 5e-324 never, and a single walk at 1e-7 runs ~10^7 levels.
        from repro import estimate

        with pytest.raises(ParameterError, match="alpha"):
            monte_carlo_ppr(small_ring, 0, alpha=alpha, num_walks=num_walks)
        with pytest.raises(ParameterError, match="alpha"):
            fora(small_ring, 0, alpha=alpha)
        with pytest.raises(ParameterError, match="alpha"):
            estimate(small_ring, 0, method="mc-ppr", alpha=alpha, num_walks=num_walks)
        with pytest.raises(ParameterError, match="alpha"):
            estimate(small_ring, 0, method="fora", alpha=alpha)

    def test_alpha_at_the_floor_is_served(self, small_ring):
        result = monte_carlo_ppr(small_ring, 0, alpha=1e-3, num_walks=200, rng=1)
        assert result.counters.random_walks == 200
        assert result.total_mass(small_ring) == pytest.approx(1.0, abs=1e-9)

    def test_many_walks_at_the_default_alpha_are_accepted(self, small_ring):
        # The walk count itself is not capped: big counts run in chunks with
        # a deadline checkpoint before each (and the service sheds them with
        # a 429 when they exceed its in-flight walk budget).
        from repro import estimate

        result = estimate(small_ring, 0, method="mc-ppr", num_walks=2_000_000, rng=1)
        assert result.counters.random_walks == 2_000_000


class TestPPRvsHKPRContrast:
    def test_both_diffusions_rank_seed_neighborhood_first(self, clustered_graph):
        """The §6 point made empirical: both diffusions are local, but they
        are *different* measures (their rankings need not coincide)."""
        from repro.hkpr.exact import exact_hkpr
        from repro.hkpr.params import HKPRParams

        ppr = exact_ppr(clustered_graph, 0, alpha=0.15)
        hkpr = exact_hkpr(clustered_graph, 0, HKPRParams(delta=1e-3))
        top_ppr = set(ppr.ranking(clustered_graph)[:10])
        top_hkpr = set(hkpr.ranking(clustered_graph)[:10])
        # Seed's own block dominates both top-10 lists.
        assert len(top_ppr & top_hkpr) >= 5
