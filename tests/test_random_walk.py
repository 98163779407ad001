"""Tests for k-RandomWalk (Algorithm 2) and the Poisson-length walk."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.graph.generators import complete_graph, ring_graph, star_graph
from repro.graph.graph import Graph
from repro.hkpr.poisson import PoissonWeights
from repro.hkpr.random_walk import k_random_walk, poisson_length_walk
from repro.utils.counters import OperationCounters


class TestKRandomWalk:
    def test_returns_valid_node(self, weights_t5, rng, small_ring):
        for _ in range(50):
            end = k_random_walk(small_ring, 0, 0, weights_t5, rng)
            assert small_ring.has_node(end)

    def test_invalid_start_rejected(self, weights_t5, rng, small_ring):
        with pytest.raises(ParameterError):
            k_random_walk(small_ring, 99, 0, weights_t5, rng)

    def test_negative_hop_rejected(self, weights_t5, rng, small_ring):
        with pytest.raises(ParameterError):
            k_random_walk(small_ring, 0, -1, weights_t5, rng)

    def test_isolated_node_returns_itself(self, weights_t5, rng):
        graph = Graph(2, [])
        assert k_random_walk(graph, 0, 0, weights_t5, rng) == 0

    def test_hop_offset_beyond_truncation_stays_put(self, weights_t5, rng, small_ring):
        hop = weights_t5.max_hop + 1
        assert k_random_walk(small_ring, 3, hop, weights_t5, rng) == 3

    def test_counters_record_steps(self, weights_t5, rng, small_ring):
        counters = OperationCounters()
        for _ in range(10):
            k_random_walk(small_ring, 0, 0, weights_t5, rng, counters=counters)
        assert counters.random_walks == 10
        assert counters.walk_steps >= 0

    def test_expected_length_at_most_t_lemma4(self, rng):
        """Lemma 4: the expected number of traversed edges is at most t."""
        t = 5.0
        weights = PoissonWeights(t)
        graph = complete_graph(20)
        counters = OperationCounters()
        walks = 4000
        for _ in range(walks):
            k_random_walk(graph, 0, 0, weights, rng, counters=counters)
        average_steps = counters.walk_steps / walks
        assert average_steps <= t + 0.35
        # And it is close to t for hop offset 0 on a non-trivial graph.
        assert average_steps >= t - 0.6

    def test_larger_hop_offset_gives_shorter_walks(self, rng):
        """Conditioned on having already taken k hops, fewer steps remain."""
        weights = PoissonWeights(5.0)
        graph = complete_graph(10)

        def average_steps(hop_offset: int) -> float:
            counters = OperationCounters()
            for _ in range(2000):
                k_random_walk(graph, 0, hop_offset, weights, rng, counters=counters)
            return counters.walk_steps / counters.random_walks

        assert average_steps(0) > average_steps(4) > average_steps(10)

    def test_distribution_matches_h_uk_on_two_node_graph(self, rng):
        """On one edge, h_u^(0)[u] = sum_{even l} eta(l) = e^{-t} cosh(t)."""
        import math

        t = 2.0
        weights = PoissonWeights(t)
        graph = Graph(2, [(0, 1)])
        walks = 20000
        ends_at_start = sum(
            1 for _ in range(walks) if k_random_walk(graph, 0, 0, weights, rng) == 0
        )
        expected = math.exp(-t) * math.cosh(t)
        assert ends_at_start / walks == pytest.approx(expected, abs=0.02)


class _ZeroDrawRNG:
    """Stub generator whose uniform draws are always 0.0 (the infimum of
    ``random()``'s support) and whose integer draws are always 0."""

    def random(self):
        return 0.0

    def integers(self, *args, **kwargs):
        return 0


class _StubWeights:
    """Stop probability 0 for the first ``free_hops`` hops, then 1."""

    def __init__(self, free_hops: int) -> None:
        self.free_hops = free_hops

    def stop_probability(self, k: int) -> float:
        return 0.0 if k < self.free_hops else 1.0


class TestStopTestConvention:
    def test_zero_stop_probability_never_stops(self, small_ring):
        """``rng.random()`` draws from [0, 1), so a drawn 0.0 must NOT
        trigger a stop when the stop probability is exactly 0.0 (the old
        ``<=`` comparison stopped there, skewing the length distribution)."""
        counters = OperationCounters()
        end = k_random_walk(
            small_ring, 0, 0, _StubWeights(5), _ZeroDrawRNG(), counters=counters
        )
        assert counters.walk_steps == 5
        assert small_ring.has_node(end)

    def test_walk_length_distribution_matches_poisson_law(self):
        """Regression pin: from hop offset 0 the number of traversed edges
        is exactly Poisson(t) distributed (Lemma 2), so the empirical CDF
        must match ``PoissonWeights.eta`` to KS accuracy."""
        t = 3.0
        weights = PoissonWeights(t)
        graph = complete_graph(8)
        rng = np.random.default_rng(321)
        walks = 6000
        lengths = np.empty(walks, dtype=np.int64)
        for i in range(walks):
            counters = OperationCounters()
            k_random_walk(graph, 0, 0, weights, rng, counters=counters)
            lengths[i] = counters.walk_steps
        empirical = np.bincount(lengths, minlength=weights.max_hop + 1) / walks
        expected = weights.eta_array(weights.max_hop)
        ks_distance = np.max(np.abs(np.cumsum(empirical) - np.cumsum(expected)))
        assert ks_distance < 0.02


class TestPoissonLengthWalk:
    def test_returns_valid_node(self, weights_t5, rng, small_star):
        for _ in range(50):
            end = poisson_length_walk(small_star, 0, weights_t5, rng)
            assert small_star.has_node(end)

    def test_invalid_start_rejected(self, weights_t5, rng, small_star):
        with pytest.raises(ParameterError):
            poisson_length_walk(small_star, 42, weights_t5, rng)

    def test_max_length_truncates(self, rng):
        weights = PoissonWeights(10.0)
        graph = ring_graph(50)
        counters = OperationCounters()
        for _ in range(200):
            poisson_length_walk(graph, 0, weights, rng, max_length=2, counters=counters)
        assert counters.walk_steps <= 2 * 200

    def test_isolated_start_stays(self, weights_t5, rng):
        graph = Graph(3, [(1, 2)])
        assert poisson_length_walk(graph, 0, weights_t5, rng) == 0

    def test_average_length_close_to_t(self, rng):
        weights = PoissonWeights(4.0)
        graph = complete_graph(30)
        counters = OperationCounters()
        for _ in range(3000):
            poisson_length_walk(graph, 0, weights, rng, counters=counters)
        assert counters.walk_steps / 3000 == pytest.approx(4.0, abs=0.3)

    def test_star_leaf_alternation(self, rng):
        """From the hub of a star, odd-length walks end at leaves, even at the hub."""
        weights = PoissonWeights(1.0)
        graph = star_graph(5)
        counters = OperationCounters()
        hub_endings = 0
        walks = 5000
        for _ in range(walks):
            end = poisson_length_walk(graph, 0, weights, rng, counters=counters)
            hub_endings += end == 0
        import math

        expected_hub = math.exp(-1.0) * math.cosh(1.0)
        assert hub_endings / walks == pytest.approx(expected_hub, abs=0.03)
