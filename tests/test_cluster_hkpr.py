"""Tests for the ClusterHKPR baseline (Chung & Simpson)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.graph.generators import complete_graph
from repro.hkpr.cluster_hkpr import cluster_hkpr, default_max_hop, default_walk_count
from repro.hkpr.exact import exact_hkpr_dense


class TestDefaults:
    def test_default_walk_count_formula(self):
        assert default_walk_count(1000, 0.1) == math.ceil(16 * math.log(1000) / 0.1**3)

    def test_default_walk_count_invalid_eps(self):
        with pytest.raises(ParameterError):
            default_walk_count(100, 0.0)
        with pytest.raises(ParameterError):
            default_walk_count(100, 1.5)

    @pytest.mark.parametrize(
        "eps", [1e-120, 1e-104], ids=["cube-underflows", "count-overflows"]
    )
    def test_default_walk_count_beyond_the_float_range(self, eps):
        with pytest.raises(ParameterError, match="eps .*p_f"):
            default_walk_count(2000, eps)

    @pytest.mark.parametrize("n", [1, 9, 3000])
    def test_default_walk_count_beyond_int64(self, n):
        # The default eps is at most p_f = 1e-6: 16 log(n) / eps^3 is at
        # least 1.1e19 walks, more than an int64 counter holds.
        with pytest.raises(ParameterError, match="eps .*num_walks"):
            default_walk_count(n, 1e-6)

    def test_default_max_hop_shrinks_with_larger_eps(self):
        assert default_max_hop(5.0, 0.3) <= default_max_hop(5.0, 0.001)

    def test_default_max_hop_at_least_one(self):
        assert default_max_hop(1.0, 0.9) >= 1


class TestClusterHKPR:
    def test_invalid_seed(self, small_ring, loose_params):
        with pytest.raises(ParameterError):
            cluster_hkpr(small_ring, 99, loose_params)

    def test_invalid_eps(self, small_ring, loose_params):
        with pytest.raises(ParameterError):
            cluster_hkpr(small_ring, 0, loose_params, eps=1.5, num_walks=10)

    def test_mass_sums_to_one(self, small_ring, loose_params):
        result = cluster_hkpr(small_ring, 0, loose_params, eps=0.2, rng=1, num_walks=1000)
        assert result.total_mass(small_ring) == pytest.approx(1.0, abs=1e-9)

    def test_walk_length_truncated(self, small_ring, loose_params):
        result = cluster_hkpr(
            small_ring, 0, loose_params, eps=0.2, rng=1, num_walks=500, max_hop=1
        )
        # With a 1-hop cap, only the seed and its neighbors can hold mass.
        allowed = {0} | {int(v) for v in small_ring.neighbors(0)}
        assert set(result.support()) <= allowed

    def test_converges_to_exact_for_small_eps(self, loose_params, rng):
        graph = complete_graph(8)
        exact = exact_hkpr_dense(graph, 0, loose_params.t)
        estimate = cluster_hkpr(
            graph, 0, loose_params, eps=0.05, rng=rng, num_walks=40_000
        ).to_dense(graph)
        assert np.max(np.abs(estimate - exact)) < 0.02

    def test_records_parameters_in_counters(self, small_ring, loose_params):
        result = cluster_hkpr(small_ring, 0, loose_params, eps=0.25, rng=3, num_walks=100)
        assert result.counters.extras["eps"] == pytest.approx(0.25)
        assert result.counters.extras["max_hop"] >= 1
        assert result.method == "cluster-hkpr"

    def test_smaller_eps_means_more_default_walks(self, small_ring):
        assert default_walk_count(small_ring.num_nodes, 0.05) > default_walk_count(
            small_ring.num_nodes, 0.2
        )
