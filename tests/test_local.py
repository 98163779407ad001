"""Tests for the high-level local_cluster API."""

from __future__ import annotations

import pytest

from repro.clustering.local import local_cluster
from repro.exceptions import ParameterError
from repro.hkpr.params import HKPRParams


class TestLocalCluster:
    def test_unknown_method_rejected(self, clustered_graph):
        with pytest.raises(ParameterError):
            local_cluster(clustered_graph, 0, method="does-not-exist")

    def test_unknown_seed_rejected(self, clustered_graph):
        with pytest.raises(ParameterError):
            local_cluster(clustered_graph, 10**6, method="tea+")

    def test_default_params_use_one_over_n(self, clustered_graph):
        result = local_cluster(clustered_graph, 0, method="exact")
        assert result.method == "exact"
        assert result.size >= 1

    @pytest.mark.parametrize(
        "method",
        ["exact", "hk-relax", "hk-push", "hk-push+", "tea", "tea+"],
    )
    def test_deterministic_and_contains_seed(self, clustered_graph, method):
        params = HKPRParams(delta=1.0 / clustered_graph.num_nodes)
        result = local_cluster(
            clustered_graph, 3, method=method, params=params, rng=11
        )
        assert result.contains_seed()
        assert 0.0 <= result.conductance <= 1.0
        assert result.seed == 3
        assert result.elapsed_seconds >= 0.0

    def test_monte_carlo_with_walk_override(self, clustered_graph):
        result = local_cluster(
            clustered_graph,
            0,
            method="monte-carlo",
            params=HKPRParams(delta=1e-2),
            rng=5,
            estimator_kwargs={"num_walks": 2000},
        )
        assert result.contains_seed()

    def test_cluster_hkpr_with_eps_override(self, clustered_graph):
        result = local_cluster(
            clustered_graph,
            0,
            method="cluster-hkpr",
            rng=5,
            estimator_kwargs={"eps": 0.2, "num_walks": 2000},
        )
        assert result.contains_seed()

    def test_hkpr_methods_are_sweepable(self):
        from repro.estimators import method_names

        # Every HKPR estimator is among the methods the sweep accepts.
        assert set(method_names(family="hkpr")) <= set(method_names(sweepable=True))

    def test_hk_push_methods_sweepable(self, clustered_graph):
        """hk-push and hk-push+ produce sweepable HKPR vectors (push-only
        lower bounds), so local_cluster must accept them."""
        for method in ("hk-push", "hk-push+"):
            result = local_cluster(clustered_graph, 0, method=method)
            assert result.method == method
            assert result.contains_seed()
            assert 0.0 <= result.conductance <= 1.0
            # Push-only methods run no walks.
            assert result.hkpr.counters.random_walks == 0
            assert result.hkpr.counters.push_operations > 0

    def test_hk_push_plus_matches_tea_plus_reserve_when_early_exit(
        self, clustered_graph
    ):
        """When TEA+ early-exits (Theorem 2), its output IS the HK-Push+
        reserve, so the two methods must agree exactly."""
        from repro.hkpr import hk_push_plus_hkpr, tea_plus

        params = HKPRParams(eps_r=0.9, delta=5e-2, p_f=1e-2)
        plus = tea_plus(clustered_graph, 0, params, rng=1)
        if plus.early_exit:
            push_only = hk_push_plus_hkpr(clustered_graph, 0, params)
            assert push_only.estimates.to_dict() == plus.estimates.to_dict()

    @pytest.mark.parametrize("method", ["nibble", "pr-nibble", "fora", "mc-ppr"])
    def test_sweepable_baselines_and_ppr_methods(self, clustered_graph, method):
        kwargs = {"num_walks": 500} if method == "mc-ppr" else {}
        result = local_cluster(
            clustered_graph, 0, method=method, rng=3, estimator_kwargs=kwargs
        )
        assert result.method == method
        assert result.contains_seed()

    def test_method_aliases_accepted(self, clustered_graph):
        result = local_cluster(clustered_graph, 0, method="tea-plus", rng=2)
        assert result.method == "tea+"

    def test_low_conductance_on_planted_blocks(self, planted_graph_and_blocks):
        graph, blocks = planted_graph_and_blocks
        seed = blocks[0][0]
        result = local_cluster(
            graph, seed, method="tea+", params=HKPRParams(delta=1.0 / graph.num_nodes), rng=3
        )
        # The planted block has much lower conductance than a random set; the
        # sweep should find something at least that good or close to it.
        from repro.clustering.conductance import conductance

        planted_phi = conductance(graph, blocks[0])
        assert result.conductance <= planted_phi * 2.5

    def test_hkpr_payload_exposed(self, clustered_graph):
        result = local_cluster(clustered_graph, 0, method="tea+", rng=1)
        assert result.hkpr.method == "tea+"
        assert result.sweep.cluster == result.cluster
