"""Tests for HKPRParams and the derived algorithm constants."""

from __future__ import annotations

import math

import pytest

from repro.dynamic import DeltaGraph
from repro.exceptions import ParameterError
from repro.graph.generators import (
    complete_graph,
    path_graph,
    powerlaw_cluster_graph,
    ring_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.hkpr.params import HKPRParams, effective_failure_probability


def loop_failure_probability(graph, p_f: float) -> float:
    """Equation (6) as a per-degree loop: the reference for the array form."""
    total = 0.0
    for degree in graph.degrees:
        total += p_f ** (max(int(degree), 1) - 1)
    return p_f if total <= 1.0 else p_f / total


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t": 0.0},
            {"t": -1.0},
            {"eps_r": 0.0},
            {"eps_r": 1.0},
            {"delta": 0.0},
            {"delta": 1.0},
            {"p_f": 0.0},
            {"p_f": 1.0},
            {"c": 0.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            HKPRParams(**{"delta": 1e-3, **kwargs})

    def test_defaults_match_paper(self):
        params = HKPRParams(delta=1e-3)
        assert params.t == 5.0
        assert params.eps_r == 0.5
        assert params.p_f == 1e-6
        assert params.c == 2.5

    def test_with_delta_and_with_t_return_copies(self):
        params = HKPRParams(delta=1e-3)
        changed = params.with_delta(1e-4)
        assert changed.delta == 1e-4
        assert params.delta == 1e-3
        assert params.with_t(10.0).t == 10.0


class TestEffectiveFailureProbability:
    def test_equals_pf_when_sum_below_one(self):
        # Complete graph: every degree is n-1, so sum p^(d-1) is tiny.
        graph = complete_graph(10)
        assert effective_failure_probability(graph, 1e-3) == pytest.approx(1e-3)

    def test_scaled_down_when_sum_exceeds_one(self):
        # Star graph: the n-1 leaves have degree 1, so sum p^(d-1) >= n-1 > 1.
        graph = star_graph(50)
        p_prime = effective_failure_probability(graph, 1e-3)
        assert p_prime < 1e-3
        assert p_prime == pytest.approx(1e-3 / (49 + 1e-3**48), rel=1e-6)

    @pytest.mark.parametrize(
        "graph,p_f,scaled",
        [
            (complete_graph(10), 1e-3, False),
            (complete_graph(3), 0.3, False),
            (ring_graph(12), 0.05, False),
            (ring_graph(12), 0.2, True),
            (star_graph(50), 1e-3, True),
            (powerlaw_cluster_graph(300, 2, 0.3, seed=3), 1e-6, False),
            (powerlaw_cluster_graph(300, 2, 0.3, seed=3), 0.4, True),
            (path_graph(40), 1e-6, True),
            (Graph(6, [(0, 1), (1, 2), (2, 0)]), 0.5, True),  # isolated nodes
        ],
    )
    def test_matches_loop_form(self, graph, p_f, scaled):
        want = loop_failure_probability(graph, p_f)
        # Both sides of the sum-exceeds-one branch are covered.
        assert (want < p_f) == scaled
        assert effective_failure_probability(graph, p_f) == pytest.approx(want, rel=1e-12)

    def test_invalid_pf(self):
        graph = ring_graph(5)
        with pytest.raises(ParameterError):
            effective_failure_probability(graph, 0.0)
        with pytest.raises(ParameterError):
            effective_failure_probability(graph, 1.0)

    def test_budget_that_underflows_is_a_parameter_error(self):
        # 19 leaves sum to 19 > 1, and the smallest subnormal p_f / 19 is 0.
        with pytest.raises(ParameterError, match="p_f"):
            effective_failure_probability(star_graph(20), 5e-324)

    def test_underflow_raises_on_every_call(self):
        # The sum is kept after the first call; the check runs on each.
        graph = star_graph(20)
        for _ in range(2):
            with pytest.raises(ParameterError, match="p_f"):
                effective_failure_probability(graph, 5e-324)

    def test_kept_sum_is_the_fresh_sum(self):
        graph = powerlaw_cluster_graph(300, 2, 0.3, seed=3)
        first = effective_failure_probability(graph, 0.4)
        assert effective_failure_probability(graph, 0.4) == first
        fresh = Graph.from_csr_arrays(
            graph.num_nodes, graph.num_edges, graph.indptr, graph.indices, graph.degrees
        )
        assert effective_failure_probability(fresh, 0.4) == first

    def test_mutation_sums_its_own_degrees(self):
        # Joining two leaves of the star turns two degree-1 nodes into
        # degree-2 ones, which moves the sum.
        view = DeltaGraph(star_graph(20))
        before = effective_failure_probability(view, 0.3)
        mutated = view.apply(add=[(1, 2)])
        after = effective_failure_probability(mutated, 0.3)
        assert after != before
        assert after == effective_failure_probability(mutated.compacted(), 0.3)
        assert effective_failure_probability(view, 0.3) == before

    def test_another_pf_is_summed_afresh(self):
        # The snapshot keeps one p_f's sum; asking for another recomputes.
        graph = star_graph(20)
        for p_f in (0.3, 0.4, 0.3):
            assert effective_failure_probability(graph, p_f) == pytest.approx(
                loop_failure_probability(graph, p_f), rel=1e-12
            )

    def test_params_method_agrees(self):
        graph = star_graph(20)
        params = HKPRParams(delta=1e-3, p_f=1e-4)
        assert params.effective_p_f(graph) == pytest.approx(
            effective_failure_probability(graph, 1e-4)
        )


class TestDerivedQuantities:
    def test_omega_tea_formula(self):
        graph = complete_graph(8)
        params = HKPRParams(eps_r=0.5, delta=1e-2, p_f=1e-3)
        expected = 2 * (1 + 0.5 / 3) * math.log(1 / params.effective_p_f(graph)) / (
            0.25 * 1e-2
        )
        assert params.omega_tea(graph) == pytest.approx(expected)

    def test_omega_tea_plus_formula(self):
        graph = complete_graph(8)
        params = HKPRParams(eps_r=0.5, delta=1e-2, p_f=1e-3)
        expected = 8 * (1 + 0.5 / 6) * math.log(1 / params.effective_p_f(graph)) / (
            0.25 * 1e-2
        )
        assert params.omega_tea_plus(graph) == pytest.approx(expected)

    def test_omega_monte_carlo_uses_n_over_pf(self):
        graph = ring_graph(100)
        params = HKPRParams(eps_r=0.5, delta=1e-2, p_f=1e-3)
        expected = 2 * (1 + 0.5 / 3) * math.log(100 / 1e-3) / (0.25 * 1e-2)
        assert params.omega_monte_carlo(graph) == pytest.approx(expected)

    def test_omega_shrinks_with_looser_parameters(self):
        graph = ring_graph(50)
        tight = HKPRParams(eps_r=0.2, delta=1e-4)
        loose = HKPRParams(eps_r=0.8, delta=1e-2)
        assert tight.omega_tea(graph) > loose.omega_tea(graph)
        assert tight.omega_tea_plus(graph) > loose.omega_tea_plus(graph)

    @pytest.mark.parametrize("omega", ["omega_tea", "omega_tea_plus", "omega_monte_carlo"])
    @pytest.mark.parametrize(
        "eps_r,delta",
        [(1e-200, 1e-3), (1e-154, 1e-4), (0.9, 1e-309)],
        ids=["denominator-underflows", "count-overflows", "tiny-delta"],
    )
    def test_omega_beyond_the_float_range_is_a_parameter_error(self, omega, eps_r, delta):
        # In-range values whose eps_r**2 * delta is 0, or leaves an infinite
        # count: a ZeroDivisionError / OverflowError (HTTP 500) before.
        params = HKPRParams(eps_r=eps_r, delta=delta)
        with pytest.raises(ParameterError, match="eps_r .* or delta"):
            getattr(params, omega)(ring_graph(50))

    def test_estimate_with_an_unrepresentable_walk_count_is_a_parameter_error(self):
        from repro import estimate

        with pytest.raises(ParameterError, match="eps_r"):
            estimate(
                ring_graph(50), 5, method="monte-carlo", params=HKPRParams(eps_r=1e-200)
            )

    def test_max_hop_equation_20(self):
        graph = complete_graph(10)  # average degree 9
        params = HKPRParams(eps_r=0.5, delta=1e-3, c=2.0)
        expected = math.ceil(2.0 * math.log(1 / (0.5 * 1e-3)) / math.log(9.0))
        assert params.max_hop_tea_plus(graph) == expected

    def test_max_hop_at_least_one(self):
        graph = ring_graph(5)
        params = HKPRParams(eps_r=0.9, delta=0.5, c=0.1)
        assert params.max_hop_tea_plus(graph) >= 1

    def test_max_hop_larger_for_smaller_average_degree(self):
        sparse = ring_graph(100)  # average degree 2
        dense = complete_graph(100)  # average degree 99
        params = HKPRParams(delta=1e-4)
        assert params.max_hop_tea_plus(sparse) > params.max_hop_tea_plus(dense)

    def test_push_budget_positive_and_scales_with_t(self):
        graph = complete_graph(12)
        small_t = HKPRParams(t=2.0, delta=1e-3)
        large_t = HKPRParams(t=20.0, delta=1e-3)
        assert small_t.push_budget_tea_plus(graph) >= 1
        assert large_t.push_budget_tea_plus(graph) > small_t.push_budget_tea_plus(graph)

    def test_rmax_tea_is_inverse_omega_t(self):
        graph = complete_graph(12)
        params = HKPRParams(delta=1e-3)
        assert params.rmax_tea(graph) == pytest.approx(
            1.0 / (params.omega_tea(graph) * params.t)
        )

    def test_absolute_error_target(self):
        params = HKPRParams(eps_r=0.4, delta=1e-3)
        assert params.absolute_error_target() == pytest.approx(4e-4)
