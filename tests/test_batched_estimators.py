"""Tests for the ``*_many`` entry points and the plan builders they run."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.hkpr.monte_carlo import monte_carlo_hkpr_many
from repro.hkpr.params import HKPRParams
from repro.hkpr.tea_plus import tea_plus, tea_plus_many, tea_plus_plan
from repro.ppr.exact import exact_ppr
from repro.ppr.fora import fora_plan, monte_carlo_ppr_many, monte_carlo_ppr_plan

from statcheck import chi_square_gof, poisson_probs
from repro.hkpr.exact import exact_hkpr
from repro.hkpr.poisson import PoissonWeights


class TestMonteCarloMany:
    def test_results_per_seed(self, tiny_grid, loose_params):
        results = monte_carlo_hkpr_many(
            tiny_grid, [0, 5, 13], loose_params, num_walks=400, rng=1
        )
        assert set(results) == {0, 5, 13}
        for seed, result in results.items():
            assert result.seed == seed
            assert result.method == "monte-carlo"
            assert result.counters.random_walks == 400
            assert abs(result.total_mass(tiny_grid) - 1.0) < 1e-9
            assert result.counters.extras["fused_queries"] == 3
            assert result.counters.extras["fused_kernel"] is True
            assert result.counters.extras["backend"]

    def test_reproducible_for_fixed_rng(self, tiny_grid, loose_params):
        a = monte_carlo_hkpr_many(tiny_grid, [0, 5], loose_params, num_walks=300, rng=9)
        b = monte_carlo_hkpr_many(tiny_grid, [0, 5], loose_params, num_walks=300, rng=9)
        for seed in (0, 5):
            assert a[seed].estimates.to_dict() == b[seed].estimates.to_dict()

    def test_empty_seed_list_rejected(self, tiny_grid, loose_params):
        with pytest.raises(ParameterError, match="at least one seed"):
            monte_carlo_hkpr_many(tiny_grid, [], loose_params)

    def test_duplicate_seeds_answered_once(self, tiny_grid, loose_params):
        # The result mapping is keyed by seed; duplicates must collapse to
        # one run instead of silently discarding all but the last.
        results = monte_carlo_hkpr_many(
            tiny_grid, [5, 5, 7], loose_params, num_walks=200, rng=2
        )
        assert set(results) == {5, 7}
        for result in results.values():
            assert result.counters.random_walks == 200

    def test_invalid_seed_rejected(self, tiny_grid, loose_params):
        with pytest.raises(ParameterError, match="not in the graph"):
            monte_carlo_hkpr_many(tiny_grid, [0, 999], loose_params, num_walks=10)


class TestTeaPlusPlan:
    def test_early_exit_matches_estimator_exactly(self, tiny_grid, default_params):
        # An early-exit TEA+ query is fully deterministic: the plan and the
        # estimator must agree byte for byte.
        direct = tea_plus(tiny_grid, 0, default_params, rng=1)
        plan = tea_plus_plan(tiny_grid, 0, default_params)
        if direct.early_exit:
            assert plan.early_exit
            assert plan.fused_queries() == []
            result = plan.finalize([])
            assert result.estimates.to_dict() == direct.estimates.to_dict()
            assert result.counters.push_operations == direct.counters.push_operations
        else:  # pragma: no cover - parameter-dependent
            assert not plan.early_exit

    def test_walk_phase_runs_when_budgeted(self, medium_powerlaw):
        params = HKPRParams(t=5.0, eps_r=0.2, delta=1e-4, p_f=1e-6)
        plan = tea_plus_plan(
            medium_powerlaw, 0, params, max_walks=2000, push_budget=200,
            apply_residue_reduction=False, apply_offset=False,
        )
        assert not plan.early_exit
        assert plan.estimated_walks > 0
        results = tea_plus_many(
            medium_powerlaw, [0, 1], params, rng=3, max_walks=2000,
            push_budget=200, apply_residue_reduction=False, apply_offset=False,
        )
        for result in results.values():
            assert result.counters.random_walks > 0
            assert result.method == "tea+"
            # Walk accounting flowed through the fusion layer.
            assert result.counters.walk_steps > 0

    def test_offset_matches_estimator_policy(self, medium_powerlaw):
        params = HKPRParams(t=5.0, eps_r=0.2, delta=1e-4, p_f=1e-6)
        plan = tea_plus_plan(medium_powerlaw, 0, params, push_budget=200)
        if not plan.early_exit:
            result = plan.finalize(
                [np.zeros(0, dtype=np.int64)] * len(plan.fused_queries())
            )
            assert result.offset_per_degree == params.eps_r * params.delta / 2.0


class TestPPRPlans:
    def test_mc_ppr_many(self, tiny_grid):
        results = monte_carlo_ppr_many(
            tiny_grid, [0, 5], alpha=0.2, num_walks=500, rng=4
        )
        for result in results.values():
            assert abs(result.total_mass(tiny_grid) - 1.0) < 1e-9
            assert result.counters.random_walks == 500

    def test_mc_ppr_plan_validation(self, tiny_grid):
        with pytest.raises(ParameterError):
            monte_carlo_ppr_plan(tiny_grid, 0, alpha=1.5)
        with pytest.raises(ParameterError):
            monte_carlo_ppr_plan(tiny_grid, 0, num_walks=0)
        with pytest.raises(ParameterError):
            monte_carlo_ppr_plan(tiny_grid, 999)

    def test_fora_plan_total_mass(self, medium_powerlaw):
        plan = fora_plan(
            medium_powerlaw, 0, alpha=0.2, eps_r=0.5, r_max=0.01, max_walks=3000,
        )
        assert plan.estimated_walks > 0
        from repro.engine import execute_plans, get_backend

        result = execute_plans(
            get_backend("vectorized"), medium_powerlaw, [plan],
            np.random.default_rng(5),
        )[0]
        assert result.method == "fora"
        assert 0.9 < result.total_mass(medium_powerlaw) <= 1.05


@pytest.mark.statistical
class TestBatchedParity:
    """Fused multi-seed runs follow the same laws as single-seed runs."""

    def test_monte_carlo_many_matches_exact_law(self, tiny_grid):
        params = HKPRParams(t=5.0, eps_r=0.5, delta=1e-3, p_f=1e-6)
        walks = 4000
        seeds = [0, 13, 20]
        results = monte_carlo_hkpr_many(
            tiny_grid, seeds, params, num_walks=walks, rng=77
        )
        weights = PoissonWeights(5.0)
        for seed in seeds:
            counts = np.rint(results[seed].to_dense(tiny_grid) * walks)
            chi_square_gof(
                counts, poisson_probs(tiny_grid, seed, weights)
            ).assert_ok(context=f"monte_carlo_hkpr_many seed {seed}")

    def test_tea_plus_many_walk_phase_matches_exact_law(self, medium_powerlaw):
        # Lemma-1 reconstruction (as in statcheck.walk_phase_chi_square):
        # with the push state isolated via max_walks=0, walk endpoint counts
        # are (estimate - reserve) / increment and follow (exact - reserve)
        # normalized — here computed through the *fused* path.
        params = HKPRParams(t=5.0, eps_r=0.2, delta=1e-4, p_f=1e-6)
        kwargs = dict(
            push_budget=200, apply_residue_reduction=False, apply_offset=False
        )
        base = tea_plus(
            medium_powerlaw, 0, params, rng=0, max_walks=0, **kwargs
        )
        results = tea_plus_many(
            medium_powerlaw, [0], params, rng=2024, max_walks=24_000, **kwargs
        )
        full = results[0]
        num_walks = full.counters.random_walks
        assert num_walks > 0
        alpha = float(full.counters.extras["alpha"])
        increment = alpha / num_walks
        base_dense = base.to_dense(medium_powerlaw, include_offset=False)
        counts = (
            full.to_dense(medium_powerlaw, include_offset=False) - base_dense
        ) / increment
        counts = np.clip(np.rint(counts), 0.0, None)
        exact = exact_hkpr(
            medium_powerlaw, 0, HKPRParams(t=5.0, eps_r=0.5, delta=0.01, p_f=1e-6)
        ).to_dense(medium_powerlaw)
        law = np.clip(exact - base_dense, 0.0, None)
        chi_square_gof(counts, law).assert_ok(context="tea_plus_many walk phase")

    def test_mc_ppr_many_matches_exact_law(self, tiny_grid):
        walks = 4000
        results = monte_carlo_ppr_many(
            tiny_grid, [0, 5], alpha=0.2, num_walks=walks, rng=55
        )
        for seed in (0, 5):
            counts = np.rint(results[seed].to_dense(tiny_grid) * walks)
            law = exact_ppr(tiny_grid, seed, alpha=0.2).to_dense(tiny_grid)
            chi_square_gof(counts, law).assert_ok(
                context=f"monte_carlo_ppr_many seed {seed}"
            )
