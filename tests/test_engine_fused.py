"""Tests for the fused push+walk execution path (:mod:`repro.engine.fused`).

Five groups:

* :class:`FusedQuery` / :class:`FusedGroup` construction and validation,
* the fusion switch (``REPRO_DISABLE_FUSED``, :func:`set_fusion_enabled`,
  :func:`fusion_disabled`),
* the deterministic contract of ``fused_push_walk``: same-seed
  byte-determinism and one-pass vs two-pass byte parity, parametrized over
  **every fused-capable backend** (a future backend advertising
  ``supports_fused`` is covered by registration alone),
* plan routing: ``execute_plans`` sends fused-capable plans through
  :func:`run_fused_queries` and the batched estimators conserve their
  probability mass fused vs unfused,
* the statistical parity suite (marked ``statistical``): chi-square of the
  fused kernels' answers against the exact residue-mixture laws.
"""

from __future__ import annotations

import numpy as np
import pytest

import statcheck

from repro.engine import (
    available_backends,
    execute_plans,
    get_backend,
)
from repro.engine.fused import (
    DISABLE_ENV_VAR,
    FusedGroup,
    FusedQuery,
    fusion_disabled,
    fusion_enabled,
    run_fused_queries,
    sample_fused_starts,
    set_fusion_enabled,
    supports_fused,
)
from repro.engine.vectorized import (
    geometric_walk_batch_validated,
    poisson_walk_batch_validated,
    walk_batch_validated,
)
from repro.exceptions import ParameterError
from repro.graph.generators import powerlaw_cluster_graph, ring_graph
from repro.hkpr.batched import monte_carlo_hkpr_many, tea_plus_many
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import PoissonWeights
from repro.ppr.batched import monte_carlo_ppr_many
from repro.utils.counters import OperationCounters


def _fused_backends() -> list[tuple[str, object]]:
    """Every registered fused-capable backend."""
    return [
        (name, get_backend(name))
        for name in available_backends()
        if supports_fused(get_backend(name))
    ]


_PAIRS = _fused_backends()
FUSED_IDS = [pair[0] for pair in _PAIRS]
FUSED_BACKENDS = [pair[1] for pair in _PAIRS]


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(60, 3, 0.4, seed=7)


@pytest.fixture
def weights():
    return PoissonWeights(5.0)


# ---------------------------------------------------------------------- #
# FusedQuery / FusedGroup construction
# ---------------------------------------------------------------------- #
class TestFusedQuery:
    def test_capability_flags(self):
        assert supports_fused(get_backend("vectorized"))
        assert not supports_fused(get_backend("reference"))
        assert not supports_fused(get_backend("parallel"))

    def test_rejects_unknown_kind(self, weights):
        with pytest.raises(ParameterError, match="kind"):
            FusedQuery("levy", [0], [1.0], 10, weights=weights)

    def test_rejects_empty_entries(self, weights):
        with pytest.raises(ParameterError):
            FusedQuery("poisson", [], [], 10, weights=weights)

    def test_rejects_bad_weights(self, weights):
        with pytest.raises(ParameterError):
            FusedQuery("poisson", [0, 1], [1.0], 10, weights=weights)
        with pytest.raises(ParameterError):
            FusedQuery("poisson", [0], [-1.0], 10, weights=weights)
        with pytest.raises(ParameterError):
            FusedQuery("poisson", [0], [np.inf], 10, weights=weights)

    def test_rejects_bad_walk_count(self, weights):
        with pytest.raises(ParameterError):
            FusedQuery("poisson", [0], [1.0], 0, weights=weights)

    def test_heat_needs_hops_and_weights(self, weights):
        with pytest.raises(ParameterError):
            FusedQuery("heat", [0], [1.0], 10, weights=weights)  # no hops
        with pytest.raises(ParameterError):
            FusedQuery("heat", [0], [1.0], 10, entry_hops=[0])  # no weights
        with pytest.raises(ParameterError):
            FusedQuery(
                "heat", [0], [1.0], 10, weights=weights, entry_hops=[-1]
            )

    def test_geometric_needs_alpha(self):
        with pytest.raises(ParameterError):
            FusedQuery("geometric", [0], [1.0], 10)
        with pytest.raises(ParameterError):
            FusedQuery("geometric", [0], [1.0], 10, alpha=1.5)

    def test_group_rejects_out_of_range_start(self, graph, weights):
        query = FusedQuery(
            "poisson", [graph.num_nodes + 5], [1.0], 4, weights=weights
        )
        with pytest.raises(ParameterError, match="not in the graph"):
            FusedGroup(graph, [query], [query.num_walks])

    def test_group_layout(self, graph, weights):
        q1 = FusedQuery("poisson", [0, 1, 2], [2.0, 1.0, 1.0], 5, weights=weights)
        q2 = FusedQuery("poisson", [3], [1.0], 3, weights=weights)
        group = FusedGroup(graph, [q1, q2], [5, 3])
        assert group.total_walks == 8
        np.testing.assert_array_equal(group.entry_ptr, [0, 3, 4])
        np.testing.assert_array_equal(group.walk_ptr, [0, 5, 8])
        np.testing.assert_array_equal(group.walk_qid, [0] * 5 + [1] * 3)
        # Each query's cumulative weights live in (q, q+1], ending exactly
        # at q+1 so searchsorted can never fall into the next segment.
        assert group.entry_cdf[2] == 1.0
        assert group.entry_cdf[3] == 2.0
        assert group.needs_sampling

    def test_sample_starts_respects_distribution_support(self, graph, weights):
        query = FusedQuery(
            "poisson", [4, 9], [0.5, 0.5], 200, weights=weights
        )
        group = FusedGroup(graph, [query], [200])
        starts, hops = sample_fused_starts(group, np.random.default_rng(0))
        assert hops is None
        assert set(np.unique(starts)) <= {4, 9}

    def test_single_entry_skips_rng(self, graph, weights):
        query = FusedQuery("poisson", [4], [1.0], 50, weights=weights)
        group = FusedGroup(graph, [query], [50])
        rng = np.random.default_rng(3)
        starts, _ = sample_fused_starts(group, rng)
        assert (starts == 4).all()
        assert rng.random() == np.random.default_rng(3).random()


# ---------------------------------------------------------------------- #
# The fusion switch
# ---------------------------------------------------------------------- #
class TestFusionSwitch:
    def test_enabled_by_default(self):
        assert fusion_enabled()

    def test_context_manager(self):
        with fusion_disabled():
            assert not fusion_enabled()
        assert fusion_enabled()

    def test_set_override_and_reset(self):
        try:
            set_fusion_enabled(False)
            assert not fusion_enabled()
            set_fusion_enabled(True)
            assert fusion_enabled()
        finally:
            set_fusion_enabled(None)

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(DISABLE_ENV_VAR, "1")
        assert not fusion_enabled()
        # An explicit override beats the environment.
        try:
            set_fusion_enabled(True)
            assert fusion_enabled()
        finally:
            set_fusion_enabled(None)


# ---------------------------------------------------------------------- #
# Deterministic kernel contract, per fused backend
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", FUSED_BACKENDS, ids=FUSED_IDS)
class TestFusedKernelContract:
    def _queries(self, weights):
        nodes = [0, 1, 5]
        probs = [0.5, 0.3, 0.2]
        return [
            FusedQuery("heat", nodes, probs, 40, weights=weights,
                       entry_hops=[0, 2, 1]),
            FusedQuery("poisson", nodes, probs, 40, weights=weights),
            FusedQuery("geometric", nodes, probs, 40, alpha=0.2),
        ]

    def test_same_seed_is_byte_deterministic(self, backend, graph, weights):
        for query in self._queries(weights):
            group = FusedGroup(graph, [query], [query.num_walks])
            ends1, steps1 = backend.fused_push_walk(
                graph, group, np.random.default_rng(99), want_steps=True
            )
            ends2, steps2 = backend.fused_push_walk(
                graph, group, np.random.default_rng(99), want_steps=True
            )
            np.testing.assert_array_equal(ends1, ends2)
            if steps1 is not None and steps2 is not None:
                np.testing.assert_array_equal(steps1, steps2)

    def test_endpoints_stay_in_component(self, backend, weights):
        # Walks from a ring component never leave it.
        graph = ring_graph(12)
        query = FusedQuery("poisson", [0, 6], [0.5, 0.5], 60, weights=weights)
        group = FusedGroup(graph, [query], [60])
        ends, _ = backend.fused_push_walk(
            graph, group, np.random.default_rng(1)
        )
        assert ends.dtype == np.int64
        assert ends.shape == (60,)
        assert (ends >= 0).all() and (ends < 12).all()

    def test_two_pass_split_matches_one_pass(self, backend, graph, weights):
        """Sampling starts and walking from them (two kernel invocations)
        reproduces the fused one-pass result byte for byte — the
        fused-vs-unfused determinism contract at the kernel level."""
        for query in self._queries(weights):
            group = FusedGroup(graph, [query], [query.num_walks])
            fused_ends, _ = backend.fused_push_walk(
                graph, group, np.random.default_rng(7)
            )
            rng = np.random.default_rng(7)
            starts, hops = sample_fused_starts(group, rng)
            if group.kind == "heat":
                split_ends = walk_batch_validated(
                    graph, starts, hops, group.weights, rng
                )
            elif group.kind == "poisson":
                split_ends = poisson_walk_batch_validated(
                    graph, starts, group.weights, rng,
                    max_length=group.max_length,
                )
            else:
                split_ends = geometric_walk_batch_validated(
                    graph, starts, group.alpha, rng
                )
            np.testing.assert_array_equal(fused_ends, split_ends)

    def test_run_fused_queries_splits_and_attributes(self, backend, graph, weights):
        q1 = FusedQuery("poisson", [0, 1], [0.7, 0.3], 100, weights=weights)
        q2 = FusedQuery("poisson", [2], [1.0], 50, weights=weights)
        c1, c2 = OperationCounters(), OperationCounters()
        endpoints = run_fused_queries(
            backend, graph, [q1, q2], np.random.default_rng(5),
            counters_list=[c1, c2], max_fused_walks=30,
        )
        assert endpoints[0].shape == (100,)
        assert endpoints[1].shape == (50,)
        assert c1.random_walks == 100
        assert c2.random_walks == 50
        assert c1.extras["fused_kernel"] and c2.extras["fused_kernel"]
        assert c1.extras["fused_queries"] == 2
        assert c1.extras["fused_walks"] == 150
        assert c1.walk_steps > 0

    def test_rejects_unfused_backend(self, backend, graph, weights):
        query = FusedQuery("poisson", [0], [1.0], 4, weights=weights)
        with pytest.raises(ParameterError, match="fused_push_walk"):
            run_fused_queries(
                "reference", graph, [query], np.random.default_rng(0)
            )


class TestRestartStepCap:
    """A fused restart-walk group is cut into kernel calls of at most
    ``MAX_EXPECTED_STEPS`` expected steps, with a deadline checkpoint before
    each.  Admitted mc-ppr queries with one alpha fuse into one group: 100 of
    them with 10,000 walks at alpha = 1e-3 would otherwise be a single call
    of about 10^9 steps."""

    ALPHA = 0.01  # a restart walk is expected to take 99 steps

    @pytest.fixture
    def group_sizes(self, monkeypatch):
        """Shrink the step cap to 2,000 (20 walks a call at ALPHA) and
        record the walks of every fused kernel call."""
        import repro.engine as engine_module
        from repro.engine.vectorized import VectorizedBackend

        monkeypatch.setattr(engine_module, "MAX_EXPECTED_STEPS", 2_000)
        sizes: list[int] = []
        kernel = VectorizedBackend.fused_push_walk

        def counted(self, graph, group, *args, **kwargs):
            sizes.append(group.total_walks)
            return kernel(self, graph, group, *args, **kwargs)

        monkeypatch.setattr(VectorizedBackend, "fused_push_walk", counted)
        return sizes

    def _queries(self, alpha=ALPHA):
        return [
            FusedQuery("geometric", [seed], [1.0], 30, alpha=alpha)
            for seed in (0, 5, 9, 17, 30)
        ]

    def test_fused_group_is_cut_to_the_step_cap(self, graph, group_sizes):
        counters = [OperationCounters() for _ in range(5)]
        ends = run_fused_queries(
            "vectorized", graph, self._queries(), np.random.default_rng(3),
            counters_list=counters,
        )
        assert group_sizes == [20] * 7 + [10]
        for query_ends, tally in zip(ends, counters):
            assert query_ends.size == tally.random_walks == 30
            assert tally.extras["fused_walks"] == 150

    def test_deadline_stops_the_group_between_calls(
        self, graph, group_sizes, monkeypatch
    ):
        from repro.engine.vectorized import VectorizedBackend
        from repro.exceptions import QueryTimeoutError
        from repro.utils.deadline import Deadline

        now = [0.0]
        kernel = VectorizedBackend.fused_push_walk

        def one_second_call(self, *args, **kwargs):
            now[0] += 1.0
            return kernel(self, *args, **kwargs)

        monkeypatch.setattr(VectorizedBackend, "fused_push_walk", one_second_call)
        deadline = Deadline(1500, stride=1, clock=lambda: now[0])
        with pytest.raises(QueryTimeoutError):
            run_fused_queries(
                "vectorized", graph, self._queries(), np.random.default_rng(3),
                deadline=deadline,
            )
        assert group_sizes == [20, 20]

    def test_alpha_below_the_floor_is_refused(self, graph, group_sizes):
        with pytest.raises(ParameterError, match="alpha"):
            run_fused_queries(
                "vectorized", graph, self._queries(alpha=1e-7),
                np.random.default_rng(3),
            )
        assert group_sizes == []


# ---------------------------------------------------------------------- #
# Plan routing through execute_plans
# ---------------------------------------------------------------------- #
class TestPlanRouting:
    def _params(self, graph):
        return HKPRParams(t=5.0, eps_r=0.5, delta=1.0 / graph.num_nodes, p_f=1e-6)

    def test_monte_carlo_many_fuses(self, graph):
        params = self._params(graph)
        results = monte_carlo_hkpr_many(
            graph, [0, 3], params, num_walks=300, rng=11, backend="vectorized"
        )
        for result in results.values():
            assert result.counters.extras.get("fused_kernel") is True
            assert result.counters.random_walks == 300
            total = sum(v for _, v in result.estimates.items())
            np.testing.assert_allclose(total, 1.0, rtol=1e-9)

    def test_fused_matches_unfused_mass(self, graph):
        params = self._params(graph)
        fused = monte_carlo_hkpr_many(
            graph, [0], params, num_walks=400, rng=21, backend="vectorized"
        )
        with fusion_disabled():
            unfused = monte_carlo_hkpr_many(
                graph, [0], params, num_walks=400, rng=21, backend="vectorized"
            )
        assert "fused_kernel" not in unfused[0].counters.extras
        mass_f = sum(v for _, v in fused[0].estimates.items())
        mass_u = sum(v for _, v in unfused[0].estimates.items())
        np.testing.assert_allclose(mass_f, mass_u, rtol=1e-9)

    def test_tea_plus_many_runs_fused(self, graph):
        # A tiny push budget leaves residues, so the walk phase runs.
        results = tea_plus_many(
            graph, [0, 7],
            HKPRParams(t=5.0, eps_r=0.2, delta=1e-4, p_f=1e-6),
            rng=13, backend="vectorized", push_budget=50, max_walks=200,
            apply_residue_reduction=False, apply_offset=False,
        )
        walked = [r for r in results.values() if r.counters.random_walks]
        assert walked, "both seeds early-exited; the routing test is vacuous"
        for result in walked:
            assert result.counters.extras.get("fused_kernel") is True

    def test_ppr_many_fuses(self, graph):
        results = monte_carlo_ppr_many(
            graph, [0, 2], alpha=0.2, num_walks=250, rng=17,
            backend="vectorized",
        )
        for result in results.values():
            assert result.counters.extras.get("fused_kernel") is True
            total = sum(v for _, v in result.estimates.items())
            np.testing.assert_allclose(total, 1.0, rtol=1e-9)

    def test_unfused_backend_still_works(self, graph):
        params = self._params(graph)
        results = monte_carlo_hkpr_many(
            graph, [0], params, num_walks=150, rng=23, backend="reference"
        )
        assert results[0].counters.random_walks == 150
        assert "fused_kernel" not in results[0].counters.extras

    def test_execute_plans_mixed_fused_and_direct(self, graph):
        """A plan without fused_queries rides alongside fused ones."""

        class DirectishPlan:
            tasks = ()
            counters = OperationCounters()
            estimated_walks = 0

            def finalize(self, endpoints):
                assert list(endpoints) == []
                return "direct"

        from repro.hkpr.batched import MonteCarloPlan

        params = self._params(graph)
        weights = PoissonWeights(params.t)
        plans = [
            MonteCarloPlan(graph, 0, params, weights=weights, num_walks=120),
            DirectishPlan(),
        ]
        results = execute_plans(
            get_backend("vectorized"), graph, plans, np.random.default_rng(2)
        )
        assert results[1] == "direct"
        assert results[0].counters.random_walks == 120


# ---------------------------------------------------------------------- #
# Statistical parity (chi-square against the exact mixture laws)
# ---------------------------------------------------------------------- #
@pytest.mark.statistical
@pytest.mark.parametrize("backend", FUSED_BACKENDS, ids=FUSED_IDS)
class TestFusedDistributions:
    def test_fused_kernels_match_mixture_laws(self, backend, graph):
        results = statcheck.check_fused_distributions(backend, graph)
        assert len(results) == 6
