"""Tests for the fused execution path (:mod:`repro.engine.fused`).

Four groups:

* :class:`FusedQuery` / :class:`FusedGroup` construction and validation,
* the deterministic contract of :func:`run_fused_queries`, parametrized
  over **every registered backend** plus a pool-forced ``parallel``:
  same-seed byte-determinism, byte parity with drawing the starts and then
  calling the backend's own kernel, and exact per-query ``random_walks``
  and ``walk_steps`` for mixed groups,
* plan routing: ``execute_plans`` sends every plan through
  :func:`run_fused_queries` and the batched estimators conserve their
  probability mass,
* the statistical parity suite (marked ``statistical``): chi-square of
  the fused groups' answers against the exact residue-mixture laws, on
  every backend.
"""

from __future__ import annotations

import numpy as np
import pytest

import statcheck

from repro.engine import (
    ParallelBackend,
    available_backends,
    execute_plans,
    get_backend,
    run_walk_tasks,
)
from repro.engine.fused import (
    FusedGroup,
    FusedQuery,
    run_fused_queries,
    sample_fused_starts,
    sampled_tasks,
)
from repro.exceptions import ParameterError
from repro.graph.generators import powerlaw_cluster_graph, ring_graph
from repro.graph.graph import Graph
from repro.hkpr.monte_carlo import monte_carlo_hkpr_many, monte_carlo_plan
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import PoissonWeights
from repro.hkpr.tea_plus import tea_plus_many
from repro.ppr.fora import monte_carlo_ppr_many, monte_carlo_ppr_plan
from repro.utils.counters import OperationCounters


def _backends() -> list[tuple[str, object]]:
    """Every registered backend, plus a pool-forced parallel instance."""
    pairs = [(name, get_backend(name)) for name in available_backends()]
    pairs.append(
        ("parallel-pool", ParallelBackend(num_workers=2, min_parallel_batch=1))
    )
    return pairs


_PAIRS = _backends()
BACKEND_IDS = [pair[0] for pair in _PAIRS]
BACKENDS = [pair[1] for pair in _PAIRS]


def _walk(backend, graph, group, starts, hops, rng, **kwargs):
    """The backend's own kernel for ``group``'s kind."""
    if group.kind == "heat":
        return backend.walk_batch(graph, starts, hops, group.weights, rng, **kwargs)
    if group.kind == "poisson":
        return backend.poisson_walk_batch(
            graph, starts, group.weights, rng, max_length=group.max_length, **kwargs
        )
    return backend.geometric_walk_batch(graph, starts, group.alpha, rng, **kwargs)


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
        assert not group.needs_sampling and group.entry_cdf is None
        rng = np.random.default_rng(3)
        starts, _ = sample_fused_starts(group, rng)
        assert (starts == 4).all()
        assert rng.random() == np.random.default_rng(3).random()


# ---------------------------------------------------------------------- #
# Deterministic contract, per backend
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
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
            runs = []
            for _ in range(2):
                counters = OperationCounters()
                (ends,) = run_fused_queries(
                    backend, graph, [query], np.random.default_rng(99),
                    counters_list=[counters],
                )
                runs.append((ends, counters.walk_steps))
            np.testing.assert_array_equal(runs[0][0], runs[1][0])
            assert runs[0][1] == runs[1][1]

    def test_endpoints_stay_in_component(self, backend, weights):
        # Walks from a ring component never leave it.
        graph = ring_graph(12)
        query = FusedQuery("poisson", [0, 6], [0.5, 0.5], 60, weights=weights)
        (ends,) = run_fused_queries(
            backend, graph, [query], np.random.default_rng(1)
        )
        assert ends.dtype == np.int64
        assert ends.shape == (60,)
        assert (ends >= 0).all() and (ends < 12).all()

    def test_matches_drawing_starts_then_walking(self, backend, graph, weights):
        """A fused call is exactly :func:`sample_fused_starts` followed by
        the backend's own kernel on the same generator."""
        for query in self._queries(weights):
            (fused_ends,) = run_fused_queries(
                backend, graph, [query], np.random.default_rng(7)
            )
            rng = np.random.default_rng(7)
            group = FusedGroup(graph, [query], [query.num_walks])
            starts, hops = sample_fused_starts(group, rng)
            split_ends = _walk(backend, graph, group, starts, hops, rng)
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

    def test_mixed_group_counters_are_exact(self, backend, weights):
        # Nodes 0 and 4 are isolated: their walks take no step, so exact
        # accounting gives their queries 0 steps however they are batched.
        graph = Graph(6, [(1, 2), (1, 3), (2, 3), (3, 5)])
        queries = [
            FusedQuery("poisson", [0], [1.0], 70, weights=weights),
            FusedQuery("poisson", [1, 2], [0.4, 0.6], 90, weights=weights),
            FusedQuery("heat", [4, 4], [1.0, 2.0], 60, weights=weights,
                       entry_hops=[0, 3]),
            FusedQuery("heat", [1, 5, 4], [1.0, 1.0, 0.0], 80, weights=weights,
                       entry_hops=[0, 1, 0]),
            FusedQuery("geometric", [4], [1.0], 50, alpha=0.3),
            FusedQuery("geometric", [3, 4], [1.0, 0.0], 40, alpha=0.3),
        ]
        counters = [OperationCounters() for _ in queries]
        ends = run_fused_queries(
            backend, graph, queries, np.random.default_rng(31),
            counters_list=counters,
        )
        for query, tally, query_ends in zip(queries, counters, ends):
            assert tally.random_walks == query_ends.size == query.num_walks
            assert tally.extras["fused_queries"] == 2
        assert [tally.walk_steps for tally in counters[0::2]] == [0, 0, 0]
        assert all(tally.walk_steps > 0 for tally in counters[1::2])

        # Each kind is one kernel call; run whole, the same calls take as
        # many steps as the two queries were given.
        rng = np.random.default_rng(31)
        for pair in (queries[0:2], queries[2:4], queries[4:6]):
            group = FusedGroup(graph, pair, [q.num_walks for q in pair])
            starts, hops = sample_fused_starts(group, rng)
            whole = OperationCounters()
            _walk(backend, graph, group, starts, hops, rng, counters=whole)
            index = queries.index(pair[0])
            assert whole.walk_steps == sum(
                tally.walk_steps for tally in counters[index:index + 2]
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
        record the walks of every geometric kernel call."""
        import repro.engine as engine_module
        from repro.engine.vectorized import VectorizedBackend

        monkeypatch.setattr(engine_module, "MAX_EXPECTED_STEPS", 2_000)
        sizes: list[int] = []
        kernel = VectorizedBackend.geometric_walk_batch

        def counted(self, graph, starts, *args, **kwargs):
            sizes.append(len(starts))
            return kernel(self, graph, starts, *args, **kwargs)

        monkeypatch.setattr(VectorizedBackend, "geometric_walk_batch", counted)
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
        kernel = VectorizedBackend.geometric_walk_batch

        def one_second_call(self, *args, **kwargs):
            now[0] += 1.0
            return kernel(self, *args, **kwargs)

        monkeypatch.setattr(VectorizedBackend, "geometric_walk_batch", one_second_call)
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

    def test_fused_matches_task_route_mass(self, graph):
        params = self._params(graph)
        fused = monte_carlo_hkpr_many(
            graph, [0], params, num_walks=400, rng=21, backend="vectorized"
        )
        # Seed-pinned serving runs the same plan's walks as tasks instead.
        plan = monte_carlo_plan(graph, 0, params, num_walks=400)
        rng = np.random.default_rng(21)
        tasks = sampled_tasks(graph, plan.fused_queries(), rng)
        ends = run_walk_tasks(
            "vectorized", graph, tasks, rng,
            counters_list=[plan.counters] * len(tasks),
        )
        unfused = plan.finalize(ends)
        assert "fused_kernel" not in unfused.counters.extras
        assert unfused.counters.random_walks == 400
        mass_f = sum(v for _, v in fused[0].estimates.items())
        mass_u = sum(v for _, v in unfused.estimates.items())
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

    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_every_backend_fuses(self, graph, backend):
        params = self._params(graph)
        results = monte_carlo_hkpr_many(
            graph, [0], params, num_walks=150, rng=23, backend=backend
        )
        assert results[0].counters.random_walks == 150
        assert results[0].counters.extras["fused_kernel"] is True

    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_execute_plans_mixed_fused_and_direct(self, backend):
        """Plans of three kinds and a walk-free plan share one batch; each
        plan's walks and steps are its own (node 7 is isolated)."""

        class DirectishPlan:
            counters = OperationCounters()
            estimated_walks = 0

            def fused_queries(self):
                return []

            def finalize(self, endpoints):
                assert list(endpoints) == []
                return "direct"

        graph = Graph(8, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3)])
        params = HKPRParams(t=5.0, eps_r=0.5, delta=0.1, p_f=1e-6)
        plans = [
            monte_carlo_plan(graph, 7, params, num_walks=120),
            monte_carlo_plan(graph, 0, params, num_walks=100),
            DirectishPlan(),
            monte_carlo_ppr_plan(graph, 7, alpha=0.2, num_walks=80),
            monte_carlo_ppr_plan(graph, 1, alpha=0.2, num_walks=90),
        ]
        results = execute_plans(backend, graph, plans, np.random.default_rng(2))
        assert results[2] == "direct"
        walked = [result.counters for i, result in enumerate(results) if i != 2]
        assert [c.random_walks for c in walked] == [120, 100, 80, 90]
        assert [c.walk_steps for c in walked][0::2] == [0, 0]
        assert all(c.walk_steps > 0 for c in walked[1::2])
        for result in results[:2]:
            assert result.estimates.to_dict().keys() <= set(range(8))


# ---------------------------------------------------------------------- #
# Statistical parity (chi-square against the exact mixture laws)
# ---------------------------------------------------------------------- #
@pytest.mark.statistical
@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
class TestFusedDistributions:
    def test_fused_kernels_match_mixture_laws(self, backend, graph):
        results = statcheck.check_fused_distributions(backend, graph)
        assert len(results) == 6
