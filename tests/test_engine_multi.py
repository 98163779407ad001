"""Tests for the multi-query walk fusion layer (:mod:`repro.engine.multi`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import available_backends, get_backend, restart_chunk
from repro.engine.multi import WalkTask, run_walk_tasks
from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.poisson import PoissonWeights
from repro.utils.counters import OperationCounters

from statcheck import chi_square_gof, endpoint_counts, geometric_probs, poisson_probs


@pytest.fixture
def two_cliques() -> Graph:
    """Two disconnected 5-cliques: endpoints must stay in their component."""
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(u, v) for u in range(5, 10) for v in range(u + 1, 10)]
    return Graph(10, edges)


class TestWalkTask:
    def test_rejects_unknown_kind(self, weights_t5):
        with pytest.raises(ParameterError, match="unknown walk task kind"):
            WalkTask("levy", np.zeros(3, dtype=np.int64), weights=weights_t5)

    def test_heat_requires_weights_and_hops(self, weights_t5):
        with pytest.raises(ParameterError, match="heat tasks"):
            WalkTask("heat", np.zeros(3, dtype=np.int64), weights=weights_t5)
        with pytest.raises(ParameterError, match="heat tasks"):
            WalkTask("heat", np.zeros(3, dtype=np.int64), hop_offsets=0)

    def test_poisson_requires_weights(self):
        with pytest.raises(ParameterError, match="poisson tasks"):
            WalkTask("poisson", np.zeros(3, dtype=np.int64))

    def test_geometric_requires_alpha(self):
        with pytest.raises(ParameterError, match="geometric tasks"):
            WalkTask("geometric", np.zeros(3, dtype=np.int64))

    def test_scalar_hop_offsets_broadcast(self, weights_t5):
        task = WalkTask(
            "heat", np.zeros(4, dtype=np.int64), hop_offsets=2, weights=weights_t5
        )
        assert task.hop_offsets.shape == (4,)
        assert (task.hop_offsets == 2).all()

    def test_fuse_keys(self, weights_t5):
        heat = WalkTask(
            "heat", np.zeros(1, dtype=np.int64), hop_offsets=0, weights=weights_t5
        )
        other_weights = PoissonWeights(5.0)
        heat2 = WalkTask(
            "heat", np.ones(1, dtype=np.int64), hop_offsets=1, weights=other_weights
        )
        # Distinct weight objects with the same (t, max_hop) fuse.
        assert heat.fuse_key() == heat2.fuse_key()
        poisson = WalkTask(
            "poisson", np.zeros(1, dtype=np.int64), weights=weights_t5
        )
        assert poisson.fuse_key() != heat.fuse_key()
        geo_a = WalkTask("geometric", np.zeros(1, dtype=np.int64), alpha=0.2)
        geo_b = WalkTask("geometric", np.zeros(1, dtype=np.int64), alpha=0.3)
        assert geo_a.fuse_key() != geo_b.fuse_key()


class TestRunWalkTasks:
    def test_endpoints_split_per_task_in_order(self, two_cliques, weights_t5):
        # Tasks starting in different components: every returned endpoint
        # must belong to its own task's component.
        tasks = [
            WalkTask("poisson", np.zeros(300, dtype=np.int64), weights=weights_t5),
            WalkTask(
                "poisson", np.full(200, 7, dtype=np.int64), weights=weights_t5
            ),
            WalkTask("geometric", np.full(100, 8, dtype=np.int64), alpha=0.3),
        ]
        rng = np.random.default_rng(3)
        ends = run_walk_tasks("vectorized", two_cliques, tasks, rng)
        assert [e.size for e in ends] == [300, 200, 100]
        assert (ends[0] < 5).all()
        assert (ends[1] >= 5).all()
        assert (ends[2] >= 5).all()

    def test_counters_random_walks_exact_per_task(self, two_cliques, weights_t5):
        tasks = [
            WalkTask("poisson", np.zeros(120, dtype=np.int64), weights=weights_t5),
            WalkTask("poisson", np.full(80, 7, dtype=np.int64), weights=weights_t5),
        ]
        counters = [OperationCounters(), OperationCounters()]
        run_walk_tasks(
            "vectorized", two_cliques, tasks, np.random.default_rng(5),
            counters_list=counters,
        )
        assert counters[0].random_walks == 120
        assert counters[1].random_walks == 80
        assert counters[0].extras["fused_tasks"] == 2
        assert counters[0].extras["fused_walks"] == 200

    def test_step_attribution_exact_with_vectorized(self, weights_t5):
        # One task walks from an isolated node (0 steps, always); the other
        # from a clique.  Exact attribution must give the isolated task 0.
        graph = Graph(6, [(1, 2), (1, 3), (2, 3)])
        tasks = [
            WalkTask("poisson", np.full(50, 5, dtype=np.int64), weights=weights_t5),
            WalkTask("poisson", np.full(50, 1, dtype=np.int64), weights=weights_t5),
        ]
        counters = [OperationCounters(), OperationCounters()]
        run_walk_tasks(
            "vectorized", graph, tasks, np.random.default_rng(6),
            counters_list=counters,
        )
        assert counters[0].walk_steps == 0
        assert counters[1].walk_steps > 0
        assert "walk_steps_attribution" not in counters[0].extras

    def test_step_attribution_sums_match_total(self, two_cliques, weights_t5):
        for backend_name in available_backends():
            tasks = [
                WalkTask(
                    "poisson", np.zeros(70, dtype=np.int64), weights=weights_t5
                ),
                WalkTask(
                    "poisson", np.full(30, 7, dtype=np.int64), weights=weights_t5
                ),
            ]
            counters = [OperationCounters(), OperationCounters()]
            scratch = OperationCounters()
            backend = get_backend(backend_name)
            rng = np.random.default_rng(11)
            ends = run_walk_tasks(
                backend, two_cliques, tasks, rng, counters_list=counters
            )
            # Re-run the same fused batch directly for the ground-truth total.
            rng2 = np.random.default_rng(11)
            backend.poisson_walk_batch(
                two_cliques,
                np.concatenate([t.start_nodes for t in tasks]),
                weights_t5,
                rng2,
                counters=scratch,
            )
            total = counters[0].walk_steps + counters[1].walk_steps
            assert total == scratch.walk_steps, backend_name
            assert sum(e.size for e in ends) == 100

    def test_proportional_attribution_with_mixed_none_counters(
        self, two_cliques, weights_t5
    ):
        # Tasks without counters must still consume their proportional
        # share: the last counted task must not absorb the skipped tasks'
        # steps.  (reference backend: no per-walk step support.)
        tasks = [
            WalkTask(
                "poisson", np.zeros(100, dtype=np.int64), weights=weights_t5
            )
            for _ in range(3)
        ]
        counters = [OperationCounters(), None, OperationCounters()]
        run_walk_tasks(
            "reference", two_cliques, tasks, np.random.default_rng(21),
            counters_list=counters,
        )
        # Equal-size tasks: first and last shares differ only by rounding.
        assert abs(counters[0].walk_steps - counters[2].walk_steps) <= 2
        assert counters[0].extras["walk_steps_attribution"] == "proportional"

    def test_incompatible_tasks_not_fused(self, two_cliques, weights_t5):
        # Different alpha values must run as separate kernel calls and
        # therefore carry no fused_* extras.
        tasks = [
            WalkTask("geometric", np.zeros(40, dtype=np.int64), alpha=0.2),
            WalkTask("geometric", np.zeros(40, dtype=np.int64), alpha=0.5),
        ]
        counters = [OperationCounters(), OperationCounters()]
        run_walk_tasks(
            "vectorized", two_cliques, tasks, np.random.default_rng(8),
            counters_list=counters,
        )
        for tally in counters:
            assert tally.random_walks == 40
            assert "fused_tasks" not in tally.extras

    def test_counters_list_length_mismatch_rejected(self, two_cliques, weights_t5):
        tasks = [
            WalkTask("poisson", np.zeros(5, dtype=np.int64), weights=weights_t5)
        ]
        with pytest.raises(ParameterError, match="counters_list"):
            run_walk_tasks(
                "vectorized", two_cliques, tasks, np.random.default_rng(0),
                counters_list=[],
            )

    def test_empty_task_list(self, two_cliques):
        assert run_walk_tasks(
            "vectorized", two_cliques, [], np.random.default_rng(0)
        ) == []

    def test_fusion_respects_walk_cap(self, two_cliques, weights_t5):
        # Ten 100-walk tasks under a 250-walk cap: sub-batches of at most
        # 2 tasks, never one giant concatenated kernel call.
        tasks = [
            WalkTask(
                "poisson",
                np.full(100, (i % 2) * 7, dtype=np.int64),
                weights=weights_t5,
            )
            for i in range(10)
        ]
        counters = [OperationCounters() for _ in tasks]
        ends = run_walk_tasks(
            "vectorized", two_cliques, tasks, np.random.default_rng(12),
            counters_list=counters, max_fused_walks=250,
        )
        for i, tally in enumerate(counters):
            assert tally.random_walks == 100
            assert tally.extras["fused_walks"] <= 250
            assert tally.extras["fused_tasks"] == 2
            expected_component = (ends[i] >= 5) if i % 2 else (ends[i] < 5)
            assert expected_component.all()

    def test_oversized_single_task_still_runs(self, two_cliques, weights_t5):
        # A lone task above the cap runs in cap-sized kernel calls and its
        # endpoints come back as one array (plans chunk their own tasks;
        # direct callers may exceed deliberately).
        task = WalkTask(
            "poisson", np.zeros(300, dtype=np.int64), weights=weights_t5
        )
        ends = run_walk_tasks(
            "vectorized", two_cliques, [task], np.random.default_rng(13),
            max_fused_walks=100,
        )
        assert ends[0].size == 300

    def test_invalid_fusion_cap_rejected(self, two_cliques, weights_t5):
        task = WalkTask(
            "poisson", np.zeros(5, dtype=np.int64), weights=weights_t5
        )
        with pytest.raises(ParameterError, match="max_fused_walks"):
            run_walk_tasks(
                "vectorized", two_cliques, [task], np.random.default_rng(0),
                max_fused_walks=0,
            )

    def test_heat_tasks_fuse_across_hops(self, two_cliques, weights_t5):
        # Same weights but different per-walk hop offsets still fuse (hops
        # are per-walk data, not a kernel parameter).
        tasks = [
            WalkTask(
                "heat", np.zeros(60, dtype=np.int64), hop_offsets=0,
                weights=weights_t5,
            ),
            WalkTask(
                "heat", np.full(40, 7, dtype=np.int64), hop_offsets=3,
                weights=weights_t5,
            ),
        ]
        counters = [OperationCounters(), OperationCounters()]
        ends = run_walk_tasks(
            "vectorized", two_cliques, tasks, np.random.default_rng(9),
            counters_list=counters,
        )
        assert counters[0].extras["fused_tasks"] == 2
        assert (ends[0] < 5).all()
        assert (ends[1] >= 5).all()


class TestRestartWalkCap:
    """No restart-walk kernel call exceeds ``MAX_EXPECTED_STEPS`` expected
    steps, however the walks arrive."""

    ALPHA = 0.01  # a restart walk is expected to take 99 steps

    @pytest.fixture
    def kernel_sizes(self, monkeypatch):
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

    def test_restart_chunk(self, monkeypatch):
        import repro.engine as engine_module

        assert engine_module.MIN_RESTART_ALPHA == 1e-3
        assert engine_module.MAX_EXPECTED_STEPS == 10**7
        # At the floor a call holds 10,010 walks: 10,010 * 999 <= 10^7.
        assert restart_chunk(1e-3) == 10_010
        # From alpha ~0.095 up the walk chunk binds, so the default
        # queries are cut exactly as before the step cap.
        assert restart_chunk(0.15) == restart_chunk(0.095) == 1 << 20
        assert restart_chunk(0.15, 300) == 300
        monkeypatch.setattr(engine_module, "MAX_EXPECTED_STEPS", 2_000)
        assert restart_chunk(self.ALPHA) == 20
        assert restart_chunk(0.5) == 2_000
        for alpha in (5e-324, 1e-7, 9.99e-4, 0.0, 1.0, float("nan")):
            with pytest.raises(ParameterError, match="alpha"):
                restart_chunk(alpha)

    def test_oversized_task_is_cut_to_the_step_cap(self, two_cliques, kernel_sizes):
        tasks = [
            WalkTask(
                "geometric", np.full(50, (i % 2) * 7, dtype=np.int64),
                alpha=self.ALPHA,
            )
            for i in range(3)
        ] + [WalkTask("geometric", np.full(8, 7, dtype=np.int64), alpha=self.ALPHA)] * 3
        counters = [OperationCounters() for _ in tasks]
        ends = run_walk_tasks(
            "vectorized", two_cliques, tasks, np.random.default_rng(4),
            counters_list=counters,
        )
        # Each 50-walk task takes three calls; the 8-walk tasks pack two
        # to a call.
        assert kernel_sizes == [20, 20, 10] * 3 + [16, 8]
        for i, task in enumerate(tasks):
            assert ends[i].size == counters[i].random_walks == task.num_walks
            seed_component = task.start_nodes[0] >= 5
            assert ((ends[i] >= 5) == seed_component).all()

    def test_restart_task_below_the_floor_is_refused(self, two_cliques, kernel_sizes):
        task = WalkTask("geometric", np.zeros(1, dtype=np.int64), alpha=1e-7)
        with pytest.raises(ParameterError, match="alpha"):
            run_walk_tasks("vectorized", two_cliques, [task], np.random.default_rng(0))
        assert kernel_sizes == []


@pytest.mark.statistical
@pytest.mark.parametrize("backend_name", available_backends())
def test_fused_task_distributions_match_exact_laws(backend_name, tiny_grid):
    """Fusion must not change any task's endpoint distribution.

    Three tasks with different start nodes (and one with a different kernel)
    run fused; each task's endpoint histogram is chi-squared against its own
    exact law — the statcheck harness applied *through* the fusion layer.
    """
    weights = PoissonWeights(5.0)
    num_walks = 8000
    tasks = [
        WalkTask(
            "poisson", np.zeros(num_walks, dtype=np.int64), weights=weights
        ),
        WalkTask(
            "poisson", np.full(num_walks, 13, dtype=np.int64), weights=weights
        ),
        WalkTask(
            "geometric", np.full(num_walks, 5, dtype=np.int64), alpha=0.25
        ),
    ]
    ends = run_walk_tasks(
        backend_name, tiny_grid, tasks, np.random.default_rng(424)
    )
    n = tiny_grid.num_nodes
    chi_square_gof(
        endpoint_counts(ends[0], n), poisson_probs(tiny_grid, 0, weights)
    ).assert_ok(context=f"{backend_name}: fused poisson from 0")
    chi_square_gof(
        endpoint_counts(ends[1], n), poisson_probs(tiny_grid, 13, weights)
    ).assert_ok(context=f"{backend_name}: fused poisson from 13")
    chi_square_gof(
        endpoint_counts(ends[2], n), geometric_probs(tiny_grid, 5, 0.25)
    ).assert_ok(context=f"{backend_name}: fused geometric from 5")
