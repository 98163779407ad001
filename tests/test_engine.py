"""Tests for the execution-engine layer (:mod:`repro.engine`).

Four groups:

* registry behaviour (default selection, overrides, unknown names,
  re-registration, teardown),
* the deterministic backend contract (counter accounting and shape
  discipline via :mod:`statcheck`), parametrized over **every registered
  backend** plus a pool-forced parallel instance — a new backend is tested
  by registration alone,
* unit tests for the batched kernels and bulk-accumulation primitives on
  edge cases,
* the statistical parity suite (marked ``statistical``): chi-square
  goodness-of-fit of every kernel and of the TEA / TEA+ / Monte-Carlo /
  FORA walk phases against the exact HKPR/PPR laws, for every backend.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

import statcheck

import repro.engine as engine_module
from repro.engine import (
    BACKEND_ENV_VAR,
    Backend,
    ParallelBackend,
    ReferenceBackend,
    VectorizedBackend,
    available_backends,
    backend_descriptions,
    chunk_sizes,
    default_backend_name,
    get_backend,
    register_backend,
    set_default_backend,
    unregister_backend,
    use_backend,
)
from repro.engine.fused import FusedGroup, FusedQuery, sample_fused_starts
from repro.exceptions import ParameterError
from repro.graph.generators import (
    complete_graph,
    grid_3d_graph,
    powerlaw_cluster_graph,
    ring_graph,
)
from repro.graph.graph import Graph
from repro.hkpr.monte_carlo import monte_carlo_hkpr
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import PoissonWeights
from repro.utils.counters import OperationCounters
from repro.utils.sparsevec import SparseVector


def _contract_backends() -> list[tuple[str, object]]:
    """Every registered backend, plus a pool-forced parallel instance.

    ``parallel-pool`` forces the multiprocessing path even for tiny batches
    and on single-CPU hosts (the registered ``parallel`` backend may
    resolve to one worker and run inline there).
    """
    pairs = [(name, get_backend(name)) for name in available_backends()]
    pairs.append(
        ("parallel-pool", ParallelBackend(num_workers=2, min_parallel_batch=1))
    )
    return pairs


_PAIRS = _contract_backends()
BACKEND_IDS = [pair[0] for pair in _PAIRS]
BACKENDS = [pair[1] for pair in _PAIRS]


@functools.lru_cache(maxsize=None)
def parity_graph(name: str) -> Graph:
    if name == "powerlaw":
        return powerlaw_cluster_graph(60, 3, 0.4, seed=7)
    if name == "grid3d":
        return grid_3d_graph(3, 3, 3)
    if name == "complete":
        return complete_graph(16)
    raise AssertionError(name)


PARITY_GRAPHS = ("powerlaw", "grid3d")


@pytest.fixture
def weights() -> PoissonWeights:
    return PoissonWeights(5.0)


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
class TestRegistry:
    def test_core_backends_registered(self):
        assert available_backends() == ["parallel", "reference", "vectorized"]

    def test_default_is_vectorized(self):
        assert default_backend_name() == "vectorized"
        assert get_backend().name == "vectorized"

    def test_get_by_name_and_instance(self):
        assert get_backend("reference").name == "reference"
        assert get_backend("parallel").name == "parallel"
        backend = ReferenceBackend()
        assert get_backend(backend) is backend

    def test_instance_bypasses_registry(self):
        # An unregistered instance resolves to itself — per-call injection
        # does not require registration, and nothing is added to the registry.
        before = available_backends()
        backend = ParallelBackend(num_workers=1)
        assert get_backend(backend) is backend
        assert available_backends() == before

    def test_registered_instances_resolve_by_identity(self):
        for name in available_backends():
            backend = get_backend(name)
            assert get_backend(backend) is backend

    def test_registered_instance_skips_the_protocol_check(self):
        # Registration is the trust boundary: a registered instance comes
        # back as is, without the (slow) runtime Protocol isinstance check.
        class Minimal:
            name = "tmp-minimal"

        minimal = Minimal()
        assert not isinstance(minimal, Backend)
        register_backend(minimal)
        try:
            assert get_backend(minimal) is minimal
            with pytest.raises(ParameterError):
                get_backend(Minimal)
        finally:
            unregister_backend("tmp-minimal")
        with pytest.raises(ParameterError):
            get_backend(minimal)

    def test_non_backend_objects_rejected_at_the_boundary(self):
        # A class instead of an instance, or an unrelated object, must fail
        # here with ParameterError — not deep inside a walk phase.
        for bad in (VectorizedBackend, 42, object()):
            with pytest.raises(ParameterError):
                get_backend(bad)

    def test_unknown_name_rejected_with_available_list(self):
        with pytest.raises(ParameterError) as excinfo:
            get_backend("no-such-backend")
        for name in available_backends():
            assert name in str(excinfo.value)
        with pytest.raises(ParameterError):
            set_default_backend("no-such-backend")

    def test_reregistering_a_name_overwrites(self):
        first = ReferenceBackend()
        second = ReferenceBackend()
        register_backend(first, name="tmp-overwrite")
        try:
            register_backend(second, name="tmp-overwrite")
            assert get_backend("tmp-overwrite") is second
        finally:
            unregister_backend("tmp-overwrite")
        assert "tmp-overwrite" not in available_backends()

    def test_unregister_unknown_name_rejected(self):
        with pytest.raises(ParameterError):
            unregister_backend("tmp-never-registered")

    def test_unregistering_default_resets_resolution(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        register_backend(VectorizedBackend(), name="tmp-default")
        set_default_backend("tmp-default")
        try:
            assert default_backend_name() == "tmp-default"
        finally:
            unregister_backend("tmp-default")
        # The default falls back to the documented fallback resolution.
        assert default_backend_name() == "vectorized"

    def test_set_default_returns_previous_and_use_backend_restores(self):
        previous = set_default_backend("reference")
        try:
            assert previous == "vectorized"
            assert default_backend_name() == "reference"
            with use_backend("vectorized") as backend:
                assert backend.name == "vectorized"
                assert default_backend_name() == "vectorized"
            assert default_backend_name() == "reference"
        finally:
            set_default_backend("vectorized")

    def test_use_backend_restores_even_when_body_raises(self):
        assert default_backend_name() == "vectorized"
        with pytest.raises(RuntimeError):
            with use_backend("reference"):
                assert default_backend_name() == "reference"
                raise RuntimeError("boom")
        assert default_backend_name() == "vectorized"

    def test_invalid_env_var_error_lists_all_backends(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "bogus")
        monkeypatch.setattr(engine_module, "_default_backend_name", None)
        with pytest.raises(ParameterError) as excinfo:
            default_backend_name()
        message = str(excinfo.value)
        assert "bogus" in message
        for name in ("parallel", "reference", "vectorized"):
            assert name in message
        # An explicit override must still be possible.
        set_default_backend("vectorized")
        assert default_backend_name() == "vectorized"

    def test_backend_descriptions_cover_registry(self):
        descriptions = backend_descriptions()
        assert sorted(descriptions) == available_backends()
        assert all(descriptions.values())

    def test_chunk_sizes(self):
        assert list(chunk_sizes(0, 10)) == []
        assert list(chunk_sizes(7, 10)) == [7]
        assert list(chunk_sizes(25, 10)) == [10, 10, 5]
        with pytest.raises(ParameterError):
            list(chunk_sizes(5, 0))

    def test_chunked_walk_phase_preserves_walk_count_and_mass(self, monkeypatch):
        from repro.hkpr.params import HKPRParams as Params

        monkeypatch.setattr(engine_module, "WALK_CHUNK_SIZE", 7)
        graph = ring_graph(12)
        result = monte_carlo_hkpr(
            graph, 0, Params(t=5.0, delta=0.1), rng=4, num_walks=100
        )
        assert result.counters.random_walks == 100
        assert result.estimates.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------- #
# The deterministic backend contract, for every backend
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
class TestBackendContract:
    def test_counter_accounting(self, backend):
        statcheck.check_counter_accounting(backend)

    def test_shape_discipline(self, backend):
        statcheck.check_shape_discipline(backend)


# ---------------------------------------------------------------------- #
# Kernel unit tests (parametrized over every backend)
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
class TestWalkBatchKernels:
    def test_single_walk_batch(self, backend, weights):
        graph = ring_graph(8)
        rng = np.random.default_rng(1)
        ends = backend.walk_batch(graph, np.array([3]), np.array([0]), weights, rng)
        assert ends.shape == (1,)
        assert graph.has_node(int(ends[0]))

    def test_hop_offset_beyond_truncation_stays_put(self, backend, weights):
        graph = ring_graph(10)
        rng = np.random.default_rng(3)
        starts = np.full(15, 4, dtype=np.int64)
        hops = np.full(15, weights.max_hop + 3, dtype=np.int64)
        assert (backend.walk_batch(graph, starts, hops, weights, rng) == 4).all()

    def test_negative_hop_offset_rejected(self, backend, weights):
        graph = ring_graph(6)
        rng = np.random.default_rng(9)
        with pytest.raises(ParameterError):
            backend.walk_batch(graph, np.array([0]), np.array([-1]), weights, rng)

    def test_poisson_max_length_truncates(self, backend, weights):
        graph = complete_graph(5)
        rng = np.random.default_rng(5)
        counters = OperationCounters()
        starts = np.full(30, 2, dtype=np.int64)
        backend.poisson_walk_batch(
            graph, starts, weights, rng, max_length=2, counters=counters
        )
        assert counters.walk_steps <= 2 * 30


class TestParallelBackendSpecifics:
    def test_records_worker_count_and_execution_mode(self, weights):
        graph = ring_graph(20)
        backend = ParallelBackend(num_workers=2, min_parallel_batch=1)
        counters = OperationCounters()
        backend.walk_batch(
            graph,
            np.zeros(64, dtype=np.int64),
            0,
            weights,
            np.random.default_rng(0),
            counters=counters,
        )
        assert counters.extras["walk_workers"] == 2
        assert counters.extras["walk_execution"] == "pool"

    def test_small_batches_run_inline(self, weights):
        graph = ring_graph(20)
        backend = ParallelBackend(num_workers=2, min_parallel_batch=10**9)
        counters = OperationCounters()
        backend.walk_batch(
            graph,
            np.zeros(64, dtype=np.int64),
            0,
            weights,
            np.random.default_rng(0),
            counters=counters,
        )
        assert counters.extras["walk_execution"] == "inline"

    def test_pool_and_inline_paths_are_byte_identical(self, weights):
        """min_parallel_batch is a pure performance knob, never a result knob."""
        graph = powerlaw_cluster_graph(40, 3, 0.3, seed=5)
        pooled = ParallelBackend(num_workers=2, min_parallel_batch=1)
        inline = ParallelBackend(num_workers=2, min_parallel_batch=10**9)
        starts = np.zeros(512, dtype=np.int64)
        for kernel in ("walk", "poisson", "geometric"):
            rng_a = np.random.default_rng(11)
            rng_b = np.random.default_rng(11)
            if kernel == "walk":
                a = pooled.walk_batch(graph, starts, 0, weights, rng_a)
                b = inline.walk_batch(graph, starts, 0, weights, rng_b)
            elif kernel == "poisson":
                a = pooled.poisson_walk_batch(graph, starts, weights, rng_a)
                b = inline.poisson_walk_batch(graph, starts, weights, rng_b)
            else:
                a = pooled.geometric_walk_batch(graph, starts, 0.2, rng_a)
                b = inline.geometric_walk_batch(graph, starts, 0.2, rng_b)
            assert np.array_equal(a, b), kernel

    def test_more_workers_than_walks(self, weights):
        graph = ring_graph(12)
        backend = ParallelBackend(num_workers=4, min_parallel_batch=1)
        ends = backend.walk_batch(
            graph, np.zeros(2, dtype=np.int64), 0, weights, np.random.default_rng(1)
        )
        assert ends.shape == (2,)

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ParameterError):
            ParallelBackend(num_workers=0)
        with pytest.raises(ParameterError):
            ParallelBackend(min_parallel_batch=0)

    def test_invalid_workers_env_var_rejected(self, monkeypatch):
        from repro.engine.parallel import WORKERS_ENV_VAR, default_worker_count

        for bogus in ("zero", "-3", "0"):
            monkeypatch.setenv(WORKERS_ENV_VAR, bogus)
            with pytest.raises(ParameterError):
                default_worker_count()
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert default_worker_count() == 3
        assert ParallelBackend().num_workers == 3

    def test_shared_graph_cache_reused_and_released(self, weights):
        import gc

        from repro.engine.parallel import _SHARED_GRAPHS, _shared_meta

        graph = ring_graph(30)
        meta_a = _shared_meta(graph)
        meta_b = _shared_meta(graph)
        assert meta_a is not None
        assert meta_a["token"] == meta_b["token"]
        assert id(graph) in _SHARED_GRAPHS
        del graph
        gc.collect()
        tokens = {entry[1].token for entry in _SHARED_GRAPHS.values()}
        assert meta_a["token"] not in tokens


# ---------------------------------------------------------------------- #
# Bulk accumulation and batched sampling
# ---------------------------------------------------------------------- #
class TestAddMany:
    def test_scalar_increment_counts_repeats(self):
        vec = SparseVector()
        vec.add_many(np.array([1, 2, 1, 1, 2]), 0.5)
        assert vec[1] == pytest.approx(1.5)
        assert vec[2] == pytest.approx(1.0)
        assert vec.nnz() == 2

    def test_array_increments_are_summed_per_node(self):
        vec = SparseVector({3: 1.0})
        vec.add_many([3, 4, 3], [0.25, 1.0, 0.75])
        assert vec[3] == pytest.approx(2.0)
        assert vec[4] == pytest.approx(1.0)

    def test_empty_batch_is_noop(self):
        vec = SparseVector({0: 1.0})
        vec.add_many(np.empty(0, dtype=np.int64), 1.0)
        assert vec.to_dict() == {0: 1.0}

    def test_exact_cancellation_drops_entry(self):
        vec = SparseVector({5: 2.0})
        vec.add_many([5], [-2.0])
        assert 5 not in vec
        assert vec.nnz() == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SparseVector().add_many([1, 2], [1.0])

    def test_matches_scalar_add(self):
        rng = np.random.default_rng(13)
        nodes = rng.integers(0, 50, size=1000)
        bulk = SparseVector()
        bulk.add_many(nodes, 0.001)
        scalar: dict[int, float] = {}
        for node in nodes.tolist():
            scalar[node] = scalar.get(node, 0.0) + 0.001
        assert bulk.to_dict() == pytest.approx(scalar)


class TestInverseCDFDraw:
    """Walk starts of TEA, TEA+, FORA and every fused group are drawn by
    :func:`sample_fused_starts`: one ``rng.random`` and one binary search
    per walk over the group's offset-concatenated CDF."""

    @staticmethod
    def _starts(entries, weights, walks, rng):
        weights_t5 = PoissonWeights(5.0)
        queries = [
            FusedQuery("poisson", nodes, w, walks, weights=weights_t5)
            for nodes, w in zip(entries, weights)
        ]
        group = FusedGroup(complete_graph(16), queries, [walks] * len(queries))
        starts, _ = sample_fused_starts(group, rng)
        return starts.reshape(len(queries), walks)

    def test_zero_weight_entries_are_never_drawn(self):
        weights = [0.0, 2.0, 0.0, 1.0, 0.0]
        query = FusedQuery("poisson", [0, 1, 2, 3, 4], weights, 10,
                           weights=PoissonWeights(5.0))
        np.testing.assert_array_equal(query.entry_nodes, [1, 3])
        starts = self._starts(
            [[0, 1, 2, 3, 4]] * 3, [weights] * 3, 2000, np.random.default_rng(0)
        )
        assert set(np.unique(starts).tolist()) == {1, 3}

    def test_a_draw_rounding_up_to_one_is_clamped(self):
        class TopRng:
            """Every draw is the largest double below 1."""

            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        # Query 1's target 1 + u rounds to exactly 2.0, past its own
        # segment (1, 2]; the clamp keeps it on the segment's last entry.
        assert 1.0 + np.nextafter(1.0, 0.0) == 2.0
        starts = self._starts(
            [[0, 1, 2], [5, 6, 7, 8]], [[1.0, 1.0, 1.0], [1.0, 2.0, 0.0, 1.0]],
            4, TopRng(),
        )
        assert (starts[0] == 2).all()
        assert (starts[1] == 8).all()

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ParameterError, match="positive weight"):
            FusedQuery("poisson", [0, 1], [0.0, 0.0], 5,
                       weights=PoissonWeights(5.0))

    def test_single_entry_draws_nothing(self):
        rng = np.random.default_rng(1)
        starts = self._starts([[10]], [[3.0]], 5, rng)
        assert (starts == 10).all()
        assert rng.random() == np.random.default_rng(1).random()

    @pytest.mark.parametrize("weights", [[6.0, 3.0, 1.0], [1e-9, 1.0, 0.0]])
    def test_distribution_matches_weights(self, weights):
        starts = self._starts(
            [[0, 1, 2]], [weights], 30000, np.random.default_rng(2)
        )
        freq = np.bincount(starts[0], minlength=3) / 30000
        assert freq == pytest.approx(np.divide(weights, sum(weights)), abs=0.02)


# ---------------------------------------------------------------------- #
# Statistical parity: every backend against the exact laws
# ---------------------------------------------------------------------- #
@pytest.mark.statistical
@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
class TestKernelDistributions:
    def test_kernels_match_exact_laws_powerlaw(self, backend):
        statcheck.check_kernel_distributions(
            backend, parity_graph("powerlaw"), num_walks=12_000
        )

    def test_kernels_match_exact_laws_with_dangling_node(self, backend, weights):
        # A graph with an isolated node: walks reaching nowhere must match
        # the absorbing-law treatment of transition_matrix.
        graph = Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3)])
        statcheck.check_kernel_distributions(
            backend, graph, weights=weights, hops=(0, 1), num_walks=8000, seed=99
        )


@pytest.mark.statistical
@pytest.mark.slow
@pytest.mark.parametrize("graph_name", PARITY_GRAPHS)
@pytest.mark.parametrize("estimator", statcheck.ESTIMATOR_CHECKS)
@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
class TestEstimatorWalkParity:
    def test_walk_phase_matches_exact_law(self, backend, estimator, graph_name):
        statcheck.check_estimator_walk_parity(
            estimator, parity_graph(graph_name), backend
        )


@pytest.mark.statistical
@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
class TestCrossBackendParity:
    """Every backend agrees with the reference backend's estimator output."""

    def test_supports_and_mass_match_reference(self, backend):
        graph = parity_graph("complete")
        reference = monte_carlo_hkpr(
            graph,
            0,
            HKPRParams(t=5.0, eps_r=0.5, delta=1 / 16, p_f=1e-6),
            rng=99,
            num_walks=6000,
            backend="reference",
        )
        other = monte_carlo_hkpr(
            graph,
            0,
            HKPRParams(t=5.0, eps_r=0.5, delta=1 / 16, p_f=1e-6),
            rng=99,
            num_walks=6000,
            backend=backend,
        )
        assert reference.counters.random_walks == other.counters.random_walks
        assert set(reference.support()) == set(other.support())
        dense_ref = reference.to_dense(graph)
        dense_other = other.to_dense(graph)
        assert np.max(np.abs(dense_ref - dense_other)) < 0.05
        assert dense_ref.sum() == pytest.approx(dense_other.sum(), abs=0.05)
        avg_ref = reference.counters.walk_steps / reference.counters.random_walks
        avg_other = other.counters.walk_steps / other.counters.random_walks
        assert avg_ref == pytest.approx(avg_other, rel=0.25, abs=0.5)
