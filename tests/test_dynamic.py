"""Tests for the dynamic-graph subsystem (:mod:`repro.dynamic`).

Covers the :class:`DeltaGraph` overlay: snapshot semantics, validation,
byte-identical compaction, and read-through by every backend's walk
kernels, the pushes, the estimators and the walk index with no
behavioural change.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamic import DeltaGraph, MutationEvent, default_compaction_threshold
from repro.engine import ParallelBackend, available_backends, get_backend
from repro.exceptions import GraphError, NodeNotFoundError
from repro.graph.generators import chung_lu_graph, power_law_degree_sequence, ring_graph
from repro.graph.graph import Graph


def _edge_set(graph) -> set[tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in graph.edges()}


def _random_batches(graph, rng, rounds: int):
    """Random feasible (add, remove) batches against an evolving edge set."""
    n = graph.num_nodes
    edges = _edge_set(graph)
    for _ in range(rounds):
        candidates = set()
        while len(candidates) < 6:
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v:
                candidates.add((min(u, v), max(u, v)))
        add = sorted(candidates - edges)[:4]
        remove = []
        if edges:
            pool = sorted(edges)
            picks = rng.choice(len(pool), size=min(3, len(pool)), replace=False)
            remove = [pool[int(i)] for i in np.atleast_1d(picks)]
        edges |= set(add)
        edges -= set(remove)
        yield add, remove


class TestDeltaGraph:
    def test_add_remove_semantics(self):
        base = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)])
        view = DeltaGraph(base)
        assert view.epoch == 0
        after = view.apply(add=[(0, 5), (1, 4)], remove=[(2, 3)])
        # the old snapshot is untouched
        assert view.num_edges == 4 and not view.has_edge(0, 5)
        assert after.epoch == 1
        assert after.num_edges == 5
        assert after.has_edge(0, 5) and after.has_edge(1, 4)
        assert not after.has_edge(2, 3)
        assert after.degree(1) == 3
        assert list(after.neighbors(1)) == [0, 2, 4]
        assert int(after.degrees.sum()) == 2 * after.num_edges

    def test_mutation_event_contents(self):
        view = DeltaGraph(Graph(5, [(0, 1), (1, 2)]))
        after = view.add_edges([(0, 3)]).remove_edges([(1, 2)])
        event = after.last_event
        assert isinstance(event, MutationEvent)
        assert (event.epoch_before, event.epoch) == (1, 2)
        assert event.removed.tolist() == [[1, 2]]
        combined = view.apply(add=[(0, 3)], remove=[(1, 2)])
        assert combined.last_event.added.tolist() == [[0, 3]]

    def test_validation_errors(self):
        view = DeltaGraph(Graph(5, [(0, 1), (1, 2), (2, 3)]))
        with pytest.raises(GraphError, match="duplicate edge"):
            view.apply(add=[(0, 1)])
        with pytest.raises(GraphError, match="cannot remove missing edge"):
            view.apply(remove=[(0, 3)])
        with pytest.raises(GraphError, match="both the add and remove"):
            view.apply(add=[(0, 4)], remove=[(0, 4)])
        with pytest.raises(NodeNotFoundError):
            view.apply(add=[(0, 9)])
        with pytest.raises(GraphError, match="self-loop"):
            view.apply(add=[(2, 2)])
        with pytest.raises(GraphError, match="duplicate edge .* in add batch"):
            view.apply(add=[(0, 4), (4, 0)])
        # a failed apply leaves the snapshot untouched
        assert view.epoch == 0 and view.num_edges == 3

    def test_compaction_byte_identical_randomized(self):
        """Property test: after any edit sequence, compaction reproduces the
        exact CSR arrays a from-scratch :class:`Graph` build emits."""
        rng = np.random.default_rng(42)
        degs = power_law_degree_sequence(120, 2.5, 2, 20, seed=7)
        base = chung_lu_graph(degs, seed=7, connected=False)
        view = DeltaGraph(base)
        for add, remove in _random_batches(base, rng, rounds=12):
            view = view.apply(add=add, remove=remove)
            scratch = Graph(base.num_nodes, sorted(_edge_set(view)))
            compact = view.compacted()
            assert compact.indptr.tobytes() == scratch.indptr.tobytes()
            assert compact.indices.tobytes() == scratch.indices.tobytes()
            assert compact.degrees.tobytes() == scratch.degrees.tobytes()

    def test_slot_reads_match_compacted(self):
        rng = np.random.default_rng(3)
        base = ring_graph(30)
        view = DeltaGraph(base).apply(add=[(0, 5), (2, 9)], remove=[(10, 11)])
        compact = view.compacted()
        nodes = rng.integers(0, 30, size=200)
        degrees = view.degrees[nodes]
        nodes = nodes[degrees > 0]
        offsets = (rng.random(nodes.size) * view.degrees[nodes]).astype(np.int64)
        got = view.read_slots(view.row_starts[nodes] + offsets)
        want = compact.indices[compact.indptr[nodes] + offsets]
        assert np.array_equal(got, want)

    def test_facade_parity_with_compacted(self):
        view = DeltaGraph(ring_graph(12)).apply(add=[(0, 6), (1, 7)], remove=[(3, 4)])
        compact = view.compacted()
        assert view.num_nodes == compact.num_nodes
        assert view.num_edges == compact.num_edges
        assert view.total_volume == compact.total_volume
        assert view.average_degree == compact.average_degree
        nodes = [0, 1, 6]
        assert view.volume(nodes) == compact.volume(nodes)
        assert view.cut_size(nodes) == compact.cut_size(nodes)
        assert sorted(view.connected_component(0)) == sorted(
            compact.connected_component(0)
        )
        assert view.is_connected() == compact.is_connected()
        assert _edge_set(view) == _edge_set(compact)

    def test_should_compact_threshold(self):
        base = ring_graph(10)
        view = DeltaGraph(base).apply(add=[(0, 2)])
        assert not view.should_compact(threshold=2)
        view = view.apply(add=[(0, 3)])
        assert view.delta_edges == 2
        assert view.should_compact(threshold=1)
        assert not view.should_compact(threshold=2)  # strictly-greater contract
        assert default_compaction_threshold(10) == 1024
        assert default_compaction_threshold(80_000) == 10_000


@pytest.fixture
def overlay():
    """A 200-node Chung-Lu graph after three random mutation batches."""
    degs = power_law_degree_sequence(200, 2.5, 2, 20, seed=5)
    base = chung_lu_graph(degs, seed=5, connected=False)
    view = DeltaGraph(base)
    rng = np.random.default_rng(8)
    for add, remove in _random_batches(base, rng, rounds=3):
        view = view.apply(add=add, remove=remove)
    return view


#: ``parallel`` on a two-worker pool that takes every batch: pooled shards
#: read the overlay's compaction, inline ones the overlay itself.
POOLED = ParallelBackend(num_workers=2, min_parallel_batch=1)

#: Every registered backend, plus the pool-forced parallel instance.
WALK_BACKENDS = [
    pytest.param(get_backend(name), id=name) for name in available_backends()
] + [pytest.param(POOLED, id="parallel-pool")]


class TestVectorizedOverlay:
    """Walk kernels read through the overlay with no behavioural change."""

    @pytest.mark.parametrize("backend", WALK_BACKENDS)
    def test_walk_batches_identical_to_compacted(self, overlay, backend):
        from repro.hkpr.poisson import PoissonWeights

        compact = overlay.compacted()
        weights = PoissonWeights(5.0)
        starts = np.flatnonzero(overlay.degrees > 0)[:64].astype(np.int64)
        hops = np.arange(starts.size, dtype=np.int64) % 4

        got = backend.walk_batch(
            overlay, starts, hops, weights, np.random.default_rng(0)
        )
        want = backend.walk_batch(
            compact, starts, hops, weights, np.random.default_rng(0)
        )
        assert np.array_equal(got, want)

        got = backend.poisson_walk_batch(
            overlay, starts, weights, np.random.default_rng(1)
        )
        want = backend.poisson_walk_batch(
            compact, starts, weights, np.random.default_rng(1)
        )
        assert np.array_equal(got, want)

        got = backend.geometric_walk_batch(
            overlay, starts, 0.2, np.random.default_rng(2)
        )
        want = backend.geometric_walk_batch(
            compact, starts, 0.2, np.random.default_rng(2)
        )
        assert np.array_equal(got, want)


def _overlay_seeds(view):
    """The last batch's endpoints, which sit on patched rows, and a few low ids."""
    event = view.last_event
    touched = np.unique(np.concatenate([event.added.ravel(), event.removed.ravel()]))
    linked = np.flatnonzero(view.degrees > 0)
    return sorted({int(v) for v in touched[:3]} | {int(v) for v in linked[:3]})


class TestPushOverlay:
    """HK-Push, the PPR frontier push and the push-based estimators read a
    mutated graph through the overlay with no behavioural change."""

    def test_pushes_match_compacted(self, overlay):
        from repro.hkpr.hk_push import hk_push
        from repro.hkpr.poisson import PoissonWeights
        from repro.ppr.push import forward_push

        compact = overlay.compacted()
        weights = PoissonWeights(5.0)
        for seed in _overlay_seeds(overlay):
            got = hk_push(overlay, seed, 1e-4, weights)
            want = hk_push(compact, seed, 1e-4, weights)
            assert got.reserve.to_dict() == want.reserve.to_dict()
            assert got.residues.num_hops == want.residues.num_hops
            for hop in range(got.residues.num_hops):
                assert got.residues.layer(hop) == want.residues.layer(hop)
            assert got.counters.push_operations == want.counters.push_operations

            got = forward_push(overlay, seed, alpha=0.2, r_max=1e-4)
            want = forward_push(compact, seed, alpha=0.2, r_max=1e-4)
            assert got.reserve.to_dict() == want.reserve.to_dict()
            assert got.residue.to_dict() == want.residue.to_dict()
            assert got.counters.push_operations == want.counters.push_operations

    @pytest.mark.parametrize("method", ["tea", "fora", "hk-relax", "pr-nibble", "hk-push"])
    def test_push_estimators_match_compacted(self, overlay, method):
        from repro.estimators import resolve

        spec = resolve(method)
        compact = overlay.compacted()
        for seed in _overlay_seeds(overlay):
            got = spec.estimate(overlay, seed, rng=3)
            want = spec.estimate(compact, seed, rng=3)
            assert got.estimates.to_dict() == want.estimates.to_dict()
            assert got.counters.push_operations == want.counters.push_operations
            assert got.counters.random_walks == want.counters.random_walks


class TestTeaPlusOverlay:
    """HK-Push+, TEA+ and the sweep read a mutated graph through the overlay."""

    def test_hk_push_plus_matches_compacted(self, overlay):
        from repro.hkpr.hk_push_plus import hk_push_plus
        from repro.hkpr.poisson import PoissonWeights

        compact = overlay.compacted()
        weights = PoissonWeights(5.0)
        for seed in _overlay_seeds(overlay):
            got = hk_push_plus(overlay, seed, 0.5, 1e-4, 6, 10**6, weights)
            want = hk_push_plus(compact, seed, 0.5, 1e-4, 6, 10**6, weights)
            assert got.reserve.to_dict() == want.reserve.to_dict()
            for hop in range(7):
                assert got.residues.layer(hop) == want.residues.layer(hop)
            assert got.pushes_used == want.pushes_used
            assert got.normalized_residue_sum == want.normalized_residue_sum

    @pytest.mark.parametrize(
        "kwargs",
        [None, {"push_budget": 50, "max_walks": 2000}],
        ids=["early-exit", "walk-phase"],
    )
    def test_local_cluster_tea_plus_matches_compacted(self, overlay, kwargs):
        from repro.clustering import local_cluster

        compact = overlay.compacted()
        walks = 0
        for seed in _overlay_seeds(overlay):
            got = local_cluster(overlay, seed, method="tea+", rng=3, estimator_kwargs=kwargs)
            want = local_cluster(compact, seed, method="tea+", rng=3, estimator_kwargs=kwargs)
            walks += got.hkpr.counters.random_walks
            assert got.hkpr.counters.random_walks == want.hkpr.counters.random_walks
            assert got.hkpr.estimates.to_dict() == want.hkpr.estimates.to_dict()
            assert got.cluster == want.cluster
            assert got.conductance == want.conductance
            assert got.sweep.sweep_order == want.sweep.sweep_order
        assert (walks > 0) == (kwargs is not None)


class TestOverlayWhereCSRIsNeeded:
    """The parallel pool's shared-memory export and the walk index's
    fingerprint need contiguous CSR; each asks the overlay for its
    compaction, so library calls on an overlay equal those on the
    compaction."""

    def test_monte_carlo_on_the_pool_matches_compacted(self, overlay):
        from repro.hkpr.monte_carlo import monte_carlo_hkpr
        from repro.hkpr.params import HKPRParams

        params = HKPRParams(delta=1.0 / overlay.num_nodes)
        compact = overlay.compacted()
        for seed in _overlay_seeds(overlay):
            got = monte_carlo_hkpr(overlay, seed, params, num_walks=2000, rng=3, backend=POOLED)
            want = monte_carlo_hkpr(compact, seed, params, num_walks=2000, rng=3, backend=POOLED)
            assert got.counters.extras["walk_execution"] == "pool"
            assert got.estimates.to_dict() == want.estimates.to_dict()
            assert got.counters.walk_steps == want.counters.walk_steps

    def test_tea_plus_walk_phase_on_the_pool_matches_compacted(self, overlay):
        from repro.hkpr.params import HKPRParams
        from repro.hkpr.tea_plus import tea_plus

        params = HKPRParams(delta=1.0 / overlay.num_nodes)
        compact = overlay.compacted()
        kwargs = {"rng": 3, "push_budget": 50, "max_walks": 2000, "backend": POOLED}
        walks = 0
        for seed in _overlay_seeds(overlay):
            got = tea_plus(overlay, seed, params, **kwargs)
            want = tea_plus(compact, seed, params, **kwargs)
            walks += got.counters.random_walks
            assert got.counters.random_walks == want.counters.random_walks
            assert got.estimates.to_dict() == want.estimates.to_dict()
        assert walks > 0

    def test_walk_index_of_an_overlay_matches_compacted(self, overlay):
        from repro.index import build_walk_index

        kwargs = {"num_hubs": 8, "walks_per_sketch": 300, "alpha_values": (0.2,)}
        got = build_walk_index(overlay, **kwargs)
        want = build_walk_index(overlay.compacted(), **kwargs)
        for name in ("_nodes", "_kinds", "_buckets", "_ptr", "_endpoints"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert (got.graph_n, got.graph_m, got.fingerprint) == (
            want.graph_n, want.graph_m, want.fingerprint
        )
        got.verify_graph(overlay)
        want.verify_graph(overlay)
