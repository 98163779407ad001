"""Tests for the dynamic-graph subsystem (:mod:`repro.dynamic`).

Covers the :class:`DeltaGraph` overlay (snapshot semantics, validation,
byte-identical compaction, vectorized read-through) and the incremental
push repair (undo-and-replay) for both forward push and HK-Push.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamic import (
    DeltaGraph,
    MutationEvent,
    default_compaction_threshold,
    dynamic_forward_push,
    dynamic_hk_push,
    repair_hk_push,
    repair_ppr_push,
)
from repro.exceptions import GraphError, NodeNotFoundError, ParameterError
from repro.graph.generators import chung_lu_graph, power_law_degree_sequence, ring_graph
from repro.graph.graph import Graph
from repro.hkpr.params import HKPRParams
from repro.hkpr.exact import exact_hkpr
from repro.ppr.exact import exact_ppr


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
        assert event.touched_nodes().tolist() == [1, 2]
        combined = view.apply(add=[(0, 3)], remove=[(1, 2)])
        assert combined.last_event.added.tolist() == [[0, 3]]
        assert combined.last_event.added_neighbors(0) == [3]
        assert combined.last_event.removed_neighbors(2) == [1]

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

    def test_gather_neighbors_matches_compacted(self):
        rng = np.random.default_rng(3)
        base = ring_graph(30)
        view = DeltaGraph(base).apply(add=[(0, 5), (2, 9)], remove=[(10, 11)])
        compact = view.compacted()
        nodes = rng.integers(0, 30, size=200)
        degrees = view.degrees[nodes]
        nodes = nodes[degrees > 0]
        offsets = (rng.random(nodes.size) * view.degrees[nodes]).astype(np.int64)
        got = view.gather_neighbors(nodes, offsets)
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

    def test_for_backend_dispatch(self):
        view = DeltaGraph(ring_graph(8)).apply(add=[(0, 4)])

        class Overlay:
            supports_overlay = True

        class Plain:
            pass

        assert view.for_backend(Overlay()) is view
        compacted = view.for_backend(Plain())
        assert isinstance(compacted, Graph)
        assert compacted.num_edges == view.num_edges


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


class TestVectorizedOverlay:
    """Walk kernels read through the overlay with no behavioural change."""

    def test_walk_batches_identical_to_compacted(self, overlay):
        from repro.engine import get_backend
        from repro.hkpr.poisson import PoissonWeights

        backend = get_backend("vectorized")
        assert backend.supports_overlay
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


class TestTeaPlusOverlay:
    """HK-Push+, TEA+ and the sweep read a mutated graph through the overlay."""

    def _seeds(self, view):
        # The last batch's endpoints sit on patched rows; add a few low ids.
        touched = view.last_event.touched_nodes()
        linked = np.flatnonzero(view.degrees > 0)
        return sorted({int(v) for v in touched[:3]} | {int(v) for v in linked[:3]})

    def test_hk_push_plus_matches_compacted(self, overlay):
        from repro.hkpr.hk_push_plus import hk_push_plus
        from repro.hkpr.poisson import PoissonWeights

        compact = overlay.compacted()
        weights = PoissonWeights(5.0)
        for seed in self._seeds(overlay):
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
        for seed in self._seeds(overlay):
            got = local_cluster(overlay, seed, method="tea+", rng=3, estimator_kwargs=kwargs)
            want = local_cluster(compact, seed, method="tea+", rng=3, estimator_kwargs=kwargs)
            walks += got.hkpr.counters.random_walks
            assert got.hkpr.counters.random_walks == want.hkpr.counters.random_walks
            assert got.hkpr.estimates.to_dict() == want.hkpr.estimates.to_dict()
            assert got.cluster == want.cluster
            assert got.conductance == want.conductance
            assert got.sweep.sweep_order == want.sweep.sweep_order
        assert (walks > 0) == (kwargs is not None)


def _ppr_invariant_error(state, graph, alpha: float) -> float:
    """Max abs error of ``reserve + sum_u r[u] * ppr_u`` vs the exact PPR."""
    n = graph.num_nodes
    reconstructed = state.reserve.to_dense(n).astype(float)
    for node, value in state.residue.items():
        if value == 0.0:
            continue
        contrib = exact_ppr(graph, node, alpha=alpha, tolerance=1e-14)
        reconstructed += value * contrib.estimates.to_dense(n)
    truth = exact_ppr(graph, state.seed_node, alpha=alpha, tolerance=1e-14)
    return float(np.abs(reconstructed - truth.estimates.to_dense(n)).max())


class TestPPRRepair:
    ALPHA = 0.2
    R_MAX = 1e-4

    @pytest.fixture
    def evolving(self):
        degs = power_law_degree_sequence(150, 2.5, 2, 15, seed=9)
        base = chung_lu_graph(degs, seed=9, connected=False)
        return DeltaGraph(base)

    def test_repair_preserves_invariant_and_bound(self, evolving):
        rng = np.random.default_rng(17)
        seed = int(np.argmax(evolving.degrees))
        state = dynamic_forward_push(
            evolving, seed, alpha=self.ALPHA, r_max=self.R_MAX
        )
        view = evolving
        for add, remove in _random_batches(view, rng, rounds=5):
            view = view.apply(add=add, remove=remove)
            state = repair_ppr_push(state, view, view.last_event)
            assert state.epoch == view.epoch
        assert state.repairs == 5

        # The push invariant holds to float accuracy after every repair...
        assert _ppr_invariant_error(state, view, self.ALPHA) < 1e-10
        # ...and so does the per-degree residue bound (now on |r|).
        for node, value in state.residue.items():
            degree = view.degree(node)
            if degree > 0:
                assert abs(value) <= self.R_MAX * degree + 1e-15

    def test_repaired_reserve_matches_scratch(self, evolving):
        """Repaired reserves match a from-scratch push on the new graph
        within the push method's own r_max error envelope."""
        view = evolving.apply(add=[(0, 5), (1, 7)], remove=[])
        seed = int(np.argmax(evolving.degrees))
        state = dynamic_forward_push(
            evolving, seed, alpha=self.ALPHA, r_max=self.R_MAX
        )
        repair_ppr_push(state, view, view.last_event)
        scratch = dynamic_forward_push(
            view, seed, alpha=self.ALPHA, r_max=self.R_MAX
        )
        for node in range(view.num_nodes):
            degree = view.degree(node)
            if degree == 0:
                continue
            diff = abs(state.reserve[node] - scratch.reserve[node]) / degree
            assert diff <= 2.0 * self.R_MAX + 1e-15

    def test_out_of_order_event_rejected(self, evolving):
        seed = int(np.argmax(evolving.degrees))
        state = dynamic_forward_push(evolving, seed, alpha=0.2)
        v1 = evolving.apply(add=[(0, 5)])
        v2 = v1.apply(add=[(1, 6)])
        with pytest.raises(ParameterError, match="repair events in order"):
            repair_ppr_push(state, v2, v2.last_event)
        with pytest.raises(ParameterError, match="post-event epoch"):
            repair_ppr_push(state, v2, v1.last_event)
        # in order is fine
        repair_ppr_push(state, v1, v1.last_event)
        repair_ppr_push(state, v2, v2.last_event)
        assert state.epoch == 2


def _hk_invariant_error(state, graph) -> float:
    """Max abs error of the Lemma-1 reconstruction vs the exact HKPR.

    ``reserve + sum_{k,u} r_k[u] * h_k(u, .)`` where ``h_k`` propagates a
    hop-``k`` residue through the remaining truncated Poisson process.
    """
    n = graph.num_nodes
    weights = state.weights
    hop_limit = weights.max_hop
    adjacency = graph.adjacency_matrix().astype(float)
    degrees = np.asarray(graph.degrees, dtype=float)
    transition = np.zeros((n, n))
    nonzero = degrees > 0
    transition[nonzero] = adjacency.toarray()[nonzero] / degrees[nonzero, None]
    transition[~nonzero, ~nonzero] = 1.0  # isolated mass stays put

    # H[k][u] = distribution of final positions for residue mass at hop k.
    hstack = [np.eye(n) for _ in range(hop_limit + 2)]
    for hop in range(hop_limit, -1, -1):
        stop = weights.stop_probability(hop)
        hstack[hop] = stop * np.eye(n) + (1.0 - stop) * transition @ hstack[hop + 1]
        # isolated nodes keep all their mass regardless of the hop law
        hstack[hop][~nonzero] = np.eye(n)[~nonzero]

    reconstructed = state.reserve.to_dense(n).astype(float)
    for hop in range(state.residues.num_hops):
        for node, value in state.residues.layer(hop).items():
            if value == 0.0:
                continue
            propagate = hstack[hop] if hop <= hop_limit else np.eye(n)
            reconstructed += value * propagate[node]
    truth = exact_hkpr(graph.compacted(), state.seed_node, HKPRParams(t=state.t))
    return float(np.abs(reconstructed - truth.estimates.to_dense(n)).max())


class TestHKRepair:
    T = 4.0
    R_MAX = 1e-4

    @pytest.fixture
    def evolving(self):
        degs = power_law_degree_sequence(60, 2.5, 2, 10, seed=13)
        base = chung_lu_graph(degs, seed=13, connected=False)
        return DeltaGraph(base)

    def test_repair_preserves_invariant_and_bound(self, evolving):
        rng = np.random.default_rng(23)
        seed = int(np.argmax(evolving.degrees))
        state = dynamic_hk_push(evolving, seed, t=self.T, r_max=self.R_MAX)
        view = evolving
        for add, remove in _random_batches(view, rng, rounds=3):
            view = view.apply(add=add, remove=remove)
            state = repair_hk_push(state, view, view.last_event)
        assert state.repairs == 3 and state.epoch == view.epoch

        assert _hk_invariant_error(state, view) < 1e-10
        for hop in range(state.residues.num_hops):
            for node, value in state.residues.layer(hop).items():
                degree = view.degree(node)
                if degree > 0:
                    assert abs(value) <= self.R_MAX * degree + 1e-15

    def test_repaired_reserve_matches_scratch(self, evolving):
        view = evolving.apply(add=[(0, 7)], remove=[])
        seed = int(np.argmax(evolving.degrees))
        state = dynamic_hk_push(evolving, seed, t=self.T, r_max=self.R_MAX)
        repair_hk_push(state, view, view.last_event)
        scratch = dynamic_hk_push(view, seed, t=self.T, r_max=self.R_MAX)
        # Both states approximate the same HKPR vector within the push
        # method's r_max envelope; their difference obeys the same scale.
        hop_budget = float(state.weights.max_hop + 1)
        for node in range(view.num_nodes):
            degree = view.degree(node)
            if degree == 0:
                continue
            diff = abs(state.reserve[node] - scratch.reserve[node]) / degree
            assert diff <= 2.0 * hop_budget * self.R_MAX

    def test_out_of_order_event_rejected(self, evolving):
        seed = int(np.argmax(evolving.degrees))
        state = dynamic_hk_push(evolving, seed, t=self.T)
        v1 = evolving.apply(add=[(0, 7)])
        v2 = v1.apply(remove=[(0, 7)])
        with pytest.raises(ParameterError, match="repair events in order"):
            repair_hk_push(state, v2, v2.last_event)
        repair_hk_push(state, v1, v1.last_event)
        repair_hk_push(state, v2, v2.last_event)
        assert state.epoch == 2
