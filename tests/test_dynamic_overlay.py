"""Model-based tests for the :class:`DeltaGraph` row-start overlay.

A plain edge set is the model: after every batch, each read of the
overlay must equal the same read of a :class:`Graph` built afresh
from the model.  The batches are chosen to hit the overlay's edge cases:
rows emptied to degree 0 and refilled, a hub row rewritten in every
batch, and edges removed and later re-added.  Further tests pin the
validation order, snapshot branching and lock-free concurrent reads.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.dynamic import DeltaGraph
from repro.exceptions import GraphError
from repro.graph.generators import chung_lu_graph, power_law_degree_sequence
from repro.graph.graph import Graph


def _model_edges(graph) -> set[tuple[int, int]]:
    return {(u, v) for u, v in graph.edges()}


def _arrays(view: DeltaGraph) -> tuple[bytes, ...]:
    return tuple(a.tobytes() for a in (view._starts, view._degrees, view._patch))


def _assert_matches_model(view: DeltaGraph, model: set, rng) -> None:
    n = view.num_nodes
    fresh = Graph(n, sorted(model))
    assert view.num_edges == fresh.num_edges
    assert np.array_equal(view.degrees, fresh.degrees)
    for node in range(n):
        assert np.array_equal(view.neighbors(node), fresh.neighbors(node))
        assert view.degree(node) == fresh.degree(node)
    pairs = rng.integers(0, n, size=(200, 2))
    present = sorted(model)[:: max(1, len(model) // 50)]
    for u, v in [tuple(p) for p in pairs] + present:
        if u != v:
            assert view.has_edge(int(u), int(v)) == fresh.has_edge(int(u), int(v))
    assert list(view.edges()) == list(fresh.edges())

    linked = np.flatnonzero(fresh.degrees > 0).tolist()
    seed = int(rng.integers(2**32))
    view_rng, fresh_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for node in linked:
        assert view.random_neighbor(node, view_rng) == fresh.random_neighbor(node, fresh_rng)
    picked = rng.integers(0, n, size=max(1, n // 4)).tolist()
    assert view.volume(picked) == fresh.volume(picked)
    assert view.cut_size(picked) == fresh.cut_size(picked)
    for start in picked[:5]:
        assert view.connected_component(start) == fresh.connected_component(start)
    got, got_map = view.subgraph(picked)
    want, want_map = fresh.subgraph(picked)
    assert got == want and got_map == want_map

    nodes = rng.integers(0, n, size=2000)
    nodes = nodes[fresh.degrees[nodes] > 0]
    offsets = (rng.random(nodes.size) * fresh.degrees[nodes]).astype(np.int64)
    want = fresh.indices[fresh.indptr[nodes] + offsets]
    assert np.array_equal(view.read_slots(view.row_starts[nodes] + offsets), want)

    compact = view.compacted()
    for name in ("indptr", "indices", "degrees"):
        assert getattr(compact, name).tobytes() == getattr(fresh, name).tobytes()


def _pick(rng, pool, k):
    pool = sorted(pool)
    if not pool or k <= 0:
        return []
    picks = rng.choice(len(pool), size=min(k, len(pool)), replace=False)
    return [pool[int(i)] for i in np.atleast_1d(picks)]


class TestOverlayAgainstModel:
    def test_random_batches_match_fresh_builds(self):
        rng = np.random.default_rng(2024)
        degs = power_law_degree_sequence(90, 2.3, 1, 40, seed=4)
        base = chung_lu_graph(degs, seed=4, connected=False)
        n = base.num_nodes
        hub = int(np.argmax(base.degrees))
        model = _model_edges(base)
        removed_earlier: set[tuple[int, int]] = set()
        emptied: list[tuple[int, list]] = []
        view = DeltaGraph(base)
        for step in range(30):
            remove = set(_pick(rng, model, 5))
            # The hub's row is rewritten in every batch.
            hub_edges = {e for e in model if hub in e}
            remove |= set(_pick(rng, hub_edges, 3))
            emptying = None
            if step % 6 == 0:
                # Empty a whole row down to degree 0 ...
                emptying = int(rng.choice([u for u, _ in model if u != hub]))
                row = [e for e in model if emptying in e]
                remove |= set(row)
                emptied.append((step, row))
            add = set()
            for when, row in emptied:
                if when == step - 3:
                    # ... and refill it three batches later.
                    add |= set(row) - (model - remove)
            add |= set(_pick(rng, removed_earlier - model, 3))
            while len(add) < 8:
                u, v = sorted(int(x) for x in rng.integers(0, n, 2))
                if u != v and (u, v) not in model:
                    add.add((u, v))
            for v in range(n):
                if len(add) >= 12:
                    break
                edge = (min(hub, v), max(hub, v))
                if v != hub and edge not in model:
                    add.add(edge)
            add = {e for e in add - remove if emptying not in e}
            view = view.apply(add=sorted(add), remove=sorted(remove))
            model = (model - remove) | add
            removed_earlier |= remove
            assert view.epoch == step + 1
            if emptying is not None:
                assert view.degree(emptying) == 0
            _assert_matches_model(view, model, rng)

    def test_rows_emptied_to_degree_zero_read_empty(self):
        base = Graph(6, [(0, 1), (1, 2), (4, 5)])
        view = DeltaGraph(base).apply(remove=[(0, 1), (1, 2)])
        assert view.degree(1) == 0 and view.neighbors(1).size == 0
        assert view.compacted().indices.tolist() == [5, 4]
        view = view.apply(add=[(1, 3)])
        _assert_matches_model(view, {(1, 3), (4, 5)}, np.random.default_rng(0))

    def test_edgeless_base(self):
        view = DeltaGraph(Graph(5, [])).apply(add=[(0, 4), (2, 3)])
        _assert_matches_model(view, {(0, 4), (2, 3)}, np.random.default_rng(1))


def _chord_ring():
    ring = [(i, (i + 1) % 12) for i in range(12)]
    return Graph(12, ring + [(4, 9), (0, 6)])


class TestValidationOrder:
    """A batch with several bad edges names the first in (node, neighbour)
    order, a duplicate before a missing edge at the same node."""

    CASES = [
        ({"add": [(5, 6), (2, 3), (0, 7)]}, "duplicate edge (2, 3)"),
        ({"add": [(6, 5), (8, 2)]}, "duplicate edge (5, 6)"),
        ({"remove": [(3, 9), (4, 5), (1, 8)]}, "cannot remove missing edge (1, 8)"),
        ({"add": [(4, 9), (1, 10)], "remove": [(4, 7), (6, 10)]}, "duplicate edge (4, 9)"),
        ({"add": [(7, 8), (2, 9)], "remove": [(3, 1)]}, "cannot remove missing edge (1, 3)"),
        ({"add": [(10, 11), (3, 7)], "remove": [(9, 3), (0, 1)]}, "cannot remove missing edge (3, 9)"),
        ({"add": [(1, 9), (11, 0)], "remove": [(2, 3), (11, 5)]}, "duplicate edge (0, 11)"),
    ]

    @pytest.mark.parametrize("patched", [False, True], ids=["base", "patched"])
    @pytest.mark.parametrize("batch,message", CASES)
    def test_first_bad_edge_reported_and_nothing_applied(self, batch, message, patched):
        view = DeltaGraph(_chord_ring())
        if patched:
            view = view.apply(add=[(2, 5)])
        before = _arrays(view)
        with pytest.raises(GraphError) as excinfo:
            view.apply(**batch)
        assert str(excinfo.value) == message
        assert _arrays(view) == before
        assert view.epoch == int(patched)

    @pytest.mark.parametrize(
        "bad",
        [[[1]], [[1, 2, 3]], [1, 2], [["x", 2]], [[None, 2]], [[1.7, 5]], [[True, 7]],
         [[1.0, 5]], np.array([[1.0, 5.0]]), np.array([[True, False]])],
        ids=["short", "long", "flat", "str", "null", "float", "bool", "integral-float",
             "float-array", "bool-array"],
    )
    def test_items_that_are_not_two_integers_are_rejected(self, bad):
        view = DeltaGraph(_chord_ring())
        before = _arrays(view)
        for side in ("add", "remove"):
            with pytest.raises(GraphError, match="integer"):
                view.apply(**{side: bad})
        assert _arrays(view) == before

    def test_integer_items_of_any_kind_are_accepted(self):
        view = DeltaGraph(_chord_ring())
        after = view.apply(add=[(np.int64(1), 5), [2, np.int32(7)], np.array([3, 8])])
        assert after.num_edges == view.num_edges + 3
        after = view.apply(add=np.array([[1, 5]], dtype=np.uint8))
        assert after.has_edge(1, 5)


class TestSnapshotBranching:
    def test_two_batches_on_one_snapshot_are_independent(self):
        origin = DeltaGraph(_chord_ring()).apply(add=[(1, 7)], remove=[(4, 9)])
        before = _arrays(origin)
        rows = [origin.neighbors(v).tolist() for v in range(12)]
        left = origin.apply(add=[(1, 5), (4, 9)])
        right = origin.apply(remove=[(1, 7), (1, 2)], add=[(1, 3)])
        assert _arrays(origin) == before
        assert [origin.neighbors(v).tolist() for v in range(12)] == rows
        assert left.neighbors(1).tolist() == [0, 2, 5, 7]
        assert right.neighbors(1).tolist() == [0, 3]
        assert left.has_edge(4, 9) and not right.has_edge(4, 9)
        assert left.epoch == right.epoch == origin.epoch + 1
        base_edges = _model_edges(_chord_ring())
        rng = np.random.default_rng(5)
        _assert_matches_model(left, (base_edges | {(1, 7), (1, 5)}), rng)
        _assert_matches_model(right, (base_edges - {(4, 9), (1, 2)}) | {(1, 3)}, rng)


class TestConcurrentReads:
    def test_readers_of_an_old_snapshot_are_unaffected_by_writes(self):
        from repro.engine import get_backend
        from repro.hkpr.poisson import PoissonWeights

        degs = power_law_degree_sequence(400, 2.5, 2, 40, seed=6)
        base = chung_lu_graph(degs, seed=6, connected=False)
        old = DeltaGraph(base).apply(add=[(0, 399), (1, 398)])
        backend = get_backend("vectorized")
        weights = PoissonWeights(5.0)
        starts = np.flatnonzero(old.degrees > 0)[:256].astype(np.int64)

        def walk(seed):
            return backend.poisson_walk_batch(old, starts, weights, np.random.default_rng(seed))

        alone = [walk(seed) for seed in range(4)]
        model = _model_edges(old)
        rng = np.random.default_rng(9)
        batches = []
        for _ in range(40):
            remove = _pick(rng, model, 20)
            add = []
            while len(add) < 20:
                u, v = sorted(int(x) for x in rng.integers(0, old.num_nodes, 2))
                if u != v and (u, v) not in model and (u, v) not in add:
                    add.append((u, v))
            model = (model - set(remove)) | set(add)
            batches.append((add, remove))

        stop = threading.Event()
        mismatches: list[int] = []

        def reader(seed):
            while not stop.is_set():
                if not np.array_equal(walk(seed), alone[seed]):
                    mismatches.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=reader, args=(s,)) for s in range(4)]
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 2.0
            view = old
            for add, remove in batches:
                view = view.apply(add=add, remove=remove)
                view.compacted()
                if time.monotonic() > deadline:
                    break
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert [walk(seed).tolist() for seed in range(4)] == [a.tolist() for a in alone]
