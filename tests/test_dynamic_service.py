"""Service-layer integration tests for dynamic graphs.

Epoch bumps through :meth:`GraphRegistry.mutate`, one-code-path cache
invalidation (mutation and removal both evict via the registry hooks),
answers computed and rendered on the admission snapshot while mutations
land mid-query, walk-index staleness, and the ``POST /graphs/<name>/edges``
HTTP endpoint.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import estimate
from repro.dynamic import DeltaGraph, default_compaction_threshold
from repro.exceptions import GraphError, ServiceError, WalkIndexError
from repro.graph.generators import (
    chung_lu_graph,
    power_law_degree_sequence,
    ring_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.hkpr.poisson import cached_weights
from repro.index import build_walk_index
from repro.service import GraphRegistry, QueryService, ResultCache
from repro.service.http import serve_in_thread
from repro.service.planner import build_plan, normalize_request


@pytest.fixture
def graph():
    degs = power_law_degree_sequence(300, 2.5, 2, 25, seed=3)
    return chung_lu_graph(degs, seed=3, connected=False)


def _absent_edge(graph, start=0):
    u = start
    v = u + 1
    while graph.has_edge(u, v) or u == v:
        v += 1
    return [u, v]


class TestRegistryMutation:
    def test_mutate_bumps_epoch_and_swaps_snapshot(self, graph):
        registry = GraphRegistry()
        entry = registry.add_graph("g", graph)
        before = entry.graph
        edge = _absent_edge(graph)
        summary = registry.mutate("g", add=[edge])
        assert summary["epoch"] == 1 == entry.epoch
        assert summary["added"] == 1 and summary["removed"] == 0
        assert summary["num_edges"] == graph.num_edges + 1
        assert entry.graph is not before
        assert entry.graph.has_edge(*edge)
        assert not before.has_edge(*edge)  # old snapshot untouched
        assert registry.describe()[0]["epoch"] == 1

    def test_mutate_compacts_past_threshold(self, graph):
        registry = GraphRegistry()
        entry = registry.add_graph("g", graph)
        entry.compaction_threshold = 1
        e1, e2 = _absent_edge(graph, 0), _absent_edge(graph, 1)
        assert not registry.mutate("g", add=[e1])["compacted"]
        summary = registry.mutate("g", add=[e2])
        assert summary["compacted"] and summary["delta_edges"] == 0
        # the rebuilt base keeps the epoch, so cache keys never go back
        assert entry.graph.epoch == 2
        assert isinstance(entry.graph, DeltaGraph)
        assert entry.graph.delta_edges == 0

    def test_patch_stays_bounded_under_one_edge_batches_on_one_node(self):
        # Each batch appends the whole merged row of node 0, so without the
        # patch budget the 1,025th one-edge batch, the first past the
        # delta-edge budget, would find ~530,000 patch entries beside a
        # base of 6,002.
        n = 3001
        ring = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        entry = GraphRegistry().add_graph("g", ring)
        compactions = []
        for v in range(2, n - 1):
            _, compacted = entry.mutate(add=[(0, v)])
            view = entry.graph
            assert view.delta_edges <= default_compaction_threshold(view.base.num_edges)
            assert view._patch.size <= 2 * max(view.base.indices.size, 2048)
            if compacted:
                compactions.append(entry.epoch)
        # The patch budget, not the delta-edge budget, fired first.
        assert compactions and compactions[0] < default_compaction_threshold(n)
        assert entry.graph.degree(0) == n - 1
        fresh = Graph(n, sorted(ring.edges()) + [(0, v) for v in range(2, n - 1)])
        served = entry.graph.compacted()
        for name in ("indptr", "indices", "degrees"):
            assert getattr(served, name).tobytes() == getattr(fresh, name).tobytes()

    def test_bad_batch_leaves_entry_untouched(self, graph):
        registry = GraphRegistry()
        entry = registry.add_graph("g", graph)
        with pytest.raises(GraphError):
            registry.mutate("g", add=[[0, 0]])
        assert entry.epoch == 0 and entry.graph is graph

    def test_remove_and_hooks_share_one_path(self, graph):
        registry = GraphRegistry()
        registry.add_graph("g", graph)
        invalidated = []
        registry.add_invalidation_hook(invalidated.append)
        registry.mutate("g", add=[_absent_edge(graph)])
        registry.remove("g")
        assert invalidated == ["g", "g"]
        with pytest.raises(ServiceError, match="unknown graph"):
            registry.get("g")
        with pytest.raises(ServiceError, match="unknown graph"):
            registry.remove("g")

    def test_a_hook_removing_itself_does_not_skip_the_next(self, graph):
        # A service that stops during a mutation removes its hook while the
        # hooks run; the hook registered after it must still be called.
        registry = GraphRegistry()
        registry.add_graph("g", graph)
        calls = []

        def once(name):
            calls.append(("once", name))
            assert registry.remove_invalidation_hook(once)

        registry.add_invalidation_hook(once)
        registry.add_invalidation_hook(lambda name: calls.append(("after", name)))
        registry.mutate("g", add=[_absent_edge(graph)])
        registry.mutate("g", add=[_absent_edge(graph, start=1)])
        assert calls == [("once", "g"), ("after", "g"), ("after", "g")]
        assert not registry.remove_invalidation_hook(once)

    def test_distinct_t_queries_keep_weight_tables_bounded(self, graph):
        cached_weights.cache_clear()
        registry = GraphRegistry()
        registry.add_graph("g", graph)
        with QueryService(registry, cache_entries=0) as svc:
            for i in range(100):
                svc.query("g", "monte-carlo", 0, {"t": 1.0 + i / 64, "num_walks": 1})
        info = cached_weights.cache_info()
        assert info.misses == 100
        assert info.currsize == 64

    def test_weight_tables_shared_across_mutation(self, graph):
        registry = GraphRegistry()
        entry = registry.add_graph("g", graph)
        request = normalize_request("g", "monte-carlo", 0, {"t": 5.0, "num_walks": 10})
        tables = []
        for _ in range(2):
            plan, _rng = build_plan(entry, request, snapshot=entry.graph)
            tables.append(plan.fused_queries()[0].weights)
            registry.mutate("g", add=[_absent_edge(entry.graph)])
        assert entry.epoch == 2
        assert tables[0] is tables[1] is cached_weights(5.0)


class TestIndexStaleness:
    def test_mutation_detaches_and_marks_stale(self, graph):
        registry = GraphRegistry()
        registry.add_graph("g", graph)
        index = build_walk_index(
            graph, num_hubs=4, walks_per_sketch=100, t_values=[5.0], rng=0
        )
        registry.attach_index("g", index)
        summary = registry.mutate("g", add=[_absent_edge(graph)])
        assert summary["index_detached"]
        entry = registry.get("g")
        assert entry.index is None and entry.stale_indexes == 1
        assert index.stale and index.describe()["stale"]
        hub = index.indexed_nodes()[0]
        with pytest.raises(WalkIndexError, match="stale walk index"):
            index.lookup("poisson", hub, 5.0)

    def test_mutation_cannot_land_between_verify_and_install(self, graph):
        """A mutation racing ``attach_index`` either lands first (the index
        then fails verification) or after the install (and detaches it):
        no index verified against the old epoch stays attached."""
        registry = GraphRegistry()
        registry.add_graph("g", graph)
        index = build_walk_index(
            graph, num_hubs=2, walks_per_sketch=50, t_values=[5.0], rng=0
        )
        verify = index.verify_graph
        mutator = threading.Thread(
            target=registry.mutate, args=("g",), kwargs={"add": [_absent_edge(graph)]}
        )

        def verify_then_mutate(csr):
            verify(csr)
            # Start the mutation inside the window and give it time to land.
            mutator.start()
            mutator.join(timeout=0.5)

        index.verify_graph = verify_then_mutate
        registry.attach_index("g", index)
        mutator.join(timeout=10)
        assert not mutator.is_alive()
        entry = registry.get("g")
        assert entry.epoch == 1
        assert entry.index is None and index.stale
        assert entry.stale_indexes == 1

    def test_stale_index_cannot_be_reattached(self, graph):
        registry = GraphRegistry()
        registry.add_graph("g", graph)
        index = build_walk_index(
            graph, num_hubs=2, walks_per_sketch=50, t_values=[5.0], rng=0
        )
        registry.mutate("g", add=[_absent_edge(graph)])
        with pytest.raises(WalkIndexError):
            registry.attach_index("g", index)

    def test_plan_on_older_snapshot_skips_a_newer_index(self, graph):
        registry = GraphRegistry()
        entry = registry.add_graph("g", graph)
        admitted = entry.graph
        registry.mutate("g", add=[_absent_edge(graph)])
        registry.attach_index(
            "g",
            build_walk_index(
                entry.graph.compacted(), num_hubs=2, walks_per_sketch=50,
                t_values=[5.0], rng=0,
            ),
        )
        hub = entry.index.indexed_nodes()[0]
        request = normalize_request("g", "monte-carlo", hub, {"t": 5.0, "num_walks": 100})
        current, _rng = build_plan(entry, request, snapshot=entry.graph)
        assert current.counters.extras["walks_from_index"] == 50.0
        older, _rng = build_plan(entry, request, snapshot=admitted)
        assert older.graph is admitted
        assert "walks_from_index" not in older.counters.extras

    def test_current_epoch_index_attaches_to_overlay(self, graph):
        """An index built against the *compacted* current overlay attaches:
        compaction is byte-identical, so the fingerprint matches."""
        registry = GraphRegistry()
        registry.add_graph("g", graph)
        registry.mutate("g", add=[_absent_edge(graph)])
        entry = registry.get("g")
        fresh = build_walk_index(
            entry.graph.compacted(), num_hubs=2, walks_per_sketch=50,
            t_values=[5.0], rng=0,
        )
        registry.attach_index("g", fresh)
        assert entry.index is fresh


class TestServiceMutation:
    @pytest.fixture
    def service(self, graph):
        registry = GraphRegistry()
        registry.add_graph("g", graph)
        with QueryService(registry, max_batch=4, cache_entries=32, rng=5) as svc:
            yield svc

    def test_epoch_keys_and_eager_eviction(self, service, graph):
        first = service.query("g", "pr-nibble", 0, {"eps": 1e-3})
        assert service.query("g", "pr-nibble", 0, {"eps": 1e-3}).cached
        assert first.request.epoch == 0
        assert len(service.cache) == 1

        service.mutate_graph("g", add=[_absent_edge(graph)])
        # hook evicted the graph's group eagerly...
        assert len(service.cache) == 0
        # ...and the epoch in the key makes stale results unreachable anyway
        after = service.query("g", "pr-nibble", 0, {"eps": 1e-3})
        assert not after.cached
        assert after.request.epoch == 1
        assert after.request.cache_key()[:2] == ("g", 1)

    def test_walk_query_runs_on_overlay(self, service, graph):
        service.mutate_graph("g", add=[_absent_edge(graph)])
        entry = service.registry.get("g")
        assert isinstance(entry.graph, DeltaGraph)
        response = service.query(
            "g", "monte-carlo", 0, {"t": 5.0, "num_walks": 500}
        )
        assert response.result.support_size() > 0
        assert abs(response.result.estimates.sum() - 1.0) < 1e-9

    def test_teaplus_query_runs_on_overlay(self, service, graph):
        edge = _absent_edge(graph)
        service.mutate_graph("g", add=[edge])
        entry = service.registry.get("g")
        assert isinstance(entry.graph, DeltaGraph)
        response = service.query("g", "tea+", edge[0], {})
        assert response.request.epoch == 1
        assert response.result.support_size() > 0
        top = response.to_dict()["top"]
        assert top and all(entry.graph.has_node(node) for node, _ in top)

    @pytest.mark.parametrize("rng", [None, 3], ids=["fused", "pinned"])
    def test_mutation_mid_query_answers_on_admission_snapshot(
        self, service, graph, monkeypatch, rng
    ):
        import repro.service.service as service_module

        # Start from an overlay snapshot, so every graph involved has an epoch.
        service.mutate_graph("g", add=[_absent_edge(graph)])
        entry = service.registry.get("g")
        planned, walked, cached = [], [], []
        build = service_module.build_plan

        def build_then_mutate(entry, request, **kwargs):
            plan, plan_rng = build(entry, request, **kwargs)
            planned.append(plan.graph)
            service.mutate_graph("g", add=[_absent_edge(entry.graph, 1)])
            return plan, plan_rng

        def spy(original):
            def call(backend, graph, *args, **kwargs):
                walked.append(graph)
                return original(backend, graph, *args, **kwargs)
            return call

        def put(key, value, original=service.cache.put):
            cached.append(key)
            original(key, value)

        monkeypatch.setattr(service_module, "build_plan", build_then_mutate)
        monkeypatch.setattr(
            service_module, "execute_plans", spy(service_module.execute_plans)
        )
        monkeypatch.setattr(
            service_module, "run_walk_tasks", spy(service_module.run_walk_tasks)
        )
        monkeypatch.setattr(service.cache, "put", put)
        seed = int(np.argmax(graph.degrees))
        response = service.query(
            "g", "tea+", seed, {"push_budget": 50, "max_walks": 2000}, rng=rng
        )
        assert entry.epoch == 2  # the mutation landed between push and walks
        assert response.result.counters.random_walks > 0
        assert len(planned) == len(walked) == 1
        assert walked[0] is planned[0] is response.snapshot
        assert response.request.epoch == planned[0].epoch == 1
        assert [key[1] for key in cached] == ([1] if rng is None else [])

    def test_rendering_after_mutation_ranks_on_admission_snapshot(
        self, service, graph
    ):
        seed = int(np.argmax(graph.degrees))
        response = service.query("g", "hk-push", seed, {}, top_k=5)
        snapshot = response.snapshot
        second = response.to_dict()["top"][1][0]
        # Twenty new edges at the #2 node lower its degree-normalized score.
        fresh = [
            [second, v] for v in range(graph.num_nodes)
            if v != second and not graph.has_edge(second, v)
        ][:20]
        service.mutate_graph("g", add=fresh)
        current = service.registry.get("g").graph
        top = response.to_dict()["top"]
        assert top == response.result.top(snapshot, 5)
        assert top != response.result.top(current, 5)

    def test_remove_graph_evicts_cache(self, service, graph):
        service.query("g", "pr-nibble", 0, {"eps": 1e-3})
        assert len(service.cache) == 1
        service.remove_graph("g")
        assert len(service.cache) == 0
        with pytest.raises(ServiceError, match="unknown graph"):
            service.query("g", "pr-nibble", 0, {"eps": 1e-3})

    def test_stats_surface_epoch(self, service, graph):
        service.mutate_graph("g", add=[_absent_edge(graph)])
        storage = service.stats()["graph_storage"]["g"]
        assert storage["epoch"] == 1
        assert storage["delta_edges"] == 1
        assert storage["stale_indexes"] == 0

    def test_index_stale_metric_lands_in_service_registry(self, service, graph):
        index = build_walk_index(
            graph, num_hubs=2, walks_per_sketch=50, t_values=[5.0], rng=0
        )
        service.registry.attach_index("g", index)
        service.mutate_graph("g", add=[_absent_edge(graph)])
        exposition = service.render_metrics()
        assert 'index_stale_total{graph="g"} 1' in exposition


class TestReRegistration:
    """A name registered again names a new graph: no answer cached for the
    graph it replaced is served for it, though both start at epoch 0."""

    @pytest.fixture
    def service(self):
        registry = GraphRegistry()
        registry.add_graph("g", ring_graph(30))
        with QueryService(registry, max_batch=4, cache_entries=32, rng=5) as svc:
            yield svc

    def test_replacing_add_graph_evicts_and_rekeys(self, service):
        ring = service.query("g", "exact", 0, top_k=3)
        assert service.query("g", "exact", 0, top_k=3).cached
        service.registry.add_graph("g", star_graph(30))
        assert len(service.cache) == 0  # the replacement ran the hooks
        star = service.query("g", "exact", 0, top_k=3)
        assert not star.cached
        assert star.request.epoch == ring.request.epoch == 0
        assert star.request.cache_key() != ring.request.cache_key()
        expected = estimate(star.snapshot, 0, method="exact").top(star.snapshot, 3)
        assert star.to_dict()["top"] == expected != ring.to_dict()["top"]

    def test_an_answer_resolved_after_the_swap_is_keyed_to_its_own_graph(
        self, service, monkeypatch
    ):
        import repro.service.service as service_module

        # Hold the dispatch thread inside the walk phase of a request
        # admitted on the ring while the name is removed and re-added.
        entered, release = threading.Event(), threading.Event()
        execute_plans = service_module.execute_plans

        def held(*args, **kwargs):
            entered.set()
            release.wait(timeout=30)
            return execute_plans(*args, **kwargs)

        monkeypatch.setattr(service_module, "execute_plans", held)
        params = {"num_walks": 2_000}
        future = service.submit("g", "monte-carlo", 0, params)
        assert entered.wait(timeout=30)
        service.remove_graph("g")
        service.registry.add_graph("g", star_graph(30))
        release.set()
        ring = future.result(timeout=30)
        assert ring.snapshot.num_edges == 30
        assert len(service.cache) == 1  # stored after the hooks ran
        star = service.query("g", "monte-carlo", 0, params)
        assert not star.cached
        assert star.snapshot is service.registry.get("g").graph
        assert star.request.cache_key() != ring.request.cache_key()


class TestInvalidateGroup:
    def test_counts_and_scopes_to_group(self):
        cache = ResultCache(16, group_of=lambda key: str(key[0]))
        cache.put(("a", 1), "x")
        cache.put(("a", 2), "y")
        cache.put(("b", 1), "z")
        assert cache.invalidate_group("a") == 2
        assert len(cache) == 1
        assert cache.get(("b", 1)) == "z"
        assert cache.invalidate_group("missing") == 0

    def test_no_group_fn_is_a_noop(self):
        cache = ResultCache(4)
        cache.put("k", "v")
        assert cache.invalidate_group("k") == 0
        assert cache.get("k") == "v"


class TestHTTPMutation:
    @pytest.fixture
    def server(self, graph):
        registry = GraphRegistry()
        registry.add_graph("g", graph)
        with QueryService(registry, max_batch=4, cache_entries=32, rng=5) as svc:
            httpd, _thread = serve_in_thread(svc, port=0)
            try:
                yield f"http://127.0.0.1:{httpd.server_address[1]}", svc
            finally:
                httpd.shutdown()

    @staticmethod
    def _post(base, path, payload):
        request = urllib.request.Request(
            base + path,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=10.0) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_post_edges_mutates_and_reports(self, server, graph):
        base, svc = server
        edge = _absent_edge(graph)
        status, summary = self._post(base, "/graphs/g/edges", {"add": [edge]})
        assert status == 200
        assert summary["epoch"] == 1
        assert summary["num_edges"] == graph.num_edges + 1
        status, summary = self._post(
            base, "/graphs/g/edges", {"remove": [edge]}
        )
        assert status == 200 and summary["epoch"] == 2
        assert summary["num_edges"] == graph.num_edges

    def test_post_edges_error_mapping(self, server, graph):
        base, _svc = server
        status, body = self._post(base, "/graphs/nope/edges", {"add": [[0, 1]]})
        assert status == 404 and "unknown graph" in body["error"]
        status, body = self._post(base, "/graphs/g/edges", {"add": [[0, 0]]})
        assert status == 400 and "self-loop" in body["error"]
        status, body = self._post(base, "/graphs/g/edges", {"bogus": 1})
        assert status == 400 and "unknown field" in body["error"]
        status, body = self._post(base, "/graphs/g/edges", {"add": "0,1"})
        assert status == 400 and "lists" in body["error"]
        status, body = self._post(base, "/graphs//edges", {"add": [[0, 1]]})
        assert status == 404

    @pytest.mark.parametrize(
        "items,message",
        [([[1]], "integers"), ([[1, 2, 3]], "integers"), ([1, 2], "integers"),
         ([["x", 2]], "integers"), ([[None, 2]], "integers"), ([[1.7, 5]], "integers"),
         ([[True, 7]], "integers"), ([[0, 2**63]], "node 9223372036854775808 is not"),
         ([[-(2**63) - 1, 0]], "node -9223372036854775809 is not")],
        ids=["short", "long", "flat", "str", "null", "float", "bool", "above-int64",
             "below-int64"],
    )
    def test_malformed_edge_items_are_400_and_change_nothing(
        self, server, graph, items, message
    ):
        # [[1.7, 5]] and [[True, 7]] must not be truncated into the absent
        # edges (1, 5) and (1, 7).
        assert not graph.has_edge(1, 5) and not graph.has_edge(1, 7)
        base, svc = server
        entry = svc.registry.get("g")
        snapshot = entry.graph
        for side in ("add", "remove"):
            status, body = self._post(base, "/graphs/g/edges", {side: items})
            assert status == 400, body
            assert message in body["error"]
        assert entry.epoch == 0 and entry.graph is snapshot
        served = entry.graph.compacted()
        for name in ("indptr", "indices", "degrees"):
            assert getattr(served, name).tobytes() == getattr(graph, name).tobytes()

    def test_delete_graph(self, server, graph):
        base, svc = server
        request = urllib.request.Request(base + "/graphs/g", method="DELETE")
        with urllib.request.urlopen(request, timeout=10.0) as response:
            assert response.status == 200
            assert json.loads(response.read()) == {"removed": "g"}
        assert svc.registry.names() == []
        request = urllib.request.Request(base + "/graphs/g", method="DELETE")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 404

    def test_queries_correct_across_mutation(self, server, graph):
        """The smoke scenario: query, mutate over HTTP, query again."""
        base, svc = server
        before = svc.query("g", "pr-nibble", 0, {"eps": 1e-3})
        edge = _absent_edge(graph)
        status, _ = self._post(base, "/graphs/g/edges", {"add": [edge]})
        assert status == 200
        after = svc.query("g", "pr-nibble", 0, {"eps": 1e-3})
        assert not after.cached
        assert after.request.epoch == 1
        # both are valid degree-normalized PPR approximations of their
        # own snapshot; the mutation touched the seed's component so the
        # estimates must be finite and normalized either way
        assert np.isfinite(list(after.result.estimates.values())).all()
