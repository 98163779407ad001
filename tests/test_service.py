"""Tests for the online query-serving subsystem (:mod:`repro.service`)."""

from __future__ import annotations

import gc
import json
import threading
import time
import urllib.error
import urllib.request
import weakref

import numpy as np
import pytest

from repro.exceptions import (
    QueryTimeoutError,
    ServiceError,
    ServiceExecutionError,
    ServiceOverloadedError,
)
from repro.graph.generators import ring_graph
from repro.service import GraphRegistry, QueryService
from repro.service.planner import QueryRequest, normalize_request
from repro.service.registry import build_from_spec

from statcheck import chi_square_gof, poisson_probs
from repro.hkpr.poisson import PoissonWeights


@pytest.fixture
def registry(tiny_grid):
    reg = GraphRegistry()
    reg.add_graph("grid", tiny_grid)
    return reg


@pytest.fixture
def service(registry):
    with QueryService(registry, max_batch=8, rng=7) as svc:
        yield svc


class TestGraphRegistry:
    def test_dataset_and_lookup(self):
        reg = GraphRegistry()
        entry = reg.add_dataset("grid3d-sim")
        assert "grid3d-sim" in reg
        assert reg.get("grid3d-sim") is entry
        assert entry.graph.num_nodes > 0
        assert entry.describe()["source"] == "dataset:grid3d-sim"

    def test_unknown_graph_and_dataset(self):
        reg = GraphRegistry()
        with pytest.raises(ServiceError, match="unknown graph"):
            reg.get("nope")
        with pytest.raises(ServiceError, match="unknown dataset"):
            reg.add_dataset("nope")

    def test_edge_list_source(self, tmp_path):
        from repro.graph.io import save_edge_list

        path = tmp_path / "ring.txt"
        save_edge_list(ring_graph(12), path)
        reg = GraphRegistry()
        entry = reg.add_edge_list(path, name="ring")
        assert entry.graph.num_edges == 12
        assert reg.names() == ["ring"]

    def test_generator_specs(self):
        graph = build_from_spec("chung-lu,n=500,gamma=2.5,seed=3")
        assert graph.num_nodes == 500
        graph = build_from_spec("grid3d,side=4")
        assert graph.num_nodes == 64
        with pytest.raises(ServiceError, match="unknown generator"):
            build_from_spec("magic,n=10")
        with pytest.raises(ServiceError, match="key=value"):
            build_from_spec("chung-lu,n")
        with pytest.raises(ServiceError, match="unknown parameter"):
            build_from_spec("grid3d,bogus=1")


class TestPlanner:
    def test_unknown_method(self, registry):
        with pytest.raises(ServiceError, match="unknown method"):
            normalize_request("grid", "magic", 0)

    def test_unknown_parameter(self):
        with pytest.raises(ServiceError, match="unknown parameter"):
            normalize_request("grid", "monte-carlo", 0, {"bogus": 1})

    def test_parameter_casting_canonicalizes_cache_keys(self):
        a = normalize_request("grid", "monte-carlo", 0, {"t": 5, "num_walks": "100"})
        b = normalize_request("grid", "monte-carlo", 0, {"t": 5.0, "num_walks": 100})
        assert a.cache_key() == b.cache_key()

    def test_seed_validated_against_graph(self, registry):
        with pytest.raises(ServiceError, match="not in graph"):
            normalize_request(
                "grid", "monte-carlo", 1_000_000, snapshot=registry.get("grid").graph
            )

    def test_out_of_range_parameters_rejected(self):
        # A negative num_walks would drive the in-flight walk estimate
        # negative and disable admission control — reject at admission.
        for method, params in [
            ("monte-carlo", {"num_walks": -500}),
            ("monte-carlo", {"num_walks": 0}),
            ("tea+", {"max_walks": -1}),
            ("mc-ppr", {"alpha": 2.0}),
            ("monte-carlo", {"t": -5.0}),
            ("monte-carlo", {"eps_r": 1.5}),
        ]:
            with pytest.raises(ServiceError, match="out of range"):
                normalize_request("grid", method, 0, params)

    def test_many_mc_ppr_walks_at_the_default_alpha_are_admitted(self, registry):
        # Only alpha has a floor; the walk count is left to the chunked
        # kernels and the in-flight walk budget (50M by default).
        from repro.service.planner import build_plan
        from repro.service.service import DEFAULT_MAX_INFLIGHT_WALKS

        entry = registry.get("grid")
        request = normalize_request(
            "grid", "mc-ppr", 0, {"num_walks": 2_000_000}, snapshot=entry.graph
        )
        plan, _ = build_plan(entry, request, snapshot=entry.graph)
        assert plan.estimated_walks == 2_000_000
        assert plan.estimated_walks <= DEFAULT_MAX_INFLIGHT_WALKS

    def test_pinned_requests_bypass_cache(self):
        pinned = QueryRequest("g", "monte-carlo", 0, rng=3)
        assert pinned.pinned and not pinned.cache_eligible()
        unpinned = QueryRequest("g", "monte-carlo", 0)
        assert unpinned.cache_eligible()
        # Deterministic methods stay cacheable even when pinned.
        assert QueryRequest("g", "hk-relax", 0, rng=3).cache_eligible()

    def test_top_k_not_in_cache_key(self):
        a = QueryRequest("g", "monte-carlo", 0, top_k=5)
        b = QueryRequest("g", "monte-carlo", 0, top_k=50)
        assert a.cache_key() == b.cache_key()


class TestQueryService:
    def test_methods_end_to_end(self, service):
        for method, params in [
            ("monte-carlo", {"num_walks": 300}),
            ("tea+", {}),
            ("tea", {"max_walks": 500}),
            ("hk-relax", {}),
            ("exact", {}),
            ("mc-ppr", {"num_walks": 300, "alpha": 0.2}),
            ("fora", {"max_walks": 500}),
            # Registered-by-spec methods the old hand-maintained planner
            # table could not serve: push-only HKPR, exact PPR, and the
            # sweepable classic baselines.
            ("hk-push", {}),
            ("hk-push+", {}),
            ("exact-ppr", {}),
            ("nibble", {"steps": 10}),
            ("pr-nibble", {"eps": 1e-4}),
            ("cluster-hkpr", {"eps": 0.2, "num_walks": 300}),
        ]:
            response = service.query("grid", method, 0, params)
            assert response.result.seed == 0
            assert response.result.support_size() > 0
            assert response.latency_seconds >= 0

    def test_every_service_method_is_answerable(self, service):
        """Whatever SERVICE_METHODS lists must actually serve (cheap knobs)."""
        from repro.service.planner import SERVICE_METHODS

        cheap = {
            "monte-carlo": {"num_walks": 100},
            "cluster-hkpr": {"eps": 0.3, "num_walks": 100},
            "mc-ppr": {"num_walks": 100},
            "fora": {"max_walks": 100},
            "tea": {"max_walks": 100},
            "tea+": {"max_walks": 100},
            "nibble": {"steps": 5},
        }
        for method in SERVICE_METHODS:
            response = service.query("grid", method, 0, cheap.get(method, {}))
            assert response.result.support_size() > 0, method

    def test_alias_normalized_to_canonical_name_and_cache_key(self, service):
        first = service.query("grid", "tea-plus", 2, {"max_walks": 300})
        assert first.request.method == "tea+"
        # The alias and the canonical spelling share one cache entry.
        second = service.query("grid", "tea+", 2, {"max_walks": 300})
        assert second.cached

    def test_negative_walk_budget_rejected_at_submit(self, service):
        with pytest.raises(ServiceError, match="out of range"):
            service.submit("grid", "monte-carlo", 0, {"num_walks": -500})
        # Admission accounting is untouched by the rejection.
        assert service.stats()["inflight_walks"] == 0

    def test_batches_spanning_graphs_stay_separate(self, registry, small_ring):
        # Queries for different graphs co-batched in one dispatch cycle must
        # each run on their own graph (endpoints in their own node range).
        registry.add_graph("ring", small_ring)
        with QueryService(registry, max_batch=16, cache_entries=0, rng=3) as svc:
            futures = []
            for i in range(8):
                graph = "grid" if i % 2 == 0 else "ring"
                futures.append(
                    svc.submit(graph, "monte-carlo", i % 10, {"num_walks": 150})
                )
            for i, future in enumerate(futures):
                response = future.result(timeout=30)
                limit = 27 if i % 2 == 0 else 10
                assert all(node < limit for node in response.result.support())

    def test_concurrent_queries_fuse(self, service):
        futures = [
            service.submit("grid", "monte-carlo", i % 27, {"num_walks": 200})
            for i in range(16)
        ]
        responses = [f.result(timeout=30) for f in futures]
        assert all(r.result.counters.random_walks == 200 for r in responses)
        # At least some dispatch cycles held more than one request.
        assert max(r.batch_size for r in responses) > 1

    def test_cache_hit_on_repeat(self, service):
        first = service.query("grid", "monte-carlo", 3, {"num_walks": 200})
        second = service.query("grid", "monte-carlo", 3, {"num_walks": 200})
        assert not first.cached
        assert second.cached
        assert second.result is first.result
        assert service.stats()["cache"]["hits"] == 1

    def test_pinned_queries_reproducible_and_uncached(self, service):
        a = service.query("grid", "monte-carlo", 3, {"num_walks": 200}, rng=42)
        b = service.query("grid", "monte-carlo", 3, {"num_walks": 200}, rng=42)
        assert not a.cached and not b.cached
        assert a.result.estimates.to_dict() == b.result.estimates.to_dict()
        # A different pin gives a different sample (overwhelmingly likely).
        c = service.query("grid", "monte-carlo", 3, {"num_walks": 200}, rng=43)
        assert c.result.estimates.to_dict() != a.result.estimates.to_dict()

    def test_invalid_requests_rejected_at_submit(self, service):
        with pytest.raises(ServiceError, match="unknown graph"):
            service.submit("nope", "monte-carlo", 0)
        with pytest.raises(ServiceError, match="unknown method"):
            service.submit("grid", "magic", 0)
        with pytest.raises(ServiceError, match="not in graph"):
            service.submit("grid", "monte-carlo", 10_000)

    def test_single_query_exceeding_whole_walk_budget_rejected(self, registry):
        """A query whose walk phase alone exceeds the budget can never fit
        (cluster-hkpr implies ~16 log(n)/eps^3 walks, 4.2e5 here at eps
        0.05, and would hold the dispatch thread far past any other
        query): ``submit`` refuses it, even on an idle server."""
        from repro.service.planner import build_plan

        with QueryService(
            registry, max_batch=4, max_inflight_walks=10_000, cache_entries=0
        ) as svc:
            with pytest.raises(ServiceOverloadedError, match="exceed"):
                svc.submit("grid", "cluster-hkpr", 0, {"eps": 0.05})
            with pytest.raises(ServiceOverloadedError, match="exceed"):
                svc.submit("grid", "monte-carlo", 0, {"num_walks": 20_000})
            # With explicit, in-budget knobs the same methods serve fine.
            response = svc.query(
                "grid", "cluster-hkpr", 0, {"eps": 0.2, "num_walks": 500}
            )
            assert response.result.support_size() > 0
            assert svc.stats()["rejected_total"] == 2
            assert svc.stats()["inflight_walks"] == 0
            # tea+'s walk count is known once its push has run; admission
            # reads it from the plan, which leaves far fewer walks than
            # the budget at a delta whose omega alone would exceed it.
            entry = svc.registry.get("grid")
            request = normalize_request(
                "grid", "tea+", 0, {"delta": 1e-7}, snapshot=entry.graph
            )
            plan, _ = build_plan(entry, request, snapshot=entry.graph)
            assert plan.estimated_walks <= 10_000
            assert svc.query(
                "grid", "tea+", 0, {"delta": 1e-7, "max_walks": 500}
            ).result.support_size() > 0
            # Unbounded: admitted on its plan's count (no 429), served.
            assert svc.query("grid", "tea+", 0, {"delta": 1e-7}, timeout=120)

    def test_walk_phase_exceeding_whole_walk_budget_rejected_after_push(self):
        """fora's push leaves ~3e36 walks here.  ``submit`` reads that
        count from the plan and raises the 429 before the engine tries to
        list its sub-batches; nothing stays charged to the budget."""
        registry = GraphRegistry()
        registry.add_generated("chung-lu,n=2000,gamma=2.5,seed=11", name="g")
        with QueryService(registry, rng=1, cache_entries=0) as svc:
            started = time.perf_counter()
            with pytest.raises(ServiceOverloadedError, match="exceed"):
                svc.submit("g", "fora", 5, {"eps_r": 1e-20}, timeout_ms=3000)
            assert time.perf_counter() - started < 1.0
            assert svc.stats()["rejected_total"] == 1
            assert svc.stats()["inflight_walks"] == 0
            response = svc.query("g", "monte-carlo", 5, {"num_walks": 1000}, timeout=20)
            assert response.result.counters.random_walks == 1000

    def test_admission_control_inflight_walks(self, registry):
        with QueryService(
            registry, max_batch=4, max_inflight_walks=500, cache_entries=0
        ) as svc:
            first = svc.submit("grid", "monte-carlo", 0, {"num_walks": 400})
            saw_rejection = False
            try:
                svc.submit("grid", "monte-carlo", 1, {"num_walks": 400})
            except ServiceOverloadedError:
                saw_rejection = True
            first.result(timeout=30)
            if not saw_rejection:
                # The first query may already have completed; the budget
                # must then be released and a new submit admitted.
                svc.query("grid", "monte-carlo", 2, {"num_walks": 400})
            else:
                assert svc.stats()["rejected_total"] == 1

    def test_stats_shape(self, service):
        service.query("grid", "monte-carlo", 0, {"num_walks": 100})
        stats = service.stats()
        for key in (
            "uptime_seconds", "requests_total", "walks", "cache", "queue",
            "backend", "graphs", "inflight_walks",
        ):
            assert key in stats
        assert stats["walks"]["total"] >= 100
        assert stats["graphs"] == ["grid"]
        assert json.dumps(stats)  # JSON-able end to end

    def test_stop_fails_queued_requests(self, registry):
        svc = QueryService(registry, max_batch=1)
        svc.start()
        svc.stop()
        with pytest.raises(ServiceOverloadedError):
            svc.submit("grid", "monte-carlo", 0, {"num_walks": 10})

    def test_stop_counts_and_traces_the_requests_it_drops(self):
        """Requests still queued at ``stop()`` fail as errors: counted in
        ``queries_total`` and traced, like every other terminal path."""
        from repro import obs

        registry = GraphRegistry()
        registry.add_dataset("dblp-sim")
        obs.set_obs_enabled(True)
        svc = QueryService(registry, max_batch=1, cache_entries=0).start()
        try:
            futures = [
                svc.submit("dblp-sim", "monte-carlo", seed, {"num_walks": 200_000})
                for seed in range(20)
            ]
        finally:
            svc.stop()
            obs.set_obs_enabled(None)
        answered = dropped = 0
        for future in futures:
            try:
                future.result(timeout=30)
                answered += 1
            except ServiceExecutionError:
                dropped += 1
        stats = svc.stats()
        assert dropped >= 1  # stop() found requests still queued
        assert answered + stats["errors_total"] == 20
        counted = sum(
            float(line.rsplit(" ", 1)[1])
            for line in svc.render_metrics().splitlines()
            if line.startswith("queries_total{")
        )
        assert counted == 20
        assert svc.tracer.stats()["recorded_total"] == 20
        assert stats["inflight_walks"] == 0

    def test_requests_cancelled_while_queued_count_as_errors(self):
        """A request whose client cancels it in the queue fails as an error
        when the dispatch thread reaches it: counted and traced."""
        from repro import obs

        registry = GraphRegistry()
        registry.add_dataset("dblp-sim")
        obs.set_obs_enabled(True)
        svc = QueryService(registry, max_batch=1, cache_entries=0).start()
        try:
            futures = [
                svc.submit("dblp-sim", "monte-carlo", seed, {"num_walks": 100_000})
                for seed in range(10)
            ]
            cancelled = sum(future.cancel() for future in futures[1:9])
            # FIFO with one request per cycle: once the last answers, every
            # cancelled request ahead of it has been taken off the queue.
            futures[0].result(timeout=60)
            futures[9].result(timeout=60)
        finally:
            svc.stop()
            obs.set_obs_enabled(None)
        stats = svc.stats()
        assert cancelled >= 1
        assert stats["errors_total"] == cancelled
        counted = sum(
            float(line.rsplit(" ", 1)[1])
            for line in svc.render_metrics().splitlines()
            if line.startswith("queries_total{")
        )
        assert counted == 10
        assert svc.tracer.stats()["recorded_total"] == 10
        assert stats["inflight_walks"] == 0

    def test_stopped_services_release_their_caches(self, registry):
        caches = []
        for seed in range(3):
            svc = QueryService(registry, rng=seed).start()
            svc.query("grid", "monte-carlo", seed, {"num_walks": 100})
            assert len(svc.cache) == 1
            caches.append(weakref.ref(svc.cache))
            svc.stop()
            svc.stop()
            del svc
        gc.collect()
        assert [cache() for cache in caches] == [None, None, None]

    def test_a_restarted_service_hooks_its_cache_again(self, registry):
        svc = QueryService(registry, rng=1).start()
        try:
            svc.query("grid", "monte-carlo", 0, {"num_walks": 100})
            svc.stop()
            assert len(svc.cache) == 0
            svc.start()
            svc.query("grid", "monte-carlo", 0, {"num_walks": 100})
            assert len(svc.cache) == 1
            graph = registry.get("grid").graph
            absent = next(
                v for v in range(1, graph.num_nodes) if not graph.has_edge(0, v)
            )
            registry.mutate("grid", add=[(0, absent)])
            assert len(svc.cache) == 0
        finally:
            svc.stop()

    def test_services_stopping_during_mutations_leave_no_hooks(self, registry):
        """More threads than cores start and stop services, with a tiny
        switch interval, while the graph mutates: every hook leaves the
        registry, so no cache outlives its service."""
        import sys

        graph = registry.get("grid").graph
        absent = next(v for v in range(1, graph.num_nodes) if not graph.has_edge(0, v))
        caches, errors = [], []

        def churn():
            try:
                for _ in range(15):
                    svc = QueryService(registry, cache_entries=4).start()
                    caches.append(weakref.ref(svc.cache))
                    svc.stop()
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(4)]
            for thread in threads:
                thread.start()
            for _ in range(15):
                registry.mutate("grid", add=[(0, absent)])
                registry.mutate("grid", remove=[(0, absent)])
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        assert errors == []
        gc.collect()
        assert len(caches) == 4 * 15
        assert all(cache() is None for cache in caches)

    def test_a_stopped_service_answers_from_no_cache(self, registry):
        svc = QueryService(registry)
        svc.stop()  # never started
        svc.stop()
        first = svc.query("grid", "exact", 0)
        second = svc.query("grid", "exact", 0)
        assert not first.cached and not second.cached
        assert len(svc.cache) == 0

    def test_cancelled_future_does_not_kill_the_dispatch_thread(self, service):
        # A client cancelling its future must not crash the batcher when it
        # later tries to resolve it; the service keeps serving.
        for _ in range(5):
            future = service.submit("grid", "monte-carlo", 0, {"num_walks": 100})
            future.cancel()  # may or may not win the race with dispatch
        response = service.query(
            "grid", "monte-carlo", 1, {"num_walks": 100}, timeout=30
        )
        assert response.result.counters.random_walks == 100
        assert service.stats()["inflight_walks"] == 0

    def test_internal_execution_failure_is_not_a_client_error(self, registry):
        # A backend blowing up mid-batch must surface as
        # ServiceExecutionError (HTTP 500), not a ReproError (HTTP 400).
        class ExplodingBackend:
            name = "exploding"

            def walk_batch(self, *args, **kwargs):
                raise RuntimeError("kernel crashed")

            def poisson_walk_batch(self, *args, **kwargs):
                raise RuntimeError("kernel crashed")

            def geometric_walk_batch(self, *args, **kwargs):
                raise RuntimeError("kernel crashed")

        with QueryService(
            registry, max_batch=4, cache_entries=0, backend=ExplodingBackend()
        ) as svc:
            future = svc.submit("grid", "monte-carlo", 0, {"num_walks": 50})
            with pytest.raises(ServiceExecutionError, match="batch execution failed"):
                future.result(timeout=30)
            # The failed query's walk estimate was released.
            assert svc.stats()["inflight_walks"] == 0
            assert svc.stats()["errors_total"] == 1


#: A pr-nibble parameterization that would push for minutes on the tiny
#: grid: the threshold is astronomically small and almost no mass is
#: absorbed per push, so only a deadline can end it promptly.
PATHOLOGICAL_PR_NIBBLE = {"eps": 1e-300, "alpha": 0.001}


class TestServingDeadlines:
    def test_timeout_ms_validation(self, registry):
        with pytest.raises(ServiceError, match="timeout_ms must be positive"):
            normalize_request("grid", "monte-carlo", 0, timeout_ms=-5)
        with pytest.raises(ServiceError, match="non-numeric timeout_ms"):
            normalize_request("grid", "monte-carlo", 0, timeout_ms="soon")

    def test_timeout_ms_not_in_cache_key(self):
        a = normalize_request("grid", "monte-carlo", 0, timeout_ms=100)
        b = normalize_request("grid", "monte-carlo", 0, timeout_ms=5000)
        c = normalize_request("grid", "monte-carlo", 0)
        assert a.cache_key() == b.cache_key() == c.cache_key()

    def test_pathological_query_times_out_promptly(self, service):
        future = service.submit(
            "grid", "pr-nibble", 0, PATHOLOGICAL_PR_NIBBLE, timeout_ms=150
        )
        with pytest.raises(QueryTimeoutError) as excinfo:
            future.result(timeout=10)
        error = excinfo.value
        assert error.timeout_ms == 150
        assert error.elapsed_ms >= 150
        # Partial-work accounting rode along on the exception.
        assert error.counters is not None
        assert error.counters.extras["deadline_hit"] == 1.0
        assert error.counters.push_operations > 0
        stats = service.stats()
        assert stats["timeouts_total"] == 1
        assert stats["errors_total"] == 0  # timeouts are not errors
        assert stats["inflight_walks"] == 0  # admission budget released

    def test_batcher_survives_a_timed_out_member(self, service):
        doomed = service.submit(
            "grid", "pr-nibble", 0, PATHOLOGICAL_PR_NIBBLE, timeout_ms=150
        )
        with pytest.raises(QueryTimeoutError):
            doomed.result(timeout=10)
        # The dispatch thread is alive and healthy queries still serve.
        response = service.query("grid", "hk-relax", 1, timeout=30)
        assert response.result.support_size() > 0

    def test_service_default_timeout_applies(self, registry):
        with QueryService(
            registry, max_batch=4, cache_entries=0, default_timeout_ms=150
        ) as svc:
            future = svc.submit("grid", "pr-nibble", 0, PATHOLOGICAL_PR_NIBBLE)
            with pytest.raises(QueryTimeoutError):
                future.result(timeout=10)
            # A per-request timeout_ms overrides the service default.
            assert svc.query(
                "grid", "hk-relax", 0, timeout_ms=60_000
            ).result.support_size() > 0

    def test_generous_deadline_leaves_results_byte_identical(self, registry):
        with QueryService(registry, max_batch=4, cache_entries=0) as svc:
            bounded = svc.query("grid", "hk-relax", 2, timeout_ms=60_000)
            unbounded = svc.query("grid", "hk-relax", 2)
            assert (
                bounded.result.estimates.to_dict()
                == unbounded.result.estimates.to_dict()
            )
            bounded = svc.query(
                "grid", "pr-nibble", 2, {"eps": 1e-5}, timeout_ms=60_000
            )
            unbounded = svc.query("grid", "pr-nibble", 2, {"eps": 1e-5})
            assert (
                bounded.result.estimates.to_dict()
                == unbounded.result.estimates.to_dict()
            )

    def test_response_carries_admission_snapshot(self, service):
        response = service.query("grid", "monte-carlo", 0, {"num_walks": 100})
        assert response.snapshot is service.registry.get("grid").graph
        # to_dict no longer needs (and should not get) a second lookup.
        assert response.to_dict()["graph"] == "grid"


class TestResponseEnvelope:
    def test_query_envelope_graphs_and_stats(self, service):
        payload = service.query(
            "grid", "monte-carlo", 5, {"num_walks": 300}, top_k=7
        ).to_dict()
        assert payload["graph"] == "grid"
        assert payload["seed_node"] == 5
        assert len(payload["top"]) <= 7
        node, score = payload["top"][0]
        assert isinstance(node, int) and score > 0
        assert payload["counters"]["random_walks"] == 300
        assert service.registry.describe()[0]["name"] == "grid"
        assert service.stats()["requests_total"] >= 1


#: Every randomized servable method with knobs that make it walk 500 times
#: from node 42 of dblp-sim (tea+ exits early after its push at the
#: default ``c``, so it runs at ``c = 0.5``).
WALKING_QUERIES = {
    "monte-carlo": {"num_walks": 500},
    "cluster-hkpr": {"eps": 0.05, "num_walks": 500},
    "tea": {"max_walks": 500, "r_max": 0.001},
    "tea+": {"c": 0.5, "max_walks": 500},
    "fora": {"max_walks": 500},
    "mc-ppr": {"num_walks": 500},
}


class TestRandomizedMethodsServedFromPlans:
    @pytest.fixture
    def dblp(self):
        registry = GraphRegistry()
        registry.add_dataset("dblp-sim")
        return registry

    def test_every_randomized_servable_method_is_listed(self):
        from repro.service.planner import SERVICE_METHODS

        randomized = {
            name for name, spec in SERVICE_METHODS.items() if not spec.deterministic
        }
        assert randomized == set(WALKING_QUERIES)
        assert all(SERVICE_METHODS[name].plan_fn for name in randomized)

    @pytest.mark.parametrize("method", list(WALKING_QUERIES))
    def test_walks_fused_on_the_services_backend(self, dblp, method):
        with QueryService(dblp, backend="reference", rng=3) as svc:
            response = svc.query("dblp-sim", method, 42, WALKING_QUERIES[method])
        counters = response.result.counters
        assert counters.random_walks == 500
        assert counters.extras["backend"] == "reference"
        assert counters.extras["fused_kernel"] is True

    def test_tea_walk_phase_over_the_budget_is_rejected_after_its_push(self, dblp):
        """tea's push leaves ~8e10 walks here, more than the whole
        in-flight budget: ``submit`` raises a prompt 429, not a 504 at the
        deadline, and charges nothing to the budget."""
        with QueryService(dblp, rng=1, cache_entries=0) as svc:
            started = time.perf_counter()
            with pytest.raises(ServiceOverloadedError, match="exceed"):
                svc.submit(
                    "dblp-sim", "tea", 42, {"eps_r": 0.001, "r_max": 0.1},
                    timeout_ms=3000,
                )
            assert time.perf_counter() - started < 1.0
            assert svc.stats()["rejected_total"] == 1
            assert svc.stats()["inflight_walks"] == 0


class TestPlansBuiltAtAdmission:
    """``submit`` runs the push and admits on the walks the plan leaves."""

    @pytest.fixture
    def dblp(self):
        registry = GraphRegistry()
        registry.add_dataset("dblp-sim")
        return registry

    def test_a_push_in_flight_does_not_refuse_a_walk_request(self, dblp):
        """A default tea+ query on dblp-sim has an a-priori walk bound of
        1,436,814 and runs no walks (Theorem 2).  With half that bound as
        the budget, a walk request right behind it is admitted: tea+ is
        charged the walks its plan leaves, and it is answered on the
        submitting thread without entering the batcher."""
        with QueryService(
            dblp, max_inflight_walks=718_407, cache_entries=0, rng=1
        ) as svc:
            push = svc.submit("dblp-sim", "tea+", 42)
            walk = svc.submit("dblp-sim", "monte-carlo", 7, {"num_walks": 100})
            answer = push.result(timeout=30)
            assert answer.result.early_exit and answer.batch_size == 0
            assert answer.result.counters.random_walks == 0
            assert walk.result(timeout=30).result.counters.random_walks == 100
            assert svc.stats()["rejected_total"] == 0
            assert svc.stats()["inflight_walks"] == 0

    def test_a_walk_request_does_not_wait_for_a_push(self):
        """A push runs on the thread that submitted it, not the dispatch
        thread: a monte-carlo request submitted 20 ms into a pr-nibble push
        that only its 400 ms deadline ends is answered before the push
        trips."""
        registry = GraphRegistry()
        registry.add_generated("chung-lu,n=20000,gamma=2.5,seed=11", name="g")
        finished = {}
        with QueryService(registry, rng=1, cache_entries=0) as svc:

            def push():
                try:
                    svc.query(
                        "g", "pr-nibble", 7, {"eps": 1e-12, "alpha": 0.01},
                        timeout_ms=400, timeout=30,
                    )
                except QueryTimeoutError:
                    finished["push"] = time.perf_counter()

            thread = threading.Thread(target=push)
            thread.start()
            time.sleep(0.02)
            response = svc.query(
                "g", "monte-carlo", 7, {"num_walks": 100}, timeout=30
            )
            finished["walk"] = time.perf_counter()
            thread.join(timeout=30)
        assert response.result.counters.random_walks == 100
        assert "push" in finished, "the pr-nibble push did not trip"
        assert finished["walk"] < finished["push"]

    def test_concurrent_admission_gives_every_walk_back(self, registry):
        """More submitting threads than cores, a tiny switch interval, and
        a budget that refuses some of them: every admitted walk is given
        back exactly once, and every refusal is counted."""
        import sys

        mix = [
            ("monte-carlo", {"num_walks": 300}),
            ("hk-relax", {}),
            ("tea", {"max_walks": 200}),
        ]
        outcomes = []

        def client(worker):
            for i in range(12):
                method, params = mix[i % len(mix)]
                try:
                    svc.query("grid", method, (worker + i) % 27, params, timeout=30)
                    outcomes.append("ok")
                except ServiceOverloadedError:
                    outcomes.append("rejected")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryService(
                registry, max_batch=4, max_inflight_walks=1_000, cache_entries=0
            ) as svc:
                threads = [
                    threading.Thread(target=client, args=(worker,))
                    for worker in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                stats = svc.stats()
        finally:
            sys.setswitchinterval(previous)
        assert len(outcomes) == 8 * 12
        assert stats["inflight_walks"] == 0
        assert stats["rejected_total"] == outcomes.count("rejected")
        assert stats["requests_total"] == outcomes.count("ok")

    def test_exact_ppr_trips_its_deadline_over_http(self, dblp):
        """exact-ppr checks its deadline once per power iteration, so a
        tolerance it never reaches ends in a 504 at the deadline instead of
        holding a thread for a million iterations (about 35 s here)."""
        from repro.service.http import serve_in_thread

        body = {
            "graph": "dblp-sim", "method": "exact-ppr", "seed_node": 42,
            "params": {"tolerance": 1e-300, "max_iterations": 1_000_000},
            "timeout_ms": 200,
        }
        with QueryService(dblp, rng=1) as svc:
            server, _ = serve_in_thread(svc, "127.0.0.1", 0)
            try:
                request = urllib.request.Request(
                    f"http://127.0.0.1:{server.server_address[1]}/query",
                    data=json.dumps(body).encode(),
                    headers={"Content-Type": "application/json"},
                )
                started = time.perf_counter()
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=10)
                elapsed = time.perf_counter() - started
                payload = json.loads(excinfo.value.read())
            finally:
                server.shutdown()
                server.server_close()
        assert excinfo.value.code == 504
        assert elapsed < 2.0
        assert payload["timeout_ms"] == 200
        assert payload["counters"]["deadline_hit"] == 1.0


class TestHTTPFrontend:
    @pytest.fixture
    def http_service(self, registry):
        from repro.service.http import serve_in_thread

        with QueryService(registry, max_batch=8, rng=5) as svc:
            server, thread = serve_in_thread(svc, "127.0.0.1", 0)
            try:
                yield f"http://127.0.0.1:{server.server_address[1]}", svc
            finally:
                server.shutdown()
                server.server_close()

    def _post(self, base, body):
        request = urllib.request.Request(
            f"{base}/query",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    def test_methods_endpoint_rendered_from_registry(self, http_service):
        from repro.service.planner import SERVICE_METHODS

        base, _ = http_service
        with urllib.request.urlopen(f"{base}/methods", timeout=10) as response:
            payload = json.loads(response.read())
        names = {entry["name"] for entry in payload["methods"]}
        assert names == set(SERVICE_METHODS)
        by_name = {entry["name"]: entry for entry in payload["methods"]}
        assert by_name["tea+"]["fusible"] is True
        assert by_name["hk-relax"]["deterministic"] is True
        param_names = {p["name"] for p in by_name["monte-carlo"]["params"]}
        assert {"t", "eps_r", "delta", "p_f", "num_walks"} <= param_names

    def test_hk_push_plus_and_nibble_served_over_http(self, http_service):
        base, _ = http_service
        for method in ("hk-push+", "nibble"):
            payload = self._post(
                base, {"graph": "grid", "method": method, "seed_node": 0, "top_k": 5}
            )
            assert payload["method"] == method
            assert len(payload["top"]) > 0

    def test_query_stats_graphs_healthz(self, http_service):
        base, _ = http_service
        payload = self._post(
            base,
            {"graph": "grid", "method": "monte-carlo", "seed_node": 2,
             "params": {"num_walks": 200}, "top_k": 5},
        )
        assert payload["seed_node"] == 2
        assert len(payload["top"]) <= 5
        with urllib.request.urlopen(f"{base}/healthz", timeout=10) as response:
            assert json.loads(response.read()) == {"status": "ok"}
        with urllib.request.urlopen(f"{base}/stats", timeout=10) as response:
            assert json.loads(response.read())["requests_total"] >= 1
        with urllib.request.urlopen(f"{base}/graphs", timeout=10) as response:
            assert json.loads(response.read())["graphs"][0]["name"] == "grid"

    def test_error_statuses(self, http_service):
        base, _ = http_service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(base, {"graph": "nope", "method": "monte-carlo", "seed_node": 0})
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(base, {"graph": "grid"})
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/bogus", timeout=10)
        assert excinfo.value.code == 404

    @pytest.mark.parametrize(
        "field,value",
        [("params", [1]), ("graph", ["grid"]), ("method", 7), ("seed_node", 1.5),
         ("seed_node", True), ("top_k", 2.5), ("top_k", False), ("rng", 3.5),
         ("rng", True), ("rng", -1), ("timeout_ms", True)],
        ids=["params-list", "graph-list", "method-int", "seed-float", "seed-bool",
             "top_k-float", "top_k-bool", "rng-float", "rng-bool", "rng-negative",
             "timeout_ms-bool"],
    )
    def test_malformed_query_fields_are_400(self, http_service, field, value):
        base, _ = http_service
        body = {"graph": "grid", "method": "monte-carlo", "seed_node": 1,
                "params": {"num_walks": 100}, field: value}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(base, body)
        assert excinfo.value.code == 400
        assert field in json.loads(excinfo.value.read())["error"]

    @pytest.mark.parametrize(
        "method,t", [("tea+", 1e6), ("monte-carlo", "inf"), ("hk-relax", 710)],
        ids=["tea+-1e6", "monte-carlo-inf", "hk-relax-710"],
    )
    def test_heat_constant_the_poisson_tables_cannot_hold_is_400(
        self, http_service, method, t
    ):
        # exp(-t) underflows past t ~ 708.4: the tables would lose mass
        # (a wrong answer) or the estimator would overflow (a 500).
        base, _ = http_service
        body = {"graph": "grid", "method": method, "seed_node": 1,
                "params": {"t": t}}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(base, body)
        assert excinfo.value.code == 400
        assert "heat constant t" in json.loads(excinfo.value.read())["error"]

    @pytest.mark.parametrize(
        "method,params,named",
        [
            ("monte-carlo", {"eps_r": 1e-200}, "eps_r"),
            ("tea", {"eps_r": 1e-300}, "eps_r"),
            ("tea+", {"eps_r": 1e-200}, "eps_r"),
            ("fora", {"eps_r": 1e-200}, "eps_r"),
            ("cluster-hkpr", {"eps": 1e-120}, "eps"),
            ("cluster-hkpr", {"p_f": 1e-120}, "p_f"),
            ("cluster-hkpr", {"eps": 1e-104}, "eps"),
            ("cluster-hkpr", {}, "num_walks"),
        ],
        ids=["monte-carlo", "tea", "tea+", "fora", "cluster-eps", "cluster-p_f",
             "cluster-eps-overflow", "cluster-defaults"],
    )
    def test_walk_count_beyond_the_float_range_is_400(
        self, http_service, method, params, named
    ):
        # The walk-count denominators underflow to 0 (or the count to inf)
        # for these in-range values: a ZeroDivisionError or OverflowError
        # and a 500 before.  cluster-hkpr's defaults ask for more walks
        # than an int64 counter holds, a query that never finished before.
        base, _ = http_service
        body = {"graph": "grid", "method": method, "seed_node": 1, "params": params}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(base, body)
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert "walk count" in error and named in error

    @pytest.mark.parametrize(
        ("method", "params"),
        [
            ("mc-ppr", {"alpha": 5e-324}),
            ("mc-ppr", {"alpha": 1e-4}),
            ("mc-ppr", {"alpha": 1e-7, "num_walks": 1}),
            ("fora", {"alpha": 1e-7}),
        ],
        ids=["mc-ppr-5e-324", "mc-ppr-1e-4", "mc-ppr-1e-7-one-walk", "fora-1e-7"],
    )
    def test_restart_alpha_below_the_floor_is_400(self, http_service, method, params):
        # Rejected before admission: mc-ppr {"alpha": 5e-324} never answered
        # and {"alpha": 1e-4} answered seconds past a 2 s deadline, because
        # one geometric kernel call loops ~ln(walks)/alpha levels with no
        # checkpoint; one walk at 1e-7 would loop ~10^7 levels.
        import time

        base, _ = http_service
        body = {"graph": "grid", "method": method, "seed_node": 1,
                "params": params, "timeout_ms": 2000}
        started = time.monotonic()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(base, body)
        assert time.monotonic() - started < 1.0
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert "'alpha' is out of range" in error and ">= 0.001" in error

    def test_mc_ppr_default_body_is_served(self, http_service):
        base, _ = http_service
        payload = self._post(
            base,
            {"graph": "grid", "method": "mc-ppr", "seed_node": 1, "timeout_ms": 2000},
        )
        assert payload["method"] == "mc-ppr" and payload["top"]

    def test_integral_query_fields_still_accepted(self, http_service):
        base, _ = http_service
        payload = self._post(
            base,
            {"graph": "grid", "method": "monte-carlo", "seed_node": 2.0,
             "params": None, "top_k": 3.0, "rng": 4.0},
        )
        assert payload["seed_node"] == 2 and len(payload["top"]) <= 3

    def test_keep_alive_round_trips_have_no_delayed_ack_floor(self, http_service):
        # Headers and body are two writes; without TCP_NODELAY the body of
        # each keep-alive response waits ~40 ms for the client's delayed ACK.
        import http.client
        import time

        base, _ = http_service
        host, port = base.removeprefix("http://").split(":")
        body = json.dumps({"graph": "grid", "method": "monte-carlo", "seed_node": 0,
                           "params": {"num_walks": 100}})
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        round_trips = []
        try:
            for _ in range(8):
                started = time.perf_counter()
                connection.request("POST", "/query", body,
                                   {"Content-Type": "application/json"})
                response = connection.getresponse()
                assert response.status == 200
                response.read()
                round_trips.append(time.perf_counter() - started)
        finally:
            connection.close()
        assert float(np.median(round_trips[1:])) < 0.020, round_trips

    def test_deadline_trip_maps_to_504(self, http_service):
        base, svc = http_service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(
                base,
                {"graph": "grid", "method": "pr-nibble", "seed_node": 0,
                 "params": PATHOLOGICAL_PR_NIBBLE, "timeout_ms": 150},
            )
        assert excinfo.value.code == 504
        body = json.loads(excinfo.value.read())
        assert body["timeout_ms"] == 150
        assert body["elapsed_ms"] >= 150
        assert "deadline" in body["error"]
        assert body["counters"]["deadline_hit"] == 1.0
        with urllib.request.urlopen(f"{base}/stats", timeout=10) as response:
            assert json.loads(response.read())["timeouts_total"] >= 1
        # The server is still healthy for ordinary queries.
        payload = self._post(
            base,
            {"graph": "grid", "method": "hk-relax", "seed_node": 1},
        )
        assert len(payload["top"]) > 0

    def test_future_wait_backstop_maps_to_504_not_500(self, http_service):
        # A query outliving the handler's future wait used to fall into the
        # blanket `except Exception` and masquerade as a 500.
        import concurrent.futures

        base, svc = http_service

        def _hang(*args, **kwargs):
            raise concurrent.futures.TimeoutError()

        original = svc.query
        svc.query = _hang
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._post(
                    base,
                    {"graph": "grid", "method": "hk-relax", "seed_node": 0},
                )
            assert excinfo.value.code == 504
            body = json.loads(excinfo.value.read())
            assert "response window" in body["error"]
            assert body["timeout_ms"] > 0
        finally:
            svc.query = original

    def test_oversized_body_rejected_and_connection_closed(self, http_service):
        base, _ = http_service
        request = urllib.request.Request(
            f"{base}/query",
            data=b"x" * (2 << 20),
            headers={"Content-Type": "application/json"},
        )
        # The server answers 400 and closes without draining the body; the
        # client sees either the 400 or a connection error mid-upload,
        # depending on how much it managed to send first.
        with pytest.raises(
            (urllib.error.HTTPError, urllib.error.URLError, ConnectionError)
        ) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        if isinstance(excinfo.value, urllib.error.HTTPError):
            assert excinfo.value.code == 400
            assert excinfo.value.headers.get("Connection") == "close"
        # Either way the server must stay healthy for subsequent requests.
        payload = self._post(
            base,
            {"graph": "grid", "method": "monte-carlo", "seed_node": 1,
             "params": {"num_walks": 100}},
        )
        assert payload["seed_node"] == 1


@pytest.mark.statistical
def test_service_batched_answers_match_exact_law(registry):
    """Queries answered through the fused serving path follow the exact law.

    16 concurrent Monte-Carlo queries for one seed are submitted together so
    the micro-batcher fuses them; the pooled reconstructed endpoint counts
    are chi-squared against the dense Poisson endpoint law — the statcheck
    harness applied to the *service*, not the estimator.
    """
    walks = 2000
    graph = registry.get("grid").graph
    with QueryService(registry, max_batch=16, cache_entries=0, rng=99) as svc:
        futures = [
            svc.submit("grid", "monte-carlo", 0, {"num_walks": walks})
            for _ in range(16)
        ]
        counts = np.zeros(graph.num_nodes)
        fused_any = False
        for future in futures:
            response = future.result(timeout=60)
            fused_any = fused_any or response.batch_size > 1
            counts += np.rint(response.result.to_dense(graph) * walks)
    assert fused_any, "no dispatch cycle fused more than one request"
    chi_square_gof(
        counts, poisson_probs(graph, 0, PoissonWeights(5.0))
    ).assert_ok(context="service fused monte-carlo")
