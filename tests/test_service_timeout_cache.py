"""Interplay of per-query deadlines with the result cache and walk index.

The contracts under test:

* a result-cache hit is resolved at admission, *before* the query's
  deadline is even created — so a repeat of a cached query can never 504,
  however small its ``timeout_ms``;
* a timed-out query raises before the resolve path runs, so its partial
  work never poisons the cache: the next identical request computes fresh
  and only a *successful* result is cached;
* an index-served query does (near) zero online walk work, so it completes
  under a deadline that demonstrably 504s the same query served cold.
"""

from __future__ import annotations

import pytest

from repro.exceptions import QueryTimeoutError
from repro.graph.generators import powerlaw_cluster_graph
from repro.index import build_walk_index
from repro.service import GraphRegistry, QueryService

#: A deadline that has always already expired by the first cooperative
#: checkpoint on the dispatch thread.
EXPIRED_MS = 0.01


@pytest.fixture
def graph():
    return powerlaw_cluster_graph(300, 3, 0.3, seed=5)


@pytest.fixture
def registry(graph):
    reg = GraphRegistry()
    reg.add_graph("g", graph)
    return reg


class TestCacheHitsNever504:
    def test_cached_repeat_survives_expired_deadline(self, registry):
        with QueryService(registry, max_batch=4) as service:
            warm = service.query("g", "monte-carlo", 0, {"num_walks": 200})
            assert not warm.cached
            # Identical request with a deadline that would trip instantly:
            # the cache hit resolves before the deadline exists.
            hit = service.query(
                "g", "monte-carlo", 0, {"num_walks": 200}, timeout_ms=EXPIRED_MS
            )
            assert hit.cached
            assert hit.result.estimates.to_dict() == warm.result.estimates.to_dict()
            assert service.stats()["timeouts_total"] == 0

    def test_uncached_query_with_expired_deadline_still_504s(self, registry):
        with QueryService(registry, max_batch=4) as service:
            with pytest.raises(QueryTimeoutError):
                service.query(
                    "g", "monte-carlo", 0, {"num_walks": 200},
                    timeout_ms=EXPIRED_MS,
                )


class TestTimeoutsDoNotPoisonTheCache:
    def test_timed_out_query_leaves_no_cache_entry(self, registry):
        with QueryService(registry, max_batch=4) as service:
            with pytest.raises(QueryTimeoutError):
                service.query(
                    "g", "monte-carlo", 7, {"num_walks": 500},
                    timeout_ms=EXPIRED_MS,
                )
            assert len(service.cache) == 0

            # The identical request computes fresh — it is not served a
            # poisoned (partial or failed) entry...
            fresh = service.query("g", "monte-carlo", 7, {"num_walks": 500})
            assert not fresh.cached
            assert abs(sum(fresh.result.estimates.values()) - 1.0) < 1e-9

            # ...and only that successful run is cached.
            repeat = service.query("g", "monte-carlo", 7, {"num_walks": 500})
            assert repeat.cached
            assert service.stats()["timeouts_total"] == 1

    def test_deterministic_method_timeout_not_poisoned(self, registry):
        # Deterministic methods are cache-eligible even when pinned; their
        # timeout path must equally skip the cache insert.
        with QueryService(registry, max_batch=4) as service:
            with pytest.raises(QueryTimeoutError):
                service.query(
                    "g", "pr-nibble", 3, {"eps": 1e-9, "alpha": 0.01},
                    timeout_ms=EXPIRED_MS,
                )
            assert len(service.cache) == 0
            response = service.query("g", "pr-nibble", 3, {"eps": 1e-4})
            assert not response.cached


class TestIndexHitsBeatDeadlines:
    #: Walk deadlines are cooperative with per-kernel-call granularity, so
    #: the request must span more than one walk chunk (WALK_CHUNK_SIZE =
    #: 1 << 20) for the deadline to get a checkpoint mid-query: the scalar
    #: reference backend takes >> TIMEOUT_MS for the first chunk, and the
    #: checkpoint before the second chunk trips.  The index full-hit runs
    #: zero online walks, so the same deadline is generous to it.
    NUM_WALKS = (1 << 20) + 50_000
    TIMEOUT_MS = 2_000.0

    @pytest.mark.slow
    def test_cold_504s_where_indexed_succeeds(self, graph):
        hub = 0
        index = build_walk_index(
            graph,
            hubs=[hub],
            walks_per_sketch=self.NUM_WALKS,
            t_values=(5.0,),
            rng=0,
        )
        params = {"num_walks": self.NUM_WALKS, "t": 5.0}

        cold_registry = GraphRegistry()
        cold_registry.add_graph("g", graph)
        with QueryService(
            cold_registry, max_batch=2, backend="reference", cache_entries=0
        ) as cold:
            with pytest.raises(QueryTimeoutError):
                cold.query(
                    "g", "monte-carlo", hub, params,
                    timeout_ms=self.TIMEOUT_MS, timeout=120,
                )

        indexed_registry = GraphRegistry()
        indexed_registry.add_graph("g", graph)
        indexed_registry.attach_index("g", index)
        with QueryService(
            indexed_registry, max_batch=2, backend="reference", cache_entries=0
        ) as indexed:
            response = indexed.query(
                "g", "monte-carlo", hub, params,
                timeout_ms=self.TIMEOUT_MS, timeout=120,
            )
        counters = response.result.counters
        assert counters.extras["walks_from_index"] == float(self.NUM_WALKS)
        assert counters.extras["walks_sampled"] == 0.0

    def test_index_full_hit_completes_under_modest_deadline(self, graph):
        # The fast-tier version: a full hit does zero online walks, so a
        # deadline generous to overhead but hostile to 50k reference-backend
        # walks passes deterministically.
        hub = 0
        index = build_walk_index(
            graph, hubs=[hub], walks_per_sketch=50_000,
            t_values=(5.0,), rng=0,
        )
        registry = GraphRegistry()
        registry.add_graph("g", graph)
        registry.attach_index("g", index)
        with QueryService(registry, max_batch=2, cache_entries=0) as service:
            response = service.query(
                "g", "monte-carlo", hub, {"num_walks": 50_000, "t": 5.0},
                timeout_ms=10_000.0,
            )
        assert response.result.counters.extras["walks_sampled"] == 0.0
        assert response.result.counters.random_walks == 0
