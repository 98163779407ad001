"""Tests for the walk-sketch index tier (:mod:`repro.index`).

Covers the ``.rwix`` container (round-trip, corruption matrix mirroring
``tests/test_graph_binfmt.py``), the builder, the epoch/staleness contract,
the index-combine plan with its exact ``walks_from_index`` /
``walks_sampled`` attribution, and the service integration (planner
routing, ``/stats`` reporting, cache-vs-index hit separation).
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import (
    NodeNotFoundError,
    ParameterError,
    WalkIndexError,
)
from repro.graph.generators import powerlaw_cluster_graph, ring_graph
from repro.graph.graph import Graph
from repro.index import (
    WalkIndex,
    build_walk_index,
    graph_fingerprint,
    plan_from_index,
    select_hubs,
    sniff,
)
from repro.index import format as rwix
from repro.service import GraphRegistry, QueryService
from repro.service.planner import SERVICE_METHODS, estimate_walks, normalize_request

from statcheck import chi_square_gof, endpoint_counts, geometric_probs, poisson_probs
from repro.hkpr.poisson import PoissonWeights


@pytest.fixture
def graph() -> Graph:
    return powerlaw_cluster_graph(80, 3, 0.3, seed=5)


@pytest.fixture
def index(graph) -> WalkIndex:
    return build_walk_index(
        graph,
        num_hubs=4,
        walks_per_sketch=200,
        t_values=(5.0,),
        alpha_values=(0.15,),
        rng=0,
    )


@pytest.fixture
def packed(tmp_path, index) -> Path:
    return index.to_file(tmp_path / "graph.rwix")


def _corrupt(path: Path, offset: int, payload: bytes) -> None:
    with path.open("r+b") as handle:
        handle.seek(offset)
        handle.write(payload)


class TestBuilder:
    def test_select_hubs_by_degree(self, graph):
        hubs = select_hubs(graph, 4)
        degrees = np.asarray(graph.degrees)
        cutoff = sorted(degrees, reverse=True)[3]
        assert all(degrees[hub] >= cutoff for hub in hubs)
        # Descending degree, ties broken by lower node id.
        pairs = [(-degrees[hub], hub) for hub in hubs]
        assert pairs == sorted(pairs)

    def test_select_hubs_caps_at_n(self, graph):
        assert select_hubs(graph, 10_000).size == graph.num_nodes
        with pytest.raises(ParameterError, match="hub count"):
            select_hubs(graph, 0)

    def test_explicit_seed_list_dedupes_and_validates(self, graph):
        index = build_walk_index(
            graph, hubs=[3, 1, 3], walks_per_sketch=10, rng=0
        )
        assert index.indexed_nodes() == [1, 3]
        with pytest.raises(NodeNotFoundError):
            build_walk_index(graph, hubs=[graph.num_nodes], walks_per_sketch=10)

    def test_parameter_validation(self, graph):
        with pytest.raises(ParameterError, match="walks_per_sketch"):
            build_walk_index(graph, walks_per_sketch=0)
        with pytest.raises(ParameterError, match="at least one bucket"):
            build_walk_index(graph, t_values=(), alpha_values=())
        with pytest.raises(ParameterError, match="alpha"):
            build_walk_index(graph, alpha_values=(1.5,))
        with pytest.raises(ParameterError, match="duplicate"):
            build_walk_index(graph, t_values=(5.0, 5.0))

    def test_build_is_deterministic(self, graph, tmp_path):
        kwargs = dict(
            num_hubs=3, walks_per_sketch=100,
            t_values=(5.0,), alpha_values=(0.2,), rng=7,
        )
        a = build_walk_index(graph, **kwargs).to_file(tmp_path / "a.rwix")
        b = build_walk_index(graph, **kwargs).to_file(tmp_path / "b.rwix")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "chunk,kernel_calls",
        [(7, 20), (25, 6), (1 << 20, 2)],
        ids=["hub-straddles-chunks", "two-hubs-per-group", "one-group"],
    )
    def test_grouped_build_layout_and_determinism(
        self, monkeypatch, tmp_path, chunk, kernel_calls
    ):
        """Hubs walk in groups of WALK_CHUNK_SIZE // W (at least one), one
        kernel call per chunk of a group; sketch i still holds hub i's walks,
        bucket-major."""
        import repro.engine as engine_module
        from repro.engine.vectorized import VectorizedBackend

        monkeypatch.setattr(engine_module, "WALK_CHUNK_SIZE", chunk)
        calls = []
        for name in ("poisson_walk_batch", "geometric_walk_batch"):
            kernel = getattr(VectorizedBackend, name)

            def counted(self, graph, starts, *args, _kernel=kernel, **kwargs):
                calls.append(len(starts))
                return _kernel(self, graph, starts, *args, **kwargs)

            monkeypatch.setattr(VectorizedBackend, name, counted)
        # Five disjoint 4-cycles: a walk never leaves its start's island.
        islands = Graph(
            20, [(4 * i + j, 4 * i + (j + 1) % 4) for i in range(5) for j in range(4)]
        )
        hubs = [13, 2, 19, 4, 9]
        kwargs = dict(
            hubs=hubs, walks_per_sketch=10, t_values=(3.0,), alpha_values=(0.3,),
            backend="vectorized", rng=5,
        )
        path = build_walk_index(islands, **kwargs).to_file(tmp_path / "a.rwix")
        assert len(calls) == kernel_calls and max(calls) <= chunk
        assert sum(calls) == 2 * len(hubs) * 10
        again = build_walk_index(islands, **kwargs).to_file(tmp_path / "b.rwix")
        assert path.read_bytes() == again.read_bytes()

        data = rwix.read_index_file(path, mmap=False)
        np.testing.assert_array_equal(data["nodes"], hubs * 2)
        np.testing.assert_array_equal(
            data["kinds"], [rwix.KIND_POISSON] * 5 + [rwix.KIND_GEOMETRIC] * 5
        )
        np.testing.assert_array_equal(data["buckets"], [3.0] * 5 + [0.3] * 5)
        np.testing.assert_array_equal(data["ptr"], np.arange(11) * 10)
        for i, hub in enumerate(data["nodes"]):
            ends = data["endpoints"][data["ptr"][i]:data["ptr"][i + 1]]
            assert set((ends // 4).tolist()) == {hub // 4}

    def test_endpoints_are_graph_nodes(self, graph, index):
        # Every stored endpoint is a real node of the graph.
        for node in index.indexed_nodes():
            ends = index.lookup("poisson", node, 5.0)
            assert ends is not None
            assert ends.min() >= 0 and ends.max() < graph.num_nodes


class TestRoundTrip:
    def test_byte_stable_round_trip(self, tmp_path, packed):
        index = WalkIndex.from_file(packed)
        again = index.to_file(tmp_path / "again.rwix")
        assert packed.read_bytes() == again.read_bytes()

    def test_mmap_and_eager_agree(self, packed):
        lazy = WalkIndex.from_file(packed, mmap=True)
        eager = WalkIndex.from_file(packed, mmap=False)
        assert lazy.describe()["storage"] == "mmap"
        assert eager.describe()["storage"] == "binary"
        for node in lazy.indexed_nodes():
            np.testing.assert_array_equal(
                lazy.lookup("poisson", node, 5.0),
                eager.lookup("poisson", node, 5.0),
            )

    def test_sniff(self, tmp_path, packed):
        assert sniff(packed)
        other = tmp_path / "not_an_index"
        other.write_bytes(b"RCSR....")
        assert not sniff(other)
        assert not sniff(tmp_path / "missing.rwix")

    def test_sections_are_aligned(self, packed):
        data = rwix.read_index_file(packed)
        for offset in data["backing"]["offsets"].values():
            assert offset % rwix.ALIGNMENT == 0


class TestCorruptionMatrix:
    def test_bad_magic(self, packed):
        _corrupt(packed, 0, b"NOPE")
        with pytest.raises(WalkIndexError, match="bad magic"):
            WalkIndex.from_file(packed)

    def test_file_shorter_than_header(self, tmp_path):
        stub = tmp_path / "stub.rwix"
        stub.write_bytes(rwix.MAGIC)
        with pytest.raises(WalkIndexError, match="shorter than"):
            WalkIndex.from_file(stub)

    def test_header_crc_mismatch(self, packed):
        raw = packed.read_bytes()
        _corrupt(packed, 8, bytes([raw[8] ^ 0xFF]))
        with pytest.raises(WalkIndexError, match="CRC mismatch"):
            WalkIndex.from_file(packed)

    def test_unsupported_version(self, packed):
        data = bytearray(packed.read_bytes())
        struct.pack_into("<H", data, 4, rwix.FORMAT_VERSION + 1)
        struct.pack_into("<I", data, 48, zlib.crc32(bytes(data[:48])))
        packed.write_bytes(bytes(data))
        with pytest.raises(WalkIndexError, match="unsupported .rwix version"):
            WalkIndex.from_file(packed)

    def test_unknown_flags(self, packed):
        data = bytearray(packed.read_bytes())
        struct.pack_into("<H", data, 6, 0x0001)
        struct.pack_into("<I", data, 48, zlib.crc32(bytes(data[:48])))
        packed.write_bytes(bytes(data))
        with pytest.raises(WalkIndexError, match="unknown .rwix flags"):
            WalkIndex.from_file(packed)

    def test_truncated_payload(self, packed):
        raw = packed.read_bytes()
        packed.write_bytes(raw[:-16])
        with pytest.raises(WalkIndexError, match="truncated"):
            WalkIndex.from_file(packed)

    def test_corrupt_sketch_pointers(self, packed):
        data = rwix.read_index_file(packed)
        ptr_offset = data["backing"]["offsets"]["ptr"]
        # Make ptr[1] larger than the whole endpoint section: the header
        # stays valid, so only payload validation can catch it.
        _corrupt(
            packed, ptr_offset + 8,
            struct.pack("<q", data["total_endpoints"] + 1_000_000),
        )
        with pytest.raises(WalkIndexError, match="corrupt .rwix payload"):
            WalkIndex.from_file(packed)

    def test_graph_shape_mismatch(self, packed):
        index = WalkIndex.from_file(packed)
        with pytest.raises(WalkIndexError, match="stale walk index"):
            index.verify_graph(ring_graph(10))

    def test_graph_epoch_mismatch_same_shape(self, packed):
        # Same (n, m) but different edges: only the content fingerprint
        # can tell them apart.
        index = WalkIndex.from_file(packed)
        ring = ring_graph(80)
        edges = [(i, (i + 1) % 80) for i in range(79)] + [(0, 40)]
        rewired = Graph(80, edges)
        assert (ring.num_nodes, ring.num_edges) == (
            rewired.num_nodes, rewired.num_edges,
        )
        ring_index = build_walk_index(
            ring, num_hubs=2, walks_per_sketch=20, rng=0
        )
        with pytest.raises(WalkIndexError, match="fingerprint"):
            ring_index.verify_graph(rewired)

    def test_fingerprint_is_content_sensitive(self):
        ring = ring_graph(80)
        edges = [(i, (i + 1) % 80) for i in range(79)] + [(0, 40)]
        rewired = Graph(80, edges)
        assert graph_fingerprint(ring) != graph_fingerprint(rewired)
        assert graph_fingerprint(ring) == graph_fingerprint(ring_graph(80))


class TestLookupAndCombine:
    def test_lookup_hit_miss_counters(self, graph, index):
        hub = index.indexed_nodes()[0]
        assert index.lookup("poisson", hub, 5.0).size == 200
        assert index.lookup("poisson", hub, 7.0) is None  # wrong bucket
        assert index.lookup("geometric", hub, 0.15).size == 200
        stats = index.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["walks_from_index"] == 400
        with pytest.raises(WalkIndexError, match="unknown walk-law kind"):
            index.lookup("levy", hub, 5.0)

    def test_lookup_prefix_capped(self, index):
        hub = index.indexed_nodes()[0]
        assert index.lookup("poisson", hub, 5.0, max_walks=50).size == 50

    def test_partial_hit_attribution(self, graph, index):
        hub = index.indexed_nodes()[0]
        spec = SERVICE_METHODS["monte-carlo"]
        plan = plan_from_index(
            index, graph, spec, hub, spec.validate_params({"num_walks": 500})
        )
        assert plan.estimated_walks == 300  # 200 stored + 300 fresh
        assert plan.counters.extras["walks_from_index"] == 200.0
        assert plan.counters.extras["walks_sampled"] == 300.0
        assert len(plan.fused_queries()) == 1
        assert plan.fused_queries()[0].num_walks == 300

    def test_full_hit_runs_zero_walks(self, graph, index):
        hub = index.indexed_nodes()[0]
        spec = SERVICE_METHODS["mc-ppr"]
        plan = plan_from_index(
            index, graph, spec, hub, spec.validate_params({"num_walks": 150})
        )
        assert plan.estimated_walks == 0
        assert plan.fused_queries() == []
        result = plan.finalize([])
        assert result.counters.extras["walks_from_index"] == 150.0
        assert result.counters.extras["walks_sampled"] == 0.0
        assert abs(sum(result.estimates.values()) - 1.0) < 1e-9

    def test_estimate_normalized_over_effective_walks(self, graph, index):
        hub = index.indexed_nodes()[0]
        spec = SERVICE_METHODS["monte-carlo"]
        plan = plan_from_index(
            index, graph, spec, hub, spec.validate_params({"num_walks": 400})
        )
        fresh = [np.asarray([hub] * 200)]
        result = plan.finalize(fresh)
        assert abs(sum(result.estimates.values()) - 1.0) < 1e-9

    def test_miss_returns_none(self, graph, index):
        non_hub = next(
            node for node in range(graph.num_nodes)
            if node not in set(index.indexed_nodes())
        )
        spec = SERVICE_METHODS["monte-carlo"]
        plan = plan_from_index(
            index, graph, spec, non_hub, spec.validate_params({"num_walks": 100})
        )
        assert plan is None

    def test_non_indexable_method_untouched(self, graph, index):
        spec = SERVICE_METHODS["tea+"]
        before = index.stats()["misses"]
        assert plan_from_index(index, graph, spec, 0, {}) is None
        assert index.stats()["misses"] == before


class TestServiceIntegration:
    @pytest.fixture
    def registry(self, graph, index):
        reg = GraphRegistry()
        reg.add_graph("g", graph)
        reg.attach_index("g", index)
        return reg

    def test_attach_index_verifies_epoch(self, graph, index):
        reg = GraphRegistry()
        reg.add_graph("other", ring_graph(10))
        with pytest.raises(WalkIndexError, match="stale walk index"):
            reg.attach_index("other", index)

    def test_attach_index_from_path(self, graph, packed):
        reg = GraphRegistry()
        reg.add_graph("g", graph)
        entry = reg.attach_index("g", packed)
        assert entry.index.num_sketches == 8
        assert entry.describe()["index_sketches"] == 8

    def test_indexed_query_counters(self, registry, index):
        hub = index.indexed_nodes()[0]
        with QueryService(registry, max_batch=4) as service:
            response = service.query(
                "g", "monte-carlo", hub, {"num_walks": 150, "t": 5.0}
            )
            counters = response.result.counters
            assert counters.extras["walks_from_index"] == 150.0
            assert counters.extras["walks_sampled"] == 0.0
            assert counters.random_walks == 0
            stats = service.stats()
            assert stats["index"]["hits"] == 1
            assert stats["index"]["walks_from_index"] == 150
            assert stats["index"]["graphs"]["g"]["hit_rate"] == 1.0

    def test_admission_charges_topup_only(self, registry, index):
        hub = index.indexed_nodes()[0]
        entry = registry.get("g")
        snapshot = entry.graph
        request = normalize_request(
            "g", "monte-carlo", hub, {"num_walks": 500, "t": 5.0}, snapshot=snapshot
        )
        assert estimate_walks(entry, request, snapshot=snapshot) == 300
        pinned = normalize_request(
            "g", "monte-carlo", hub, {"num_walks": 500, "t": 5.0},
            rng=3, snapshot=snapshot,
        )
        assert estimate_walks(entry, pinned, snapshot=snapshot) == 500

    def test_pinned_requests_bypass_index(self, registry, index):
        hub = index.indexed_nodes()[0]
        with QueryService(registry, max_batch=4) as service:
            first = service.query(
                "g", "monte-carlo", hub, {"num_walks": 100, "t": 5.0}, rng=3
            )
            second = service.query(
                "g", "monte-carlo", hub, {"num_walks": 100, "t": 5.0}, rng=3
            )
        assert "index_hit" not in first.result.counters.extras
        assert first.result.counters.random_walks == 100
        assert index.stats()["hits"] == 0
        assert first.result.estimates.to_dict() == second.result.estimates.to_dict()

    def test_index_hits_separate_from_cache_hits(self, registry, index):
        hub = index.indexed_nodes()[0]
        with QueryService(registry, max_batch=4) as service:
            first = service.query(
                "g", "monte-carlo", hub, {"num_walks": 150, "t": 5.0}
            )
            second = service.query(
                "g", "monte-carlo", hub, {"num_walks": 150, "t": 5.0}
            )
            stats = service.stats()
        assert not first.cached
        assert second.cached  # served by the result cache...
        assert stats["index"]["hits"] == 1  # ...not a second index lookup
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["per_graph"]["g"]["hits"] == 1

    def test_unindexed_service_reports_no_index(self, graph):
        reg = GraphRegistry()
        reg.add_graph("g", graph)
        with QueryService(reg, max_batch=2) as service:
            service.query("g", "monte-carlo", 0, {"num_walks": 50})
            assert service.stats()["index"] is None


class TestStatisticalParity:
    """Indexed answers obey the same endpoint laws as cold sampling."""

    @pytest.mark.statistical
    def test_poisson_parity_with_topup(self, graph, index):
        hub = index.indexed_nodes()[0]
        spec = SERVICE_METHODS["monte-carlo"]
        weights = PoissonWeights(5.0)
        law = poisson_probs(graph, hub, weights)
        total = 6000  # 200 stored + 5800 fresh: exercises the combine path
        # Every run reuses the same 200 stored endpoints, so they are
        # counted once and only the fresh top-ups are pooled on top —
        # pooling the raw answers would replicate the stored draws.
        stored_counts = np.bincount(
            index.lookup("poisson", hub, 5.0), minlength=graph.num_nodes
        ).astype(float)
        counts = stored_counts.copy()
        rng = np.random.default_rng(42)
        from repro.engine.multi import execute_plans

        runs = 4
        for _ in range(runs):
            plan = plan_from_index(
                index, graph, spec, hub,
                spec.validate_params({"num_walks": total}),
            )
            result = execute_plans(None, graph, [plan], rng)[0]
            counts += np.rint(result.to_dense(graph) * total) - stored_counts
        outcome = chi_square_gof(counts, law)
        outcome.assert_ok(context="indexed monte-carlo combine")

    @pytest.mark.statistical
    def test_geometric_parity_stored_only(self, graph, index):
        hub = index.indexed_nodes()[0]
        law = geometric_probs(graph, hub, 0.15)
        ends = index.lookup("geometric", hub, 0.15)
        counts = endpoint_counts(ends, graph.num_nodes)
        outcome = chi_square_gof(counts, law)
        outcome.assert_ok(context="stored geometric sketch")
