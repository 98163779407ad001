"""Tests for the ``.rcsr`` binary CSR container (:mod:`repro.graph.binfmt`).

Covers the format contract end to end: byte-exact round trips (mmap and
eager), header validation (magic, CRC, version, flags, truncation), backing
metadata, streaming edge-list packing, identical query results between an
``.rcsr`` file and its edge-list source, registry sniffing, and the
mmap-aware worker attach of the parallel backend.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from repro.engine.parallel import _attach_csr, _shared_meta
from repro.exceptions import GraphError, ParameterError
from repro.graph import binfmt
from repro.graph.binfmt import read_graph_binary, sniff, write_graph_binary
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.graph import Graph
from repro.graph.io import load_edge_list, save_edge_list
from repro.hkpr.monte_carlo import monte_carlo_hkpr_many
from repro.hkpr.params import HKPRParams


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(80, 3, 0.3, seed=5)


@pytest.fixture
def packed(graph, tmp_path):
    path = tmp_path / "graph.rcsr"
    write_graph_binary(graph, path)
    return path


def _corrupt(path, offset: int, payload: bytes):
    data = bytearray(path.read_bytes())
    data[offset:offset + len(payload)] = payload
    path.write_bytes(bytes(data))


class TestRoundTrip:
    @pytest.mark.parametrize("mmap", [True, False])
    def test_round_trip_identical_csr(self, graph, packed, mmap):
        loaded = read_graph_binary(packed, mmap=mmap)
        assert loaded.num_nodes == graph.num_nodes
        assert loaded.num_edges == graph.num_edges
        np.testing.assert_array_equal(loaded.indptr, graph.indptr)
        np.testing.assert_array_equal(loaded.indices, graph.indices)
        np.testing.assert_array_equal(loaded.degrees, graph.degrees)

    def test_graph_methods_delegate(self, graph, tmp_path):
        path = graph.to_binary(tmp_path / "g.rcsr")
        loaded = Graph.from_binary(path)
        np.testing.assert_array_equal(loaded.indices, graph.indices)

    def test_mmap_arrays_are_memmaps(self, packed):
        loaded = read_graph_binary(packed, mmap=True)
        assert isinstance(loaded.indptr, np.memmap)
        assert loaded.backing["kind"] == "mmap"
        assert loaded.backing["path"] == str(packed)
        assert set(loaded.backing["offsets"]) == {"indptr", "degrees", "indices"}

    def test_eager_backing_kind(self, packed):
        loaded = read_graph_binary(packed, mmap=False)
        assert not isinstance(loaded.indptr, np.memmap)
        assert loaded.backing["kind"] == "binary"

    def test_csr_nbytes(self, graph, packed):
        loaded = read_graph_binary(packed)
        expected = (
            graph.indptr.nbytes + graph.indices.nbytes + graph.degrees.nbytes
        )
        assert loaded.csr_nbytes == expected
        assert graph.backing is None

    def test_empty_graph_round_trip(self, tmp_path):
        empty = Graph(0, [])
        path = write_graph_binary(empty, tmp_path / "empty.rcsr")
        loaded = read_graph_binary(path)
        assert loaded.num_nodes == 0
        assert loaded.num_edges == 0

    def test_sections_are_aligned(self, packed):
        loaded = read_graph_binary(packed)
        for offset in loaded.backing["offsets"].values():
            assert offset % binfmt.ALIGNMENT == 0

    def test_sniff(self, packed, tmp_path):
        assert sniff(packed)
        text = tmp_path / "plain.txt"
        text.write_text("0 1\n")
        assert not sniff(text)
        assert not sniff(tmp_path / "missing.rcsr")


class TestHeaderValidation:
    def test_rejects_bad_magic(self, packed):
        _corrupt(packed, 0, b"NOPE")
        with pytest.raises(GraphError, match="bad magic"):
            read_graph_binary(packed)

    def test_rejects_short_file(self, tmp_path):
        stub = tmp_path / "short.rcsr"
        stub.write_bytes(binfmt.MAGIC + b"\x00" * 8)
        with pytest.raises(GraphError, match="shorter than"):
            read_graph_binary(stub)

    def test_rejects_corrupt_header_crc(self, packed):
        # Flip a byte inside the checksummed region (node count).
        _corrupt(packed, 8, b"\xff")
        with pytest.raises(GraphError, match="CRC mismatch"):
            read_graph_binary(packed)

    def test_rejects_version_mismatch(self, packed):
        # Bump the version and recompute the CRC so only the version trips.
        data = bytearray(packed.read_bytes())
        struct.pack_into("<H", data, 4, binfmt.FORMAT_VERSION + 7)
        struct.pack_into("<I", data, 48, zlib.crc32(bytes(data[:48])))
        packed.write_bytes(bytes(data))
        with pytest.raises(GraphError, match="unsupported .rcsr version"):
            read_graph_binary(packed)

    def test_rejects_unknown_flags(self, packed):
        data = bytearray(packed.read_bytes())
        struct.pack_into("<H", data, 6, 0x0004)
        struct.pack_into("<I", data, 48, zlib.crc32(bytes(data[:48])))
        packed.write_bytes(bytes(data))
        with pytest.raises(GraphError, match="unknown .rcsr flags"):
            read_graph_binary(packed)

    def test_rejects_truncated_payload(self, packed):
        data = packed.read_bytes()
        packed.write_bytes(data[: len(data) - 16])
        with pytest.raises(GraphError, match="truncated"):
            read_graph_binary(packed)

    def test_rejects_corrupt_payload(self, graph, tmp_path):
        # A valid header over an inconsistent indptr payload.
        path = tmp_path / "bad.rcsr"
        write_graph_binary(graph, path)
        offset = read_graph_binary(path).backing["offsets"]["indptr"]
        _corrupt(path, offset, np.int64(12345).tobytes())
        with pytest.raises(GraphError, match="corrupt .rcsr payload"):
            read_graph_binary(path)

    @pytest.mark.parametrize(
        "neighbor", [lambda n: -3, lambda n: n + 5], ids=["-3", "n+5"]
    )
    @pytest.mark.parametrize("mmap", [True, False])
    def test_rejects_neighbor_ids_outside_the_graph(
        self, graph, packed, neighbor, mmap
    ):
        # A header and indptr that check out, over one neighbor id of node
        # 42 that names no node: refused at load, not walked to or ranked.
        offset = read_graph_binary(packed).backing["offsets"]["indices"]
        slot = int(graph.indptr[42])
        _corrupt(
            packed, offset + 8 * slot,
            np.int64(neighbor(graph.num_nodes)).tobytes(),
        )
        with pytest.raises(GraphError, match=r"corrupt .rcsr payload \(neighbor ids"):
            read_graph_binary(packed, mmap=mmap)

    @pytest.mark.parametrize(
        "section, node, message",
        [("indptr", 1, "indptr decreases"), ("degrees", 3, "degrees differ")],
    )
    def test_rejects_rows_that_disagree(self, graph, packed, section, node, message):
        offset = read_graph_binary(packed).backing["offsets"][section]
        value = 2 * graph.num_edges if section == "indptr" else graph.degrees[node] + 1
        _corrupt(packed, offset + 8 * node, np.int64(value).tobytes())
        with pytest.raises(GraphError, match=message):
            read_graph_binary(packed)


class TestFromCsrArrays:
    def test_rejects_wrong_shapes(self):
        with pytest.raises(GraphError):
            Graph.from_csr_arrays(
                2, 1,
                np.zeros(5, np.int64), np.zeros(2, np.int64), np.zeros(2, np.int64),
            )

    def test_rejects_inconsistent_endpoints(self):
        indptr = np.array([0, 1, 3], dtype=np.int64)  # indptr[-1] != 2m
        with pytest.raises(GraphError):
            Graph.from_csr_arrays(
                2, 2, indptr, np.zeros(4, np.int64), np.zeros(2, np.int64)
            )


class TestQueryParity:
    def test_binary_graph_answers_identically(self, graph, tmp_path):
        """An .rcsr graph produces byte-identical query results to its
        edge-list source (same topology, same rng stream)."""
        edge_path = tmp_path / "graph.txt"
        save_edge_list(graph, edge_path)
        text_graph, _ = load_edge_list(edge_path)
        text_graph.to_binary(tmp_path / "graph.rcsr")
        binary_graph = Graph.from_binary(tmp_path / "graph.rcsr")

        params = HKPRParams(
            t=5.0, eps_r=0.5, delta=1.0 / graph.num_nodes, p_f=1e-6
        )
        for candidate in (text_graph, binary_graph):
            np.testing.assert_array_equal(candidate.indices, text_graph.indices)
        r_text = monte_carlo_hkpr_many(
            text_graph, [0, 3], params, num_walks=250, rng=42
        )
        r_bin = monte_carlo_hkpr_many(
            binary_graph, [0, 3], params, num_walks=250, rng=42
        )
        for seed in (0, 3):
            assert dict(r_text[seed].estimates.items()) == dict(
                r_bin[seed].estimates.items()
            )


class TestRegistryIntegration:
    def test_add_binary_and_sniffing(self, graph, tmp_path):
        from repro.service.registry import GraphRegistry

        path = graph.to_binary(tmp_path / "g.rcsr")
        registry = GraphRegistry()
        entry = registry.add_binary(path)
        assert entry.storage == "mmap"
        assert entry.load_seconds >= 0.0
        assert entry.describe()["csr_bytes"] == entry.graph.csr_nbytes
        # add_edge_list detects the magic and maps instead of parsing.
        sniffed = registry.add_edge_list(path, name="sniffed")
        assert sniffed.storage == "mmap"
        assert registry.get("sniffed").graph.backing["kind"] == "mmap"

    def test_stats_exposes_graph_storage(self, graph, tmp_path):
        from repro.service import GraphRegistry, QueryService

        path = graph.to_binary(tmp_path / "g.rcsr")
        registry = GraphRegistry()
        registry.add_binary(path, name="g")
        service = QueryService(registry, rng=3)
        try:
            storage = service.stats()["graph_storage"]
        finally:
            service.stop()
        assert storage["g"]["storage"] == "mmap"
        assert storage["g"]["csr_bytes"] > 0
        assert storage["g"]["load_seconds"] >= 0.0


class TestParallelMmapAttach:
    def test_shared_meta_prefers_mmap(self, graph, tmp_path):
        path = graph.to_binary(tmp_path / "g.rcsr")
        loaded = Graph.from_binary(path)
        meta = _shared_meta(loaded)
        assert meta["kind"] == "mmap"
        assert meta["path"] == str(path)

    def test_attach_maps_identical_arrays(self, graph, tmp_path):
        path = graph.to_binary(tmp_path / "g.rcsr")
        loaded = Graph.from_binary(path)
        meta = _shared_meta(loaded)
        view = _attach_csr(meta)
        np.testing.assert_array_equal(view.indptr, graph.indptr)
        np.testing.assert_array_equal(view.indices, graph.indices)
        np.testing.assert_array_equal(view.degrees, graph.degrees)
        assert view.num_nodes == graph.num_nodes
        # Cached by token on repeat attach.
        assert _attach_csr(meta) is view

    def test_parallel_backend_runs_on_mmap_graph(self, graph, tmp_path):
        from repro.engine import ParallelBackend
        from repro.hkpr.poisson import PoissonWeights

        path = graph.to_binary(tmp_path / "g.rcsr")
        loaded = Graph.from_binary(path)
        backend = ParallelBackend(num_workers=2, min_parallel_batch=1)
        try:
            ends = backend.poisson_walk_batch(
                loaded,
                np.zeros(128, dtype=np.int64),
                PoissonWeights(3.0),
                np.random.default_rng(8),
            )
        finally:
            backend.close()
        assert ends.shape == (128,)
        assert (ends >= 0).all() and (ends < graph.num_nodes).all()

    def test_in_memory_graph_still_uses_shm(self, graph):
        meta = _shared_meta(graph)
        if meta is not None:  # shared memory may be unavailable in sandboxes
            assert meta["kind"] == "shm"


class TestPackExtremes:
    def test_write_rejects_nothing_but_files_survive_reload_cycle(self, tmp_path):
        # Pack -> load -> pack again is byte-stable.
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        p1 = write_graph_binary(g, tmp_path / "a.rcsr")
        g2 = read_graph_binary(p1)
        p2 = write_graph_binary(g2, tmp_path / "b.rcsr")
        assert p1.read_bytes() == p2.read_bytes()

    def test_isolated_nodes_preserved(self, tmp_path):
        g = Graph(6, [(0, 1)])  # nodes 2..5 isolated
        loaded = read_graph_binary(write_graph_binary(g, tmp_path / "i.rcsr"))
        assert loaded.num_nodes == 6
        assert loaded.degree(5) == 0
