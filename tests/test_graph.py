"""Unit tests for the CSR Graph data structure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError, NodeNotFoundError
from repro.graph.graph import Graph


class TestConstruction:
    def test_basic_counts(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_edges == 3
        assert len(triangle) == 3

    def test_empty_graph(self):
        g = Graph(0, [])
        assert g.num_nodes == 0
        assert g.num_edges == 0

    def test_nodes_without_edges(self):
        g = Graph(5, [(0, 1)])
        assert g.num_nodes == 5
        assert g.degree(4) == 0

    def test_negative_node_count_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1, [])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0)])

    def test_dedupe_drops_duplicates_and_loops(self):
        g = Graph(3, [(0, 1), (1, 0), (2, 2), (1, 2)], dedupe=True)
        assert g.num_edges == 2

    def test_out_of_range_node_rejected(self):
        with pytest.raises(NodeNotFoundError):
            Graph(3, [(0, 5)])

    def test_from_edges_infers_node_count(self):
        g = Graph.from_edges([(0, 3), (3, 2)])
        assert g.num_nodes == 4
        assert g.num_edges == 2

    def test_from_edges_empty(self):
        g = Graph.from_edges([])
        assert g.num_nodes == 0


def _reference_csr(n, edges):
    """CSR of ``edges`` built pair by pair: loops and repeats dropped, each
    adjacency row sorted."""
    rows = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            rows[u].add(v)
            rows[v].add(u)
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = [v for row in rows for v in sorted(row)]
    return indptr, np.asarray(indices, dtype=np.int64)


class TestArrayEdges:
    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (1, 0), (2, 3)],
            [(0, 1), (0, 1), (1, 2)],
            [(0, 1), (2, 2), (1, 3)],
            [(3, 1), (1, 3), (4, 4), (0, 2), (2, 0), (4, 1), (0, 0)],
        ],
        ids=["reversed", "repeated", "self-loop", "mixed"],
    )
    def test_array_and_tuple_list_build_the_same_graph(self, edges):
        from_list = Graph(5, edges, dedupe=True)
        from_array = Graph(5, np.asarray(edges), dedupe=True)
        indptr, indices = _reference_csr(5, edges)
        for graph in (from_list, from_array):
            assert graph.num_edges == indices.size // 2
            np.testing.assert_array_equal(graph.indptr, indptr)
            np.testing.assert_array_equal(graph.indices, indices)
        with pytest.raises(GraphError) as from_list_error:
            Graph(5, edges)
        with pytest.raises(GraphError) as from_array_error:
            Graph(5, np.asarray(edges))
        assert str(from_array_error.value) == str(from_list_error.value)

    def test_random_pairs_match_the_reference_csr(self):
        rng = np.random.default_rng(3)
        n = 200
        pairs = rng.integers(0, n, size=(1500, 2))
        graph = Graph(n, pairs, dedupe=True)
        indptr, indices = _reference_csr(n, pairs.tolist())
        np.testing.assert_array_equal(graph.indptr, indptr)
        np.testing.assert_array_equal(graph.indices, indices)
        np.testing.assert_array_equal(graph.degrees, np.diff(indptr))

    def test_array_errors_name_the_first_bad_pair(self):
        with pytest.raises(GraphError, match=r"duplicate edge \(2, 1\)"):
            Graph(4, np.array([(1, 2), (0, 3), (2, 1), (3, 0)]))
        with pytest.raises(GraphError, match=r"self-loop \(3, 3\)"):
            Graph(4, np.array([(1, 2), (3, 3), (0, 0)]))
        with pytest.raises(NodeNotFoundError):
            Graph(4, np.array([(1, 2), (0, 4)]))
        with pytest.raises(GraphError, match="pairs"):
            Graph(4, np.array([(1, 2, 3)]))


def _reference_subgraph(graph, nodes):
    """Reference induced subgraph, built pair by pair."""
    node_list = [int(v) for v in dict.fromkeys(nodes)]
    mapping = {node: i for i, node in enumerate(node_list)}
    edges = [
        (mapping[u], mapping[int(v)])
        for u in node_list
        for v in graph.neighbors(u)
        if int(v) in mapping and u < int(v)
    ]
    return Graph(len(node_list), edges), mapping


class TestAccessors:
    def test_degree(self, small_star):
        assert small_star.degree(0) == 8
        assert small_star.degree(1) == 1

    def test_degrees_array_matches_degree(self, small_ring):
        degrees = small_ring.degrees
        assert all(degrees[v] == small_ring.degree(v) for v in small_ring.nodes())

    def test_degrees_array_readonly(self, small_ring):
        with pytest.raises(ValueError):
            small_ring.degrees[0] = 99

    def test_neighbors_sorted(self, triangle):
        assert list(triangle.neighbors(0)) == [1, 2]

    def test_neighbors_readonly(self, triangle):
        with pytest.raises(ValueError):
            triangle.neighbors(0)[0] = 5

    def test_degree_of_missing_node_raises(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.degree(10)

    def test_has_edge(self, small_path):
        assert small_path.has_edge(0, 1)
        assert not small_path.has_edge(0, 2)

    def test_has_node(self, triangle):
        assert triangle.has_node(2)
        assert not triangle.has_node(3)
        assert not triangle.has_node(-1)

    def test_edges_iteration_each_once(self, small_complete):
        edges = list(small_complete.edges())
        assert len(edges) == small_complete.num_edges
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == len(edges)

    def test_average_degree(self, small_ring):
        assert small_ring.average_degree == pytest.approx(2.0)

    def test_total_volume(self, small_ring):
        assert small_ring.total_volume == 2 * small_ring.num_edges

    def test_equality(self, triangle):
        same = Graph(3, [(0, 1), (1, 2), (2, 0)])
        other = Graph(3, [(0, 1), (1, 2)])
        assert triangle == same
        assert triangle != other

    def test_random_neighbor_is_neighbor(self, small_star, rng):
        for _ in range(20):
            assert small_star.random_neighbor(0, rng) in set(
                int(v) for v in small_star.neighbors(0)
            )

    def test_random_neighbor_of_isolated_raises(self, rng):
        g = Graph(2, [])
        with pytest.raises(GraphError):
            g.random_neighbor(0, rng)


class TestSetOperations:
    def test_volume(self, small_star):
        assert small_star.volume([0]) == 8
        assert small_star.volume([1, 2]) == 2

    def test_cut_size_star_center(self, small_star):
        assert small_star.cut_size([0]) == 8

    def test_cut_size_ring_arc(self, small_ring):
        assert small_ring.cut_size([0, 1, 2]) == 2

    def test_cut_size_whole_graph_zero(self, triangle):
        assert triangle.cut_size([0, 1, 2]) == 0

    def test_connected_component_full(self, small_ring):
        assert small_ring.connected_component(0) == set(range(10))

    def test_connected_component_partial(self):
        g = Graph(5, [(0, 1), (2, 3)])
        assert g.connected_component(0) == {0, 1}
        assert g.connected_component(3) == {2, 3}
        assert g.connected_component(4) == {4}

    def test_is_connected(self, small_ring):
        assert small_ring.is_connected()
        assert not Graph(3, [(0, 1)]).is_connected()
        assert Graph(0, []).is_connected()

    def test_subgraph_relabels(self, small_ring):
        sub, mapping = small_ring.subgraph([2, 3, 4])
        assert sub.num_nodes == 3
        assert sub.num_edges == 2
        assert mapping[2] == 0

    def test_subgraph_preserves_internal_edges(self, small_complete):
        sub, _ = small_complete.subgraph([0, 1, 2])
        assert sub.num_edges == 3

    def test_subgraph_of_unsorted_nodes_with_repeats(self):
        rng = np.random.default_rng(5)
        graph = Graph(60, rng.integers(0, 60, size=(240, 2)), dedupe=True)
        nodes = [int(v) for v in rng.integers(0, 60, size=45)]
        assert len(set(nodes)) < len(nodes) and nodes != sorted(nodes)
        sub, mapping = graph.subgraph(nodes)
        expected, expected_mapping = _reference_subgraph(graph, nodes)
        assert sub == expected
        assert list(mapping.items()) == list(expected_mapping.items())
        empty, empty_mapping = graph.subgraph([])
        assert (empty.num_nodes, empty.num_edges, empty_mapping) == (0, 0, {})

    @pytest.mark.parametrize("bad", [10, -1])
    def test_subgraph_rejects_out_of_range_ids(self, small_ring, bad):
        with pytest.raises(NodeNotFoundError, match=str(bad)):
            small_ring.subgraph([3, 1, bad, 3])


class TestMatrices:
    def test_adjacency_matrix_symmetric(self, small_ring):
        adjacency = small_ring.adjacency_matrix()
        assert (adjacency != adjacency.T).nnz == 0
        assert adjacency.sum() == small_ring.total_volume

    def test_transition_matrix_rows_sum_to_one(self, small_complete):
        transition = small_complete.transition_matrix()
        sums = np.asarray(transition.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0)

    def test_transition_matrix_isolated_node_row_zero(self):
        g = Graph(3, [(0, 1)])
        transition = g.transition_matrix()
        assert np.asarray(transition.sum(axis=1)).ravel()[2] == pytest.approx(0.0)
