"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.conductance import conductance
from repro.clustering.quality import precision_recall_f1
from repro.clustering.sweep import sweep_from_ranking
from repro.dynamic import DeltaGraph
from repro.engine.fused import FusedGroup, FusedQuery, sample_fused_starts
from repro.graph.generators import powerlaw_cluster_graph, ring_graph
from repro.graph.graph import Graph, neighbor_rows
from repro.hkpr.hk_push import hk_push
from repro.hkpr.poisson import PoissonWeights
from repro.utils.sparsevec import SparseVector, sum_by_node

# A moderate, connected test graph reused by the stateless properties below.
_GRAPH = powerlaw_cluster_graph(120, 3, 0.4, seed=17)
_RING = ring_graph(12)


class TestSparseVectorProperties:
    @given(st.dictionaries(st.integers(0, 50), st.floats(-10, 10, allow_nan=False), max_size=30))
    def test_dense_round_trip(self, data):
        vec = SparseVector(data)
        dense = vec.to_dense(51)
        back = SparseVector.from_dense(dense)
        assert np.allclose(back.to_dense(51), dense)

    @given(
        st.dictionaries(st.integers(0, 30), st.floats(-5, 5, allow_nan=False), max_size=15),
        st.integers(0, 30),
        st.floats(-5, 5, allow_nan=False),
    )
    def test_add_then_get(self, data, node, delta):
        vec = SparseVector(data)
        before = vec[node]
        vec.add_many([node], [delta])
        assert math.isclose(vec[node], before + delta, rel_tol=1e-9, abs_tol=1e-12)


def _assert_sums_like_the_sort(nodes, weights) -> None:
    """``sum_by_node`` equals ``np.unique`` + ``np.bincount`` bit for bit."""
    nodes, weights = np.array(nodes, dtype=np.int64), np.array(weights)
    got_nodes, got_sums = sum_by_node(nodes, weights)
    want_nodes, inverse = np.unique(nodes, return_inverse=True)
    want_sums = np.bincount(inverse, weights=weights)
    assert got_nodes.dtype == np.int64 and got_sums.dtype == np.float64
    np.testing.assert_array_equal(got_nodes, want_nodes)
    np.testing.assert_array_equal(got_sums.view(np.uint64), want_sums.view(np.uint64))


_LOWEST_ID = st.integers(0, 2**40)
_WEIGHT = st.floats(-1e6, 1e6, allow_nan=False)


class TestSumByNodeProperties:
    """Both branches, marked span and sort, against the sort they replace."""

    @settings(max_examples=150)
    @given(_LOWEST_ID, st.data())
    def test_dense_span(self, low, data):
        # At most 8 ids per entry: the marked-span branch.
        size = data.draw(st.integers(1, 60))
        offsets = data.draw(
            st.lists(st.integers(0, 8 * size - 1), min_size=size, max_size=size)
        )
        weights = data.draw(st.lists(_WEIGHT, min_size=size, max_size=size))
        _assert_sums_like_the_sort([low + offset for offset in offsets], weights)

    @settings(max_examples=150)
    @given(_LOWEST_ID, st.data())
    def test_sparse_span(self, low, data):
        # The ids span more than 8 per entry: the sort branch.
        size = data.draw(st.integers(2, 60))
        top = data.draw(st.integers(8 * size, 10**6))
        pool = [0, top, *data.draw(st.lists(st.integers(0, top), max_size=size))]
        offsets = [0, top] + data.draw(
            st.lists(st.sampled_from(pool), min_size=size - 2, max_size=size - 2)
        )
        offsets = data.draw(st.permutations(offsets))
        weights = data.draw(st.lists(_WEIGHT, min_size=size, max_size=size))
        _assert_sums_like_the_sort([low + offset for offset in offsets], weights)

    @pytest.mark.parametrize(
        "nodes,weights",
        [([3, 3, 3], [1e16, 1.0, -1e16]), ([3, 1000, 3, 3], [1e16, 5.0, 1.0, -1e16])],
        ids=["dense", "sparse"],
    )
    def test_repeats_add_in_input_order(self, nodes, weights):
        # 1e16 + 1.0 rounds back to 1e16: node 3 sums to 0 only in input order.
        _assert_sums_like_the_sort(nodes, weights)
        assert sum_by_node(np.array(nodes), np.array(weights))[1][0] == 0.0

    def test_single_entry(self):
        nodes, sums = sum_by_node(np.array([7]), np.array([2.5]))
        assert nodes.tolist() == [7] and sums.tolist() == [2.5]
        _assert_sums_like_the_sort([7], [2.5])

    def test_empty_input(self):
        nodes, sums = sum_by_node(np.zeros(0, dtype=np.int64), np.zeros(0))
        assert nodes.size == 0 and sums.size == 0
        _assert_sums_like_the_sort([], [])


def _overlay_graphs() -> dict:
    """A plain graph and overlays whose patch holds rewritten and dead rows."""
    absent = [(1, v) for v in range(2, 120) if not _GRAPH.has_edge(1, v)][:3]
    first = (0, int(_GRAPH.neighbors(0)[0]))
    overlay = DeltaGraph(_GRAPH).apply(add=absent, remove=[first])
    overlay = overlay.apply(remove=[absent[0]], add=[first])
    edgeless = DeltaGraph(Graph(6, [])).apply(add=[(0, 1), (1, 2), (4, 5)])
    return {
        "plain": _GRAPH,
        "overlay": overlay,
        "edgeless-base-overlay": edgeless,
    }


_ROW_GRAPHS = _overlay_graphs()


class TestNeighborRowsProperties:
    """The one slot gather against each row's prefix, row by row."""

    @staticmethod
    def _assert_rows(graph, nodes, counts) -> None:
        got = neighbor_rows(
            graph, np.array(nodes, dtype=np.int64), np.array(counts, dtype=np.int64)
        )
        want = [
            int(neighbor)
            for node, count in zip(nodes, counts)
            for neighbor in graph.neighbors(node)[:count]
        ]
        assert got.dtype == np.int64
        assert got.tolist() == want

    @settings(max_examples=150)
    @given(st.sampled_from(sorted(_ROW_GRAPHS)), st.data())
    def test_rows_match_neighbor_prefixes(self, name, data):
        graph = _ROW_GRAPHS[name]
        nodes = data.draw(st.lists(st.integers(0, graph.num_nodes - 1), max_size=25))
        counts = [data.draw(st.integers(0, graph.degree(node))) for node in nodes]
        self._assert_rows(graph, nodes, counts)

    @pytest.mark.parametrize("name", sorted(_ROW_GRAPHS))
    def test_whole_rows_empty_input_and_zero_counts(self, name):
        graph = _ROW_GRAPHS[name]
        nodes = list(range(graph.num_nodes))
        self._assert_rows(graph, nodes, graph.degrees.tolist())
        self._assert_rows(graph, [], [])
        self._assert_rows(graph, nodes, [0] * len(nodes))


class TestPoissonProperties:
    @given(st.floats(0.1, 60.0))
    def test_eta_mass_and_psi_monotonicity(self, t):
        weights = PoissonWeights(t)
        total = sum(weights.eta(k) for k in range(weights.max_hop + 1))
        assert math.isclose(total, 1.0, abs_tol=1e-7)
        psis = [weights.psi(k) for k in range(weights.max_hop + 1)]
        assert all(a >= b - 1e-12 for a, b in zip(psis, psis[1:]))

    @given(st.floats(0.5, 40.0), st.integers(0, 30))
    def test_stop_probability_in_unit_interval(self, t, k):
        weights = PoissonWeights(t)
        assert 0.0 <= weights.stop_probability(k) <= 1.0


class TestInverseCDFProperties:
    @given(
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20).filter(
            lambda w: sum(w) > 0
        ),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50)
    def test_samples_only_positive_weight_entries(self, weights, seed):
        # Two copies of the query, so the second draws from the offset
        # segment (1, 2] of the concatenated CDF.
        query = FusedQuery(
            "poisson", list(range(len(weights))), weights, 50,
            weights=PoissonWeights(5.0),
        )
        group = FusedGroup(_GRAPH, [query, query], [50, 50])
        starts, _ = sample_fused_starts(group, np.random.default_rng(seed))
        positive = {i for i, w in enumerate(weights) if w > 0}
        assert set(starts.tolist()) <= positive


class TestGraphMeasureProperties:
    @given(st.sets(st.integers(0, 119), min_size=1, max_size=60))
    @settings(max_examples=60)
    def test_conductance_in_unit_interval(self, nodes):
        assert 0.0 <= conductance(_GRAPH, nodes) <= 1.0

    @given(st.sets(st.integers(0, 119), min_size=1, max_size=119))
    @settings(max_examples=40)
    def test_cut_symmetric_under_complement(self, nodes):
        complement = set(range(_GRAPH.num_nodes)) - nodes
        if not complement:
            return
        assert _GRAPH.cut_size(nodes) == _GRAPH.cut_size(complement)

    @given(st.sets(st.integers(0, 119), min_size=1, max_size=119))
    @settings(max_examples=40)
    def test_volume_partition(self, nodes):
        complement = set(range(_GRAPH.num_nodes)) - nodes
        assert _GRAPH.volume(nodes) + _GRAPH.volume(complement) == _GRAPH.total_volume


class TestSweepProperties:
    @given(st.permutations(list(range(12))), st.integers(1, 12))
    @settings(max_examples=40)
    def test_sweep_conductance_is_profile_minimum(self, order, prefix_len):
        ranking = list(order)[:prefix_len]
        # Disable the half-volume cap so the minimum is over the full profile.
        result = sweep_from_ranking(
            _RING, ranking, max_cluster_volume=_RING.total_volume
        )
        assert math.isclose(result.conductance, min(result.conductance_profile), rel_tol=1e-12)
        assert result.cluster <= set(ranking)
        assert len(result.conductance_profile) == len(result.sweep_order)


class TestPushInvariantProperties:
    @given(st.floats(1e-4, 0.5), st.integers(0, 119), st.floats(1.0, 15.0))
    @settings(max_examples=25, deadline=None)
    def test_mass_conservation_any_threshold(self, r_max, seed_node, t):
        weights = PoissonWeights(t)
        outcome = hk_push(_GRAPH, seed_node, r_max, weights)
        total = outcome.reserve.sum() + outcome.residues.total()
        assert math.isclose(total, 1.0, abs_tol=1e-8)
        assert all(value >= 0 for value in outcome.reserve.values())


class TestQualityProperties:
    @given(
        st.sets(st.integers(0, 40), min_size=0, max_size=25),
        st.sets(st.integers(0, 40), min_size=1, max_size=25),
    )
    def test_f1_bounds_and_symmetry_of_overlap(self, predicted, truth):
        precision, recall, f1 = precision_recall_f1(predicted, truth)
        assert 0.0 <= precision <= 1.0
        assert 0.0 <= recall <= 1.0
        assert 0.0 <= f1 <= 1.0
        if predicted == truth:
            assert f1 == 1.0
        if not predicted & truth:
            assert f1 == 0.0
