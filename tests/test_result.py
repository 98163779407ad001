"""Tests for the HKPRResult container."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import powerlaw_cluster_graph, star_graph
from repro.graph.graph import Graph
from repro.hkpr.params import HKPRParams
from repro.hkpr.result import HKPRResult
from repro.hkpr.tea_plus import tea_plus
from repro.utils.sparsevec import SparseVector

#: Degrees 3..40 or so, plus ten isolated nodes (normalized value 0).
_TIES_GRAPH = Graph(130, list(powerlaw_cluster_graph(120, 3, 0.4, seed=17).edges()))


@pytest.fixture
def star_result():
    """A hand-built result on a 5-node star (node 0 is the hub, degree 4)."""
    graph = star_graph(5)
    estimates = SparseVector({0: 0.4, 1: 0.2, 2: 0.1})
    result = HKPRResult(estimates=estimates, seed=0, method="test")
    return graph, result


class TestValues:
    def test_value_without_offset(self, star_result):
        graph, result = star_result
        assert result.value(0, graph) == pytest.approx(0.4)
        assert result.value(3, graph) == 0.0

    def test_value_with_offset(self, star_result):
        graph, result = star_result
        result.offset_per_degree = 0.01
        assert result.value(0, graph) == pytest.approx(0.4 + 0.01 * 4)
        assert result.value(0, graph, include_offset=False) == pytest.approx(0.4)
        assert result.value(3, graph) == pytest.approx(0.01)

    def test_normalized_excludes_offset_by_default(self, star_result):
        graph, result = star_result
        result.offset_per_degree = 0.01
        assert result.normalized(0, graph) == pytest.approx(0.4 / 4)
        assert result.normalized(0, graph, include_offset=True) == pytest.approx(
            0.4 / 4 + 0.01
        )

    def test_normalized_isolated_node_is_zero(self):
        from repro.graph.graph import Graph

        graph = Graph(3, [(0, 1)])
        result = HKPRResult(estimates=SparseVector({2: 0.5}), seed=0, method="test")
        assert result.normalized(2, graph) == 0.0


class TestSupportAndRanking:
    def test_support(self, star_result):
        _, result = star_result
        assert sorted(result.support()) == [0, 1, 2]
        assert result.support_size() == 3

    def test_ranking_orders_by_normalized_value(self, star_result):
        graph, result = star_result
        # normalized: node0 = 0.1, node1 = 0.2, node2 = 0.1 -> 1, then 0/2 by id
        assert result.ranking(graph) == [1, 0, 2]

    def test_ranking_tie_breaks_by_node_id(self, star_result):
        graph, result = star_result
        ranking = result.ranking(graph)
        assert ranking.index(0) < ranking.index(2)

    def test_ranking_returns_fresh_list_despite_memo(self, star_result):
        # The sweep mutates the list it gets back (inserts the seed); the
        # memoized ranking must hand out a fresh copy every call.
        graph, result = star_result
        first = result.ranking(graph)
        first.insert(0, 99)
        second = result.ranking(graph)
        assert second == [1, 0, 2]
        assert second is not first

    def test_ranking_memo_invalidated_when_support_changes(self, star_result):
        graph, result = star_result
        assert result.ranking(graph) == [1, 0, 2]
        result.estimates.add_many([3], 0.9)  # normalized 0.9 -> new front-runner
        assert result.ranking(graph) == [3, 1, 0, 2]

    def test_ranking_memo_invalidated_by_an_array_merge(self):
        graph = star_graph(5)
        estimates = SparseVector()
        estimates.add_many([0, 1, 2], [0.4, 0.2, 0.1])
        result = HKPRResult(estimates=estimates, seed=0, method="test")
        assert result.ranking(graph) == [1, 0, 2]
        estimates.add_many([2], 0.5)  # an existing entry: support size unchanged
        assert result.ranking(graph) == [2, 1, 0]

    def test_top_applies_the_offset_like_value(self, star_result):
        graph, result = star_result
        result.offset_per_degree = 0.01
        assert result.top(graph, 2) == [
            [node, result.value(node, graph)] for node in result.ranking(graph)[:2]
        ]
        assert result.top(graph, 0) == []

    def test_ranked_nodes_is_the_read_only_memo(self, star_result):
        # A cached result hands the same array to every reader thread.
        graph, result = star_result
        ranked = result.ranked_nodes(graph)
        assert ranked is result.ranked_nodes(graph)
        with pytest.raises(ValueError):
            ranked[0] = 4
        assert result.ranking(graph) == [1, 0, 2]


class TestTopPrefix:
    """``top(k)`` sorts only the candidates for the first k, yet must equal
    the full ranking's prefix, whatever prefix the memo already holds."""

    @staticmethod
    def _expected(result, graph, k):
        return [[node, result.value(node, graph)] for node in result.ranking(graph)[:k]]

    @settings(max_examples=150, deadline=None)
    @given(
        levels=st.dictionaries(
            st.integers(0, 129), st.integers(1, 3), min_size=1, max_size=60
        ),
        built_by_add_many=st.booleans(),
        ks=st.lists(st.integers(0, 65), min_size=1, max_size=5),
    )
    def test_top_is_the_ranking_prefix_through_ties(self, levels, built_by_add_many, ks):
        # value = level * degree / 1024: normalized values are exactly
        # level / 1024, so up to 60 entries share three values (and the
        # isolated nodes tie at 0), straddling every k.
        graph = _TIES_GRAPH
        nodes = list(levels)
        values = [levels[v] * max(int(graph.degrees[v]), 1) / 1024 for v in nodes]

        def fresh() -> HKPRResult:
            if built_by_add_many:
                estimates = SparseVector()
                estimates.add_many(nodes, values)
            else:
                estimates = SparseVector(dict(zip(nodes, values)))
            return HKPRResult(estimates=estimates, seed=0, method="test")

        reference, rising = fresh(), fresh()
        for k in range(len(nodes) + 3):
            want = self._expected(reference, graph, k)
            assert fresh().top(graph, k) == want
            # One result asked for ever longer prefixes: each k either
            # reads the memoized prefix or must widen it.  (k = 0 would
            # rank the whole support, leaving nothing to widen.)
            if k:
                assert rising.top(graph, k) == want
        result = fresh()
        for k in ks:
            assert result.top(graph, k) == self._expected(reference, graph, k)
        assert result.ranking(graph) == reference.ranking(graph)

    def test_top_of_a_tea_plus_answer_includes_the_offset(self, medium_powerlaw):
        graph = medium_powerlaw
        params = HKPRParams(delta=1.0 / graph.num_nodes)
        reference = tea_plus(graph, 0, params, rng=3, push_budget=300)
        assert not reference.early_exit and reference.offset_per_degree > 0.0
        support = reference.support_size()
        normalized = reference.normalized_dense(graph)[reference.ranked_nodes(graph)]
        assert np.unique(normalized).size < support  # ties among the walk counts
        for k in (0, 1, 7, 20, support - 1, support, support + 5):
            result = HKPRResult(
                estimates=reference.estimates.copy(), seed=0, method="tea+",
                offset_per_degree=reference.offset_per_degree,
            )
            assert result.top(graph, k) == self._expected(reference, graph, k)


class TestDense:
    def test_to_dense_shape_and_values(self, star_result):
        graph, result = star_result
        dense = result.to_dense(graph)
        assert dense.shape == (5,)
        assert dense[1] == pytest.approx(0.2)

    def test_to_dense_with_offset(self, star_result):
        graph, result = star_result
        result.offset_per_degree = 0.005
        dense = result.to_dense(graph, include_offset=True)
        plain = result.to_dense(graph, include_offset=False)
        assert np.all(dense >= plain)
        assert dense[3] == pytest.approx(0.005)

    def test_normalized_dense(self, star_result):
        graph, result = star_result
        normalized = result.normalized_dense(graph)
        assert normalized[0] == pytest.approx(0.1)
        assert normalized[1] == pytest.approx(0.2)

    def test_total_mass(self, star_result):
        graph, result = star_result
        assert result.total_mass(graph) == pytest.approx(0.7)
        result.offset_per_degree = 0.01
        assert result.total_mass(graph, include_offset=True) == pytest.approx(
            0.7 + 0.01 * graph.total_volume
        )
