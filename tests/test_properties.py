"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.conductance import conductance
from repro.clustering.quality import precision_recall_f1
from repro.clustering.sweep import sweep_from_ranking
from repro.graph.generators import powerlaw_cluster_graph, ring_graph
from repro.hkpr.alias import AliasSampler
from repro.hkpr.hk_push import hk_push
from repro.hkpr.poisson import PoissonWeights
from repro.utils.sparsevec import SparseVector

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


class TestAliasSamplerProperties:
    @given(
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20).filter(
            lambda w: sum(w) > 0
        ),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50)
    def test_samples_only_positive_weight_items(self, weights, seed):
        items = list(range(len(weights)))
        sampler = AliasSampler(items, weights)
        rng = np.random.default_rng(seed)
        positive = {i for i, w in enumerate(weights) if w > 0}
        draws = sampler.sample_many(50, rng)
        assert set(draws) <= positive


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
