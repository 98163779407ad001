"""Tests for HK-Push (Algorithm 1), including the Lemma-1 invariant."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.graph.generators import complete_graph, ring_graph, star_graph
from repro.hkpr.exact import exact_hkpr_dense
from repro.hkpr.hk_push import hk_push
from repro.hkpr.poisson import PoissonWeights
from repro.utils.counters import OperationCounters


def invariant_gap(graph, seed, outcome, t):
    """Evaluate Lemma 1: rho_s = q_s + sum_k sum_u r_k[u] * h_u^(k).

    Returns the maximum absolute violation over all nodes, using the exact
    HKPR vectors of every residue-carrying node to evaluate h_u^(k) exactly:
    h_u^(k)[v] = sum_l eta(k+l)/psi(k) P^l[u,v], which equals the HKPR vector
    of u computed with the *shifted* Poisson weights.  We evaluate it by
    brute force with the transition matrix.
    """
    weights = PoissonWeights(t)
    transition = graph.transition_matrix().toarray()
    n = graph.num_nodes

    reconstructed = outcome.reserve.to_dense(n).copy()
    hops, nodes, values = outcome.residues.entry_arrays()
    for hop, node, residue in zip(hops.tolist(), nodes.tolist(), values.tolist()):
        # h_u^(k) = sum_{l>=0} eta(k+l)/psi(k) * P^l[u, .]
        current = np.zeros(n)
        current[node] = 1.0
        h = np.zeros(n)
        for ell in range(weights.max_hop - hop + 1):
            h += weights.eta(hop + ell) / weights.psi(hop) * current
            current = current @ transition
        reconstructed += residue * h

    exact = exact_hkpr_dense(graph, seed, t)
    return float(np.max(np.abs(reconstructed - exact)))


class TestHKPush:
    def test_invalid_inputs(self, weights_t5, small_ring):
        with pytest.raises(ParameterError):
            hk_push(small_ring, 99, 0.01, weights_t5)
        with pytest.raises(ParameterError):
            hk_push(small_ring, 0, 0.0, weights_t5)

    def test_no_push_when_threshold_large(self, weights_t5, small_ring):
        outcome = hk_push(small_ring, 0, r_max=10.0, weights=weights_t5)
        assert outcome.reserve.nnz() == 0
        assert outcome.residues.get(0, 0) == pytest.approx(1.0)
        assert outcome.counters.push_operations == 0

    def test_reserve_plus_residue_mass_is_one(self, weights_t5, small_ring):
        outcome = hk_push(small_ring, 0, r_max=1e-3, weights=weights_t5)
        total = outcome.reserve.sum() + outcome.residues.total()
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_all_values_non_negative(self, weights_t5, medium_powerlaw):
        outcome = hk_push(medium_powerlaw, 0, r_max=1e-3, weights=weights_t5)
        assert all(v >= 0 for v in outcome.reserve.values())
        assert (outcome.residues.entry_arrays()[2] >= 0).all()

    def test_residues_below_threshold_after_termination(self, weights_t5, small_ring):
        r_max = 1e-3
        outcome = hk_push(small_ring, 0, r_max=r_max, weights=weights_t5)
        _, nodes, values = outcome.residues.entry_arrays()
        for node, value in zip(nodes.tolist(), values.tolist()):
            assert value <= r_max * small_ring.degree(node) + 1e-12

    def test_reserve_lower_bounds_exact(self, weights_t5, small_ring, default_params):
        outcome = hk_push(small_ring, 0, r_max=1e-4, weights=weights_t5)
        exact = exact_hkpr_dense(small_ring, 0, default_params.t)
        reserve = outcome.reserve.to_dense(small_ring.num_nodes)
        assert np.all(reserve <= exact + 1e-9)

    def test_smaller_rmax_means_more_pushes_and_less_residue(self, weights_t5, small_ring):
        coarse = hk_push(small_ring, 0, r_max=1e-2, weights=weights_t5)
        fine = hk_push(small_ring, 0, r_max=1e-4, weights=weights_t5)
        assert fine.counters.push_operations >= coarse.counters.push_operations
        assert fine.residues.total() <= coarse.residues.total() + 1e-12

    def test_push_count_bounded_by_inverse_rmax(self, weights_t5, medium_powerlaw):
        """Lemma 3: the number of pushes is O(1 / r_max)."""
        r_max = 5e-3
        outcome = hk_push(medium_powerlaw, 0, r_max=r_max, weights=weights_t5)
        assert outcome.counters.push_operations <= 1.0 / r_max + medium_powerlaw.num_nodes

    def test_lemma1_invariant_ring(self, weights_t5):
        graph = ring_graph(8)
        outcome = hk_push(graph, 0, r_max=5e-3, weights=weights_t5)
        assert invariant_gap(graph, 0, outcome, weights_t5.t) < 1e-6

    def test_lemma1_invariant_star(self, weights_t5):
        graph = star_graph(7)
        outcome = hk_push(graph, 0, r_max=2e-2, weights=weights_t5)
        assert invariant_gap(graph, 0, outcome, weights_t5.t) < 1e-6

    def test_lemma1_invariant_complete(self, weights_t5):
        graph = complete_graph(6)
        outcome = hk_push(graph, 2, r_max=1e-3, weights=weights_t5)
        assert invariant_gap(graph, 2, outcome, weights_t5.t) < 1e-6

    def test_max_hop_property(self, weights_t5, small_ring):
        outcome = hk_push(small_ring, 0, r_max=1e-3, weights=weights_t5)
        assert outcome.max_hop == outcome.residues.max_nonzero_hop()

    def test_counters_passed_in_are_used(self, weights_t5, small_ring):
        counters = OperationCounters()
        outcome = hk_push(small_ring, 0, 1e-3, weights_t5, counters=counters)
        assert outcome.counters is counters
        assert counters.push_operations > 0
