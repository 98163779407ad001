"""Tests for the Poisson hop-weight tables (eta, psi)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import PoissonWeights, cached_weights


class TestEtaPsi:
    def test_eta_matches_closed_form(self):
        weights = PoissonWeights(5.0)
        for k in range(15):
            expected = math.exp(-5.0) * 5.0**k / math.factorial(k)
            assert weights.eta(k) == pytest.approx(expected, rel=1e-10)

    def test_eta_sums_to_one(self):
        weights = PoissonWeights(5.0)
        total = sum(weights.eta(k) for k in range(weights.max_hop + 1))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_psi_zero_is_one(self):
        weights = PoissonWeights(3.0)
        assert weights.psi(0) == pytest.approx(1.0, abs=1e-9)

    def test_psi_is_tail_of_eta(self):
        weights = PoissonWeights(4.0)
        for k in range(10):
            tail = sum(weights.eta(j) for j in range(k, weights.max_hop + 1))
            assert weights.psi(k) == pytest.approx(tail, rel=1e-9)

    def test_psi_monotone_decreasing(self):
        weights = PoissonWeights(5.0)
        values = [weights.psi(k) for k in range(weights.max_hop + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_beyond_truncation_zero(self):
        weights = PoissonWeights(2.0)
        assert weights.eta(weights.max_hop + 5) == 0.0
        assert weights.psi(weights.max_hop + 5) == 0.0

    def test_negative_hop_rejected(self):
        weights = PoissonWeights(2.0)
        with pytest.raises(ParameterError):
            weights.eta(-1)
        with pytest.raises(ParameterError):
            weights.psi(-1)
        with pytest.raises(ParameterError):
            weights.stop_probability(-2)

    def test_large_t_numerically_stable(self):
        weights = PoissonWeights(40.0)
        total = sum(weights.eta(k) for k in range(weights.max_hop + 1))
        assert total == pytest.approx(1.0, abs=1e-8)
        assert all(np.isfinite(weights.eta(k)) for k in range(weights.max_hop + 1))


class TestHeatConstantRange:
    def test_largest_normal_eta0_keeps_all_mass(self):
        # exp(-708) is still a normal float, so the tables hold all of it.
        weights = PoissonWeights(708.0)
        assert abs(weights.psi(0) - 1.0) < 1e-11

    @pytest.mark.parametrize("t", [709.0, 744.0, 1e6, math.inf, math.nan])
    def test_underflowing_or_non_finite_t_rejected(self, t):
        # Past t ~ 708.4 exp(-t) is subnormal and past ~745.1 it is zero:
        # tables built at t = 744 would hold 78.5% of the mass, at 1e6 none.
        with pytest.raises(ParameterError, match="heat constant t"):
            PoissonWeights(t)
        with pytest.raises(ParameterError, match="heat constant t"):
            HKPRParams(t=t)


class TestStopProbability:
    def test_in_unit_interval(self):
        weights = PoissonWeights(5.0)
        for k in range(weights.max_hop + 2):
            assert 0.0 <= weights.stop_probability(k) <= 1.0

    def test_equals_eta_over_psi(self):
        weights = PoissonWeights(5.0)
        for k in range(10):
            assert weights.stop_probability(k) == pytest.approx(
                weights.eta(k) / weights.psi(k), rel=1e-9
            )

    def test_forced_stop_beyond_truncation(self):
        weights = PoissonWeights(1.0)
        assert weights.stop_probability(weights.max_hop) == 1.0
        assert weights.stop_probability(weights.max_hop + 10) == 1.0

    def test_stop_probability_increases_past_mean(self):
        # After the Poisson mean the per-hop stop probability keeps rising.
        weights = PoissonWeights(5.0)
        values = [weights.stop_probability(k) for k in range(5, weights.max_hop)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestAuxiliary:
    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            PoissonWeights(0.0)
        with pytest.raises(ParameterError):
            PoissonWeights(-2.0)
        with pytest.raises(ParameterError):
            PoissonWeights(5.0, tail_tolerance=0.0)

    def test_eta_array(self):
        weights = PoissonWeights(5.0)
        arr = weights.eta_array(8)
        assert arr.shape == (9,)
        assert arr[0] == pytest.approx(math.exp(-5.0))

    def test_eta_array_beyond_truncation_padded_with_zero(self):
        weights = PoissonWeights(1.0)
        arr = weights.eta_array(weights.max_hop + 3)
        assert arr[-1] == 0.0

    def test_sample_walk_length_distribution(self):
        weights = PoissonWeights(5.0)
        rng = np.random.default_rng(0)
        samples = [weights.sample_walk_length(rng) for _ in range(3000)]
        assert abs(np.mean(samples) - 5.0) < 0.3

    def test_tail_mass_beyond(self):
        weights = PoissonWeights(5.0)
        assert weights.tail_mass_beyond(2) == pytest.approx(weights.psi(3), rel=1e-9)
        assert weights.tail_mass_beyond(weights.max_hop + 1) == 0.0

    def test_cached_weights_shared_per_t(self):
        assert cached_weights(5.0) is cached_weights(5.0)
        assert cached_weights(5.0) is not cached_weights(10.0)
        assert cached_weights(10.0).t == 10.0
