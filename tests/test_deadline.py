"""Tests for cooperative query deadlines (:mod:`repro.utils.deadline`).

The Deadline primitive itself is exercised against an injectable fake
clock (fully deterministic); the estimator integration tests hand each
push/walk loop an already-expired deadline with ``stride=1`` and assert
the loop trips promptly with partial-work accounting.
"""

from __future__ import annotations

import pytest

from repro.baselines.nibble import nibble_hkpr
from repro.baselines.pr_nibble import pr_nibble_hkpr
from repro.exceptions import ParameterError, QueryTimeoutError
from repro.hkpr.cluster_hkpr import cluster_hkpr
from repro.hkpr.exact import exact_hkpr
from repro.hkpr.hk_push import hk_push_hkpr
from repro.hkpr.hk_push_plus import hk_push_plus_hkpr
from repro.hkpr.hk_relax import hk_relax
from repro.hkpr.monte_carlo import monte_carlo_hkpr
from repro.hkpr.tea import tea
from repro.hkpr.tea_plus import tea_plus
from repro.ppr.exact import exact_ppr
from repro.ppr.fora import fora, monte_carlo_ppr
from repro.utils import DEFAULT_CHECK_STRIDE, Deadline
from repro.utils.counters import OperationCounters


class FakeClock:
    """A manually-advanced monotonic clock for deterministic deadline tests."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def expired_deadline() -> Deadline:
    """A deadline guaranteed to trip on its first clock read."""
    clock = FakeClock()
    deadline = Deadline(10.0, stride=1, clock=clock)
    clock.advance(1.0)  # 1 s past a 10 ms budget
    return deadline


class TestDeadline:
    def test_validation(self):
        with pytest.raises(ParameterError, match="timeout_ms must be positive"):
            Deadline(0)
        with pytest.raises(ParameterError, match="timeout_ms must be positive"):
            Deadline(-5)
        with pytest.raises(ParameterError, match="stride must be >= 1"):
            Deadline(100, stride=0)

    def test_does_not_trip_before_expiry(self):
        clock = FakeClock()
        deadline = Deadline(100.0, stride=1, clock=clock)
        for _ in range(50):
            deadline.check()
        clock.advance(0.099)
        deadline.check()
        deadline.checkpoint()
        assert not deadline.expired()
        assert deadline.remaining_seconds() == pytest.approx(0.001)

    def test_checkpoint_trips_at_expiry(self):
        clock = FakeClock()
        deadline = Deadline(100.0, clock=clock)
        clock.advance(0.1)  # exactly at expiry
        with pytest.raises(QueryTimeoutError) as excinfo:
            deadline.checkpoint()
        assert excinfo.value.timeout_ms == 100.0
        assert excinfo.value.elapsed_ms == pytest.approx(100.0)
        assert "100 ms deadline" in str(excinfo.value)

    def test_check_is_stride_counted(self):
        clock = FakeClock()
        deadline = Deadline(10.0, stride=100, clock=clock)
        clock.advance(1.0)  # already expired, but credit not yet drained
        for _ in range(99):
            deadline.check()  # 99 units: below the stride, no clock read
        with pytest.raises(QueryTimeoutError):
            deadline.check()  # 100th unit drains the credit

    def test_check_cost_weights_the_stride(self):
        clock = FakeClock()
        deadline = Deadline(10.0, stride=100, clock=clock)
        clock.advance(1.0)
        with pytest.raises(QueryTimeoutError):
            deadline.check(cost=100)  # one high-degree node drains at once

    def test_nonpositive_cost_still_makes_progress(self):
        clock = FakeClock()
        deadline = Deadline(10.0, stride=2, clock=clock)
        clock.advance(1.0)
        deadline.check(cost=0)
        with pytest.raises(QueryTimeoutError):
            deadline.check(cost=-5)  # counted as 1 unit each, never stalls

    def test_bound_counters_receive_partial_work_marker(self):
        counters = OperationCounters()
        deadline = expired_deadline().bind(counters)
        with pytest.raises(QueryTimeoutError) as excinfo:
            deadline.checkpoint()
        assert counters.extras["deadline_hit"] == 1.0
        assert excinfo.value.counters is counters

    def test_elapsed_and_default_stride(self):
        clock = FakeClock(5.0)
        deadline = Deadline(1000.0, clock=clock)
        assert deadline.stride == DEFAULT_CHECK_STRIDE
        clock.advance(0.25)
        assert deadline.elapsed_ms() == pytest.approx(250.0)
        assert deadline.expires_at == pytest.approx(6.0)


class TestEstimatorDeadlines:
    """Every unbounded loop trips an already-expired deadline promptly."""

    def _assert_trips(self, excinfo):
        error = excinfo.value
        assert error.timeout_ms == 10.0
        assert error.counters is not None
        assert error.counters.extras["deadline_hit"] == 1.0

    def test_hk_relax(self, tiny_grid, default_params):
        with pytest.raises(QueryTimeoutError) as excinfo:
            hk_relax(tiny_grid, 0, default_params, deadline=expired_deadline())
        self._assert_trips(excinfo)

    def test_hk_push(self, tiny_grid, default_params):
        with pytest.raises(QueryTimeoutError) as excinfo:
            hk_push_hkpr(tiny_grid, 0, default_params, deadline=expired_deadline())
        self._assert_trips(excinfo)

    def test_hk_push_plus(self, tiny_grid, default_params):
        with pytest.raises(QueryTimeoutError) as excinfo:
            hk_push_plus_hkpr(
                tiny_grid, 0, default_params, deadline=expired_deadline()
            )
        self._assert_trips(excinfo)

    def test_tea(self, tiny_grid, default_params):
        with pytest.raises(QueryTimeoutError) as excinfo:
            tea(tiny_grid, 0, default_params, rng=3, deadline=expired_deadline())
        self._assert_trips(excinfo)

    def test_tea_plus(self, tiny_grid, default_params):
        with pytest.raises(QueryTimeoutError) as excinfo:
            tea_plus(
                tiny_grid, 0, default_params, rng=3, deadline=expired_deadline()
            )
        self._assert_trips(excinfo)

    def test_monte_carlo_walk_phase(self, tiny_grid, default_params):
        with pytest.raises(QueryTimeoutError) as excinfo:
            monte_carlo_hkpr(
                tiny_grid, 0, default_params, rng=3, num_walks=100,
                deadline=expired_deadline(),
            )
        self._assert_trips(excinfo)

    def test_cluster_hkpr_walk_phase(self, tiny_grid, default_params):
        with pytest.raises(QueryTimeoutError) as excinfo:
            cluster_hkpr(
                tiny_grid, 0, default_params, rng=3, num_walks=100,
                deadline=expired_deadline(),
            )
        self._assert_trips(excinfo)

    def test_nibble(self, tiny_grid):
        with pytest.raises(QueryTimeoutError) as excinfo:
            nibble_hkpr(tiny_grid, 0, steps=5, deadline=expired_deadline())
        self._assert_trips(excinfo)

    def test_pr_nibble(self, tiny_grid):
        with pytest.raises(QueryTimeoutError) as excinfo:
            pr_nibble_hkpr(tiny_grid, 0, eps=1e-6, deadline=expired_deadline())
        self._assert_trips(excinfo)

    def test_fora_push_phase(self, tiny_grid):
        with pytest.raises(QueryTimeoutError) as excinfo:
            fora(tiny_grid, 0, rng=3, max_walks=100, deadline=expired_deadline())
        self._assert_trips(excinfo)

    def test_mc_ppr_walk_phase(self, tiny_grid):
        with pytest.raises(QueryTimeoutError) as excinfo:
            monte_carlo_ppr(
                tiny_grid, 0, rng=3, num_walks=100, deadline=expired_deadline()
            )
        self._assert_trips(excinfo)

    def test_exact_hkpr_taylor_terms(self, tiny_grid, default_params):
        with pytest.raises(QueryTimeoutError) as excinfo:
            exact_hkpr(tiny_grid, 0, default_params, deadline=expired_deadline())
        self._assert_trips(excinfo)

    def test_exact_ppr_iterations(self, tiny_grid):
        with pytest.raises(QueryTimeoutError) as excinfo:
            exact_ppr(tiny_grid, 0, deadline=expired_deadline())
        self._assert_trips(excinfo)

    def test_generous_deadline_leaves_results_byte_identical(
        self, tiny_grid, default_params
    ):
        """Deadline checks are pure clock reads: with a deadline that never
        trips, every estimate matches the undeadlined run exactly."""
        bounded = hk_relax(
            tiny_grid, 0, default_params, deadline=Deadline(3_600_000.0)
        )
        unbounded = hk_relax(tiny_grid, 0, default_params)
        assert bounded.estimates.to_dict() == unbounded.estimates.to_dict()

        bounded = pr_nibble_hkpr(
            tiny_grid, 0, eps=1e-5, deadline=Deadline(3_600_000.0)
        )
        unbounded = pr_nibble_hkpr(tiny_grid, 0, eps=1e-5)
        assert bounded.estimates.to_dict() == unbounded.estimates.to_dict()
        assert (
            bounded.counters.push_operations == unbounded.counters.push_operations
        )

        bounded = tea_plus(
            tiny_grid, 0, default_params, rng=11, deadline=Deadline(3_600_000.0)
        )
        unbounded = tea_plus(tiny_grid, 0, default_params, rng=11)
        assert bounded.estimates.to_dict() == unbounded.estimates.to_dict()

        bounded = exact_hkpr(
            tiny_grid, 0, default_params, deadline=Deadline(3_600_000.0)
        )
        unbounded = exact_hkpr(tiny_grid, 0, default_params)
        assert bounded.estimates.to_dict() == unbounded.estimates.to_dict()

        bounded = exact_ppr(tiny_grid, 0, deadline=Deadline(3_600_000.0))
        unbounded = exact_ppr(tiny_grid, 0)
        assert bounded.estimates.to_dict() == unbounded.estimates.to_dict()


class TestMaxPushesCap:
    def test_hk_relax_cap_is_exact(self, medium_powerlaw, default_params):
        """The cap is enforced mid-neighbor-loop: previously a single
        high-degree node could overshoot ``max_pushes`` by its degree."""
        capped = hk_relax(medium_powerlaw, 0, default_params, max_pushes=100)
        assert capped.counters.push_operations == 100
        assert capped.counters.extras["push_cap_hit"] == 1.0

    def test_cap_not_reported_when_unreached(self, tiny_grid, default_params):
        result = hk_relax(tiny_grid, 0, default_params, max_pushes=10_000_000)
        assert "push_cap_hit" not in result.counters.extras
