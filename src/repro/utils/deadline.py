"""Cooperative per-query execution deadlines.

Admission control can bound *walk* work up front, but threshold-driven
pushes (``hk-relax`` with a tiny ``eps_a``, ``pr-nibble`` with a tiny
``eps``, ...) do unbounded work that is only known as it happens.  A
:class:`Deadline` is the cooperative half of that contract: estimators call
:meth:`Deadline.check` with the approximate cost of the work unit just
performed, and the deadline trips with
:class:`~repro.exceptions.QueryTimeoutError` once the wall clock passes its
expiry.  The pushes check once per hop or round, with that step's pushed
degree as the cost.

``check()`` is stride-counted: it only reads the clock after roughly
``stride`` units of accumulated cost, so the common case is a single
counter decrement.  Chunked walk loops call :meth:`Deadline.checkpoint`
between kernel calls instead — those chunks are already coarse.

Deadlines never interrupt non-Python code and never discard finished work:
a query that completes before anyone observes the expiry still returns its
result.  The contract is "bounded lateness", with the bound set by the
stride and by the largest single work unit between checks.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

from repro.exceptions import ParameterError, QueryTimeoutError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.utils.counters import OperationCounters

#: Accumulated ``check(cost)`` units between wall-clock reads.  Pushes
#: pass each step's pushed degree as the cost, so this is roughly "clock
#: read every ~2048 pushes", and at least once per step past that.
DEFAULT_CHECK_STRIDE = 2048


class Deadline:
    """A monotonic-clock deadline with cheap stride-counted checks.

    Parameters
    ----------
    timeout_ms:
        Wall-clock budget in milliseconds, measured from construction.
    stride:
        How many units of ``check(cost)`` cost to accumulate between
        actual clock reads.  ``1`` checks the clock every call (useful in
        tests); the default keeps hot-loop overhead negligible.
    clock:
        Clock function returning seconds; injectable for deterministic
        unit tests.  Defaults to :func:`time.monotonic`.
    """

    __slots__ = ("timeout_ms", "stride", "_clock", "_started", "_expires_at", "_credit", "_counters")

    def __init__(
        self,
        timeout_ms: float,
        *,
        stride: int = DEFAULT_CHECK_STRIDE,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        timeout_ms = float(timeout_ms)
        if not timeout_ms > 0:
            raise ParameterError(f"timeout_ms must be positive, got {timeout_ms!r}")
        if stride < 1:
            raise ParameterError(f"stride must be >= 1, got {stride!r}")
        self.timeout_ms = timeout_ms
        self.stride = int(stride)
        self._clock = clock
        self._started = clock()
        self._expires_at = self._started + timeout_ms / 1000.0
        self._credit = self.stride
        self._counters: OperationCounters | None = None

    @property
    def expires_at(self) -> float:
        """Absolute expiry on this deadline's clock (seconds)."""
        return self._expires_at

    def bind(self, counters: "OperationCounters") -> "Deadline":
        """Attach the counters that should receive partial-work accounting.

        When the deadline trips, ``counters.extras["deadline_hit"]`` is set
        to ``1.0`` and the counters ride along on the raised
        :class:`QueryTimeoutError`.  Returns ``self`` for chaining; the
        last bind wins, which is what nested estimators (``tea`` calling
        ``hk_push``) want since they share one counters object anyway.
        """
        self._counters = counters
        return self

    def elapsed_ms(self) -> float:
        """Milliseconds since this deadline was created."""
        return (self._clock() - self._started) * 1000.0

    def remaining_seconds(self) -> float:
        """Seconds until expiry; negative once expired."""
        return self._expires_at - self._clock()

    def expired(self) -> bool:
        """Read the clock and report whether the deadline has passed."""
        return self._clock() >= self._expires_at

    def check(self, cost: int = 1) -> None:
        """Record ``cost`` units of work; trip if the deadline has passed.

        Only reads the clock once per ~``stride`` accumulated units, so
        calling this once per push step (with the step's pushed degree as
        the cost) costs next to nothing, and the overshoot is bounded by
        one step's work.
        """
        self._credit -= cost if cost > 0 else 1
        if self._credit <= 0:
            self._credit = self.stride
            self.checkpoint()

    def checkpoint(self) -> None:
        """Read the clock unconditionally; trip if the deadline has passed.

        Use between coarse work units (walk chunks, fused kernel calls)
        where the stride bookkeeping of :meth:`check` adds nothing.
        """
        now = self._clock()
        if now >= self._expires_at:
            self._trip(now)

    def _trip(self, now: float) -> None:
        if self._counters is not None:
            self._counters.extras["deadline_hit"] = 1.0
        raise QueryTimeoutError(
            self.timeout_ms,
            (now - self._started) * 1000.0,
            counters=self._counters,
        )
