"""The micro-batcher: collect concurrent requests, dispatch them as one batch.

One dispatch thread owns the request queue.  Each cycle it blocks for the
first pending request, drains whatever else is already queued, up to
``max_batch``, and dispatches at once.  A batch is what arrived while the
previous one ran: the natural concurrency of the workload.  No request
waits for stragglers, so a lone request pays no collection delay.

The batcher is policy-free: what a "batch execution" means is injected by
:class:`repro.service.service.QueryService` (walk fusion, finalizing,
cache fills, request counts).  Its cycle tallies (:meth:`MicroBatcher.stats`)
are the service's only batch counts.  Backpressure is a bounded queue —
``submit`` raises :class:`~repro.exceptions.ServiceOverloadedError` instead
of blocking, so overload surfaces to clients immediately rather than as
unbounded latency.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable

from repro.exceptions import ParameterError, ServiceOverloadedError

#: Default cap on requests fused into one dispatch cycle.
DEFAULT_MAX_BATCH = 32
#: Default bound on queued (admitted but not yet dispatched) requests.
DEFAULT_MAX_PENDING = 1024


class MicroBatcher:
    """A bounded request queue drained in batches by one dispatch thread."""

    def __init__(
        self,
        execute_batch: Callable[[list[Any]], None],
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_pending: int = DEFAULT_MAX_PENDING,
        on_drop: Callable[[Any], None] | None = None,
    ) -> None:
        if max_batch < 1:
            raise ParameterError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending < 1:
            raise ParameterError(f"max_pending must be >= 1, got {max_pending}")
        self._execute_batch = execute_batch
        self._max_batch = max_batch
        self._on_drop = on_drop
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=max_pending)
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        # Collection-cycle accounting (how batches actually form).
        self._stats_lock = threading.Lock()
        self._cycles = 0
        self._collected = 0
        self._full_batches = 0

    @property
    def max_batch(self) -> int:
        """Requests fused into one dispatch cycle, at most."""
        return self._max_batch

    def start(self) -> None:
        """Start the dispatch thread (idempotent)."""
        with self._lock:
            if self._thread is not None:
                return
            self._stop_event.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-service-batcher", daemon=True
            )
            self._thread.start()

    def stop(self, *, timeout: float = 5.0) -> None:
        """Stop the dispatch thread and drop still-queued requests.

        Dropped requests are handed to ``on_drop`` (the service fails their
        futures) so no client blocks forever across a shutdown.
        """
        with self._lock:
            thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop_event.set()
        thread.join(timeout=timeout)
        self._drop_queued()

    def _drop_queued(self) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if self._on_drop is not None:
                self._on_drop(item)

    def submit(self, item: Any) -> None:
        """Enqueue one admitted request; raise when the queue is full."""
        if self._stop_event.is_set() or self._thread is None:
            raise ServiceOverloadedError("service is not running")
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            raise ServiceOverloadedError(
                f"request queue is full ({self._queue.maxsize} pending)"
            ) from None
        if self._stop_event.is_set():
            # stop() may have set the flag and drained between our check and
            # the put; re-drain so this item is dropped (failing its future
            # via on_drop) instead of stranding it in a dead queue.
            self._drop_queued()

    def pending(self) -> int:
        """Approximate number of queued requests."""
        return self._queue.qsize()

    def stats(self) -> dict:
        """Collection-cycle accounting: cycles, requests collected, and
        cycles that filled ``max_batch``."""
        with self._stats_lock:
            return {
                "cycles": self._cycles,
                "collected": self._collected,
                "full_batches": self._full_batches,
            }

    def _collect(self) -> list[Any]:
        """One cycle's batch: block for the first item, drain the queue."""
        try:
            first = self._queue.get(timeout=0.05)
        except queue.Empty:
            return []
        batch = [first]
        while len(batch) < self._max_batch:
            try:
                batch.append(self._queue.get_nowait())
            except queue.Empty:
                break
        with self._stats_lock:
            self._cycles += 1
            self._collected += len(batch)
            if len(batch) >= self._max_batch:
                self._full_batches += 1
        return batch

    def _loop(self) -> None:
        while not self._stop_event.is_set():
            batch = self._collect()
            if not batch:
                continue
            try:
                self._execute_batch(batch)
            except Exception:  # noqa: BLE001 - the dispatch thread must survive
                # Per-request errors are handled inside execute_batch (each
                # future gets an exception); anything escaping to here is a
                # bug in the executor, and dying would hang every future
                # client.  Stay alive; the batch's own futures were either
                # resolved already or will time out.
                continue
