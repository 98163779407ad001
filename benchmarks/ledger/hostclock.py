"""Host clock: the benchmark's times in reference milliseconds.

The benchmark runs on a few cores of a shared host whose speed drifts as
neighbours come and go, from one second to the next and over minutes.
Pure-Python interpreter work feels it most: one TEA+ query took 190 ms in
one five-second stretch and 300 ms in the next, and its CPU time moved just
as much.  Such work is therefore timed against a host clock, a fixed
reference computation run right next to it.  A host factor is a reference
unit's time now over its time on the reference host; a time in reference
milliseconds is a wall or CPU time divided by the factor read around it.  A
change to the program moves such a time; a change in the host's speed
mostly does not.

There are two reference units, both on a random power-law graph the
benchmark builds itself, and neither ever changes with the program:

* the interpreter unit, a pure-Python push: dict, set and deque traffic
  over CSR arrays, the same kind of work as the program's push.  It times
  the library workload and every set-up;
* the array unit, numpy random walks: gathers over the CSR arrays and a
  visit count, the same kind of work as the walk kernels.  The serving
  workloads spend their CPU time in such kernels and service threads,
  which the drift moves far less than it moves the interpreter unit but
  about as much as the array unit; a :class:`Ticker` reads it on its own
  thread while their window runs.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

REFERENCE_NODES = 50_000
REFERENCE_SEED = 20190630
#: Push rounds in one interpreter unit, always from the same node.
UNIT_ROUNDS = 70
#: Walks, steps per walk and batches in one array unit, from a fixed draw.
ARRAY_WALKS = 1000
ARRAY_STEPS = 5
ARRAY_BATCHES = 6
#: The units' times on the reference host: a typical stretch of the shared
#: 2-vCPU host whose drift this corrects, so that reference milliseconds
#: are close to its wall ones.
NOMINAL_UNIT_MS = 12.0
NOMINAL_ARRAY_MS = 1.7
WARMUP_UNITS = 3
#: Seconds between two readings of a :class:`Ticker`.
TICK_SECONDS = 0.25


def reference_graph() -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays of the reference graph: Chung-Lu style, Pareto weights."""
    rng = np.random.default_rng(REFERENCE_SEED)
    weights = np.minimum((rng.pareto(1.5, REFERENCE_NODES) + 1.0) * 3.0, 300.0)
    p = weights / weights.sum()
    half = int(weights.sum())
    source = rng.choice(REFERENCE_NODES, half, p=p)
    target = rng.choice(REFERENCE_NODES, half, p=p)
    rows = np.concatenate([source, target])
    cols = np.concatenate([target, source])
    order = np.lexsort((cols, rows))
    counts = np.bincount(rows, minlength=REFERENCE_NODES)
    return np.concatenate([[0], np.cumsum(counts)]), cols[order]


class HostClock:
    """Reads the host factors; keeps every interpreter reading for the record."""

    def __init__(self) -> None:
        self._indptr, self._indices = reference_graph()
        self._degrees = np.diff(self._indptr)
        self._live = np.flatnonzero(self._degrees > 0)
        self._seed = int(self._live[0])
        self.readings: list[float] = []
        for _ in range(WARMUP_UNITS):
            self._unit()
            self._array_unit()

    def _unit(self) -> int:
        indptr, indices, degrees = self._indptr, self._indices, self._degrees
        residue = {self._seed: 1.0}
        reserve: dict[int, float] = {}
        frontier = deque([self._seed])
        queued = {self._seed}
        rounds = UNIT_ROUNDS
        while frontier and rounds:
            node = frontier.popleft()
            queued.discard(node)
            mass = residue.pop(node, 0.0)
            reserve[node] = reserve.get(node, 0.0) + 0.5 * mass
            share = 0.5 * mass / int(degrees[node])
            for neighbor in indices[indptr[node]:indptr[node + 1]]:
                neighbor = int(neighbor)
                value = residue.get(neighbor, 0.0) + share
                residue[neighbor] = value
                if value > 1e-9 * degrees[neighbor] and neighbor not in queued:
                    frontier.append(neighbor)
                    queued.add(neighbor)
            rounds -= 1
        return len(reserve)

    def _array_unit(self) -> int:
        indptr, indices, degrees = self._indptr, self._indices, self._degrees
        rng = np.random.default_rng(REFERENCE_SEED)
        busiest = 0
        for _ in range(ARRAY_BATCHES):
            position = self._live[rng.integers(0, self._live.size, ARRAY_WALKS)]
            for _ in range(ARRAY_STEPS):
                offset = (rng.random(position.size) * degrees[position]).astype(np.int64)
                position = indices[indptr[position] + offset]
            busiest = max(busiest, int(np.bincount(position, minlength=degrees.size).max()))
        return busiest

    def read(self) -> float:
        """The interpreter factor now: one unit's wall time over ``NOMINAL_UNIT_MS``."""
        started = time.perf_counter()
        self._unit()
        factor = (time.perf_counter() - started) * 1000.0 / NOMINAL_UNIT_MS
        self.readings.append(factor)
        return factor

    def read_array(self) -> float:
        """The array factor now: one array unit's CPU time (this thread's)
        over ``NOMINAL_ARRAY_MS``."""
        started = time.thread_time()
        self._array_unit()
        return (time.thread_time() - started) * 1000.0 / NOMINAL_ARRAY_MS


class Ticker:
    """Reads the array factor every ``TICK_SECONDS`` on its own thread
    while a measured window runs (``with Ticker(clock) as ticker: ...``).

    ``factor`` is the mean reading and ``cpu_seconds`` the CPU time the
    thread spent, which a workload subtracts from its process's CPU time.
    """

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.factors: list[float] = []
        self.cpu_seconds = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-clock", daemon=True)

    def _run(self) -> None:
        started = time.thread_time()
        self.factors.append(self.clock.read_array())
        while not self._stop.wait(TICK_SECONDS):
            self.factors.append(self.clock.read_array())
        self.cpu_seconds = time.thread_time() - started

    def __enter__(self) -> Ticker:
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def factor(self) -> float:
        return float(np.mean(self.factors))


def between(readings: list[float]) -> list[float]:
    """The factor of the work done between consecutive readings: their mean."""
    return [(before + after) / 2.0 for before, after in zip(readings, readings[1:])]
