"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import os
import resource
import time

import numpy as np

from hostclock import between


def pct(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 for no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def median_setup(build, repeats: int, clock, discard=None):
    """Call ``build()`` ``repeats`` times and return the last result with the
    median time of one call in reference seconds (``clock``, a
    :class:`hostclock.HostClock`, is read before the first call and after
    each).  ``discard`` releases each earlier result before the next call
    starts (a server that holds a port)."""
    times, result = [], None
    readings = [clock.read()]
    for attempt in range(repeats):
        if attempt and discard is not None:
            discard(result)
        started = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - started)
        readings.append(clock.read())
    return result, pct([t / factor for t, factor in zip(times, between(readings))], 50)


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size in MB: ``VmHWM`` of ``pid``, or of this process."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int | None = None) -> float:
    """CPU time (user + system, all threads) of ``pid`` or of this process."""
    if pid is None:
        return time.process_time()
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 of /proc/<pid>/stat (utime, stime); index 0 here is field 3.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
