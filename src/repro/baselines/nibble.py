"""Nibble: truncated lazy random walk local clustering (Spielman & Teng).

The first local clustering algorithm: starting from the indicator vector of
the seed, repeatedly apply the lazy random-walk operator
``W = (I + D^{-1} A) / 2``, truncate entries whose degree-normalized value
falls below a threshold (this is what keeps the work local), and sweep the
distribution after each step, keeping the best cut seen.  Each step is one
array scatter over the support's adjacency rows.  An isolated node has no
walk to take, so it keeps all of its mass.

Included as a related-work baseline; the paper's lineage starts here.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.common import BaselineClusteringResult
from repro.clustering.sweep import SweepResult, sweep_cut
from repro.exceptions import ParameterError
from repro.graph.graph import Graph, neighbor_rows
from repro.hkpr.result import HKPRResult
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.sparsevec import SparseVector


def lazy_walk_step(
    graph: Graph,
    distribution: SparseVector,
    truncation: float,
    *,
    deadline: Deadline | None = None,
) -> tuple[SparseVector, int]:
    """One truncated lazy-walk step ``q <- trunc(q W)``; returns (q', work).

    Applies ``W = (I + D^{-1} A) / 2`` to ``distribution`` and zeroes
    entries whose degree-normalized value falls below ``truncation`` (unless
    that would empty the vector, in which case the un-truncated update is
    kept).  An isolated node keeps all of its mass.  Shared by
    :func:`nibble` and :func:`nibble_hkpr`.  An optional ``deadline`` is
    checked once per step with the support's total degree as the cost.
    """
    nodes, mass = distribution.arrays()
    degrees = graph.degrees[nodes]
    if deadline is not None:
        deadline.check(max(int(degrees.sum()), 1))
    linked = degrees > 0
    counts = degrees[linked]
    targets = neighbor_rows(graph, nodes[linked], counts)
    shares = np.repeat(mass[linked] / (2.0 * counts), counts)
    updated = SparseVector()
    updated.add_many(
        np.concatenate((nodes, targets)),
        np.concatenate((np.where(linked, mass / 2.0, mass), shares)),
    )
    # Truncate small degree-normalized entries to keep the support local.
    nodes, mass = updated.arrays()
    kept = mass / np.maximum(graph.degrees[nodes], 1) >= truncation
    if kept.any() and not kept.all():
        updated = SparseVector()
        updated.add_many(nodes[kept], mass[kept])
    return updated, int(targets.size)


def nibble(
    graph: Graph,
    seed: int,
    *,
    steps: int = 20,
    truncation: float = 1e-5,
) -> BaselineClusteringResult:
    """Local clustering with truncated lazy random walks.

    Parameters
    ----------
    steps:
        Number of lazy-walk steps to simulate.
    truncation:
        Entries with ``q[v]/d(v)`` below this threshold are zeroed after
        every step, bounding the support (and hence the work).
    """
    if not graph.has_node(seed):
        raise ParameterError(f"seed node {seed} is not in the graph")
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps}")
    if truncation < 0:
        raise ParameterError(f"truncation must be non-negative, got {truncation}")

    start = time.perf_counter()
    distribution = SparseVector({seed: 1.0})
    best_sweep: SweepResult | None = None
    work = 0

    for _ in range(steps):
        distribution, step_work = lazy_walk_step(graph, distribution, truncation)
        work += step_work
        sweep = sweep_cut(
            graph, HKPRResult(estimates=distribution, seed=seed, method="nibble")
        )
        if best_sweep is None or sweep.conductance < best_sweep.conductance:
            best_sweep = sweep

    elapsed = time.perf_counter() - start
    assert best_sweep is not None  # steps >= 1 guarantees at least one sweep
    return BaselineClusteringResult(
        cluster=set(best_sweep.cluster),
        conductance=best_sweep.conductance,
        seed=seed,
        method="nibble",
        elapsed_seconds=elapsed,
        work=work,
        details={"support_size": float(distribution.nnz())},
    )


def nibble_hkpr(
    graph: Graph,
    seed_node: int,
    *,
    steps: int = 20,
    truncation: float = 1e-5,
    deadline: Deadline | None = None,
) -> HKPRResult:
    """Nibble's diffusion vector in the unified estimator envelope.

    Runs ``steps`` truncated lazy-walk steps and returns the *final*
    distribution as an :class:`HKPRResult`, so the registry, the sweep cut
    and the serving layer can treat Nibble like any other diffusion
    estimator.  Note the difference from :func:`nibble`, which sweeps after
    *every* step and keeps the best cut seen — sweeping this vector
    reproduces only the final step's cut.
    """
    if not graph.has_node(seed_node):
        raise ParameterError(f"seed node {seed_node} is not in the graph")
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps}")
    if truncation < 0:
        raise ParameterError(f"truncation must be non-negative, got {truncation}")
    start = time.perf_counter()
    distribution = SparseVector({seed_node: 1.0})
    counters = OperationCounters()
    if deadline is not None:
        deadline.bind(counters)
    for _ in range(steps):
        distribution, work = lazy_walk_step(
            graph, distribution, truncation, deadline=deadline
        )
        counters.record_pushes(work)
    counters.extras["steps"] = float(steps)
    counters.reserve_entries = distribution.nnz()
    return HKPRResult(
        estimates=distribution,
        seed=seed_node,
        method="nibble",
        counters=counters,
        elapsed_seconds=time.perf_counter() - start,
    )
