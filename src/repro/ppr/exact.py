"""Exact personalized PageRank via power iteration.

PPR with teleport probability ``alpha`` and seed ``s`` is the stationary
vector of the recursion

    pi_s = alpha * e_s + (1 - alpha) * pi_s P,

equivalently ``pi_s[v] = sum_k alpha (1-alpha)^k P^k[s, v]`` — the same
shape as HKPR (Eq. 2) with the Poisson length distribution replaced by a
geometric one.  Power iteration converges geometrically at rate
``1 - alpha``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.exceptions import ConvergenceError, ParameterError
from repro.graph.graph import Graph
from repro.hkpr.result import HKPRResult
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.sparsevec import SparseVector


def exact_ppr(
    graph: Graph,
    seed_node: int,
    *,
    alpha: float = 0.15,
    tolerance: float = 1e-12,
    max_iterations: int = 1000,
    deadline: Deadline | None = None,
) -> HKPRResult:
    """Compute the (numerically) exact PPR vector of ``seed_node``.

    Parameters
    ----------
    alpha:
        Teleport (restart) probability in (0, 1).
    tolerance:
        Stop when the L1 change between iterations falls below this value.
    max_iterations:
        Raise :class:`ConvergenceError` if the tolerance is not reached.
    deadline:
        Optional :class:`~repro.utils.Deadline`, checkpointed once per
        iteration.
    """
    if not graph.has_node(seed_node):
        raise ParameterError(f"seed node {seed_node} is not in the graph")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    start = time.perf_counter()
    counters = OperationCounters()
    if deadline is not None:
        deadline.bind(counters)

    restart = np.zeros(graph.num_nodes, dtype=float)
    restart[seed_node] = 1.0
    current = restart.copy()
    for iteration in range(max_iterations):
        if deadline is not None:
            deadline.checkpoint()
        updated = alpha * restart + (1.0 - alpha) * graph.walk_step(current)
        change = float(np.abs(updated - current).sum())
        current = updated
        if change < tolerance:
            break
    else:
        raise ConvergenceError(
            f"power iteration did not converge within {max_iterations} iterations"
        )

    counters.extras["iterations"] = float(iteration + 1)
    estimates = SparseVector.from_dense(current, tol=1e-15)
    counters.reserve_entries = estimates.nnz()
    return HKPRResult(
        estimates=estimates,
        seed=seed_node,
        method="exact-ppr",
        counters=counters,
        elapsed_seconds=time.perf_counter() - start,
    )
