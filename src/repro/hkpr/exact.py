"""Ground-truth HKPR via the truncated Taylor series / power method.

The paper's ranking-accuracy experiment (§7.5) computes ground-truth
normalized HKPR with "the power method with 40 iterations".  Iterating the
transition matrix and accumulating Poisson-weighted terms,

    rho_s = sum_{k=0}^{K} eta(k) * e_s^T P^k,

is exactly that procedure; we run it until the remaining Poisson tail mass
is below a tolerance (which for t = 5 happens well before 40 terms).
"""

from __future__ import annotations

import time

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import PoissonWeights
from repro.hkpr.result import HKPRResult
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.sparsevec import SparseVector


def exact_hkpr(
    graph: Graph,
    seed_node: int,
    params: HKPRParams,
    *,
    tail_tolerance: float = 1e-12,
    max_iterations: int | None = None,
    deadline: Deadline | None = None,
) -> HKPRResult:
    """Compute the (numerically) exact HKPR vector of ``seed_node``.

    Parameters
    ----------
    graph:
        The input graph.
    seed_node:
        The seed node ``s``.
    params:
        Only ``params.t`` is used.
    tail_tolerance:
        Stop once the un-accumulated Poisson tail mass is below this value.
    max_iterations:
        Optional hard cap on the number of Taylor terms (the paper's
        "40 iterations" corresponds to ``max_iterations=40``).
    deadline:
        Optional :class:`~repro.utils.Deadline`, checkpointed once per
        Taylor term.

    Returns
    -------
    HKPRResult
        Dense-accuracy result stored sparsely (entries below 1e-15 dropped).
    """
    if not graph.has_node(seed_node):
        raise ParameterError(f"seed node {seed_node} is not in the graph")
    start = time.perf_counter()
    counters = OperationCounters()
    if deadline is not None:
        deadline.bind(counters)
    weights = PoissonWeights(params.t, tail_tolerance=min(tail_tolerance, 1e-9))
    current = np.zeros(graph.num_nodes, dtype=float)
    current[seed_node] = 1.0
    accumulated = weights.eta(0) * current

    max_hop = weights.max_hop if max_iterations is None else min(
        weights.max_hop, max_iterations
    )
    for k in range(1, max_hop + 1):
        if deadline is not None:
            deadline.checkpoint()
        # Row-vector iteration: x_{k} = x_{k-1} P (isolated nodes absorbing).
        current = graph.walk_step(current)
        eta_k = weights.eta(k)
        if eta_k == 0.0:
            break
        accumulated += eta_k * current
        if weights.tail_mass_beyond(k) < tail_tolerance:
            break

    elapsed = time.perf_counter() - start
    counters.extras["taylor_terms"] = float(max_hop)
    estimates = SparseVector.from_dense(accumulated, tol=1e-15)
    counters.reserve_entries = estimates.nnz()
    return HKPRResult(
        estimates=estimates,
        seed=seed_node,
        method="exact",
        counters=counters,
        elapsed_seconds=elapsed,
    )


def exact_hkpr_dense(graph: Graph, seed_node: int, t: float, *, tol: float = 1e-12) -> np.ndarray:
    """Convenience wrapper returning the exact HKPR vector as a dense array."""
    params = HKPRParams(t=t, eps_r=0.5, delta=0.5, p_f=0.5)
    result = exact_hkpr(graph, seed_node, params, tail_tolerance=tol)
    return result.to_dense(graph)
