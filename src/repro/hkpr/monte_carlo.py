"""Plain Monte-Carlo HKPR estimation (the baseline described in §3).

Perform ``n_r`` independent random walks from the seed, each with a
Poisson(t)-distributed length, and estimate ``rho_s[v]`` by the fraction of
walks that end at ``v``.  With

    n_r = 2 (1 + eps_r/3) log(n / p_f) / (eps_r^2 delta)

the Chernoff + union bound argument of §3 gives a (d, eps_r, delta)-
approximate vector with probability at least ``1 - p_f``.  The walk count is
the whole story: there is no push phase, which is why the method is simple
but slow (Figure 4).
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.engine import Backend, chunk_sizes, get_backend
from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import cached_weights
from repro.hkpr.result import HKPRResult
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.sparsevec import SparseVector


def monte_carlo_hkpr(
    graph: Graph,
    seed_node: int,
    params: HKPRParams,
    *,
    rng: RandomState = None,
    num_walks: int | None = None,
    backend: str | Backend | None = None,
    deadline: Deadline | None = None,
) -> HKPRResult:
    """Estimate the HKPR vector of ``seed_node`` with pure Monte-Carlo walks.

    Parameters
    ----------
    graph, seed_node, params:
        The query; ``params.t``, ``eps_r``, ``delta`` and ``p_f`` are used.
    rng:
        Seed or generator for reproducibility.
    num_walks:
        Override the theory-driven walk count.  Useful in tests and in
        benchmark configurations where the full count would be impractical
        in pure Python; when overridden the accuracy guarantee is waived.
    backend:
        Execution backend for the walks (name, instance, or ``None`` for
        the process default; see :mod:`repro.engine`).

    Returns
    -------
    HKPRResult
    """
    if not graph.has_node(seed_node):
        raise ParameterError(f"seed node {seed_node} is not in the graph")
    generator = ensure_rng(rng)
    engine = get_backend(backend)
    start = time.perf_counter()
    weights = cached_weights(params.t)

    walks = num_walks if num_walks is not None else int(
        math.ceil(params.omega_monte_carlo(graph))
    )
    if walks < 1:
        raise ParameterError(f"number of walks must be >= 1, got {walks}")

    counters = OperationCounters()
    counters.extras["backend"] = engine.name
    if deadline is not None:
        deadline.bind(counters)
    estimates = SparseVector()
    increment = 1.0 / walks
    # Chunked so the theory-driven walk count stays bounded-memory.
    for batch in chunk_sizes(walks):
        if deadline is not None:
            deadline.checkpoint()
        end_nodes = engine.poisson_walk_batch(
            graph,
            np.full(batch, seed_node, dtype=np.int64),
            weights,
            generator,
            counters=counters,
        )
        estimates.add_many(end_nodes, increment)

    counters.reserve_entries = estimates.nnz()
    elapsed = time.perf_counter() - start
    return HKPRResult(
        estimates=estimates,
        seed=seed_node,
        method="monte-carlo",
        counters=counters,
        elapsed_seconds=elapsed,
    )
