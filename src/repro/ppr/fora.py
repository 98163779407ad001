"""FORA-style personalized PageRank estimation (Wang et al., KDD 2017).

FORA is the PPR algorithm TEA generalizes (§6): run the forward push until
the residues are small, then cover the remaining mass

    pi_s[v] - p[v] = sum_u r[u] * pi_u[v]

with geometric-length random walks whose starting nodes are sampled
proportionally to the residues.  Because PPR walks are memoryless, a single
residue vector suffices and each walk simply restarts with probability
``alpha`` at every step — no hop bookkeeping is needed, unlike
:func:`repro.hkpr.tea.tea`.

Implemented here so the HKPR-vs-PPR comparison the paper draws analytically
can also be made empirically on the same substrate.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.engine import Backend, chunk_sizes, get_backend, restart_chunk
from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.alias import AliasSampler
from repro.hkpr.params import checked_walk_ratio, default_delta
from repro.hkpr.result import HKPRResult
from repro.ppr.push import forward_push
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.sparsevec import SparseVector


def walk_count(graph: Graph, eps_r: float, delta: float, p_f: float) -> int:
    """FORA's theory-driven number of walks ``omega`` (Chernoff-based)."""
    if not 0.0 < eps_r < 1.0 or not 0.0 < delta < 1.0 or not 0.0 < p_f < 1.0:
        raise ParameterError("eps_r, delta and p_f must all lie in (0, 1)")
    n = max(graph.num_nodes, 2)
    omega = checked_walk_ratio(
        (2.0 * eps_r / 3.0 + 2.0) * math.log(2.0 * n / p_f),
        eps_r**2 * delta,
        f"eps_r ({eps_r:g}) or delta ({delta:g})",
    )
    return max(1, int(math.ceil(omega)))


def monte_carlo_ppr(
    graph: Graph,
    seed_node: int,
    *,
    alpha: float = 0.15,
    num_walks: int = 10_000,
    rng: RandomState = None,
    backend: str | Backend | None = None,
    deadline: Deadline | None = None,
) -> HKPRResult:
    """Plain Monte-Carlo PPR: the fraction of restart walks ending at each node.

    ``alpha`` must be at least :data:`repro.engine.MIN_RESTART_ALPHA`; the
    walks run in :func:`repro.engine.restart_chunk` batches with a deadline
    checkpoint before each.
    """
    if not graph.has_node(seed_node):
        raise ParameterError(f"seed node {seed_node} is not in the graph")
    if num_walks < 1:
        raise ParameterError(f"num_walks must be >= 1, got {num_walks}")
    chunk = restart_chunk(alpha)
    generator = ensure_rng(rng)
    engine = get_backend(backend)
    start = time.perf_counter()
    counters = OperationCounters()
    counters.extras["backend"] = engine.name
    if deadline is not None:
        deadline.bind(counters)
    estimates = SparseVector()
    increment = 1.0 / num_walks
    for batch in chunk_sizes(num_walks, chunk):
        if deadline is not None:
            deadline.checkpoint()
        end_nodes = engine.geometric_walk_batch(
            graph,
            np.full(batch, seed_node, dtype=np.int64),
            alpha,
            generator,
            counters=counters,
        )
        estimates.add_many(end_nodes, increment)
    counters.reserve_entries = estimates.nnz()
    return HKPRResult(
        estimates=estimates,
        seed=seed_node,
        # Canonical registry name; the batched plan (MonteCarloPPRPlan) and
        # every serving/telemetry surface label this method "mc-ppr".
        method="mc-ppr",
        counters=counters,
        elapsed_seconds=time.perf_counter() - start,
    )


def fora(
    graph: Graph,
    seed_node: int,
    *,
    alpha: float = 0.15,
    eps_r: float = 0.5,
    delta: float | None = None,
    p_f: float = 1e-6,
    r_max: float | None = None,
    rng: RandomState = None,
    max_walks: int | None = None,
    backend: str | Backend | None = None,
    deadline: Deadline | None = None,
) -> HKPRResult:
    """Estimate the PPR vector of ``seed_node`` with FORA (push + walks).

    Parameters
    ----------
    alpha:
        Teleport probability, at least
        :data:`repro.engine.MIN_RESTART_ALPHA`.
    eps_r, delta, p_f:
        Relative-error target, significance threshold (default ``1/n``) and
        failure probability — the same roles as in the HKPR estimators.
    r_max:
        Push threshold; defaults to the cost-balancing choice
        ``sqrt(eps_r^2 * delta / (m * log(2n/p_f)))`` from the FORA paper,
        clamped to at most ``1/omega``.
    max_walks:
        Optional safety cap on the number of walks.
    backend:
        Execution backend for the walk phase (name, instance, or ``None``
        for the process default; see :mod:`repro.engine`).
    deadline:
        Optional cooperative :class:`~repro.utils.Deadline`, threaded
        through the push phase and the chunked walk phase.
    """
    if not graph.has_node(seed_node):
        raise ParameterError(f"seed node {seed_node} is not in the graph")
    chunk = restart_chunk(alpha)
    generator = ensure_rng(rng)
    engine = get_backend(backend)
    start = time.perf_counter()
    effective_delta = delta if delta is not None else default_delta(graph)
    omega = walk_count(graph, eps_r, effective_delta, p_f)
    if r_max is None:
        m = max(graph.num_edges, 1)
        balanced = math.sqrt(
            eps_r**2 * effective_delta / (m * math.log(2.0 * graph.num_nodes / p_f))
        )
        r_max = min(balanced, 1.0 / omega) if omega > 0 else balanced
        r_max = max(r_max, 1e-12)

    counters = OperationCounters()
    counters.extras["omega"] = float(omega)
    counters.extras["backend"] = engine.name
    push_outcome = forward_push(
        graph, seed_node, alpha=alpha, r_max=r_max, counters=counters,
        deadline=deadline,
    )
    estimates = push_outcome.reserve
    residue = push_outcome.residue

    residual_mass = residue.sum()
    counters.extras["alpha_mass"] = residual_mass
    if residual_mass > 0.0 and residue.nnz() > 0:
        num_walks = int(math.ceil(residual_mass * omega))
        if max_walks is not None:
            num_walks = min(num_walks, max_walks)
        if num_walks > 0:
            start_nodes, start_values = residue.arrays()
            sampler = AliasSampler(start_nodes, start_values)
            increment = residual_mass / num_walks
            for batch in chunk_sizes(num_walks, chunk):
                if deadline is not None:
                    deadline.checkpoint()
                picks = sampler.sample_indices(batch, generator)
                end_nodes = engine.geometric_walk_batch(
                    graph, start_nodes[picks], alpha, generator, counters=counters
                )
                estimates.add_many(end_nodes, increment)

    counters.reserve_entries = max(counters.reserve_entries, estimates.nnz())
    return HKPRResult(
        estimates=estimates,
        seed=seed_node,
        method="fora",
        counters=counters,
        elapsed_seconds=time.perf_counter() - start,
    )
