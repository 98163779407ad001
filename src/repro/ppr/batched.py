"""Batched (multi-query) PPR entry points built on walk fusion.

The PPR mirror of :mod:`repro.hkpr.batched`: plans decompose FORA and plain
Monte-Carlo PPR into a deterministic prepare step (validation, forward push)
and a fusible geometric-walk phase, so the serving layer
can answer many concurrent PPR queries with shared
``geometric_walk_batch`` calls.  Because PPR walks are memoryless, queries
fuse whenever their restart probability ``alpha`` matches.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence

import numpy as np

from repro.engine import Backend, chunk_sizes, execute_plans, get_backend
from repro.engine.fused import FusedQuery, sampled_tasks
from repro.engine.multi import WalkTask
from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.params import default_delta
from repro.hkpr.result import HKPRResult
from repro.ppr.fora import walk_count
from repro.ppr.push import forward_push
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.sparsevec import SparseVector


class MonteCarloPPRPlan:
    """Plan form of :func:`repro.ppr.fora.monte_carlo_ppr`."""

    method = "mc-ppr"

    def __init__(
        self,
        graph: Graph,
        seed_node: int,
        *,
        alpha: float = 0.15,
        num_walks: int = 10_000,
    ) -> None:
        if not graph.has_node(seed_node):
            raise ParameterError(f"seed node {seed_node} is not in the graph")
        if num_walks < 1:
            raise ParameterError(f"num_walks must be >= 1, got {num_walks}")
        if not 0.0 < alpha < 1.0:
            raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
        self.graph = graph
        self.seed_node = int(seed_node)
        self.counters = OperationCounters()
        self._increment = 1.0 / num_walks
        self._num_walks = int(num_walks)
        self._alpha = float(alpha)
        self._started = time.perf_counter()
        self._tasks: list[WalkTask] | None = None

    @property
    def tasks(self) -> list[WalkTask]:
        """Chunked geometric walk tasks, materialized on first access."""
        if self._tasks is None:
            self._tasks = [
                WalkTask(
                    "geometric",
                    np.full(batch, self.seed_node, dtype=np.int64),
                    alpha=self._alpha,
                )
                for batch in chunk_sizes(self._num_walks)
            ]
        return self._tasks

    def fused_queries(self) -> list[FusedQuery]:
        """Fused form: all walks start at the seed (one unit-weight entry)."""
        return [
            FusedQuery(
                "geometric",
                [self.seed_node],
                [1.0],
                self._num_walks,
                alpha=self._alpha,
            )
        ]

    @property
    def estimated_walks(self) -> int:
        """Walks this query will run (admission-control estimate)."""
        return self._num_walks

    def finalize(self, endpoints: Sequence[np.ndarray]) -> HKPRResult:
        estimates = SparseVector()
        for ends in endpoints:
            estimates.add_many(ends, self._increment)
        self.counters.reserve_entries = estimates.nnz()
        return HKPRResult(
            estimates=estimates,
            seed=self.seed_node,
            method=self.method,
            counters=self.counters,
            elapsed_seconds=time.perf_counter() - self._started,
        )


class ForaPlan:
    """Plan form of :func:`repro.ppr.fora.fora` (forward push + walks)."""

    method = "fora"

    def __init__(
        self,
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
        deadline: Deadline | None = None,
    ) -> None:
        if not graph.has_node(seed_node):
            raise ParameterError(f"seed node {seed_node} is not in the graph")
        generator = ensure_rng(rng)
        self.graph = graph
        self.seed_node = int(seed_node)
        self._started = time.perf_counter()
        effective_delta = (
            delta if delta is not None else default_delta(graph)
        )
        omega = walk_count(graph, eps_r, effective_delta, p_f)
        if r_max is None:
            m = max(graph.num_edges, 1)
            balanced = math.sqrt(
                eps_r**2 * effective_delta
                / (m * math.log(2.0 * graph.num_nodes / p_f))
            )
            r_max = min(balanced, 1.0 / omega) if omega > 0 else balanced
            r_max = max(r_max, 1e-12)

        counters = OperationCounters()
        counters.extras["omega"] = float(omega)
        self.counters = counters
        push_outcome = forward_push(
            graph, self.seed_node, alpha=alpha, r_max=r_max, counters=counters,
            deadline=deadline,
        )
        self._estimates = push_outcome.reserve
        residue = push_outcome.residue
        self._tasks: list[WalkTask] | None = None
        self._generator = generator
        self._alpha = float(alpha)
        self._num_walks = 0
        self._start_nodes: np.ndarray | None = None
        self._start_values: np.ndarray | None = None
        self._increment = 0.0

        residual_mass = residue.sum()
        counters.extras["alpha_mass"] = residual_mass
        if residual_mass <= 0.0 or residue.nnz() == 0:
            return
        num_walks = int(math.ceil(residual_mass * omega))
        if max_walks is not None:
            num_walks = min(num_walks, max_walks)
        if num_walks <= 0:
            return
        self._start_nodes, self._start_values = residue.arrays()
        self._num_walks = num_walks
        self._increment = residual_mass / num_walks

    @property
    def tasks(self) -> list[WalkTask]:
        """Chunked geometric walk tasks with drawn starts, made on first
        access (drawing from the construction ``rng``; see
        :class:`repro.hkpr.batched.TeaPlusPlan` for the laziness contract)."""
        if self._tasks is None:
            self._tasks = sampled_tasks(
                self.graph, self.fused_queries(), self._generator
            )
        return self._tasks

    def fused_queries(self) -> list[FusedQuery]:
        """Fused form: the forward-push residue is the start distribution
        (empty when the push settled everything)."""
        if not self._num_walks:
            return []
        return [
            FusedQuery(
                "geometric",
                self._start_nodes,
                self._start_values,
                self._num_walks,
                alpha=self._alpha,
            )
        ]

    @property
    def estimated_walks(self) -> int:
        """Walks this query will run (zero when the push settled everything)."""
        return self._num_walks

    def finalize(self, endpoints: Sequence[np.ndarray]) -> HKPRResult:
        for ends in endpoints:
            self._estimates.add_many(ends, self._increment)
        self.counters.reserve_entries = max(
            self.counters.reserve_entries, self._estimates.nnz()
        )
        return HKPRResult(
            estimates=self._estimates,
            seed=self.seed_node,
            method=self.method,
            counters=self.counters,
            elapsed_seconds=time.perf_counter() - self._started,
        )


def monte_carlo_ppr_many(
    graph: Graph,
    seeds: Sequence[int],
    *,
    alpha: float = 0.15,
    num_walks: int = 10_000,
    rng: RandomState = None,
    backend: str | Backend | None = None,
) -> dict[int, HKPRResult]:
    """Monte-Carlo PPR for every seed in ``seeds``, walks fused per batch.

    Duplicate seeds are answered once (the result mapping is keyed by seed).
    """
    from repro.hkpr.batched import _distinct_seeds

    seeds = _distinct_seeds(seeds)
    generator = ensure_rng(rng)
    engine = get_backend(backend)
    plans = [
        MonteCarloPPRPlan(graph, seed, alpha=alpha, num_walks=num_walks)
        for seed in seeds
    ]
    for plan in plans:
        plan.counters.extras["backend"] = engine.name
    results = execute_plans(engine, graph, plans, generator)
    return {plan.seed_node: result for plan, result in zip(plans, results)}
