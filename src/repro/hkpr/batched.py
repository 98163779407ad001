"""Batched (multi-query) HKPR entry points built on walk fusion.

Every estimator in this package answers one query at a time.  Online serving
(:mod:`repro.service`) instead sees *many* concurrent queries, and the walk
phases of those queries can share kernel batches (one ``poisson_walk_batch``
call for the walks of every Monte-Carlo query in flight, one ``walk_batch``
call for the residue walks of every TEA+ query) — amortizing the per-level
Python overhead of the level-synchronous kernels across queries.

Two layers:

* **Plans** — :class:`MonteCarloPlan` and :class:`TeaPlusPlan` implement the
  :class:`repro.engine.multi.WalkPlan` shape: the deterministic part of the
  query (validation, HK-Push+, residue reduction) runs at construction
  time, the walk phase is exposed as a
  :class:`~repro.engine.fused.FusedQuery` (plus chunked
  :class:`~repro.engine.multi.WalkTask`\\ s for seed-pinned serving), and
  ``finalize`` assembles the :class:`~repro.hkpr.result.HKPRResult`.
* **Batched entry points** — :func:`monte_carlo_hkpr_many` and
  :func:`tea_plus_many` answer a whole seed list with fused walk phases.
  Results are a pure function of ``(rng seed, graph, ordered seed list)``;
  individual per-seed results legitimately differ from single-query runs of
  the same seed (the shared stream is interleaved differently) while
  following the identical distribution — the statistical parity suite is
  the executable statement of that claim.
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
from repro.hkpr.hk_push_plus import hk_push_plus
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import PoissonWeights, cached_weights
from repro.hkpr.result import HKPRResult
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.sparsevec import SparseVector


class MonteCarloPlan:
    """Plan form of :func:`repro.hkpr.monte_carlo.monte_carlo_hkpr`.

    The whole estimator is a walk phase, so the plan is one fused-eligible
    Poisson task (chunked by :func:`repro.engine.chunk_sizes`) plus a
    counting ``finalize``.
    """

    method = "monte-carlo"

    def __init__(
        self,
        graph: Graph,
        seed_node: int,
        params: HKPRParams,
        *,
        num_walks: int | None = None,
        weights: PoissonWeights | None = None,
    ) -> None:
        if not graph.has_node(seed_node):
            raise ParameterError(f"seed node {seed_node} is not in the graph")
        walks = num_walks if num_walks is not None else int(
            math.ceil(params.omega_monte_carlo(graph))
        )
        if walks < 1:
            raise ParameterError(f"number of walks must be >= 1, got {walks}")
        self.graph = graph
        self.seed_node = int(seed_node)
        self.counters = OperationCounters()
        self._weights = weights if weights is not None else cached_weights(params.t)
        self._increment = 1.0 / walks
        self._num_walks = walks
        self._started = time.perf_counter()
        self._tasks: list[WalkTask] | None = None

    @property
    def tasks(self) -> list[WalkTask]:
        """Chunked Poisson walk tasks, materialized on first access.

        Laziness matters: the fused route (:meth:`fused_queries`) never
        touches the per-chunk start arrays, so it must not pay for them.
        """
        if self._tasks is None:
            self._tasks = [
                WalkTask(
                    "poisson",
                    np.full(batch, self.seed_node, dtype=np.int64),
                    weights=self._weights,
                )
                for batch in chunk_sizes(self._num_walks)
            ]
        return self._tasks

    def fused_queries(self) -> list[FusedQuery]:
        """Fused form: all walks start at the seed (one unit-weight entry)."""
        return [
            FusedQuery(
                "poisson",
                [self.seed_node],
                [1.0],
                self._num_walks,
                weights=self._weights,
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


class TeaPlusPlan:
    """Plan form of :func:`repro.hkpr.tea_plus.tea_plus` (Algorithm 5).

    HK-Push+, the Theorem-2 early-exit test and the §5.2 residue reduction
    run at construction time; the surviving residue entries are kept as the
    walk-start *distribution* (:meth:`fused_queries`).  Seed-pinned serving
    reads ``tasks`` instead, whose starts are drawn lazily, on first access,
    from the construction ``rng``.  An early exit leaves both empty, making
    the plan free to "execute".
    """

    method = "tea+"

    def __init__(
        self,
        graph: Graph,
        seed_node: int,
        params: HKPRParams,
        *,
        rng: RandomState = None,
        max_walks: int | None = None,
        apply_residue_reduction: bool = True,
        apply_offset: bool = True,
        push_budget: int | None = None,
        max_hop: int | None = None,
        weights: PoissonWeights | None = None,
        deadline: Deadline | None = None,
    ) -> None:
        if not graph.has_node(seed_node):
            raise ParameterError(f"seed node {seed_node} is not in the graph")
        generator = ensure_rng(rng)
        self.graph = graph
        self.seed_node = int(seed_node)
        self._params = params
        self._started = time.perf_counter()

        self._weights = weights if weights is not None else cached_weights(params.t)
        omega = params.omega_tea_plus(graph)
        budget = (
            push_budget if push_budget is not None else params.push_budget_tea_plus(graph)
        )
        hop_cap = max_hop if max_hop is not None else params.max_hop_tea_plus(graph)

        counters = OperationCounters()
        counters.extras["omega"] = omega
        counters.extras["push_budget"] = float(budget)
        counters.extras["max_hop"] = float(hop_cap)
        self.counters = counters

        push_outcome = hk_push_plus(
            graph, self.seed_node, params.eps_r, params.delta,
            hop_cap, budget, self._weights, counters=counters,
            deadline=deadline,
        )
        self._estimates = push_outcome.reserve
        residues = push_outcome.residues
        self._tasks: list[WalkTask] | None = None
        self._generator = generator
        self._num_walks = 0
        self._start_nodes: np.ndarray | None = None
        self._start_hops: np.ndarray | None = None
        self._start_values: np.ndarray | None = None
        self._increment = 0.0

        if push_outcome.satisfied_early_exit:
            self.early_exit = True
            self._offset = 0.0
            return
        self.early_exit = False

        if apply_residue_reduction:
            betas = residues.reduce_residues(graph, params.eps_r, params.delta)
            counters.extras["num_reduced_hops"] = float(
                sum(1 for b in betas if b > 0)
            )
        self._offset = (
            params.eps_r * params.delta / 2.0
            if (apply_offset and apply_residue_reduction)
            else 0.0
        )

        hops, nodes, values = residues.entry_arrays()
        alpha = sum(values.tolist())
        counters.extras["alpha"] = alpha
        if alpha <= 0.0:
            return
        num_walks = int(math.ceil(alpha * omega))
        if max_walks is not None:
            num_walks = min(num_walks, max_walks)
        if num_walks <= 0:
            return

        self._start_hops, self._start_nodes, self._start_values = hops, nodes, values
        self._num_walks = num_walks
        self._increment = alpha / num_walks

    @property
    def tasks(self) -> list[WalkTask]:
        """Chunked heat walk tasks with drawn starts, made on first access.

        Sampling draws from the plan's construction generator, so for the
        shared-generator entry points the draw order is identical to eager
        construction (push phases consume nothing from the stream).
        """
        if self._tasks is None:
            self._tasks = sampled_tasks(
                self.graph, self.fused_queries(), self._generator
            )
        return self._tasks

    def fused_queries(self) -> list[FusedQuery]:
        """Fused form: the residue entries *are* the start distribution.

        Empty after a Theorem-2 early exit (the plan is free to execute).
        """
        if not self._num_walks:
            return []
        return [
            FusedQuery(
                "heat",
                self._start_nodes,
                self._start_values,
                self._num_walks,
                entry_hops=self._start_hops,
                weights=self._weights,
            )
        ]

    @property
    def estimated_walks(self) -> int:
        """Walks this query will run (zero after a Theorem-2 early exit)."""
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
            offset_per_degree=self._offset,
            early_exit=self.early_exit,
        )


def _distinct_seeds(seeds: Sequence[int]) -> list[int]:
    """Order-preserving distinct seed list (the ``*_many`` result is keyed
    by seed, so answering a duplicate twice would silently discard one run's
    walks)."""
    if not seeds:
        raise ParameterError("need at least one seed node")
    return list(dict.fromkeys(int(seed) for seed in seeds))


def monte_carlo_hkpr_many(
    graph: Graph,
    seeds: Sequence[int],
    params: HKPRParams,
    *,
    num_walks: int | None = None,
    rng: RandomState = None,
    backend: str | Backend | None = None,
) -> dict[int, HKPRResult]:
    """Monte-Carlo HKPR for every seed in ``seeds``, walks fused per batch.

    The multi-query analogue of chunking: all seeds' walks run through
    shared ``poisson_walk_batch`` calls, so the per-level kernel overhead is
    paid once per *batch* instead of once per *query*.  Duplicate seeds are
    answered once (the result mapping is keyed by seed).
    """
    seeds = _distinct_seeds(seeds)
    generator = ensure_rng(rng)
    engine = get_backend(backend)
    weights = cached_weights(params.t)
    plans = [
        MonteCarloPlan(graph, seed, params, num_walks=num_walks, weights=weights)
        for seed in seeds
    ]
    for plan in plans:
        plan.counters.extras["backend"] = engine.name
    results = execute_plans(engine, graph, plans, generator)
    return {plan.seed_node: result for plan, result in zip(plans, results)}


def tea_plus_many(
    graph: Graph,
    seeds: Sequence[int],
    params: HKPRParams,
    *,
    rng: RandomState = None,
    max_walks: int | None = None,
    backend: str | Backend | None = None,
    **plan_kwargs,
) -> dict[int, HKPRResult]:
    """TEA+ for every seed in ``seeds`` with residue walks fused per batch.

    Push phases run per seed (they are deterministic and query-specific);
    the hop-conditioned walk phases of all non-early-exit seeds share
    ``walk_batch`` calls.  Duplicate seeds are answered once.
    """
    seeds = _distinct_seeds(seeds)
    generator = ensure_rng(rng)
    engine = get_backend(backend)
    weights = cached_weights(params.t)
    plans = [
        TeaPlusPlan(
            graph, seed, params, rng=generator, max_walks=max_walks,
            weights=weights, **plan_kwargs,
        )
        for seed in seeds
    ]
    for plan in plans:
        plan.counters.extras["backend"] = engine.name
    results = execute_plans(engine, graph, plans, generator)
    return {plan.seed_node: result for plan, result in zip(plans, results)}
