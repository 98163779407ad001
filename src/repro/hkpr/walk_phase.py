"""One randomized query's walk phase as data, and the loop that runs it.

TEA and TEA+ end with the same walk phase (Algorithms 3 and 5, Lines
12-17): draw residue entries ``(hop, node)`` proportionally to their
values, walk from each draw, and add ``alpha / n_r`` to the estimate at
every endpoint.  Monte-Carlo (§3), ClusterHKPR and mc-ppr are that phase
with an empty push, the seed being the only entry, and FORA is its PPR
twin.  So each randomized method is written once, as a builder in its
home module that runs the deterministic part and returns a
:class:`ResiduePlan`:

* the library estimator runs :func:`run_residue_walk_phase` on the plan
  (only when it has walks) and finalizes it;
* the ``*_many`` entry points (:func:`answer_many`) and the service run
  many plans' walks as fused batches through
  :func:`repro.engine.multi.execute_plans`, and seed-pinned requests run
  them as :func:`repro.engine.fused.sampled_tasks` on their own generator;
* a walk-index hit (:func:`repro.index.combine.plan_from_index`) is a
  plan whose reserve already holds the stored endpoints.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Sequence

import numpy as np

from repro.engine import Backend, chunk_sizes, execute_plans, get_backend, restart_chunk
from repro.engine.fused import FusedGroup, FusedQuery, sample_fused_starts
from repro.engine.multi import kernel_walks
from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.result import HKPRResult
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.sparsevec import SparseVector


class ResiduePlan:
    """A randomized query after its deterministic part.

    ``reserve`` holds what is already settled: the push reserve, nothing
    for a walk-only method, or the stored endpoints of an index hit.
    ``query`` is the walk phase still to run (``None`` when nothing is
    left to walk); each of its walks adds ``increment`` at its endpoint.
    ``offset`` and ``early_exit`` are TEA+'s lazy offset coefficient and
    Theorem-2 verdict.  ``started`` is when the builder began, so the
    result's ``elapsed_seconds`` covers the push too.
    """

    def __init__(
        self,
        method: str,
        graph: Graph,
        seed_node: int,
        counters: OperationCounters,
        *,
        started: float,
        reserve: SparseVector | None = None,
        query: FusedQuery | None = None,
        increment: float = 0.0,
        offset: float = 0.0,
        early_exit: bool = False,
    ) -> None:
        self.method = method
        self.graph = graph
        self.seed_node = int(seed_node)
        self.counters = counters
        self.started = started
        self.reserve = reserve if reserve is not None else SparseVector()
        self.query = query
        self.increment = increment
        self.offset = offset
        self.early_exit = early_exit

    def fused_queries(self) -> list[FusedQuery]:
        """The walk phase as one fused query, or none when nothing is left."""
        return [] if self.query is None else [self.query]

    @property
    def estimated_walks(self) -> int:
        """Walks this query will run (admission control)."""
        return 0 if self.query is None else self.query.num_walks

    def finalize(self, endpoints: Sequence[np.ndarray] = ()) -> HKPRResult:
        """Add every endpoint array to the reserve and return the result."""
        for ends in endpoints:
            self.reserve.add_many(ends, self.increment)
        self.counters.reserve_entries = max(
            self.counters.reserve_entries, self.reserve.nnz()
        )
        return HKPRResult(
            estimates=self.reserve,
            seed=self.seed_node,
            method=self.method,
            counters=self.counters,
            elapsed_seconds=time.perf_counter() - self.started,
            offset_per_degree=self.offset,
            early_exit=self.early_exit,
        )


def start_plan(graph: Graph, seed_node: int) -> float:
    """Refuse a seed outside ``graph``, else return the query's start time."""
    if not graph.has_node(seed_node):
        raise ParameterError(f"seed node {seed_node} is not in the graph")
    return time.perf_counter()


def residue_query(
    kind: str,
    nodes: np.ndarray,
    values: np.ndarray,
    omega: float,
    max_walks: int | None,
    **law,
) -> tuple[FusedQuery | None, float, float]:
    """The walks covering a residue (Line 12): ``ceil(alpha * omega)``.

    ``alpha`` is the residue mass, ``values`` summed left to right; the
    count is capped at ``max_walks`` (guarantee waived when it binds).
    Returns ``(query, increment, alpha)``: each walk adds
    ``alpha / n_r``, and ``query`` is ``None`` when no walk is left.
    ``law`` carries the kernel parameters (see
    :class:`~repro.engine.fused.FusedQuery`).
    """
    alpha = sum(values.tolist())
    walks = int(math.ceil(alpha * omega)) if alpha > 0.0 else 0
    if max_walks is not None:
        walks = min(walks, max_walks)
    if walks <= 0:
        return None, 0.0, alpha
    return FusedQuery(kind, nodes, values, walks, **law), alpha / walks, alpha


def run_residue_walk_phase(
    plan: ResiduePlan,
    *,
    engine: Backend,
    rng: np.random.Generator,
    deadline: Deadline | None = None,
) -> None:
    """Run ``plan``'s walks, adding each chunk's endpoints to its reserve.

    The single-query walk loop of every randomized estimator.  Each chunk
    (:func:`repro.engine.chunk_sizes`; restart walks are also capped by
    :func:`repro.engine.restart_chunk`) draws its starts with
    :func:`~repro.engine.fused.sample_fused_starts` (one ``rng.random``
    per walk, none when the seed is the only entry), runs the backend
    kernel, and adds the endpoints, so memory stays bounded at
    theory-driven walk counts.  The optional ``deadline`` is checkpointed
    before every chunk, so a timed-out query stops between kernel calls.
    """
    query = plan.query
    chunk = restart_chunk(query.alpha) if query.kind == "geometric" else None
    for batch in chunk_sizes(query.num_walks, chunk):
        if deadline is not None:
            deadline.checkpoint()
        starts, hops = sample_fused_starts(
            FusedGroup(plan.graph, [query], [batch]), rng
        )
        ends = kernel_walks(
            engine, plan.graph, query, starts, hops, rng, counters=plan.counters
        )
        plan.reserve.add_many(ends, plan.increment)


def answer_many(
    graph: Graph,
    seeds: Sequence[int],
    build: Callable[[int], ResiduePlan],
    *,
    rng: RandomState,
    backend: str | Backend | None,
) -> dict[int, HKPRResult]:
    """Answer every distinct seed with ``build(seed)``, walks fused per batch.

    The ``*_many`` entry points: plans are built in seed order, and all
    their walks share kernel calls through
    :func:`~repro.engine.multi.execute_plans`, drawing from one generator.
    Results are a pure function of ``(rng seed, graph, ordered seed
    list)``; a seed's answer differs from its single-query run (the
    shared stream is interleaved differently) but follows the same law.
    Duplicate seeds are answered once, since the result is keyed by seed.
    """
    if not seeds:
        raise ParameterError("need at least one seed node")
    generator = ensure_rng(rng)
    engine = get_backend(backend)
    plans = [build(seed) for seed in dict.fromkeys(int(seed) for seed in seeds)]
    for plan in plans:
        plan.counters.extras["backend"] = engine.name
    results = execute_plans(engine, graph, plans, generator)
    return {plan.seed_node: result for plan, result in zip(plans, results)}
