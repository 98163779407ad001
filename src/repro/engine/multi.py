"""Multi-query walk fusion: run many queries' walk phases as shared batches.

The kernels of the :class:`~repro.engine.Backend` protocol are already
multi-*source* (every walk in a batch may start at a different node), but the
estimators each submit their own batches, so `k` concurrent queries pay the
per-level Python overhead of the level-synchronous kernels `k` times.  This
module adds the multi-*query* entry points the serving layer
(:mod:`repro.service`) is built on:

* :class:`WalkTask` — one query's walk phase described as data: the kernel
  kind (``"heat"``, ``"poisson"``, ``"geometric"``), its start nodes and the
  kernel parameters.  Pinned requests and the walk-index builder run these.
* :func:`run_walk_tasks` — groups compatible tasks (same kernel and
  parameters), concatenates their start arrays, performs **one** kernel call
  per group, and splits the endpoints back out per task, in order.  Per-task
  counters receive exact ``random_walks`` and, from the kernels' per-walk
  ``step_counts``, exact ``walk_steps``.
* :class:`WalkPlan` / :func:`execute_plans` — the two-phase query shape the
  micro-batcher consumes: a plan is built per query (running any
  deterministic push phase eagerly), exposes its walk phase as
  :class:`~repro.engine.fused.FusedQuery` data, and is ``finalize``\\ d with
  the walk endpoints once :func:`~repro.engine.fused.run_fused_queries`
  returns.

Determinism caveat: fused walks draw from one shared generator, so a query's
individual endpoints depend on which queries it was co-batched with.  The
endpoint *distribution* of each task is unchanged (each walk is independent
and kernel parameters are per-task), which is what the statistical parity
suite verifies; callers that need byte-reproducible results must run their
tasks unfused with a private generator, as the service does for requests
carrying an explicit seed.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

import numpy as np

from repro.engine import Backend, as_int_array, get_backend, restart_chunk
from repro.exceptions import ParameterError
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline

if TYPE_CHECKING:
    from repro.graph.graph import Graph
    from repro.hkpr.poisson import PoissonWeights

#: Kernel kinds a :class:`WalkTask` may request.
TASK_KINDS = ("heat", "poisson", "geometric")


@dataclass
class WalkTask:
    """One query's walk phase, described as data for deferred fused execution.

    ``kind`` selects the kernel: ``"heat"`` (hop-conditioned heat kernel
    walks; needs ``hop_offsets`` and ``weights``), ``"poisson"``
    (Poisson(t)-length walks; needs ``weights``, optional ``max_length``), or
    ``"geometric"`` (restart walks; needs ``alpha``).
    """

    kind: str
    start_nodes: np.ndarray
    hop_offsets: np.ndarray | None = None
    weights: "PoissonWeights | None" = None
    alpha: float | None = None
    max_length: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ParameterError(
                f"unknown walk task kind {self.kind!r}; expected one of {TASK_KINDS}"
            )
        self.start_nodes = as_int_array(self.start_nodes)
        if self.kind == "heat":
            if self.weights is None or self.hop_offsets is None:
                raise ParameterError("heat tasks need weights and hop_offsets")
            self.hop_offsets = np.broadcast_to(
                as_int_array(self.hop_offsets), self.start_nodes.shape
            )
        elif self.kind == "poisson":
            if self.weights is None:
                raise ParameterError("poisson tasks need weights")
        elif self.alpha is None:
            raise ParameterError("geometric tasks need alpha")

    @property
    def num_walks(self) -> int:
        """Walks this task will run."""
        return int(self.start_nodes.size)

    def fuse_key(self) -> tuple:
        """Tasks with equal keys may share one kernel call.

        ``PoissonWeights`` tables are a pure function of ``(t, max_hop)``, so
        two weight objects with equal keys define the same walk law.
        """
        if self.kind == "heat":
            return ("heat", self.weights.t, self.weights.max_hop)
        if self.kind == "poisson":
            return ("poisson", self.weights.t, self.weights.max_hop, self.max_length)
        return ("geometric", self.alpha)


def _kernel_call(
    backend: Backend,
    graph: "Graph",
    law,
    starts: np.ndarray,
    hops: np.ndarray | None,
    rng: np.random.Generator,
    sizes: list[int],
    *,
    want_steps: bool,
) -> tuple[list[np.ndarray], list[int], OperationCounters]:
    """One backend kernel call for consecutive slices of ``sizes`` walks.

    ``law`` (a :class:`WalkTask` or a :class:`~repro.engine.fused.FusedGroup`)
    supplies the kind and kernel parameters.  Returns the endpoints split
    per slice, each slice's walk steps (exact when ``want_steps``, from the
    kernel's per-walk ``step_counts`` when there is more than one slice),
    and the call's scratch counters, which hold its ``kernel_seconds`` and
    backend extras.
    """
    total = sum(sizes)
    scratch = OperationCounters()
    kwargs: dict[str, Any] = {"counters": scratch}
    step_counts = None
    if want_steps and len(sizes) > 1:
        step_counts = kwargs["step_counts"] = np.zeros(total, dtype=np.int64)
    if law.kind == "heat":
        ends = backend.walk_batch(graph, starts, hops, law.weights, rng, **kwargs)
    elif law.kind == "poisson":
        ends = backend.poisson_walk_batch(
            graph, starts, law.weights, rng, max_length=law.max_length, **kwargs
        )
    else:
        ends = backend.geometric_walk_batch(graph, starts, law.alpha, rng, **kwargs)
    if ends.shape != (total,):
        raise ParameterError(
            f"backend returned {ends.shape} endpoints for {total} walks"
        )
    bounds = np.cumsum([0] + sizes)
    pieces = [ends[bounds[i]: bounds[i + 1]] for i in range(len(sizes))]
    if step_counts is None:
        steps = [scratch.walk_steps] if len(sizes) == 1 else [0] * len(sizes)
    else:
        steps = [
            int(step_counts[bounds[i]: bounds[i + 1]].sum())
            for i in range(len(sizes))
        ]
    return pieces, steps, scratch


def _merge_extras(
    counters: OperationCounters | None,
    scratch: OperationCounters,
    walks: int,
    total: int,
) -> None:
    """Give ``counters`` its share of one kernel call's scratch extras.

    Kernel wall time is per-walk cost to first order, so ``kernel_seconds``
    splits by walk share; other backend extras (``walk_workers``, ...) are
    copied unless already set.
    """
    if counters is None:
        return
    for key, value in scratch.extras.items():
        if key == "kernel_seconds":
            share = value * walks / total if total else 0.0
            counters.extras[key] = float(counters.extras.get(key, 0.0)) + share
        else:
            counters.extras.setdefault(key, value)


def _adapt_graph(graph: "Graph", engine: Backend) -> "Graph":
    """Resolve a graph view for ``engine`` via the optional adaptation hook.

    A :class:`~repro.dynamic.delta.DeltaGraph` overlay implements
    ``for_backend``: backends advertising ``supports_overlay`` walk it
    directly, everything else (the reference loop, parallel workers over
    shared-memory CSR) receives its compacted plain-CSR equivalent.  Plain
    graphs have no hook and pass through untouched.  Duck-typed so this
    module never imports :mod:`repro.dynamic`.
    """
    adapt = getattr(graph, "for_backend", None)
    if adapt is None:
        return graph
    return adapt(engine)


def _split_by_size(
    indices: list[int], tasks: Sequence[WalkTask], cap: int
) -> list[list[tuple[int, int, int]]]:
    """Greedily pack a fuse group into sub-groups of at most ``cap`` walks.

    Each entry is a ``(task index, lo, hi)`` slice of that task's walks.
    Preserves order and keeps a task whole when it fits; a task larger than
    ``cap`` is cut into ``cap``-walk slices, one sub-group each (the plans
    chunk their own tasks to :data:`~repro.engine.WALK_CHUNK_SIZE`, so this
    happens for restart walks with a small ``alpha`` and for direct callers
    who built an oversized task).
    """
    sub_groups: list[list[tuple[int, int, int]]] = []
    current: list[tuple[int, int, int]] = []
    current_size = 0
    for index in indices:
        size = tasks[index].num_walks
        if current and current_size + size > cap:
            sub_groups.append(current)
            current, current_size = [], 0
        if size > cap:
            sub_groups.extend(
                [(index, lo, min(lo + cap, size))] for lo in range(0, size, cap)
            )
            continue
        current.append((index, 0, size))
        current_size += size
    if current:
        sub_groups.append(current)
    return sub_groups


def _task_slice(task: WalkTask, lo: int, hi: int) -> WalkTask:
    """Walks ``lo:hi`` of ``task`` as a task of their own."""
    if lo == 0 and hi == task.num_walks:
        return task
    return replace(
        task,
        start_nodes=task.start_nodes[lo:hi],
        hop_offsets=None if task.hop_offsets is None else task.hop_offsets[lo:hi],
    )


def run_walk_tasks(
    backend: str | Backend | None,
    graph: "Graph",
    tasks: Sequence[WalkTask],
    rng: np.random.Generator,
    *,
    counters_list: Sequence[OperationCounters | None] | None = None,
    max_fused_walks: int | None = None,
    deadline: Deadline | None = None,
) -> list[np.ndarray]:
    """Execute ``tasks`` on ``graph``, fusing compatible tasks per kernel call.

    Returns one endpoint array per task, in task order.  ``counters_list``
    (when given) must align with ``tasks``; entries may repeat the same
    :class:`OperationCounters` object when several tasks belong to one query.

    Fused kernel calls are capped at ``max_fused_walks`` walks (default:
    :data:`repro.engine.WALK_CHUNK_SIZE`, read at call time) so fusing many
    queries preserves the memory bound the per-query chunking established —
    a group is split into consecutive sub-batches rather than concatenated
    without limit.  A restart-walk group is further capped by
    :func:`repro.engine.restart_chunk`, so no call exceeds
    :data:`repro.engine.MAX_EXPECTED_STEPS` expected steps.

    Group order follows first appearance in ``tasks`` and tasks keep their
    relative order within a group, so for a fixed backend the result is a
    pure function of ``(rng state, task sequence, fusion cap)``.

    The optional ``deadline`` is checkpointed before every kernel call, so a
    timed-out query stops between sub-batches rather than mid-kernel.
    """
    from repro import engine as engine_module

    engine = get_backend(backend)
    graph = _adapt_graph(graph, engine)
    if counters_list is not None and len(counters_list) != len(tasks):
        raise ParameterError(
            f"counters_list length {len(counters_list)} != number of tasks {len(tasks)}"
        )
    cap = max_fused_walks if max_fused_walks is not None else engine_module.WALK_CHUNK_SIZE
    if cap < 1:
        raise ParameterError(f"max_fused_walks must be >= 1, got {cap}")
    groups: dict[tuple, list[int]] = {}
    for index, task in enumerate(tasks):
        groups.setdefault(task.fuse_key(), []).append(index)

    results: list[list[np.ndarray]] = [[] for _ in tasks]
    for indices in groups.values():
        first = tasks[indices[0]]
        group_cap = (
            restart_chunk(first.alpha, cap) if first.kind == "geometric" else cap
        )
        for slices in _split_by_size(indices, tasks, group_cap):
            if deadline is not None:
                deadline.checkpoint()
            group = [_task_slice(tasks[i], lo, hi) for i, lo, hi in slices]
            sizes = [task.num_walks for task in group]
            total = sum(sizes)
            if len(group) == 1:
                starts, hops = group[0].start_nodes, group[0].hop_offsets
            else:
                starts = np.concatenate([task.start_nodes for task in group])
                hops = (
                    np.concatenate([task.hop_offsets for task in group])
                    if first.kind == "heat"
                    else None
                )
            group_counters = [
                counters_list[i] if counters_list is not None else None
                for i, _, _ in slices
            ]
            pieces, steps, scratch = _kernel_call(
                engine, graph, first, starts, hops, rng, sizes,
                want_steps=any(c is not None for c in group_counters),
            )
            for position, (index, _, _) in enumerate(slices):
                results[index].append(pieces[position])
                counters = group_counters[position]
                if counters is None:
                    continue
                counters.random_walks += sizes[position]
                counters.walk_steps += steps[position]
                _merge_extras(counters, scratch, sizes[position], total)
                if len(group) > 1:
                    counters.extras["fused_tasks"] = len(group)
                    counters.extras["fused_walks"] = total
    return [
        chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        for chunks in results
    ]


@runtime_checkable
class WalkPlan(Protocol):
    """A query split into a fusible walk phase and a finalization step.

    Implementations run any deterministic work (push phases) at
    construction time, expose the walk phase as
    :class:`~repro.engine.fused.FusedQuery` data from ``fused_queries()``,
    and assemble the query result from the walk endpoints in ``finalize``.
    ``counters`` (may be ``None``) receives the walk accounting.  Plans the
    service runs for seed-pinned requests also expose ``tasks``: the same
    walks as :class:`WalkTask`\\ s with drawn starts.
    """

    counters: OperationCounters | None

    def fused_queries(self) -> Sequence[Any]:
        """The walk phase, one :class:`~repro.engine.fused.FusedQuery` per
        start distribution (empty when there is nothing to walk)."""
        ...

    def finalize(self, endpoints: Sequence[np.ndarray]) -> Any:
        """Build the query result from one endpoint array per fused query."""
        ...


def execute_plans(
    backend: str | Backend | None,
    graph: "Graph",
    plans: Sequence[WalkPlan],
    rng: np.random.Generator,
    *,
    deadline: Deadline | None = None,
    traces: "Sequence | None" = None,
) -> list[Any]:
    """Run every plan's walk phase as fused batches and finalize each plan.

    The batched entry points (``monte_carlo_hkpr_many`` et al.) and the
    service micro-batcher both funnel through here, so fusion semantics
    exist exactly once: every plan's ``fused_queries()`` run through one
    :func:`~repro.engine.fused.run_fused_queries` call on the resolved
    backend, drawing from the shared ``rng`` in plan order.

    The optional ``deadline`` applies to the whole batch: it is checkpointed
    between kernel calls, and tripping it abandons the entire remaining
    batch (the service passes the batch's latest member deadline).

    ``traces`` (when given) must align with ``plans``; entries may be
    ``None``.  Each plan's trace receives a ``kernel`` span covering the
    wall time of the batch's kernel calls (each member really did wait
    that long) and a ``finalize`` span around its own result assembly.
    """
    from repro.engine import fused

    engine = get_backend(backend)
    graph = _adapt_graph(graph, engine)
    if traces is not None and len(traces) != len(plans):
        raise ParameterError(
            f"traces length {len(traces)} != number of plans {len(plans)}"
        )

    queries: list[Any] = []
    counters_list: list[OperationCounters | None] = []
    spans: list[tuple[int, int]] = []
    for plan in plans:
        start = len(queries)
        queries.extend(plan.fused_queries())
        counters_list.extend([plan.counters] * (len(queries) - start))
        spans.append((start, len(queries)))

    kernel_started = time.perf_counter()
    endpoints = fused.run_fused_queries(
        engine, graph, queries, rng, counters_list=counters_list,
        deadline=deadline,
    )
    kernel_ended = time.perf_counter()
    results: list[Any] = []
    for index, (plan, (start, stop)) in enumerate(zip(plans, spans)):
        trace = traces[index] if traces is not None else None
        if trace is not None:
            trace.add_span(
                "kernel", kernel_started, kernel_ended,
                backend=getattr(engine, "name", "backend"), fused=True,
            )
        started = time.perf_counter()
        results.append(plan.finalize(endpoints[start:stop]))
        if trace is not None:
            trace.add_span("finalize", started, time.perf_counter())
    return results
