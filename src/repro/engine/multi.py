"""Multi-query walk fusion: run many queries' walk phases as shared batches.

The kernels of the :class:`~repro.engine.Backend` protocol are already
multi-*source* (every walk in a batch may start at a different node), but the
estimators each submit their own batches, so `k` concurrent queries pay the
per-level Python overhead of the level-synchronous kernels `k` times.  This
module adds the multi-*query* entry point the serving layer
(:mod:`repro.service`) is built on:

* :class:`WalkTask` — one query's walk phase described as data: the kernel
  kind (``"heat"``, ``"poisson"``, ``"geometric"``), its start nodes and the
  kernel parameters.
* :func:`run_walk_tasks` — groups compatible tasks (same kernel and
  parameters), concatenates their start arrays, performs **one** kernel call
  per group, and splits the endpoints back out per task, in order.  Per-task
  counters receive exact ``random_walks``; ``walk_steps`` is exact whenever
  the backend advertises ``supports_step_counts`` (the vectorized backend
  does) and is otherwise attributed proportionally to task size, flagged via
  ``extras["walk_steps_attribution"]``.
* :class:`WalkPlan` / :func:`execute_plans` — the two-phase query shape the
  micro-batcher consumes: a plan is built per query (running any
  deterministic push phase eagerly), exposes its fusible ``tasks``, and is
  ``finalize``\\ d with the walk endpoints once the fused batch returns.

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


def _run_group(
    backend: Backend,
    graph: "Graph",
    tasks: list[WalkTask],
    rng: np.random.Generator,
    want_steps: bool,
) -> tuple[list[np.ndarray], OperationCounters, np.ndarray | None]:
    """One kernel call for a group of fuse-compatible tasks; split endpoints."""
    first = tasks[0]
    sizes = [task.num_walks for task in tasks]
    total = sum(sizes)
    scratch = OperationCounters()
    if len(tasks) == 1:
        starts = first.start_nodes
        hops = first.hop_offsets
    else:
        starts = np.concatenate([task.start_nodes for task in tasks])
        if first.kind == "heat":
            hops = np.concatenate([task.hop_offsets for task in tasks])
        else:
            hops = None

    step_counts = None
    if (
        want_steps
        and len(tasks) > 1
        and total
        and getattr(backend, "supports_step_counts", False)
    ):
        step_counts = np.zeros(total, dtype=np.int64)

    kwargs: dict[str, Any] = {"counters": scratch}
    if step_counts is not None:
        kwargs["step_counts"] = step_counts
    if first.kind == "heat":
        ends = backend.walk_batch(graph, starts, hops, first.weights, rng, **kwargs)
    elif first.kind == "poisson":
        ends = backend.poisson_walk_batch(
            graph, starts, first.weights, rng, max_length=first.max_length, **kwargs
        )
    else:
        ends = backend.geometric_walk_batch(graph, starts, first.alpha, rng, **kwargs)

    bounds = np.cumsum([0] + sizes)
    pieces = [ends[bounds[i]: bounds[i + 1]] for i in range(len(tasks))]
    return pieces, scratch, step_counts


def _attribute_counters(
    tasks: list[WalkTask],
    counters: list[OperationCounters | None],
    scratch: OperationCounters,
    step_counts: np.ndarray | None,
) -> None:
    """Split one fused kernel call's accounting back out per task."""
    sizes = [task.num_walks for task in tasks]
    total = sum(sizes)
    bounds = np.cumsum([0] + sizes)

    # Per-task step shares are computed over *every* task — including those
    # without counters — so tasks with a None entry do not shift their share
    # onto whichever task with counters happens to come last.
    proportional = len(tasks) > 1 and step_counts is None
    if proportional:
        shares = [
            int(round(scratch.walk_steps * size / total)) if total else 0
            for size in sizes[:-1]
        ]
        shares.append(scratch.walk_steps - sum(shares))

    # Kernel wall time (recorded by the backend's profiling hook into the
    # shared scratch counters) is per-walk cost to first order: split it
    # proportionally by task size instead of letting the generic
    # setdefault copy below hand every task the full group total.
    scratch_extras = dict(scratch.extras)
    kernel_seconds = scratch_extras.pop("kernel_seconds", None)

    for i, task_counters in enumerate(counters):
        if task_counters is None:
            continue
        task_counters.random_walks += sizes[i]
        if len(tasks) == 1:
            steps = scratch.walk_steps
        elif step_counts is not None:
            steps = int(step_counts[bounds[i]: bounds[i + 1]].sum())
        else:
            steps = shares[i]
            task_counters.extras["walk_steps_attribution"] = "proportional"
        task_counters.walk_steps += steps
        if kernel_seconds is not None:
            share = kernel_seconds * sizes[i] / total if total else 0.0
            task_counters.extras["kernel_seconds"] = (
                float(task_counters.extras.get("kernel_seconds", 0.0)) + share
            )
        for key, value in scratch_extras.items():
            task_counters.extras.setdefault(key, value)
        if len(tasks) > 1:
            task_counters.extras["fused_tasks"] = len(tasks)
            task_counters.extras["fused_walks"] = total


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
            group_counters = [
                counters_list[i] if counters_list is not None else None
                for i, _, _ in slices
            ]
            want_steps = any(c is not None for c in group_counters)
            pieces, scratch, step_counts = _run_group(
                engine, graph, group, rng, want_steps
            )
            _attribute_counters(group, group_counters, scratch, step_counts)
            for position, (index, _, _) in enumerate(slices):
                results[index].append(pieces[position])
    return [
        chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        for chunks in results
    ]


@runtime_checkable
class WalkPlan(Protocol):
    """A query split into a fusible walk phase and a finalization step.

    Implementations run any deterministic work (push phases, residue
    sampling) at construction time, expose the walk phase as ``tasks``, and
    assemble the query result from the walk endpoints in ``finalize``.
    ``counters`` (may be ``None``) receives the walk accounting for every
    task of the plan.
    """

    tasks: Sequence[WalkTask]
    counters: OperationCounters | None

    def finalize(self, endpoints: Sequence[np.ndarray]) -> Any:
        """Build the query result from one endpoint array per task."""
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
    exist exactly once.

    Routing: when the resolved backend implements the optional
    ``fused_push_walk`` capability (and fusion is not disabled), every plan
    exposing ``fused_queries()`` runs through the one-pass fused kernels of
    :mod:`repro.engine.fused` — start sampling and walks in a single kernel
    call per query group, no per-plan Python re-entry.  Plans without the
    hook (e.g. :class:`~repro.estimators.spec.DirectPlan` or third-party
    plans) and all plans on non-fused backends take the classic
    :class:`WalkTask` path.  Fused plans execute before task plans, each
    set drawing from the shared ``rng`` in plan order.

    The optional ``deadline`` applies to the whole batch: it is checkpointed
    between kernel calls on both paths, and tripping it abandons the entire
    remaining batch (the service passes the batch's latest member deadline).

    ``traces`` (when given) must align with ``plans``; entries may be
    ``None``.  Each plan's trace receives a ``kernel`` span covering the
    wall time its walks spent in kernel calls (for fused groups, the whole
    shared call — each member really did wait that long) and a ``finalize``
    span around its own result assembly.
    """
    from repro.engine.fused import fusion_enabled, run_fused_queries, supports_fused

    engine = get_backend(backend)
    graph = _adapt_graph(graph, engine)
    fuse = fusion_enabled() and supports_fused(engine)
    if traces is not None and len(traces) != len(plans):
        raise ParameterError(
            f"traces length {len(traces)} != number of plans {len(plans)}"
        )

    def _trace(index: int):
        return traces[index] if traces is not None else None

    def _finalize(index: int, endpoints_slice) -> Any:
        trace = _trace(index)
        started = time.perf_counter()
        result = plans[index].finalize(endpoints_slice)
        if trace is not None:
            trace.add_span("finalize", started, time.perf_counter())
        return result

    results: list[Any] = [None] * len(plans)
    fused_queries: list[Any] = []
    fused_counters: list[OperationCounters | None] = []
    fused_spans: list[tuple[int, int, int]] = []
    task_indices: list[int] = []
    for index, plan in enumerate(plans):
        getter = getattr(plan, "fused_queries", None) if fuse else None
        if getter is None:
            task_indices.append(index)
            continue
        queries = getter()
        start = len(fused_queries)
        fused_queries.extend(queries)
        fused_counters.extend([plan.counters] * len(queries))
        fused_spans.append((index, start, len(fused_queries)))

    if fused_spans:
        kernel_started = time.perf_counter()
        endpoints = run_fused_queries(
            engine, graph, fused_queries, rng, counters_list=fused_counters,
            deadline=deadline,
        )
        kernel_ended = time.perf_counter()
        for index, start, stop in fused_spans:
            trace = _trace(index)
            if trace is not None:
                trace.add_span(
                    "kernel", kernel_started, kernel_ended,
                    backend=getattr(engine, "name", "backend"), fused=True,
                )
            results[index] = _finalize(index, endpoints[start:stop])

    if task_indices:
        tasks: list[WalkTask] = []
        counters_list: list[OperationCounters | None] = []
        spans: list[tuple[int, int, int]] = []
        for index in task_indices:
            plan = plans[index]
            start = len(tasks)
            tasks.extend(plan.tasks)
            counters_list.extend([plan.counters] * (len(tasks) - start))
            spans.append((index, start, len(tasks)))
        kernel_started = time.perf_counter()
        endpoints = run_walk_tasks(
            engine, graph, tasks, rng, counters_list=counters_list,
            deadline=deadline,
        )
        kernel_ended = time.perf_counter()
        for index, start, stop in spans:
            trace = _trace(index)
            if trace is not None:
                trace.add_span(
                    "kernel", kernel_started, kernel_ended,
                    backend=getattr(engine, "name", "backend"), fused=False,
                )
            results[index] = _finalize(index, endpoints[start:stop])
    return results
