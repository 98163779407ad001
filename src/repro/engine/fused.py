"""Many queries' walk phases as shared kernel calls, starts drawn by inverse CDF.

A query's walk phase is described as data: a :class:`FusedQuery` holds
its start distribution (residue entries ``(u, k)`` and their weights; a
Monte-Carlo query has one entry, its seed) and a walk count.
:func:`run_fused_queries` concatenates fuse-compatible queries into one
:class:`FusedGroup`, draws every walk's start with
:func:`sample_fused_starts` (one ``searchsorted`` over an
offset-concatenated CDF), and runs the walks through the backend's own
kernel (``walk_batch``, ``poisson_walk_batch`` or
``geometric_walk_batch``), so every backend runs every group.

The same draw serves every single-query walk phase
(:func:`repro.hkpr.walk_phase.run_residue_walk_phase`; Algorithms 3 and
5, Line 10) and seed-pinned requests (:func:`sampled_tasks`): each chunk
of walks is a one-query :class:`FusedGroup`.  A start costs one
``rng.random`` draw; a group whose queries all have one entry draws
nothing and builds no CDF.

Determinism contract: a batch is a pure function of
``(backend, rng state, ordered query list, fusion cap)``.  The start of
walk ``w`` of query ``q`` follows the query's normalized entry
distribution, which the statistical parity suite checks against the
exact mixture law on every backend.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.engine import Backend, as_int_array, chunk_sizes, get_backend, restart_chunk
from repro.engine.multi import WalkTask, _kernel_call, _merge_extras
from repro.exceptions import ParameterError
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline

if TYPE_CHECKING:
    from repro.graph.graph import Graph
    from repro.hkpr.poisson import PoissonWeights

#: Kernel kinds a :class:`FusedQuery` may request (mirrors
#: :data:`repro.engine.multi.TASK_KINDS`).
FUSED_KINDS = ("heat", "poisson", "geometric")


class FusedQuery:
    """One query's walk phase, reduced to data a kernel call can consume.

    ``entry_nodes``/``entry_weights`` describe the residue distribution the
    walk starts are drawn from (for plans whose walks all start at the seed
    node, a single entry of weight 1).  Weights are non-negative with a
    positive sum; zero-weight entries are dropped, so no walk starts there.
    ``num_walks`` walks are run, each picking its start independently from
    that distribution.  Kind-specific parameters mirror
    :class:`~repro.engine.multi.WalkTask`: ``heat`` needs ``weights`` and
    per-entry ``entry_hops``, ``poisson`` needs ``weights`` (plus optional
    ``max_length``), ``geometric`` needs ``alpha``.
    """

    __slots__ = (
        "kind", "entry_nodes", "entry_weights", "entry_hops",
        "num_walks", "weights", "alpha", "max_length",
    )

    def __init__(
        self,
        kind: str,
        entry_nodes,
        entry_weights,
        num_walks: int,
        *,
        entry_hops=None,
        weights: "PoissonWeights | None" = None,
        alpha: float | None = None,
        max_length: int | None = None,
    ) -> None:
        if kind not in FUSED_KINDS:
            raise ParameterError(
                f"unknown fused query kind {kind!r}; expected one of {FUSED_KINDS}"
            )
        self.kind = kind
        self.entry_nodes = as_int_array(entry_nodes)
        self.entry_weights = np.atleast_1d(
            np.asarray(entry_weights, dtype=np.float64)
        )
        if self.entry_weights.shape != self.entry_nodes.shape:
            raise ParameterError(
                f"entry_weights shape {self.entry_weights.shape} != "
                f"entry_nodes shape {self.entry_nodes.shape}"
            )
        if not np.all(np.isfinite(self.entry_weights)) or np.any(
            self.entry_weights < 0.0
        ):
            raise ParameterError("entry weights must be non-negative and finite")
        self.num_walks = int(num_walks)
        if self.num_walks < 1:
            raise ParameterError(
                f"fused query needs num_walks >= 1, got {num_walks}"
            )
        self.weights = weights
        self.alpha = alpha
        self.max_length = max_length
        self.entry_hops = None
        if kind == "heat":
            if weights is None or entry_hops is None:
                raise ParameterError("heat fused queries need weights and entry_hops")
            self.entry_hops = np.broadcast_to(
                as_int_array(entry_hops), self.entry_nodes.shape
            )
            if (self.entry_hops < 0).any():
                bad = int(self.entry_hops[np.flatnonzero(self.entry_hops < 0)[0]])
                raise ParameterError(f"hop offset must be non-negative, got {bad}")
        elif kind == "poisson":
            if weights is None:
                raise ParameterError("poisson fused queries need weights")
        elif alpha is None:
            raise ParameterError("geometric fused queries need alpha")
        elif not 0.0 < alpha < 1.0:
            raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
        positive = self.entry_weights > 0.0
        if not positive.all():
            self.entry_nodes = self.entry_nodes[positive]
            self.entry_weights = self.entry_weights[positive]
            if self.entry_hops is not None:
                self.entry_hops = self.entry_hops[positive]
        if self.entry_nodes.size == 0:
            raise ParameterError("fused query needs an entry of positive weight")

    def fuse_key(self) -> tuple:
        """Queries with equal keys may share one kernel call (identical to
        :meth:`repro.engine.multi.WalkTask.fuse_key` so the two layers group
        alike)."""
        if self.kind == "heat":
            return ("heat", self.weights.t, self.weights.max_hop)
        if self.kind == "poisson":
            return ("poisson", self.weights.t, self.weights.max_hop, self.max_length)
        return ("geometric", self.alpha)


class FusedGroup:
    """Kernel-ready concatenation of fuse-compatible query slices.

    ``entry_cdf`` is the inverse-transform table: query ``q``'s normalized
    cumulative weights live in ``(q, q+1]`` (each segment is offset by its
    query index, with the final element forced to exactly ``q + 1``), so a
    walk of query ``q`` with uniform draw ``u`` starts at the first entry
    whose cdf value exceeds ``q + u`` — one binary search over one shared
    array, no per-query dispatch.  It is built only when some query has
    more than one entry (``needs_sampling``); otherwise it is ``None``.
    ``walk_qid`` maps each of the ``total_walks`` walks back to its query
    index.
    """

    __slots__ = (
        "kind", "weights", "alpha", "max_length",
        "entry_nodes", "entry_hops", "entry_cdf", "entry_ptr",
        "walk_counts", "walk_ptr", "walk_qid", "total_walks",
        "needs_sampling",
    )

    def __init__(
        self,
        graph: "Graph",
        queries: Sequence[FusedQuery],
        walk_counts: Sequence[int],
    ) -> None:
        first = queries[0]
        self.kind = first.kind
        self.weights = first.weights
        self.alpha = first.alpha
        self.max_length = first.max_length

        entry_sizes = np.fromiter(
            (q.entry_nodes.size for q in queries), np.int64, count=len(queries)
        )
        self.entry_ptr = np.zeros(len(queries) + 1, dtype=np.int64)
        np.cumsum(entry_sizes, out=self.entry_ptr[1:])
        self.entry_nodes = (
            first.entry_nodes
            if len(queries) == 1
            else np.concatenate([q.entry_nodes for q in queries])
        )
        invalid = (self.entry_nodes < 0) | (self.entry_nodes >= graph.num_nodes)
        if invalid.any():
            bad = int(self.entry_nodes[np.flatnonzero(invalid)[0]])
            raise ParameterError(f"walk start node {bad} is not in the graph")
        if self.kind == "heat":
            self.entry_hops = np.ascontiguousarray(
                np.concatenate([q.entry_hops for q in queries])
                if len(queries) > 1
                else first.entry_hops
            )
        else:
            self.entry_hops = np.zeros(0, dtype=np.int64)

        self.needs_sampling = bool((entry_sizes > 1).any())
        self.entry_cdf = None
        if self.needs_sampling:
            segments = []
            for index, query in enumerate(queries):
                cdf = np.cumsum(query.entry_weights)
                cdf /= cdf[-1]
                cdf += float(index)
                cdf[-1] = float(index + 1)  # exact segment end despite rounding
                segments.append(cdf)
            self.entry_cdf = (
                segments[0] if len(segments) == 1 else np.concatenate(segments)
            )

        self.walk_counts = np.fromiter(
            (int(count) for count in walk_counts), np.int64, count=len(queries)
        )
        if (self.walk_counts < 1).any():
            raise ParameterError("every fused query slice needs >= 1 walks")
        self.walk_ptr = np.zeros(len(queries) + 1, dtype=np.int64)
        np.cumsum(self.walk_counts, out=self.walk_ptr[1:])
        self.total_walks = int(self.walk_ptr[-1])
        self.walk_qid = np.repeat(
            np.arange(len(queries), dtype=np.int64), self.walk_counts
        )


def sample_fused_starts(
    group: FusedGroup, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray | None]:
    """Draw every walk's start in ``group`` from its query's entry weights.

    Inverse CDF: one ``rng.random(total_walks)`` draw and one
    ``searchsorted`` when any query has more than one entry; single-entry
    groups (e.g. a batch of Monte-Carlo queries, whose walks all start at
    their seed) draw nothing.  Returns owned ``(starts, hops)`` arrays;
    ``hops`` is ``None`` unless the group is ``heat``.
    """
    if not group.needs_sampling:
        picks = group.entry_ptr[group.walk_qid]
    else:
        targets = group.walk_qid + rng.random(group.total_walks)
        picks = np.searchsorted(group.entry_cdf, targets, side="right")
        # Guard against q + u rounding up to exactly q + 1 for large q.
        np.minimum(picks, group.entry_ptr[group.walk_qid + 1] - 1, out=picks)
    starts = group.entry_nodes[picks].astype(np.int64, copy=False)
    if group.kind != "heat":
        return starts, None
    return starts, group.entry_hops[picks].astype(np.int64, copy=False)


def _split_group(
    indices: list[int], queries: Sequence[FusedQuery], cap: int
) -> list[list[tuple[int, int]]]:
    """Pack a fuse group into sub-batches of at most ``cap`` walks.

    Unlike the task layer (whose plans pre-chunk their tasks), a fused
    query carries *all* of its walks, so an oversized query is split across
    consecutive sub-batches — walks are i.i.d. given the query, so a split
    changes nothing but the kernel-call boundaries.
    """
    sub_batches: list[list[tuple[int, int]]] = []
    current: list[tuple[int, int]] = []
    current_size = 0
    for index in indices:
        remaining = queries[index].num_walks
        while remaining:
            take = min(remaining, cap - current_size)
            if take == 0:
                sub_batches.append(current)
                current, current_size = [], 0
                continue
            current.append((index, take))
            current_size += take
            remaining -= take
    if current:
        sub_batches.append(current)
    return sub_batches


def run_fused_queries(
    backend: "str | Backend | None",
    graph: "Graph",
    queries: Sequence[FusedQuery],
    rng: np.random.Generator,
    *,
    counters_list: Sequence[OperationCounters | None] | None = None,
    max_fused_walks: int | None = None,
    deadline: Deadline | None = None,
) -> list[np.ndarray]:
    """Execute ``queries`` on ``graph``, fusing compatible queries per kernel call.

    Queries group by :meth:`FusedQuery.fuse_key`; each group runs one
    kernel call per ≤``max_fused_walks``-walk sub-batch (restart walks also
    per :func:`repro.engine.restart_chunk`, at most
    :data:`repro.engine.MAX_EXPECTED_STEPS` expected steps a call): draw
    the starts with :func:`sample_fused_starts`, then walk them with the
    backend's own kernel.  Endpoints split back out per query, in order.
    Counters are exact: ``random_walks`` per query, ``walk_steps`` from the
    kernels' per-walk ``step_counts``, and each call's kernel time split by
    walk share.  The optional ``deadline`` is checkpointed before every
    kernel call.
    """
    from repro import engine as engine_module

    engine = get_backend(backend)
    if counters_list is not None and len(counters_list) != len(queries):
        raise ParameterError(
            f"counters_list length {len(counters_list)} != number of "
            f"queries {len(queries)}"
        )
    cap = (
        max_fused_walks
        if max_fused_walks is not None
        else engine_module.WALK_CHUNK_SIZE
    )
    if cap < 1:
        raise ParameterError(f"max_fused_walks must be >= 1, got {cap}")

    groups: dict[tuple, list[int]] = {}
    for index, query in enumerate(queries):
        groups.setdefault(query.fuse_key(), []).append(index)

    pieces: list[list[np.ndarray]] = [[] for _ in queries]
    step_totals = [0] * len(queries)
    for indices in groups.values():
        group_walks = sum(queries[i].num_walks for i in indices)
        first = queries[indices[0]]
        group_cap = (
            restart_chunk(first.alpha, cap) if first.kind == "geometric" else cap
        )
        for slices in _split_group(indices, queries, group_cap):
            if deadline is not None:
                deadline.checkpoint()
            sizes = [count for _, count in slices]
            group = FusedGroup(graph, [queries[i] for i, _ in slices], sizes)
            starts, hops = sample_fused_starts(group, rng)
            slice_counters = [
                counters_list[i] if counters_list is not None else None
                for i, _ in slices
            ]
            slice_ends, steps, scratch = _kernel_call(
                engine, graph, group, starts, hops, rng, sizes,
                want_steps=any(c is not None for c in slice_counters),
            )
            for position, (index, _) in enumerate(slices):
                pieces[index].append(slice_ends[position])
                step_totals[index] += steps[position]
                _merge_extras(
                    slice_counters[position], scratch, sizes[position],
                    group.total_walks,
                )
        if counters_list is not None:
            for index in indices:
                counters = counters_list[index]
                if counters is None:
                    continue
                counters.random_walks += queries[index].num_walks
                counters.walk_steps += step_totals[index]
                counters.extras["fused_kernel"] = True
                if len(indices) > 1:
                    counters.extras["fused_queries"] = len(indices)
                    counters.extras["fused_walks"] = group_walks

    return [
        chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        for chunks in pieces
    ]


def sampled_tasks(
    graph: "Graph", queries: Sequence[FusedQuery], rng: np.random.Generator
) -> list[WalkTask]:
    """``queries``' walks as :class:`~repro.engine.multi.WalkTask`\\ s with
    drawn starts, chunked to :data:`repro.engine.WALK_CHUNK_SIZE`.

    Each chunk is a one-query :class:`FusedGroup` sampled by
    :func:`sample_fused_starts` from ``rng``, so a seed-pinned request
    draws its starts the way its single-query estimator does.
    """
    tasks = []
    for query in queries:
        for batch in chunk_sizes(query.num_walks):
            starts, hops = sample_fused_starts(FusedGroup(graph, [query], [batch]), rng)
            tasks.append(WalkTask(
                query.kind, starts, hop_offsets=hops, weights=query.weights,
                alpha=query.alpha, max_length=query.max_length,
            ))
    return tasks
