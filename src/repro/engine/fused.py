"""Fused push→walk execution: residue sampling and walks in one kernel pass.

The unfused pipeline answers a batch of queries in two stages with a Python
re-entry per query between them: each plan samples its walk starts from its
push phase's residue vector (an :class:`~repro.hkpr.alias.AliasSampler`
build plus a chunked ``sample_indices`` loop, per query), and only then do
the assembled :class:`~repro.engine.multi.WalkTask`\\ s fuse into shared
kernel calls.  This module removes that re-entry: a query's walk phase is
described *symbolically* as a :class:`FusedQuery` (its residue entries,
their weights, and a walk count), compatible queries concatenate into one
:class:`FusedGroup`, and a single backend kernel both samples every walk's
start from its query's residue distribution (inverse-CDF over an
offset-concatenated cumulative table) and runs the walk — one pass over
the CSR arrays, zero per-query Python.

Backends advertise the capability with ``supports_fused = True`` and a
``fused_push_walk(graph, group, rng, *, want_steps=False)`` method
returning ``(ends, per_walk_steps)``.  The capability is *optional* — it
is deliberately not part of the :class:`~repro.engine.Backend` protocol,
so scalar/reference backends remain valid backends and
:func:`~repro.engine.multi.execute_plans` falls back to the task path
whenever the resolved backend lacks it (or fusion is disabled via
``$REPRO_DISABLE_FUSED`` / :func:`set_fusion_enabled`).

Determinism contract: a fused batch is a pure function of
``(backend, rng state, ordered query list, fusion cap)``.  The start of
walk ``w`` of query ``q`` follows exactly the query's normalized residue
distribution (the statistical parity suite verifies this against the
exact law), and each backend's one-pass kernel is byte-identical to
running its own two-pass split (sample starts, then walk from those
starts) with the same seed — the property the byte-parity tests pin down.
Fused results legitimately differ bytewise from the alias-sampled unfused
path (different draw sequence, same distribution), which is why the
service keeps seed-pinned requests on the unfused task route.
"""

from __future__ import annotations

import os
import time
from collections.abc import Sequence
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import obs
from repro.engine import Backend, as_int_array, get_backend, restart_chunk
from repro.exceptions import ParameterError
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline

if TYPE_CHECKING:
    from repro.graph.graph import Graph
    from repro.hkpr.poisson import PoissonWeights

#: Kernel kinds a :class:`FusedQuery` may request (mirrors
#: :data:`repro.engine.multi.TASK_KINDS`).
FUSED_KINDS = ("heat", "poisson", "geometric")

#: Environment variable that disables fused execution when set to 1/true/yes.
DISABLE_ENV_VAR = "REPRO_DISABLE_FUSED"

_fusion_override: bool | None = None


def fusion_enabled() -> bool:
    """Whether :func:`~repro.engine.multi.execute_plans` may route through
    fused kernels (subject to backend capability)."""
    if _fusion_override is not None:
        return _fusion_override
    return os.environ.get(DISABLE_ENV_VAR, "").strip().lower() not in (
        "1", "true", "yes",
    )


def set_fusion_enabled(enabled: bool | None) -> None:
    """Force fusion on/off for this process; ``None`` restores the env rule."""
    global _fusion_override
    _fusion_override = enabled


@contextmanager
def fusion_disabled():
    """Temporarily run every plan through the unfused task path (benchmarks
    time the fused/unfused ratio through this, via public entry points)."""
    global _fusion_override
    previous = _fusion_override
    _fusion_override = False
    try:
        yield
    finally:
        _fusion_override = previous


def supports_fused(backend: Any) -> bool:
    """Whether ``backend`` implements the optional fused capability."""
    return bool(getattr(backend, "supports_fused", False)) and callable(
        getattr(backend, "fused_push_walk", None)
    )


class FusedQuery:
    """One query's walk phase, reduced to data a fused kernel can consume.

    ``entry_nodes``/``entry_weights`` describe the residue distribution the
    walk starts are drawn from (for plans whose walks all start at the seed
    node, a single entry of weight 1).  ``num_walks`` walks are run, each
    picking its start independently from that distribution.  Kind-specific
    parameters mirror :class:`~repro.engine.multi.WalkTask`: ``heat`` needs
    ``weights`` and per-entry ``entry_hops``, ``poisson`` needs ``weights``
    (plus optional ``max_length``), ``geometric`` needs ``alpha``.
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
        if self.entry_nodes.size == 0:
            raise ParameterError("fused query needs at least one entry node")
        self.entry_weights = np.atleast_1d(
            np.asarray(entry_weights, dtype=np.float64)
        )
        if self.entry_weights.shape != self.entry_nodes.shape:
            raise ParameterError(
                f"entry_weights shape {self.entry_weights.shape} != "
                f"entry_nodes shape {self.entry_nodes.shape}"
            )
        if not np.all(np.isfinite(self.entry_weights)) or np.any(
            self.entry_weights <= 0.0
        ):
            raise ParameterError("entry weights must be positive and finite")
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
    array, no per-query dispatch.  ``walk_qid`` maps each of the
    ``total_walks`` walks back to its query index.
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
        self.needs_sampling = bool((entry_sizes > 1).any())


def sample_fused_starts(
    group: FusedGroup, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray | None]:
    """Vectorized start sampling for a fused group (draw pass of the
    vectorized backend's fused kernel, exposed for two-pass byte-parity).

    Draws ``rng.random(total_walks)`` iff any query has more than one
    residue entry; single-entry groups (e.g. a batch of Monte-Carlo
    queries, whose walks all start at their seed) draw nothing.  Returns
    owned arrays safe to hand to the in-place ``*_validated`` kernels.
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
    """Execute ``queries`` on ``graph`` through fused push+walk kernels.

    The fused analogue of :func:`repro.engine.multi.run_walk_tasks`:
    queries group by :meth:`FusedQuery.fuse_key`, each group runs as one
    ``fused_push_walk`` kernel call per ≤``max_fused_walks``-walk
    sub-batch (restart walks also per :func:`repro.engine.restart_chunk`,
    at most :data:`repro.engine.MAX_EXPECTED_STEPS` expected steps a call),
    and endpoints split back out per query, in order.  Counter
    attribution is exact — fused backends report per-walk step counts.
    The optional ``deadline`` is checkpointed before every kernel call.
    """
    from repro import engine as engine_module

    engine = get_backend(backend)
    from repro.engine.multi import _adapt_graph

    graph = _adapt_graph(graph, engine)
    if not supports_fused(engine):
        raise ParameterError(
            f"backend {getattr(engine, 'name', engine)!r} does not implement "
            f"fused_push_walk"
        )
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
            batch_queries = [queries[i] for i, _ in slices]
            batch_counts = [count for _, count in slices]
            group = FusedGroup(graph, batch_queries, batch_counts)
            want_steps = counters_list is not None and any(
                counters_list[i] is not None for i, _ in slices
            )
            obs_on = obs.enabled()
            kernel_started = time.perf_counter() if obs_on else 0.0
            ends, step_counts = engine.fused_push_walk(
                graph, group, rng, want_steps=want_steps
            )
            if obs_on:
                # The fused kernel serves several queries in one pass, so
                # its wall time is split back out proportionally by each
                # query's walk share (kernel cost is per-walk to first
                # order); the registry series keeps the unsplit total.
                elapsed = time.perf_counter() - kernel_started
                obs.record_kernel(
                    getattr(engine, "name", "backend"),
                    f"fused-{group.kind}",
                    group.total_walks,
                    elapsed,
                )
                if counters_list is not None and group.total_walks:
                    for index, take in slices:
                        slice_counters = counters_list[index]
                        if slice_counters is None:
                            continue
                        share = elapsed * take / group.total_walks
                        slice_counters.extras["kernel_seconds"] = (
                            float(slice_counters.extras.get("kernel_seconds", 0.0))
                            + share
                        )
            if ends.shape != (group.total_walks,):
                raise ParameterError(
                    f"fused backend returned {ends.shape} endpoints for "
                    f"{group.total_walks} walks"
                )
            for position, (index, _) in enumerate(slices):
                lo, hi = group.walk_ptr[position], group.walk_ptr[position + 1]
                pieces[index].append(ends[lo:hi])
                if step_counts is not None:
                    step_totals[index] += int(step_counts[lo:hi].sum())
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
