"""The parallel execution backend: a persistent multiprocessing worker pool.

Each walk batch is split into one contiguous shard per worker and every
shard runs the :class:`~repro.engine.vectorized.VectorizedBackend` kernels
concurrently in a separate process.  Three design points:

* **Shared CSR arrays.**  A graph's ``indptr`` / ``indices`` / ``degrees``
  arrays are exported once into :class:`multiprocessing.shared_memory`
  segments (and re-used for every subsequent batch on the same graph), so
  workers read the topology without per-batch pickling and the graph is
  held in physical memory once regardless of worker count.  The export
  reads ``graph.compacted()``, so a
  :class:`~repro.dynamic.delta.DeltaGraph` overlay ships its cached
  compaction, while inline shards walk the overlay itself.  The export is
  released when the graph is garbage-collected or evicted from a small LRU
  of recently-used graphs.  Graphs loaded from an ``.rcsr`` container with
  ``mmap=True`` (:mod:`repro.graph.binfmt`) skip the export entirely:
  workers :func:`numpy.memmap` the same file and share its pages through
  the OS page cache, so nothing is copied at all.

* **Reproducible per-worker RNG streams.**  Every kernel call draws a fixed
  amount of entropy from the caller's generator, feeds it into a
  :class:`numpy.random.SeedSequence`, and ``spawn``\\ s one independent child
  stream per worker.  Results are therefore a pure function of
  ``(caller seed, num_workers)`` — the determinism contract is *per
  worker-count* (changing ``num_workers`` re-shards the batch and re-keys
  the streams), exactly as ``WALK_CHUNK_SIZE`` keys the vectorized
  backend's streams.  Empty batches draw nothing.

* **Graceful degradation.**  Batches below ``min_parallel_batch``, a
  single-worker configuration, or environments where pools / shared memory
  are unavailable all execute the *identical* shard plan inline in the
  parent process, so the pooled and inline paths return byte-for-byte
  identical endpoints for the same ``(seed, num_workers)`` pair.

The worker count defaults to ``$REPRO_WALK_WORKERS`` or, failing that, the
number of usable CPUs.  Kernels record it in
``counters.extras["walk_workers"]`` (and the execution path in
``counters.extras["walk_execution"]``) so benchmark rows are attributable.
"""

from __future__ import annotations

import atexit
import itertools
import os
import weakref
from collections import OrderedDict
from multiprocessing import get_all_start_methods, get_context, shared_memory

import numpy as np

from repro.engine.vectorized import (
    _validated_hops,
    _validated_starts,
    geometric_walk_batch_validated,
    poisson_walk_batch_validated,
    walk_batch_validated,
)
from repro.exceptions import ParameterError
from repro.obs import profile_kernel
from repro.utils.counters import OperationCounters

#: Environment variable consulted for the default worker count.
WORKERS_ENV_VAR = "REPRO_WALK_WORKERS"

#: Batches smaller than this run inline: below it, pool round-trip latency
#: exceeds the kernel time of a shard.  Purely a performance knob — the
#: inline path executes the same shard plan, so results do not change.
MIN_PARALLEL_BATCH = 8192

#: Graphs kept exported in shared memory / attached per worker (LRU).
_MAX_CACHED_GRAPHS = 4

_TOKEN_COUNTER = itertools.count()


def default_worker_count() -> int:
    """Worker count from ``$REPRO_WALK_WORKERS`` or the usable CPU count."""
    env = os.environ.get(WORKERS_ENV_VAR)
    if env is not None and env.strip():
        try:
            value = int(env)
        except ValueError:
            raise ParameterError(
                f"${WORKERS_ENV_VAR} must be a positive integer, got {env!r}"
            ) from None
        if value < 1:
            raise ParameterError(
                f"${WORKERS_ENV_VAR} must be a positive integer, got {env!r}"
            )
        return value
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux hosts
        return max(1, os.cpu_count() or 1)


def shard_bounds(total: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` slices splitting ``total`` into shards.

    The first ``total % num_shards`` shards are one element larger
    (``np.array_split`` semantics); shards may be empty when
    ``total < num_shards``.  The plan is a pure function of its arguments,
    which is what makes the pooled and inline paths interchangeable.
    """
    if num_shards < 1:
        raise ParameterError(f"number of shards must be >= 1, got {num_shards}")
    base, extra = divmod(total, num_shards)
    bounds = []
    start = 0
    for i in range(num_shards):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


# ---------------------------------------------------------------------- #
# Parent side: exporting CSR arrays to shared memory
# ---------------------------------------------------------------------- #
class _SharedGraph:
    """Parent-side handle for one graph's CSR arrays in shared memory."""

    __slots__ = ("token", "meta", "_segments")

    def __init__(self, graph) -> None:
        self.token = f"{os.getpid()}-{next(_TOKEN_COUNTER)}"
        self._segments: list[shared_memory.SharedMemory] = []
        arrays = {
            "indptr": graph.indptr,
            "indices": graph.indices,
            "degrees": graph.degrees,
        }
        meta_arrays: dict[str, tuple[str, tuple[int, ...], str]] = {}
        try:
            for key, arr in arrays.items():
                segment = shared_memory.SharedMemory(
                    create=True, size=max(arr.nbytes, 1)
                )
                if arr.size:
                    np.ndarray(arr.shape, arr.dtype, buffer=segment.buf)[:] = arr
                self._segments.append(segment)
                meta_arrays[key] = (segment.name, arr.shape, arr.dtype.str)
        except Exception:
            self.release()
            raise
        self.meta = {
            "kind": "shm",
            "token": self.token,
            "num_nodes": int(graph.num_nodes),
            "arrays": meta_arrays,
        }

    def release(self) -> None:
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover - teardown
                pass
        self._segments = []


#: id(graph) -> (weakref to the graph's CSR anchor array, export handle).
_SHARED_GRAPHS: "OrderedDict[int, tuple[weakref.ref, _SharedGraph]]" = OrderedDict()


def _csr_anchor(graph) -> np.ndarray:
    """The stable array object backing ``graph.indptr`` (views share a base)."""
    view = graph.indptr
    return view.base if view.base is not None else view


def _drop_shared(key: int, token: str) -> None:
    entry = _SHARED_GRAPHS.get(key)
    if entry is not None and entry[1].token == token:
        entry[1].release()
        del _SHARED_GRAPHS[key]


def _mmap_meta(graph) -> dict | None:
    """File-backed meta for a memory-mapped ``.rcsr`` graph, else ``None``.

    Workers re-map the container file directly (see :func:`_attach_csr`),
    so no shared-memory export — and no copy of the CSR arrays — is made.
    """
    backing = getattr(graph, "backing", None)
    if not isinstance(backing, dict) or backing.get("kind") != "mmap":
        return None
    return {
        "kind": "mmap",
        "token": f"mmap:{backing['path']}",
        "num_nodes": int(graph.num_nodes),
        "path": backing["path"],
        "offsets": dict(backing["offsets"]),
        "n": int(backing["n"]),
        "m": int(backing["m"]),
    }


def _shared_meta(graph) -> dict | None:
    """Export ``graph`` (or reuse the cached export); ``None`` if unavailable."""
    meta = _mmap_meta(graph)
    if meta is not None:
        return meta
    key = id(graph)
    anchor = _csr_anchor(graph)
    entry = _SHARED_GRAPHS.get(key)
    if entry is not None:
        ref, shared = entry
        if ref() is anchor:
            _SHARED_GRAPHS.move_to_end(key)
            return shared.meta
        # id() was recycled by a different graph: drop the stale export.
        shared.release()
        del _SHARED_GRAPHS[key]
    try:
        shared = _SharedGraph(graph)
    except Exception:
        return None
    _SHARED_GRAPHS[key] = (weakref.ref(anchor), shared)
    weakref.finalize(anchor, _drop_shared, key, shared.token)
    while len(_SHARED_GRAPHS) > _MAX_CACHED_GRAPHS:
        _, (_, evicted) = _SHARED_GRAPHS.popitem(last=False)
        evicted.release()
    return shared.meta


def _release_all_shared() -> None:
    while _SHARED_GRAPHS:
        _, (_, shared) = _SHARED_GRAPHS.popitem(last=False)
        shared.release()


atexit.register(_release_all_shared)


# ---------------------------------------------------------------------- #
# Worker side: attaching shared CSR arrays
# ---------------------------------------------------------------------- #
class _CSRView:
    """Duck-typed stand-in for :class:`Graph` over attached shared memory.

    Provides exactly what the vectorized kernels touch (``num_nodes``,
    ``degrees`` and the slot pair ``row_starts`` / ``read_slots``).
    """

    __slots__ = ("num_nodes", "indptr", "indices", "degrees", "_segments")

    @property
    def row_starts(self) -> np.ndarray:
        return self.indptr

    def read_slots(self, slots: np.ndarray) -> np.ndarray:
        return self.indices[slots]


_WORKER_GRAPHS: "OrderedDict[str, _CSRView]" = OrderedDict()


def _close_view(view: _CSRView) -> None:  # pragma: no cover - worker-side
    segments = view._segments
    view.indptr = view.indices = view.degrees = None
    view._segments = []
    for segment in segments:
        try:
            segment.close()
        except (BufferError, OSError):
            pass


def _attach_csr(meta: dict) -> _CSRView:  # pragma: no cover - worker-side
    token = meta["token"]
    view = _WORKER_GRAPHS.get(token)
    if view is not None:
        _WORKER_GRAPHS.move_to_end(token)
        return view
    view = _CSRView()
    view.num_nodes = meta["num_nodes"]
    view._segments = []
    if meta.get("kind") == "mmap":
        # Memory-mapped .rcsr graph: map the container file read-only.
        # The parent and every worker share the same page-cache pages, so
        # the topology occupies physical memory once no matter how many
        # processes touch it.
        n, m = meta["n"], meta["m"]
        shapes = {"indptr": (n + 1,), "degrees": (n,), "indices": (2 * m,)}
        for key, offset in meta["offsets"].items():
            setattr(
                view,
                key,
                np.memmap(
                    meta["path"],
                    dtype=np.dtype("<i8"),
                    mode="r",
                    offset=offset,
                    shape=shapes[key],
                ),
            )
    else:
        # Note: attaching registers with the resource tracker, which every
        # multiprocessing child shares with the parent (the tracker fd is
        # inherited), so this is an idempotent set-add; the single
        # unregister happens when the parent unlinks the segment.
        for key, (name, shape, dtype) in meta["arrays"].items():
            segment = shared_memory.SharedMemory(name=name)
            view._segments.append(segment)
            setattr(
                view, key, np.ndarray(shape, np.dtype(dtype), buffer=segment.buf)
            )
    _WORKER_GRAPHS[token] = view
    while len(_WORKER_GRAPHS) > _MAX_CACHED_GRAPHS:
        _, evicted = _WORKER_GRAPHS.popitem(last=False)
        _close_view(evicted)
    return view


# ---------------------------------------------------------------------- #
# Shard execution (identical code inline and in workers)
# ---------------------------------------------------------------------- #
def _execute_shard(graph_like, payload: dict) -> tuple[np.ndarray, int, np.ndarray | None]:
    """Run one shard's walks with its own spawned RNG stream.

    The payload arrays were validated once by the parent (and are either
    disjoint slices of the parent's private copies, inline, or pickled
    copies, pooled), so the shard calls the vectorized kernels' validated
    entry points directly — no second validation scan or copy.  Returns
    the endpoints, the shard's total steps and, when the payload asks for
    them, its per-walk step counts.
    """
    rng = np.random.default_rng(payload["seed"])
    counters = OperationCounters()
    starts = payload["starts"]
    step_counts = np.zeros(starts.size, dtype=np.int64) if payload["steps"] else None
    kernel = payload["kernel"]
    if kernel == "heat":
        ends = walk_batch_validated(
            graph_like, starts, payload["hops"], payload["weights"], rng,
            counters=counters, step_counts=step_counts,
        )
    elif kernel == "poisson":
        ends = poisson_walk_batch_validated(
            graph_like, starts, payload["weights"], rng,
            max_length=payload["max_length"], counters=counters,
            step_counts=step_counts,
        )
    elif kernel == "geometric":
        ends = geometric_walk_batch_validated(
            graph_like, starts, payload["alpha"], rng,
            counters=counters, step_counts=step_counts,
        )
    else:  # pragma: no cover - internal invariant
        raise ValueError(f"unknown shard kernel {kernel!r}")
    return ends, counters.walk_steps, step_counts


def _pool_shard(meta: dict, payload: dict):  # pragma: no cover - worker-side
    return _execute_shard(_attach_csr(meta), payload)


# ---------------------------------------------------------------------- #
# The backend
# ---------------------------------------------------------------------- #
class ParallelBackend:
    """Multiprocessing pool over shared-memory CSR walk kernels."""

    name = "parallel"
    description = (
        "multiprocessing pool running the vectorized kernels on per-worker "
        "shards over shared-memory CSR arrays (deterministic per "
        "(seed, worker count); $REPRO_WALK_WORKERS sets the pool size)"
    )

    def __init__(
        self,
        num_workers: int | None = None,
        *,
        min_parallel_batch: int = MIN_PARALLEL_BATCH,
        start_method: str | None = None,
    ) -> None:
        if num_workers is not None and num_workers < 1:
            raise ParameterError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        if min_parallel_batch < 1:
            raise ParameterError(
                f"min_parallel_batch must be >= 1, got {min_parallel_batch}"
            )
        # Resolved lazily so importing the module never fails on a bogus
        # $REPRO_WALK_WORKERS; the error surfaces on first use instead.
        self._requested_workers = num_workers
        self._num_workers: int | None = None
        self._min_parallel_batch = min_parallel_batch
        self._start_method = start_method
        self._pool = None
        self._pool_failed = False

    @property
    def num_workers(self) -> int:
        """The resolved worker count (env / CPU default applied lazily)."""
        if self._num_workers is None:
            self._num_workers = (
                self._requested_workers
                if self._requested_workers is not None
                else default_worker_count()
            )
        return self._num_workers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelBackend(num_workers={self._requested_workers or 'auto'})"

    # -------------------------------------------------------------- #
    # Pool management
    # -------------------------------------------------------------- #
    def _ensure_pool(self):
        if self._pool is not None:
            return self._pool
        if self._pool_failed:
            return None
        try:
            method = self._start_method
            if method is None and "fork" in get_all_start_methods():
                method = "fork"
            context = get_context(method)
            self._pool = context.Pool(processes=self.num_workers)
        except (OSError, ValueError, ImportError):
            # Sandboxes without semaphores / procfs: run inline forever.
            self._pool_failed = True
            return None
        atexit.register(self.close)
        return self._pool

    def close(self) -> None:
        """Terminate the worker pool (idempotent; a new one is made lazily)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    # -------------------------------------------------------------- #
    # Dispatch
    # -------------------------------------------------------------- #
    def _spawn_seeds(self, rng: np.random.Generator) -> list:
        """One independent child ``SeedSequence`` per worker.

        The entropy is drawn *from the caller's generator*, so for a fixed
        caller seed the whole walk phase is reproducible; spawning exactly
        ``num_workers`` children keys the result to the worker count.
        """
        entropy = [int(x) for x in rng.integers(0, 2**63 - 1, size=4)]
        return np.random.SeedSequence(entropy).spawn(self.num_workers)

    def _run(
        self,
        kernel: str,
        graph,
        start_nodes,
        rng,
        counters,
        step_counts,
        hop_offsets=None,
        **params,
    ) -> np.ndarray:
        """Validate, shard and run one kernel call inline or on the pool.

        ``params`` are the kernel's own parameters (``weights``,
        ``max_length``, ``alpha``), shipped unchanged to every shard.
        """
        starts = _validated_starts(graph, start_nodes)
        total = starts.size
        if total == 0:
            return starts
        hops = _validated_hops(starts, hop_offsets) if kernel == "heat" else None
        seeds = self._spawn_seeds(rng)
        payloads = [
            {
                "kernel": kernel,
                "starts": starts[lo:hi],
                "hops": None if hops is None else hops[lo:hi],
                "steps": step_counts is not None,
                "seed": seeds[i],
                **params,
            }
            for i, (lo, hi) in enumerate(shard_bounds(total, self.num_workers))
            if hi > lo
        ]
        with profile_kernel(self.name, kernel, total, counters):
            use_pool = total >= self._min_parallel_batch and self.num_workers > 1
            # Workers read contiguous CSR; inline shards read ``graph`` as
            # it is, an overlay too, and give the same bytes.
            meta = _shared_meta(graph.compacted()) if use_pool else None
            pool = self._ensure_pool() if meta is not None else None
            if pool is not None:
                results = pool.starmap(
                    _pool_shard, [(meta, payload) for payload in payloads]
                )
                mode = "pool"
            else:
                results = [_execute_shard(graph, payload) for payload in payloads]
                mode = "inline"
        ends = np.concatenate([r[0] for r in results])
        if step_counts is not None:
            step_counts += np.concatenate([r[2] for r in results])
        if counters is not None:
            counters.random_walks += total
            counters.walk_steps += sum(r[1] for r in results)
            counters.extras["walk_workers"] = self.num_workers
            counters.extras["walk_execution"] = mode
        return ends

    # -------------------------------------------------------------- #
    # Kernels
    # -------------------------------------------------------------- #
    def walk_batch(
        self, graph, start_nodes, hop_offsets, weights, rng, *,
        counters=None, step_counts=None,
    ) -> np.ndarray:
        return self._run(
            "heat", graph, start_nodes, rng, counters, step_counts,
            hop_offsets=hop_offsets, weights=weights,
        )

    def poisson_walk_batch(
        self, graph, start_nodes, weights, rng, *,
        max_length=None, counters=None, step_counts=None,
    ) -> np.ndarray:
        return self._run(
            "poisson", graph, start_nodes, rng, counters, step_counts,
            weights=weights, max_length=max_length,
        )

    def geometric_walk_batch(
        self, graph, start_nodes, alpha, rng, *,
        counters=None, step_counts=None,
    ) -> np.ndarray:
        return self._run(
            "geometric", graph, start_nodes, rng, counters, step_counts,
            alpha=alpha,
        )
