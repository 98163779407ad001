"""Pluggable execution backends for the walk phases of every estimator.

The estimators in :mod:`repro.hkpr` and :mod:`repro.ppr` all share the same
hot loop: run many independent random walks and accumulate their endpoints.
How those walks are *executed* is an implementation detail that is
independent of the algorithms' correctness, so it lives behind the
:class:`Backend` protocol:

* ``"reference"`` (:mod:`repro.engine.reference`) — one scalar Python loop
  per walk, delegating to the original per-walk primitives.  Slow but
  trivially auditable against the paper's pseudo-code; the parity baseline
  for every other backend.
* ``"vectorized"`` (:mod:`repro.engine.vectorized`) — level-synchronous
  NumPy kernels that advance *all* pending walks one hop per iteration with
  CSR fancy-indexing.  The default.
* ``"parallel"`` (:mod:`repro.engine.parallel`) — a persistent
  multiprocessing pool running the vectorized kernels on per-worker shards
  over shared-memory CSR arrays, with independent per-worker RNG streams
  spawned via ``np.random.SeedSequence`` (reproducible per
  ``(seed, worker count)``).

A backend must satisfy three invariants (enforced by the parity suite in
``tests/test_engine.py``):

1. **Distributional equivalence** — for every kernel, the returned endpoint
   of each walk follows exactly the distribution of the corresponding
   scalar primitive (hop-conditioned heat kernel walk, Poisson-length walk,
   geometric restart walk).
2. **Counter accounting** — ``counters.random_walks`` increases by the batch
   size and ``counters.walk_steps`` by the total number of traversed edges.
3. **Shape discipline** — the result is an ``int64`` array with one endpoint
   per requested walk, in order; an empty batch returns an empty array and
   draws nothing from ``rng``.

Backends are selected per call (``tea(..., backend="reference")``), per
process (:func:`set_default_backend` or the ``REPRO_BACKEND`` environment
variable), or temporarily (:func:`use_backend`).
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.exceptions import ParameterError

if TYPE_CHECKING:  # imported lazily to keep this module import-cycle free
    from repro.graph.graph import Graph
    from repro.hkpr.poisson import PoissonWeights
    from repro.utils.counters import OperationCounters

#: Environment variable consulted for the initial default backend.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Backend used when neither $REPRO_BACKEND nor set_default_backend chose one.
_FALLBACK_BACKEND = "vectorized"

#: Maximum walks the estimators submit to a kernel per invocation.  Bounds
#: the peak memory of a walk phase (a few int64/float arrays of this length)
#: while keeping each batch large enough to amortize the per-level Python
#: overhead of the vectorized kernels.
WALK_CHUNK_SIZE = 1 << 20


#: Smallest restart probability the geometric kernels accept.  A restart
#: walk is expected to take ``(1 - alpha) / alpha`` steps, and one kernel
#: call runs about ``ln(walks) / alpha`` levels with no deadline checkpoint
#: between them.  At this floor a call cut by :func:`restart_chunk` holds
#: 10,010 walks and runs about 9,000 levels; a single walk at
#: ``alpha = 1e-7`` would run about 10^7.
MIN_RESTART_ALPHA = 1e-3

#: Cap on the expected steps, ``walks * (1 - alpha) / alpha``, of one
#: restart-walk kernel call; :func:`restart_chunk` sizes the calls to fit.
MAX_EXPECTED_STEPS = 10**7


def restart_chunk(alpha: float, chunk: int | None = None) -> int:
    """Most restart walks one kernel call may run at ``alpha``.

    At most ``chunk`` walks (default :data:`WALK_CHUNK_SIZE`, read at call
    time) and at most :data:`MAX_EXPECTED_STEPS` expected steps, but never
    fewer than one walk.  Every restart-walk batch is cut to this size, so
    the deadline checkpoints between kernel calls bound a whole walk phase.
    Raises :class:`ParameterError` for ``alpha`` outside
    ``[MIN_RESTART_ALPHA, 1)``.
    """
    if not MIN_RESTART_ALPHA <= alpha < 1.0:
        raise ParameterError(
            f"restart walks need alpha in [{MIN_RESTART_ALPHA:g}, 1), got {alpha:g}"
        )
    if chunk is None:
        chunk = WALK_CHUNK_SIZE
    return max(1, min(chunk, int(MAX_EXPECTED_STEPS * alpha / (1.0 - alpha))))


def chunk_sizes(total: int, chunk: int | None = None) -> Iterator[int]:
    """Yield batch sizes covering ``total`` walks, each at most ``chunk``.

    ``chunk`` defaults to the module-level :data:`WALK_CHUNK_SIZE` (read at
    call time, so it can be tuned per process).
    """
    if chunk is None:
        chunk = WALK_CHUNK_SIZE
    if chunk < 1:
        raise ParameterError(f"chunk size must be >= 1, got {chunk}")
    remaining = total
    while remaining > 0:
        size = min(remaining, chunk)
        yield size
        remaining -= size


@runtime_checkable
class Backend(Protocol):
    """Execution engine for the random-walk phases of the estimators.

    Beyond the three required kernels, backends may advertise *optional*
    capabilities (deliberately not part of this protocol, so minimal
    backends remain valid):

    * ``supports_step_counts`` — the kernels accept a per-walk
      ``step_counts`` out-array for exact fused-batch accounting.
    * ``supports_fused`` plus ``fused_push_walk(graph, group, rng, *,
      want_steps=False)`` — one-pass fused execution of a multi-query
      group (:mod:`repro.engine.fused`): sample each walk's start from its
      query's residue distribution and run the walk in the same kernel
      call, returning ``(ends, per_walk_steps)``.
      :func:`~repro.engine.multi.execute_plans` routes eligible plans
      through it and falls back to the task path otherwise.
    """

    name: str

    def walk_batch(
        self,
        graph: Graph,
        start_nodes: np.ndarray,
        hop_offsets: np.ndarray,
        weights: PoissonWeights,
        rng: np.random.Generator,
        *,
        counters: OperationCounters | None = None,
    ) -> np.ndarray:
        """Run one hop-conditioned heat kernel walk per entry (Algorithm 2)."""
        ...

    def poisson_walk_batch(
        self,
        graph: Graph,
        start_nodes: np.ndarray,
        weights: PoissonWeights,
        rng: np.random.Generator,
        *,
        max_length: int | None = None,
        counters: OperationCounters | None = None,
    ) -> np.ndarray:
        """Run one Poisson(t)-length walk per entry (Monte-Carlo / ClusterHKPR)."""
        ...

    def geometric_walk_batch(
        self,
        graph: Graph,
        start_nodes: np.ndarray,
        alpha: float,
        rng: np.random.Generator,
        *,
        counters: OperationCounters | None = None,
    ) -> np.ndarray:
        """Run one restart-probability-``alpha`` walk per entry (FORA / PPR)."""
        ...


_BACKENDS: dict[str, Backend] = {}
_default_backend_name: str | None = None


def as_int_array(values) -> np.ndarray:
    """Normalize walk-start / hop-offset input to a 1-D ``int64`` array."""
    return np.atleast_1d(np.asarray(values, dtype=np.int64))


def register_backend(backend: Backend, *, name: str | None = None) -> None:
    """Add ``backend`` to the registry under ``name`` (default: its own name).

    Registering an existing name overwrites it.
    """
    _BACKENDS[name or backend.name] = backend


def unregister_backend(name: str) -> Backend:
    """Remove and return the backend registered under ``name``.

    If ``name`` is the current default, the default resets and is
    re-resolved (env var, then fallback) on next use.  Primarily for tests
    and plugin teardown.
    """
    global _default_backend_name
    if name not in _BACKENDS:
        raise ParameterError(
            f"unknown backend {name!r}; expected one of {available_backends()}"
        )
    if _default_backend_name == name:
        _default_backend_name = None
    return _BACKENDS.pop(name)


def backend_descriptions() -> dict[str, str]:
    """Name -> one-line summary for every registered backend (sorted)."""
    out: dict[str, str] = {}
    for name in available_backends():
        backend = _BACKENDS[name]
        summary = getattr(backend, "description", "")
        if not summary:
            doc = (type(backend).__doc__ or "").strip()
            summary = doc.splitlines()[0] if doc else ""
        out[name] = summary
    return out


def available_backends() -> list[str]:
    """Sorted names of all registered backends."""
    return sorted(_BACKENDS)


def default_backend_name() -> str:
    """Name of the process-wide default backend."""
    global _default_backend_name
    if _default_backend_name is None:
        requested = os.environ.get(BACKEND_ENV_VAR, _FALLBACK_BACKEND)
        if requested not in _BACKENDS:
            raise ParameterError(
                f"unknown backend {requested!r} in ${BACKEND_ENV_VAR}; "
                f"expected one of {available_backends()}"
            )
        _default_backend_name = requested
    return _default_backend_name


def set_default_backend(name: str) -> str:
    """Set the process-wide default backend; returns the previous name."""
    global _default_backend_name
    if name not in _BACKENDS:
        raise ParameterError(
            f"unknown backend {name!r}; expected one of {available_backends()}"
        )
    try:
        previous = default_backend_name()
    except ParameterError:
        # An invalid $REPRO_BACKEND must not stop an explicit override; the
        # documented fallback stands in as "previous" so use_backend() does
        # not permanently install its temporary backend on restore.
        previous = _FALLBACK_BACKEND
    _default_backend_name = name
    return previous


def get_backend(backend: str | Backend | None = None) -> Backend:
    """Resolve a backend argument (name, instance, or ``None`` = default)."""
    if backend is None:
        return _BACKENDS[default_backend_name()]
    if isinstance(backend, str):
        if backend not in _BACKENDS:
            raise ParameterError(
                f"unknown backend {backend!r}; expected one of {available_backends()}"
            )
        return _BACKENDS[backend]
    # A registered instance is the common case (every dispatched batch
    # resolves one): return it before the slow runtime Protocol check.
    if any(backend is registered for registered in _BACKENDS.values()):
        return backend
    # Fail at the call boundary, not deep inside a walk phase: a class
    # (instead of an instance) or an unrelated object are both mistakes a
    # caller should hear about as a ParameterError.
    if isinstance(backend, type) or not isinstance(backend, Backend):
        raise ParameterError(
            f"backend must be a name or a Backend instance, got {backend!r}"
        )
    return backend


@contextmanager
def use_backend(name: str) -> Iterator[Backend]:
    """Temporarily make ``name`` the default backend (tests, benchmarks)."""
    previous = set_default_backend(name)
    try:
        yield _BACKENDS[name]
    finally:
        set_default_backend(previous)


from repro.engine.fused import (  # noqa: E402
    FusedGroup,
    FusedQuery,
    fusion_disabled,
    fusion_enabled,
    run_fused_queries,
    sample_fused_starts,
    set_fusion_enabled,
    supports_fused,
)
from repro.engine.multi import (  # noqa: E402
    WalkPlan,
    WalkTask,
    execute_plans,
    run_walk_tasks,
)
from repro.engine.parallel import ParallelBackend  # noqa: E402
from repro.engine.reference import ReferenceBackend  # noqa: E402
from repro.engine.vectorized import VectorizedBackend  # noqa: E402

register_backend(ReferenceBackend())
register_backend(VectorizedBackend())
register_backend(ParallelBackend())

__all__ = [
    "BACKEND_ENV_VAR",
    "Backend",
    "FusedGroup",
    "FusedQuery",
    "MAX_EXPECTED_STEPS",
    "MIN_RESTART_ALPHA",
    "ParallelBackend",
    "ReferenceBackend",
    "VectorizedBackend",
    "WALK_CHUNK_SIZE",
    "WalkPlan",
    "WalkTask",
    "available_backends",
    "backend_descriptions",
    "chunk_sizes",
    "default_backend_name",
    "execute_plans",
    "fusion_disabled",
    "fusion_enabled",
    "get_backend",
    "register_backend",
    "restart_chunk",
    "run_fused_queries",
    "run_walk_tasks",
    "sample_fused_starts",
    "set_default_backend",
    "set_fusion_enabled",
    "supports_fused",
    "unregister_backend",
    "use_backend",
]
