"""PR-Nibble: personalized-PageRank push local clustering (Andersen et al.).

The classic approximate-PPR push procedure: maintain a reserve ``p`` and a
residual ``r`` with ``r[s] = 1``; while some node has ``r[v] > eps * d(v)``,
move an ``alpha`` fraction of its residual into the reserve, keep half of
the remainder at the node (lazy walk), and spread the other half over its
neighbors.  It runs as FORA's frontier push
(:func:`repro.ppr.push.frontier_push`) with a lazy share of 1/2: every
above-threshold node is pushed at once, round after round.  The reserve
approximates the lazy PPR vector with degree-normalized error ``eps``, and
the usual sweep over ``p[v]/d(v)`` yields the cluster.

Included as a related-work baseline (the paper discusses it in §6 but does
not plot it); it lets users compare heat kernel and PPR diffusions on the
same substrate.
"""

from __future__ import annotations

import time

from repro.baselines.common import BaselineClusteringResult
from repro.clustering.sweep import sweep_cut
from repro.graph.graph import Graph
from repro.hkpr.result import HKPRResult
from repro.ppr.push import frontier_push
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.sparsevec import SparseVector


def approximate_ppr(
    graph: Graph,
    seed: int,
    *,
    alpha: float = 0.15,
    eps: float = 1e-4,
    counters: OperationCounters | None = None,
    deadline: Deadline | None = None,
) -> tuple[SparseVector, SparseVector, int]:
    """Andersen–Chung–Lang lazy push: returns (reserve, residual, pushes).

    When ``counters`` is given, push operations are recorded on it round by
    round (so partial work is visible if a ``deadline`` trips mid-run); the
    optional ``deadline`` is checked once per round with the round's
    pushed degree as the cost.
    """
    outcome = frontier_push(
        graph, seed, alpha, eps, 0.5, counters=counters, deadline=deadline
    )
    return outcome.reserve, outcome.residue, outcome.counters.push_operations


def pr_nibble(
    graph: Graph,
    seed: int,
    *,
    alpha: float = 0.15,
    eps: float = 1e-4,
) -> BaselineClusteringResult:
    """Local clustering by sweeping the approximate PPR vector of ``seed``."""
    start = time.perf_counter()
    diffusion = pr_nibble_hkpr(graph, seed, alpha=alpha, eps=eps)
    sweep = sweep_cut(graph, diffusion)
    elapsed = time.perf_counter() - start
    return BaselineClusteringResult(
        cluster=set(sweep.cluster),
        conductance=sweep.conductance,
        seed=seed,
        method="pr-nibble",
        elapsed_seconds=elapsed,
        work=diffusion.counters.push_operations,
        details={"support_size": float(diffusion.estimates.nnz())},
    )


def pr_nibble_hkpr(
    graph: Graph,
    seed_node: int,
    *,
    alpha: float = 0.15,
    eps: float = 1e-4,
    deadline: Deadline | None = None,
) -> HKPRResult:
    """PR-Nibble's approximate PPR vector in the unified estimator envelope.

    The Andersen–Chung–Lang push reserve, returned as an
    :class:`HKPRResult` so the registry, the sweep cut and the serving
    layer can rank it like any other diffusion vector; :func:`pr_nibble`
    is the sweep cut of this vector.
    """
    start = time.perf_counter()
    counters = OperationCounters()
    reserve, residual, _ = approximate_ppr(
        graph, seed_node, alpha=alpha, eps=eps, counters=counters, deadline=deadline
    )
    # Unsettled push mass; named to avoid colliding with the method's own
    # ``alpha`` (teleport probability) parameter in telemetry.
    counters.extras["residual_mass"] = residual.sum()
    return HKPRResult(
        estimates=reserve,
        seed=seed_node,
        method="pr-nibble",
        counters=counters,
        elapsed_seconds=time.perf_counter() - start,
    )
