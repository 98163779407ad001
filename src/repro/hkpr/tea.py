"""TEA (Algorithm 3): two-phase heat kernel approximation.

TEA first runs HK-Push with residue threshold ``r_max`` to obtain a reserve
vector ``q_s`` (a deterministic lower bound on the HKPR vector) and per-hop
residue vectors.  By Lemma 1 the unsettled mass equals

    sum_{u,k} r_s^(k)[u] * h_u^(k)[v],

so TEA estimates it with ``n_r = alpha * omega`` hop-conditioned random
walks (Algorithm 2), where ``alpha`` is the total residue mass and

    omega = 2 (1 + eps_r/3) log(1/p'_f) / (eps_r^2 delta).

Walk starting entries ``(u, k)`` are sampled proportionally to the residues
via an alias structure; each walk ending at ``v`` adds ``alpha / n_r`` to the
estimate.  Theorem 1 shows the output is (d, eps_r, delta)-approximate with
probability at least ``1 - p_f``.

The paper recommends ``r_max = Theta(1 / (omega t))`` so the push and walk
phases cost roughly the same; :func:`repro.hkpr.params.HKPRParams.rmax_tea`
implements that default and callers may override it (the benchmark harness
tunes it per dataset, mirroring §7.3).
"""

from __future__ import annotations

import math
import time

from repro.engine import Backend, get_backend
from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.hk_push import hk_push
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import cached_weights
from repro.hkpr.result import HKPRResult
from repro.hkpr.walk_phase import run_residue_walk_phase
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.rng import RandomState, ensure_rng


def tea(
    graph: Graph,
    seed_node: int,
    params: HKPRParams,
    *,
    r_max: float | None = None,
    rng: RandomState = None,
    max_walks: int | None = None,
    max_pushes: int | None = None,
    backend: str | Backend | None = None,
    deadline: Deadline | None = None,
) -> HKPRResult:
    """Estimate the HKPR vector of ``seed_node`` with TEA (Algorithm 3).

    Parameters
    ----------
    graph, seed_node, params:
        The (d, eps_r, delta, p_f) query.
    r_max:
        HK-Push residue threshold; defaults to ``1 / (omega * t)`` (§4.2).
    rng:
        Seed or generator for the walk phase.
    max_walks:
        Optional safety cap on the number of walks (guarantee waived when it
        triggers); ``None`` means use the full theory-driven count.
    max_pushes:
        Optional cap on the push phase.  By Lemma 3 the number of pushes is
        at most ``1 / r_max``, so the cap is enforced by raising the residue
        threshold to ``1 / max_pushes`` when the default would exceed it.
        This mirrors the paper's §7.3 protocol of re-tuning ``r_max`` per
        dataset to balance the two phases.
    backend:
        Execution backend for the walk phase (name, instance, or ``None``
        for the process default; see :mod:`repro.engine`).
    deadline:
        Optional cooperative :class:`~repro.utils.Deadline`, threaded
        through both the push loop and the chunked walk phase.

    Returns
    -------
    HKPRResult
    """
    if not graph.has_node(seed_node):
        raise ParameterError(f"seed node {seed_node} is not in the graph")
    generator = ensure_rng(rng)
    engine = get_backend(backend)
    start = time.perf_counter()

    weights = cached_weights(params.t)
    omega = params.omega_tea(graph)
    threshold = r_max if r_max is not None else params.rmax_tea(graph)
    if max_pushes is not None:
        if max_pushes < 1:
            raise ParameterError(f"max_pushes must be >= 1, got {max_pushes}")
        threshold = max(threshold, 1.0 / max_pushes)

    counters = OperationCounters()
    push_outcome = hk_push(
        graph, seed_node, threshold, weights, counters=counters, deadline=deadline
    )
    estimates = push_outcome.reserve
    residues = push_outcome.residues

    hops, nodes, values = residues.entry_arrays()
    alpha = sum(values.tolist())
    counters.extras["alpha"] = alpha
    counters.extras["omega"] = omega
    counters.extras["backend"] = engine.name

    if alpha > 0.0:
        num_walks = int(math.ceil(alpha * omega))
        if max_walks is not None:
            num_walks = min(num_walks, max_walks)
        if num_walks > 0:
            run_residue_walk_phase(
                graph,
                (hops, nodes, values),
                num_walks,
                alpha / num_walks,
                engine=engine,
                weights=weights,
                rng=generator,
                estimates=estimates,
                counters=counters,
                deadline=deadline,
            )

    counters.reserve_entries = max(counters.reserve_entries, estimates.nnz())
    elapsed = time.perf_counter() - start
    return HKPRResult(
        estimates=estimates,
        seed=seed_node,
        method="tea",
        counters=counters,
        elapsed_seconds=elapsed,
    )
