"""TEA (Algorithm 3): two-phase heat kernel approximation.

TEA first runs HK-Push with residue threshold ``r_max`` to obtain a reserve
vector ``q_s`` (a deterministic lower bound on the HKPR vector) and per-hop
residue vectors.  By Lemma 1 the unsettled mass equals

    sum_{u,k} r_s^(k)[u] * h_u^(k)[v],

so TEA estimates it with ``n_r = alpha * omega`` hop-conditioned random
walks (Algorithm 2), where ``alpha`` is the total residue mass and

    omega = 2 (1 + eps_r/3) log(1/p'_f) / (eps_r^2 delta).

Walk starting entries ``(u, k)`` are sampled proportionally to the residues
by inverse CDF (:func:`repro.engine.fused.sample_fused_starts`); each walk
ending at ``v`` adds ``alpha / n_r`` to the estimate.  Theorem 1 shows the
output is (d, eps_r, delta)-approximate with probability at least
``1 - p_f``.

The paper recommends ``r_max = Theta(1 / (omega t))`` so the push and walk
phases cost roughly the same; :func:`repro.hkpr.params.HKPRParams.rmax_tea`
implements that default and callers may override it (the benchmark harness
tunes it per dataset, mirroring §7.3).
"""

from __future__ import annotations

from repro.engine import Backend, get_backend
from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.hk_push import hk_push
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import cached_weights
from repro.hkpr.result import HKPRResult
from repro.hkpr.walk_phase import (
    ResiduePlan,
    residue_query,
    run_residue_walk_phase,
    start_plan,
)
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.rng import RandomState, ensure_rng


def tea_plan(
    graph: Graph,
    seed_node: int,
    params: HKPRParams,
    *,
    r_max: float | None = None,
    max_walks: int | None = None,
    max_pushes: int | None = None,
    deadline: Deadline | None = None,
) -> ResiduePlan:
    """TEA's push phase (Lines 1-11) as a plan: the HK-Push reserve plus
    ``ceil(alpha * omega)`` hop-conditioned walks drawn from the residues
    (see :func:`tea` for the parameters)."""
    started = start_plan(graph, seed_node)
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
    hops, nodes, values = push_outcome.residues.entry_arrays()
    query, increment, alpha = residue_query(
        "heat", nodes, values, omega, max_walks, entry_hops=hops, weights=weights
    )
    counters.extras["alpha"] = alpha
    counters.extras["omega"] = omega
    return ResiduePlan(
        "tea", graph, seed_node, counters, started=started,
        reserve=push_outcome.reserve, query=query, increment=increment,
    )


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
    generator = ensure_rng(rng)
    engine = get_backend(backend)
    plan = tea_plan(
        graph, seed_node, params, r_max=r_max, max_walks=max_walks,
        max_pushes=max_pushes, deadline=deadline,
    )
    plan.counters.extras["backend"] = engine.name
    if plan.query is not None:
        run_residue_walk_phase(plan, engine=engine, rng=generator, deadline=deadline)
    return plan.finalize()
