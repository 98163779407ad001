"""FORA-style personalized PageRank estimation (Wang et al., KDD 2017).

FORA is the PPR algorithm TEA generalizes (§6): run the forward push until
the residues are small, then cover the remaining mass

    pi_s[v] - p[v] = sum_u r[u] * pi_u[v]

with geometric-length random walks whose starting nodes are sampled
proportionally to the residues.  Because PPR walks are memoryless, a single
residue vector suffices and each walk simply restarts with probability
``alpha`` at every step — no hop bookkeeping is needed, unlike
:func:`repro.hkpr.tea.tea`.

Implemented here so the HKPR-vs-PPR comparison the paper draws analytically
can also be made empirically on the same substrate.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.engine import Backend, get_backend, restart_chunk
from repro.engine.fused import FusedQuery
from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.params import checked_walk_ratio, default_delta
from repro.hkpr.result import HKPRResult
from repro.hkpr.walk_phase import (
    ResiduePlan,
    answer_many,
    residue_query,
    run_residue_walk_phase,
    start_plan,
)
from repro.ppr.push import forward_push
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.rng import RandomState, ensure_rng


def walk_count(graph: Graph, eps_r: float, delta: float, p_f: float) -> int:
    """FORA's theory-driven number of walks ``omega`` (Chernoff-based)."""
    if not 0.0 < eps_r < 1.0 or not 0.0 < delta < 1.0 or not 0.0 < p_f < 1.0:
        raise ParameterError("eps_r, delta and p_f must all lie in (0, 1)")
    n = max(graph.num_nodes, 2)
    omega = checked_walk_ratio(
        (2.0 * eps_r / 3.0 + 2.0) * math.log(2.0 * n / p_f),
        eps_r**2 * delta,
        f"eps_r ({eps_r:g}) or delta ({delta:g})",
    )
    return max(1, int(math.ceil(omega)))


def monte_carlo_ppr_plan(
    graph: Graph,
    seed_node: int,
    *,
    alpha: float = 0.15,
    num_walks: int = 10_000,
    deadline: Deadline | None = None,
) -> ResiduePlan:
    """Plain Monte-Carlo PPR as a plan: ``num_walks`` restart walks from
    the seed, each adding ``1 / num_walks`` at its endpoint.  There is no
    push, so the ``deadline`` only gets the plan's counters for
    partial-work accounting.
    """
    started = start_plan(graph, seed_node)
    if num_walks < 1:
        raise ParameterError(f"num_walks must be >= 1, got {num_walks}")
    restart_chunk(alpha)  # refuses alpha below MIN_RESTART_ALPHA
    counters = OperationCounters()
    if deadline is not None:
        deadline.bind(counters)
    query = FusedQuery("geometric", [seed_node], [1.0], num_walks, alpha=alpha)
    return ResiduePlan(
        "mc-ppr", graph, seed_node, counters, started=started,
        query=query, increment=1.0 / num_walks,
    )


def monte_carlo_ppr(
    graph: Graph,
    seed_node: int,
    *,
    alpha: float = 0.15,
    num_walks: int = 10_000,
    rng: RandomState = None,
    backend: str | Backend | None = None,
    deadline: Deadline | None = None,
) -> HKPRResult:
    """Plain Monte-Carlo PPR: the fraction of restart walks ending at each node.

    ``alpha`` must be at least :data:`repro.engine.MIN_RESTART_ALPHA`; the
    walks run in :func:`repro.engine.restart_chunk` batches with a deadline
    checkpoint before each.  The result is labelled ``"mc-ppr"``, the
    method's registry name.
    """
    generator = ensure_rng(rng)
    engine = get_backend(backend)
    plan = monte_carlo_ppr_plan(
        graph, seed_node, alpha=alpha, num_walks=num_walks, deadline=deadline
    )
    plan.counters.extras["backend"] = engine.name
    run_residue_walk_phase(plan, engine=engine, rng=generator, deadline=deadline)
    return plan.finalize()


def monte_carlo_ppr_many(
    graph: Graph,
    seeds: Sequence[int],
    *,
    alpha: float = 0.15,
    num_walks: int = 10_000,
    rng: RandomState = None,
    backend: str | Backend | None = None,
) -> dict[int, HKPRResult]:
    """Monte-Carlo PPR for every seed in ``seeds``, walks fused per batch
    (:func:`repro.hkpr.walk_phase.answer_many`)."""
    return answer_many(
        graph, seeds,
        lambda seed: monte_carlo_ppr_plan(
            graph, seed, alpha=alpha, num_walks=num_walks
        ),
        rng=rng, backend=backend,
    )


def fora_plan(
    graph: Graph,
    seed_node: int,
    *,
    alpha: float = 0.15,
    eps_r: float = 0.5,
    delta: float | None = None,
    p_f: float = 1e-6,
    r_max: float | None = None,
    max_walks: int | None = None,
    deadline: Deadline | None = None,
) -> ResiduePlan:
    """FORA's forward push as a plan: its reserve plus
    ``ceil(r_sum * omega)`` restart walks drawn from the residue (see
    :func:`fora` for the parameters)."""
    started = start_plan(graph, seed_node)
    restart_chunk(alpha)  # refuses alpha below MIN_RESTART_ALPHA
    effective_delta = delta if delta is not None else default_delta(graph)
    omega = walk_count(graph, eps_r, effective_delta, p_f)
    if r_max is None:
        m = max(graph.num_edges, 1)
        balanced = math.sqrt(
            eps_r**2 * effective_delta / (m * math.log(2.0 * graph.num_nodes / p_f))
        )
        r_max = min(balanced, 1.0 / omega) if omega > 0 else balanced
        r_max = max(r_max, 1e-12)

    counters = OperationCounters()
    counters.extras["omega"] = float(omega)
    push_outcome = forward_push(
        graph, seed_node, alpha=alpha, r_max=r_max, counters=counters,
        deadline=deadline,
    )
    query, increment, mass = residue_query(
        "geometric", *push_outcome.residue.arrays(), omega, max_walks, alpha=alpha
    )
    counters.extras["alpha_mass"] = mass
    return ResiduePlan(
        "fora", graph, seed_node, counters, started=started,
        reserve=push_outcome.reserve, query=query, increment=increment,
    )


def fora(
    graph: Graph,
    seed_node: int,
    *,
    alpha: float = 0.15,
    eps_r: float = 0.5,
    delta: float | None = None,
    p_f: float = 1e-6,
    r_max: float | None = None,
    rng: RandomState = None,
    max_walks: int | None = None,
    backend: str | Backend | None = None,
    deadline: Deadline | None = None,
) -> HKPRResult:
    """Estimate the PPR vector of ``seed_node`` with FORA (push + walks).

    Parameters
    ----------
    alpha:
        Teleport probability, at least
        :data:`repro.engine.MIN_RESTART_ALPHA`.
    eps_r, delta, p_f:
        Relative-error target, significance threshold (default ``1/n``) and
        failure probability — the same roles as in the HKPR estimators.
    r_max:
        Push threshold; defaults to the cost-balancing choice
        ``sqrt(eps_r^2 * delta / (m * log(2n/p_f)))`` from the FORA paper,
        clamped to at most ``1/omega``.
    max_walks:
        Optional safety cap on the number of walks.
    backend:
        Execution backend for the walk phase (name, instance, or ``None``
        for the process default; see :mod:`repro.engine`).
    deadline:
        Optional cooperative :class:`~repro.utils.Deadline`, threaded
        through the push phase and the chunked walk phase.
    """
    generator = ensure_rng(rng)
    engine = get_backend(backend)
    plan = fora_plan(
        graph, seed_node, alpha=alpha, eps_r=eps_r, delta=delta, p_f=p_f,
        r_max=r_max, max_walks=max_walks, deadline=deadline,
    )
    plan.counters.extras["backend"] = engine.name
    if plan.query is not None:
        run_residue_walk_phase(plan, engine=engine, rng=generator, deadline=deadline)
    return plan.finalize()
