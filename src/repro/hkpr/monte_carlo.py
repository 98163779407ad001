"""Plain Monte-Carlo HKPR estimation (the baseline described in §3).

Perform ``n_r`` independent random walks from the seed, each with a
Poisson(t)-distributed length, and estimate ``rho_s[v]`` by the fraction of
walks that end at ``v``.  With

    n_r = 2 (1 + eps_r/3) log(n / p_f) / (eps_r^2 delta)

the Chernoff + union bound argument of §3 gives a (d, eps_r, delta)-
approximate vector with probability at least ``1 - p_f``.  The walk count is
the whole story: there is no push phase, which is why the method is simple
but slow (Figure 4).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.engine import Backend, get_backend
from repro.engine.fused import FusedQuery
from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import cached_weights
from repro.hkpr.result import HKPRResult
from repro.hkpr.walk_phase import (
    ResiduePlan,
    answer_many,
    run_residue_walk_phase,
    start_plan,
)
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.rng import RandomState, ensure_rng


def monte_carlo_plan(
    graph: Graph,
    seed_node: int,
    params: HKPRParams,
    *,
    num_walks: int | None = None,
    deadline: Deadline | None = None,
) -> ResiduePlan:
    """Plain Monte-Carlo HKPR as a plan: ``num_walks`` Poisson(t) walks
    from the seed (the §3 count by default), each adding
    ``1 / num_walks`` at its endpoint.  There is no push, so the
    ``deadline`` only gets the plan's counters for partial-work accounting.
    """
    started = start_plan(graph, seed_node)
    walks = num_walks if num_walks is not None else int(
        math.ceil(params.omega_monte_carlo(graph))
    )
    if walks < 1:
        raise ParameterError(f"number of walks must be >= 1, got {walks}")
    counters = OperationCounters()
    if deadline is not None:
        deadline.bind(counters)
    query = FusedQuery(
        "poisson", [seed_node], [1.0], walks, weights=cached_weights(params.t)
    )
    return ResiduePlan(
        "monte-carlo", graph, seed_node, counters, started=started,
        query=query, increment=1.0 / walks,
    )


def monte_carlo_hkpr(
    graph: Graph,
    seed_node: int,
    params: HKPRParams,
    *,
    rng: RandomState = None,
    num_walks: int | None = None,
    backend: str | Backend | None = None,
    deadline: Deadline | None = None,
) -> HKPRResult:
    """Estimate the HKPR vector of ``seed_node`` with pure Monte-Carlo walks.

    Parameters
    ----------
    graph, seed_node, params:
        The query; ``params.t``, ``eps_r``, ``delta`` and ``p_f`` are used.
    rng:
        Seed or generator for reproducibility.
    num_walks:
        Override the theory-driven walk count.  Useful in tests and in
        benchmark configurations where the full count would be impractical
        in pure Python; when overridden the accuracy guarantee is waived.
    backend:
        Execution backend for the walks (name, instance, or ``None`` for
        the process default; see :mod:`repro.engine`).

    Returns
    -------
    HKPRResult
    """
    generator = ensure_rng(rng)
    engine = get_backend(backend)
    plan = monte_carlo_plan(
        graph, seed_node, params, num_walks=num_walks, deadline=deadline
    )
    plan.counters.extras["backend"] = engine.name
    run_residue_walk_phase(plan, engine=engine, rng=generator, deadline=deadline)
    return plan.finalize()


def monte_carlo_hkpr_many(
    graph: Graph,
    seeds: Sequence[int],
    params: HKPRParams,
    *,
    num_walks: int | None = None,
    rng: RandomState = None,
    backend: str | Backend | None = None,
) -> dict[int, HKPRResult]:
    """Monte-Carlo HKPR for every seed in ``seeds``, walks fused per batch.

    All seeds' walks run through shared ``poisson_walk_batch`` calls, so
    the per-level kernel overhead is paid once per *batch* instead of once
    per *query* (:func:`repro.hkpr.walk_phase.answer_many`).
    """
    return answer_many(
        graph, seeds,
        lambda seed: monte_carlo_plan(graph, seed, params, num_walks=num_walks),
        rng=rng, backend=backend,
    )
