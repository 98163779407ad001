"""ClusterHKPR (Chung & Simpson, IWOCA 2014) — truncated Monte-Carlo walks.

ClusterHKPR performs ``16 log(n) / eps^3`` random walks from the seed, each
with a Poisson(t)-distributed length *truncated* at a maximum hop ``K``, and
estimates each ``rho_s[v]`` by the fraction of walks ending at ``v``.  With
probability at least ``1 - eps`` it guarantees a relative error of ``eps``
on values above ``eps`` and an absolute error of ``eps`` below.

As §6 of the TEA paper points out, forcing ClusterHKPR to meet the
(d, eps_r, delta) guarantee requires ``eps <= min(eps_r * delta, p_f)``,
which makes the ``1/eps^3`` walk count explode; the benchmark harness sweeps
``eps`` directly (matching the paper's §7.4 protocol).
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine import Backend, get_backend
from repro.engine.fused import FusedQuery
from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.params import HKPRParams, checked_walk_ratio
from repro.hkpr.poisson import cached_weights
from repro.hkpr.result import HKPRResult
from repro.hkpr.walk_phase import ResiduePlan, run_residue_walk_phase, start_plan
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.rng import RandomState, ensure_rng


#: The most walks one query can count: the walk counters are ``int64``.
MAX_WALKS = int(np.iinfo(np.int64).max)


def default_walk_count(n: int, eps: float) -> int:
    """The walk count ``16 log(n) / eps^3`` prescribed by Chung & Simpson.

    Raises :class:`ParameterError` when the count is not finite or exceeds
    :data:`MAX_WALKS`.  The default ``eps = min(eps_r * delta, p_f)`` is
    at most ``p_f`` = 1e-6, which asks for at least 1.1e19 walks on any
    graph, so a default query fails at once instead of never returning.
    """
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    culprits = f"eps ({eps:g}; it defaults to min(eps_r * delta, p_f))"
    count = checked_walk_ratio(16.0 * math.log(max(n, 2)), eps**3, culprits)
    if count > MAX_WALKS:
        raise ParameterError(
            f"walk count 16 log(n) / eps^3 = {count:.3g} exceeds {MAX_WALKS:.3g}, "
            f"the most the walk counters hold; raise {culprits} or pass num_walks"
        )
    return max(1, int(math.ceil(count)))


def default_max_hop(t: float, eps: float) -> int:
    """Truncation hop ``K`` — large enough that the ignored tail mass is < eps.

    Chung & Simpson truncate walks at ``K = O(log(1/eps) / log log(1/eps))``
    scaled by the heat constant; we use the direct criterion (smallest hop
    whose Poisson tail is below ``eps``), which matches the intent and is
    well defined for every ``t``.
    """
    weights = cached_weights(t)
    for k in range(weights.max_hop + 1):
        if weights.tail_mass_beyond(k) < eps:
            return max(1, k)
    return weights.max_hop


def cluster_hkpr_plan(
    graph: Graph,
    seed_node: int,
    params: HKPRParams,
    *,
    eps: float | None = None,
    num_walks: int | None = None,
    max_hop: int | None = None,
    deadline: Deadline | None = None,
) -> ResiduePlan:
    """ClusterHKPR as a plan: ``num_walks`` Poisson(t) walks from the seed,
    truncated at hop ``K`` (``max_length = K``), each adding
    ``1 / num_walks`` at its endpoint.  There is no push, so the
    ``deadline`` only gets the plan's counters for partial-work accounting.
    """
    started = start_plan(graph, seed_node)
    eps_value = eps if eps is not None else min(params.eps_r * params.delta, params.p_f)
    if not 0.0 < eps_value < 1.0:
        raise ParameterError(f"eps must be in (0, 1), got {eps_value}")
    walks = num_walks if num_walks is not None else default_walk_count(
        graph.num_nodes, eps_value
    )
    hop_cap = max_hop if max_hop is not None else default_max_hop(params.t, eps_value)

    counters = OperationCounters()
    counters.extras["eps"] = eps_value
    counters.extras["max_hop"] = float(hop_cap)
    if deadline is not None:
        deadline.bind(counters)
    query = FusedQuery(
        "poisson", [seed_node], [1.0], walks,
        weights=cached_weights(params.t), max_length=hop_cap,
    )
    return ResiduePlan(
        "cluster-hkpr", graph, seed_node, counters, started=started,
        query=query, increment=1.0 / walks,
    )


def cluster_hkpr(
    graph: Graph,
    seed_node: int,
    params: HKPRParams,
    *,
    eps: float | None = None,
    rng: RandomState = None,
    num_walks: int | None = None,
    max_hop: int | None = None,
    backend: str | Backend | None = None,
    deadline: Deadline | None = None,
) -> HKPRResult:
    """Estimate the HKPR vector of ``seed_node`` with ClusterHKPR.

    Parameters
    ----------
    eps:
        ClusterHKPR's single accuracy knob.  Defaults to
        ``min(eps_r * delta, p_f)``, the setting required for a
        (d, eps_r, delta) guarantee (see §6), but the benchmark harness
        normally passes the swept values {0.005 ... 0.1} directly.
    num_walks, max_hop:
        Overrides for the theory-driven walk count and truncation hop.
    backend:
        Execution backend for the walks (name, instance, or ``None`` for
        the process default; see :mod:`repro.engine`).
    """
    generator = ensure_rng(rng)
    engine = get_backend(backend)
    plan = cluster_hkpr_plan(
        graph, seed_node, params, eps=eps, num_walks=num_walks,
        max_hop=max_hop, deadline=deadline,
    )
    plan.counters.extras["backend"] = engine.name
    run_residue_walk_phase(plan, engine=engine, rng=generator, deadline=deadline)
    return plan.finalize()
