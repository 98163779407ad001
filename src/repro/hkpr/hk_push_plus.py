"""HK-Push+ (Algorithm 4): budgeted, hop-capped residue push.

HK-Push+ differs from HK-Push (Algorithm 1) in three ways, all aimed at the
(d, eps_r, delta) guarantee rather than an ad-hoc residue threshold:

1. It pushes entries whose residue exceeds ``eps_r * delta / K * d(v)``,
   trying to drive the Theorem-2 quantity
   ``sum_k max_u r^(k)[u]/d(u)`` below ``eps_r * delta``.
2. It stops early once either that condition holds (in which case the
   reserve alone is already (d, eps_r, delta)-approximate) or a push budget
   ``n_p`` is exhausted (the cost of a "push round" on node ``v`` is
   ``d(v)``, matching Line 5 of Algorithm 4).
3. The maximum hop ``K`` is fixed up front (Eq. 20), so the above-threshold
   test never needs re-evaluation when ``K`` would otherwise change.

It runs on HK-Push's layered push (:func:`repro.hkpr.hk_push.layered_push`):
one hop at a time, every above-threshold entry of the hop in one array
step.  The budget is cut exactly inside a hop, taking its entries in
ascending node-id order, and the Theorem-2 test runs between hops on
per-hop maxima kept as the push goes, so it never rescans the residues.
Residue layers come out in node-id order.
"""

from __future__ import annotations

import time

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.hk_push import PushOutcome, layered_push
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import PoissonWeights, cached_weights
from repro.hkpr.result import HKPRResult
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline


def hk_push_plus(
    graph: Graph,
    seed_node: int,
    eps_r: float,
    delta: float,
    max_hop: int,
    push_budget: int,
    weights: PoissonWeights,
    *,
    counters: OperationCounters | None = None,
    deadline: Deadline | None = None,
) -> PushOutcome:
    """Run HK-Push+ (Algorithm 4) from ``seed_node``.

    Parameters
    ----------
    eps_r, delta:
        Error parameters; the push threshold is ``eps_r * delta / max_hop * d(v)``
        and the early-exit target is ``eps_r * delta``.  The early-exit
        condition is tested between hops.
    max_hop:
        The hop cap ``K``; residues are only created for hops ``0..K``.
    push_budget:
        Maximum number of push operations ``n_p`` (each push round on node
        ``v`` accounts for ``d(v)`` operations).  The round that reaches the
        budget still runs, so ``pushes_used - d(last pushed) < n_p``.
    deadline:
        Optional cooperative :class:`~repro.utils.Deadline`; checked once
        per hop with the hop's cost (the pushed nodes' total degree).

    Returns
    -------
    PushOutcome
        With ``satisfied_early_exit`` set when the Theorem-2 sum of the
        returned residues is at most ``eps_r * delta``.
    """
    if eps_r <= 0 or delta <= 0:
        raise ParameterError("eps_r and delta must be positive")
    if max_hop < 1:
        raise ParameterError(f"max_hop must be >= 1, got {max_hop}")
    if push_budget < 1:
        raise ParameterError(f"push budget must be >= 1, got {push_budget}")
    absolute_target = eps_r * delta
    stops = weights.stop_probability_array()[
        np.minimum(np.arange(max_hop), weights.max_hop)
    ]
    return layered_push(
        graph,
        seed_node,
        stops,
        absolute_target / max_hop,
        budget=push_budget,
        exit_target=absolute_target,
        counters=counters,
        deadline=deadline,
    )


def hk_push_plus_hkpr(
    graph: Graph,
    seed_node: int,
    params: HKPRParams,
    *,
    push_budget: int | None = None,
    max_hop: int | None = None,
    deadline: Deadline | None = None,
) -> HKPRResult:
    """HKPR lower bound from HK-Push+ alone (Algorithm 4, no walk phase).

    The budgeted, hop-capped push of TEA+ without its random-walk repair:
    deterministic, sweepable, and — when the Theorem-2 condition holds at
    termination (``early_exit`` on the result) — already
    (d, eps_r, delta)-approximate on its own.

    Parameters
    ----------
    push_budget, max_hop:
        Overrides for ``n_p`` and ``K``; defaults follow Algorithm 5, Line 5
        (``omega * t / 2`` and Eq. 20), exactly as TEA+ uses them.
    """
    start = time.perf_counter()
    weights = cached_weights(params.t)
    budget = (
        push_budget if push_budget is not None else params.push_budget_tea_plus(graph)
    )
    hop_cap = max_hop if max_hop is not None else params.max_hop_tea_plus(graph)

    counters = OperationCounters()
    counters.extras["push_budget"] = float(budget)
    counters.extras["max_hop"] = float(hop_cap)
    outcome = hk_push_plus(
        graph,
        seed_node,
        params.eps_r,
        params.delta,
        hop_cap,
        budget,
        weights,
        counters=counters,
        deadline=deadline,
    )
    counters.extras["pushes_used"] = float(outcome.pushes_used)
    counters.extras["alpha"] = sum(outcome.residues.entry_arrays()[2].tolist())
    return HKPRResult(
        estimates=outcome.reserve,
        seed=seed_node,
        method="hk-push+",
        counters=counters,
        elapsed_seconds=time.perf_counter() - start,
        early_exit=outcome.satisfied_early_exit,
    )
