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

The push runs one hop at a time.  Pushing hop ``k`` only ever creates
hop-``k+1`` residue, so every above-threshold hop-``k`` entry is pushed in
one array step: their neighbours are gathered through the walk kernels'
batch accessor (so a :class:`~repro.dynamic.delta.DeltaGraph` overlay works
unchanged) and the shares are scatter-added with ``np.unique`` +
``np.bincount``.  The budget is cut exactly inside a hop, taking its
entries in ascending node-id order, and the Theorem-2 test runs between
hops on per-hop maxima kept as the push goes, so it never rescans the
residues.  Residue layers come out in node-id order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.hk_push import PushOutcome
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import PoissonWeights
from repro.hkpr.residues import ResidueVectors, max_normalized
from repro.hkpr.result import HKPRResult
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.sparsevec import SparseVector


@dataclass
class PushPlusOutcome(PushOutcome):
    """HK-Push+ outcome: a :class:`PushOutcome` plus its termination state.

    ``normalized_residue_sum`` is the Theorem-2 quantity
    ``sum_k max_u r^(k)[u]/d(u)`` of the returned residues (what
    :meth:`ResidueVectors.max_normalized_sum` would compute), and
    ``satisfied_early_exit`` says whether it is at most ``eps_r * delta``.
    """

    satisfied_early_exit: bool = False
    budget_exhausted: bool = False
    pushes_used: int = 0
    normalized_residue_sum: float = 0.0


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
) -> PushPlusOutcome:
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
    PushPlusOutcome
    """
    if not graph.has_node(seed_node):
        raise ParameterError(f"seed node {seed_node} is not in the graph")
    if eps_r <= 0 or delta <= 0:
        raise ParameterError("eps_r and delta must be positive")
    if max_hop < 1:
        raise ParameterError(f"max_hop must be >= 1, got {max_hop}")
    if push_budget < 1:
        raise ParameterError(f"push budget must be >= 1, got {push_budget}")
    counters = counters if counters is not None else OperationCounters()
    if deadline is not None:
        deadline.bind(counters)

    # Deferred: repro.engine imports this package while it initializes.
    from repro.engine.vectorized import neighbor_rows

    absolute_target = eps_r * delta
    push_threshold_per_degree = absolute_target / max_hop
    degrees = graph.degrees

    residues = ResidueVectors(max_hop)
    maxima: list[float] = []  # max_u r^(k)[u]/d(u) of each finished hop
    reserve_nodes: list[np.ndarray] = []
    reserve_values: list[np.ndarray] = []
    # The current hop's residues, sorted by node id.
    nodes = np.array([seed_node], dtype=np.int64)
    values = np.ones(1)
    current_max = max_normalized(values, degrees[nodes])
    pushes_used = 0
    exhausted = False

    for hop in range(max_hop):
        layer_degrees = degrees[nodes]
        pushed = np.flatnonzero(values > push_threshold_per_degree * layer_degrees)
        if pushed.size == 0:
            break
        # Algorithm 4 charges d(v) per push round and stops after the round
        # that reaches n_p: cut the hop's rounds right after that one.
        spent = pushes_used + np.cumsum(layer_degrees[pushed])
        cut = int(np.searchsorted(spent, push_budget))
        if cut < pushed.size:
            pushed = pushed[: cut + 1]
            exhausted = True
        spent_through = int(spent[pushed.size - 1])
        if deadline is not None:
            deadline.check(max(spent_through - pushes_used, 1))
        pushes_used = spent_through

        pushed_nodes = nodes[pushed]
        pushed_values = values[pushed]
        pushed_degrees = layer_degrees[pushed]
        kept = np.ones(nodes.size, dtype=bool)
        kept[pushed] = False
        residues.set_layer(hop, nodes[kept], values[kept])
        maxima.append(max_normalized(values[kept], layer_degrees[kept]))

        stop_fraction = weights.stop_probability(hop)
        linked = pushed_degrees > 0
        # An isolated node keeps all of its residue as reserve.
        reserve_nodes.append(pushed_nodes)
        reserve_values.append(
            np.where(linked, stop_fraction * pushed_values, pushed_values)
        )
        spread = linked & (stop_fraction < 1.0)
        counts = pushed_degrees[spread]
        shares = (1.0 - stop_fraction) * pushed_values[spread] / counts
        targets = neighbor_rows(graph, pushed_nodes[spread], counts)
        counters.record_pushes(targets.size)
        nodes, inverse = np.unique(targets, return_inverse=True)
        values = np.bincount(inverse, weights=np.repeat(shares, counts))
        current_max = max_normalized(values, degrees[nodes])

        if exhausted or sum(maxima) + current_max <= absolute_target:
            break

    residues.set_layer(len(maxima), nodes, values)
    maxima.append(current_max)
    normalized_sum = sum(maxima)
    reserve = SparseVector()
    if reserve_nodes:
        reserve.add_many(np.concatenate(reserve_nodes), np.concatenate(reserve_values))

    counters.residue_entries = max(counters.residue_entries, residues.num_nonzero())
    counters.reserve_entries = max(counters.reserve_entries, reserve.nnz())
    return PushPlusOutcome(
        reserve=reserve,
        residues=residues,
        counters=counters,
        satisfied_early_exit=normalized_sum <= absolute_target,
        budget_exhausted=exhausted,
        pushes_used=pushes_used,
        normalized_residue_sum=normalized_sum,
    )


def hk_push_plus_hkpr(
    graph: Graph,
    seed_node: int,
    params: HKPRParams,
    *,
    push_budget: int | None = None,
    max_hop: int | None = None,
    rng: object = None,  # accepted for interface uniformity; unused
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
    weights = PoissonWeights(params.t)
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
