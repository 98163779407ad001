"""HK-Push (Algorithm 1) and the layered push every heat-kernel push runs.

HK-Push maintains a *reserve* vector ``q_s`` (a running lower bound of the
HKPR vector) and per-hop *residue* vectors ``r_s^(k)``.  Starting from
``r_s^(0)[s] = 1``, it pushes every entry whose residue exceeds
``r_max * d(v)``: an ``eta(k)/psi(k)`` fraction of it becomes reserve and
the remainder is spread evenly over the node's neighbors at hop ``k + 1``.

The invariant (Lemma 1) is that at any point

    rho_s[v] = q_s[v] + sum_{u,k} r_s^(k)[u] * h_u^(k)[v],

so the residues describe exactly the probability mass that has not yet been
settled; TEA later estimates the second term with random walks.

Residue at hop ``k`` only ever feeds hop ``k + 1``, so hop order is a valid
push order: :func:`layered_push` pushes every above-threshold hop-``k``
entry in one array step, each ``(hop, node)`` once with its full inflow.
Algorithm 1's FIFO of ``(hop, node)`` entries also pops hop by hop, so the
two push the same entries; only the order in which shares are summed
differs.  The same kernel runs HK-Push+ (:mod:`repro.hkpr.hk_push_plus`,
with a hop cap, a push budget and the Theorem-2 exit) and HK-Relax
(:mod:`repro.hkpr.hk_relax`, on the truncated Taylor series).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.graph import Graph, neighbor_rows
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import PoissonWeights, cached_weights
from repro.hkpr.residues import ResidueVectors
from repro.hkpr.result import HKPRResult
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.sparsevec import SparseVector, sum_by_node


@dataclass
class PushOutcome:
    """Reserve and residue state produced by a layered push, and how it ended.

    ``pushes_used`` is the total degree of the pushed entries (Algorithm 4
    charges ``d(v)`` per push round), ``normalized_residue_sum`` the
    Theorem-2 quantity ``sum_k max_u r^(k)[u]/d(u)`` of the returned
    residues (what :meth:`ResidueVectors.max_normalized_sum` would compute),
    and ``satisfied_early_exit`` whether it is at most the exit target.
    """

    reserve: SparseVector
    residues: ResidueVectors
    counters: OperationCounters
    satisfied_early_exit: bool = False
    budget_exhausted: bool = False
    pushes_used: int = 0
    normalized_residue_sum: float = 0.0

    @property
    def max_hop(self) -> int:
        """Largest hop with a non-zero residue (the ``K`` returned by Algorithm 1)."""
        return self.residues.max_nonzero_hop()


def layered_push(
    graph: Graph,
    seed_node: int,
    stops: np.ndarray,
    threshold: float,
    *,
    start_mass: float = 1.0,
    budget: int | None = None,
    exact_budget: bool = False,
    exit_target: float | None = None,
    counters: OperationCounters | None = None,
    deadline: Deadline | None = None,
) -> PushOutcome:
    """Push ``start_mass`` at ``seed_node`` hop by hop; the one heat-kernel push.

    Hop ``k`` pushes, in one array step and in ascending node-id order,
    every entry with ``r^(k)[v] > threshold * d(v)``: a ``stops[k]``
    fraction of it becomes reserve and the rest is spread evenly over the
    node's neighbors at hop ``k + 1``.  An isolated seed settles all of its
    residue at hop 0; every later entry is a neighbor, so it has one.
    Neighbors are read with :func:`~repro.graph.graph.neighbor_rows`,
    so a :class:`~repro.dynamic.delta.DeltaGraph` overlay works unchanged,
    and the shares are summed by target node with
    :func:`~repro.utils.sparsevec.sum_by_node`, which sorts only a hop
    whose targets are sparse in id space.  Each hop's ``r/d`` is computed
    once: its maximum is the hop's Theorem-2 term before the hop is pushed,
    and its kept entries' maximum the term after.  Hops
    ``0 .. len(stops) - 1`` are pushed; residue left at hop ``len(stops)``
    stays (HK-Push+'s hop cap).

    Parameters
    ----------
    stops:
        Per-hop stop fractions (at least one hop); a final 1.0 settles the
        last hop whole.
    threshold:
        Per-degree push threshold.
    start_mass:
        The seed's hop-0 residue (positive).
    budget:
        Push budget in degree units (each pushed entry costs ``d(v)``).
        The hop that reaches it is cut right after the entry that reaches
        it, and the push stops there.  With ``exact_budget`` the budget
        counts recorded pushes: an entry that settles whole costs nothing,
        and the entry that reaches the budget spreads to only as many
        neighbors as the budget has left, so exactly ``budget`` pushes are
        recorded.
    exit_target:
        Stop between hops once the Theorem-2 sum is at most this.
    deadline:
        Optional cooperative :class:`~repro.utils.Deadline`; checked once
        per hop with the hop's pushed degree as the cost.
    """
    if not graph.has_node(seed_node):
        raise ParameterError(f"seed node {seed_node} is not in the graph")
    if len(stops) == 0:
        raise ParameterError("a layered push needs at least one hop")
    counters = counters if counters is not None else OperationCounters()
    if deadline is not None:
        deadline.bind(counters)

    degrees = graph.degrees
    residues = ResidueVectors(len(stops))
    maxima: list[float] = []  # max_u r^(k)[u]/d(u) of each finished hop
    reserve_nodes: list[np.ndarray] = []
    reserve_values: list[np.ndarray] = []
    # The current hop's residues, sorted by node id.
    nodes = np.array([seed_node], dtype=np.int64)
    values = np.array([float(start_mass)])
    if degrees[seed_node] == 0:
        # Only the seed can be isolated (a push target is a neighbor): it
        # settles whole at hop 0 and nothing spreads.
        reserve_nodes.append(nodes)
        reserve_values.append(values)
        maxima.append(0.0)
        nodes, values = nodes[:0], values[:0]
    layer_degrees = degrees[nodes]
    normalized = values / layer_degrees
    current_max = float(normalized.max(initial=0.0))
    pushes_used = 0
    exhausted = False

    for hop, stop_fraction in enumerate(stops.tolist()):
        above = values > threshold * layer_degrees
        pushed = np.flatnonzero(above)
        if pushed.size == 0:
            break
        charges = layer_degrees[pushed]
        if exact_budget and stop_fraction >= 1.0:
            # An exact budget charges only the pushes a round records, so
            # a hop that settles whole is free.
            charges = np.zeros_like(charges)
        spent_through = pushes_used + int(charges.sum())
        if budget is not None and spent_through >= budget:
            # Algorithm 4 charges d(v) per push round and stops after the
            # round that reaches the budget: cut the hop's rounds right
            # after that one.  The rest stay residues.
            spent = pushes_used + np.cumsum(charges)
            cut = int(np.searchsorted(spent, budget))
            above[pushed[cut + 1 :]] = False
            pushed, charges = pushed[: cut + 1], charges[: cut + 1]
            spent_through = int(spent[cut])
            exhausted = True
        if deadline is not None:
            deadline.check(max(spent_through - pushes_used, 1))
        pushes_used = spent_through

        kept = ~above
        residues.set_layer(hop, nodes[kept], values[kept])
        maxima.append(float(normalized[kept].max(initial=0.0)))
        pushed_nodes = nodes[pushed]
        pushed_values = values[pushed]
        reserve_nodes.append(pushed_nodes)
        reserve_values.append(stop_fraction * pushed_values)
        if stop_fraction < 1.0:
            shares = (1.0 - stop_fraction) * pushed_values / charges
            if exact_budget and exhausted:
                # The entry that reached the budget is the last one spread.
                charges[-1] -= spent_through - budget
            targets = neighbor_rows(graph, pushed_nodes, charges)
            counters.record_pushes(targets.size)
            nodes, values = sum_by_node(targets, np.repeat(shares, charges))
        else:
            nodes, values = nodes[:0], values[:0]

        layer_degrees = degrees[nodes]
        normalized = values / layer_degrees
        current_max = float(normalized.max(initial=0.0))
        if exhausted or (
            exit_target is not None and sum(maxima) + current_max <= exit_target
        ):
            break

    residues.set_layer(len(maxima), nodes, values)
    maxima.append(current_max)
    normalized_sum = sum(maxima)
    reserve = SparseVector()
    if reserve_nodes:
        reserve.add_many(np.concatenate(reserve_nodes), np.concatenate(reserve_values))

    counters.residue_entries = max(counters.residue_entries, residues.num_nonzero())
    counters.reserve_entries = max(counters.reserve_entries, reserve.nnz())
    return PushOutcome(
        reserve=reserve,
        residues=residues,
        counters=counters,
        satisfied_early_exit=exit_target is not None and normalized_sum <= exit_target,
        budget_exhausted=exhausted,
        pushes_used=pushes_used,
        normalized_residue_sum=normalized_sum,
    )


def hk_push(
    graph: Graph,
    seed_node: int,
    r_max: float,
    weights: PoissonWeights,
    *,
    counters: OperationCounters | None = None,
    deadline: Deadline | None = None,
) -> PushOutcome:
    """Run HK-Push (Algorithm 1) from ``seed_node`` with residue threshold ``r_max``.

    Parameters
    ----------
    graph:
        The input graph.
    seed_node:
        The seed node ``s``.
    r_max:
        Push any entry with ``r^(k)[v] > r_max * d(v)``.  Smaller values push
        more and leave less residue mass for the random-walk phase.
    weights:
        Poisson weights for the heat constant ``t``.  Beyond their
        truncation hop the stop probability is 1, so the last hop settles
        every entry it pushes.
    deadline:
        Optional cooperative :class:`~repro.utils.Deadline`; checked once
        per hop with the hop's pushed degree as the cost.

    Returns
    -------
    PushOutcome
        The reserve vector ``q_s``, the per-hop residues, and cost counters.
    """
    if r_max <= 0.0:
        raise ParameterError(f"r_max must be positive, got {r_max}")
    return layered_push(
        graph,
        seed_node,
        weights.stop_probability_array(),
        r_max,
        counters=counters,
        deadline=deadline,
    )


def hk_push_hkpr(
    graph: Graph,
    seed_node: int,
    params: HKPRParams,
    *,
    r_max: float | None = None,
    max_pushes: int | None = None,
    deadline: Deadline | None = None,
) -> HKPRResult:
    """HKPR lower bound from HK-Push alone (Algorithm 1, no walk phase).

    The reserve vector HK-Push produces is a deterministic, entry-wise lower
    bound on the HKPR vector whose degree-normalized ordering is already
    sweepable — the push-only ablation of TEA.  The unsettled residue mass
    ``alpha`` is reported in ``counters.extras`` so callers can see how much
    of the diffusion the threshold left uncovered.

    Parameters
    ----------
    r_max:
        Residue threshold.  Defaults to ``eps_r * delta / K`` (``K`` the
        Poisson horizon) — the per-degree threshold HK-Push+ targets — so
        the push cost stays bounded without a walk phase; TEA's cost-
        balancing ``1/(omega t)`` default only makes sense when walks repair
        the remainder.
    max_pushes:
        Optional cap, enforced by raising the threshold to ``1/max_pushes``
        (by Lemma 3 the number of pushes is at most ``1/r_max``).
    """
    start = time.perf_counter()
    weights = cached_weights(params.t)
    threshold = (
        r_max
        if r_max is not None
        else params.absolute_error_target() / max(weights.max_hop, 1)
    )
    if max_pushes is not None:
        if max_pushes < 1:
            raise ParameterError(f"max_pushes must be >= 1, got {max_pushes}")
        threshold = max(threshold, 1.0 / max_pushes)

    counters = OperationCounters()
    outcome = hk_push(
        graph, seed_node, threshold, weights, counters=counters, deadline=deadline
    )
    counters.extras["r_max"] = threshold
    counters.extras["alpha"] = sum(outcome.residues.entry_arrays()[2].tolist())
    return HKPRResult(
        estimates=outcome.reserve,
        seed=seed_node,
        method="hk-push",
        counters=counters,
        elapsed_seconds=time.perf_counter() - start,
    )
