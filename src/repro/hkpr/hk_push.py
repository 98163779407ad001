"""HK-Push (Algorithm 1): deterministic multi-hop residue push.

HK-Push maintains a *reserve* vector ``q_s`` (a running lower bound of the
HKPR vector) and per-hop *residue* vectors ``r_s^(k)``.  Starting from
``r_s^(0)[s] = 1``, it repeatedly picks an entry whose residue exceeds
``r_max * d(v)``, converts an ``eta(k)/psi(k)`` fraction of it into reserve,
and spreads the remainder evenly over the node's neighbors at hop ``k + 1``.

The invariant (Lemma 1) is that at any point

    rho_s[v] = q_s[v] + sum_{u,k} r_s^(k)[u] * h_u^(k)[v],

so the residues describe exactly the probability mass that has not yet been
settled; TEA later estimates the second term with random walks.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import PoissonWeights
from repro.hkpr.residues import ResidueVectors
from repro.hkpr.result import HKPRResult
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.sparsevec import SparseVector


@dataclass
class PushOutcome:
    """Reserve and residue state produced by a push procedure."""

    reserve: SparseVector
    residues: ResidueVectors
    counters: OperationCounters

    @property
    def max_hop(self) -> int:
        """Largest hop with a non-zero residue (the ``K`` returned by Algorithm 1)."""
        return self.residues.max_nonzero_hop()


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
        Poisson weights for the heat constant ``t``.
    deadline:
        Optional cooperative :class:`~repro.utils.Deadline`; checked once
        per pushed frontier node with the node's degree as the cost.

    Returns
    -------
    PushOutcome
        The reserve vector ``q_s``, the per-hop residues, and cost counters.
    """
    if not graph.has_node(seed_node):
        raise ParameterError(f"seed node {seed_node} is not in the graph")
    if r_max <= 0.0:
        raise ParameterError(f"r_max must be positive, got {r_max}")
    counters = counters if counters is not None else OperationCounters()
    if deadline is not None:
        deadline.bind(counters)

    reserve = SparseVector()
    residues = ResidueVectors()
    residues.set(0, seed_node, 1.0)

    # FIFO frontier of (hop, node) entries that may exceed the threshold.
    # An entry can be en-queued at most once while it is above threshold;
    # `queued` prevents duplicates.
    frontier: deque[tuple[int, int]] = deque([(0, seed_node)])
    queued: set[tuple[int, int]] = {(0, seed_node)}
    # Beyond this hop the Poisson tail is negligible: pushing there would
    # convert essentially the full residue into reserve anyway.
    hop_limit = weights.max_hop

    while frontier:
        hop, node = frontier.popleft()
        queued.discard((hop, node))
        degree = graph.degree(node)
        residue = residues.get(hop, node)
        if residue <= r_max * degree or residue <= 0.0:
            continue
        if deadline is not None:
            deadline.check(max(degree, 1))

        stop_fraction = weights.stop_probability(hop)
        reserve.add(node, stop_fraction * residue)
        residues.clear(hop, node)
        leftover = (1.0 - stop_fraction) * residue
        if leftover > 0.0 and degree > 0 and hop + 1 <= hop_limit:
            share = leftover / degree
            next_hop = hop + 1
            for neighbor in graph.neighbors(node):
                neighbor = int(neighbor)
                new_residue = residues.add(next_hop, neighbor, share)
                counters.record_pushes(1)
                key = (next_hop, neighbor)
                if (
                    new_residue > r_max * graph.degree(neighbor)
                    and key not in queued
                ):
                    frontier.append(key)
                    queued.add(key)
        elif leftover > 0.0:
            # Either the node is isolated or we are past the Poisson horizon;
            # the surviving walk mass would stop here, so settle it as reserve.
            reserve.add(node, leftover)

    counters.residue_entries = max(counters.residue_entries, residues.num_nonzero())
    counters.reserve_entries = max(counters.reserve_entries, reserve.nnz())
    return PushOutcome(reserve=reserve, residues=residues, counters=counters)


def hk_push_hkpr(
    graph: Graph,
    seed_node: int,
    params: HKPRParams,
    *,
    r_max: float | None = None,
    max_pushes: int | None = None,
    rng: object = None,  # accepted for interface uniformity; unused
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
    weights = PoissonWeights(params.t)
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
