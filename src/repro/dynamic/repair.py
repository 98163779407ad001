"""Incremental repair of push states under edge mutations.

The push procedures (:func:`repro.ppr.push.forward_push`, Algorithm 1's
:func:`repro.hkpr.hk_push.hk_push`) maintain an exact algebraic invariant —
e.g. for PPR

    pi_s[v] = p[v] + sum_u r[u] * pi_u[v]

— where every term a node ``u`` contributed depends *only* on ``u``'s own
adjacency at the moment it pushed.  That locality is what makes cached push
states repairable under updates in the spirit of bounded-update-cost
dynamic query evaluation: when a batch of edges touching nodes ``T``
changes, only the pushes *from* ``T`` encoded stale adjacency; every other
contribution remains exactly valid.

The repair is therefore **undo and replay**:

1. **Undo.**  For each touched node ``u``, reverse every push it ever made
   (the provenance accumulators ``pushed`` / ``settled`` recorded the total
   mass, and the :class:`MutationEvent` lets us reconstruct ``u``'s
   pre-mutation adjacency from the current snapshot): give the mass back to
   ``u``'s residue, take the settled fraction out of the reserve, and pull
   the distributed shares back from the old neighbors.  Each step is the
   exact algebraic inverse of a push, so the invariant keeps holding — now
   with *signed* residues.
2. **Replay.**  Run the push loop on the new graph with the threshold on
   ``|r|``: residues created by the undo (positive at ``u``, negative at
   the old neighbors) drain through the *new* adjacency until every entry
   satisfies ``|r^(k)[v]| <= r_max * d(v)`` again.

Total cost is proportional to the touched neighborhoods, not the graph —
the whole point versus recomputing from scratch.  The repaired state
satisfies the same invariant and the same per-degree residue bound as a
fresh push (with absolute values), so its reserve approximates the new
graph's PPR/HKPR vector within the same ``r_max``-scaled error envelope;
it is *not* bitwise identical to a fresh push, whose different push order
rounds differently.

States must see every epoch: ``repair_*`` validates that the event's
``epoch_before`` matches the state's epoch, so callers replay mutation
events in order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.dynamic.delta import MutationEvent
from repro.exceptions import ParameterError
from repro.hkpr.hk_push import hk_push
from repro.hkpr.poisson import PoissonWeights
from repro.hkpr.residues import ResidueVectors
from repro.ppr.push import forward_push
from repro.utils.counters import OperationCounters
from repro.utils.sparsevec import SparseVector


@dataclass
class DynamicPPRState:
    """A repairable forward-push state pinned to one graph epoch.

    ``reserve`` is the usual lower-bound PPR estimate; ``residue`` may hold
    *signed* entries after a repair (``|r[v]| <= r_max * d(v)`` always).
    ``pushed[u]`` / ``settled[u]`` record the total mass ``u`` distributed /
    settled in place — always under ``u``'s adjacency at ``epoch``.
    """

    seed_node: int
    alpha: float
    r_max: float
    epoch: int
    reserve: SparseVector
    residue: SparseVector
    pushed: SparseVector
    settled: SparseVector
    repairs: int = 0

    @property
    def estimates(self) -> SparseVector:
        """The PPR estimate vector (the reserve)."""
        return self.reserve


@dataclass
class DynamicHKState:
    """A repairable HK-Push state pinned to one graph epoch.

    The per-hop analogue of :class:`DynamicPPRState`: ``pushed`` records,
    per ``(hop, node)``, the residue value distributed to hop ``k + 1``,
    and ``settled`` the isolated-node settles.  Horizon settles are never
    recorded — they do not depend on adjacency.
    """

    seed_node: int
    t: float
    r_max: float
    epoch: int
    weights: PoissonWeights
    reserve: SparseVector
    residues: ResidueVectors
    pushed: ResidueVectors
    settled: ResidueVectors
    repairs: int = 0

    @property
    def estimates(self) -> SparseVector:
        """The HKPR estimate vector (the reserve)."""
        return self.reserve


def dynamic_forward_push(
    graph,
    seed_node: int,
    *,
    alpha: float = 0.15,
    r_max: float = 1e-4,
    counters: OperationCounters | None = None,
) -> DynamicPPRState:
    """Run a from-scratch forward push that records repair provenance."""
    pushed = SparseVector()
    settled = SparseVector()
    outcome = forward_push(
        graph,
        seed_node,
        alpha=alpha,
        r_max=r_max,
        counters=counters,
        pushed=pushed,
        settled=settled,
    )
    return DynamicPPRState(
        seed_node=seed_node,
        alpha=alpha,
        r_max=r_max,
        epoch=int(getattr(graph, "epoch", 0)),
        reserve=outcome.reserve,
        residue=outcome.residue,
        pushed=pushed,
        settled=settled,
    )


def dynamic_hk_push(
    graph,
    seed_node: int,
    *,
    t: float = 5.0,
    r_max: float = 1e-4,
    counters: OperationCounters | None = None,
) -> DynamicHKState:
    """Run a from-scratch HK-Push that records repair provenance."""
    weights = PoissonWeights(t)
    pushed = ResidueVectors()
    settled = ResidueVectors()
    outcome = hk_push(
        graph,
        seed_node,
        r_max,
        weights,
        counters=counters,
        pushed=pushed,
        settled=settled,
    )
    return DynamicHKState(
        seed_node=seed_node,
        t=t,
        r_max=r_max,
        epoch=int(getattr(graph, "epoch", 0)),
        weights=weights,
        reserve=outcome.reserve,
        residues=outcome.residues,
        pushed=pushed,
        settled=settled,
    )


def _check_event(state, graph, event: MutationEvent) -> None:
    if event.epoch_before != state.epoch:
        raise ParameterError(
            f"state is at epoch {state.epoch} but the event mutates "
            f"epoch {event.epoch_before} -> {event.epoch}; repair events in order"
        )
    graph_epoch = getattr(graph, "epoch", None)
    if graph_epoch is not None and graph_epoch != event.epoch:
        raise ParameterError(
            f"graph snapshot is at epoch {graph_epoch}, expected the "
            f"post-event epoch {event.epoch}"
        )


def _old_neighbors(graph, event: MutationEvent, node: int) -> list[int]:
    """Reconstruct ``node``'s pre-event adjacency from the new snapshot."""
    current = {int(v) for v in graph.neighbors(node)}
    for v in event.added_neighbors(node):
        current.discard(v)
    for v in event.removed_neighbors(node):
        current.add(v)
    return sorted(current)


def repair_ppr_push(
    state: DynamicPPRState,
    graph,
    event: MutationEvent,
    *,
    counters: OperationCounters | None = None,
) -> DynamicPPRState:
    """Repair ``state`` in place for one mutation event; returns ``state``.

    ``graph`` must be the post-event snapshot (``graph.epoch ==
    event.epoch`` when the graph carries an epoch).
    """
    _check_event(state, graph, event)
    counters = counters if counters is not None else OperationCounters()
    alpha, r_max = state.alpha, state.r_max
    reserve, residue = state.reserve, state.residue
    pushed, settled = state.pushed, state.settled

    frontier: deque[int] = deque()
    queued: set[int] = set()

    def enqueue(node: int) -> None:
        if node not in queued:
            frontier.append(node)
            queued.add(node)

    # -- Undo: reverse every push made from a touched node. ------------- #
    for node in (int(v) for v in event.touched_nodes()):
        stale_settle = settled[node]
        if stale_settle != 0.0:
            reserve.add(node, -stale_settle)
            residue.add(node, stale_settle)
            settled[node] = 0.0
        total = pushed[node]
        if total != 0.0:
            old_nbrs = _old_neighbors(graph, event, node)
            share = (1.0 - alpha) * total / len(old_nbrs)
            reserve.add(node, -alpha * total)
            residue.add(node, total)
            for neighbor in old_nbrs:
                residue.add(neighbor, -share)
                counters.record_pushes(1)
                enqueue(neighbor)
            pushed[node] = 0.0
        enqueue(node)

    # -- Replay: drain signed residues through the new adjacency. -------- #
    while frontier:
        node = frontier.popleft()
        queued.discard(node)
        value = residue[node]
        degree = graph.degree(node)
        if degree == 0:
            if value != 0.0:
                reserve.add(node, value)
                settled.add(node, value)
                residue[node] = 0.0
            continue
        if abs(value) <= r_max * degree:
            continue
        pushed.add(node, value)
        reserve.add(node, alpha * value)
        residue[node] = 0.0
        share = (1.0 - alpha) * value / degree
        for neighbor in graph.neighbors(node):
            neighbor = int(neighbor)
            new_value = residue.add(neighbor, share)
            counters.record_pushes(1)
            if abs(new_value) > r_max * graph.degree(neighbor):
                enqueue(neighbor)

    state.epoch = event.epoch
    state.repairs += 1
    return state


def repair_hk_push(
    state: DynamicHKState,
    graph,
    event: MutationEvent,
    *,
    counters: OperationCounters | None = None,
) -> DynamicHKState:
    """Repair an HK-Push ``state`` in place for one mutation event.

    The per-hop mirror of :func:`repair_ppr_push`; residues stay separated
    by hop throughout because heat kernel walks are non-Markovian.
    """
    _check_event(state, graph, event)
    counters = counters if counters is not None else OperationCounters()
    r_max = state.r_max
    weights = state.weights
    hop_limit = weights.max_hop
    reserve, residues = state.reserve, state.residues
    pushed, settled = state.pushed, state.settled

    frontier: deque[tuple[int, int]] = deque()
    queued: set[tuple[int, int]] = set()

    def enqueue(hop: int, node: int) -> None:
        key = (hop, node)
        if key not in queued:
            frontier.append(key)
            queued.add(key)

    # -- Undo: reverse every push made from a touched node, per hop. ----- #
    for node in (int(v) for v in event.touched_nodes()):
        old_nbrs: list[int] | None = None
        hops = max(pushed.num_hops, settled.num_hops, residues.num_hops)
        for hop in range(hops):
            stale_settle = settled.get(hop, node)
            if stale_settle != 0.0:
                reserve.add(node, -stale_settle)
                residues.add(hop, node, stale_settle)
                settled.set(hop, node, 0.0)
            total = pushed.get(hop, node)
            if total != 0.0:
                if old_nbrs is None:
                    old_nbrs = _old_neighbors(graph, event, node)
                stop_fraction = weights.stop_probability(hop)
                reserve.add(node, -stop_fraction * total)
                residues.add(hop, node, total)
                share = (1.0 - stop_fraction) * total / len(old_nbrs)
                for neighbor in old_nbrs:
                    residues.add(hop + 1, neighbor, -share)
                    counters.record_pushes(1)
                    enqueue(hop + 1, neighbor)
                pushed.set(hop, node, 0.0)
            enqueue(hop, node)

    # -- Replay: drain signed per-hop residues on the new adjacency. ----- #
    while frontier:
        hop, node = frontier.popleft()
        queued.discard((hop, node))
        value = residues.get(hop, node)
        if value == 0.0:
            continue
        degree = graph.degree(node)
        if degree == 0:
            # Isolated: the surviving walk mass stays put, settle all of it.
            reserve.add(node, value)
            settled.add(hop, node, value)
            residues.clear(hop, node)
            continue
        if abs(value) <= r_max * degree:
            continue
        stop_fraction = weights.stop_probability(hop)
        if hop + 1 <= hop_limit:
            pushed.add(hop, node, value)
            reserve.add(node, stop_fraction * value)
            residues.clear(hop, node)
            share = (1.0 - stop_fraction) * value / degree
            next_hop = hop + 1
            for neighbor in graph.neighbors(node):
                neighbor = int(neighbor)
                new_value = residues.add(next_hop, neighbor, share)
                counters.record_pushes(1)
                if abs(new_value) > r_max * graph.degree(neighbor):
                    enqueue(next_hop, neighbor)
        else:
            # Past the Poisson horizon: settle in place, exactly like the
            # static push.  Not recorded — independent of adjacency.
            reserve.add(node, value)
            residues.clear(hop, node)

    state.epoch = event.epoch
    state.repairs += 1
    return state
