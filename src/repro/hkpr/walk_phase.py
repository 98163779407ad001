"""The residue-driven walk phase shared by TEA and TEA+ (Lines 12-17).

Both estimators finish identically: sample walk-starting residue entries
``(hop, node)`` proportionally to their residue values, run one
hop-conditioned heat kernel walk per sample through the active execution
backend, and add a fixed increment to the estimate at every endpoint.
Factored here so the chunking, sampling and accumulation logic exists
once (and a fix to it cannot silently diverge between the two).
"""

from __future__ import annotations

import numpy as np

from repro.engine import Backend, chunk_sizes
from repro.graph.graph import Graph
from repro.hkpr.alias import AliasSampler
from repro.hkpr.poisson import PoissonWeights
from repro.utils.counters import OperationCounters
from repro.utils.deadline import Deadline
from repro.utils.sparsevec import SparseVector


def run_residue_walk_phase(
    graph: Graph,
    entries: tuple[np.ndarray, np.ndarray, np.ndarray],
    num_walks: int,
    increment: float,
    *,
    engine: Backend,
    weights: PoissonWeights,
    rng: np.random.Generator,
    estimates: SparseVector,
    counters: OperationCounters | None = None,
    deadline: Deadline | None = None,
) -> None:
    """Run ``num_walks`` residue-sampled walks, accumulating into ``estimates``.

    ``entries`` are the non-zero residue entries as ``(hops, nodes, values)``
    arrays (:meth:`~repro.hkpr.residues.ResidueVectors.entry_arrays`); walk
    starts are drawn proportionally to ``values`` via an alias structure,
    and each walk ending at ``v`` adds ``increment`` to
    ``estimates[v]``.  The loop is chunked (:func:`repro.engine.chunk_sizes`)
    so the phase stays bounded-memory at theory-driven (omega-scale) walk
    counts; an optional ``deadline`` is checkpointed before every chunk so a
    timed-out query stops between kernel calls rather than mid-kernel.
    """
    start_hops, start_nodes, values = entries
    sampler = AliasSampler(start_nodes, values)
    for batch in chunk_sizes(num_walks):
        if deadline is not None:
            deadline.checkpoint()
        picks = sampler.sample_indices(batch, rng)
        end_nodes = engine.walk_batch(
            graph,
            start_nodes[picks],
            start_hops[picks],
            weights,
            rng,
            counters=counters,
        )
        estimates.add_many(end_nodes, increment)
