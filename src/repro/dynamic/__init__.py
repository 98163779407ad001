"""Dynamic graphs: epoch-versioned edge mutations.

:mod:`repro.dynamic.delta` holds :class:`DeltaGraph`, a copy-on-write
adjacency overlay over the immutable CSR :class:`~repro.graph.graph.Graph`
with monotone epochs, :class:`MutationEvent` records, and bounded-delta
compaction back to plain CSR.
"""

from repro.dynamic.delta import (
    DeltaGraph,
    MutationEvent,
    default_compaction_threshold,
)

__all__ = [
    "DeltaGraph",
    "MutationEvent",
    "default_compaction_threshold",
]
