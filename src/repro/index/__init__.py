"""Precomputed walk-sketch index tier (``.rwix``) for hot-seed serving.

The sampling estimators spend their whole online budget regenerating random
walk endpoints whose distribution never changes between queries on the same
(graph, seed, parameter bucket).  This package pays that cost once, offline:

* :mod:`repro.index.format` — the ``.rwix`` binary container (64-byte
  CRC-checked header, 64-aligned mmap-able sections), a sibling of
  ``.rcsr`` (:mod:`repro.graph.binfmt`).
* :mod:`repro.index.builder` — :func:`build_walk_index` selects hub nodes
  (by degree or an explicit seed list) and runs the walk kernels to store
  ``W`` endpoints per (hub, bucket) sketch.
* :mod:`repro.index.walk_index` — :class:`WalkIndex`, the in-memory lookup
  with the epoch/staleness contract (``verify_graph``) and serving counters.
* :mod:`repro.index.combine` — :func:`plan_from_index` merges a stored
  sketch with a fresh top-up batch so the effective sample size matches the
  request; counters attribute ``walks_from_index`` vs ``walks_sampled``.

The service layer attaches an index per graph
(:meth:`repro.service.GraphRegistry.attach_index`), and the planner routes
eligible queries (unpinned ``monte-carlo`` / ``mc-ppr``) through the
combiner automatically.
"""

from repro.index.builder import build_walk_index, select_hubs
from repro.index.combine import INDEXABLE_METHODS, plan_from_index
from repro.index.format import (
    EXTENSION,
    FORMAT_VERSION,
    MAGIC,
    graph_fingerprint,
    read_index_file,
    sniff,
    write_index_file,
)
from repro.index.walk_index import WalkIndex

__all__ = [
    "EXTENSION",
    "FORMAT_VERSION",
    "INDEXABLE_METHODS",
    "MAGIC",
    "WalkIndex",
    "build_walk_index",
    "graph_fingerprint",
    "plan_from_index",
    "read_index_file",
    "select_hubs",
    "sniff",
    "write_index_file",
]
