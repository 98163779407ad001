"""Byte pins for the walk traffic the serving ledger checks.

Recorded before the fused and task walk routes shared the backend kernels:
each group below draws no walk start by alias sampling, so its bytes are
the same on either side of that change.  A change to start sampling, to
the kernels' draw order or to how a fused group splits into kernel calls
moves them.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.bench.datasets import load_dataset
from repro.engine.fused import FusedQuery, run_fused_queries
from repro.hkpr.batched import TeaPlusPlan
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import PoissonWeights
from repro.service import GraphRegistry, QueryService
from repro.service.registry import build_from_spec
from repro.utils.counters import OperationCounters


def _crc(array: np.ndarray) -> int:
    little = array.dtype.newbyteorder("<")
    return zlib.crc32(np.ascontiguousarray(array, dtype=little).tobytes())


#: ``(random_walks, walk_steps, crc32 of endpoints)`` per query of one
#: vectorized ``run_fused_queries`` call on dblp-sim: a 369-entry TEA+
#: residue heat query (seed 42, push budget 3000), single-entry poisson
#: queries from 7 and 1234, and a geometric query from 42.
PINNED_FUSED = [
    (4000, 9795, 1201924701),
    (1500, 7531, 3382187400),
    (2500, 12560, 3275579867),
    (2000, 11032, 2947026239),
]


def test_fused_group_endpoints_are_pinned():
    graph = load_dataset("dblp-sim")
    params = HKPRParams(delta=1.0 / graph.num_nodes)
    weights = PoissonWeights(params.t)
    plan = TeaPlusPlan(
        graph, 42, params, push_budget=3000, max_walks=4000, weights=weights
    )
    (heat,) = plan.fused_queries()
    assert heat.entry_nodes.size == 369
    queries = [
        heat,
        FusedQuery("poisson", [7], [1.0], 1500, weights=weights),
        FusedQuery("poisson", [1234], [1.0], 2500, weights=weights),
        FusedQuery("geometric", [42], [1.0], 2000, alpha=0.15),
    ]
    counters = [OperationCounters() for _ in queries]
    ends = run_fused_queries(
        "vectorized", graph, queries, np.random.default_rng(2024),
        counters_list=counters,
    )
    observed = [
        (tally.random_walks, tally.walk_steps, _crc(query_ends))
        for tally, query_ends in zip(counters, ends)
    ]
    assert observed == PINNED_FUSED


#: The CI service smoke graph.
SMOKE_SPEC = "chung-lu,n=20000,gamma=2.5,seed=11"

#: ``(method, seed node, params, rng)`` of a pinned served request ->
#: ``(random_walks, walk_steps, support, crc32 of nodes, crc32 of values)``
#: of its answer.
PINNED_SERVED = {
    ("monte-carlo", 7, (("num_walks", 1000), ("t", 5)), 1): (
        1000, 5009, 562, 2734894044, 1004452958,
    ),
    ("monte-carlo", 11, (("num_walks", 3000), ("t", 5)), 2): (
        3000, 14927, 1531, 1886822794, 2206594720,
    ),
    ("monte-carlo", 7, (("num_walks", 3000), ("t", 5)), 3): (
        3000, 14838, 1394, 1800891448, 2161863368,
    ),
    ("mc-ppr", 7, (), 4): (10000, 57660, 3206, 1628860046, 570985404),
    ("mc-ppr", 11, (("alpha", 0.3), ("num_walks", 3000)), 5): (
        3000, 6982, 731, 390783851, 4038298606,
    ),
}


@pytest.fixture(scope="module")
def smoke_service():
    registry = GraphRegistry()
    registry.add_graph("smoke", build_from_spec(SMOKE_SPEC))
    with QueryService(registry, rng=5) as service:
        yield service


@pytest.mark.parametrize("key", list(PINNED_SERVED), ids=str)
def test_pinned_served_answers_are_pinned(smoke_service, key):
    method, seed, params, rng = key
    response = smoke_service.query("smoke", method, seed, dict(params), rng=rng)
    result = response.result
    nodes, values = result.estimates.arrays()
    observed = (
        result.counters.random_walks, result.counters.walk_steps,
        nodes.size, _crc(nodes), _crc(values),
    )
    assert observed == PINNED_SERVED[key]
