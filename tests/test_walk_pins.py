"""Byte pins for the walk traffic the serving ledger checks, and for every
route a randomized estimator's walks take.

The fused group and the pinned monte-carlo and mc-ppr answers were
recorded before the fused and task walk routes shared the backend
kernels: each draws no walk start by alias sampling, so its bytes are the
same on either side of that change.  The single-query estimators (on two
backends and two chunk sizes), the ``*_many`` entry points, the pinned
push-then-walk answers and the index hit were recorded before each
randomized method became one plan.  A change to start sampling, to the
kernels' draw order, to how a walk phase splits into kernel calls or to
the order endpoints are added moves them.
"""

from __future__ import annotations

import zlib
from dataclasses import replace

import numpy as np
import pytest

from repro import engine
from repro.bench.datasets import load_dataset
from repro.engine import WALK_CHUNK_SIZE, execute_plans
from repro.engine.fused import FusedQuery, run_fused_queries
from repro.estimators import resolve
from repro.hkpr.cluster_hkpr import cluster_hkpr
from repro.hkpr.monte_carlo import monte_carlo_hkpr, monte_carlo_hkpr_many
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import PoissonWeights
from repro.hkpr.tea import tea
from repro.hkpr.tea_plus import tea_plus, tea_plus_many, tea_plus_plan
from repro.index import build_walk_index, plan_from_index
from repro.ppr.fora import fora, monte_carlo_ppr, monte_carlo_ppr_many
from repro.service import GraphRegistry, QueryService
from repro.service.registry import build_from_spec
from repro.utils.counters import OperationCounters


def _crc(array: np.ndarray) -> int:
    little = array.dtype.newbyteorder("<")
    return zlib.crc32(np.ascontiguousarray(array, dtype=little).tobytes())


def _fingerprint(result) -> tuple:
    """``(random_walks, walk_steps, support, crc32 of nodes, crc32 of
    values)`` of one answer."""
    nodes, values = result.estimates.arrays()
    return (
        result.counters.random_walks, result.counters.walk_steps,
        nodes.size, _crc(nodes), _crc(values),
    )


@pytest.fixture(scope="module")
def dblp():
    graph = load_dataset("dblp-sim")
    return graph, HKPRParams(delta=1.0 / graph.num_nodes)


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


def test_fused_group_endpoints_are_pinned(dblp):
    graph, params = dblp
    weights = PoissonWeights(params.t)
    plan = tea_plus_plan(graph, 42, params, push_budget=3000, max_walks=4000)
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
    ("tea", 7, (("max_walks", 2000), ("r_max", 0.001)), 6): (
        2000, 4512, 1255, 3291635701, 1400188510,
    ),
    ("tea+", 7, (("c", 1.0), ("max_walks", 2000)), 7): (
        2000, 2127, 7127, 2088871182, 2068195173,
    ),
    ("fora", 7, (("max_walks", 2000),), 8): (
        2000, 11643, 18183, 2547259290, 4047286128,
    ),
    ("cluster-hkpr", 11, (("eps", 0.05), ("num_walks", 2000)), 9): (
        2000, 9910, 1135, 3641077825, 541745965,
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
    assert _fingerprint(response.result) == PINNED_SERVED[key]


#: Single-query estimators on dblp-sim; every walking query runs 2,000
#: walks, so at a 700-walk chunk each runs three kernel calls.  ``tea+``
#: exits early at the default ``c``; at ``c = 1`` it walks.
SINGLE_QUERIES = {
    "monte-carlo": lambda g, p, **kw: monte_carlo_hkpr(
        g, 7, p, num_walks=2000, rng=11, **kw),
    "cluster-hkpr": lambda g, p, **kw: cluster_hkpr(
        g, 42, p, eps=0.05, num_walks=2000, rng=12, **kw),
    "mc-ppr": lambda g, p, **kw: monte_carlo_ppr(
        g, 7, num_walks=2000, rng=13, **kw),
    "tea": lambda g, p, **kw: tea(
        g, 42, p, r_max=1e-3, max_walks=2000, rng=14, **kw),
    "tea+ early exit": lambda g, p, **kw: tea_plus(g, 42, p, rng=15, **kw),
    "tea+ c=1": lambda g, p, **kw: tea_plus(
        g, 42, replace(p, c=1.0), max_walks=2000, rng=16, **kw),
    "fora": lambda g, p, **kw: fora(g, 42, max_walks=2000, rng=17, **kw),
}

#: ``(query, backend, walk chunk)`` -> fingerprint of its answer.
PINNED_SINGLE = {
    ("monte-carlo", "vectorized", WALK_CHUNK_SIZE): (2000, 9892, 958, 2057443674, 2263988784),
    ("monte-carlo", "vectorized", 700): (2000, 9875, 977, 1579119035, 3976673483),
    ("monte-carlo", "reference", WALK_CHUNK_SIZE): (2000, 9964, 982, 2295283429, 103346490),
    ("monte-carlo", "reference", 700): (2000, 9964, 982, 2295283429, 1158785811),
    ("cluster-hkpr", "vectorized", WALK_CHUNK_SIZE): (2000, 9980, 909, 1474228032, 2140931486),
    ("cluster-hkpr", "vectorized", 700): (2000, 9988, 900, 3268043810, 3385272985),
    ("cluster-hkpr", "reference", WALK_CHUNK_SIZE): (2000, 10021, 872, 230818938, 1786405628),
    ("cluster-hkpr", "reference", 700): (2000, 10021, 872, 230818938, 2579211455),
    ("mc-ppr", "vectorized", WALK_CHUNK_SIZE): (2000, 11297, 864, 1307526145, 2977134263),
    ("mc-ppr", "vectorized", 700): (2000, 11350, 829, 1078488975, 4052817318),
    ("mc-ppr", "reference", WALK_CHUNK_SIZE): (2000, 11478, 824, 567263971, 612057829),
    ("mc-ppr", "reference", 700): (2000, 11478, 824, 567263971, 2534213917),
    ("tea", "vectorized", WALK_CHUNK_SIZE): (2000, 5285, 985, 3711554257, 4099443030),
    ("tea", "vectorized", 700): (2000, 5348, 975, 2353563383, 414819261),
    ("tea", "reference", WALK_CHUNK_SIZE): (2000, 5291, 991, 2774087156, 1741400040),
    ("tea", "reference", 700): (2000, 5151, 1013, 325957310, 231013009),
    ("tea+ early exit", "vectorized", WALK_CHUNK_SIZE): (0, 0, 1785, 2232890967, 3236028137),
    ("tea+ early exit", "vectorized", 700): (0, 0, 1785, 2232890967, 3236028137),
    ("tea+ early exit", "reference", WALK_CHUNK_SIZE): (0, 0, 1785, 2232890967, 3236028137),
    ("tea+ early exit", "reference", 700): (0, 0, 1785, 2232890967, 3236028137),
    ("tea+ c=1", "vectorized", WALK_CHUNK_SIZE): (2000, 3748, 1231, 2936063036, 2142102161),
    ("tea+ c=1", "vectorized", 700): (2000, 3651, 1224, 568565924, 3733556225),
    ("tea+ c=1", "reference", WALK_CHUNK_SIZE): (2000, 3707, 1220, 3139953315, 3690511521),
    ("tea+ c=1", "reference", 700): (2000, 3725, 1244, 3602553583, 437741492),
    ("fora", "vectorized", WALK_CHUNK_SIZE): (2000, 10965, 3000, 2836387588, 1937226913),
    ("fora", "vectorized", 700): (2000, 11217, 3000, 2836387588, 1366032713),
    ("fora", "reference", WALK_CHUNK_SIZE): (2000, 11215, 3000, 2836387588, 4252794092),
    ("fora", "reference", 700): (2000, 11291, 3000, 2836387588, 2287761941),
}


@pytest.mark.parametrize("key", list(PINNED_SINGLE), ids=str)
def test_single_query_answers_are_pinned(dblp, monkeypatch, key):
    name, backend, chunk = key
    monkeypatch.setattr(engine, "WALK_CHUNK_SIZE", chunk)
    result = SINGLE_QUERIES[name](*dblp, backend=backend)
    assert _fingerprint(result) == PINNED_SINGLE[key]


#: ``*_many`` entry point -> fingerprint per seed, in seed order.
PINNED_MANY = {
    "monte_carlo_hkpr_many": [
        (7, (1500, 7674, 817, 1185438348, 2009261795)),
        (42, (1500, 7663, 729, 2008419470, 2371531027)),
        (1234, (1500, 7616, 515, 1683065119, 2504184705)),
    ],
    "tea_plus_many": [
        (42, (1500, 2833, 1188, 2904801670, 4127418563)),
        (7, (1500, 2874, 1311, 2800858722, 1376914681)),
    ],
    "monte_carlo_ppr_many": [
        (7, (1500, 5792, 604, 2747516985, 778406868)),
        (42, (1500, 5873, 524, 3972276902, 2501197582)),
    ],
}


def _many_answers(graph, params) -> dict:
    return {
        "monte_carlo_hkpr_many": monte_carlo_hkpr_many(
            graph, [7, 42, 1234], params, num_walks=1500, rng=21,
            backend="vectorized"),
        "tea_plus_many": tea_plus_many(
            graph, [42, 7], replace(params, c=1.0), max_walks=1500, rng=22,
            backend="vectorized"),
        "monte_carlo_ppr_many": monte_carlo_ppr_many(
            graph, [7, 42], alpha=0.2, num_walks=1500, rng=23,
            backend="vectorized"),
    }


def test_many_answers_are_pinned(dblp):
    observed = {
        name: [(seed, _fingerprint(result)) for seed, result in answers.items()]
        for name, answers in _many_answers(*dblp).items()
    }
    assert observed == PINNED_MANY


#: A monte-carlo query from an indexed hub: 1,000 stored walks and a
#: 500-walk top-up.  Recorded when the builder began walking
#: length-sorted batches; the top-up's walks and steps are unchanged.
PINNED_INDEX_HIT = (500, 2573, 755, 3296511913, 976906566)


def test_index_hit_answer_is_pinned(dblp):
    graph, _ = dblp
    index = build_walk_index(graph, hubs=[42], walks_per_sketch=1000, rng=0)
    spec, params = resolve("monte-carlo"), {"num_walks": 1500}
    plan = plan_from_index(index, spec.build_plan(graph, 42, params), spec, params)
    (result,) = execute_plans(
        "vectorized", graph, [plan], np.random.default_rng(31)
    )
    assert result.counters.extras["walks_from_index"] == 1000
    assert _fingerprint(result) == PINNED_INDEX_HIT
