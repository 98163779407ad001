"""Result vectors and residue layers match plain-dict reference models bit for bit.

:class:`DictModel` accumulates into a ``dict[int, float]`` one entry at a
time, and the residue aggregates are recomputed from plain per-hop
dictionaries; the array forms must store and sum exactly the same values.
"""

from __future__ import annotations

import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.graph import Graph
from repro.hkpr.residues import ResidueVectors
from repro.hkpr.result import HKPRResult
from repro.index import build_walk_index
from repro.service import GraphRegistry, QueryService
from repro.utils.sparsevec import SparseVector

NODES = 24


class DictModel:
    """A plain ``dict[int, float]`` filled one entry at a time."""

    def __init__(self) -> None:
        self.data: dict[int, float] = {}

    def set(self, node: int, value: float) -> None:
        if value == 0.0:
            self.data.pop(node, None)
        else:
            self.data[node] = value

    def add(self, node: int, delta: float) -> None:
        self.set(node, self.data.get(node, 0.0) + delta)

    def add_many(self, nodes, increments) -> None:
        node_arr = np.asarray(nodes, dtype=np.int64)
        if node_arr.size == 0:
            return
        if np.ndim(increments) == 0:
            unique, counts = np.unique(node_arr, return_counts=True)
            deltas = counts * float(increments)
        else:
            unique, inverse = np.unique(node_arr, return_inverse=True)
            deltas = np.bincount(inverse, weights=np.asarray(increments, dtype=float))
        for node, delta in zip(unique.tolist(), deltas.tolist()):
            self.add(node, delta)


def _bits(value: float) -> str:
    return float(value).hex()


# Dyadic values add exactly, so repeats and opposite signs cancel to 0.0;
# arbitrary floats check that every merge rounds as ``old + delta`` does.
_values = st.one_of(
    st.sampled_from([0.5, -0.5, 0.25, -0.25, 1.0, -1.0, 0.125, -0.375]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)
_node = st.integers(0, NODES - 1)
_operation = st.one_of(
    st.tuples(st.just("add_many"), st.lists(_node, max_size=12), _values),
    st.tuples(
        st.just("add_many_each"),
        st.lists(st.tuples(_node, _values), max_size=12),
    ),
)


class TestSparseVectorMatchesDictModel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_operation, max_size=12))
    def test_random_operations(self, operations):
        vector, model = SparseVector(), DictModel()
        for operation in operations:
            writes = vector.writes
            if operation[0] == "add_many":
                _, nodes, increment = operation
                vector.add_many(nodes, increment)
                model.add_many(nodes, increment)
            else:
                nodes = [node for node, _ in operation[1]]
                increments = [delta for _, delta in operation[1]]
                vector.add_many(nodes, increments)
                model.add_many(nodes, increments)
            assert vector.writes == writes + bool(nodes)
            self._check(vector, model)

    def _check(self, vector: SparseVector, model: DictModel) -> None:
        writes = vector.writes
        for node in range(NODES + 1):
            assert _bits(vector[node]) == _bits(model.data.get(node, 0.0))
            assert (node in vector) == (node in model.data)
        assert vector.nnz() == len(vector) == len(model.data)
        assert {n: _bits(v) for n, v in vector.items()} == {
            n: _bits(v) for n, v in model.data.items()
        }
        expected = np.zeros(NODES)
        for node, value in model.data.items():
            expected[node] = value
        assert vector.to_dense(NODES).tobytes() == expected.tobytes()
        assert vector.get_many(np.arange(NODES + 1)).tobytes() == np.append(
            expected, 0.0
        ).tobytes()
        nodes, values = vector.arrays()
        assert nodes.tolist() == list(vector) == sorted(model.data)
        assert values.tolist() == list(vector.values())
        # Reads never write (a cached answer is shared by threads).
        assert vector.writes == writes

    def test_add_many_merges_exactly(self):
        vector = SparseVector()
        vector.add_many([3, 1, 3], 0.1)
        vector.add_many([2, 3, 9, 1], [0.7, -0.05, 1e-17, -0.1])
        assert list(vector) == [2, 3, 9]  # node 1 cancelled to exactly 0.0
        assert vector[3] == 2 * 0.1 + -0.05
        assert vector[9] == 1e-17

    def test_arrays_are_read_only(self):
        vector = SparseVector()
        vector.add_many([4, 2], 1.0)
        nodes, values = vector.arrays()
        with pytest.raises(ValueError):
            values[0] = 5.0
        assert nodes.dtype == np.int64 and values.dtype == np.float64


def _graph_with_isolated_nodes() -> Graph:
    core = powerlaw_cluster_graph(80, 3, 0.3, seed=4)
    return Graph(90, list(core.edges()))


def _dict_layers(rng, graph: Graph, hops: int) -> list[dict[int, float]]:
    layers = []
    for _ in range(hops):
        size = int(rng.integers(0, 40))
        nodes = rng.permutation(graph.num_nodes)[:size]
        values = rng.random(size) * 10.0 ** rng.integers(-6, 0)
        values[rng.random(size) < 0.1] = 0.0
        layers.append({int(n): float(v) for n, v in zip(nodes, values) if v != 0.0})
    return layers


def _model_aggregates(layers, graph: Graph) -> dict:
    """What the dict algorithms compute on ``layers`` (plain dicts)."""
    per_hop = [sum(layer.values()) for layer in layers]
    max_sum = 0.0
    for layer in layers:
        best = 0.0
        for node, value in layer.items():
            degree = graph.degree(node)
            if degree > 0 and value / degree > best:
                best = value / degree
        max_sum += best
    return {
        "total": sum(per_hop),
        "per_hop": per_hop,
        "max_normalized_sum": max_sum,
        "entries": [
            (hop, node, value)
            for hop, layer in enumerate(layers)
            for node, value in layer.items()
        ],
    }


def _model_reduce(layers, graph: Graph, eps_r: float, delta: float):
    per_hop = [sum(layer.values()) for layer in layers]
    grand_total = sum(per_hop)
    betas = [hop_sum / grand_total for hop_sum in per_hop]
    reduced_layers = []
    for beta, layer in zip(betas, layers):
        reduction_per_degree = beta * eps_r * delta
        reduced = {}
        for node, value in layer.items():
            left = value - reduction_per_degree * graph.degree(node)
            if left > 0.0:
                reduced[node] = left
        reduced_layers.append(reduced if beta else dict(layer))
    return betas, reduced_layers


def _aggregates(residues: ResidueVectors, graph: Graph) -> dict:
    hops, nodes, values = residues.entry_arrays()
    return {
        "total": residues.total(),
        "per_hop": residues.per_hop_sums(),
        "max_normalized_sum": residues.max_normalized_sum(graph),
        "entries": list(zip(hops.tolist(), nodes.tolist(), values.tolist())),
    }


def _same_bits(got: dict, want: dict) -> None:
    assert _bits(got["total"]) == _bits(want["total"])
    assert [_bits(x) for x in got["per_hop"]] == [_bits(x) for x in want["per_hop"]]
    assert _bits(got["max_normalized_sum"]) == _bits(want["max_normalized_sum"])
    assert [(h, n, _bits(v)) for h, n, v in got["entries"]] == [
        (h, n, _bits(v)) for h, n, v in want["entries"]
    ]


class TestResidueLayersMatchDictLayers:
    @pytest.mark.parametrize("case", range(12))
    def test_set_layer_matches_dict_model(self, case):
        rng = np.random.default_rng(case)
        graph = _graph_with_isolated_nodes()
        layers = _dict_layers(rng, graph, hops=int(rng.integers(1, 7)))
        residues = ResidueVectors()
        for hop, layer in enumerate(layers):
            nodes = np.fromiter(layer.keys(), np.int64, count=len(layer))
            values = np.fromiter(layer.values(), np.float64, count=len(layer))
            residues.set_layer(hop, nodes, values)
        want = _model_aggregates(layers, graph)
        assert residues.num_nonzero() == sum(len(layer) for layer in layers)
        _same_bits(_aggregates(residues, graph), want)
        assert [residues.layer(hop) for hop in range(len(layers))] == layers

        if want["total"] <= 0.0:
            return
        eps_r, delta = 0.5, float(10.0 ** rng.integers(-7, -2))
        want_betas, want_layers = _model_reduce(layers, graph, eps_r, delta)
        betas = residues.reduce_residues(graph, eps_r, delta)
        assert [_bits(b) for b in betas] == [_bits(b) for b in want_betas]
        _same_bits(_aggregates(residues, graph), _model_aggregates(want_layers, graph))

    def test_set_layer_drops_exact_zeros_and_keeps_order(self):
        residues = ResidueVectors()
        residues.set_layer(1, np.array([9, 4, 6]), np.array([0.5, 0.0, 0.25]))
        assert residues.layer(1) == {9: 0.5, 6: 0.25}
        assert residues.get(1, 6) == 0.25 and residues.get(1, 4) == 0.0


# ---------------------------------------------------------------------- #
# Served answers
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def served():
    graph = powerlaw_cluster_graph(1500, 3, 0.3, seed=8)
    registry = GraphRegistry()
    registry.add_graph("g", graph)
    index = build_walk_index(
        graph, num_hubs=4, walks_per_sketch=400, t_values=(5.0,), rng=0
    )
    registry.attach_index("g", index)
    with QueryService(registry, rng=3) as service:
        yield graph, service, index.indexed_nodes()


class TestServedTopEntries:
    @pytest.mark.parametrize(
        "method,params,on_hub",
        [
            ("monte-carlo", {"num_walks": 2000}, False),
            ("mc-ppr", {}, False),
            # 400 walks from the hub's sketch merged with a 300-walk top-up.
            ("monte-carlo", {"num_walks": 700}, True),
            ("tea+", {"push_budget": 300, "max_walks": 20000}, False),
        ],
        ids=["monte-carlo", "mc-ppr", "index-top-up", "tea+"],
    )
    def test_top_matches_value_per_node(self, served, method, params, on_hub):
        graph, service, hubs = served
        seed = int(hubs[0]) if on_hub else 11
        response = service.query("g", method, seed, params, top_k=40)
        result = response.result
        top = response.to_dict()["top"]
        expected = [[node, result.value(node, graph)] for node in result.ranking(graph)[:40]]
        assert top == expected
        assert [type(value) for _, value in top] == [float] * len(top)
        if on_hub:
            assert result.counters.extras["walks_from_index"] == 400.0
            assert result.counters.extras["walks_sampled"] == 300.0
        if method == "tea+":
            assert not result.early_exit and result.offset_per_degree > 0.0
        again = service.query("g", method, seed, params, top_k=40)
        assert again.cached and again.to_dict()["top"] == top


class TestCachedAnswerMemory:
    def test_retained_bytes_per_cached_entry(self):
        registry = GraphRegistry()
        registry.add_generated("chung-lu,n=20000,gamma=2.5,seed=11", name="g")
        graph = registry.get("g").graph
        hubs = np.argsort(-graph.degrees, kind="stable")[:129].tolist()
        params = {"num_walks": 3000}
        with QueryService(registry, rng=1) as service:
            service.query("g", "monte-carlo", hubs.pop(), params).to_dict()
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                entries = 0
                for hub in hubs:
                    response = service.query("g", "monte-carlo", hub, params)
                    response.to_dict()
                    entries += response.result.support_size()
                del response
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert entries > 100_000
        assert retained / entries <= 40.0, f"{retained / entries:.1f} B per entry"


class TestConcurrentReaders:
    def test_threads_reading_one_answer_agree(self):
        # Handler threads share a cached answer: racing readers (and racing
        # first rankings) must all see the same values and write nothing.
        graph = powerlaw_cluster_graph(400, 3, 0.3, seed=2)
        rng = np.random.default_rng(0)
        failures: list[str] = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                estimates = SparseVector()
                estimates.add_many(rng.integers(0, 400, 4000), 1.0 / 4000)
                estimates.add_many(rng.integers(0, 400, 1000), 1.0 / 4000)
                reference = HKPRResult(estimates=estimates.copy(), seed=0, method="t")
                want = (reference.top(graph, 30), reference.ranking(graph))
                result = HKPRResult(estimates=estimates, seed=0, method="t")
                writes = estimates.writes

                def read() -> None:
                    for _ in range(20):
                        got = (result.top(graph, 30), result.ranking(graph))
                        if got != want or estimates[int(want[1][0])] != want[0][0][1]:
                            failures.append("read disagrees with the reference")

                threads = [threading.Thread(target=read) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert estimates.writes == writes
        finally:
            sys.setswitchinterval(previous)
        assert not failures, failures[:3]
