"""The layered heat-kernel push against the FIFO loops it replaced.

HK-Push (Algorithm 1) and HK-Relax (Kloster & Gleich) used to push one
``(hop, node)`` entry at a time from a FIFO queue.  A FIFO of such entries
pops hop by hop, and every pop sees its entry's full inflow, so the layered
push must push exactly the same entries: the same push count, the same
per-hop residue supports and the same values up to the order in which
shares are summed.  The FIFO loops are kept here as the references.
HK-Push+ was already layered; its answers are pinned by crc32.
"""

from __future__ import annotations

import math
import zlib
from collections import deque

import numpy as np
import pytest

from repro.bench.datasets import load_dataset
from repro.estimators import resolve
from repro.exceptions import ParameterError
from repro.graph.generators import (
    complete_graph,
    grid_3d_graph,
    powerlaw_cluster_graph,
    ring_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.hkpr.hk_push import hk_push, layered_push
from repro.hkpr.hk_push_plus import hk_push_plus
from repro.hkpr.hk_relax import _psi_table, hk_relax, taylor_degree
from repro.hkpr.params import HKPRParams


def fifo_hk_push(graph, seed, r_max, weights):
    """Algorithm 1 one entry at a time: ``(reserve, layers, pushes)``."""
    reserve: dict[int, float] = {}
    layers: list[dict[int, float]] = [{seed: 1.0}]
    frontier = deque([(0, seed)])
    queued = {(0, seed)}
    pushes = 0
    while frontier:
        hop, node = frontier.popleft()
        queued.discard((hop, node))
        degree = graph.degree(node)
        residue = layers[hop].get(node, 0.0)
        if residue <= r_max * degree or residue <= 0.0:
            continue
        stop = weights.stop_probability(hop)
        reserve[node] = reserve.get(node, 0.0) + stop * residue
        del layers[hop][node]
        leftover = (1.0 - stop) * residue
        if leftover > 0.0 and degree > 0 and hop + 1 <= weights.max_hop:
            if len(layers) == hop + 1:
                layers.append({})
            share = leftover / degree
            for neighbor in graph.neighbors(node).tolist():
                value = layers[hop + 1].get(neighbor, 0.0) + share
                layers[hop + 1][neighbor] = value
                pushes += 1
                key = (hop + 1, neighbor)
                if value > r_max * graph.degree(neighbor) and key not in queued:
                    frontier.append(key)
                    queued.add(key)
        elif leftover > 0.0:
            reserve[node] += leftover
    return reserve, layers, pushes


def kg_psi(t, n):
    """``psi_j = sum_{m=0}^{N-j} t^m j!/(j+m)!``, summed term by term."""
    table = []
    for j in range(n + 1):
        term, total = 1.0, 1.0
        for m in range(1, n - j + 1):
            term *= t / (j + m)
            total += term
        table.append(total)
    return table


def fifo_hk_relax(graph, seed, t, eps_a):
    """Kloster & Gleich's HK-Relax one entry at a time, with their ``psi_j``.

    Returns ``(estimates, layers, pushes)``: the ``e^{-t}``-scaled solution
    and the unscaled per-level residuals.
    """
    n = taylor_degree(t, eps_a)
    psi = kg_psi(t, n)
    exp_t = math.exp(t)
    layers: list[dict[int, float]] = [{} for _ in range(n + 1)]
    layers[0][seed] = 1.0
    solution: dict[int, float] = {}
    frontier = deque([(0, seed)])
    queued = {(0, seed)}
    pushes = 0

    def threshold(level, degree):
        return exp_t * eps_a * degree / (2.0 * n * psi[level])

    while frontier:
        level, node = frontier.popleft()
        queued.discard((level, node))
        residual = layers[level].get(node, 0.0)
        degree = graph.degree(node)
        if residual <= 0.0 or residual < threshold(level, max(degree, 1)):
            continue
        del layers[level][node]
        solution[node] = solution.get(node, 0.0) + residual
        if level < n and degree > 0:
            forward = t / (level + 1) * residual / degree
            for neighbor in graph.neighbors(node).tolist():
                value = layers[level + 1].get(neighbor, 0.0) + forward
                layers[level + 1][neighbor] = value
                pushes += 1
                key = (level + 1, neighbor)
                if key not in queued and value >= threshold(
                    level + 1, max(graph.degree(neighbor), 1)
                ):
                    frontier.append(key)
                    queued.add(key)
    estimates = {node: math.exp(-t) * value for node, value in solution.items()}
    return estimates, layers, pushes


def assert_same_entries(got: dict, want: dict) -> None:
    assert sorted(got) == sorted(want)
    nodes = sorted(want)
    np.testing.assert_allclose(
        [got[v] for v in nodes], [want[v] for v in nodes], rtol=1e-12, atol=0
    )


def assert_same_layers(residues, want_layers, scales=None) -> None:
    """Per-hop supports equal; values equal within 1e-12 relative."""
    hops = max(residues.num_hops, len(want_layers))
    for hop in range(hops):
        want = want_layers[hop] if hop < len(want_layers) else {}
        if scales is not None:
            want = {node: value * scales[hop] for node, value in want.items()}
        assert_same_entries(residues.layer(hop), want)


GRAPHS = {
    "ring": lambda: ring_graph(10),
    "star": lambda: star_graph(9),
    "complete": lambda: complete_graph(6),
    "grid": lambda: grid_3d_graph(3, 3, 3, periodic=True),
    "powerlaw": lambda: powerlaw_cluster_graph(300, 4, 0.3, seed=42),
}
DBLP_SEEDS = (42, 7, 1234)


class TestLayeredHKPush:
    @pytest.mark.parametrize("r_max", [1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("graph_name,seed", [
        ("ring", 0), ("star", 0), ("star", 3), ("complete", 2), ("grid", 5),
        ("powerlaw", 0), ("powerlaw", 41),
    ])
    def test_matches_fifo_on_fixture_graphs(self, graph_name, seed, r_max, weights_t5):
        self._check(GRAPHS[graph_name](), seed, r_max, weights_t5)

    @pytest.mark.parametrize("seed", DBLP_SEEDS)
    def test_matches_fifo_on_dblp_at_teas_threshold(self, seed, weights_t5):
        graph = load_dataset("dblp-sim")
        r_max = HKPRParams(delta=1.0 / graph.num_nodes).rmax_tea(graph)
        self._check(graph, seed, r_max, weights_t5)

    @staticmethod
    def _check(graph, seed, r_max, weights):
        outcome = hk_push(graph, seed, r_max, weights)
        reserve, layers, pushes = fifo_hk_push(graph, seed, r_max, weights)
        assert outcome.counters.push_operations == pushes
        assert_same_entries(outcome.reserve.to_dict(), reserve)
        assert_same_layers(outcome.residues, layers)


class TestLayeredHKRelax:
    def test_psi_follows_kloster_gleich(self):
        for t, eps_a in ((5.0, 1e-4), (10.0, 1e-3), (0.5, 1e-2)):
            n = taylor_degree(t, eps_a)
            np.testing.assert_allclose(_psi_table(t, n), kg_psi(t, n), rtol=1e-14)

    @pytest.mark.parametrize("eps_a", [1e-2, 1e-4])
    @pytest.mark.parametrize("graph_name,seed", [
        ("ring", 0), ("star", 0), ("star", 3), ("complete", 2), ("grid", 5),
        ("powerlaw", 0), ("powerlaw", 41),
    ])
    def test_matches_fifo_on_fixture_graphs(self, graph_name, seed, eps_a):
        self._check(GRAPHS[graph_name](), seed, HKPRParams(), eps_a)

    @pytest.mark.parametrize("graph_name,seed", [("ring", 0), ("star", 3)])
    def test_cap_is_exact_at_every_value(self, graph_name, seed):
        # A level that settles whole (the last, psi_N = 1) records no
        # pushes, so it never spends the cap.
        graph, params = GRAPHS[graph_name](), HKPRParams()
        full = hk_relax(graph, seed, params, eps_a=1e-3).counters.push_operations
        for cap in range(1, full + 2):
            result = hk_relax(graph, seed, params, eps_a=1e-3, max_pushes=cap)
            assert result.counters.push_operations == min(cap, full)
            assert ("push_cap_hit" in result.counters.extras) == (cap <= full)

    @pytest.mark.parametrize("seed", DBLP_SEEDS)
    def test_matches_fifo_on_dblp(self, seed):
        graph = load_dataset("dblp-sim")
        params = HKPRParams(delta=1.0 / graph.num_nodes)
        self._check(graph, seed, params, params.absolute_error_target())

    @staticmethod
    def _check(graph, seed, params, eps_a):
        t = params.t
        result = hk_relax(graph, seed, params, eps_a=eps_a)
        estimates, layers, pushes = fifo_hk_relax(graph, seed, t, eps_a)
        assert result.counters.push_operations == pushes
        assert_same_entries(result.estimates.to_dict(), estimates)
        # HK-Relax is HK-Push on the N-truncated series: level j holds the
        # residual scaled by e^{-t} psi_j.
        n = taylor_degree(t, eps_a)
        psi = _psi_table(t, n)
        outcome = layered_push(
            graph, seed, 1.0 / psi, eps_a / (2.0 * n), start_mass=math.exp(-t) * psi[0]
        )
        assert outcome.reserve.to_dict() == result.estimates.to_dict()
        assert_same_layers(outcome.residues, layers, scales=math.exp(-t) * psi)


#: crc32 of HK-Push+'s reserve ``(nodes, values)`` and residue
#: ``(hops, nodes, values)`` arrays (little-endian) at TEA+'s default hop
#: cap, per (dataset, seed, push budget); ``None`` is TEA+'s default
#: budget, where every query exits early, and 3000 cuts the push short.
PINNED_PUSH_PLUS = {
    ("dblp-sim", 42, None): (39324, 2232890967, 3236028137, 2212205540, 1739270149, 1046043039),
    ("dblp-sim", 42, 3000): (3092, 498346522, 3697164731, 73158292, 2097832329, 3160821766),
    ("dblp-sim", 7, None): (47962, 2914825582, 3698192753, 3543266417, 656852270, 723499424),
    ("dblp-sim", 7, 3000): (3005, 3007892694, 3183064503, 258652520, 340375719, 2248018826),
    ("dblp-sim", 1234, None): (23834, 1252052991, 1569236302, 1821544895, 1810894033, 2614173339),
    ("dblp-sim", 1234, 3000): (3000, 1268594991, 980501797, 4116150264, 4015521217, 1350352929),
    ("livejournal-sim", 42, None): (37658, 4261690285, 364284847, 605654607, 2977236210, 3486867405),
    ("livejournal-sim", 42, 3000): (3008, 258743085, 234716901, 2225602253, 1957154376, 3843848536),
    ("livejournal-sim", 7, None): (38738, 2682574091, 2005139959, 1170338004, 2937976357, 408218697),
    ("livejournal-sim", 7, 3000): (3064, 1158989982, 1615236549, 3041095838, 1301828269, 1511747126),
    ("livejournal-sim", 1234, None): (32051, 1066005486, 2770784799, 1995885514, 864432839, 927530896),
    ("livejournal-sim", 1234, 3000): (3045, 2319107111, 3631907986, 674498206, 3897189363, 3757142090),
}


class TestHKPushPlusPinned:
    @pytest.mark.parametrize("key", sorted(PINNED_PUSH_PLUS, key=str))
    def test_arrays_are_pinned(self, key, weights_t5):
        name, seed, budget = key
        graph = load_dataset(name)
        params = HKPRParams(delta=1.0 / graph.num_nodes)
        outcome = hk_push_plus(
            graph,
            seed,
            params.eps_r,
            params.delta,
            params.max_hop_tea_plus(graph),
            budget if budget is not None else params.push_budget_tea_plus(graph),
            weights_t5,
        )
        assert outcome.satisfied_early_exit == (budget is None)
        assert outcome.budget_exhausted == (budget is not None)
        arrays = (*outcome.reserve.arrays(), *outcome.residues.entry_arrays())
        crcs = tuple(
            zlib.crc32(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes())
            for a in arrays
        )
        assert (outcome.pushes_used, *crcs) == PINNED_PUSH_PLUS[key]


class TestIsolatedSeed:
    """An isolated node has no walk to take: every method keeps its mass."""

    @pytest.mark.parametrize("method", [
        "exact", "monte-carlo", "cluster-hkpr", "hk-relax", "hk-push", "hk-push+",
        "tea", "tea+", "exact-ppr", "fora", "mc-ppr", "nibble", "pr-nibble",
    ])
    def test_keeps_all_mass(self, method):
        graph = Graph(9, list(ring_graph(8).edges()))
        spec = resolve(method)
        kwargs = {"delta": 1e-3} if spec.takes_params_object else {}
        if method in ("monte-carlo", "cluster-hkpr", "mc-ppr"):
            kwargs["num_walks"] = 200
        result = spec.estimate(graph, 8, rng=1, estimator_kwargs=kwargs)
        # HK-Relax keeps e^{-t} psi_0, its series truncated at eps_a / 2.
        assert result.estimates.to_dict() == {8: pytest.approx(1.0, abs=2.5e-4)}

    #: Every field of the isolated seed's ``PushOutcome``: reserve, residue
    #: layers, Theorem-2 sum, pushes used, exit and budget flags and push
    #: count, recorded while the isolated seed was settled inside the first
    #: hop's push.  HK-Relax is its layered push, capped at one push and not.
    PINNED_OUTCOMES = {
        "hk-push": ({8: 1.0}, [{}, {}], 0.0, 0, False, False, 0),
        "hk-push+": ({8: 1.0}, [{}, {}], 0.0, 0, True, False, 0),
        "hk-relax-cap-1": ({8: 0.9997737463238233}, [{}, {}], 0.0, 0, False, False, 0),
        "hk-relax": ({8: 0.9997737463238233}, [{}, {}], 0.0, 0, False, False, 0),
    }

    @pytest.mark.parametrize("push", sorted(PINNED_OUTCOMES))
    def test_push_outcome_is_pinned(self, push, weights_t5):
        graph = Graph(9, list(ring_graph(8).edges()))
        params = HKPRParams(delta=1e-3)
        if push == "hk-push":
            outcome = hk_push(graph, 8, 1e-4, weights_t5)
        elif push == "hk-push+":
            outcome = hk_push_plus(
                graph, 8, params.eps_r, params.delta, params.max_hop_tea_plus(graph),
                params.push_budget_tea_plus(graph), weights_t5,
            )
        else:
            eps_a = params.absolute_error_target()
            n = taylor_degree(params.t, eps_a)
            psi = _psi_table(params.t, n)
            outcome = layered_push(
                graph, 8, 1.0 / psi, eps_a / (2.0 * n),
                start_mass=math.exp(-params.t) * psi[0],
                budget=1 if push == "hk-relax-cap-1" else None, exact_budget=True,
            )
        residues = outcome.residues
        observed = (
            outcome.reserve.to_dict(),
            [residues.layer(hop) for hop in range(residues.num_hops)],
            outcome.normalized_residue_sum,
            outcome.pushes_used,
            outcome.satisfied_early_exit,
            outcome.budget_exhausted,
            outcome.counters.push_operations,
        )
        assert observed == self.PINNED_OUTCOMES[push]


def test_layered_push_needs_a_hop():
    with pytest.raises(ParameterError, match="at least one hop"):
        layered_push(ring_graph(4), 0, np.zeros(0), 1e-3)
