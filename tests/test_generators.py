"""Tests for the synthetic graph generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.graph import generators
from repro.graph.graph import Graph


class TestDeterministicFamilies:
    def test_ring(self):
        g = generators.ring_graph(7)
        assert g.num_nodes == 7
        assert g.num_edges == 7
        assert all(g.degree(v) == 2 for v in g.nodes())

    def test_ring_too_small(self):
        with pytest.raises(ParameterError):
            generators.ring_graph(2)

    def test_star(self):
        g = generators.star_graph(6)
        assert g.degree(0) == 5
        assert all(g.degree(v) == 1 for v in range(1, 6))

    def test_path(self):
        g = generators.path_graph(5)
        assert g.num_edges == 4
        assert g.degree(0) == 1
        assert g.degree(2) == 2

    def test_complete(self):
        g = generators.complete_graph(5)
        assert g.num_edges == 10
        assert all(g.degree(v) == 4 for v in g.nodes())

    def test_grid_3d_periodic_degree_six(self):
        g = generators.grid_3d_graph(3, 4, 5, periodic=True)
        assert g.num_nodes == 60
        assert all(g.degree(v) == 6 for v in g.nodes())

    def test_grid_3d_nonperiodic_has_boundary(self):
        g = generators.grid_3d_graph(3, 3, 3, periodic=False)
        degrees = {g.degree(v) for v in g.nodes()}
        assert min(degrees) == 3
        assert max(degrees) == 6

    def test_grid_3d_too_small_dimension(self):
        with pytest.raises(ParameterError):
            generators.grid_3d_graph(2, 3, 3, periodic=True)


class TestRandomFamilies:
    def test_erdos_renyi_deterministic_for_seed(self):
        g1 = generators.erdos_renyi_graph(50, 0.1, seed=5)
        g2 = generators.erdos_renyi_graph(50, 0.1, seed=5)
        assert g1 == g2

    def test_erdos_renyi_probability_bounds(self):
        with pytest.raises(ParameterError):
            generators.erdos_renyi_graph(10, 1.5)

    def test_erdos_renyi_extreme_probabilities(self):
        empty = generators.erdos_renyi_graph(10, 0.0, seed=1)
        full = generators.erdos_renyi_graph(10, 1.0, seed=1)
        assert empty.num_edges == 0
        assert full.num_edges == 45

    def test_erdos_renyi_connected_flag(self):
        g = generators.erdos_renyi_graph(80, 0.08, seed=3, connected=True)
        assert g.is_connected()

    def test_barabasi_albert_connected_powerlaw(self):
        g = generators.barabasi_albert_graph(200, 3, seed=11)
        assert g.is_connected()
        assert g.average_degree > 4.0
        # Hubs exist: maximum degree well above the attachment parameter.
        assert max(g.degree(v) for v in g.nodes()) > 10

    def test_barabasi_albert_invalid_m(self):
        with pytest.raises(ParameterError):
            generators.barabasi_albert_graph(10, 0)
        with pytest.raises(ParameterError):
            generators.barabasi_albert_graph(10, 10)

    def test_powerlaw_cluster_graph_properties(self):
        g = generators.powerlaw_cluster_graph(300, 4, 0.5, seed=2)
        assert g.is_connected()
        assert 3.0 < g.average_degree < 9.0

    def test_powerlaw_cluster_invalid_triangle_probability(self):
        with pytest.raises(ParameterError):
            generators.powerlaw_cluster_graph(10, 2, 1.5)

    def test_powerlaw_cluster_deterministic(self):
        g1 = generators.powerlaw_cluster_graph(100, 3, 0.4, seed=8)
        g2 = generators.powerlaw_cluster_graph(100, 3, 0.4, seed=8)
        assert g1 == g2

    def test_chung_lu_matches_expected_volume(self):
        degrees = [5] * 200
        g = generators.chung_lu_graph(degrees, seed=13, connected=False)
        # Expected total volume is sum(degrees); allow generous sampling slack.
        assert 0.5 * sum(degrees) < g.total_volume <= 1.2 * sum(degrees)

    @pytest.mark.parametrize("seed", [0, 5, 13])
    def test_chung_lu_endpoints_are_rng_choice_draws(self, seed):
        # Each side is drawn as rng.choice(n, size, p=weights / total) draws
        # it, zero weights (never drawn) included: the same graph.
        shape = np.random.default_rng(seed)
        weights = shape.pareto(1.5, 3000) * (shape.random(3000) < 0.8)
        reference = np.random.default_rng(seed + 100)
        size = max(1, int(round(weights.sum() / 2.0)))
        p = weights / weights.sum()
        sources = reference.choice(weights.size, size=size, p=p)
        targets = reference.choice(weights.size, size=size, p=p)
        want = Graph(weights.size, np.column_stack((sources, targets)), dedupe=True)
        got = generators.chung_lu_graph(weights, seed=seed + 100, connected=False)
        assert got == want

    def test_chung_lu_rejects_negative_weights(self):
        with pytest.raises(ParameterError):
            generators.chung_lu_graph([3, -1, 2])

    @pytest.mark.parametrize(
        "weights", [[0, 0, 0], [1.0, np.nan, 2.0], [1.0, np.inf]]
    )
    def test_chung_lu_rejects_zero_or_non_finite_sum(self, weights):
        with pytest.raises(ParameterError, match="positive, finite sum"):
            generators.chung_lu_graph(weights)

    def test_power_law_degree_sequence_range(self):
        seq = generators.power_law_degree_sequence(500, 2.5, 2, 50, seed=4)
        assert len(seq) == 500
        assert seq.min() >= 2
        assert seq.max() <= 50
        # Heavy tail: the mean should sit well below the maximum.
        assert seq.mean() < 15

    def test_power_law_degree_sequence_invalid(self):
        with pytest.raises(ParameterError):
            generators.power_law_degree_sequence(10, 0.5, 1, 5)
        with pytest.raises(ParameterError):
            generators.power_law_degree_sequence(10, 2.0, 5, 2)


class TestPlantedPartition:
    def test_shapes_and_ground_truth(self):
        graph, communities = generators.planted_partition_graph(3, 10, 0.5, 0.02, seed=6)
        assert graph.num_nodes == 30
        assert len(communities) == 3
        assert all(len(block) == 10 for block in communities)

    def test_intra_density_exceeds_inter_density(self):
        graph, communities = generators.planted_partition_graph(2, 30, 0.5, 0.02, seed=9)
        block = set(communities[0])
        internal = sum(
            1 for u, v in graph.edges() if (u in block) == (v in block)
        )
        external = graph.num_edges - internal
        assert internal > external

    def test_invalid_probabilities(self):
        with pytest.raises(ParameterError):
            generators.planted_partition_graph(2, 10, 0.1, 0.5)

    def test_invalid_sizes(self):
        with pytest.raises(ParameterError):
            generators.planted_partition_graph(0, 10, 0.5, 0.1)

    def test_deterministic(self):
        g1, _ = generators.planted_partition_graph(2, 15, 0.4, 0.05, seed=3)
        g2, _ = generators.planted_partition_graph(2, 15, 0.4, 0.05, seed=3)
        assert g1 == g2


def _reference_largest_component(graph):
    """Reference set-walking search: components in order of their smallest
    node, a later one kept only if it is larger."""
    remaining = set(graph.nodes())
    best: set[int] = set()
    while remaining:
        component = graph.connected_component(min(remaining))
        remaining -= component
        if len(component) > len(best):
            best = component
    return graph.subgraph(sorted(best))[0]


class TestLargestComponentHelper:
    def test_largest_component_returned(self):
        # Two cliques of different sizes, disconnected.
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        edges += [(u, v) for u in range(5, 8) for v in range(u + 1, 8)]
        from repro.graph.graph import Graph

        g = Graph(8, edges)
        largest = generators._largest_component(g)
        assert largest.num_nodes == 5
        assert largest.is_connected()

    def test_tie_in_size_keeps_the_component_with_the_smallest_node(self):
        from repro.graph.graph import Graph

        # A path {1, 3, 5} and a triangle {0, 2, 4}: the triangle holds 0.
        tied = Graph(7, [(1, 3), (3, 5), (0, 2), (2, 4), (4, 0)])
        assert generators._largest_component(tied).num_edges == 3
        # Without the triangle's third edge the paths tie; {0, 2, 4} wins.
        paths = Graph(7, [(5, 3), (3, 1), (4, 0), (2, 4), (6, 6)], dedupe=True)
        sub = generators._largest_component(paths)
        assert sub == paths.subgraph([0, 2, 4])[0]
        # Size still comes first: the larger component wins without node 0.
        assert generators._largest_component(Graph(5, [(1, 2), (2, 3)])).num_nodes == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_set_walking_search(self, seed):
        from repro.graph.graph import Graph

        rng = np.random.default_rng(seed)
        n = 400
        graph = Graph(n, rng.integers(0, n, size=(int(0.6 * n), 2)), dedupe=True)
        assert not graph.is_connected()
        expected = _reference_largest_component(graph)
        assert generators._largest_component(graph) == expected

    def test_long_shuffled_cycle_is_one_component(self):
        from repro.graph.graph import Graph

        # Ids shuffled along a cycle: plain label propagation needs a pass
        # per few nodes here; the hook keeps it to a handful.
        order = np.random.default_rng(1).permutation(20_000)
        cycle = Graph(20_000, np.column_stack((order, np.roll(order, 1))))
        assert generators._largest_component(cycle) is cycle
        labels = generators._component_labels(cycle)
        assert not labels.any()


#: crc32 of ``indptr`` and ``indices`` (little-endian int64) of every
#: built-in dataset and of the generator specs the benchmark ledger and CI
#: serve.  A generator or ``Graph`` change that moves any of them changes
#: every graph-dependent answer and index fingerprint.
PINNED_CSR = {
    "dblp-sim": (3000, 8991, 984097936, 4264565857),
    "youtube-sim": (3693, 9099, 2349531399, 2702204762),
    "plc-sim": (5000, 24975, 4080164425, 2763872131),
    "orkut-sim": (2000, 39600, 3762890254, 3843407057),
    "livejournal-sim": (4000, 31936, 3268831531, 1529357749),
    "grid3d-sim": (1728, 5184, 1029373488, 1387434977),
    "twitter-sim": (2993, 27798, 2675719574, 4018760736),
    "friendster-sim": (3500, 86875, 1663972519, 688564627),
    "chung-lu,n=100000,gamma=2.5,min_degree=2,max_degree=200,seed=11": (
        100000, 215297, 1682492212, 3416836940,
    ),
    "chung-lu,n=20000,gamma=2.5,seed=11": (20000, 41674, 1654857994, 2721950301),
    "erdos-renyi,n=5000,seed=3": (4036, 4863, 4167919927, 4770913),
}


class TestPinnedCSR:
    @pytest.mark.parametrize("name", sorted(PINNED_CSR))
    def test_graph_bytes_are_pinned(self, name):
        import zlib

        from repro.bench.datasets import DATASETS, load_dataset
        from repro.service.registry import build_from_spec

        graph = load_dataset(name) if name in DATASETS else build_from_spec(name)
        crcs = [
            zlib.crc32(np.ascontiguousarray(array, dtype="<i8").tobytes())
            for array in (graph.indptr, graph.indices)
        ]
        assert (graph.num_nodes, graph.num_edges, *crcs) == PINNED_CSR[name]

    def test_every_dataset_is_pinned(self):
        from repro.bench.datasets import DATASETS

        assert set(DATASETS) <= set(PINNED_CSR)


def _traced_peak(build):
    """``build()`` and the peak bytes it allocated while it ran."""
    import tracemalloc

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        return built, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestBuildScratch:
    """The CSR build holds one edge-sized scratch array at a time."""

    def test_generated_graph_peaks_within_4x_its_csr(self):
        from repro.service.registry import build_from_spec

        graph, peak = _traced_peak(
            lambda: build_from_spec("chung-lu,n=20000,gamma=2.5,seed=11")
        )
        assert peak <= 4 * graph.csr_nbytes, peak / graph.csr_nbytes

    def test_deduped_pairs_peak_within_4x_the_input(self):
        n = 100_000
        pairs = np.random.default_rng(5).integers(0, n, size=(220_000, 2))
        _, peak = _traced_peak(lambda: Graph(n, pairs, dedupe=True))
        assert peak <= 4 * pairs.nbytes, peak / pairs.nbytes
