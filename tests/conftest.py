"""Shared fixtures for the test suite.

All fixtures use fixed seeds so the suite is deterministic.  Graphs are kept
small: the algorithms are local, so their behaviour is fully exercised on
graphs with tens to hundreds of nodes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.generators import (
    complete_graph,
    grid_3d_graph,
    path_graph,
    planted_partition_graph,
    powerlaw_cluster_graph,
    ring_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.hkpr.params import HKPRParams
from repro.hkpr.poisson import PoissonWeights


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def triangle() -> Graph:
    """The 3-cycle."""
    return Graph(3, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def small_ring() -> Graph:
    """A 10-node ring."""
    return ring_graph(10)


@pytest.fixture
def small_star() -> Graph:
    """A star with 8 leaves."""
    return star_graph(9)


@pytest.fixture
def small_path() -> Graph:
    """A 6-node path."""
    return path_graph(6)


@pytest.fixture
def small_complete() -> Graph:
    """K_6."""
    return complete_graph(6)


@pytest.fixture
def paper_example_graph() -> Graph:
    """The 8-node graph G' of Figure 1 used in the paper's §5.4 example.

    Node 0 is the seed ``s``; nodes 1, 2 are v1, v2; nodes 3-7 are v3-v7.
    Edges: s-v1, s-v2, v1-v2, v1-v3, v2-v3, v2-v4 ... following the figure's
    structure (s has degree 2, v1 degree 3, v2 degree 6, v3 degree 3).
    """
    edges = [
        (0, 1),  # s - v1
        (0, 2),  # s - v2
        (1, 2),  # v1 - v2
        (1, 3),  # v1 - v3
        (2, 3),  # v2 - v3
        (2, 4),  # v2 - v4
        (2, 5),  # v2 - v5
        (2, 6),  # v2 - v6
        (3, 7),  # v3 - v7
    ]
    return Graph(8, edges)


@pytest.fixture
def clustered_graph() -> Graph:
    """Two dense planted blocks joined by a few edges (good for sweep tests)."""
    graph, _ = planted_partition_graph(2, 20, 0.6, 0.02, seed=99)
    return graph


@pytest.fixture
def planted_graph_and_blocks() -> tuple[Graph, list[list[int]]]:
    """Four planted blocks with their ground truth."""
    return planted_partition_graph(4, 15, 0.55, 0.01, seed=7)


@pytest.fixture
def medium_powerlaw() -> Graph:
    """A 300-node Holme-Kim graph used by the integration tests."""
    return powerlaw_cluster_graph(300, 4, 0.3, seed=42)


@pytest.fixture
def tiny_grid() -> Graph:
    """A 3x3x3 periodic grid (27 nodes, degree 6)."""
    return grid_3d_graph(3, 3, 3, periodic=True)


@pytest.fixture
def default_params() -> HKPRParams:
    """t=5, eps_r=0.5, delta=1e-3, p_f=1e-4 — accurate but cheap on tiny graphs."""
    return HKPRParams(t=5.0, eps_r=0.5, delta=1e-3, p_f=1e-4)


@pytest.fixture
def loose_params() -> HKPRParams:
    """Loose accuracy — fast, used where only the code path matters."""
    return HKPRParams(t=5.0, eps_r=0.9, delta=5e-2, p_f=1e-2)


@pytest.fixture
def weights_t5() -> PoissonWeights:
    """Poisson weights for the default heat constant t=5."""
    return PoissonWeights(5.0)
