"""repro — heat kernel PageRank estimation and local graph clustering.

A from-scratch reproduction of *"Efficient Estimation of Heat Kernel
PageRank for Local Clustering"* (Yang et al., SIGMOD 2019).  The package
provides:

* the paper's algorithms **TEA** and **TEA+** with their push primitives
  (HK-Push, HK-Push+) and hop-conditioned random walks,
* every baseline the paper compares against (Monte-Carlo, ClusterHKPR,
  HK-Relax, SimpleLocal, CRD, plus Nibble and PR-Nibble),
* the shared local-clustering machinery (conductance, sweep cut, quality
  metrics, NDCG ranking accuracy),
* a unified estimator registry (:mod:`repro.estimators`): one declarative
  :class:`~repro.estimators.spec.EstimatorSpec` per method drives the
  library, the server, the CLI and the benchmark harness at once,
* a graph substrate with synthetic generators standing in for the paper's
  SNAP datasets,
* a benchmark harness that regenerates every table and figure of the
  paper's evaluation section (see ``benchmarks/`` and ``EXPERIMENTS.md``),
  and
* an online query-serving layer (:mod:`repro.service`, ``repro-cli serve``)
  that micro-batches concurrent HKPR/PPR queries into shared walk kernels
  behind a cache and admission control.

Quickstart
----------
>>> from repro import HKPRParams, generators, local_cluster
>>> graph = generators.powerlaw_cluster_graph(2000, 5, 0.3, seed=1)
>>> result = local_cluster(graph, seed=0, method="tea+", rng=1)
>>> result.contains_seed()
True
"""

from repro import engine
from repro.clustering import (
    LocalClusteringResult,
    SweepResult,
    conductance,
    local_cluster,
    sweep_cut,
)
from repro.graph import Graph, from_networkx, load_edge_list, save_edge_list, to_networkx
from repro.graph import generators
from repro.hkpr import (
    HKPRParams,
    HKPRResult,
    cluster_hkpr,
    exact_hkpr,
    hk_relax,
    monte_carlo_hkpr,
    tea,
    tea_plus,
)
from repro import estimators
from repro.estimators import estimate

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "estimate",
    "estimators",
    "HKPRParams",
    "HKPRResult",
    "LocalClusteringResult",
    "SweepResult",
    "cluster_hkpr",
    "conductance",
    "engine",
    "exact_hkpr",
    "from_networkx",
    "generators",
    "hk_relax",
    "load_edge_list",
    "local_cluster",
    "monte_carlo_hkpr",
    "save_edge_list",
    "sweep_cut",
    "tea",
    "tea_plus",
    "to_networkx",
]
