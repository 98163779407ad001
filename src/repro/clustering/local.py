"""High-level local clustering API.

``local_cluster(graph, seed, method="tea+")`` runs the full two-phase
pipeline of the paper: estimate an approximate diffusion vector with the
chosen method, then sweep it for the lowest-conductance prefix.  It is the
one-stop entry point the examples and the benchmark harness use.

Method dispatch goes through the unified estimator registry
(:mod:`repro.estimators`): every registered *sweepable* method — the HKPR
estimators, their push-only forms (``hk-push``, ``hk-push+``), the PPR
mirrors (``fora``, ``mc-ppr``, ``exact-ppr``) and the sweepable classic
baselines (``nibble``, ``pr-nibble``) — is accepted here, by canonical
name or alias, with no clustering-layer method table to keep in sync.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.clustering.sweep import SweepResult, sweep_cut
from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.params import HKPRParams
from repro.hkpr.result import HKPRResult
from repro.utils.rng import RandomState


@dataclass
class LocalClusteringResult:
    """A local cluster together with the HKPR estimation that produced it."""

    cluster: set[int]
    conductance: float
    seed: int
    method: str
    hkpr: HKPRResult
    sweep: SweepResult
    elapsed_seconds: float

    @property
    def size(self) -> int:
        """Number of nodes in the cluster."""
        return len(self.cluster)

    def contains_seed(self) -> bool:
        """Whether the seed node ended up in the returned cluster."""
        return self.seed in self.cluster


def local_cluster(
    graph: Graph,
    seed: int,
    *,
    method: str = "tea+",
    params: HKPRParams | None = None,
    rng: RandomState = None,
    estimator_kwargs: dict | None = None,
    backend: str | None = None,
) -> LocalClusteringResult:
    """Find a low-conductance cluster containing ``seed``.

    Parameters
    ----------
    graph:
        The input graph.
    seed:
        The seed node the cluster must contain.
    method:
        Any sweepable method registered in :mod:`repro.estimators`
        (canonical name or alias; default ``"tea+"``).  See
        ``repro.estimators.method_names(sweepable=True)`` or
        ``repro-cli methods``.
    params:
        HKPR parameters; defaults to ``HKPRParams(delta=1/n)``, the setting
        the paper uses for its headline experiments.  Methods outside the
        HKPR family (e.g. ``nibble``, ``mc-ppr``) take their knobs through
        ``estimator_kwargs`` instead.
    rng:
        Seed or generator for randomized estimators.
    estimator_kwargs:
        Extra keyword arguments forwarded to the estimator (for example
        ``{"eps_a": 1e-5}`` for HK-Relax or ``{"eps": 0.01}`` for
        ClusterHKPR).
    backend:
        Walk-execution backend for estimators with a walk phase
        (see :mod:`repro.engine`); ignored by the deterministic methods.

    Returns
    -------
    LocalClusteringResult

    Examples
    --------
    >>> from repro.graph.generators import planted_partition_graph
    >>> g, blocks = planted_partition_graph(4, 20, 0.4, 0.01, seed=7)
    >>> result = local_cluster(g, seed=0, method="tea+", rng=7)
    >>> result.contains_seed()
    True
    """
    from repro.estimators import resolve  # local import to avoid a cycle at module load

    spec = resolve(method)
    if not spec.sweepable:
        raise ParameterError(
            f"method {spec.name!r} does not produce a sweepable diffusion "
            f"vector; call its own entry point (repro.baselines) instead"
        )
    if not graph.has_node(seed):
        raise ParameterError(f"seed node {seed} is not in the graph")

    start = time.perf_counter()
    hkpr = spec.estimate(
        graph,
        seed,
        params=params,
        rng=rng,
        estimator_kwargs=estimator_kwargs,
        backend=backend,
    )
    sweep = sweep_cut(graph, hkpr)
    elapsed = time.perf_counter() - start

    return LocalClusteringResult(
        cluster=set(sweep.cluster),
        conductance=sweep.conductance,
        seed=seed,
        method=spec.name,
        hkpr=hkpr,
        sweep=sweep,
        elapsed_seconds=elapsed,
    )
