"""Batch and seed-set HKPR queries.

Two convenience layers on top of the single-seed estimators:

* :func:`batch_hkpr` — run the same estimator for many seed nodes (the shape
  of every experiment in the paper: fifty seeds per dataset), returning the
  per-seed results and aggregate counters.
* :func:`seed_set_hkpr` — HKPR of a *seed distribution*: by linearity of
  Equation (2), the HKPR vector of a distribution over seeds is the same
  mixture of the single-seed HKPR vectors.  This supports the "local cluster
  for a set of nodes" use case the paper attributes to SimpleLocal, using
  any of the HKPR estimators.

Both helpers work with every HKPR estimator registered in
:mod:`repro.estimators`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.params import HKPRParams, default_delta
from repro.hkpr.result import HKPRResult
from repro.utils.counters import OperationCounters
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.sparsevec import SparseVector


def batch_hkpr(
    graph: Graph,
    seeds: Sequence[int],
    *,
    method: str = "tea+",
    params: HKPRParams | None = None,
    rng: RandomState = None,
    estimator_kwargs: dict | None = None,
    backend: str | None = None,
) -> dict[int, HKPRResult]:
    """Run one estimator for every seed in ``seeds``.

    ``method`` is resolved through the unified estimator registry
    (:mod:`repro.estimators`), so every registered sweepable method works.
    Returns a mapping from seed node to its :class:`HKPRResult`.  Each seed
    gets its own RNG stream derived from ``rng``, so results are
    reproducible and independent of the order of ``seeds``.  ``backend``
    selects the walk execution engine for estimators with a walk phase
    (see :mod:`repro.engine`) and is ignored for the deterministic ones.
    """
    from repro.estimators import resolve  # local import to avoid a cycle at module load

    if not seeds:
        raise ParameterError("need at least one seed node")
    spec = resolve(method)
    if spec.takes_params_object and params is None:
        params = HKPRParams(delta=default_delta(graph))
    root = ensure_rng(rng)
    results: dict[int, HKPRResult] = {}
    for seed_node in seeds:
        seed_node = int(seed_node)
        child_rng = (
            ensure_rng(int(root.integers(0, 2**63 - 1))) if spec.takes_rng else None
        )
        results[seed_node] = spec.estimate(
            graph,
            seed_node,
            params=params,
            rng=child_rng,
            estimator_kwargs=estimator_kwargs,
            backend=backend,
        )
    return results


def aggregate_counters(results: Mapping[int, HKPRResult]) -> OperationCounters:
    """Element-wise sum of the counters of a batch of results."""
    if not results:
        raise ParameterError("cannot aggregate an empty batch")
    total = OperationCounters()
    for result in results.values():
        total = total.merge(result.counters)
    return total


def seed_set_hkpr(
    graph: Graph,
    seed_weights: Mapping[int, float],
    *,
    method: str = "tea+",
    params: HKPRParams | None = None,
    rng: RandomState = None,
    estimator_kwargs: dict | None = None,
    backend: str | None = None,
) -> HKPRResult:
    """HKPR of a seed *distribution* (non-negative weights, normalized here).

    By linearity of Eq. (2), ``rho_{w} = sum_s w[s] * rho_s`` for a
    distribution ``w`` over seed nodes; the estimate is the corresponding
    mixture of the per-seed estimates.  The mixture keeps the weakest
    per-seed accuracy guarantee (each component is (d, eps_r, delta)-
    approximate, so the mixture's degree-normalized error is a convex
    combination of the component errors).
    """
    if not seed_weights:
        raise ParameterError("need at least one seed node")
    weights = {int(node): float(w) for node, w in seed_weights.items()}
    if any(w < 0 for w in weights.values()):
        raise ParameterError("seed weights must be non-negative")
    total_weight = sum(weights.values())
    if total_weight <= 0:
        raise ParameterError("seed weights must have positive sum")
    for node in weights:
        if not graph.has_node(node):
            raise ParameterError(f"seed node {node} is not in the graph")

    per_seed = batch_hkpr(
        graph,
        list(weights),
        method=method,
        params=params,
        rng=rng,
        estimator_kwargs=estimator_kwargs,
        backend=backend,
    )
    parts_nodes, parts_values = [], []
    offset = 0.0
    counters = OperationCounters()
    elapsed = 0.0
    for node, weight in weights.items():
        share = weight / total_weight
        result = per_seed[node]
        vertices, values = result.estimates.arrays()
        parts_nodes.append(vertices)
        parts_values.append(share * values)
        offset += share * result.offset_per_degree
        counters = counters.merge(result.counters)
        elapsed += result.elapsed_seconds
    mixture = SparseVector()
    mixture.add_many(np.concatenate(parts_nodes), np.concatenate(parts_values))

    representative_seed = max(weights, key=weights.get)
    return HKPRResult(
        estimates=mixture,
        seed=representative_seed,
        method=f"{method}(seed-set)",
        counters=counters,
        elapsed_seconds=elapsed,
        offset_per_degree=offset,
        early_exit=all(result.early_exit for result in per_seed.values()),
    )
