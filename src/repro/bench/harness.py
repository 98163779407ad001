"""Query runners shared by every experiment driver.

The paper's evaluation always has the same inner loop: pick a set of seed
nodes, run one or more methods with one or more parameter settings on each
seed, and record running time, cluster conductance, memory proxy, and (when
ground truth is available) accuracy.  This module provides that inner loop
so the per-figure drivers in :mod:`repro.bench.experiments` stay small.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from repro.clustering.local import local_cluster
from repro.clustering.sweep import sweep_cut
from repro.estimators import resolve
from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.hkpr.params import HKPRParams, default_delta
from repro.utils.rng import RandomState, ensure_rng


@dataclass
class MethodConfig:
    """One (method, parameter setting) combination to evaluate.

    ``method`` is any name (or alias) registered in the unified estimator
    registry (:mod:`repro.estimators`).  ``estimator_kwargs`` is forwarded
    to the estimator; ``params`` overrides the experiment-wide
    :class:`HKPRParams` when a sweep varies them.  ``backend`` selects the
    walk execution engine (see :mod:`repro.engine`) for estimators with a
    walk phase; ``None`` uses the process default.
    """

    method: str
    label: str = ""
    params: HKPRParams | None = None
    estimator_kwargs: dict[str, Any] = field(default_factory=dict)
    backend: str | None = None

    def display_name(self) -> str:
        """Label used in reports (method name plus the swept setting)."""
        return self.label or self.method


@dataclass
class QueryRecord:
    """The measurements of one (dataset, method, seed) query."""

    dataset: str
    method: str
    label: str
    seed_node: int
    elapsed_seconds: float
    conductance: float
    cluster_size: int
    total_work: int
    memory_entries: int
    extras: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Flatten to a plain dictionary (used by the reporting helpers)."""
        row: dict[str, Any] = {
            "dataset": self.dataset,
            "method": self.method,
            "label": self.label,
            "seed_node": self.seed_node,
            "elapsed_seconds": self.elapsed_seconds,
            "conductance": self.conductance,
            "cluster_size": self.cluster_size,
            "total_work": self.total_work,
            "memory_entries": self.memory_entries,
        }
        row.update(self.extras)
        return row


def _effective_params(spec, graph: Graph, config: MethodConfig, params):
    """The :class:`HKPRParams` to use for one query, or ``None``.

    Experiment drivers pass one experiment-wide ``params`` to *every*
    config in a sweep; methods outside the HKPR-params convention (nibble,
    mc-ppr, ...) simply don't receive it.  A ``config.params`` set
    explicitly on such a method is kept, so the estimator raises its clear
    "does not take HKPRParams" error instead of silently dropping it.
    """
    if not spec.accepts_params_object:
        return config.params
    effective = config.params or params
    if effective is None:
        effective = HKPRParams(delta=default_delta(graph))
    return effective


def sample_seed_nodes(
    graph: Graph,
    count: int,
    *,
    rng: RandomState = None,
    min_degree: int = 1,
) -> list[int]:
    """Sample ``count`` distinct seed nodes uniformly among nodes with
    degree at least ``min_degree`` (the paper samples seeds uniformly)."""
    generator = ensure_rng(rng)
    candidates = [v for v in graph.nodes() if graph.degree(v) >= min_degree]
    if not candidates:
        raise ParameterError(f"no nodes with degree >= {min_degree}")
    count = min(count, len(candidates))
    picks = generator.choice(len(candidates), size=count, replace=False)
    return [candidates[int(i)] for i in picks]


def run_clustering_query(
    graph: Graph,
    seed_node: int,
    config: MethodConfig,
    *,
    dataset: str = "",
    params: HKPRParams | None = None,
    rng: RandomState = None,
) -> QueryRecord:
    """Run one local clustering query and collect its measurements.

    ``config.method`` is resolved through the unified estimator registry
    (:mod:`repro.estimators`): sweepable methods run the full
    estimate-and-sweep pipeline via :func:`local_cluster`, flow-based
    baselines (``simple-local``, ``crd``) run their own clustering entry
    point — the registry's capability flags decide, with no harness-level
    method table.
    """
    spec = resolve(config.method)
    method = spec.name

    if not spec.sweepable:
        start = time.perf_counter()
        outcome = spec.cluster(graph, seed_node, **config.estimator_kwargs)
        elapsed = time.perf_counter() - start
        return QueryRecord(
            dataset=dataset,
            method=method,
            label=config.display_name(),
            seed_node=seed_node,
            elapsed_seconds=elapsed,
            conductance=outcome.conductance,
            cluster_size=outcome.size,
            total_work=outcome.work,
            memory_entries=outcome.size,
            extras={},
        )

    effective_params = _effective_params(spec, graph, config, params)
    outcome = local_cluster(
        graph,
        seed_node,
        method=method,
        params=effective_params,
        rng=rng,
        estimator_kwargs=config.estimator_kwargs,
        backend=config.backend,
    )
    counters = outcome.hkpr.counters
    # Figure-5 memory proxy: graph storage (n + 2m ids) plus working entries.
    memory_entries = (
        graph.num_nodes + 2 * graph.num_edges + counters.memory_entries()
    )
    return QueryRecord(
        dataset=dataset,
        method=method,
        label=config.display_name(),
        seed_node=seed_node,
        elapsed_seconds=outcome.elapsed_seconds,
        conductance=outcome.conductance,
        cluster_size=outcome.size,
        total_work=counters.total_work,
        memory_entries=memory_entries,
        extras={
            "push_operations": float(counters.push_operations),
            "random_walks": float(counters.random_walks),
            "walk_steps": float(counters.walk_steps),
            "hkpr_support": float(outcome.hkpr.support_size()),
            "early_exit": float(outcome.hkpr.early_exit),
            "backend": counters.extras.get("backend", ""),
        },
    )


def run_query_set(
    graph: Graph,
    seeds: list[int],
    configs: list[MethodConfig],
    *,
    dataset: str = "",
    params: HKPRParams | None = None,
    rng: RandomState = None,
) -> list[QueryRecord]:
    """Run every config on every seed and return the flat record list."""
    generator = ensure_rng(rng)
    records: list[QueryRecord] = []
    for config in configs:
        for seed_node in seeds:
            records.append(
                run_clustering_query(
                    graph,
                    seed_node,
                    config,
                    dataset=dataset,
                    params=params,
                    rng=generator,
                )
            )
    return records


def estimate_hkpr_only(
    graph: Graph,
    seed_node: int,
    config: MethodConfig,
    *,
    params: HKPRParams | None = None,
    rng: RandomState = None,
):
    """Run only the HKPR estimation (no sweep); used by the NDCG experiment.

    Restricted to HKPR-family methods: the NDCG experiment scores rankings
    against exact-HKPR ground truth, so a PPR or lazy-walk vector here
    would produce a meaningless row rather than an error.
    """
    spec = resolve(config.method)
    if spec.family != "hkpr" or not spec.sweepable:
        raise ParameterError(f"method {spec.name!r} is not an HKPR estimator")
    effective_params = _effective_params(spec, graph, config, params)
    return spec.estimate(
        graph,
        seed_node,
        params=effective_params,
        rng=rng,
        estimator_kwargs=config.estimator_kwargs,
        backend=config.backend,
    )


def aggregate(
    records: list[QueryRecord], keys: tuple[str, ...] = ("dataset", "label")
) -> list[dict[str, Any]]:
    """Average the numeric fields of records grouped by ``keys``."""
    groups: dict[tuple, list[QueryRecord]] = {}
    for record in records:
        group_key = tuple(getattr(record, key, record.extras.get(key)) for key in keys)
        groups.setdefault(group_key, []).append(record)

    rows: list[dict[str, Any]] = []
    for group_key, members in groups.items():
        row: dict[str, Any] = dict(zip(keys, group_key, strict=True))
        row["queries"] = len(members)
        row["avg_seconds"] = statistics.fmean(m.elapsed_seconds for m in members)
        row["avg_conductance"] = statistics.fmean(m.conductance for m in members)
        row["avg_cluster_size"] = statistics.fmean(m.cluster_size for m in members)
        row["avg_total_work"] = statistics.fmean(m.total_work for m in members)
        row["avg_memory_entries"] = statistics.fmean(m.memory_entries for m in members)
        row["method"] = members[0].method
        rows.append(row)
    rows.sort(key=lambda r: tuple(str(r[k]) for k in keys))
    return rows


def sweep_cut_conductance(graph: Graph, hkpr_result) -> float:
    """Convenience: conductance of the sweep cut of an HKPR result."""
    return sweep_cut(graph, hkpr_result).conductance
