"""Per-table / per-figure experiment drivers.

Each function regenerates one table or figure of the paper's evaluation
(§7) on the surrogate datasets, and returns a list of row dictionaries that
:func:`repro.bench.reporting.format_rows` can render.  The drivers expose
scale knobs (datasets, number of seeds, walk caps) because the paper's
settings — fifty seeds per dataset on billion-edge graphs — are far beyond a
pure-Python run; the *defaults* are sized so the whole benchmark suite
completes in minutes while preserving each experiment's comparative shape.

Experiment-to-paper map (see also DESIGN.md §4 and EXPERIMENTS.md):

========================  =====================================
Function                  Paper element
========================  =====================================
``table7_statistics``     Table 7 (dataset statistics)
``figure2_tuning_c``      Figure 2 (running time of TEA+ vs c)
``figure3_tea_vs_teaplus``Figure 3 (running time vs eps_r)
``figure4_time_quality``  Figure 4 (time vs conductance)
``figure5_memory``        Figure 5 (memory vs conductance)
``figure6_ndcg``          Figure 6 (time vs NDCG)
``table8_ground_truth``   Table 8 (F1 vs ground-truth communities)
``figure7_density``       Figure 7 (subgraph-density sensitivity)
``figure8_9_heat``        Figures 8 & 9 (effect of heat constant t)
``ablation_tea_plus``     DESIGN.md §6 ablations (beyond the paper)
========================  =====================================
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.bench.datasets import (
    DATASETS,
    QUICK_DATASETS,
    dataset_statistics,
    load_community_dataset,
    load_dataset,
)
from repro.bench.harness import (
    MethodConfig,
    aggregate,
    estimate_hkpr_only,
    run_query_set,
    sample_seed_nodes,
)
from repro.clustering.local import local_cluster
from repro.clustering.quality import cluster_f1
from repro.graph.subgraph import sample_density_stratified_seeds
from repro.hkpr.exact import exact_hkpr
from repro.hkpr.params import HKPRParams
from repro.hkpr.tea_plus import tea_plus
from repro.ranking.ndcg import ndcg_of_estimate
from repro.utils.rng import RandomState, ensure_rng

#: Walk caps keep the pure-Python Monte-Carlo style baselines tractable.
DEFAULT_WALK_CAP = 20_000
#: Push cap applied to TEA (its default r_max can imply millions of pushes).
DEFAULT_PUSH_CAP = 400_000


# --------------------------------------------------------------------- #
# Method sweep configurations (mirroring §7.4's per-method parameters)
# --------------------------------------------------------------------- #
def default_method_sweeps(
    graph_size: int,
    *,
    walk_cap: int = DEFAULT_WALK_CAP,
    delta_values: tuple[float, ...] | None = None,
    eps_a_values: tuple[float, ...] | None = None,
    eps_values: tuple[float, ...] | None = None,
    include_flow_methods: bool = False,
) -> list[MethodConfig]:
    """The per-method parameter sweeps used by Figures 4, 5 and 7.

    The paper sweeps ``delta`` for Monte-Carlo / TEA / TEA+, ``eps_a`` for
    HK-Relax, ``eps`` for ClusterHKPR, the locality parameter for
    SimpleLocal and the iteration count for CRD.  The default grids are
    scaled to the surrogate graph sizes (``delta`` around ``1/n``).
    """
    base = 1.0 / max(graph_size, 2)
    # The paper sweeps delta across several decades below 1/n; these three
    # settings span the loose-to-tight range that is tractable in pure Python.
    deltas = delta_values or (base, base * 0.1, base * 0.01)
    eps_as = eps_a_values or (2e-3, 5e-4, 1e-4)
    epses = eps_values or (0.3, 0.2, 0.1)

    configs: list[MethodConfig] = []
    for delta in deltas:
        params = HKPRParams(delta=delta)
        configs.append(
            MethodConfig(
                method="monte-carlo",
                label=f"monte-carlo(delta={delta:.2e})",
                params=params,
                estimator_kwargs={"num_walks": walk_cap},
            )
        )
        configs.append(
            MethodConfig(
                method="tea",
                label=f"tea(delta={delta:.2e})",
                params=params,
                estimator_kwargs={"max_walks": walk_cap, "max_pushes": DEFAULT_PUSH_CAP},
            )
        )
        configs.append(
            MethodConfig(
                method="tea+",
                label=f"tea+(delta={delta:.2e})",
                params=params,
                estimator_kwargs={"max_walks": walk_cap},
            )
        )
    for eps_a in eps_as:
        configs.append(
            MethodConfig(
                method="hk-relax",
                label=f"hk-relax(eps_a={eps_a:.2e})",
                estimator_kwargs={"eps_a": eps_a},
            )
        )
    for eps in epses:
        configs.append(
            MethodConfig(
                method="cluster-hkpr",
                label=f"cluster-hkpr(eps={eps:g})",
                estimator_kwargs={"eps": eps, "num_walks": walk_cap},
            )
        )
    if include_flow_methods:
        for locality in (0.1, 0.05):
            configs.append(
                MethodConfig(
                    method="simple-local",
                    label=f"simple-local(locality={locality:g})",
                    estimator_kwargs={"locality": locality},
                )
            )
        for iterations in (7, 15):
            configs.append(
                MethodConfig(
                    method="crd",
                    label=f"crd(iterations={iterations})",
                    estimator_kwargs={"iterations": iterations},
                )
            )
    return configs


# --------------------------------------------------------------------- #
# Table 7
# --------------------------------------------------------------------- #
def table7_statistics(datasets: tuple[str, ...] | None = None) -> list[dict[str, Any]]:
    """Dataset statistics (n, m, average degree) — Table 7."""
    names = datasets or tuple(DATASETS)
    return [dataset_statistics(name) for name in names]


# --------------------------------------------------------------------- #
# Figure 2: tuning c for TEA+
# --------------------------------------------------------------------- #
def figure2_tuning_c(
    datasets: tuple[str, ...] = QUICK_DATASETS,
    *,
    c_values: tuple[float, ...] = (0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0),
    num_seeds: int = 3,
    walk_cap: int = DEFAULT_WALK_CAP,
    rng: RandomState = 7,
) -> list[dict[str, Any]]:
    """TEA+ running time as a function of the hop-cap constant ``c`` (Figure 2).

    Uses ``eps_r = 0.5`` and ``delta = 1/n`` as in §7.2.  The expected shape
    is a U: very small ``c`` degrades TEA+ toward Monte-Carlo (many walks),
    very large ``c`` makes the push phase dominate.
    """
    generator = ensure_rng(rng)
    rows: list[dict[str, Any]] = []
    for dataset in datasets:
        graph = load_dataset(dataset)
        seeds = sample_seed_nodes(graph, num_seeds, rng=generator)
        for c in c_values:
            params = HKPRParams(delta=1.0 / graph.num_nodes, c=c)
            elapsed_total = 0.0
            work_total = 0
            walks_total = 0
            for seed_node in seeds:
                result = tea_plus(
                    graph, seed_node, params, rng=generator, max_walks=walk_cap
                )
                elapsed_total += result.elapsed_seconds
                work_total += result.counters.total_work
                walks_total += result.counters.random_walks
            rows.append(
                {
                    "dataset": dataset,
                    "c": c,
                    "avg_seconds": elapsed_total / len(seeds),
                    "avg_total_work": work_total / len(seeds),
                    "avg_random_walks": walks_total / len(seeds),
                }
            )
    return rows


# --------------------------------------------------------------------- #
# Figure 3: TEA vs TEA+ across eps_r
# --------------------------------------------------------------------- #
def figure3_tea_vs_teaplus(
    datasets: tuple[str, ...] = QUICK_DATASETS,
    *,
    eps_r_values: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9),
    delta: float | None = None,
    num_seeds: int = 3,
    walk_cap: int = DEFAULT_WALK_CAP,
    rng: RandomState = 11,
) -> list[dict[str, Any]]:
    """Running time of TEA vs TEA+ as ``eps_r`` varies (Figure 3).

    Expected shape: TEA+ is faster everywhere, with the gap widening as
    ``eps_r`` grows (the residue reduction and early exit bite harder when
    the error budget is loose).
    """
    generator = ensure_rng(rng)
    rows: list[dict[str, Any]] = []
    for dataset in datasets:
        graph = load_dataset(dataset)
        effective_delta = delta if delta is not None else 1.0 / graph.num_nodes
        seeds = sample_seed_nodes(graph, num_seeds, rng=generator)
        for eps_r in eps_r_values:
            params = HKPRParams(eps_r=eps_r, delta=effective_delta)
            configs = [
                MethodConfig(
                    method="tea",
                    label="tea",
                    params=params,
                    estimator_kwargs={
                        "max_walks": walk_cap,
                        "max_pushes": DEFAULT_PUSH_CAP,
                    },
                ),
                MethodConfig(
                    method="tea+",
                    label="tea+",
                    params=params,
                    estimator_kwargs={"max_walks": walk_cap},
                ),
            ]
            records = run_query_set(
                graph, seeds, configs, dataset=dataset, params=params, rng=generator
            )
            for row in aggregate(records):
                row["eps_r"] = eps_r
                rows.append(row)
    return rows


# --------------------------------------------------------------------- #
# Figures 4 and 5: time / memory vs conductance
# --------------------------------------------------------------------- #
def figure4_time_quality(
    datasets: tuple[str, ...] = QUICK_DATASETS,
    *,
    num_seeds: int = 3,
    walk_cap: int = DEFAULT_WALK_CAP,
    include_flow_methods: bool = True,
    rng: RandomState = 13,
) -> list[dict[str, Any]]:
    """Running time vs cluster conductance for all methods (Figure 4)."""
    generator = ensure_rng(rng)
    rows: list[dict[str, Any]] = []
    for dataset in datasets:
        graph = load_dataset(dataset)
        seeds = sample_seed_nodes(graph, num_seeds, rng=generator)
        configs = default_method_sweeps(
            graph.num_nodes,
            walk_cap=walk_cap,
            include_flow_methods=include_flow_methods and dataset in ("dblp-sim", "youtube-sim"),
        )
        records = run_query_set(graph, seeds, configs, dataset=dataset, rng=generator)
        rows.extend(aggregate(records))
    return rows


def figure5_memory(
    datasets: tuple[str, ...] = QUICK_DATASETS,
    *,
    num_seeds: int = 3,
    walk_cap: int = DEFAULT_WALK_CAP,
    rng: RandomState = 17,
) -> list[dict[str, Any]]:
    """Memory proxy (graph + working entries) vs conductance (Figure 5).

    Expected shape: the graph storage dominates, so all HKPR methods are
    roughly comparable.
    """
    generator = ensure_rng(rng)
    rows: list[dict[str, Any]] = []
    for dataset in datasets:
        graph = load_dataset(dataset)
        seeds = sample_seed_nodes(graph, num_seeds, rng=generator)
        configs = default_method_sweeps(graph.num_nodes, walk_cap=walk_cap)
        records = run_query_set(graph, seeds, configs, dataset=dataset, rng=generator)
        for row in aggregate(records):
            row["graph_entries"] = graph.num_nodes + 2 * graph.num_edges
            rows.append(row)
    return rows


# --------------------------------------------------------------------- #
# Figure 6: ranking accuracy (NDCG) of normalized HKPR
# --------------------------------------------------------------------- #
def figure6_ndcg(
    datasets: tuple[str, ...] = ("dblp-sim", "grid3d-sim"),
    *,
    num_seeds: int = 3,
    walk_cap: int = DEFAULT_WALK_CAP,
    rng: RandomState = 19,
) -> list[dict[str, Any]]:
    """NDCG of each estimator's normalized-HKPR ranking vs its running time
    (Figure 6).  Ground truth comes from the power method (``exact_hkpr``)."""
    generator = ensure_rng(rng)
    rows: list[dict[str, Any]] = []
    for dataset in datasets:
        graph = load_dataset(dataset)
        seeds = sample_seed_nodes(graph, num_seeds, rng=generator)
        ground_truth = {
            seed_node: exact_hkpr(graph, seed_node, HKPRParams()).to_dense(graph)
            for seed_node in seeds
        }
        configs = default_method_sweeps(graph.num_nodes, walk_cap=walk_cap)
        for config in configs:
            total_seconds = 0.0
            total_ndcg = 0.0
            for seed_node in seeds:
                start = time.perf_counter()
                estimate = estimate_hkpr_only(
                    graph, seed_node, config, rng=generator
                )
                total_seconds += time.perf_counter() - start
                total_ndcg += ndcg_of_estimate(
                    graph, estimate, ground_truth[seed_node], k=100
                )
            rows.append(
                {
                    "dataset": dataset,
                    "label": config.display_name(),
                    "method": config.method,
                    "avg_seconds": total_seconds / len(seeds),
                    "avg_ndcg": total_ndcg / len(seeds),
                }
            )
    return rows


# --------------------------------------------------------------------- #
# Table 8: clusters vs ground-truth communities
# --------------------------------------------------------------------- #
def table8_ground_truth(
    *,
    num_seeds: int = 10,
    walk_cap: int = DEFAULT_WALK_CAP,
    t_values: tuple[float, ...] = (3.0, 5.0, 10.0),
    rng: RandomState = 23,
    community_dataset: str = "communities-sim",
) -> list[dict[str, Any]]:
    """Best average F1 against ground-truth communities, per method (Table 8).

    For each method the driver sweeps the heat constant ``t`` and the
    method's accuracy knob, reports the best average F1 achieved, and the
    average running time of that best setting — exactly the Table-8 protocol.
    """
    generator = ensure_rng(rng)
    graph, communities = load_community_dataset(community_dataset)
    seeds = communities.sample_seeds(
        num_seeds, min_community_size=10, seed=generator
    )
    base_delta = 1.0 / graph.num_nodes

    method_grids: dict[str, list[MethodConfig]] = {}
    for t in t_values:
        for delta_scale in (1.0, 0.2):
            params = HKPRParams(t=t, delta=base_delta * delta_scale)
            for method in ("monte-carlo", "tea", "tea+"):
                if method == "monte-carlo":
                    kwargs = {"num_walks": walk_cap}
                elif method == "tea":
                    kwargs = {"max_walks": walk_cap, "max_pushes": DEFAULT_PUSH_CAP}
                else:
                    kwargs = {"max_walks": walk_cap}
                method_grids.setdefault(method, []).append(
                    MethodConfig(
                        method=method,
                        label=f"{method}(t={t:g},delta={params.delta:.1e})",
                        params=params,
                        estimator_kwargs=kwargs,
                    )
                )
        for eps_a in (1e-3, 1e-4):
            method_grids.setdefault("hk-relax", []).append(
                MethodConfig(
                    method="hk-relax",
                    label=f"hk-relax(t={t:g},eps_a={eps_a:.0e})",
                    params=HKPRParams(t=t, delta=base_delta),
                    estimator_kwargs={"eps_a": eps_a},
                )
            )
        for eps in (0.2, 0.1):
            method_grids.setdefault("cluster-hkpr", []).append(
                MethodConfig(
                    method="cluster-hkpr",
                    label=f"cluster-hkpr(t={t:g},eps={eps:g})",
                    params=HKPRParams(t=t, delta=base_delta),
                    estimator_kwargs={"eps": eps, "num_walks": walk_cap},
                )
            )

    rows: list[dict[str, Any]] = []
    for method, configs in method_grids.items():
        best_f1 = -1.0
        best_row: dict[str, Any] = {}
        for config in configs:
            f1_total = 0.0
            seconds_total = 0.0
            for seed_node in seeds:
                outcome = local_cluster(
                    graph,
                    seed_node,
                    method=config.method,
                    params=config.params,
                    rng=generator,
                    estimator_kwargs=config.estimator_kwargs,
                    backend=config.backend,
                )
                f1_total += cluster_f1(outcome.cluster, seed_node, communities)
                seconds_total += outcome.elapsed_seconds
            avg_f1 = f1_total / len(seeds)
            if avg_f1 > best_f1:
                best_f1 = avg_f1
                best_row = {
                    "method": method,
                    "best_label": config.display_name(),
                    "avg_f1": avg_f1,
                    "avg_seconds": seconds_total / len(seeds),
                }
        rows.append(best_row)
    rows.sort(key=lambda row: -row["avg_f1"])
    return rows


# --------------------------------------------------------------------- #
# Figure 7: sensitivity to subgraph density
# --------------------------------------------------------------------- #
def figure7_density(
    datasets: tuple[str, ...] = ("dblp-sim", "orkut-sim"),
    *,
    seeds_per_stratum: int = 3,
    walk_cap: int = DEFAULT_WALK_CAP,
    rng: RandomState = 29,
) -> list[dict[str, Any]]:
    """Time vs conductance for seed sets of high / medium / low subgraph
    density (Figure 7).  Expected shape: high-density seeds give lower
    conductance and faster push-based methods."""
    generator = ensure_rng(rng)
    rows: list[dict[str, Any]] = []
    for dataset in datasets:
        graph = load_dataset(dataset)
        strata = sample_density_stratified_seeds(
            graph, seeds_per_stratum=seeds_per_stratum, seed=generator
        )
        configs = default_method_sweeps(
            graph.num_nodes,
            walk_cap=walk_cap,
            delta_values=(0.2 / graph.num_nodes,),
            eps_a_values=(5e-4,),
            eps_values=(0.2,),
        )
        for stratum_name, seeds in strata.as_dict().items():
            if not seeds:
                continue
            records = run_query_set(
                graph, seeds, configs, dataset=dataset, rng=generator
            )
            for row in aggregate(records):
                row["stratum"] = stratum_name
                rows.append(row)
    return rows


# --------------------------------------------------------------------- #
# Figures 8 & 9: effect of the heat constant t
# --------------------------------------------------------------------- #
def figure8_9_heat(
    datasets: tuple[str, ...] = ("dblp-sim", "plc-sim"),
    *,
    t_values: tuple[float, ...] = (5.0, 10.0, 20.0, 40.0),
    num_seeds: int = 3,
    walk_cap: int = DEFAULT_WALK_CAP,
    rng: RandomState = 31,
) -> list[dict[str, Any]]:
    """Running time and conductance as the heat constant grows (Figures 8-9).

    Expected shape: every method slows down with ``t``; conductance improves;
    TEA+'s advantage over HK-Relax grows with ``t`` (HK-Relax carries the
    ``e^t`` factor)."""
    generator = ensure_rng(rng)
    rows: list[dict[str, Any]] = []
    for dataset in datasets:
        graph = load_dataset(dataset)
        seeds = sample_seed_nodes(graph, num_seeds, rng=generator)
        for t in t_values:
            params = HKPRParams(t=t, delta=1.0 / graph.num_nodes)
            configs = [
                MethodConfig(
                    method="monte-carlo",
                    label="monte-carlo",
                    params=params,
                    estimator_kwargs={"num_walks": walk_cap},
                ),
                MethodConfig(
                    method="hk-relax",
                    label="hk-relax",
                    params=params,
                    estimator_kwargs={"eps_a": 5e-4},
                ),
                MethodConfig(
                    method="tea",
                    label="tea",
                    params=params,
                    estimator_kwargs={
                        "max_walks": walk_cap,
                        "max_pushes": DEFAULT_PUSH_CAP,
                    },
                ),
                MethodConfig(
                    method="tea+",
                    label="tea+",
                    params=params,
                    estimator_kwargs={"max_walks": walk_cap},
                ),
            ]
            records = run_query_set(
                graph, seeds, configs, dataset=dataset, params=params, rng=generator
            )
            for row in aggregate(records):
                row["t"] = t
                rows.append(row)
    return rows


# --------------------------------------------------------------------- #
# Ablation study (beyond the paper, DESIGN.md §6)
# --------------------------------------------------------------------- #
def ablation_tea_plus(
    datasets: tuple[str, ...] = QUICK_DATASETS,
    *,
    num_seeds: int = 3,
    walk_cap: int = 50_000,
    rng: RandomState = 37,
) -> list[dict[str, Any]]:
    """TEA+ with each optimization disabled, to quantify its contribution."""
    generator = ensure_rng(rng)
    variants = {
        "tea+(full)": {"apply_residue_reduction": True, "apply_offset": True},
        "tea+(no residue reduction)": {
            "apply_residue_reduction": False,
            "apply_offset": False,
        },
        "tea+(no offset)": {"apply_residue_reduction": True, "apply_offset": False},
    }
    rows: list[dict[str, Any]] = []
    for dataset in datasets:
        graph = load_dataset(dataset)
        seeds = sample_seed_nodes(graph, num_seeds, rng=generator)
        params = HKPRParams(delta=0.1 / graph.num_nodes)
        # A constrained push budget leaves residue mass after HK-Push+, so the
        # walk phase (whose cost the residue reduction targets) actually runs.
        push_budget = 2_000
        ground_truth = {
            seed_node: exact_hkpr(graph, seed_node, params).to_dense(graph)
            for seed_node in seeds
        }
        for label, switches in variants.items():
            seconds_total = 0.0
            walks_total = 0
            alpha_total = 0.0
            ndcg_total = 0.0
            for seed_node in seeds:
                # A per-seed (variant-independent) RNG keeps the walk
                # randomness identical across variants, so differences are
                # attributable to the ablated optimization alone.
                result = tea_plus(
                    graph,
                    seed_node,
                    params,
                    rng=1_000_003 * (seed_node + 1),
                    max_walks=walk_cap,
                    push_budget=push_budget,
                    **switches,
                )
                seconds_total += result.elapsed_seconds
                walks_total += result.counters.random_walks
                alpha_total += result.counters.extras.get("alpha", 0.0)
                ndcg_total += ndcg_of_estimate(
                    graph, result, ground_truth[seed_node], k=100
                )
            rows.append(
                {
                    "dataset": dataset,
                    "variant": label,
                    "avg_seconds": seconds_total / len(seeds),
                    "avg_random_walks": walks_total / len(seeds),
                    "avg_residual_alpha": alpha_total / len(seeds),
                    "avg_ndcg": ndcg_total / len(seeds),
                }
            )
    return rows


# --------------------------------------------------------------------- #
# Expected-shape checks shared by benchmarks and tests
# --------------------------------------------------------------------- #
def speedup_summary(rows: list[dict[str, Any]], fast_method: str, slow_method: str) -> float:
    """Average speedup of ``fast_method`` over ``slow_method`` across datasets."""
    fast = [row["avg_seconds"] for row in rows if row.get("method") == fast_method]
    slow = [row["avg_seconds"] for row in rows if row.get("method") == slow_method]
    if not fast or not slow:
        return float("nan")
    return float(np.mean(slow) / max(np.mean(fast), 1e-12))
