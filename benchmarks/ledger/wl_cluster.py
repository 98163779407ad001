"""cluster-teaplus: the paper's TEA+ local-clustering query as library calls."""

from __future__ import annotations

import contextlib
import time

import numpy as np

import inputs
from hostclock import HostClock, between
from measure import cpu_seconds, mean, median_setup, pct, peak_rss_mb, share
from spans import SpanLog, ledger_metrics

DATASETS_USED = ("dblp-sim", "livejournal-sim")
PANEL_SIZE = 50
CHECK_SEEDS = 8
SETUP_REPEATS = 3
#: Untimed calls before the window (the first calls pay lazy imports).
WARMUP_SECONDS = 1.0


def setup(clock: HostClock):
    """Build both surrogate graphs ``SETUP_REPEATS`` times (median time)."""
    from repro.bench.datasets import DATASETS

    return median_setup(
        lambda: {name: DATASETS[name].builder() for name in DATASETS_USED}, SETUP_REPEATS, clock,
    )


def panels(graphs) -> dict[str, list[int]]:
    """The fixed seed panel: 50 nodes per graph, drawn once for all seeds.

    A panel drawn per workload seed moves the latency median by 5-7% from
    seed to seed on its own (the per-node cost of TEA+ is wide), which
    would swamp the regressions the benchmark is meant to show; the seed
    instead orders the queries and picks the nodes checked against exact
    HKPR.
    """
    from repro.bench.harness import sample_seed_nodes

    return {
        name: sample_seed_nodes(graph, PANEL_SIZE, rng=inputs.PANEL_SEED)
        for name, graph in graphs.items()
    }


def run_queries(
    graphs, order, seed: int, seconds: float, clock: HostClock,
    log: SpanLog | None = None, full_pass: bool = True,
) -> dict:
    """Closed loop on one thread, round-robin over ``order`` until
    ``seconds`` have passed (and, with ``full_pass``, every seed ran).

    The host clock is read after every call; a call's wall and CPU time
    are scaled by the mean of the readings on either side of it.  Keeps the
    first answer per seed only: repeated calls give the same answer, and
    holding every one would grow the peak RSS with the number of calls the
    window fits.
    """
    import repro
    from repro.exceptions import ReproError

    params = {name: repro.HKPRParams(delta=1.0 / g.num_nodes) for name, g in graphs.items()}
    calls, answers, cpu = [], {}, []
    readings = [clock.read()]
    began = time.perf_counter()
    index = 0
    while (full_pass and index < len(order)) or time.perf_counter() - began < seconds:
        name, node = order[index % len(order)]
        scope = log.request(index) if log is not None else contextlib.nullcontext()
        cpu_started = cpu_seconds()
        started = time.perf_counter()
        try:
            with scope:
                result = repro.local_cluster(
                    graphs[name], node, method="tea+", params=params[name],
                    rng=inputs.rng_for(seed, 40, index),
                )
        except ReproError:
            result = None
        calls.append((index, name, node, started, time.perf_counter(), result is not None))
        cpu.append(cpu_seconds() - cpu_started)
        readings.append(clock.read())
        if result is not None:
            answers.setdefault((name, node), result)
        index += 1
    factors = between(readings)
    per_node: dict[tuple[str, int], list[float]] = {}
    for (_i, name, node, started, ended, ok), factor in zip(calls, factors):
        if ok:
            per_node.setdefault((name, node), []).append((ended - started) * 1000.0 / factor)
    node_ms = [pct(times, 50) for times in per_node.values()]
    answered = [(c, f) for c, f, call in zip(cpu, factors, calls) if call[-1]]
    return {
        "calls": calls,
        "answers": answers,
        "failed": len(calls) - len(answered),
        "params": params,
        "cpu_ms_per_query": mean([c * 1000.0 / f for c, f in answered]),
        "p50": pct(node_ms, 50),
        "p90": pct(node_ms, 90),
    }


def check_guarantee(graph, params, result) -> float:
    """Largest relative error on nodes whose exact HKPR over degree exceeds
    delta; raises when the (d, eps_r, delta) guarantee is broken."""
    from repro import exact_hkpr

    exact = exact_hkpr(graph, result.seed, params).to_dense(graph, include_offset=False)
    estimate = result.to_dense(graph)
    degrees = graph.degrees.astype(float)
    safe = np.maximum(degrees, 1.0)
    significant = exact / safe > params.delta
    relative = np.abs(estimate[significant] - exact[significant]) / exact[significant]
    absolute = np.abs(estimate[~significant] - exact[~significant]) / safe[~significant]
    worst = float(relative.max(initial=0.0))
    if worst > params.eps_r or float(absolute.max(initial=0.0)) > params.eps_r * params.delta:
        raise AssertionError(f"seed {result.seed}: guarantee broken (max relative error {worst:.4f})")
    return worst


def check_clusters(graphs, params, answers: dict, seed: int) -> dict:
    """Checks on one answer per ``(graph, seed node)``."""
    from repro.clustering import conductance

    checks = {}
    bad = [
        key for key, res in answers.items()
        if key[1] not in res.cluster
        or abs(conductance(graphs[key[0]], res.cluster) - res.conductance) > 1e-9
    ]
    checks["clusters"] = (
        not bad, f"{len(answers)} clusters contain their seed with matching conductance"
        if not bad else f"bad clusters: {bad[:5]}",
    )
    rng = inputs.rng_for(seed, 41)
    worst = 0.0
    try:
        for name in DATASETS_USED:
            nodes = [node for graph_name, node in answers if graph_name == name]
            for node in rng.choice(nodes, size=min(CHECK_SEEDS, len(nodes)), replace=False):
                result = answers[(name, int(node))].hkpr
                worst = max(worst, check_guarantee(graphs[name], params[name], result))
        checks["guarantee"] = (True, f"max relative error {worst:.4f} on {CHECK_SEEDS} seeds per graph")
    except AssertionError as error:
        checks["guarantee"] = (False, str(error))
    return checks


def cluster_teaplus(seed: int, seconds: float, traced: bool, clock: HostClock) -> dict:
    graphs, setup_s = setup(clock)
    order = inputs.interleave_panels(panels(graphs), seed)
    run_queries(graphs, order, seed, WARMUP_SECONDS, clock, full_pass=False)
    timed = run_queries(graphs, order, seed, seconds, clock)
    rss = peak_rss_mb()
    calls, answers, failed = timed["calls"], timed["answers"], timed["failed"]
    result = {
        "attempted": len(calls),
        "failed": failed,
        "checks": check_clusters(graphs, timed["params"], answers, seed),
        "e2e": {
            "setup_s": setup_s,
            "rss_peak_mb": rss,
            "success_share": share(len(calls) - failed, len(calls)),
            "cluster_ms_p50": timed["p50"],
            "cluster_ms_p90": timed["p90"],
            "cpu_ms_per_query": timed["cpu_ms_per_query"],
            "conductance_mean": mean([res.conductance for res in answers.values()]),
        },
        "details": {"queries": len(calls), "panel": PANEL_SIZE * len(graphs)},
    }
    if traced:
        log = SpanLog()
        log.install_library()
        try:
            traced_run = run_queries(graphs, order, seed, seconds, clock, log)
        finally:
            log.uninstall()
        results = [res.hkpr for res in traced_run["answers"].values()]
        walks = sum(r.counters.random_walks for r in results)
        walk_seconds = sum(log.durations("engine.walk_phase"))
        result["layers"] = {
            "hkpr.push_ms_p50": pct(log.durations("hkpr.push"), 50) * 1000.0,
            "hkpr.push_ops_per_query": mean([r.counters.push_operations for r in results]),
            "hkpr.early_exit_share": share(sum(r.early_exit for r in results), len(results)),
            "clustering.sweep_ms_p50": pct(log.durations("clustering.sweep"), 50) * 1000.0,
            "engine.kernel_ms_p50": pct(log.durations("engine.walk_phase"), 50) * 1000.0,
            "engine.walks_per_s_busy": walks / walk_seconds if walk_seconds else 0.0,
            "engine.walks_per_query": mean([r.counters.random_walks for r in results]),
            **ledger_metrics(log, {
                index: (started, ended)
                for index, _n, _v, started, ended, ok in traced_run["calls"] if ok
            }),
            "setup.graph_build_s": setup_s,
            "trace.overhead_share": traced_run["p50"] / timed["p50"] - 1.0,
        }
    return result
