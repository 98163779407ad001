"""serve-open and mutate-mix: an in-process ``QueryService`` under open-loop load."""

from __future__ import annotations

import itertools
import math
import threading
import time

import numpy as np

import inputs
from hostclock import HostClock, Ticker, between
from inputs import GRAPH_M, GRAPH_N, GRAPH_NAME, GRAPH_SPEC
from measure import cpu_seconds, median_setup, pct, peak_rss_mb, share
from serving import (
    MC_PPR,
    MONTE_CARLO_1K,
    Op,
    check_answers,
    latency_stats,
    probe_conductance,
    run_open_loop,
    serving_layers,
    view_of,
)
from spans import SpanLog, ledger_metrics

SETUP_REPEATS = 5
WARMUP_SECONDS = 1.0
DRAIN_TIMEOUT_SECONDS = 60.0
#: Traced passes keep every program trace (the default ring keeps 256).
TRACE_RING = 1_000_000
PROBES = 32

#: serve-open: offered rates and each one's share of ``--seconds``.  The
#: e2e metrics come from the first rate, so it gets the most time; the
#: others only decide ``qps_at_limit``.  200/400/800 q/s were chosen on a
#: 2-vCPU host while it ran TEA+ in 86 ms; later it took about 180 ms and
#: ran the serving mix about half as fast, and halving the rates keeps
#: their operating points: light load (a third of a core), the knee, and a
#: backlog.
OPEN_LADDER = ((100, 4 / 6), (200, 1 / 6), (400, 1 / 6))
SLO_P99_MS = 100.0
SLO_FAIL_SHARE = 0.01
SLO_DRAIN_SECONDS = 1.0

#: mutate-mix: reader and writer rates, and the shape of one batch.  At
#: 10 batches/s the writes and the overlay rebuild each one triggers hold
#: the interpreter 35-50% of the time: read latency splits into stalled and
#: unstalled reads with the median on the edge between them, and a host 30%
#: slower triples it.  At 1 batch/s about 4% of reads meet a write, so p50
#: and p90 stay among unstalled reads and the stalls show in p99.
READ_RATE = 100
WRITE_RATE = 1
EDGES_PER_SIDE = 128
#: Warm batches between two host-clock readings.
WARM_CHUNK = 5


def build_registry():
    from repro.service import GraphRegistry

    registry = GraphRegistry()
    registry.add_generated(GRAPH_SPEC, name=GRAPH_NAME)
    return registry


def setup_registry(clock: HostClock):
    """Build ``bench-100k`` ``SETUP_REPEATS`` times; returns the last
    registry and the median build time in reference seconds."""
    registry, seconds = median_setup(build_registry, SETUP_REPEATS, clock)
    inputs.check_graph(registry.get(GRAPH_NAME).graph)
    return registry, seconds


def make_service(registry, traced: bool):
    from repro.service import QueryService

    options = {"trace_capacity": TRACE_RING} if traced else {}
    return QueryService(registry, **options).start()


def submit(service, op: Op) -> None:
    from repro.exceptions import ReproError

    try:
        future = service.submit(GRAPH_NAME, op.method, op.seed, op.params)
    except ReproError as error:
        op.done, op.error = time.perf_counter(), type(error).__name__
        return
    future.add_done_callback(lambda done: finish(op, done))


def finish(op: Op, future) -> None:
    """Keep only the answer's checked fields: holding whole responses would
    count thousands of result vectors into the peak RSS."""
    done = time.perf_counter()
    error = future.exception()
    if error is None:
        op.answer = view_of(future.result())
    else:
        op.error = type(error).__name__
    op.done = done


def drain(ops: list[Op]) -> None:
    """Wait until every op has finished, or fail the stragglers as timeouts."""
    deadline = time.perf_counter() + DRAIN_TIMEOUT_SECONDS
    pending = [op for op in ops if math.isnan(op.done)]
    while pending and time.perf_counter() < deadline:
        time.sleep(0.005)
        pending = [op for op in pending if math.isnan(op.done)]
    for op in pending:
        op.error = "timeout"


def probe(registry, panel) -> float:
    """Quality probe on a fresh service (see :func:`serving.probe_conductance`)."""
    method, params = MONTE_CARLO_1K
    graph = registry.get(GRAPH_NAME).graph
    service = make_service(registry, False)
    try:
        return probe_conductance(
            graph, panel,
            lambda node, rng: service.query(GRAPH_NAME, method, node, params, rng=rng)
            .result.ranking(graph),
        )
    finally:
        service.stop()


def query_ops(offsets, nodes, requests, start: float, rids) -> list[Op]:
    return [
        Op(method, int(node), params, due=start + offset, rid=next(rids))
        for offset, node, (method, params) in zip(offsets, nodes, requests)
    ]


# ---------------------------------------------------------------------- #
# serve-open
# ---------------------------------------------------------------------- #
def open_pass(
    registry, seed: int, seconds: float, clock: HostClock, log: SpanLog | None,
) -> list[dict]:
    """One pass over the rate ladder; each rate gets a fresh service."""
    windows, rids = [], itertools.count()
    for stream, (rate, fraction) in enumerate(OPEN_LADDER):
        window = seconds * fraction
        offsets, nodes, ppr = inputs.open_schedule(seed, 10 + stream, rate, WARMUP_SECONDS + window)
        requests = [MC_PPR if flag else MONTE_CARLO_1K for flag in ppr]
        service = make_service(registry, log is not None)
        try:
            start = time.perf_counter() + 0.05
            ops = query_ops(offsets, nodes, requests, start, rids)
            cut = int(np.searchsorted(offsets, WARMUP_SECONDS))
            warm, measured = ops[:cut], ops[cut:]
            run_open_loop(warm, lambda op: submit(service, op), log)
            with Ticker(clock) as ticker:
                cpu = cpu_seconds()
                run_open_loop(measured, lambda op: submit(service, op), log)
                drain(warm + measured)
                cpu = cpu_seconds() - cpu
            window_end = start + WARMUP_SECONDS + window
            finished = [op.done for op in measured if not math.isnan(op.done)]
            windows.append({
                "rate": rate,
                "seconds": window,
                "ops": measured,
                "stats": latency_stats(measured, window),
                "cpu_seconds": cpu - ticker.cpu_seconds,
                "host_factor": ticker.factor,
                "drain_seconds": max(finished, default=window_end) - window_end,
                "index": service.stats()["index"],
                "traces": service.recent_traces() if log is not None else [],
            })
        finally:
            service.stop()
    return windows


def qps_at_limit(windows: list[dict]) -> float:
    """Highest offered rate meeting the p99, failure and drain limits."""
    passing = [
        w["rate"] for w in windows
        if w["stats"]["p99"] <= SLO_P99_MS
        and share(w["stats"]["failed"], w["stats"]["attempted"]) <= SLO_FAIL_SHARE
        and w["drain_seconds"] <= SLO_DRAIN_SECONDS
    ]
    return float(max(passing, default=0))


def serve_open(seed: int, seconds: float, traced: bool, clock: HostClock) -> dict:
    registry, setup_s = setup_registry(clock)
    windows = open_pass(registry, seed, seconds, clock, None)
    rss = peak_rss_mb()
    first = windows[0]
    all_ops = [op for w in windows for op in w["ops"]]
    answered = len(first["ops"]) - first["stats"]["failed"]
    cpu_ms = first["cpu_seconds"] * 1000.0 / max(answered, 1)
    conductance = probe(registry, inputs.rng_for(inputs.PANEL_SEED, 1).integers(0, GRAPH_N, PROBES))
    ok, detail = check_answers(all_ops)
    result = {
        "attempted": len(all_ops),
        "failed": sum(op.answer is None for op in all_ops),
        "checks": {"answers": (ok, detail)},
        "e2e": {
            "setup_s": setup_s,
            "rss_peak_mb": rss,
            "success_share": share(sum(op.answer is not None for op in all_ops), len(all_ops)),
            "latency_ms_p50": first["stats"]["p50"],
            "latency_ms_p90": first["stats"]["p90"],
            "cpu_ms_per_query": cpu_ms / first["host_factor"],
            "conductance_mean": conductance,
            "qps_at_limit": qps_at_limit(windows),
        },
        "details": {
            "cpu_ms_per_query_measured": cpu_ms,
            "windows": [
                {k: v for k, v in w.items() if k not in ("ops", "traces")} for w in windows
            ],
        },
    }
    if traced:
        log = SpanLog()
        log.install_service()
        try:
            traced_windows = open_pass(registry, seed, seconds, clock, log)
        finally:
            log.uninstall()
        traced_first = traced_windows[0]
        traced_ops = [op for w in traced_windows for op in w["ops"]]
        result["layers"] = {
            **serving_layers(log, [t for w in traced_windows for t in w["traces"]], traced_ops),
            **ledger_metrics(log, {
                op.rid: (op.due, op.done) for op in traced_first["ops"] if op.answer is not None
            }),
            "service.rejected_share": share(
                sum(op.error == "ServiceOverloadedError" for op in traced_ops), len(traced_ops)
            ),
            "setup.graph_build_s": setup_s,
            "loadgen.late_ms_p99": first["stats"]["late_p99"],
            "trace.overhead_share": traced_first["stats"]["p50"] / first["stats"]["p50"] - 1.0,
        }
    return result


# ---------------------------------------------------------------------- #
# mutate-mix
# ---------------------------------------------------------------------- #
def warm_batches(seconds: float) -> int:
    """Batches applied back to back before the window, so that the overlay
    crosses the compaction threshold halfway through it in every run; their
    latencies, apart from any read, are the ``mutation_ms_*`` metrics."""
    from repro.dynamic.delta import default_compaction_threshold

    to_compaction = default_compaction_threshold(GRAPH_M) // (2 * EDGES_PER_SIDE) + 1
    return max(0, to_compaction - int(round(WRITE_RATE * seconds / 2)))


def mutate_pass(
    registry, seed: int, seconds: float, plan, warm: int, clock: HostClock, log: SpanLog | None,
) -> dict:
    """Warm batches back to back, then reads and writes on their schedules.

    The warm batches are pure-Python overlay work, timed on the host clock:
    it is read before the first batch and after every ``WARM_CHUNK``.
    """
    from repro.exceptions import ReproError
    from repro.index.builder import select_hubs

    hubs = select_hubs(registry.get(GRAPH_NAME).graph, inputs.HOT_HUBS)
    offsets, nodes = inputs.hot_schedule(seed, 20, hubs, READ_RATE, WARMUP_SECONDS + seconds)
    service = make_service(registry, log is not None)
    rids = itertools.count()

    def mutate(op: Op) -> None:
        add, remove = plan[op.seed]
        try:
            op.answer = service.mutate_graph(GRAPH_NAME, add=add, remove=remove)
        except ReproError as error:
            op.error = type(error).__name__
        op.done = time.perf_counter()

    try:
        warm_writes = [Op("mutate", batch, {}, rid=next(rids)) for batch in range(warm)]
        chunks = [warm_writes[i:i + WARM_CHUNK] for i in range(0, warm, WARM_CHUNK)]
        readings = [clock.read()]
        for chunk in chunks:
            for op in chunk:
                op.due = op.sent = time.perf_counter()
                mutate(op)
            readings.append(clock.read())
        mutation_ms = [
            op.latency_ms / factor
            for chunk, factor in zip(chunks, between(readings))
            for op in chunk if op.answer is not None
        ]
        start = time.perf_counter() + 0.05
        reads = query_ops(offsets, nodes, itertools.repeat(MONTE_CARLO_1K), start, rids)
        cut = int(np.searchsorted(offsets, WARMUP_SECONDS))
        run_open_loop(reads[:cut], lambda op: submit(service, op), log)
        reads = reads[cut:]
        window_start = start + WARMUP_SECONDS
        writes = [
            Op("mutate", warm + k, {}, due=window_start + k / WRITE_RATE, rid=next(rids))
            for k in range(len(plan) - warm)
        ]
        with Ticker(clock) as ticker:
            cpu = cpu_seconds()
            writer = threading.Thread(target=run_open_loop, args=(writes, mutate, log))
            writer.start()
            run_open_loop(reads, lambda op: submit(service, op), log)
            writer.join()
            drain(reads)
            cpu = cpu_seconds() - cpu
        traces = service.recent_traces() if log is not None else []
    finally:
        service.stop()
    return {
        "reads": reads, "writes": writes, "warm_writes": warm_writes,
        "mutation_ms": mutation_ms, "cpu_seconds": cpu - ticker.cpu_seconds,
        "host_factor": ticker.factor, "traces": traces,
    }


def mutate_mix(seed: int, seconds: float, traced: bool, clock: HostClock) -> dict:
    from repro.index.builder import select_hubs

    registry, setup_s = setup_registry(clock)
    base = registry.get(GRAPH_NAME).graph
    warm = warm_batches(seconds)
    plan, final_keys = inputs.plan_mutations(
        inputs.edge_keys(base.indptr, base.indices, GRAPH_N), GRAPH_N,
        warm + int(round(WRITE_RATE * seconds)), EDGES_PER_SIDE, inputs.rng_for(seed, 30),
    )
    probe_panel = inputs.hot_seeds(
        select_hubs(base, inputs.HOT_HUBS), GRAPH_N, PROBES, inputs.rng_for(inputs.PANEL_SEED, 2)
    )
    # Probed before the mutations: the final graph differs from seed to seed.
    conductance = probe(registry, probe_panel)
    run = mutate_pass(registry, seed, seconds, plan, warm, clock, None)
    rss = peak_rss_mb()
    reads, writes, warm_writes = run["reads"], run["writes"], run["warm_writes"]
    entry = registry.get(GRAPH_NAME)
    served = entry.csr_graph()
    edges_ok = np.array_equal(inputs.edge_keys(served.indptr, served.indices, GRAPH_N), final_keys)
    ok, detail = check_answers(reads)
    ops = reads + writes + warm_writes
    stats = latency_stats(reads, seconds)
    answered = len(reads) - stats["failed"]
    cpu_ms = run["cpu_seconds"] * 1000.0 / max(answered, 1)
    mutation_ms = run["mutation_ms"]
    result = {
        "attempted": len(ops),
        "failed": sum(op.answer is None for op in ops),
        "checks": {
            "answers": (ok, detail),
            "edges": (edges_ok, f"served edge set {'equals' if edges_ok else 'differs from'} the model's"),
            "epoch": (entry.epoch == len(plan), f"epoch {entry.epoch}, batches {len(plan)}"),
        },
        "e2e": {
            "setup_s": setup_s,
            "rss_peak_mb": rss,
            "success_share": share(len(ops) - sum(op.answer is None for op in ops), len(ops)),
            "latency_ms_p50": stats["p50"],
            "latency_ms_p90": stats["p90"],
            "cpu_ms_per_query": cpu_ms / run["host_factor"],
            "conductance_mean": conductance,
            "mutation_ms_p50": pct(mutation_ms, 50),
            "mutation_ms_p90": pct(mutation_ms, 90),
        },
        "details": {
            "cpu_ms_per_query_measured": cpu_ms,
            "host_factor": run["host_factor"],
            "warm_batches": warm,
            "window_batches": len(writes),
            "window_mutation_ms_p50": pct([op.latency_ms for op in writes if op.answer is not None], 50),
            "compactions": sum(bool(op.answer and op.answer["compacted"]) for op in writes),
        },
    }
    if traced:
        log = SpanLog()
        log.install_service()
        try:
            traced_run = mutate_pass(build_registry(), seed, seconds, plan, warm, clock, log)
        finally:
            log.uninstall()
        traced_reads = traced_run["reads"]
        traced_p50 = latency_stats(traced_reads, seconds)["p50"]
        traced_writes = traced_run["writes"]
        result["layers"] = {
            **serving_layers(log, traced_run["traces"], traced_reads),
            **ledger_metrics(log, {
                op.rid: (op.due, op.done) for op in traced_reads if op.answer is not None
            }),
            "service.rejected_share": share(
                sum(op.error == "ServiceOverloadedError" for op in traced_reads), len(traced_reads)
            ),
            "dynamic.compactions": float(sum(
                bool(op.answer and op.answer["compacted"]) for op in traced_writes
            )),
            "setup.graph_build_s": setup_s,
            "loadgen.late_ms_p99": stats["late_p99"],
            "trace.overhead_share": traced_p50 / stats["p50"] - 1.0,
        }
    return result
