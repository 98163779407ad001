"""Load-generation and answer-checking pieces shared by the serving workloads."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from measure import mean, pct, share

#: Request mixes (method, params) named by the workloads.
MONTE_CARLO_1K = ("monte-carlo", {"t": 5, "num_walks": 1000})
MONTE_CARLO_3K = ("monte-carlo", {"t": 5, "num_walks": 3000})
MC_PPR = ("mc-ppr", {})


@dataclass
class Op:
    """One scheduled operation: a query, or a mutation batch."""

    method: str
    seed: int
    params: dict
    due: float = math.nan
    #: Request id carried into the traced pass's spans.
    rid: int = -1
    sent: float = math.nan
    done: float = math.nan
    #: Response view (see :func:`view_of`) or mutation summary; None on failure.
    answer: dict | None = None
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


def view_of(response) -> dict:
    """The fields of an in-process ``QueryResponse`` the checks read, named
    as in the HTTP envelope (without ranking the result)."""
    return {
        "method": response.request.method,
        "seed_node": response.request.seed_node,
        "params": dict(response.request.params),
        "cached": response.cached,
        "latency_ms": response.latency_seconds * 1000.0,
        "counters": response.result.counters.as_dict(),
        "early_exit": response.result.early_exit,
    }


def run_open_loop(ops: list[Op], send, log=None) -> None:
    """Send ``ops`` at their due times from the calling thread.

    Lateness (send time minus due time) is part of each op's latency, so a
    stalled generator shows up instead of hiding in a shifted schedule.
    """
    for op in ops:
        wait = op.due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        op.sent = time.perf_counter()
        if log is None:
            send(op)
            continue
        with log.request(op.rid):
            log.record("loadgen.late", op.due, op.sent)
            send(op)


def expected_walks(method: str, params: dict) -> int:
    from repro.estimators import resolve

    return int(resolve(method).with_defaults(params)["num_walks"])


def check_answers(ops: list[Op]) -> tuple[bool, str]:
    """Every answered query echoes its method and seed, and its walks add up:
    ``random_walks`` equals ``num_walks``, or stored plus sampled walks do."""
    for op in ops:
        answer = op.answer
        if answer is None:
            continue
        if answer["method"] != op.method or answer["seed_node"] != op.seed:
            return False, f"echo mismatch: sent {op.method}/{op.seed}, got {answer['method']}/{answer['seed_node']}"
        counters = answer["counters"]
        wanted = expected_walks(op.method, op.params)
        if "walks_from_index" in counters:
            stored, sampled = counters["walks_from_index"], counters["walks_sampled"]
            if stored + sampled != wanted or counters["random_walks"] != sampled:
                return False, f"seed {op.seed}: {stored} stored + {sampled} sampled != {wanted}"
        elif counters["random_walks"] != wanted:
            return False, f"seed {op.seed}: {counters['random_walks']} walks != {wanted}"
    return True, f"{sum(op.answer is not None for op in ops)} answers"


def probe_conductance(graph, panel, rank) -> float:
    """Mean sweep conductance of pinned answers on a fixed probe panel.

    ``rank(node, rng)`` asks the program for one answer pinned to ``rng``
    and returns its node ranking; a ranking without its seed gets it first,
    as ``sweep_cut`` does.
    """
    from repro.clustering.sweep import sweep_from_ranking

    values = []
    for rng, node in enumerate(panel):
        node = int(node)
        ranking = list(rank(node, rng))
        if node not in ranking:
            ranking.insert(0, node)
        values.append(sweep_from_ranking(graph, ranking).conductance)
    return mean(values)


def latency_stats(ops: list[Op], seconds: float) -> dict:
    """Client-side numbers of one measured window."""
    answered = [op for op in ops if op.answer is not None]
    latencies = [op.latency_ms for op in answered]
    late = [(op.sent - op.due) * 1000.0 for op in ops if not math.isnan(op.sent)]
    return {
        "attempted": len(ops),
        "failed": len(ops) - len(answered),
        "p50": pct(latencies, 50),
        "p90": pct(latencies, 90),
        "p99": pct(latencies, 99),
        "late_p99": pct(late, 99),
        "throughput": len(answered) / seconds if seconds else 0.0,
    }


def serving_layers(log, program_traces: list[dict], ops: list[Op]) -> dict:
    """Per-layer metrics of the serving path from a traced pass: counts the
    answers carry, the benchmark's own spans, and the program's
    ``QueryTrace`` phases."""
    def p50_ms(name: str) -> float:
        return pct(log.durations(name), 50) * 1000.0

    answers = [op.answer for op in ops if op.answer is not None]
    executed = [a["counters"] for a in answers if not a["cached"]]
    stored = sum(c.get("walks_from_index", 0) for c in executed)
    online = sum(c["random_walks"] for c in executed)
    kernel_seconds = sum(log.durations("engine.kernel"))
    # Finalize (plus glue) per batch: execute_plans time not spent in kernels.
    finalize: dict[int, float] = {}
    for span in log.spans:
        if span.name in ("engine.execute_plans", "engine.kernel") and span.batch is not None:
            sign = 1.0 if span.name == "engine.execute_plans" else -1.0
            finalize[span.batch] = finalize.get(span.batch, 0.0) + sign * (span.end - span.start)
    queue = [wait * 1000.0 for wait in log.queue_waits()]
    phases: dict[str, list[float]] = {}
    for record in program_traces:
        for span in record.get("spans", ()):
            phases.setdefault(span["name"], []).append(span["duration_ms"])
    return {
        "hkpr.push_ops_per_query": mean([c["push_operations"] for c in executed]),
        "hkpr.early_exit_share": share(sum(bool(a["early_exit"]) for a in answers), len(answers)),
        "engine.kernel_ms_p50": p50_ms("engine.kernel"),
        "engine.walks_per_s_busy": online / kernel_seconds if kernel_seconds else 0.0,
        "engine.walks_per_query": mean([c["random_walks"] for c in executed]),
        "engine.finalize_ms_p50": pct(list(finalize.values()), 50) * 1000.0,
        "service.submit_us_p50": p50_ms("service.submit") * 1000.0,
        "service.queue_wait_ms_p50": pct(queue, 50),
        "service.queue_wait_ms_p99": pct(queue, 99),
        "service.batch_occupancy_mean": mean([len(a["members"]) for a in log.attrs("service.batch")]),
        "planner.plan_ms_p50": p50_ms("planner.build_plan"),
        "cache.hit_share": share(sum(a["cached"] for a in answers), len(answers)),
        "cache.lookup_us_p50": p50_ms("cache.get") * 1000.0,
        "cache.invalidations": float(sum(a["dropped"] for a in log.attrs("cache.invalidate"))),
        "index.lookup_us_p50": p50_ms("index.lookup") * 1000.0,
        "index.walks_from_index_share": share(stored, stored + online),
        "http.encode_ms_p50": p50_ms("http.encode"),
        "dynamic.apply_ms_p50": p50_ms("dynamic.apply"),
        "dynamic.compact_ms_max": max(log.durations("dynamic.compact"), default=0.0) * 1000.0,
        **{
            f"program.{phase}_ms_p50": pct(phases.get(phase, []), 50)
            for phase in ("queue_wait", "plan", "kernel", "finalize")
        },
    }
