"""Fast checks of the layer-ledger benchmark's own logic (no timing runs)."""

from __future__ import annotations

import itertools
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest

import compare
import hostclock
import inputs
import measure
import spans
import spec

SPEC = spec.load()


def schedules(seed: int) -> bytes:
    """Every seed-driven input the workloads generate, as bytes."""
    hubs = np.arange(100, 4196)
    offsets, nodes, ppr = inputs.open_schedule(seed, 10, 200, 2.0)
    hot_offsets, hot_nodes = inputs.hot_schedule(seed, 20, hubs, 100, 2.0)
    stream = np.fromiter(
        itertools.islice(inputs.hot_seed_stream(hubs, 10**5, inputs.rng_for(seed, 50)), 3000), np.int64,
    )
    order = inputs.interleave_panels({"a": list(range(50)), "b": list(range(50, 100))}, seed)
    keys = np.sort(np.random.default_rng(0).choice(10**6, 2000, replace=False)).astype(np.int64)
    plan, final = inputs.plan_mutations(keys, 1000, 3, 8, inputs.rng_for(seed, 30))
    parts = [offsets, nodes, ppr, hot_offsets, hot_nodes, stream, np.array([n for _, n in order]), final]
    parts += [array for batch in plan for array in batch]
    return b"".join(np.ascontiguousarray(part).tobytes() for part in parts)


def test_same_seed_same_schedules_other_seed_different():
    assert schedules(3) == schedules(3)
    assert schedules(3) != schedules(4)


def test_schedules_have_exact_counts_and_mix():
    offsets, nodes, ppr = inputs.open_schedule(7, 10, 200, 3.0)
    assert offsets.size == 600 and np.all(np.diff(offsets) >= 0)
    assert ppr.sum() == 90 and nodes.max() < inputs.GRAPH_N
    hubs = np.arange(5000, 9096)
    _, hot = inputs.hot_schedule(7, 20, hubs, 100, 10.0)
    assert np.isin(hot, hubs).mean() >= inputs.HOT_SHARE


def test_planned_mutations_apply_cleanly_on_a_2k_graph():
    from repro.dynamic.delta import DeltaGraph
    from repro.service.registry import build_from_spec

    graph = build_from_spec("chung-lu,n=2000,gamma=2.5,min_degree=2,max_degree=40,seed=5")
    n = graph.num_nodes
    plan, final = inputs.plan_mutations(
        inputs.edge_keys(graph.indptr, graph.indices, n), n, 12, 32, inputs.rng_for(1, 30),
    )
    view = DeltaGraph(graph)
    for add, remove in plan:
        assert add.shape == remove.shape == (32, 2)
        view = view.apply(add=add, remove=remove)  # raises on an invalid batch
    served = view.compacted()
    assert view.epoch == len(plan)
    assert np.array_equal(inputs.edge_keys(served.indptr, served.indices, n), final)


def test_host_clock_times_the_same_work_every_time():
    clock = hostclock.HostClock()
    assert clock._unit() == clock._unit()
    assert clock._array_unit() == clock._array_unit()
    factor = clock.read()
    assert factor > 0 and clock.readings == [factor]
    assert clock.read_array() > 0
    assert hostclock.between([1.0, 3.0, 2.0]) == [2.0, 2.5]


def test_ticker_reads_the_array_unit_until_the_window_ends(monkeypatch):
    monkeypatch.setattr(hostclock, "TICK_SECONDS", 0.02)
    with hostclock.Ticker(hostclock.HostClock()) as ticker:
        time.sleep(0.1)
    assert not ticker._thread.is_alive()
    assert len(ticker.factors) >= 2 and ticker.factor > 0
    assert ticker.cpu_seconds > 0


def test_median_setup_scales_each_build_by_the_readings_around_it(monkeypatch):
    class Clock:
        readings = iter([1.0, 1.0, 2.0, 2.0])

        def read(self):
            return next(self.readings)

    # Three builds taking 1, 2 and 3 s between readings of 1, 1, 2 and 2.
    ticks = iter([0.0, 1.0, 1.0, 3.0, 3.0, 6.0])
    monkeypatch.setattr(measure, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    result, seconds = measure.median_setup(lambda: "built", 3, Clock())
    assert result == "built"
    assert seconds == pytest.approx(2.0 / 1.5)


def test_self_times_charge_the_innermost_layer_and_sum_to_the_root():
    intervals = [
        ("service.submit", 1.0, 2.0),
        ("cache.get", 1.2, 1.5),
        ("service.batch", 3.0, 9.0),
        ("engine.kernel", 4.0, 6.0),
    ]
    charged = spans.self_times(0.0, 10.0, intervals)
    assert charged == pytest.approx({
        "root": 3.0, "service_submit": 0.7, "cache": 0.3,
        "service_dispatch": 4.0, "engine_kernel": 2.0,
    })
    assert sum(charged.values()) == pytest.approx(10.0)


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 102.0, 98.0, 100.0, 101.0]


@pytest.mark.parametrize("new, verdict", [
    ([v * 0.8 for v in STEADY], "gain"),
    ([v * 1.3 for v in STEADY], "regression"),
    (list(reversed(STEADY)), "unchanged"),
])
def test_compare_decides_gain_regression_and_unchanged(new, verdict):
    assert compare.judge(STEADY, new, "lower", 0.1)["verdict"] == verdict
    flipped = "gain" if verdict == "regression" else "regression" if verdict == "gain" else verdict
    assert compare.judge(STEADY, new, "higher", 0.1)["verdict"] == flipped


NOISY = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]


@pytest.mark.parametrize("factor, verdict", [
    (1.05, "unresolved"),
    # A move past the bound is a regression however noisy the old runs are...
    (1.5, "regression"),
    # ...and every new run beating every old run is a gain.
    (0.2, "gain"),
])
def test_compare_on_a_metric_noisier_than_its_bound(factor, verdict):
    assert compare.judge(NOISY, [v * factor for v in NOISY], "lower", 0.1)["verdict"] == verdict


def record(seed: int, value: float, seconds: float = 12.0) -> dict:
    return {"seed": seed, "seconds": seconds, "e2e": {"m": value}}


def test_compare_pairs_runs_by_seed_and_refuses_mixed_lengths():
    old = {"w": {seed: record(seed, 100.0 + seed) for seed in range(10)}}
    new = {"w": {seed: record(seed, 99.0 + seed) for seed in reversed(range(10))}}
    declared = {"end_to_end": [{"name": "m", "better": "lower", "bound": 0.5}]}
    assert compare.compare(old, new, declared)["w"]["m"]["won"] == 10
    new["w"][3] = record(3, 102.0, seconds=6.0)
    with pytest.raises(ValueError, match="different lengths"):
        compare.compare(old, new, declared)


def test_compare_judges_each_workloads_own_metrics():
    own = [m["name"] for m in spec.WORKLOAD_METRICS["mutate-mix"]]
    old = {"mutate-mix": {s: {"seed": s, "seconds": 12.0, "e2e": dict.fromkeys(own, 10.0)} for s in range(5)}}
    new = {"mutate-mix": {s: {"seed": s, "seconds": 12.0, "e2e": dict.fromkeys(own, 20.0)} for s in range(5)}}
    table = compare.compare(old, new, {"end_to_end": []})["mutate-mix"]
    assert list(table) == own
    assert all(table[name]["verdict"] == "regression" for name in own)


def test_benchmark_names_are_plain_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for workload, metrics in spec.WORKLOAD_METRICS.items():
        assert workload in {w["name"] for w in SPEC["workloads"]}
        assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", m["name"]) for m in metrics)
        assert not {m["name"] for m in metrics} & {m["name"] for m in SPEC["end_to_end"]}
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} == {
        "cluster-teaplus", "serve-open", "serve-hot-http", "mutate-mix",
    }
    ledger_rows = {m["name"] for m in SPEC["per_layer"] if m["name"].startswith("ledger.")}
    assert ledger_rows == {f"ledger.{row}_ms" for row in spans.LEDGER_ROWS}
